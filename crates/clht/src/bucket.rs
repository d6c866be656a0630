//! Cache-line-sized buckets for CLHT.
//!
//! CLHT restricts each bucket to one cache line (64 bytes): a lock word, three
//! key-value pairs of 8 bytes each, and a pointer to an overflow bucket (§6.2). The
//! layout is what makes the common-case update touch (and, in the PM conversion,
//! flush) exactly one cache line.

use recipe::lock::VersionLock;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// Number of key-value pairs per bucket.
pub const ENTRIES_PER_BUCKET: usize = 3;

/// Sentinel stored in a key slot that holds no entry.
pub const EMPTY_KEY: u64 = 0;

/// A 64-byte CLHT bucket: lock, three key slots, three value slots, overflow pointer.
#[repr(C, align(64))]
pub struct Bucket {
    /// Per-bucket write lock (only the first bucket of a chain is ever locked).
    pub lock: VersionLock,
    /// Key slots; [`EMPTY_KEY`] means the slot is free.
    pub keys: [AtomicU64; ENTRIES_PER_BUCKET],
    /// Value slots, valid only when the corresponding key slot is non-empty.
    pub vals: [AtomicU64; ENTRIES_PER_BUCKET],
    /// Overflow chain pointer (null when the chain ends here).
    pub next: AtomicPtr<Bucket>,
}

impl Default for Bucket {
    fn default() -> Self {
        Self::new()
    }
}

impl Bucket {
    /// Create an empty bucket.
    #[must_use]
    pub fn new() -> Self {
        Bucket {
            lock: VersionLock::new(),
            keys: Default::default(),
            vals: Default::default(),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Create a bucket pre-populated with one entry (used when growing a chain).
    #[must_use]
    pub fn with_entry(key: u64, value: u64) -> Self {
        let b = Bucket::new();
        b.vals[0].store(value, Ordering::Relaxed);
        b.keys[0].store(key, Ordering::Relaxed);
        b
    }

    /// Atomic-snapshot read of `key` within this single bucket (not the chain).
    ///
    /// CLHT's non-blocking readers rely on the ordering "value is written before the
    /// key becomes visible": read key, read value, re-read key; if the key is stable
    /// the value belongs to it.
    pub fn get_in_bucket(&self, key: u64) -> Option<u64> {
        for i in 0..ENTRIES_PER_BUCKET {
            let k = self.keys[i].load(Ordering::Acquire);
            if k == key {
                let v = self.vals[i].load(Ordering::Acquire);
                if self.keys[i].load(Ordering::Acquire) == key {
                    return Some(v);
                }
            }
        }
        None
    }

    /// Index of the first empty slot, if any.
    pub fn free_slot(&self) -> Option<usize> {
        (0..ENTRIES_PER_BUCKET).find(|&i| self.keys[i].load(Ordering::Acquire) == EMPTY_KEY)
    }

    /// Index of the slot currently holding `key`, if any.
    pub fn slot_of(&self, key: u64) -> Option<usize> {
        (0..ENTRIES_PER_BUCKET).find(|&i| self.keys[i].load(Ordering::Acquire) == key)
    }

    /// Iterate over the occupied `(key, value)` pairs of this bucket, in slot
    /// order, allocating nothing.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..ENTRIES_PER_BUCKET).filter_map(move |i| {
            let k = self.keys[i].load(Ordering::Acquire);
            (k != EMPTY_KEY).then(|| (k, self.vals[i].load(Ordering::Acquire)))
        })
    }

    /// Pointer to the next overflow bucket in the chain, if any.
    pub fn next_ptr(&self) -> *mut Bucket {
        self.next.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Bucket>(), 64);
        assert_eq!(std::mem::align_of::<Bucket>(), 64);
    }

    #[test]
    fn snapshot_read_finds_inserted_entry() {
        let b = Bucket::new();
        assert_eq!(b.get_in_bucket(42), None);
        b.vals[1].store(100, Ordering::Release);
        b.keys[1].store(42, Ordering::Release);
        assert_eq!(b.get_in_bucket(42), Some(100));
        assert_eq!(b.slot_of(42), Some(1));
    }

    #[test]
    fn free_slot_scans_in_order() {
        let b = Bucket::new();
        assert_eq!(b.free_slot(), Some(0));
        b.keys[0].store(1, Ordering::Release);
        assert_eq!(b.free_slot(), Some(1));
        b.keys[1].store(2, Ordering::Release);
        b.keys[2].store(3, Ordering::Release);
        assert_eq!(b.free_slot(), None);
    }

    #[test]
    fn with_entry_prepopulates_slot_zero() {
        let b = Bucket::with_entry(9, 90);
        assert_eq!(b.get_in_bucket(9), Some(90));
        assert_eq!(b.entries().collect::<Vec<_>>(), vec![(9, 90)]);
    }
}
