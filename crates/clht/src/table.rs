//! The bucket array ("hash table instance") behind a CLHT.
//!
//! Rehashing in CLHT is copy-on-write: a new, larger [`Table`] is populated from the
//! old one and then installed with a single atomic pointer swap (the Condition #1
//! commit point for the SMO). Old tables are never freed while the index lives — the
//! RECIPE garbage-collection assumption — so non-blocking readers that still hold the
//! old pointer stay correct; the index keeps them on a retired list and frees them,
//! overflow chains included, when it is dropped.

use crate::bucket::{Bucket, EMPTY_KEY, ENTRIES_PER_BUCKET};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-size power-of-two array of cache-line buckets.
pub struct Table {
    buckets: Box<[Bucket]>,
    mask: u64,
    /// Number of overflow buckets linked into this table (drives the resize policy).
    pub expansions: AtomicU64,
}

impl Table {
    /// Create a table with `num_buckets` (rounded up to a power of two, minimum 2).
    #[must_use]
    pub fn new(num_buckets: usize) -> Table {
        let n = num_buckets.next_power_of_two().max(2);
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, Bucket::new);
        Table { buckets: v.into_boxed_slice(), mask: (n - 1) as u64, expansions: AtomicU64::new(0) }
    }

    /// Number of first-level buckets.
    #[must_use]
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Approximate capacity in entries (first-level slots only).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buckets.len() * ENTRIES_PER_BUCKET
    }

    /// The first bucket of the chain for `hash`.
    #[must_use]
    pub fn bucket_for(&self, hash: u64) -> &Bucket {
        &self.buckets[(hash & self.mask) as usize]
    }

    /// All first-level buckets (used by rehashing and recovery walks).
    #[must_use]
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Insert into this (private, not yet published) table without any locking or
    /// persistence. Used while building the destination table of a rehash.
    pub fn insert_unsynchronized(&self, hash: u64, key: u64, value: u64) {
        debug_assert_ne!(key, EMPTY_KEY);
        let mut bucket = self.bucket_for(hash);
        loop {
            for i in 0..ENTRIES_PER_BUCKET {
                if bucket.keys[i].load(Ordering::Relaxed) == EMPTY_KEY {
                    bucket.vals[i].store(value, Ordering::Relaxed);
                    bucket.keys[i].store(key, Ordering::Relaxed);
                    return;
                }
                if bucket.keys[i].load(Ordering::Relaxed) == key {
                    bucket.vals[i].store(value, Ordering::Relaxed);
                    return;
                }
            }
            let next = bucket.next_ptr();
            if next.is_null() {
                let nb = pm::alloc::pm_box(Bucket::with_entry(key, value));
                bucket.next.store(nb, Ordering::Relaxed);
                self.expansions.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // SAFETY: overflow buckets are allocated by this table and never freed
            // while it is alive.
            bucket = unsafe { &*next };
        }
    }

    /// Visit every bucket of this table once, each first-level bucket before its
    /// overflow chain, as `(bucket, chained)`: `chained` marks an overflow bucket,
    /// a `pm_box` of its own. A bucket's successor is read before its visit, so
    /// `f` may free a chained bucket. This is the table's one full-structure
    /// traversal: `len_slow`, `for_each`, recovery and the drop call it.
    pub(crate) fn for_each_object(&self, mut f: impl FnMut(*mut Bucket, bool)) {
        for b in self.buckets.iter() {
            let (mut cur, mut chained) = (b as *const Bucket as *mut Bucket, false);
            while !cur.is_null() {
                // SAFETY: chain buckets are freed only when their table is dropped.
                let next = unsafe { &*cur }.next_ptr();
                f(cur, chained);
                (cur, chained) = (next, true);
            }
        }
    }

    /// Total number of occupied entries, walking every chain. O(n); test/diagnostic
    /// use only.
    #[must_use]
    pub fn len_slow(&self) -> usize {
        let mut count = 0;
        // SAFETY: the walk's buckets live as long as the table.
        self.for_each_object(|b, _| count += unsafe { &*b }.entries().count());
        count
    }

    /// Iterate over every `(key, value)` in the table, chains included.
    pub fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        self.for_each_object(|b, _| {
            // SAFETY: the walk's buckets live as long as the table.
            for (k, v) in unsafe { &*b }.entries() {
                f(k, v);
            }
        });
    }
}

impl Drop for Table {
    fn drop(&mut self) {
        // Free the overflow chains this table owns. First-level buckets are dropped
        // with the boxed slice.
        self.for_each_object(|b, chained| {
            if chained {
                // SAFETY: overflow buckets were allocated with `pm_box` by this table
                // and are unreachable once the table is dropped.
                unsafe { pm::alloc::pm_drop(b) };
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rounds_to_power_of_two() {
        assert_eq!(Table::new(0).num_buckets(), 2);
        assert_eq!(Table::new(3).num_buckets(), 4);
        assert_eq!(Table::new(16).num_buckets(), 16);
    }

    #[test]
    fn unsynchronized_insert_and_count() {
        let t = Table::new(4);
        for k in 1..=50u64 {
            t.insert_unsynchronized(recipe::key::hash_u64(k), k, k * 10);
        }
        assert_eq!(t.len_slow(), 50);
        let mut seen = std::collections::HashMap::new();
        t.for_each(|k, v| {
            seen.insert(k, v);
        });
        assert_eq!(seen.len(), 50);
        assert_eq!(seen[&7], 70);
    }

    #[test]
    fn unsynchronized_insert_overwrites_duplicates() {
        let t = Table::new(2);
        let h = recipe::key::hash_u64(5);
        t.insert_unsynchronized(h, 5, 1);
        t.insert_unsynchronized(h, 5, 2);
        assert_eq!(t.len_slow(), 1);
        let mut val = 0;
        t.for_each(|_, v| val = v);
        assert_eq!(val, 2);
    }

    #[test]
    fn overflow_chains_grow_and_are_freed_on_drop() {
        let t = Table::new(2);
        for k in 1..=100u64 {
            t.insert_unsynchronized(recipe::key::hash_u64(k), k, k);
        }
        assert!(t.expansions.load(Ordering::Relaxed) > 0);
        assert_eq!(t.len_slow(), 100);
        drop(t); // must not leak or double-free (exercised under the test allocator)
    }
}
