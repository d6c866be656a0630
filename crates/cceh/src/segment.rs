//! Segments and cache-line buckets for CCEH.
//!
//! CCEH (Nam et al., FAST '19) is a cache-line-conscious extendible hash table: a
//! directory maps the high bits of the hash to fixed-size segments, and within a
//! segment a key probes only a small number of adjacent cache-line buckets, so an
//! insert dirties (and, on PM, flushes) very few lines. When a segment fills up it is
//! split copy-on-write into two segments with one more local-depth bit, and the
//! directory is updated (doubling it if necessary) — the operations whose non-atomic
//! metadata updates caused the crash bugs described in §3 of the RECIPE paper.

use recipe::lock::VersionLock;
use recipe::persist::{span, span_of, PersistMode, Span};
use std::sync::atomic::{AtomicU64, Ordering};

/// Key/value slots per cache-line bucket (16 bytes per pair).
pub const SLOTS_PER_BUCKET: usize = 4;
/// Buckets per segment (256 × 64 B = 16 KiB segments, as in the paper).
pub const BUCKETS_PER_SEGMENT: usize = 256;
/// Number of adjacent buckets probed on insert/lookup (cache-line conscious probing).
pub const LINEAR_PROBE: usize = 4;
/// Sentinel for an empty key slot.
pub const EMPTY_KEY: u64 = 0;

/// Error returned by [`Segment::insert`] when the probe window is full and the
/// caller must split the segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentFull;

/// One 64-byte bucket: four key/value pairs.
#[repr(C, align(64))]
#[derive(Default)]
pub struct Bucket {
    /// Keys ([`EMPTY_KEY`] = free slot).
    pub keys: [AtomicU64; SLOTS_PER_BUCKET],
    /// Values paired with `keys`.
    pub vals: [AtomicU64; SLOTS_PER_BUCKET],
}

/// A fixed-size segment of buckets plus extendible-hashing metadata.
pub struct Segment {
    /// Number of hash bits this segment owns (its directory entries share the same
    /// `local_depth`-bit prefix).
    pub local_depth: AtomicU64,
    /// Writer lock (readers are non-blocking).
    pub lock: VersionLock,
    /// Buckets.
    pub buckets: Vec<Bucket>,
}

impl Segment {
    /// What linking the segment makes reachable: its buckets, then its header —
    /// also the order [`Segment::stage`] flushes them in.
    #[must_use]
    pub fn covers(&self) -> [Span; 2] {
        [span_of(&*self.buckets), span(self)]
    }

    /// Stage the whole segment, without a fence.
    pub fn stage<P: PersistMode>(&self) {
        for (ptr, len) in self.covers() {
            P::stage(ptr, len);
        }
    }

    /// Allocate a segment with the given local depth.
    pub fn alloc(local_depth: u64) -> *mut Segment {
        let mut buckets = Vec::with_capacity(BUCKETS_PER_SEGMENT);
        buckets.resize_with(BUCKETS_PER_SEGMENT, Bucket::default);
        pm::alloc::pm_box(Segment {
            local_depth: AtomicU64::new(local_depth),
            lock: VersionLock::new(),
            buckets,
        })
    }

    /// Bucket index for a hash (low bits; the directory uses the high bits).
    #[inline]
    #[must_use]
    pub fn bucket_index(hash: u64) -> usize {
        (hash as usize) & (BUCKETS_PER_SEGMENT - 1)
    }

    /// Non-blocking lookup within the probe window.
    pub fn get(&self, hash: u64, key: u64) -> Option<u64> {
        let start = Self::bucket_index(hash);
        for p in 0..LINEAR_PROBE {
            let b = &self.buckets[(start + p) & (BUCKETS_PER_SEGMENT - 1)];
            pm::stats::record_node_visit();
            for i in 0..SLOTS_PER_BUCKET {
                let k = b.keys[i].load(Ordering::Acquire);
                if k == key {
                    let v = b.vals[i].load(Ordering::Acquire);
                    if b.keys[i].load(Ordering::Acquire) == k {
                        return Some(v);
                    }
                }
            }
        }
        None
    }

    /// Insert (or update) under the segment lock. Returns:
    /// `Ok(true)` newly inserted, `Ok(false)` updated in place, [`SegmentFull`] probe window
    /// full — the caller must split the segment.
    pub fn insert<P: PersistMode>(
        &self,
        hash: u64,
        key: u64,
        value: u64,
    ) -> Result<bool, SegmentFull> {
        let start = Self::bucket_index(hash);
        let mut free: Option<(usize, usize)> = None;
        for p in 0..LINEAR_PROBE {
            let bi = (start + p) & (BUCKETS_PER_SEGMENT - 1);
            let b = &self.buckets[bi];
            for i in 0..SLOTS_PER_BUCKET {
                let k = b.keys[i].load(Ordering::Acquire);
                if k == key {
                    P::persist_store(&b.vals[i], || b.vals[i].store(value, Ordering::Release));
                    return Ok(false);
                }
                if k == EMPTY_KEY && free.is_none() {
                    free = Some((bi, i));
                }
            }
        }
        let Some((bi, i)) = free else { return Err(SegmentFull) };
        let b = &self.buckets[bi];
        // Value first, then the committing 8-byte key store; one flush covers the line.
        b.vals[i].store(value, Ordering::Release);
        P::crash_site("cceh.insert.value_written");
        let commit = || b.keys[i].store(key, Ordering::Release);
        P::publish_same_line(&b.keys[i], commit, [span(&b.vals[i])], "cceh.insert.committed");
        Ok(true)
    }

    /// Update in place under the segment lock, without inserting. Returns `false`
    /// if the key is not present in the probe window.
    pub fn update_in_place<P: PersistMode>(&self, hash: u64, key: u64, value: u64) -> bool {
        let start = Self::bucket_index(hash);
        for p in 0..LINEAR_PROBE {
            let b = &self.buckets[(start + p) & (BUCKETS_PER_SEGMENT - 1)];
            for i in 0..SLOTS_PER_BUCKET {
                if b.keys[i].load(Ordering::Acquire) == key {
                    P::persist_store(&b.vals[i], || b.vals[i].store(value, Ordering::Release));
                    return true;
                }
            }
        }
        false
    }

    /// Remove under the segment lock.
    pub fn remove<P: PersistMode>(&self, hash: u64, key: u64) -> bool {
        let start = Self::bucket_index(hash);
        for p in 0..LINEAR_PROBE {
            let b = &self.buckets[(start + p) & (BUCKETS_PER_SEGMENT - 1)];
            for i in 0..SLOTS_PER_BUCKET {
                if b.keys[i].load(Ordering::Acquire) == key {
                    P::persist_store(&b.keys[i], || b.keys[i].store(EMPTY_KEY, Ordering::Release));
                    return true;
                }
            }
        }
        false
    }

    /// Iterate all occupied `(hash-recomputable) key → value` pairs.
    pub fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        for b in &self.buckets {
            for i in 0..SLOTS_PER_BUCKET {
                let k = b.keys[i].load(Ordering::Acquire);
                if k != EMPTY_KEY {
                    f(k, b.vals[i].load(Ordering::Acquire));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe::persist::Dram;

    #[test]
    fn bucket_is_cache_line_sized() {
        assert_eq!(std::mem::size_of::<Bucket>(), 64);
    }

    #[test]
    fn insert_get_remove_in_segment() {
        let s = Segment::alloc(0);
        // SAFETY: freshly allocated.
        let seg = unsafe { &*s };
        let h = recipe::key::hash_u64(42);
        assert_eq!(seg.insert::<Dram>(h, 42, 420), Ok(true));
        assert_eq!(seg.insert::<Dram>(h, 42, 421), Ok(false));
        assert_eq!(seg.get(h, 42), Some(421));
        assert!(seg.remove::<Dram>(h, 42));
        assert!(!seg.remove::<Dram>(h, 42));
        assert_eq!(seg.get(h, 42), None);
    }

    #[test]
    fn probe_window_fills_and_reports_split_needed() {
        let s = Segment::alloc(0);
        // SAFETY: freshly allocated.
        let seg = unsafe { &*s };
        // Fill every slot of the probe window for one bucket index by using hashes
        // with the same low bits.
        let base_hash = 5u64;
        let capacity = LINEAR_PROBE * SLOTS_PER_BUCKET;
        for i in 0..capacity as u64 {
            assert_eq!(seg.insert::<Dram>(base_hash, 1000 + i, i), Ok(true), "slot {i}");
        }
        assert_eq!(seg.insert::<Dram>(base_hash, 9999, 1), Err(SegmentFull));
        let mut n = 0;
        seg.for_each(|_, _| n += 1);
        assert_eq!(n, capacity);
    }
}
