//! # CCEH — Cacheline-Conscious Extendible Hashing (hand-crafted PM baseline)
//!
//! CCEH (Nam et al., FAST '19) is the state-of-the-art persistent hash table the
//! RECIPE paper compares P-CLHT against (§7.2). A directory indexed by the high bits
//! of the hash points to 16 KiB segments; each key probes a small window of adjacent
//! cache-line buckets inside its segment, so an insert flushes very few lines. Full
//! segments are split copy-on-write (frequent and expensive — the reason P-CLHT beats
//! CCEH once the table is warm), doubling the directory when a segment's local depth
//! reaches the global depth.
//!
//! The optional `durability-bug` feature reproduces the durability finding of §7.5
//! (the initial directory/segment allocation is not flushed); the optional
//! `doubling-bug` feature reproduces the §3 crash bug where the directory pointer,
//! width and depth are not made durable in a crash-safe order.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod segment;

/// Every crash site this crate can emit, for the §5 per-site exhaustive sweep.
/// The directory-doubling sites depend on the `doubling-bug` feature (the buggy
/// ordering has one site where the correct ordering has two).
#[cfg(not(feature = "doubling-bug"))]
pub const CRASH_SITES: &[&str] = &[
    "cceh.insert.value_written",
    "cceh.insert.committed",
    "cceh.doubling.new_dir_persisted",
    "cceh.doubling.committed",
    "cceh.split.segments_persisted",
    "cceh.split.directory_updated",
];

/// Every crash site this crate can emit, for the §5 per-site exhaustive sweep
/// (`doubling-bug` build).
#[cfg(feature = "doubling-bug")]
pub const CRASH_SITES: &[&str] = &[
    "cceh.insert.value_written",
    "cceh.insert.committed",
    "cceh.doubling.swapped_before_persist",
    "cceh.split.segments_persisted",
    "cceh.split.directory_updated",
];

use recipe::key::{hash_u64, key_to_u64};
use recipe::persist::{PersistMode, Pmem};
use recipe::session::{Capabilities, Index, OpError, OpResult};
use segment::{Segment, BUCKETS_PER_SEGMENT, SLOTS_PER_BUCKET};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// The extendible-hashing directory: an array of segment pointers addressed by the
/// top `global_depth` bits of the hash.
pub struct Directory {
    /// Number of hash bits used to index the directory.
    pub global_depth: u64,
    /// Segment pointers (`2^global_depth` entries).
    pub segments: Vec<AtomicU64>,
}

impl Directory {
    fn alloc(global_depth: u64) -> *mut Directory {
        let n = 1usize << global_depth;
        let mut segments = Vec::with_capacity(n);
        segments.resize_with(n, || AtomicU64::new(0));
        pm::alloc::pm_box(Directory { global_depth, segments })
    }

    #[inline]
    fn index(&self, hash: u64) -> usize {
        if self.global_depth == 0 {
            0
        } else {
            (hash >> (64 - self.global_depth)) as usize
        }
    }
}

/// Cacheline-Conscious Extendible Hashing.
pub struct Cceh<P: PersistMode = Pmem> {
    dir: AtomicPtr<Directory>,
    dir_lock: parking_lot::Mutex<()>,
    _policy: PhantomData<P>,
}

/// The persistent CCEH evaluated in the paper.
pub type PCceh = Cceh<Pmem>;
/// The same structure with persistence compiled out (registry uniformity).
pub type DramCceh = Cceh<recipe::persist::Dram>;

// SAFETY: directories and segments are only mutated through atomics/locks and are
// never freed while the table is alive (copy-on-write splits leak the old versions).
unsafe impl<P: PersistMode> Send for Cceh<P> {}
// SAFETY: as above — directories/segments are lock- or atomically-mutated, never freed.
unsafe impl<P: PersistMode> Sync for Cceh<P> {}

impl<P: PersistMode> Default for Cceh<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: PersistMode> Cceh<P> {
    /// Create a table with one segment per initial directory entry.
    /// `initial_depth = 1` gives two 16 KiB segments.
    #[must_use]
    pub fn with_depth(initial_depth: u64) -> Self {
        let dir = Directory::alloc(initial_depth);
        // SAFETY: freshly allocated, private.
        let d = unsafe { &*dir };
        for i in 0..d.segments.len() {
            let seg = Segment::alloc(initial_depth);
            #[cfg(not(feature = "durability-bug"))]
            {
                // SAFETY: freshly allocated segment, private.
                let s = unsafe { &*seg };
                P::persist_range(s.buckets.as_ptr().cast(), BUCKETS_PER_SEGMENT * 64, false);
                P::persist_obj(seg, false);
            }
            d.segments[i].store(seg as u64, Ordering::Release);
        }
        #[cfg(not(feature = "durability-bug"))]
        {
            P::persist_range(d.segments.as_ptr().cast(), d.segments.len() * 8, false);
            P::persist_obj(dir, true);
        }
        let t = Cceh {
            dir: AtomicPtr::new(dir),
            dir_lock: parking_lot::Mutex::new(()),
            _policy: PhantomData,
        };
        P::persist_obj(&t.dir, true);
        t
    }

    /// Default-sized table (matches the paper's 48 KB starting configuration order of
    /// magnitude: two segments).
    #[must_use]
    pub fn new() -> Self {
        Self::with_depth(1)
    }

    #[inline]
    fn internal_key(key: &[u8]) -> Option<u64> {
        if key.len() > 8 {
            return None;
        }
        let k = key_to_u64(key).wrapping_add(1);
        (k != segment::EMPTY_KEY).then_some(k)
    }

    #[inline]
    fn directory(&self) -> &Directory {
        // SAFETY: directories are never freed while the table is alive.
        unsafe { &*self.dir.load(Ordering::Acquire) }
    }

    fn segment_for(&self, dir: &Directory, hash: u64) -> &Segment {
        let ptr = dir.segments[dir.index(hash)].load(Ordering::Acquire) as *const Segment;
        pm::stats::record_node_visit();
        // SAFETY: segments are never freed while the table is alive.
        unsafe { &*ptr }
    }

    fn get_internal(&self, k: u64) -> Option<u64> {
        let h = hash_u64(k);
        let dir = self.directory();
        let seg = self.segment_for(dir, h);
        seg.get(h, k)
    }

    /// Locate the segment covering `h`, lock it, **re-validate** that the
    /// directory still maps `h` to it (a concurrent split/doubling may have
    /// replaced the mapping between the lookup and the lock), then run `op`
    /// with the lock held. Retries the locate-lock-revalidate sequence until
    /// it wins; every lock-protected segment operation goes through here so
    /// the protocol exists exactly once.
    fn with_locked_segment<R>(&self, h: u64, mut op: impl FnMut(*mut Segment, &Segment) -> R) -> R {
        loop {
            let dir_ptr = self.dir.load(Ordering::Acquire);
            // SAFETY: directories are never freed while the table is alive.
            let dir = unsafe { &*dir_ptr };
            let idx = dir.index(h);
            let seg_ptr = dir.segments[idx].load(Ordering::Acquire) as *mut Segment;
            // SAFETY: segments are never freed while the table is alive.
            let seg = unsafe { &*seg_ptr };
            let guard = seg.lock.lock();
            if self.dir.load(Ordering::Acquire) != dir_ptr
                || dir.segments[idx].load(Ordering::Acquire) != seg_ptr as u64
            {
                drop(guard);
                continue;
            }
            pm::stats::record_node_visit();
            return op(seg_ptr, seg);
        }
    }

    fn put_internal(&self, k: u64, value: u64) -> bool {
        let h = hash_u64(k);
        loop {
            let (seg_ptr, r) = self
                .with_locked_segment(h, |ptr, seg| (ptr as usize, seg.insert::<P>(h, k, value)));
            match r {
                Ok(newly) => return newly,
                Err(segment::SegmentFull) => {
                    // The segment lock is already released; split the observed
                    // segment (split_segment re-validates the mapping) and
                    // retry the insert against the new layout.
                    self.split_segment(seg_ptr as *mut Segment, h);
                }
            }
        }
    }

    /// Atomic conditional update: write the new value under the segment lock only
    /// if the key is already present; never inserts.
    fn update_internal(&self, k: u64, value: u64) -> bool {
        let h = hash_u64(k);
        self.with_locked_segment(h, |_, seg| seg.update_in_place::<P>(h, k, value))
    }

    /// Split the segment currently covering `hash` (copy-on-write), doubling the
    /// directory first if the segment already uses every directory bit.
    fn split_segment(&self, seg_ptr: *mut Segment, hash: u64) {
        let _dir_guard = self.dir_lock.lock();
        let dir_ptr = self.dir.load(Ordering::Acquire);
        // SAFETY: never freed.
        let dir = unsafe { &*dir_ptr };
        // Another thread may already have split this segment.
        if dir.segments[dir.index(hash)].load(Ordering::Acquire) != seg_ptr as u64 {
            return;
        }
        // SAFETY: never freed.
        let seg = unsafe { &*seg_ptr };
        let _seg_guard = seg.lock.lock();
        let local_depth = seg.local_depth.load(Ordering::Acquire);

        let dir = if local_depth == dir.global_depth {
            // Directory doubling: allocate a directory twice the size, duplicate every
            // entry, persist it, then atomically swap the directory pointer. The
            // `doubling-bug` feature swaps the pointer *before* persisting the new
            // directory, reproducing the §3 crash bug.
            let new_dir_ptr = Directory::alloc(dir.global_depth + 1);
            // SAFETY: freshly allocated, private.
            let new_dir = unsafe { &*new_dir_ptr };
            for i in 0..dir.segments.len() {
                let s = dir.segments[i].load(Ordering::Acquire);
                new_dir.segments[2 * i].store(s, Ordering::Relaxed);
                new_dir.segments[2 * i + 1].store(s, Ordering::Relaxed);
            }
            #[cfg(feature = "doubling-bug")]
            {
                self.dir.store(new_dir_ptr, Ordering::Release);
                P::crash_site("cceh.doubling.swapped_before_persist");
                P::persist_range(
                    new_dir.segments.as_ptr().cast(),
                    new_dir.segments.len() * 8,
                    false,
                );
                P::persist_obj(new_dir_ptr, true);
                P::persist_obj(&self.dir, true);
            }
            #[cfg(not(feature = "doubling-bug"))]
            {
                P::persist_range(
                    new_dir.segments.as_ptr().cast(),
                    new_dir.segments.len() * 8,
                    false,
                );
                P::persist_obj(new_dir_ptr, true);
                P::crash_site("cceh.doubling.new_dir_persisted");
                self.dir.store(new_dir_ptr, Ordering::Release);
                P::mark_dirty_obj(&self.dir);
                P::persist_obj(&self.dir, true);
                P::crash_site("cceh.doubling.committed");
            }
            obs::event::emit("cceh.resize", "dir_doubled", dir.global_depth, new_dir.global_depth);
            new_dir
        } else {
            dir
        };

        // Copy-on-write split into two segments with one more local-depth bit.
        let new_depth = local_depth + 1;
        let left_ptr = Segment::alloc(new_depth);
        let right_ptr = Segment::alloc(new_depth);
        // SAFETY: freshly allocated, private.
        let (left, right) = unsafe { (&*left_ptr, &*right_ptr) };
        seg.for_each(|k, v| {
            let kh = hash_u64(k);
            let bit = (kh >> (64 - new_depth)) & 1;
            let target = if bit == 0 { left } else { right };
            // Private segments; plain insert cannot fail because the split at most
            // redistributes LINEAR_PROBE * SLOTS_PER_BUCKET entries per bucket index.
            let redistributed = target.insert::<recipe::persist::Dram>(kh, k, v);
            debug_assert!(redistributed.is_ok(), "probe window overflow during segment split");
        });
        P::persist_range(left.buckets.as_ptr().cast(), BUCKETS_PER_SEGMENT * 64, false);
        P::persist_range(right.buckets.as_ptr().cast(), BUCKETS_PER_SEGMENT * 64, false);
        P::persist_obj(left_ptr, false);
        P::persist_obj(right_ptr, true);
        P::crash_site("cceh.split.segments_persisted");

        // Update every directory entry that pointed at the old segment.
        let prefix_bits = new_depth;
        for i in 0..dir.segments.len() {
            if dir.segments[i].load(Ordering::Acquire) == seg_ptr as u64 {
                let entry_prefix = (i as u64) >> (dir.global_depth - prefix_bits);
                let target = if entry_prefix & 1 == 0 { left_ptr } else { right_ptr };
                dir.segments[i].store(target as u64, Ordering::Release);
                P::mark_dirty_obj(&dir.segments[i]);
                P::persist_obj(&dir.segments[i], false);
            }
        }
        P::fence();
        P::crash_site("cceh.split.directory_updated");
        obs::event::emit("cceh.resize", "segment_split", local_depth, new_depth);
    }

    fn remove_internal(&self, k: u64) -> bool {
        let h = hash_u64(k);
        self.with_locked_segment(h, |_, seg| seg.remove::<P>(h, k))
    }

    /// Number of entries (slow; walks every segment once, de-duplicating shared
    /// directory entries).
    #[must_use]
    pub fn len(&self) -> usize {
        let dir = self.directory();
        let mut seen = std::collections::HashSet::new();
        let mut count = 0usize;
        for s in &dir.segments {
            let p = s.load(Ordering::Acquire);
            if seen.insert(p) {
                // SAFETY: never freed.
                let seg = unsafe { &*(p as *const Segment) };
                seg.for_each(|_, _| count += 1);
            }
        }
        count
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current directory depth (diagnostics).
    #[must_use]
    pub fn global_depth(&self) -> u64 {
        self.directory().global_depth
    }
}

/// What this index supports. `linearizable_update` is `true`: the presence
/// check and the value store happen under the same segment lock.
pub const CAPS: Capabilities = Capabilities::hash_index(true);

/// The segment-probe-window failure ([`segment::SegmentFull`]) used to live
/// only in this crate's side channel; under the session API it is an ordinary
/// typed error. The public insert path absorbs it by splitting the segment and
/// retrying, so callers only observe it through capacity-limited entry points.
impl From<segment::SegmentFull> for OpError {
    fn from(_: segment::SegmentFull) -> OpError {
        OpError::CapacityExceeded
    }
}

impl<P: PersistMode> Cceh<P> {
    /// Insert without segment splitting: a single attempt against the current
    /// layout, surfacing [`segment::SegmentFull`] as
    /// [`OpError::CapacityExceeded`] instead of absorbing it. This is the
    /// capacity-limited entry point for callers that bound memory themselves;
    /// [`Index::exec_insert`] retries with splits and never reports it.
    pub fn try_insert_no_split(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        let Some(k) = Self::internal_key(key) else { return Err(OpError::UnsupportedKey) };
        let h = hash_u64(k);
        let newly = self.with_locked_segment(h, |_, seg| seg.insert::<P>(h, k, value))?;
        Ok(if newly { OpResult::Inserted } else { OpResult::Updated })
    }
}

impl<P: PersistMode> Index for Cceh<P> {
    fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        match Self::internal_key(key) {
            Some(k) => {
                if self.put_internal(k, value) {
                    Ok(OpResult::Inserted)
                } else {
                    Ok(OpResult::Updated)
                }
            }
            None => Err(OpError::UnsupportedKey),
        }
    }

    /// Atomic: presence check and value store happen under the same segment lock
    /// (overrides the non-atomic trait default).
    fn exec_update(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        match Self::internal_key(key) {
            Some(k) if self.update_internal(k, value) => Ok(OpResult::Updated),
            Some(_) => Err(OpError::NotFound),
            None => Err(OpError::UnsupportedKey),
        }
    }

    fn exec_get(&self, key: &[u8]) -> Option<u64> {
        Self::internal_key(key).and_then(|k| self.get_internal(k))
    }

    fn exec_remove(&self, key: &[u8]) -> Result<OpResult, OpError> {
        match Self::internal_key(key) {
            Some(k) if self.remove_internal(k) => Ok(OpResult::Removed),
            Some(_) => Err(OpError::NotFound),
            None => Err(OpError::UnsupportedKey),
        }
    }

    fn capabilities(&self) -> Capabilities {
        CAPS
    }

    fn index_name(&self) -> String {
        if P::PERSISTENT {
            "CCEH".into()
        } else {
            "CCEH(dram)".into()
        }
    }

    fn recover(&self) {
        let dir = self.directory();
        let mut seen = std::collections::HashSet::new();
        for s in &dir.segments {
            let p = s.load(Ordering::Acquire);
            if seen.insert(p) {
                // SAFETY: never freed.
                let seg = unsafe { &*(p as *const Segment) };
                seg.lock.force_unlock();
            }
        }
    }
}

// Consistency guard: the probe window capacity assumed by split_segment.
const _: () = assert!(SLOTS_PER_BUCKET * segment::LINEAR_PROBE <= BUCKETS_PER_SEGMENT);

#[cfg(test)]
mod tests {
    use super::*;
    use recipe::key::u64_key;
    use recipe::session::IndexExt;
    use std::sync::Arc;

    fn k(x: u64) -> [u8; 8] {
        u64_key(x)
    }

    #[test]
    fn splits_and_doublings_emit_resize_events() {
        let was = obs::event::set_enabled(true);
        let t: PCceh = Cceh::new();
        let mut h = t.handle();
        for i in 0..20_000u64 {
            assert_eq!(h.insert(&k(i), i), Ok(OpResult::Inserted));
        }
        let dump = obs::event::drain();
        obs::event::set_enabled(was);
        let splits =
            dump.events.iter().filter(|e| e.kind == "cceh.resize" && e.detail == "segment_split");
        let doublings =
            dump.events.iter().filter(|e| e.kind == "cceh.resize" && e.detail == "dir_doubled");
        assert!(splits.clone().count() > 0, "20k inserts must split segments");
        assert!(doublings.clone().count() > 0, "20k inserts must double the directory");
        for ev in splits {
            assert_eq!(ev.b, ev.a + 1, "split adds one local-depth bit");
        }
        for ev in doublings {
            assert_eq!(ev.b, ev.a + 1, "doubling adds one global-depth bit");
        }
    }

    #[test]
    fn insert_get_remove() {
        let t: PCceh = Cceh::new();
        let mut h = t.handle();
        assert_eq!(h.insert(&k(1), 10), Ok(OpResult::Inserted));
        assert_eq!(h.insert(&k(1), 11), Ok(OpResult::Updated));
        assert_eq!(h.get(&k(1)), Some(11));
        assert_eq!(h.get(&k(2)), None);
        assert_eq!(h.remove(&k(1)), Ok(OpResult::Removed));
        assert_eq!(h.remove(&k(1)), Err(OpError::NotFound));
        assert!(t.is_empty());
    }

    #[test]
    fn many_inserts_trigger_splits_and_doubling() {
        let t: PCceh = Cceh::new();
        let n = 60_000u64;
        let mut h = t.handle();
        for i in 0..n {
            assert_eq!(h.insert(&k(i), i), Ok(OpResult::Inserted), "insert {i}");
        }
        assert!(t.global_depth() > 1, "directory should have doubled");
        for i in 0..n {
            assert_eq!(h.get(&k(i)), Some(i), "key {i} lost after splits");
        }
        assert_eq!(t.len(), n as usize);
    }

    #[test]
    fn update_semantics() {
        let t: PCceh = Cceh::new();
        let mut h = t.handle();
        assert_eq!(h.update(&k(5), 1), Err(OpError::NotFound));
        h.insert(&k(5), 1).unwrap();
        assert_eq!(h.update(&k(5), 2), Ok(OpResult::Updated));
        assert_eq!(h.get(&k(5)), Some(2));
    }

    #[test]
    fn concurrent_inserts() {
        let t: Arc<PCceh> = Arc::new(Cceh::new());
        let threads = 8u64;
        let per = 8_000u64;
        let mut handles = Vec::new();
        for tid in 0..threads {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut h = t.handle();
                for i in 0..per {
                    let key = tid * per + i;
                    assert_eq!(h.insert(&k(key), key), Ok(OpResult::Inserted));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut h = t.handle();
        for key in 0..threads * per {
            assert_eq!(h.get(&k(key)), Some(key), "key {key} lost");
        }
        assert_eq!(t.len(), (threads * per) as usize);
    }

    #[test]
    fn unsupported_keys_rejected() {
        let t: PCceh = Cceh::new();
        let mut h = t.handle();
        assert_eq!(h.insert(b"longer-than-8-bytes", 1), Err(OpError::UnsupportedKey));
        assert_eq!(h.get(b"longer-than-8-bytes"), None);
        // The bare entry points name the cause too.
        assert_eq!(t.exec_insert(b"longer-than-8-bytes", 1), Err(OpError::UnsupportedKey));
        assert_eq!(t.exec_update(b"longer-than-8-bytes", 1), Err(OpError::UnsupportedKey));
        assert_eq!(t.exec_remove(b"longer-than-8-bytes"), Err(OpError::UnsupportedKey));
    }

    #[test]
    fn segment_full_surfaces_as_typed_capacity_error() {
        assert_eq!(OpError::from(segment::SegmentFull), OpError::CapacityExceeded);
        // Without split-and-retry, a filling table must eventually refuse an
        // insert with the typed capacity error instead of a silent side channel.
        let t: PCceh = Cceh::new();
        let mut hit_capacity = false;
        for i in 0..60_000u64 {
            match t.try_insert_no_split(&k(i), i) {
                Ok(OpResult::Inserted) => {}
                Ok(other) => panic!("fresh key reported {other:?}"),
                Err(OpError::CapacityExceeded) => {
                    hit_capacity = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert!(hit_capacity, "a depth-1 table must fill a probe window within 60k inserts");
        // The splitting path absorbs the same condition and keeps going.
        for i in 0..60_000u64 {
            assert!(t.exec_insert(&k(i), i).is_ok());
        }
    }

    #[test]
    fn name_and_recover() {
        let t: PCceh = Cceh::new();
        assert_eq!(t.index_name(), "CCEH");
        t.handle().insert(&k(3), 3).unwrap();
        t.recover();
        assert_eq!(t.handle().get(&k(3)), Some(3));
    }
}
