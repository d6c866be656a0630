//! # CLHT / P-CLHT — Cache-Line Hash Table and its RECIPE conversion (Condition #1)
//!
//! CLHT (David et al., ASPLOS '15) restricts every bucket to a single cache line so
//! that the common-case update touches one line. Readers are non-blocking and use
//! atomic key/value snapshots; writers lock the bucket they modify; rehashing is
//! copy-on-write and commits by atomically swapping the table pointer (§6.2 of the
//! RECIPE paper).
//!
//! Both inserts/deletes and the rehash SMO therefore become visible through a single
//! hardware-atomic store, so CLHT satisfies **Condition #1** and its conversion to
//! P-CLHT only inserts cache-line flushes and fences after the relevant stores — the
//! paper reports 30 modified LOC. In this crate the conversion is the set of
//! `P::persist_*`/`P::crash_site` calls in [`Clht`], and the two instantiations are:
//!
//! * [`DramClht`] — the original DRAM index (`Clht<Dram>`),
//! * [`PClht`] — the RECIPE-converted PM index (`Clht<Pmem>`).
//!
//! Keys longer than 8 bytes are not supported (the paper evaluates unordered indexes
//! with 8-byte integer keys only); such operations return `false`/`None`.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod bucket;
pub mod table;

use bucket::{Bucket, EMPTY_KEY, ENTRIES_PER_BUCKET};
use recipe::key::{hash_u64, key_to_u64};
use recipe::persist::{Dram, PersistMode, Pmem};
use recipe::session::{Capabilities, Index, OpError, OpResult};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, Ordering};
use table::Table;

/// Resize once the number of overflow buckets exceeds `num_buckets / EXPANSION_RATIO`.
const EXPANSION_RATIO: u64 = 4;

/// A concurrent cache-line hash table, generic over the persistence policy.
///
/// `Clht<Dram>` is the original in-memory CLHT-LB; `Clht<Pmem>` is P-CLHT, the
/// RECIPE-converted persistent index.
pub struct Clht<P: PersistMode = Dram> {
    table: AtomicPtr<Table>,
    /// Serializes rehashes, and owns the tables they replaced: a non-blocking
    /// reader may still be walking an old table, so it stays allocated until
    /// the index itself is dropped.
    resize_lock: parking_lot::Mutex<Vec<*mut Table>>,
    _policy: PhantomData<P>,
}

/// The unconverted DRAM CLHT.
pub type DramClht = Clht<Dram>;
/// P-CLHT: the RECIPE-converted persistent CLHT.
pub type PClht = Clht<Pmem>;

/// Every crash site this crate can emit, for the §5 per-site exhaustive sweep.
pub const CRASH_SITES: &[&str] = &[
    "clht.insert.value_written",
    "clht.insert.committed",
    "clht.insert.overflow_allocated",
    "clht.remove.committed",
    "clht.rehash.table_built",
    "clht.rehash.committed",
];

// SAFETY: the raw table pointer is only mutated through atomic operations and the
// pointed-to tables are never freed while the index is alive (copy-on-write rehash
// keeps every replaced table on the retired list, which only `rehash` — under its
// mutex — and `Drop` touch), so sharing across threads is sound.
unsafe impl<P: PersistMode> Send for Clht<P> {}
// SAFETY: as above — the table pointer is only mutated atomically, and neither it
// nor a retired table is freed before `Drop`.
unsafe impl<P: PersistMode> Sync for Clht<P> {}

impl<P: PersistMode> Clht<P> {
    /// Create a table with capacity for roughly `capacity` entries before the first
    /// rehash. The paper's evaluation starts from a 48 KB table.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let buckets = (capacity / ENTRIES_PER_BUCKET).max(2);
        let t = pm::alloc::pm_box(Table::new(buckets));
        // Persist the initial table (root object) before publishing it: this is the
        // durability bug the paper found in FAST & FAIR and CCEH root allocation.
        // SAFETY: freshly allocated, uniquely owned here.
        let tref = unsafe { &*t };
        P::persist_range(tref.buckets().as_ptr().cast(), tref.num_buckets() * 64, false);
        P::persist_obj(t, true);
        let this = Clht {
            table: AtomicPtr::new(t),
            resize_lock: parking_lot::Mutex::new(Vec::new()),
            _policy: PhantomData,
        };
        P::persist_obj(&this.table, true);
        this
    }

    /// Default-sized table (the paper's 48 KB starting size ≈ 768 buckets).
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(768 * ENTRIES_PER_BUCKET)
    }

    #[inline]
    fn current(&self) -> &Table {
        // SAFETY: tables are never freed while the index is alive.
        unsafe { &*self.table.load(Ordering::Acquire) }
    }

    /// Map an external byte-string key to CLHT's internal non-zero 8-byte key.
    /// Returns `None` for unsupported keys (longer than 8 bytes or all-0xFF).
    #[inline]
    fn internal_key(key: &[u8]) -> Option<u64> {
        if key.len() > 8 {
            return None;
        }
        let k = key_to_u64(key).wrapping_add(1);
        if k == EMPTY_KEY {
            None
        } else {
            Some(k)
        }
    }

    /// Number of entries (slow; walks every chain).
    #[must_use]
    pub fn len(&self) -> usize {
        self.current().len_slow()
    }

    /// Whether the table holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of first-level buckets in the currently installed table.
    #[must_use]
    pub fn num_buckets(&self) -> usize {
        self.current().num_buckets()
    }

    fn get_internal(&self, k: u64) -> Option<u64> {
        let h = hash_u64(k);
        loop {
            let tptr = self.table.load(Ordering::Acquire);
            // SAFETY: tables are never freed while the index is alive.
            let t = unsafe { &*tptr };
            let mut bucket: *const Bucket = t.bucket_for(h);
            while !bucket.is_null() {
                pm::stats::record_node_visit();
                // SAFETY: buckets are never freed while reachable from a live table.
                let b = unsafe { &*bucket };
                if let Some(v) = b.get_in_bucket(k) {
                    return Some(v);
                }
                bucket = b.next_ptr();
            }
            // The key may have raced with a rehash that installed a new table after we
            // loaded the pointer; re-check and retry once per swap.
            if self.table.load(Ordering::Acquire) == tptr {
                return None;
            }
        }
    }

    /// Insert or update. Returns `true` if the key was newly inserted.
    fn put_internal(&self, k: u64, value: u64) -> bool {
        let h = hash_u64(k);
        loop {
            let tptr = self.table.load(Ordering::Acquire);
            // SAFETY: tables are never freed while the index is alive.
            let t = unsafe { &*tptr };
            let first = t.bucket_for(h);
            let _guard = first.lock.lock();
            // A rehash may have swapped the table while we were waiting for the lock;
            // writers must operate on the current table.
            if self.table.load(Ordering::Acquire) != tptr {
                drop(_guard);
                continue;
            }
            pm::stats::record_node_visit();

            // Pass 1: look for the key or the first free slot along the chain.
            let mut cur: &Bucket = first;
            let mut free: Option<(&Bucket, usize)> = None;
            loop {
                if let Some(i) = cur.slot_of(k) {
                    // In-place value update: single 8-byte atomic store, then flush.
                    cur.vals[i].store(value, Ordering::Release);
                    P::mark_dirty_obj(&cur.vals[i]);
                    P::persist_obj(&cur.vals[i], true);
                    return false;
                }
                if free.is_none() {
                    if let Some(i) = cur.free_slot() {
                        free = Some((cur, i));
                    }
                }
                let next = cur.next_ptr();
                if next.is_null() {
                    break;
                }
                pm::stats::record_node_visit();
                // SAFETY: chain buckets are never freed while reachable.
                cur = unsafe { &*next };
            }

            if let Some((b, i)) = free {
                // CLHT's atomic commit: write the value first, make it reach PM no
                // later than the key (same cache line, so a single flush after the key
                // store persists both in order), then publish the key with one atomic
                // 8-byte store.
                b.vals[i].store(value, Ordering::Release);
                P::mark_dirty_obj(&b.vals[i]);
                P::crash_site("clht.insert.value_written");
                b.keys[i].store(k, Ordering::Release);
                P::mark_dirty_obj(&b.keys[i]);
                P::persist_range((b as *const Bucket).cast(), 64, true);
                P::crash_site("clht.insert.committed");
                return true;
            }

            // Chain is full: link a new overflow bucket (its single entry is the new
            // key), committing with one atomic pointer store.
            let nb = pm::alloc::pm_box(Bucket::with_entry(k, value));
            P::persist_range(nb.cast(), 64, true);
            P::crash_site("clht.insert.overflow_allocated");
            cur.next.store(nb, Ordering::Release);
            P::mark_dirty_obj(&cur.next);
            P::persist_obj(&cur.next, true);
            let expansions = t.expansions.fetch_add(1, Ordering::Relaxed) + 1;
            drop(_guard);
            if expansions * EXPANSION_RATIO > t.num_buckets() as u64 {
                self.rehash(tptr);
            }
            return true;
        }
    }

    /// Atomic conditional update: write the new value under the chain's bucket
    /// lock only if the key is already present; never inserts.
    fn update_internal(&self, k: u64, value: u64) -> bool {
        let h = hash_u64(k);
        loop {
            let tptr = self.table.load(Ordering::Acquire);
            // SAFETY: tables are never freed while the index is alive.
            let t = unsafe { &*tptr };
            let first = t.bucket_for(h);
            let _guard = first.lock.lock();
            // A rehash may have swapped the table while we were waiting for the lock.
            if self.table.load(Ordering::Acquire) != tptr {
                continue;
            }
            pm::stats::record_node_visit();
            let mut cur: &Bucket = first;
            loop {
                if let Some(i) = cur.slot_of(k) {
                    // Same single-atomic-store commit as the in-place insert path.
                    cur.vals[i].store(value, Ordering::Release);
                    P::mark_dirty_obj(&cur.vals[i]);
                    P::persist_obj(&cur.vals[i], true);
                    return true;
                }
                let next = cur.next_ptr();
                if next.is_null() {
                    return false;
                }
                pm::stats::record_node_visit();
                // SAFETY: chain buckets are never freed while reachable.
                cur = unsafe { &*next };
            }
        }
    }

    fn remove_internal(&self, k: u64) -> bool {
        let h = hash_u64(k);
        loop {
            let tptr = self.table.load(Ordering::Acquire);
            // SAFETY: tables are never freed while the index is alive.
            let t = unsafe { &*tptr };
            let first = t.bucket_for(h);
            let _guard = first.lock.lock();
            if self.table.load(Ordering::Acquire) != tptr {
                continue;
            }
            pm::stats::record_node_visit();
            let mut cur: &Bucket = first;
            loop {
                if let Some(i) = cur.slot_of(k) {
                    // Deletion commits by atomically storing EMPTY_KEY to the key slot.
                    cur.keys[i].store(EMPTY_KEY, Ordering::Release);
                    P::mark_dirty_obj(&cur.keys[i]);
                    P::persist_obj(&cur.keys[i], true);
                    P::crash_site("clht.remove.committed");
                    return true;
                }
                let next = cur.next_ptr();
                if next.is_null() {
                    return false;
                }
                // SAFETY: chain buckets are never freed while reachable.
                cur = unsafe { &*next };
            }
        }
    }

    /// Rehash into a table twice the size of `old`, committing with an atomic table
    /// pointer swap (the SMO's Condition #1 commit point).
    fn rehash(&self, old: *mut Table) {
        let mut retired = self.resize_lock.lock();
        if self.table.load(Ordering::Acquire) != old {
            return; // someone else already rehashed
        }
        // SAFETY: `old` is the currently installed table; never freed.
        let old_t = unsafe { &*old };

        // Block all writers: take every first-level bucket lock. Readers continue
        // non-blocking against the old table.
        let guards: Vec<_> = old_t.buckets().iter().map(|b| b.lock.lock()).collect();

        let new_t = pm::alloc::pm_box(Table::new(old_t.num_buckets() * 2));
        // SAFETY: freshly allocated, private until published below.
        let new_ref = unsafe { &*new_t };
        old_t.for_each(|k, v| {
            new_ref.insert_unsynchronized(hash_u64(k), k, v);
        });

        // Persist the entire new table before publishing it, including any overflow
        // buckets allocated while re-inserting the old entries.
        P::persist_range(new_ref.buckets().as_ptr().cast(), new_ref.num_buckets() * 64, false);
        for b in new_ref.buckets() {
            let mut cur = b.next_ptr();
            while !cur.is_null() {
                P::persist_range(cur.cast(), 64, false);
                // SAFETY: overflow buckets of the private new table are never freed.
                cur = unsafe { (*cur).next_ptr() };
            }
        }
        P::persist_obj(new_t, true);
        P::crash_site("clht.rehash.table_built");

        // Single atomic commit: swap the table pointer, then persist the pointer.
        self.table.store(new_t, Ordering::Release);
        P::mark_dirty_obj(&self.table);
        P::persist_obj(&self.table, true);
        P::crash_site("clht.rehash.committed");
        obs::event::emit(
            "clht.resize",
            "rehash_committed",
            old_t.num_buckets() as u64,
            new_ref.num_buckets() as u64,
        );

        drop(guards);
        // Non-blocking readers may still hold references to the old table (RECIPE's
        // PM-allocator GC assumption), so it is retired, not freed: `Drop` frees it.
        retired.push(old);
    }
}

impl<P: PersistMode> Default for Clht<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: PersistMode> Drop for Clht<P> {
    fn drop(&mut self) {
        let installed = *self.table.get_mut();
        for t in self.resize_lock.get_mut().drain(..).chain([installed]) {
            // SAFETY: dropping the index, so no other thread can reach any of its
            // tables. Each was allocated with `pm_box`, and a table is either the
            // installed one or on the retired list exactly once (`rehash` retires the
            // table it replaces), so none is freed twice. `Table::drop` frees the
            // overflow chain, which a rehash never shares between tables.
            unsafe { pm::alloc::pm_drop(t) };
        }
    }
}

/// What this index supports. `linearizable_update` is `true`: the presence
/// check and the value store happen under the bucket lock.
pub const CAPS: Capabilities = Capabilities::hash_index(true);

impl<P: PersistMode> Index for Clht<P> {
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

    /// Atomic: presence check and value store happen under the bucket lock
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
            "P-CLHT".into()
        } else {
            "CLHT".into()
        }
    }

    fn recover(&self) {
        // RECIPE lock re-initialisation: clear every bucket lock of the installed
        // table. Values/keys need no repair — partially completed inserts left either
        // no visible key (value written, key not yet published) or a fully visible
        // entry, both of which the read/write paths handle.
        let t = self.current();
        for b in t.buckets() {
            let mut cur: *const Bucket = b;
            while !cur.is_null() {
                // SAFETY: buckets reachable from the installed table are never freed.
                let r = unsafe { &*cur };
                r.lock.force_unlock();
                cur = r.next_ptr();
            }
        }
    }
}

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
    fn insert_get_remove_roundtrip() {
        let m: DramClht = Clht::with_capacity(64);
        let mut h = m.handle();
        assert_eq!(h.insert(&k(1), 10), Ok(OpResult::Inserted));
        assert_eq!(h.insert(&k(2), 20), Ok(OpResult::Inserted));
        assert_eq!(h.insert(&k(1), 11), Ok(OpResult::Updated), "duplicate insert updates");
        assert_eq!(h.get(&k(1)), Some(11));
        assert_eq!(h.get(&k(2)), Some(20));
        assert_eq!(h.get(&k(3)), None);
        assert_eq!(h.remove(&k(1)), Ok(OpResult::Removed));
        assert_eq!(h.remove(&k(1)), Err(OpError::NotFound));
        assert_eq!(h.get(&k(1)), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn update_only_touches_existing() {
        let m: DramClht = Clht::with_capacity(64);
        let mut h = m.handle();
        assert_eq!(h.update(&k(5), 1), Err(OpError::NotFound));
        h.insert(&k(5), 1).unwrap();
        assert_eq!(h.update(&k(5), 2), Ok(OpResult::Updated));
        assert_eq!(h.get(&k(5)), Some(2));
    }

    #[test]
    fn key_zero_is_supported_via_internal_offset() {
        let m: DramClht = Clht::with_capacity(16);
        let mut h = m.handle();
        assert_eq!(h.insert(&k(0), 99), Ok(OpResult::Inserted));
        assert_eq!(h.get(&k(0)), Some(99));
    }

    #[test]
    fn unsupported_keys_are_rejected() {
        let m: DramClht = Clht::with_capacity(16);
        let mut h = m.handle();
        assert_eq!(h.insert(b"a-very-long-string-key", 1), Err(OpError::UnsupportedKey));
        assert_eq!(h.get(b"a-very-long-string-key"), None);
        // all-0xFF 8-byte key maps to the reserved sentinel
        assert_eq!(h.insert(&[0xFF; 8], 1), Err(OpError::UnsupportedKey));
    }

    #[test]
    fn rehash_emits_resize_event() {
        let was = obs::event::set_enabled(true);
        let m: DramClht = Clht::with_capacity(8);
        let mut h = m.handle();
        for i in 0..5_000u64 {
            assert_eq!(h.insert(&k(i), i), Ok(OpResult::Inserted));
        }
        let dump = obs::event::drain();
        obs::event::set_enabled(was);
        let resizes: Vec<_> = dump.events.iter().filter(|e| e.kind == "clht.resize").collect();
        assert!(!resizes.is_empty(), "growing 8 -> 5000 keys must rehash at least once");
        for ev in resizes {
            assert_eq!(ev.detail, "rehash_committed");
            assert_eq!(ev.b, ev.a * 2, "each rehash doubles the table");
        }
    }

    #[test]
    fn grows_via_rehash_and_keeps_all_keys() {
        let m: DramClht = Clht::with_capacity(8);
        let before = m.num_buckets();
        let mut h = m.handle();
        for i in 0..5_000u64 {
            assert_eq!(h.insert(&k(i), i * 2), Ok(OpResult::Inserted));
        }
        assert!(m.num_buckets() > before, "rehash should have grown the table");
        for i in 0..5_000u64 {
            assert_eq!(h.get(&k(i)), Some(i * 2), "key {i} lost after rehash");
        }
        assert_eq!(m.len(), 5_000);
    }

    #[test]
    fn pclht_counts_flushes_per_insert() {
        let m: PClht = Clht::with_capacity(1 << 14);
        let mut h = m.handle();
        // Warm up (skip table-creation flushes).
        let before = pm::stats::snapshot_local();
        for i in 1..=1000u64 {
            h.insert(&k(i), i).unwrap();
        }
        let d = pm::stats::snapshot_local().since(&before);
        let per_insert = d.clwb as f64 / 1000.0;
        // Common-case P-CLHT insert touches a single cache line (paper Table 4: ~1.5
        // clwb per insert including rehashing; with no rehash we expect ~1).
        assert!(per_insert < 2.0, "expected ~1 clwb per insert, got {per_insert}");
        assert!(d.fence > 0);
    }

    #[test]
    fn dram_clht_issues_no_flushes() {
        let m: DramClht = Clht::with_capacity(256);
        let mut h = m.handle();
        let before = pm::stats::snapshot_local();
        for i in 1..=100u64 {
            h.insert(&k(i), i).unwrap();
        }
        let d = pm::stats::snapshot_local().since(&before);
        assert_eq!(d.clwb, 0);
        assert_eq!(d.fence, 0);
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let m: Arc<PClht> = Arc::new(Clht::with_capacity(128));
        let threads = 8;
        let per_thread = 2_000u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let mut h = m.handle();
                for i in 0..per_thread {
                    let key = t as u64 * per_thread + i;
                    assert_eq!(h.insert(&k(key), key + 1), Ok(OpResult::Inserted));
                    assert_eq!(h.get(&k(key)), Some(key + 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut h = m.handle();
        for key in 0..threads as u64 * per_thread {
            assert_eq!(h.get(&k(key)), Some(key + 1), "key {key} lost");
        }
        assert_eq!(m.len(), (threads as u64 * per_thread) as usize);
    }

    #[test]
    fn recover_clears_stuck_locks() {
        let m: PClht = Clht::with_capacity(16);
        m.handle().insert(&k(1), 1).unwrap();
        // Simulate a crash that left a bucket lock set.
        let t = m.current();
        std::mem::forget(t.buckets()[0].lock.lock());
        m.recover();
        for b in m.current().buckets() {
            assert!(!b.lock.is_locked());
        }
        // Index still usable.
        assert_eq!(m.handle().insert(&k(2), 2), Ok(OpResult::Inserted));
    }

    #[test]
    fn name_reflects_policy() {
        assert_eq!(Clht::<Dram>::with_capacity(4).index_name(), "CLHT");
        assert_eq!(Clht::<Pmem>::with_capacity(4).index_name(), "P-CLHT");
    }
}
