//! # Level Hashing — write-optimized PM hash table baseline
//!
//! Level Hashing (Zuo et al., OSDI '18) is the second hand-crafted persistent hash
//! table the RECIPE paper compares P-CLHT against (§7.2). It keeps two levels of
//! 4-slot buckets — a top level of `N` buckets and a bottom level of `N/2` — and each
//! key can live in two top buckets (two hash functions) or the two bottom buckets they
//! share. Resizes rehash only the bottom level into a new top level of `2N` buckets.
//! Its two-level layout costs extra non-contiguous cache-line accesses per operation,
//! which is why it trails both CCEH and P-CLHT in the paper's Figure 5 / Table 4.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use recipe::key::{hash64, key_to_u64};
use recipe::lock::VersionLock;
use recipe::persist::{PersistMode, Pmem};
use recipe::session::{Capabilities, Index, OpError, OpResult};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// Key/value slots per bucket.
pub const SLOTS_PER_BUCKET: usize = 4;
/// Sentinel for an empty slot.
const EMPTY_KEY: u64 = 0;

/// A bucket: four key/value pairs plus a writer lock.
pub struct Bucket {
    lock: VersionLock,
    keys: [AtomicU64; SLOTS_PER_BUCKET],
    vals: [AtomicU64; SLOTS_PER_BUCKET],
}

impl Default for Bucket {
    fn default() -> Self {
        Bucket { lock: VersionLock::new(), keys: Default::default(), vals: Default::default() }
    }
}

impl Bucket {
    fn get(&self, key: u64) -> Option<u64> {
        pm::stats::record_node_visit();
        for i in 0..SLOTS_PER_BUCKET {
            let k = self.keys[i].load(Ordering::Acquire);
            if k == key {
                let v = self.vals[i].load(Ordering::Acquire);
                if self.keys[i].load(Ordering::Acquire) == k {
                    return Some(v);
                }
            }
        }
        None
    }

    fn update_in_place<P: PersistMode>(&self, key: u64, value: u64) -> bool {
        // One bucket examined = one likely-cold line, exactly like the read path;
        // the write paths were previously invisible to the LLC-miss proxy (and
        // therefore free under the latency model's read charge).
        pm::stats::record_node_visit();
        for i in 0..SLOTS_PER_BUCKET {
            if self.keys[i].load(Ordering::Acquire) == key {
                self.vals[i].store(value, Ordering::Release);
                P::mark_dirty_obj(&self.vals[i]);
                P::persist_obj(&self.vals[i], true);
                return true;
            }
        }
        false
    }

    fn try_insert<P: PersistMode>(&self, key: u64, value: u64) -> bool {
        pm::stats::record_node_visit();
        for i in 0..SLOTS_PER_BUCKET {
            if self.keys[i].load(Ordering::Acquire) == EMPTY_KEY {
                // Value first, key (the atomic commit) second, one flush for the pair.
                self.vals[i].store(value, Ordering::Release);
                P::mark_dirty_obj(&self.vals[i]);
                P::crash_site("level.insert.value_written");
                self.keys[i].store(key, Ordering::Release);
                P::mark_dirty_obj(&self.keys[i]);
                P::persist_obj(&self.vals[i], false);
                P::persist_obj(&self.keys[i], true);
                P::crash_site("level.insert.committed");
                return true;
            }
        }
        false
    }

    fn remove<P: PersistMode>(&self, key: u64) -> bool {
        pm::stats::record_node_visit();
        for i in 0..SLOTS_PER_BUCKET {
            if self.keys[i].load(Ordering::Acquire) == key {
                self.keys[i].store(EMPTY_KEY, Ordering::Release);
                P::mark_dirty_obj(&self.keys[i]);
                P::persist_obj(&self.keys[i], true);
                return true;
            }
        }
        false
    }

    fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        for i in 0..SLOTS_PER_BUCKET {
            let k = self.keys[i].load(Ordering::Acquire);
            if k != EMPTY_KEY {
                f(k, self.vals[i].load(Ordering::Acquire));
            }
        }
    }
}

/// One generation of the two-level structure.
struct Levels {
    /// Top level: `top_size` buckets.
    top: Vec<Bucket>,
    /// Bottom level: `top_size / 2` buckets.
    bottom: Vec<Bucket>,
}

impl Levels {
    fn alloc(top_size: usize) -> *mut Levels {
        let top_size = top_size.next_power_of_two().max(4);
        let mut top = Vec::with_capacity(top_size);
        top.resize_with(top_size, Bucket::default);
        let mut bottom = Vec::with_capacity(top_size / 2);
        bottom.resize_with(top_size / 2, Bucket::default);
        pm::alloc::pm_box(Levels { top, bottom })
    }

    fn positions(&self, key: u64) -> [usize; 2] {
        let h1 = hash64(&key.to_le_bytes());
        let h2 = hash64(&key.to_be_bytes()).rotate_left(17) ^ 0x5bd1e9955bd1e995;
        let n = self.top.len();
        [(h1 as usize) & (n - 1), (h2 as usize) & (n - 1)]
    }

    fn get(&self, key: u64) -> Option<u64> {
        let pos = self.positions(key);
        for &p in &pos {
            if let Some(v) = self.top[p].get(key) {
                return Some(v);
            }
        }
        for &p in &pos {
            if let Some(v) = self.bottom[p / 2].get(key) {
                return Some(v);
            }
        }
        None
    }

    fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        for b in self.top.iter().chain(self.bottom.iter()) {
            b.for_each(&mut f);
        }
    }
}

/// The Level Hashing table.
pub struct LevelHash<P: PersistMode = Pmem> {
    levels: AtomicPtr<Levels>,
    resize_lock: parking_lot::Mutex<()>,
    _policy: PhantomData<P>,
}

/// The persistent Level Hashing table evaluated in the paper.
pub type PLevelHash = LevelHash<Pmem>;
/// The same structure with persistence compiled out (registry uniformity).
pub type DramLevelHash = LevelHash<recipe::persist::Dram>;

/// Every crash site this crate can emit, for the §5 per-site exhaustive sweep.
pub const CRASH_SITES: &[&str] = &[
    "level.insert.value_written",
    "level.insert.committed",
    "level.resize.generation_persisted",
    "level.resize.committed",
];

// SAFETY: bucket mutation is lock-protected, reads use atomic snapshots, and old
// generations are never freed while the table is alive.
unsafe impl<P: PersistMode> Send for LevelHash<P> {}
// SAFETY: as above — bucket writes are lock-protected and generations never freed.
unsafe impl<P: PersistMode> Sync for LevelHash<P> {}

impl<P: PersistMode> Default for LevelHash<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: PersistMode> LevelHash<P> {
    /// Create a table whose top level has roughly `capacity / SLOTS_PER_BUCKET`
    /// buckets.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let levels = Levels::alloc(capacity / SLOTS_PER_BUCKET);
        // SAFETY: freshly allocated, private.
        let l = unsafe { &*levels };
        P::persist_range(l.top.as_ptr().cast(), l.top.len() * std::mem::size_of::<Bucket>(), false);
        P::persist_range(
            l.bottom.as_ptr().cast(),
            l.bottom.len() * std::mem::size_of::<Bucket>(),
            false,
        );
        P::persist_obj(levels, true);
        let t = LevelHash {
            levels: AtomicPtr::new(levels),
            resize_lock: parking_lot::Mutex::new(()),
            _policy: PhantomData,
        };
        P::persist_obj(&t.levels, true);
        t
    }

    /// Default-sized table (≈48 KB, matching the paper's starting size).
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(768 * SLOTS_PER_BUCKET)
    }

    #[inline]
    fn internal_key(key: &[u8]) -> Option<u64> {
        if key.len() > 8 {
            return None;
        }
        let k = key_to_u64(key).wrapping_add(1);
        (k != EMPTY_KEY).then_some(k)
    }

    #[inline]
    fn current(&self) -> &Levels {
        // SAFETY: generations are never freed while the table is alive.
        unsafe { &*self.levels.load(Ordering::Acquire) }
    }

    fn get_internal(&self, k: u64) -> Option<u64> {
        loop {
            let ptr = self.levels.load(Ordering::Acquire);
            // SAFETY: never freed.
            let l = unsafe { &*ptr };
            if let Some(v) = l.get(k) {
                return Some(v);
            }
            if self.levels.load(Ordering::Acquire) == ptr {
                return None;
            }
        }
    }

    fn put_internal(&self, k: u64, value: u64) -> bool {
        loop {
            let ptr = self.levels.load(Ordering::Acquire);
            // SAFETY: never freed.
            let l = unsafe { &*ptr };
            let pos = l.positions(k);
            // Candidate buckets in priority order: two top buckets, then their bottom
            // buckets.
            let candidates: [&Bucket; 4] =
                [&l.top[pos[0]], &l.top[pos[1]], &l.bottom[pos[0] / 2], &l.bottom[pos[1] / 2]];
            // Update in place if the key exists anywhere.
            for b in candidates {
                let _g = b.lock.lock();
                if self.levels.load(Ordering::Acquire) != ptr {
                    break;
                }
                if b.update_in_place::<P>(k, value) {
                    return false;
                }
            }
            if self.levels.load(Ordering::Acquire) != ptr {
                continue;
            }
            // Insert into the first bucket with room.
            let mut inserted = false;
            for b in candidates {
                let _g = b.lock.lock();
                if self.levels.load(Ordering::Acquire) != ptr {
                    break;
                }
                if b.try_insert::<P>(k, value) {
                    inserted = true;
                    break;
                }
            }
            if inserted {
                return true;
            }
            if self.levels.load(Ordering::Acquire) != ptr {
                continue;
            }
            // All four candidate buckets are full: grow the table.
            self.resize(ptr);
        }
    }

    /// Resize: build a generation with a top level twice as large, rehash every entry,
    /// and commit by atomically swapping the generation pointer (the SMO's single
    /// commit point).
    fn resize(&self, old: *mut Levels) {
        let resize_guard = self.resize_lock.lock();
        if self.levels.load(Ordering::Acquire) != old {
            return;
        }
        // SAFETY: never freed.
        let old_l = unsafe { &*old };
        // Block writers by locking every bucket of the old generation.
        let guards: Vec<_> =
            old_l.top.iter().chain(old_l.bottom.iter()).map(|b| b.lock.lock()).collect();
        let new_ptr = Levels::alloc(old_l.top.len() * 2);
        // SAFETY: freshly allocated, private.
        let new_l = unsafe { &*new_ptr };
        let mut overflow: Vec<(u64, u64)> = Vec::new();
        old_l.for_each(|k, v| {
            let pos = new_l.positions(k);
            let candidates: [&Bucket; 4] = [
                &new_l.top[pos[0]],
                &new_l.top[pos[1]],
                &new_l.bottom[pos[0] / 2],
                &new_l.bottom[pos[1] / 2],
            ];
            if !candidates.iter().any(|b| b.try_insert::<recipe::persist::Dram>(k, v)) {
                overflow.push((k, v));
            }
        });
        // Rehash overflow by growing again if necessary (rare; keeps the resize total).
        if !overflow.is_empty() {
            // Simplest sound fallback: place overflow entries in any bucket of the new
            // top level with room (they remain findable because resize doubles again
            // before these buckets can mislead lookups only via their two hash
            // positions — so instead retry insertion after another doubling).
            // Swap in the partially filled generation first, release all locks (the
            // resize lock too, so a nested resize cannot self-deadlock), then
            // re-insert the overflow through the normal path.
            self.commit_generation(new_ptr);
            drop(guards);
            drop(resize_guard);
            for (k, v) in overflow {
                self.put_internal(k, v);
            }
            return;
        }
        self.commit_generation(new_ptr);
        drop(guards);
    }

    fn commit_generation(&self, new_ptr: *mut Levels) {
        // SAFETY: allocated by resize.
        let new_l = unsafe { &*new_ptr };
        P::persist_range(
            new_l.top.as_ptr().cast(),
            new_l.top.len() * std::mem::size_of::<Bucket>(),
            false,
        );
        P::persist_range(
            new_l.bottom.as_ptr().cast(),
            new_l.bottom.len() * std::mem::size_of::<Bucket>(),
            false,
        );
        P::persist_obj(new_ptr, true);
        P::crash_site("level.resize.generation_persisted");
        self.levels.store(new_ptr, Ordering::Release);
        P::mark_dirty_obj(&self.levels);
        P::persist_obj(&self.levels, true);
        P::crash_site("level.resize.committed");
        obs::event::emit(
            "levelhash.resize",
            "generation_committed",
            new_l.top.len() as u64 / 2,
            new_l.top.len() as u64,
        );
    }

    /// Atomic conditional update: write the new value under the owning bucket's
    /// lock only if the key is already present; never inserts. The key lives in at
    /// most one of its four candidate buckets, so the per-bucket critical section
    /// makes the conditional update linearizable.
    fn update_internal(&self, k: u64, value: u64) -> bool {
        'retry: loop {
            let ptr = self.levels.load(Ordering::Acquire);
            // SAFETY: generations are never freed while the table is alive.
            let l = unsafe { &*ptr };
            let pos = l.positions(k);
            let candidates: [&Bucket; 4] =
                [&l.top[pos[0]], &l.top[pos[1]], &l.bottom[pos[0] / 2], &l.bottom[pos[1] / 2]];
            for b in candidates {
                let _g = b.lock.lock();
                // A concurrent resize migrated the generation; our candidate set is
                // stale.
                if self.levels.load(Ordering::Acquire) != ptr {
                    continue 'retry;
                }
                if b.update_in_place::<P>(k, value) {
                    return true;
                }
            }
            if self.levels.load(Ordering::Acquire) != ptr {
                continue;
            }
            return false;
        }
    }

    fn remove_internal(&self, k: u64) -> bool {
        loop {
            let ptr = self.levels.load(Ordering::Acquire);
            // SAFETY: never freed.
            let l = unsafe { &*ptr };
            let pos = l.positions(k);
            let candidates: [&Bucket; 4] =
                [&l.top[pos[0]], &l.top[pos[1]], &l.bottom[pos[0] / 2], &l.bottom[pos[1] / 2]];
            for b in candidates {
                let _g = b.lock.lock();
                if self.levels.load(Ordering::Acquire) != ptr {
                    break;
                }
                if b.remove::<P>(k) {
                    return true;
                }
            }
            if self.levels.load(Ordering::Acquire) == ptr {
                return false;
            }
        }
    }

    /// Number of entries (slow).
    #[must_use]
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.current().for_each(|_, _| n += 1);
        n
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current top-level bucket count (diagnostics).
    #[must_use]
    pub fn top_buckets(&self) -> usize {
        self.current().top.len()
    }
}

/// What this index supports. `linearizable_update` is `true`: the presence
/// check and the value store happen under the owning bucket's lock.
pub const CAPS: Capabilities = Capabilities::hash_index(true);

impl<P: PersistMode> Index for LevelHash<P> {
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

    /// Atomic: presence check and value store happen under the owning bucket's
    /// lock (overrides the non-atomic trait default).
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
            "Level-Hashing".into()
        } else {
            "Level-Hashing(dram)".into()
        }
    }

    fn recover(&self) {
        let l = self.current();
        for b in l.top.iter().chain(l.bottom.iter()) {
            b.lock.force_unlock();
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
    fn insert_get_remove() {
        let t: PLevelHash = LevelHash::with_capacity(64);
        let mut h = t.handle();
        assert_eq!(h.insert(&k(1), 10), Ok(OpResult::Inserted));
        assert_eq!(h.insert(&k(1), 11), Ok(OpResult::Updated));
        assert_eq!(h.get(&k(1)), Some(11));
        assert_eq!(h.remove(&k(1)), Ok(OpResult::Removed));
        assert_eq!(h.get(&k(1)), None);
        assert!(t.is_empty());
    }

    #[test]
    fn resize_emits_generation_event() {
        let was = obs::event::set_enabled(true);
        let t: PLevelHash = LevelHash::with_capacity(64);
        let mut h = t.handle();
        for i in 0..2_000u64 {
            assert_eq!(h.insert(&k(i), i), Ok(OpResult::Inserted));
        }
        let dump = obs::event::drain();
        obs::event::set_enabled(was);
        let resizes: Vec<_> = dump.events.iter().filter(|e| e.kind == "levelhash.resize").collect();
        assert!(!resizes.is_empty(), "2k inserts into 64 slots must resize");
        for ev in resizes {
            assert_eq!(ev.detail, "generation_committed");
            assert_eq!(ev.b, ev.a * 2, "each generation doubles the top level");
        }
    }

    #[test]
    fn grows_under_load() {
        let t: PLevelHash = LevelHash::with_capacity(64);
        let before = t.top_buckets();
        let mut h = t.handle();
        for i in 0..20_000u64 {
            assert_eq!(h.insert(&k(i), i * 2), Ok(OpResult::Inserted), "insert {i}");
        }
        assert!(t.top_buckets() > before);
        for i in 0..20_000u64 {
            assert_eq!(h.get(&k(i)), Some(i * 2), "key {i} lost across resizes");
        }
        assert_eq!(t.len(), 20_000);
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let t: Arc<PLevelHash> = Arc::new(LevelHash::with_capacity(256));
        let threads = 8u64;
        let per = 4_000u64;
        let mut handles = Vec::new();
        for tid in 0..threads {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut h = t.handle();
                for i in 0..per {
                    let key = tid * per + i;
                    assert_eq!(h.insert(&k(key), key + 7), Ok(OpResult::Inserted));
                    assert_eq!(h.get(&k(key)), Some(key + 7));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut h = t.handle();
        for key in 0..threads * per {
            assert_eq!(h.get(&k(key)), Some(key + 7), "key {key} lost");
        }
        assert_eq!(t.len(), (threads * per) as usize);
    }

    #[test]
    fn update_and_unsupported_keys() {
        let t: PLevelHash = LevelHash::new();
        let mut h = t.handle();
        assert_eq!(h.update(&k(9), 1), Err(OpError::NotFound));
        h.insert(&k(9), 1).unwrap();
        assert_eq!(h.update(&k(9), 2), Ok(OpResult::Updated));
        assert_eq!(h.get(&k(9)), Some(2));
        assert_eq!(h.insert(b"key-that-is-too-long", 1), Err(OpError::UnsupportedKey));
        assert_eq!(h.index_name(), "Level-Hashing");
        drop(h);
        t.recover();
        assert_eq!(t.handle().get(&k(9)), Some(2));
    }
}
