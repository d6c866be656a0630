//! # Masstree — a B+ tree of tries, and its RECIPE conversion (P-Masstree)
//!
//! Masstree (Mao et al., EuroSys '12) is the concurrent ordered index the RECIPE
//! paper's Table 1 classifies as "B+ Tree & Trie": a trie over 8-byte key slices in
//! which every trie node is itself a B+ tree, so arbitrary-length byte-string keys
//! get radix-style sharing of long common prefixes with B+-tree fanout within each
//! layer. Readers are non-blocking (permutation-snapshot validated, never retrying
//! into locks); writers lock exactly one leaf and commit non-SMO writes with a single
//! atomic store of the leaf's permutation word.
//!
//! The RECIPE conversion (§6, 200 LOC of 2.2K in the paper's C++ port) is
//! Condition #1 for non-SMO writes — flush + fence after the slot write and the
//! permutation store — and Condition #3 for splits: the multi-step SMO can be cut by
//! a crash, readers detect and tolerate the torn state (B-link move-right, duplicate
//! suppression) but do not fix it, and a helper built from the write path completes
//! the split on [`recipe::session::Index::recover`].
//!
//! `Masstree<Dram>` is the original DRAM index; `Masstree<Pmem>` is P-Masstree.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod node;
pub mod tree;

pub use tree::{Layer, Masstree};

/// Every crash site this crate can emit, for the §5 per-site exhaustive sweep.
pub const CRASH_SITES: &[&str] = &[
    "masstree.insert.slot_written",
    "masstree.insert.committed",
    "masstree.update.committed",
    "masstree.remove.committed",
    "masstree.split.sibling_persisted",
    "masstree.split.sibling_linked",
    "masstree.split.high_set",
    "masstree.split.left_truncated",
    "masstree.root_split.new_root_persisted",
    "masstree.root_split.committed",
    "masstree.parent_split.sibling_persisted",
    "masstree.parent_split.sibling_linked",
    "masstree.parent_split.left_truncated",
    "masstree.parent.slot_written",
    "masstree.parent.committed",
];

use recipe::persist::{Dram, PersistMode, Pmem};
use recipe::session::{Capabilities, Index, OpError, OpResult, ScanBuf};

/// The persistent Masstree (the paper's P-Masstree).
pub type PMasstree = Masstree<Pmem>;
/// Masstree with persistence compiled out (the original DRAM index).
pub type DramMasstree = Masstree<Dram>;

/// What this index supports. `linearizable_update` is `true`: the presence
/// check and the value store happen under the final layer's leaf lock.
pub const CAPS: Capabilities = Capabilities::ordered_index(true);

impl<P: PersistMode> Index for Masstree<P> {
    fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        if Masstree::insert(self, key, value) {
            Ok(OpResult::Inserted)
        } else {
            Ok(OpResult::Updated)
        }
    }

    fn exec_update(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        // Linearizable conditional update: presence check and value store happen
        // under the final layer's leaf lock.
        if Masstree::update(self, key, value) {
            Ok(OpResult::Updated)
        } else {
            Err(OpError::NotFound)
        }
    }

    fn exec_get(&self, key: &[u8]) -> Option<u64> {
        Masstree::get(self, key)
    }

    fn exec_remove(&self, key: &[u8]) -> Result<OpResult, OpError> {
        if Masstree::remove(self, key) {
            Ok(OpResult::Removed)
        } else {
            Err(OpError::NotFound)
        }
    }

    fn exec_scan(&self, start: &[u8], max: usize, out: &mut ScanBuf) {
        Masstree::scan_into(self, start, max, out);
    }

    fn capabilities(&self) -> Capabilities {
        CAPS
    }

    fn index_name(&self) -> String {
        if P::PERSISTENT {
            "P-Masstree".into()
        } else {
            "Masstree".into()
        }
    }

    /// Beyond re-initialising the locks in its one walk, completes torn splits,
    /// re-roots layers and re-routes orphaned siblings.
    fn recover(&self) {
        Masstree::recover(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe::key::u64_key;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn insert_get_integer_keys() {
        let t: PMasstree = Masstree::new();
        for i in 0..20_000u64 {
            assert!(t.insert(&u64_key(i), i * 2), "insert {i}");
        }
        for i in 0..20_000u64 {
            assert_eq!(t.get(&u64_key(i)), Some(i * 2), "get {i}");
        }
        assert_eq!(t.get(&u64_key(20_000)), None);
        assert_eq!(t.len(), 20_000);
    }

    #[test]
    fn insert_is_upsert_and_update_is_conditional() {
        let t: PMasstree = Masstree::new();
        assert!(t.insert(&u64_key(7), 1));
        assert!(!t.insert(&u64_key(7), 2));
        assert_eq!(t.get(&u64_key(7)), Some(2));
        assert!(t.update(&u64_key(7), 3));
        assert_eq!(t.get(&u64_key(7)), Some(3));
        assert!(!t.update(&u64_key(8), 9));
        assert_eq!(t.get(&u64_key(8)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn layer_descent_past_the_slice_boundary() {
        let t: PMasstree = Masstree::new();
        // All keys share the first 8 bytes, so every key after the first creates or
        // descends into a second (and third) trie layer.
        let long = |suffix: &str| format!("prefix00{suffix}").into_bytes();
        let keys = [
            long(""),                 // terminates in layer 0 (lc = 8)
            long("a"),                // layer 1, lc = 1
            long("ab"),               // layer 1, lc = 2
            long("abcdefgh"),         // layer 1, lc = 8
            long("abcdefghijklmnop"), // layer 2
            long("zzzzzzzzz"),        // layer 1 -> layer 2, different branch
        ];
        for (i, k) in keys.iter().enumerate() {
            assert!(t.insert(k, i as u64), "insert {i}");
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as u64), "get {i}");
        }
        // Prefix relationships must stay distinct across the boundary.
        assert_eq!(t.get(b"prefix00"), Some(0));
        assert_eq!(t.get(b"prefix00abcdefgh"), Some(3));
        assert_eq!(t.get(b"prefix00abcdefghijklmnop"), Some(4));
        assert_eq!(t.get(b"prefix00abcdefghijklmno"), None);
        assert_eq!(t.get(b"prefix0"), None);
        // Zero-padding must not conflate "ab" with "ab\0".
        assert!(t.insert(b"prefix00ab\0", 99));
        assert_eq!(t.get(&long("ab")), Some(2));
        assert_eq!(t.get(b"prefix00ab\0"), Some(99));
    }

    #[test]
    fn string_keys_round_trip() {
        let t: PMasstree = Masstree::new();
        let mut model = BTreeMap::new();
        for i in 0..5_000u64 {
            let key = format!("user{:020}", i * 37 % 5_000);
            let newly = model.insert(key.clone().into_bytes(), i).is_none();
            assert_eq!(t.insert(key.as_bytes(), i), newly, "key {key}");
        }
        for (k, v) in &model {
            assert_eq!(t.get(k), Some(*v));
        }
    }

    #[test]
    fn remove_keeps_other_keys() {
        let t: PMasstree = Masstree::new();
        for i in 0..2_000u64 {
            t.insert(&u64_key(i), i);
        }
        for i in (0..2_000u64).step_by(3) {
            assert!(t.remove(&u64_key(i)));
            assert!(!t.remove(&u64_key(i)));
        }
        for i in 0..2_000u64 {
            let expect = if i % 3 == 0 { None } else { Some(i) };
            assert_eq!(t.get(&u64_key(i)), expect, "key {i}");
        }
    }

    #[test]
    fn cross_layer_scan_is_sorted() {
        let t: PMasstree = Masstree::new();
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        // Mixed-length keys exercising layer 0 terminals, sublayers and zero-padding
        // collisions in one tree.
        let mut put = |k: &[u8], v: u64| {
            t.insert(k, v);
            model.insert(k.to_vec(), v);
        };
        for i in 0..600u64 {
            put(&u64_key(i * 7), i);
            put(format!("sess{:012}", i * 11 % 500).as_bytes(), i);
            put(format!("sess{:012}/attr{}", i % 50, i % 7).as_bytes(), i);
        }
        put(b"sess", 1);
        put(b"sess\0", 2);
        put(b"sess\0\0\0\0\0\0\0\0", 3);
        for start in [&b""[..], b"sess", b"sess\0", b"sess000000000250", b"zzz", &u64_key(2100)] {
            for count in [1usize, 17, 1000] {
                let got = t.scan(start, count);
                let want: Vec<(Vec<u8>, u64)> = model
                    .range(start.to_vec()..)
                    .take(count)
                    .map(|(k, v)| (k.clone(), *v))
                    .collect();
                assert_eq!(got, want, "scan from {:?} x{count}", String::from_utf8_lossy(start));
            }
        }
    }

    #[test]
    fn concurrent_inserts_keep_all_keys() {
        let t: Arc<PMasstree> = Arc::new(Masstree::new());
        let threads = 8u64;
        let per = 3_000u64;
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let t = Arc::clone(&t);
                scope.spawn(move || {
                    for i in 0..per {
                        let k = tid * per + i;
                        assert!(t.insert(&u64_key(k), k));
                    }
                });
            }
        });
        for k in 0..threads * per {
            assert_eq!(t.get(&u64_key(k)), Some(k), "key {k} lost");
        }
        assert_eq!(t.len(), (threads * per) as usize);
    }

    #[test]
    fn concurrent_readers_and_scanners_during_writes() {
        let t: Arc<PMasstree> = Arc::new(Masstree::new());
        for i in 0..5_000u64 {
            t.insert(&u64_key(i), i);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for r in 0..4u64 {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut i = r;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let k = i % 5_000;
                        assert_eq!(t.get(&u64_key(k)), Some(k));
                        let got = t.scan(&u64_key(k), 20);
                        assert!(!got.is_empty());
                        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "scan out of order");
                        i += 1;
                    }
                });
            }
            for w in 0..4u64 {
                let t = Arc::clone(&t);
                scope.spawn(move || {
                    for i in 0..3_000u64 {
                        let k = 10_000 + w * 3_000 + i;
                        t.insert(&u64_key(k), k);
                    }
                });
            }
            // Writers finish on their own; then stop the readers.
            std::thread::sleep(std::time::Duration::from_millis(50));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        for w in 0..4u64 {
            for i in 0..3_000u64 {
                let k = 10_000 + w * 3_000 + i;
                assert_eq!(t.get(&u64_key(k)), Some(k));
            }
        }
    }

    #[test]
    fn readers_never_observe_torn_pairs() {
        // A writer that removes and re-inserts keys recycles leaf slots. The nasty
        // shape is the ABA one: removing key 50 and inserting key 55 (same sorted
        // rank, same freed slot) restores a bit-identical permutation word, so a
        // reader validating by permutation equality alone would happily pair one
        // slot's key with the other entry's value. Both `get` and `scan` must
        // version-validate the whole read instead.
        let t: Arc<PMasstree> = Arc::new(Masstree::new());
        let value_of = |k: u64| k * 31 + 7;
        for k in (0..120u64).step_by(10) {
            t.insert(&u64_key(k), value_of(k));
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    // The hard deadline keeps the writer from spinning forever if a
                    // reader panics before setting the stop flag.
                    let hard_deadline =
                        std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while !stop.load(std::sync::atomic::Ordering::Relaxed)
                        && std::time::Instant::now() < hard_deadline
                    {
                        // Five independent slot-recycling windows per iteration.
                        for base in [10u64, 30, 50, 70, 90] {
                            t.remove(&u64_key(base));
                            t.insert(&u64_key(base + 5), value_of(base + 5));
                            t.remove(&u64_key(base + 5));
                            t.insert(&u64_key(base), value_of(base));
                        }
                    }
                });
            }
            for _ in 0..3 {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let deadline =
                        std::time::Instant::now() + std::time::Duration::from_millis(700);
                    while std::time::Instant::now() < deadline {
                        for (key, val) in t.scan(&[], 64) {
                            let k = recipe::key::key_to_u64(&key);
                            assert_eq!(val, value_of(k), "scan: torn (key, value) pair for {k}");
                        }
                        for base in [10u64, 30, 50, 70, 90] {
                            for k in [base, base + 5] {
                                if let Some(val) = t.get(&u64_key(k)) {
                                    assert_eq!(val, value_of(k), "get: torn value for {k}");
                                }
                            }
                        }
                    }
                    stop.store(true, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
    }

    #[test]
    fn pmem_flushes_and_dram_does_not() {
        let dram: DramMasstree = Masstree::new();
        let before = pm::stats::snapshot_local();
        for i in 0..1_000u64 {
            dram.insert(&u64_key(i), i);
        }
        let d = pm::stats::snapshot_local().since(&before);
        assert_eq!(d.clwb, 0);
        assert_eq!(d.fence, 0);

        let pmem: PMasstree = Masstree::new();
        let before = pm::stats::snapshot_local();
        for i in 0..1_000u64 {
            pmem.insert(&u64_key(i), i);
        }
        let d = pm::stats::snapshot_local().since(&before);
        // Slot write (key/len/value) + permutation publish, each flushed.
        assert!(d.clwb as f64 / 1_000.0 >= 2.0, "expected >= 2 clwb per insert");
        assert!(d.fence > 0);
    }

    /// Every insert that fills the root leaf costs its slot's group line and the
    /// header line, under two fences; a value update, the value's line and one.
    #[test]
    fn a_leaf_insert_flushes_its_pair_line_and_the_header_line() {
        let _d = pm::Domain::new().enter();
        pm::latency::Model::CALIBRATED.install();
        pm::tracker::enable();
        let t: PMasstree = Masstree::new();
        let cost = |op: &dyn Fn()| {
            let (stats0, charged0) = (pm::stats::snapshot_local(), pm::latency::charged_local());
            op();
            let stats = pm::stats::snapshot_local().since(&stats0);
            (stats.clwb, stats.fence, pm::latency::charged_local().since(&charged0).clwb_ns)
        };
        // Out of key order, so the permutation splices ranks; 15 entries fill the
        // leaf without a split.
        for i in 0..node::WIDTH as u64 {
            let key = u64_key(pm::mix64(i));
            assert_eq!(cost(&|| assert!(t.insert(&key, i))), (2, 2, 240), "insert {i}");
        }
        assert_eq!(cost(&|| assert!(!t.insert(&u64_key(pm::mix64(3)), 9))), (1, 1, 120));
        assert!(pm::tracker::check(true).is_durable(), "a stored line left unfenced");
        pm::tracker::disable();
        assert_eq!(t.get(&u64_key(pm::mix64(3))), Some(9));
    }

    #[test]
    fn trait_object_and_recover() {
        use recipe::session::IndexExt;
        let t: PMasstree = Masstree::new();
        let idx: &dyn Index = &t;
        let mut h = idx.handle();
        assert_eq!(h.insert(&u64_key(1), 5), Ok(OpResult::Inserted));
        assert_eq!(h.update(&u64_key(1), 6), Ok(OpResult::Updated));
        assert_eq!(h.update(&u64_key(2), 6), Err(OpError::NotFound));
        assert_eq!(h.index_name(), "P-Masstree");
        assert!(h.capabilities().scan && h.capabilities().linearizable_update);
        t.recover();
        assert_eq!(t.get(&u64_key(1)), Some(6));
        assert!(t.insert(&u64_key(2), 7), "tree must stay writable after recover");
        let dram: DramMasstree = Masstree::new();
        assert_eq!(dram.index_name(), "Masstree");
    }
}
