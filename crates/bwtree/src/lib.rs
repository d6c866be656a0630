//! # Bw-tree — lock-free B+ tree over a mapping table, and its RECIPE conversion
//! (P-BwTree)
//!
//! The Bw-tree (Levandoski et al., ICDE '13; the in-memory variant follows Wang et
//! al.'s OpenBw-Tree, SIGMOD '18) is the one index in the RECIPE paper's Tables 1–2
//! with *non-blocking writers*: pages are named by logical page IDs resolved through
//! a mapping table, updates are delta records prepended to a page's chain with a
//! single CAS, and multi-step structure modifications (page splits) are completed by
//! *whichever thread observes them* — the help-along protocol.
//!
//! That makes it the paper's sole exemplar of **Condition #2** ("writers fix
//! inconsistencies", §4.4): non-SMO writes commit through one atomic store
//! (Condition #1), SMOs are ordered atomic steps with a helping mechanism, and the
//! conversion is to insert cache-line flushes and fences after each store *and*
//! after the loads the helping mechanism participates in. The paper reports the
//! conversion at 85 LOC of 5.2K for the BwTree CC implementation.
//!
//! `BwTree<Dram>` is the original concurrent DRAM index; `BwTree<Pmem>` is
//! P-BwTree, with crash sites at every ordered SMO step (splits *and* the
//! three-step node merge that retires emptied leaves) and a
//! [`recipe::session::Index::recover`] that replays incomplete SMOs at
//! restart.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod page;
pub mod tree;

pub use tree::BwTree;

use recipe::persist::{Dram, PersistMode, Pmem};
use recipe::session::{Capabilities, Index, OpError, OpResult, ScanBuf};

/// The persistent Bw-tree (the paper's P-BwTree).
pub type PBwTree = BwTree<Pmem>;
/// Bw-tree with persistence compiled out (the original DRAM index).
pub type DramBwTree = BwTree<Dram>;

/// Every crash site this crate can emit, for the §5 per-site exhaustive sweep.
///
/// The first four cover the single-atomic-store (non-SMO) commits; the next six
/// are the ordered steps of the split SMO, the help path's flush-after-load,
/// and the root split; the final four are the ordered steps of the merge SMO
/// (remove-node published → helper flush → merge delta published → parent
/// index term deleted).
pub const CRASH_SITES: &[&str] = &[
    "bwtree.insert.delta_published",
    "bwtree.update.delta_published",
    "bwtree.remove.delta_published",
    "bwtree.consolidate.installed",
    "bwtree.split.right_installed",
    "bwtree.split.delta_published",
    "bwtree.help.split_flushed",
    "bwtree.smo.parent_published",
    "bwtree.root_split.new_root_installed",
    "bwtree.root_split.committed",
    "bwtree.merge.remove_published",
    "bwtree.help.merge_flushed",
    "bwtree.merge.merge_published",
    "bwtree.merge.parent_updated",
];

/// What this index supports. `linearizable_update` is `true`: the presence
/// check and the delta CAS act on the same immutable chain snapshot.
pub const CAPS: Capabilities = Capabilities::ordered_index(true);

impl<P: PersistMode> Index for BwTree<P> {
    fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        if BwTree::insert(self, key, value) {
            Ok(OpResult::Inserted)
        } else {
            Ok(OpResult::Updated)
        }
    }

    fn exec_update(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        // Linearizable conditional update: the presence check and the delta CAS
        // act on the same immutable chain snapshot.
        if BwTree::update(self, key, value) {
            Ok(OpResult::Updated)
        } else {
            Err(OpError::NotFound)
        }
    }

    fn exec_get(&self, key: &[u8]) -> Option<u64> {
        BwTree::get(self, key)
    }

    fn exec_remove(&self, key: &[u8]) -> Result<OpResult, OpError> {
        if BwTree::remove(self, key) {
            Ok(OpResult::Removed)
        } else {
            Err(OpError::NotFound)
        }
    }

    fn exec_scan(&self, start: &[u8], max: usize, out: &mut ScanBuf) {
        BwTree::scan_into(self, start, max, out);
    }

    fn capabilities(&self) -> Capabilities {
        CAPS
    }

    fn index_name(&self) -> String {
        self.display_name()
    }

    fn reclaimer(&self) -> Option<&recipe::epoch::Collector> {
        Some(BwTree::reclaimer(self))
    }

    fn exec_settle(&self) {
        // Maintenance between batches: retire emptied leaves via the merge SMO.
        BwTree::merge_empty_pages(self);
    }

    /// Has no locks to re-initialise: replays the helper over every page the
    /// walk reaches, completing each torn split or merge.
    fn recover(&self) {
        BwTree::recover(self);
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
        let t: PBwTree = BwTree::new();
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
        let t: PBwTree = BwTree::new();
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
    fn string_keys_round_trip() {
        let t: PBwTree = BwTree::new();
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
    fn remove_keeps_other_keys_and_reinsert_works() {
        let t: PBwTree = BwTree::new();
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
        // Deleted keys must be re-insertable (delta shadowing, then consolidation).
        for i in (0..2_000u64).step_by(3) {
            assert!(t.insert(&u64_key(i), i + 1), "re-insert {i}");
        }
        assert_eq!(t.len(), 2_000);
    }

    #[test]
    fn scan_matches_model_across_splits_and_deletes() {
        let t: PBwTree = BwTree::new();
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for i in 0..3_000u64 {
            let k = u64_key(i * 7 % 2_003);
            t.insert(&k, i);
            model.insert(k.to_vec(), i);
        }
        for i in (0..2_003u64).step_by(5) {
            let k = u64_key(i);
            if model.remove(k.as_slice()).is_some() {
                assert!(t.remove(&k));
            }
        }
        for start in [0u64, 1, 500, 1_000, 2_002, 5_000] {
            for count in [1usize, 10, 4_000] {
                let got = t.scan(&u64_key(start), count);
                let want: Vec<(Vec<u8>, u64)> = model
                    .range(u64_key(start).to_vec()..)
                    .take(count)
                    .map(|(k, v)| (k.clone(), *v))
                    .collect();
                assert_eq!(got, want, "scan from {start} x{count}");
            }
        }
    }

    #[test]
    fn empty_page_keeps_routing_scans() {
        let t: PBwTree = BwTree::new();
        // Fill enough to split several times, then empty a whole key range: the
        // emptied pages must still route lookups and scans to the survivors.
        for i in 0..600u64 {
            t.insert(&u64_key(i), i);
        }
        for i in 100..500u64 {
            assert!(t.remove(&u64_key(i)));
        }
        let got = t.scan(&u64_key(0), 1_000);
        assert_eq!(got.len(), 200);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(t.get(&u64_key(300)), None);
        assert_eq!(t.get(&u64_key(550)), Some(550));
    }

    #[test]
    fn concurrent_inserts_keep_all_keys() {
        let t: Arc<PBwTree> = Arc::new(BwTree::new());
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
        assert_eq!(t.incomplete_smos(), 0, "all SMOs must be helped to completion");
    }

    #[test]
    fn concurrent_mixed_writers_and_scanners() {
        let t: Arc<PBwTree> = Arc::new(BwTree::new());
        let value_of = |k: u64| k * 31 + 7;
        for i in 0..4_000u64 {
            t.insert(&u64_key(i), value_of(i));
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for r in 0..3u64 {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut i = r;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let k = i % 4_000;
                        if let Some(v) = t.get(&u64_key(k)) {
                            assert_eq!(v, value_of(k), "torn value for {k}");
                        }
                        let got = t.scan(&u64_key(k), 16);
                        assert!(
                            got.windows(2).all(|w| w[0].0 < w[1].0),
                            "scan out of order: {got:?}"
                        );
                        for (key, val) in &got {
                            let kk = recipe::key::key_to_u64(key);
                            assert_eq!(*val, value_of(kk), "torn scan pair for {kk}");
                        }
                        i += 1;
                    }
                });
            }
            for w in 0..3u64 {
                let t = Arc::clone(&t);
                scope.spawn(move || {
                    for i in 0..2_000u64 {
                        // Churn: remove + re-insert existing keys and add new ones.
                        let k = (w * 997 + i) % 4_000;
                        t.remove(&u64_key(k));
                        t.insert(&u64_key(k), value_of(k));
                        let fresh = 10_000 + w * 2_000 + i;
                        t.insert(&u64_key(fresh), value_of(fresh));
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        for w in 0..3u64 {
            for i in 0..2_000u64 {
                let fresh = 10_000 + w * 2_000 + i;
                assert_eq!(t.get(&u64_key(fresh)), Some(value_of(fresh)));
            }
        }
        assert_eq!(t.incomplete_smos(), 0);
    }

    #[test]
    fn pmem_flushes_and_dram_does_not() {
        let dram: DramBwTree = BwTree::new();
        let before = pm::stats::snapshot_local();
        for i in 0..1_000u64 {
            dram.insert(&u64_key(i), i);
        }
        let d = pm::stats::snapshot_local().since(&before);
        assert_eq!(d.clwb, 0);
        assert_eq!(d.fence, 0);

        let pmem: PBwTree = BwTree::new();
        let before = pm::stats::snapshot_local();
        for i in 0..1_000u64 {
            pmem.insert(&u64_key(i), i);
        }
        let d = pm::stats::snapshot_local().since(&before);
        // Each insert persists its delta record and the mapping-table slot.
        assert!(d.clwb as f64 / 1_000.0 >= 2.0, "expected >= 2 clwb per insert");
        assert!(d.fence > 0);
    }

    #[test]
    fn ablation_config_changes_name_and_still_works() {
        let t: PBwTree = BwTree::with_config(16, 24, "(dc16)");
        assert_eq!(t.index_name(), "P-BwTree(dc16)");
        for i in 0..2_000u64 {
            assert!(t.insert(&u64_key(i), i));
        }
        for i in 0..2_000u64 {
            assert_eq!(t.get(&u64_key(i)), Some(i));
        }
        let d: DramBwTree = BwTree::with_config(16, 24, "(dc16)");
        assert_eq!(d.index_name(), "BwTree(dc16)");
    }

    #[test]
    fn trait_object_and_recover() {
        use recipe::session::IndexExt;
        let t: PBwTree = BwTree::new();
        let idx: &dyn Index = &t;
        let mut h = idx.handle();
        assert_eq!(h.insert(&u64_key(1), 5), Ok(OpResult::Inserted));
        assert_eq!(h.update(&u64_key(1), 6), Ok(OpResult::Updated));
        assert_eq!(h.update(&u64_key(2), 6), Err(OpError::NotFound));
        assert_eq!(h.index_name(), "P-BwTree");
        assert!(h.capabilities().scan && h.capabilities().linearizable_update);
        drop(h);
        t.recover();
        assert_eq!(t.get(&u64_key(1)), Some(6));
        assert!(t.insert(&u64_key(2), 7), "tree must stay writable after recover");
        let dram: DramBwTree = BwTree::new();
        assert_eq!(dram.index_name(), "BwTree");
    }

    #[test]
    fn consolidation_retires_chains_and_epochs_reclaim_them() {
        let t: PBwTree = BwTree::new();
        // Insert/remove cycles churn delta chains through consolidation.
        for round in 0..50u64 {
            for i in 0..200u64 {
                t.insert(&u64_key(i), round);
            }
            for i in 0..200u64 {
                t.remove(&u64_key(i));
            }
        }
        assert!(t.reclaimed_bytes() > 0, "reclamation must run during the workload");
        assert!(
            t.peak_retired_bytes() < (t.reclaimed_bytes() + t.retired_bytes()) / 2,
            "retired memory must stay bounded: peak {} vs total {}",
            t.peak_retired_bytes(),
            t.reclaimed_bytes() + t.retired_bytes()
        );
        // Quiescent flush drains the remainder entirely.
        t.reclaimer().flush();
        assert_eq!(t.retired_bytes(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn merge_retires_emptied_pages_and_gauge_shrinks() {
        let t: PBwTree = BwTree::new();
        for i in 0..600u64 {
            t.insert(&u64_key(i), i);
        }
        // Empty a wide middle range: the emptied leaves must be merged away,
        // not left as permanent husks every scan still traverses.
        for i in 100..500u64 {
            assert!(t.remove(&u64_key(i)));
        }
        let backlog = t.empty_leaf_pages();
        let swept = t.merge_empty_pages();
        assert!(
            t.merged_pages() > 0,
            "delete-heavy churn must complete merges (inline {} + swept {swept})",
            t.merged_pages() - swept,
        );
        assert!(
            t.empty_leaf_pages() <= backlog && t.empty_leaf_pages() <= 1,
            "empty-page backlog must shrink to at most the leftmost leaf: \
             {backlog} -> {}",
            t.empty_leaf_pages()
        );
        assert_eq!(t.incomplete_smos(), 0, "merges must be driven to completion");

        // Merged key space stays fully consistent: lookups, ordered scans and
        // re-inserts into the adopted ranges all behave.
        assert_eq!(t.get(&u64_key(99)), Some(99));
        assert_eq!(t.get(&u64_key(300)), None);
        assert_eq!(t.get(&u64_key(550)), Some(550));
        let got = t.scan(&u64_key(0), 1_000);
        assert_eq!(got.len(), 200);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        for i in 100..500u64 {
            assert!(t.insert(&u64_key(i), i * 2), "re-insert {i} into merged range");
        }
        for i in 100..500u64 {
            assert_eq!(t.get(&u64_key(i)), Some(i * 2));
        }
        assert_eq!(t.len(), 600);
        // The husks' memory went through the epoch domain.
        t.reclaimer().flush();
        assert!(t.reclaimed_bytes() > 0);
    }

    #[test]
    fn emptied_tree_merges_down_and_reports_empty() {
        let t: PBwTree = BwTree::new();
        for i in 0..300u64 {
            t.insert(&u64_key(i), i);
        }
        assert!(!t.is_empty());
        for i in 0..300u64 {
            assert!(t.remove(&u64_key(i)));
        }
        assert!(t.is_empty(), "mapping-table walk must see no live records");
        t.merge_empty_pages();
        assert!(t.is_empty());
        assert_eq!(t.empty_leaf_pages(), 1, "only the leftmost leaf may remain empty");
        assert_eq!(t.len(), 0);
        for i in 0..300u64 {
            assert!(t.insert(&u64_key(i), i + 1), "tree must stay writable after merges");
        }
        assert_eq!(t.len(), 300);
    }

    #[test]
    fn crash_sites_list_is_distinct_and_prefixed() {
        let set: std::collections::HashSet<_> = CRASH_SITES.iter().collect();
        assert_eq!(set.len(), CRASH_SITES.len());
        for s in CRASH_SITES {
            assert!(s.starts_with("bwtree."), "{s}");
        }
    }
}
