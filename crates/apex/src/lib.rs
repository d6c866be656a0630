//! # P-APEX — a compact PM-native learned index
//!
//! Every other index in this workspace is either a RECIPE-*converted* classic
//! DRAM index or a hand-crafted persistent B+ tree/hash table. This crate is
//! the missing experimental condition: a ground-up **PM-native learned index**
//! in the style of APEX (a PM-optimized ALEX), evaluated on the same calibrated
//! latency model, figures, and §5 crash methodology as everything else.
//!
//! The design, compacted to its PM-relevant essentials:
//!
//! * **Gapped arrays with per-node linear models.** Each data node trains a
//!   least-squares line from key features to slot positions and places its
//!   entries at the predicted slots, gaps between. Lookups probe the predicted
//!   slot and gallop outward (bounded exponential search); the probe count —
//!   [`pm::stats::Mapping::ApexNode`] — is a direct, wall-clock-free measure of
//!   model accuracy.
//! * **Insert buffering.** Writes land in a small per-node buffer with a
//!   two-step durable publish (slot bytes → commit bit), a constant two
//!   flush/fence pairs per insert — no FAST-style shifting. A full buffer
//!   triggers a merge/retrain SMO that drains it under a single coalesced
//!   fence.
//! * **Crash consistency.** Commit bitmaps make torn inserts/removes roll back
//!   by construction; merge/retrain/split SMOs are published as ordered atomic
//!   steps (`apex.smo.*` crash sites) behind a redo record, and
//!   [`Apex::recover`] completes or rolls back a torn retrain.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod model;
pub mod node;
pub mod tree;

pub use tree::Apex;

/// Every crash site this crate can emit, for the §5 per-site exhaustive sweep.
pub const CRASH_SITES: &[&str] = &[
    "apex.insert.slot_written",
    "apex.insert.committed",
    "apex.update.committed",
    "apex.remove.committed",
    "apex.smo.built",
    "apex.smo.logged",
    "apex.smo.swapped",
    "apex.smo.cleared",
    "apex.recover.redone",
];

use recipe::persist::{Dram, PersistMode, Pmem};
use recipe::session::{Capabilities, Index, OpError, OpResult, ScanBuf};

/// The persistent learned index (the configuration in the figures).
pub type PApex = Apex<Pmem>;
/// The same structure with persistence compiled out (DRAM-policy alias).
pub type DramApex = Apex<Dram>;

/// What this index supports. `linearizable_update` is `true`: the conditional
/// check-and-write runs under the owning data node's write lock.
pub const CAPS: Capabilities = Capabilities::ordered_index(true);

impl<P: PersistMode> Index for Apex<P> {
    fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        if Apex::insert(self, key, value) {
            Ok(OpResult::Inserted)
        } else {
            Ok(OpResult::Updated)
        }
    }

    fn exec_update(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        if Apex::update(self, key, value) {
            Ok(OpResult::Updated)
        } else {
            Err(OpError::NotFound)
        }
    }

    fn exec_get(&self, key: &[u8]) -> Option<u64> {
        Apex::get(self, key)
    }

    fn exec_remove(&self, key: &[u8]) -> Result<OpResult, OpError> {
        if Apex::remove(self, key) {
            Ok(OpResult::Removed)
        } else {
            Err(OpError::NotFound)
        }
    }

    fn exec_scan(&self, start: &[u8], max: usize, out: &mut ScanBuf) {
        Apex::scan_into(self, start, max, out);
    }

    fn capabilities(&self) -> Capabilities {
        CAPS
    }

    fn index_name(&self) -> String {
        if P::PERSISTENT {
            "P-APEX".into()
        } else {
            "APEX(dram)".into()
        }
    }

    /// Has no locks to re-initialise: replays a logged SMO, then recounts the keys
    /// and finishes the merge of every full-buffer node that its walk finds.
    fn recover(&self) {
        Apex::recover(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm::crash;
    use recipe::key::u64_key;
    use std::collections::BTreeMap;
    use std::panic::AssertUnwindSafe;
    use std::sync::Arc;

    // Every test enters a fresh `pm::Domain`: an arming in one never fires in,
    // or has its hits consumed by, a sibling driving a `Pmem` index at once.

    #[test]
    fn insert_get_integer_keys() {
        let _d = pm::Domain::new().enter();
        let t: PApex = Apex::new();
        for i in 0..20_000u64 {
            assert!(t.insert(&u64_key(i), i * 2), "insert {i}");
        }
        for i in 0..20_000u64 {
            assert_eq!(t.get(&u64_key(i)), Some(i * 2), "get {i}");
        }
        assert_eq!(t.get(&u64_key(20_000)), None);
        assert_eq!(t.len(), 20_000);
        assert!(t.node_count() > 20_000 / (node::NODE_MAX + node::BUF_CAP), "splits happened");
    }

    #[test]
    fn insert_is_upsert() {
        let _d = pm::Domain::new().enter();
        let t: PApex = Apex::new();
        assert!(t.insert(&u64_key(7), 1));
        assert!(!t.insert(&u64_key(7), 2));
        assert_eq!(t.get(&u64_key(7)), Some(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn string_keys_round_trip() {
        let _d = pm::Domain::new().enter();
        let t: PApex = Apex::new();
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
        let _d = pm::Domain::new().enter();
        let t: PApex = Apex::new();
        for i in 0..2_000u64 {
            t.insert(&u64_key(i), i);
        }
        for i in (0..2_000u64).step_by(3) {
            assert!(t.remove(&u64_key(i)));
            assert!(!t.remove(&u64_key(i)), "double remove");
        }
        for i in 0..2_000u64 {
            let expect = if i % 3 == 0 { None } else { Some(i) };
            assert_eq!(t.get(&u64_key(i)), expect, "key {i}");
        }
        // Removed keys can be re-inserted.
        assert!(t.insert(&u64_key(0), 77));
        assert_eq!(t.get(&u64_key(0)), Some(77));
    }

    #[test]
    fn scan_matches_btreemap_across_node_boundaries() {
        let _d = pm::Domain::new().enter();
        let t: PApex = Apex::new();
        let mut model = BTreeMap::new();
        for i in 0..5_000u64 {
            let k = u64_key(i * 11);
            t.insert(&k, i);
            model.insert(k.to_vec(), i);
        }
        for start in [0u64, 10, 5_000, 54_989, 60_000] {
            let sk = u64_key(start);
            let got = t.scan(&sk, 40);
            let want: Vec<(Vec<u8>, u64)> =
                model.range(sk.to_vec()..).take(40).map(|(k, v)| (k.clone(), *v)).collect();
            assert_eq!(got, want, "scan from {start}");
        }
        // Buffered (not yet merged) entries appear in scans too.
        t.insert(&u64_key(1), 991);
        let got = t.scan(&u64_key(0), 2);
        assert_eq!(got[0], (u64_key(0).to_vec(), 0));
        assert_eq!(got[1], (u64_key(1).to_vec(), 991));
    }

    #[test]
    fn mixed_workload_matches_model() {
        let _d = pm::Domain::new().enter();
        let t: PApex = Apex::new();
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        let mut gen = crashtest_like_mix(13);
        for i in 0..30_000u64 {
            match gen(i) {
                (0, k, v) => {
                    assert_eq!(
                        t.insert(&u64_key(k), v),
                        model.insert(u64_key(k).to_vec(), v).is_none()
                    );
                }
                (1, k, v) => {
                    let present = model.contains_key(u64_key(k).as_slice());
                    assert_eq!(t.update(&u64_key(k), v), present);
                    if present {
                        model.insert(u64_key(k).to_vec(), v);
                    }
                }
                (_, k, _) => {
                    assert_eq!(
                        t.remove(&u64_key(k)),
                        model.remove(u64_key(k).as_slice()).is_some()
                    );
                }
            }
        }
        assert_eq!(t.len(), model.len());
        for (k, v) in &model {
            assert_eq!(t.get(k), Some(*v));
        }
        let got = t.scan(&[], 1_000_000);
        assert_eq!(got.len(), model.len());
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "scan sorted, no duplicates");
    }

    /// A small deterministic mixed-op generator (op, key, value).
    fn crashtest_like_mix(seed: u64) -> impl FnMut(u64) -> (u8, u64, u64) {
        let mut state = seed | 1;
        move |i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = state >> 33;
            let op = match r % 10 {
                0..=5 => 0,
                6..=7 => 1,
                _ => 2,
            };
            (op, r % 3_000, i | 1)
        }
    }

    #[test]
    fn concurrent_inserts_keep_all_keys() {
        let _d = pm::Domain::new().enter();
        let t: Arc<PApex> = Arc::new(Apex::new());
        let threads = 8u64;
        let per = 3_000u64;
        let mut handles = Vec::new();
        for tid in 0..threads {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    let k = tid * per + i;
                    assert!(t.insert(&u64_key(k), k));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for k in 0..threads * per {
            assert_eq!(t.get(&u64_key(k)), Some(k), "key {k} lost");
        }
        assert_eq!(t.len(), (threads * per) as usize);
    }

    #[test]
    fn buffered_inserts_flush_a_constant_two_fences() {
        let _d = pm::Domain::new().enter();
        let t: PApex = Apex::new();
        // Warm up until just after a merge so the measured window is merge-free.
        for i in 0..node::BUF_CAP as u64 + 1 {
            t.insert(&u64_key(i), i);
        }
        let before = pm::stats::snapshot_local();
        for i in 0..32u64 {
            t.insert(&u64_key(1_000 + i), i);
        }
        let d = pm::stats::snapshot_local().since(&before);
        assert_eq!(d.fence, 64, "2 fences per buffered insert");
        assert!(d.clwb <= 4 * 32, "constant clwb per buffered insert, got {}", d.clwb);
    }

    #[test]
    fn amortized_flushes_beat_a_shift_based_baseline() {
        let _d = pm::Domain::new().enter();
        // The headline APEX claim, counter-attributed: buffered inserts plus
        // amortized merges must undercut FAST & FAIR's shift-based inserts on
        // the very same key sequence.
        let t: PApex = Apex::new();
        let before = pm::stats::snapshot_local();
        for i in 0..10_000u64 {
            t.insert(&u64_key(i * 7 % 10_000), i);
        }
        let apex_d = pm::stats::snapshot_local().since(&before);
        let f: fastfair::PFastFair = fastfair::FastFair::new();
        let before = pm::stats::snapshot_local();
        for i in 0..10_000u64 {
            f.insert(&u64_key(i * 7 % 10_000), i);
        }
        let fair_d = pm::stats::snapshot_local().since(&before);
        assert!(
            apex_d.clwb < fair_d.clwb,
            "APEX clwb/insert {:.2} should beat FAST&FAIR {:.2}",
            apex_d.clwb as f64 / 10_000.0,
            fair_d.clwb as f64 / 10_000.0
        );
    }

    #[test]
    fn probes_attribute_to_the_apex_mapping() {
        let _d = pm::Domain::new().enter();
        use pm::stats::Mapping;
        let t: PApex = Apex::new();
        for i in 0..2_000u64 {
            t.insert(&u64_key(i * 3), i);
        }
        let before = pm::stats::probes_local();
        for i in 0..2_000u64 {
            assert_eq!(t.get(&u64_key(i * 3)), Some(i));
        }
        let d = pm::stats::probes_local().since(&before);
        assert!(d.get(Mapping::ApexNode) >= 2_000, "every lookup probes at least once");
        assert_eq!(d.total(), d.get(Mapping::ApexNode), "no foreign mapping charged");
        // Model-predicted probing should average far below node occupancy.
        let per_lookup = d.get(Mapping::ApexNode) as f64 / 2_000.0;
        assert!(per_lookup < 16.0, "expected model-guided probes, got {per_lookup}/lookup");
    }

    #[test]
    fn dram_mode_is_flush_free() {
        let t: DramApex = Apex::new();
        let before = pm::stats::snapshot_local();
        for i in 0..500u64 {
            t.insert(&u64_key(i), i);
        }
        t.remove(&u64_key(3));
        t.update(&u64_key(4), 9);
        let d = pm::stats::snapshot_local().since(&before);
        assert_eq!((d.clwb, d.fence), (0, 0));
        assert_eq!(t.index_name(), "APEX(dram)");
    }

    #[test]
    fn trait_object_and_recover() {
        let _d = pm::Domain::new().enter();
        use recipe::session::IndexExt;
        let t: PApex = Apex::new();
        let idx: &dyn Index = &t;
        let mut h = idx.handle();
        assert_eq!(h.insert(&u64_key(1), 5), Ok(OpResult::Inserted));
        assert_eq!(h.update(&u64_key(1), 6), Ok(OpResult::Updated));
        assert_eq!(h.update(&u64_key(2), 6), Err(OpError::NotFound));
        assert_eq!(h.index_name(), "P-APEX");
        assert!(h.capabilities().scan && h.capabilities().linearizable_update);
        t.recover();
        assert_eq!(t.get(&u64_key(1)), Some(6));
    }

    /// Drive inserts until the armed crash site fires, then recover and verify
    /// every acknowledged key (the torn op's key is exempt: unacknowledged).
    fn crash_at_site_then_recover(site: &'static str) {
        let _d = pm::Domain::new().enter();
        crash::install_quiet_hook();
        let t: PApex = Apex::new();
        let mut acked: BTreeMap<u64, u64> = BTreeMap::new();
        crash::arm_at_site(site, 1);
        let mut crashed = false;
        for i in 0..3 * node::NODE_MAX as u64 {
            // Mix in updates and removes so every site is reachable.
            let r = crash::catch_crash(AssertUnwindSafe(|| {
                t.insert(&u64_key(i), i + 1);
                if i % 5 == 4 {
                    t.update(&u64_key(i / 2), i);
                }
                if i % 7 == 6 {
                    t.remove(&u64_key(i / 3));
                }
            }));
            match r {
                Ok(()) => {
                    acked.insert(i, i + 1);
                    if i % 5 == 4 && acked.contains_key(&(i / 2)) {
                        acked.insert(i / 2, i);
                    }
                    if i % 7 == 6 {
                        acked.remove(&(i / 3));
                    }
                }
                Err(at) => {
                    assert_eq!(at, site, "crashed at the armed site");
                    // Every key the torn op may have touched is unacknowledged:
                    // both outcomes are legal for it (same rule as the sweep).
                    acked.remove(&i);
                    acked.remove(&(i / 2));
                    acked.remove(&(i / 3));
                    crashed = true;
                    break;
                }
            }
        }
        assert!(crashed, "site {site} was never reached by the driver load");
        crash::disarm();
        t.recover();
        for (k, v) in &acked {
            assert_eq!(t.get(&u64_key(*k)), Some(*v), "key {k} after crash at {site}");
        }
        // The index stays fully writable after recovery.
        for i in 10_000..10_000 + node::BUF_CAP as u64 * 2 {
            t.insert(&u64_key(i), i);
            assert_eq!(t.get(&u64_key(i)), Some(i));
        }
        // The torn op may or may not have committed its key, so the exact count
        // is only bounded, not pinned.
        assert!(t.len() >= acked.len() + node::BUF_CAP * 2);
    }

    #[test]
    fn crash_then_recover_at_insert_slot_written() {
        crash_at_site_then_recover("apex.insert.slot_written");
    }

    #[test]
    fn crash_then_recover_at_insert_committed() {
        crash_at_site_then_recover("apex.insert.committed");
    }

    #[test]
    fn crash_then_recover_at_update_committed() {
        crash_at_site_then_recover("apex.update.committed");
    }

    #[test]
    fn crash_then_recover_at_remove_committed() {
        crash_at_site_then_recover("apex.remove.committed");
    }

    #[test]
    fn crash_then_recover_at_smo_built() {
        crash_at_site_then_recover("apex.smo.built");
    }

    #[test]
    fn crash_then_recover_at_smo_logged() {
        crash_at_site_then_recover("apex.smo.logged");
    }

    #[test]
    fn crash_then_recover_at_smo_swapped() {
        crash_at_site_then_recover("apex.smo.swapped");
    }

    #[test]
    fn crash_then_recover_at_smo_cleared() {
        crash_at_site_then_recover("apex.smo.cleared");
    }

    #[test]
    fn recovery_replays_a_logged_smo() {
        let _d = pm::Domain::new().enter();
        // Crash between log and swap, then verify recover() emits the redo
        // helper site and completes the split: the torn SMO's keys survive.
        crash::install_quiet_hook();
        crash::start_named_counts();
        let t: PApex = Apex::new();
        crash::arm_at_site("apex.smo.logged", 1);
        let mut acked = 0u64;
        for i in 0..2 * node::NODE_MAX as u64 {
            let r = crash::catch_crash(AssertUnwindSafe(|| {
                t.insert(&u64_key(i), i);
            }));
            match r {
                Ok(()) => acked = i + 1,
                Err(site) => {
                    assert_eq!(site, "apex.smo.logged");
                    break;
                }
            }
        }
        crash::disarm();
        crash::arm_count_only();
        let redone_before = crash::named_count("apex.recover.redone");
        t.recover();
        assert_eq!(
            crash::named_count("apex.recover.redone"),
            redone_before + 1,
            "recovery replayed the logged SMO"
        );
        crash::disarm();
        for i in 0..acked {
            assert_eq!(t.get(&u64_key(i)), Some(i), "key {i} lost in torn retrain");
        }
    }

    #[test]
    fn declared_sites_match_emitted_sites() {
        let _d = pm::Domain::new().enter();
        // Every site the crate can emit is declared, and a mixed load plus a
        // torn-SMO recovery emits every declared site (the same two-directional
        // coverage contract the sweep enforces).
        crash::install_quiet_hook();
        crash::start_named_counts();
        crash::arm_count_only();
        {
            let t: PApex = Apex::new();
            for i in 0..3 * node::NODE_MAX as u64 {
                t.insert(&u64_key(i % 700), i);
                if i % 3 == 0 {
                    t.update(&u64_key(i % 700), i + 1);
                }
                if i % 5 == 0 {
                    t.remove(&u64_key((i + 2) % 700));
                }
            }
        }
        crash::disarm();
        // The redo helper only runs on a torn SMO; drive one.
        {
            let t: PApex = Apex::new();
            crash::arm_at_site("apex.smo.swapped", 1);
            for i in 0..2 * node::NODE_MAX as u64 {
                if crash::catch_crash(AssertUnwindSafe(|| {
                    t.insert(&u64_key(i), i);
                }))
                .is_err()
                {
                    break;
                }
            }
            crash::disarm();
            crash::arm_count_only();
            t.recover();
            crash::disarm();
        }
        let counts = crash::named_counts();
        for (name, _) in &counts {
            if name.starts_with("apex.") {
                assert!(CRASH_SITES.contains(name), "{name} emitted but not declared");
            }
        }
        for site in CRASH_SITES {
            assert!(
                counts.iter().any(|(n, c)| n == site && *c > 0),
                "{site} declared but never emitted"
            );
        }
    }
}
