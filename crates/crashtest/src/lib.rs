//! # Crash-recovery and durability testing for PM indexes (§5 of the RECIPE paper)
//!
//! The paper introduces a targeted testing methodology built on the observation that
//! inserts and structure-modification operations in PM indexes consist of a small
//! number of ordered atomic steps, so it suffices to simulate a crash after each
//! atomic step rather than after every instruction. This crate implements both halves
//! of that methodology against the `pm` substrate:
//!
//! * **Consistency testing**: one crash driver, [`run_crash_sweep`]. Each crash
//!   state loads a fresh index with a mixed workload while a crash is armed at one
//!   site hit; when the crash fires the operation is cut mid-way (leaving partial
//!   state, like a power failure); the index is "restarted" (locks re-initialised
//!   via [`recipe::session::Index::recover`]); a multi-threaded mixed workload then
//!   runs and finally every acknowledged key is read back and checked. One state
//!   per declared crash site plus sampled states enumerate the interesting crash
//!   points. The load loop ([`run_load`]) and the acknowledged-state model
//!   ([`Acked`]) are public, so a test that cuts one operation by hand uses the
//!   same two.
//! * **Durability testing** ([`run_durability_test`]): with the shadow cache-line
//!   tracker enabled, every insert is checked to have flushed (and fenced) every cache
//!   line it dirtied — the check that exposed the unflushed root allocations in
//!   FAST & FAIR and CCEH (§7.5).
//!
//! Both run in a fresh [`pm::Domain`] of their own, so they leave their caller's
//! crash arming, site counts and tracker as they found them.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod sweep;

pub use sweep::{
    run_crash_sweep, run_load, Acked, Cut, FailureDump, MixedGen, MixedOp, Readback, SiteOutcome,
    SweepConfig, SweepReport,
};

use recipe::key::u64_key;
use recipe::session::{Index, IndexExt};

fn crash_value(id: u64) -> u64 {
    id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// Outcome of the durability test.
#[derive(Debug, Clone, Default)]
pub struct DurabilityReport {
    /// Inserts performed in the (tracked) test phase.
    pub ops: usize,
    /// Inserts that left at least one dirtied cache line unflushed.
    pub ops_with_unflushed_lines: usize,
    /// Inserts that left flushed-but-unfenced lines (strict check).
    pub ops_with_unfenced_lines: usize,
    /// Whether the initial construction of the index itself left unflushed lines
    /// (the FAST & FAIR / CCEH root-allocation bug class).
    pub construction_unflushed: usize,
}

impl DurabilityReport {
    /// Whether every dirtied line was persisted.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.ops_with_unflushed_lines == 0
            && self.ops_with_unfenced_lines == 0
            && self.construction_unflushed == 0
    }
}

/// Run the §5 durability test in a fresh [`pm::Domain`]: build an index with
/// tracking enabled, load it so that later insertions trigger structure
/// modifications, then insert `test_keys` more keys verifying after each insert
/// that every dirtied cache line was flushed and fenced.
pub fn run_durability_test<I, F>(factory: F, load_keys: usize, test_keys: usize) -> DurabilityReport
where
    I: Index,
    F: Fn() -> I,
{
    let _domain = pm::Domain::new().enter();
    pm::tracker::enable();
    let index = factory();
    let construction = pm::tracker::check(false);
    let mut report = DurabilityReport {
        construction_unflushed: construction.unflushed.len(),
        ..Default::default()
    };
    let mut h = index.handle();
    // Load phase (untracked per-op; we only need the structure to be past its first
    // splits/rehashes so the test phase exercises SMOs too).
    for i in 0..load_keys as u64 {
        let _ = h.insert(&u64_key(i), crash_value(i));
    }
    pm::tracker::clear_lines();

    for i in 0..test_keys as u64 {
        let id = load_keys as u64 + i;
        let _ = h.insert(&u64_key(id), crash_value(id));
        let check = pm::tracker::check(true);
        if !check.unflushed.is_empty() {
            report.ops_with_unflushed_lines += 1;
        }
        if !check.unfenced.is_empty() {
            report.ops_with_unfenced_lines += 1;
        }
        pm::tracker::clear_lines();
        report.ops += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe::lock::VersionLock;
    use recipe::persist::{PersistMode, Pmem};
    use recipe::session::{Capabilities, OpError, OpResult};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};

    // The sweep and the durability test enter a fresh `pm::Domain` of their own;
    // a test that sets PM state itself enters one too, so the tests run at once
    // without seeing each other's state.

    /// A small lock-protected hash map with RECIPE-style crash sites, used to validate
    /// the harness itself (the real indexes are tested from the integration suite).
    type Shard = (VersionLock, parking_lot::RwLock<HashMap<Vec<u8>, u64>>);

    struct ToyIndex {
        shards: Vec<Shard>,
        durable: AtomicBool,
    }

    impl ToyIndex {
        fn new(durable: bool) -> Self {
            let mut shards = Vec::new();
            for _ in 0..16 {
                shards.push((VersionLock::new(), parking_lot::RwLock::new(HashMap::new())));
            }
            ToyIndex { shards, durable: AtomicBool::new(durable) }
        }

        fn shard(&self, key: &[u8]) -> &Shard {
            let h = recipe::key::hash64(key) as usize;
            &self.shards[h % self.shards.len()]
        }
    }

    impl Index for ToyIndex {
        fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
            let (lock, map) = self.shard(key);
            let _g = lock.lock();
            pm::crash::site("toy.insert.locked");
            let newly = map.write().insert(key.to_vec(), value).is_none();
            if self.durable.load(Ordering::Relaxed) {
                // Pretend we persisted the (imaginary) line we dirtied.
                Pmem::mark_dirty_obj(&self.durable);
                Pmem::persist_obj(&self.durable, true);
            } else {
                Pmem::mark_dirty_obj(&self.durable);
            }
            pm::crash::site("toy.insert.committed");
            Ok(if newly { OpResult::Inserted } else { OpResult::Updated })
        }
        fn exec_get(&self, key: &[u8]) -> Option<u64> {
            self.shard(key).1.read().get(key).copied()
        }
        fn exec_remove(&self, key: &[u8]) -> Result<OpResult, OpError> {
            let (lock, map) = self.shard(key);
            let _g = lock.lock();
            match map.write().remove(key) {
                Some(_) => Ok(OpResult::Removed),
                None => Err(OpError::NotFound),
            }
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities::hash_index(false)
        }
        fn index_name(&self) -> String {
            "toy".into()
        }
        fn recover(&self) {
            for (lock, _) in &self.shards {
                lock.force_unlock();
            }
        }
    }

    /// A crash inside a critical section leaves its lock held; the harness
    /// restarts through [`Index::recover`], which must release it so the
    /// post-recovery workload cannot deadlock on that shard.
    #[test]
    fn recover_releases_a_lock_a_crash_left_held() {
        fn restart<I: Index>(index: &I) {
            index.recover();
        }
        let _d = pm::Domain::new().enter();
        let idx = ToyIndex::new(true);
        let key = recipe::key::u64_key(5);
        let (lock, _) = idx.shard(&key);
        std::mem::forget(lock.lock());
        assert!(lock.is_locked());
        restart(&idx);
        assert!(!lock.is_locked(), "recover re-initialises the lock");
        let mut h = idx.handle();
        assert_eq!(h.insert(&key, 50), Ok(OpResult::Inserted));
        assert_eq!(h.get(&key), Some(50));
    }

    #[test]
    fn durability_harness_detects_missing_flushes() {
        let bad = run_durability_test(|| ToyIndex::new(false), 50, 50);
        assert!(!bad.passed());
        assert_eq!(bad.ops, 50);
        assert!(bad.ops_with_unflushed_lines > 0);

        let good = run_durability_test(|| ToyIndex::new(true), 50, 50);
        assert!(good.passed(), "{good:?}");
    }

    /// `crash_table` builds its config from this default: the paper's 10k-op
    /// load (Level-Hashing's resize needs ~7k inserts), 4 post-recovery threads
    /// and seed 7.
    #[test]
    fn default_config_matches_paper_scale() {
        let s = SweepConfig::default();
        assert_eq!((s.load_ops, s.post_ops, s.threads, s.seed), (10_000, 4_000, 4, 7));
        assert!(s.sampled_states > 0);
    }

    /// A caller with its own arming, site counts and tracker finds all three as it
    /// left them after a sweep and a durability test.
    #[test]
    fn the_harness_leaves_its_callers_domain_as_it_found_it() {
        let _d = pm::Domain::new().enter();
        pm::crash::arm_count_only();
        pm::crash::start_named_counts();
        pm::crash::site("caller.site");
        pm::tracker::enable();
        let state = || {
            let mut counts = pm::crash::named_counts();
            counts.sort_unstable();
            (counts, pm::crash::sites_hit(), pm::tracker::enabled())
        };
        let before = state();
        assert_eq!(before, (vec![("caller.site", 1)], 1, true));
        let cfg =
            SweepConfig { load_ops: 200, post_ops: 100, threads: 2, sampled_states: 2, seed: 3 };
        assert!(run_crash_sweep(|| ToyIndex::new(true), TOY_SITES, &cfg).passed());
        assert!(run_durability_test(|| ToyIndex::new(true), 50, 50).passed());
        assert_eq!(state(), before);
    }

    const TOY_SITES: &[&str] = &["toy.insert.locked", "toy.insert.committed"];

    #[test]
    fn sweep_passes_a_correct_index_with_full_coverage() {
        let cfg =
            SweepConfig { load_ops: 400, post_ops: 300, threads: 2, sampled_states: 5, seed: 3 };
        let report = run_crash_sweep(|| ToyIndex::new(true), TOY_SITES, &cfg);
        assert_eq!(report.states_tested, TOY_SITES.len() + 5);
        assert!(report.crashes_triggered >= TOY_SITES.len(), "{report:?}");
        for s in &report.per_site {
            assert!(s.hits_in_load > 0, "{s:?}");
            assert!(s.crash_fired, "{s:?}");
            assert!(s.exercised, "{s:?}");
        }
        assert!(report.full_coverage());
        assert!(report.passed(), "{report:?}");
        assert!(report.avg_state_ms >= 0.0);
    }

    #[test]
    fn sweep_flags_never_exercised_sites() {
        const WITH_HOLE: &[&str] = &["toy.insert.locked", "toy.never.reached"];
        let cfg =
            SweepConfig { load_ops: 200, post_ops: 100, threads: 2, sampled_states: 2, seed: 9 };
        let report = run_crash_sweep(|| ToyIndex::new(true), WITH_HOLE, &cfg);
        assert!(report.consistent(), "{report:?}");
        assert!(!report.full_coverage(), "hole must be detected");
        assert!(!report.passed());
        assert_eq!(report.sites_defined(), 2);
        assert_eq!(report.sites_exercised(), 1);
        let hole = report.per_site.iter().find(|s| s.site == "toy.never.reached").unwrap();
        assert_eq!(hole.hits_in_load, 0);
        assert!(!hole.crash_fired);
        assert!(!hole.exercised);
        // The same sweep also proves the reverse direction: `toy.insert.committed`
        // executed but was left out of the declaration.
        assert_eq!(report.undeclared_sites, vec!["toy.insert.committed"]);
    }

    #[test]
    fn sweep_flags_emitted_but_undeclared_sites() {
        // Declare only one of the two sites the toy index emits: consistency and
        // declared-site coverage are fine, but the sweep must still fail because
        // an executed atomic step has no targeted crash state.
        const PARTIAL: &[&str] = &["toy.insert.locked"];
        let cfg =
            SweepConfig { load_ops: 200, post_ops: 100, threads: 2, sampled_states: 2, seed: 5 };
        let report = run_crash_sweep(|| ToyIndex::new(true), PARTIAL, &cfg);
        assert!(report.consistent(), "{report:?}");
        assert_eq!(report.sites_exercised(), report.sites_defined());
        assert_eq!(report.undeclared_sites, vec!["toy.insert.committed"]);
        assert!(!report.full_coverage());
        assert!(!report.passed());
    }
}
