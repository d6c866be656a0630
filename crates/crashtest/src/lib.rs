//! # Crash-recovery and durability testing for PM indexes (§5 of the RECIPE paper)
//!
//! The paper introduces a targeted testing methodology built on the observation that
//! inserts and structure-modification operations in PM indexes consist of a small
//! number of ordered atomic steps, so it suffices to simulate a crash after each
//! atomic step rather than after every instruction. This crate implements both halves
//! of that methodology against the `pm` substrate:
//!
//! * **Consistency testing** ([`run_crash_test`]): load the index while a crash is
//!   armed at one of its crash sites; when the crash fires the operation is cut
//!   mid-way (leaving partial state, like a power failure); the index is "restarted"
//!   (locks re-initialised via [`recipe::session::Index::recover`]); a
//!   multi-threaded mixed workload then runs and finally every key acknowledged
//!   before the crash is read back and checked. Repeating this over many crash
//!   states enumerates the interesting crash points of the workload.
//! * **Durability testing** ([`run_durability_test`]): with the shadow cache-line
//!   tracker enabled, every insert is checked to have flushed (and fenced) every cache
//!   line it dirtied — the check that exposed the unflushed root allocations in
//!   FAST & FAIR and CCEH (§7.5).

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod sweep;

pub use sweep::{
    run_crash_sweep, FailureDump, MixedGen, MixedOp, SiteOutcome, SweepConfig, SweepReport,
};

use pm::crash;
use recipe::key::u64_key;
use recipe::session::{Index, IndexExt};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Configuration for the crash-consistency test.
#[derive(Debug, Clone)]
pub struct CrashTestConfig {
    /// Keys loaded (single-threaded) while the crash is armed. The paper uses 10 000.
    pub load_keys: usize,
    /// Mixed operations (half inserts, half reads) executed after recovery. The paper
    /// uses 10 000 across 4 threads.
    pub post_ops: usize,
    /// Threads used for the post-recovery mixed workload.
    pub threads: usize,
    /// Number of distinct crash states to generate and test.
    pub crash_states: usize,
    /// Base RNG seed (crash points are derived deterministically from it).
    pub seed: u64,
}

impl Default for CrashTestConfig {
    fn default() -> Self {
        CrashTestConfig {
            load_keys: 10_000,
            post_ops: 10_000,
            threads: 4,
            crash_states: 100,
            seed: 7,
        }
    }
}

/// Outcome of a crash-consistency test run.
#[derive(Debug, Clone, Default)]
pub struct CrashTestReport {
    /// Crash states generated (equals the configured number).
    pub states_tested: usize,
    /// States in which a crash actually fired (a state may finish the load without
    /// hitting its crash point if the point exceeds the workload's site count).
    pub crashes_triggered: usize,
    /// Keys acknowledged before a crash that could not be read back afterwards.
    pub lost_keys: usize,
    /// Keys read back with a value different from the one acknowledged.
    pub wrong_values: usize,
    /// Post-recovery operations that failed (inserts rejected or reads of
    /// post-recovery inserts missing).
    pub failed_post_ops: usize,
    /// Average milliseconds to generate and test one crash state.
    pub avg_state_ms: f64,
}

impl CrashTestReport {
    /// Whether the index passed: nothing was lost and recovery kept the index usable.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.lost_keys == 0 && self.wrong_values == 0 && self.failed_post_ops == 0
    }
}

fn crash_value(id: u64) -> u64 {
    id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// Count the crash sites exercised by loading `load_keys` keys into a fresh index.
fn calibrate_sites<I, F>(factory: &F, load_keys: usize) -> u64
where
    I: Index,
    F: Fn() -> I,
{
    crash::arm_count_only();
    let index = factory();
    let mut h = index.handle();
    for i in 0..load_keys as u64 {
        let _ = h.insert(&u64_key(i), crash_value(i));
    }
    let sites = crash::sites_hit();
    crash::disarm();
    sites
}

/// Run the §5 crash-consistency test against indexes produced by `factory`.
///
/// The factory must produce the *PM* variant of an index (crash sites are inert in
/// DRAM mode, so no crashes would ever fire).
pub fn run_crash_test<I, F>(factory: F, cfg: &CrashTestConfig) -> CrashTestReport
where
    I: Index,
    F: Fn() -> I,
{
    crash::install_quiet_hook();
    let sites = calibrate_sites(&factory, cfg.load_keys).max(1);
    let mut report = CrashTestReport { states_tested: cfg.crash_states, ..Default::default() };
    let started = Instant::now();

    for state in 0..cfg.crash_states {
        // Deterministically spread crash points over the whole workload.
        let mix = (state as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ cfg.seed;
        let crash_at = (mix % sites) + 1;
        let index = factory();

        // Load phase with the crash armed: keys acknowledged before the crash are the
        // ones that must survive. The load runs through one session handle (a
        // crash unwinds through its epoch guard like a power failure).
        crash::arm_nth(crash_at);
        let mut h = index.handle();
        let mut acknowledged: Vec<u64> = Vec::with_capacity(cfg.load_keys);
        let mut crashed = false;
        for i in 0..cfg.load_keys as u64 {
            let r = crash::catch_crash(AssertUnwindSafe(|| {
                let _ = h.insert(&u64_key(i), crash_value(i));
            }));
            match r {
                Ok(_) => acknowledged.push(i),
                Err(_site) => {
                    crashed = true;
                    break;
                }
            }
        }
        crash::disarm();
        if crashed {
            report.crashes_triggered += 1;
        }

        // "Restart": RECIPE's recovery is just lock re-initialisation.
        index.recover();

        // Post-recovery mixed workload: concurrent inserts of new keys and reads of
        // acknowledged keys, each thread through its own session handle.
        let failed_ops = AtomicU64::new(0);
        let per_thread = cfg.post_ops / cfg.threads.max(1);
        let domain = &pm::Domain::current();
        std::thread::scope(|scope| {
            for t in 0..cfg.threads.max(1) as u64 {
                let index = &index;
                let acknowledged = &acknowledged;
                let failed_ops = &failed_ops;
                scope.spawn(move || {
                    let _d = domain.enter();
                    let mut h = index.handle();
                    for j in 0..per_thread as u64 {
                        if j % 2 == 0 {
                            let id = 1_000_000 + t * per_thread as u64 + j;
                            let _ = h.insert(&u64_key(id), crash_value(id));
                            if h.get(&u64_key(id)) != Some(crash_value(id)) {
                                failed_ops.fetch_add(1, Ordering::Relaxed);
                            }
                        } else if !acknowledged.is_empty() {
                            let id = acknowledged[(j as usize * 7919) % acknowledged.len()];
                            if h.get(&u64_key(id)) != Some(crash_value(id)) {
                                failed_ops.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        report.failed_post_ops += failed_ops.load(Ordering::Relaxed) as usize;

        // Final read-back of everything acknowledged before the crash.
        for &id in &acknowledged {
            match h.get(&u64_key(id)) {
                Some(v) if v == crash_value(id) => {}
                Some(_) => report.wrong_values += 1,
                None => report.lost_keys += 1,
            }
        }
    }
    report.avg_state_ms = started.elapsed().as_secs_f64() * 1000.0 / cfg.crash_states.max(1) as f64;
    report
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

/// Run the §5 durability test: build an index with tracking enabled, load it so that
/// later insertions trigger structure modifications, then insert `test_keys` more keys
/// verifying after each insert that every dirtied cache line was flushed and fenced.
pub fn run_durability_test<I, F>(factory: F, load_keys: usize, test_keys: usize) -> DurabilityReport
where
    I: Index,
    F: Fn() -> I,
{
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
    pm::tracker::disable();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe::lock::VersionLock;
    use recipe::persist::{PersistMode, Pmem};
    use recipe::session::{Capabilities, OpError, OpResult};
    use std::collections::HashMap;
    use std::sync::atomic::AtomicBool;

    // Every test that arms the injector or enables the tracker enters a fresh
    // `pm::Domain`, so the tests run at once without seeing each other's state.

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
    fn crash_harness_passes_a_correct_index() {
        let _d = pm::Domain::new().enter();
        let cfg = CrashTestConfig {
            load_keys: 500,
            post_ops: 400,
            threads: 2,
            crash_states: 10,
            seed: 3,
        };
        let report = run_crash_test(|| ToyIndex::new(true), &cfg);
        assert_eq!(report.states_tested, 10);
        assert!(report.crashes_triggered > 0, "crash points must fire");
        assert!(report.passed(), "{report:?}");
        assert!(report.avg_state_ms >= 0.0);
    }

    #[test]
    fn durability_harness_detects_missing_flushes() {
        // In its own domain, no neighbouring crash test's dirty lines reach the report.
        let _d = pm::Domain::new().enter();
        let bad = run_durability_test(|| ToyIndex::new(false), 50, 50);
        assert!(!bad.passed());
        assert_eq!(bad.ops, 50);
        assert!(bad.ops_with_unflushed_lines > 0);

        let good = run_durability_test(|| ToyIndex::new(true), 50, 50);
        assert!(good.passed(), "{good:?}");
    }

    #[test]
    fn default_config_matches_paper_scale() {
        let cfg = CrashTestConfig::default();
        assert_eq!(cfg.load_keys, 10_000);
        assert_eq!(cfg.post_ops, 10_000);
        assert_eq!(cfg.threads, 4);
        let s = SweepConfig::default();
        assert_eq!(s.load_ops, 10_000);
        assert!(s.sampled_states > 0);
    }

    const TOY_SITES: &[&str] = &["toy.insert.locked", "toy.insert.committed"];

    #[test]
    fn sweep_passes_a_correct_index_with_full_coverage() {
        let _d = pm::Domain::new().enter();
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
        let _d = pm::Domain::new().enter();
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
        let _d = pm::Domain::new().enter();
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
