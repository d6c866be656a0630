//! The crash driver: per-site exhaustive crash sweeps with coverage accounting.
//!
//! §5 *enumerates* the interesting crash points, because operations are a small
//! number of ordered atomic steps. [`run_crash_sweep`] implements that claim:
//!
//! * every crash site an index **declares** (`CRASH_SITES` in its crate) gets its
//!   own targeted crash state — armed at a deterministically chosen hit of exactly
//!   that site — plus uniformly sampled states on top (the way the paper
//!   *presents* its numbers, §7.5); a sweep with no declared sites is sampled-only;
//! * the load is a **mixed** workload (inserts of fresh keys, re-inserts of
//!   removed keys, updates, removes) so update/remove commit points and
//!   SMO-heavy paths are all reachable;
//! * a **coverage report** records, per site, how often the load exercises it,
//!   whether a crash fired there, and whether it executed at all anywhere in the
//!   sweep — including post-recovery phases, which is where pure *helper* sites
//!   (e.g. `art.helper.prefix_fixed`, which only runs once a crash left a
//!   permanent inconsistency behind) are reached;
//! * the sweep **fails** if consistency is violated *or* if any declared site was
//!   never exercised — a never-exercised site means the crash matrix has a hole.
//!
//! Every load, the calibration pass's and each crash state's, runs through one
//! loop, [`run_load`], and is checked against one model of what was
//! acknowledged, [`Acked`]; tests that cut one operation by hand use the same two.
//! A sweep runs in a fresh [`pm::Domain`], so it never sees or changes its
//! caller's crash arming, site counts or tracker.
//!
//! The whole sweep holds the `obs` event ring on: a crash state that fails any
//! consistency check reads its own window of the ring (every event from the
//! state's start on) into a [`FailureDump`] — the SMO/crash/epoch event timeline
//! leading up to the violation, plus `sweep.*` events pinpointing the failing
//! keys — so one failing run is enough to see *what* the index was doing.

use pm::crash;
use recipe::key::u64_key;
use recipe::session::{Handle, Index, IndexExt};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Configuration of one per-index sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Mixed operations executed (single-threaded) while a crash is armed.
    pub load_ops: usize,
    /// Mixed operations executed (multi-threaded) after recovery.
    pub post_ops: usize,
    /// Threads for the post-recovery phase.
    pub threads: usize,
    /// Uniformly sampled crash states run in addition to the per-site states.
    pub sampled_states: usize,
    /// Base RNG seed; the whole sweep is deterministic in it.
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig { load_ops: 10_000, post_ops: 4_000, threads: 4, sampled_states: 100, seed: 7 }
    }
}

/// Coverage outcome for one declared crash site.
#[derive(Debug, Clone)]
pub struct SiteOutcome {
    /// The declared site name.
    pub site: &'static str,
    /// Times the (crash-free) calibration load executes the site.
    pub hits_in_load: u64,
    /// Whether the targeted state actually crashed at this site.
    pub crash_fired: bool,
    /// Whether the site executed at least once anywhere in the sweep (targeted
    /// loads, sampled loads, recovery, or post-recovery phases).
    pub exercised: bool,
}

/// Event-trace capture of one failing crash state: which state it was, what
/// it got wrong, and the drained event timeline that led there.
#[derive(Debug, Clone)]
pub struct FailureDump {
    /// Which crash state failed (`site <name> hit <n>` or `sampled state <s>`).
    pub state: String,
    /// Counts of what went wrong (lost/wrong/resurrected/failed-post).
    pub summary: String,
    /// The drained event timeline for the failing state.
    pub dump: obs::event::Dump,
}

/// Outcome of a full per-index sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Per declared site, in declaration order.
    pub per_site: Vec<SiteOutcome>,
    /// Sites the sweep observed executing that the index's `CRASH_SITES` list
    /// does **not** declare — each one is an atomic step the per-site
    /// enumeration silently skipped, so any entry here fails the sweep.
    pub undeclared_sites: Vec<&'static str>,
    /// Crash states run (per-site states + sampled states).
    pub states_tested: usize,
    /// States in which a crash fired.
    pub crashes_triggered: usize,
    /// Acknowledged keys unreadable after recovery.
    pub lost_keys: usize,
    /// Acknowledged keys read back with the wrong value.
    pub wrong_values: usize,
    /// Acknowledged removals that resurrected after recovery.
    pub resurrected_keys: usize,
    /// Post-recovery operations with wrong results.
    pub failed_post_ops: usize,
    /// Average milliseconds per crash state.
    pub avg_state_ms: f64,
    /// Event timelines of every failing crash state (empty on a clean sweep).
    pub failure_dumps: Vec<FailureDump>,
}

impl SweepReport {
    /// Declared crash sites.
    #[must_use]
    pub fn sites_defined(&self) -> usize {
        self.per_site.len()
    }

    /// Declared sites that executed at least once during the sweep.
    #[must_use]
    pub fn sites_exercised(&self) -> usize {
        self.per_site.iter().filter(|s| s.exercised).count()
    }

    /// Whether every declared site was exercised *and* every executed site was
    /// declared (the coverage check is two-directional: an emitted-but-undeclared
    /// site would otherwise dodge its targeted crash state unnoticed).
    #[must_use]
    pub fn full_coverage(&self) -> bool {
        self.sites_exercised() == self.sites_defined() && self.undeclared_sites.is_empty()
    }

    /// Whether recovery preserved consistency in every state.
    #[must_use]
    pub fn consistent(&self) -> bool {
        self.lost_keys == 0
            && self.wrong_values == 0
            && self.resurrected_keys == 0
            && self.failed_post_ops == 0
    }

    /// Consistency *and* full site coverage.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.consistent() && self.full_coverage()
    }
}

use pm::mix64;

/// One operation of the deterministic mixed load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixedOp {
    /// Insert (or re-insert) `key -> value`.
    Insert(u64, u64),
    /// Conditional update of an existing key.
    Update(u64, u64),
    /// Remove an existing key.
    Remove(u64),
}

impl MixedOp {
    /// The key the operation writes.
    #[must_use]
    pub fn key(self) -> u64 {
        match self {
            MixedOp::Insert(k, _) | MixedOp::Update(k, _) | MixedOp::Remove(k) => k,
        }
    }
}

/// Deterministic mixed-operation generator: ~72% inserts (a slice of them
/// re-inserting previously removed keys, to exercise slot recycling), ~14%
/// updates of live keys, ~14% removes. Entirely a function of the seed.
///
/// Half the removes are *clustered*: an advancing cursor takes the smallest
/// live id at or above it (wrapping to the global minimum), so deletions sweep
/// contiguous key ranges and fully empty index pages — the load shape that
/// makes merge/rebalance SMO sites reachable. Re-inserts are FIFO (oldest
/// removed id first), so they land behind the cursor and refill already-swept
/// regions, exercising writes into pages that adopted a merged range. The
/// branch probabilities are unchanged, keeping every other index's site
/// coverage intact.
pub struct MixedGen {
    rng: u64,
    next_id: u64,
    live: Vec<u64>,
    removed: std::collections::VecDeque<u64>,
    cluster: u64,
}

impl MixedGen {
    /// Create a generator for the given seed.
    #[must_use]
    pub fn new(seed: u64) -> MixedGen {
        MixedGen {
            rng: seed | 1,
            next_id: 0,
            live: Vec::new(),
            removed: std::collections::VecDeque::new(),
            cluster: 0,
        }
    }

    fn rand(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.rng)
    }

    /// The `i`-th operation's value for `key` (updates write fresh values).
    #[must_use]
    pub fn value(key: u64, i: u64) -> u64 {
        mix64(key ^ i.wrapping_mul(0xA24B_AED4_963E_E407)) | 1
    }

    /// The first `n` operations, generated as they are consumed.
    pub fn ops(mut self, n: usize) -> impl Iterator<Item = MixedOp> {
        (0..n as u64).map(move |i| self.next_op(i))
    }

    /// Produce the next operation (for op index `i`).
    pub fn next_op(&mut self, i: u64) -> MixedOp {
        let r = self.rand();
        let dice = r % 100;
        if dice < 72 || self.live.len() < 8 {
            let id = if dice % 6 == 0 && !self.removed.is_empty() {
                self.removed.pop_front().unwrap()
            } else {
                self.next_id += 1;
                self.next_id
            };
            self.live.push(id);
            MixedOp::Insert(id, Self::value(id, i))
        } else if dice < 86 {
            let id = self.live[(r >> 8) as usize % self.live.len()];
            MixedOp::Update(id, Self::value(id, i))
        } else {
            let idx = if r & 1 == 0 {
                // Clustered remove: smallest live id at or above the cursor,
                // wrapping to the global minimum when the sweep runs off the top.
                let at_or_above = self
                    .live
                    .iter()
                    .enumerate()
                    .filter(|&(_, &id)| id >= self.cluster)
                    .min_by_key(|&(_, &id)| id)
                    .map(|(i, _)| i);
                let i = at_or_above.unwrap_or_else(|| {
                    self.live
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &id)| id)
                        .map(|(i, _)| i)
                        .expect("live is non-empty in the remove branch")
                });
                self.cluster = self.live[i] + 1;
                i
            } else {
                (r >> 8) as usize % self.live.len()
            };
            let id = self.live.swap_remove(idx);
            self.removed.push_back(id);
            MixedOp::Remove(id)
        }
    }
}

/// The acknowledged state of a load: per key, `Some(v)` if the last operation
/// that returned left it at `v`, `None` if it removed it. A key the model does
/// not hold is unconstrained.
#[derive(Debug, Default)]
pub struct Acked(HashMap<u64, Option<u64>>);

/// What a read-back against [`Acked`] found wrong.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Readback {
    /// Acknowledged keys that read back absent.
    pub lost: usize,
    /// Acknowledged keys that read back with another value.
    pub wrong: usize,
    /// Acknowledged removals that read back present.
    pub resurrected: usize,
}

impl Acked {
    /// Fold in an operation that returned. An update counts only on a key the
    /// model holds as present, where the index must have applied it.
    pub fn apply(&mut self, op: MixedOp) {
        match op {
            MixedOp::Insert(k, v) => {
                self.0.insert(k, Some(v));
            }
            MixedOp::Update(k, v) => {
                if let Some(state @ Some(_)) = self.0.get_mut(&k) {
                    *state = Some(v);
                }
            }
            MixedOp::Remove(k) => {
                self.0.insert(k, None);
            }
        }
    }

    /// Forget `key`: a crash cut its operation, so both outcomes are legal.
    pub fn forget(&mut self, key: u64) {
        self.0.remove(&key);
    }

    /// The keys acknowledged present, with their values.
    pub fn present(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.0.iter().filter_map(|(k, v)| v.map(|v| (*k, v)))
    }

    /// Read every acknowledged key back through `get`, emitting one
    /// `sweep.readback` event per key in the wrong state.
    pub fn read_back(&self, mut get: impl FnMut(u64) -> Option<u64>) -> Readback {
        let mut r = Readback::default();
        for (&k, &state) in &self.0 {
            match (state, get(k)) {
                (Some(v), Some(g)) if g == v => {}
                (Some(v), Some(_)) => {
                    obs::event::emit("sweep.readback", "wrong_value", k, v);
                    r.wrong += 1;
                }
                (Some(v), None) => {
                    obs::event::emit("sweep.readback", "lost_key", k, v);
                    r.lost += 1;
                }
                (None, Some(g)) => {
                    obs::event::emit("sweep.readback", "resurrected_key", k, g);
                    r.resurrected += 1;
                }
                (None, None) => {}
            }
        }
        r
    }
}

/// Where a crash cut a load: the operation it interrupted and the site it fired at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    /// The interrupted (unacknowledged) operation.
    pub op: MixedOp,
    /// The crash site that fired.
    pub site: &'static str,
}

/// Run `ops` through `h`, each under [`crash::catch_crash`], folding every
/// operation that returned into `acked`. At the first crash, forget the cut
/// operation's key and return where the load was cut; `None` if it ran to the
/// end. The caller arms the injector; a crash that fires disarms it. The
/// operations' own results are not checked: the read-back is.
pub fn run_load<I: Index + ?Sized>(
    h: &mut Handle<'_, I>,
    ops: impl IntoIterator<Item = MixedOp>,
    acked: &mut Acked,
) -> Option<Cut> {
    for op in ops {
        // A crash unwinds through the handle's epoch guard, exactly like a power
        // failure mid-operation.
        let r = crash::catch_crash(AssertUnwindSafe(|| match op {
            MixedOp::Insert(k, v) => {
                let _ = h.insert(&u64_key(k), v);
            }
            MixedOp::Update(k, v) => {
                let _ = h.update(&u64_key(k), v);
            }
            MixedOp::Remove(k) => {
                let _ = h.remove(&u64_key(k));
            }
        }));
        match r {
            Ok(()) => acked.apply(op),
            Err(site) => {
                acked.forget(op.key());
                return Some(Cut { op, site });
            }
        }
    }
    None
}

/// How one crash state arms the injector.
enum Arm {
    Nth(u64),
    AtSite(&'static str, u64),
}

#[derive(Debug, Default)]
struct StateResult {
    crashed_at: Option<&'static str>,
    readback: Readback,
    failed_post: usize,
}

/// Run one crash state: mixed load with a crash armed, recovery, post-recovery
/// mixed phase, then a full read-back against the acknowledged model.
fn run_state<I>(index: &I, cfg: &SweepConfig, arm: &Arm) -> StateResult
where
    I: Index,
{
    match arm {
        Arm::Nth(n) => crash::arm_nth(*n),
        Arm::AtSite(site, hit) => crash::arm_at_site(site, *hit),
    }
    let mut acked = Acked::default();
    let mut h = index.handle();
    let cut = run_load(&mut h, MixedGen::new(cfg.seed).ops(cfg.load_ops), &mut acked);

    // "Restart": recovery replays helpers / re-initialises locks. Count-only
    // arming keeps recording site coverage (recovery and post-recovery phases are
    // where crash-only helper sites execute) without ever crashing again.
    crash::arm_count_only();
    index.recover();

    // Post-recovery phase: fresh inserts, idempotent updates of acknowledged keys
    // (traversing the crashed region, which triggers observation-driven helpers)
    // and reads, from several threads.
    let present: Vec<(u64, u64)> = acked.present().collect();
    let failed_ops = AtomicU64::new(0);
    let per_thread = cfg.post_ops / cfg.threads.max(1);
    let domain = &pm::Domain::current();
    std::thread::scope(|scope| {
        for t in 0..cfg.threads.max(1) as u64 {
            let index = &index;
            let present = &present;
            let failed_ops = &failed_ops;
            scope.spawn(move || {
                let _d = domain.enter();
                // One session handle per post-recovery worker thread.
                let mut h = index.handle();
                for j in 0..per_thread as u64 {
                    match j % 3 {
                        0 => {
                            let id = 1_000_000 + t * per_thread as u64 + j;
                            let _ = h.insert(&u64_key(id), MixedGen::value(id, j));
                            if h.get(&u64_key(id)) != Some(MixedGen::value(id, j)) {
                                obs::event::emit(
                                    "sweep.post_fail",
                                    "insert_get",
                                    id,
                                    MixedGen::value(id, j),
                                );
                                failed_ops.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        1 if !present.is_empty() => {
                            let (k, v) =
                                present[(t as usize * 7919 + j as usize * 13) % present.len()];
                            // Idempotent rewrite: exercises the write path over the
                            // crash-torn region without changing the model.
                            let _ = h.update(&u64_key(k), v);
                        }
                        _ if !present.is_empty() => {
                            let (k, v) = present[(j as usize * 31 + 7) % present.len()];
                            if h.get(&u64_key(k)) != Some(v) {
                                obs::event::emit("sweep.post_fail", "read", k, v);
                                failed_ops.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        _ => {}
                    }
                }
            });
        }
    });

    // Read-back: every acknowledged key must be in its acknowledged state.
    let readback = acked.read_back(|k| h.get(&u64_key(k)));
    crash::disarm();
    StateResult {
        crashed_at: cut.map(|c| c.site),
        readback,
        failed_post: failed_ops.load(Ordering::Relaxed) as usize,
    }
}

/// Run the exhaustive per-site sweep for one index, in a fresh [`pm::Domain`].
///
/// `declared` is the index crate's `CRASH_SITES` list. Each declared site gets one
/// targeted crash state (armed at a seed-chosen hit of that site), followed by
/// `cfg.sampled_states` uniformly sampled states; the coverage columns are
/// computed over everything the whole sweep executed.
pub fn run_crash_sweep<I, F>(
    factory: F,
    declared: &'static [&'static str],
    cfg: &SweepConfig,
) -> SweepReport
where
    I: Index,
    F: Fn() -> I,
{
    let _domain = pm::Domain::new().enter();
    crash::install_quiet_hook();
    crash::start_named_counts();
    // Trace SMO/crash/epoch/sweep events for the whole sweep so a failing
    // state can be explained from its timeline.
    let _events = obs::event::hold();
    let started = Instant::now();

    // Calibration: run the mixed load crash-free, counting per-site hits (used to
    // pick which hit of each site to crash at) and the total hit count (used to
    // spread the sampled states).
    crash::arm_count_only();
    {
        let index = factory();
        let load = MixedGen::new(cfg.seed).ops(cfg.load_ops);
        run_load(&mut index.handle(), load, &mut Acked::default());
    }
    let total_sites = crash::sites_hit().max(1);
    let load_hits: HashMap<&'static str, u64> =
        declared.iter().map(|s| (*s, crash::named_count(s))).collect();
    crash::disarm();

    let mut report = SweepReport::default();

    // One targeted crash state per declared site.
    let mut fired: Vec<bool> = Vec::with_capacity(declared.len());
    for (si, site) in declared.iter().enumerate() {
        let hits = load_hits[site];
        let hit =
            1 + mix64(cfg.seed ^ (si as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % hits.max(1);
        let r = record_state(&mut report, format!("site {site} hit {hit}"), || {
            run_state(&factory(), cfg, &Arm::AtSite(site, hit))
        });
        fired.push(r == Some(site));
    }

    // The uniformly sampled mixed states on top.
    for s in 0..cfg.sampled_states as u64 {
        let crash_at = mix64(cfg.seed ^ s.wrapping_mul(0xD6E8_FEB8_6659_FD93)) % total_sites + 1;
        record_state(&mut report, format!("sampled state {s} (crash at hit {crash_at})"), || {
            run_state(&factory(), cfg, &Arm::Nth(crash_at))
        });
    }

    report.per_site = declared
        .iter()
        .zip(fired)
        .map(|(site, crash_fired)| SiteOutcome {
            site,
            hits_in_load: load_hits[site],
            crash_fired,
            exercised: crash::named_count(site) > 0,
        })
        .collect();
    // Two-directional coverage: the sweep only ran this index, so any counted
    // name missing from its declaration is an undeclared atomic step.
    report.undeclared_sites = crash::named_counts()
        .into_iter()
        .filter(|(name, _)| !declared.contains(name))
        .map(|(name, _)| name)
        .collect();
    report.undeclared_sites.sort_unstable();
    report.avg_state_ms =
        started.elapsed().as_secs_f64() * 1000.0 / report.states_tested.max(1) as f64;
    report
}

/// Run one crash state and fold its counts into the report; a failing state
/// also reads its window of the event ring into a [`FailureDump`]. Returns the
/// site the state crashed at.
fn record_state(
    report: &mut SweepReport,
    state: String,
    run: impl FnOnce() -> StateResult,
) -> Option<&'static str> {
    let start = obs::event::next_seq();
    let r = run();
    let Readback { lost, wrong, resurrected } = r.readback;
    report.states_tested += 1;
    report.crashes_triggered += usize::from(r.crashed_at.is_some());
    report.lost_keys += lost;
    report.wrong_values += wrong;
    report.resurrected_keys += resurrected;
    report.failed_post_ops += r.failed_post;
    if lost + wrong + resurrected + r.failed_post > 0 {
        report.failure_dumps.push(FailureDump {
            state,
            summary: format!(
                "lost={lost} wrong={wrong} resurrected={resurrected} failed-post-ops={} (crashed at {:?})",
                r.failed_post, r.crashed_at
            ),
            dump: obs::event::since(start),
        });
    }
    r.crashed_at
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_gen_is_deterministic_and_mixed() {
        let mut a = MixedGen::new(42);
        let mut b = MixedGen::new(42);
        let (mut ins, mut upd, mut rem, mut reins) = (0, 0, 0, 0);
        let mut seen = std::collections::HashSet::new();
        for i in 0..5_000u64 {
            let op = a.next_op(i);
            assert_eq!(op, b.next_op(i), "same seed, same stream");
            match op {
                MixedOp::Insert(k, _) => {
                    if !seen.insert(k) {
                        reins += 1;
                    }
                    ins += 1;
                }
                MixedOp::Update(..) => upd += 1,
                MixedOp::Remove(..) => rem += 1,
            }
        }
        assert!(ins > 3_000, "inserts dominate ({ins})");
        assert!(upd > 300, "updates present ({upd})");
        assert!(rem > 300, "removes present ({rem})");
        assert!(reins > 50, "re-inserts of removed keys present ({reins})");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = MixedGen::new(1);
        let mut b = MixedGen::new(2);
        let differs = (0..100u64).any(|i| a.next_op(i) != b.next_op(i));
        assert!(differs);
    }
}
