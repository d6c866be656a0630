//! What every workload shares: the fixed conditions, the run's environment,
//! the outcome a run reports, and the time-boxed round loop.

use harness::registry::{all_indexes, IndexEntry};
use std::time::{Duration, Instant};

/// The paper's five conversions, by registry name.
pub const CORE5: &[&str] = &["P-ART", "P-HOT", "P-BwTree", "P-Masstree", "P-CLHT"];
/// [`CORE5`] minus the hash table: the indexes that can scan.
pub const ORD4: &[&str] = &["P-ART", "P-HOT", "P-BwTree", "P-Masstree"];
/// The service workloads' shard index.
pub const CLHT: &[&str] = &["P-CLHT"];

/// Metric-name prefix of each registry entry, in registry order.
pub const INDEX_IDS: [(&str, &str); 11] = [
    ("P-ART", "art"),
    ("P-HOT", "hot"),
    ("P-BwTree", "bwtree"),
    ("P-Masstree", "masstree"),
    ("P-CLHT", "clht"),
    ("P-BwTree(dc16)", "bwtree_dc16"),
    ("FAST&FAIR", "fastfair"),
    ("P-APEX", "apex"),
    ("WOART(global-lock)", "woart"),
    ("CCEH", "cceh"),
    ("Level-Hashing", "levelhash"),
];

/// Longest scan of the YCSB E mix (`Spec::scan_max`).
pub const SCAN_MAX: usize = 100;

/// Op-buffer chunk of the sharded YCSB driver (its own default).
pub const CHUNK: usize = ycsb::DEFAULT_CHUNK_OPS;

/// A run never takes fewer rounds than this, whatever `--seconds` says: a
/// median over fewer repetitions is not an estimate.
pub const MIN_ROUNDS: usize = 3;

/// Both vCPUs of the host run at about half speed for the first two seconds of
/// a process (P-ART loaded 0.30 Mops/s in its first repetition and 0.67 in
/// every later one); spinning them first removes that from the first round.
const HOST_WARMUP: Duration = Duration::from_millis(1500);

/// The registry entries named in `set`, in `set` order.
pub fn entries(set: &[&str]) -> Vec<IndexEntry> {
    let mut all = all_indexes();
    set.iter()
        .map(|name| {
            let i = all
                .iter()
                .position(|e| e.name == *name)
                .unwrap_or_else(|| panic!("{name} is not in harness::registry"));
            all.swap_remove(i)
        })
        .collect()
}

/// What the run was given and what the host offers.
#[derive(Debug, Clone, Copy)]
pub struct Env {
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    /// Load threads: `min(2, nproc)`.
    pub threads: usize,
}

impl Env {
    pub fn new(seed: u64, seconds: f64) -> Env {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        Env { seed, seconds, nproc, threads: nproc.min(2) }
    }
}

/// Install the conditions every number is measured under. Explicit calls, not
/// `from_env`, so a stray `RECIPE_*` variable cannot change the cost model.
pub fn fix_conditions(env: &Env) {
    pm::latency::Model::CALIBRATED.install();
    obs::event::set_enabled(false);
    pm::tracker::disable();
    pm::crash::disarm();
    std::thread::scope(|s| {
        for _ in 0..env.nproc {
            s.spawn(|| {
                let t = Instant::now();
                let mut x = 1u64;
                while t.elapsed() < HOST_WARMUP {
                    x = pm::mix64(x);
                }
                std::hint::black_box(x);
            });
        }
    });
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// End-to-end metrics, name and unit, in the order every untraced run reports
/// them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_ns", "ns"),
    ("op_p99_ns", "ns"),
    ("charged_ns_per_op", "ns"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: the contract's four keys plus lines for a reader.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable detail printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Report the end-to-end metrics: the five measured values in
    /// [`END_TO_END`] order, `ok_frac` from the checks counted so far, and the
    /// peak resident set once the first round had finished.
    pub fn end_to_end(&mut self, measured: [f64; 5], first_round_rss_mib: f64) {
        let ok_frac = 1.0 - self.failed as f64 / self.attempted as f64;
        let values = measured.into_iter().chain([ok_frac, first_round_rss_mib]);
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            self.push(name, value, unit);
        }
    }

    /// Count `n` checked operations of which `bad` were wrong.
    pub fn check(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }
}

/// Run `round(i)` until `seconds` are used up: at least [`MIN_ROUNDS`] times,
/// then for as long as the longest round so far still fits in the budget.
/// Returns the number of rounds run.
pub fn rounds(seconds: f64, mut round: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut longest = 0.0f64;
    let mut n = 0;
    loop {
        let t = Instant::now();
        round(n);
        n += 1;
        longest = longest.max(t.elapsed().as_secs_f64());
        if n >= MIN_ROUNDS && start.elapsed().as_secs_f64() + longest > seconds {
            return n;
        }
    }
}
