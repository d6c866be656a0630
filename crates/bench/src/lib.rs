//! Shared harness for the benchmark binaries that regenerate the RECIPE paper's
//! tables and figures.
//!
//! Every binary in `src/bin/` uses the registries and helpers here so that adding an
//! index to the evaluation is a one-line change. Workload sizes default to a
//! laptop-friendly scale and are overridden with environment variables:
//!
//! | Variable            | Meaning                                   | Default   |
//! |---------------------|-------------------------------------------|-----------|
//! | `RECIPE_LOAD_N`     | keys inserted in the load phase           | 2,000,000 |
//! | `RECIPE_OPS_N`      | operations in each run phase              | 2,000,000 |
//! | `RECIPE_THREADS`    | worker threads                            | 16        |
//! | `RECIPE_SCAN_MAX`   | max range-scan length (workload E)        | 100       |
//! | `RECIPE_CLWB_NS`    | simulated ns per (deduplicated) line flush | calibrated (see `pm::latency`) |
//! | `RECIPE_FENCE_NS`   | simulated ns per fence                    | calibrated |
//! | `RECIPE_READ_NS`    | simulated ns per node visit (Optane read) | calibrated |
//! | `RECIPE_EADR`       | eADR mode: flushes free, fences kept      | 0         |
//! | `RECIPE_CRASH_STATES` | sampled crash states per index (crash_table) | 1000 |
//! | `RECIPE_CRASH_LOAD_N` | mixed ops per crash-state load (crash_table) | 10000 |
//! | `RECIPE_CRASH_POST_N` | post-recovery ops per crash state (crash_table) | 4000 |
//! | `RECIPE_CHUNK_OPS`  | per-thread op-buffer chunk (sharded driver) | 8192    |
//! | `RECIPE_OUT_DIR`    | directory for the machine-readable CSVs   | target/figures |
//! | `RECIPE_SHAPE_REPS` | best-of-N passes in the gating matrices   | 3 (calibrate: 1) |
//! | `RECIPE_CAL_CLWB` / `_FENCE` / `_READ` | comma-separated ns grids for `calibrate` | see `calibrate` |
//! | `RECIPE_PERF_BASELINE` | perf-gate baseline path | crates/bench/baselines/throughput.json |
//! | `RECIPE_PERF_TOLERANCE` | perf-gate per-entry regression tolerance | 0.25 |
//! | `RECIPE_PERF_WRITE` | `1` = regenerate the perf baseline        | unset     |
//! | `RECIPE_OBS_EVENTS` | `1` = enable the obs structured event ring | off      |
//! | `RECIPE_OBS_RING`   | per-thread event-ring capacity (records)  | 4096      |

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use recipe::session::Index;
use std::sync::Arc;
use ycsb::{KeyType, PhaseResult, Spec, Workload};

pub mod baseline;
pub mod csv;
pub mod metrics;
pub mod shape;

pub use harness::registry;
pub use pm::latency::Model;

/// A named index constructor used by the benchmark binaries.
///
/// Thin projection of [`registry::IndexEntry`]: the figure binaries only need the
/// PM instantiation and its display name.
pub struct IndexEntry {
    /// Display name (matches the paper's naming).
    pub name: &'static str,
    /// Constructor for a fresh instance.
    pub build: fn() -> Arc<dyn Index>,
}

impl From<registry::IndexEntry> for IndexEntry {
    fn from(e: registry::IndexEntry) -> Self {
        IndexEntry { name: e.name, build: e.build_pmem }
    }
}

/// The ordered PM indexes of Fig. 4: FAST & FAIR (baseline) and the RECIPE-converted
/// ordered indexes (P-ART, P-HOT, P-BwTree + its delta-chain ablation, P-Masstree),
/// from the workspace registry.
#[must_use]
pub fn ordered_indexes() -> Vec<IndexEntry> {
    registry::ordered_indexes().into_iter().map(IndexEntry::from).collect()
}

/// The unordered PM indexes of Fig. 5 / Table 4, from the workspace registry.
#[must_use]
pub fn hash_indexes() -> Vec<IndexEntry> {
    registry::hash_indexes().into_iter().map(IndexEntry::from).collect()
}

/// Every PM index in the workspace registry, including the global-lock WOART
/// baseline (used by the micro-benchmarks).
#[must_use]
pub fn all_indexes() -> Vec<IndexEntry> {
    registry::all_indexes().into_iter().map(IndexEntry::from).collect()
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

/// Default workload sizes for a matrix run; the `RECIPE_LOAD_N` / `RECIPE_OPS_N` /
/// `RECIPE_THREADS` environment variables override whichever scale is in effect.
#[derive(Debug, Clone, Copy)]
pub struct MatrixScale {
    /// Default keys in the load phase.
    pub load_n: usize,
    /// Default operations in each run phase.
    pub ops_n: usize,
    /// Default worker threads.
    pub threads: usize,
}

/// The figure binaries' full scale (the paper-shaped runs).
pub const FULL_SCALE: MatrixScale =
    MatrixScale { load_n: 2_000_000, ops_n: 2_000_000, threads: 16 };

/// The reduced scale used by `perf_gate` (whose checked-in baseline records it):
/// big enough that the hash tables' deterministic resize points land in the load
/// phase, not mid-run, small enough to gate CI.
pub const REDUCED_SCALE: MatrixScale = MatrixScale { load_n: 60_000, ops_n: 60_000, threads: 4 };

/// The scale `shape_check` and `calibrate` compare orderings at: the
/// [`REDUCED_SCALE`] index, run four times as long. Four threads finish a read-only
/// cell of 60 000 operations in 8–17 ms, too short to order two such cells: on a
/// 2-vCPU host P-CLHT against Level-Hashing on B changed sign in 3 of 6 single
/// passes. At 240 000 operations the cells last 35–70 ms and that ordering held,
/// by +17% or more, in 40 runs out of 40.
pub const SHAPE_SCALE: MatrixScale = MatrixScale { load_n: 60_000, ops_n: 240_000, threads: 4 };

/// Install the simulated PM latency model from the environment (calibrated defaults,
/// `RECIPE_*_NS` / `RECIPE_EADR` overrides) and return it. Every benchmark binary
/// calls this once at startup; `calibrate` instead installs each grid point
/// explicitly.
pub fn install_latency_from_env() -> Model {
    Model::install_from_env()
}

/// Build the workload spec shared by the figure binaries at [`FULL_SCALE`],
/// honouring the `RECIPE_*` environment overrides.
#[must_use]
pub fn spec_from_env(workload: Workload, key_type: KeyType) -> Spec {
    spec_from_env_scaled(workload, key_type, FULL_SCALE)
}

/// [`spec_from_env`] with explicit default sizes (environment still wins).
#[must_use]
pub fn spec_from_env_scaled(workload: Workload, key_type: KeyType, scale: MatrixScale) -> Spec {
    Spec {
        load_count: env_usize("RECIPE_LOAD_N", scale.load_n),
        op_count: env_usize("RECIPE_OPS_N", scale.ops_n),
        threads: env_usize("RECIPE_THREADS", scale.threads),
        key_type,
        workload,
        scan_max: env_usize("RECIPE_SCAN_MAX", 100),
        seed: 0x5EED,
    }
}

/// Number of *sampled* crash states per index for the §7.5 reproduction (the
/// per-site exhaustive states are always run on top).
#[must_use]
pub fn crash_states_from_env() -> usize {
    env_usize("RECIPE_CRASH_STATES", 1_000)
}

/// Mixed operations in each crash state's load phase (`RECIPE_CRASH_LOAD_N`).
#[must_use]
pub fn crash_load_from_env() -> usize {
    env_usize("RECIPE_CRASH_LOAD_N", 10_000)
}

/// Mixed operations in each crash state's post-recovery phase
/// (`RECIPE_CRASH_POST_N`).
#[must_use]
pub fn crash_post_from_env() -> usize {
    env_usize("RECIPE_CRASH_POST_N", 4_000)
}

/// Per-thread op-buffer chunk for the sharded YCSB driver (`RECIPE_CHUNK_OPS`).
#[must_use]
pub fn chunk_from_env() -> usize {
    env_usize("RECIPE_CHUNK_OPS", ycsb::DEFAULT_CHUNK_OPS).max(1)
}

/// One measured cell of a figure: index × workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Index name.
    pub index: &'static str,
    /// Workload label.
    pub workload: &'static str,
    /// Measured result of the phase that the figure reports.
    pub result: PhaseResult,
}

/// Run every (index × workload) combination for the given key type, reporting the run
/// phase for A/B/C/E and the load phase for Load A — exactly what Fig. 4/5 plot.
///
/// Uses the sharded chunked driver, so the op-buffer footprint stays at
/// `threads × RECIPE_CHUNK_OPS` operations regardless of `RECIPE_OPS_N`. Runs under
/// whatever [`Model`] is currently installed (binaries install it from the
/// environment at startup; `calibrate` sweeps it) and echoes that model once so
/// every log ties its numbers to the cost constants that produced them.
#[must_use]
pub fn run_matrix(indexes: &[IndexEntry], workloads: &[Workload], key_type: KeyType) -> Vec<Cell> {
    run_matrix_scaled(indexes, workloads, key_type, FULL_SCALE)
}

/// [`run_matrix`] with explicit default sizes (used at [`SHAPE_SCALE`] by the
/// calibration and shape-check binaries and at [`REDUCED_SCALE`] by the perf gate).
#[must_use]
pub fn run_matrix_scaled(
    indexes: &[IndexEntry],
    workloads: &[Workload],
    key_type: KeyType,
    scale: MatrixScale,
) -> Vec<Cell> {
    metrics::install();
    let chunk = chunk_from_env();
    let m = Model::current();
    eprintln!(
        "# latency model: clwb {} ns (dedup per fence epoch), fence {} ns, read {} ns, eadr {}",
        m.clwb_ns, m.fence_ns, m.read_ns, m.eadr
    );
    let mut cells = Vec::new();
    for entry in indexes {
        for &wl in workloads {
            let spec = spec_from_env_scaled(wl, key_type, scale);
            let index = (entry.build)();
            eprintln!(
                "# running {:<14} workload {:<6} (load {} / ops {} / {} threads, chunk {})",
                entry.name,
                wl.label(),
                spec.load_count,
                spec.op_count,
                spec.threads,
                chunk
            );
            let res = ycsb::run_spec_sharded(index.as_ref(), &spec, chunk);
            let reported = if wl == Workload::LoadA { res.load.clone() } else { res.run.clone() };
            eprintln!(
                "#   {:<14} {:<6} -> {:>7.3} Mops/s, p50 {:>7.2} µs, p99 {:>7.2} µs, \
                 p999 {:>7.2} µs, sim {:>7.1} ns/op",
                entry.name,
                wl.label(),
                reported.mops,
                reported.p50_ns as f64 / 1_000.0,
                reported.p99_ns as f64 / 1_000.0,
                reported.p999_ns as f64 / 1_000.0,
                reported.sim_ns_per_op
            );
            let cell = Cell { index: entry.name, workload: wl.label(), result: reported };
            metrics::record_cell(&cell);
            metrics::record_epoch(entry.name, index.as_ref());
            cells.push(cell);
        }
    }
    cells
}

/// [`run_matrix_scaled`] repeated `reps` times, keeping each cell's best
/// throughput. The workload stream is deterministic per spec, so structural
/// effects repeat identically and run-to-run variance is downward scheduler
/// interference — the per-cell max is the noise-filtered estimate the gating
/// binaries (`shape_check`, `perf_gate`) compare on.
#[must_use]
pub fn run_matrix_best_of(
    indexes: &[IndexEntry],
    workloads: &[Workload],
    key_type: KeyType,
    scale: MatrixScale,
    reps: usize,
) -> Vec<Cell> {
    let mut best: Vec<Cell> = Vec::new();
    for rep in 0..reps.max(1) {
        if reps > 1 {
            eprintln!("# matrix pass {}/{}", rep + 1, reps.max(1));
        }
        for c in run_matrix_scaled(indexes, workloads, key_type, scale) {
            match best.iter_mut().find(|b| b.index == c.index && b.workload == c.workload) {
                None => best.push(c),
                Some(b) => {
                    if c.result.mops > b.result.mops {
                        *b = c;
                    }
                }
            }
        }
    }
    best
}

/// Deterministic delete-heavy reclamation run for the perf gate: a
/// single-threaded insert/remove churn against a fresh P-BwTree, long enough
/// for thousands of delta-chain retirements. Single-threaded means the
/// retire/collect interleaving — and so the peak of the epoch reclaimer's
/// retired-bytes gauge — is exactly reproducible across runs *and hosts* (it
/// counts bytes, not time), which is what makes it gateable as an absolute
/// number in the checked-in baseline.
#[must_use]
pub fn measure_bwtree_reclamation() -> Vec<baseline::Gauge> {
    use recipe::session::IndexExt;
    let tree = bwtree::PBwTree::new();
    let mut h = tree.handle();
    for round in 0..60u64 {
        for i in 0..500u64 {
            h.insert(&recipe::key::u64_key(i), round).expect("bwtree upsert");
        }
        for i in 0..500u64 {
            h.remove(&recipe::key::u64_key(i)).expect("key was just inserted");
        }
    }
    drop(h);
    let peak_kb = tree.peak_retired_bytes() as f64 / 1024.0;
    let total_kb = (tree.reclaimed_bytes() + tree.retired_bytes()) as f64 / 1024.0;
    eprintln!(
        "# bwtree reclamation churn: peak retired {peak_kb:.1} KiB of {total_kb:.1} KiB retired \
         in total"
    );
    assert!(
        tree.reclaimed_bytes() > 0,
        "reclamation churn freed nothing — epoch collection is broken"
    );
    vec![baseline::Gauge { name: "bwtree.reclaim.peak_retired_kb".into(), value: peak_kb }]
}

/// Repetition count for the gating binaries (`RECIPE_SHAPE_REPS`, default 3).
#[must_use]
pub fn shape_reps_from_env() -> usize {
    std::env::var("RECIPE_SHAPE_REPS").ok().and_then(|v| v.trim().parse().ok()).unwrap_or(3)
}

/// Print a figure as a throughput table: rows = indexes, columns = workloads.
pub fn print_throughput_table(title: &str, cells: &[Cell], workloads: &[Workload]) {
    println!("\n== {title} ==");
    print!("{:<16}", "index");
    for wl in workloads {
        print!("{:>10}", wl.label());
    }
    println!("    (Mops/s, higher is better)");
    let mut indexes: Vec<&str> = cells.iter().map(|c| c.index).collect();
    indexes.dedup();
    for idx in indexes {
        print!("{idx:<16}");
        for wl in workloads {
            let cell = cells.iter().find(|c| c.index == idx && c.workload == wl.label());
            match cell {
                Some(c) => print!("{:>10.3}", c.result.mops),
                None => print!("{:>10}", "-"),
            }
        }
        println!();
    }
}

/// Print a counter table (Fig. 4c/4d, Table 4): clwb & fence per insert-dominated
/// workload plus node visits (the LLC-miss proxy) per workload.
pub fn print_counter_table(title: &str, cells: &[Cell], workloads: &[Workload]) {
    println!("\n== {title} ==");
    println!(
        "{:<16}{:>10}{:>10} | node visits per op (LLC-miss proxy)",
        "index", "clwb/ins", "fence/ins"
    );
    print!("{:<36} |", "");
    for wl in workloads {
        print!("{:>9}", wl.label());
    }
    println!();
    let mut indexes: Vec<&str> = cells.iter().map(|c| c.index).collect();
    indexes.dedup();
    for idx in indexes {
        // The per-insert instruction counts come from the pure-insert Load A phase.
        let load = cells.iter().find(|c| c.index == idx && c.workload == "Load A");
        match load {
            Some(c) => {
                print!("{:<16}{:>10.1}{:>10.1} |", idx, c.result.clwb_per_op, c.result.fence_per_op)
            }
            None => print!("{idx:<16}{:>10}{:>10} |", "-", "-"),
        }
        for wl in workloads {
            let cell = cells.iter().find(|c| c.index == idx && c.workload == wl.label());
            match cell {
                Some(c) => print!("{:>9.1}", c.result.node_visits_per_op),
                None => print!("{:>9}", "-"),
            }
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    /// The gauge the perf gate checks absolutely must be deterministic: same
    /// churn, same retire/collect schedule, same peak — byte-for-byte.
    #[test]
    fn bwtree_reclamation_measurement_is_deterministic() {
        let a = super::measure_bwtree_reclamation();
        let b = super::measure_bwtree_reclamation();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].name, "bwtree.reclaim.peak_retired_kb");
        assert!(a[0].value > 0.0);
        assert_eq!(a[0].value, b[0].value, "reclamation peak must be reproducible");
        eprintln!("gauge value: {:.4}", a[0].value);
    }
}
