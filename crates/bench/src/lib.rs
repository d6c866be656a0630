//! Shared harness for the benchmark binaries that regenerate the RECIPE paper's
//! tables and figures.
//!
//! Every binary in `src/bin/` uses the registries and helpers here so that adding an
//! index to the evaluation is a one-line change. Workload sizes default to a
//! [`MatrixScale`] per binary; the environment knobs that override them, and the
//! few others, are the one table in [`knobs::TABLE`].

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use registry::IndexEntry;
use ycsb::{KeyType, PhaseResult, Spec, Workload};

pub mod csv;
pub mod knobs;
pub mod metrics;
pub mod shape;

pub use harness::registry;
pub use knobs::knobs;
pub use pm::latency::Model;

/// Default workload sizes for a matrix run; the `RECIPE_LOAD_N` / `RECIPE_OPS_N` /
/// `RECIPE_THREADS` [`knobs()`] override whichever scale is in effect.
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

/// The scale `shape_check` and `calibrate` compare orderings at. 60 000 keys put
/// the hash tables' deterministic resize points in the load phase, not mid-run.
/// Four threads finish a read-only cell of 60 000 operations in 8–17 ms, too short
/// to order two such cells: on a 2-vCPU host P-CLHT against Level-Hashing on B
/// changed sign in 3 of 6 single passes. At 240 000 operations the cells last
/// 35–70 ms and that ordering held, by +17% or more, in 40 runs out of 40.
pub const SHAPE_SCALE: MatrixScale = MatrixScale { load_n: 60_000, ops_n: 240_000, threads: 4 };

/// The workload spec of one matrix cell at `scale`, with the size [`knobs()`]
/// applied.
#[must_use]
pub fn spec_from_env(workload: Workload, key_type: KeyType, scale: MatrixScale) -> Spec {
    let k = knobs();
    Spec {
        load_count: k.load_n.unwrap_or(scale.load_n),
        op_count: k.ops_n.unwrap_or(scale.ops_n),
        threads: k.threads.unwrap_or(scale.threads),
        key_type,
        workload,
        scan_max: 100,
        seed: 0x5EED,
    }
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
/// `threads × ycsb::DEFAULT_CHUNK_OPS` operations regardless of `RECIPE_OPS_N`. Runs under
/// whatever [`Model`] is currently installed (binaries install [`Model::CALIBRATED`]
/// at startup; `calibrate` sweeps it) and echoes that model once so every log ties
/// its numbers to the cost constants that produced them.
#[must_use]
pub fn run_matrix(indexes: &[IndexEntry], workloads: &[Workload], key_type: KeyType) -> Vec<Cell> {
    run_matrix_scaled(indexes, workloads, key_type, FULL_SCALE)
}

/// [`run_matrix`] with explicit default sizes (used at [`SHAPE_SCALE`] by the
/// calibration and shape-check binaries).
#[must_use]
pub fn run_matrix_scaled(
    indexes: &[IndexEntry],
    workloads: &[Workload],
    key_type: KeyType,
    scale: MatrixScale,
) -> Vec<Cell> {
    metrics::install();
    let chunk = ycsb::DEFAULT_CHUNK_OPS;
    let m = Model::current();
    eprintln!(
        "# latency model: clwb {} ns (dedup per fence epoch), fence {} ns, read {} ns, eadr {}",
        m.clwb_ns, m.fence_ns, m.read_ns, m.eadr
    );
    let mut cells = Vec::new();
    for entry in indexes {
        for &wl in workloads {
            let spec = spec_from_env(wl, key_type, scale);
            let index = (entry.build_pmem)();
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
/// binaries (`shape_check`, `calibrate`) compare on.
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
