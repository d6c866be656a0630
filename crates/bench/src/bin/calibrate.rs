//! Grid-search the simulated PM latency constants against the paper's qualitative
//! orderings (see `bench::shape`), emit `calibration.csv`, and print the best-fit
//! constants to bake into `pm::latency` as the calibrated defaults.
//!
//! The grid is taken from the `RECIPE_CAL_CLWB` / `RECIPE_CAL_FENCE` /
//! `RECIPE_CAL_READ` knobs (comma-separated nanosecond lists); the matrix scale from
//! the usual `RECIPE_LOAD_N` / `RECIPE_OPS_N` / `RECIPE_THREADS` knobs on top of
//! [`bench::SHAPE_SCALE`]. Each point runs the matrix once: the sheer point count
//! averages the noise. Scoring: most constraints satisfied first, then the largest
//! minimum margin (the most robust point for CI); the all-zero point is measured
//! as a baseline but never selected (a zero model is no PM model at all).

use bench::{shape, Model};

fn main() {
    let knobs = bench::knobs();
    let (clwb_grid, fence_grid, read_grid) = (&knobs.cal_clwb, &knobs.cal_fence, &knobs.cal_read);
    let constraints = shape::constraints();
    let points = clwb_grid.len() * fence_grid.len() * read_grid.len();
    eprintln!("# calibrating over {points} grid points ({} constraints each)", constraints.len());

    let mut rows: Vec<String> = Vec::new();
    // (model, satisfied, min_margin) of the best non-zero point so far.
    let mut best: Option<(Model, usize, f64)> = None;
    let mut done = 0usize;
    for &clwb_ns in clwb_grid {
        for &fence_ns in fence_grid {
            for &read_ns in read_grid {
                let model = Model { clwb_ns, fence_ns, read_ns, eadr: false };
                done += 1;
                eprintln!(
                    "# point {done}/{points}: clwb {clwb_ns} ns, fence {fence_ns} ns, read {read_ns} ns"
                );
                model.install();
                let cells = shape::run_shape_matrix(bench::SHAPE_SCALE, 1);
                let evals = shape::evaluate(&cells, &constraints);
                rows.extend(shape::csv_rows(&model, &evals));
                let satisfied = evals.iter().filter(|e| e.ok).count();
                let margin = shape::min_margin(&evals);
                for e in &evals {
                    println!("  {}", e.describe());
                }
                println!(
                    "point clwb={clwb_ns} fence={fence_ns} read={read_ns}: {satisfied}/{} orderings, min margin {:+.1}%",
                    constraints.len(),
                    margin * 100.0
                );
                if model.is_zero() {
                    continue; // baseline measurement only, never the answer
                }
                let better = match best {
                    None => true,
                    Some((_, s, m)) => satisfied > s || (satisfied == s && margin > m),
                };
                if better {
                    best = Some((model, satisfied, margin));
                }
            }
        }
    }
    Model::ZERO.install();

    bench::csv::report(
        bench::csv::write_rows("calibration", shape::SHAPE_CSV_HEADER, &rows),
        "calibration",
    );

    match best {
        None => {
            eprintln!("calibrate: grid contained no non-zero point; nothing to recommend");
            std::process::exit(1);
        }
        Some((m, satisfied, margin)) => {
            println!(
                "\nbest fit: clwb {} ns, fence {} ns, read {} ns \
                 ({satisfied}/{} orderings, min margin {:+.1}%)",
                m.clwb_ns,
                m.fence_ns,
                m.read_ns,
                constraints.len(),
                margin * 100.0
            );
            let d = Model::CALIBRATED;
            if (m.clwb_ns, m.fence_ns, m.read_ns) == (d.clwb_ns, d.fence_ns, d.read_ns) {
                println!("matches the baked-in defaults in pm::latency — nothing to update");
            } else {
                println!(
                    "differs from the baked-in defaults (clwb {} / fence {} / read {}): \
                     update DEFAULT_*_NS in crates/pm/src/latency.rs and rerun shape_check",
                    d.clwb_ns, d.fence_ns, d.read_ns
                );
            }
            if satisfied < constraints.len() {
                eprintln!(
                    "calibrate: warning: no grid point satisfied every ordering; widen the grid"
                );
            }
        }
    }
}
