//! Assert the paper's qualitative Figure 4–5 orderings at the calibrated latency
//! model (CI gate). Runs the reduced shape matrix (`bench::shape`), best of three
//! passes, under the calibrated model, evaluates every ordering constraint, writes
//! `shape_check.csv`, and exits non-zero with a readable diff if any ordering is
//! violated.

use bench::{shape, Model};

fn main() {
    bench::knobs();
    let model = Model::CALIBRATED;
    model.install();
    let cells = shape::run_shape_matrix(bench::SHAPE_SCALE, 3);
    let constraints = shape::constraints();
    let evals = shape::evaluate(&cells, &constraints);

    println!(
        "\n== shape check — paper orderings at clwb {} ns / fence {} ns / read {} ns{} ==",
        model.clwb_ns,
        model.fence_ns,
        model.read_ns,
        if model.eadr { " (eADR)" } else { "" }
    );
    for e in &evals {
        println!("  {}", e.describe());
    }
    let failed: Vec<_> = evals.iter().filter(|e| !e.ok).collect();
    let satisfied = evals.len() - failed.len();
    println!(
        "\n{satisfied}/{} orderings hold (min margin {:+.1}%)",
        evals.len(),
        shape::min_margin(&evals) * 100.0
    );

    bench::csv::report(
        bench::csv::write_rows(
            "shape_check",
            shape::SHAPE_CSV_HEADER,
            &shape::csv_rows(&model, &evals),
        ),
        "shape_check",
    );
    bench::metrics::export_report("shape_check_metrics");

    if !failed.is_empty() {
        eprintln!("\nshape check FAILED — the measured matrix contradicts the paper's shape:");
        for e in &failed {
            eprintln!("  {}", e.describe());
        }
        eprintln!(
            "(recalibrate with `cargo run --release -p bench --bin calibrate`, or raise \
             RECIPE_LOAD_N/RECIPE_OPS_N if the run was too small to be stable)"
        );
        std::process::exit(1);
    }
    println!("shape check PASSED");
}
