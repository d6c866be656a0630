//! Figure 4d: performance counters per operation, ordered indexes, string keys.
fn main() {
    bench::install_latency_from_env();
    let workloads = ycsb::Workload::ALL;
    let cells =
        bench::run_matrix(&bench::registry::ordered_indexes(), &workloads, ycsb::KeyType::String24);
    bench::print_counter_table(
        "Fig 4d — counters, ordered indexes, string keys",
        &cells,
        &workloads,
    );
    bench::csv::report(bench::csv::write_cells("fig4d", &cells), "fig4d");
    bench::metrics::export_report("fig4d_metrics");
}
