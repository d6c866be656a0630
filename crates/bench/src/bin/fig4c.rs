//! Figure 4c: performance counters per operation, ordered indexes, integer keys.
fn main() {
    bench::install_latency_from_env();
    let workloads = ycsb::Workload::ALL;
    let cells =
        bench::run_matrix(&bench::registry::ordered_indexes(), &workloads, ycsb::KeyType::RandInt);
    bench::print_counter_table(
        "Fig 4c — counters, ordered indexes, integer keys",
        &cells,
        &workloads,
    );
    bench::csv::report(bench::csv::write_cells("fig4c", &cells), "fig4c");
    bench::metrics::export_report("fig4c_metrics");
}
