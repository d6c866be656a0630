//! Figure 4b: multi-threaded YCSB throughput, ordered indexes, 24-byte string keys.
fn main() {
    bench::knobs();
    bench::Model::CALIBRATED.install();
    let workloads = ycsb::Workload::ALL;
    let cells =
        bench::run_matrix(&bench::registry::ordered_indexes(), &workloads, ycsb::KeyType::String24);
    bench::print_throughput_table(
        "Fig 4b — ordered indexes, string keys (YCSB)",
        &cells,
        &workloads,
    );
    bench::csv::report(bench::csv::write_cells("fig4b", &cells), "fig4b");
    bench::metrics::export_report("fig4b_metrics");
}
