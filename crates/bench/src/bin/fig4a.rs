//! Figure 4a: multi-threaded YCSB throughput, ordered indexes, 8-byte integer keys.
fn main() {
    bench::knobs();
    bench::Model::CALIBRATED.install();
    let workloads = ycsb::Workload::ALL;
    let cells =
        bench::run_matrix(&bench::registry::ordered_indexes(), &workloads, ycsb::KeyType::RandInt);
    bench::print_throughput_table(
        "Fig 4a — ordered indexes, integer keys (YCSB)",
        &cells,
        &workloads,
    );
    bench::csv::report(bench::csv::write_cells("fig4a", &cells), "fig4a");
    bench::metrics::export_report("fig4a_metrics");
}
