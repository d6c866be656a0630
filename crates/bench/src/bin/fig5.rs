//! Figure 5: multi-threaded YCSB throughput, unordered (hash) indexes, integer keys.
//! Workload E is excluded because hash tables do not support range scans.
fn main() {
    bench::install_latency_from_env();
    let workloads =
        [ycsb::Workload::LoadA, ycsb::Workload::A, ycsb::Workload::B, ycsb::Workload::C];
    let cells =
        bench::run_matrix(&bench::registry::hash_indexes(), &workloads, ycsb::KeyType::RandInt);
    bench::print_throughput_table("Fig 5 — hash indexes, integer keys (YCSB)", &cells, &workloads);
    bench::csv::report(bench::csv::write_cells("fig5", &cells), "fig5");
    bench::metrics::export_report("fig5_metrics");
}
