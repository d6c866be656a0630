//! Table 4: clwb / fence per insert and LLC-miss proxy per operation, hash indexes.
fn main() {
    bench::install_latency_from_env();
    let workloads =
        [ycsb::Workload::LoadA, ycsb::Workload::A, ycsb::Workload::B, ycsb::Workload::C];
    let cells =
        bench::run_matrix(&bench::registry::hash_indexes(), &workloads, ycsb::KeyType::RandInt);
    bench::print_counter_table(
        "Table 4 — counters, hash indexes, integer keys",
        &cells,
        &workloads,
    );
    bench::csv::report(bench::csv::write_cells("table4", &cells), "table4");
    bench::metrics::export_report("table4_metrics");
}
