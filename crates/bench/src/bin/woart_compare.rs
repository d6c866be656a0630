//! §7.3: P-ART vs the global-lock WOART baseline on multi-threaded YCSB.

fn main() {
    bench::knobs();
    bench::Model::CALIBRATED.install();
    let indexes: Vec<_> = bench::registry::all_indexes()
        .into_iter()
        .filter(|e| e.name == "P-ART" || e.name == "WOART(global-lock)")
        .collect();
    assert_eq!(indexes.len(), 2, "registry is missing P-ART or WOART");
    let workloads =
        [ycsb::Workload::LoadA, ycsb::Workload::A, ycsb::Workload::B, ycsb::Workload::C];
    let cells = bench::run_matrix(&indexes, &workloads, ycsb::KeyType::RandInt);
    bench::print_throughput_table(
        "§7.3 — P-ART vs global-lock WOART, integer keys",
        &cells,
        &workloads,
    );
    // Report the speedup the paper states as 2–20×.
    for wl in &workloads {
        let part = cells.iter().find(|c| c.index == "P-ART" && c.workload == wl.label()).unwrap();
        let woart = cells
            .iter()
            .find(|c| c.index == "WOART(global-lock)" && c.workload == wl.label())
            .unwrap();
        println!(
            "speedup on {:<7}: {:.1}x",
            wl.label(),
            part.result.mops / woart.result.mops.max(1e-9)
        );
    }
    bench::csv::report(bench::csv::write_cells("woart_compare", &cells), "woart_compare");
    bench::metrics::export_report("woart_compare_metrics");
}
