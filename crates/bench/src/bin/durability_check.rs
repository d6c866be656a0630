//! Standalone §5 durability check for every PM index (larger scale than the test suite).
fn main() {
    println!("== §5 durability check (load 20k, 5k tracked inserts per index) ==");
    let checks: Vec<(&str, crashtest::DurabilityReport)> = bench::registry::all_indexes()
        .into_iter()
        .filter(|e| !e.single_writer)
        .map(|e| (e.name, crashtest::run_durability_test(e.build_pmem, 20_000, 5_000)))
        .collect();
    for (name, r) in checks {
        println!(
            "{name:<14} construction-unflushed={} per-op-unflushed={} per-op-unfenced={} {}",
            r.construction_unflushed,
            r.ops_with_unflushed_lines,
            r.ops_with_unfenced_lines,
            if r.passed() { "PASS" } else { "FAIL" }
        );
    }
}
