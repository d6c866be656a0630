//! CI gate for the unified observability export: run a reduced matrix, write
//! `metrics.json`, and validate the artifact end to end — the JSON must
//! parse, carry the `recipe-obs-metrics/v1` schema stamp, and contain every
//! required metric family (substrate counters, per-cell latency histograms,
//! handle statistics, epoch gauges), with each cell's wall-clock histogram
//! covering exactly the operations the phase executed and every PM byte the
//! dropped indexes allocated counted as freed. Exits non-zero on the
//! first violation so the workflow step fails loudly.
use std::collections::BTreeSet;
use ycsb::{KeyType, Workload};

fn fail(msg: &str) -> ! {
    eprintln!("obs_smoke: FAIL — {msg}");
    std::process::exit(1);
}

fn main() {
    bench::knobs();
    bench::Model::CALIBRATED.install();
    // Small enough to gate CI, big enough for every instrument to fire; one
    // plain index plus one with an epoch reclaimer.
    let scale = bench::MatrixScale { load_n: 20_000, ops_n: 20_000, threads: 4 };
    let indexes: Vec<_> = bench::registry::all_indexes()
        .into_iter()
        .filter(|e| e.name == "FAST&FAIR" || e.name == "P-BwTree")
        .collect();
    if indexes.len() != 2 {
        fail("registry no longer contains the FAST&FAIR / P-BwTree smoke pair");
    }
    let workloads = [Workload::A, Workload::C];
    let cells = bench::run_matrix_scaled(&indexes, &workloads, KeyType::RandInt, scale);

    let path = match bench::metrics::export("metrics") {
        Ok(p) => p,
        Err(e) => fail(&format!("could not write metrics.json: {e}")),
    };
    let raw = match std::fs::read_to_string(&path) {
        Ok(r) => r,
        Err(e) => fail(&format!("could not read back {}: {e}", path.display())),
    };
    let doc = match obs::json::parse(&raw) {
        Ok(d) => d,
        Err(e) => fail(&format!("metrics.json is not valid JSON: {e}")),
    };
    if doc.get("schema").and_then(|v| v.as_str()) != Some(obs::SCHEMA) {
        fail(&format!("schema stamp missing or not {:?}", obs::SCHEMA));
    }
    let Some(metrics) = doc.get("metrics").and_then(|v| v.as_array()) else {
        fail("top-level \"metrics\" array missing");
    };
    let names: BTreeSet<&str> =
        metrics.iter().filter_map(|m| m.get("name").and_then(|v| v.as_str())).collect();

    let mut required: Vec<String> =
        pm::obs_bridge::METRICS.iter().map(|s| (*s).to_string()).collect();
    for c in &cells {
        required.push(format!("lat.wall_ns/{}/{}", c.index, c.workload));
        required.push(format!("lat.charged_ns/{}/{}", c.index, c.workload));
        required.push(format!("handle.gets/{}/{}", c.index, c.workload));
        required.push(format!("handle.inserts/{}/{}", c.index, c.workload));
    }
    for g in ["epoch.retired_bytes", "epoch.peak_retired_bytes", "epoch.reclaimed_bytes"] {
        required.push(format!("{g}/P-BwTree"));
    }
    let missing: Vec<&String> = required.iter().filter(|r| !names.contains(r.as_str())).collect();
    if !missing.is_empty() {
        fail(&format!("required metrics missing from metrics.json: {missing:?}"));
    }

    // Both smoke indexes have dropped, and an index frees every PM byte it owns on
    // drop, so the pool's allocated and freed totals must meet.
    let counter = |name: &str| {
        metrics
            .iter()
            .find(|m| m.get("name").and_then(|v| v.as_str()) == Some(name))
            .and_then(|m| m.get("value"))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| fail(&format!("{name} has no numeric value")))
    };
    let (alloc, freed) = (counter("pm.alloc_bytes"), counter("pm.freed_bytes"));
    if alloc == 0.0 || freed != alloc {
        fail(&format!("pm.alloc_bytes {alloc} vs pm.freed_bytes {freed}: the indexes leaked"));
    }

    // The histograms must be the *full* distributions: one record per
    // executed operation, not a sample.
    for c in &cells {
        let name = format!("lat.wall_ns/{}/{}", c.index, c.workload);
        let m = metrics
            .iter()
            .find(|m| m.get("name").and_then(|v| v.as_str()) == Some(name.as_str()))
            .expect("presence checked above");
        let count = m.get("count").and_then(|v| v.as_f64()).unwrap_or(-1.0);
        if count != c.result.ops as f64 {
            fail(&format!(
                "{name}: histogram count {count} != {} executed ops (sampling regression?)",
                c.result.ops
            ));
        }
    }

    println!(
        "obs_smoke: PASS ({} metrics exported, {} required names verified, {})",
        metrics.len(),
        required.len(),
        path.display()
    );
}
