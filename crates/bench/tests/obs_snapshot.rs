//! Acceptance test for the unified observability export: a single
//! `obs::snapshot()` taken after one matrix run must contain the substrate
//! probe counters, the epoch gauges, the charged-ns accounting and the full
//! (per-operation, unsampled) latency histograms, and its JSON export must
//! carry the self-describing schema.

use ycsb::{KeyType, Workload};

#[test]
fn matrix_snapshot_is_complete_and_schema_valid() {
    bench::Model::CALIBRATED.install();
    let scale = bench::MatrixScale { load_n: 5_000, ops_n: 5_000, threads: 2 };
    let indexes: Vec<_> =
        bench::registry::all_indexes().into_iter().filter(|e| e.name == "P-BwTree").collect();
    assert_eq!(indexes.len(), 1, "registry must contain P-BwTree");
    let cells = bench::run_matrix_scaled(&indexes, &[Workload::A], KeyType::RandInt, scale);
    assert_eq!(cells.len(), 1);
    let ops = cells[0].result.ops;
    assert!(ops > 0);

    let snap = obs::snapshot();

    // Substrate counters arrive through the pm collector.
    for name in pm::obs_bridge::METRICS {
        assert!(snap.get(name).is_some(), "substrate metric {name} missing from snapshot");
    }
    assert!(snap.counter_value("pm.charged.total_ns").unwrap() > 0, "charged-ns accounting");

    // Full latency distributions: exactly one record per executed operation.
    let wall = snap.hist("lat.wall_ns/P-BwTree/A").expect("wall latency histogram");
    assert_eq!(wall.count(), ops, "wall histogram must cover every op, not a sample");
    let charged = snap.hist("lat.charged_ns/P-BwTree/A").expect("charged latency histogram");
    assert_eq!(charged.count(), ops);

    // Epoch reclaimer gauges, captured while the index was alive.
    for g in ["epoch.retired_bytes", "epoch.peak_retired_bytes", "epoch.reclaimed_bytes"] {
        assert!(
            snap.gauge_value(&format!("{g}/P-BwTree")).is_some(),
            "epoch gauge {g}/P-BwTree missing"
        );
    }

    // Handle statistics as per-cell gauges.
    assert!(snap.gauge_value("handle.gets/P-BwTree/A").unwrap() > 0.0);
    assert!(snap.gauge_value("handle.updates/P-BwTree/A").is_some());

    // The export is valid JSON, schema-stamped, and loses no samples.
    let json = snap.to_json();
    let doc = obs::json::parse(&json).expect("export must parse as JSON");
    assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some(obs::SCHEMA));
    let metrics = doc.get("metrics").and_then(|v| v.as_array()).expect("metrics array");
    assert_eq!(metrics.len(), snap.samples.len());
}
