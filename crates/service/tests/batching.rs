//! The tentpole's cost claim, measured: at the same offered load over the
//! same persistent index, batched group commit charges fewer simulated-PM
//! nanoseconds per operation than one-commit-per-request, because each batch
//! pays one closing fence and dedups repeated cache-line flushes across its
//! whole fence epoch.

use service::{run_open_loop, LoadgenConfig, Service, ServiceConfig};
use std::sync::Arc;

fn run(max_batch: usize, seed: u64) -> service::LoadReport {
    let svc = Service::start(
        ServiceConfig { shards: 2, queue_cap: 16_384, max_batch, ..ServiceConfig::default() },
        |_| Arc::new(bwtree::PBwTree::new()),
    );
    let cfg = LoadgenConfig {
        keys: 2_000,
        ops: 16_000,
        read_pct: 30,
        remove_pct: 10,
        seed,
        ..LoadgenConfig::default()
    };
    let report = run_open_loop(&svc, &cfg);
    svc.shutdown();
    report
}

#[test]
fn batching_lowers_charged_ns_per_op() {
    // Price PM events in this test's own domain, which its services capture;
    // other tests run under the zero model of theirs and charge nothing.
    let _domain = pm::Domain::new().enter();
    pm::latency::Model::CALIBRATED.install();
    let unbatched = run(1, 0xA11);
    let batched = run(64, 0xA11);

    assert_eq!(unbatched.completed, 16_000, "queue cap must admit the whole run");
    assert_eq!(batched.completed, 16_000);
    assert!(batched.mean_batch() > 2.0, "open-loop flood must batch, got {}", batched.mean_batch());
    assert!(
        batched.charged_ns_per_op() < unbatched.charged_ns_per_op(),
        "batched {} ns/op must beat unbatched {} ns/op",
        batched.charged_ns_per_op(),
        unbatched.charged_ns_per_op()
    );
    // Both runs elide each request's internal fences; the saving comes from
    // the number of *closing* fences, one per batch.
    assert!(batched.elided_fences > 0 && unbatched.elided_fences > 0);
    assert_eq!(unbatched.batches, 16_000, "max_batch=1 pays one closing fence per op");
    assert!(
        batched.batches * 4 < unbatched.batches,
        "batching must cut closing fences by >4x, got {} vs {}",
        batched.batches,
        unbatched.batches
    );
    // Latency is run-local now (histograms are diffed against start-of-run
    // marks), so each report carries exactly its own run's samples.
    let n: u64 = batched.latency.iter().map(|l| l.count).sum();
    assert_eq!(n, 16_000, "run-local latency carries exactly this run's samples");
    for l in &batched.latency {
        assert!(l.p50 <= l.p90 && l.p90 <= l.p99 && l.p99 <= l.p999);
        assert!(l.p999 > 0);
    }
}
