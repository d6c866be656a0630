//! CI gate for the sharded session-store service: a reduced 2-shard soak
//! over persistent Bw-trees plus a live split-drain migration, which must
//! demonstrate, in one run,
//!
//! 1. **shed accounting that adds up** — an open-loop flood against a small
//!    bounded queue sheds with typed reasons, and
//!    `offered == enqueued + shed(queue_full) + shed(deadline)` holds
//!    exactly (`enqueued` counts execution-accepted jobs), with every
//!    accepted op either committed or capacity-shed;
//! 2. **batching** — the flood produces real group-commit batches (mean
//!    batch > 1) and charges fewer fences than ops;
//! 3. **the per-shard metrics export** — `service_metrics.json` parses,
//!    carries the `recipe-obs-metrics/v1` schema stamp, and contains every
//!    `service.shard{i}.*` counter/gauge plus an exact latency histogram
//!    whose count equals the executed ops;
//! 4. **zero event-ring drops** — with the ring drained between chunks (cap
//!    4096 per thread), nothing is overwritten;
//! 5. **a live split observed through the streaming exporter** — shard 0
//!    splits while a closed-loop driver keeps hammering the keyspace being
//!    moved, an [`obs::SnapshotStream`] captures the registry every 25
//!    milliseconds, and the gate requires ≥ 3 schema-valid snapshots with
//!    monotone service-wide completed counts, every moved entry landed via
//!    the destination worker, and still zero ring drops under the migration's
//!    own event traffic.
//!
//! Exits non-zero on the first violation so the workflow step fails loudly.

use recipe::key::u64_key;
use service::{run_open_loop, LoadgenConfig, Op, Service, ServiceConfig};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Snapshot interval of the streaming exporter during the live split.
const STREAM_MS: u64 = 25;

fn fail(msg: &str) -> ! {
    eprintln!("service_smoke: FAIL — {msg}");
    std::process::exit(1);
}

fn main() {
    bench::knobs();
    bench::Model::CALIBRATED.install();
    pm::obs_bridge::install_obs();
    obs::event::set_enabled(true);
    let _ = obs::event::drain();

    let shards = 2usize;
    let svc = Service::start(
        ServiceConfig { shards, queue_cap: 256, max_batch: 32, ..ServiceConfig::default() },
        |_| Arc::new(bwtree::PBwTree::new()),
    );

    // Chunked open-loop flood: chunks keep per-thread event volume under the
    // ring capacity so "zero drops" is a real assertion, not luck.
    let chunks = 10u64;
    let chunk_ops = 6_000u64;
    let mut offered = 0u64;
    let mut dropped = 0u64;
    let mut last = None;
    for chunk in 0..chunks {
        let report = run_open_loop(
            &svc,
            &LoadgenConfig {
                keys: 5_000,
                ops: chunk_ops,
                read_pct: 30,
                remove_pct: 20,
                churn: 2_000,
                seed: 0x5A0C ^ chunk,
                ..LoadgenConfig::default()
            },
        );
        offered += chunk_ops;
        dropped += obs::event::drain().dropped;
        last = Some(report);
    }
    let report = last.expect("at least one chunk ran");
    let stats = svc.shutdown();
    dropped += obs::event::drain().dropped;

    // 1. Shed accounting adds up exactly. `enqueued` counts
    //    execution-accepted jobs, so queue-full and deadline sheds sit on
    //    the offered side of the ledger and capacity sheds on the accepted
    //    side — nothing double-counted, nothing lost.
    let enqueued: u64 = stats.iter().map(|s| s.enqueued).sum();
    let completed: u64 = stats.iter().map(|s| s.completed).sum();
    let shed_q: u64 = stats.iter().map(|s| s.shed_queue_full).sum();
    let shed_ddl: u64 = stats.iter().map(|s| s.shed_deadline).sum();
    let shed_cap: u64 = stats.iter().map(|s| s.shed_index_capacity).sum();
    if enqueued + shed_q + shed_ddl != offered {
        fail(&format!(
            "accounting leak: enqueued {enqueued} + shed(queue) {shed_q} \
             + shed(deadline) {shed_ddl} != offered {offered}"
        ));
    }
    if completed + shed_cap != enqueued {
        fail(&format!(
            "lost ops: completed {completed} + capacity-shed {shed_cap} != enqueued {enqueued}"
        ));
    }
    if shed_cap != 0 {
        fail("P-BwTree has no capacity limit; capacity sheds are impossible here");
    }
    if shed_ddl != 0 {
        fail("the flood sets no deadline; deadline sheds are impossible here");
    }
    eprintln!(
        "# offered {offered} completed {completed} shed(queue_full) {shed_q} \
         ({:.1}% shed under flood)",
        100.0 * shed_q as f64 / offered as f64
    );

    // 2. The flood batches.
    let batches: u64 = stats.iter().map(|s| s.batches).sum();
    if batches == 0 || completed as f64 / batches as f64 <= 1.0 {
        fail(&format!("open-loop flood must batch: {completed} ops in {batches} batches"));
    }
    eprintln!(
        "# {batches} group commits, mean batch {:.1}, charged {:.0} ns/op",
        completed as f64 / batches as f64,
        report.charged_ns_per_op()
    );

    // 3. Per-shard metrics export.
    let path = match bench::metrics::export("service_metrics") {
        Ok(p) => p,
        Err(e) => fail(&format!("could not write service_metrics.json: {e}")),
    };
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("could not read back {}: {e}", path.display())));
    let doc = obs::json::parse(&raw)
        .unwrap_or_else(|e| fail(&format!("service_metrics.json is not valid JSON: {e}")));
    if doc.get("schema").and_then(|v| v.as_str()) != Some(obs::SCHEMA) {
        fail(&format!("schema stamp missing or not {:?}", obs::SCHEMA));
    }
    let Some(metrics) = doc.get("metrics").and_then(|v| v.as_array()) else {
        fail("top-level \"metrics\" array missing");
    };
    let names: BTreeSet<&str> =
        metrics.iter().filter_map(|m| m.get("name").and_then(|v| v.as_str())).collect();
    for i in 0..shards {
        for suffix in [
            "enqueued",
            "completed",
            "batches",
            "caller_batches",
            "shed.queue_full",
            "shed.index_capacity",
            "shed.deadline",
            "queue_depth",
            "latency_ns",
        ] {
            let name = format!("service.shard{i}.{suffix}");
            if !names.contains(name.as_str()) {
                fail(&format!("required metric {name} missing from service_metrics.json"));
            }
        }
    }
    // The latency histograms are exact: one record per executed op.
    let mut hist_total = 0u64;
    for i in 0..shards {
        let h = obs::histogram(&format!("service.shard{i}.latency_ns")).snapshot();
        if h.quantile(0.5) > h.quantile(0.999) {
            fail(&format!("shard {i}: quantiles out of order"));
        }
        hist_total += h.count();
    }
    if hist_total != completed {
        fail(&format!("latency histograms hold {hist_total} samples != {completed} executed ops"));
    }
    eprintln!("# wrote per-shard metrics to {}", path.display());

    // 4. Event-ring integrity through the flood.
    if dropped != 0 {
        fail(&format!("{dropped} events dropped by ring overflow during the soak"));
    }
    eprintln!("# event ring clean (0 drops) through the flood");

    // 5. Live split-drain under load, observed through the streaming
    //    exporter.
    let svc = Service::start(
        ServiceConfig { shards, queue_cap: 8_192, max_batch: 32, ..ServiceConfig::default() },
        |_| Arc::new(bwtree::PBwTree::new()),
    );
    let seed_keys = 4_000u64;
    for i in 0..seed_keys {
        if svc.call(Op::Insert(u64_key(i).to_vec(), i)).is_shed() {
            fail("seeding the split service must not shed");
        }
    }
    let stream = obs::SnapshotStream::start(obs::StreamConfig::every_millis(STREAM_MS));
    let stop = AtomicBool::new(false);
    let (split, live_dropped) = std::thread::scope(|scope| {
        let loader = scope.spawn(|| {
            // Closed-loop mixed load over the seeded keyspace, draining the
            // event ring between chunks so "zero drops" stays a real
            // assertion while the migration emits its own events.
            let mut dropped = 0u64;
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..2_000 {
                    let key = u64_key(pm::mix64(i) % seed_keys).to_vec();
                    let _ = match pm::mix64(i ^ 0x57AB) % 10 {
                        0..=4 => svc.call(Op::Get(key)),
                        5 => svc.call(Op::Remove(key)),
                        _ => svc.call(Op::Insert(key, i)),
                    };
                    i += 1;
                }
                dropped += obs::event::drain().dropped;
            }
            dropped
        });
        std::thread::sleep(Duration::from_millis(10));
        let split =
            svc.split(0).unwrap_or_else(|e| fail(&format!("live split under load failed: {e}")));
        // Keep load and stream alive long enough for ≥ 3 captures even when
        // the split finishes within one interval.
        std::thread::sleep(Duration::from_millis(STREAM_MS * 4));
        stop.store(true, Ordering::Relaxed);
        (split, loader.join().expect("loader thread"))
    });
    svc.drain();
    let points = stream.stop();
    let split_stats = svc.shutdown();
    let dropped = live_dropped + obs::event::drain().dropped;

    if split.dest != 2 || split.sources != vec![0] {
        fail(&format!("unexpected split shape: dest {} sources {:?}", split.dest, split.sources));
    }
    if split.moved_entries == 0 {
        fail("splitting a loaded shard must move entries");
    }
    if split_stats.len() != 3 {
        fail(&format!("split must grow the service to 3 shards, got {}", split_stats.len()));
    }
    if split_stats[2].migrated_in < split.moved_entries {
        fail(&format!(
            "destination worker saw {} copies for {} moved entries",
            split_stats[2].migrated_in, split.moved_entries
        ));
    }
    if points.len() < 3 {
        fail(&format!("streaming exporter captured {} snapshots; need >= 3", points.len()));
    }
    let mut prev_completed = 0u64;
    for p in &points {
        let json = p.snapshot.to_json();
        let doc = obs::json::parse(&json).unwrap_or_else(|e| {
            fail(&format!("streamed snapshot seq {} is not valid JSON: {e}", p.seq))
        });
        if doc.get("schema").and_then(|v| v.as_str()) != Some(obs::SCHEMA) {
            fail(&format!("streamed snapshot seq {} missing the schema stamp", p.seq));
        }
        let completed: u64 = p
            .snapshot
            .samples
            .iter()
            .filter(|s| s.name.starts_with("service.shard") && s.name.ends_with(".completed"))
            .map(|s| match &s.value {
                obs::Value::Counter(v) => *v,
                _ => 0,
            })
            .sum();
        if completed < prev_completed {
            fail(&format!(
                "completed count went backwards across stream points: {completed} after \
                 {prev_completed} at seq {}",
                p.seq
            ));
        }
        prev_completed = completed;
    }
    if dropped != 0 {
        fail(&format!("{dropped} events dropped by ring overflow during the live split"));
    }
    eprintln!(
        "# live split moved {} entries in {} chunks under load; {} streamed snapshots \
         every {STREAM_MS}ms, all schema-valid, completed counts monotone, 0 ring drops",
        split.moved_entries,
        split.chunks,
        points.len()
    );
    eprintln!("# service_smoke OK");
}
