//! Delete-heavy soak of the sharded service over persistent Bw-trees, with
//! the event ring recording the structural timeline.
//!
//! This is the bugfix archetype's hunting ground: a skewed, churning,
//! remove-heavy closed-loop workload drives leaves empty, which triggers the
//! merge SMO inline under concurrent traffic from multiple driver threads —
//! precisely the interleavings where the husk-retirement and
//! leftmost-promotion bugs lived (their deterministic regressions now sit in
//! `bwtree` and `crash_and_durability`). The soak asserts the service-level
//! invariants: typed sheds only, every admitted op committed, zero event-ring
//! drops under periodic draining, and — post-soak — every shard tree settles
//! with no incomplete SMOs and its emptied pages actually merged away
//! (gauge-verified).

use service::{run_closed_loop, LoadgenConfig, Service, ServiceConfig};
use std::sync::Arc;

#[test]
fn delete_heavy_soak_merges_pages_and_drops_no_events() {
    let was = obs::event::set_enabled(true);
    obs::event::drain(); // start from an empty ring

    let shards = 2;
    let trees: Vec<Arc<bwtree::PBwTree>> =
        (0..shards).map(|_| Arc::new(bwtree::PBwTree::new())).collect();
    let shard_trees = trees.clone();
    let svc = Service::start(
        ServiceConfig { shards, queue_cap: 4096, max_batch: 32, ..ServiceConfig::default() },
        move |i| shard_trees[i].clone() as Arc<dyn recipe::session::Index>,
    );

    // Seed the keyspace, then soak delete-heavy in chunks, draining the event
    // ring between chunks so a full run fits without overwriting (ring cap
    // 4096 per thread).
    let keys = 4_000u64;
    for i in 0..keys {
        let r = svc.call(service::Op::Insert(recipe::key::u64_key(i).to_vec(), i));
        assert!(!r.is_shed(), "seeding must not shed: {r:?}");
    }
    let mut dropped = 0u64;
    let mut smo_events = 0u64;
    let mut total = service::ShardStats::default();
    for chunk in 0..8u64 {
        let report = run_closed_loop(
            &svc,
            &LoadgenConfig {
                keys,
                ops: 6_000,
                read_pct: 20,
                remove_pct: 55, // delete-heavy: removes dominate mutations
                churn: 1_500,   // hot set rotates mid-chunk
                threads: 3,
                seed: 0xDE1E7E ^ chunk,
                ..LoadgenConfig::default()
            },
        );
        assert_eq!(report.shed_queue_full, 0, "closed loop within cap must not shed");
        assert_eq!(report.shed_index_capacity, 0, "bwtree has no capacity limit");
        let dump = obs::event::drain();
        dropped += dump.dropped;
        smo_events += dump.events.iter().filter(|e| e.kind == "bwtree.smo").count() as u64;
    }
    // Final sweep: delete the whole keyspace through the service. This is
    // what actually empties leaves wholesale (the Zipfian phase scatters its
    // removes), so the inline merge trigger fires under live service traffic.
    for i in 0..keys {
        let r = svc.call(service::Op::Remove(recipe::key::u64_key(i).to_vec()));
        assert!(!r.is_shed(), "sweep must not shed: {r:?}");
    }
    for s in svc.shutdown() {
        total.merge(&s);
    }
    let dump = obs::event::drain(); // exited worker threads' rings included
    dropped += dump.dropped;
    smo_events += dump.events.iter().filter(|e| e.kind == "bwtree.smo").count() as u64;
    obs::event::set_enabled(was);

    assert_eq!(dropped, 0, "periodically drained ring must not overwrite");
    assert!(smo_events > 0, "a delete-heavy soak must exercise SMOs");
    assert_eq!(total.enqueued, total.completed, "every admitted op committed");
    assert!(total.batches < total.completed, "concurrent drivers must produce real batches");

    // Post-soak structural invariants per shard: recovery finds nothing torn,
    // settling merges the soak's emptied pages, and the tree still scans in
    // order with its contents intact.
    for t in &trees {
        use recipe::session::{Index, IndexExt};
        t.recover();
        assert_eq!(t.incomplete_smos(), 0, "soak left a torn SMO");
        t.merge_empty_pages();
        let after = t.empty_leaf_pages();
        // Merges are leaf-only and leftmost-routed leaves are not eligible,
        // so a fully drained tree keeps one empty leaf per leaf-level parent
        // — a handful — while the soak's hundreds of emptied leaves merge.
        assert!(after < 32, "emptied pages must merge away, {after} left");
        assert!(t.merged_pages() > after, "most emptied pages must actually merge");
        let scanned = t.handle().scan(&[]).collect_vec();
        assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0), "scan disorder after soak");
        assert_eq!(scanned.len() as u64, t.len() as u64, "scan and len disagree");
    }
}
