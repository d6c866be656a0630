//! Live shard-split migration, end to end over persistent Bw-trees: a soak
//! that splits a shard under concurrent writers plus a Zipfian flood and
//! proves zero acknowledged writes were lost, and a crash sweep that arms
//! every `service.migrate.*` site, resumes, and checks source and
//! destination agree — hole-free against the driver's own site list.
//!
//! Each test runs in a `pm::Domain` of its own, which its services capture at
//! start: a crash armed in one never fires in another test's service.

use recipe::key::u64_key;
use recipe::session::IndexExt;
use service::{Op, ReplyBody, Service, ServiceConfig, MIGRATE_CRASH_SITES};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

type TreeLog = Arc<parking_lot::Mutex<Vec<(usize, Arc<bwtree::PBwTree>)>>>;

/// A 2-shard service over Bw-trees whose factory logs every tree it makes —
/// including the destination tree a later split spawns.
fn start_service(queue_cap: usize) -> (Service, TreeLog) {
    let made: TreeLog = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let log = Arc::clone(&made);
    let svc = Service::start(
        ServiceConfig { shards: 2, queue_cap, max_batch: 32, ..ServiceConfig::default() },
        move |i| {
            let t = Arc::new(bwtree::PBwTree::new());
            log.lock().push((i, Arc::clone(&t)));
            t as Arc<dyn recipe::session::Index>
        },
    );
    (svc, made)
}

/// The agreement check: every expected key reads back with its last
/// acknowledged value, answered by the shard the current ring names; and
/// every key physically present in any shard's tree belongs there (which
/// also proves the source was drained of its moved keys and nothing is
/// duplicated).
fn verify_agreement(svc: &Service, trees: &TreeLog, expect: &BTreeMap<Vec<u8>, u64>) {
    svc.drain();
    for (k, v) in expect {
        let r = svc.call(Op::Get(k.clone()));
        assert_eq!(r, ReplyBody::Value(Some(*v)), "lost acked write for key {k:?}");
        assert_eq!(r.shard, svc.route(k), "key {k:?} answered off-ring");
    }
    let mut seen: HashMap<Vec<u8>, usize> = HashMap::new();
    for (id, t) in trees.lock().iter() {
        for (k, _) in t.handle().scan(&[]).collect_vec() {
            assert_eq!(
                svc.route(&k),
                *id,
                "key {k:?} physically on shard {id} but routed elsewhere (source not drained?)"
            );
            if let Some(prev) = seen.insert(k.clone(), *id) {
                panic!("key {k:?} present on shards {prev} and {id}");
            }
        }
    }
}

#[test]
fn live_split_under_load_loses_no_acked_writes() {
    let _domain = pm::Domain::new().enter();
    let (svc, trees) = start_service(4096);
    const WRITERS: u64 = 3;
    const RANGE: u64 = 1_200;

    // Seed every writer's keyspace so the split has bulk to move. The seed
    // writes are acknowledged too: they are the ledger's baseline for any
    // key a writer never manages to re-ack before the split completes.
    let mut baseline: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for t in 0..WRITERS {
        for j in 0..RANGE {
            let k = u64_key((t + 1) * 1_000_000 + j).to_vec();
            let r = svc.call(Op::Insert(k.clone(), 0));
            assert!(!r.is_shed(), "seeding must not shed");
            baseline.insert(k, 0);
        }
    }

    let stop = AtomicBool::new(false);
    let (report, acked) = std::thread::scope(|scope| {
        // Writers: disjoint key ranges, strictly monotone values, closed
        // loop. Each records what was acknowledged; every acked write must
        // survive the migration. Read-your-writes is asserted *during* the
        // split — a get right after an acked insert crosses the forwarding
        // window if its key is mid-handoff.
        let writers: Vec<_> = (0..WRITERS)
            .map(|t| {
                let stop = &stop;
                let svc = &svc;
                scope.spawn(move || {
                    let mut acked: HashMap<u64, u64> = HashMap::new();
                    let mut value = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        value += 1;
                        for j in 0..RANGE {
                            // Offset past the flood's low keyspace: writer
                            // ranges must be exclusively owned for the acked
                            // ledger to be the truth.
                            let k = (t + 1) * 1_000_000 + j;
                            let r = svc.call(Op::Insert(u64_key(k).to_vec(), value));
                            if !r.is_shed() {
                                acked.insert(k, value);
                                if j % 17 == 0 {
                                    let g = svc.call(Op::Get(u64_key(k).to_vec()));
                                    // The get itself may shed under flood
                                    // pressure; if it executed, it must see
                                    // this thread's acked write.
                                    if !g.is_shed() {
                                        assert_eq!(
                                            g,
                                            ReplyBody::Value(Some(value)),
                                            "read-your-writes broke mid-migration for key {k}"
                                        );
                                    }
                                }
                            }
                        }
                    }
                    acked
                })
            })
            .collect();
        // Zipfian background pressure on a disjoint low keyspace: hot keys
        // hammering both shards while the handoff runs.
        let flood = scope.spawn(|| {
            let zipf = ycsb::zipf::ZipfGen::new(8_000, ycsb::zipf::DEFAULT_THETA, 0x511_717);
            for i in 0..60_000u64 {
                let key = u64_key(zipf.item_at(i)).to_vec();
                let _ = match pm::mix64(i) % 10 {
                    0..=3 => svc.cast(Op::Get(key)),
                    4 => svc.cast(Op::Remove(key)),
                    _ => svc.cast(Op::Insert(key, i)),
                };
            }
        });

        std::thread::sleep(std::time::Duration::from_millis(20));
        let report = svc.split(0).expect("live split");
        stop.store(true, Ordering::Relaxed);
        flood.join().expect("flood thread");
        let mut acked = baseline;
        for w in writers {
            for (k, v) in w.join().expect("writer thread") {
                acked.insert(u64_key(k).to_vec(), v);
            }
        }
        (report, acked)
    });

    assert_eq!(report.dest, 2);
    assert_eq!(report.sources, vec![0]);
    assert!(report.moved_entries > 0, "a split of a loaded shard moves entries");
    assert_eq!(svc.shard_count(), 3);
    assert_eq!(acked.len() as u64, WRITERS * RANGE, "the ledger covers every writer key");

    verify_agreement(&svc, &trees, &acked);

    let stats = svc.shutdown();
    assert!(stats[2].migrated_in >= report.moved_entries, "copies land via the dest worker");
    // The forwarding window did real work: in-flight requests for handed-off
    // keys were forwarded, not lost and not executed stale at the source.
    assert!(stats[0].forwarded > 0, "a split under load must forward in-flight requests");
}

#[test]
fn crash_sweep_over_every_migration_site_recovers_agreement() {
    let _domain = pm::Domain::new().enter();
    pm::crash::install_quiet_hook();
    const KEYS: u64 = 1_500;

    let seed = |svc: &Service| -> BTreeMap<Vec<u8>, u64> {
        let mut expect = BTreeMap::new();
        for i in 0..KEYS {
            let k = u64_key(i).to_vec();
            let v = i ^ 0xC0FFEE;
            svc.cast(Op::Insert(k.clone(), v)).expect("seed cast");
            expect.insert(k, v);
        }
        svc.drain();
        expect
    };

    // Dry run under count-only arming: collect each site's hit count and
    // prove the driver's declared site list is exactly what a split
    // traverses — no undeclared sites, no dead declarations.
    pm::crash::arm_count_only();
    pm::crash::start_named_counts();
    let (svc, trees) = start_service(4096);
    let expect = seed(&svc);
    svc.split(0).expect("dry-run split");
    let hits: BTreeMap<&'static str, u64> = pm::crash::named_counts()
        .into_iter()
        .filter(|(name, _)| name.starts_with("service.migrate."))
        .collect();
    pm::crash::stop_named_counts();
    pm::crash::disarm();
    verify_agreement(&svc, &trees, &expect);
    svc.shutdown();
    for site in MIGRATE_CRASH_SITES {
        assert!(hits.get(site).is_some_and(|&n| n > 0), "declared site {site} never hit");
    }
    for site in hits.keys() {
        assert!(MIGRATE_CRASH_SITES.contains(site), "undeclared migration site {site}");
    }

    // The sweep: first, middle, and last hit of every site. Crash there,
    // resume, and require source/destination agreement on every key.
    for site in MIGRATE_CRASH_SITES {
        let n = hits[site];
        let mut hit_at = vec![1, n.div_ceil(2), n];
        hit_at.dedup();
        for hit in hit_at {
            let (svc, trees) = start_service(4096);
            let expect = seed(&svc);
            pm::crash::arm_at_site(site, hit);
            let res = pm::crash::catch_crash(std::panic::AssertUnwindSafe(|| svc.split(0)));
            pm::crash::disarm();
            match res {
                Err(at) => {
                    assert_eq!(at, *site);
                    let report = svc.resume_split().expect("crashed split is resumable");
                    assert_eq!(report.dest, 2, "site {site} hit {hit}");
                }
                Ok(done) => {
                    // The load-independent part of the schedule drifted and
                    // the armed hit never arrived: the split just completed.
                    done.expect("unarmed split completes");
                    assert!(svc.resume_split().is_none(), "nothing pending after success");
                }
            }
            assert!(svc.resume_split().is_none(), "resume is terminal");
            verify_agreement(&svc, &trees, &expect);
            svc.shutdown();
        }
    }
}

/// Two services in two domains at once: a crash armed in the first domain cuts
/// that service's split, and the second service, serving a closed loop all the
/// while, neither crashes nor loses a reply.
#[test]
fn a_crash_in_one_services_domain_leaves_another_serving() {
    pm::crash::install_quiet_hook();
    const SITE: &str = "service.migrate.freeze";
    assert!(MIGRATE_CRASH_SITES.contains(&SITE));
    let started = std::sync::Barrier::new(2);
    let crashed = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| {
            let _domain = pm::Domain::new().enter();
            let (svc, _) = start_service(4096);
            started.wait();
            let mut round = 0u64;
            while !crashed.load(Ordering::Acquire) || round < 3 {
                round += 1;
                for i in 0..500u64 {
                    let k = u64_key(i).to_vec();
                    let put = svc.call(Op::Insert(k.clone(), round));
                    assert!(matches!(put.body, ReplyBody::Done(_)), "insert {i}: {put:?}");
                    assert_eq!(svc.call(Op::Get(k)), ReplyBody::Value(Some(round)), "get {i}");
                }
            }
            assert!(!pm::crash::has_crashed(), "the other domain's crash fired here");
            svc.shutdown();
        });

        let _domain = pm::Domain::new().enter();
        let (svc, trees) = start_service(4096);
        let mut expect = BTreeMap::new();
        for i in 0..1_500u64 {
            let k = u64_key(i).to_vec();
            svc.cast(Op::Insert(k.clone(), i)).expect("seed cast");
            expect.insert(k, i);
        }
        svc.drain();
        started.wait();
        pm::crash::arm_at_site(SITE, 1);
        let res = pm::crash::catch_crash(std::panic::AssertUnwindSafe(|| svc.split(0)));
        pm::crash::disarm();
        crashed.store(true, Ordering::Release);
        assert_eq!(res.err(), Some(SITE), "the split must crash at the armed site");
        assert_eq!(svc.resume_split().expect("resumable").dest, 2);
        verify_agreement(&svc, &trees, &expect);
        svc.shutdown();
        serving.join().expect("the serving domain's service");
    });
}
