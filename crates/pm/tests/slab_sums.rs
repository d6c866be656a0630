//! The process-wide counter readers are exact sums over per-thread slabs.
//!
//! One test, so it owns its process: no other thread counts anything while
//! it compares totals, and it may install a latency model.

use pm::latency::{self, Model};
use pm::stats::{self, Mapping, Stats};
use pm::{alloc, flush};
use std::sync::mpsc;

/// One unit of known work: 1 clwb, 3 fences (two issued, one closing a
/// coalesced region that elided one), 3 node visits, 6 probes, one 24-byte
/// allocation.
fn event() {
    let x = 0u8;
    flush::clwb(&x);
    flush::sfence();
    flush::sfence();
    stats::record_node_visits(3);
    stats::record_probes(Mapping::ArtN48, 5);
    stats::record_probes(Mapping::ApexNode, 1);
    // SAFETY: freshly allocated, never shared.
    unsafe { alloc::pm_drop(alloc::pm_box([0u8; 24])) };
    let _region = flush::coalesce_fences();
    flush::sfence();
}

fn work(thread: u64) {
    for _ in 0..=thread {
        event();
    }
}

type Readings = (Stats, stats::ProbeStats, latency::ChargedNs, u64, u64, u64);

fn read_all() -> Readings {
    (
        stats::snapshot(),
        stats::probes(),
        latency::charged(),
        alloc::allocated_objects(),
        alloc::allocated_bytes(),
        flush::elided_fences(),
    )
}

/// Assert that `after - before` is exactly `events` units of [`event`].
fn assert_delta(before: &Readings, after: &Readings, events: u64) {
    let d = after.0.since(&before.0);
    assert_eq!(d, Stats { clwb: events, fence: 3 * events, node_visits: 3 * events });
    let p = after.1.since(&before.1);
    assert_eq!(p.get(Mapping::ArtN48), 5 * events);
    assert_eq!(p.get(Mapping::ApexNode), events);
    assert_eq!(p.total(), 6 * events);
    let c = after.2.since(&before.2);
    assert_eq!((c.clwb_ns, c.fence_ns, c.read_ns), (13 * events, 7 * 3 * events, 11 * 3 * events));
    assert_eq!(after.3 - before.3, events);
    assert_eq!(after.4 - before.4, 24 * events);
    assert_eq!(after.5 - before.5, events);
}

#[test]
fn global_readers_sum_live_and_exited_threads_exactly() {
    Model { clwb_ns: 13, fence_ns: 7, read_ns: 11, eadr: false }.install();
    let local_before = (stats::snapshot_local(), stats::probes_local(), latency::charged_local());
    let before = read_all();
    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        // Threads 0 and 1 have exited and been joined by the first read;
        // thread 2 is alive (parked) during it.
        for h in [s.spawn(|| work(0)), s.spawn(|| work(1))] {
            h.join().unwrap();
        }
        s.spawn(move || {
            work(2);
            parked_tx.send(()).unwrap();
            let _ = release_rx.recv();
        });
        parked_rx.recv().unwrap();
        assert_delta(&before, &read_all(), 1 + 2 + 3);
        drop(release_tx);
        // Threads 3 and 4 are joined only by the end of the scope.
        s.spawn(|| work(3));
        s.spawn(|| work(4));
    });
    assert_delta(&before, &read_all(), 1 + 2 + 3 + 4 + 5);
    Model::ZERO.install();
    assert_eq!(
        (stats::snapshot_local(), stats::probes_local(), latency::charged_local()),
        local_before,
        "the calling thread recorded nothing itself"
    );
}
