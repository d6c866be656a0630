//! The shard queue notifies its condvar only when someone waits on it and
//! must run: the worker parked for jobs while no caller is combining, or a
//! caller inside `drain`; a ticket notifies only a waiter that gave up
//! spinning. A wrong condition shows up as a lost wake-up — a hang — so the
//! scenario runs under a watchdog that fails the test instead of stalling the
//! suite.

use recipe::key::u64_key;
use service::{Op, ReplyBody, Service, ServiceConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Run `f` on its own thread; panic if it has not finished within `limit`.
fn within<R: Send + 'static>(limit: Duration, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(r) => {
            worker.join().expect("scenario thread panicked after reporting");
            r
        }
        // Disconnected: the scenario panicked; surface its message.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("sender dropped without a result"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("no progress in {limit:?}: lost wake-up"),
    }
}

fn start(shards: usize) -> Service {
    Service::start(ServiceConfig { shards, ..ServiceConfig::default() }, |_| {
        Arc::new(bwtree::DramBwTree::new())
    })
}

/// Rounds of "cast a handful, drain" keep crossing the edges the conditions
/// guard (worker parks between rounds; the drainer sleeps until the shard goes
/// idle, whoever's turn ends last), while eight closed-loop callers — more
/// than the host has CPUs, so tickets do time out of their spin and park, and
/// combiners do get descheduled mid-turn — claim or enqueue onto the same two
/// queues, and a live split of shard 0 adds its barriers, forwards and
/// bounces half-way through.
#[test]
fn cast_drain_rounds_and_concurrent_calls_never_lose_a_wakeup() {
    const ROUNDS: u64 = 10_000;
    const CALLERS: u64 = 8;
    within(Duration::from_secs(300), || {
        let svc = start(2);
        let stop = AtomicBool::new(false);
        let submitted = std::thread::scope(|s| {
            let callers: Vec<_> = (0..CALLERS)
                .map(|c| {
                    let (svc, stop) = (&svc, &stop);
                    s.spawn(move || {
                        let mut calls = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            let key = u64_key((1 << 40) + c * (1 << 20) + calls % 512);
                            let reply = svc.call(Op::Insert(key.to_vec(), calls));
                            assert!(matches!(reply.body, ReplyBody::Done(_)), "{reply:?}");
                            calls += 1;
                        }
                        calls
                    })
                })
                .collect();
            for round in 0..ROUNDS {
                if round == ROUNDS / 2 {
                    let report = svc.split(0).expect("a Bw-tree shard scans, so it splits");
                    assert!(report.moved_entries > 0, "the callers' keys were there to move");
                }
                for i in 0..(1 + round % 5) {
                    svc.cast(Op::Insert(u64_key(round * 8 + i).to_vec(), round))
                        .expect("a handful of casts never fills a 1024-deep queue");
                }
                svc.drain();
            }
            stop.store(true, Ordering::Relaxed);
            let calls: u64 = callers.into_iter().map(|h| h.join().unwrap()).sum();
            assert!(calls > 0);
            calls + (0..ROUNDS).map(|r| 1 + r % 5).sum::<u64>()
        });
        let completed: u64 = svc.shutdown().iter().map(|s| s.completed).sum();
        assert_eq!(completed, submitted, "every cast and every call was executed");
    });
}
