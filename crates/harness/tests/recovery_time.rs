//! Recovery is linear in the index: every registry row loads 100k keys and must
//! finish `recover()` under a 5 s watchdog, then still read back every key.
//!
//! Each index re-initialises its locks through one walk that reaches every object
//! once, so recovering 100k keys takes milliseconds on every row. A walk that
//! reaches a node along every path to it (a B-link tree's child reached again from
//! each left sibling) grows far faster than the index and misses the bound. The
//! bound is set against release timings; the debug build stays well inside it too.

use harness::registry::{all_indexes, PolicyMode};
use recipe::key::u64_key;
use recipe::session::IndexExt;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Keys loaded before each row recovers.
const KEYS: u64 = 100_000;
/// Longest a row's `recover()` may take.
const BOUND: Duration = Duration::from_secs(5);

#[test]
fn every_row_recovers_100k_keys_within_the_bound() {
    let key = |i: u64| u64_key(pm::mix64(i));
    let mut slow = Vec::new();
    for entry in all_indexes() {
        let index = entry.build(PolicyMode::Pmem);
        let mut h = index.handle();
        for i in 0..KEYS {
            h.insert(&key(i), i).expect("8-byte keys are supported");
        }
        drop(h);
        // A recovery past the bound is left running on its own thread: the test
        // fails at the bound instead of waiting it out.
        let (tx, rx) = mpsc::channel();
        let recovering = Arc::clone(&index);
        std::thread::spawn(move || {
            let t0 = Instant::now();
            recovering.recover();
            let _ = tx.send(t0.elapsed());
        });
        match rx.recv_timeout(BOUND) {
            Ok(took) => {
                println!("{:18} recover() {:>10.3} ms", entry.name, took.as_secs_f64() * 1e3)
            }
            Err(_) => {
                slow.push(entry.name);
                continue;
            }
        }
        let mut h = index.handle();
        let lost = (0..KEYS).filter(|&i| h.get(&key(i)) != Some(i)).count();
        assert_eq!(lost, 0, "{}: keys unreadable after recover()", entry.name);
    }
    assert!(slow.is_empty(), "recover() of {KEYS} keys took over {BOUND:?} on {slow:?}");
}
