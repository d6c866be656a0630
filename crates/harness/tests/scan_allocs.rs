//! Allocation budget of the scan path: a steady-state scan through a
//! [`recipe::session::Handle`] and [`recipe::session::Scanner::visit`] calls
//! the allocator **zero** times on the four ordered conversions, and never
//! once per returned key on the hand-crafted baselines.
//!
//! The handle's `ScanBuf` and resume key grow during the warm-up scans; after
//! that the indexes copy keys into the arena and the caller reads them there.
//! This file installs its own counting allocator, so it holds a single test.

use harness::registry::{all_indexes, PolicyMode};
use recipe::key::u64_key;
use recipe::session::IndexExt;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `alloc` + `realloc` calls made by this thread (const-initialised and
    /// without a destructor, so touching it from the allocator is safe).
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: a thread may allocate while its locals are being torn down.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method defers to `System` with the caller's own arguments; the
// counter is a plain thread-local cell and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// Allocator calls a baseline may make per scan of up to 100 entries: a path
/// or merge scratch vector per node it crosses, nothing per returned key.
const BASELINE_CALLS_PER_SCAN: u64 = 8;

#[test]
fn steady_state_scans_do_not_allocate() {
    const N: u64 = 20_000;
    let key = |i: u64| u64_key(pm::mix64(i));
    for entry in all_indexes().iter().filter(|e| e.caps.scan) {
        let index = entry.build(PolicyMode::Pmem);
        let mut h = index.handle();
        for i in 0..N {
            h.insert(&key(i), i).expect("8-byte keys are supported");
        }
        index.exec_settle();

        // Scan `j` as the YCSB driver issues it: 1–100 entries from a loaded
        // key, one chunk, read in place. Returns the allocator calls it made.
        let mut scan = |j: u64| {
            let r = pm::mix64(j ^ 0xA110C);
            let len = 1 + (r >> 40) as usize % 100;
            h.set_scan_batch(len);
            let before = alloc_calls();
            let mut sum = 0u64;
            let n = h.scan(&key(r % N)).limit(len).visit(|k, v| sum += v + k.len() as u64);
            let calls = alloc_calls() - before;
            assert!((1..=len).contains(&n), "{}: {n} entries for a scan of {len}", entry.name);
            std::hint::black_box(sum);
            calls
        };
        for j in 0..200 {
            scan(j);
        }
        let per_scan: Vec<u64> = (200..1_200).map(&mut scan).collect();
        let (total, worst) = (per_scan.iter().sum::<u64>(), per_scan.iter().max().copied());
        if entry.converted {
            assert_eq!(total, 0, "{}: allocator calls over 1,000 steady-state scans", entry.name);
        } else {
            assert!(
                worst <= Some(BASELINE_CALLS_PER_SCAN),
                "{}: {worst:?} allocator calls in one scan ({total} over 1,000)",
                entry.name
            );
        }
    }
}
