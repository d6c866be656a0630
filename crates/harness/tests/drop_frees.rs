//! Every registry index gives back, when it drops, every byte it allocated: its
//! reachable nodes, leaves and key copies, and what its structure-modification
//! operations unlinked during the run (grown or split nodes, replaced segments,
//! directories and generations, removed leaves).
//!
//! Each cycle builds one index, inserts enough keys to grow, split or resize every
//! row, updates and removes some, and drops it; afterwards the heap must hold
//! exactly the bytes it held before the cycle. A first cycle per row and policy
//! warms up what stays allocated for the life of the process: thread-local caches
//! and counter slabs, and the slab's chunks, which `pm::alloc` keeps by design.
//! They are counted all the same: a cycle that frees everything finds every block
//! it needs on the slab's free lists and carves no new chunk, while an index that
//! leaks slab blocks (P-Masstree's nodes, the tries' leaves) makes the next cycle
//! carve more.
//!
//! This file installs its own counting allocator, so it holds a single test.

use harness::registry::{all_indexes, PolicyMode};
use recipe::key::u64_key;
use recipe::session::IndexExt;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes allocated and not yet freed.
static OUTSTANDING: AtomicIsize = AtomicIsize::new(0);

struct Counting;

fn count(layout: Layout, sign: isize) {
    OUTSTANDING.fetch_add(sign * layout.size() as isize, Ordering::Relaxed);
}

// SAFETY: every method defers to `System` with the caller's own arguments; the
// counter is a plain atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout, 1);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(layout, -1);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(layout, -1);
        count(Layout::from_size_align(new_size, layout.align()).expect("valid layout"), 1);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Keys inserted per cycle: enough to grow every trie node type, split B-tree and
/// Masstree nodes, double CCEH's directory and resize Level-Hashing.
const INSERTS: u64 = 20_000;
/// Keys updated, then removed, per cycle.
const CHANGED: u64 = 2_000;
/// Measured cycles per row and policy, after the warm-up one.
const CYCLES: usize = 2;

#[test]
fn dropping_an_index_frees_all_it_allocated() {
    let key = |i: u64| u64_key(pm::mix64(i));
    let mut leaks = Vec::new();
    for entry in all_indexes() {
        for mode in PolicyMode::ALL {
            let cycle = || {
                let index = entry.build(mode);
                let mut h = index.handle();
                for i in 0..INSERTS {
                    h.insert(&key(i), i).expect("8-byte keys are supported");
                }
                for i in 0..CHANGED {
                    h.update(&key(i * 3), i).expect("a loaded key updates");
                }
                for i in 0..CHANGED {
                    h.remove(&key(i * 5)).expect("a loaded key is removed");
                }
            };
            cycle();
            for c in 0..CYCLES {
                let before = OUTSTANDING.load(Ordering::Relaxed);
                cycle();
                let kept = OUTSTANDING.load(Ordering::Relaxed) - before;
                if kept != 0 {
                    leaks.push(format!("{} cycle {c}: {kept} bytes kept", entry.name(mode)));
                }
            }
        }
    }
    assert!(leaks.is_empty(), "indexes kept memory after drop:\n{}", leaks.join("\n"));
}
