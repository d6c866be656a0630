//! `rehash` retires the table it replaces instead of freeing it (a
//! non-blocking reader may still be walking it), so the index owns every table
//! it ever installed and `Drop` must give all of them back: after a table has
//! grown through six or more rehashes and been dropped, the thread's live heap
//! bytes are exactly what they were before it was built.
//!
//! This file installs its own counting allocator, so it holds a single test.

use clht::PClht;
use recipe::key::u64_key;
use recipe::session::Index;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated and not yet freed (const-initialised
    /// and without a destructor, so touching it from the allocator is safe).
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn live_add(bytes: i64) {
    // `try_with`: a thread may allocate while its locals are being torn down.
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method defers to `System` with the caller's own arguments; the
// counter is a plain thread-local cell and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        live_add(layout.size() as i64);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_add(-(layout.size() as i64));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        live_add(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Build the smallest table, grow it with `keys` inserts, drop it, and return
/// how many times it doubled on the way.
fn grow_and_drop(keys: u64) -> u32 {
    let table = PClht::with_capacity(8);
    let initial = table.num_buckets();
    for i in 0..keys {
        table.exec_insert(&u64_key(i), i).expect("8-byte keys are supported");
    }
    let doublings = (table.num_buckets() / initial).trailing_zeros();
    assert_eq!(table.len() as u64, keys, "a rehash lost keys");
    doublings
}

#[test]
fn no_retired_table_outlives_the_index() {
    // Warm-up: lets this thread's `pm::stats` slab and any other lazily
    // built per-thread state allocate before the measurement starts.
    grow_and_drop(64);

    let before = LIVE_BYTES.with(Cell::get);
    let doublings = grow_and_drop(20_000);
    let after = LIVE_BYTES.with(Cell::get);

    assert!(doublings >= 6, "20k keys from a 2-bucket table must rehash >= 6 times: {doublings}");
    assert_eq!(
        after - before,
        0,
        "{} bytes outlived the dropped index (a retired table or its overflow chain)",
        after - before
    );
}
