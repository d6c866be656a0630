//! Persistent-memory allocation helpers.
//!
//! RECIPE assumes a persistent-memory allocator with garbage collection: a crash in the
//! middle of an update may leave a freshly allocated object unreachable, and the
//! allocator is expected to reclaim it eventually (§4.2). The paper's evaluation uses
//! PMDK's `libvmmalloc`, which transparently redirects `malloc`/`new` to a PM pool.
//!
//! This module provides the equivalent for the simulation:
//!
//! * [`pm_box`] allocates an object on the (heap-backed) PM pool, registers the
//!   allocation with the durability [`crate::tracker`], and marks all of its cache
//!   lines dirty — a newly constructed node must be flushed before it is linked into
//!   the index, and the durability test catches indexes that forget to do so (this is
//!   exactly the class of bug the paper found in FAST & FAIR and CCEH root
//!   allocation).
//! * Reclamation is *deferred to the end of the run*: objects unlinked from an index
//!   are leaked rather than freed, which is the simplest sound realisation of the
//!   garbage-collection assumption (no ABA, no use-after-free for non-blocking
//!   readers). Indexes that own their whole structure may free it in `Drop` via
//!   [`pm_drop`].
//!
//! Allocation counters (two fields of the allocating thread's [`crate::stats`] slab,
//! summed over all threads by the readers here) are exposed so tests can assert that
//! structure-modification operations allocate the expected number of nodes.

use crate::{stats, tracker};

/// Allocate `val` on the simulated PM pool and return a raw pointer to it.
///
/// The object is registered with the durability tracker and all of its cache lines are
/// marked dirty: callers must persist it (flush + fence) before publishing a pointer
/// to it, or the §5 durability check will flag the lines as unflushed.
///
/// The returned pointer is never freed by this crate; see the module documentation for
/// the reclamation model. Convert back with `Box::from_raw` only if you can prove no
/// other thread can still reach the object.
pub fn pm_box<T>(val: T) -> *mut T {
    let p = Box::into_raw(Box::new(val));
    let size = std::mem::size_of::<T>();
    stats::bump(stats::ALLOC_OBJECTS, 1);
    stats::bump(stats::ALLOC_BYTES, size as u64);
    if tracker::enabled() {
        tracker::on_alloc(p as usize, size);
        tracker::on_store(p as usize, size);
    }
    p
}

/// Free an object previously allocated with [`pm_box`].
///
/// # Safety
///
/// `p` must have been returned by [`pm_box`], must not have been freed before, and no
/// other thread may hold a reference to it (typically only safe from a `Drop`
/// implementation that owns the entire structure).
pub unsafe fn pm_drop<T>(p: *mut T) {
    if p.is_null() {
        return;
    }
    // SAFETY: contract delegated to the caller.
    drop(unsafe { Box::from_raw(p) });
}

/// Number of objects allocated through [`pm_box`] since process start, by any thread.
pub fn allocated_objects() -> u64 {
    stats::totals()[stats::ALLOC_OBJECTS]
}

/// Number of bytes allocated through [`pm_box`] since process start, by any thread.
pub fn allocated_bytes() -> u64 {
    stats::totals()[stats::ALLOC_BYTES]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pm_box_allocates_and_counts() {
        // The count is process-wide, and `pm_box` dirties lines in a tracker
        // another test may have enabled.
        let _g = tracker::tests::TEST_LOCK.lock();
        let before = allocated_objects();
        let p = pm_box(42u64);
        assert!(!p.is_null());
        // SAFETY: freshly allocated, no other references exist.
        unsafe {
            assert_eq!(*p, 42);
            pm_drop(p);
        }
        assert_eq!(allocated_objects(), before + 1);
    }

    #[test]
    fn pm_box_marks_lines_dirty_when_tracking() {
        let _g = tracker::tests::TEST_LOCK.lock();
        tracker::enable();
        let p = pm_box([0u8; 256]);
        let report = tracker::check(false);
        assert!(!report.is_durable(), "fresh allocation must appear dirty");
        assert!(report.allocations >= 1);
        // Flushing the object and fencing makes it durable.
        crate::flush::persist_obj(p, true);
        assert!(tracker::check(false).is_durable());
        tracker::disable();
        // SAFETY: freshly allocated, no other references exist.
        unsafe { pm_drop(p) };
    }

    #[test]
    fn pm_drop_handles_null() {
        // SAFETY: null is explicitly allowed.
        unsafe { pm_drop::<u64>(std::ptr::null_mut()) };
    }
}
