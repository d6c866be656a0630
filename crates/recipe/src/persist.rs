//! The RECIPE conversion as a persistence policy.
//!
//! The paper's conversion actions all reduce to "insert cache line flush and memory
//! fence instructions after each store" (Conditions #1 and #2), plus an explicit
//! helper mechanism for Condition #3. Here the flush/fence insertion is captured by a
//! zero-sized policy type implementing [`PersistMode`]:
//!
//! * [`Dram`] — the unconverted concurrent DRAM index. Every method is a no-op and is
//!   inlined away; the index behaves exactly like the original in-memory structure.
//! * [`Pmem`] — the RECIPE-converted PM index. Persist calls issue `clwb`/`sfence`
//!   through the [`pm`] substrate (counted, optionally latency-charged, and observed
//!   by the durability tracker), and crash sites are active so the §5 crash-testing
//!   methodology can cut an operation between its atomic steps.
//!
//! The number of `P::persist*` / `P::fence` call sites in an index crate is therefore
//! the Rust analogue of the paper's "lines of code modified" column in Table 1.

use pm::{crash, flush, tracker};

/// Persistence policy: how an index persists its stores.
///
/// All methods take raw addresses and never dereference them; implementations must be
/// safe to call with any pointer. The policy is a type-level switch, so indexes should
/// be generic over `P: PersistMode` and call these in the exact places the RECIPE
/// conversion actions dictate.
pub trait PersistMode: Send + Sync + 'static {
    /// `true` for persistent-memory policies.
    const PERSISTENT: bool;

    /// Human-readable policy name, used in index names (`"P-ART"` vs `"ART"`).
    const NAME: &'static str;

    /// Flush every cache line overlapping the object at `ptr` and optionally fence.
    fn persist_obj<T>(ptr: *const T, fence: bool) {
        Self::persist_range(ptr.cast(), std::mem::size_of::<T>(), fence);
    }

    /// Flush every cache line overlapping `[ptr, ptr+len)` and optionally fence.
    fn persist_range(ptr: *const u8, len: usize, fence: bool);

    /// Issue a store fence (make previously flushed lines durable).
    fn fence();

    /// Report an in-place store to the durability tracker (PM mode only). Call after
    /// raw stores that are not covered by [`pm::alloc::pm_box`]'s fresh-object
    /// tracking; a subsequent `persist_*` of the same range marks it clean again.
    fn mark_dirty(ptr: *const u8, len: usize);

    /// Convenience form of [`PersistMode::mark_dirty`] for a whole object.
    fn mark_dirty_obj<T>(ptr: *const T) {
        Self::mark_dirty(ptr.cast(), std::mem::size_of::<T>());
    }

    /// Assert that `[ptr, ptr + len)` is durable — flushed *and* covered by a fence.
    ///
    /// The check of the **stage, fence once, publish** discipline: an object nothing
    /// can reach yet is flushed with `fence = false` and rides on the one fence that
    /// precedes the store publishing it; the publishing site calls this on what it
    /// publishes, right before that store. Active in PM mode with the durability
    /// tracker on ([`pm::tracker::assert_durable`], an `assert!` in every build
    /// profile); free otherwise. Skipped inside a fence-coalescing region
    /// (`Handle::batch`), which defers every ordering fence to its end by design.
    fn assert_durable(ptr: *const u8, len: usize);

    /// Convenience form of [`PersistMode::assert_durable`] for a whole object.
    fn assert_durable_obj<T>(ptr: *const T) {
        Self::assert_durable(ptr.cast(), std::mem::size_of::<T>());
    }

    /// Declare a crash site (only active in PM mode): a point between the ordered
    /// atomic steps of an operation at which the §5 testing harness may cut execution.
    fn crash_site(name: &'static str);
}

/// The unconverted DRAM policy: every operation is a no-op.
#[derive(Debug, Default, Clone, Copy)]
pub struct Dram;

impl PersistMode for Dram {
    const PERSISTENT: bool = false;
    const NAME: &'static str = "DRAM";

    #[inline(always)]
    fn persist_range(_ptr: *const u8, _len: usize, _fence: bool) {}

    #[inline(always)]
    fn fence() {}

    #[inline(always)]
    fn mark_dirty(_ptr: *const u8, _len: usize) {}

    #[inline(always)]
    fn assert_durable(_ptr: *const u8, _len: usize) {}

    #[inline(always)]
    fn crash_site(_name: &'static str) {}
}

/// The RECIPE-converted persistent-memory policy.
#[derive(Debug, Default, Clone, Copy)]
pub struct Pmem;

impl PersistMode for Pmem {
    const PERSISTENT: bool = true;
    const NAME: &'static str = "PM";

    #[inline]
    fn persist_range(ptr: *const u8, len: usize, fence: bool) {
        flush::persist_range(ptr, len, fence);
    }

    #[inline]
    fn fence() {
        flush::sfence();
    }

    #[inline]
    fn mark_dirty(ptr: *const u8, len: usize) {
        if tracker::enabled() {
            tracker::on_store(ptr as usize, len);
        }
    }

    #[inline]
    fn assert_durable(ptr: *const u8, len: usize) {
        if tracker::enabled() && !flush::coalescing() {
            tracker::assert_durable(ptr as usize, len);
        }
    }

    #[inline]
    fn crash_site(name: &'static str) {
        crash::site(name);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serializes the tests that turn the process-global durability tracker on
    /// with those that allocate PM objects, which it would register as dirty.
    pub(crate) static TRACKER_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    #[test]
    fn dram_policy_is_free() {
        let before = pm::stats::snapshot_local();
        let x = 5u64;
        Dram::persist_obj(&x, true);
        Dram::fence();
        Dram::mark_dirty_obj(&x);
        Dram::assert_durable_obj(&x);
        Dram::crash_site("never");
        let d = pm::stats::snapshot_local().since(&before);
        assert_eq!(d.clwb, 0);
        assert_eq!(d.fence, 0);
    }

    #[test]
    fn pmem_policy_flushes_and_fences() {
        let before = pm::stats::snapshot_local();
        let x = [0u8; 128];
        Pmem::persist_obj(&x, true);
        let d = pm::stats::snapshot_local().since(&before);
        assert!(d.clwb >= 2, "128 bytes span at least two lines");
        assert_eq!(d.fence, 1);
    }

    #[test]
    fn policy_names_differ() {
        assert_ne!(Dram::NAME, Pmem::NAME);
        let flags = [Dram::PERSISTENT, Pmem::PERSISTENT];
        assert_eq!(flags, [false, true]);
    }

    #[test]
    fn pmem_mark_dirty_feeds_tracker() {
        let _g = TRACKER_LOCK.lock();
        // Tracker is global; keep this self-contained and tolerant of other tests.
        pm::tracker::enable();
        let x = 7u64;
        Pmem::mark_dirty_obj(&x);
        let report = pm::tracker::check(false);
        assert!(!report.is_durable());
        Pmem::persist_obj(&x, true);
        assert!(pm::tracker::check(false).is_durable());
        // The ordering check reads the same line states (a dirty line, because a
        // fence on another test's thread cannot clean it), except where a
        // coalescing region defers every fence by design.
        Pmem::assert_durable_obj(&x);
        Pmem::mark_dirty_obj(&x);
        assert!(std::panic::catch_unwind(|| Pmem::assert_durable_obj(&x)).is_err());
        {
            let _region = pm::flush::coalesce_fences();
            Pmem::assert_durable_obj(&x);
        }
        Pmem::persist_obj(&x, true);
        pm::tracker::disable();
    }
}
