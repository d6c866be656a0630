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
//! # Stage, fence once, publish
//!
//! Condition #1 (§4) makes a write visible through one atomic store. Every index
//! converts it the same way, written once here as provided methods of
//! [`PersistMode`]:
//!
//! * [`stage`](PersistMode::stage) / [`stage_obj`](PersistMode::stage_obj) flush an
//!   object nothing can reach yet, without a fence;
//!   [`stage_store`](PersistMode::stage_store) does the same for a preparatory
//!   in-place store (a slot past a count, a key byte ahead of its pointer).
//! * [`publish`](PersistMode::publish) fences once, asserts that every range the
//!   store makes reachable (its `covers`) is durable, runs the store (or CAS), flushes
//!   and fences the slot, and declares the crash site behind it.
//! * [`persist_store`](PersistMode::persist_store) is an in-place store with nothing
//!   to cover (a value update, a removal).
//! * [`publish_same_line`](PersistMode::publish_same_line) is a value-then-key commit:
//!   the covered words share the slot's cache line and persist with its one flush.
//!
//! The number of `stage*` / `publish*` / `persist_store` calls in an index crate is
//! therefore the Rust analogue of the paper's "lines of code modified" column in
//! Table 1.

use pm::{crash, flush, tracker};

/// A byte range `(start, len)` that a publishing store makes reachable: the
/// `covers` of [`PersistMode::publish`]. An empty range checks nothing.
pub type Span = (*const u8, usize);

/// The [`Span`] of a whole object.
#[inline]
pub fn span<T>(obj: *const T) -> Span {
    (obj.cast(), std::mem::size_of::<T>())
}

/// The [`Span`] of a referenced value, slices included.
#[inline]
pub fn span_of<T: ?Sized>(val: &T) -> Span {
    ((val as *const T).cast(), std::mem::size_of_val(val))
}

/// What a publishing closure returns: whether its store took effect. A lost CAS
/// (`Err`, `false`) published nothing, so nothing is flushed and no site declared.
pub trait Stored {
    /// `true` if the store happened.
    fn stored(&self) -> bool;
}

impl Stored for () {
    #[inline]
    fn stored(&self) -> bool {
        true
    }
}

impl Stored for bool {
    #[inline]
    fn stored(&self) -> bool {
        *self
    }
}

impl<T, E> Stored for Result<T, E> {
    #[inline]
    fn stored(&self) -> bool {
        self.is_ok()
    }
}

/// Persistence policy: how an index persists its stores.
///
/// All methods take raw addresses and never dereference them; implementations must be
/// safe to call with any pointer. The policy is a type-level switch, so indexes should
/// be generic over `P: PersistMode` and call the stage/publish methods in the exact
/// places the RECIPE conversion actions dictate.
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

    /// Report an in-place store to the durability tracker (PM mode only). The
    /// store methods below call it; a subsequent flush of the range marks it clean.
    fn mark_dirty(ptr: *const u8, len: usize);

    /// Convenience form of [`PersistMode::mark_dirty`] for a whole object.
    fn mark_dirty_obj<T>(ptr: *const T) {
        Self::mark_dirty(ptr.cast(), std::mem::size_of::<T>());
    }

    /// Assert that `[ptr, ptr + len)` is durable — flushed *and* covered by a fence.
    ///
    /// The check [`PersistMode::publish`] runs on its `covers`. Active in PM mode
    /// with the durability tracker on ([`pm::tracker::assert_durable`], an `assert!`
    /// in every build profile); free otherwise. Skipped inside a fence-coalescing
    /// region (`Handle::batch`), which defers every ordering fence to its end by
    /// design.
    fn assert_durable(ptr: *const u8, len: usize);

    /// Declare a crash site (only active in PM mode): a point between the ordered
    /// atomic steps of an operation at which the §5 testing harness may cut execution.
    fn crash_site(name: &'static str);

    /// Stage `[ptr, ptr + len)`: flush it without a fence. Nothing may reach it until
    /// the fence a later [`PersistMode::publish`] issues ahead of its store.
    #[inline]
    fn stage(ptr: *const u8, len: usize) {
        Self::persist_range(ptr, len, false);
    }

    /// [`PersistMode::stage`] for a whole object.
    #[inline]
    fn stage_obj<T>(ptr: *const T) {
        Self::persist_obj(ptr, false);
    }

    /// A preparatory in-place store into `slot`, not yet reachable (or harmless
    /// while unpublished): run `store`, report the slot, flush it, no fence.
    #[inline]
    fn stage_store<T: ?Sized, R>(slot: &T, store: impl FnOnce() -> R) -> R {
        let r = store();
        let (ptr, len) = span_of(slot);
        Self::mark_dirty(ptr, len);
        Self::persist_range(ptr, len, false);
        r
    }

    /// An in-place store into `slot` that makes nothing new reachable: run `store`
    /// (or a CAS); if it took effect, report the slot, flush it and fence. Code that
    /// holds the slot's owner mutably stores first and passes `|| ()`.
    #[inline]
    fn persist_store<T: ?Sized, R: Stored>(slot: &T, store: impl FnOnce() -> R) -> R {
        let r = store();
        if r.stored() {
            let (ptr, len) = span_of(slot);
            Self::mark_dirty(ptr, len);
            Self::persist_range(ptr, len, true);
        }
        r
    }

    /// The publishing store of Condition #1: fence once (making everything staged
    /// durable), assert every range in `covers` durable, run `store` (or a CAS), and
    /// if it took effect report, flush and fence `slot` and declare `site`.
    ///
    /// `covers` names what the store makes reachable, not what was staged, so a
    /// dropped [`PersistMode::stage`] shows up as a failed check here. `slot` is a
    /// raw pointer so that `store` may borrow the slot's owner mutably.
    #[inline]
    fn publish<T, R: Stored>(
        slot: *const T,
        store: impl FnOnce() -> R,
        covers: impl IntoIterator<Item = Span>,
        site: impl Into<Option<&'static str>>,
    ) -> R {
        Self::fence();
        for (ptr, len) in covers {
            Self::assert_durable(ptr, len);
        }
        commit::<Self, _, _>(slot, store(), site.into())
    }

    /// A value-then-key commit: the words in `covers` were stored earlier on the
    /// slot's own cache line and persist with its flush, in program order, so no
    /// fence precedes `store`. Asserts (PM mode) that every covered word lies on
    /// the slot's line, then persists the store as [`PersistMode::persist_store`]
    /// and declares `site`.
    #[inline]
    fn publish_same_line<T, R: Stored>(
        slot: *const T,
        store: impl FnOnce() -> R,
        covers: impl IntoIterator<Item = Span>,
        site: impl Into<Option<&'static str>>,
    ) -> R {
        if Self::PERSISTENT {
            let line = pm::line_of(slot as usize);
            for (ptr, len) in covers {
                let (first, last) = (ptr as usize, ptr as usize + len.max(1) - 1);
                assert!(
                    pm::line_of(first) == line && pm::line_of(last) == line,
                    "same-line publish: [{first:#x}, +{len}) is not on the slot's line {line:#x}"
                );
            }
        }
        commit::<Self, _, _>(slot, store(), site.into())
    }
}

/// Report, flush and fence the slot of a publishing store that took effect, and
/// declare its site.
#[inline]
fn commit<P: PersistMode + ?Sized, T, R: Stored>(
    slot: *const T,
    r: R,
    site: Option<&'static str>,
) -> R {
    if r.stored() {
        P::mark_dirty_obj(slot);
        P::persist_obj(slot, true);
        if let Some(site) = site {
            P::crash_site(site);
        }
    }
    r
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
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Serializes the tests that turn the process-global durability tracker on
    /// with those that allocate PM objects, which it would register as dirty.
    pub(crate) static TRACKER_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    /// Two words on one cache line, and a third on the next.
    #[repr(C, align(64))]
    struct Lines {
        key: AtomicU64,
        value: AtomicU64,
        _pad: [u64; 6],
        next_line: AtomicU64,
    }

    fn lines() -> Lines {
        Lines {
            key: AtomicU64::new(0),
            value: AtomicU64::new(0),
            _pad: [0; 6],
            next_line: AtomicU64::new(0),
        }
    }

    /// `(clwb, fence)` the calling thread issued during `f`.
    fn counted(f: impl FnOnce()) -> (u64, u64) {
        let before = pm::stats::snapshot_local();
        f();
        let d = pm::stats::snapshot_local().since(&before);
        (d.clwb, d.fence)
    }

    #[test]
    fn dram_policy_is_free() {
        let l = lines();
        let moved = counted(|| {
            Dram::persist_obj(&l, true);
            Dram::fence();
            Dram::mark_dirty_obj(&l);
            Dram::assert_durable(span(&l).0, span(&l).1);
            Dram::crash_site("never");
            Dram::stage(span(&l).0, 64);
            Dram::stage_obj(&l);
            Dram::stage_store(&l.key, || l.key.store(1, Ordering::Release));
            Dram::persist_store(&l.key, || l.key.store(2, Ordering::Release));
            Dram::publish(&l.key, || l.key.store(3, Ordering::Release), [span(&l)], "never");
            Dram::publish_same_line(&l.key, || (), [span(&l.next_line)], None);
        });
        assert_eq!(moved, (0, 0));
        assert_eq!(l.key.load(Ordering::Acquire), 3, "the stores themselves still run");
    }

    #[test]
    fn pmem_policy_flushes_and_fences() {
        let x = [0u8; 128];
        let (clwb, fence) = counted(|| Pmem::persist_obj(&x, true));
        assert!(clwb >= 2, "128 bytes span at least two lines");
        assert_eq!(fence, 1);
    }

    #[test]
    fn policy_names_differ() {
        assert_ne!(Dram::NAME, Pmem::NAME);
        let flags = [Dram::PERSISTENT, Pmem::PERSISTENT];
        assert_eq!(flags, [false, true]);
    }

    #[test]
    fn stage_methods_flush_without_a_fence() {
        let l = lines();
        assert_eq!(counted(|| Pmem::stage_obj(&l)), (2, 0));
        assert_eq!(counted(|| Pmem::stage(span(&l).0, 8)), (1, 0));
        assert_eq!(
            counted(|| Pmem::stage_store(&l.key, || l.key.store(1, Ordering::Release))),
            (1, 0)
        );
        assert_eq!(
            counted(|| Pmem::persist_store(&l.key, || l.key.store(2, Ordering::Release))),
            (1, 1)
        );
    }

    #[test]
    fn publish_fences_once_before_its_store_and_once_after() {
        let l = lines();
        let mut at_store = None;
        let before = pm::stats::snapshot_local();
        let total = counted(|| {
            Pmem::publish(
                &l.key,
                || {
                    at_store = Some(pm::stats::snapshot_local().since(&before).fence);
                    l.key.store(1, Ordering::Release);
                },
                [span(&l.value)],
                None,
            );
        });
        assert_eq!(at_store, Some(1), "one fence ahead of the store");
        assert_eq!(total, (1, 2), "the slot's line, and one fence after the store");
        // A lost CAS publishes nothing: only the leading fence is spent.
        let lost = counted(|| {
            let r = Pmem::publish(
                &l.key,
                || l.key.compare_exchange(7, 8, Ordering::AcqRel, Ordering::Acquire),
                [],
                None,
            );
            assert!(r.is_err());
        });
        assert_eq!(lost, (0, 1));
    }

    #[test]
    fn publish_panics_on_a_cover_that_was_never_staged() {
        let _g = TRACKER_LOCK.lock();
        pm::tracker::enable();
        let l = lines();
        // The covered word was stored but never flushed: the fence ahead of the
        // store cannot make it durable.
        Pmem::mark_dirty_obj(&l.next_line);
        let publish = || {
            Pmem::publish(&l.key, || l.key.store(1, Ordering::Release), [span(&l.next_line)], None)
        };
        let err = std::panic::catch_unwind(publish).expect_err("an unstaged cover is not durable");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("publish before durable"), "{msg}");
        // Staged, it rides on the publish's own fence.
        Pmem::stage_obj(&l.next_line);
        Pmem::publish(&l.key, || l.key.store(1, Ordering::Release), [span(&l.next_line)], None);
        assert!(pm::tracker::check(true).is_durable());
        pm::tracker::disable();
    }

    #[test]
    fn coalesced_publish_elides_its_fences_and_skips_the_check() {
        let _g = TRACKER_LOCK.lock();
        pm::tracker::enable();
        let l = lines();
        Pmem::mark_dirty_obj(&l.next_line);
        let elided0 = pm::flush::elided_fences();
        let inside = counted(|| {
            let _region = pm::flush::coalesce_fences();
            Pmem::publish(&l.key, || l.key.store(1, Ordering::Release), [span(&l.next_line)], None);
        });
        // The region's one closing fence is the only real one.
        assert_eq!(inside, (1, 1));
        assert!(pm::flush::elided_fences() >= elided0 + 2);
        Pmem::persist_obj(&l, true);
        pm::tracker::disable();
    }

    #[test]
    fn publish_same_line_accepts_its_line_and_rejects_another() {
        let l = lines();
        let same = counted(|| {
            l.value.store(5, Ordering::Release);
            Pmem::publish_same_line(
                &l.key,
                || l.key.store(1, Ordering::Release),
                [span(&l.value)],
                None,
            );
        });
        assert_eq!(same, (1, 1), "one flush of the shared line, one fence, none ahead");
        let other = std::panic::catch_unwind(|| {
            Pmem::publish_same_line(&l.key, || (), [span(&l.next_line)], None);
        });
        assert!(other.is_err(), "a cover on the next line must be rejected");
        // Dram checks nothing.
        Dram::publish_same_line(&l.key, || (), [span(&l.next_line)], None);
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
        let (ptr, len) = span(&x);
        Pmem::assert_durable(ptr, len);
        Pmem::mark_dirty_obj(&x);
        assert!(std::panic::catch_unwind(|| Pmem::assert_durable(ptr, len)).is_err());
        {
            let _region = pm::flush::coalesce_fences();
            Pmem::assert_durable(ptr, len);
        }
        Pmem::persist_obj(&x, true);
        pm::tracker::disable();
    }
}
