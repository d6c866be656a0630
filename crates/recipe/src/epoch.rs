//! Epoch-based memory reclamation for lock-free PM indexes.
//!
//! Lock-free structures (the Bw-tree in this workspace) unlink whole delta
//! chains with a single CAS while concurrent readers may still be traversing
//! the unlinked memory. The PM allocator GC assumption the paper leans on
//! ("restart reclaims everything") is sound for crash recovery but lets memory
//! grow without bound *within* a run: until this module existed, replaced
//! chains parked on a tree-local list until `Drop`. "Delay-Free Concurrency on
//! Faulty Persistent Memory" grounds per-thread announcement/epoch structures
//! as the standard vehicle for safe reclamation in lock-free PM indexes; this
//! module implements the classic three-epoch scheme:
//!
//! * A [`Collector`] owns a global epoch counter and a fixed array of
//!   announcement slots.
//! * A thread joins by acquiring a [`Session`] (one slot). Before touching the
//!   structure it **pins** the session ([`Session::pin`]), announcing the
//!   global epoch it observed; the pin is reentrant and unpinned by RAII.
//! * Unlinked memory is **retired** ([`Collector::defer_free`]) into the bag
//!   of the current epoch, with a byte estimate feeding the
//!   [`Collector::retired_bytes`] gauge.
//! * The epoch only advances when every pinned slot has announced the current
//!   epoch, and a bag is only reclaimed once the global epoch is two ahead of
//!   it — at that point no pinned thread can still hold a reference into it.
//!
//! Reclamation is amortized: every `COLLECT_EVERY`-th unpin attempts an
//! advance-and-collect pass, so long delete-heavy runs free garbage at epoch
//! quiescence instead of accumulating it (the gauge regression tests in
//! `harness/tests/epoch_reclamation.rs` pin this behaviour down).

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// Slot state: available for [`Collector::register`].
const FREE: u64 = u64::MAX;
/// Slot state: owned by a [`Session`] but not currently pinned.
const UNPINNED: u64 = u64::MAX - 1;
/// Announcement slots per collector (concurrent sessions above this spin-wait
/// for a slot; 256 is far above any workload in this workspace).
const MAX_SLOTS: usize = 256;
/// Unpins between amortized advance-and-collect passes.
const COLLECT_EVERY: u64 = 64;

/// One announcement slot, cacheline-padded so pinning threads do not false-share.
#[repr(align(64))]
struct Slot {
    /// [`FREE`], [`UNPINNED`], or the epoch the owning session is pinned at.
    state: AtomicU64,
}

type Deferred = Box<dyn FnOnce() + Send>;

/// Collectors the calling thread holds a pinned session on, by address (0 = empty
/// entry), so [`Collector::enter`] under a pinned session skips a second
/// registration. A thread pinned on more collectors at once than there are entries
/// just registers again for the extra ones.
const PINNED_ENTRIES: usize = 4;

thread_local! {
    static PINNED: Cell<[usize; PINNED_ENTRIES]> = const { Cell::new([0; PINNED_ENTRIES]) };
}

/// Record (`on`) or forget one pinned session of this thread on `inner`.
fn note_pinned(inner: &Arc<Inner>, on: bool) {
    let addr = Arc::as_ptr(inner) as usize;
    let (from, to) = if on { (0, addr) } else { (addr, 0) };
    PINNED.with(|p| {
        let mut set = p.get();
        if let Some(e) = set.iter_mut().find(|e| **e == from) {
            *e = to;
            p.set(set);
        }
    });
}

/// Whether this thread holds a pinned session on `inner`.
fn pinned_here(inner: &Arc<Inner>) -> bool {
    let addr = Arc::as_ptr(inner) as usize;
    PINNED.with(|p| p.get().contains(&addr))
}

struct Bag {
    epoch: u64,
    bytes: u64,
    items: Vec<Deferred>,
}

struct Inner {
    epoch: AtomicU64,
    slots: Box<[Slot]>,
    garbage: parking_lot::Mutex<Vec<Bag>>,
    retired_bytes: AtomicU64,
    peak_retired_bytes: AtomicU64,
    reclaimed_bytes: AtomicU64,
    unpin_ticks: AtomicU64,
}

impl Inner {
    /// Advance the epoch if every pinned slot has announced it, then run every
    /// bag the advance made unreachable.
    fn try_collect(&self) {
        let global = self.epoch.load(Ordering::SeqCst);
        let mut can_advance = true;
        for s in self.slots.iter() {
            let st = s.state.load(Ordering::SeqCst);
            if st != FREE && st != UNPINNED && st != global {
                can_advance = false;
                break;
            }
        }
        if can_advance {
            // A lost race just means another thread advanced for us.
            if self
                .epoch
                .compare_exchange(global, global + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                obs::event::emit("epoch.advance", "", global + 1, 0);
            }
        }
        let global = self.epoch.load(Ordering::SeqCst);
        let ready: Vec<Bag> = {
            let mut g = self.garbage.lock();
            let (ready, keep) = std::mem::take(&mut *g)
                .into_iter()
                .partition(|b: &Bag| b.epoch.saturating_add(2) <= global);
            *g = keep;
            ready
        };
        for bag in ready {
            self.retired_bytes.fetch_sub(bag.bytes, Ordering::Relaxed);
            self.reclaimed_bytes.fetch_add(bag.bytes, Ordering::Relaxed);
            obs::event::emit("epoch.reclaim", "", bag.bytes, bag.epoch);
            for f in bag.items {
                f();
            }
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Last reference: no session can exist, so everything is reclaimable.
        let bags = std::mem::take(&mut *self.garbage.lock());
        for bag in bags {
            self.retired_bytes.fetch_sub(bag.bytes, Ordering::Relaxed);
            self.reclaimed_bytes.fetch_add(bag.bytes, Ordering::Relaxed);
            for f in bag.items {
                f();
            }
        }
    }
}

/// An epoch-reclamation domain: global epoch, announcement slots, and the
/// retired-garbage bags awaiting quiescence.
///
/// Each structure that unlinks shared memory owns one collector (the Bw-tree
/// embeds one per tree, so its [`Collector::retired_bytes`] gauge is
/// per-instance and test isolation is free). Handles pin it around every
/// operation; see the [module docs](self).
pub struct Collector {
    inner: Arc<Inner>,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// Create an empty collector at epoch 0.
    #[must_use]
    pub fn new() -> Self {
        let mut slots = Vec::with_capacity(MAX_SLOTS);
        slots.resize_with(MAX_SLOTS, || Slot { state: AtomicU64::new(FREE) });
        Collector {
            inner: Arc::new(Inner {
                epoch: AtomicU64::new(0),
                slots: slots.into_boxed_slice(),
                garbage: parking_lot::Mutex::new(Vec::new()),
                retired_bytes: AtomicU64::new(0),
                peak_retired_bytes: AtomicU64::new(0),
                reclaimed_bytes: AtomicU64::new(0),
                unpin_ticks: AtomicU64::new(0),
            }),
        }
    }

    /// Acquire an announcement slot for the calling thread. The session is
    /// cheap to pin/unpin; hold it for as long as the thread keeps operating
    /// on the protected structure (a [`crate::session::Handle`] holds one for
    /// its whole lifetime). Spins if all `MAX_SLOTS` (256) slots are taken.
    #[must_use]
    pub fn register(&self) -> Session {
        std::thread_local! {
            static HINT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        }
        let start = HINT.with(std::cell::Cell::get);
        loop {
            for i in 0..MAX_SLOTS {
                let idx = (start + i) % MAX_SLOTS;
                if self.inner.slots[idx]
                    .state
                    .compare_exchange(FREE, UNPINNED, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    HINT.with(|h| h.set(idx));
                    return Session { inner: Arc::clone(&self.inner), idx, depth: 0 };
                }
            }
            std::thread::yield_now();
        }
    }

    /// Register **and** pin in one step: an RAII guard for callers that bracket
    /// a single operation (the index-internal protection path). Prefer a held
    /// [`Session`] when issuing many operations.
    ///
    /// If the calling thread already holds a pinned session on this collector (a
    /// [`crate::session::Handle`] pins one around every operation), that pin
    /// already protects the operation, and the guard is a no-op: no slot, no
    /// reference count, no second announcement.
    #[must_use]
    pub fn enter(&self) -> EnterGuard {
        if pinned_here(&self.inner) {
            return EnterGuard { session: None, _not_send: PhantomData };
        }
        let mut session = self.register();
        session.pin_raw();
        EnterGuard { session: Some(session), _not_send: PhantomData }
    }

    /// Retire `bytes` of unlinked memory: `free` runs once no thread that could
    /// still observe the memory remains pinned. Call *after* the unlink is
    /// visible (published by CAS/store) — typically while still pinned.
    pub fn defer_free(&self, bytes: u64, free: impl FnOnce() + Send + 'static) {
        let epoch = self.inner.epoch.load(Ordering::SeqCst);
        let now = self.inner.retired_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.inner.peak_retired_bytes.fetch_max(now, Ordering::Relaxed);
        let mut g = self.inner.garbage.lock();
        match g.iter_mut().find(|b| b.epoch == epoch) {
            Some(bag) => {
                bag.bytes += bytes;
                bag.items.push(Box::new(free));
            }
            None => g.push(Bag { epoch, bytes, items: vec![Box::new(free)] }),
        }
    }

    /// Bytes currently retired and awaiting quiescence — the memory-bounding
    /// gauge. A working reclamation scheme keeps this far below
    /// [`Collector::reclaimed_bytes`] during long delete-heavy runs.
    #[must_use]
    pub fn retired_bytes(&self) -> u64 {
        self.inner.retired_bytes.load(Ordering::Relaxed)
    }

    /// High-water mark of [`Collector::retired_bytes`] since construction (or
    /// the last [`Collector::reset_peak`]).
    #[must_use]
    pub fn peak_retired_bytes(&self) -> u64 {
        self.inner.peak_retired_bytes.load(Ordering::Relaxed)
    }

    /// Cumulative bytes handed back to the allocator.
    #[must_use]
    pub fn reclaimed_bytes(&self) -> u64 {
        self.inner.reclaimed_bytes.load(Ordering::Relaxed)
    }

    /// Reset the peak gauge to the current retired level (per-phase reporting).
    pub fn reset_peak(&self) {
        self.inner
            .peak_retired_bytes
            .store(self.inner.retired_bytes.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Slots owned by a session, pinned or not (tests only).
    #[cfg(test)]
    pub(crate) fn occupied_slots(&self) -> usize {
        self.inner.slots.iter().filter(|s| s.state.load(Ordering::SeqCst) != FREE).count()
    }

    /// Eagerly advance and collect until no further garbage can be freed.
    /// With no session pinned this drains everything (two epoch advances move
    /// any bag out of its protection window); with pinned sessions it frees
    /// what quiescence already allows and returns.
    pub fn flush(&self) {
        loop {
            let before = self.inner.retired_bytes.load(Ordering::Relaxed);
            let epoch_before = self.inner.epoch.load(Ordering::SeqCst);
            self.inner.try_collect();
            let after = self.inner.retired_bytes.load(Ordering::Relaxed);
            if after == 0 {
                return;
            }
            if after == before && self.inner.epoch.load(Ordering::SeqCst) == epoch_before {
                return; // a pinned session blocks further progress
            }
        }
    }
}

/// A registered participant: one announcement slot in a [`Collector`].
///
/// Not `Sync`, and pinning takes `&mut self`: a session belongs to one thread
/// of control. Dropping it releases the slot.
pub struct Session {
    inner: Arc<Inner>,
    idx: usize,
    depth: u32,
}

impl Session {
    fn slot(&self) -> &Slot {
        &self.inner.slots[self.idx]
    }

    pub(crate) fn pin_raw(&mut self) {
        if self.depth == 0 {
            note_pinned(&self.inner, true);
            loop {
                let e = self.inner.epoch.load(Ordering::Relaxed);
                self.slot().state.store(e, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                // Re-check: if the epoch moved past the announcement, re-announce
                // so the pin is never more than one epoch behind.
                if self.inner.epoch.load(Ordering::SeqCst) == e {
                    break;
                }
            }
        }
        self.depth += 1;
    }

    pub(crate) fn unpin_raw(&mut self) {
        debug_assert!(self.depth > 0, "unbalanced epoch unpin");
        self.depth -= 1;
        if self.depth == 0 {
            self.slot().state.store(UNPINNED, Ordering::SeqCst);
            note_pinned(&self.inner, false);
            let ticks = self.inner.unpin_ticks.fetch_add(1, Ordering::Relaxed) + 1;
            if ticks % COLLECT_EVERY == 0 {
                self.inner.try_collect();
            }
        }
    }

    /// Pin the session: until the returned guard drops, no memory retired from
    /// this epoch onward is reclaimed. Reentrant (nested pins are counted).
    pub fn pin(&mut self) -> Guard<'_> {
        self.pin_raw();
        Guard { session: self, _not_send: PhantomData }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // A live Guard borrows the session mutably, so depth is 0 here.
        self.slot().state.store(FREE, Ordering::SeqCst);
    }
}

/// RAII pin over a borrowed [`Session`]; unpins (and occasionally collects) on
/// drop. Stays on the thread that pinned: the thread's record of its pins (see
/// [`Collector::enter`]) must see the unpin.
pub struct Guard<'s> {
    session: &'s mut Session,
    _not_send: PhantomData<*const ()>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.session.unpin_raw();
    }
}

/// RAII register-and-pin over an owned slot, from [`Collector::enter`]; unpins
/// and releases the slot on drop. Holds nothing when the thread's own pinned
/// session already covers the operation.
pub struct EnterGuard {
    session: Option<Session>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        if let Some(session) = &mut self.session {
            session.unpin_raw();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn unpinned_collector_reclaims_on_flush() {
        let c = Collector::new();
        let freed = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let f = Arc::clone(&freed);
            c.defer_free(100, move || {
                f.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(c.retired_bytes(), 1_000);
        assert_eq!(c.peak_retired_bytes(), 1_000);
        c.flush();
        assert_eq!(c.retired_bytes(), 0);
        assert_eq!(c.reclaimed_bytes(), 1_000);
        assert_eq!(freed.load(Ordering::Relaxed), 10);
        // Peak survives the flush until reset.
        assert_eq!(c.peak_retired_bytes(), 1_000);
        c.reset_peak();
        assert_eq!(c.peak_retired_bytes(), 0);
    }

    #[test]
    fn pinned_session_blocks_reclamation() {
        let c = Collector::new();
        let freed = Arc::new(AtomicUsize::new(0));
        let mut s = c.register();
        let guard = s.pin();
        let f = Arc::clone(&freed);
        c.defer_free(64, move || {
            f.fetch_add(1, Ordering::Relaxed);
        });
        c.flush();
        assert_eq!(freed.load(Ordering::Relaxed), 0, "pinned epoch must protect garbage");
        assert_eq!(c.retired_bytes(), 64);
        drop(guard);
        c.flush();
        assert_eq!(freed.load(Ordering::Relaxed), 1);
        assert_eq!(c.retired_bytes(), 0);
    }

    #[test]
    fn pin_is_reentrant() {
        let c = Collector::new();
        let mut s = c.register();
        {
            let _outer = s.pin();
        }
        {
            let _g1 = s.pin();
            // Reborrow through the guard's session is not possible; reentrancy
            // is exercised through the index-internal enter() path instead.
        }
        let e = c.enter();
        let freed = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&freed);
        c.defer_free(1, move || {
            f.fetch_add(1, Ordering::Relaxed);
        });
        c.flush();
        assert_eq!(freed.load(Ordering::Relaxed), 0);
        drop(e);
        c.flush();
        assert_eq!(freed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn enter_under_a_pinned_session_takes_no_slot() {
        let c = Collector::new();
        let mut s = c.register();
        assert_eq!(c.occupied_slots(), 1);
        {
            let _pin = s.pin();
            let _inner = c.enter();
            assert_eq!(c.occupied_slots(), 1, "the held pin covers the enter");
            let other = Collector::new();
            let _elsewhere = other.enter();
            assert_eq!(other.occupied_slots(), 1, "another collector still registers");
        }
        // Unpinned again: enter registers (and pins) a slot of its own.
        let e = c.enter();
        assert_eq!(c.occupied_slots(), 2);
        drop(e);
        assert_eq!(c.occupied_slots(), 1);
        // A pin on another thread does not cover this one.
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel();
            let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
            let c = &c;
            scope.spawn(move || {
                let mut t = c.register();
                let _pin = t.pin();
                tx.send(()).unwrap();
                done_rx.recv().unwrap();
            });
            rx.recv().unwrap();
            let _mine = c.enter();
            assert_eq!(c.occupied_slots(), 3, "own session, the other thread's, this enter");
            done_tx.send(()).unwrap();
        });
    }

    #[test]
    fn slots_are_reusable_after_session_drop() {
        let c = Collector::new();
        for _ in 0..MAX_SLOTS * 3 {
            let mut s = c.register();
            let _g = s.pin();
        }
    }

    #[test]
    fn concurrent_pin_retire_collect_is_safe() {
        let c = Arc::new(Collector::new());
        let freed = Arc::new(AtomicUsize::new(0));
        let retired = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                let freed = Arc::clone(&freed);
                let retired = Arc::clone(&retired);
                scope.spawn(move || {
                    let mut s = c.register();
                    for i in 0..2_000 {
                        let _g = s.pin();
                        if i % 7 == 0 {
                            let f = Arc::clone(&freed);
                            retired.fetch_add(1, Ordering::Relaxed);
                            c.defer_free(32, move || {
                                f.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    }
                });
            }
        });
        c.flush();
        assert_eq!(freed.load(Ordering::Relaxed), retired.load(Ordering::Relaxed));
        assert_eq!(c.retired_bytes(), 0);
        assert!(c.reclaimed_bytes() > 0);
    }
}
