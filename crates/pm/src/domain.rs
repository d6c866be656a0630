//! The PM domain: the crash arming, the durability tracker and the installed
//! latency model of one simulated machine, held as one value.
//!
//! A thread finds its domain through one thread-local pointer. A thread that never
//! entered one uses the process domain, so code that never names a domain sees that
//! state as process-wide. [`Domain::enter`] binds a domain to the calling thread
//! until its guard drops; code that runs index operations on threads of its own
//! enters the domain of the thread that asked for them.

use crate::{crash::Armed, latency::Model, tracker::Lines};
use parking_lot::Mutex;
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8};
use std::sync::{Arc, LazyLock};

/// The state of one simulated PM machine; see the module docs.
#[derive(Default)]
pub struct Domain {
    /// The crash mode, read without the lock on every site hit.
    pub(crate) crash_mode: AtomicU8,
    pub(crate) crash: Mutex<Armed>,
    pub(crate) tracking: AtomicBool,
    pub(crate) tracker: Mutex<Option<Lines>>,
    pub(crate) model: Mutex<Model>,
    /// Bumps on every install of `model`.
    pub(crate) model_epoch: AtomicU64,
}

static PROCESS: LazyLock<Arc<Domain>> = LazyLock::new(Arc::default);

thread_local! {
    /// The calling thread's domain; null until first resolved.
    static BOUND: Cell<*const Domain> = const { Cell::new(std::ptr::null()) };
    /// Keeps the domain `BOUND` points at alive (`None`: the process domain).
    static OWNER: Owner = const { Owner(Cell::new(None)) };
}

/// The cell of `OWNER`. A thread that exits still bound (its guard forgotten)
/// falls back to the process domain before the owner goes.
struct Owner(Cell<Option<Arc<Domain>>>);

impl Drop for Owner {
    fn drop(&mut self) {
        BOUND.set(std::ptr::null());
    }
}

/// Run `f` on the calling thread's domain.
#[inline]
pub(crate) fn with<R>(f: impl FnOnce(&Domain) -> R) -> R {
    let mut p = BOUND.get();
    if p.is_null() {
        p = bind_process();
    }
    // SAFETY: `p` is the process domain, never dropped, or the one `OWNER` holds;
    // only `bind` changes either, and `f` never calls it.
    f(unsafe { &*p })
}

/// First resolution on a thread that entered no domain: the process domain.
#[cold]
fn bind_process() -> *const Domain {
    BOUND.set(Arc::as_ptr(&PROCESS));
    BOUND.get()
}

/// Point the calling thread at `d`; returns the owner it replaces.
fn bind(d: Option<Arc<Domain>>) -> Option<Arc<Domain>> {
    BOUND.set(d.as_ref().map_or(std::ptr::null(), Arc::as_ptr));
    crate::latency::rebind();
    OWNER.with(|o| o.0.replace(d))
}

/// A domain bound to its thread. Holds the previous owner if entering changed the
/// thread's domain, and restores it on drop.
#[must_use = "the domain is bound only while the guard lives"]
pub struct Entered(Option<Option<Arc<Domain>>>, PhantomData<*const ()>);

impl Domain {
    /// A fresh domain: injector disarmed, tracker off, zero model installed.
    #[must_use]
    pub fn new() -> Arc<Domain> {
        Arc::default()
    }

    /// The calling thread's domain.
    #[must_use]
    pub fn current() -> Arc<Domain> {
        let owner = OWNER.with(|o| {
            let owner = o.0.take();
            o.0.set(owner.clone());
            owner
        });
        owner.unwrap_or_else(|| Arc::clone(&PROCESS))
    }

    /// Bind this domain to the calling thread until the guard drops. Entering the
    /// thread's own domain changes and resets nothing.
    pub fn enter(self: &Arc<Self>) -> Entered {
        let same = with(|d| std::ptr::eq(d, &**self));
        Entered((!same).then(|| bind(Some(Arc::clone(self)))), PhantomData)
    }
}

impl Drop for Entered {
    fn drop(&mut self) {
        if let Some(prev) = self.0.take() {
            bind(prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{charged_local, Model};
    use crate::{flush, stats, tracker};

    #[test]
    fn a_model_and_a_tracker_act_only_in_their_own_domain() {
        let (priced, tracked) = (Domain::new(), Domain::new());
        let _d = tracked.enter();
        tracker::enable();
        let x = [0u8; 64];
        let addr = x.as_ptr() as usize;
        std::thread::scope(|s| {
            s.spawn(|| {
                let _d = priced.enter();
                Model { clwb_ns: 100, fence_ns: 100, read_ns: 100, eadr: false }.install();
                tracker::on_store(addr, 8);
                let before = charged_local();
                flush::persist_range(x.as_ptr(), 64, true);
                assert!(charged_local().since(&before).total() > 0, "priced in its own domain");
            });
        });
        assert!(tracker::check(true).is_durable(), "recorded another domain's store");
        let before = charged_local();
        flush::persist_range(x.as_ptr(), 64, true);
        stats::record_node_visits(3);
        assert_eq!(charged_local().since(&before).total(), 0, "charged by another domain's model");
        tracker::on_store(addr, 8);
        assert_eq!(tracker::check(false).unflushed.len(), 1, "its own domain's store");
        tracker::disable();
    }

    #[test]
    fn entering_nests_and_restores_the_previous_domain() {
        let outer = Domain::new();
        let _o = outer.enter();
        Model { clwb_ns: 7, fence_ns: 0, read_ns: 0, eadr: false }.install();
        {
            let _i = Domain::new().enter();
            assert!(Model::current().is_zero());
            let _again = Domain::current().enter();
            assert!(Model::current().is_zero());
        }
        assert!(Arc::ptr_eq(&Domain::current(), &outer));
        assert_eq!(Model::current().clwb_ns, 7);
        // Re-entering the bound domain keeps the flush de-dup epoch.
        let before = charged_local();
        flush::clwb(std::ptr::null());
        let _same = outer.enter();
        flush::clwb(std::ptr::null());
        assert_eq!(charged_local().since(&before).clwb_ns, 7, "one charge: the epoch survived");
    }
}
