//! Durability tracker: the reproduction of the paper's PIN-based durability test (§5).
//!
//! The paper traces all allocations (`malloc`, `posix_memalign`, `new`), all stores to
//! the allocated regions, and all cache-line flushes, then verifies that *every dirtied
//! cache line is flushed to PM*. Without binary instrumentation we achieve the same
//! check by having the PM-mode persistence policy report stores ([`on_store`]) and
//! allocations ([`on_alloc`]), and the flush primitives report write-backs
//! ([`on_flush`]) and fences ([`on_fence`]).
//!
//! Cache-line state machine:
//!
//! ```text
//!            on_store              on_flush              on_fence
//!  (clean) ───────────▶  dirty  ───────────▶  pending  ───────────▶ durable (clean)
//! ```
//!
//! A durability check ([`check`]) fails if any tracked line is still `dirty` — i.e. a
//! store was never followed by a flush — or, when `strict` is requested, if a line is
//! still `pending` (flushed but never fenced).
//!
//! [`check`] looks at the end of an operation, so it cannot tell a fence that came
//! *after* a publishing store from one that came before it. [`assert_durable`] is the
//! ordering check: a conversion calls it (through `PersistMode::assert_durable`) right
//! before the store that makes an object reachable, and it panics if any line of the
//! object is still `dirty` or `pending` — the object would be reachable before it is
//! durable. Like the rest of the tracker it is line-granular and shared by every
//! thread of its domain, so it is meant for one writer at a time per domain.
//!
//! Tracking is per [`crate::Domain`] and disabled by default (a thread-local
//! pointer and a relaxed load on the fast path), so benchmarks pay nothing for it.

use crate::line_of;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::Ordering;

/// A domain's tracked allocations and line states, present while tracking is on.
#[derive(Default)]
pub(crate) struct Lines {
    /// Tracked allocation ranges: start → length.
    allocs: BTreeMap<usize, usize>,
    /// Lines with stores not yet flushed.
    dirty: HashSet<usize>,
    /// Lines flushed but not yet made durable by a fence.
    pending: HashSet<usize>,
}

/// Run `f` on the line states, if tracking is on in the calling thread's domain.
#[inline]
fn tracked<R>(f: impl FnOnce(&mut Lines) -> R) -> Option<R> {
    crate::domain::with(|d| {
        if !d.tracking.load(Ordering::Relaxed) {
            return None;
        }
        d.tracker.lock().as_mut().map(f)
    })
}

/// Result of a durability [`check`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurabilityReport {
    /// Cache lines that were dirtied by a store but never flushed.
    pub unflushed: Vec<usize>,
    /// Cache lines that were flushed but never covered by a fence.
    pub unfenced: Vec<usize>,
    /// Number of allocations registered while tracking was enabled.
    pub allocations: usize,
}

impl DurabilityReport {
    /// True when every dirtied line was flushed (and, if `strict` was used, fenced).
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.unflushed.is_empty() && self.unfenced.is_empty()
    }
}

/// Enable tracking and clear any previous state.
pub fn enable() {
    crate::domain::with(|d| {
        *d.tracker.lock() = Some(Lines::default());
        d.tracking.store(true, Ordering::SeqCst);
    });
}

/// Disable tracking and drop all state.
pub fn disable() {
    crate::domain::with(|d| {
        d.tracking.store(false, Ordering::SeqCst);
        *d.tracker.lock() = None;
    });
}

/// Whether tracking is currently enabled.
#[inline]
pub fn enabled() -> bool {
    crate::domain::with(|d| d.tracking.load(Ordering::Relaxed))
}

/// Record an allocation of `len` bytes at `addr` (called by [`crate::alloc`]).
pub fn on_alloc(addr: usize, len: usize) {
    tracked(|s| s.allocs.insert(addr, len));
}

/// Record a store of `len` bytes at `addr`: the overlapped cache lines become dirty.
pub fn on_store(addr: usize, len: usize) {
    if len == 0 {
        return;
    }
    tracked(|s| {
        for line in (line_of(addr)..addr + len).step_by(crate::CACHE_LINE) {
            s.pending.remove(&line);
            s.dirty.insert(line);
        }
    });
}

/// Record a cache-line write-back of the line starting at `line_addr`.
pub fn on_flush(line_addr: usize) {
    tracked(|s| {
        if s.dirty.remove(&line_addr) {
            s.pending.insert(line_addr);
        }
    });
}

/// Record a store fence: all pending lines become durable.
pub fn on_fence() {
    tracked(|s| s.pending.clear());
}

/// Run the durability check. With `strict`, lines that were flushed but not yet fenced
/// are also reported (the paper's conversions always end an operation with a fence).
pub fn check(strict: bool) -> DurabilityReport {
    tracked(|s| {
        let mut unflushed: Vec<usize> = s.dirty.iter().copied().collect();
        unflushed.sort_unstable();
        let mut unfenced: Vec<usize> =
            if strict { s.pending.iter().copied().collect() } else { Vec::new() };
        unfenced.sort_unstable();
        DurabilityReport { unflushed, unfenced, allocations: s.allocs.len() }
    })
    .unwrap_or_default()
}

/// Panic unless every cache line overlapping `[addr, addr + len)` is durable: neither
/// `dirty` (stored, never flushed) nor `pending` (flushed, no fence since).
///
/// The publish-ordering check of the conversions: call it on an object immediately
/// before the store that makes the object reachable. A no-op while tracking is
/// disabled. It is an `assert!`, not a `debug_assert!`: release builds keep it.
///
/// # Panics
/// If tracking is enabled and a line of the range is not durable.
pub fn assert_durable(addr: usize, len: usize) {
    if len == 0 {
        return;
    }
    // Decide under the lock, panic after releasing it.
    let offending = tracked(|s| {
        (line_of(addr)..addr + len).step_by(crate::CACHE_LINE).find_map(|line| {
            if s.dirty.contains(&line) {
                Some((line, "dirty (stored, never flushed)"))
            } else if s.pending.contains(&line) {
                Some((line, "flushed but not yet fenced"))
            } else {
                None
            }
        })
    });
    if let Some(Some((line, state))) = offending {
        panic!("publish before durable: line {line:#x} of [{addr:#x}, +{len}) is {state}");
    }
}

/// Forget all dirty/pending state but keep tracking enabled. Used between the load
/// phase and the test phase of the durability test.
pub fn clear_lines() {
    crate::domain::with(|d| {
        if let Some(s) = d.tracker.lock().as_mut() {
            s.dirty.clear();
            s.pending.clear();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_flush_fence_cycle_is_durable() {
        let _d = crate::Domain::new().enter();
        enable();
        on_alloc(0x1000, 128);
        on_store(0x1000, 16);
        on_flush(line_of(0x1000));
        on_fence();
        let r = check(true);
        assert!(r.is_durable(), "{r:?}");
        assert_eq!(r.allocations, 1);
        disable();
    }

    #[test]
    fn missing_flush_is_reported() {
        let _d = crate::Domain::new().enter();
        enable();
        on_store(0x2000, 8);
        on_store(0x2040, 8);
        on_flush(0x2000);
        on_fence();
        let r = check(false);
        assert_eq!(r.unflushed, vec![0x2040]);
        assert!(!r.is_durable());
        disable();
    }

    #[test]
    fn missing_fence_reported_only_in_strict_mode() {
        let _d = crate::Domain::new().enter();
        enable();
        on_store(0x3000, 8);
        on_flush(0x3000);
        assert!(check(false).is_durable());
        assert!(!check(true).is_durable());
        disable();
    }

    #[test]
    fn store_after_flush_re_dirties_the_line() {
        let _d = crate::Domain::new().enter();
        enable();
        on_store(0x4000, 8);
        on_flush(0x4000);
        on_store(0x4000, 8);
        on_fence();
        let r = check(false);
        assert_eq!(r.unflushed, vec![0x4000]);
        disable();
    }

    /// `assert_durable(addr, len)` as a `Result`.
    fn durable(addr: usize, len: usize) -> Result<(), String> {
        std::panic::catch_unwind(|| assert_durable(addr, len))
            .map_err(|p| p.downcast_ref::<String>().cloned().unwrap_or_default())
    }

    #[test]
    fn assert_durable_rejects_a_dirty_line() {
        let _d = crate::Domain::new().enter();
        enable();
        on_store(0x6000, 8);
        let err = durable(0x6000, 8).expect_err("a stored, unflushed line is not durable");
        assert!(err.contains("dirty"), "{err}");
        disable();
    }

    #[test]
    fn assert_durable_rejects_a_flushed_but_unfenced_line() {
        let _d = crate::Domain::new().enter();
        enable();
        on_store(0x6100, 8);
        on_flush(line_of(0x6100));
        let err = durable(0x6100, 8).expect_err("a flush without a fence is not durable");
        assert!(err.contains("not yet fenced"), "{err}");
        disable();
    }

    #[test]
    fn assert_durable_accepts_a_fenced_line_and_untouched_memory() {
        let _d = crate::Domain::new().enter();
        enable();
        on_store(0x6200, 8);
        on_flush(line_of(0x6200));
        on_fence();
        assert_eq!(durable(0x6200, 8), Ok(()));
        assert_eq!(durable(0x7000, 256), Ok(()), "never-stored lines are durable");
        assert_eq!(durable(0x6200, 0), Ok(()), "an empty range has no lines");
        disable();
    }

    #[test]
    fn assert_durable_covers_every_line_of_the_range() {
        let _d = crate::Domain::new().enter();
        enable();
        // 16 bytes from 0x6338 span the lines at 0x6300 and 0x6340.
        on_store(0x6338, 16);
        on_flush(0x6300);
        on_fence();
        assert_eq!(durable(0x6300, 0x38), Ok(()), "the fenced first line alone");
        let err = durable(0x6338, 16).expect_err("the second line was never flushed");
        assert!(err.contains("0x6340") && err.contains("dirty"), "{err}");
        on_flush(0x6340);
        on_fence();
        assert_eq!(durable(0x6338, 16), Ok(()));
        disable();
    }

    #[test]
    fn assert_durable_is_a_no_op_while_disabled() {
        let _d = crate::Domain::new().enter();
        disable();
        on_store(0x6400, 8);
        assert_eq!(durable(0x6400, 8), Ok(()));
    }

    #[test]
    fn disabled_tracker_reports_nothing() {
        let _d = crate::Domain::new().enter();
        disable();
        on_store(0x5000, 8);
        assert!(check(true).is_durable());
    }
}
