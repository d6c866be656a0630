//! Cache-line flush and fence primitives for the simulated PM.
//!
//! On real hardware the RECIPE conversion inserts `clwb` (cache-line write-back) and
//! `sfence`/`mfence` instructions after stores to persistent memory. In this
//! reproduction every flush and fence goes through this module so that:
//!
//! 1. the paper's per-operation instruction counters can be collected (the calling
//!    thread's [`crate::stats`] slab; elided fences are a field of the same slab),
//! 2. a configurable synthetic latency can be charged per flush/fence, letting the
//!    benchmark harness reproduce the paper's throughput *shape* (flush-heavy indexes
//!    lose) without Optane hardware, and
//! 3. the durability [`crate::tracker`] observes which cache lines became durable,
//!    implementing the §5 durability test.
//!
//! These functions take raw addresses but never dereference them; they are safe to
//! call with any pointer value.

use crate::{latency, line_of, stats, tracker, CACHE_LINE};
use std::cell::Cell;

thread_local! {
    /// Nesting depth of active [`FenceCoalesce`] guards on this thread.
    static COALESCE_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Whether a fence was requested (and elided) inside the current region.
    static FENCE_PENDING: Cell<bool> = const { Cell::new(false) };
}

/// Total fences elided by [`coalesce_fences`] regions since process start, summed
/// over all threads (exited ones included).
///
/// The batching evidence for the service layer: at the same op count, a batched
/// shard worker shows this counter climbing while `stats` fence counts stay flat.
#[must_use]
pub fn elided_fences() -> u64 {
    stats::totals()[stats::ELIDED_FENCES]
}

/// RAII guard for a fence-coalescing region; see [`coalesce_fences`].
#[must_use = "fences are only coalesced while the guard is alive"]
pub struct FenceCoalesce {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Open a fence-coalescing region on the calling thread.
///
/// While the returned guard is alive, [`sfence`] calls on this thread are
/// *elided*: they only mark the region dirty (and bump [`elided_fences`]).
/// When the outermost guard drops, a single real fence is issued iff any fence
/// was requested inside the region. This is the group-commit primitive the
/// service shard workers use to amortize one fence epoch across a whole
/// request batch: per-op `clwb`s still dedup per line via [`latency`], and the
/// batch's single closing fence makes them all durable at once.
///
/// Regions nest; only the outermost drop fences. If the thread unwinds (a
/// simulated crash site fired mid-batch), the pending fence is *dropped*, not
/// issued — a real power failure would lose posted-but-unfenced write-backs,
/// and the durability [`crate::tracker`] must observe exactly that.
pub fn coalesce_fences() -> FenceCoalesce {
    COALESCE_DEPTH.with(|d| d.set(d.get() + 1));
    FenceCoalesce { _not_send: std::marker::PhantomData }
}

/// Whether the calling thread is inside a [`coalesce_fences`] region, where every
/// ordering fence is deferred to the region's end.
#[inline]
#[must_use]
pub fn coalescing() -> bool {
    COALESCE_DEPTH.with(Cell::get) > 0
}

impl Drop for FenceCoalesce {
    fn drop(&mut self) {
        let depth = COALESCE_DEPTH.with(|d| {
            let v = d.get() - 1;
            d.set(v);
            v
        });
        if depth == 0 && FENCE_PENDING.with(|p| p.replace(false)) && !std::thread::panicking() {
            sfence();
        }
    }
}

/// Write back (flush) the cache line containing `addr`.
///
/// Equivalent to the `clwb` instruction in the paper's conversion actions: the line is
/// queued for write-back to the persistence domain but only becomes durable once a
/// subsequent [`sfence`] completes. Counted by [`crate::stats`], observed by the
/// durability [`crate::tracker`], and priced by the installed [`latency::Model`]
/// (first flush of a line per fence epoch; repeats coalesce).
#[inline]
pub fn clwb(addr: *const u8) {
    let line = line_of(addr as usize);
    stats::bump(stats::CLWB, 1);
    tracker::on_flush(line);
    latency::on_clwb(line);
}

/// Store fence: all previously issued [`clwb`]s become durable.
///
/// Equivalent to `sfence`/`mfence` ordering in the paper. Closes the calling
/// thread's flush-coalescing epoch in the [`latency`] model.
#[inline]
pub fn sfence() {
    if coalescing() {
        FENCE_PENDING.with(|p| p.set(true));
        stats::bump(stats::ELIDED_FENCES, 1);
        return;
    }
    stats::bump(stats::FENCE, 1);
    tracker::on_fence();
    latency::on_fence();
}

/// Flush every cache line overlapping `[addr, addr + len)` and optionally fence.
///
/// This is the workhorse used by the `Pmem` persistence policy: the RECIPE conversion
/// action "insert cache line flush and memory fence instructions after each store".
#[inline]
pub fn persist_range(addr: *const u8, len: usize, fence: bool) {
    if len == 0 {
        if fence {
            sfence();
        }
        return;
    }
    let start = line_of(addr as usize);
    let end = addr as usize + len;
    let mut line = start;
    while line < end {
        clwb(line as *const u8);
        line += CACHE_LINE;
    }
    if fence {
        sfence();
    }
}

/// Flush the object referenced by `ptr` (all cache lines it spans) and optionally fence.
#[inline]
pub fn persist_obj<T>(ptr: *const T, fence: bool) {
    persist_range(ptr.cast::<u8>(), std::mem::size_of::<T>(), fence);
}

/// Number of cache lines spanned by `[addr, addr + len)`. Exposed for tests and for
/// allocators that want to pre-account flush costs.
#[must_use]
pub fn lines_spanned(addr: usize, len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let first = line_of(addr);
    let last = line_of(addr + len - 1);
    (last - first) / CACHE_LINE + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_spanned_counts_correctly() {
        assert_eq!(lines_spanned(0, 0), 0);
        assert_eq!(lines_spanned(0, 1), 1);
        assert_eq!(lines_spanned(0, 64), 1);
        assert_eq!(lines_spanned(0, 65), 2);
        assert_eq!(lines_spanned(63, 2), 2);
        assert_eq!(lines_spanned(100, 200), lines_spanned(100 % 64, 200));
    }

    #[test]
    fn persist_range_counts_one_clwb_per_line() {
        let buf = vec![0u8; 4096];
        let before = stats::snapshot_local();
        persist_range(buf.as_ptr(), 256, true);
        let d = stats::snapshot_local().since(&before);
        let expected = lines_spanned(buf.as_ptr() as usize, 256) as u64;
        assert_eq!(d.clwb, expected);
        assert_eq!(d.fence, 1);
    }

    #[test]
    fn persist_obj_flushes_whole_object() {
        #[repr(align(64))]
        struct Big {
            _bytes: [u8; 192],
        }
        let b = Big { _bytes: [0; 192] };
        let before = stats::snapshot_local();
        persist_obj(&b, false);
        let d = stats::snapshot_local().since(&before);
        assert_eq!(d.clwb, 3);
        assert_eq!(d.fence, 0);
    }

    #[test]
    fn coalesced_region_issues_one_fence() {
        let x = 0u8;
        let before = stats::snapshot_local();
        let elided_before = elided_fences();
        {
            let _g = coalesce_fences();
            for _ in 0..8 {
                persist_range(&x, 1, true);
            }
            let mid = stats::snapshot_local().since(&before);
            assert_eq!(mid.fence, 0, "fences inside the region must be elided");
        }
        let d = stats::snapshot_local().since(&before);
        assert_eq!(d.fence, 1, "outermost drop issues exactly one fence");
        // Global counter; other test threads may also elide concurrently.
        assert!(elided_fences() - elided_before >= 8);
    }

    #[test]
    fn nested_regions_fence_once_at_outermost_drop() {
        let x = 0u8;
        let before = stats::snapshot_local();
        {
            let _outer = coalesce_fences();
            {
                let _inner = coalesce_fences();
                sfence();
                persist_range(&x, 1, true);
            }
            // Inner drop must not fence while the outer region is alive.
            assert_eq!(stats::snapshot_local().since(&before).fence, 0);
        }
        assert_eq!(stats::snapshot_local().since(&before).fence, 1);
    }

    #[test]
    fn clean_region_drops_without_fencing() {
        let before = stats::snapshot_local();
        {
            let _g = coalesce_fences();
        }
        assert_eq!(stats::snapshot_local().since(&before).fence, 0);
    }

    #[test]
    fn unwinding_region_drops_pending_fence() {
        let before = stats::snapshot_local();
        let _ = std::panic::catch_unwind(|| {
            let _g = coalesce_fences();
            sfence();
            std::panic::panic_any("simulated crash");
        });
        let d = stats::snapshot_local().since(&before);
        assert_eq!(d.fence, 0, "a crash mid-batch must not retroactively fence");
        // The thread-local depth must be restored so later fences are real.
        sfence();
        assert_eq!(stats::snapshot_local().since(&before).fence, 1);
    }

    #[test]
    fn zero_len_persist_only_fences_when_asked() {
        let x = 0u8;
        let before = stats::snapshot_local();
        persist_range(&x, 0, false);
        persist_range(&x, 0, true);
        let d = stats::snapshot_local().since(&before);
        assert_eq!(d.clwb, 0);
        assert_eq!(d.fence, 1);
    }
}
