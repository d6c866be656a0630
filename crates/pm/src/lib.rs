//! # `pm` — simulated persistent-memory substrate
//!
//! The RECIPE paper evaluates its converted indexes on Intel Optane DC Persistent
//! Memory. This crate provides the substrate that every index in this workspace uses
//! instead of real PM hardware:
//!
//! * [`flush`] — `clwb` / `sfence` analogues. Each call is counted (for the paper's
//!   per-operation instruction counters, Fig. 4c/4d and Table 4), priced by the
//!   installed [`latency`] model (so flush-heavy indexes are measurably slower,
//!   reproducing the *shape* of the paper's throughput results), and reported to the
//!   durability [`tracker`].
//! * [`latency`] — the calibrated, asymmetric Optane-like cost model: per-visit read
//!   charges, per-cacheline flush coalescing within a fence epoch, an eADR mode, and
//!   deterministic charged-ns accounting.
//! * [`stats`] — the counters: cache-line flushes, fences, and node visits (a proxy
//!   for last-level-cache misses: every pointer chase into an index node is counted),
//!   kept in one padded slab per thread and summed by the process-wide readers.
//! * [`alloc`] — allocation helpers that register new PM objects with the durability
//!   tracker, mirroring the paper's PIN-based tracing of `malloc`/`new`.
//! * [`tracker`] — shadow cache-line state machine (dirty → flush-pending → durable)
//!   used by the §5 durability test: "all dirtied cache lines in allocated memory
//!   ranges are flushed to PM".
//! * [`crash`] — named crash sites placed between the atomic steps of insert and
//!   structure-modification operations, implementing the paper's targeted
//!   crash-state generation (§5).
//! * [`obs_bridge`] — registers an `obs` collector so one `obs::snapshot()`
//!   export carries the substrate's counters, per-mapping probes, and
//!   charged-ns breakdown alongside the rest of the stack's metrics.
//!
//! The substrate is deliberately process-local and heap-backed: the paper itself notes
//! that its crash-recovery methodology "does not require actual PM; we are able to
//! emulate crashes using DRAM" (§5).

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod alloc;
pub mod crash;
pub mod flush;
pub mod latency;
pub mod obs_bridge;
pub mod stats;
pub mod tracker;

/// Size of a cache line on the simulated machine, in bytes.
///
/// All flush accounting and durability tracking is performed at this granularity,
/// matching the paper's use of `clwb` on 64-byte lines.
pub const CACHE_LINE: usize = 64;

/// Round an address down to the start of its cache line.
#[inline]
pub fn line_of(addr: usize) -> usize {
    addr & !(CACHE_LINE - 1)
}

/// SplitMix64 finalizer: a fast, well-mixed 64-bit hash step.
///
/// The single source of the pseudo-random mixing used across the workspace
/// (crash-point selection, sweep state derivation, sharded workload
/// generation), so every deterministic stream stays in sync with one
/// definition.
#[inline]
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_rounds_down() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 64);
        assert_eq!(line_of(65), 64);
        assert_eq!(line_of(128 + 17), 128);
    }

    #[test]
    fn cache_line_is_power_of_two() {
        assert!(CACHE_LINE.is_power_of_two());
    }
}
