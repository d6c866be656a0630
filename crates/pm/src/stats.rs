//! Performance counters for the simulated PM substrate.
//!
//! The paper explains its throughput results with three low-level counters collected
//! per operation (Fig. 4c, Fig. 4d, Table 4): the number of `clwb` instructions, the
//! number of memory fences, and the number of last-level-cache misses. This module
//! provides the first two directly and a *node visit* counter as the LLC-miss proxy
//! (each pointer dereference into an index node is one likely-cold cache line touch).
//!
//! Every counter of the substrate — these three, the per-mapping probes, and the
//! charged nanoseconds, elided fences and allocation and free totals of
//! [`crate::latency`], [`crate::flush`] and [`crate::alloc`] — is a field of one
//! cache-line-padded **slab per thread**, written only by its owner with a plain
//! load + store, so counting shares no line between the workers it is there to
//! explain. The process-wide readers ([`snapshot`], [`probes`], …) sum the live
//! slabs plus the total of every exited thread; the `*_local` readers return the
//! calling thread's slab alone, which is what a test asserting exact deltas must use
//! (libtest runs tests concurrently).

use parking_lot::Mutex;
use std::array::from_fn;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Slab field indices; [`PROBES`] starts a run of [`Mapping::COUNT`] fields.
pub(crate) const CLWB: usize = 0;
pub(crate) const FENCE: usize = 1;
pub(crate) const NODE_VISITS: usize = 2;
pub(crate) const PROBES: usize = 3;
pub(crate) const CHARGED_CLWB_NS: usize = PROBES + Mapping::COUNT;
pub(crate) const CHARGED_FENCE_NS: usize = CHARGED_CLWB_NS + 1;
pub(crate) const CHARGED_READ_NS: usize = CHARGED_CLWB_NS + 2;
pub(crate) const ELIDED_FENCES: usize = CHARGED_CLWB_NS + 3;
pub(crate) const ALLOC_OBJECTS: usize = CHARGED_CLWB_NS + 4;
pub(crate) const ALLOC_BYTES: usize = CHARGED_CLWB_NS + 5;
pub(crate) const FREED_OBJECTS: usize = CHARGED_CLWB_NS + 6;
pub(crate) const FREED_BYTES: usize = CHARGED_CLWB_NS + 7;
const FIELDS: usize = FREED_BYTES + 1;

/// The value of every field: one slab's, or a sum over slabs.
pub(crate) type Counts = [u64; FIELDS];

/// One thread's counters, aligned to a pair of cache lines so neither a
/// neighbouring slab nor the adjacent-line prefetcher shares them.
#[derive(Default)]
#[repr(align(128))]
struct Slab([AtomicU64; FIELDS]);

impl Slab {
    fn read(&self) -> Counts {
        from_fn(|f| self.0[f].load(Relaxed))
    }
}

/// Every live thread's slab, plus the summed counts of the threads that exited.
struct Registry {
    live: Vec<Arc<Slab>>,
    retired: Counts,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry { live: Vec::new(), retired: [0; FIELDS] });

/// The calling thread's registration; its drop at thread exit retires the slab.
struct Local {
    slab: Arc<Slab>,
}

impl Drop for Local {
    fn drop(&mut self) {
        // Fold and unlist under one lock hold, so a concurrent sum sees this
        // thread's counts exactly once.
        let mut reg = REGISTRY.lock();
        let mine = self.slab.read();
        reg.retired = from_fn(|f| reg.retired[f] + mine[f]);
        reg.live.retain(|s| !Arc::ptr_eq(s, &self.slab));
    }
}

thread_local! {
    static LOCAL: Local = {
        let slab = Arc::<Slab>::default();
        REGISTRY.lock().live.push(Arc::clone(&slab));
        Local { slab }
    };
}

/// Add `n` to one field of the calling thread's slab. Single writer, so a relaxed
/// load + store loses nothing and needs no locked instruction.
#[inline]
pub(crate) fn bump(field: usize, n: u64) {
    LOCAL.with(|l| {
        let c = &l.slab.0[field];
        c.store(c.load(Relaxed).wrapping_add(n), Relaxed);
    });
}

/// Every field summed over all threads, exited ones included.
pub(crate) fn totals() -> Counts {
    let reg = REGISTRY.lock();
    reg.live.iter().fold(reg.retired, |sum, slab| {
        let s = slab.read();
        from_fn(|f| sum[f] + s[f])
    })
}

/// Every field of the calling thread's own slab.
pub(crate) fn local() -> Counts {
    LOCAL.with(|l| l.slab.read())
}

/// The intra-node key-search *mappings* the tries use, for per-mapping probe
/// accounting.
///
/// A **probe** is one candidate key slot examined during an intra-node search —
/// the work the vectorized search paths do in bulk. The count is defined by the
/// node's occupancy, not by the search path, so SSE2, NEON and scalar builds of
/// the same workload report identical probe counts (this is what makes the
/// counter usable as deterministic evidence on a 1-core host).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapping {
    /// ART Node4: linear keyed mapping, up to 4 slots probed.
    ArtN4 = 0,
    /// ART Node16: linear keyed mapping, up to 16 slots probed.
    ArtN16 = 1,
    /// ART Node48: indirect index array, exactly 1 probe.
    ArtN48 = 2,
    /// ART Node256: direct array, exactly 1 probe.
    ArtN256 = 3,
    /// HOT plain node: direct bit-window index, exactly 1 probe.
    HotNode = 4,
    /// HOT compound node: sparse partial-key array, occupancy slots probed.
    HotCompound = 5,
    /// APEX data node: model-predicted probe + bounded exponential search, so
    /// the count is a direct measure of model accuracy (1 = perfect prediction).
    ApexNode = 6,
}

impl Mapping {
    /// Number of distinct mappings.
    pub const COUNT: usize = 7;

    /// Every mapping, in counter order.
    pub const ALL: [Mapping; Mapping::COUNT] = [
        Mapping::ArtN4,
        Mapping::ArtN16,
        Mapping::ArtN48,
        Mapping::ArtN256,
        Mapping::HotNode,
        Mapping::HotCompound,
        Mapping::ApexNode,
    ];

    /// Short stable label for reports/CSV.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Mapping::ArtN4 => "art_n4",
            Mapping::ArtN16 => "art_n16",
            Mapping::ArtN48 => "art_n48",
            Mapping::ArtN256 => "art_n256",
            Mapping::HotNode => "hot_node",
            Mapping::HotCompound => "hot_compound",
            Mapping::ApexNode => "apex_node",
        }
    }
}

/// A snapshot of the per-mapping probe counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Probes per mapping, indexed by `Mapping as usize`.
    pub per_mapping: [u64; Mapping::COUNT],
}

impl ProbeStats {
    /// Counter-wise difference `self - earlier`, saturating at zero.
    #[must_use]
    pub fn since(&self, earlier: &ProbeStats) -> ProbeStats {
        let mut out = ProbeStats::default();
        for (i, o) in out.per_mapping.iter_mut().enumerate() {
            *o = self.per_mapping[i].saturating_sub(earlier.per_mapping[i]);
        }
        out
    }

    /// Probes recorded for one mapping.
    #[must_use]
    pub fn get(&self, m: Mapping) -> u64 {
        self.per_mapping[m as usize]
    }

    /// Total probes across all mappings.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.per_mapping.iter().sum()
    }
}

/// Record `n` key-slot probes for mapping `m`.
#[inline]
pub fn record_probes(m: Mapping, n: u64) {
    bump(PROBES + m as usize, n);
}

fn probe_stats(c: &Counts) -> ProbeStats {
    ProbeStats { per_mapping: from_fn(|i| c[PROBES + i]) }
}

/// Take a snapshot of the per-mapping probe counters, summed over all threads.
pub fn probes() -> ProbeStats {
    probe_stats(&totals())
}

/// Take a snapshot of the calling thread's probe counters only (see
/// [`snapshot_local`] for why tests should prefer this).
pub fn probes_local() -> ProbeStats {
    probe_stats(&local())
}

/// A snapshot of the flush / fence / node-visit counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Number of cache-line flush (`clwb`) operations issued.
    pub clwb: u64,
    /// Number of store fences (`sfence`/`mfence`) issued.
    pub fence: u64,
    /// Number of index-node visits (LLC-miss proxy).
    pub node_visits: u64,
}

impl Stats {
    /// Counter-wise difference `self - earlier`, saturating at zero.
    #[must_use]
    pub fn since(&self, earlier: &Stats) -> Stats {
        Stats {
            clwb: self.clwb.saturating_sub(earlier.clwb),
            fence: self.fence.saturating_sub(earlier.fence),
            node_visits: self.node_visits.saturating_sub(earlier.node_visits),
        }
    }

    /// Per-operation averages given the number of operations in the phase.
    #[must_use]
    pub fn per_op(&self, ops: u64) -> PerOp {
        let ops = ops.max(1) as f64;
        PerOp {
            clwb: self.clwb as f64 / ops,
            fence: self.fence as f64 / ops,
            node_visits: self.node_visits as f64 / ops,
        }
    }
}

impl std::ops::AddAssign for Stats {
    fn add_assign(&mut self, other: Stats) {
        self.clwb += other.clwb;
        self.fence += other.fence;
        self.node_visits += other.node_visits;
    }
}

/// Per-operation averages derived from a [`Stats`] delta.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PerOp {
    /// Average `clwb` per operation.
    pub clwb: f64,
    /// Average fences per operation.
    pub fence: f64,
    /// Average node visits per operation.
    pub node_visits: f64,
}

fn stats(c: &Counts) -> Stats {
    Stats { clwb: c[CLWB], fence: c[FENCE], node_visits: c[NODE_VISITS] }
}

/// Take a snapshot of the counters summed over all threads, exited ones included.
pub fn snapshot() -> Stats {
    stats(&totals())
}

/// Take a snapshot of the calling thread's counters only.
///
/// Use this (not [`snapshot`]) to assert exact deltas for single-threaded work:
/// it cannot be perturbed by concurrent threads — including other tests in the
/// same binary, which libtest runs in parallel.
pub fn snapshot_local() -> Stats {
    stats(&local())
}

/// Record one index-node visit (pointer dereference into a node).
///
/// Indexes call this on every node they traverse; the benchmark harness reports the
/// per-operation average as the cache-miss proxy for Fig. 4c/4d and Table 4. The
/// installed [`crate::latency::Model`] additionally charges its Optane read latency
/// (`read_ns`) per visit.
#[inline]
pub fn record_node_visit() {
    record_node_visits(1);
}

/// Record `n` node visits at once.
#[inline]
pub fn record_node_visits(n: u64) {
    bump(NODE_VISITS, n);
    crate::latency::on_node_visits(n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_and_per_op() {
        let global_before = snapshot();
        let before = snapshot_local();
        bump(CLWB, 1);
        bump(CLWB, 1);
        bump(FENCE, 1);
        record_node_visit();
        record_node_visits(3);
        let d = snapshot_local().since(&before);
        assert_eq!(d.clwb, 2);
        assert_eq!(d.fence, 1);
        assert_eq!(d.node_visits, 4);
        // The process-wide sums move too (at least by this thread's contribution).
        let g = snapshot().since(&global_before);
        assert!(g.clwb >= 2 && g.fence >= 1 && g.node_visits >= 4);
        let p = d.per_op(2);
        assert!((p.clwb - 1.0).abs() < 1e-9);
        assert!((p.fence - 0.5).abs() < 1e-9);
        assert!((p.node_visits - 2.0).abs() < 1e-9);
    }

    #[test]
    fn per_op_handles_zero_ops() {
        let s = Stats { clwb: 10, fence: 5, node_visits: 2 };
        let p = s.per_op(0);
        assert!((p.clwb - 10.0).abs() < 1e-9);
    }

    #[test]
    fn since_saturates() {
        let a = Stats { clwb: 1, fence: 1, node_visits: 1 };
        let b = Stats { clwb: 5, fence: 5, node_visits: 5 };
        let d = a.since(&b);
        assert_eq!(d, Stats::default());
    }

    #[test]
    fn probe_counters_are_per_mapping() {
        let before = probes_local();
        let global_before = probes();
        record_probes(Mapping::ArtN16, 16);
        record_probes(Mapping::ArtN16, 4);
        record_probes(Mapping::HotCompound, 9);
        let d = probes_local().since(&before);
        assert_eq!(d.get(Mapping::ArtN16), 20);
        assert_eq!(d.get(Mapping::HotCompound), 9);
        assert_eq!(d.get(Mapping::ArtN4), 0);
        assert_eq!(d.total(), 29);
        let g = probes().since(&global_before);
        assert!(g.get(Mapping::ArtN16) >= 20 && g.get(Mapping::HotCompound) >= 9);
        // Labels are stable and unique.
        let labels: std::collections::BTreeSet<_> =
            Mapping::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), Mapping::COUNT);
    }

    #[test]
    fn probe_local_snapshot_ignores_other_threads() {
        let before = probes_local();
        std::thread::spawn(|| record_probes(Mapping::ArtN4, 5)).join().unwrap();
        assert_eq!(probes_local().since(&before), ProbeStats::default());
    }

    #[test]
    fn local_snapshot_ignores_other_threads() {
        let before = snapshot_local();
        std::thread::spawn(|| {
            bump(CLWB, 1);
            bump(FENCE, 1);
            record_node_visit();
        })
        .join()
        .unwrap();
        assert_eq!(snapshot_local().since(&before), Stats::default());
        bump(CLWB, 1);
        assert_eq!(snapshot_local().since(&before).clwb, 1);
    }
}
