//! Calibrated PM latency model: the cost side of the simulated substrate.
//!
//! [`crate::flush`] and [`crate::stats`] count events; this module *prices* them so
//! the benchmark harness reproduces the throughput **shape** of the paper's Optane
//! results (Figures 4–5) without PM hardware. The model is asymmetric, like the
//! hardware it imitates:
//!
//! * **Reads** ([`Model::read_ns`]) — Optane media reads are ~3× DRAM latency, and
//!   the paper's counter analysis shows LLC misses (node visits) explain the
//!   read-side orderings. Every [`crate::stats::record_node_visit`] is charged
//!   `read_ns`.
//! * **Flushes** ([`Model::clwb_ns`]) — `clwb` posts a line to the write-pending
//!   queue. Repeated flushes of the *same* line within one fence epoch coalesce in
//!   the WPQ (write combining), so only the first flush of a line since the last
//!   fence is charged; the repeats are free until the next [`crate::flush::sfence`]
//!   opens a new epoch. Epochs are per-thread, matching `sfence` semantics (it
//!   orders the issuing core's stores).
//! * **Fences** ([`Model::fence_ns`]) — `sfence` drains the store buffer and waits
//!   on the WPQ; charged per fence, and it closes the thread's dedup epoch.
//! * **eADR** ([`Model::eadr`]) — on eADR platforms the caches themselves are in the
//!   persistence domain: flushes cost nothing (they are charged 0 and never open an
//!   epoch) but fences keep their ordering cost.
//!
//! Charges are recorded in deterministic **charged-ns counters** (three fields of
//! the per-thread [`crate::stats`] slab, read process-wide by [`charged`] and per
//! thread by [`charged_local`]) so tests assert exact accounting without wall
//! clocks; the wall-clock side pays the same nanoseconds with a batched busy-wait
//! (debt is accumulated per thread and paid once it exceeds [`PAY_GRANULARITY_NS`],
//! amortising the `Instant` overhead that would otherwise dwarf a ~100 ns charge).
//!
//! A model is installed per [`crate::Domain`] and prices the threads of its domain.
//! Its own cost per event is a thread-local borrow, one shared load (the install
//! epoch, against which each thread caches the [`Model`]) and, for a flush, one
//! probe of the thread's line set; a fence closes the epoch in O(1).
//!
//! Every domain starts with the **zero model** installed (no charges, no waits), so
//! unit tests and the crash harness run at full speed. Benchmark binaries install
//! [`Model::CALIBRATED`], the constants ([`DEFAULT_CLWB_NS`] / [`DEFAULT_FENCE_NS`] /
//! [`DEFAULT_READ_NS`]) picked by `bench --bin calibrate` to reproduce the paper's
//! qualitative orderings (`bench --bin shape_check` pins them in CI); a study of
//! other costs builds its own [`Model`] literal, as `calibrate` does per grid point.

use crate::stats;
use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Calibrated default: nanoseconds charged for the first `clwb` of a cache line in a
/// fence epoch. Best fit of the 2026-07-28 `bench --bin calibrate` grid search
/// (36 points × 7 ordering constraints, reduced YCSB matrix at 60k/60k/4t): all
/// seven Figure 4–5 orderings hold with a +28% minimum margin. See README
/// "Latency calibration".
pub const DEFAULT_CLWB_NS: u64 = 120;
/// Calibrated default: nanoseconds charged per store fence (same calibration run
/// as [`DEFAULT_CLWB_NS`]; the WPQ-drain cost dominates flush-per-entry indexes).
pub const DEFAULT_FENCE_NS: u64 = 180;
/// Calibrated default: nanoseconds charged per index-node visit (the Optane read
/// penalty on the LLC-miss proxy; same calibration run as [`DEFAULT_CLWB_NS`]).
pub const DEFAULT_READ_NS: u64 = 40;

/// A thread's accumulated unpaid charge is busy-waited away once it reaches this
/// many nanoseconds. Small enough to keep per-operation latency sampling honest,
/// large enough that the `Instant` overhead (~25 ns) stays below ~1% of the wait.
pub const PAY_GRANULARITY_NS: u64 = 4_096;

/// Upper bound on distinct lines tracked per thread per fence epoch; beyond it the
/// epoch set is cleared (an index that flushes tens of thousands of lines without
/// fencing is not modelling RECIPE-style conversions anyway). Bounds memory.
const MAX_EPOCH_LINES: usize = 1 << 15;

/// An exact set of cache-line addresses whose `clear` is O(1): open addressing with
/// linear probing, where a slot is live iff its stamp equals the current generation,
/// so bumping the generation empties the table whatever its capacity. Every fence
/// clears, so a clear that cost the capacity one table-sized flush (a rehash) left
/// behind would make each later 180 ns fence take microseconds. Grows by rehash at
/// half load; the caller bounds `len` with [`MAX_EPOCH_LINES`], so the table tops
/// out at 1 MiB.
struct LineSet {
    slots: Vec<Slot>,
    generation: u32,
    len: usize,
}

#[derive(Clone, Copy)]
struct Slot {
    line: usize,
    /// The generation that wrote `line`; 0 is never a generation.
    stamp: u32,
}

impl LineSet {
    const fn new() -> LineSet {
        LineSet { slots: Vec::new(), generation: 1, len: 0 }
    }

    fn clear(&mut self) {
        self.len = 0;
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: a stamp from 2^32 clears ago would read as live again.
            self.slots.fill(Slot { line: 0, stamp: 0 });
            self.generation = 1;
        }
    }

    /// Add `line`; `true` if it was not yet in the set (as `HashSet::insert`).
    #[inline]
    fn insert(&mut self, line: usize) -> bool {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        // Fibonacci hashing on the line number; the top bits pick the home slot.
        let h = ((line / crate::CACHE_LINE) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut i = (h >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            let slot = &mut self.slots[i];
            if slot.stamp != self.generation {
                *slot = Slot { line, stamp: self.generation };
                self.len += 1;
                return true;
            }
            if slot.line == line {
                return false;
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
    }

    /// Double the table (64 slots to start) and re-insert the live lines.
    #[cold]
    fn grow(&mut self) {
        let empty = vec![Slot { line: 0, stamp: 0 }; (self.slots.len() * 2).max(64)];
        self.len = 0;
        for slot in std::mem::replace(&mut self.slots, empty) {
            if slot.stamp == self.generation {
                self.insert(slot.line);
            }
        }
    }
}

struct ThreadLat {
    /// Lines already charged a flush in the current fence epoch (write combining).
    epoch_lines: LineSet,
    /// The installed model as of `model_epoch`.
    model: Model,
    model_epoch: u64,
    /// Charged-but-not-yet-waited nanoseconds.
    debt_ns: u64,
}

thread_local! {
    static TL: RefCell<ThreadLat> = const {
        RefCell::new(ThreadLat {
            epoch_lines: LineSet::new(),
            model: Model::ZERO,
            model_epoch: 0,
            debt_ns: 0,
        })
    };
}

/// The simulated PM cost model. Install one with [`Model::install`]; the flush/fence
/// primitives and the node-visit counter consult the installed model on every event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Model {
    /// Nanoseconds charged for the first flush of a cache line within a fence epoch
    /// (repeats of the same line are free until the next fence).
    pub clwb_ns: u64,
    /// Nanoseconds charged per store fence.
    pub fence_ns: u64,
    /// Nanoseconds charged per index-node visit (Optane read latency on the
    /// LLC-miss proxy).
    pub read_ns: u64,
    /// eADR platform: flushes cost nothing (caches are persistent), fences keep
    /// their cost.
    pub eadr: bool,
}

impl Model {
    /// The free model: nothing is charged, nothing busy-waits. Installed in every
    /// new domain so tests run at full speed.
    pub const ZERO: Model = Model { clwb_ns: 0, fence_ns: 0, read_ns: 0, eadr: false };

    /// The calibrated Optane-like defaults (see the module docs and README for the
    /// calibration run that picked them).
    pub const CALIBRATED: Model = Model {
        clwb_ns: DEFAULT_CLWB_NS,
        fence_ns: DEFAULT_FENCE_NS,
        read_ns: DEFAULT_READ_NS,
        eadr: false,
    };

    /// Install this model in the calling thread's domain. Its threads start a fresh
    /// dedup epoch the next time they flush under the new model.
    pub fn install(self) {
        crate::domain::with(|d| {
            *d.model.lock() = self;
            // Each thread caches the model beside the epoch it read it under. One
            // that sees the new epoch then reads the model under its lock, so it
            // cannot pair the epoch with an older model.
            d.model_epoch.fetch_add(1, Ordering::Release);
        });
    }

    /// The model installed in the calling thread's domain.
    #[must_use]
    pub fn current() -> Model {
        crate::domain::with(|d| *d.model.lock())
    }

    /// Effective per-first-flush charge: zero under eADR.
    #[must_use]
    pub fn effective_clwb_ns(&self) -> u64 {
        if self.eadr {
            0
        } else {
            self.clwb_ns
        }
    }

    /// `true` when this model never charges anything.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.effective_clwb_ns() == 0 && self.fence_ns == 0 && self.read_ns == 0
    }
}

/// A snapshot of charged simulated nanoseconds, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChargedNs {
    /// Nanoseconds charged to cache-line flushes (first flush per line per epoch).
    pub clwb_ns: u64,
    /// Nanoseconds charged to fences.
    pub fence_ns: u64,
    /// Nanoseconds charged to node-visit reads.
    pub read_ns: u64,
}

impl ChargedNs {
    /// Total charged nanoseconds across all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.clwb_ns + self.fence_ns + self.read_ns
    }

    /// Kind-wise difference `self - earlier`, saturating at zero.
    #[must_use]
    pub fn since(&self, earlier: &ChargedNs) -> ChargedNs {
        ChargedNs {
            clwb_ns: self.clwb_ns.saturating_sub(earlier.clwb_ns),
            fence_ns: self.fence_ns.saturating_sub(earlier.fence_ns),
            read_ns: self.read_ns.saturating_sub(earlier.read_ns),
        }
    }

    fn of(c: &stats::Counts) -> ChargedNs {
        ChargedNs {
            clwb_ns: c[stats::CHARGED_CLWB_NS],
            fence_ns: c[stats::CHARGED_FENCE_NS],
            read_ns: c[stats::CHARGED_READ_NS],
        }
    }
}

/// Snapshot the accumulated charges of all threads, exited ones included.
#[must_use]
pub fn charged() -> ChargedNs {
    ChargedNs::of(&stats::totals())
}

/// Snapshot the calling thread's charges only. Use for exact-accounting tests:
/// like [`crate::stats::snapshot_local`], it cannot be perturbed by concurrent
/// threads.
#[must_use]
pub fn charged_local() -> ChargedNs {
    ChargedNs::of(&stats::local())
}

#[inline]
fn busy_wait(ns: u64) {
    if ns == 0 {
        return;
    }
    let deadline = Instant::now() + Duration::from_nanos(ns);
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Charge `ns` to the slab field `kind` (a `stats::CHARGED_*_NS`) on this thread:
/// record it, then pay accumulated debt once it crosses the granularity.
#[inline]
fn charge(t: &mut ThreadLat, kind: usize, ns: u64) {
    if ns == 0 {
        return;
    }
    stats::bump(kind, ns);
    t.debt_ns += ns;
    if t.debt_ns >= PAY_GRANULARITY_NS {
        let pay = t.debt_ns;
        t.debt_ns = 0;
        busy_wait(pay);
    }
}

impl ThreadLat {
    /// The installed model; on the first event after an install or a change of
    /// domain, re-reads it and drops the dedup state and debt of the previous one.
    #[inline]
    fn model(&mut self) -> Model {
        let now = crate::domain::with(|d| d.model_epoch.load(Ordering::Acquire));
        if self.model_epoch != now {
            self.model_epoch = now;
            self.model = Model::current();
            self.epoch_lines.clear();
            self.debt_ns = 0;
        }
        self.model
    }
}

/// The calling thread changed domains: make its next event re-read the model.
pub(crate) fn rebind() {
    TL.with(|t| t.borrow_mut().model_epoch = u64::MAX);
}

/// Price one cache-line flush of `line` (called by [`crate::flush::clwb`]).
#[inline]
pub(crate) fn on_clwb(line: usize) {
    TL.with(|t| {
        let t = &mut *t.borrow_mut();
        let m = t.model();
        if m.effective_clwb_ns() == 0 {
            return;
        }
        if t.epoch_lines.len >= MAX_EPOCH_LINES {
            t.epoch_lines.clear();
        }
        if t.epoch_lines.insert(line) {
            charge(t, stats::CHARGED_CLWB_NS, m.clwb_ns);
        }
    });
}

/// Price one store fence (called by [`crate::flush::sfence`]): closes the calling
/// thread's flush-dedup epoch and charges the fence cost.
#[inline]
pub(crate) fn on_fence() {
    TL.with(|t| {
        let t = &mut *t.borrow_mut();
        let m = t.model();
        t.epoch_lines.clear();
        charge(t, stats::CHARGED_FENCE_NS, m.fence_ns);
    });
}

/// Price `n` node visits (called by [`crate::stats::record_node_visit`]).
#[inline]
pub(crate) fn on_node_visits(n: u64) {
    TL.with(|t| {
        let t = &mut *t.borrow_mut();
        let ns = t.model().read_ns.saturating_mul(n);
        charge(t, stats::CHARGED_READ_NS, ns);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `f` in a fresh domain with `m` installed.
    fn with_model<R>(m: Model, f: impl FnOnce() -> R) -> R {
        let _d = crate::Domain::new().enter();
        m.install();
        f()
    }

    #[test]
    fn repeated_flush_of_one_line_charges_once_per_epoch() {
        let m = Model { clwb_ns: 100, fence_ns: 30, read_ns: 0, eadr: false };
        with_model(m, || {
            let before = charged_local();
            for _ in 0..10 {
                on_clwb(0x40);
            }
            on_fence();
            // New epoch: the same line is charged again.
            on_clwb(0x40);
            let d = charged_local().since(&before);
            assert_eq!(d.clwb_ns, 200, "one charge per epoch, two epochs");
            assert_eq!(d.fence_ns, 30);
            assert_eq!(d.total(), 230);
        });
    }

    #[test]
    fn distinct_lines_each_charge_within_an_epoch() {
        let m = Model { clwb_ns: 50, fence_ns: 0, read_ns: 0, eadr: false };
        with_model(m, || {
            let before = charged_local();
            on_clwb(0);
            on_clwb(64);
            on_clwb(128);
            on_clwb(64); // dup
            let d = charged_local().since(&before);
            assert_eq!(d.clwb_ns, 150);
        });
    }

    #[test]
    fn eadr_zeroes_flush_cost_but_keeps_fences() {
        let m = Model { clwb_ns: 500, fence_ns: 70, read_ns: 0, eadr: true };
        assert_eq!(m.effective_clwb_ns(), 0);
        with_model(m, || {
            let before = charged_local();
            on_clwb(0x80);
            on_clwb(0xC0);
            on_fence();
            let d = charged_local().since(&before);
            assert_eq!(d.clwb_ns, 0, "eADR: flushes are free");
            assert_eq!(d.fence_ns, 70, "eADR: fences keep their ordering cost");
        });
    }

    #[test]
    fn node_visits_charge_read_latency() {
        let m = Model { clwb_ns: 0, fence_ns: 0, read_ns: 40, eadr: false };
        with_model(m, || {
            let before = charged_local();
            on_node_visits(1);
            on_node_visits(5);
            let d = charged_local().since(&before);
            assert_eq!(d.read_ns, 240);
            assert_eq!(d.clwb_ns + d.fence_ns, 0);
        });
    }

    #[test]
    fn zero_model_charges_nothing() {
        with_model(Model::ZERO, || {
            let before = charged_local();
            on_clwb(0);
            on_fence();
            on_node_visits(100);
            assert_eq!(charged_local().since(&before), ChargedNs::default());
        });
    }

    #[test]
    fn model_reinstall_opens_a_fresh_epoch() {
        let a = Model { clwb_ns: 10, fence_ns: 0, read_ns: 0, eadr: false };
        let _d = crate::Domain::new().enter();
        a.install();
        let before = charged_local();
        on_clwb(0x1000);
        a.install(); // same constants, new epoch
        on_clwb(0x1000);
        let d = charged_local().since(&before);
        assert_eq!(d.clwb_ns, 20, "reinstall must clear per-thread dedup state");
    }

    #[test]
    fn charged_local_ignores_other_threads() {
        let m = Model { clwb_ns: 100, fence_ns: 100, read_ns: 100, eadr: false };
        with_model(m, || {
            let before = charged_local();
            let domain = crate::Domain::current();
            std::thread::spawn(move || {
                let _d = domain.enter();
                on_clwb(0);
                on_fence();
                on_node_visits(3);
            })
            .join()
            .unwrap();
            assert_eq!(charged_local().since(&before), ChargedNs::default());
        });
    }

    /// The line set must answer every insert exactly as the `HashSet` it
    /// replaced did, across growth, the `on_clwb` cap rule, and a stamp wrap.
    #[test]
    fn line_set_matches_a_hash_set_reference() {
        let mut set = LineSet::new();
        let mut reference = std::collections::HashSet::new();
        // Start close to the wrap so the stream's clears cross generation 0.
        set.generation = u32::MAX - 40;
        let mut rng = 0x5EED_u64;
        let mut next = move || {
            rng = crate::mix64(rng.wrapping_add(0x9E37_79B9_7F4A_7C15));
            rng
        };
        let (mut peak_slots, mut cap_clears, mut wrapped) = (0, 0, false);
        for round in 0..120 {
            // Most epochs are a few lines; some pass the initial capacity and
            // several rehashes; two run past `MAX_EPOCH_LINES`.
            let inserts = match round % 40 {
                7 => 3 * MAX_EPOCH_LINES,
                3 | 19 => 3_000,
                _ => 1 + (next() % 48) as usize,
            };
            // A small universe, so repeats (dedup hits) are common.
            let universe = (inserts as u64 * 3 / 2).max(8);
            for _ in 0..inserts {
                if set.len >= MAX_EPOCH_LINES {
                    assert_eq!(reference.len(), MAX_EPOCH_LINES);
                    set.clear();
                    reference.clear();
                    cap_clears += 1;
                }
                let line = 0x7F00_0000_0000 + (next() % universe) as usize * crate::CACHE_LINE;
                assert_eq!(set.insert(line), reference.insert(line), "line {line:#x}");
                assert_eq!(set.len, reference.len());
            }
            peak_slots = peak_slots.max(set.slots.len());
            let before = set.generation;
            set.clear();
            reference.clear();
            wrapped |= set.generation < before;
        }
        assert!(peak_slots >= 2 * MAX_EPOCH_LINES, "grew to the cap: {peak_slots} slots");
        assert!(cap_clears >= 2 && wrapped, "cap clears {cap_clears}, wrapped {wrapped}");
        assert!(set.insert(0x40) && !set.insert(0x40), "usable after the wrap");
    }

    #[test]
    fn calibrated_defaults_are_non_zero_and_asymmetric() {
        let m = Model::CALIBRATED;
        assert!(m.clwb_ns > 0 && m.fence_ns > 0 && m.read_ns > 0);
        assert!(!m.eadr);
        assert!(!m.is_zero());
        assert!(Model::ZERO.is_zero());
    }
}
