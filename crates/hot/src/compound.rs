//! Compound nodes: up to three stacked discriminative-bit windows in one node.
//!
//! A plain [`crate::trie::Node`] resolves at most [`crate::bits::MAX_BITS`] bits per
//! pointer chase. A `Compound` covers a [`COMPOUND_BITS`]-bit window and stores a
//! *sparse partial-key array*: each entry is a `(pkey, mask)` pair where `mask` is a
//! prefix mask over the window and `pkey` the subtree's key bits under that mask
//! (bits past the prefix zero). A lookup extracts the window bits once
//! ([`crate::bits::extract_wide`]), binary-searches the build-time sorted region by
//! 8-lane group (prefix-free intervals are disjoint and ascending, so one group
//! holds the only possible match), and resolves the group with the vectorized
//! masked-compare primitive ([`recipe::simd::masked_eq_mask8`]) — SSE2 or NEON, chosen
//! at compile time as for the ART node search — so two to three levels of the trie
//! resolve in a single node visit at a handful of compared lanes.
//!
//! Entries are **prefix-free**: no live entry's masked prefix is a prefix of
//! another's, so at most one live entry matches any extracted window value. Lanes of
//! published slots are immutable (appends only ever write lanes at or past `count`,
//! or reuse a dead slot whose lanes already equal the new entry), which keeps
//! lock-free readers exact: a stale lane can never alias a different live entry.
//!
//! Publish protocols (Condition #1, one atomic store each):
//! * append at the end: lanes and child are written first, `count` store publishes;
//! * dead-slot reuse: the child-slot store publishes;
//! * widening/unwidening: the whole node is built aside, flushed, and installed with
//!   one parent-slot store (see `trie.rs`).

use crate::bits::COMPOUND_BITS;
use pm::stats::{record_probes, Mapping};
use recipe::lock::VersionLock;
use recipe::persist::{span, span_of, PersistMode, Span};
use recipe::simd::{self, SetBits};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Maximum entries per compound node. A 15-bit window could address 2^15 slots; the
/// sparse array caps the footprint, and overflow falls back to plain nodes. The cap
/// is sized so the *root* of a large tree can widen into pointer entries two
/// plain-node layers deep (32 x 32 slots), which is what takes hit lookups from
/// three node visits to two.
pub const COMPOUND_CAP: usize = 1024;

/// Capacity classes a compound can be allocated at. Most compounds hold a few
/// dozen entries; sizing every one for [`COMPOUND_CAP`] made each node pay the
/// full ~12 KiB footprint (and its widen-install flush bill). [`cap_class`]
/// picks the smallest class with at least half its slots free for appends, and
/// a full non-max compound is rebuilt at the next class (`regrow` in `trie.rs`)
/// instead of falling back to plain nodes.
pub const CAP_CLASSES: [usize; 3] = [64, 256, COMPOUND_CAP];

/// The capacity class for a compound built from `n` entries: the smallest class
/// keeping at least half the slots free for later appends (the largest class is
/// used as-is once `n` outgrows the rest).
#[must_use]
pub fn cap_class(n: usize) -> usize {
    for &c in &CAP_CLASSES {
        if n <= c / 2 {
            return c;
        }
    }
    COMPOUND_CAP
}
/// Prefix mask covering the full window: a leaf entry stored at full depth.
pub const FULL_MASK: u16 = ((1u32 << COMPOUND_BITS) - 1) as u16;

/// Prefix mask for the first `depth` bits of the window (`1..=COMPOUND_BITS`).
#[inline]
#[must_use]
pub fn prefix_mask(depth: u32) -> u16 {
    debug_assert!((1..=COMPOUND_BITS).contains(&depth));
    (((1u32 << depth) - 1) << (COMPOUND_BITS - depth)) as u16
}

/// One gathered entry: `(pkey, mask, tagged child word)`.
pub type Entry = (u16, u16, usize);

/// A compound node. See the module docs for the layout and publish protocols.
pub struct Compound {
    /// First bit of the window (absolute position in the key).
    pub bit_pos: u32,
    /// Set (under the parent's and this node's locks) once the node has been
    /// replaced by a rebuild; writers must re-descend.
    pub obsolete: AtomicBool,
    /// Writer lock.
    pub lock: VersionLock,
    /// Number of published slots; the append publish store.
    pub count: AtomicU32,
    /// Slots `[0, sorted)` were published pkey-ascending at build time; later
    /// appends land past it in arrival order. Immutable after [`Compound::alloc`],
    /// so lookups binary-search the sorted region by lane group and only scan the
    /// appended tail linearly.
    pub sorted: u32,
    /// This node's capacity class (see [`cap_class`]); immutable after alloc.
    cap: u32,
    /// Partial keys, 4 `u16` lanes per word (slot `i` = lane `i % 4` of word
    /// `i / 4`), `cap / 4` words.
    pub pkeys: Box<[AtomicU64]>,
    /// Prefix masks, packed like `pkeys`.
    pub masks: Box<[AtomicU64]>,
    /// Tagged child words (leaf / node / compound), 0 = dead or unpublished;
    /// `cap` slots.
    pub children: Box<[AtomicUsize]>,
}

impl Compound {
    /// Allocate a compound privately from prefix-free, pkey-sorted `entries`.
    /// The caller persists and publishes it.
    pub fn alloc(bit_pos: u32, entries: &[Entry]) -> *mut Compound {
        debug_assert!(entries.len() <= COMPOUND_CAP);
        debug_assert!(entries.windows(2).all(|p| p[0].0 < p[1].0), "entries must be sorted");
        #[cfg(debug_assertions)]
        for (i, a) in entries.iter().enumerate() {
            for b in &entries[i + 1..] {
                let common = a.1 & b.1;
                debug_assert_ne!(a.0 & common, b.0 & common, "entries must be prefix-free");
            }
        }
        let cap = cap_class(entries.len());
        let c = pm::alloc::pm_box(Compound {
            bit_pos,
            obsolete: AtomicBool::new(false),
            lock: VersionLock::new(),
            count: AtomicU32::new(entries.len() as u32),
            sorted: entries.len() as u32,
            cap: cap as u32,
            pkeys: (0..cap / 4).map(|_| AtomicU64::new(0)).collect(),
            masks: (0..cap / 4).map(|_| AtomicU64::new(0)).collect(),
            children: (0..cap).map(|_| AtomicUsize::new(0)).collect(),
        });
        // SAFETY: freshly allocated, uniquely owned until published.
        let node = unsafe { &*c };
        for (i, &(pkey, mask, child)) in entries.iter().enumerate() {
            node.set_lanes(i, pkey, mask);
            node.children[i].store(child, Ordering::Relaxed);
        }
        c
    }

    /// This node's capacity class in slots.
    #[inline]
    #[must_use]
    pub fn cap(&self) -> usize {
        self.cap as usize
    }

    /// Total bytes this node occupies (header + lane words + child slots) —
    /// the footprint the capacity classes exist to shrink.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Compound>()
            + std::mem::size_of_val(&*self.pkeys)
            + std::mem::size_of_val(&*self.masks)
            + std::mem::size_of_val(&*self.children)
    }

    /// Stage the whole node — header and the out-of-line lane/child arrays —
    /// reporting what [`Compound::alloc`] stored first so the durability tracker
    /// sees exactly the class-sized footprint. No fence: the node rides on the one
    /// ahead of the store that installs it.
    pub fn stage<P: PersistMode>(&self) {
        let filled_by_alloc = || ();
        P::stage_store(self, filled_by_alloc);
        P::stage_store(&*self.pkeys, filled_by_alloc);
        P::stage_store(&*self.masks, filled_by_alloc);
        P::stage_store(&*self.children, filled_by_alloc);
    }

    /// What installing the node makes reachable: the ranges [`Compound::stage`]
    /// flushes.
    #[must_use]
    pub fn covers(&self) -> [Span; 4] {
        [span(self), span_of(&*self.pkeys), span_of(&*self.masks), span_of(&*self.children)]
    }

    /// Partial key stored at `slot`.
    #[inline]
    pub fn pkey_at(&self, slot: usize) -> u16 {
        simd::get_lane16(self.pkeys[slot / 4].load(Ordering::Relaxed), slot % 4)
    }

    /// Prefix mask stored at `slot`.
    #[inline]
    pub fn mask_at(&self, slot: usize) -> u16 {
        simd::get_lane16(self.masks[slot / 4].load(Ordering::Relaxed), slot % 4)
    }

    /// Write the lanes of `slot`. Only legal for unpublished slots (`slot >=
    /// count`, under the node lock): published lanes are immutable.
    pub fn set_lanes(&self, slot: usize, pkey: u16, mask: u16) {
        let (w, l) = (slot / 4, slot % 4);
        let p = self.pkeys[w].load(Ordering::Relaxed);
        self.pkeys[w].store(simd::set_lane16(p, l, pkey), Ordering::Release);
        let m = self.masks[w].load(Ordering::Relaxed);
        self.masks[w].store(simd::set_lane16(m, l, mask), Ordering::Release);
    }

    /// Find the live entry matching window value `ext`: `(slot, child, depth)` where
    /// `depth` is the number of window bits the entry resolves. Records one probe
    /// per lane actually examined (binary-search steps + compared lanes) under
    /// [`Mapping::HotCompound`].
    pub fn find_child(&self, ext: u16) -> Option<(usize, usize, u32)> {
        let count = (self.count.load(Ordering::Acquire) as usize).min(self.cap());
        let sorted = (self.sorted as usize).min(count);
        let mut probes = 0u64;
        let mut hit = None;
        if sorted > 0 {
            // Prefix-free entries cover disjoint ascending `[pkey, pkey | !mask]`
            // intervals, so only the last build-time entry with `pkey <= ext` can
            // match. Binary-search for its 8-lane group, then run the vectorized
            // masked compare on that one group instead of every published lane.
            let groups = sorted.div_ceil(8);
            let (mut lo, mut hi) = (0usize, groups);
            while lo + 1 < hi {
                let mid = lo.midpoint(hi);
                probes += 1;
                if self.pkey_at(mid * 8) <= ext {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            hit = self.scan_range(lo * 8, sorted.min(lo * 8 + 8), ext, &mut probes);
        }
        // Appends after the build are unordered: scan the (short) tail linearly.
        let hit = hit.or_else(|| self.scan_range(sorted, count, ext, &mut probes));
        record_probes(Mapping::HotCompound, probes);
        hit
    }

    /// Vectorized masked compare over slots `[from, to)` (need not be
    /// group-aligned); returns the first live match and counts compared lanes
    /// into `probes`.
    fn scan_range(
        &self,
        from: usize,
        to: usize,
        ext: u16,
        probes: &mut u64,
    ) -> Option<(usize, usize, u32)> {
        let mut base = from & !7;
        while base < to {
            let w = base / 4;
            let p0 = self.pkeys[w].load(Ordering::Relaxed);
            let m0 = self.masks[w].load(Ordering::Relaxed);
            let (p1, m1) = if w + 1 < self.pkeys.len() {
                (
                    self.pkeys[w + 1].load(Ordering::Relaxed),
                    self.masks[w + 1].load(Ordering::Relaxed),
                )
            } else {
                (0, 0)
            };
            let lanes = (to - base).min(8);
            let mut mm = simd::masked_eq_mask8(p0, p1, m0, m1, ext) & ((1u32 << lanes) - 1);
            if base < from {
                mm &= !((1u32 << (from - base)) - 1);
            }
            *probes += (lanes - from.saturating_sub(base)) as u64;
            for lane in SetBits(mm) {
                let slot = base + lane;
                let child = self.children[slot].load(Ordering::Acquire);
                if child != 0 {
                    return Some((slot, child, u32::from(self.mask_at(slot)).count_ones()));
                }
            }
            base += 8;
        }
        None
    }

    /// All live entries, sorted by partial key (ascending = key order).
    pub fn live_entries(&self) -> Vec<Entry> {
        let count = (self.count.load(Ordering::Acquire) as usize).min(self.cap());
        let mut out = Vec::with_capacity(count);
        for slot in 0..count {
            let child = self.children[slot].load(Ordering::Acquire);
            if child != 0 {
                out.push((self.pkey_at(slot), self.mask_at(slot), child));
            }
        }
        out.sort_unstable_by_key(|e| e.0);
        out
    }

    /// Hand the live entries whose window interval `[pkey, pkey | !mask]` ends at
    /// or after `from` to `f` as `(pkey, child)`, in ascending partial-key (= key)
    /// order, until it returns `true`; returns whether it did. What a range scan
    /// walks (and, from 0, how the leftmost live subtree is found):
    /// allocation-free, and a child slot is loaded when the walk reaches it.
    ///
    /// The build-time region `[0, sorted)` is entered by binary search — its
    /// entries were prefix-free when built, so their intervals are disjoint and
    /// ascend with the slot, and published lanes never change (a dead slot keeps
    /// its lanes) — and merged with the appended tail, which is in arrival order
    /// and short, by selecting its next-larger partial key on demand.
    pub fn walk_from(&self, from: u16, mut f: impl FnMut(u16, usize) -> bool) -> bool {
        let count = (self.count.load(Ordering::Acquire) as usize).min(self.cap());
        let sorted = (self.sorted as usize).min(count);
        let reaches = |slot: usize| self.pkey_at(slot) | (!self.mask_at(slot) & FULL_MASK) >= from;
        let (mut si, mut hi) = (0usize, sorted);
        while si < hi {
            let mid = si.midpoint(hi);
            if reaches(mid) {
                hi = mid;
            } else {
                si = mid + 1;
            }
        }
        let next_appended = |after: Option<u16>| {
            let mut best: Option<(u16, usize)> = None;
            for slot in sorted..count {
                let child = self.children[slot].load(Ordering::Acquire);
                if child == 0 || !reaches(slot) {
                    continue;
                }
                let pkey = self.pkey_at(slot);
                if after.is_none_or(|a| pkey > a) && best.is_none_or(|(b, _)| pkey < b) {
                    best = Some((pkey, child));
                }
            }
            best
        };
        let mut appended = next_appended(None);
        loop {
            let built = loop {
                if si >= sorted {
                    break None;
                }
                let child = self.children[si].load(Ordering::Acquire);
                if child != 0 {
                    break Some((self.pkey_at(si), child));
                }
                si += 1;
            };
            let (pkey, child) = match (built, appended) {
                (None, None) => return false,
                (Some(b), None) => {
                    si += 1;
                    b
                }
                (Some(b), Some(a)) if b.0 <= a.0 => {
                    si += 1;
                    b
                }
                (_, Some(a)) => {
                    appended = next_appended(Some(a.0));
                    a
                }
            };
            if f(pkey, child) {
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_masks_are_left_aligned() {
        assert_eq!(prefix_mask(1), 0b100_0000_0000_0000);
        assert_eq!(prefix_mask(5), 0b111_1100_0000_0000);
        assert_eq!(prefix_mask(COMPOUND_BITS), FULL_MASK);
    }

    #[test]
    fn find_child_matches_masked_prefixes_only() {
        // Pointer entry covering prefix 0b10100 (depth 5) and two full-depth leaves.
        let entries: Vec<Entry> = vec![
            (0b00001_00000_00000, FULL_MASK, 0x11),
            (0b10100_00000_00000, prefix_mask(5), 0x20),
            (0b11111_11111_11111, FULL_MASK, 0x31),
        ];
        // SAFETY: never freed, test-local.
        let c = unsafe { &*Compound::alloc(0, &entries) };
        assert_eq!(c.find_child(0b00001_00000_00000), Some((0, 0x11, COMPOUND_BITS)));
        // Anything under the 0b10100 prefix resolves 5 bits to the pointer entry.
        assert_eq!(c.find_child(0b10100_01010_11011), Some((1, 0x20, 5)));
        assert_eq!(c.find_child(0b10100_11111_11111), Some((1, 0x20, 5)));
        assert_eq!(c.find_child(0b10101_00000_00000), None);
        assert_eq!(c.find_child(0b11111_11111_11110), None);
    }

    #[test]
    fn dead_slots_are_skipped_and_min_child_tracks_live_entries() {
        let entries: Vec<Entry> =
            vec![(10, FULL_MASK, 0x11), (20, FULL_MASK, 0x21), (30, FULL_MASK, 0x31)];
        // SAFETY: never freed, test-local.
        let c = unsafe { &*Compound::alloc(7, &entries) };
        let min_child = || {
            let mut first = None;
            c.walk_from(0, |_, child| {
                first = Some(child);
                true
            });
            first
        };
        assert_eq!(min_child(), Some(0x11));
        c.children[0].store(0, Ordering::Release); // remove the smallest entry
        assert_eq!(c.find_child(10), None);
        assert_eq!(min_child(), Some(0x21));
        assert_eq!(c.live_entries(), vec![(20, FULL_MASK, 0x21), (30, FULL_MASK, 0x31)]);
    }

    /// The scan walk against the snapshot-and-sort it replaced, on a compound
    /// with pointer entries, dead slots in both regions and an unordered tail.
    #[test]
    fn walk_from_matches_live_entries_from_every_start() {
        let mut entries: Vec<Entry> =
            (0..40u16).map(|i| (i * 700 + 3, FULL_MASK, usize::from(i) * 8 + 1)).collect();
        // Two pointer entries covering 5-bit prefixes no leaf above falls under.
        entries.push((0b11110 << 10, prefix_mask(5), 0x7001));
        entries.push((0b11111 << 10, prefix_mask(5), 0x7009));
        entries.sort_unstable_by_key(|e| e.0);
        // SAFETY: never freed, test-local.
        let c = unsafe { &*Compound::alloc(0, &entries) };
        // Appends after the build, in arrival order (what `insert` does under the lock).
        let built = entries.len();
        for (i, pkey) in [20_011u16, 5, 9_000, 801, 30_500].into_iter().enumerate() {
            c.set_lanes(built + i, pkey, FULL_MASK);
            c.children[built + i].store(0x9001 + i * 8, Ordering::Release);
        }
        c.count.store((built + 5) as u32, Ordering::Release);
        // Removals leave dead slots that keep their lanes.
        for slot in [0, 7, 8, built + 2] {
            c.children[slot].store(0, Ordering::Release);
        }
        let live = c.live_entries();
        assert_eq!(live.len(), built + 5 - 4);
        for from in (0..=FULL_MASK).step_by(7).chain([FULL_MASK]) {
            let mut got = Vec::new();
            assert!(!c.walk_from(from, |pkey, child| {
                got.push((pkey, child));
                false
            }));
            let want: Vec<(u16, usize)> = live
                .iter()
                .filter(|&&(pkey, mask, _)| pkey | (!mask & FULL_MASK) >= from)
                .map(|&(pkey, _, child)| (pkey, child))
                .collect();
            assert_eq!(got, want, "walk from {from}");
        }
        let mut seen = 0;
        assert!(c.walk_from(0, |_, _| {
            seen += 1;
            seen == 3
        }));
        assert_eq!(seen, 3, "the walk must stop when asked");
    }

    #[test]
    fn capacity_classes_keep_append_headroom() {
        assert_eq!(cap_class(0), 64);
        assert_eq!(cap_class(32), 64);
        assert_eq!(cap_class(33), 256);
        assert_eq!(cap_class(128), 256);
        assert_eq!(cap_class(129), COMPOUND_CAP);
        assert_eq!(cap_class(COMPOUND_CAP), COMPOUND_CAP);
        // Every class leaves at least half its slots free at its largest
        // admitted entry count (except the max class, which cannot grow).
        for &(n, c) in &[(32usize, 64usize), (128, 256)] {
            assert!(n * 2 <= c);
        }
    }

    #[test]
    fn small_compounds_shed_the_fixed_footprint() {
        let entries: Vec<Entry> = (0..10u16).map(|i| (i * 7, FULL_MASK, 0x11)).collect();
        // SAFETY: never freed, test-local.
        let small = unsafe { &*Compound::alloc(0, &entries) };
        assert_eq!(small.cap(), 64);
        // The counter-based evidence: a 10-entry compound occupies well under a
        // tenth of the 12 KiB a max-class node pays.
        let max_footprint =
            std::mem::size_of::<Compound>() + COMPOUND_CAP * 8 + 2 * (COMPOUND_CAP / 4) * 8;
        assert!(
            small.footprint_bytes() * 10 < max_footprint,
            "{} bytes is not a small footprint",
            small.footprint_bytes()
        );
        // And flushing it dirties proportionally few cache lines.
        let before = pm::stats::snapshot_local();
        small.stage::<recipe::persist::Pmem>();
        let d = pm::stats::snapshot_local().since(&before);
        assert!(d.clwb < 32, "small-class persist flushed {} lines", d.clwb);
        let big: Vec<Entry> = (0..200u16).map(|i| (i * 13, FULL_MASK, 0x11)).collect();
        // SAFETY: never freed, test-local.
        let big = unsafe { &*Compound::alloc(0, &big) };
        assert_eq!(big.cap(), COMPOUND_CAP);
        let before = pm::stats::snapshot_local();
        big.stage::<recipe::persist::Pmem>();
        let dbig = pm::stats::snapshot_local().since(&before);
        assert!(dbig.clwb > d.clwb * 4, "class sizes must show up in flush counts");
    }

    #[test]
    fn search_spans_multiple_lane_words() {
        // 100 entries exercises 13 word pairs and the ragged last group.
        let entries: Vec<Entry> =
            (0..100u16).map(|i| (i * 17, FULL_MASK, (usize::from(i) << 3) | 1)).collect();
        // SAFETY: never freed, test-local.
        let c = unsafe { &*Compound::alloc(0, &entries) };
        for i in 0..100u16 {
            assert_eq!(
                c.find_child(i * 17),
                Some((usize::from(i), (usize::from(i) << 3) | 1, COMPOUND_BITS))
            );
        }
        assert_eq!(c.find_child(5), None);
    }
}
