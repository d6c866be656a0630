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
//! Layout: one line-aligned PM block per node, allocated through
//! [`pm::alloc::pm_line_box`] as one sized type per capacity class
//! ([`CAP_CLASSES`]). The first line is the header (`bit_pos`, `obsolete`, `lock`,
//! `count`, `sorted`, `cap`); each following line is a [`Group`] holding four slots:
//! their partial-key word, their mask word and their four child words. A slot's
//! lanes and child therefore share one line, and the block spans exactly
//! `1 + cap / 4` lines wherever the allocator puts it. An 8-lane search group is two
//! adjacent group lines.
//!
//! Publish protocols (Condition #1, one atomic store each):
//! * append at the end: lanes and child are written on the slot's group line first,
//!   the `count` store on the header line publishes;
//! * dead-slot reuse: the child-slot store publishes;
//! * widening/unwidening: the whole node is built aside, flushed, and installed with
//!   one parent-slot store (see `trie.rs`).

use crate::bits::COMPOUND_BITS;
use pm::stats::{record_probes, Mapping};
use pm::CACHE_LINE;
use recipe::lock::VersionLock;
use recipe::persist::{span_of, PersistMode, Span};
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
/// full ~16 KiB footprint (and its widen-install flush bill). [`cap_class`]
/// picks the smallest class with at least half its slots free for appends, and
/// a full non-max compound is rebuilt at the next class (`regrow` in `trie.rs`)
/// instead of falling back to plain nodes.
pub const CAP_CLASSES: [usize; 3] = [64, 256, COMPOUND_CAP];

/// Slots per [`Group`] line.
pub const GROUP_SLOTS: usize = 4;

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

/// One line of a compound's slot array: four consecutive slots (slot `i` is lane
/// `i % 4` of group `i / 4`).
#[repr(C, align(64))]
pub struct Group {
    /// Partial keys, one `u16` lane per slot.
    pkeys: AtomicU64,
    /// Prefix masks, packed like `pkeys`.
    masks: AtomicU64,
    /// Tagged child words (leaf / node / compound), 0 = dead or unpublished.
    children: [AtomicUsize; GROUP_SLOTS],
}

impl Group {
    const fn empty() -> Group {
        Group {
            pkeys: AtomicU64::new(0),
            masks: AtomicU64::new(0),
            children: [const { AtomicUsize::new(0) }; GROUP_SLOTS],
        }
    }
}

/// A compound node: the header line, then `G`, its group lines. The trie holds it
/// as `Compound<[Group]>`, whose slice length is `cap / 4`; a block is allocated
/// as the sized `Compound<[Group; cap / 4]>` of its class. See the module docs for
/// the layout and publish protocols.
#[repr(C, align(64))]
pub struct Compound<G: ?Sized = [Group]> {
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
    /// The slot array, `cap / 4` group lines.
    groups: G,
}

/// The sized block of the capacity class with `G` group lines.
type Block<const G: usize> = Compound<[Group; G]>;

const _: () = {
    assert!(std::mem::size_of::<Group>() == CACHE_LINE, "a group is one line");
    assert!(std::mem::size_of::<Block<0>>() == CACHE_LINE, "the header is one line");
    assert!(std::mem::size_of::<Block<16>>() == 17 * CACHE_LINE);
    assert!(std::mem::size_of::<Block<{ COMPOUND_CAP / GROUP_SLOTS }>>() == 257 * CACHE_LINE);
};

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
        let n = entries.len();
        let c = match cap_class(n) {
            64 => Self::alloc_block::<16>(bit_pos, n),
            256 => Self::alloc_block::<64>(bit_pos, n),
            _ => Self::alloc_block::<{ COMPOUND_CAP / GROUP_SLOTS }>(bit_pos, n),
        };
        // SAFETY: freshly allocated, uniquely owned until published.
        let node = unsafe { &*c };
        for (slot, &entry) in entries.iter().enumerate() {
            node.set_slot(slot, entry);
        }
        c
    }

    fn alloc_block<const G: usize>(bit_pos: u32, n: usize) -> *mut Compound {
        pm::alloc::pm_line_box::<Block<G>>(Compound {
            bit_pos,
            obsolete: AtomicBool::new(false),
            lock: VersionLock::new(),
            count: AtomicU32::new(n as u32),
            sorted: n as u32,
            cap: (G * GROUP_SLOTS) as u32,
            groups: [const { Group::empty() }; G],
        })
    }

    /// The compound whose block starts at `addr`.
    ///
    /// # Safety
    /// `addr` is the address of a block [`Compound::alloc`] returned that is not
    /// freed yet.
    #[inline]
    pub(crate) unsafe fn from_addr<'a>(addr: usize) -> &'a Compound {
        // SAFETY: caller contract; the header is the same in every class, and `cap`
        // is immutable after alloc.
        let groups = unsafe { (*(addr as *const Block<0>)).cap } as usize / GROUP_SLOTS;
        // SAFETY: the block holds the header and `groups` group lines.
        unsafe {
            &*(std::ptr::slice_from_raw_parts(addr as *const Group, groups) as *const Compound)
        }
    }

    /// Free the block of `c` through its class's type, as allocated.
    ///
    /// # Safety
    /// `c` came from [`Compound::alloc`], is freed once, and no thread can reach it.
    pub(crate) unsafe fn free(c: *const Compound) {
        // SAFETY: caller contract; each class is freed as the type it was allocated as.
        unsafe {
            match (*c).cap() {
                64 => pm::alloc::pm_line_drop(c as *mut Block<16>),
                256 => pm::alloc::pm_line_drop(c as *mut Block<64>),
                _ => pm::alloc::pm_line_drop(c as *mut Block<{ COMPOUND_CAP / GROUP_SLOTS }>),
            }
        }
    }

    /// This node's capacity class in slots.
    #[inline]
    #[must_use]
    pub fn cap(&self) -> usize {
        self.cap as usize
    }

    /// Number of published slots, `count` clamped to the capacity.
    #[inline]
    #[must_use]
    pub(crate) fn published(&self) -> usize {
        (self.count.load(Ordering::Acquire) as usize).min(self.cap())
    }

    /// Total bytes this node occupies: its header line and group lines — the
    /// footprint the capacity classes exist to shrink.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of_val(self)
    }

    /// Stage the whole block, reporting what [`Compound::alloc`] stored first so
    /// the durability tracker sees exactly the class-sized footprint. No fence: the
    /// node rides on the one ahead of the store that installs it.
    pub fn stage<P: PersistMode>(&self) {
        P::stage_store(self, || ());
    }

    /// What installing the node makes reachable: the block [`Compound::stage`]
    /// flushes.
    #[must_use]
    pub fn covers(&self) -> [Span; 1] {
        [span_of(self)]
    }

    /// The group line holding `slot`.
    #[inline]
    #[must_use]
    pub(crate) fn group(&self, slot: usize) -> &Group {
        &self.groups[slot / GROUP_SLOTS]
    }

    /// Child word of `slot`.
    #[inline]
    #[must_use]
    pub(crate) fn child(&self, slot: usize) -> &AtomicUsize {
        &self.group(slot).children[slot % GROUP_SLOTS]
    }

    /// Child words of the published slots, in slot order.
    pub(crate) fn children(&self) -> impl Iterator<Item = &AtomicUsize> {
        self.groups.iter().flat_map(|g| &g.children).take(self.published())
    }

    /// Partial key stored at `slot`.
    #[inline]
    pub fn pkey_at(&self, slot: usize) -> u16 {
        simd::get_lane16(self.group(slot).pkeys.load(Ordering::Relaxed), slot % GROUP_SLOTS)
    }

    /// Prefix mask stored at `slot`.
    #[inline]
    pub fn mask_at(&self, slot: usize) -> u16 {
        simd::get_lane16(self.group(slot).masks.load(Ordering::Relaxed), slot % GROUP_SLOTS)
    }

    /// Write the lanes and child word of `slot`, all on its group line. Only legal
    /// for unpublished slots (`slot >= count`, under the node lock): published
    /// lanes are immutable.
    pub(crate) fn set_slot(&self, slot: usize, (pkey, mask, child): Entry) {
        let (g, l) = (self.group(slot), slot % GROUP_SLOTS);
        g.pkeys
            .store(simd::set_lane16(g.pkeys.load(Ordering::Relaxed), l, pkey), Ordering::Release);
        g.masks
            .store(simd::set_lane16(g.masks.load(Ordering::Relaxed), l, mask), Ordering::Release);
        g.children[l].store(child, Ordering::Release);
    }

    /// Find the live entry matching window value `ext`: `(slot, child, depth)` where
    /// `depth` is the number of window bits the entry resolves. Records one probe
    /// per lane actually examined (binary-search steps + compared lanes) under
    /// [`Mapping::HotCompound`].
    pub fn find_child(&self, ext: u16) -> Option<(usize, usize, u32)> {
        let count = self.published();
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
            // The 8-lane group is two adjacent group lines.
            let g = base / GROUP_SLOTS;
            let (p0, m0) = self.lanes(g);
            let (p1, m1) = if g + 1 < self.groups.len() { self.lanes(g + 1) } else { (0, 0) };
            let lanes = (to - base).min(8);
            let mut mm = simd::masked_eq_mask8(p0, p1, m0, m1, ext) & ((1u32 << lanes) - 1);
            if base < from {
                mm &= !((1u32 << (from - base)) - 1);
            }
            *probes += (lanes - from.saturating_sub(base)) as u64;
            for lane in SetBits(mm) {
                let slot = base + lane;
                let child = self.child(slot).load(Ordering::Acquire);
                if child != 0 {
                    return Some((slot, child, u32::from(self.mask_at(slot)).count_ones()));
                }
            }
            base += 8;
        }
        None
    }

    /// The partial-key and mask words of group line `g`.
    #[inline]
    fn lanes(&self, g: usize) -> (u64, u64) {
        let g = &self.groups[g];
        (g.pkeys.load(Ordering::Relaxed), g.masks.load(Ordering::Relaxed))
    }

    /// All live entries, sorted by partial key (ascending = key order).
    pub fn live_entries(&self) -> Vec<Entry> {
        let mut out = Vec::with_capacity(self.published());
        for (slot, child) in self.children().enumerate() {
            let child = child.load(Ordering::Acquire);
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
        let count = self.published();
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
                let child = self.child(slot).load(Ordering::Acquire);
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
                let child = self.child(si).load(Ordering::Acquire);
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
        c.child(0).store(0, Ordering::Release); // remove the smallest entry
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
            c.set_slot(built + i, (pkey, FULL_MASK, 0x9001 + i * 8));
        }
        c.count.store((built + 5) as u32, Ordering::Release);
        // Removals leave dead slots that keep their lanes.
        for slot in [0, 7, 8, built + 2] {
            c.child(slot).store(0, Ordering::Release);
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
        // tenth of the 16 KiB a max-class node pays.
        let max_footprint = std::mem::size_of::<Block<{ COMPOUND_CAP / GROUP_SLOTS }>>();
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

    /// Each class is one block that starts on a line and spans exactly its header
    /// line and one line per four slots, so staging it flushes exactly that many
    /// lines, and a slot's lanes and child word share its group's line.
    #[test]
    fn every_class_is_one_line_aligned_block() {
        for cap in CAP_CLASSES {
            let entries: Vec<Entry> = (0..cap as u16 / 2)
                .map(|i| (i * 17, FULL_MASK, (usize::from(i) << 3) | 1))
                .collect();
            let ptr = Compound::alloc(3, &entries);
            // SAFETY: freshly allocated, test-local; freed below.
            let c = unsafe { &*ptr };
            assert_eq!(c.cap(), cap);
            let addr = ptr.cast::<u8>() as usize;
            assert_eq!(addr % CACHE_LINE, 0, "class {cap} does not start on a line");
            let lines = 1 + cap / GROUP_SLOTS;
            assert_eq!(c.footprint_bytes(), lines * CACHE_LINE, "class {cap}");
            assert_eq!(pm::flush::lines_spanned(addr, c.footprint_bytes()), lines, "class {cap}");
            // SAFETY: the block of `c`.
            assert!(std::ptr::eq(unsafe { Compound::from_addr(addr) }, c));
            let before = pm::stats::snapshot_local();
            c.stage::<recipe::persist::Pmem>();
            assert_eq!(pm::stats::snapshot_local().since(&before).clwb, lines as u64);
            for slot in [0, 5, cap / 2 - 1] {
                let line = pm::line_of(c.group(slot) as *const Group as usize);
                assert_eq!(line, addr + CACHE_LINE * (1 + slot / GROUP_SLOTS));
                assert_eq!(pm::line_of(c.child(slot) as *const AtomicUsize as usize), line);
                assert_eq!(
                    c.find_child(entries[slot].0),
                    Some((slot, entries[slot].2, COMPOUND_BITS))
                );
            }
            // SAFETY: allocated above, never published.
            unsafe { Compound::free(ptr) };
        }
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
