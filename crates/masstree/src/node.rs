//! Permutation-ordered B+-tree nodes for Masstree layers.
//!
//! Masstree's signature node design (Mao et al., EuroSys '12) keeps leaf entries in
//! *insertion* order and encodes their *sorted* order in a single 64-bit permutation
//! word: nibble 0 holds the entry count and nibble `r + 1` holds the slot index of the
//! entry with sorted rank `r`. A writer prepares a free slot off to the side and makes
//! the entry visible with one atomic store of the new permutation — which is exactly
//! the single-atomic-store commit point RECIPE's Condition #1 conversion asks of
//! non-SMO writes, so P-Masstree only adds a flush + fence after the slot write and
//! after the permutation store.
//!
//! Within a layer, entries are ordered by the pair `(slice, length class)`: the 8-byte
//! big-endian key slice first, then the number of key bytes the slice actually covers
//! (0..=8), with [`LAYER`] (= 9) classifying keys that extend beyond the slice and
//! therefore continue in a next-layer subtree. Because slices are zero-padded, two
//! distinct keys (e.g. `"ab"` and `"ab\0"`) can share a slice; the length class keeps
//! them distinct and the pair ordering is exactly the lexicographic byte order.

use recipe::lock::VersionLock;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicU8, Ordering};

/// Entries per node. 15 slot indexes fit a nibble, leaving nibble 0 for the count.
pub const WIDTH: usize = 15;

/// Length class of an entry whose key extends beyond the 8-byte slice: the remainder
/// lives in the next-layer subtree pointed to by the entry's value word.
pub const LAYER: u8 = 9;

/// A snapshot of a node's permutation word.
///
/// Nibble 0 is the number of published entries; nibble `r + 1` is the slot holding the
/// entry of sorted rank `r`. Reading the word with a single atomic load yields a
/// consistent view of which slots are published and in what order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Perm(pub u64);

impl Perm {
    /// The permutation of an empty node.
    pub const EMPTY: Perm = Perm(0);

    /// The identity permutation over `n` entries (rank `r` stored in slot `r`), used
    /// for privately constructed nodes.
    #[must_use]
    pub fn identity(n: usize) -> Perm {
        debug_assert!(n <= WIDTH);
        let mut word = n as u64;
        for r in 0..n {
            word |= (r as u64) << (4 * (r + 1));
        }
        Perm(word)
    }

    /// Number of published entries.
    #[must_use]
    pub fn count(self) -> usize {
        (self.0 & 0xF) as usize
    }

    /// Slot index of the entry with sorted rank `rank`.
    #[must_use]
    pub fn slot(self, rank: usize) -> usize {
        ((self.0 >> (4 * (rank + 1))) & 0xF) as usize
    }

    /// The permutation with `slot` spliced in at sorted rank `rank`.
    #[must_use]
    pub fn insert(self, rank: usize, slot: usize) -> Perm {
        debug_assert!(self.count() < WIDTH && rank <= self.count() && slot < WIDTH);
        let shift = 4 * (rank + 1);
        let low_mask = (1u64 << shift) - 1;
        let low = self.0 & low_mask;
        let high = (self.0 & !low_mask) << 4;
        // `+ 1` bumps the count nibble (count < 15, so it cannot carry).
        Perm((high | ((slot as u64) << shift) | low) + 1)
    }

    /// The permutation with the entry at sorted rank `rank` removed.
    #[must_use]
    pub fn remove(self, rank: usize) -> Perm {
        debug_assert!(rank < self.count());
        let shift = 4 * (rank + 1);
        let low_mask = (1u64 << shift) - 1;
        let low = self.0 & low_mask;
        // Removing the top rank (nibble 15) has nothing above it to shift down.
        let high = if shift + 4 >= 64 { 0 } else { (self.0 >> (shift + 4)) << shift };
        Perm((high | low) - 1)
    }

    /// The permutation truncated to its first `n` ranks (used by splits to retire the
    /// moved upper half with a single atomic store).
    #[must_use]
    pub fn truncate(self, n: usize) -> Perm {
        debug_assert!(n <= self.count());
        if n >= WIDTH {
            return self;
        }
        let keep = (1u64 << (4 * (n + 1))) - 1;
        Perm((self.0 & keep & !0xF) | n as u64)
    }

    /// A slot not referenced by any published rank, if one exists.
    #[must_use]
    pub fn free_slot(self) -> Option<usize> {
        let mut used = 0u16;
        for r in 0..self.count() {
            used |= 1 << self.slot(r);
        }
        (0..WIDTH).find(|&s| used & (1 << s) == 0)
    }
}

/// A Masstree node: a B+-tree leaf or internal node within one trie layer.
///
/// Leaves map `(slice, length class)` pairs to values (length class 0..=8) or to
/// next-layer subtrees ([`LAYER`]); internal nodes map separator slices to children.
/// Separators are always pure slices — splits never divide a run of equal slices —
/// so routing and high keys fit a single atomic word.
///
/// The layout is fixed at five cache lines. The first, the **header line**, holds
/// every word a commit or a split step stores — `lock`, `perm`, `leftmost`, `next`,
/// `high` — plus `leaf` and the per-slot length classes. Four **group lines**
/// follow, each holding four slots' `(key slice, value)` [`Pair`]s, so the two
/// words an insert prepares share one line and one flush (the sixteenth pair is
/// unused). Stores to one line persist in program order (the line is written back
/// whole), so a length class stored before the permutation that publishes it needs
/// no flush of its own, and a split's link, high-key and truncate stores share one
/// flush of the header line — the same rule P-CLHT's value-then-key commit relies
/// on.
#[repr(C, align(64))]
pub struct Node {
    /// Writer lock (readers never take it; recovery force-unlocks it).
    pub lock: VersionLock,
    /// The permutation word publishing this node's entries.
    pub perm: AtomicU64,
    /// Child covering slices below every separator (internal nodes only).
    pub leftmost: AtomicU64,
    /// Right sibling (B-link pointer).
    pub next: AtomicPtr<Node>,
    /// Exclusive upper bound of this node's slice space; 0 means unbounded.
    /// (0 can never be a real separator: a slice-0 run is at most 10 entries and
    /// therefore never the upper half of a split.)
    pub high: AtomicU64,
    /// Leaf marker; set at allocation and never changed.
    leaf: bool,
    /// Per-slot length classes (leaves only; internal nodes leave them 0).
    pub lens: [AtomicU8; WIDTH],
    /// Slot `s`'s pair is pair `s % 4` of group line `s / 4` ([`Node::pair`]).
    groups: [Group; 4],
}

/// One slot's key slice and value: the two words an insert prepares.
#[repr(C)]
#[derive(Default)]
pub struct Pair {
    /// Key slice (leaf) or separator slice (internal).
    pub key: AtomicU64,
    /// Record value or `Layer` pointer (leaf), child pointer (internal).
    pub val: AtomicU64,
}

/// Four slots' pairs: one cache line.
#[repr(C, align(64))]
#[derive(Default)]
struct Group([Pair; 4]);

/// Bytes of a node's header line (see [`Node`]).
pub const HEADER_BYTES: usize = pm::CACHE_LINE;

const _: () = {
    use std::mem::{offset_of, size_of};
    assert!(offset_of!(Node, lens) + WIDTH <= HEADER_BYTES, "header fits one line");
    assert!(offset_of!(Node, groups) == HEADER_BYTES, "groups start the second line");
    assert!(size_of::<Group>() == pm::CACHE_LINE && 4 * 4 > WIDTH, "four pairs a line");
    assert!(size_of::<Node>() == 5 * pm::CACHE_LINE);
};

impl Node {
    /// Allocate an empty node in a five-line slab block of the PM pool
    /// (`pm::alloc::pm_line_box`). The caller must persist it before publishing a
    /// pointer to it.
    pub fn alloc(leaf: bool) -> *mut Node {
        pm::alloc::pm_line_box(Node {
            lock: VersionLock::new(),
            perm: AtomicU64::new(Perm::EMPTY.0),
            leftmost: AtomicU64::new(0),
            next: AtomicPtr::new(std::ptr::null_mut()),
            high: AtomicU64::new(0),
            leaf,
            lens: std::array::from_fn(|_| AtomicU8::new(0)),
            groups: Default::default(),
        })
    }

    /// Slot `s`'s `(key slice, value)` pair, on group line `s / 4`.
    #[inline]
    #[must_use]
    pub fn pair(&self, s: usize) -> &Pair {
        &self.groups[s / 4].0[s % 4]
    }

    /// Slot `s`'s key slice (leaf) or separator slice (internal).
    #[inline]
    #[must_use]
    pub fn key(&self, s: usize) -> &AtomicU64 {
        &self.pair(s).key
    }

    /// Slot `s`'s value: record value or `Layer` pointer (leaf), child pointer
    /// (internal).
    #[inline]
    #[must_use]
    pub fn val(&self, s: usize) -> &AtomicU64 {
        &self.pair(s).val
    }

    /// Whether this node is a leaf.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        self.leaf
    }

    /// Atomic snapshot of the permutation word.
    #[must_use]
    pub fn perm_snapshot(&self) -> Perm {
        Perm(self.perm.load(Ordering::Acquire))
    }

    /// The `(slice, length class)` pair at sorted rank `rank` of `perm`.
    #[must_use]
    pub fn entry_key(&self, perm: Perm, rank: usize) -> (u64, u8) {
        let s = perm.slot(rank);
        (self.key(s).load(Ordering::Acquire), self.lens[s].load(Ordering::Acquire))
    }

    /// Binary outcome of a sorted search over the published entries of `perm`:
    /// `Ok(rank)` if `(slice, lc)` is present, `Err(rank)` with its insertion rank
    /// otherwise.
    pub fn find_rank(&self, perm: Perm, slice: u64, lc: u8) -> Result<usize, usize> {
        for rank in 0..perm.count() {
            match self.entry_key(perm, rank).cmp(&(slice, lc)) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => return Ok(rank),
                std::cmp::Ordering::Greater => return Err(rank),
            }
        }
        Err(perm.count())
    }

    /// Child covering `slice` (internal nodes): the last child whose separator is
    /// `<= slice`, or the leftmost child if every separator is greater.
    #[must_use]
    pub fn find_child(&self, slice: u64) -> u64 {
        let perm = self.perm_snapshot();
        let mut child = self.leftmost.load(Ordering::Acquire);
        for rank in 0..perm.count() {
            let s = perm.slot(rank);
            if self.key(s).load(Ordering::Acquire) > slice {
                break;
            }
            let c = self.val(s).load(Ordering::Acquire);
            if c != 0 {
                child = c;
            }
        }
        child
    }

    /// Smallest published slice (callers must ensure the node is non-empty).
    #[must_use]
    pub fn min_slice(&self) -> u64 {
        let perm = self.perm_snapshot();
        debug_assert!(perm.count() > 0);
        self.key(perm.slot(0)).load(Ordering::Acquire)
    }

    /// Whether `slice` falls outside this node's key space, i.e. the reader or writer
    /// must follow the sibling pointer across an in-flight or crash-torn split.
    #[must_use]
    pub fn must_move_right(&self, slice: u64) -> bool {
        let high = self.high.load(Ordering::Acquire);
        high != 0 && slice >= high
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_perm_has_no_entries() {
        assert_eq!(Perm::EMPTY.count(), 0);
        assert_eq!(Perm::EMPTY.free_slot(), Some(0));
    }

    #[test]
    fn insert_keeps_rank_order_and_count() {
        // Insert slots 3, 1, 4 at ranks 0, 0, 1: sorted order becomes [1, 4, 3].
        let p = Perm::EMPTY.insert(0, 3).insert(0, 1).insert(1, 4);
        assert_eq!(p.count(), 3);
        assert_eq!((p.slot(0), p.slot(1), p.slot(2)), (1, 4, 3));
        let used: Vec<usize> = (0..p.count()).map(|r| p.slot(r)).collect();
        assert!(!used.contains(&p.free_slot().unwrap()));
    }

    #[test]
    fn remove_closes_the_rank_gap() {
        let p = Perm::EMPTY.insert(0, 2).insert(1, 5).insert(2, 7);
        let q = p.remove(1);
        assert_eq!(q.count(), 2);
        assert_eq!((q.slot(0), q.slot(1)), (2, 7));
    }

    #[test]
    fn remove_and_truncate_handle_the_top_rank() {
        let full = Perm::identity(WIDTH);
        let p = full.remove(WIDTH - 1);
        assert_eq!(p.count(), WIDTH - 1);
        for r in 0..WIDTH - 1 {
            assert_eq!(p.slot(r), r);
        }
        assert_eq!(full.truncate(WIDTH), full);
    }

    #[test]
    fn truncate_keeps_a_prefix() {
        let p = Perm::identity(10);
        let q = p.truncate(4);
        assert_eq!(q.count(), 4);
        for r in 0..4 {
            assert_eq!(q.slot(r), p.slot(r));
        }
    }

    #[test]
    fn slot_recycling_can_reproduce_the_permutation_word() {
        // The ABA case readers must survive: removing the rank-1 entry frees its
        // slot, and free_slot() hands that same slot back to the next insert at the
        // same rank — yielding a bit-identical permutation word. This is why reader
        // validation uses the node's lock version (which every writer bumps) instead
        // of comparing permutation words.
        let p = Perm::identity(3);
        let recycled_slot = p.slot(1);
        let q = p.remove(1);
        assert_eq!(q.free_slot(), Some(recycled_slot), "lowest free slot is the recycled one");
        assert_eq!(q.insert(1, recycled_slot), p, "permutation word ABAs");
    }

    #[test]
    fn full_perm_has_no_free_slot() {
        let p = Perm::identity(WIDTH);
        assert_eq!(p.count(), WIDTH);
        assert_eq!(p.free_slot(), None);
    }

    #[test]
    fn identity_round_trips_through_insert() {
        let mut p = Perm::EMPTY;
        for r in 0..WIDTH {
            p = p.insert(r, r);
        }
        assert_eq!(p, Perm::identity(WIDTH));
    }

    #[test]
    fn find_rank_orders_by_slice_then_length_class() {
        let n = Node::alloc(true);
        // SAFETY: freshly allocated, never shared.
        let node = unsafe { &*n };
        // Entries: (5, 2) < (5, LAYER) < (9, 8), published via the permutation.
        let mut perm = Perm::EMPTY;
        let entries = [(5u64, 2u8), (5, LAYER), (9, 8)];
        for (slot, (k, l)) in entries.iter().enumerate() {
            node.key(slot).store(*k, Ordering::Release);
            node.lens[slot].store(*l, Ordering::Release);
            perm = perm.insert(slot, slot);
        }
        node.perm.store(perm.0, Ordering::Release);
        let p = node.perm_snapshot();
        assert_eq!(node.find_rank(p, 5, 2), Ok(0));
        assert_eq!(node.find_rank(p, 5, LAYER), Ok(1));
        assert_eq!(node.find_rank(p, 9, 8), Ok(2));
        assert_eq!(node.find_rank(p, 5, 4), Err(1));
        assert_eq!(node.find_rank(p, 7, 0), Err(2));
        assert_eq!(node.find_rank(p, 10, 0), Err(3));
    }

    #[test]
    fn high_key_zero_means_unbounded() {
        let n = Node::alloc(true);
        // SAFETY: freshly allocated, never shared.
        let node = unsafe { &*n };
        assert!(!node.must_move_right(u64::MAX));
        node.high.store(100, Ordering::Release);
        assert!(!node.must_move_right(99));
        assert!(node.must_move_right(100));
        assert!(node.must_move_right(101));
    }
}
