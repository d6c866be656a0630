//! Node types of the Adaptive Radix Tree.
//!
//! ART adapts the physical fanout of each node to the number of live children: 4-, 16-,
//! 48- and 256-way nodes share a common header (type tag, child count, level, prefix,
//! lock). Child pointers are tagged words: bit 0 set means the pointer refers to a
//! [`Leaf`] (one cache line, its key inline up to 22 bytes), clear means an inner
//! node. The 8-byte header word that holds the compressed prefix (up to 7 bytes +
//! length) is a single atomic, because the second step of ART's path-compression
//! SMO — truncating the prefix — must be one hardware-atomic store (§6.4 of the
//! RECIPE paper).
//!
//! Mutation protocol (writers hold the node's lock; readers are non-blocking):
//!
//! * adding a child writes the key byte / slot first and *commits* with the child
//!   pointer (or slot-index, or `count`) store; the fence ahead of the commit is
//!   also the fence a freshly flushed, still unreachable child rides on
//!   ([`NodeRef::add_child`]);
//! * removing a child clears the pointer/slot atomically;
//! * growing a node copies it and the parent's slot is swapped by the caller — the old
//!   node is marked obsolete so writers that still hold its lock restart.

use recipe::key::Leaf;
use recipe::lock::VersionLock;
use recipe::persist::{Dram, PersistMode, Span};
use recipe::simd::SetBits;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, AtomicUsize, Ordering};

/// Maximum number of prefix bytes stored inline in the header word.
pub const MAX_PREFIX: usize = 7;

/// Node kind tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum NodeTag {
    /// Up to 4 children, linear key array.
    N4 = 0,
    /// Up to 16 children, linear key array.
    N16 = 1,
    /// Up to 48 children, 256-byte index array.
    N48 = 2,
    /// Direct 256-way array.
    N256 = 3,
}

/// Pack up to [`MAX_PREFIX`] prefix bytes and their length into one `u64`.
///
/// Layout: the low byte is the length, bytes 1..=7 are the prefix bytes in order.
#[must_use]
pub fn pack_prefix(prefix: &[u8]) -> u64 {
    debug_assert!(prefix.len() <= MAX_PREFIX);
    let mut w = prefix.len() as u64;
    for (i, &b) in prefix.iter().enumerate() {
        w |= u64::from(b) << (8 * (i + 1));
    }
    w
}

/// Inverse of [`pack_prefix`]: returns the prefix bytes and their length.
#[must_use]
pub fn unpack_prefix(word: u64) -> ([u8; MAX_PREFIX], usize) {
    let len = (word & 0xFF) as usize;
    let len = len.min(MAX_PREFIX);
    let mut out = [0u8; MAX_PREFIX];
    for (i, slot) in out.iter_mut().enumerate().take(len) {
        *slot = ((word >> (8 * (i + 1))) & 0xFF) as u8;
    }
    (out, len)
}

/// The tagged child word of `leaf`.
#[inline]
#[must_use]
pub fn leaf_word(leaf: *const Leaf) -> usize {
    (leaf as usize) | 1
}

/// Whether a child word refers to a leaf.
#[inline]
#[must_use]
pub fn is_leaf(word: usize) -> bool {
    word & 1 == 1
}

/// Dereference a leaf child word.
///
/// # Safety
/// `word` must be a tagged pointer produced by [`leaf_word`].
#[inline]
pub unsafe fn leaf_ref<'a>(word: usize) -> &'a Leaf {
    debug_assert!(is_leaf(word));
    // SAFETY: caller contract; a leaf is freed only when the tree drops.
    unsafe { &*((word & !1) as *const Leaf) }
}

/// What linking `child` makes reachable: a leaf's line and spilled key. An inner
/// node is covered by the tree, which built it.
#[inline]
fn leaf_covers(child: usize) -> [Span; 2] {
    if is_leaf(child) {
        // SAFETY: `child` is a leaf word the calling insert allocated.
        unsafe { leaf_ref(child) }.covers()
    } else {
        [(std::ptr::null(), 0); 2]
    }
}

/// Common header shared (as the first field) by all inner node types.
///
/// Field order is cacheline-conscious: `count` sits **last** so that in every node
/// type it is adjacent to the key material that follows the header (the packed key
/// words of Node4/Node16, the byte index of Node48). A lookup's intra-node search
/// reads exactly `count` + keys, so placing them on the same 64-byte line keeps the
/// search to a single likely-cold line; the layout test below pins this.
#[repr(C)]
pub struct NodeHeader {
    /// Node kind.
    pub tag: NodeTag,
    /// Set when the node has been replaced (grown) and must no longer be modified.
    pub obsolete: AtomicBool,
    /// Key-byte index at which this node branches in the *decompressed* radix tree:
    /// `level == depth + prefix_len` for a consistent node. Never modified after
    /// creation; readers and the Condition-#3 helper use it to detect (and repair)
    /// interrupted path-compression SMOs.
    pub level: u32,
    /// Write lock (readers never take it).
    pub lock: VersionLock,
    /// Packed compressed prefix (see [`pack_prefix`]). A single atomic word so prefix
    /// truncation — step 2 of the path-compression split — is one atomic store.
    pub prefix: AtomicU64,
    /// Number of child slots ever used (holes from deletions are reused). Kept last:
    /// see the struct-level layout note.
    pub count: AtomicU16,
}

impl NodeHeader {
    fn new(tag: NodeTag, level: u32, prefix: &[u8]) -> Self {
        NodeHeader {
            tag,
            obsolete: AtomicBool::new(false),
            level,
            lock: VersionLock::new(),
            prefix: AtomicU64::new(pack_prefix(prefix)),
            count: AtomicU16::new(0),
        }
    }

    /// Load and unpack the compressed prefix.
    pub fn prefix(&self) -> ([u8; MAX_PREFIX], usize) {
        unpack_prefix(self.prefix.load(Ordering::Acquire))
    }
}

/// 4-way node. Key bytes are packed into one atomic word (byte lane `i` = slot `i`)
/// so a search is one `Acquire` load + a branch-free compare.
#[repr(C, align(64))]
pub struct Node4 {
    /// Shared header.
    pub hdr: NodeHeader,
    keys: AtomicU64,
    children: [AtomicUsize; 4],
}

/// 16-way node. Key bytes are packed into two atomic words (slot `i` = byte lane
/// `i % 8` of word `i / 8`), searched with one vectorized compare.
#[repr(C, align(64))]
pub struct Node16 {
    /// Shared header.
    pub hdr: NodeHeader,
    keys: [AtomicU64; 2],
    children: [AtomicUsize; 16],
}

/// 48-way node: a 256-entry index maps key bytes to one of 48 child slots
/// (stored as slot + 1; 0 = empty). The index is packed into 32 `AtomicU64`
/// byte-lane words (key byte `b` = lane `b % 8` of word `b / 8`) so a lookup is
/// one word load + a lane extract and a child walk runs 16 entries per
/// vectorized nonzero-lane step ([`crate::search::occupied_slots`]) instead of
/// 256 single-byte atomic loads. The 64-byte alignment puts the header and the
/// first stretch of the index on one line.
#[repr(C, align(64))]
pub struct Node48 {
    /// Shared header.
    pub hdr: NodeHeader,
    index: [AtomicU64; 32],
    children: [AtomicUsize; 48],
}

/// 256-way node: direct-mapped children.
#[repr(C, align(64))]
pub struct Node256 {
    /// Shared header.
    pub hdr: NodeHeader,
    children: [AtomicUsize; 256],
}

macro_rules! zeroed_array {
    ($ty:ty, $n:expr) => {{
        let mut v: Vec<$ty> = Vec::with_capacity($n);
        v.resize_with($n, Default::default);
        let boxed: Box<[$ty; $n]> = v.into_boxed_slice().try_into().ok().expect("length matches");
        *boxed
    }};
}

impl Node4 {
    /// Allocate an empty `Node4` on the PM pool. Returns the untagged pointer word.
    pub fn alloc(level: u32, prefix: &[u8]) -> usize {
        pm::alloc::pm_box(Node4 {
            hdr: NodeHeader::new(NodeTag::N4, level, prefix),
            keys: AtomicU64::new(0),
            children: zeroed_array!(AtomicUsize, 4),
        }) as usize
    }
}

impl Node16 {
    /// Allocate an empty `Node16` on the PM pool. Returns the untagged pointer word.
    pub fn alloc(level: u32, prefix: &[u8]) -> usize {
        pm::alloc::pm_box(Node16 {
            hdr: NodeHeader::new(NodeTag::N16, level, prefix),
            keys: [AtomicU64::new(0), AtomicU64::new(0)],
            children: zeroed_array!(AtomicUsize, 16),
        }) as usize
    }
}

impl Node48 {
    /// Allocate an empty `Node48` on the PM pool. Returns the untagged pointer word.
    pub fn alloc(level: u32, prefix: &[u8]) -> usize {
        pm::alloc::pm_box(Node48 {
            hdr: NodeHeader::new(NodeTag::N48, level, prefix),
            index: zeroed_array!(AtomicU64, 32),
            children: zeroed_array!(AtomicUsize, 48),
        }) as usize
    }

    /// The slot reference (slot + 1; 0 = empty) for key byte `b`: one `Acquire`
    /// word load + a lane extract.
    #[inline]
    fn slot_ref(&self, b: u8) -> u8 {
        let w = self.index[b as usize / 8].load(Ordering::Acquire);
        recipe::simd::get_lane8(w, b as usize % 8)
    }

    /// Store slot reference `v` for key byte `b` with one atomic word store (a
    /// lane splice; the word is only written under the node lock, so the
    /// read-modify-write cannot race another writer, and readers see the other
    /// lanes unchanged). The caller persists `index[b / 8]`.
    #[inline]
    fn set_slot_ref(&self, b: u8, v: u8) {
        let word = &self.index[b as usize / 8];
        let cur = word.load(Ordering::Acquire);
        word.store(recipe::simd::set_lane8(cur, b as usize % 8, v), Ordering::Release);
    }
}

impl Node256 {
    /// Allocate an empty `Node256` (also used for the tree root).
    pub fn alloc(level: u32, prefix: &[u8]) -> usize {
        pm::alloc::pm_box(Node256 {
            hdr: NodeHeader::new(NodeTag::N256, level, prefix),
            children: zeroed_array!(AtomicUsize, 256),
        }) as usize
    }
}

/// Free the inner node `word` names, not its children.
///
/// # Safety
/// `word` is an untagged pointer to an inner node this crate allocated, freed once,
/// that no thread can reach any more.
pub unsafe fn free_node(word: usize) {
    // SAFETY: caller contract; each node type was allocated with `pm_box`.
    unsafe {
        match NodeRef::from_word(word).hdr().tag {
            NodeTag::N4 => pm::alloc::pm_drop(word as *mut Node4),
            NodeTag::N16 => pm::alloc::pm_drop(word as *mut Node16),
            NodeTag::N48 => pm::alloc::pm_drop(word as *mut Node48),
            NodeTag::N256 => pm::alloc::pm_drop(word as *mut Node256),
        }
    }
}

/// A borrowed view of an inner node, dispatching on the header tag.
#[derive(Clone, Copy)]
pub struct NodeRef {
    ptr: *mut NodeHeader,
}

// SAFETY: NodeRef is a shared reference to an inner node whose mutation protocol is
// lock + atomics; it can be sent/shared across threads like `&NodeHeader`.
unsafe impl Send for NodeRef {}
// SAFETY: as above — shared access follows the lock + atomics protocol.
unsafe impl Sync for NodeRef {}

impl NodeRef {
    /// Wrap an untagged child word.
    ///
    /// # Safety
    /// `word` must be an untagged pointer to a live inner node allocated by this crate.
    #[inline]
    pub unsafe fn from_word(word: usize) -> NodeRef {
        debug_assert!(!is_leaf(word) && word != 0);
        NodeRef { ptr: word as *mut NodeHeader }
    }

    /// The untagged pointer word for storing in a parent slot.
    #[inline]
    #[must_use]
    pub fn word(&self) -> usize {
        self.ptr as usize
    }

    /// Shared access to the header.
    #[inline]
    #[must_use]
    pub fn hdr(&self) -> &NodeHeader {
        // SAFETY: construction contract of `from_word`.
        unsafe { &*self.ptr }
    }

    #[inline]
    fn as_n4(&self) -> &Node4 {
        // SAFETY: tag checked by callers; all node types are #[repr(C)] with the
        // header first, so the cast is layout-compatible.
        unsafe { &*(self.ptr as *const Node4) }
    }
    #[inline]
    fn as_n16(&self) -> &Node16 {
        // SAFETY: see `as_n4`.
        unsafe { &*(self.ptr as *const Node16) }
    }
    #[inline]
    fn as_n48(&self) -> &Node48 {
        // SAFETY: see `as_n4`.
        unsafe { &*(self.ptr as *const Node48) }
    }
    #[inline]
    fn as_n256(&self) -> &Node256 {
        // SAFETY: see `as_n4`.
        unsafe { &*(self.ptr as *const Node256) }
    }

    /// Find the child for key byte `b`, or 0 if absent. Non-blocking.
    ///
    /// Node4/Node16 go through [`crate::search::match_slots`] — one `Acquire` load
    /// per packed key word, then a branch-free vectorized compare — instead of the
    /// old per-byte `Acquire` loop.
    #[must_use]
    pub fn find_child(&self, b: u8) -> usize {
        match self.hdr().tag {
            NodeTag::N4 => {
                let n = self.as_n4();
                Self::find_packed(
                    std::slice::from_ref(&n.keys),
                    &n.children,
                    &n.hdr,
                    b,
                    pm::stats::Mapping::ArtN4,
                )
            }
            NodeTag::N16 => {
                let n = self.as_n16();
                Self::find_packed(&n.keys, &n.children, &n.hdr, b, pm::stats::Mapping::ArtN16)
            }
            NodeTag::N48 => {
                pm::stats::record_probes(pm::stats::Mapping::ArtN48, 1);
                let n = self.as_n48();
                let idx = n.slot_ref(b);
                if idx == 0 {
                    0
                } else {
                    n.children[(idx - 1) as usize].load(Ordering::Acquire)
                }
            }
            NodeTag::N256 => {
                pm::stats::record_probes(pm::stats::Mapping::ArtN256, 1);
                self.as_n256().children[b as usize].load(Ordering::Acquire)
            }
        }
    }

    fn find_packed(
        words: &[AtomicU64],
        children: &[AtomicUsize],
        hdr: &NodeHeader,
        b: u8,
        mapping: pm::stats::Mapping,
    ) -> usize {
        let count = (hdr.count.load(Ordering::Acquire) as usize).min(children.len());
        pm::stats::record_probes(mapping, count as u64);
        let (w0, w1) = Self::load_key_words(words);
        for i in crate::search::match_slots(w0, w1, count, b) {
            let c = children[i].load(Ordering::Acquire);
            if c != 0 {
                return c;
            }
        }
        0
    }

    /// One `Acquire` load per packed key word (Node4 has one, Node16 two).
    #[inline]
    fn load_key_words(words: &[AtomicU64]) -> (u64, u64) {
        let w0 = words[0].load(Ordering::Acquire);
        let w1 = if words.len() > 1 { words[1].load(Ordering::Acquire) } else { 0 };
        (w0, w1)
    }

    /// Hand the live `(key byte, child word)` pairs with key byte `>= lo` to `f`,
    /// **in key order**, until it returns `true`; returns whether it did.
    ///
    /// Lock-free and allocation-free, and lazy: a child slot is loaded when the
    /// walk reaches it, so a range scan that starts at byte `lo` and stops after
    /// a few children touches only those (Node48/Node256 iterate in byte order
    /// from `lo`; Node4/Node16 sort their ≤16 live entries in a stack array).
    pub fn walk_children_from(&self, lo: u8, mut f: impl FnMut(u8, usize) -> bool) -> bool {
        match self.hdr().tag {
            NodeTag::N4 => {
                let n = self.as_n4();
                Self::walk_packed(std::slice::from_ref(&n.keys), &n.children, &n.hdr, lo, f)
            }
            NodeTag::N16 => {
                let n = self.as_n16();
                Self::walk_packed(&n.keys, &n.children, &n.hdr, lo, f)
            }
            NodeTag::N48 => {
                // Vectorized occupancy scan: 16 index entries per step instead of
                // 256 single-byte loads; empty word pairs short-circuit entirely.
                let n = self.as_n48();
                let (first, skip) = (lo as usize / 16, lo as usize % 16);
                for pair in first..16 {
                    let w0 = n.index[2 * pair].load(Ordering::Acquire);
                    let w1 = n.index[2 * pair + 1].load(Ordering::Acquire);
                    if w0 == 0 && w1 == 0 {
                        continue;
                    }
                    let mut lanes = crate::search::occupied_mask(w0, w1);
                    if pair == first {
                        lanes &= !0 << skip;
                    }
                    for lane in SetBits(lanes) {
                        let idx = crate::search::key_at(w0, w1, lane);
                        let c = n.children[(idx - 1) as usize].load(Ordering::Acquire);
                        if c != 0 && f((pair * 16 + lane) as u8, c) {
                            return true;
                        }
                    }
                }
                false
            }
            NodeTag::N256 => {
                let n = self.as_n256();
                for b in lo..=u8::MAX {
                    let c = n.children[b as usize].load(Ordering::Acquire);
                    if c != 0 && f(b, c) {
                        return true;
                    }
                }
                false
            }
        }
    }

    fn walk_packed(
        words: &[AtomicU64],
        children: &[AtomicUsize],
        hdr: &NodeHeader,
        lo: u8,
        mut f: impl FnMut(u8, usize) -> bool,
    ) -> bool {
        let count = (hdr.count.load(Ordering::Acquire) as usize).min(children.len());
        let (w0, w1) = Self::load_key_words(words);
        let mut live = [(0u8, 0usize); 16];
        let mut n = 0;
        for (i, child) in children.iter().enumerate().take(count) {
            let (b, c) = (crate::search::key_at(w0, w1, i), child.load(Ordering::Acquire));
            if c != 0 && b >= lo {
                live[n] = (b, c);
                n += 1;
            }
        }
        live[..n].sort_unstable_by_key(|&(b, _)| b);
        live[..n].iter().any(|&(b, c)| f(b, c))
    }

    /// Whether the node has no room for a new child (caller should grow). Writers call
    /// this under the node lock, so the answer is stable.
    #[must_use]
    pub fn is_full(&self) -> bool {
        match self.hdr().tag {
            NodeTag::N4 => self.linear_full(&self.as_n4().children, 4),
            NodeTag::N16 => self.linear_full(&self.as_n16().children, 16),
            NodeTag::N48 => {
                let n = self.as_n48();
                (0..48).all(|i| n.children[i].load(Ordering::Acquire) != 0)
            }
            NodeTag::N256 => false,
        }
    }

    fn linear_full(&self, children: &[AtomicUsize], cap: usize) -> bool {
        let count = self.hdr().count.load(Ordering::Acquire) as usize;
        if count < cap {
            return false;
        }
        (0..cap).all(|i| children[i].load(Ordering::Acquire) != 0)
    }

    /// Add a child for key byte `b`. Must be called with the node lock held and only
    /// when [`NodeRef::is_full`] is false and `b` is not already present.
    ///
    /// `P` drives the RECIPE conversion: preparatory stores (key byte, child slot)
    /// are staged, and the commit is a `PersistMode::publish` whose leading fence
    /// also covers the new leaf, which arrives staged. Private, not yet reachable
    /// nodes are filled with `P = Dram` and staged whole by their builder.
    pub fn add_child<P: PersistMode>(&self, b: u8, child: usize) -> bool {
        match self.hdr().tag {
            NodeTag::N4 => {
                let n = self.as_n4();
                self.add_packed::<P>(std::slice::from_ref(&n.keys), &n.children, 4, b, child)
            }
            NodeTag::N16 => {
                let n = self.as_n16();
                self.add_packed::<P>(&n.keys, &n.children, 16, b, child)
            }
            NodeTag::N48 => {
                let n = self.as_n48();
                let slot = (0..48).find(|&i| n.children[i].load(Ordering::Acquire) == 0);
                let Some(slot) = slot else { return false };
                // The slot is unreachable until the index byte names it.
                P::stage_store(&n.children[slot], || {
                    n.children[slot].store(child, Ordering::Release)
                });
                // Commit: publish the slot in the packed byte index.
                let word = &n.index[b as usize / 8];
                P::publish(
                    word,
                    || {
                        n.set_slot_ref(b, slot as u8 + 1);
                        self.hdr().count.fetch_add(1, Ordering::Release);
                    },
                    leaf_covers(child),
                    None,
                );
                true
            }
            NodeTag::N256 => {
                let n = self.as_n256();
                // No preparatory store: the child-pointer store publishes.
                let slot = &n.children[b as usize];
                P::publish(
                    slot,
                    || {
                        slot.store(child, Ordering::Release);
                        self.hdr().count.fetch_add(1, Ordering::Release);
                    },
                    leaf_covers(child),
                    None,
                );
                true
            }
        }
    }

    fn add_packed<P: PersistMode>(
        &self,
        words: &[AtomicU64],
        children: &[AtomicUsize],
        cap: usize,
        b: u8,
        child: usize,
    ) -> bool {
        let hdr = self.hdr();
        let count = hdr.count.load(Ordering::Acquire) as usize;
        // Reuse a hole left by a deletion first.
        let hole = (0..count.min(cap)).find(|&i| children[i].load(Ordering::Acquire) == 0);
        let (slot, bump_count) = match hole {
            Some(i) => (i, false),
            None if count < cap => (count, true),
            None => return false,
        };
        // Key byte first, staged, then the committing store. The byte is spliced
        // into its packed word with one atomic store; the word is only written
        // under the node lock, so the read-modify-write cannot race with another
        // writer, and readers see the other lanes unchanged.
        let (wi, lane) = (slot / 8, slot % 8);
        let cur = words[wi].load(Ordering::Acquire);
        P::stage_store(&words[wi], || {
            words[wi].store(recipe::simd::set_lane8(cur, lane, b), Ordering::Release);
        });
        // A slot past `count` is published by the `count` store (its pointer is
        // staged with the key byte: invisible until counted), a reused hole by the
        // child pointer (a counted slot with a null pointer is a hole).
        let store_child = || children[slot].store(child, Ordering::Release);
        if bump_count {
            P::stage_store(&children[slot], store_child);
            P::publish(
                &hdr.count,
                || {
                    hdr.count.fetch_add(1, Ordering::Release);
                },
                leaf_covers(child),
                None,
            );
        } else {
            P::publish(&children[slot], store_child, leaf_covers(child), None);
        }
        true
    }

    /// The occupied child slot for byte `b`, if any.
    fn child_slot(&self, b: u8) -> Option<&AtomicUsize> {
        match self.hdr().tag {
            NodeTag::N4 => {
                let n = self.as_n4();
                self.packed_slot(std::slice::from_ref(&n.keys), &n.children, b)
            }
            NodeTag::N16 => {
                let n = self.as_n16();
                self.packed_slot(&n.keys, &n.children, b)
            }
            NodeTag::N48 => {
                let n = self.as_n48();
                let idx = n.slot_ref(b);
                (idx != 0).then(|| &n.children[(idx - 1) as usize])
            }
            NodeTag::N256 => {
                let slot = &self.as_n256().children[b as usize];
                (slot.load(Ordering::Acquire) != 0).then_some(slot)
            }
        }
    }

    fn packed_slot<'a>(
        &self,
        words: &[AtomicU64],
        children: &'a [AtomicUsize],
        b: u8,
    ) -> Option<&'a AtomicUsize> {
        let count = (self.hdr().count.load(Ordering::Acquire) as usize).min(children.len());
        let (w0, w1) = Self::load_key_words(words);
        crate::search::match_slots(w0, w1, count, b)
            .map(|i| &children[i])
            .find(|c| c.load(Ordering::Acquire) != 0)
    }

    /// Replace the existing child for byte `b` with `new_child`: a publishing store
    /// whose `covers` the caller names (what it built and staged). Must be called
    /// with the node lock held; returns false if `b` has no child.
    pub fn replace_child<P: PersistMode>(
        &self,
        b: u8,
        new_child: usize,
        covers: impl IntoIterator<Item = Span>,
    ) -> bool {
        let Some(slot) = self.child_slot(b) else { return false };
        P::publish(slot, || slot.store(new_child, Ordering::Release), covers, None);
        true
    }

    /// Remove the child for byte `b` (single atomic store). Lock must be held.
    pub fn remove_child<P: PersistMode>(&self, b: u8) -> bool {
        let Some(slot) = self.child_slot(b) else { return false };
        if let NodeTag::N48 = self.hdr().tag {
            // The index byte unpublishes the slot; the pointer is cleared behind it.
            let n = self.as_n48();
            P::persist_store(&n.index[b as usize / 8], || n.set_slot_ref(b, 0));
            slot.store(0, Ordering::Release);
        } else {
            P::persist_store(slot, || slot.store(0, Ordering::Release));
        }
        true
    }

    /// Copy this node into the next larger node type, adding child `b -> child`.
    /// Returns the new node's untagged word. Lock must be held; the caller flushes
    /// the new node, installs it in the parent and marks this node obsolete.
    #[must_use]
    pub fn grow_with(&self, b: u8, child: usize) -> usize {
        let hdr = self.hdr();
        let (prefix, plen) = hdr.prefix();
        let new_word = match hdr.tag {
            NodeTag::N4 => Node16::alloc(hdr.level, &prefix[..plen]),
            NodeTag::N16 => Node48::alloc(hdr.level, &prefix[..plen]),
            NodeTag::N48 => Node256::alloc(hdr.level, &prefix[..plen]),
            NodeTag::N256 => unreachable!("Node256 never grows"),
        };
        // SAFETY: freshly allocated inner node word.
        let new_ref = unsafe { NodeRef::from_word(new_word) };
        // Private copy: plain stores; the caller flushes the whole node.
        self.walk_children_from(0, |kb, c| {
            let ok = new_ref.add_child::<Dram>(kb, c);
            debug_assert!(ok);
            false
        });
        let ok = new_ref.add_child::<Dram>(b, child);
        debug_assert!(ok);
        new_word
    }

    /// Approximate memory size of this node in bytes (for persist calls).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        match self.hdr().tag {
            NodeTag::N4 => std::mem::size_of::<Node4>(),
            NodeTag::N16 => std::mem::size_of::<Node16>(),
            NodeTag::N48 => std::mem::size_of::<Node48>(),
            NodeTag::N256 => std::mem::size_of::<Node256>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every live `(key byte, child)` of `n` from byte `lo` on, as the walk reports them.
    fn children_from(n: &NodeRef, lo: u8) -> Vec<(u8, usize)> {
        let mut out = Vec::new();
        n.walk_children_from(lo, |b, c| {
            out.push((b, c));
            false
        });
        out
    }

    #[test]
    fn prefix_packing_roundtrip() {
        for pfx in [&b""[..], b"a", b"abc", b"1234567"] {
            let w = pack_prefix(pfx);
            let (bytes, len) = unpack_prefix(w);
            assert_eq!(&bytes[..len], pfx);
        }
    }

    #[test]
    fn leaf_tagging() {
        let w = leaf_word(Leaf::alloc(b"key", 7).as_ptr());
        assert!(is_leaf(w));
        // SAFETY: freshly allocated leaf.
        let l = unsafe { leaf_ref(w) };
        assert_eq!(&*l.key, b"key");
        assert_eq!(l.value.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn n4_add_find_remove() {
        let w = Node4::alloc(0, b"");
        // SAFETY: freshly allocated.
        let n = unsafe { NodeRef::from_word(w) };
        assert_eq!(n.find_child(5), 0);
        let c1 = leaf_word(Leaf::alloc(b"a", 1).as_ptr());
        let c2 = leaf_word(Leaf::alloc(b"b", 2).as_ptr());
        assert!(n.add_child::<Dram>(5, c1));
        assert!(n.add_child::<Dram>(9, c2));
        assert_eq!(n.find_child(5), c1);
        assert_eq!(n.find_child(9), c2);
        assert_eq!(children_from(&n, 0).len(), 2);
        assert!(n.remove_child::<Dram>(5));
        assert_eq!(n.find_child(5), 0);
        assert!(!n.remove_child::<Dram>(5));
        // Hole is reused.
        let c3 = leaf_word(Leaf::alloc(b"c", 3).as_ptr());
        assert!(n.add_child::<Dram>(7, c3));
        assert_eq!(n.find_child(7), c3);
        assert_eq!(n.hdr().count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn n4_fills_and_reports_full() {
        let w = Node4::alloc(0, b"");
        // SAFETY: freshly allocated.
        let n = unsafe { NodeRef::from_word(w) };
        for b in 0..4u8 {
            assert!(!n.is_full());
            assert!(n.add_child::<Dram>(b, leaf_word(Leaf::alloc(&[b], b as u64).as_ptr())));
        }
        assert!(n.is_full());
        assert!(!n.add_child::<Dram>(99, leaf_word(Leaf::alloc(b"x", 0).as_ptr())));
    }

    #[test]
    fn grow_preserves_children_through_all_sizes() {
        let mut word = Node4::alloc(3, b"pre");
        let mut inserted: Vec<(u8, usize)> = Vec::new();
        for b in 0..200u8 {
            // SAFETY: `word` always refers to the current live copy.
            let n = unsafe { NodeRef::from_word(word) };
            let leaf = leaf_word(Leaf::alloc(&[b], b as u64).as_ptr());
            if n.is_full() {
                word = n.grow_with(b, leaf);
            } else {
                assert!(n.add_child::<Dram>(b, leaf));
            }
            inserted.push((b, leaf));
            // SAFETY: `word` was produced by this test's own allocations above.
            let cur = unsafe { NodeRef::from_word(word) };
            for &(kb, c) in &inserted {
                assert_eq!(
                    cur.find_child(kb),
                    c,
                    "lost child {kb} after reaching {:?}",
                    cur.hdr().tag
                );
            }
        }
        // SAFETY: current copy.
        let n = unsafe { NodeRef::from_word(word) };
        assert_eq!(n.hdr().tag, NodeTag::N256);
        assert_eq!(n.hdr().level, 3);
        let (p, l) = n.hdr().prefix();
        assert_eq!(&p[..l], b"pre");
        assert_eq!(children_from(&n, 0).len(), 200);
    }

    #[test]
    fn n48_and_n256_replace_child() {
        for make in [Node48::alloc as fn(u32, &[u8]) -> usize, Node256::alloc] {
            let w = make(0, b"");
            // SAFETY: freshly allocated.
            let n = unsafe { NodeRef::from_word(w) };
            let c1 = leaf_word(Leaf::alloc(b"1", 1).as_ptr());
            let c2 = leaf_word(Leaf::alloc(b"2", 2).as_ptr());
            assert!(!n.replace_child::<Dram>(10, c2, []), "replace on absent byte fails");
            assert!(n.add_child::<Dram>(10, c1));
            assert!(n.replace_child::<Dram>(10, c2, []));
            assert_eq!(n.find_child(10), c2);
        }
    }

    #[test]
    fn header_is_first_field_for_every_node_type() {
        // The unsafe casts in NodeRef rely on the header being at offset 0.
        assert_eq!(std::mem::offset_of!(Node4, hdr), 0);
        assert_eq!(std::mem::offset_of!(Node16, hdr), 0);
        assert_eq!(std::mem::offset_of!(Node48, hdr), 0);
        assert_eq!(std::mem::offset_of!(Node256, hdr), 0);
    }

    #[test]
    fn count_and_keys_share_the_first_cacheline() {
        // The cacheline-conscious relayout: nodes are 64-byte aligned and the
        // occupancy count + the key material a search reads all sit in line 0.
        assert_eq!(std::mem::align_of::<Node4>(), 64);
        assert_eq!(std::mem::align_of::<Node16>(), 64);
        assert_eq!(std::mem::align_of::<Node48>(), 64);
        let count_off = std::mem::offset_of!(NodeHeader, count);
        assert!(count_off + 2 <= 64);
        assert!(std::mem::offset_of!(Node4, keys) + 8 <= 64);
        assert!(std::mem::offset_of!(Node16, keys) + 16 <= 64);
        // Node48's index array starts in line 0 right after the header.
        assert!(std::mem::offset_of!(Node48, index) < 64);
    }

    #[test]
    fn children_are_reported_in_key_order() {
        // Insert out of order into N4 and N16; the walk must come back sorted.
        for (make, n_keys) in
            [(Node4::alloc as fn(u32, &[u8]) -> usize, 4usize), (Node16::alloc, 16)]
        {
            let w = make(0, b"");
            // SAFETY: freshly allocated.
            let n = unsafe { NodeRef::from_word(w) };
            let bytes: Vec<u8> = (0..n_keys as u8).map(|i| 251u8.wrapping_mul(i + 1)).collect();
            for &b in &bytes {
                assert!(n.add_child::<Dram>(b, leaf_word(Leaf::alloc(&[b], u64::from(b)).as_ptr())));
            }
            let got: Vec<u8> = children_from(&n, 0).iter().map(|&(b, _)| b).collect();
            let mut want = bytes.clone();
            want.sort_unstable();
            assert_eq!(got, want, "{:?} children not in key order", n.hdr().tag);
        }
    }

    /// Every node type, from every start byte: the walk reports exactly the
    /// children at or above it, ascending, and stops when told to.
    #[test]
    fn walk_starts_at_the_bound_and_stops_on_request() {
        let bytes: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(13).wrapping_add(5)).collect();
        let mut word = Node4::alloc(0, b"");
        for (i, &b) in bytes.iter().enumerate() {
            // SAFETY: `word` always refers to the current live copy.
            let n = unsafe { NodeRef::from_word(word) };
            let leaf = leaf_word(Leaf::alloc(&[b], u64::from(b)).as_ptr());
            if n.is_full() {
                word = n.grow_with(b, leaf);
            } else {
                assert!(n.add_child::<Dram>(b, leaf));
            }
            if ![3, 15, 39].contains(&i) {
                continue; // check a Node4, a Node16 and a Node48
            }
            // SAFETY: current copy.
            let n = unsafe { NodeRef::from_word(word) };
            let mut sorted = bytes[..=i].to_vec();
            sorted.sort_unstable();
            for lo in 0..=u8::MAX {
                let got: Vec<u8> = children_from(&n, lo).iter().map(|&(b, _)| b).collect();
                let want: Vec<u8> = sorted.iter().copied().filter(|&b| b >= lo).collect();
                assert_eq!(got, want, "{:?} from byte {lo}", n.hdr().tag);
            }
            let mut seen = 0;
            assert!(n.walk_children_from(0, |_, _| {
                seen += 1;
                seen == 2
            }));
            assert_eq!(seen, 2, "{:?}: the walk must stop when asked", n.hdr().tag);
        }
        // Node256, with its last slot occupied.
        let w = Node256::alloc(0, b"");
        // SAFETY: freshly allocated.
        let n = unsafe { NodeRef::from_word(w) };
        for b in [0u8, 7, 200, 255] {
            assert!(n.add_child::<Dram>(b, leaf_word(Leaf::alloc(&[b], 0).as_ptr())));
        }
        let from = |lo| children_from(&n, lo).iter().map(|&(b, _)| b).collect::<Vec<u8>>();
        assert_eq!(from(0), vec![0, 7, 200, 255]);
        assert_eq!(from(8), vec![200, 255]);
        assert_eq!(from(255), vec![255]);
    }
}
