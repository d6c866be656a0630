//! The height-optimized trie and its RECIPE conversion.
//!
//! Nodes discriminate on a window of up to [`crate::bits::MAX_BITS`] key bits chosen
//! at the first point of divergence, and windows skip over bits every key in the
//! subtree shares (Patricia-style path skipping), so the tree stays shallow and no
//! full keys are compared until the leaf — the cache-efficiency property the paper
//! credits for P-HOT's read performance. Readers are non-blocking; writers lock the
//! single node whose child slot they modify; every update becomes visible through one
//! atomic store (a child-slot store, a parent-slot swap installing a freshly built
//! branch node, or a leaf-value store) — **Condition #1**, so the conversion to P-HOT
//! only adds cache-line flushes and fences after those stores.
//!
//! Flushes and fences follow one discipline — **stage, fence once, publish**
//! (`recipe::persist`): an object nothing can reach yet (a new leaf, a branch node, a
//! compound, an unpublished compound slot's group line) is staged and becomes durable
//! under the single fence `PersistMode::publish` issues ahead of the store that makes
//! it reachable, which checks its `covers` durable under the tracker. Every
//! structural change publishes through `Hot::publish_in_parent`.
//!
//! # Compound-node widening
//!
//! Hot subtrees are opportunistically *widened* into [`Compound`] nodes covering a
//! [`COMPOUND_BITS`]-bit window (up to three stacked plain-node windows), cutting
//! pointer chases per lookup — see `compound.rs` for the in-node layout. Widening
//! follows the same publish discipline as every other structural change: the
//! compound is built aside from a locked, frozen set of plain nodes, flushed, and
//! installed with **one** parent-slot store (`hot.widen.built` / `.flushed` /
//! `.committed` crash sites). Frozen nodes are marked obsolete only after the
//! install; writers re-check the flag after acquiring any node lock and restart.
//! When a compound's sparse entry array fills up, the inverse rebuild replaces it
//! with plain nodes through the same build-aside/flush/one-store protocol.

use crate::bits::{
    cmp_bit_prefix, extract_bits, extract_wide, first_diff_bit, COMPOUND_BITS, MAX_BITS,
};
use crate::compound::{prefix_mask, Compound, Entry, COMPOUND_CAP, FULL_MASK};
use pm::stats::{record_probes, Mapping};
use recipe::epoch::Collector;
use recipe::key::Leaf;
use recipe::lock::{VersionGuard, VersionLock};
use recipe::persist::{span, PersistMode, Span};
use recipe::session::ScanBuf;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

const FANOUT: usize = 1 << MAX_BITS;

/// Minimum gathered entries for widening to be worthwhile; below this a compound
/// is pure overhead over the plain node it replaces.
const MIN_WIDEN_ENTRIES: usize = 4;

/// Attempt widening on every `WIDEN_PERIOD`-th branch insertion. A max-class
/// compound is ~16 KiB (257 cache lines at [`COMPOUND_CAP`] entries) — and even
/// the smallest capacity class is several lines — so installs must be rare
/// enough that flushing one amortizes to a few cache lines per insert.
const WIDEN_PERIOD: usize = 64;

/// Inner node: a window of discriminative bits and up to 32 children.
pub struct Node {
    /// First discriminative bit (absolute position in the key).
    pub bit_pos: u32,
    /// Number of discriminative bits (1..=5).
    pub width: u32,
    /// Set (under this node's lock) once a widened replacement has been installed
    /// over this node; writers must re-descend.
    pub obsolete: AtomicBool,
    /// Writer lock.
    pub lock: VersionLock,
    /// Sparse child array indexed by the extracted bit pattern. Tagged words: bit 0
    /// set = leaf, bit 1 set = compound node, untagged = inner node, 0 = empty.
    pub children: [AtomicUsize; FANOUT],
}

#[inline]
fn is_leaf(word: usize) -> bool {
    word & 1 == 1
}

#[inline]
fn is_compound(word: usize) -> bool {
    word & 0b11 == 0b10
}

#[inline]
fn leaf_of(word: usize) -> *const Leaf {
    (word & !0b11) as *const Leaf
}

/// The compound a tagged word names.
///
/// # Safety
/// `word` is a compound word of this trie whose block is not freed yet.
#[inline]
unsafe fn compound_of<'a>(word: usize) -> &'a Compound {
    // SAFETY: caller contract.
    unsafe { Compound::from_addr(word & !0b11) }
}

/// The tagged word naming compound `c`.
#[inline]
fn compound_word(c: *const Compound) -> usize {
    c.cast::<u8>() as usize | 0b10
}

/// First discriminative bit of the non-leaf subtree rooted at `word`.
#[inline]
fn subtree_start(word: usize) -> u32 {
    debug_assert!(word != 0 && !is_leaf(word));
    if is_compound(word) {
        // SAFETY: freed only when the trie drops.
        unsafe { compound_of(word) }.bit_pos
    } else {
        // SAFETY: freed only when the trie drops.
        unsafe { &*(word as *const Node) }.bit_pos
    }
}

/// Allocate a leaf and stage it, returning it with its tagged word. The caller
/// keeps it unreachable until the publishing store whose `covers` name it.
fn alloc_leaf<'a, P: PersistMode>(key: &[u8], value: u64) -> (&'a Leaf, usize) {
    let ptr = Leaf::alloc(key, value);
    // SAFETY: fresh; the trie frees it only after unlinking it, or if it is never
    // published.
    let leaf = unsafe { ptr.as_ref() };
    leaf.stage::<P>();
    (leaf, ptr.as_ptr() as usize | 1)
}

/// Free the leaf, plain node or compound `word` names, not its children.
///
/// # Safety
/// `word` names an object this trie allocated, freed once, that no thread can reach.
unsafe fn free_one(word: usize) {
    // SAFETY: caller contract; leaves and compounds are line blocks, nodes boxes.
    unsafe {
        if is_leaf(word) {
            Leaf::free(leaf_of(word) as *mut Leaf);
        } else if is_compound(word) {
            Compound::free(compound_of(word));
        } else {
            pm::alloc::pm_drop(word as *mut Node);
        }
    }
}

/// Free every object of the subtree at `word` (0 for none), each once even if two
/// slots reach it.
///
/// # Safety
/// The subtree is this trie's, no thread can reach it, and nothing else frees any
/// object in it.
unsafe fn free_subtree(word: usize) {
    fn collect(word: usize, inner: &mut Vec<usize>, leaves: &mut Vec<*mut Leaf>) {
        if word == 0 {
            return;
        }
        if is_leaf(word) {
            leaves.push(leaf_of(word) as *mut Leaf);
            return;
        }
        inner.push(word);
        if is_compound(word) {
            // SAFETY: nothing is freed until the walk ends.
            for slot in unsafe { compound_of(word) }.children() {
                collect(slot.load(Ordering::Acquire), inner, leaves);
            }
        } else {
            // SAFETY: as above.
            for slot in &unsafe { &*(word as *const Node) }.children {
                collect(slot.load(Ordering::Acquire), inner, leaves);
            }
        }
    }
    let (mut inner, mut leaves) = (Vec::new(), Vec::new());
    collect(word, &mut inner, &mut leaves);
    inner.sort_unstable();
    inner.dedup();
    // SAFETY: caller contract; duplicates were removed.
    unsafe {
        for w in inner {
            free_one(w);
        }
        Leaf::free_all(leaves);
    }
}

fn alloc_node(bit_pos: u32, width: u32) -> *mut Node {
    pm::alloc::pm_box(Node {
        bit_pos,
        width,
        obsolete: AtomicBool::new(false),
        lock: VersionLock::new(),
        children: std::array::from_fn(|_| AtomicUsize::new(0)),
    })
}

/// One traversed level of the descent path: the slot the search key resolved to.
#[derive(Clone, Copy)]
enum Step {
    /// Plain node and child index.
    Node(*const Node, usize),
    /// Compound node, entry slot, and the matched entry's resolved window depth.
    Cpd(*const Compound, usize, u32),
}

impl Step {
    fn window_start(self) -> u32 {
        match self {
            // SAFETY: freed only when the trie drops.
            Step::Node(n, _) => unsafe { &*n }.bit_pos,
            // SAFETY: freed only when the trie drops.
            Step::Cpd(c, _, _) => unsafe { &*c }.bit_pos,
        }
    }

    /// Bits this step resolved beyond its window start.
    fn resolved_width(self) -> u32 {
        match self {
            // SAFETY: freed only when the trie drops.
            Step::Node(n, _) => unsafe { &*n }.width,
            Step::Cpd(_, _, depth) => depth,
        }
    }

    fn load_child(self) -> usize {
        match self {
            // SAFETY: freed only when the trie drops.
            Step::Node(n, i) => unsafe { &*n }.children[i].load(Ordering::Acquire),
            // SAFETY: freed only when the trie drops.
            Step::Cpd(c, i, _) => unsafe { &*c }.child(i).load(Ordering::Acquire),
        }
    }
}

/// Scratch state for one widening attempt: the entries gathered so far plus the
/// locks and node pointers of everything frozen into the compound.
struct WidenCtx {
    entries: Vec<Entry>,
    guards: Vec<VersionGuard<'static>>,
    /// Plain nodes inlined into the compound: replaced, children kept.
    frozen_nodes: Vec<&'static Node>,
    /// Tagged words of subtrees removes emptied, which the compound leaves out whole.
    dropped: Vec<usize>,
    inlined: bool,
    /// Plain nodes whose window ends at or before this absolute bit position are
    /// inlined; everything past it becomes a pointer entry. Chosen by
    /// [`Hot::plan_inline_limits`] so a large subtree widens into a *frontier* of
    /// pointer entries instead of overflowing.
    limit: u32,
}

/// Why a widening attempt did or did not install a compound.
#[derive(PartialEq, Eq, Clone, Copy)]
enum WidenOutcome {
    Installed,
    /// Too few entries or nothing inlinable; a *larger* enclosing subtree might
    /// still profit, so callers climb toward the root on this outcome.
    TooSmall,
    /// The subtree exceeds [`COMPOUND_CAP`] entries; every enclosing subtree is
    /// larger still, so callers stop climbing.
    Overflow,
    /// Lock contention or a concurrent structural change; try again another time.
    Busy,
}

/// The height-optimized trie, generic over the persistence policy: `Hot<Dram>` is the
/// DRAM index, `Hot<Pmem>` is P-HOT.
pub struct Hot<P: PersistMode> {
    root: AtomicUsize,
    root_lock: VersionLock,
    /// Volatile heuristic counter gating widening attempts; not persisted.
    widen_tick: AtomicUsize,
    /// What the run unlinked: replaced nodes and compounds, husks, removed leaves.
    /// Readers never pin it, so nothing it holds is freed before the trie drops.
    retired: Collector,
    _policy: PhantomData<P>,
}

// SAFETY: shared state is reached through atomics; nodes and leaves are never freed
// while the trie is alive.
unsafe impl<P: PersistMode> Send for Hot<P> {}
// SAFETY: as above — shared state is reached through atomics only.
unsafe impl<P: PersistMode> Sync for Hot<P> {}

impl<P: PersistMode> Default for Hot<P> {
    fn default() -> Self {
        Self::new()
    }
}

enum Append {
    Inserted,
    Retry,
}

impl<P: PersistMode> Hot<P> {
    /// Create an empty trie.
    #[must_use]
    pub fn new() -> Self {
        let t = Hot {
            root: AtomicUsize::new(0),
            root_lock: VersionLock::new(),
            widen_tick: AtomicUsize::new(0),
            retired: Collector::new(),
            _policy: PhantomData,
        };
        P::persist_obj(&t.root, true);
        t
    }

    /// Point lookup: follow discriminative bits, verify the full key at the leaf.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        if key.is_empty() {
            return None;
        }
        let mut word = self.root.load(Ordering::Acquire);
        loop {
            if word == 0 {
                return None;
            }
            if is_leaf(word) {
                // SAFETY: leaves are never freed while the trie is alive.
                let leaf = unsafe { &*leaf_of(word) };
                return (&*leaf.key == key).then(|| leaf.value.load(Ordering::Acquire));
            }
            pm::stats::record_node_visit();
            if is_compound(word) {
                // SAFETY: compounds are never freed while the trie is alive.
                let c = unsafe { compound_of(word) };
                let ext = extract_wide(key, c.bit_pos, COMPOUND_BITS);
                match c.find_child(ext) {
                    Some((_, child, _)) => word = child,
                    None => return None,
                }
                continue;
            }
            record_probes(Mapping::HotNode, 1);
            // SAFETY: inner nodes are never freed while the trie is alive.
            let node = unsafe { &*(word as *const Node) };
            let idx = extract_bits(key, node.bit_pos, node.width);
            word = node.children[idx].load(Ordering::Acquire);
        }
    }

    /// Insert or update; returns `true` if the key was newly inserted.
    pub fn insert(&self, key: &[u8], value: u64) -> bool {
        if key.is_empty() {
            return false;
        }
        'restart: loop {
            let root_word = self.root.load(Ordering::Acquire);
            if root_word == 0 {
                // Empty trie: commit by storing the leaf into the root word.
                let _g = self.root_lock.lock();
                if self.root.load(Ordering::Acquire) != 0 {
                    continue 'restart;
                }
                let (new, leaf) = alloc_leaf::<P>(key, value);
                P::crash_site("hot.insert.root_leaf_persisted");
                let root = &self.root;
                P::publish(
                    root,
                    || root.store(leaf, Ordering::Release),
                    new.covers(),
                    "hot.insert.root_committed",
                );
                return true;
            }

            // Descend, recording the path of steps we traversed.
            let mut path: Vec<Step> = Vec::with_capacity(16);
            let mut word = root_word;
            let existing_leaf = loop {
                if is_leaf(word) {
                    break word;
                }
                pm::stats::record_node_visit();
                if is_compound(word) {
                    // SAFETY: freed only when the trie drops.
                    let c = unsafe { compound_of(word) };
                    let ext = extract_wide(key, c.bit_pos, COMPOUND_BITS);
                    match c.find_child(ext) {
                        Some((slot, child, depth)) => {
                            path.push(Step::Cpd(c as *const Compound, slot, depth));
                            word = child;
                        }
                        None => {
                            // As in the plain-node empty-slot case below: the key may
                            // diverge before this node's window.
                            if let Some(rep) = self.min_key(word) {
                                if let Some(diff) = first_diff_bit(key, rep) {
                                    if diff < c.bit_pos {
                                        if self.insert_branch_above(&path, rep, diff, key, value) {
                                            return true;
                                        }
                                        continue 'restart;
                                    }
                                }
                            } else {
                                // Every key under this compound was removed: appending
                                // here would plant a key nothing witnesses the husk's
                                // implied prefix for. Retire the husk instead.
                                if self.replace_empty_subtree(&path, word, key, value) {
                                    return true;
                                }
                                continue 'restart;
                            }
                            match self.append_entry(c, ext, key, value, path.last().copied()) {
                                Append::Inserted => return true,
                                Append::Retry => continue 'restart,
                            }
                        }
                    }
                    continue;
                }
                record_probes(Mapping::HotNode, 1);
                // SAFETY: freed only when the trie drops.
                let node = unsafe { &*(word as *const Node) };
                let idx = extract_bits(key, node.bit_pos, node.width);
                let child = node.children[idx].load(Ordering::Acquire);
                if child == 0 {
                    // The key may diverge from the subtree's shared prefix *before*
                    // this node's window (Patricia skipping hides those bits); then a
                    // branch node must be inserted above instead of filling the slot,
                    // or sorted order would be violated.
                    if let Some(rep) = self.min_key(word) {
                        if let Some(diff) = first_diff_bit(key, rep) {
                            if diff < node.bit_pos {
                                if self.insert_branch_above(&path, rep, diff, key, value) {
                                    return true;
                                }
                                continue 'restart;
                            }
                        }
                    } else {
                        // Every key under this node was removed. Filling the slot
                        // would be wrong even though it is empty: nothing witnesses
                        // the prefix bits the husk's position implies (the branch
                        // check above has no `rep` to compare against), so an alien
                        // key planted here poisons every later `min_key`
                        // representative drawn from an enclosing subtree — a
                        // subsequent branch insertion placed by such a rep misroutes
                        // every surviving sibling. Retire the husk instead.
                        if self.replace_empty_subtree(&path, word, key, value) {
                            return true;
                        }
                        continue 'restart;
                    }
                    // Empty slot: the key belongs here. Commit = one atomic slot store.
                    let _g = node.lock.lock();
                    if node.obsolete.load(Ordering::Acquire)
                        || node.children[idx].load(Ordering::Acquire) != 0
                    {
                        continue 'restart;
                    }
                    let (new, leaf) = alloc_leaf::<P>(key, value);
                    P::crash_site("hot.insert.leaf_persisted");
                    let slot = &node.children[idx];
                    P::publish(
                        slot,
                        || slot.store(leaf, Ordering::Release),
                        new.covers(),
                        "hot.insert.slot_committed",
                    );
                    return true;
                }
                path.push(Step::Node(node as *const Node, idx));
                word = child;
            };

            // SAFETY: freed only when the trie drops.
            let leaf = unsafe { &*leaf_of(existing_leaf) };
            let Some(diff_bit) = first_diff_bit(key, &leaf.key) else {
                if &*leaf.key == key {
                    // Same key: in-place value update, single atomic store.
                    P::persist_store(&leaf.value, || leaf.value.store(value, Ordering::Release));
                    return false;
                }
                // Keys identical up to zero padding (one is a bit-prefix of the
                // other): unsupported, mirroring the fixed-length keys of the paper.
                return false;
            };

            if self.insert_branch_above(&path, &leaf.key, diff_bit, key, value) {
                return true;
            }
            continue 'restart;
        }
    }

    /// Append a new full-depth entry for `key` to compound `c` (no live entry
    /// matches window value `ext`). `parent` is the step whose slot holds `c`, used
    /// if the entry array has overflowed and the compound must be rebuilt as plain
    /// nodes.
    fn append_entry(
        &self,
        c: &Compound,
        ext: u16,
        key: &[u8],
        value: u64,
        parent: Option<Step>,
    ) -> Append {
        let _g = c.lock.lock();
        if c.obsolete.load(Ordering::Acquire) || c.find_child(ext).is_some() {
            // Replaced, or a concurrent writer published a matching entry: re-descend.
            return Append::Retry;
        }
        let count = c.published();
        // Published lanes are immutable, so a dead (removed) slot is only reusable
        // when its lanes already equal the entry being inserted.
        let reuse = (0..count).find(|&i| {
            c.child(i).load(Ordering::Acquire) == 0
                && c.pkey_at(i) == ext
                && c.mask_at(i) == FULL_MASK
        });
        match reuse {
            Some(slot) => {
                let (new, leaf) = alloc_leaf::<P>(key, value);
                P::crash_site("hot.insert.leaf_persisted");
                // Commit = one atomic child-slot store.
                let slot = c.child(slot);
                P::publish(
                    slot,
                    || slot.store(leaf, Ordering::Release),
                    new.covers(),
                    "hot.insert.slot_committed",
                );
                Append::Inserted
            }
            None if count < c.cap() => {
                // Slot `count` is unpublished: its lanes and child share one group
                // line and can be written in any order; the `count` store on the
                // header line is the single publishing atomic store. The leaf and
                // the group line are staged under the one fence ahead of it.
                let (new, leaf) = alloc_leaf::<P>(key, value);
                P::crash_site("hot.insert.leaf_persisted");
                let group = c.group(count);
                P::stage_store(group, || c.set_slot(count, (ext, FULL_MASK, leaf)));
                let covers = new.covers().into_iter().chain([span(group)]);
                let publish = || c.count.store(count as u32 + 1, Ordering::Release);
                P::publish(&c.count, publish, covers, "hot.insert.slot_committed");
                Append::Inserted
            }
            None if c.cap() < COMPOUND_CAP => {
                // Capacity class full: rebuild at the next class, then retry.
                self.regrow(c, parent);
                Append::Retry
            }
            None => {
                // Entry array full at the largest class: rebuild as plain nodes,
                // then retry the insert.
                self.unwiden(c, parent);
                Append::Retry
            }
        }
    }

    /// The publishing store of every structural change: under the lock of the slot
    /// `parent` names (the root word if `None`), swap `expected` for `new`, which
    /// makes `covers` reachable, and declare `site`. Returns `false`, storing
    /// nothing, if the slot's node was retired or the slot no longer holds
    /// `expected`.
    fn publish_in_parent(
        &self,
        parent: Option<Step>,
        expected: usize,
        new: usize,
        covers: impl IntoIterator<Item = Span>,
        site: &'static str,
    ) -> bool {
        let (slot, lock, obsolete) = match parent {
            None => (&self.root, &self.root_lock, None),
            Some(Step::Node(n, idx)) => {
                // SAFETY: freed only when the trie drops.
                let n = unsafe { &*n };
                (&n.children[idx], &n.lock, Some(&n.obsolete))
            }
            Some(Step::Cpd(c, idx, _)) => {
                // SAFETY: freed only when the trie drops.
                let c = unsafe { &*c };
                (c.child(idx), &c.lock, Some(&c.obsolete))
            }
        };
        let _g = lock.lock();
        if obsolete.is_some_and(|o| o.load(Ordering::Acquire))
            || slot.load(Ordering::Acquire) != expected
        {
            return false;
        }
        P::publish(slot, || slot.store(new, Ordering::Release), covers, site);
        true
    }

    /// Insert a freshly built branch node above the subtree whose keys diverge from
    /// `key` at `diff_bit`. `ref_key` is any key already stored in that subtree (it
    /// supplies the subtree's side of the window bits). Returns `false` if a
    /// concurrent modification invalidated the placement and the caller must retry.
    fn insert_branch_above(
        &self,
        path: &[Step],
        ref_key: &[u8],
        diff_bit: u32,
        key: &[u8],
        value: u64,
    ) -> bool {
        // Find where the new branch node belongs: above the first path node whose
        // window starts beyond the divergence bit.
        let mut insert_above = path.len();
        for (i, step) in path.iter().enumerate() {
            if step.window_start() > diff_bit {
                insert_above = i;
                break;
            }
            debug_assert!(
                diff_bit >= step.window_start() + step.resolved_width(),
                "divergence inside a traversed window is impossible"
            );
        }
        // The subtree to push down and the slot holding it.
        let (parent, displaced) = if insert_above == 0 {
            (None, self.root.load(Ordering::Acquire))
        } else {
            let step = path[insert_above - 1];
            (Some(step), step.load_child())
        };
        if displaced == 0 {
            return false;
        }

        // Build the branch node privately: window starts at the divergence bit. The
        // window must not extend into the displaced subtree's own discriminative
        // region — its keys only agree with `ref_key` on bits below the subtree's
        // window start.
        let width = if is_leaf(displaced) {
            MAX_BITS
        } else {
            let dstart = subtree_start(displaced);
            if dstart <= diff_bit {
                // A concurrent insertion committed its own branch into this slot
                // after we collected the path, moving the subtree's window at or
                // above our divergence bit. Our placement is stale; retry from the
                // root (the commit-time revalidation below would accept the slot —
                // it holds the word we loaded — so this must be caught here).
                return false;
            }
            MAX_BITS.min(dstart - diff_bit).max(1)
        };
        let branch = alloc_node(diff_bit, width);
        // SAFETY: freshly allocated, private.
        let b = unsafe { &*branch };
        let (new, new_leaf) = alloc_leaf::<P>(key, value);
        let new_idx = extract_bits(key, diff_bit, width);
        // The displaced subtree's keys all agree with `ref_key` on the window bits
        // (they share every bit up to their own, deeper windows).
        let old_idx = extract_bits(ref_key, diff_bit, width);
        debug_assert_ne!(new_idx, old_idx);
        b.children[old_idx].store(displaced, Ordering::Relaxed);
        b.children[new_idx].store(new_leaf, Ordering::Relaxed);
        P::stage_obj(branch);
        P::crash_site("hot.branch.built");

        // Commit: a single atomic pointer swap in the parent slot (or the root). A
        // compound entry's masked prefix still covers the subtree: the branch only
        // resolves bits at or past the entry's resolved depth.
        let covers = new.covers().into_iter().chain([span(branch)]);
        if !self.publish_in_parent(
            parent,
            displaced,
            branch as usize,
            covers,
            "hot.branch.committed",
        ) {
            // SAFETY: never published.
            unsafe {
                free_one(new_leaf);
                free_one(branch as usize);
            }
            return false;
        }

        // The parent just gained an inner-node child — exactly the shape compound
        // widening profits from. Occasionally climb the traversed path from the
        // deepest ancestor upward until an attempt installs, overflows, or hits
        // contention; "too small" subtrees just mean the profitable ancestor is
        // higher up.
        if self.widen_tick.fetch_add(1, Ordering::Relaxed) % WIDEN_PERIOD == 0 {
            if insert_above == 0 {
                self.try_widen(branch, None, false);
            } else {
                for k in (0..insert_above).rev() {
                    let Step::Node(p, _) = path[k] else { continue };
                    let tparent = if k >= 1 { Some(path[k - 1]) } else { None };
                    if self.try_widen(p, tparent, false) != WidenOutcome::TooSmall {
                        break;
                    }
                }
            }
        }
        true
    }

    /// Retire an all-empty subtree (a "husk" left behind by removes), committing a
    /// fresh leaf for `key` in its place.
    ///
    /// A husk's position still implies a key prefix (Patricia skipping stores the
    /// bits between its parent's window and its own nowhere else), but with every
    /// key removed nothing witnesses it. Planting `key` inside would make it the
    /// subtree's [`Hot::min_key`] — and a later branch insertion taking that alien
    /// key as an enclosing subtree's representative computes a placement index
    /// that misroutes every surviving sibling. So instead the husk is frozen
    /// (every node marked obsolete, which blocks all slot commits — they
    /// revalidate the flag under the node lock) and its topmost all-empty
    /// ancestor is atomically replaced by the new leaf: the subtree's key set
    /// becomes exactly `{key}`, and every representative drawn from it is the
    /// key itself.
    fn replace_empty_subtree(&self, path: &[Step], husk: usize, key: &[u8], value: u64) -> bool {
        // Ascend to the topmost ancestor whose whole subtree is empty; replacing
        // any lower node would leave the new leaf alien to the still-empty
        // levels above it.
        let mut top = husk;
        let mut boundary = path.len();
        while boundary > 0 {
            let above = match path[boundary - 1] {
                Step::Node(n, _) => n as usize,
                Step::Cpd(c, _, _) => compound_word(c),
            };
            if self.min_key(above).is_some() {
                break;
            }
            top = above;
            boundary -= 1;
        }

        // The parent's subtree (when there is one) still holds live keys
        // witnessing its implied prefix, and the new leaf would join them. If
        // `key` diverges from that witness *above* the parent's window, the key
        // is alien to the whole region — the husk's slot only looked right
        // because Patricia skipping never compared the diverging bits — and the
        // insert needs a branch above instead (the exact check the non-empty
        // slot path applies with its own subtree's representative).
        if boundary > 0 {
            let parent_word = match path[boundary - 1] {
                Step::Node(n, _) => n as usize,
                Step::Cpd(c, _, _) => compound_word(c),
            };
            if let Some(rep) = self.min_key(parent_word) {
                if let Some(diff) = first_diff_bit(key, rep) {
                    if diff < path[boundary - 1].window_start() {
                        return self.insert_branch_above(path, rep, diff, key, value);
                    }
                }
            } else {
                // The parent emptied out since the ascent looked: retry.
                return false;
            }
        }

        // Freeze top-down. Marking under the node's lock serializes with any
        // in-flight slot commit; re-walking children *after* the mark catches a
        // commit that won the lock first (then the subtree is no longer empty
        // and the attempt unwinds).
        let mut frozen: Vec<usize> = Vec::new();
        if !self.freeze_empty(top, &mut frozen) {
            Self::unfreeze(&frozen);
            return false;
        }

        // Commit: one atomic pointer swap in the parent slot (or the root),
        // same shape as every other insert commit.
        let parent = if boundary == 0 { None } else { Some(path[boundary - 1]) };
        let (new, leaf) = alloc_leaf::<P>(key, value);
        P::crash_site("hot.insert.leaf_persisted");
        if !self.publish_in_parent(parent, top, leaf, new.covers(), "hot.insert.slot_committed") {
            Self::unfreeze(&frozen);
            // SAFETY: never published.
            unsafe { free_one(leaf) };
            return false;
        }
        // The husk stays obsolete and is freed, whole, when the trie drops.
        self.retire(top, true);
        true
    }

    /// Mark every node of `word`'s subtree obsolete, verifying emptiness as it
    /// goes. Returns `false` if a leaf is found anywhere or a node is already
    /// obsolete (a racing rebuild owns it); the caller unwinds via
    /// [`Hot::unfreeze`].
    fn freeze_empty(&self, word: usize, frozen: &mut Vec<usize>) -> bool {
        if word == 0 {
            return true;
        }
        if is_leaf(word) {
            return false;
        }
        if is_compound(word) {
            // SAFETY: freed only when the trie drops.
            let c = unsafe { compound_of(word) };
            {
                let _g = c.lock.lock();
                if c.obsolete.swap(true, Ordering::AcqRel) {
                    return false;
                }
            }
            frozen.push(word);
            return c.children().all(|s| self.freeze_empty(s.load(Ordering::Acquire), frozen));
        }
        // SAFETY: freed only when the trie drops.
        let node = unsafe { &*(word as *const Node) };
        {
            let _g = node.lock.lock();
            if node.obsolete.swap(true, Ordering::AcqRel) {
                return false;
            }
        }
        frozen.push(word);
        node.children.iter().all(|s| self.freeze_empty(s.load(Ordering::Acquire), frozen))
    }

    /// Roll back a failed freeze: clear the obsolete marks so blocked writers
    /// (spinning in re-descend) can proceed.
    fn unfreeze(frozen: &[usize]) {
        for &word in frozen {
            Self::set_obsolete(word, false);
        }
    }

    /// Set or clear the obsolete flag of the plain node or compound `word` names.
    fn set_obsolete(word: usize, on: bool) {
        let flag = if is_compound(word) {
            // SAFETY: freed only when the trie drops.
            &unsafe { compound_of(word) }.obsolete
        } else {
            // SAFETY: freed only when the trie drops.
            &unsafe { &*(word as *const Node) }.obsolete
        };
        flag.store(on, Ordering::Release);
    }

    /// Attempt to replace plain node `target` (held in `parent`'s slot, or the
    /// root) with a compound covering `COMPOUND_BITS` bits. Best-effort: every lock
    /// is a `try_lock` and any contention, overflow, or unprofitable shape aborts
    /// with the tree untouched.
    ///
    /// `allow_frontier` gates the expensive shape: when false (the opportunistic
    /// insert-path climb), only subtrees that inline *whole* are widened — a
    /// subtree still growing would otherwise oscillate through install / append /
    /// overflow / unwiden cycles, each flushing a multi-KiB compound, and halve
    /// write throughput. The untimed [`Hot::widen_all`] settle pass widens with
    /// frontiers allowed, which is where the root-level compound comes from.
    fn try_widen(
        &self,
        target: *const Node,
        parent: Option<Step>,
        allow_frontier: bool,
    ) -> WidenOutcome {
        // SAFETY: nodes are never freed while the trie is alive, and neither the
        // reference nor the guards built on it outlive this call.
        let r: &'static Node = unsafe { &*target };
        let Some(_gr) = r.lock.try_lock() else { return WidenOutcome::Busy };
        if r.obsolete.load(Ordering::Acquire) {
            return WidenOutcome::Busy;
        }
        let base = r.bit_pos;
        // Plan candidate inline depths from an unlocked read-only sweep and try
        // the deepest first. A concurrent insert can grow the tree between the
        // plan and the locked gather, so `Overflow` retreats one frontier level;
        // the shallowest candidate (`r`'s own window, nothing inlined) gathers at
        // most one entry per child slot and cannot overflow, so the loop always
        // settles on a non-`Overflow` outcome.
        let (mut limits, complete) = self.plan_inline_limits(r, base);
        if !allow_frontier && !complete {
            // The subtree does not inline whole; every enclosing subtree is
            // larger still, so the climb stops here (and the read-only plan made
            // that determination without taking a single lock).
            return WidenOutcome::Overflow;
        }
        let mut out = WidenOutcome::TooSmall;
        while let Some(limit) = limits.pop() {
            out = self.widen_at_limit(r, target, base, limit, parent);
            if out != WidenOutcome::Overflow {
                break;
            }
        }
        out
    }

    /// Plan candidate inline limits for widening `r`'s subtree, ascending. Each
    /// limit is an absolute bit position such that inlining every plain node whose
    /// window ends at or before it keeps the gathered entry count within
    /// [`COMPOUND_CAP`]; the first element is `r`'s own window end (inline
    /// nothing). This is what lets the *top* of a large tree widen: instead of
    /// overflowing on the whole subtree, the root widens into a frontier of
    /// pointer entries one or two plain levels down, which is exactly the layer
    /// the capacity was sized for.
    ///
    /// The second return is `true` when the plan is *complete*: the deepest limit
    /// inlines every plain node of the subtree (no plain node survives on the
    /// frontier inside the window), i.e. widening at it produces no pointer
    /// entries into plain remainders.
    fn plan_inline_limits(&self, r: &Node, base: u32) -> (Vec<u32>, bool) {
        let window_end = base + COMPOUND_BITS;
        let mut limits = vec![r.bit_pos + r.width];
        // Frontier: child words whose subtrees would each become one entry.
        let mut frontier: Vec<usize> = Vec::new();
        for slot in &r.children {
            let w = slot.load(Ordering::Acquire);
            if w != 0 {
                frontier.push(w);
            }
        }
        loop {
            // Next depth worth trying: the shallowest plain-node window end on
            // the frontier that still fits inside the compound window.
            let mut next_end: Option<u32> = None;
            for &w in &frontier {
                if is_leaf(w) || is_compound(w) {
                    continue;
                }
                // SAFETY: nodes are never freed while the trie is alive.
                let n = unsafe { &*(w as *const Node) };
                let end = n.bit_pos + n.width;
                if end <= window_end && next_end.is_none_or(|e| end < e) {
                    next_end = Some(end);
                }
            }
            let Some(next_end) = next_end else { return (limits, true) };
            // Expand: every plain node ending at or before `next_end` is replaced
            // by its children, recursively — `bit_pos` strictly increases inside
            // the window, so the worklist terminates. Leaves, compounds, and
            // deeper plain nodes stay frontier items.
            let mut expanded: Vec<usize> = Vec::new();
            let mut work = frontier.clone();
            while let Some(w) = work.pop() {
                if expanded.len() > COMPOUND_CAP {
                    return (limits, false); // this level cannot fit; stop at the previous
                }
                if !is_leaf(w) && !is_compound(w) {
                    // SAFETY: freed only when the trie drops.
                    let n = unsafe { &*(w as *const Node) };
                    if n.bit_pos + n.width <= next_end {
                        for slot in &n.children {
                            let c = slot.load(Ordering::Acquire);
                            if c != 0 {
                                work.push(c);
                            }
                        }
                        continue;
                    }
                }
                expanded.push(w);
            }
            if expanded.len() > COMPOUND_CAP {
                return (limits, false);
            }
            frontier = expanded;
            limits.push(next_end);
        }
    }

    /// One locked widening attempt at a fixed inline limit: gather, build aside,
    /// flush, install with one parent-slot store. Caller holds `target`'s lock.
    fn widen_at_limit(
        &self,
        r: &'static Node,
        target: *const Node,
        base: u32,
        limit: u32,
        parent: Option<Step>,
    ) -> WidenOutcome {
        let mut ctx = WidenCtx {
            entries: Vec::new(),
            guards: Vec::new(),
            frozen_nodes: Vec::new(),
            dropped: Vec::new(),
            inlined: false,
            limit,
        };
        for slot in &r.children {
            let child = slot.load(Ordering::Acquire);
            if child != 0 {
                if let Err(abort) = self.gather(child, base, &mut ctx) {
                    return abort;
                }
            }
        }
        if !ctx.inlined || ctx.entries.len() < MIN_WIDEN_ENTRIES {
            return WidenOutcome::TooSmall;
        }
        ctx.entries.sort_unstable_by_key(|e| e.0);
        let cptr = Compound::alloc(base, &ctx.entries);
        P::crash_site("hot.widen.built");
        // SAFETY: freshly allocated, uniquely owned until installed below.
        let compound = unsafe { &*cptr };
        compound.stage::<P>();
        P::crash_site("hot.widen.flushed");

        // Install: one atomic parent-slot store.
        let cword = compound_word(cptr);
        let covers = compound.covers();
        if !self.publish_in_parent(parent, target as usize, cword, covers, "hot.widen.committed") {
            // SAFETY: never published.
            unsafe { free_one(cword) };
            return WidenOutcome::Busy;
        }
        obs::event::emit("hot.smo", "widen", base as u64, ctx.entries.len() as u64);
        // Retire the replaced nodes while their locks are still held, so any writer
        // blocked on one of them re-checks and restarts. The flags are volatile
        // hints: after a crash these nodes are simply unreachable.
        r.obsolete.store(true, Ordering::Release);
        self.retire(target as usize, false);
        for n in &ctx.frozen_nodes {
            n.obsolete.store(true, Ordering::Release);
            self.retire(*n as *const Node as usize, false);
        }
        for &word in &ctx.dropped {
            Self::set_obsolete(word, true);
            self.retire(word, true);
        }
        WidenOutcome::Installed
    }

    /// Gather the subtree at `child` into compound entries over the window starting
    /// at `base`. Plain nodes whose whole window ends at or before the planned
    /// inline limit (`ctx.limit`, always within the compound window) are inlined
    /// (locked and frozen) — recursion is naturally bounded because inlined
    /// `bit_pos` strictly increases within the 15-bit window — and everything else
    /// becomes a pointer entry at the depth of the bits its whole subtree shares.
    /// `Err` aborts the widening: `Overflow` if the entries exceed the compound
    /// capacity, `Busy` on an unresolvable race.
    fn gather(&self, child: usize, base: u32, ctx: &mut WidenCtx) -> Result<(), WidenOutcome> {
        if is_leaf(child) {
            // SAFETY: freed only when the trie drops.
            let leaf = unsafe { &*leaf_of(child) };
            ctx.entries.push((extract_wide(&leaf.key, base, COMPOUND_BITS), FULL_MASK, child));
            return if ctx.entries.len() <= COMPOUND_CAP {
                Ok(())
            } else {
                Err(WidenOutcome::Overflow)
            };
        }
        if !is_compound(child) {
            // SAFETY: nodes are never freed while the trie is alive.
            let n: &'static Node = unsafe { &*(child as *const Node) };
            if n.bit_pos + n.width <= ctx.limit {
                if let Some(g) = n.lock.try_lock() {
                    if n.obsolete.load(Ordering::Acquire) {
                        return Err(WidenOutcome::Busy);
                    }
                    ctx.guards.push(g);
                    ctx.frozen_nodes.push(n);
                    ctx.inlined = true;
                    for slot in &n.children {
                        let grand = slot.load(Ordering::Acquire);
                        if grand != 0 {
                            self.gather(grand, base, ctx)?;
                        }
                    }
                    return Ok(());
                }
                // Contended: fall through and keep it as a pointer entry.
            }
        }
        // Pointer entry: the subtree hangs at its shared-prefix depth. Its keys all
        // agree on bits up to the subtree's window start, which a representative
        // leaf supplies (the slot holding `child` is frozen, and divergences before
        // the subtree's window commit into that slot, so the prefix is stable).
        let depth = (subtree_start(child) - base).min(COMPOUND_BITS);
        debug_assert!(depth >= 1);
        let rep = match self.min_key(child) {
            Some(rep) => rep,
            None => {
                // Removals emptied the subtree. Freeze it so a concurrent insert
                // cannot fill a slot after we drop it from the compound.
                if is_compound(child) {
                    // SAFETY: freed only when the trie drops.
                    let c: &'static Compound = unsafe { compound_of(child) };
                    let Some(g) = c.lock.try_lock() else { return Err(WidenOutcome::Busy) };
                    if c.obsolete.load(Ordering::Acquire) {
                        return Err(WidenOutcome::Busy);
                    }
                    match self.min_key(child) {
                        Some(rep) => {
                            ctx.guards.push(g);
                            rep
                        }
                        None => {
                            ctx.guards.push(g);
                            ctx.dropped.push(child);
                            return Ok(()); // truly empty: drop the subtree
                        }
                    }
                } else {
                    // SAFETY: freed only when the trie drops.
                    let n: &'static Node = unsafe { &*(child as *const Node) };
                    let Some(g) = n.lock.try_lock() else { return Err(WidenOutcome::Busy) };
                    if n.obsolete.load(Ordering::Acquire) {
                        return Err(WidenOutcome::Busy);
                    }
                    match self.min_key(child) {
                        Some(rep) => {
                            ctx.guards.push(g);
                            rep
                        }
                        None => {
                            ctx.guards.push(g);
                            ctx.dropped.push(child);
                            return Ok(()); // truly empty: drop the subtree
                        }
                    }
                }
            }
        };
        let mask = prefix_mask(depth);
        ctx.entries.push((extract_wide(rep, base, COMPOUND_BITS) & mask, mask, child));
        if ctx.entries.len() <= COMPOUND_CAP {
            Ok(())
        } else {
            Err(WidenOutcome::Overflow)
        }
    }

    /// Settle the whole tree into its widened form: rebuild every compound the
    /// insert path installed opportunistically mid-load as plain nodes, then widen
    /// top-down so compounds land as shallow in the tree as possible (each one then
    /// absorbs the most pointer chases). Without the flatten pass, a compound
    /// installed early (when its subtree was small) can end up pinned under a
    /// later-inserted plain branch, costing an extra visit; after it, the settled
    /// shape depends only on the final key set, which bench and harness runs use
    /// for deterministic node-visit counts.
    pub fn widen_all(&self) {
        let word = self.root.load(Ordering::Acquire);
        if word != 0 && !is_leaf(word) {
            self.flatten_rec(word, None);
        }
        let word = self.root.load(Ordering::Acquire);
        if word != 0 && !is_leaf(word) {
            self.widen_all_rec(word, None);
        }
    }

    fn flatten_rec(&self, word: usize, parent: Option<Step>) {
        if is_compound(word) {
            // SAFETY: freed only when the trie drops.
            let c: &'static Compound = unsafe { compound_of(word) };
            {
                let _g = c.lock.lock();
                if !c.obsolete.load(Ordering::Acquire) {
                    self.unwiden(c, parent);
                }
            }
            // Re-read the slot and keep flattening the plain replacement (its
            // children can still hold deeper compounds).
            let now = match parent {
                None => self.root.load(Ordering::Acquire),
                Some(step) => step.load_child(),
            };
            if now != word && now != 0 && !is_leaf(now) {
                self.flatten_rec(now, parent);
            }
            return;
        }
        // SAFETY: freed only when the trie drops.
        let n: &'static Node = unsafe { &*(word as *const Node) };
        for (idx, slot) in n.children.iter().enumerate() {
            let child = slot.load(Ordering::Acquire);
            if child != 0 && !is_leaf(child) {
                self.flatten_rec(child, Some(Step::Node(n, idx)));
            }
        }
    }

    fn widen_all_rec(&self, word: usize, parent: Option<Step>) {
        if !is_compound(word) {
            // SAFETY: freed only when the trie drops.
            let n: &'static Node = unsafe { &*(word as *const Node) };
            if self.try_widen(n, parent, true) == WidenOutcome::Installed {
                // Replaced: re-read the slot and settle the compound's pointer
                // entries (strictly deeper subtrees, so this terminates).
                let now = match parent {
                    None => self.root.load(Ordering::Acquire),
                    Some(step) => step.load_child(),
                };
                if now != word && now != 0 && !is_leaf(now) {
                    self.widen_all_rec(now, parent);
                }
                return;
            }
            for (idx, slot) in n.children.iter().enumerate() {
                let child = slot.load(Ordering::Acquire);
                if child != 0 && !is_leaf(child) {
                    self.widen_all_rec(child, Some(Step::Node(n, idx)));
                }
            }
            return;
        }
        // SAFETY: freed only when the trie drops.
        let c: &'static Compound = unsafe { compound_of(word) };
        for (slot, child) in c.children().enumerate() {
            let child = child.load(Ordering::Acquire);
            if child != 0 && !is_leaf(child) {
                let depth = u32::from(c.mask_at(slot)).count_ones();
                self.widen_all_rec(child, Some(Step::Cpd(c, slot, depth)));
            }
        }
    }

    /// Rebuild a compound that filled a non-max capacity class at the next class
    /// (built aside, flushed, installed with one parent-slot store — the same
    /// protocol and crash sites as widening) and retire it. Caller holds `c.lock`.
    fn regrow(&self, c: &Compound, parent: Option<Step>) {
        let entries = c.live_entries();
        if entries.is_empty() {
            return;
        }
        let cptr = Compound::alloc(c.bit_pos, &entries);
        P::crash_site("hot.widen.built");
        // SAFETY: freshly allocated, uniquely owned until installed below.
        let compound = unsafe { &*cptr };
        compound.stage::<P>();
        P::crash_site("hot.widen.flushed");

        let old = compound_word(c);
        let new = compound_word(cptr);
        if !self.publish_in_parent(parent, old, new, compound.covers(), "hot.widen.committed") {
            // SAFETY: never published.
            unsafe { free_one(new) };
            return;
        }
        obs::event::emit("hot.smo", "regrow", c.bit_pos as u64, entries.len() as u64);
        c.obsolete.store(true, Ordering::Release);
        self.retire(old, false);
    }

    /// Rebuild an overflowed compound as plain nodes (built aside, flushed,
    /// installed with one parent-slot store) and retire it. Caller holds `c.lock`.
    fn unwiden(&self, c: &Compound, parent: Option<Step>) {
        let entries = c.live_entries();
        if entries.is_empty() {
            return;
        }
        let mut created: Vec<*mut Node> = Vec::new();
        let word = build_plain(c.bit_pos, &entries, &mut created);
        P::crash_site("hot.widen.built");
        for &n in &created {
            P::stage_obj(n);
        }
        P::crash_site("hot.widen.flushed");

        let cword = compound_word(c);
        let covers = created.iter().map(|&n| span(n));
        if !self.publish_in_parent(parent, cword, word, covers, "hot.widen.committed") {
            for n in created {
                // SAFETY: never published; the entries' children stay where they are.
                unsafe { free_one(n as usize) };
            }
            return;
        }
        obs::event::emit("hot.smo", "unwiden", c.bit_pos as u64, entries.len() as u64);
        c.obsolete.store(true, Ordering::Release);
        self.retire(cword, false);
    }

    /// Remove a key; returns `true` if it was present. The slot is cleared with a
    /// single atomic store (no structural collapse, matching the delete-free
    /// workloads of the evaluation).
    pub fn remove(&self, key: &[u8]) -> bool {
        if key.is_empty() {
            return false;
        }
        loop {
            let root_word = self.root.load(Ordering::Acquire);
            if root_word == 0 {
                return false;
            }
            if is_leaf(root_word) {
                // SAFETY: freed only when the trie drops.
                let leaf = unsafe { &*leaf_of(root_word) };
                if &*leaf.key != key {
                    return false;
                }
                let _g = self.root_lock.lock();
                if self.root.load(Ordering::Acquire) != root_word {
                    continue;
                }
                P::persist_store(&self.root, || self.root.store(0, Ordering::Release));
                self.retire(root_word, false);
                return true;
            }
            let mut word = root_word;
            loop {
                if is_compound(word) {
                    // SAFETY: freed only when the trie drops.
                    let c = unsafe { compound_of(word) };
                    let ext = extract_wide(key, c.bit_pos, COMPOUND_BITS);
                    let Some((slot, child, _)) = c.find_child(ext) else { return false };
                    if is_leaf(child) {
                        // SAFETY: freed only when the trie drops.
                        let leaf = unsafe { &*leaf_of(child) };
                        if &*leaf.key != key {
                            return false;
                        }
                        let _g = c.lock.lock();
                        if c.obsolete.load(Ordering::Acquire)
                            || c.child(slot).load(Ordering::Acquire) != child
                        {
                            break; // re-descend
                        }
                        let slot = c.child(slot);
                        P::persist_store(slot, || slot.store(0, Ordering::Release));
                        self.retire(child, false);
                        P::crash_site("hot.remove.committed");
                        return true;
                    }
                    word = child;
                    continue;
                }
                // SAFETY: freed only when the trie drops.
                let node = unsafe { &*(word as *const Node) };
                let idx = extract_bits(key, node.bit_pos, node.width);
                let child = node.children[idx].load(Ordering::Acquire);
                if child == 0 {
                    return false;
                }
                if is_leaf(child) {
                    // SAFETY: freed only when the trie drops.
                    let leaf = unsafe { &*leaf_of(child) };
                    if &*leaf.key != key {
                        return false;
                    }
                    let _g = node.lock.lock();
                    if node.obsolete.load(Ordering::Acquire)
                        || node.children[idx].load(Ordering::Acquire) != child
                    {
                        break; // re-descend
                    }
                    let slot = &node.children[idx];
                    P::persist_store(slot, || slot.store(0, Ordering::Release));
                    self.retire(child, false);
                    P::crash_site("hot.remove.committed");
                    return true;
                }
                word = child;
            }
        }
    }

    /// Range scan: up to `count` pairs with key `>= start`, in ascending key order.
    pub fn scan(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, u64)> {
        let mut out = ScanBuf::new();
        self.scan_into(start, count, &mut out);
        out.to_vec()
    }

    /// [`Hot::scan`] into a caller-provided buffer: appends up to `count` pairs
    /// with key `>= start` (ascending) to `out` without clearing it, so cursor
    /// callers can stream batches through one reused allocation.
    pub fn scan_into(&self, start: &[u8], count: usize, out: &mut ScanBuf) {
        if count == 0 {
            return;
        }
        let target = out.len().saturating_add(count);
        self.scan_rec(self.root.load(Ordering::Acquire), start, true, target, out);
    }

    /// Minimum (leftmost) key under `word`, used to learn the bit prefix every key in
    /// a subtree shares. Borrowed from its leaf: leaves are never freed while the
    /// trie is alive.
    fn min_key(&self, word: usize) -> Option<&[u8]> {
        if word == 0 {
            return None;
        }
        if is_leaf(word) {
            // SAFETY: freed only when the trie drops.
            return Some(&unsafe { &*leaf_of(word) }.key);
        }
        // Skip empty branches (a compound or node whose entries were all removed)
        // instead of terminating on them: a first-child-only descent would report
        // a populated subtree as empty when its leftmost branch happens to be a
        // removed-out husk, and a widening gather acting on that answer would
        // silently drop every live key under the subtree.
        if is_compound(word) {
            // SAFETY: freed only when the trie drops.
            let c = unsafe { compound_of(word) };
            let mut found = None;
            c.walk_from(0, |_, child| {
                found = self.min_key(child);
                found.is_some()
            });
            return found;
        }
        // SAFETY: freed only when the trie drops.
        let node = unsafe { &*(word as *const Node) };
        node.children
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .filter(|&w| w != 0)
            .find_map(|w| self.min_key(w))
    }

    fn scan_rec(
        &self,
        word: usize,
        start: &[u8],
        bounded: bool,
        count: usize,
        out: &mut ScanBuf,
    ) -> bool {
        if word == 0 {
            return out.len() >= count;
        }
        if is_leaf(word) {
            // SAFETY: freed only when the trie drops.
            let leaf = unsafe { &*leaf_of(word) };
            if !bounded || &*leaf.key >= start {
                out.push(&leaf.key, leaf.value.load(Ordering::Acquire));
            }
            return out.len() >= count;
        }
        pm::stats::record_node_visit();
        if is_compound(word) {
            // SAFETY: freed only when the trie drops.
            let c = unsafe { compound_of(word) };
            let mut bounded = bounded;
            if bounded {
                if let Some(rep) = self.min_key(word) {
                    match cmp_bit_prefix(rep, start, c.bit_pos) {
                        std::cmp::Ordering::Less => return false,
                        std::cmp::Ordering::Greater => bounded = false,
                        std::cmp::Ordering::Equal => {}
                    }
                }
            }
            // Entries whose whole window range precedes the start are skipped;
            // the ones at or below its window value are still bounded by it.
            let ext_start = if bounded { extract_wide(start, c.bit_pos, COMPOUND_BITS) } else { 0 };
            return c.walk_from(ext_start, |pkey, child| {
                self.scan_rec(child, start, bounded && pkey <= ext_start, count, out)
            });
        }
        // SAFETY: freed only when the trie drops.
        let node = unsafe { &*(word as *const Node) };
        let mut bounded = bounded;
        if bounded {
            // Every key below shares its first `bit_pos` bits; compare them (via any
            // representative leaf) with the scan start to decide pruning.
            if let Some(rep) = self.min_key(word) {
                match cmp_bit_prefix(rep, start, node.bit_pos) {
                    std::cmp::Ordering::Less => return false,
                    std::cmp::Ordering::Greater => bounded = false,
                    std::cmp::Ordering::Equal => {}
                }
            }
        }
        let start_idx = if bounded { extract_bits(start, node.bit_pos, node.width) } else { 0 };
        for idx in start_idx..FANOUT {
            let child = node.children[idx].load(Ordering::Acquire);
            if child == 0 {
                continue;
            }
            let child_bounded = bounded && idx == start_idx;
            if self.scan_rec(child, start, child_bounded, count, out) {
                return true;
            }
        }
        out.len() >= count
    }

    /// Re-initialise every node lock (RECIPE's post-crash lock re-initialisation).
    /// Also clears the volatile obsolete hints: anything reachable is live.
    pub fn recover_locks(&self) {
        self.root_lock.force_unlock();
        fn walk(word: usize) {
            if word == 0 || is_leaf(word) {
                return;
            }
            if is_compound(word) {
                // SAFETY: freed only when the trie drops.
                let c = unsafe { compound_of(word) };
                c.lock.force_unlock();
                c.obsolete.store(false, Ordering::Relaxed);
                for slot in c.children() {
                    walk(slot.load(Ordering::Acquire));
                }
                return;
            }
            // SAFETY: freed only when the trie drops.
            let node = unsafe { &*(word as *const Node) };
            node.lock.force_unlock();
            node.obsolete.store(false, Ordering::Relaxed);
            for c in &node.children {
                walk(c.load(Ordering::Acquire));
            }
        }
        walk(self.root.load(Ordering::Acquire));
    }

    /// Number of keys (slow full traversal).
    #[must_use]
    pub fn len(&self) -> usize {
        fn walk(word: usize) -> usize {
            if word == 0 {
                return 0;
            }
            if is_leaf(word) {
                return 1;
            }
            if is_compound(word) {
                // SAFETY: freed only when the trie drops.
                let c = unsafe { compound_of(word) };
                return c.children().map(|s| walk(s.load(Ordering::Acquire))).sum();
            }
            // SAFETY: freed only when the trie drops.
            let node = unsafe { &*(word as *const Node) };
            node.children.iter().map(|c| walk(c.load(Ordering::Acquire))).sum()
        }
        walk(self.root.load(Ordering::Acquire))
    }

    /// Whether the trie is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.root.load(Ordering::Acquire) == 0
    }

    /// Maximum depth in nodes (diagnostic for the "height-optimized" property).
    #[must_use]
    pub fn height(&self) -> usize {
        fn walk(word: usize) -> usize {
            if word == 0 || is_leaf(word) {
                return 0;
            }
            if is_compound(word) {
                // SAFETY: freed only when the trie drops.
                let c = unsafe { compound_of(word) };
                return 1 + c
                    .children()
                    .map(|s| walk(s.load(Ordering::Acquire)))
                    .max()
                    .unwrap_or(0);
            }
            // SAFETY: freed only when the trie drops.
            let node = unsafe { &*(word as *const Node) };
            1 + node.children.iter().map(|c| walk(c.load(Ordering::Acquire))).max().unwrap_or(0)
        }
        walk(self.root.load(Ordering::Acquire))
    }

    /// Number of compound nodes currently reachable (diagnostic for tests and the
    /// calibration harness).
    #[must_use]
    pub fn compound_nodes(&self) -> usize {
        fn walk(word: usize) -> usize {
            if word == 0 || is_leaf(word) {
                return 0;
            }
            if is_compound(word) {
                // SAFETY: freed only when the trie drops.
                let c = unsafe { compound_of(word) };
                return 1 + c.children().map(|s| walk(s.load(Ordering::Acquire))).sum::<usize>();
            }
            // SAFETY: freed only when the trie drops.
            let node = unsafe { &*(word as *const Node) };
            node.children.iter().map(|c| walk(c.load(Ordering::Acquire))).sum()
        }
        walk(self.root.load(Ordering::Acquire))
    }
}

impl<P: PersistMode> Hot<P> {
    /// Retire the leaf, node or compound `word` names — with its whole subtree if
    /// `subtree` — which the calling operation has just unlinked: freed when the
    /// trie drops, since a non-blocking reader may still be on it.
    fn retire(&self, word: usize, subtree: bool) {
        let bytes = if is_leaf(word) {
            std::mem::size_of::<Leaf>()
        } else if is_compound(word) {
            // SAFETY: unlinked, not yet freed.
            unsafe { compound_of(word) }.footprint_bytes()
        } else {
            std::mem::size_of::<Node>()
        };
        // SAFETY: unreachable since the unlink, and retired once; the trie's drop
        // frees only what it reaches from the root.
        self.retired.defer_free(bytes as u64, move || unsafe {
            if subtree {
                free_subtree(word);
            } else {
                free_one(word);
            }
        });
    }
}

impl<P: PersistMode> Drop for Hot<P> {
    /// Free everything reachable from the root, each object once; `retired` frees
    /// the unlinked objects as it drops after this.
    fn drop(&mut self) {
        // SAFETY: exclusive access; the live trie and the retired objects are disjoint.
        unsafe { free_subtree(*self.root.get_mut()) };
    }
}

/// Rebuild compound `entries` (prefix-free, pkey-sorted) as a Patricia chain of
/// plain nodes over the window starting at `base`. Appends every allocated node to
/// `created` (the caller persists them) and returns the subtree's tagged word.
fn build_plain(base: u32, entries: &[Entry], created: &mut Vec<*mut Node>) -> usize {
    debug_assert!(!entries.is_empty());
    if entries.len() == 1 {
        return entries[0].2; // Patricia skip: hang the child directly
    }
    // First window-relative bit where the partial keys diverge. Prefix-freeness
    // guarantees every entry's depth exceeds it.
    let mut q = u32::MAX;
    for pair in entries.windows(2) {
        let x = pair[0].0 ^ pair[1].0;
        if x != 0 {
            q = q.min(u32::from(x).leading_zeros() - (32 - COMPOUND_BITS));
        }
    }
    debug_assert!(q < COMPOUND_BITS, "duplicate partial keys in prefix-free entries");
    let min_depth = entries.iter().map(|e| u32::from(e.1).count_ones()).min().unwrap_or(1);
    let width = MAX_BITS.min(min_depth - q).max(1);
    let node = alloc_node(base + q, width);
    created.push(node);
    // SAFETY: freshly allocated, private until the caller installs the subtree.
    let n = unsafe { &*node };
    let slot_of = |pkey: u16| ((pkey >> (COMPOUND_BITS - q - width)) as usize) & ((1 << width) - 1);
    let mut i = 0;
    while i < entries.len() {
        let idx = slot_of(entries[i].0);
        let mut j = i + 1;
        while j < entries.len() && slot_of(entries[j].0) == idx {
            j += 1;
        }
        n.children[idx].store(build_plain(base, &entries[i..j], created), Ordering::Relaxed);
        i = j;
    }
    node as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe::key::u64_key;
    use recipe::persist::{Dram, Pmem};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn empty_tree_behaviour() {
        let t: Hot<Dram> = Hot::new();
        assert!(t.is_empty());
        assert_eq!(t.get(b"abc"), None);
        assert!(!t.remove(b"abc"));
        assert!(t.scan(b"", 5).is_empty());
    }

    #[test]
    fn insert_get_many_integer_keys() {
        let t: Hot<Dram> = Hot::new();
        for i in 0..20_000u64 {
            assert!(t.insert(&u64_key(i), i + 1), "insert {i}");
        }
        assert_eq!(t.len(), 20_000);
        for i in 0..20_000u64 {
            assert_eq!(t.get(&u64_key(i)), Some(i + 1), "get {i}");
        }
        assert_eq!(t.get(&u64_key(20_000)), None);
    }

    #[test]
    fn tree_height_stays_logarithmic() {
        let t: Hot<Dram> = Hot::new();
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..50_000 {
            let k: u64 = rng.gen();
            t.insert(&u64_key(k), k);
        }
        // 50k random 64-bit keys over 5-bit windows: height must stay far below the
        // 64-bit critbit worst case.
        assert!(t.height() <= 16, "height {} too large", t.height());
    }

    #[test]
    fn upsert_and_remove() {
        let t: Hot<Pmem> = Hot::new();
        assert!(t.insert(b"hello-key", 1));
        assert!(!t.insert(b"hello-key", 2));
        assert_eq!(t.get(b"hello-key"), Some(2));
        assert!(t.remove(b"hello-key"));
        assert!(!t.remove(b"hello-key"));
        assert_eq!(t.get(b"hello-key"), None);
    }

    #[test]
    fn string_keys_match_model_and_scans_sorted() {
        let t: Hot<Dram> = Hot::new();
        let mut model = BTreeMap::new();
        for i in 0..5_000u64 {
            let key = format!("user{:020}", i * 977 % 100_000).into_bytes();
            let newly = model.insert(key.clone(), i).is_none();
            assert_eq!(t.insert(&key, i), newly);
        }
        for (k, v) in &model {
            assert_eq!(t.get(k), Some(*v), "key {}", String::from_utf8_lossy(k));
        }
        for start_id in [0u64, 7, 4_321, 99_999] {
            let start = format!("user{start_id:020}").into_bytes();
            let got = t.scan(&start, 30);
            let want: Vec<(Vec<u8>, u64)> =
                model.range(start.clone()..).take(30).map(|(k, v)| (k.clone(), *v)).collect();
            assert_eq!(got, want, "scan from {start_id}");
        }
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let t: Arc<Hot<Pmem>> = Arc::new(Hot::new());
        let threads = 8u64;
        let per = 4_000u64;
        let mut handles = Vec::new();
        for tid in 0..threads {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    let k = tid * per + i;
                    assert!(t.insert(&u64_key(k), k));
                    assert_eq!(t.get(&u64_key(k)), Some(k));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for k in 0..threads * per {
            assert_eq!(t.get(&u64_key(k)), Some(k), "key {k} lost");
        }
        assert_eq!(t.len(), (threads * per) as usize);
    }

    #[test]
    fn pm_variant_flushes_once_per_common_insert() {
        let t: Hot<Pmem> = Hot::new();
        for i in 0..1_000u64 {
            t.insert(&u64_key(i), i);
        }
        let before = pm::stats::snapshot_local();
        for i in 1_000..2_000u64 {
            t.insert(&u64_key(i), i);
        }
        let d = pm::stats::snapshot_local().since(&before);
        // Leaf + commit slot; branch creation adds a node flush, and the occasional
        // compound widening amortises a whole-node flush over many inserts. The
        // paper reports ~7 clwb per insert for P-HOT (Fig. 4c) — ours is leaner but
        // must be small and nonzero.
        let per = d.clwb as f64 / 1_000.0;
        assert!((2.0..=12.0).contains(&per), "unexpected clwb per insert: {per}");
    }

    /// A compound append with free capacity flushes the leaf, the slot's group line
    /// (its lanes and child word) and `count`'s header line: 3 lines under 2 fences,
    /// in every capacity class.
    #[test]
    fn compound_append_flushes_three_lines_under_two_fences() {
        for (groups, cap) in [(4u64, 64), (7, 256), (31, 1024)] {
            let t: Hot<Pmem> = Hot::new();
            let key = |i: u64, m: u64| u64_key((i << 40) | (m << 34));
            for i in 1..=groups {
                for m in 0..8 {
                    assert!(t.insert(&key(i, m), i));
                }
            }
            t.widen_all();
            let root = t.root.load(Ordering::Acquire);
            assert!(is_compound(root), "{groups} groups settle into one root compound");
            // SAFETY: freed only when the trie drops.
            let c = unsafe { compound_of(root) };
            assert_eq!(c.cap(), cap);
            let count = c.published();
            assert!(count < cap);
            let before = pm::stats::snapshot_local();
            assert!(t.insert(&key(1, 8), 0));
            let d = pm::stats::snapshot_local().since(&before);
            assert_eq!(c.published(), count + 1, "the insert appended to the root compound");
            assert_eq!((d.clwb, d.fence), (3, 2), "class {cap}");
            assert_eq!(t.get(&key(1, 8)), Some(0));
        }
    }

    #[test]
    fn widening_builds_compounds_and_preserves_lookups() {
        let t: Hot<Pmem> = Hot::new();
        let n = 30_000u64;
        for i in 0..n {
            assert!(t.insert(&u64_key(i), i), "insert {i}");
        }
        assert!(t.compound_nodes() > 0, "dense sequential load should trigger widening");
        assert_eq!(t.len(), n as usize);
        for i in 0..n {
            assert_eq!(t.get(&u64_key(i)), Some(i), "get {i}");
        }
        // Scans still come out sorted across compound entries.
        let got = t.scan(&u64_key(123), 500);
        let want: Vec<(Vec<u8>, u64)> = (123..623).map(|i| (u64_key(i).to_vec(), i)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn widened_subtrees_keep_model_semantics_under_churn() {
        // Mixed inserts/removes/updates against a model, heavy enough to drive
        // widening, overflow unwidening, and dead-slot reuse in compounds.
        let t: Hot<Pmem> = Hot::new();
        let mut model = BTreeMap::new();
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for step in 0..60_000u64 {
            let k = rng.gen_range(0..8_192u64);
            let key = u64_key(k);
            match step % 4 {
                3 => {
                    assert_eq!(t.remove(&key), model.remove(&k).is_some(), "remove {k}");
                }
                _ => {
                    let newly = model.insert(k, step).is_none();
                    assert_eq!(t.insert(&key, step), newly, "insert {k}");
                }
            }
        }
        assert_eq!(t.len(), model.len());
        for (k, v) in &model {
            assert_eq!(t.get(&u64_key(*k)), Some(*v), "get {k}");
        }
        let got = t.scan(&u64_key(0), model.len() + 10);
        let want: Vec<(Vec<u8>, u64)> =
            model.iter().map(|(k, v)| (u64_key(*k).to_vec(), *v)).collect();
        assert_eq!(got, want, "full scan matches model");
    }

    #[test]
    fn concurrent_churn_with_widening_loses_nothing() {
        // Writers on disjoint dense ranges race the widening/unwidening machinery.
        let t: Arc<Hot<Pmem>> = Arc::new(Hot::new());
        let threads = 8u64;
        let per = 6_000u64;
        let mut handles = Vec::new();
        for tid in 0..threads {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    let k = tid * per + i;
                    assert!(t.insert(&u64_key(k), k));
                    if i % 7 == 3 {
                        assert!(t.remove(&u64_key(k)), "remove {k}");
                        assert!(t.insert(&u64_key(k), k), "reinsert {k}");
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for k in 0..threads * per {
            assert_eq!(t.get(&u64_key(k)), Some(k), "key {k} lost");
        }
        assert_eq!(t.len(), (threads * per) as usize);
        assert!(t.compound_nodes() > 0, "widening should engage under this load");
    }

    #[test]
    fn widening_survives_emptied_compound_husks() {
        // Removing every key under a compound leaves the (never-freed) compound in
        // place as an empty husk. A later widening that turns an enclosing subtree
        // into a pointer entry learns the subtree's shared prefix from its minimum
        // key -- and a first-child-only descent that terminates on the husk would
        // report the whole populated subtree as empty, silently dropping it while
        // the sibling groups inline and the compound installs.
        let t: Hot<Pmem> = Hot::new();
        // Sibling groups that diverge again *inside* the root compound window, so
        // their plain nodes inline and the widening is worth installing.
        for i in 1..32u64 {
            for m in 0..32u64 {
                assert!(t.insert(&u64_key((i << 40) | (m << 34)), i * 32 + m));
            }
        }
        // One deep subtree (diverges again ~20 bits below the root window, so it
        // can only ever be a pointer entry): 32 groups of 32 keys.
        for j in 0..32u64 {
            for k in 0..32u64 {
                assert!(t.insert(&u64_key((j << 20) | k), j * 32 + k));
            }
        }
        t.widen_all();
        assert!(t.compound_nodes() > 0);
        // Empty out deep group 0 entirely: its compound becomes a husk that stays
        // the deep subtree's leftmost child.
        for k in 0..32u64 {
            assert!(t.remove(&u64_key(k)), "remove {k}");
        }
        // Re-settle: the root rewiden inlines the sibling groups and gathers the
        // deep subtree as a pointer entry, whose representative lookup must look
        // *past* the husk.
        t.widen_all();
        assert_eq!(t.len(), 31 * 32 + 31 * 32);
        for i in 1..32u64 {
            for m in 0..32u64 {
                assert_eq!(t.get(&u64_key((i << 40) | (m << 34))), Some(i * 32 + m));
            }
        }
        for j in 1..32u64 {
            for k in 0..32u64 {
                assert_eq!(
                    t.get(&u64_key((j << 20) | k)),
                    Some(j * 32 + k),
                    "deep key {j}/{k} lost"
                );
            }
        }
        let scanned = t.scan(&[], 4_096);
        assert_eq!(scanned.len(), 31 * 32 + 31 * 32, "scan sees every surviving key");
    }

    #[test]
    fn recover_after_widening_keeps_everything_reachable() {
        let t: Hot<Pmem> = Hot::new();
        for i in 0..20_000u64 {
            t.insert(&u64_key(i), i);
        }
        assert!(t.compound_nodes() > 0);
        t.recover_locks();
        for i in 0..20_000u64 {
            assert_eq!(t.get(&u64_key(i)), Some(i), "get {i} after recover");
        }
        assert!(t.insert(&u64_key(99_999), 1), "writes work after recover");
    }

    /// Regression: a remove sweep that empties a whole subtree leaves a husk
    /// whose position implies a key prefix nothing witnesses any more. An
    /// insert of a far-away key used to *fill* a slot inside the husk (its
    /// window bits matched — Patricia skipping never compared the diverging
    /// bits), planting an alien key that later `min_key` representatives and
    /// branch placements trusted; a subsequent nearby insert then committed a
    /// branch whose placement index misrouted surviving siblings, losing
    /// acknowledged keys. Surfaced by the crash sweep's clustered-remove mixed
    /// load (P-HOT sampled states, `crash_table`).
    #[test]
    fn insert_into_removed_out_husk_keeps_all_keys_reachable() {
        let t: Hot<Pmem> = Hot::new();
        // Dense cluster, then a contiguous remove sweep that fully empties the
        // node covering 0x244..=0x247.
        for i in 0x240u64..0x250 {
            t.insert(&u64_key(i), i);
        }
        for i in 0x244u64..0x248 {
            assert!(t.remove(&u64_key(i)));
        }
        // Far-away keys diverging at bit 44: the first routes straight into
        // the husk's empty slot (low byte 0x46 matches its window), the rest
        // trigger min_key-guided branch builds around it.
        let mut alien = vec![0xf4246u64];
        let mut k = 0xf4249u64;
        while k <= 0xf4282 {
            alien.push(k);
            k += 3;
        }
        for &b in &alien {
            t.insert(&u64_key(b), b);
            // Every acknowledged key stays reachable after every step.
            for i in (0x240u64..0x244).chain(0x248..0x250) {
                assert_eq!(t.get(&u64_key(i)), Some(i), "survivor {i:#x} lost at {b:#x}");
            }
        }
        for &b in &alien {
            assert_eq!(t.get(&u64_key(b)), Some(b), "new key {b:#x} unreadable");
        }
        // Scan still sees exactly the live set, in order.
        let scanned = t.scan(&[], 4_096);
        assert_eq!(scanned.len(), 12 + alien.len(), "scan count");
        assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0), "scan order");
    }
}
