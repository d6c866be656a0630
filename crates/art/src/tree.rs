//! The concurrent Adaptive Radix Tree and its RECIPE conversion.
//!
//! Synchronization follows the "ART of practical synchronization" scheme the RECIPE
//! paper builds on: readers are non-blocking and never retry (they *tolerate*
//! inconsistencies and verify the full key at the leaf); writers take per-node locks
//! only around the slots they modify. Non-SMO inserts/deletes commit with a single
//! atomic store (Condition #1). The path-compression split is the two-step SMO of
//! Condition #3:
//!
//! 1. install a new branch node in the parent slot (atomic store), then
//! 2. truncate the old node's packed prefix word (atomic store).
//!
//! A crash between the steps leaves a node whose stored prefix is too long; readers
//! detect it via `level != depth + prefix_len` and skip the stale bytes, and the
//! P-ART write path repairs it with the Condition-#3 helper: if `try_lock` on the node
//! succeeds, no writer is active, so the inconsistency is permanent and the prefix is
//! recomputed from the `level` field and persisted.
//!
//! Persistence follows one discipline — **stage, fence once, publish**
//! (`recipe::persist`): an object nothing can reach yet (a new leaf, a grown / branch
//! / split node) is staged and becomes durable under the single fence
//! `PersistMode::publish` issues ahead of the store that makes it reachable; that
//! store is flushed and fenced before the operation is acknowledged, and its
//! `covers` (what it makes reachable) are checked durable under the tracker.

use crate::node::{
    free_node, is_leaf, leaf_ref, leaf_word, pack_prefix, Node256, Node4, NodeRef, MAX_PREFIX,
};
use recipe::epoch::Collector;
use recipe::key::Leaf;
use recipe::persist::{Dram, PersistMode, Span};
use recipe::session::ScanBuf;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A concurrent Adaptive Radix Tree, generic over the persistence policy.
///
/// `Art<Dram>` is the DRAM index; `Art<Pmem>` is P-ART. Keys are byte strings; a key
/// that is a strict prefix of another key is not supported (operations on such keys
/// return `false`/`None`), matching the fixed-length keys used in the paper's
/// evaluation.
pub struct Art<P: PersistMode> {
    root: AtomicUsize,
    /// Nodes and leaves the run unlinked (a grown node's old copy, a removed leaf).
    /// Readers never pin it, so nothing it holds is freed before the tree drops.
    retired: Collector,
    _policy: PhantomData<P>,
}

// SAFETY: all shared mutable state is reached through atomics and per-node locks; the
// raw node words reference allocations that are never freed while the tree is alive
// (unlinked ones are retired until it drops).
unsafe impl<P: PersistMode> Send for Art<P> {}
// SAFETY: as above — all shared mutation is mediated by atomics and per-node locks.
unsafe impl<P: PersistMode> Sync for Art<P> {}

impl<P: PersistMode> Default for Art<P> {
    fn default() -> Self {
        Self::new()
    }
}

/// The bytes of an inner node the calling operation built: what it stages, and
/// what the store linking it covers.
fn node_span(word: usize) -> Span {
    // SAFETY: callers pass a live inner-node word.
    let n = unsafe { NodeRef::from_word(word) };
    (word as *const u8, n.size_bytes())
}

/// What linking the freshly built `node` (and the new `leaf` under it) makes
/// reachable.
fn new_node_covers(leaf: &Leaf, node: usize) -> impl Iterator<Item = Span> {
    leaf.covers().into_iter().chain([node_span(node)])
}

impl<P: PersistMode> Art<P> {
    /// Create an empty tree. The root is a `Node256` that is never replaced.
    #[must_use]
    pub fn new() -> Self {
        let root = Node256::alloc(0, b"");
        let (ptr, len) = node_span(root);
        P::stage(ptr, len);
        let t = Art { root: AtomicUsize::new(0), retired: Collector::new(), _policy: PhantomData };
        P::publish(&t.root, || t.root.store(root, Ordering::Release), [node_span(root)], None);
        t
    }

    #[inline]
    fn root_ref(&self) -> NodeRef {
        // SAFETY: the root word always refers to the live root Node256.
        unsafe { NodeRef::from_word(self.root.load(Ordering::Acquire)) }
    }

    /// Point lookup. Non-blocking; tolerates in-flight or crash-interrupted SMOs by
    /// skipping stale prefixes and verifying the full key at the leaf.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        if key.is_empty() {
            return None;
        }
        let mut node = self.root_ref();
        let mut depth = 0usize;
        loop {
            pm::stats::record_node_visit();
            let hdr = node.hdr();
            let level = hdr.level as usize;
            let (pbytes, plen) = hdr.prefix();
            if level == depth + plen {
                // Consistent prefix: compare it against the key.
                let avail = key.len().saturating_sub(depth);
                let cmp = plen.min(avail);
                if key[depth..depth + cmp] != pbytes[..cmp] || avail < plen {
                    return None;
                }
                depth += plen;
            } else if level >= depth {
                // Inconsistent (interrupted path-compression split): tolerate by
                // skipping to the branch position; the leaf check catches mismatches.
                depth = level;
            } else {
                return None;
            }
            if depth >= key.len() {
                return None;
            }
            let child = node.find_child(key[depth]);
            if child == 0 {
                return None;
            }
            if is_leaf(child) {
                // SAFETY: leaves are never freed while the tree is alive.
                let leaf = unsafe { leaf_ref(child) };
                return (&*leaf.key == key).then(|| leaf.value.load(Ordering::Acquire));
            }
            // SAFETY: inner nodes are never freed while the tree is alive.
            node = unsafe { NodeRef::from_word(child) };
            depth += 1;
        }
    }

    /// The Condition-#3 helper: called from the write path when it observes a node
    /// whose prefix is inconsistent with its level. If the node lock can be acquired
    /// the inconsistency is permanent (left by a crash) and the prefix is recomputed
    /// from the immutable `level` field and persisted; otherwise another writer is
    /// active and the inconsistency is transient.
    fn fix_prefix(&self, node: NodeRef, depth: usize) {
        let hdr = node.hdr();
        if let Some(_guard) = hdr.lock.try_lock() {
            if hdr.obsolete.load(Ordering::Acquire) {
                return;
            }
            let (pbytes, plen) = hdr.prefix();
            let level = hdr.level as usize;
            if level == depth + plen || level < depth || level > depth + plen {
                return;
            }
            let eff = level - depth;
            let skip = plen - eff;
            let fixed = pack_prefix(&pbytes[skip..plen]);
            P::persist_store(&hdr.prefix, || hdr.prefix.store(fixed, Ordering::Release));
            P::crash_site("art.helper.prefix_fixed");
        }
    }

    /// Insert or update; returns `true` if the key was newly inserted.
    pub fn insert(&self, key: &[u8], value: u64) -> bool {
        if key.is_empty() {
            return false;
        }
        'restart: loop {
            let mut parent: Option<(NodeRef, u8)> = None;
            let mut node = self.root_ref();
            let mut depth = 0usize;
            loop {
                pm::stats::record_node_visit();
                let hdr = node.hdr();
                let level = hdr.level as usize;
                let (pbytes, plen) = hdr.prefix();
                if level != depth + plen {
                    if level < depth {
                        return false; // malformed path for this key; treat as unsupported
                    }
                    // Writers detect the inconsistency; P-ART fixes it if permanent.
                    self.fix_prefix(node, depth);
                    if hdr.prefix.load(Ordering::Acquire) != pack_prefix(&pbytes[..plen]) {
                        continue; // the helper repaired the prefix; re-read this node
                    }
                    // Transient (another writer mid-split): tolerate by skipping.
                    depth = level;
                } else {
                    // Consistent prefix: find the first mismatching byte.
                    let mut p = 0usize;
                    while p < plen && depth + p < key.len() && pbytes[p] == key[depth + p] {
                        p += 1;
                    }
                    if p < plen {
                        if depth + p >= key.len() {
                            return false; // key is a strict prefix of existing keys
                        }
                        if self.path_split(parent, node, depth, p, &pbytes, plen, key, value) {
                            return true;
                        }
                        continue 'restart;
                    }
                    depth += plen;
                }
                if depth >= key.len() {
                    return false; // key is a strict prefix of existing keys
                }
                let b = key[depth];
                let child = node.find_child(b);
                if child == 0 {
                    match self.add_leaf(parent, node, b, key, value) {
                        AddLeafOutcome::Inserted => return true,
                        AddLeafOutcome::Retry => continue 'restart,
                    }
                }
                if is_leaf(child) {
                    // SAFETY: leaves are never freed while the tree is alive.
                    let leaf = unsafe { leaf_ref(child) };
                    if &*leaf.key == key {
                        P::persist_store(&leaf.value, || {
                            leaf.value.store(value, Ordering::Release)
                        });
                        return false;
                    }
                    match self.leaf_split(node, b, child, depth, key, value) {
                        Some(inserted) => return inserted,
                        None => continue 'restart,
                    }
                }
                parent = Some((node, b));
                // SAFETY: inner nodes are never freed while the tree is alive.
                node = unsafe { NodeRef::from_word(child) };
                depth += 1;
            }
        }
    }

    /// Add a new leaf under `node` at byte `b`, growing the node if it is full.
    fn add_leaf(
        &self,
        parent: Option<(NodeRef, u8)>,
        node: NodeRef,
        b: u8,
        key: &[u8],
        value: u64,
    ) -> AddLeafOutcome {
        let hdr = node.hdr();
        if !node.is_full() {
            let _g = hdr.lock.lock();
            if hdr.obsolete.load(Ordering::Acquire) || node.find_child(b) != 0 {
                return AddLeafOutcome::Retry;
            }
            if !node.is_full() {
                // SAFETY: fresh; the tree frees it only after unlinking it.
                let leaf = unsafe { Leaf::alloc(key, value).as_ref() };
                // Staged: it rides on the fence of `add_child`'s publishing store.
                leaf.stage::<P>();
                P::crash_site("art.insert.leaf_persisted");
                // Commit: single atomic child-pointer (or index, or count) store.
                let ok = node.add_child::<P>(b, leaf_word(leaf));
                debug_assert!(ok);
                P::crash_site("art.insert.committed");
                return AddLeafOutcome::Inserted;
            }
            // fall through to grow (re-acquired below in parent-then-node order)
        }
        // Node is full: grow. Lock ordering is parent before node to stay consistent
        // with the path-split path.
        let Some((par, pbyte)) = parent else {
            // The root is a Node256 and can never be full.
            return AddLeafOutcome::Retry;
        };
        let par_hdr = par.hdr();
        let _pg = par_hdr.lock.lock();
        if par_hdr.obsolete.load(Ordering::Acquire) || par.find_child(pbyte) != node.word() {
            return AddLeafOutcome::Retry;
        }
        let _ng = hdr.lock.lock();
        if hdr.obsolete.load(Ordering::Acquire) || node.find_child(b) != 0 || !node.is_full() {
            return AddLeafOutcome::Retry;
        }
        // SAFETY: fresh; the tree frees it only after unlinking it.
        let leaf = unsafe { Leaf::alloc(key, value).as_ref() };
        leaf.stage::<P>();
        let grown = node.grow_with(b, leaf_word(leaf));
        let (ptr, len) = node_span(grown);
        P::stage(ptr, len);
        P::crash_site("art.grow.new_node_persisted");
        // Commit: swap the parent's child pointer to the grown copy.
        let ok = par.replace_child::<P>(pbyte, grown, new_node_covers(leaf, grown));
        debug_assert!(ok);
        hdr.obsolete.store(true, Ordering::Release);
        self.retire(node.word());
        P::crash_site("art.grow.committed");
        AddLeafOutcome::Inserted
    }

    /// Path-compression split (Condition #3 SMO): the search key diverges from the
    /// node's compressed prefix after `p` matching bytes.
    #[allow(clippy::too_many_arguments)]
    fn path_split(
        &self,
        parent: Option<(NodeRef, u8)>,
        node: NodeRef,
        depth: usize,
        p: usize,
        pbytes: &[u8; MAX_PREFIX],
        plen: usize,
        key: &[u8],
        value: u64,
    ) -> bool {
        let Some((par, pbyte)) = parent else {
            return false; // the root has no prefix; cannot happen
        };
        let par_hdr = par.hdr();
        let _pg = par_hdr.lock.lock();
        if par_hdr.obsolete.load(Ordering::Acquire) || par.find_child(pbyte) != node.word() {
            return false;
        }
        let hdr = node.hdr();
        let _ng = hdr.lock.lock();
        if hdr.obsolete.load(Ordering::Acquire) {
            return false;
        }
        // Re-validate the prefix under the lock.
        let (cur_prefix, cur_len) = hdr.prefix();
        if cur_len != plen
            || cur_prefix[..plen] != pbytes[..plen]
            || hdr.level as usize != depth + plen
        {
            return false;
        }
        // SAFETY: fresh; the tree frees it only after unlinking it.
        let new_leaf = unsafe { Leaf::alloc(key, value).as_ref() };
        new_leaf.stage::<P>();
        // Build the new branch node covering the matched part of the prefix.
        let branch = Node4::alloc((depth + p) as u32, &pbytes[..p]);
        // SAFETY: freshly allocated.
        let branch_ref = unsafe { NodeRef::from_word(branch) };
        branch_ref.add_child::<Dram>(pbytes[p], node.word());
        branch_ref.add_child::<Dram>(key[depth + p], leaf_word(new_leaf));
        let (ptr, len) = node_span(branch);
        P::stage(ptr, len);
        P::crash_site("art.path_split.branch_persisted");
        // Step 1: install the branch node in the parent (atomic store).
        let ok = par.replace_child::<P>(pbyte, branch, new_node_covers(new_leaf, branch));
        debug_assert!(ok);
        P::crash_site("art.path_split.installed");
        // Step 2: truncate this node's prefix (single atomic store). A crash between
        // the steps leaves the stale prefix that readers tolerate and the helper fixes.
        let truncated = pack_prefix(&pbytes[p + 1..plen]);
        P::persist_store(&hdr.prefix, || hdr.prefix.store(truncated, Ordering::Release));
        P::crash_site("art.path_split.prefix_truncated");
        true
    }

    /// Replace a single leaf by a (possibly chained) subtree holding both the existing
    /// leaf and the new key. Commits with a single atomic store into `node`'s slot.
    /// Returns `Some(true)` on insert, `Some(false)` for unsupported prefix keys, and
    /// `None` when the caller must retry.
    fn leaf_split(
        &self,
        node: NodeRef,
        b: u8,
        existing: usize,
        depth: usize,
        key: &[u8],
        value: u64,
    ) -> Option<bool> {
        let hdr = node.hdr();
        let _g = hdr.lock.lock();
        if hdr.obsolete.load(Ordering::Acquire) || node.find_child(b) != existing {
            return None;
        }
        // SAFETY: the existing child is a live leaf (checked by the caller).
        let old_leaf = unsafe { leaf_ref(existing) };
        let old_key = &old_leaf.key;
        let base = depth + 1;
        let mut cp = 0usize;
        while base + cp < key.len()
            && base + cp < old_key.len()
            && key[base + cp] == old_key[base + cp]
        {
            cp += 1;
        }
        if base + cp >= key.len() || base + cp >= old_key.len() {
            // One key is a strict prefix of the other: unsupported.
            return Some(false);
        }
        // SAFETY: fresh; the tree frees it only after unlinking it.
        let new_leaf = unsafe { Leaf::alloc(key, value).as_ref() };
        new_leaf.stage::<P>();
        let (subtree, linked) =
            build_split_subtree::<P>(base, cp, key, old_key, existing, leaf_word(new_leaf));
        P::crash_site("art.leaf_split.subtree_persisted");
        // Commit: single atomic store replacing the leaf with the subtree, which
        // makes the whole chain reachable.
        let covers = new_node_covers(new_leaf, subtree).chain(linked.iter().map(|&n| node_span(n)));
        let ok = node.replace_child::<P>(b, subtree, covers);
        debug_assert!(ok);
        P::crash_site("art.leaf_split.committed");
        Some(true)
    }

    /// Remove a key. Returns `true` if it was present. No structural shrinking is
    /// performed (matching the evaluated workloads, which contain no deletes).
    pub fn remove(&self, key: &[u8]) -> bool {
        if key.is_empty() {
            return false;
        }
        'restart: loop {
            let mut node = self.root_ref();
            let mut depth = 0usize;
            loop {
                pm::stats::record_node_visit();
                let hdr = node.hdr();
                let level = hdr.level as usize;
                let (pbytes, plen) = hdr.prefix();
                if level == depth + plen {
                    let avail = key.len().saturating_sub(depth);
                    if avail < plen || key[depth..depth + plen] != pbytes[..plen] {
                        return false;
                    }
                    depth += plen;
                } else if level >= depth {
                    depth = level;
                } else {
                    return false;
                }
                if depth >= key.len() {
                    return false;
                }
                let b = key[depth];
                let child = node.find_child(b);
                if child == 0 {
                    return false;
                }
                if is_leaf(child) {
                    // SAFETY: leaves are never freed while the tree is alive.
                    let leaf = unsafe { leaf_ref(child) };
                    if &*leaf.key != key {
                        return false;
                    }
                    let _g = hdr.lock.lock();
                    if hdr.obsolete.load(Ordering::Acquire) || node.find_child(b) != child {
                        continue 'restart;
                    }
                    // Commit: single atomic store clearing the slot.
                    let ok = node.remove_child::<P>(b);
                    debug_assert!(ok);
                    self.retire(child);
                    P::crash_site("art.remove.committed");
                    return true;
                }
                // SAFETY: inner nodes are never freed while the tree is alive.
                node = unsafe { NodeRef::from_word(child) };
                depth += 1;
            }
        }
    }

    /// Range scan: up to `count` pairs with key `>= start`, ascending.
    pub fn scan(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, u64)> {
        let mut out = ScanBuf::new();
        self.scan_into(start, count, &mut out);
        out.to_vec()
    }

    /// [`Art::scan`] into a caller-provided buffer: appends up to `count` pairs
    /// with key `>= start` (ascending) to `out` without clearing it, so cursor
    /// callers can stream batches through one reused allocation.
    pub fn scan_into(&self, start: &[u8], count: usize, out: &mut ScanBuf) {
        if count == 0 {
            return;
        }
        let target = out.len().saturating_add(count);
        self.scan_rec(self.root.load(Ordering::Acquire), start, true, target, out);
    }

    fn scan_rec(
        &self,
        word: usize,
        start: &[u8],
        bounded: bool,
        count: usize,
        out: &mut ScanBuf,
    ) -> bool {
        if is_leaf(word) {
            // SAFETY: leaves are never freed while the tree is alive.
            let leaf = unsafe { leaf_ref(word) };
            if !bounded || &*leaf.key >= start {
                out.push(&leaf.key, leaf.value.load(Ordering::Acquire));
            }
            return out.len() >= count;
        }
        pm::stats::record_node_visit();
        // SAFETY: inner nodes are never freed while the tree is alive.
        let node = unsafe { NodeRef::from_word(word) };
        let hdr = node.hdr();
        let level = hdr.level as usize;
        let mut bounded = bounded;
        if bounded {
            // Compare the compressed prefix with the corresponding slice of `start`.
            // For nodes with a stale (too long) prefix the positions cannot be
            // reconstructed; we conservatively keep the subtree bounded.
            let (pbytes, plen) = hdr.prefix();
            if let Some(pfx_start) = level.checked_sub(plen) {
                for (i, &pb) in pbytes.iter().enumerate().take(plen) {
                    match start.get(pfx_start + i).copied() {
                        None => {
                            bounded = false;
                            break;
                        }
                        Some(sb) => {
                            if pb > sb {
                                bounded = false;
                                break;
                            }
                            if pb < sb {
                                return false; // whole subtree below the bound
                            }
                        }
                    }
                }
            }
        }
        // Only the child under the start key's own byte is still bounded by it;
        // children below that byte are never loaded, and the walk stops with the
        // scan, so a short scan touches a few slots of even a `Node256`.
        let bound = if bounded { start.get(level).copied() } else { None };
        node.walk_children_from(bound.unwrap_or(0), |b, child| {
            self.scan_rec(child, start, bound == Some(b), count, out)
        })
    }

    /// Every node and leaf reachable from the root, once each, as tagged words in
    /// ascending order: a node two slots reach, as a crash or an alias can leave it,
    /// is listed once. The list is built before the caller reads it, so the caller
    /// may free what it lists. This is the tree's one full-structure traversal:
    /// recovery, `len` and the drop call it.
    fn objects(&self) -> Vec<usize> {
        fn collect(word: usize, words: &mut Vec<usize>) {
            words.push(word);
            if !is_leaf(word) {
                // SAFETY: a reachable inner node; nothing is freed until the walk ends.
                unsafe { NodeRef::from_word(word) }.walk_children_from(0, |_, c| {
                    collect(c, words);
                    false
                });
            }
        }
        let mut words = Vec::new();
        collect(self.root.load(Ordering::Acquire), &mut words);
        words.sort_unstable();
        words.dedup();
        words
    }

    /// Re-initialise every node lock: RECIPE's post-crash lock re-initialisation
    /// (embedded locks are meaningless across restarts).
    pub(crate) fn recover(&self) {
        for word in self.objects().into_iter().filter(|&w| !is_leaf(w)) {
            // SAFETY: a reachable inner node, alive while the tree is.
            unsafe { NodeRef::from_word(word) }.hdr().lock.force_unlock();
        }
    }

    /// Number of keys currently stored (slow full traversal; diagnostics and tests).
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects().into_iter().filter(|&w| is_leaf(w)).count()
    }

    /// Whether the tree is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Retire the node or leaf `word` names, which the calling operation has just
    /// unlinked: freed when the tree drops, since a non-blocking reader may still be
    /// on it.
    fn retire(&self, word: usize) {
        let bytes = if is_leaf(word) {
            std::mem::size_of::<Leaf>()
        } else {
            // SAFETY: an unlinked inner node, alive until the retired list drops.
            unsafe { NodeRef::from_word(word) }.size_bytes()
        };
        // SAFETY: unreachable since the unlink, and retired once; the tree's drop
        // frees only what it reaches from the root.
        self.retired.defer_free(bytes as u64, move || unsafe {
            if is_leaf(word) {
                Leaf::free((word & !1) as *mut Leaf);
            } else {
                free_node(word);
            }
        });
    }
}

impl<P: PersistMode> Drop for Art<P> {
    /// Free every node and leaf reachable from the root, each once; `retired` frees
    /// the unlinked ones as it drops after this.
    fn drop(&mut self) {
        // Free the inner nodes and keep the leaves in the walk's own buffer: mapping
        // a word to a leaf pointer of the same size collects in place.
        let mut leaves = self.objects();
        leaves.retain(|&word| {
            if !is_leaf(word) {
                // SAFETY: exclusive access; every object is reachable only from this
                // tree, and the walk lists it once.
                unsafe { free_node(word) };
            }
            is_leaf(word)
        });
        // SAFETY: as above.
        unsafe { Leaf::free_all(leaves.into_iter().map(|w| (w & !1) as *mut Leaf).collect()) };
    }
}

enum AddLeafOutcome {
    Inserted,
    Retry,
}

/// Build a chain of `Node4`s covering `cp` shared key bytes starting at `base`, ending
/// in a `Node4` that branches between the existing leaf and the new leaf. Every node
/// is staged; the caller commits by installing the returned top word, whose publish
/// fence makes the chain (the returned nodes below the top) and the new leaf durable.
fn build_split_subtree<P: PersistMode>(
    base: usize,
    cp: usize,
    new_key: &[u8],
    old_key: &[u8],
    existing: usize,
    new_leaf: usize,
) -> (usize, Vec<usize>) {
    // Segment the shared bytes into chunks of (up to 7 prefix bytes + 1 branch byte)
    // for intermediate single-child nodes, leaving <= MAX_PREFIX bytes for the final
    // branching node.
    let mut segments: Vec<usize> = Vec::new(); // start offsets of intermediate nodes
    let mut consumed = 0usize;
    while cp - consumed > MAX_PREFIX {
        segments.push(base + consumed);
        consumed += MAX_PREFIX + 1;
    }
    let final_start = base + consumed;
    let final_plen = base + cp - final_start;
    let branch_pos = base + cp;

    let final_node =
        Node4::alloc(branch_pos as u32, &new_key[final_start..final_start + final_plen]);
    // SAFETY: freshly allocated.
    let final_ref = unsafe { NodeRef::from_word(final_node) };
    final_ref.add_child::<Dram>(old_key[branch_pos], existing);
    final_ref.add_child::<Dram>(new_key[branch_pos], new_leaf);
    let (ptr, len) = node_span(final_node);
    P::stage(ptr, len);

    let mut child = final_node;
    let mut linked: Vec<usize> = Vec::new(); // nodes below the top of the chain
    for &seg_start in segments.iter().rev() {
        let node = Node4::alloc(
            (seg_start + MAX_PREFIX) as u32,
            &new_key[seg_start..seg_start + MAX_PREFIX],
        );
        // SAFETY: freshly allocated.
        let r = unsafe { NodeRef::from_word(node) };
        r.add_child::<Dram>(new_key[seg_start + MAX_PREFIX], child);
        let (ptr, len) = node_span(node);
        P::stage(ptr, len);
        linked.push(child);
        child = node;
    }
    (child, linked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe::key::u64_key;
    use recipe::persist::{Dram, Pmem};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn empty_tree_lookups() {
        let t: Art<Dram> = Art::new();
        assert_eq!(t.get(b"missing"), None);
        assert_eq!(t.get(b""), None);
        assert!(t.is_empty());
        assert!(!t.remove(b"missing"));
        assert!(t.scan(b"", 10).is_empty());
    }

    #[test]
    fn insert_get_fixed_len_keys() {
        let t: Art<Dram> = Art::new();
        for i in 0..10_000u64 {
            assert!(t.insert(&u64_key(i), i * 3), "insert {i}");
        }
        assert_eq!(t.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(t.get(&u64_key(i)), Some(i * 3), "get {i}");
        }
        assert_eq!(t.get(&u64_key(10_000)), None);
    }

    #[test]
    fn insert_is_upsert() {
        let t: Art<Dram> = Art::new();
        assert!(t.insert(b"keyXXXXX", 1));
        assert!(!t.insert(b"keyXXXXX", 2));
        assert_eq!(t.get(b"keyXXXXX"), Some(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn long_shared_prefixes_build_chains() {
        let t: Art<Dram> = Art::new();
        // 24-byte keys sharing a 20-byte prefix exercise the chained split path.
        let prefix = b"user00000000000000000"; // 21 bytes
        let mut keys = Vec::new();
        for i in 0..200u32 {
            let mut k = prefix.to_vec();
            k.extend_from_slice(&i.to_be_bytes()[1..]); // 3 bytes -> 24 total
            keys.push(k);
        }
        for (i, k) in keys.iter().enumerate() {
            assert!(t.insert(k, i as u64), "insert {i}");
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as u64), "get {i}");
        }
        assert_eq!(t.len(), 200);
    }

    #[test]
    fn remove_then_reinsert() {
        let t: Art<Dram> = Art::new();
        for i in 0..1000u64 {
            t.insert(&u64_key(i), i);
        }
        for i in (0..1000u64).step_by(2) {
            assert!(t.remove(&u64_key(i)), "remove {i}");
        }
        for i in 0..1000u64 {
            let expect = if i % 2 == 0 { None } else { Some(i) };
            assert_eq!(t.get(&u64_key(i)), expect, "get {i}");
        }
        for i in (0..1000u64).step_by(2) {
            assert!(t.insert(&u64_key(i), i + 1));
        }
        assert_eq!(t.len(), 1000);
    }

    #[test]
    fn scan_returns_sorted_ranges() {
        let t: Art<Dram> = Art::new();
        let mut model = BTreeMap::new();
        for i in (0..2000u64).rev() {
            let k = u64_key(i * 7);
            t.insert(&k, i);
            model.insert(k.to_vec(), i);
        }
        for start in [0u64, 1, 35, 6999, 14_000 - 7] {
            let sk = u64_key(start);
            let got = t.scan(&sk, 25);
            let want: Vec<(Vec<u8>, u64)> =
                model.range(sk.to_vec()..).take(25).map(|(k, v)| (k.clone(), *v)).collect();
            assert_eq!(got, want, "scan from {start}");
        }
    }

    #[test]
    fn scan_with_variable_length_keys() {
        let t: Art<Dram> = Art::new();
        let keys: Vec<&[u8]> =
            vec![b"aaaa0001", b"aaaa0002", b"aaab0001", b"abcd9999", b"zzzz0000"];
        for (i, k) in keys.iter().enumerate() {
            assert!(t.insert(k, i as u64));
        }
        let got = t.scan(b"aaab", 10);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0, b"aaab0001".to_vec());
    }

    #[test]
    fn pm_variant_flushes_and_dram_does_not() {
        let before = pm::stats::snapshot_local();
        let d: Art<Dram> = Art::new();
        for i in 0..500u64 {
            d.insert(&u64_key(i), i);
        }
        let mid = pm::stats::snapshot_local();
        assert_eq!(mid.since(&before).clwb, 0);
        let p: Art<Pmem> = Art::new();
        for i in 0..500u64 {
            p.insert(&u64_key(i), i);
        }
        let d2 = pm::stats::snapshot_local().since(&mid);
        assert!(d2.clwb > 0);
        assert!(d2.fence > 0);
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let t: Arc<Art<Pmem>> = Arc::new(Art::new());
        let threads = 8usize;
        let per = 4000u64;
        let mut handles = Vec::new();
        for tid in 0..threads as u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    let k = u64_key(tid * per + i);
                    assert!(t.insert(&k, tid * per + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), threads * per as usize);
        for v in 0..threads as u64 * per {
            assert_eq!(t.get(&u64_key(v)), Some(v), "key {v} lost");
        }
    }

    #[test]
    fn concurrent_mixed_readers_and_writers() {
        let t: Arc<Art<Pmem>> = Arc::new(Art::new());
        for i in 0..10_000u64 {
            t.insert(&u64_key(i), i);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = i % 10_000;
                    assert_eq!(t.get(&u64_key(k)), Some(k));
                    i += 1;
                }
            }));
        }
        let mut writers = Vec::new();
        for w in 0..4u64 {
            let t = Arc::clone(&t);
            writers.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    let k = 100_000 + w * 5_000 + i;
                    t.insert(&u64_key(k), k);
                }
            }));
        }
        for h in writers {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        for w in 0..4u64 {
            for i in 0..5_000u64 {
                let k = 100_000 + w * 5_000 + i;
                assert_eq!(t.get(&u64_key(k)), Some(k));
            }
        }
    }

    #[test]
    fn random_keys_match_btreemap_model() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let t: Art<Dram> = Art::new();
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for _ in 0..20_000 {
            let k: u64 = rng.gen();
            let v: u64 = rng.gen();
            let key = u64_key(k).to_vec();
            t.insert(&key, v);
            model.insert(key, v);
        }
        for (k, v) in &model {
            assert_eq!(t.get(k), Some(*v));
        }
        assert_eq!(t.len(), model.len());
    }

    #[test]
    fn walk_visits_each_object_once() {
        // A seeded mix of inserts and removes grows nodes and retires leaves.
        let t: Art<Pmem> = Art::new();
        let mut model = BTreeMap::new();
        for i in 0..20_000u64 {
            let r = pm::mix64(0xA27 ^ i);
            let k = u64_key(r % 4_000);
            if r >> 62 == 0 {
                assert_eq!(t.remove(&k), model.remove(&k).is_some());
            } else {
                t.insert(&k, i);
                model.insert(k, i);
            }
        }
        let mut words = t.objects();
        let visited = words.len();
        words.sort_unstable();
        words.dedup();
        assert_eq!(words.len(), visited, "an object was visited twice");
        assert_eq!(words.iter().filter(|&&w| is_leaf(w)).count(), model.len());
        assert_eq!(t.len(), model.len());
    }
}
