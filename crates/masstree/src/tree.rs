//! The Masstree trie-of-B+-trees and its RECIPE conversion.
//!
//! Keys are consumed in 8-byte big-endian slices ([`recipe::key::keyslice`]); each
//! trie layer is a B+ tree over `(slice, length class)` pairs whose leaves either
//! terminate a key (length class 0..=8, value word holds the record value) or link to
//! the next layer (length class [`LAYER`], value word points to a [`Layer`]). Readers
//! are non-blocking: they descend with B-link move-right checks, snapshot each leaf's
//! permutation word, and validate the entry after reading its value; writers lock the
//! one leaf they modify and commit non-SMO writes with a single atomic store of the
//! permutation (RECIPE Condition #1 for non-SMO operations).
//!
//! Splits are the multi-step SMO that puts Masstree under Condition #3 ("writers
//! don't fix inconsistencies"): sibling persisted → sibling linked → high key set →
//! left half truncated, with a crash site after each atomic step. The last three
//! steps store words of one header line ([`Node`]), which persist in program order,
//! so they share one flush and fence. A crash between the
//! steps leaves duplicate entries and/or a missing high key. Readers *detect and
//! tolerate* these states (move-right plus scan-time duplicate suppression) but never
//! repair them; the helper built from the write path runs at [`Masstree::recover`],
//! which completes any torn split (derives the missing high key from the sibling's
//! minimum, truncates stale upper halves, re-roots orphaned sibling chains) and
//! re-initialises every node lock, exactly as RECIPE prescribes for restart.

use crate::node::{Node, Perm, LAYER, WIDTH};
use recipe::key::keyslice;
use recipe::lock::VersionGuard;
use recipe::persist::{span, PersistMode};
use recipe::session::ScanBuf;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, Ordering};

/// One trie layer: a B+ tree indexed by the 8-byte key slice at this layer's depth.
///
/// The indirection (rather than pointing at the root node directly) keeps the
/// next-layer link in parent leaves stable across root splits of the sublayer.
pub struct Layer {
    /// Root node of this layer's B+ tree.
    pub root: AtomicPtr<Node>,
}

/// Outcome of attempting an operation within one layer.
enum LayerStep {
    /// The operation finished in this layer.
    Done(bool),
    /// The key continues in the next layer.
    Descend(*const Layer),
}

/// The Masstree, generic over the persistence policy: `Masstree<Dram>` is the
/// original concurrent DRAM index, `Masstree<Pmem>` is P-Masstree.
pub struct Masstree<P: PersistMode> {
    layer0: Layer,
    /// Serializes structure modifications (splits) across all layers, like the
    /// original's hand-over-hand split locking collapsed to one lock: splits are rare
    /// and the unprotected parent update is the §3 lost-key bug class.
    smo_lock: parking_lot::Mutex<()>,
    _policy: PhantomData<P>,
}

impl<P: PersistMode> Drop for Masstree<P> {
    /// Free every node and sublayer the walk reaches, each once: a node a crash left
    /// linked only as a sibling (its parent entry never written) is freed too, and a
    /// sublayer linked from two leaves (a torn split's copied half) once.
    fn drop(&mut self) {
        let (mut nodes, mut sublayers) = (Vec::new(), Vec::new());
        let layer0 = &self.layer0 as *const Layer;
        self.for_each_object(|obj| match obj {
            Object::Node(node) => nodes.push(node),
            Object::Layer(layer) if layer != layer0 => sublayers.push(layer as *mut Layer),
            Object::Layer(_) => {}
        });
        // SAFETY: exclusive access; the nodes are slab blocks and the sublayers boxes
        // of this tree only (`layer0` is a field, not in the list), each listed once,
        // and nothing is read after this.
        unsafe {
            pm::alloc::pm_line_drop_all(nodes);
            pm::alloc::pm_drop_all(sublayers);
        }
    }
}

/// An object `Masstree::for_each_object` reaches: a layer (`layer0` included) or
/// one of its nodes.
#[derive(Clone, Copy)]
enum Object {
    Layer(*const Layer),
    Node(*mut Node),
}

impl<P: PersistMode> Default for Masstree<P> {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn node_ref<'a>(ptr: *mut Node) -> &'a Node {
    // SAFETY: nothing unlinks a node (splits only add them), and every node is freed
    // when the tree drops.
    unsafe { &*ptr }
}

#[inline]
fn layer_ref<'a>(ptr: *const Layer) -> &'a Layer {
    // SAFETY: nothing unlinks a layer (an emptied one stays in place), and every
    // layer is freed when the tree drops.
    unsafe { &*ptr }
}

/// Length class of the key remainder at byte offset `off`: the number of bytes the
/// slice covers (0..=8), or [`LAYER`] if the key continues past the slice.
#[inline]
fn len_class(key: &[u8], off: usize) -> u8 {
    let rem = key.len().saturating_sub(off);
    if rem > 8 {
        LAYER
    } else {
        rem as u8
    }
}

/// Write one entry into a free slot of a locked node and publish it with a single
/// atomic store of the permutation. The slot's key and value share one group line,
/// staged with one flush; the length class sits on the header line with the
/// permutation word, so it persists with the commit's flush and no later than it.
/// `sites` names the crash sites declared after the slot is staged and after the
/// commit.
fn insert_entry<P: PersistMode>(
    node: &Node,
    perm: Perm,
    rank: usize,
    slice: u64,
    lc: u8,
    val: u64,
    sites: (&'static str, &'static str),
) {
    let slot = perm.free_slot().expect("caller checked the node is not full");
    let pair = node.pair(slot);
    P::stage_store(pair, || {
        pair.key.store(slice, Ordering::Release);
        pair.val.store(val, Ordering::Release);
    });
    node.lens[slot].store(lc, Ordering::Release);
    P::crash_site(sites.0);
    // A new sublayer (`make_chain`) becomes reachable with the entry too.
    let (layer, root) = if lc == LAYER {
        let layer = val as *const Layer;
        (span(layer), span(layer_ref(layer).root.load(Ordering::Acquire)))
    } else {
        ((std::ptr::null(), 0), (std::ptr::null(), 0))
    };
    let commit = || node.perm.store(perm.insert(rank, slot).0, Ordering::Release);
    P::publish(&node.perm, commit, [span(pair), layer, root], sites.1);
}

/// The children (and separator slices) routed by the internal level whose chain
/// starts at `parent_head`. Shared by the recovery walkers; single-threaded use.
fn routed_by_level(
    parent_head: *mut Node,
) -> (std::collections::HashSet<u64>, std::collections::HashSet<u64>) {
    let mut routed = std::collections::HashSet::new();
    let mut seps = std::collections::HashSet::new();
    let mut p = parent_head;
    while !p.is_null() {
        let pn = node_ref(p);
        routed.insert(pn.leftmost.load(Ordering::Acquire));
        let perm = pn.perm_snapshot();
        for rank in 0..perm.count() {
            let slot = perm.slot(rank);
            seps.insert(pn.key(slot).load(Ordering::Acquire));
            routed.insert(pn.val(slot).load(Ordering::Acquire));
        }
        p = pn.next.load(Ordering::Acquire);
    }
    (routed, seps)
}

impl<P: PersistMode> Masstree<P> {
    /// Create an empty tree: a single layer whose root is an empty leaf.
    #[must_use]
    pub fn new() -> Self {
        let root = Node::alloc(true);
        P::stage_obj(root);
        let t = Masstree {
            layer0: Layer { root: AtomicPtr::new(std::ptr::null_mut()) },
            smo_lock: parking_lot::Mutex::new(()),
            _policy: PhantomData,
        };
        let slot = &t.layer0.root;
        P::publish(slot, || slot.store(root, Ordering::Release), [span(root)], None);
        t
    }

    /// Visit every layer and node reachable from `layer0` once. A layer comes
    /// before its nodes, and they come level by level along the sibling chains that
    /// start at the leftmost spine, so a node a crash left linked only as a sibling
    /// is reached too. The sublayers are read off the leaf level after its nodes
    /// were visited, and one that two leaves link (a torn split's copied half) is
    /// visited once. `f` may repair the node it is given but must not free
    /// anything: the walk reads each node's links after the visit. This is the
    /// tree's one full-structure traversal: recovery, `unrouted_siblings` and the
    /// drop call it.
    fn for_each_object(&self, mut f: impl FnMut(Object)) {
        let mut seen = std::collections::HashSet::new();
        let mut work = vec![&self.layer0 as *const Layer];
        while let Some(layer) = work.pop() {
            f(Object::Layer(layer));
            let mut level_head = layer_ref(layer).root.load(Ordering::Acquire);
            loop {
                let mut cur = level_head;
                while !cur.is_null() {
                    f(Object::Node(cur));
                    cur = node_ref(cur).next.load(Ordering::Acquire);
                }
                let head = node_ref(level_head);
                if head.is_leaf() {
                    break;
                }
                level_head = head.leftmost.load(Ordering::Acquire) as *mut Node;
            }
            let mut cur = level_head;
            while !cur.is_null() {
                let node = node_ref(cur);
                let perm = node.perm_snapshot();
                for rank in 0..perm.count() {
                    let slot = perm.slot(rank);
                    if node.lens[slot].load(Ordering::Acquire) == LAYER {
                        let sub = node.val(slot).load(Ordering::Acquire) as *const Layer;
                        if seen.insert(sub) {
                            work.push(sub);
                        }
                    }
                }
                cur = node.next.load(Ordering::Acquire);
            }
        }
    }

    /// Descent within `layer` to a leaf covering (or left of) `slice`, following
    /// sibling pointers across in-flight splits. Internal-node routing reads are
    /// version-validated: internal nodes are only written under their lock during
    /// (SMO-serialized, rare) splits, and a stale permutation could otherwise pair a
    /// separator with a recycled slot's child pointer. Callers handle leaf-level
    /// move-right with their own validation.
    fn find_leaf(&self, layer: &Layer, slice: u64) -> *mut Node {
        let mut cur = layer.root.load(Ordering::Acquire);
        loop {
            pm::stats::record_node_visit();
            let node = node_ref(cur);
            if node.is_leaf() {
                return cur;
            }
            let v0 = node.lock.read_begin();
            if node.must_move_right(slice) {
                let sib = node.next.load(Ordering::Acquire);
                if !sib.is_null() {
                    cur = sib;
                    continue;
                }
            }
            let child = node.find_child(slice);
            if node.lock.read_retry(v0) {
                // A split ran while we were routing; re-read this node.
                continue;
            }
            if child == 0 {
                // Transiently empty internal node; restart from the layer root.
                cur = layer.root.load(Ordering::Acquire);
                continue;
            }
            cur = child as *mut Node;
        }
    }

    /// Lock the leaf covering `slice`, re-validating the covering range under the
    /// lock (a concurrent split may have moved it while we waited).
    fn lock_leaf<'a>(&self, layer: &Layer, slice: u64) -> (&'a Node, VersionGuard<'a>) {
        let mut ptr = self.find_leaf(layer, slice);
        loop {
            let node = node_ref(ptr);
            let guard = node.lock.lock();
            if node.must_move_right(slice) {
                let sib = node.next.load(Ordering::Acquire);
                if !sib.is_null() {
                    drop(guard);
                    ptr = sib;
                    continue;
                }
            }
            return (node, guard);
        }
    }

    /// Version-validated non-blocking lookup of `(slice, lc)` within `layer`:
    /// returns the entry's value word (record value, or `Layer` pointer for
    /// [`LAYER`] entries). The whole per-leaf read — move-right decision, rank
    /// search, value load — forms one optimistic read section; if a writer touched
    /// the leaf in between, everything is discarded and re-read. (A bare
    /// permutation-equality check would be ABA-prone: a remove + insert reusing the
    /// same slot at the same rank restores a bit-identical permutation word.)
    fn layer_lookup(&self, layer: &Layer, slice: u64, lc: u8) -> Option<u64> {
        let mut leaf = self.find_leaf(layer, slice);
        loop {
            let node = node_ref(leaf);
            let v0 = node.lock.read_begin();
            if node.must_move_right(slice) {
                let sib = node.next.load(Ordering::Acquire);
                if !sib.is_null() {
                    leaf = sib;
                    continue;
                }
            }
            let perm = node.perm_snapshot();
            let result = match node.find_rank(perm, slice, lc) {
                Ok(rank) => Some(node.val(perm.slot(rank)).load(Ordering::Acquire)),
                Err(_) => None,
            };
            if node.lock.read_retry(v0) {
                continue;
            }
            return result;
        }
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        let mut layer: *const Layer = &self.layer0;
        let mut off = 0usize;
        loop {
            let slice = keyslice(key, off);
            let lc = len_class(key, off);
            let val = self.layer_lookup(layer_ref(layer), slice, lc)?;
            if lc == LAYER {
                layer = val as *const Layer;
                off += 8;
            } else {
                return Some(val);
            }
        }
    }

    /// Build the private chain of sublayers holding `key[off..] -> value`, returning
    /// the `Layer` pointer as a value word. Nothing is visible until the caller
    /// publishes the owning entry, so plain initialisation plus one persist suffices.
    fn make_chain(&self, key: &[u8], off: usize, value: u64) -> u64 {
        let leaf = Node::alloc(true);
        let node = node_ref(leaf);
        let slice = keyslice(key, off);
        let lc = len_class(key, off);
        let val = if lc == LAYER { self.make_chain(key, off + 8, value) } else { value };
        node.key(0).store(slice, Ordering::Relaxed);
        node.lens[0].store(lc, Ordering::Relaxed);
        node.val(0).store(val, Ordering::Relaxed);
        node.perm.store(Perm::identity(1).0, Ordering::Relaxed);
        P::stage_obj(leaf);
        let layer = pm::alloc::pm_box(Layer { root: AtomicPtr::new(leaf) });
        P::persist_obj(layer, true);
        layer as u64
    }

    /// Insert `key -> value`. Returns `true` if the key was newly inserted, `false`
    /// if it already existed (its value is overwritten in place).
    pub fn insert(&self, key: &[u8], value: u64) -> bool {
        let mut layer: *const Layer = &self.layer0;
        let mut off = 0usize;
        loop {
            match self.layer_insert(layer_ref(layer), key, off, value) {
                LayerStep::Done(newly) => return newly,
                LayerStep::Descend(sub) => {
                    layer = sub;
                    off += 8;
                }
            }
        }
    }

    /// Insert within one layer: in-place update, descent, one-store commit, or split.
    fn layer_insert(&self, layer: &Layer, key: &[u8], off: usize, value: u64) -> LayerStep {
        let slice = keyslice(key, off);
        let lc = len_class(key, off);
        loop {
            let (node, guard) = self.lock_leaf(layer, slice);
            let perm = node.perm_snapshot();
            match node.find_rank(perm, slice, lc) {
                Ok(rank) => {
                    let slot = perm.slot(rank);
                    let val = node.val(slot).load(Ordering::Acquire);
                    if lc == LAYER {
                        drop(guard);
                        return LayerStep::Descend(val as *const Layer);
                    }
                    // Existing terminal entry: in-place value overwrite, committed by
                    // one atomic store.
                    let v = node.val(slot);
                    P::persist_store(v, || v.store(value, Ordering::Release));
                    P::crash_site("masstree.update.committed");
                    return LayerStep::Done(false);
                }
                Err(rank) => {
                    if perm.count() < WIDTH {
                        let val =
                            if lc == LAYER { self.make_chain(key, off + 8, value) } else { value };
                        insert_entry::<P>(
                            node,
                            perm,
                            rank,
                            slice,
                            lc,
                            val,
                            ("masstree.insert.slot_written", "masstree.insert.committed"),
                        );
                        return LayerStep::Done(true);
                    }
                    // Leaf full: retry the whole descent under the SMO lock so at
                    // most one structure modification is in flight, then split.
                    drop(guard);
                    let smo = self.smo_lock.lock();
                    let (node, guard) = self.lock_leaf(layer, slice);
                    let perm = node.perm_snapshot();
                    match node.find_rank(perm, slice, lc) {
                        Ok(_) => {
                            // A concurrent writer got there first; release the SMO
                            // lock and redo the non-SMO path.
                            drop(guard);
                            drop(smo);
                            continue;
                        }
                        Err(rank) => {
                            let val = if lc == LAYER {
                                self.make_chain(key, off + 8, value)
                            } else {
                                value
                            };
                            if perm.count() < WIDTH {
                                insert_entry::<P>(
                                    node,
                                    perm,
                                    rank,
                                    slice,
                                    lc,
                                    val,
                                    ("masstree.insert.slot_written", "masstree.insert.committed"),
                                );
                            } else {
                                self.split_leaf_and_insert(layer, node, slice, lc, val);
                            }
                            drop(guard);
                            drop(smo);
                            return LayerStep::Done(true);
                        }
                    }
                }
            }
        }
    }

    /// Split the full locked leaf and insert the pending `(slice, lc) -> val` entry.
    /// Called with the leaf lock and the SMO lock held.
    fn split_leaf_and_insert(&self, layer: &Layer, node: &Node, slice: u64, lc: u8, val: u64) {
        let perm = node.perm_snapshot();
        let count = perm.count();
        debug_assert_eq!(count, WIDTH);
        let key_at = |rank: usize| node.key(perm.slot(rank)).load(Ordering::Acquire);
        // Pick a split boundary that never divides a run of equal slices, so the
        // separator is a pure slice (at most 10 length classes share a slice, so a
        // boundary always exists in a full leaf).
        let mut b = count / 2;
        while b < count && key_at(b) == key_at(b - 1) {
            b += 1;
        }
        if b == count {
            b = count / 2;
            while b > 1 && key_at(b - 1) == key_at(b) {
                b -= 1;
            }
        }
        debug_assert!(b > 0 && b < count && key_at(b) != key_at(b - 1));
        let split_slice = key_at(b);

        // Build the right sibling privately: upper half plus, if it belongs there,
        // the pending entry.
        let right_ptr = Node::alloc(true);
        let right = node_ref(right_ptr);
        let mut rcount = 0usize;
        for rank in b..count {
            let s = perm.slot(rank);
            right.key(rcount).store(node.key(s).load(Ordering::Acquire), Ordering::Relaxed);
            right.lens[rcount].store(node.lens[s].load(Ordering::Acquire), Ordering::Relaxed);
            right.val(rcount).store(node.val(s).load(Ordering::Acquire), Ordering::Relaxed);
            rcount += 1;
        }
        if slice >= split_slice {
            // Splice the pending entry into the private sorted array.
            let mut pos = rcount;
            for i in 0..rcount {
                let k =
                    (right.key(i).load(Ordering::Relaxed), right.lens[i].load(Ordering::Relaxed));
                if k > (slice, lc) {
                    pos = i;
                    break;
                }
            }
            let mut i = rcount;
            while i > pos {
                right.key(i).store(right.key(i - 1).load(Ordering::Relaxed), Ordering::Relaxed);
                right.lens[i].store(right.lens[i - 1].load(Ordering::Relaxed), Ordering::Relaxed);
                right.val(i).store(right.val(i - 1).load(Ordering::Relaxed), Ordering::Relaxed);
                i -= 1;
            }
            right.key(pos).store(slice, Ordering::Relaxed);
            right.lens[pos].store(lc, Ordering::Relaxed);
            right.val(pos).store(val, Ordering::Relaxed);
            rcount += 1;
        }
        right.perm.store(Perm::identity(rcount).0, Ordering::Relaxed);
        right.next.store(node.next.load(Ordering::Acquire), Ordering::Relaxed);
        right.high.store(node.high.load(Ordering::Acquire), Ordering::Relaxed);
        P::stage_obj(right_ptr);
        P::crash_site("masstree.split.sibling_persisted");

        // Ordered atomic steps of the SMO (Condition #3): link, bound, truncate. All
        // three words share the header line, so they persist in this order and the
        // one flush + fence of the permutation's line after the last makes all three
        // durable; the link publishes the sibling.
        let steps = || {
            node.next.store(right_ptr, Ordering::Release);
            P::crash_site("masstree.split.sibling_linked");
            node.high.store(split_slice, Ordering::Release);
            P::crash_site("masstree.split.high_set");
            node.perm.store(perm.truncate(b).0, Ordering::Release);
        };
        P::publish(&node.perm, steps, [span(right_ptr)], "masstree.split.left_truncated");
        obs::event::emit("masstree.smo", "leaf_split", split_slice, right_ptr as u64);

        // A pending entry belonging to the lower half goes in through the normal
        // one-store commit (the leaf now has free slots).
        if slice < split_slice {
            let p2 = node.perm_snapshot();
            let rank = node
                .find_rank(p2, slice, lc)
                .expect_err("pending key cannot exist in a leaf we just split");
            insert_entry::<P>(
                node,
                p2,
                rank,
                slice,
                lc,
                val,
                ("masstree.insert.slot_written", "masstree.insert.committed"),
            );
        }

        let left_ptr = node as *const Node as *mut Node;
        self.insert_into_parent(layer, left_ptr, split_slice, right_ptr);
    }

    /// Insert the separator `(split_slice -> right)` into the parent of `left`,
    /// splitting parents upward as needed. Called with the SMO lock held.
    fn insert_into_parent(
        &self,
        layer: &Layer,
        left: *mut Node,
        split_slice: u64,
        right: *mut Node,
    ) {
        if layer.root.load(Ordering::Acquire) == left {
            // Root split: build the new root privately, then publish it with one
            // atomic store of the layer's root pointer.
            let new_root_ptr = Node::alloc(false);
            let new_root = node_ref(new_root_ptr);
            new_root.leftmost.store(left as u64, Ordering::Relaxed);
            new_root.key(0).store(split_slice, Ordering::Relaxed);
            new_root.val(0).store(right as u64, Ordering::Relaxed);
            new_root.perm.store(Perm::identity(1).0, Ordering::Relaxed);
            P::stage_obj(new_root_ptr);
            P::crash_site("masstree.root_split.new_root_persisted");
            let commit = || layer.root.store(new_root_ptr, Ordering::Release);
            P::publish(&layer.root, commit, [span(new_root_ptr)], "masstree.root_split.committed");
            obs::event::emit("masstree.smo", "root_split", split_slice, new_root_ptr as u64);
            return;
        }
        let Some(parent_ptr) = self.find_parent(layer, left, split_slice) else {
            // The grandparent link of an earlier split never completed before a
            // crash; the sibling chain keeps every key reachable (B-link), so the
            // split is left for recovery to finish.
            return;
        };
        let parent = node_ref(parent_ptr);
        let guard = parent.lock.lock();
        let perm = parent.perm_snapshot();
        if perm.count() < WIDTH {
            let rank = parent
                .find_rank(perm, split_slice, 0)
                .expect_err("separator being inserted cannot already exist");
            insert_entry::<P>(
                parent,
                perm,
                rank,
                split_slice,
                0,
                right as u64,
                ("masstree.parent.slot_written", "masstree.parent.committed"),
            );
            drop(guard);
            return;
        }
        self.split_internal_and_insert(layer, parent, split_slice, right as u64);
        drop(guard);
    }

    /// Split the full locked internal node `parent` and route the pending separator
    /// into the correct half; the middle separator moves up. SMO lock held.
    fn split_internal_and_insert(&self, layer: &Layer, parent: &Node, slice: u64, child: u64) {
        let perm = parent.perm_snapshot();
        let count = perm.count();
        let mid = count / 2;
        let up_slot = perm.slot(mid);
        let up_slice = parent.key(up_slot).load(Ordering::Acquire);

        let right_ptr = Node::alloc(false);
        let right = node_ref(right_ptr);
        // The promoted separator's child becomes the right node's leftmost child.
        right.leftmost.store(parent.val(up_slot).load(Ordering::Acquire), Ordering::Relaxed);
        for (j, rank) in (mid + 1..count).enumerate() {
            let s = perm.slot(rank);
            right.key(j).store(parent.key(s).load(Ordering::Acquire), Ordering::Relaxed);
            right.val(j).store(parent.val(s).load(Ordering::Acquire), Ordering::Relaxed);
        }
        right.perm.store(Perm::identity(count - mid - 1).0, Ordering::Relaxed);
        right.next.store(parent.next.load(Ordering::Acquire), Ordering::Relaxed);
        right.high.store(parent.high.load(Ordering::Acquire), Ordering::Relaxed);
        P::stage_obj(right_ptr);
        P::crash_site("masstree.parent_split.sibling_persisted");

        // Link, bound, truncate: one header line, one flush + fence (as in the leaf
        // split).
        let steps = || {
            parent.next.store(right_ptr, Ordering::Release);
            P::crash_site("masstree.parent_split.sibling_linked");
            parent.high.store(up_slice, Ordering::Release);
            // Truncate *excluding* the promoted separator.
            parent.perm.store(perm.truncate(mid).0, Ordering::Release);
        };
        P::publish(&parent.perm, steps, [span(right_ptr)], "masstree.parent_split.left_truncated");
        obs::event::emit("masstree.smo", "parent_split", up_slice, right_ptr as u64);

        // Route the pending separator into the half that now covers it.
        let target = if slice < up_slice { parent } else { right };
        let p2 = target.perm_snapshot();
        let rank = target
            .find_rank(p2, slice, 0)
            .expect_err("separator being inserted cannot already exist");
        insert_entry::<P>(
            target,
            p2,
            rank,
            slice,
            0,
            child,
            ("masstree.parent.slot_written", "masstree.parent.committed"),
        );

        let left_ptr = parent as *const Node as *mut Node;
        self.insert_into_parent(layer, left_ptr, up_slice, right_ptr);
    }

    /// Locate the internal node holding (or that should hold) the routing entry for
    /// `left`. Returns `None` if `left` is only reachable through sibling pointers
    /// (possible after a crash-interrupted split).
    fn find_parent(&self, layer: &Layer, left: *mut Node, split_slice: u64) -> Option<*mut Node> {
        let mut cur = layer.root.load(Ordering::Acquire);
        let mut parent: Option<*mut Node> = None;
        loop {
            if cur == left {
                return parent;
            }
            let node = node_ref(cur);
            if node.is_leaf() {
                return None;
            }
            if node.must_move_right(split_slice) {
                let sib = node.next.load(Ordering::Acquire);
                if !sib.is_null() {
                    cur = sib;
                    continue;
                }
            }
            parent = Some(cur);
            let child = node.find_child(split_slice);
            if child == 0 {
                return None;
            }
            cur = child as *mut Node;
        }
    }

    /// Conditional update of an existing key (linearizable: presence check and value
    /// store happen under the final layer's leaf lock). Returns `false` without
    /// inserting if the key is absent.
    pub fn update(&self, key: &[u8], value: u64) -> bool {
        let mut layer: *const Layer = &self.layer0;
        let mut off = 0usize;
        loop {
            let slice = keyslice(key, off);
            let lc = len_class(key, off);
            let (node, guard) = self.lock_leaf(layer_ref(layer), slice);
            let perm = node.perm_snapshot();
            match node.find_rank(perm, slice, lc) {
                Ok(rank) => {
                    let slot = perm.slot(rank);
                    let val = node.val(slot).load(Ordering::Acquire);
                    if lc == LAYER {
                        drop(guard);
                        layer = val as *const Layer;
                        off += 8;
                        continue;
                    }
                    let v = node.val(slot);
                    P::persist_store(v, || v.store(value, Ordering::Release));
                    P::crash_site("masstree.update.committed");
                    return true;
                }
                Err(_) => return false,
            }
        }
    }

    /// Remove `key`. Returns `true` if it was present. The entry is retired with a
    /// single atomic store of the permutation; emptied sublayers are left in place
    /// (they answer lookups correctly and are reused by later inserts).
    pub fn remove(&self, key: &[u8]) -> bool {
        let mut layer: *const Layer = &self.layer0;
        let mut off = 0usize;
        loop {
            let slice = keyslice(key, off);
            let lc = len_class(key, off);
            let (node, guard) = self.lock_leaf(layer_ref(layer), slice);
            let perm = node.perm_snapshot();
            match node.find_rank(perm, slice, lc) {
                Ok(rank) => {
                    if lc == LAYER {
                        let sub = node.val(perm.slot(rank)).load(Ordering::Acquire);
                        drop(guard);
                        layer = sub as *const Layer;
                        off += 8;
                        continue;
                    }
                    P::persist_store(&node.perm, || {
                        node.perm.store(perm.remove(rank).0, Ordering::Release)
                    });
                    P::crash_site("masstree.remove.committed");
                    return true;
                }
                Err(_) => return false,
            }
        }
    }

    /// Range scan: up to `count` pairs with keys `>= start`, in ascending byte order,
    /// descending into sublayers and following leaf sibling chains.
    pub fn scan(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, u64)> {
        let mut out = ScanBuf::new();
        self.scan_into(start, count, &mut out);
        out.to_vec()
    }

    /// [`Masstree::scan`] into a caller-provided buffer: appends up to `count`
    /// pairs with key `>= start` (ascending) to `out` without clearing it, so
    /// cursor callers can stream batches through one reused allocation.
    pub fn scan_into(&self, start: &[u8], count: usize, out: &mut ScanBuf) {
        if count == 0 {
            return;
        }
        let target = out.len().saturating_add(count);
        // Grows only once a key continues into a sublayer (keys over 8 bytes).
        let mut prefix = Vec::new();
        self.scan_layer(&self.layer0, &mut prefix, Some(start), target, out);
    }

    /// Collect entries of one layer (and its sublayers) into `out`.
    ///
    /// `start` is the remainder of the start key relative to this layer (`None`
    /// collects from the beginning). Entries at or past a (possibly crash-torn)
    /// split boundary are skipped — their home is the right sibling — and an entry
    /// is dropped if it does not sort after the last collected key, which suppresses
    /// the transient duplicates a torn split leaves behind.
    fn scan_layer(
        &self,
        layer: &Layer,
        prefix: &mut Vec<u8>,
        start: Option<&[u8]>,
        count: usize,
        out: &mut ScanBuf,
    ) {
        let (s_slice, s_lc) = match start {
            Some(rem) => (keyslice(rem, 0), len_class(rem, 0)),
            None => (0, 0),
        };
        let mut cur = self.find_leaf(layer, s_slice);
        let mut entries = [(0u64, 0u8, 0u64); WIDTH];
        while !cur.is_null() && out.len() < count {
            let node = node_ref(cur);
            pm::stats::record_node_visit();
            // Take a version-validated snapshot of the leaf's published entries (the
            // same optimistic read section `layer_lookup` uses; a bare permutation
            // check would be ABA-prone under slot recycling), then process the
            // consistent snapshot outside the read section — sublayer recursion can
            // be slow and must not keep the validation window open.
            let (mut high, mut live);
            loop {
                let v0 = node.lock.read_begin();
                let perm = node.perm_snapshot();
                high = node.high.load(Ordering::Acquire);
                live = perm.count();
                for (rank, entry) in entries.iter_mut().enumerate().take(live) {
                    let slot = perm.slot(rank);
                    *entry = (
                        node.key(slot).load(Ordering::Acquire),
                        node.lens[slot].load(Ordering::Acquire),
                        node.val(slot).load(Ordering::Acquire),
                    );
                }
                if !node.lock.read_retry(v0) {
                    break;
                }
            }
            for &(k, l, v) in &entries[..live] {
                if out.len() >= count {
                    return;
                }
                if high != 0 && k >= high {
                    // Moved (or mid-move) to the right sibling; collected there.
                    break;
                }
                let bound = match start {
                    Some(_) => (k, l).cmp(&(s_slice, s_lc)),
                    None => std::cmp::Ordering::Greater,
                };
                if bound == std::cmp::Ordering::Less {
                    continue;
                }
                if l == LAYER {
                    let sub = layer_ref(v as *const Layer);
                    let substart = if bound == std::cmp::Ordering::Equal {
                        // Same slice and the start key also continues: constrain the
                        // sublayer by the rest of the start key.
                        start.map(|rem| &rem[8..])
                    } else {
                        None
                    };
                    prefix.extend_from_slice(&k.to_be_bytes());
                    self.scan_layer(sub, prefix, substart, count, out);
                    prefix.truncate(prefix.len() - 8);
                } else {
                    // The key is the layer prefix followed by this slice's bytes,
                    // written straight into the buffer. Duplicate suppression
                    // across torn/in-flight splits: take it back unless it sorts
                    // after the entry before it.
                    let at = out.len();
                    out.push_parts(prefix, &k.to_be_bytes()[..l as usize], v);
                    if at > 0 && out.key(at - 1) >= out.key(at) {
                        out.truncate(at);
                    }
                }
            }
            cur = node.next.load(Ordering::Acquire);
        }
    }

    /// Post-crash recovery: the RECIPE restart hook plus the Condition #3 helper.
    ///
    /// Re-initialises every node lock, completes crash-torn splits (derives a missing
    /// high key from the linked sibling's minimum slice, truncates entries the split
    /// had already copied right) in the walk that reaches every layer and node, then
    /// re-roots each layer whose root split never committed and re-routes its
    /// orphaned siblings. Must run while no other threads operate on the tree, as a
    /// restart would.
    pub fn recover(&self) {
        let mut layers = Vec::new();
        self.for_each_object(|obj| match obj {
            Object::Layer(layer) => layers.push(layer),
            Object::Node(node) => self.fix_node(node),
        });
        for layer in layers {
            self.reroot(layer_ref(layer));
            // Finish any split whose parent link a crash cut off: re-insert the
            // missing separators so siblings are routed from their parents again
            // (until then they are reachable only via B-link move-right).
            while self.reattach_orphan(layer_ref(layer)) {}
        }
    }

    /// If the layer root has siblings, a root split never committed (or the new
    /// root itself was lost): rebuild a root over the chain. Highs are all set by
    /// the fix pass, so the chain yields the separators directly.
    fn reroot(&self, layer: &Layer) {
        loop {
            let root_ptr = layer.root.load(Ordering::Acquire);
            let root = node_ref(root_ptr);
            if root.next.load(Ordering::Acquire).is_null() {
                break;
            }
            let new_root_ptr = Node::alloc(false);
            let new_root = node_ref(new_root_ptr);
            new_root.leftmost.store(root_ptr as u64, Ordering::Relaxed);
            let mut n = root_ptr;
            let mut count = 0usize;
            while count < WIDTH {
                let node = node_ref(n);
                let sib = node.next.load(Ordering::Acquire);
                if sib.is_null() {
                    break;
                }
                new_root.key(count).store(node.high.load(Ordering::Acquire), Ordering::Relaxed);
                new_root.val(count).store(sib as u64, Ordering::Relaxed);
                count += 1;
                n = sib;
            }
            new_root.perm.store(Perm::identity(count).0, Ordering::Relaxed);
            P::stage_obj(new_root_ptr);
            let commit = || layer.root.store(new_root_ptr, Ordering::Release);
            P::publish(&layer.root, commit, [span(new_root_ptr)], None);
            // A chain longer than WIDTH keeps its tail reachable through the last
            // child's sibling pointers; the loop then runs again only if the new
            // root itself has siblings (it never does).
        }
    }

    /// Find one node that no parent routes to — a split whose `insert_into_parent`
    /// never completed before a crash — and re-insert its separator through the
    /// ordinary write-path helper. Returns `true` if a reattachment happened (the
    /// caller loops until none remain). Runs single-threaded, after `fix_node` has
    /// set every high key and the layer root has been re-rooted.
    fn reattach_orphan(&self, layer: &Layer) -> bool {
        let mut parent_head = layer.root.load(Ordering::Acquire);
        loop {
            if node_ref(parent_head).is_leaf() {
                return false;
            }
            let (routed, seps) = routed_by_level(parent_head);
            // Walk the child-level chain looking for an unrouted sibling.
            let child_head = node_ref(parent_head).leftmost.load(Ordering::Acquire) as *mut Node;
            let mut prev = child_head;
            loop {
                let c = node_ref(prev).next.load(Ordering::Acquire);
                if c.is_null() {
                    break;
                }
                if !routed.contains(&(c as u64)) {
                    // `prev`'s high key is exactly the separator the torn split never
                    // published (`fix_node` guarantees it is set).
                    let sep = node_ref(prev).high.load(Ordering::Acquire);
                    if sep != 0 && !seps.contains(&sep) {
                        self.insert_into_parent(layer, prev, sep, c);
                        return true;
                    }
                }
                prev = c;
            }
            parent_head = child_head;
        }
    }

    /// Recovery fix of one node, which the walk visits once, level by level: the
    /// node is force-unlocked and any torn split it took part in is completed.
    fn fix_node(&self, ptr: *mut Node) {
        let node = node_ref(ptr);
        node.lock.force_unlock();
        let next = node.next.load(Ordering::Acquire);
        if !next.is_null() && node.high.load(Ordering::Acquire) == 0 {
            // Crash between "sibling linked" and "high key set": the
            // sibling's minimum slice is exactly the split boundary. This is
            // the helper built from the write path's own split code.
            let sep = node_ref(next).min_slice();
            P::persist_store(&node.high, || node.high.store(sep, Ordering::Release));
        }
        let high = node.high.load(Ordering::Acquire);
        if high != 0 {
            // Crash before "left truncated": retire every entry the split
            // had already copied to the sibling with one permutation store.
            let perm = node.perm_snapshot();
            let mut keep = perm.count();
            for rank in 0..perm.count() {
                if node.key(perm.slot(rank)).load(Ordering::Acquire) >= high {
                    keep = rank;
                    break;
                }
            }
            if keep != perm.count() {
                let truncate = || node.perm.store(perm.truncate(keep).0, Ordering::Release);
                P::persist_store(&node.perm, truncate);
            }
        }
    }

    /// Diagnostic: how many nodes across every layer are reachable only through
    /// sibling pointers — splits whose parent link never completed. Zero on a fully
    /// consistent tree; [`Masstree::recover`] restores it to zero. Single-threaded
    /// use only, like `recover` (crash-recovery tests and diagnostics).
    #[must_use]
    pub fn unrouted_siblings(&self) -> usize {
        let mut orphans = 0;
        self.for_each_object(|obj| {
            if let Object::Layer(layer) = obj {
                orphans += self.unrouted_in_layer(layer_ref(layer));
            }
        });
        orphans
    }

    fn unrouted_in_layer(&self, layer: &Layer) -> usize {
        let mut orphans = 0usize;
        let root = layer.root.load(Ordering::Acquire);
        // Siblings of the root itself (an uncommitted root split).
        let mut r = node_ref(root).next.load(Ordering::Acquire);
        while !r.is_null() {
            orphans += 1;
            r = node_ref(r).next.load(Ordering::Acquire);
        }
        let mut parent_head = root;
        while !node_ref(parent_head).is_leaf() {
            let (routed, _seps) = routed_by_level(parent_head);
            let child_head = node_ref(parent_head).leftmost.load(Ordering::Acquire) as *mut Node;
            let mut c = node_ref(child_head).next.load(Ordering::Acquire);
            while !c.is_null() {
                if !routed.contains(&(c as u64)) {
                    orphans += 1;
                }
                c = node_ref(c).next.load(Ordering::Acquire);
            }
            parent_head = child_head;
        }
        orphans
    }

    /// Number of stored keys (walks every layer; tests and diagnostics only).
    #[must_use]
    pub fn len(&self) -> usize {
        self.scan(&[], usize::MAX).len()
    }

    /// Whether the tree holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let mut out = ScanBuf::new();
        self.scan_layer(&self.layer0, &mut Vec::new(), None, 1, &mut out);
        out.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe::persist::Pmem;

    #[test]
    fn walk_visits_each_object_once() {
        // A seeded mix of inserts and removes of 16-byte keys over 64 first slices
        // splits nodes and grows a sublayer under every slice.
        let t: Masstree<Pmem> = Masstree::new();
        let mut model = std::collections::BTreeMap::new();
        for i in 0..20_000u64 {
            let r = pm::mix64(0x3A55 ^ i);
            let mut k = (r % 64).to_be_bytes().to_vec();
            k.extend_from_slice(&((r >> 8) % 200).to_be_bytes());
            if r >> 62 == 0 {
                assert_eq!(t.remove(&k), model.remove(&k).is_some());
            } else {
                t.insert(&k, i);
                model.insert(k, i);
            }
        }
        assert_eq!(t.len(), model.len());
        // A torn split's copied half: a leaf linked only as the last leaf's sibling,
        // holding a copy of an entry that links a sublayer, which two leaves now link.
        let mut last = leftmost_leaf_of(&t.layer0);
        let (slot, layer_leaf) = loop {
            let node = node_ref(last);
            let perm = node.perm_snapshot();
            let found = (0..perm.count())
                .map(|rank| perm.slot(rank))
                .find(|&s| node.lens[s].load(Ordering::Acquire) == LAYER);
            if let Some(s) = found {
                break (s, node);
            }
            last = node.next.load(Ordering::Acquire);
        };
        while !node_ref(last).next.load(Ordering::Acquire).is_null() {
            last = node_ref(last).next.load(Ordering::Acquire);
        }
        let copy = Node::alloc(true);
        let half = node_ref(copy);
        half.key(0).store(layer_leaf.key(slot).load(Ordering::Acquire), Ordering::Relaxed);
        half.val(0).store(layer_leaf.val(slot).load(Ordering::Acquire), Ordering::Relaxed);
        half.lens[0].store(LAYER, Ordering::Relaxed);
        half.perm.store(Perm::identity(1).0, Ordering::Relaxed);
        node_ref(last).next.store(copy, Ordering::Release);
        let (mut nodes, mut layers) = (Vec::new(), Vec::new());
        t.for_each_object(|obj| match obj {
            Object::Node(node) => nodes.push(node as usize),
            Object::Layer(layer) => layers.push(layer as usize),
        });
        assert!(nodes.contains(&(copy as usize)));
        assert!(layers.len() > 1, "sublayers were reached");
        for objects in [&mut nodes, &mut layers] {
            let visited = objects.len();
            objects.sort_unstable();
            objects.dedup();
            assert_eq!(objects.len(), visited, "an object was visited twice");
        }
    }

    fn leftmost_leaf_of(layer: &Layer) -> *mut Node {
        let mut cur = layer.root.load(Ordering::Acquire);
        while !node_ref(cur).is_leaf() {
            cur = node_ref(cur).leftmost.load(Ordering::Acquire) as *mut Node;
        }
        cur
    }
}
