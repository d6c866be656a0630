//! The FAST & FAIR B+ tree.
//!
//! Structure-modification operations (leaf and internal splits) are serialized by a
//! single SMO lock — splits are rare (one per `CARDINALITY` inserts per level) and the
//! original implementation's unprotected parent update is precisely what produced the
//! lost-key bug described in §3 of the RECIPE paper. Sibling pointers plus per-node
//! high keys (the fix the RECIPE authors proposed) let both readers and writers "move
//! right" across in-flight splits, B-link style.

use crate::node::{
    cmp_word_key, cmp_words, encode_key, word_bytes, word_to_bytes, KeyBuf, KeyMode, Node,
    CARDINALITY, EMPTY,
};
use recipe::persist::{span, PersistMode};
use recipe::session::ScanBuf;
use std::cmp::Ordering as CmpOrdering;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU8, Ordering};

/// The FAST & FAIR persistent B+ tree (the paper's hand-crafted ordered baseline).
pub struct FastFair<P: PersistMode> {
    root: AtomicPtr<Node>,
    /// 0 = undecided, 1 = inline 8-byte keys, 2 = indirect (string) keys.
    mode: AtomicU8,
    smo_lock: parking_lot::Mutex<()>,
    /// Key buffers of removed string keys, freed when the tree drops: readers and
    /// separators may still use them. A torn split can leave a removed key's buffer
    /// in a second leaf, so they join the drop walk's list and are freed once.
    removed_keys: parking_lot::Mutex<Vec<u64>>,
    _policy: PhantomData<P>,
}

// SAFETY: nodes are reached through atomic pointers, mutated under locks with
// reader-tolerant store orderings, and freed only when the tree drops.
unsafe impl<P: PersistMode> Send for FastFair<P> {}
// SAFETY: as above — node words are atomics and nodes are freed only on drop.
unsafe impl<P: PersistMode> Sync for FastFair<P> {}

impl<P: PersistMode> Default for FastFair<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: PersistMode> FastFair<P> {
    /// Create an empty tree.
    #[must_use]
    pub fn new() -> Self {
        let root = Node::alloc(true);
        // Persist the freshly allocated root before publishing it — unless the
        // `durability-bug` feature reproduces the missing-root-flush bug the paper's
        // durability test found in the original implementation (§7.5).
        let t = FastFair {
            root: AtomicPtr::new(std::ptr::null_mut()),
            mode: AtomicU8::new(0),
            smo_lock: parking_lot::Mutex::new(()),
            removed_keys: parking_lot::Mutex::new(Vec::new()),
            _policy: PhantomData,
        };
        let install = || t.root.store(root, Ordering::Release);
        #[cfg(feature = "durability-bug")]
        P::persist_store(&t.root, install);
        #[cfg(not(feature = "durability-bug"))]
        {
            P::stage_obj(root);
            P::publish(&t.root, install, [span(root)], None);
        }
        t
    }

    fn key_mode(&self, key: &[u8]) -> KeyMode {
        let want = if key.len() <= 8 { 1 } else { 2 };
        match self.mode.compare_exchange(0, want, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => {}
            Err(_cur) => {}
        }
        if self.mode.load(Ordering::Acquire) == 2 {
            KeyMode::Indirect
        } else {
            KeyMode::Inline
        }
    }

    #[inline]
    fn node_ref<'a>(&self, ptr: *mut Node) -> &'a Node {
        // SAFETY: nodes are never freed while the tree is alive.
        unsafe { &*ptr }
    }

    /// Non-blocking descent to the leaf covering `key`, following sibling pointers
    /// across in-flight splits. Returns the leaf and the path of internal nodes.
    fn find_leaf(&self, mode: KeyMode, key: &[u8], path: Option<&mut Vec<*mut Node>>) -> *mut Node {
        let mut collected = path;
        let mut cur = self.root.load(Ordering::Acquire);
        loop {
            pm::stats::record_node_visit();
            let node = self.node_ref(cur);
            if node.must_move_right(mode, key) {
                let sib = node.sibling.load(Ordering::Acquire);
                if !sib.is_null() {
                    cur = sib;
                    continue;
                }
            }
            if node.is_leaf() {
                return cur;
            }
            if let Some(p) = collected.as_deref_mut() {
                p.push(cur);
            }
            let child = node.find_child(mode, key);
            if child == 0 {
                // Empty internal node can only appear transiently; restart from root.
                cur = self.root.load(Ordering::Acquire);
                if let Some(p) = collected.as_deref_mut() {
                    p.clear();
                }
                continue;
            }
            cur = child as *mut Node;
        }
    }

    /// Point lookup (lock-free, duplicate tolerant).
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        let mode = self.key_mode(key);
        let mut leaf_ptr = self.find_leaf(mode, key, None);
        loop {
            let leaf = self.node_ref(leaf_ptr);
            if leaf.must_move_right(mode, key) {
                let sib = leaf.sibling.load(Ordering::Acquire);
                if !sib.is_null() {
                    leaf_ptr = sib;
                    continue;
                }
            }
            if let Some(v) = leaf.find_in_leaf_validated(mode, key) {
                return Some(v);
            }
            // A split may have moved the key to the right sibling after we checked the
            // high key but before we scanned the (now truncated) entries; re-check and
            // follow the sibling if so.
            if leaf.must_move_right(mode, key) {
                let sib = leaf.sibling.load(Ordering::Acquire);
                if !sib.is_null() {
                    leaf_ptr = sib;
                    continue;
                }
            }
            return None;
        }
    }

    /// Insert or update; returns `true` if the key was newly inserted.
    pub fn insert(&self, key: &[u8], value: u64) -> bool {
        let mode = self.key_mode(key);
        let leaf_ptr = self.find_leaf(mode, key, None);
        let mut leaf = self.node_ref(leaf_ptr);
        let mut guard = leaf.lock.lock();
        // Re-validate under the lock: a concurrent split may have moved our range.
        while leaf.must_move_right(mode, key) {
            let sib = leaf.sibling.load(Ordering::Acquire);
            if sib.is_null() {
                break;
            }
            drop(guard);
            leaf = self.node_ref(sib);
            guard = leaf.lock.lock();
        }
        if leaf.update_value::<P>(mode, key, value) {
            return false;
        }
        if leaf.count() < CARDINALITY {
            let w = encode_key::<P>(mode, key);
            leaf.insert_sorted::<P>(mode, w, value);
            return true;
        }
        // Split required: redo the descent under the SMO lock so that at most one
        // structure modification is in flight (ordering: SMO lock before node lock).
        drop(guard);
        let smo = self.smo_lock.lock();
        let leaf_ptr = self.find_leaf(mode, key, None);
        let mut leaf = self.node_ref(leaf_ptr);
        let mut guard = leaf.lock.lock();
        while leaf.must_move_right(mode, key) {
            let sib = leaf.sibling.load(Ordering::Acquire);
            if sib.is_null() {
                break;
            }
            drop(guard);
            leaf = self.node_ref(sib);
            guard = leaf.lock.lock();
        }
        if leaf.update_value::<P>(mode, key, value) {
            return false;
        }
        if leaf.count() < CARDINALITY {
            let w = encode_key::<P>(mode, key);
            leaf.insert_sorted::<P>(mode, w, value);
            return true;
        }
        self.split_and_insert(mode, leaf, key, value);
        drop(guard);
        drop(smo);
        true
    }

    /// Split `node` (its lock and the SMO lock are held) and insert `key`.
    fn split_and_insert(&self, mode: KeyMode, node: &Node, key: &[u8], value: u64) {
        let count = node.count();
        let mid = count / 2;
        let split_word = node.entries[mid].key.load(Ordering::Acquire);

        // Build the new right sibling privately.
        let right_ptr = Node::alloc(node.is_leaf());
        let right = self.node_ref(right_ptr);
        let (copy_from, leftmost) = if node.is_leaf() {
            (mid, 0)
        } else {
            // Internal split: the separator key moves up; its child becomes the
            // sibling's leftmost pointer.
            (mid + 1, node.entries[mid].val.load(Ordering::Acquire))
        };
        right.leftmost.store(leftmost, Ordering::Relaxed);
        for (j, i) in (copy_from..count).enumerate() {
            right.entries[j]
                .key
                .store(node.entries[i].key.load(Ordering::Acquire), Ordering::Relaxed);
            right.entries[j]
                .val
                .store(node.entries[i].val.load(Ordering::Acquire), Ordering::Relaxed);
        }
        right.sibling.store(node.sibling.load(Ordering::Acquire), Ordering::Relaxed);
        right.high_key.store(node.high_key.load(Ordering::Acquire), Ordering::Relaxed);

        // If the pending key belongs to the upper half, plant it while the sibling is
        // still private (no other writer can reach it before the link below).
        let key_goes_right = cmp_word_key(mode, split_word, key) != CmpOrdering::Greater;
        if key_goes_right {
            let w = encode_key::<P>(mode, key);
            right.insert_sorted::<P>(mode, w, value);
        }
        P::stage_obj(right_ptr);
        P::crash_site("fastfair.split.sibling_persisted");

        // Link the sibling (atomic store) and shrink this node's key space.
        self.link_sibling(node, right_ptr, split_word, mid, "fastfair.split.sibling_linked");
        P::crash_site("fastfair.split.left_truncated");

        // A key belonging to the lower half is inserted under the node lock we hold.
        if !key_goes_right {
            let w = encode_key::<P>(mode, key);
            node.insert_sorted::<P>(mode, w, value);
        }

        // Propagate the separator to the parent (still under the SMO lock).
        self.insert_into_parent(mode, node as *const Node as *mut Node, split_word, right_ptr);
    }

    /// The ordered in-place steps of a split on the left node: link the staged
    /// sibling `right` (the store that publishes it, then the site `linked`),
    /// lower the high key to `split_word`, and truncate the moved entries with one
    /// store of the terminator at `mid`. Each step is flushed and fenced in turn.
    fn link_sibling(
        &self,
        node: &Node,
        right: *mut Node,
        split_word: u64,
        mid: usize,
        linked: impl Into<Option<&'static str>>,
    ) {
        P::publish(
            &node.sibling,
            || node.sibling.store(right, Ordering::Release),
            [span(right)],
            linked,
        );
        P::persist_store(&node.high_key, || node.high_key.store(split_word, Ordering::Release));
        let terminator = &node.entries[mid].key;
        P::persist_store(terminator, || terminator.store(EMPTY, Ordering::Release));
    }

    /// Insert `(split_word -> right)` into the parent of `left`, splitting parents as
    /// needed. Called with the SMO lock held.
    fn insert_into_parent(
        &self,
        mode: KeyMode,
        left: *mut Node,
        split_word: u64,
        right: *mut Node,
    ) {
        let root = self.root.load(Ordering::Acquire);
        if root == left {
            // Root split: build a new root and publish it with one atomic store.
            let new_root_ptr = Node::alloc(false);
            let new_root = self.node_ref(new_root_ptr);
            new_root.leftmost.store(left as u64, Ordering::Relaxed);
            new_root.entries[0].key.store(split_word, Ordering::Relaxed);
            new_root.entries[0].val.store(right as u64, Ordering::Relaxed);
            P::stage_obj(new_root_ptr);
            P::crash_site("fastfair.root_split.new_root_persisted");
            let commit = || self.root.store(new_root_ptr, Ordering::Release);
            P::publish(&self.root, commit, [span(new_root_ptr)], "fastfair.root_split.committed");
            return;
        }

        // Find the parent of `left` by descending towards the separator key.
        let parent_ptr = self.find_parent(mode, left, split_word);
        let Some(parent_ptr) = parent_ptr else {
            // The parent link was never completed before a crash; the sibling chain
            // still makes the keys reachable, matching FAST & FAIR's degraded-but-
            // correct recovery behaviour. Nothing more to do.
            return;
        };
        let parent = self.node_ref(parent_ptr);
        if parent.count() < CARDINALITY {
            parent.insert_sorted::<P>(mode, split_word, right as u64);
            return;
        }
        // Parent is full: split it and recurse.
        let count = parent.count();
        let mid = count / 2;
        let parent_split_word = parent.entries[mid].key.load(Ordering::Acquire);
        let new_parent_right = Node::alloc(false);
        let pr = self.node_ref(new_parent_right);
        pr.leftmost.store(parent.entries[mid].val.load(Ordering::Acquire), Ordering::Relaxed);
        for (j, i) in (mid + 1..count).enumerate() {
            pr.entries[j]
                .key
                .store(parent.entries[i].key.load(Ordering::Acquire), Ordering::Relaxed);
            pr.entries[j]
                .val
                .store(parent.entries[i].val.load(Ordering::Acquire), Ordering::Relaxed);
        }
        pr.sibling.store(parent.sibling.load(Ordering::Acquire), Ordering::Relaxed);
        pr.high_key.store(parent.high_key.load(Ordering::Acquire), Ordering::Relaxed);
        P::stage_obj(new_parent_right);
        P::crash_site("fastfair.parent_split.sibling_persisted");
        self.link_sibling(parent, new_parent_right, parent_split_word, mid, None);
        P::crash_site("fastfair.parent_split.left_truncated");

        // Route the pending separator into the correct half, then recurse upwards.
        let target = if cmp_words(mode, split_word, parent_split_word) == CmpOrdering::Less {
            parent_ptr
        } else {
            new_parent_right
        };
        self.node_ref(target).insert_sorted::<P>(mode, split_word, right as u64);
        self.insert_into_parent(mode, parent_ptr, parent_split_word, new_parent_right);
    }

    /// Locate the internal node that currently holds (or should hold) the routing
    /// entry for `left`. Returns `None` if `left` is not reachable from the root
    /// through child pointers (possible only after an interrupted split).
    fn find_parent(&self, mode: KeyMode, left: *mut Node, split_word: u64) -> Option<*mut Node> {
        let key_bytes = word_to_bytes(mode, split_word);
        let mut cur = self.root.load(Ordering::Acquire);
        let mut parent: Option<*mut Node> = None;
        loop {
            if cur == left {
                return parent;
            }
            let node = self.node_ref(cur);
            if node.is_leaf() {
                return None;
            }
            // Move right across in-flight splits of internal nodes.
            if node.must_move_right(mode, &key_bytes) {
                let sib = node.sibling.load(Ordering::Acquire);
                if !sib.is_null() {
                    cur = sib;
                    continue;
                }
            }
            parent = Some(cur);
            let child = node.find_child(mode, &key_bytes);
            if child == 0 {
                return None;
            }
            cur = child as *mut Node;
        }
    }

    /// Remove a key. Returns `true` if it was present. No node merges are performed
    /// (the evaluated workloads contain no deletes).
    pub fn remove(&self, key: &[u8]) -> bool {
        let mode = self.key_mode(key);
        let leaf_ptr = self.find_leaf(mode, key, None);
        let mut leaf = self.node_ref(leaf_ptr);
        let mut guard = leaf.lock.lock();
        while leaf.must_move_right(mode, key) {
            let sib = leaf.sibling.load(Ordering::Acquire);
            if sib.is_null() {
                break;
            }
            drop(guard);
            leaf = self.node_ref(sib);
            guard = leaf.lock.lock();
        }
        leaf.remove_sorted::<P>(mode, key, |word| {
            if mode == KeyMode::Indirect {
                self.removed_keys.lock().push(word);
            }
        })
    }

    /// Range scan: up to `count` pairs with key `>= start`, ascending, following leaf
    /// sibling pointers.
    pub fn scan(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, u64)> {
        let mut out = ScanBuf::new();
        self.scan_into(start, count, &mut out);
        out.to_vec()
    }

    /// [`FastFair::scan`] into a caller-provided buffer: appends up to `count`
    /// pairs with key `>= start` (ascending) to `out` without clearing it, so
    /// cursor callers can stream batches through one reused allocation.
    pub fn scan_into(&self, start: &[u8], count: usize, out: &mut ScanBuf) {
        if count == 0 {
            return;
        }
        let count = out.len().saturating_add(count);
        let mode = self.key_mode(start);
        let mut leaf_ptr = self.find_leaf(mode, start, None);
        let mut inline = [0u8; 8];
        while !leaf_ptr.is_null() && out.len() < count {
            let leaf = self.node_ref(leaf_ptr);
            pm::stats::record_node_visit();
            // Version-validated per-leaf read section (see
            // `Node::find_in_leaf_validated`): a concurrent FAIR remove can
            // move an entry below an ascending reader's cursor, so a leaf
            // scanned while its version moved is rolled back and re-read.
            loop {
                let begin = leaf.lock.read_begin();
                let mark = out.len();
                let n = leaf.count();
                for i in 0..n {
                    let kw = leaf.entries[i].key.load(Ordering::Acquire);
                    if kw == EMPTY {
                        break;
                    }
                    if cmp_word_key(mode, kw, start) == CmpOrdering::Less {
                        continue;
                    }
                    // Rightmost-duplicate rule (see `Node::find_in_leaf`): a
                    // crash-persisted torn insert duplicates a key into
                    // adjacent slots with the complete pair on the right.
                    if i + 1 < CARDINALITY && leaf.entries[i + 1].key.load(Ordering::Acquire) == kw
                    {
                        continue;
                    }
                    let bytes = word_bytes(mode, kw, &mut inline);
                    let val = leaf.entries[i].val.load(Ordering::Acquire);
                    // Skip transient duplicates across a split boundary.
                    if out.last_key() == Some(bytes) {
                        continue;
                    }
                    out.push(bytes, val);
                    if out.len() >= count {
                        break;
                    }
                }
                if !leaf.lock.read_retry(begin) {
                    break;
                }
                out.truncate(mark);
            }
            leaf_ptr = leaf.sibling.load(Ordering::Acquire);
        }
    }

    /// Visit every node once, level by level along the sibling chains that start at
    /// the leftmost spine: a node a torn split linked only as a sibling is reached
    /// too, and a child that a parent slot and a sibling pointer both reach is
    /// visited once, so the walk is linear in the nodes. `f` must not free the
    /// node, whose links the walk reads after the visit. This is the tree's one
    /// full-structure traversal: recovery, `len` and the drop call it.
    fn for_each_object(&self, mut f: impl FnMut(*mut Node)) {
        let mut level_head = self.root.load(Ordering::Acquire);
        while !level_head.is_null() {
            let mut cur = level_head;
            while !cur.is_null() {
                f(cur);
                cur = self.node_ref(cur).sibling.load(Ordering::Acquire);
            }
            let head = self.node_ref(level_head);
            level_head = if head.is_leaf() {
                std::ptr::null_mut()
            } else {
                head.leftmost.load(Ordering::Acquire) as *mut Node
            };
        }
    }

    /// Re-initialise every node lock after a (simulated) crash.
    pub(crate) fn recover(&self) {
        self.for_each_object(|p| self.node_ref(p).lock.force_unlock());
    }

    /// Number of stored keys (walks the leaf level; tests and diagnostics only).
    #[must_use]
    pub fn len(&self) -> usize {
        let mode = if self.mode.load(Ordering::Acquire) == 2 {
            KeyMode::Indirect
        } else {
            KeyMode::Inline
        };
        let mut seen = std::collections::BTreeSet::new();
        self.for_each_object(|p| {
            let node = self.node_ref(p);
            if node.is_leaf() {
                for i in 0..node.count() {
                    let kw = node.entries[i].key.load(Ordering::Acquire);
                    if kw != EMPTY {
                        seen.insert(word_to_bytes(mode, kw));
                    }
                }
            }
        });
        seen.len()
    }

    /// Whether the tree holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<P: PersistMode> Drop for FastFair<P> {
    /// Free every node and key buffer, each once. Nodes are collected level by level
    /// along the sibling chains, so neither a child pointer a crash left in two slots
    /// nor a sibling whose parent entry was never written is missed or freed twice.
    /// A string key's buffer belongs to the leaf entry that holds it (separators and
    /// high keys only borrow it) or, once removed, to `removed_keys`.
    fn drop(&mut self) {
        let indirect = *self.mode.get_mut() == 2;
        let mut keys = std::mem::take(self.removed_keys.get_mut());
        let mut nodes = Vec::new();
        self.for_each_object(|p| {
            let node = self.node_ref(p);
            if indirect && node.is_leaf() {
                keys.extend((0..node.count()).map(|i| node.entries[i].key.load(Ordering::Acquire)));
            }
            nodes.push(p);
        });
        // SAFETY: exclusive access; every node and key buffer was allocated with
        // `pm_box` by this tree, and duplicates are freed once.
        unsafe {
            pm::alloc::pm_drop_all(nodes);
            pm::alloc::pm_drop_all(keys.into_iter().map(|w| w as *mut KeyBuf).collect());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe::key::u64_key;
    use recipe::persist::Pmem;

    #[test]
    fn walk_visits_each_node_once() {
        // A seeded mix of inserts and removes splits leaves and internal nodes.
        let t: FastFair<Pmem> = FastFair::new();
        let mut model = std::collections::BTreeMap::new();
        for i in 0..20_000u64 {
            let r = pm::mix64(0xFF ^ i);
            let k = u64_key(r % 8_000);
            if r >> 62 == 0 {
                assert_eq!(t.remove(&k), model.remove(&k).is_some());
            } else {
                t.insert(&k, i);
                model.insert(k, i);
            }
        }
        // Every child but the leftmost is linked twice: from its parent's slot and
        // as its left neighbour's sibling.
        let root = t.node_ref(t.root.load(Ordering::Acquire));
        assert!(!root.is_leaf());
        let first = t.node_ref(root.leftmost.load(Ordering::Acquire) as *mut Node);
        assert_eq!(
            first.sibling.load(Ordering::Acquire) as u64,
            root.entries[0].val.load(Ordering::Acquire)
        );
        // A torn split: a leaf linked only as the last leaf's sibling, its parent
        // entry never written. The walk reaches it, and the drop frees it.
        let mut last = first as *const Node as *mut Node;
        while !t.node_ref(last).is_leaf() {
            last = t.node_ref(last).leftmost.load(Ordering::Acquire) as *mut Node;
        }
        while !t.node_ref(last).sibling.load(Ordering::Acquire).is_null() {
            last = t.node_ref(last).sibling.load(Ordering::Acquire);
        }
        let orphan = Node::alloc(true);
        t.node_ref(last).sibling.store(orphan, Ordering::Release);
        let mut nodes = Vec::new();
        t.for_each_object(|p| nodes.push(p));
        let visited = nodes.len();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), visited, "a node was visited twice");
        assert!(nodes.contains(&orphan));
        assert_eq!(t.len(), model.len());
    }
}
