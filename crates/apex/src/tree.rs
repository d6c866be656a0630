//! The APEX tree: a sorted node directory over data nodes, with merge/retrain
//! and split SMOs published as ordered atomic steps.
//!
//! # Concurrency
//!
//! The directory (`nodes`: lower bound → data node, sorted) lives under a tree
//! `RwLock`; each data node has its own `RwLock`. Operations take the tree lock
//! shared and the target node's lock (shared for reads, exclusive for writes),
//! so writers to different data nodes proceed in parallel. SMOs take the tree
//! lock exclusive. Lock order is always tree → node, so there are no cycles.
//!
//! # The SMO protocol and its crash story
//!
//! When a node's insert buffer fills, the tree merges buffer and gapped array
//! into one (or, past [`NODE_MAX`], two) freshly trained nodes. The merge is
//! published as ordered atomic steps, each followed by a flush/fence and a
//! named crash site:
//!
//! 1. **build** — the replacement node(s) are fully constructed aside and
//!    persisted under one coalesced fence (`apex.smo.built`). A crash here
//!    leaks the aside nodes (the PM allocator's GC reclaims them, §4.2 of the
//!    paper) and the old node stays live: nothing to repair.
//! 2. **log** — a redo record (old bound → replacements) is persisted in the
//!    tree header (`apex.smo.logged`). From this point the SMO is decided.
//! 3. **swap** — the directory entry is spliced to the replacements and the
//!    directory persisted (`apex.smo.swapped`).
//! 4. **clear** — the redo record is cleared (`apex.smo.cleared`).
//!
//! [`Apex::recover`] replays a logged-but-uncleared record idempotently
//! (emitting `apex.recover.redone`), which completes a torn retrain; an
//! unlogged one rolls back by construction. Torn *inserts* need no tree-level
//! repair: a buffer slot whose commit bit never made it durable is free space
//! (see `node.rs`).

use crate::node::{NodeInner, NODE_MAX};
use parking_lot::RwLock;
use pm::stats;
use recipe::persist::PersistMode;
use recipe::session::ScanBuf;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A directory entry: the lowest key the node can hold, and the node.
type DirEntry = (Box<[u8]>, Arc<RwLock<NodeInner>>);

/// Redo record of an in-flight merge/split SMO.
#[derive(Debug)]
struct PendingSmo {
    /// Lower bound of the node being replaced.
    lo: Box<[u8]>,
    /// Its replacement entries (1 for a retrain, 2 for a split).
    replacement: Vec<DirEntry>,
}

/// Tree state guarded by the tree lock.
#[derive(Debug)]
struct TreeInner {
    /// Data nodes, sorted by lower bound; `nodes[0]` is bounded by the empty
    /// key, so every key has a home.
    nodes: Vec<DirEntry>,
    /// Redo record of an in-flight SMO (`None` whenever the lock is free).
    pending: Option<PendingSmo>,
}

impl TreeInner {
    /// Index of the node owning `key`.
    fn locate(&self, key: &[u8]) -> usize {
        match self.nodes.binary_search_by(|(b, _)| b.as_ref().cmp(key)) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// Persist the node directory (bounds + node pointers).
    fn persist_nodes<P: PersistMode>(&self) {
        P::persist_store(&*self.nodes, || ());
    }

    /// Visit every data node the directory holds once, with its lower bound, under
    /// the node's read lock. This is the tree's one full-structure traversal:
    /// recovery calls it.
    fn for_each_object(&self, mut f: impl FnMut(&[u8], &NodeInner)) {
        for (lo, node) in &self.nodes {
            f(lo, &node.read());
        }
    }

    /// Persist the SMO redo record.
    fn persist_pending<P: PersistMode>(&self) {
        if let Some(p) = &self.pending {
            P::stage_store(&*p.lo, || ());
            P::stage_store(&*p.replacement, || ());
        }
        P::persist_store(&self.pending, || ());
    }
}

/// The PM-native learned index: per-node linear models over gapped arrays,
/// with insert buffering. See the crate docs for the design.
#[derive(Debug)]
pub struct Apex<P: PersistMode> {
    inner: RwLock<TreeInner>,
    len: AtomicUsize,
    _policy: PhantomData<P>,
}

impl<P: PersistMode> Default for Apex<P> {
    fn default() -> Self {
        Apex::new()
    }
}

impl<P: PersistMode> Apex<P> {
    /// Create an empty index (one empty data node bounded by the empty key).
    #[must_use]
    pub fn new() -> Apex<P> {
        let root = NodeInner::build(Vec::new());
        let inner = TreeInner {
            nodes: vec![(Box::from(&[][..]), Arc::new(RwLock::new(root)))],
            pending: None,
        };
        let t = Apex { inner: RwLock::new(inner), len: AtomicUsize::new(0), _policy: PhantomData };
        {
            let tree = t.inner.read();
            tree.nodes[0].1.read().stage::<P>();
            tree.persist_nodes::<P>();
        }
        t
    }

    /// Number of live keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the index holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of data nodes (directory width); structural evidence for tests.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.inner.read().nodes.len()
    }

    /// Upsert. Returns `true` if the key was new, `false` if its value was
    /// overwritten in place.
    pub fn insert(&self, key: &[u8], value: u64) -> bool {
        loop {
            let full_at: Box<[u8]>;
            {
                let tree = self.inner.read();
                stats::record_node_visit();
                let idx = tree.locate(key);
                let mut n = tree.nodes[idx].1.write();
                stats::record_node_visit();
                match n.search(key) {
                    crate::node::Found::Absent => {
                        if n.buf_has_space() {
                            n.buf_insert::<P>(key, value);
                            self.len.fetch_add(1, Ordering::Relaxed);
                            return true;
                        }
                    }
                    hit => {
                        n.set_value::<P>(hit, value);
                        return false;
                    }
                }
                full_at = tree.nodes[idx].0.clone();
            }
            // Buffer full: merge/retrain under the exclusive tree lock, then
            // retry against the rebuilt (possibly split) node.
            self.merge_at(&full_at);
        }
    }

    /// Point lookup.
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        let tree = self.inner.read();
        stats::record_node_visit();
        let idx = tree.locate(key);
        let n = tree.nodes[idx].1.read();
        stats::record_node_visit();
        let hit = n.search(key);
        n.value_of(hit)
    }

    /// Conditional update: store `value` only if `key` is present, atomically
    /// under the node's write lock. Returns whether the key was present.
    pub fn update(&self, key: &[u8], value: u64) -> bool {
        let tree = self.inner.read();
        stats::record_node_visit();
        let idx = tree.locate(key);
        let mut n = tree.nodes[idx].1.write();
        stats::record_node_visit();
        match n.search(key) {
            crate::node::Found::Absent => false,
            hit => {
                n.set_value::<P>(hit, value);
                true
            }
        }
    }

    /// Remove `key`. Returns whether it was present.
    pub fn remove(&self, key: &[u8]) -> bool {
        let tree = self.inner.read();
        stats::record_node_visit();
        let idx = tree.locate(key);
        let mut n = tree.nodes[idx].1.write();
        stats::record_node_visit();
        match n.search(key) {
            crate::node::Found::Absent => false,
            hit => {
                n.remove_at::<P>(hit);
                self.len.fetch_sub(1, Ordering::Relaxed);
                true
            }
        }
    }

    /// Append up to `max` entries with keys `>= start`, ascending, to `out`.
    pub fn scan_into(&self, start: &[u8], max: usize, out: &mut ScanBuf) {
        if max == 0 {
            return;
        }
        let tree = self.inner.read();
        stats::record_node_visit();
        let target = out.len() + max;
        let mut idx = tree.locate(start);
        while idx < tree.nodes.len() && out.len() < target {
            stats::record_node_visit();
            tree.nodes[idx].1.read().collect_into(start, target - out.len(), out);
            idx += 1;
        }
    }

    /// Range scan convenience wrapper over [`Apex::scan_into`].
    #[must_use]
    pub fn scan(&self, start: &[u8], max: usize) -> Vec<(Vec<u8>, u64)> {
        let mut out = ScanBuf::new();
        self.scan_into(start, max, &mut out);
        out.to_vec()
    }

    /// Merge the node bounded by `lo`: drain its buffer into a freshly trained
    /// gapped array, splitting if it outgrew [`NODE_MAX`]. No-op if a racing
    /// writer already merged it.
    fn merge_at(&self, lo: &[u8]) {
        let mut tree = self.inner.write();
        let Some(idx) = tree.nodes.iter().position(|(b, _)| b.as_ref() == lo) else { return };
        let node = Arc::clone(&tree.nodes[idx].1);
        let mut entries = {
            let n = node.read();
            if n.buf_has_space() {
                return; // racing writer got here first
            }
            n.merge_entries()
        };
        // Step 1: build the replacement node(s) fully aside; one coalesced
        // fence makes the whole batch durable at once.
        let parts: Vec<DirEntry> = {
            let _epoch = pm::flush::coalesce_fences();
            let halves = if entries.len() > NODE_MAX {
                let right = entries.split_off(entries.len() / 2);
                vec![entries, right]
            } else {
                vec![entries]
            };
            halves
                .into_iter()
                .enumerate()
                .map(|(i, es)| {
                    let bound: Box<[u8]> =
                        if i == 0 { lo.into() } else { Box::from(es[0].key.as_ref()) };
                    let built = NodeInner::build(es);
                    built.stage::<P>();
                    (bound, Arc::new(RwLock::new(built)))
                })
                .collect()
        };
        P::crash_site("apex.smo.built");
        // Step 2: log the redo record.
        tree.pending = Some(PendingSmo { lo: lo.into(), replacement: parts.clone() });
        tree.persist_pending::<P>();
        P::crash_site("apex.smo.logged");
        // Step 3: swap the directory entry.
        tree.nodes.splice(idx..=idx, parts);
        tree.persist_nodes::<P>();
        P::crash_site("apex.smo.swapped");
        // Step 4: clear the record.
        tree.pending = None;
        tree.persist_pending::<P>();
        P::crash_site("apex.smo.cleared");
    }

    /// Post-crash recovery: replay a logged-but-uncleared SMO (idempotently),
    /// recount the live keys and finish the merge of every node a crash left with
    /// a full buffer. Uncommitted buffer slots need no repair — their commit bits
    /// never became durable, so they are free space.
    pub fn recover(&self) {
        let mut tree = self.inner.write();
        if let Some(p) = tree.pending.take() {
            if let Some(idx) = tree.nodes.iter().position(|(b, _)| *b == p.lo) {
                if !Arc::ptr_eq(&tree.nodes[idx].1, &p.replacement[0].1) {
                    // Crash landed between log and swap: complete the swap.
                    tree.nodes.splice(idx..=idx, p.replacement);
                }
            }
            tree.persist_nodes::<P>();
            tree.persist_pending::<P>();
            P::crash_site("apex.recover.redone");
        }
        // Keep the buffer headroom invariant: a crash can strand a node with a
        // full buffer and no in-flight SMO; finish its merge now.
        let (mut count, mut full) = (0, Vec::<Box<[u8]>>::new());
        tree.for_each_object(|lo, node| {
            count += node.live_total();
            if !node.buf_has_space() {
                full.push(lo.into());
            }
        });
        self.len.store(count, Ordering::Relaxed);
        drop(tree);
        for lo in full {
            self.merge_at(&lo);
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
        // A seeded mix of inserts and removes fills buffers, so merges and splits
        // replace nodes.
        let t: Apex<Pmem> = Apex::new();
        let mut model = std::collections::BTreeMap::new();
        for i in 0..20_000u64 {
            let r = pm::mix64(0xA9E ^ i);
            let k = u64_key(r % 8_000);
            if r >> 62 == 0 {
                assert_eq!(t.remove(&k), model.remove(&k).is_some());
            } else {
                t.insert(&k, i);
                model.insert(k, i);
            }
        }
        let (mut nodes, mut bounds) = (Vec::new(), Vec::new());
        t.inner.read().for_each_object(|lo, node| {
            nodes.push(node as *const NodeInner as usize);
            bounds.push(lo.to_vec());
        });
        assert!(nodes.len() > 1, "splits happened");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "a bound was visited twice");
        let visited = nodes.len();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), visited, "a node was visited twice");
        t.len.store(0, Ordering::Relaxed);
        t.recover();
        assert_eq!(t.len(), model.len(), "recover recounts through the walk");
    }
}
