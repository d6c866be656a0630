//! # WOART — Write-Optimal Radix Tree baseline (§7.3)
//!
//! WOART (Lee et al., FAST '17) is a *single-threaded*, hand-crafted persistent radix
//! tree. The RECIPE paper compares P-ART against WOART made multi-threaded the way its
//! authors suggest — behind a global lock — and finds P-ART 2–20× faster on
//! multi-threaded YCSB because the global lock removes all concurrency (§7.3).
//!
//! This crate reproduces exactly that configuration: a single-threaded radix tree with
//! path compression and failure-atomic 8-byte commits (value first, then the child
//! slot / entry publication, each followed by a flush and fence), wrapped in a global
//! reader-writer lock to satisfy the [`recipe::session::Index`] interface.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use parking_lot::RwLock;
use recipe::persist::{PersistMode, Pmem};
use recipe::session::{Capabilities, Index, OpError, OpResult, ScanBuf};
use std::marker::PhantomData;

/// A node of the single-threaded radix tree: a compressed prefix and a sparse,
/// sorted child list keyed by the next key byte.
struct Node {
    prefix: Vec<u8>,
    children: Vec<(u8, Child)>,
    /// Value stored when a key terminates exactly at this node.
    value: Option<u64>,
}

enum Child {
    Node(Box<Node>),
    Leaf(Vec<u8>, u64),
}

impl Node {
    fn new(prefix: Vec<u8>) -> Node {
        Node { prefix, children: Vec::new(), value: None }
    }

    fn child_index(&self, b: u8) -> Result<usize, usize> {
        self.children.binary_search_by_key(&b, |(k, _)| *k)
    }
}

/// The write-optimal radix tree behind a global lock.
pub struct Woart<P: PersistMode = Pmem> {
    root: RwLock<Node>,
    _policy: PhantomData<P>,
}

/// The configuration evaluated in the paper: persistent WOART + global lock.
pub type PWoart = Woart<Pmem>;
/// The same structure with persistence compiled out (registry uniformity).
pub type DramWoart = Woart<recipe::persist::Dram>;

/// Every crash site this crate can emit, for the §5 per-site exhaustive sweep.
pub const CRASH_SITES: &[&str] =
    &["woart.prefix_split", "woart.insert.committed", "woart.leaf_split"];

impl<P: PersistMode> Default for Woart<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: PersistMode> Woart<P> {
    /// Create an empty tree.
    #[must_use]
    pub fn new() -> Self {
        Woart { root: RwLock::new(Node::new(Vec::new())), _policy: PhantomData }
    }

    fn get_rec(node: &Node, full_key: &[u8], depth: usize) -> Option<u64> {
        pm::stats::record_node_visit();
        let key = &full_key[depth..];
        if !key.starts_with(&node.prefix) {
            return None;
        }
        let rest = &key[node.prefix.len()..];
        if rest.is_empty() {
            return node.value;
        }
        match node.child_index(rest[0]) {
            Err(_) => None,
            Ok(i) => match &node.children[i].1 {
                Child::Leaf(k, v) => (k.as_slice() == full_key).then_some(*v),
                Child::Node(n) => Self::get_rec(n, full_key, depth + node.prefix.len() + 1),
            },
        }
    }

    fn insert_rec(node: &mut Node, full_key: &[u8], depth: usize, value: u64) -> bool {
        pm::stats::record_node_visit();
        let key = &full_key[depth..];
        let common = recipe::key::common_prefix_len(key, &node.prefix);
        if common < node.prefix.len() {
            // Split this node's prefix: the existing node content moves into a child.
            let old_prefix = node.prefix.clone();
            let mut lower = Node::new(old_prefix[common + 1..].to_vec());
            lower.children = std::mem::take(&mut node.children);
            lower.value = node.value.take();
            node.prefix.truncate(common);
            node.children = vec![(old_prefix[common], Child::Node(Box::new(lower)))];
            // Persist the rewritten node before linking the new key below (WOART's
            // failure-atomic node reorganisation).
            P::persist_store(&*node, || ());
            P::crash_site("woart.prefix_split");
            if common == key.len() {
                node.value = Some(value);
                P::persist_store(&*node, || ());
                return true;
            }
            node.children.push((key[common], Child::Leaf(full_key.to_vec(), value)));
            node.children.sort_by_key(|(b, _)| *b);
            P::persist_store(&*node, || ());
            return true;
        }
        let rest = &key[common..];
        if rest.is_empty() {
            let newly = node.value.is_none();
            node.value = Some(value);
            P::persist_store(&node.value, || ());
            return newly;
        }
        match node.child_index(rest[0]) {
            Err(pos) => {
                node.children.insert(pos, (rest[0], Child::Leaf(full_key.to_vec(), value)));
                P::persist_range(
                    node.children.as_ptr() as *const u8,
                    node.children.len() * 16,
                    true,
                );
                P::crash_site("woart.insert.committed");
                true
            }
            Ok(i) => {
                let next_depth = depth + common + 1;
                match &mut node.children[i].1 {
                    Child::Node(n) => Self::insert_rec(n, full_key, next_depth, value),
                    Child::Leaf(existing_key, existing_val) => {
                        if existing_key.as_slice() == full_key {
                            let newly = false;
                            node.children[i].1 = Child::Leaf(full_key.to_vec(), value);
                            P::persist_range(node.children.as_ptr() as *const u8, 16, true);
                            return newly;
                        }
                        // Replace the leaf by an inner node holding both keys.
                        let ek = existing_key.clone();
                        let ev = *existing_val;
                        let shared = recipe::key::common_prefix_len(
                            &ek[next_depth..],
                            &full_key[next_depth..],
                        );
                        let mut inner =
                            Node::new(full_key[next_depth..next_depth + shared].to_vec());
                        let branch = next_depth + shared;
                        if branch >= ek.len() || branch >= full_key.len() {
                            // One key is a strict prefix of the other: store the shorter
                            // one as this inner node's value.
                            if ek.len() <= full_key.len() {
                                inner.value = Some(ev);
                                inner.children.push((
                                    full_key[branch.min(full_key.len() - 1)],
                                    Child::Leaf(full_key.to_vec(), value),
                                ));
                            } else {
                                inner.value = Some(value);
                                inner
                                    .children
                                    .push((ek[branch.min(ek.len() - 1)], Child::Leaf(ek, ev)));
                            }
                        } else {
                            inner.children.push((ek[branch], Child::Leaf(ek, ev)));
                            inner
                                .children
                                .push((full_key[branch], Child::Leaf(full_key.to_vec(), value)));
                            inner.children.sort_by_key(|(b, _)| *b);
                        }
                        P::persist_store(&inner, || ());
                        P::crash_site("woart.leaf_split");
                        node.children[i].1 = Child::Node(Box::new(inner));
                        P::persist_range(node.children.as_ptr() as *const u8, 16, true);
                        true
                    }
                }
            }
        }
    }

    fn remove_rec(node: &mut Node, full_key: &[u8], depth: usize) -> bool {
        let key = &full_key[depth..];
        if !key.starts_with(&node.prefix) {
            return false;
        }
        let rest = &key[node.prefix.len()..];
        if rest.is_empty() {
            let had = node.value.is_some();
            node.value = None;
            return had;
        }
        match node.child_index(rest[0]) {
            Err(_) => false,
            Ok(i) => match &mut node.children[i].1 {
                Child::Leaf(k, _) => {
                    if k.as_slice() == full_key {
                        node.children.remove(i);
                        true
                    } else {
                        false
                    }
                }
                Child::Node(n) => Self::remove_rec(n, full_key, depth + node.prefix.len() + 1),
            },
        }
    }

    /// Append the keys `>= start` under `node` to `out`, ascending, until it
    /// holds `count` entries. `prefix` is the path down to `node`; `bounded` says
    /// it equals `start` byte for byte so far — only then can the subtree hold
    /// keys below `start`, so only then is anything compared or skipped: the
    /// compressed prefix once per node, children below the start byte never
    /// entered. One node visit is recorded per inner node entered.
    fn scan_rec(
        node: &Node,
        prefix: &mut Vec<u8>,
        start: &[u8],
        bounded: bool,
        count: usize,
        out: &mut ScanBuf,
    ) {
        if out.len() >= count {
            return;
        }
        pm::stats::record_node_visit();
        let mut bounded = bounded;
        if bounded {
            let rest = &start[prefix.len()..];
            let shared = rest.len().min(node.prefix.len());
            match node.prefix[..shared].cmp(&rest[..shared]) {
                std::cmp::Ordering::Less => return, // the whole subtree precedes `start`
                std::cmp::Ordering::Greater => bounded = false,
                // `start` ending inside this prefix leaves nothing below it either.
                std::cmp::Ordering::Equal => bounded = rest.len() > node.prefix.len(),
            }
        }
        prefix.extend_from_slice(&node.prefix);
        // Still bounded: the path is a strict prefix of `start`, so the key ending
        // here precedes it, and so does every child below the next start byte.
        let start_byte = bounded.then(|| start[prefix.len()]);
        if let Some(v) = node.value {
            if !bounded {
                out.push(prefix, v);
            }
        }
        let from = start_byte.map_or(0, |sb| node.children.partition_point(|(b, _)| *b < sb));
        for (b, child) in &node.children[from..] {
            if out.len() >= count {
                break;
            }
            let child_bounded = start_byte == Some(*b);
            prefix.push(*b);
            match child {
                Child::Leaf(k, v) => {
                    if !child_bounded || k.as_slice() >= start {
                        out.push(k, *v);
                    }
                }
                Child::Node(n) => Self::scan_rec(n, prefix, start, child_bounded, count, out),
            }
            prefix.pop();
        }
        prefix.truncate(prefix.len() - node.prefix.len());
    }
}

/// What this index supports. `linearizable_update` is `true`: the presence
/// check and the insert happen under the same global write lock.
pub const CAPS: Capabilities = Capabilities::ordered_index(true);

impl<P: PersistMode> Index for Woart<P> {
    fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        if key.is_empty() {
            return Err(OpError::UnsupportedKey);
        }
        let mut root = self.root.write();
        if Self::insert_rec(&mut root, key, 0, value) {
            Ok(OpResult::Inserted)
        } else {
            Ok(OpResult::Updated)
        }
    }

    /// Atomic: presence check and insert happen under the same global write lock
    /// (overrides the non-atomic trait default).
    fn exec_update(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        if key.is_empty() {
            return Err(OpError::UnsupportedKey);
        }
        let mut root = self.root.write();
        if Self::get_rec(&root, key, 0).is_none() {
            return Err(OpError::NotFound);
        }
        Self::insert_rec(&mut root, key, 0, value);
        Ok(OpResult::Updated)
    }

    fn exec_get(&self, key: &[u8]) -> Option<u64> {
        if key.is_empty() {
            return None;
        }
        let root = self.root.read();
        Self::get_rec(&root, key, 0)
    }

    fn exec_remove(&self, key: &[u8]) -> Result<OpResult, OpError> {
        if key.is_empty() {
            return Err(OpError::UnsupportedKey);
        }
        let mut root = self.root.write();
        if Self::remove_rec(&mut root, key, 0) {
            Ok(OpResult::Removed)
        } else {
            Err(OpError::NotFound)
        }
    }

    fn exec_scan(&self, start: &[u8], max: usize, out: &mut ScanBuf) {
        if max == 0 {
            return;
        }
        let target = out.len().saturating_add(max);
        let root = self.root.read();
        let mut prefix = Vec::new();
        Self::scan_rec(&root, &mut prefix, start, true, target, out);
    }

    fn capabilities(&self) -> Capabilities {
        CAPS
    }

    fn index_name(&self) -> String {
        if P::PERSISTENT {
            "WOART(global-lock)".into()
        } else {
            "WOART(dram)".into()
        }
    }

    /// Does nothing: the one global lock is a process-local `parking_lot` lock,
    /// and the tree has no other state to re-initialise.
    fn recover(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe::key::u64_key;
    use recipe::session::IndexExt;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn insert_get_remove_roundtrip() {
        let t: PWoart = Woart::new();
        let mut h = t.handle();
        for i in 0..10_000u64 {
            assert_eq!(h.insert(&u64_key(i), i * 2), Ok(OpResult::Inserted), "insert {i}");
        }
        for i in 0..10_000u64 {
            assert_eq!(h.get(&u64_key(i)), Some(i * 2), "get {i}");
        }
        assert_eq!(h.remove(&u64_key(55)), Ok(OpResult::Removed));
        assert_eq!(h.get(&u64_key(55)), None);
        assert_eq!(h.remove(&u64_key(55)), Err(OpError::NotFound));
    }

    #[test]
    fn string_keys_and_model_scan() {
        let t: PWoart = Woart::new();
        let mut h = t.handle();
        let mut model = BTreeMap::new();
        for i in 0..3_000u64 {
            let key = format!("user{:020}", i * 31 % 9_000).into_bytes();
            let newly = model.insert(key.clone(), i).is_none();
            assert_eq!(h.insert(&key, i) == Ok(OpResult::Inserted), newly);
        }
        for (k, v) in &model {
            assert_eq!(h.get(k), Some(*v));
        }
        let start = b"user00000000000000004000".to_vec();
        let got = h.scan(&start).limit(20).collect_vec();
        let want: Vec<(Vec<u8>, u64)> =
            model.range(start..).take(20).map(|(k, v)| (k.clone(), *v)).collect();
        assert_eq!(got, want);
    }

    /// A scan descends to its start key and walks right from there: it used to
    /// walk the whole tree left of the start key too (276 µs per scan at 50k keys,
    /// 40–80× every other ordered index) and recorded no node visit at all.
    #[test]
    fn scan_prunes_by_start_key_and_charges_its_visits() {
        const N: u64 = 50_000;
        let t: PWoart = Woart::new();
        let mut h = t.handle();
        let mut model = BTreeMap::new();
        for i in 0..N {
            let key = u64_key(pm::mix64(i)).to_vec();
            assert_eq!(h.insert(&key, i), Ok(OpResult::Inserted));
            model.insert(key, i);
        }
        for j in 0..200u64 {
            let start = u64_key(pm::mix64(pm::mix64(j ^ 0xE5CA) % N)).to_vec();
            let before = pm::stats::snapshot_local();
            let got = h.scan(&start).limit(20).collect_vec();
            let visits = pm::stats::snapshot_local().since(&before).node_visits;
            assert!((1..=64).contains(&visits), "a 20-entry scan visited {visits} nodes");
            let want: Vec<(Vec<u8>, u64)> =
                model.range(start..).take(20).map(|(k, v)| (k.clone(), *v)).collect();
            assert_eq!(got, want);
        }
    }

    /// Start keys that end inside a compressed prefix, fall between children,
    /// extend a stored key, or are absent altogether, against a model.
    #[test]
    fn bounded_scan_matches_model_on_awkward_start_keys() {
        let t: PWoart = Woart::new();
        let mut h = t.handle();
        let mut model = BTreeMap::new();
        let keys: [&[u8]; 9] =
            [b"a", b"abc", b"abcdef", b"abcdeg", b"abd", b"b", b"bcdefgh", b"bcdefgi", b"c"];
        for (i, key) in keys.into_iter().enumerate() {
            assert_eq!(h.insert(key, i as u64), Ok(OpResult::Inserted));
            model.insert(key.to_vec(), i as u64);
        }
        let starts: [&[u8]; 14] = [
            b"", b"a", b"ab", b"abc", b"abcd", b"abcdef", b"abcdefz", b"abcdz", b"abz", b"b",
            b"bc", b"bcdefgh", b"bz", b"d",
        ];
        for start in starts {
            for count in [1, 3, 100] {
                let want: Vec<(Vec<u8>, u64)> = model
                    .range(start.to_vec()..)
                    .take(count)
                    .map(|(k, v)| (k.clone(), *v))
                    .collect();
                let got = h.scan(start).limit(count).collect_vec();
                assert_eq!(got, want, "from {start:?}, {count} entries");
            }
        }
    }

    #[test]
    fn prefix_keys_are_supported() {
        let t: PWoart = Woart::new();
        let mut h = t.handle();
        assert_eq!(h.insert(b"abc", 1), Ok(OpResult::Inserted));
        assert_eq!(h.insert(b"abcdef", 2), Ok(OpResult::Inserted));
        assert_eq!(h.get(b"abc"), Some(1));
        assert_eq!(h.get(b"abcdef"), Some(2));
        assert_eq!(h.get(b"abcd"), None);
    }

    #[test]
    fn global_lock_serializes_concurrent_writers_correctly() {
        let t: Arc<PWoart> = Arc::new(Woart::new());
        let mut handles = Vec::new();
        for tid in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut h = t.handle();
                for i in 0..2_000u64 {
                    let k = tid * 2_000 + i;
                    assert_eq!(h.insert(&u64_key(k), k), Ok(OpResult::Inserted));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut h = t.handle();
        for k in 0..8_000u64 {
            assert_eq!(h.get(&u64_key(k)), Some(k));
        }
    }
}
