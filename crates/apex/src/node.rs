//! APEX data nodes: a gapped array under a linear model, plus an insert buffer.
//!
//! A data node stores its committed entries in a **gapped array**: entries are
//! placed at (approximately) the slot the node's [`LinearModel`] predicts for
//! their key, in key order, with the leftover capacity spread between them as
//! gaps. Lookups predict a slot and gallop outward with full-key comparisons
//! (a bounded exponential search), so model error costs probes — counted under
//! [`Mapping::ApexNode`] — never correctness.
//!
//! Writes never touch the gapped array. Inserts go to a small per-node
//! **buffer** with a two-step durable publish (slot bytes, then a commit bit in
//! the buffer's bitmap word), which is what makes a buffered insert cost a
//! constant two flush/fence pairs instead of a FAST-style shift. When the
//! buffer fills, the tree merges buffer and array into a freshly trained node
//! (see `tree.rs` for the SMO protocol). Removes clear the entry's commit bit;
//! the dead slot is reclaimed at the next merge.
//!
//! Commit bits are the single source of truth: a slot whose bit is clear is
//! free, and readers never look at its bytes. A crash between the two publish
//! steps therefore rolls the insert back by construction — there is nothing
//! for recovery to repair inside a node.

use crate::model::LinearModel;
use pm::stats::{self, Mapping};
use recipe::persist::{span, span_of, PersistMode};
use recipe::session::ScanBuf;
use std::cmp::Ordering;
use std::sync::Arc;

/// Committed entries a node may hold after a merge before it must split.
pub const NODE_MAX: usize = 256;
/// Insert-buffer capacity: one bitmap word's worth of slots.
pub const BUF_CAP: usize = 64;
/// Gapped-array stretch: capacity = entries × 10 / 7 (≈ 70% target density).
const GAP_NUM: usize = 10;
/// Denominator of the gapped-array stretch factor.
const GAP_DEN: usize = 7;
/// Smallest gapped-array capacity (fresh/near-empty nodes).
const MIN_CAP: usize = 16;

/// One key/value entry. Keys are shared immutable PM-heap allocations
/// (`Arc<[u8]>`), so a merge can move entries to a rebuilt node without
/// re-flushing key bytes that are already durable.
#[derive(Debug, Clone)]
pub struct Slot {
    /// Full key bytes.
    pub key: Arc<[u8]>,
    /// Model feature: eight key bytes at the node's feature offset.
    pub knum: u64,
    /// Value.
    pub value: u64,
}

/// Where a search found its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Found {
    /// Live slot `i` of the gapped array.
    Gapped(usize),
    /// Live slot `i` of the insert buffer.
    Buffer(usize),
    /// Not present in this node.
    Absent,
}

/// A data node's contents, guarded by the per-node lock in `tree.rs`.
#[derive(Debug)]
pub struct NodeInner {
    /// Model mapping key features to predicted gapped-array slots.
    model: LinearModel,
    /// Byte offset keys are featurized at (the entries' common-prefix length
    /// at train time, so dense shared prefixes don't flatten the model).
    feat_off: usize,
    /// Gapped array; live slots appear in ascending key order by index.
    slots: Box<[Option<Slot>]>,
    /// Commit bitmap for `slots` (bit set ⇔ slot is live).
    live: Box<[u64]>,
    /// Insert buffer, searched linearly.
    buf: Box<[Option<Slot>]>,
    /// Commit bitmap for `buf`.
    buf_live: u64,
}

/// Eight key bytes at `off`, big-endian, zero-padded: a monotone (modulo
/// padding ties) numeric feature of the key's lexicographic position.
#[must_use]
pub fn feature(key: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    if off < key.len() {
        let tail = &key[off..];
        let n = tail.len().min(8);
        b[..n].copy_from_slice(&tail[..n]);
    }
    u64::from_be_bytes(b)
}

impl NodeInner {
    /// Build a freshly trained node from `entries`, which must be sorted by
    /// key and duplicate-free. Entries are re-featurized at the batch's
    /// common-prefix offset, the model is retrained, and every entry is placed
    /// at (or right of, on collision) its predicted slot.
    #[must_use]
    pub fn build(mut entries: Vec<Slot>) -> NodeInner {
        let n = entries.len();
        let feat_off = match (entries.first(), entries.last()) {
            (Some(a), Some(b)) => common_prefix(&a.key, &b.key),
            _ => 0,
        };
        for e in &mut entries {
            e.knum = feature(&e.key, feat_off);
        }
        let cap = (n * GAP_NUM / GAP_DEN).max(MIN_CAP);
        let feats: Vec<u64> = entries.iter().map(|e| e.knum).collect();
        let model = LinearModel::train(&feats, cap);
        let mut slots: Vec<Option<Slot>> = (0..cap).map(|_| None).collect();
        let mut live = vec![0u64; cap.div_ceil(64)];
        let mut next = 0usize;
        for (rank, e) in entries.into_iter().enumerate() {
            // Clamp so the remaining entries always fit to the right.
            let want = model.predict(e.knum).min(cap - (n - rank));
            let pos = want.max(next);
            live[pos / 64] |= 1 << (pos % 64);
            slots[pos] = Some(e);
            next = pos + 1;
        }
        NodeInner {
            model,
            feat_off,
            slots: slots.into_boxed_slice(),
            live: live.into_boxed_slice(),
            buf: (0..BUF_CAP).map(|_| None).collect(),
            buf_live: 0,
        }
    }

    /// Stage every region of this node, reporting what the build stored (keys
    /// excepted: their bytes were persisted when first inserted and are shared, not
    /// copied). The caller owns fencing — builds run inside a coalesced fence epoch.
    pub fn stage<P: PersistMode>(&self) {
        let built = || ();
        P::stage_store(self, built);
        P::stage_store(&*self.slots, built);
        P::stage_store(&*self.live, built);
        P::stage_store(&*self.buf, built);
    }

    #[inline]
    fn is_live(&self, i: usize) -> bool {
        self.live[i / 64] & (1 << (i % 64)) != 0
    }

    /// Greatest live gapped index `<= from`.
    fn prev_live(&self, from: usize) -> Option<usize> {
        (0..=from.min(self.slots.len() - 1)).rev().find(|&i| self.is_live(i))
    }

    fn slot_key(&self, i: usize) -> &[u8] {
        self.slots[i].as_ref().expect("live slot is populated").key.as_ref()
    }

    /// Number of live entries (gapped array + buffer).
    #[must_use]
    pub fn live_total(&self) -> usize {
        let gapped: u32 = self.live.iter().map(|w| w.count_ones()).sum();
        gapped as usize + self.buf_live.count_ones() as usize
    }

    /// Whether the insert buffer has a free slot.
    #[must_use]
    pub fn buf_has_space(&self) -> bool {
        self.buf_live != u64::MAX
    }

    /// Search the node for `key`. Every full-key comparison is one probe,
    /// recorded under [`Mapping::ApexNode`]; a perfectly predicting model on a
    /// buffer-resident-free node costs exactly one probe.
    #[must_use]
    pub fn search(&self, key: &[u8]) -> Found {
        let mut probes = 0u64;
        // Buffer first: it holds the most recent writes.
        let mut word = self.buf_live;
        while word != 0 {
            let i = word.trailing_zeros() as usize;
            word &= word - 1;
            probes += 1;
            let s = self.buf[i].as_ref().expect("live buffer slot is populated");
            if s.key.as_ref() == key {
                stats::record_probes(Mapping::ApexNode, probes);
                return Found::Buffer(i);
            }
        }
        let hit = self.gapped_find(key, &mut probes);
        stats::record_probes(Mapping::ApexNode, probes);
        match hit {
            Some(i) => Found::Gapped(i),
            None => Found::Absent,
        }
    }

    /// Model-predicted probe + bounded exponential (galloping) search over the
    /// gapped array. Relies on live slots being in ascending key order.
    fn gapped_find(&self, key: &[u8], probes: &mut u64) -> Option<usize> {
        let cap = self.slots.len();
        if cap == 0 {
            return None;
        }
        let p = self.model.predict(feature(key, self.feat_off)).min(cap - 1);
        // Invariants while searching: every live slot at index >= `hi` is
        // > key; `lo = Some(j)` means every live slot at index <= j is < key.
        let mut hi = cap;
        let mut lo: Option<usize> = None;
        // Gallop left from the prediction until an anchor <= key (or the edge).
        let mut i = p as isize;
        let mut step = 1isize;
        while i >= 0 {
            let Some(j) = self.prev_live(i as usize) else { break };
            *probes += 1;
            match self.slot_key(j).cmp(key) {
                Ordering::Equal => return Some(j),
                Ordering::Less => {
                    lo = Some(j);
                    break;
                }
                Ordering::Greater => {
                    hi = j;
                    i = j as isize - step;
                    step <<= 1;
                }
            }
        }
        // Gallop right to tighten `hi` when the model under-predicted.
        let mut base = lo.map_or(0, |j| j + 1);
        let mut rstep = 1usize;
        while base < hi {
            let Some(j) = (base..hi).find(|&i| self.is_live(i)) else { break };
            *probes += 1;
            match self.slot_key(j).cmp(key) {
                Ordering::Equal => return Some(j),
                Ordering::Greater => {
                    hi = j;
                    break;
                }
                Ordering::Less => {
                    lo = Some(j);
                    base = j + rstep;
                    rstep <<= 1;
                }
            }
        }
        // Galloping skips slots; sweep the remaining unknown window linearly.
        for k in lo.map_or(0, |j| j + 1)..hi {
            if self.is_live(k) {
                *probes += 1;
                match self.slot_key(k).cmp(key) {
                    Ordering::Equal => return Some(k),
                    Ordering::Greater => return None,
                    Ordering::Less => {}
                }
            }
        }
        None
    }

    /// Publish `key -> value` into a free buffer slot: write the slot, persist,
    /// then commit it with its bitmap bit (the insert's single atomic step).
    /// Caller must have checked [`NodeInner::buf_has_space`].
    pub fn buf_insert<P: PersistMode>(&mut self, key: &[u8], value: u64) {
        let i = (!self.buf_live).trailing_zeros() as usize;
        let slot = Slot { key: Arc::from(key), knum: feature(key, self.feat_off), value };
        // The key bytes are a fresh PM-heap allocation, staged with the slot that
        // points at them.
        let key = span_of(&*slot.key);
        P::stage_store(&*slot.key, || ());
        self.buf[i] = Some(slot);
        P::stage_store(&self.buf[i], || ());
        P::crash_site("apex.insert.slot_written");
        let covers = [key, span(&self.buf[i])];
        P::publish(&self.buf_live, || self.buf_live |= 1 << i, covers, "apex.insert.committed");
    }

    /// Overwrite the value of a found entry in place (an 8-byte atomic store).
    pub fn set_value<P: PersistMode>(&mut self, at: Found, value: u64) {
        let v = match at {
            Found::Gapped(i) => &mut self.slots[i].as_mut().expect("live slot").value,
            Found::Buffer(i) => &mut self.buf[i].as_mut().expect("live buffer slot").value,
            Found::Absent => unreachable!("set_value requires a hit"),
        };
        *v = value;
        P::persist_store(v, || ());
        P::crash_site("apex.update.committed");
    }

    /// Value of a found entry.
    #[must_use]
    pub fn value_of(&self, at: Found) -> Option<u64> {
        match at {
            Found::Gapped(i) => self.slots[i].as_ref().map(|s| s.value),
            Found::Buffer(i) => self.buf[i].as_ref().map(|s| s.value),
            Found::Absent => None,
        }
    }

    /// Remove a found entry by clearing its commit bit (one atomic step); the
    /// dead slot's memory is reclaimed at the next merge.
    pub fn remove_at<P: PersistMode>(&mut self, at: Found) {
        match at {
            Found::Gapped(i) => {
                self.live[i / 64] &= !(1 << (i % 64));
                P::persist_store(&self.live[i / 64], || ());
            }
            Found::Buffer(i) => {
                self.buf_live &= !(1 << i);
                P::persist_store(&self.buf_live, || ());
            }
            Found::Absent => unreachable!("remove_at requires a hit"),
        }
        P::crash_site("apex.remove.committed");
    }

    /// Every live entry (gapped array + buffer), sorted by key: the input of a
    /// merge. Keys are shared (`Arc`), not copied.
    #[must_use]
    pub fn merge_entries(&self) -> Vec<Slot> {
        let mut out: Vec<Slot> = Vec::with_capacity(self.live_total());
        for (i, s) in self.slots.iter().enumerate() {
            if self.is_live(i) {
                out.push(s.clone().expect("live slot is populated"));
            }
        }
        let mut word = self.buf_live;
        while word != 0 {
            let i = word.trailing_zeros() as usize;
            word &= word - 1;
            out.push(self.buf[i].clone().expect("live buffer slot is populated"));
        }
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }

    /// Append up to `max` live entries with keys `>= start`, ascending, to
    /// `out` (a two-way merge of the sorted gapped array and the buffer).
    pub fn collect_into(&self, start: &[u8], max: usize, out: &mut ScanBuf) {
        if max == 0 {
            return;
        }
        let mut buffered: Vec<&Slot> = Vec::with_capacity(self.buf_live.count_ones() as usize);
        let mut word = self.buf_live;
        while word != 0 {
            let i = word.trailing_zeros() as usize;
            word &= word - 1;
            let s = self.buf[i].as_ref().expect("live buffer slot is populated");
            if s.key.as_ref() >= start {
                buffered.push(s);
            }
        }
        buffered.sort_by(|a, b| a.key.cmp(&b.key));
        let mut bi = 0usize;
        let mut probes = 0u64;
        let target = out.len() + max;
        for (i, s) in self.slots.iter().enumerate() {
            if !self.is_live(i) {
                continue;
            }
            let s = s.as_ref().expect("live slot is populated");
            probes += 1;
            if s.key.as_ref() < start {
                continue;
            }
            while bi < buffered.len() && buffered[bi].key.as_ref() < s.key.as_ref() {
                out.push(&buffered[bi].key, buffered[bi].value);
                bi += 1;
                if out.len() >= target {
                    stats::record_probes(Mapping::ApexNode, probes);
                    return;
                }
            }
            out.push(&s.key, s.value);
            if out.len() >= target {
                stats::record_probes(Mapping::ApexNode, probes);
                return;
            }
        }
        while bi < buffered.len() && out.len() < target {
            out.push(&buffered[bi].key, buffered[bi].value);
            bi += 1;
        }
        stats::record_probes(Mapping::ApexNode, probes);
    }
}

/// Length of the longest common prefix of two byte strings.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe::persist::{Dram, Pmem};

    fn slot(key: &[u8], value: u64) -> Slot {
        Slot { key: Arc::from(key), knum: 0, value }
    }

    fn built(keys: &[&[u8]]) -> NodeInner {
        let mut entries: Vec<Slot> =
            keys.iter().enumerate().map(|(i, k)| slot(k, i as u64)).collect();
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        NodeInner::build(entries)
    }

    #[test]
    fn build_places_live_slots_in_key_order() {
        let keys: Vec<Vec<u8>> = (0..100u64).map(|i| (i * 17).to_be_bytes().to_vec()).collect();
        let n = built(&keys.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let mut last: Option<Vec<u8>> = None;
        let mut live = 0;
        for i in 0..n.slots.len() {
            if n.is_live(i) {
                let k = n.slot_key(i).to_vec();
                if let Some(prev) = &last {
                    assert!(*prev < k, "live slots out of order at {i}");
                }
                last = Some(k);
                live += 1;
            }
        }
        assert_eq!(live, 100);
        assert_eq!(n.live_total(), 100);
    }

    #[test]
    fn search_finds_every_built_entry_and_rejects_absent() {
        let keys: Vec<Vec<u8>> = (0..200u64).map(|i| (i * 3 + 1).to_be_bytes().to_vec()).collect();
        let n = built(&keys.iter().map(Vec::as_slice).collect::<Vec<_>>());
        for k in &keys {
            assert!(matches!(n.search(k), Found::Gapped(_)), "missing {k:?}");
        }
        for i in 0..200u64 {
            let absent = (i * 3).to_be_bytes();
            assert_eq!(n.search(&absent), Found::Absent, "phantom {absent:?}");
        }
    }

    #[test]
    fn shared_prefix_keys_stay_searchable() {
        // All keys share a long prefix; the feature offset must skip it or the
        // model flattens. Either way every key must remain findable.
        let keys: Vec<Vec<u8>> =
            (0..150u64).map(|i| format!("user{:020}", i * 7).into_bytes()).collect();
        let n = built(&keys.iter().map(Vec::as_slice).collect::<Vec<_>>());
        assert!(n.feat_off >= 4, "feature offset should skip the shared 'user' prefix");
        for k in &keys {
            assert!(matches!(n.search(k), Found::Gapped(_)));
        }
        assert_eq!(n.search(b"user99999999999999999999"), Found::Absent);
    }

    #[test]
    fn model_accuracy_is_visible_in_probe_counts() {
        // Uniform keys fit a linear model near-perfectly, so probes per hit
        // lookup should stay close to 1.
        let keys: Vec<Vec<u8>> =
            (0..NODE_MAX as u64).map(|i| (i * 64).to_be_bytes().to_vec()).collect();
        let n = built(&keys.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let before = stats::probes_local();
        for k in &keys {
            let _ = n.search(k);
        }
        let d = stats::probes_local().since(&before);
        let per_lookup = d.get(Mapping::ApexNode) as f64 / keys.len() as f64;
        assert!(per_lookup < 4.0, "uniform keys should probe ~1-2, got {per_lookup}");
        assert_eq!(d.total(), d.get(Mapping::ApexNode), "probes attributed to ApexNode");
    }

    #[test]
    fn buffer_insert_commits_with_two_flush_fence_pairs() {
        // `buf_insert::<Pmem>` passes the `apex.insert.*` crash sites.
        let _serial = crate::tests::serial();
        let mut n = built(&[]);
        let before = pm::stats::snapshot_local();
        n.buf_insert::<Pmem>(&7u64.to_be_bytes(), 70);
        let d = pm::stats::snapshot_local().since(&before);
        assert_eq!(d.fence, 2, "slot publish + commit bit");
        assert!(d.clwb >= 2 && d.clwb <= 4, "got {} clwb", d.clwb);
        assert_eq!(n.search(&7u64.to_be_bytes()), Found::Buffer(0));
        // The DRAM policy compiles the same path down to plain stores.
        let mut n = built(&[]);
        let before = pm::stats::snapshot_local();
        n.buf_insert::<Dram>(&7u64.to_be_bytes(), 70);
        let d = pm::stats::snapshot_local().since(&before);
        assert_eq!((d.clwb, d.fence), (0, 0));
    }

    #[test]
    fn uncommitted_buffer_slot_is_invisible() {
        // Simulate a crash between the two publish steps: slot written, commit
        // bit never set. The entry must not be readable and the slot must be
        // reused by the next insert.
        let mut n = built(&[]);
        let key = 9u64.to_be_bytes();
        n.buf[0] = Some(slot(&key, 99));
        assert_eq!(n.search(&key), Found::Absent);
        assert_eq!(n.live_total(), 0);
        n.buf_insert::<Dram>(&key, 42);
        assert_eq!(n.search(&key), Found::Buffer(0));
        assert_eq!(n.value_of(Found::Buffer(0)), Some(42));
    }

    #[test]
    fn merge_entries_sorts_and_drops_dead_slots() {
        let keys: Vec<Vec<u8>> = (0..40u64).map(|i| (i * 2).to_be_bytes().to_vec()).collect();
        let mut n = built(&keys.iter().map(Vec::as_slice).collect::<Vec<_>>());
        n.buf_insert::<Dram>(&41u64.to_be_bytes(), 41);
        n.buf_insert::<Dram>(&1u64.to_be_bytes(), 1);
        let at = n.search(&10u64.to_be_bytes());
        n.remove_at::<Dram>(at);
        let merged = n.merge_entries();
        assert_eq!(merged.len(), 41);
        assert!(merged.windows(2).all(|w| w[0].key < w[1].key), "merge output sorted");
        assert!(!merged.iter().any(|s| s.key.as_ref() == 10u64.to_be_bytes()));
        assert!(merged.iter().any(|s| s.key.as_ref() == 41u64.to_be_bytes()));
    }

    #[test]
    fn collect_into_merges_buffer_and_array_in_order() {
        let keys: Vec<Vec<u8>> = (0..30u64).map(|i| (i * 3).to_be_bytes().to_vec()).collect();
        let mut n = built(&keys.iter().map(Vec::as_slice).collect::<Vec<_>>());
        n.buf_insert::<Dram>(&4u64.to_be_bytes(), 104);
        n.buf_insert::<Dram>(&100u64.to_be_bytes(), 200);
        let mut out = ScanBuf::new();
        n.collect_into(&3u64.to_be_bytes(), 5, &mut out);
        let got: Vec<u64> =
            out.iter().map(|(k, _)| u64::from_be_bytes(k[..8].try_into().unwrap())).collect();
        assert_eq!(got, vec![3, 4, 6, 9, 12]);
        // Exhausting the node returns fewer than max.
        let mut out = ScanBuf::new();
        n.collect_into(&85u64.to_be_bytes(), 100, &mut out);
        let got: Vec<u64> =
            out.iter().map(|(k, _)| u64::from_be_bytes(k[..8].try_into().unwrap())).collect();
        assert_eq!(got, vec![87, 100]);
    }

    #[test]
    fn feature_is_monotone_on_equal_length_keys() {
        let mut feats: Vec<u64> =
            (0..500u64).map(|i| feature(&(i * 977).to_be_bytes(), 0)).collect();
        let sorted = feats.windows(2).all(|w| w[0] <= w[1]);
        assert!(sorted);
        feats.dedup();
        assert_eq!(feats.len(), 500);
        // Offsets skip shared prefixes.
        assert_eq!(feature(b"user0001", 4), feature(b"0001", 0));
        assert_eq!(feature(b"ab", 5), 0);
    }
}
