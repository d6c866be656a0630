//! B+-tree nodes for FAST & FAIR.
//!
//! FAST & FAIR (Hwang et al., FAST '18) keeps entries sorted *in place* and makes the
//! shift-based insertion failure-atomic: every 8-byte store during a shift leaves the
//! array in a state that lock-free readers can tolerate (either a transient duplicate
//! of a neighbouring entry or a valid sorted array). Writers order the two stores of a
//! slot value-first, so whenever a key appears in two adjacent slots the *rightmost*
//! copy is a complete (key, value) pair and readers resolve duplicate runs rightward —
//! this holds both for the transient windows seen by concurrent readers and for the
//! persistent state left by a crash between the two stores. This module implements the
//! node layout, the tolerant read, and the FAST shift; the tree logic lives in the
//! crate root.
//!
//! Key words are either the big-endian encoding of an 8-byte key (integer mode) or a
//! pointer to an out-of-line key buffer (string mode) — the same scheme the RECIPE
//! authors used to add string support to the original implementation (§7), and the
//! reason FAST & FAIR pays an extra pointer dereference per comparison on string keys.

use recipe::lock::VersionLock;
use recipe::persist::{span, span_of, PersistMode, Span};
use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicU8, Ordering};

/// Entries per node (the paper uses 512-byte nodes; 30 × 16 B entries ≈ 480 B).
pub const CARDINALITY: usize = 30;

/// Key-word sentinel for an empty slot.
pub const EMPTY: u64 = 0;

/// How key words are interpreted by a tree instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyMode {
    /// Key words hold the big-endian value of an 8-byte key plus one (so 0 stays free
    /// as the empty sentinel).
    Inline,
    /// Key words hold a pointer to a [`KeyBuf`], freed when the tree drops.
    Indirect,
}

/// Out-of-line key storage for string keys.
pub struct KeyBuf {
    /// The key bytes.
    pub bytes: Box<[u8]>,
}

/// What publishing a key word makes reachable: an indirect word's [`KeyBuf`] and its
/// bytes (nothing for an inline word).
fn key_covers(mode: KeyMode, word: u64) -> [Span; 2] {
    match mode {
        KeyMode::Inline => [(std::ptr::null(), 0); 2],
        KeyMode::Indirect => {
            let buf = word as *const KeyBuf;
            // SAFETY: indirect key words point to KeyBufs freed only when the tree drops.
            [span(buf), span_of(&*unsafe { &*buf }.bytes)]
        }
    }
}

/// Encode a search key into a key word for the given mode, allocating a [`KeyBuf`] in
/// indirect mode (`persist` controls whether the fresh buffer is flushed).
pub fn encode_key<P: PersistMode>(mode: KeyMode, key: &[u8]) -> u64 {
    match mode {
        KeyMode::Inline => recipe::key::key_to_u64(key).wrapping_add(1),
        KeyMode::Indirect => {
            let buf = pm::alloc::pm_box(KeyBuf { bytes: key.to_vec().into_boxed_slice() });
            // SAFETY: freshly allocated, uniquely owned.
            let bytes = unsafe { &(*buf).bytes };
            P::stage(bytes.as_ptr(), bytes.len());
            P::persist_obj(buf, true);
            buf as u64
        }
    }
}

/// Compare a stored key word against a search key.
pub fn cmp_word_key(mode: KeyMode, word: u64, key: &[u8]) -> CmpOrdering {
    match mode {
        KeyMode::Inline => word.cmp(&recipe::key::key_to_u64(key).wrapping_add(1)),
        KeyMode::Indirect => {
            // The extra dereference string keys pay.
            pm::stats::record_node_visit();
            // SAFETY: indirect key words point to KeyBufs freed only when the tree drops.
            let buf = unsafe { &*(word as *const KeyBuf) };
            (*buf.bytes).cmp(key)
        }
    }
}

/// Compare two stored key words.
pub fn cmp_words(mode: KeyMode, a: u64, b: u64) -> CmpOrdering {
    match mode {
        KeyMode::Inline => a.cmp(&b),
        KeyMode::Indirect => {
            // SAFETY: see `cmp_word_key`.
            let ka = unsafe { &*(a as *const KeyBuf) };
            // SAFETY: see `cmp_word_key`.
            let kb = unsafe { &*(b as *const KeyBuf) };
            ka.bytes.cmp(&kb.bytes)
        }
    }
}

/// The byte representation of a stored key word, borrowed: an inline key is
/// decoded into `inline`, an indirect one is read where its [`KeyBuf`] holds it.
pub fn word_bytes(mode: KeyMode, word: u64, inline: &mut [u8; 8]) -> &[u8] {
    match mode {
        KeyMode::Inline => {
            *inline = recipe::key::u64_key(word.wrapping_sub(1));
            inline
        }
        KeyMode::Indirect => {
            // SAFETY: see `cmp_word_key`.
            let buf = unsafe { &*(word as *const KeyBuf) };
            &buf.bytes
        }
    }
}

/// Materialise the byte representation of a stored key word.
pub fn word_to_bytes(mode: KeyMode, word: u64) -> Vec<u8> {
    word_bytes(mode, word, &mut [0; 8]).to_vec()
}

/// One sorted slot: a key word and a value (record location, or child pointer in
/// internal nodes).
#[derive(Default)]
pub struct Entry {
    /// Key word ([`EMPTY`] marks the end of the used region).
    pub key: AtomicU64,
    /// Value or child pointer.
    pub val: AtomicU64,
}

/// A FAST & FAIR node (leaf or internal).
pub struct Node {
    /// Writer lock.
    pub lock: VersionLock,
    /// Leaf marker (1) vs internal (0).
    pub leaf: AtomicU8,
    /// Leftmost child (internal nodes only).
    pub leftmost: AtomicU64,
    /// Sorted entries terminated by an [`EMPTY`] key word.
    pub entries: [Entry; CARDINALITY],
    /// Right sibling (B-link pointer).
    pub sibling: AtomicPtr<Node>,
    /// Exclusive upper bound of this node's key space; [`EMPTY`] means unbounded.
    /// This is the high key whose absence caused the concurrency bug §3 describes.
    pub high_key: AtomicU64,
}

impl Node {
    /// Allocate an empty node on the PM pool.
    pub fn alloc(leaf: bool) -> *mut Node {
        pm::alloc::pm_box(Node {
            lock: VersionLock::new(),
            leaf: AtomicU8::new(u8::from(leaf)),
            leftmost: AtomicU64::new(0),
            entries: Default::default(),
            sibling: AtomicPtr::new(std::ptr::null_mut()),
            high_key: AtomicU64::new(EMPTY),
        })
    }

    /// Whether this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.leaf.load(Ordering::Acquire) == 1
    }

    /// Number of used entries (scans for the terminator, like the original
    /// implementation derives the count from the array itself).
    pub fn count(&self) -> usize {
        for i in 0..CARDINALITY {
            if self.entries[i].key.load(Ordering::Acquire) == EMPTY {
                return i;
            }
        }
        CARDINALITY
    }

    /// Lock-free, duplicate-tolerant point lookup within this node (leaf).
    ///
    /// A FAST shift, the final entry plant of an insert and a FAIR remove all
    /// momentarily duplicate a key into two adjacent slots, and the *left* copy is
    /// the one that can hold a mixed (key, value) pair mid-store — mirrored
    /// persistently if a crash lands between the two 8-byte stores. The rightmost
    /// copy of a duplicate run is always a complete pair, so a reader that matches a
    /// duplicated key defers to it.
    pub fn find_in_leaf(&self, mode: KeyMode, key: &[u8]) -> Option<u64> {
        for i in 0..CARDINALITY {
            let k = self.entries[i].key.load(Ordering::Acquire);
            if k == EMPTY {
                return None;
            }
            match cmp_word_key(mode, k, key) {
                CmpOrdering::Equal => {
                    let v = self.entries[i].val.load(Ordering::Acquire);
                    // Rightmost-duplicate rule: the left copy may be mid-plant
                    // (new value, old key) or mid-shift (new key, old value).
                    if i + 1 < CARDINALITY && self.entries[i + 1].key.load(Ordering::Acquire) == k {
                        continue;
                    }
                    // Re-check the key to pair the value with the right key (atomic
                    // snapshot, same idea as CLHT).
                    if self.entries[i].key.load(Ordering::Acquire) == k {
                        return Some(v);
                    }
                    return self.find_in_leaf(mode, key);
                }
                CmpOrdering::Greater => return None,
                CmpOrdering::Less => {}
            }
        }
        None
    }

    /// [`Node::find_in_leaf`] under seqlock-style version validation (the
    /// original implementation's `switch_counter` retry).
    ///
    /// Duplicate tolerance alone is not enough for concurrent *removes*: the
    /// FAIR shift-left walks the array in the same ascending order as a
    /// reader, so a writer that overtakes the reader moves an entry to a slot
    /// the reader has already passed — the reader then hits a larger key and
    /// concludes absence. Retrying whenever the node's version moved closes
    /// that window; the duplicate rules in [`Node::find_in_leaf`] still
    /// handle crash-*persisted* duplicate runs, which no retry can see.
    pub fn find_in_leaf_validated(&self, mode: KeyMode, key: &[u8]) -> Option<u64> {
        loop {
            let begin = self.lock.read_begin();
            let r = self.find_in_leaf(mode, key);
            if !self.lock.read_retry(begin) {
                return r;
            }
        }
    }

    /// Lock-free child search within an internal node: the child covering `key`.
    pub fn find_child(&self, mode: KeyMode, key: &[u8]) -> u64 {
        let mut child = self.leftmost.load(Ordering::Acquire);
        for i in 0..CARDINALITY {
            let k = self.entries[i].key.load(Ordering::Acquire);
            if k == EMPTY {
                break;
            }
            if cmp_word_key(mode, k, key) == CmpOrdering::Greater {
                break;
            }
            let c = self.entries[i].val.load(Ordering::Acquire);
            if c != 0 {
                child = c;
            }
        }
        child
    }

    /// FAST insertion into a sorted node (lock must be held): shift entries right one
    /// 8-byte word at a time — value before key, so every intermediate state shows
    /// either the old entry or an exact duplicate — then plant the new entry.
    pub fn insert_sorted<P: PersistMode>(&self, mode: KeyMode, key_word: u64, val: u64) {
        let count = self.count();
        debug_assert!(count < CARDINALITY);
        // Re-establish the terminator one slot further right *before* shifting: slots
        // beyond the current terminator may hold stale entries left behind by a
        // previous split truncation, and the shift below overwrites the old
        // terminator.
        if count + 1 < CARDINALITY {
            let terminator = &self.entries[count + 1].key;
            P::persist_store(terminator, || terminator.store(EMPTY, Ordering::Release));
        }
        // Find insertion position.
        let mut pos = count;
        for i in 0..count {
            if cmp_words(mode, self.entries[i].key.load(Ordering::Acquire), key_word)
                == CmpOrdering::Greater
            {
                pos = i;
                break;
            }
        }
        // Shift right: highest index first, value before key within each slot.
        // Every transient (and, after a crash, persistent) state is safe for
        // lock-free readers:
        //   * a destination slot shows a mixed pair only while the slot to its
        //     right still holds a complete copy of the duplicated key, so leaf
        //     readers resolve it with the rightmost-duplicate rule
        //     (`find_in_leaf`) — the same rule covers the value-then-key entry
        //     plant below;
        //   * internal nodes are searched last-match-≤, so the transiently
        //     duplicated key keeps routing to the old child, which the sibling
        //     pointer / high key makes correct.
        let mut i = count;
        while i > pos {
            let prev_val = self.entries[i - 1].val.load(Ordering::Acquire);
            let prev_key = self.entries[i - 1].key.load(Ordering::Acquire);
            let e = &self.entries[i];
            // FAST flushes once per cache line crossed during the shift.
            P::persist_store(e, || {
                e.val.store(prev_val, Ordering::Release);
                e.key.store(prev_key, Ordering::Release);
            });
            P::crash_site("fastfair.shift.step");
            i -= 1;
        }
        let e = &self.entries[pos];
        P::stage_store(&e.val, || e.val.store(val, Ordering::Release));
        P::crash_site("fastfair.insert.value_written");
        let covers = key_covers(mode, key_word).into_iter().chain([span(&e.val)]);
        P::publish(
            &e.key,
            || e.key.store(key_word, Ordering::Release),
            covers,
            "fastfair.insert.committed",
        );
    }

    /// FAIR deletion (lock must be held): shift entries left over the removed slot.
    /// Hands the key word of every copy removed to `removed`; returns false if the key
    /// is absent.
    ///
    /// Removes repeatedly until no copy of the key remains: a crash between the
    /// value and key stores of an entry plant can persist a duplicate run, and a
    /// single shift-left would leave the stale copy behind to resurrect the key.
    pub fn remove_sorted<P: PersistMode>(
        &self,
        mode: KeyMode,
        key: &[u8],
        mut removed: impl FnMut(u64),
    ) -> bool {
        let mut any = false;
        while let Some(word) = self.remove_one::<P>(mode, key) {
            removed(word);
            any = true;
        }
        any
    }

    fn remove_one<P: PersistMode>(&self, mode: KeyMode, key: &[u8]) -> Option<u64> {
        let count = self.count();
        let mut pos = None;
        for i in 0..count {
            if cmp_word_key(mode, self.entries[i].key.load(Ordering::Acquire), key)
                == CmpOrdering::Equal
            {
                pos = Some(i);
                break;
            }
        }
        let pos = pos?;
        let word = self.entries[pos].key.load(Ordering::Acquire);
        for i in pos..count {
            let (nk, nv) = if i + 1 < count {
                (
                    self.entries[i + 1].key.load(Ordering::Acquire),
                    self.entries[i + 1].val.load(Ordering::Acquire),
                )
            } else {
                (EMPTY, 0)
            };
            // Key first: the transiently mixed slot then duplicates the key of the
            // complete pair to its right, which readers defer to
            // (rightmost-duplicate rule in `find_in_leaf`).
            let e = &self.entries[i];
            P::persist_store(e, || {
                e.key.store(nk, Ordering::Release);
                e.val.store(nv, Ordering::Release);
            });
            P::crash_site("fastfair.remove.step");
        }
        Some(word)
    }

    /// In-place value update for an existing key (lock must be held). Returns false if
    /// absent.
    pub fn update_value<P: PersistMode>(&self, mode: KeyMode, key: &[u8], val: u64) -> bool {
        let count = self.count();
        for i in 0..count {
            if cmp_word_key(mode, self.entries[i].key.load(Ordering::Acquire), key)
                == CmpOrdering::Equal
            {
                // A crash-persisted duplicate run is resolved by readers in
                // favour of its rightmost copy, so update that one.
                if i + 1 < count
                    && cmp_word_key(mode, self.entries[i + 1].key.load(Ordering::Acquire), key)
                        == CmpOrdering::Equal
                {
                    continue;
                }
                let v = &self.entries[i].val;
                P::persist_store(v, || v.store(val, Ordering::Release));
                return true;
            }
        }
        false
    }

    /// Whether `key` falls outside this node's key space (i.e. the reader/writer must
    /// follow the sibling pointer). `high_key == EMPTY` means unbounded.
    pub fn must_move_right(&self, mode: KeyMode, key: &[u8]) -> bool {
        let hk = self.high_key.load(Ordering::Acquire);
        if hk == EMPTY {
            return false;
        }
        cmp_word_key(mode, hk, key) != CmpOrdering::Greater
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe::key::u64_key;
    use recipe::persist::Dram;

    #[test]
    fn inline_key_words_preserve_order() {
        let a = encode_key::<Dram>(KeyMode::Inline, &u64_key(5));
        let b = encode_key::<Dram>(KeyMode::Inline, &u64_key(6));
        assert!(a < b);
        assert_eq!(cmp_word_key(KeyMode::Inline, a, &u64_key(5)), CmpOrdering::Equal);
        assert_eq!(word_to_bytes(KeyMode::Inline, a), u64_key(5).to_vec());
    }

    #[test]
    fn indirect_key_words_compare_bytes() {
        let a = encode_key::<Dram>(KeyMode::Indirect, b"apple");
        let b = encode_key::<Dram>(KeyMode::Indirect, b"banana");
        assert_eq!(cmp_words(KeyMode::Indirect, a, b), CmpOrdering::Less);
        assert_eq!(cmp_word_key(KeyMode::Indirect, b, b"banana"), CmpOrdering::Equal);
        assert_eq!(word_to_bytes(KeyMode::Indirect, a), b"apple".to_vec());
    }

    #[test]
    fn sorted_insert_and_lookup() {
        let n = Node::alloc(true);
        // SAFETY: freshly allocated.
        let node = unsafe { &*n };
        for k in [5u64, 1, 9, 3, 7] {
            let w = encode_key::<Dram>(KeyMode::Inline, &u64_key(k));
            node.insert_sorted::<Dram>(KeyMode::Inline, w, k * 10);
        }
        assert_eq!(node.count(), 5);
        for k in [1u64, 3, 5, 7, 9] {
            assert_eq!(node.find_in_leaf(KeyMode::Inline, &u64_key(k)), Some(k * 10));
        }
        assert_eq!(node.find_in_leaf(KeyMode::Inline, &u64_key(4)), None);
        // Entries must end up sorted.
        let words: Vec<u64> = (0..5).map(|i| node.entries[i].key.load(Ordering::Relaxed)).collect();
        let mut sorted = words.clone();
        sorted.sort_unstable();
        assert_eq!(words, sorted);
    }

    #[test]
    fn remove_shifts_left() {
        let n = Node::alloc(true);
        // SAFETY: freshly allocated.
        let node = unsafe { &*n };
        for k in 1..=6u64 {
            let w = encode_key::<Dram>(KeyMode::Inline, &u64_key(k));
            node.insert_sorted::<Dram>(KeyMode::Inline, w, k);
        }
        let mut removed = Vec::new();
        assert!(node.remove_sorted::<Dram>(KeyMode::Inline, &u64_key(3), |w| removed.push(w)));
        assert!(!node.remove_sorted::<Dram>(KeyMode::Inline, &u64_key(3), |_| {}));
        assert_eq!(removed, [encode_key::<Dram>(KeyMode::Inline, &u64_key(3))]);
        assert_eq!(node.count(), 5);
        assert_eq!(node.find_in_leaf(KeyMode::Inline, &u64_key(3)), None);
        assert_eq!(node.find_in_leaf(KeyMode::Inline, &u64_key(6)), Some(6));
    }

    #[test]
    fn find_child_picks_covering_range() {
        let n = Node::alloc(false);
        // SAFETY: freshly allocated.
        let node = unsafe { &*n };
        node.leftmost.store(100, Ordering::Release);
        for (k, c) in [(10u64, 110u64), (20, 120), (30, 130)] {
            let w = encode_key::<Dram>(KeyMode::Inline, &u64_key(k));
            node.insert_sorted::<Dram>(KeyMode::Inline, w, c);
        }
        assert_eq!(node.find_child(KeyMode::Inline, &u64_key(5)), 100);
        assert_eq!(node.find_child(KeyMode::Inline, &u64_key(10)), 110);
        assert_eq!(node.find_child(KeyMode::Inline, &u64_key(25)), 120);
        assert_eq!(node.find_child(KeyMode::Inline, &u64_key(99)), 130);
    }

    /// Regression test for the crash-sweep flake the obs event ring caught
    /// (FAST&FAIR post-recovery `failed-ops=1..2`): a lock-free reader racing
    /// a FAST shift/plant (or a FAIR remove shift) must never observe a mixed
    /// (old key, new value) pair nor miss a key a remove shift moved below its
    /// cursor. The writer holds the node's `VersionLock` per operation, exactly
    /// as the tree does, and the reader uses the version-validated entry point.
    #[test]
    fn concurrent_reader_never_sees_mixed_pair() {
        let n = Node::alloc(true);
        // SAFETY: freshly allocated, lives for the whole test.
        let node = unsafe { &*n };
        for k in [10u64, 20, 30, 40] {
            let w = encode_key::<Dram>(KeyMode::Inline, &u64_key(k));
            node.insert_sorted::<Dram>(KeyMode::Inline, w, k * 100);
        }
        let poison = 9_999u64;
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Single writer: churn key 15 so both the insert plant at key
                // 20's slot and the remove shift over it run continuously
                // until the reader is done. Each op holds the node lock, as
                // `Tree::insert`/`Tree::remove` do.
                let w = encode_key::<Dram>(KeyMode::Inline, &u64_key(15));
                while !stop.load(Ordering::Acquire) {
                    {
                        let _g = node.lock.lock();
                        node.insert_sorted::<Dram>(KeyMode::Inline, w, poison);
                    }
                    {
                        let _g = node.lock.lock();
                        node.remove_sorted::<Dram>(KeyMode::Inline, &u64_key(15), |_| {});
                    }
                }
            });
            let mut violation = None;
            'sweeps: for sweep in 0..400_000u64 {
                for k in [10u64, 20, 30, 40] {
                    let got = node.find_in_leaf_validated(KeyMode::Inline, &u64_key(k));
                    if got != Some(k * 100) {
                        violation = Some((sweep, k, got));
                        break 'sweeps;
                    }
                }
            }
            // Stop the writer before asserting so a failure doesn't hang the
            // scope join.
            stop.store(true, Ordering::Release);
            assert!(violation.is_none(), "reader observed a mixed pair: {violation:?}");
        });
    }

    /// Deterministic regression test for the same bug class: a crash between
    /// an insert's value and key stores (`fastfair.insert.value_written`)
    /// *persists* the mixed pair the concurrent test above races for — the
    /// planted slot still carries the shifted-up neighbour's key next to the
    /// new value, with the neighbour's complete pair duplicated one slot to
    /// the right. Readers must resolve the duplicate run rightward, updates
    /// must land on the copy readers resolve, and a remove must clear the
    /// whole run instead of resurrecting the stale copy.
    #[test]
    fn torn_insert_duplicate_run_is_resolved_rightward() {
        let n = Node::alloc(true);
        // SAFETY: freshly allocated.
        let node = unsafe { &*n };
        for k in [10u64, 20, 30, 40] {
            let w = encode_key::<Dram>(KeyMode::Inline, &u64_key(k));
            node.insert_sorted::<Dram>(KeyMode::Inline, w, k * 100);
        }
        // Replay an insert of key 15 interrupted at `insert.value_written`:
        // slots 1..=3 have been shifted up one, the new value is planted in
        // slot 1, but the crash hit before the new key overwrote the
        // duplicated key 20.
        for i in (1..4).rev() {
            let v = node.entries[i].val.load(Ordering::Acquire);
            let k = node.entries[i].key.load(Ordering::Acquire);
            node.entries[i + 1].val.store(v, Ordering::Release);
            node.entries[i + 1].key.store(k, Ordering::Release);
        }
        node.entries[1].val.store(9_999, Ordering::Release);

        assert_eq!(node.find_in_leaf(KeyMode::Inline, &u64_key(15)), None);
        assert_eq!(
            node.find_in_leaf(KeyMode::Inline, &u64_key(20)),
            Some(2_000),
            "reader must defer to the complete right copy, not the torn pair"
        );
        assert!(node.update_value::<Dram>(KeyMode::Inline, &u64_key(20), 2_222));
        assert_eq!(node.find_in_leaf(KeyMode::Inline, &u64_key(20)), Some(2_222));
        assert!(node.remove_sorted::<Dram>(KeyMode::Inline, &u64_key(20), |_| {}));
        assert_eq!(
            node.find_in_leaf(KeyMode::Inline, &u64_key(20)),
            None,
            "remove must clear the whole duplicate run, not resurrect the stale copy"
        );
        for k in [10u64, 30, 40] {
            assert_eq!(node.find_in_leaf(KeyMode::Inline, &u64_key(k)), Some(k * 100));
        }
    }

    #[test]
    fn high_key_controls_move_right() {
        let n = Node::alloc(true);
        // SAFETY: freshly allocated.
        let node = unsafe { &*n };
        assert!(!node.must_move_right(KeyMode::Inline, &u64_key(u64::MAX - 1)));
        let hk = encode_key::<Dram>(KeyMode::Inline, &u64_key(50));
        node.high_key.store(hk, Ordering::Release);
        assert!(!node.must_move_right(KeyMode::Inline, &u64_key(49)));
        assert!(node.must_move_right(KeyMode::Inline, &u64_key(50)));
        assert!(node.must_move_right(KeyMode::Inline, &u64_key(51)));
    }
}
