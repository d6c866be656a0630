//! # ART / P-ART — Adaptive Radix Tree and its RECIPE conversion (Condition #3)
//!
//! The Adaptive Radix Tree (Leis et al.) adapts node fanout (4/16/48/256) to the
//! number of live children and compresses single-child paths into per-node prefixes.
//! Readers are non-blocking and never retry; writers take per-node locks (§6.4 of the
//! RECIPE paper).
//!
//! * **Non-SMO operations** (inserting into a node with room, updating a value,
//!   deleting) commit through a single atomic store — Condition #1.
//! * **The path-compression split** mutates the tree in two ordered atomic steps
//!   (install new branch node in the parent; truncate the old node's prefix). Readers
//!   can detect and tolerate the intermediate state via the immutable `level` field,
//!   and writers can detect it, but the DRAM ART has no helper to *fix* it —
//!   Condition #3. The conversion therefore adds permanent-inconsistency detection
//!   (`try_lock`: success means no concurrent writer, so the inconsistency was left by
//!   a crash) and a helper that recomputes and persists the correct prefix, plus the
//!   usual flushes and fences. The paper reports 52 modified LOC for this conversion.
//!
//! Instantiations: [`DramArt`] (`Art<Dram>`) is the original DRAM index and [`PArt`]
//! (`Art<Pmem>`) is the converted persistent index.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod node;
pub mod search;
pub mod tree;

pub use tree::Art;

/// Every crash site this crate can emit, for the §5 per-site exhaustive sweep.
/// `art.helper.prefix_fixed` is the Condition #3 helper and only runs after a
/// crash left a permanent prefix inconsistency (a post-recovery write exercises
/// it).
pub const CRASH_SITES: &[&str] = &[
    "art.insert.leaf_persisted",
    "art.insert.committed",
    "art.grow.new_node_persisted",
    "art.grow.committed",
    "art.path_split.branch_persisted",
    "art.path_split.installed",
    "art.path_split.prefix_truncated",
    "art.leaf_split.subtree_persisted",
    "art.leaf_split.committed",
    "art.remove.committed",
    "art.helper.prefix_fixed",
];

use recipe::persist::{Dram, PersistMode, Pmem};
use recipe::session::{Capabilities, Index, OpError, OpResult, ScanBuf};

/// The unconverted DRAM Adaptive Radix Tree.
pub type DramArt = Art<Dram>;
/// P-ART: the RECIPE-converted persistent Adaptive Radix Tree.
pub type PArt = Art<Pmem>;

/// What this index supports. `linearizable_update` is `false`: ART's write
/// path locks one node at a time, so there is no single lock under which to
/// check presence and re-insert — `update` is the documented non-atomic
/// get-then-insert fallback.
pub const CAPS: Capabilities = Capabilities::ordered_index(false);

impl<P: PersistMode> Index for Art<P> {
    fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        if Art::insert(self, key, value) {
            Ok(OpResult::Inserted)
        } else {
            Ok(OpResult::Updated)
        }
    }

    // `exec_update` keeps the trait's default get-then-insert; `CAPS` reports it.

    fn exec_get(&self, key: &[u8]) -> Option<u64> {
        Art::get(self, key)
    }

    fn exec_remove(&self, key: &[u8]) -> Result<OpResult, OpError> {
        if Art::remove(self, key) {
            Ok(OpResult::Removed)
        } else {
            Err(OpError::NotFound)
        }
    }

    fn exec_scan(&self, start: &[u8], max: usize, out: &mut ScanBuf) {
        Art::scan_into(self, start, max, out);
    }

    fn capabilities(&self) -> Capabilities {
        CAPS
    }

    fn index_name(&self) -> String {
        if P::PERSISTENT {
            "P-ART".into()
        } else {
            "ART".into()
        }
    }

    /// Re-initialises every node lock through the tree's one walk; nothing more.
    fn recover(&self) {
        Art::recover(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe::key::u64_key;

    #[test]
    fn trait_impl_roundtrip() {
        use recipe::session::IndexExt;
        let t: PArt = Art::new();
        let idx: &dyn Index = &t;
        let mut h = idx.handle();
        assert_eq!(h.insert(&u64_key(1), 10), Ok(OpResult::Inserted));
        assert_eq!(h.insert(&u64_key(1), 11), Ok(OpResult::Updated));
        assert_eq!(h.get(&u64_key(1)), Some(11));
        assert_eq!(h.update(&u64_key(1), 12), Ok(OpResult::Updated));
        assert_eq!(h.update(&u64_key(2), 1), Err(OpError::NotFound));
        assert!(h.capabilities().scan && !h.capabilities().linearizable_update);
        assert_eq!(h.index_name(), "P-ART");
        assert_eq!(h.remove(&u64_key(1)), Ok(OpResult::Removed));
        assert_eq!(h.insert(&u64_key(3), 30), Ok(OpResult::Inserted));
    }

    #[test]
    fn recover_is_idempotent() {
        let t: PArt = Art::new();
        for i in 0..100u64 {
            t.insert(&u64_key(i), i);
        }
        t.recover();
        t.recover();
        for i in 0..100u64 {
            assert_eq!(Index::exec_get(&t, &u64_key(i)), Some(i));
        }
    }

    #[test]
    fn dram_art_name() {
        let t: DramArt = Art::new();
        assert_eq!(t.index_name(), "ART");
    }
}
