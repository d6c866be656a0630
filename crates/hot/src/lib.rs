//! # HOT / P-HOT — Height-Optimized Trie and its RECIPE conversion (Condition #1)
//!
//! HOT (Binna et al., SIGMOD '18) keeps trie height low by letting every node
//! discriminate on a dynamically chosen set of key *bits* rather than fixed byte
//! boundaries, and stores no full keys in inner nodes — lookups touch few cache lines
//! and verify the key only at the leaf. Writers use copy-on-write / single-pointer
//! commits under per-node write exclusion; readers are non-blocking.
//!
//! Every update — filling an empty child slot, installing a freshly built branch node,
//! or updating a leaf value — becomes visible through a **single hardware-atomic
//! store**, so HOT satisfies RECIPE's Condition #1 and P-HOT is obtained by inserting
//! cache-line flushes and fences after those stores (38 modified LOC in the paper).
//!
//! ## Faithfulness note
//!
//! The original HOT packs discriminative bits into SIMD-searchable compound nodes with
//! several physical layouts. This reproduction keeps the properties RECIPE relies on —
//! bit-level discrimination with path skipping (low height), no key material in inner
//! nodes, copy-on-write subtree construction committed by one atomic pointer swap,
//! non-blocking readers — and since the speed pass it also widens hot subtrees into
//! SIMD-searched compound nodes ([`compound`]) stacking up to three discriminative-bit
//! windows, resolved in one node visit via the same vectorized primitive the ART
//! nodes use. The remaining substitution (two physical layouts instead of HOT's
//! several) is recorded in `DESIGN.md`.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod bits;
pub mod compound;
pub mod trie;

pub use trie::Hot;

/// Every crash site this crate can emit, for the §5 per-site exhaustive sweep.
pub const CRASH_SITES: &[&str] = &[
    "hot.insert.root_leaf_persisted",
    "hot.insert.root_committed",
    "hot.insert.leaf_persisted",
    "hot.insert.slot_committed",
    "hot.branch.built",
    "hot.branch.committed",
    "hot.remove.committed",
    // Compound-node widening (and the inverse plain-node rebuild on overflow):
    // built aside, flushed, then published with one parent-slot store.
    "hot.widen.built",
    "hot.widen.flushed",
    "hot.widen.committed",
];

use recipe::persist::{Dram, PersistMode, Pmem};
use recipe::session::{Capabilities, Index, OpError, OpResult, ScanBuf};

/// The unconverted DRAM height-optimized trie.
pub type DramHot = Hot<Dram>;
/// P-HOT: the RECIPE-converted persistent height-optimized trie.
pub type PHot = Hot<Pmem>;

/// What this index supports. `linearizable_update` is `false`: HOT's write
/// path locks one node at a time, so there is no single lock under which to
/// check presence and re-insert — `update` is the documented non-atomic
/// get-then-insert fallback.
pub const CAPS: Capabilities = Capabilities::ordered_index(false);

impl<P: PersistMode> Index for Hot<P> {
    fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        if Hot::insert(self, key, value) {
            Ok(OpResult::Inserted)
        } else {
            Ok(OpResult::Updated)
        }
    }

    // `exec_update` keeps the trait's default get-then-insert; `CAPS` reports it.

    fn exec_get(&self, key: &[u8]) -> Option<u64> {
        Hot::get(self, key)
    }

    fn exec_remove(&self, key: &[u8]) -> Result<OpResult, OpError> {
        if Hot::remove(self, key) {
            Ok(OpResult::Removed)
        } else {
            Err(OpError::NotFound)
        }
    }

    fn exec_scan(&self, start: &[u8], max: usize, out: &mut ScanBuf) {
        Hot::scan_into(self, start, max, out);
    }

    fn exec_settle(&self) {
        self.widen_all();
    }

    fn capabilities(&self) -> Capabilities {
        CAPS
    }

    fn index_name(&self) -> String {
        if P::PERSISTENT {
            "P-HOT".into()
        } else {
            "HOT".into()
        }
    }

    /// Re-initialises the root lock and every node lock, and clears the volatile
    /// obsolete hints, through the trie's one walk; nothing more.
    fn recover(&self) {
        Hot::recover(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe::key::u64_key;

    #[test]
    fn trait_impl_roundtrip() {
        use recipe::session::IndexExt;
        let t: PHot = Hot::new();
        let idx: &dyn Index = &t;
        let mut h = idx.handle();
        assert_eq!(h.insert(&u64_key(10), 100), Ok(OpResult::Inserted));
        assert_eq!(h.insert(&u64_key(10), 101), Ok(OpResult::Updated));
        assert_eq!(h.get(&u64_key(10)), Some(101));
        assert_eq!(h.update(&u64_key(10), 102), Ok(OpResult::Updated));
        assert_eq!(h.update(&u64_key(11), 1), Err(OpError::NotFound));
        assert!(h.capabilities().scan && !h.capabilities().linearizable_update);
        assert_eq!(h.index_name(), "P-HOT");
        assert_eq!(DramHot::new().index_name(), "HOT");
        assert_eq!(h.remove(&u64_key(10)), Ok(OpResult::Removed));
    }

    #[test]
    fn recovery_after_forced_lock() {
        let t: PHot = Hot::new();
        for i in 0..200u64 {
            t.insert(&u64_key(i), i);
        }
        t.recover();
        for i in 0..200u64 {
            assert_eq!(Index::exec_get(&t, &u64_key(i)), Some(i));
        }
    }
}
