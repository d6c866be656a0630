//! # `recipe` — the RECIPE conversion approach, as a library
//!
//! RECIPE (SOSP '19) is a principled approach for converting concurrent DRAM indexes
//! into crash-consistent persistent-memory (PM) indexes. Its central insight: indexes
//! whose non-blocking reads already *tolerate* inconsistent intermediate states, and
//! whose writes either commit through a single atomic store or can *fix* such states,
//! already contain their own crash-recovery logic — converting them to PM only
//! requires ordering and flushing stores (plus, for one class, a small helper).
//!
//! This crate is the core of the reproduction:
//!
//! * [`persist`] — the conversion expressed as a **persistence policy** type
//!   parameter. Every index in the workspace is written once, generic over
//!   [`persist::PersistMode`]; instantiating it with [`persist::Dram`] yields the
//!   original concurrent DRAM index (all persistence calls compile to nothing), and
//!   with [`persist::Pmem`] yields the RECIPE-converted PM index (cache-line flushes +
//!   fences through the [`pm`] substrate, crash sites armed, durability tracking).
//! * [`condition`] — the three RECIPE conditions and the catalogue of converted
//!   indexes (the paper's Tables 1 and 2).
//! * [`session`] — the **primary index interface**: each index implements the
//!   typed [`session::Index`] trait once, callers open per-thread
//!   [`session::Handle`]s that return typed results ([`session::OpResult`] /
//!   [`session::OpError`]), stream range queries through resumable
//!   [`session::Scanner`] cursors over one flat reused [`session::ScanBuf`]
//!   (no allocation per scan), report structure capabilities
//!   ([`session::Capabilities`]), pin an epoch guard around every
//!   operation, and re-initialise locks after a crash
//!   ([`session::Index::recover`], the restart step RECIPE assumes).
//! * [`epoch`] — epoch-based memory reclamation for the lock-free indexes:
//!   per-thread announcement slots, reentrant pinning, deferred frees with a
//!   retired-bytes gauge (what bounds Bw-tree memory in delete-heavy runs).
//! * [`lock`] — the versioned word spin-lock embedded in index nodes, with the
//!   try-lock primitive used for permanent-inconsistency detection (Condition #3) and
//!   explicit re-initialisation for recovery.
//! * [`simd`] — branch-free intra-node key search (SSE2 on x86-64, NEON on
//!   aarch64, a scalar loop elsewhere; chosen at compile time) shared by the trie
//!   crates' node search routines.
//! * [`key`] — order-preserving key encodings and the hash function shared by the
//!   unordered indexes.
//!
//! The individual index crates (`clht`, `art-index`, `hot-trie`, `bwtree`, `masstree`)
//! implement the five conversions from the paper's case studies (§6); `fastfair`,
//! `cceh`, `levelhash` and `woart` implement the hand-crafted PM baselines it is
//! evaluated against (§7). The workspace `examples/` directory shows end-to-end usage.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod condition;
pub mod epoch;
pub mod key;
pub mod lock;
pub mod persist;
pub mod session;
pub mod simd;

pub use condition::{catalog, CatalogEntry, Condition};
pub use persist::{Dram, PersistMode, Pmem};
pub use session::{
    Capabilities, Handle, HandleStats, Index, IndexExt, OpError, OpResult, ScanBuf, Scanner,
};
