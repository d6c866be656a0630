//! # `harness` — the workspace's integration layer
//!
//! Home of the cross-index [`registry`] plus the integration tests and examples
//! that exercise every index through the session API ([`recipe::session::Index`]
//! objects driven by per-thread [`recipe::session::Handle`]s):
//!
//! * `tests/conformance.rs` — §2.1 interface semantics against a `BTreeMap` model;
//! * `tests/registry_smoke.rs` — the registry itself, in both policy modes;
//! * `tests/crash_and_durability.rs` — §5 crash-recovery and durability gates;
//! * `tests/proptest_indexes.rs` — randomized operation sequences vs the model;
//! * `tests/ycsb_smoke.rs` — §7 YCSB methodology end-to-end at a small scale;
//! * `examples/` — quickstart, crash-recovery walkthrough, session-store scenario.
//!
//! Everything that needs "all the indexes" — these tests, the examples, and the
//! `bench` crate's figure binaries — enumerates them through
//! [`registry::all_indexes`] instead of hand-maintaining its own list.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod registry;

pub use registry::{all_indexes, IndexEntry, PolicyMode};
