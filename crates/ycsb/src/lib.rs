//! # YCSB workload generation and measurement driver
//!
//! Reproduces the evaluation methodology of the RECIPE paper (§7): YCSB workloads
//! Load A / A / B / C / E over 8-byte random-integer keys and 24-byte string keys,
//! uniformly distributed, statically partitioned across threads, measured as
//! throughput (Mops/s) plus the per-operation counters (`clwb`, fences, node visits)
//! that explain the throughput differences.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod driver;
pub mod shard;
pub mod workload;
pub mod zipf;

pub use driver::{execute, run_spec, PhaseResult, RunResult};
pub use shard::{peak_resident_ops, reset_peak_resident_ops, run_spec_sharded, DEFAULT_CHUNK_OPS};
pub use workload::{generate, id_value, GeneratedWorkload, KeyType, Op, OpKey, Spec, Workload};
