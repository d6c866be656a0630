//! Sharded, chunked workload execution for large-scale runs.
//!
//! [`crate::workload::generate`] materialises every operation of both phases up
//! front — one `Vec<Op>` per thread. At the ROADMAP scale
//! (`RECIPE_OPS_N = 2M × 16 threads`) that is a multi-hundred-MB allocation spike
//! *before the first operation runs*, all of it dead weight once the phase finishes.
//!
//! This module generates operations **per thread, in chunks**: each worker owns
//! one reusable buffer of at most `chunk` operations, fills it from a
//! deterministic per-thread generator, executes it, and refills. Peak op-buffer
//! footprint drops from `O(load + ops)` to `O(threads × chunk)` regardless of
//! scale, which [`peak_resident_ops`] makes observable (and the regression test
//! pins down). An `Op` holds its key inline ([`crate::workload::OpKey`]), so
//! refilling the buffer allocates nothing.
//!
//! Generation differs from `generate` only in how identifiers are drawn: keys are
//! pure functions of `(seed, phase, thread, index)` (so no global uniqueness set
//! is needed), run-phase reads target load-phase keys exactly as before, and the
//! same-spec stream is fully deterministic.
//!
//! Run-phase insert identifiers are **not** disjoint from loaded ones. `mix64` is a
//! bijection and both derivations XOR the index into the same input, so
//! `fresh_insert_id(s, t, j) == load_key_id(s, t, j ^ 0xE448)`: insert `j` of thread
//! `t` re-inserts that thread's loaded key `j ^ 0xE448` whenever that index was
//! loaded. With 100 000 loaded keys over 2 threads and seed `mix64(0x5EED)` (YCSB A
//! as the repo benchmark runs it), 50 058 of the 99 896 run-phase inserts overwrite
//! a loaded key; with 25 000 loaded keys per thread, inserts below index `0x4000`
//! never reach one. Such an insert is an upsert of the same derived value, so every
//! check stays valid, but it measures an update where the mix names an insert of a
//! new key. Deriving the two identifier sets from disjoint inputs fixes it and
//! changes every run-phase key stream.

use crate::driver::{run_workers, PhaseResult, RunResult};
use crate::workload::{id_value, Op, Spec};
use recipe::session::Index;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Default operations per per-thread chunk buffer.
pub const DEFAULT_CHUNK_OPS: usize = 8_192;

static RESIDENT_OPS: AtomicI64 = AtomicI64::new(0);
static PEAK_RESIDENT_OPS: AtomicU64 = AtomicU64::new(0);

fn gauge_add(n: usize) {
    let now = RESIDENT_OPS.fetch_add(n as i64, Ordering::Relaxed) + n as i64;
    PEAK_RESIDENT_OPS.fetch_max(now.max(0) as u64, Ordering::Relaxed);
}

fn gauge_sub(n: usize) {
    RESIDENT_OPS.fetch_sub(n as i64, Ordering::Relaxed);
}

/// Highest number of generated-but-unexecuted operations resident at any point
/// since [`reset_peak_resident_ops`] — the op-buffer footprint, in operations
/// (every `Op` is the same size, key included, so ops are the right unit).
#[must_use]
pub fn peak_resident_ops() -> u64 {
    PEAK_RESIDENT_OPS.load(Ordering::Relaxed)
}

/// Reset the peak gauge (tests and per-run reporting).
pub fn reset_peak_resident_ops() {
    PEAK_RESIDENT_OPS.store(0, Ordering::Relaxed);
}

use pm::mix64;

/// Operations thread `t` of `threads` owns out of `total` (round-robin split,
/// matching the up-front generator's partition sizes).
#[must_use]
pub fn thread_share(total: usize, threads: usize, t: usize) -> usize {
    total / threads + usize::from(t < total % threads)
}

/// The `i`-th load-phase identifier of thread `t` — a pure function, so run-phase
/// readers can re-derive any loaded key without a shared key table.
#[inline]
#[must_use]
pub fn load_key_id(seed: u64, t: usize, i: usize) -> u64 {
    // Avoid u64::MAX (reserved by the hash-table sentinel mapping).
    mix64(seed ^ 0x10AD ^ ((t as u64) << 40) ^ i as u64) & (u64::MAX - 1)
}

fn fresh_insert_id(seed: u64, t: usize, j: usize) -> u64 {
    mix64(seed ^ 0xF4E5 ^ ((t as u64) << 40) ^ j as u64) & (u64::MAX - 1)
}

enum Phase {
    Load,
    Run,
}

/// Generate thread `t`'s operation `j` of the given phase.
fn gen_op(spec: &Spec, phase: &Phase, threads: usize, t: usize, j: usize) -> Op {
    match phase {
        Phase::Load => {
            let id = load_key_id(spec.seed, t, j);
            Op::Insert(spec.key_type.encode(id), id_value(id))
        }
        Phase::Run => {
            let r = mix64(spec.seed ^ 0x2BAD ^ ((t as u64) << 40) ^ j as u64);
            let (read_pct, insert_pct, _scan) = spec.workload.mix();
            let dice = (r % 100) as u32;
            if dice < read_pct {
                let lt = (r >> 8) as usize % threads;
                let li = (r >> 24) as usize % thread_share(spec.load_count, threads, lt).max(1);
                Op::Read(spec.key_type.encode(load_key_id(spec.seed, lt, li)))
            } else if dice < read_pct + insert_pct {
                let id = fresh_insert_id(spec.seed, t, j);
                Op::Insert(spec.key_type.encode(id), id_value(id))
            } else {
                let lt = (r >> 8) as usize % threads;
                let li = (r >> 24) as usize % thread_share(spec.load_count, threads, lt).max(1);
                let len = 1 + (r >> 48) as usize % spec.scan_max.max(1);
                Op::Scan(spec.key_type.encode(load_key_id(spec.seed, lt, li)), len)
            }
        }
    }
}

fn run_phase(index: &dyn Index, spec: &Spec, phase: &Phase, chunk: usize) -> PhaseResult {
    let threads = spec.threads.max(1);
    let chunk = chunk.max(1);
    let total = match phase {
        Phase::Load => spec.load_count,
        Phase::Run => spec.op_count,
    };
    run_workers(index, threads, |t, worker| {
        let my_ops = thread_share(total, threads, t);
        let mut buf: Vec<Op> = Vec::with_capacity(chunk.min(my_ops));
        let mut done = 0usize;
        while done < my_ops {
            let n = chunk.min(my_ops - done);
            buf.clear();
            for j in done..done + n {
                buf.push(gen_op(spec, phase, threads, t, j));
            }
            gauge_add(n);
            // Chunk generation above is not operation latency.
            worker.resync();
            for op in buf.iter() {
                worker.run_op(op);
            }
            gauge_sub(n);
            done += n;
        }
    })
}

/// Execute `spec` against `index` with chunked per-thread generation: load phase
/// first, then the run phase. Op-buffer footprint is bounded by
/// `threads × chunk` operations. Like [`crate::driver::execute`], every worker
/// thread drives the index through its own session handle, and the index gets
/// its untimed [`Index::exec_settle`] maintenance pass between the phases.
pub fn run_spec_sharded(index: &dyn Index, spec: &Spec, chunk: usize) -> RunResult {
    let load = run_phase(index, spec, &Phase::Load, chunk);
    index.exec_settle();
    let run = run_phase(index, spec, &Phase::Run, chunk);
    RunResult { load, run }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{KeyType, Workload};
    use parking_lot::RwLock;
    use recipe::session::{Capabilities, OpError, OpResult, ScanBuf};
    use std::collections::BTreeMap;

    /// The resident-ops gauge is process-global, so tests that execute sharded
    /// runs serialize: concurrent runs would stack their chunks and break the
    /// footprint bound.
    static GAUGE_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    struct Model {
        map: RwLock<BTreeMap<Vec<u8>, u64>>,
    }

    impl Model {
        fn new() -> Model {
            Model { map: RwLock::new(BTreeMap::new()) }
        }
    }

    impl Index for Model {
        fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
            match self.map.write().insert(key.to_vec(), value) {
                None => Ok(OpResult::Inserted),
                Some(_) => Ok(OpResult::Updated),
            }
        }
        fn exec_get(&self, key: &[u8]) -> Option<u64> {
            self.map.read().get(key).copied()
        }
        fn exec_remove(&self, key: &[u8]) -> Result<OpResult, OpError> {
            match self.map.write().remove(key) {
                Some(_) => Ok(OpResult::Removed),
                None => Err(OpError::NotFound),
            }
        }
        fn exec_scan(&self, start: &[u8], max: usize, out: &mut ScanBuf) {
            for (k, v) in self.map.read().range(start.to_vec()..).take(max) {
                out.push(k, *v);
            }
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities::ordered_index(true)
        }
        fn index_name(&self) -> String {
            "model".into()
        }
        fn recover(&self) {}
    }

    fn spec(workload: Workload) -> Spec {
        Spec {
            load_count: 6_000,
            op_count: 6_000,
            threads: 4,
            key_type: KeyType::RandInt,
            workload,
            scan_max: 10,
            seed: 0x51A2,
        }
    }

    #[test]
    fn sharded_run_executes_all_ops_and_reads_succeed() {
        let _g = GAUGE_LOCK.lock();
        let model = Model::new();
        let res = run_spec_sharded(&model, &spec(Workload::A), 512);
        assert_eq!(res.load.ops, 6_000);
        assert_eq!(res.run.ops, 6_000);
        assert_eq!(res.run.failed_reads, 0, "run-phase reads must hit loaded keys");
        let len = model.map.read().len();
        assert!((8_000..=10_000).contains(&len), "~50% run-phase inserts, got {len}");
        assert!(res.load.mops > 0.0);
        assert!(res.load.p50_ns > 0 && res.load.p50_ns <= res.load.p99_ns);
    }

    #[test]
    fn sharded_generation_is_deterministic() {
        let _g = GAUGE_LOCK.lock();
        let s = spec(Workload::B);
        let a = Model::new();
        let b = Model::new();
        let ra = run_spec_sharded(&a, &s, 256);
        let rb = run_spec_sharded(&b, &s, 1024);
        // Same spec => same operation set, independent of chunking.
        assert_eq!(*a.map.read(), *b.map.read());
        assert_eq!(ra.run.failed_reads, 0);
        assert_eq!(rb.run.failed_reads, 0);
    }

    #[test]
    fn peak_op_buffer_footprint_is_bounded_by_threads_times_chunk() {
        let _g = GAUGE_LOCK.lock();
        let s = spec(Workload::A); // 12k total ops across both phases
        let chunk = 256usize;
        reset_peak_resident_ops();
        let model = Model::new();
        let _ = run_spec_sharded(&model, &s, chunk);
        let peak = peak_resident_ops();
        assert!(peak > 0, "gauge must observe resident chunks");
        let bound = (s.threads * chunk) as u64;
        assert!(peak <= bound, "peak {peak} exceeds threads*chunk bound {bound}");
        // The regression this guards: the up-front generator's footprint is the
        // whole phase. Chunked execution must stay far below it.
        assert!(peak * 4 < s.load_count as u64, "footprint no longer bounded: {peak}");
    }

    #[test]
    fn scan_workload_runs_sharded() {
        let _g = GAUGE_LOCK.lock();
        let model = Model::new();
        let res = run_spec_sharded(&model, &spec(Workload::E), 128);
        assert_eq!(res.run.ops, 6_000);
        assert_eq!(res.run.failed_reads, 0);
    }

    #[test]
    fn thread_share_partitions_exactly() {
        for (total, threads) in [(10usize, 3usize), (0, 4), (7, 7), (1_000_001, 16)] {
            let sum: usize = (0..threads).map(|t| thread_share(total, threads, t)).sum();
            assert_eq!(sum, total, "{total}/{threads}");
        }
    }

    #[test]
    fn load_key_ids_are_distinct_in_practice() {
        let mut seen = std::collections::HashSet::new();
        for t in 0..4 {
            for i in 0..10_000 {
                seen.insert(load_key_id(0x5EED, t, i));
            }
        }
        assert_eq!(seen.len(), 40_000, "id collisions at toy scale");
    }

    /// Order-dependent fold of an op stream: kind, key bytes, value or length.
    fn digest<'a>(ops: impl IntoIterator<Item = &'a Op>) -> u64 {
        ops.into_iter().fold(0u64, |h, op| {
            let (tag, key, n) = match op {
                Op::Insert(k, v) => (1, &k[..], *v),
                Op::Read(k) => (2, &k[..], 0),
                Op::Scan(k, len) => (3, &k[..], *len as u64),
            };
            mix64(h ^ recipe::key::hash64(key)).wrapping_add(n).wrapping_mul(31).wrapping_add(tag)
        })
    }

    /// Both generators feed the indexes exactly the keys, values and scan lengths
    /// they fed them when every `Op` owned a `Vec<u8>`: the first 10 000 ops
    /// (5 000 loads, 5 000 run ops) of workloads A and E, for both key types,
    /// hash to the values recorded before the key became an inline `OpKey`.
    #[test]
    fn op_streams_are_pinned_for_both_key_types() {
        let mut got = Vec::new();
        for key_type in [KeyType::RandInt, KeyType::String24] {
            let (mut sharded, mut upfront) = (Vec::new(), Vec::new());
            for workload in [Workload::A, Workload::E] {
                let s = Spec { key_type, ..spec(workload) };
                let s = Spec { load_count: 5_000, op_count: 5_000, threads: 3, ..s };
                for (phase, total) in [(Phase::Load, s.load_count), (Phase::Run, s.op_count)] {
                    for t in 0..s.threads {
                        let n = thread_share(total, s.threads, t);
                        sharded.extend((0..n).map(|j| gen_op(&s, &phase, s.threads, t, j)));
                    }
                }
                let g = crate::workload::generate(&s);
                upfront.extend(g.load.into_iter().chain(g.run).flatten());
            }
            assert_eq!((sharded.len(), upfront.len()), (20_000, 20_000));
            got.push((digest(&sharded), digest(&upfront)));
        }
        let recorded = [
            (0xf54f_fb86_f50a_3732, 0x9520_4ab3_d938_868d),
            (0x2678_f857_689f_7b00, 0xf939_a301_df45_1e98),
        ];
        assert_eq!(got, recorded);
    }
}
