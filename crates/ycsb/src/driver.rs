//! Multi-threaded measurement driver.
//!
//! Mirrors the paper's procedure (§7): operations are statically partitioned across
//! threads, the load phase is executed first, then each run-phase partition is
//! executed by its own thread while the wall-clock time and the PM substrate's
//! per-operation counters (`clwb`, fences, node visits) are collected. **Every**
//! operation is timed end to end into a per-thread [`obs::Hist`] (wall-ns and
//! charged-ns), merged at phase end, so the p50/p90/p99/p999 columns of
//! [`PhaseResult`] are true full-distribution quantiles — the old every-8th-op
//! sampling systematically missed rare tail events between sample points.
//!
//! Each worker thread drives the index through its own session
//! [`recipe::session::Handle`]: operations run epoch-pinned with typed
//! results, range queries are read in place through a cursor over the handle's
//! reused [`recipe::session::ScanBuf`] (no allocation per scan), and the
//! per-thread [`HandleStats`] are merged into the phase result.

use crate::workload::{GeneratedWorkload, Op, Spec};
use recipe::session::{Handle, HandleStats, Index, IndexExt};
use std::time::Instant;

/// Result of executing one phase of a workload against one index.
#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    /// Total operations executed.
    pub ops: u64,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Throughput in million operations per second.
    pub mops: f64,
    /// Per-operation `clwb` count. This and the next two count the phase's
    /// worker threads only, whatever other threads of the process do.
    pub clwb_per_op: f64,
    /// Per-operation fence count.
    pub fence_per_op: f64,
    /// Per-operation node visits (LLC-miss proxy).
    pub node_visits_per_op: f64,
    /// Number of reads that found no value (sanity signal; should be ~0 for reads of
    /// loaded keys).
    pub failed_reads: u64,
    /// Median operation latency in nanoseconds, from the full wall-clock
    /// distribution (0 if the phase was empty).
    pub p50_ns: u64,
    /// 90th-percentile operation latency, in nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile operation latency, in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile operation latency, in nanoseconds.
    pub p999_ns: u64,
    /// Simulated PM nanoseconds charged per operation by the installed
    /// [`pm::latency::Model`] (read charges + deduplicated flushes + fences); 0 when
    /// the zero model is installed. The mean of `charged_hist`: only the phase's
    /// own operations count, whatever other threads of the process are charged.
    pub sim_ns_per_op: f64,
    /// Full wall-clock latency distribution (every operation recorded).
    pub wall_hist: obs::Hist,
    /// Full distribution of per-operation simulated PM charge (deterministic
    /// under the simulated clock).
    pub charged_hist: obs::Hist,
    /// Session statistics merged across every worker thread's handle.
    pub handle_stats: HandleStats,
}

/// Run `work(t, worker)` on threads `0..threads`, each with its own [`Worker`] and
/// in the caller's PM domain, and merge what they measured into one phase result.
/// Shared by this driver and the sharded one, so the quantile definitions cannot
/// drift.
pub(crate) fn run_workers(
    index: &dyn Index,
    threads: usize,
    work: impl Fn(usize, &mut Worker<'_>) + Sync,
) -> PhaseResult {
    let start = Instant::now();
    let (mut wall_hist, mut charged_hist) = (obs::Hist::new(), obs::Hist::new());
    let (mut handle_stats, mut failed_reads) = (HandleStats::default(), 0);
    let mut pm_work = pm::stats::Stats::default();
    let domain = &pm::Domain::current();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let work = &work;
                scope.spawn(move || {
                    let _d = domain.enter();
                    let before = pm::stats::snapshot_local();
                    let mut w = Worker::new(index);
                    work(t, &mut w);
                    let Worker { handle, wall, charged, failed_reads, .. } = w;
                    let stats = handle.stats();
                    // The handle drops on the thread that used it, inside the
                    // thread's own counter delta.
                    drop(handle);
                    let own = pm::stats::snapshot_local().since(&before);
                    (wall, charged, failed_reads, stats, own)
                })
            })
            .collect();
        for h in handles {
            let (wall, charged, failed, stats, pm) = h.join().expect("worker thread panicked");
            wall_hist.merge(&wall);
            charged_hist.merge(&charged);
            handle_stats.merge(&stats);
            failed_reads += failed;
            pm_work += pm;
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let ops = wall_hist.count();
    let per_op = pm_work.per_op(ops);
    PhaseResult {
        ops,
        secs,
        mops: ops as f64 / secs / 1e6,
        clwb_per_op: per_op.clwb,
        fence_per_op: per_op.fence,
        node_visits_per_op: per_op.node_visits,
        failed_reads,
        p50_ns: wall_hist.quantile(0.50),
        p90_ns: wall_hist.quantile(0.90),
        p99_ns: wall_hist.quantile(0.99),
        p999_ns: wall_hist.quantile(0.999),
        sim_ns_per_op: charged_hist.sum() as f64 / ops.max(1) as f64,
        wall_hist,
        charged_hist,
        handle_stats,
    }
}

/// Per-thread execution state: the session handle (which owns the buffer its
/// cursors scan into) and the two private latency histograms every operation
/// is recorded into (lock-free by ownership; merged once at phase end).
pub(crate) struct Worker<'a> {
    handle: Handle<'a>,
    supports_scan: bool,
    wall: obs::Hist,
    charged: obs::Hist,
    failed_reads: u64,
    /// End timestamp of the previous operation, doubling as the start of the
    /// next one: recording every operation (no sampling) costs one clock
    /// read per op instead of two.
    last_now: Instant,
    /// This thread's charged-ns total at the end of the previous operation,
    /// chained the same way (one `charged_local` read per op instead of two).
    last_charged: u64,
}

impl<'a> Worker<'a> {
    pub(crate) fn new(index: &'a dyn Index) -> Self {
        let handle = index.handle();
        Worker {
            supports_scan: handle.capabilities().scan,
            handle,
            wall: obs::Hist::new(),
            charged: obs::Hist::new(),
            failed_reads: 0,
            last_now: Instant::now(),
            last_charged: pm::latency::charged_local().total(),
        }
    }

    /// Re-anchor the chained timestamp and charge total. Call after any
    /// off-measurement work between `run_op` calls (e.g. the sharded driver
    /// generating its next op chunk) so that neither is attributed to the
    /// following operation.
    pub(crate) fn resync(&mut self) {
        self.last_now = Instant::now();
        self.last_charged = pm::latency::charged_local().total();
    }

    /// Execute one operation through the session handle, recording its
    /// end-to-end wall latency and simulated-PM charge.
    pub(crate) fn run_op(&mut self, op: &Op) {
        match op {
            Op::Insert(k, v) => {
                let _ = self.handle.insert(k, *v);
            }
            Op::Read(k) => {
                if self.handle.get(k).is_none() {
                    self.failed_reads += 1;
                }
            }
            Op::Scan(k, len) => {
                if self.supports_scan {
                    // One chunk per scan op: the measured cost stays one index
                    // descent per scan, like the flat interface this driver
                    // replaced, instead of one per cursor batch.
                    self.handle.set_scan_batch((*len).clamp(1, 4_096));
                    // Read every entry where the index wrote it. The checksum
                    // consumes each value and key, so the copy into the scan
                    // buffer is work the optimiser must keep.
                    let mut checksum = 0u64;
                    self.handle.scan(k).limit(*len).visit(|key, value| {
                        checksum = checksum.wrapping_add(value).wrapping_add(key.len() as u64);
                    });
                    std::hint::black_box(checksum);
                } else if self.handle.get(k).is_none() {
                    self.failed_reads += 1;
                }
            }
        }
        let now = Instant::now();
        self.wall.record((now - self.last_now).as_nanos() as u64);
        self.last_now = now;
        let charged = pm::latency::charged_local().total();
        self.charged.record(charged - self.last_charged);
        self.last_charged = charged;
    }
}

fn run_partitions(index: &dyn Index, partitions: &[Vec<Op>]) -> PhaseResult {
    run_workers(index, partitions.len(), |t, worker| {
        worker.resync();
        for op in &partitions[t] {
            worker.run_op(op);
        }
    })
}

/// Result of a full load + run execution.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The load phase (Load A).
    pub load: PhaseResult,
    /// The run phase (the spec's workload).
    pub run: PhaseResult,
}

/// Execute `workload` against `index`: load phase first, then the run phase.
/// Between the phases the index gets its [`Index::exec_settle`] maintenance pass
/// (untimed, like the load), so run-phase numbers measure the settled structure
/// rather than whatever the load's opportunistic reshaping left behind.
pub fn execute(index: &dyn Index, workload: &GeneratedWorkload) -> RunResult {
    let load = run_partitions(index, &workload.load);
    index.exec_settle();
    let run = run_partitions(index, &workload.run);
    RunResult { load, run }
}

/// Convenience: generate the workload for `spec` and execute it.
pub fn run_spec(index: &dyn Index, spec: &Spec) -> RunResult {
    let generated = crate::workload::generate(spec);
    execute(index, &generated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, KeyType, Spec, Workload};
    use parking_lot::RwLock;
    use recipe::session::{Capabilities, OpError, OpResult, ScanBuf};
    use std::collections::BTreeMap;

    struct Model {
        map: RwLock<BTreeMap<Vec<u8>, u64>>,
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

    #[test]
    fn driver_executes_all_ops_and_reads_succeed() {
        let spec = Spec {
            load_count: 2_000,
            op_count: 2_000,
            threads: 4,
            key_type: KeyType::RandInt,
            workload: Workload::A,
            ..Spec::default()
        };
        let wl = generate(&spec);
        let model = Model { map: RwLock::new(BTreeMap::new()) };
        let res = execute(&model, &wl);
        assert_eq!(res.load.ops, 2_000);
        assert_eq!(res.run.ops, 2_000);
        assert_eq!(res.run.failed_reads, 0, "reads of loaded keys must succeed");
        assert!(res.load.mops > 0.0);
        assert!(res.run.secs > 0.0);
        // Session stats cover the whole phase: the load is pure inserts.
        assert_eq!(res.load.handle_stats.inserts, 2_000);
        assert_eq!(res.run.handle_stats.ops(), 2_000);
    }

    /// A phase counts its workers' PM work, not PM work another thread does
    /// meanwhile, even a thread a worker spawned and joined.
    #[test]
    fn phase_counters_ignore_pm_work_of_other_threads() {
        let model = Model { map: RwLock::new(BTreeMap::new()) };
        let ops: Vec<Op> = (0..100).map(|i| Op::Insert(KeyType::RandInt.encode(i), i)).collect();
        let line = [0u8; 64];
        let phase = |other_thread: bool| {
            run_workers(&model, 1, |_, w| {
                pm::flush::clwb(line.as_ptr());
                if other_thread {
                    std::thread::scope(|s| {
                        s.spawn(|| (0..1_000).for_each(|_| pm::flush::clwb(line.as_ptr())));
                    });
                }
                w.resync();
                ops.iter().for_each(|op| w.run_op(op));
            })
        };
        let alone = phase(false);
        assert_eq!(alone.clwb_per_op, 0.01, "the worker's own flush counts");
        assert_eq!(phase(true).clwb_per_op, alone.clwb_per_op);
    }

    #[test]
    fn latency_histograms_cover_every_op_and_quantiles_are_ordered() {
        let spec = Spec {
            load_count: 4_000,
            op_count: 4_000,
            threads: 4,
            key_type: KeyType::RandInt,
            workload: Workload::A,
            ..Spec::default()
        };
        let model = Model { map: RwLock::new(BTreeMap::new()) };
        let res = run_spec(&model, &spec);
        for phase in [&res.load, &res.run] {
            // Full distribution: one record per executed operation.
            assert_eq!(phase.wall_hist.count(), phase.ops);
            assert_eq!(phase.charged_hist.count(), phase.ops);
            assert!(phase.p50_ns > 0, "phases must report a median");
            assert!(
                phase.p50_ns <= phase.p90_ns
                    && phase.p90_ns <= phase.p99_ns
                    && phase.p99_ns <= phase.p999_ns,
                "quantiles must be monotone: p50={} p90={} p99={} p999={}",
                phase.p50_ns,
                phase.p90_ns,
                phase.p99_ns,
                phase.p999_ns
            );
            assert!(phase.p999_ns <= phase.wall_hist.max());
        }
    }

    #[test]
    fn scan_workload_runs_against_scannable_index() {
        let spec = Spec {
            load_count: 1_000,
            op_count: 500,
            threads: 2,
            workload: Workload::E,
            scan_max: 10,
            ..Spec::default()
        };
        let model = Model { map: RwLock::new(BTreeMap::new()) };
        let res = run_spec(&model, &spec);
        assert_eq!(res.run.ops, 500);
        assert_eq!(res.run.failed_reads, 0);
        assert!(res.run.handle_stats.scans > 0, "workload E must open cursors");
        assert!(res.run.handle_stats.entries_scanned >= res.run.handle_stats.scans);
    }
}
