//! Closed- and open-loop load generation against a [`Service`], with skewed
//! key choice, deadline decoration, and exact run-local latency reporting.
//!
//! Keys are drawn from a [`ycsb::zipf::ZipfGen`] — Zipfian skew with optional
//! hot-key churn — so the router and admission control face the realistic
//! case: a few hot keys hammering one shard while the rest idle. The
//! closed-loop driver measures end-to-end (enqueue-to-commit) latency through
//! the per-shard `service.shard{i}.latency_ns` histograms and reports exact
//! p50/p90/p99/p999 per shard **for this run only** (start-of-run marks are
//! diffed out with [`obs::Hist::diff`], so back-to-back runs in one process
//! don't contaminate each other); the open-loop driver fires casts as fast as
//! the submission path accepts them, which under a small queue bound is an
//! overload test: the interesting output is the typed shed accounting.
//!
//! Two envelope knobs turn a plain run into the overload experiments the
//! service is built for:
//!
//! * [`LoadgenConfig::deadline_ns`] decorates every request with a
//!   [`crate::Deadline`]: under open-loop overload the queue-age check bounds
//!   completed-op tail latency, converting unbounded queueing delay into
//!   exactly-accounted [`crate::ShedReason::DeadlineExceeded`] sheds.
//! * [`LoadgenConfig::stream_ms`] attaches an [`obs::SnapshotStream`] and
//!   reports a [`TimelinePoint`] per captured snapshot — the in-flight view
//!   of a live migration or an overload onset, instead of end-of-run totals.
//!
//! Both drivers also report the *charged* simulated-PM cost per executed
//! operation ([`pm::latency`]) and the number of fences elided by batching
//! ([`pm::flush::elided_fences`]) — the direct evidence that group commit
//! amortizes durability cost: at the same offered load, a larger `max_batch`
//! yields fewer charged fence-nanoseconds per op.

use crate::service::Service;
use crate::shard::ShardStats;
use crate::{Deadline, Op, ReplyBody, Request};
use obs::{SnapshotStream, StreamConfig, StreamedSnapshot, Value};
use recipe::key::u64_key;
use ycsb::zipf::ZipfGen;

/// Load-generation knobs.
#[derive(Debug, Clone, Copy)]
pub struct LoadgenConfig {
    /// Keyspace size (items the Zipfian draws from).
    pub keys: u64,
    /// Total operations to offer.
    pub ops: u64,
    /// Zipfian skew exponent in `(0, 1)`; [`ycsb::zipf::DEFAULT_THETA`] = 0.99.
    pub theta: f64,
    /// Rotate the hot set every this many samples per thread (0 = static).
    pub churn: u64,
    /// Percent of operations that are lookups.
    pub read_pct: u8,
    /// Percent of operations that are removes (rest are upserts).
    pub remove_pct: u8,
    /// Closed-loop driver threads ([`run_open_loop`] ignores this).
    pub threads: usize,
    /// Determinism root; every key/op choice is a pure function of it.
    pub seed: u64,
    /// Latency budget attached to every request, in ns of queue age
    /// (0 = no deadline).
    pub deadline_ns: u64,
    /// Capture a metrics snapshot every this many milliseconds during the
    /// run and report the per-point [`TimelinePoint`]s (0 = no streaming).
    pub stream_ms: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            keys: 10_000,
            ops: 50_000,
            theta: ycsb::zipf::DEFAULT_THETA,
            churn: 0,
            read_pct: 50,
            remove_pct: 10,
            threads: 2,
            seed: 0x5EED,
            deadline_ns: 0,
            stream_ms: 0,
        }
    }
}

/// Exact latency quantiles for one shard, in nanoseconds, for **this run**:
/// the shard's cumulative `service.shard{i}.latency_ns` histogram minus its
/// start-of-run mark ([`obs::Hist::diff`]). Only executed operations record
/// latency — a deadline-shed request contributes a shed count, not a sample.
#[derive(Debug, Clone, Copy)]
pub struct ShardLatency {
    /// Shard id.
    pub shard: usize,
    /// Samples recorded during the run.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// One captured point of the run's metrics stream, reduced to the service's
/// totals at that instant (counters are process-cumulative; consumers diff
/// consecutive points for rates).
#[derive(Debug, Clone, Copy)]
pub struct TimelinePoint {
    /// Milliseconds since the stream started.
    pub at_ms: u64,
    /// Σ `service.shard*.completed` at capture time.
    pub completed: u64,
    /// Σ `service.shard*.shed.queue_full`.
    pub shed_queue_full: u64,
    /// Σ `service.shard*.shed.deadline`.
    pub shed_deadline: u64,
    /// Σ `service.shard*.forwarded` (migration in progress when this moves).
    pub forwarded: u64,
    /// Σ `service.shard*.migrated_in`.
    pub migrated_in: u64,
}

impl TimelinePoint {
    fn from_snapshot(p: &StreamedSnapshot) -> TimelinePoint {
        let sum = |suffix: &str| -> u64 {
            p.snapshot
                .samples
                .iter()
                .filter(|s| s.name.starts_with("service.shard") && s.name.ends_with(suffix))
                .map(|s| match &s.value {
                    Value::Counter(v) => *v,
                    _ => 0,
                })
                .sum()
        };
        TimelinePoint {
            at_ms: p.at_ms,
            completed: sum(".completed"),
            shed_queue_full: sum(".shed.queue_full"),
            shed_deadline: sum(".shed.deadline"),
            forwarded: sum(".forwarded"),
            migrated_in: sum(".migrated_in"),
        }
    }
}

/// What a load run did and what it cost.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Operations offered to the service.
    pub offered: u64,
    /// Operations executed and committed.
    pub completed: u64,
    /// Operations shed at admission (queue full).
    pub shed_queue_full: u64,
    /// Operations shed by index capacity.
    pub shed_index_capacity: u64,
    /// Operations dropped unexecuted because their queue age exceeded their
    /// deadline budget.
    pub shed_deadline: u64,
    /// Index-level typed errors (e.g. remove of an absent key). These
    /// *executed*; they are a workload property, not a service failure.
    pub errors: u64,
    /// Group-commit batches across all shards.
    pub batches: u64,
    /// Per-shard run-local latency quantiles, indexed by shard.
    pub latency: Vec<ShardLatency>,
    /// Streamed metrics timeline (empty unless `stream_ms > 0`).
    pub timeline: Vec<TimelinePoint>,
    /// Simulated-PM nanoseconds charged during the run (all threads).
    pub charged_ns: u64,
    /// Fences elided by batching during the run.
    pub elided_fences: u64,
    /// Final per-shard stats snapshots.
    pub per_shard: Vec<ShardStats>,
}

impl LoadReport {
    /// Mean charged simulated-PM nanoseconds per executed operation — the
    /// batching-amortization figure of merit.
    #[must_use]
    pub fn charged_ns_per_op(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.charged_ns as f64 / self.completed as f64
        }
    }

    /// Mean jobs per group-commit batch across shards.
    #[must_use]
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }

    /// Worst per-shard p999 of the run, in ns — the headline number the
    /// deadline experiment bounds.
    #[must_use]
    pub fn max_p999(&self) -> u64 {
        self.latency.iter().map(|l| l.p999).max().unwrap_or(0)
    }
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "offered {} completed {} shed(queue) {} shed(capacity) {} shed(deadline) {} errors {}",
            self.offered,
            self.completed,
            self.shed_queue_full,
            self.shed_index_capacity,
            self.shed_deadline,
            self.errors
        )?;
        writeln!(
            f,
            "batches {} (mean {:.1} ops) charged {:.0} ns/op, {} fences elided",
            self.batches,
            self.mean_batch(),
            self.charged_ns_per_op(),
            self.elided_fences
        )?;
        for l in &self.latency {
            writeln!(
                f,
                "shard {}: n={} p50={}ns p90={}ns p99={}ns p999={}ns",
                l.shard, l.count, l.p50, l.p90, l.p99, l.p999
            )?;
        }
        for (i, t) in self.timeline.iter().enumerate() {
            writeln!(
                f,
                "t[{i}] +{}ms: completed {} shed(queue) {} shed(deadline) {} forwarded {} migrated_in {}",
                t.at_ms, t.completed, t.shed_queue_full, t.shed_deadline, t.forwarded, t.migrated_in
            )?;
        }
        Ok(())
    }
}

/// The op for global sample number `i` of a run (pure function of the seed).
fn op_at(cfg: &LoadgenConfig, zipf: &ZipfGen, i: u64) -> Op {
    let key = u64_key(zipf.item_at(i)).to_vec();
    let roll = pm::mix64(cfg.seed ^ 0x09F5 ^ i) % 100;
    if roll < u64::from(cfg.read_pct) {
        Op::Get(key)
    } else if roll < u64::from(cfg.read_pct) + u64::from(cfg.remove_pct) {
        Op::Remove(key)
    } else {
        Op::Insert(key, i)
    }
}

/// The request envelope for sample `i`: the op, decorated with the run's
/// deadline when one is configured.
fn req_at(cfg: &LoadgenConfig, zipf: &ZipfGen, i: u64) -> Request {
    let req = Request::new(op_at(cfg, zipf, i));
    if cfg.deadline_ns > 0 {
        req.with_deadline(Deadline::from_nanos(cfg.deadline_ns))
    } else {
        req
    }
}

/// Start-of-run marks: the cost counters and each shard's latency histogram
/// (all process-cumulative; the run's numbers are diffs against these).
struct RunMark {
    charged_ns: u64,
    elided: u64,
    latency: Vec<obs::Hist>,
}

impl RunMark {
    fn now(svc: &Service) -> RunMark {
        RunMark {
            charged_ns: pm::latency::charged().total(),
            elided: pm::flush::elided_fences(),
            latency: (0..svc.shard_count())
                .map(|s| obs::histogram(&format!("service.shard{s}.latency_ns")).snapshot())
                .collect(),
        }
    }
}

fn gather(
    svc: &Service,
    offered: u64,
    errors: u64,
    mark: &RunMark,
    stream: Option<SnapshotStream>,
) -> LoadReport {
    svc.drain();
    let timeline: Vec<TimelinePoint> = stream
        .map(|s| s.stop().iter().map(TimelinePoint::from_snapshot).collect())
        .unwrap_or_default();
    let per_shard = svc.stats();
    let empty = obs::Hist::new();
    let latency = (0..per_shard.len())
        .map(|s| {
            let cum = obs::histogram(&format!("service.shard{s}.latency_ns")).snapshot();
            // Shards spawned mid-run (a live split) diff against empty.
            let h = cum.diff(mark.latency.get(s).unwrap_or(&empty));
            ShardLatency {
                shard: s,
                count: h.count(),
                p50: h.quantile(0.50),
                p90: h.quantile(0.90),
                p99: h.quantile(0.99),
                p999: h.quantile(0.999),
            }
        })
        .collect();
    LoadReport {
        offered,
        completed: per_shard.iter().map(|s| s.completed).sum(),
        shed_queue_full: per_shard.iter().map(|s| s.shed_queue_full).sum(),
        shed_index_capacity: per_shard.iter().map(|s| s.shed_index_capacity).sum(),
        shed_deadline: per_shard.iter().map(|s| s.shed_deadline).sum(),
        errors,
        batches: per_shard.iter().map(|s| s.batches).sum(),
        latency,
        timeline,
        charged_ns: pm::latency::charged().total().saturating_sub(mark.charged_ns),
        elided_fences: pm::flush::elided_fences().saturating_sub(mark.elided),
        per_shard,
    }
}

fn maybe_stream(cfg: &LoadgenConfig) -> Option<SnapshotStream> {
    (cfg.stream_ms > 0).then(|| SnapshotStream::start(StreamConfig::every_millis(cfg.stream_ms)))
}

/// Closed-loop run: `cfg.threads` drivers issue [`Service::call`]s
/// back-to-back (each waits for its group commit before the next op).
/// Deterministic per thread: thread `t` plays samples `t, t+T, t+2T, ...` of
/// the seed's op stream.
#[must_use]
pub fn run_closed_loop(svc: &Service, cfg: &LoadgenConfig) -> LoadReport {
    let mark = RunMark::now(svc);
    let stream = maybe_stream(cfg);
    let threads = cfg.threads.max(1);
    let errors: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cfg = *cfg;
                scope.spawn(move || {
                    let zipf = ZipfGen::new(cfg.keys, cfg.theta, cfg.seed).churn_every(cfg.churn);
                    let mut errors = 0u64;
                    let mut i = t as u64;
                    while i < cfg.ops {
                        if matches!(svc.call(req_at(&cfg, &zipf, i)).body, ReplyBody::Error(_)) {
                            errors += 1;
                        }
                        i += threads as u64;
                    }
                    errors
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("driver thread")).sum()
    });
    gather(svc, cfg.ops, errors, &mark, stream)
}

/// Open-loop run: one submitter fires [`Service::cast`]s as fast as the
/// submission path accepts them, never waiting for commits. With a bounded
/// queue and an offered load above a shard's drain rate this *is* the
/// overload experiment: excess requests shed with typed reasons instead of
/// queueing without bound — and with [`LoadgenConfig::deadline_ns`] set,
/// requests that queued past their budget are dropped unexecuted, bounding
/// the tail latency of the ops that *do* complete. Returns after all
/// admitted casts have executed.
#[must_use]
pub fn run_open_loop(svc: &Service, cfg: &LoadgenConfig) -> LoadReport {
    let mark = RunMark::now(svc);
    let stream = maybe_stream(cfg);
    let zipf = ZipfGen::new(cfg.keys, cfg.theta, cfg.seed).churn_every(cfg.churn);
    for i in 0..cfg.ops {
        // Sheds are counted by the shard; nothing to do with the result here.
        let _ = svc.cast(req_at(cfg, &zipf, i));
    }
    gather(svc, cfg.ops, 0, &mark, stream)
}
