//! The traced run: the per-layer cost tower.
//!
//! One op stream, derived from the workload's mix, runs single-threaded
//! through each rung of the stack — bare `exec_*` on the concrete index →
//! `Arc<dyn Index>` → `Handle` → `Handle::batch` of 32 → the sharded YCSB
//! driver → `Service::call` / `cast` — and a layer's cost is the difference
//! between adjacent rungs. Counters come from the thread-local mirrors of
//! `pm::stats` / `pm::latency`, so they are exact and repeat for one seed.

use crate::common::{entries, Env, Outcome, CHUNK, INDEX_IDS, SCAN_MAX};
use crate::direct::Direct;
use crate::stats::{hist_quantile, median, percentile};
use crate::svc::{self, Svc};
use crate::trace::{Tracer, ROOT};
use crate::Workload;
use harness::registry::{all_indexes, IndexEntry, PolicyMode};
use pm::latency::Model;
use recipe::key::u64_key;
use recipe::persist::Pmem;
use recipe::session::{Handle, Index, IndexExt};
use service::router::Router;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use ycsb::shard::load_key_id;
use ycsb::zipf::{ZipfGen, DEFAULT_THETA};
use ycsb::{id_value, KeyType, Spec};

/// Keys loaded before, and operations in, every tower cell. Fixed — not
/// scaled by `--seconds` — because the counters must repeat exactly.
pub const LOAD_N: usize = 40_000;
pub const OPS_N: usize = 40_000;
/// Operations in a cell of the scan mix: a scan costs 10 µs on the trees and
/// 390 µs on WOART, which collects its whole range.
const SCAN_OPS_N: usize = 2_000;
const BATCH: usize = 32;
/// Fresh-index repetitions behind each wall-clock rung (median taken).
const RUNG_REPS: usize = 5;
const SERVICE_CALLS: usize = 10_000;
const SERVICE_CASTS: usize = 100_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Insert,
    Remove,
    Scan(usize),
}

#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: Kind,
    pub key: [u8; 8],
    pub value: u64,
}

/// The op stream of a tower cell: `load` is inserted untimed, `ops` is timed.
pub struct Stream {
    pub load: Vec<([u8; 8], u64)>,
    pub ops: Vec<Op>,
}

/// The stream `ycsb::run_spec_sharded` would run with one thread: the same
/// loaded key set (`load_key_id(seed, 0, i)`), the same mix, uniform keys.
pub fn ycsb_stream(mix: ycsb::Workload, seed: u64, load_n: usize, ops_n: usize) -> Stream {
    let loaded = |i: usize| load_key_id(seed, 0, i);
    let load = (0..load_n).map(|i| (u64_key(loaded(i)), id_value(loaded(i)))).collect();
    let (read_pct, insert_pct, _) = mix.mix();
    let ops = (0..ops_n)
        .map(|j| {
            let r = pm::mix64(seed ^ 0x7041 ^ j as u64);
            let dice = (r % 100) as u32;
            let old = loaded((r >> 8) as usize % load_n);
            if dice < read_pct {
                Op { kind: Kind::Get, key: u64_key(old), value: 0 }
            } else if dice < read_pct + insert_pct {
                let id = pm::mix64(seed ^ 0xF5E5 ^ j as u64) & (u64::MAX - 1);
                Op { kind: Kind::Insert, key: u64_key(id), value: id_value(id) }
            } else {
                let len = 1 + (r >> 48) as usize % SCAN_MAX;
                Op { kind: Kind::Scan(len), key: u64_key(old), value: 0 }
            }
        })
        .collect();
    Stream { load, ops }
}

/// The service workloads' stream as index operations.
pub fn svc_stream(seed: u64, keys: u64, ops_n: usize) -> Stream {
    let zipf = ZipfGen::new(keys, DEFAULT_THETA, seed);
    let load = (0..keys).map(|k| (svc::key_bytes(k), k << 32)).collect();
    let ops = svc::requests(&zipf, seed, 0, ops_n)
        .iter()
        .map(|r| Op {
            kind: match r.kind {
                svc::Kind::Get => Kind::Get,
                svc::Kind::Upsert => Kind::Insert,
                svc::Kind::Remove => Kind::Remove,
            },
            key: svc::key_bytes(r.key),
            value: r.value,
        })
        .collect();
    Stream { load, ops }
}

type ScanBuf = Vec<(Vec<u8>, u64)>;

/// Bare rung: the index's `exec_*` entry points. An index that cannot scan
/// answers a scan with a point read of its start key, as the YCSB driver does.
/// Returns entries scanned.
fn exec_ops<I: Index + ?Sized>(index: &I, ops: &[Op], buf: &mut ScanBuf) -> u64 {
    let can_scan = index.capabilities().scan;
    let mut entries = 0;
    for op in ops {
        match op.kind {
            Kind::Get => drop(black_box(index.exec_get(&op.key))),
            Kind::Insert => drop(black_box(index.exec_insert(&op.key, op.value))),
            Kind::Remove => drop(black_box(index.exec_remove(&op.key))),
            Kind::Scan(len) if can_scan => {
                buf.clear();
                index.exec_scan_chunk(&op.key, len, buf);
                entries += buf.len() as u64;
            }
            Kind::Scan(_) => drop(black_box(index.exec_get(&op.key))),
        }
    }
    entries
}

/// Handle rung: the same operations through an epoch-pinned session.
fn handle_ops<I: Index + ?Sized>(h: &mut Handle<'_, I>, ops: &[Op], buf: &mut ScanBuf) -> u64 {
    let can_scan = h.capabilities().scan;
    let mut entries = 0;
    for op in ops {
        match op.kind {
            Kind::Get => drop(black_box(h.get(&op.key))),
            Kind::Insert => drop(black_box(h.insert(&op.key, op.value))),
            Kind::Remove => drop(black_box(h.remove(&op.key))),
            Kind::Scan(len) if can_scan => {
                // `next_into` fills spare capacity only; a no-op once warmed.
                buf.clear();
                buf.reserve(len);
                h.set_scan_batch(len);
                entries += h.scan(&op.key).limit(len).next_into(buf) as u64;
            }
            Kind::Scan(_) => drop(black_box(h.get(&op.key))),
        }
    }
    entries
}

/// Batch rung: groups of [`BATCH`] under one `Handle::batch` fence.
fn batch_ops<I: Index + ?Sized>(h: &mut Handle<'_, I>, ops: &[Op], buf: &mut ScanBuf) -> u64 {
    ops.chunks(BATCH)
        .map(|group| {
            let mut b = h.batch();
            handle_ops(&mut b, group, buf)
        })
        .sum()
}

fn load_into<I: Index + ?Sized>(index: &I, stream: &Stream) {
    for (k, v) in &stream.load {
        index.exec_insert(k, *v).expect("tower load insert refused");
    }
    index.exec_settle();
}

/// What one cell cost, per operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    pub wall_ns: f64,
    pub clwb: f64,
    pub fence: f64,
    pub visits: f64,
    pub probes: f64,
    pub charged_ns: f64,
    pub alloc_bytes: f64,
    pub elided_fences: f64,
    /// Entries returned by the cell's scans, in total.
    pub entries: u64,
}

/// Run `f` on this thread under `model` and divide what it cost by `ops`.
fn cell(model: Model, ops: usize, f: impl FnOnce() -> u64) -> Cost {
    model.install();
    let stats = pm::stats::snapshot_local();
    let probes = pm::stats::probes_local().total();
    let charged = pm::latency::charged_local().total();
    let alloc = pm::alloc::allocated_bytes();
    let elided = pm::flush::elided_fences();
    let t = Instant::now();
    let entries = f();
    let wall = t.elapsed().as_nanos() as f64;
    let d = pm::stats::snapshot_local().since(&stats);
    let n = ops as f64;
    let cost = Cost {
        wall_ns: wall / n,
        clwb: d.clwb as f64 / n,
        fence: d.fence as f64 / n,
        visits: d.node_visits as f64 / n,
        probes: (pm::stats::probes_local().total() - probes) as f64 / n,
        charged_ns: (pm::latency::charged_local().total() - charged) as f64 / n,
        alloc_bytes: (pm::alloc::allocated_bytes() - alloc) as f64 / n,
        elided_fences: (pm::flush::elided_fences() - elided) as f64 / n,
        entries,
    };
    Model::CALIBRATED.install();
    cost
}

/// Run `f` on a thread of its own. `pm::latency` keeps per-thread state (the
/// flush de-dup set, whose `clear` costs its high-water capacity on every
/// fence), so a cell on a reused thread would pay for whatever ran before it.
fn fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(f).join().expect("tower cell panicked"))
}

/// The exact per-index counters of the stream: every registry entry, bare
/// `exec_*` through `Arc<dyn Index>`, once charged and once free of charge.
pub fn index_costs(stream: &Stream, entry: &IndexEntry, mode: PolicyMode, model: Model) -> Cost {
    fresh_thread(|| {
        let index = entry.build(mode);
        load_into(&*index, stream);
        let mut buf = ScanBuf::new();
        cell(model, stream.ops.len(), || exec_ops(&*index, &stream.ops, &mut buf))
    })
}

/// One way of pushing the stream through the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    /// Static `exec_*` on the concrete index type.
    Exec,
    /// `exec_*` through `Arc<dyn Index>`.
    DynExec,
    /// `Handle` operations (epoch pin + `HandleStats`).
    Handle,
    /// `Handle::batch` groups of [`BATCH`].
    Batch,
    /// [`Rung::Handle`] with the `obs` event ring switched on.
    EventsOn,
    /// `ycsb::run_spec_sharded` with one thread (its own load and op stream:
    /// the same key set, mix and sizes).
    Sharded,
}

/// The stream and the concrete index type the rungs are climbed on.
struct Ladder<'a, I> {
    stream: &'a Stream,
    make: fn() -> I,
    spec: Spec,
}

impl<I: Index + 'static> Ladder<'_, I> {
    /// One rung once: fresh thread, fresh index, untimed load, timed ops.
    fn rung(&self, rung: Rung, model: Model) -> Cost {
        let ops = &self.stream.ops;
        fresh_thread(|| {
            let mut buf = ScanBuf::new();
            if rung == Rung::Exec {
                let index = (self.make)();
                load_into(&index, self.stream);
                return cell(model, ops.len(), || exec_ops(&index, ops, &mut buf));
            }
            let index: Arc<dyn Index> = Arc::new((self.make)());
            if rung == Rung::Sharded {
                model.install();
                let run = ycsb::run_spec_sharded(&*index, &self.spec, CHUNK).run;
                Model::CALIBRATED.install();
                return Cost { wall_ns: run.secs * 1e9 / run.ops as f64, ..Cost::default() };
            }
            load_into(&*index, self.stream);
            let mut h = index.handle();
            match rung {
                Rung::DynExec => cell(model, ops.len(), || exec_ops(&*index, ops, &mut buf)),
                Rung::Handle => cell(model, ops.len(), || handle_ops(&mut h, ops, &mut buf)),
                Rung::Batch => cell(model, ops.len(), || batch_ops(&mut h, ops, &mut buf)),
                Rung::Exec | Rung::Sharded => unreachable!("returned above"),
                Rung::EventsOn => {
                    obs::event::set_enabled(true);
                    let cost = cell(model, ops.len(), || handle_ops(&mut h, ops, &mut buf));
                    obs::event::set_enabled(false);
                    obs::event::clear();
                    cost
                }
            }
        })
    }

    /// Climb `rungs` [`RUNG_REPS`] times, one after the other within each
    /// repetition. This host changes speed by half for seconds at a time, so
    /// only rungs run back to back can be subtracted from each other.
    fn climb(
        &self,
        tracer: &mut Tracer,
        name: &'static str,
        model: Model,
        rungs: &[Rung],
    ) -> Vec<Vec<Cost>> {
        let mut costs = vec![Vec::new(); rungs.len()];
        tracer.span(name, ROOT, 0, || {
            for _ in 0..RUNG_REPS {
                for (rung, costs) in rungs.iter().zip(costs.iter_mut()) {
                    costs.push(self.rung(*rung, model));
                }
            }
        });
        costs
    }
}

fn wall(reps: &[Cost]) -> f64 {
    median(&reps.iter().map(|c| c.wall_ns).collect::<Vec<_>>())
}

/// Median of the per-repetition wall difference `upper - lower`.
fn step(upper: &[Cost], lower: &[Cost]) -> f64 {
    median(&upper.iter().zip(lower).map(|(u, l)| u.wall_ns - l.wall_ns).collect::<Vec<_>>())
}

/// What the ladder on one concrete index type measured.
struct Climbed {
    dyn_ns: f64,
    handle_ns: f64,
    events_on_ns: f64,
    batch_ns: f64,
    driver_ns: f64,
    /// `Handle` rung under `CALIBRATED`, wall ns/op.
    handle_cal_ns: f64,
    /// One-thread sharded driver under `CALIBRATED`, wall ns/op.
    sharded_ns: f64,
    elided_fences: f64,
}

/// Climb every rung on index type `I`. The driver rungs climb `ycsb`, the
/// YCSB stream whose sizes and mix `spec` names — the workload's own stream
/// for a direct workload, YCSB A for a service workload.
fn climb_all<I: Index + 'static>(
    make: fn() -> I,
    stream: &Stream,
    ycsb: &Stream,
    spec: Spec,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Climbed {
    use Rung::{Batch, DynExec, EventsOn, Exec, Handle, Sharded};
    let ladder = Ladder { stream, make, spec: spec.clone() };
    let zero =
        ladder.climb(tracer, "rungs.zero", Model::ZERO, &[Exec, DynExec, Handle, Batch, EventsOn]);
    let cal = ladder.climb(tracer, "rungs.calibrated", Model::CALIBRATED, &[Handle, Batch]);
    let driver = Ladder { stream: ycsb, make, spec };
    let driven = driver.climb(tracer, "rungs.driver", Model::CALIBRATED, &[Handle, Sharded]);
    out.notes.push(format!("{:16} {:>12} {:>12}   wall ns/op", "rung", "ZERO", "CALIBRATED"));
    let names = ["exec", "dyn exec", "Handle", "Handle::batch", "Handle+events"];
    for (i, name) in names.iter().enumerate() {
        let c = i
            .checked_sub(2)
            .and_then(|j| cal.get(j))
            .map_or("-".into(), |r| format!("{:.1}", wall(r)));
        out.notes.push(format!("{name:16} {:12.1} {c:>12}", wall(&zero[i])));
    }
    out.notes.push(format!("{:16} {:>12} {:12.1}", "YCSB Handle", "-", wall(&driven[0])));
    out.notes.push(format!("{:16} {:>12} {:12.1}", "YCSB sharded", "-", wall(&driven[1])));
    Climbed {
        dyn_ns: step(&zero[1], &zero[0]),
        handle_ns: step(&zero[2], &zero[1]),
        events_on_ns: step(&zero[4], &zero[2]),
        batch_ns: step(&cal[1], &cal[0]),
        driver_ns: step(&driven[1], &driven[0]),
        handle_cal_ns: wall(&cal[0]),
        sharded_ns: wall(&driven[1]),
        elided_fences: cal[1][0].elided_fences,
    }
}

/// What the traced run needs to know about a workload.
pub struct Profile {
    /// The YCSB mix the stream follows (`None`: the service stream).
    pub mix: Option<ycsb::Workload>,
    /// Registry names `pm.*` means are taken over.
    pub set: &'static [&'static str],
}

impl Profile {
    pub fn of(w: &Workload) -> Profile {
        match w {
            Workload::Direct(d) => Profile { mix: Some(d.mix), set: d.set },
            Workload::Svc(_) => Profile { mix: None, set: crate::common::CLHT },
        }
    }

    pub fn stream(&self, seed: u64) -> Stream {
        match self.mix {
            Some(ycsb::Workload::E) => ycsb_stream(ycsb::Workload::E, seed, LOAD_N, SCAN_OPS_N),
            Some(mix) => ycsb_stream(mix, seed, LOAD_N, OPS_N),
            None => svc_stream(seed, LOAD_N as u64, OPS_N),
        }
    }

    /// The registry entry the upper rungs (YCSB driver, service) are built on:
    /// P-ART for the direct workloads, P-CLHT for the service ones.
    fn rung_entry(&self) -> IndexEntry {
        entries(if self.mix.is_some() { &["P-ART"] } else { &["P-CLHT"] }).remove(0)
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    v.iter().sum::<f64>() / v.len() as f64
}

/// The traced run of `workload`: every per-layer metric, plus `trace.json`.
pub fn run(workload: &Workload, env: &Env) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(true, 1 << 18, Instant::now());
    let profile = Profile::of(workload);
    let stream = profile.stream(env.seed);
    let ops_n = stream.ops.len();

    let mut lap = Instant::now();
    let mut section = |out: &mut Outcome, name: &str| {
        out.notes.push(format!("section {name:8} took {:.2} s", lap.elapsed().as_secs_f64()));
        lap = Instant::now();
    };

    // Index crates: all eleven registry entries, exact counters.
    let mut in_set = Vec::new();
    for (entry, (name, id)) in all_indexes().iter().zip(INDEX_IDS) {
        assert_eq!(entry.name, name, "INDEX_IDS out of step with harness::registry");
        let (cal, _) = tracer.span("index.exec.calibrated", ROOT, 0, || {
            index_costs(&stream, entry, PolicyMode::Pmem, Model::CALIBRATED)
        });
        let (zero, _) = tracer.span("index.exec.zero", ROOT, 0, || {
            index_costs(&stream, entry, PolicyMode::Pmem, Model::ZERO)
        });
        out.push(format!("{id}.clwb_per_op"), cal.clwb, "count");
        out.push(format!("{id}.fence_per_op"), cal.fence, "count");
        out.push(format!("{id}.visits_per_op"), cal.visits, "count");
        out.push(format!("{id}.charged_ns_per_op"), cal.charged_ns, "ns");
        out.push(format!("{id}.self_ns_per_op"), zero.wall_ns, "ns");
        out.push(format!("{id}.ops_per_s"), 1e9 / cal.wall_ns, "op/s");
        out.check(ops_n as u64 * 2, 0);
        if profile.set.contains(&entry.name) {
            let (dram, _) = tracer.span("index.exec.dram", ROOT, 0, || {
                index_costs(&stream, entry, PolicyMode::Dram, Model::ZERO)
            });
            in_set.push((cal, zero, dram));
        }
    }

    section(&mut out, "index");

    // recipe + ycsb + obs: the ladder on the concrete index.
    let mix = profile.mix.unwrap_or(ycsb::Workload::A);
    let spec = |threads| Spec {
        load_count: LOAD_N,
        op_count: ops_n,
        threads,
        key_type: KeyType::RandInt,
        workload: mix,
        scan_max: SCAN_MAX,
        seed: env.seed,
    };
    let climbed = if profile.mix.is_some() {
        let make = art_index::Art::<Pmem>::new;
        climb_all(make, &stream, &stream, spec(1), &mut tracer, &mut out)
    } else {
        let ycsb = ycsb_stream(mix, env.seed, LOAD_N, OPS_N);
        climb_all(clht::Clht::<Pmem>::new, &stream, &ycsb, spec(1), &mut tracer, &mut out)
    };
    let scans = ycsb_stream(ycsb::Workload::E, env.seed, LOAD_N, SCAN_OPS_N);
    let scan_ladder = Ladder { stream: &scans, make: art_index::Art::<Pmem>::new, spec: spec(1) };
    let scan = &scan_ladder.climb(&mut tracer, "recipe.scan", Model::ZERO, &[Rung::Handle])[0];
    let scan_ops = scans.ops.iter().filter(|o| matches!(o.kind, Kind::Scan(_))).count();
    section(&mut out, "ladder");

    // pm: what the persistence policy and the cost model add.
    out.push("pm.clwb_per_op", mean(in_set.iter().map(|c| c.0.clwb)), "count");
    out.push("pm.fence_per_op", mean(in_set.iter().map(|c| c.0.fence)), "count");
    out.push("pm.visits_per_op", mean(in_set.iter().map(|c| c.0.visits)), "count");
    out.push("pm.probes_per_op", mean(in_set.iter().map(|c| c.0.probes)), "count");
    out.push("pm.alloc_bytes_per_op", mean(in_set.iter().map(|c| c.0.alloc_bytes)), "B");
    out.push("pm.elided_fences_per_op", climbed.elided_fences, "count");
    out.push("pm.policy_ns_per_op", mean(in_set.iter().map(|c| c.1.wall_ns - c.2.wall_ns)), "ns");
    let waited: f64 = in_set.iter().map(|c| c.0.wall_ns - c.1.wall_ns).sum();
    let charged: f64 = in_set.iter().map(|c| c.0.charged_ns).sum();
    out.push("pm.model_wait_ratio", waited / charged, "ratio");

    let entries_scanned = scan[0].entries as f64;
    out.push("recipe.dyn_ns_per_op", climbed.dyn_ns, "ns");
    out.push("recipe.handle_ns_per_op", climbed.handle_ns, "ns");
    out.push("recipe.batch_ns_per_op", climbed.batch_ns, "ns");
    out.push(
        "recipe.scan_ns_per_entry",
        wall(scan) * scans.ops.len() as f64 / entries_scanned,
        "ns",
    );
    out.push("recipe.scan_entries_per_op", entries_scanned / scan_ops as f64, "count");

    // ycsb: the sharded driver over the handle loop, and its thread scaling.
    let (t2, _) = tracer.span("ycsb.run_spec_sharded", ROOT, 0, || {
        let entry = profile.rung_entry();
        ycsb::run_spec_sharded(&*(entry.build_pmem)(), &spec(env.threads), CHUNK).run
    });
    out.check(t2.ops, t2.failed_reads + t2.handle_stats.errors);
    out.push("ycsb.driver_ns_per_op", climbed.driver_ns, "ns");
    out.push("ycsb.scaling_t2_t1", t2.mops * 1e6 * climbed.sharded_ns / 1e9, "ratio");
    out.push("ycsb.op_p999_ns", hist_quantile(&t2.wall_hist, 0.999), "ns");

    // obs: one histogram record, and the event ring switched on.
    let mut hist = obs::Hist::new();
    let t = Instant::now();
    for i in 0..1_000_000u64 {
        hist.record(black_box(100 + (i & 0xFFF)));
    }
    out.push(
        "obs.hist_record_ns",
        t.elapsed().as_nanos() as f64 / black_box(&hist).count() as f64,
        "ns",
    );
    out.push("obs.events_on_ns_per_op", climbed.events_on_ns, "ns");
    section(&mut out, "obs");
    service_rungs(env, &mut tracer, &mut out, climbed.handle_cal_ns);
    section(&mut out, "service");
    let overhead = overhead(workload, env, &mut tracer, &mut out);
    section(&mut out, "overhead");
    out.push("trace.overhead_frac", overhead, "ratio");
    (out, tracer)
}

/// The service rungs: routing alone, `call` (one span per request, the reply
/// carrying its queue age), and windows of `cast`.
fn service_rungs(env: &Env, tracer: &mut Tracer, out: &mut Outcome, handle_ns: f64) {
    let shards = (env.nproc - 1).max(1);
    let zipf = ZipfGen::new(svc::KEYS, DEFAULT_THETA, env.seed);
    let calls = svc::requests(&zipf, env.seed, 0, SERVICE_CALLS);
    let casts = svc::requests(&zipf, env.seed, SERVICE_CALLS as u64, SERVICE_CASTS);

    let router = Router::new(shards);
    let t = Instant::now();
    for r in &casts {
        black_box(router.route(&svc::key_bytes(r.key)));
    }
    out.push("service.route_ns_per_op", t.elapsed().as_nanos() as f64 / casts.len() as f64, "ns");

    let started = svc::start(shards, svc::KEYS, out);
    let mut round_trip = Vec::with_capacity(calls.len());
    let mut queue_age = Vec::with_capacity(calls.len());
    let mut wake = Vec::with_capacity(calls.len());
    let ((), cell) = tracer.span("service.calls", ROOT, 0, || ());
    for req in &calls {
        let t0 = Instant::now();
        let (reply, _) =
            tracer.span("service.call", cell, req.value, || started.svc.call(req.op()));
        let rt = t0.elapsed().as_nanos() as u64;
        out.check(1, u64::from(reply.is_shed()));
        round_trip.push(rt);
        queue_age.push(reply.queue_age_ns);
        wake.push(rt.saturating_sub(reply.queue_age_ns));
    }
    let mean_rt = round_trip.iter().sum::<u64>() as f64 / round_trip.len() as f64;
    out.push("service.call_ns_per_op", mean_rt - handle_ns, "ns");
    out.push("service.queue_age_p50_ns", percentile(&mut queue_age, 0.50) as f64, "ns");
    out.push("service.queue_age_p99_ns", percentile(&mut queue_age, 0.99) as f64, "ns");
    out.push("service.wake_p50_ns", percentile(&mut wake, 0.50) as f64, "ns");

    let before = started.totals();
    let fences = pm::stats::snapshot().fence;
    let mut in_cast = 0u64;
    let mut shed = 0u64;
    for (w, window) in casts.chunks(svc::WINDOW).enumerate() {
        let ops: Vec<_> = window.iter().map(svc::Req::op).collect();
        tracer.span("service.cast+drain", ROOT, w as u64 + 1, || {
            let t0 = Instant::now();
            for op in ops {
                shed += u64::from(started.svc.cast(op).is_err());
            }
            in_cast += t0.elapsed().as_nanos() as u64;
            started.svc.drain();
        });
    }
    let after = started.totals();
    let n = casts.len() as f64;
    out.check(casts.len() as u64, shed);
    out.push("service.cast_ns_per_op", in_cast as f64 / n, "ns");
    out.push(
        "service.mean_batch",
        (after.completed - before.completed) as f64 / (after.batches - before.batches) as f64,
        "count",
    );
    out.push("service.fences_per_op", (pm::stats::snapshot().fence - fences) as f64 / n, "count");
    out.push("service.shed_frac", shed as f64 / n, "ratio");
    started.svc.shutdown();
}

/// `1 - traced / untraced` throughput of the workload's own timed section,
/// median over alternating pairs of short runs.
fn overhead(workload: &Workload, env: &Env, tracer: &mut Tracer, out: &mut Outcome) -> f64 {
    const PAIRS: usize = 5;
    let mut off = Tracer::new(false, 0, Instant::now());
    let mut ratios = Vec::new();
    match workload {
        Workload::Direct(d) => {
            let small = Direct { load_n: d.load_n / 4, ops_n: d.ops_n / 4, ..*d };
            let entry = entries(&d.set[..1]).remove(0);
            for pair in 0..PAIRS {
                let seed = env.seed.wrapping_add(pair as u64);
                let plain = small.rep(&entry, env, seed, &mut off, out).ops_per_s;
                let traced = small.rep(&entry, env, seed, tracer, out).ops_per_s;
                ratios.push(1.0 - traced / plain);
            }
        }
        Workload::Svc(s) => {
            let started = svc::start(s.shards(env), svc::KEYS, out);
            let zipf = ZipfGen::new(svc::KEYS, DEFAULT_THETA, env.seed);
            let slice = |from: usize, t: &mut Tracer, out: &mut Outcome| {
                let reqs =
                    svc::requests(&zipf, env.seed, (from * s.slice_reqs) as u64, s.slice_reqs);
                Svc::slice(s, env, &started, &reqs, t, out).ops_per_s
            };
            for pair in 0..PAIRS {
                let plain = slice(2 * pair, &mut off, out);
                let traced = slice(2 * pair + 1, tracer, out);
                ratios.push(1.0 - traced / plain);
            }
            started.svc.shutdown();
        }
    }
    median(&ratios)
}
