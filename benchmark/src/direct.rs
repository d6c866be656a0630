//! The four direct workloads: `ycsb::run_spec_sharded` against the paper's
//! conversions, one freshly built index per repetition.

use crate::common::{entries, peak_rss_mib, rounds, Env, Outcome, CHUNK, SCAN_MAX};
use crate::stats::{geomean, hist_quantile, median};
use crate::trace::{Tracer, ROOT};
use harness::registry::IndexEntry;
use recipe::key::u64_key;
use recipe::session::{Index, IndexExt};
use std::time::Instant;
use ycsb::shard::{load_key_id, thread_share};
use ycsb::{id_value, KeyType, PhaseResult, Spec, Workload};

/// Loaded keys re-read after every repetition.
const VERIFY_READS: usize = 1_000;
/// Scans re-issued and inspected after every `scan_e` repetition.
const VERIFY_SCANS: usize = 200;

/// One direct workload. `load_n` keys are loaded as set-up, then `ops_n`
/// operations of `mix` are timed.
#[derive(Debug, Clone, Copy)]
pub struct Direct {
    pub name: &'static str,
    pub mix: Workload,
    pub set: &'static [&'static str],
    pub load_n: usize,
    pub ops_n: usize,
}

/// What one repetition on one index measured.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub charged_ns_per_op: f64,
}

impl Direct {
    fn spec(&self, env: &Env, load_count: usize, op_count: usize, seed: u64) -> Spec {
        Spec {
            load_count,
            op_count,
            threads: env.threads,
            key_type: KeyType::RandInt,
            workload: self.mix,
            scan_max: SCAN_MAX,
            seed,
        }
    }

    /// Build a fresh index, set it up, run the timed phase, check the outputs.
    ///
    /// `load_a` times a *load* phase: its set-up loads `load_n` keys with one
    /// call and the timed phase loads `ops_n` more with a second call under
    /// another seed, so set-up time is a real quantity on this workload too and
    /// the inserts go into a tree that already has its upper levels.
    pub fn rep(
        &self,
        entry: &IndexEntry,
        env: &Env,
        seed: u64,
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) -> Rep {
        let t0 = Instant::now();
        let index = (entry.build_pmem)();
        let (phase, setup_s, loaded) = if self.mix == Workload::LoadA {
            let pre = self.spec(env, self.load_n, 0, seed ^ 0x9E37_79B9);
            let (r, _) = tracer.span("ycsb.run_spec_sharded.setup", ROOT, 0, || {
                ycsb::run_spec_sharded(&*index, &pre, CHUNK)
            });
            out.check(r.load.ops, phase_failures(&r.load));
            let setup_s = t0.elapsed().as_secs_f64();
            let main = self.spec(env, self.ops_n, 0, seed);
            let t1 = Instant::now();
            let (r, _) = tracer.span("ycsb.run_spec_sharded", ROOT, 0, || {
                ycsb::run_spec_sharded(&*index, &main, CHUNK)
            });
            out.check(1, u64::from(r.load.secs > t1.elapsed().as_secs_f64()));
            (r.load, setup_s, vec![pre, main])
        } else {
            let spec = self.spec(env, self.load_n, self.ops_n, seed);
            let (r, _) = tracer.span("ycsb.run_spec_sharded", ROOT, 0, || {
                ycsb::run_spec_sharded(&*index, &spec, CHUNK)
            });
            let total = t0.elapsed().as_secs_f64();
            out.check(r.load.ops, phase_failures(&r.load));
            out.check(1, u64::from(r.load.secs + r.run.secs > total));
            let setup_s = total - r.run.secs;
            (r.run, setup_s, vec![spec])
        };
        out.check(phase.ops, phase_failures(&phase));
        for spec in &loaded {
            out.check(VERIFY_READS as u64, misread_loaded_keys(&*index, spec));
        }
        if self.mix == Workload::E {
            out.check(VERIFY_SCANS as u64, bad_scans(&*index, &loaded[0]));
        }
        Rep {
            setup_s,
            ops_per_s: phase.ops as f64 / phase.secs,
            p50_ns: hist_quantile(&phase.wall_hist, 0.50),
            p99_ns: hist_quantile(&phase.wall_hist, 0.99),
            charged_ns_per_op: phase.sim_ns_per_op,
        }
    }

    /// The untraced run: rounds over the index set until the time is used.
    pub fn run(&self, env: &Env) -> Outcome {
        let set = entries(self.set);
        let mut out = Outcome::default();
        let mut tracer = Tracer::new(false, 0, Instant::now());
        let mut reps: Vec<Vec<Rep>> = vec![Vec::new(); set.len()];
        let mut rss = f64::NAN;
        let n = rounds(env.seconds, |round| {
            let seed = pm::mix64(env.seed.wrapping_add(round as u64));
            for (entry, reps) in set.iter().zip(reps.iter_mut()) {
                reps.push(self.rep(entry, env, seed, &mut tracer, &mut out));
            }
            if round == 0 {
                rss = peak_rss_mib();
            }
        });
        out.notes.push(format!(
            "{}: {n} rounds over {:?}, {} threads, load {} + {} timed ops per repetition",
            self.name, self.set, env.threads, self.load_n, self.ops_n
        ));
        out.notes.push(format!(
            "{:12} {:>12} {:>10} {:>10} {:>12} {:>9}",
            "index", "ops_per_s", "p50_ns", "p99_ns", "charged/op", "setup_s"
        ));
        let per_index = |f: fn(&Rep) -> f64| -> Vec<f64> {
            reps.iter().map(|r| median(&r.iter().map(f).collect::<Vec<_>>())).collect()
        };
        let ops = per_index(|r| r.ops_per_s);
        let p50 = per_index(|r| r.p50_ns);
        let p99 = per_index(|r| r.p99_ns);
        let charged = per_index(|r| r.charged_ns_per_op);
        let setup = per_index(|r| r.setup_s);
        for (i, e) in set.iter().enumerate() {
            out.notes.push(format!(
                "{:12} {:12.0} {:10.0} {:10.0} {:12.1} {:9.4}",
                e.name, ops[i], p50[i], p99[i], charged[i], setup[i]
            ));
        }
        let measured =
            [setup.iter().sum(), geomean(&ops), geomean(&p50), geomean(&p99), geomean(&charged)];
        out.end_to_end(measured, rss);
        out
    }
}

/// Operations of a phase that did not do what they were asked.
fn phase_failures(p: &PhaseResult) -> u64 {
    p.failed_reads + p.handle_stats.errors
}

/// Re-read [`VERIFY_READS`] keys the load phase of `spec` inserted; count the
/// ones that do not hold the value the generator derives for them.
fn misread_loaded_keys(index: &dyn Index, spec: &Spec) -> u64 {
    let mut h = index.handle();
    let threads = spec.threads.max(1);
    (0..VERIFY_READS)
        .filter(|&j| {
            let t = j % threads;
            let share = thread_share(spec.load_count, threads, t).max(1);
            let id = load_key_id(spec.seed, t, pm::mix64(spec.seed ^ j as u64) as usize % share);
            h.get(&u64_key(id)) != Some(id_value(id))
        })
        .count() as u64
}

/// Scan from [`VERIFY_SCANS`] loaded keys; count scans that return more than
/// asked, nothing at all, a first key below the start, or keys out of order.
fn bad_scans(index: &dyn Index, spec: &Spec) -> u64 {
    let mut h = index.handle();
    let share = thread_share(spec.load_count, spec.threads.max(1), 0).max(1);
    (0..VERIFY_SCANS)
        .filter(|&j| {
            let r = pm::mix64(spec.seed ^ 0x5CA9 ^ j as u64);
            let start = u64_key(load_key_id(spec.seed, 0, r as usize % share));
            let want = 1 + (r >> 48) as usize % SCAN_MAX;
            let got = h.scan(&start).limit(want).collect_vec();
            got.is_empty()
                || got.len() > want
                || got[0].0.as_slice() < start.as_slice()
                || got.windows(2).any(|w| w[0].0 >= w[1].0)
        })
        .count() as u64
}
