//! The two service workloads: `Service` over P-CLHT shards, driven closed-loop
//! by waiting callers (`svc_closed`) or by one client keeping a window of
//! casts in flight (`svc_window`).

use crate::common::{entries, peak_rss_mib, rounds, Env, Outcome, CLHT};
use crate::stats::{median, percentile};
use crate::trace::{Tracer, ROOT};
use recipe::key::u64_key;
use recipe::session::{Index, IndexExt, OpError};
use service::{Op, ReplyBody, Service, ServiceConfig};
use std::sync::Arc;
use std::time::Instant;
use ycsb::zipf::{ZipfGen, DEFAULT_THETA};

/// Keys preloaded into the service, and the Zipfian keyspace of the requests.
pub const KEYS: u64 = 200_000;
const MAX_BATCH: usize = 32;
const QUEUE_CAP: usize = 1024;
/// Casts in flight before the window client waits for `drain`.
pub const WINDOW: usize = 256;

/// One service workload.
#[derive(Debug, Clone, Copy)]
pub struct Svc {
    pub name: &'static str,
    /// `true`: clients `call` and wait. `false`: one client casts a window.
    pub closed: bool,
    /// Requests per slice (one throughput sample).
    pub slice_reqs: usize,
    /// Slices measured on each freshly started service.
    pub slices: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Upsert,
    Remove,
}

/// One generated request: key number, what to do, and the value a write stores
/// (`key << 32 | request number`, so a read can be checked against its key).
#[derive(Debug, Clone, Copy)]
pub struct Req {
    pub kind: Kind,
    pub key: u64,
    pub value: u64,
}

impl Req {
    pub fn op(&self) -> Op {
        let k = key_bytes(self.key).to_vec();
        match self.kind {
            Kind::Get => Op::Get(k),
            Kind::Upsert => Op::Insert(k, self.value),
            Kind::Remove => Op::Remove(k),
        }
    }
}

/// The 8-byte key of key number `key` (never `u64::MAX`, which the hash
/// tables reserve).
pub fn key_bytes(key: u64) -> [u8; 8] {
    u64_key(pm::mix64(key) & (u64::MAX - 1))
}

/// Requests `from..from + n` of the stream `seed` names: Zipf θ=0.99 keys,
/// 50% get / 40% upsert / 10% remove.
pub fn requests(zipf: &ZipfGen, seed: u64, from: u64, n: usize) -> Vec<Req> {
    (from..from + n as u64)
        .map(|i| {
            let key = zipf.item_at(i);
            let kind = match pm::mix64(seed ^ 0xD1CE ^ i) % 100 {
                0..50 => Kind::Get,
                50..90 => Kind::Upsert,
                _ => Kind::Remove,
            };
            Req { kind, key, value: key << 32 | (i + 1) & 0xFFFF_FFFF }
        })
        .collect()
}

/// A started service plus the shard indexes it was given, kept so the final
/// state can be read back without going through the queues.
pub struct Started {
    pub svc: Service,
    pub shards: Vec<Arc<dyn Index>>,
}

impl Started {
    /// The shards' accounting, summed.
    pub fn totals(&self) -> service::ShardStats {
        let mut all = service::ShardStats::default();
        self.svc.stats().iter().for_each(|s| all.merge(s));
        all
    }
}

/// Start a service over `shards` fresh P-CLHT tables and preload [`KEYS`]
/// keys through it (windows of casts), each holding `key << 32`.
pub fn start(shards: usize, keys: u64, out: &mut Outcome) -> Started {
    let build = entries(CLHT).remove(0).build_pmem;
    let indexes: Vec<Arc<dyn Index>> = (0..shards).map(|_| build()).collect();
    let for_svc = indexes.clone();
    let svc = Service::start(
        ServiceConfig {
            shards,
            queue_cap: QUEUE_CAP,
            max_batch: MAX_BATCH,
            default_deadline_ns: 0,
        },
        move |i| Arc::clone(&for_svc[i]),
    );
    let mut shed = 0;
    for key in 0..keys {
        shed += u64::from(svc.cast(Op::Insert(key_bytes(key).to_vec(), key << 32)).is_err());
        if key as usize % WINDOW == WINDOW - 1 {
            svc.drain();
        }
    }
    svc.drain();
    out.check(keys, shed);
    Started { svc, shards: indexes }
}

/// What one slice measured.
pub struct Slice {
    pub ops_per_s: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub charged_ns_per_op: f64,
}

impl Slice {
    /// A slice of `reqs` requests that took `wall` seconds, from its latency
    /// samples and the charge counter read before it started.
    fn new(reqs: usize, wall: f64, mut lat: Vec<u64>, charged_before: u64) -> Slice {
        let charged = pm::latency::charged().total() - charged_before;
        Slice {
            ops_per_s: reqs as f64 / wall,
            p50_ns: percentile(&mut lat, 0.50) as f64,
            p99_ns: percentile(&mut lat, 0.99) as f64,
            charged_ns_per_op: charged as f64 / reqs as f64,
        }
    }
}

/// A reply that the request stream cannot explain.
fn wrong_reply(req: &Req, body: ReplyBody) -> bool {
    match (req.kind, body) {
        (Kind::Get, ReplyBody::Value(None)) => false,
        (Kind::Get, ReplyBody::Value(Some(v))) => v >> 32 != req.key,
        (Kind::Upsert, ReplyBody::Done(_)) => false,
        (Kind::Remove, ReplyBody::Done(_) | ReplyBody::Error(OpError::NotFound)) => false,
        _ => true,
    }
}

/// `svc_closed`: the requests of a slice dealt round-robin to `clients`
/// threads that each `call` back-to-back. Latency is the client-observed
/// round trip.
pub fn closed_slice(
    svc: &Service,
    reqs: &[Req],
    clients: usize,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Slice {
    let charged0 = pm::latency::charged().total();
    let epoch = Instant::now();
    let traced = tracer.enabled();
    let (per_client, cell) = tracer.span("svc_closed.slice", ROOT, 0, || {
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..clients)
                .map(|c| {
                    s.spawn(move || {
                        let mine = reqs.len().div_ceil(clients);
                        let mut t = Tracer::new(traced, mine, epoch);
                        let mut lat = Vec::with_capacity(mine);
                        let mut bad = 0u64;
                        for req in reqs.iter().skip(c).step_by(clients) {
                            let t0 = Instant::now();
                            let (reply, _) =
                                t.span("service.call", ROOT, req.value, || svc.call(req.op()));
                            lat.push(t0.elapsed().as_nanos() as u64);
                            bad += u64::from(wrong_reply(req, reply.body));
                        }
                        (lat, bad, t)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("client panicked")).collect::<Vec<_>>()
        })
    });
    let wall = epoch.elapsed().as_secs_f64();
    let mut lat = Vec::with_capacity(reqs.len());
    for (l, bad, t) in per_client {
        lat.extend(l);
        out.check(0, bad);
        tracer.absorb(t, cell);
    }
    out.check(reqs.len() as u64, 0);
    Slice::new(reqs.len(), wall, lat, charged0)
}

/// `svc_window`: one client casts [`WINDOW`] requests, waits for `drain`, and
/// repeats. Latency is first cast → `drain` return of one window.
pub fn window_slice(svc: &Service, reqs: &[Req], tracer: &mut Tracer, out: &mut Outcome) -> Slice {
    let charged0 = pm::latency::charged().total();
    let mut lat = Vec::with_capacity(reqs.len() / WINDOW + 1);
    let mut shed = 0u64;
    let start = Instant::now();
    for (w, window) in reqs.chunks(WINDOW).enumerate() {
        let t0 = Instant::now();
        tracer.span("service.cast+drain", ROOT, w as u64 + 1, || {
            for req in window {
                shed += u64::from(svc.cast(req.op()).is_err());
            }
            svc.drain();
        });
        lat.push(t0.elapsed().as_nanos() as u64);
    }
    let wall = start.elapsed().as_secs_f64();
    out.check(reqs.len() as u64, shed);
    Slice::new(reqs.len(), wall, lat, charged0)
}

impl Svc {
    /// Shard workers: the window client leaves `nproc - 1` CPUs to them; the
    /// closed-loop clients sleep while their request runs, so the workers get
    /// as many as the clients.
    pub fn shards(&self, env: &Env) -> usize {
        if self.closed {
            env.threads
        } else {
            (env.nproc - 1).max(1)
        }
    }

    /// One slice of this workload on a running service.
    pub fn slice(
        &self,
        env: &Env,
        started: &Started,
        reqs: &[Req],
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) -> Slice {
        if self.closed {
            closed_slice(&started.svc, reqs, env.threads, tracer, out)
        } else {
            window_slice(&started.svc, reqs, tracer, out)
        }
    }

    /// The untraced run: rounds of (start a service, preload, `slices`
    /// slices, check, shut down) until the time is used.
    pub fn run(&self, env: &Env) -> Outcome {
        let mut out = Outcome::default();
        let mut tracer = Tracer::new(false, 0, Instant::now());
        let mut slices: Vec<Slice> = Vec::new();
        let mut setups = Vec::new();
        let mut rss = f64::NAN;
        let n = rounds(env.seconds, |round| {
            let seed = pm::mix64(env.seed.wrapping_add(round as u64));
            let t0 = Instant::now();
            let started = start(self.shards(env), KEYS, &mut out);
            let zipf = ZipfGen::new(KEYS, DEFAULT_THETA, seed);
            setups.push(t0.elapsed().as_secs_f64());
            // What the tables must hold after the round, by key number.
            let mut model: Vec<Option<u64>> = (0..KEYS).map(|k| Some(k << 32)).collect();
            for s in 0..self.slices {
                let reqs = requests(&zipf, seed, (s * self.slice_reqs) as u64, self.slice_reqs);
                slices.push(self.slice(env, &started, &reqs, &mut tracer, &mut out));
                // Two clients race on the hot keys, so only the single FIFO
                // client's stream has one final state to replay.
                for r in reqs.iter().filter(|_| !self.closed) {
                    match r.kind {
                        Kind::Get => {}
                        Kind::Upsert => model[r.key as usize] = Some(r.value),
                        Kind::Remove => model[r.key as usize] = None,
                    }
                }
            }
            self.check_round(&started, &model, &mut out);
            started.svc.shutdown();
            if round == 0 {
                rss = peak_rss_mib();
            }
        });
        out.notes.push(format!(
            "{}: {n} rounds of {} slices x {} requests, {} P-CLHT shard(s), max_batch {MAX_BATCH}, \
             queue_cap {QUEUE_CAP}, {KEYS} keys, Zipf theta {DEFAULT_THETA}",
            self.name,
            self.slices,
            self.slice_reqs,
            self.shards(env)
        ));
        let over = |f: fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
        // A host stall only ever lengthens a tail: with the VM disturbed for
        // more than half of a run the median over slices read 3-8x the usual
        // value, so the tail is the lower quartile over slices.
        let mut p99: Vec<f64> = slices.iter().map(|s| s.p99_ns).collect();
        p99.sort_by(|a, b| a.partial_cmp(b).expect("NaN latency"));
        let measured = [
            median(&setups),
            over(|s| s.ops_per_s),
            over(|s| s.p50_ns),
            p99[p99.len() / 4],
            over(|s| s.charged_ns_per_op),
        ];
        out.end_to_end(measured, rss);
        out
    }

    /// After the last slice of a round: nothing shed, everything offered was
    /// completed, and — for the single FIFO client of `svc_window` — the
    /// tables hold exactly what replaying the stream leaves.
    fn check_round(&self, started: &Started, model: &[Option<u64>], out: &mut Outcome) {
        started.svc.drain();
        let offered = KEYS + (self.slices * self.slice_reqs) as u64;
        let total = started.totals();
        let shed = total.shed_queue_full + total.shed_index_capacity + total.shed_deadline;
        out.check(1, u64::from(shed != 0 || total.completed != offered));
        if self.closed {
            return;
        }
        let mut handles: Vec<_> = started.shards.iter().map(|i| i.handle()).collect();
        let wrong = (0..KEYS)
            .filter(|k| {
                let key = key_bytes(*k);
                handles[started.svc.route(&key)].get(&key) != model[*k as usize]
            })
            .count();
        out.check(KEYS, wrong as u64);
    }
}
