//! The service front: routing, admission, closed- and open-loop submission,
//! and the live-migration entry points.

use crate::migrate::{MigrateError, MigrationPlan, MigrationReport};
use crate::router::Router;
use crate::shard::{Called, Shard, ShardStats};
use crate::{Reply, Request, ShedReason};
use recipe::session::Index;
use std::sync::Arc;

/// Service sizing knobs. Every field has an environment override so bench
/// binaries and CI can tune a run without recompiling (see the README's
/// "Service" section):
///
/// | field                 | env var                      | default |
/// |-----------------------|------------------------------|---------|
/// | `shards`              | `RECIPE_SERVICE_SHARDS`      | 2       |
/// | `queue_cap`           | `RECIPE_SERVICE_QUEUE_CAP`   | 1024    |
/// | `max_batch`           | `RECIPE_SERVICE_BATCH`       | 32      |
/// | `default_deadline_ns` | `RECIPE_SERVICE_DEADLINE_NS` | 0 (off) |
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Shards (each owns one index shard and one worker thread).
    pub shards: usize,
    /// Bounded queue depth per shard; beyond it requests shed.
    pub queue_cap: usize,
    /// Maximum requests drained into one group-commit batch. `1` disables
    /// batching (one pin + one fence per request).
    pub max_batch: usize,
    /// Latency budget applied to requests that do not carry their own
    /// [`crate::Deadline`], in nanoseconds of queue age. `0` disables the
    /// default — undecorated requests then never deadline-shed.
    pub default_deadline_ns: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 2,
            queue_cap: crate::shard::DEFAULT_QUEUE_CAP,
            max_batch: crate::shard::DEFAULT_MAX_BATCH,
            default_deadline_ns: 0,
        }
    }
}

impl ServiceConfig {
    /// Defaults overridden by the `RECIPE_SERVICE_*` environment variables.
    #[must_use]
    pub fn from_env() -> Self {
        Self::from_lookup(&|k| std::env::var(k).ok())
    }

    /// [`ServiceConfig::from_env`] over any lookup: each value goes through
    /// [`knob`], and a zero size keeps its default too.
    pub(crate) fn from_lookup(get: &dyn Fn(&str) -> Option<String>) -> Self {
        let d = ServiceConfig::default();
        let size = |k, d| Some(knob(get, k, d as u64) as usize).filter(|&n| n > 0).unwrap_or(d);
        ServiceConfig {
            shards: size("RECIPE_SERVICE_SHARDS", d.shards),
            queue_cap: size("RECIPE_SERVICE_QUEUE_CAP", d.queue_cap),
            max_batch: size("RECIPE_SERVICE_BATCH", d.max_batch),
            default_deadline_ns: knob(get, "RECIPE_SERVICE_DEADLINE_NS", d.default_deadline_ns),
        }
    }
}

/// The `RECIPE_SERVICE_*` knob `key` from `get`, read by [`pm::latency::parse_ns`]:
/// unset keeps `default`, and so does a malformed value, with a warning on stderr.
pub(crate) fn knob(get: &dyn Fn(&str) -> Option<String>, key: &str, default: u64) -> u64 {
    let (v, warning) = pm::latency::parse_ns(key, get(key), default);
    warning.into_iter().for_each(|w| eprintln!("warning: {w}"));
    v
}

/// The mutable routing state: the ring and the workers it routes to, swapped
/// atomically (under the write lock) at migration cutover.
pub(crate) struct Topology {
    pub(crate) router: Router,
    pub(crate) shards: Vec<Arc<Shard>>,
}

/// A running sharded session-store service. See the crate docs for the
/// architecture; construct with [`Service::start`], stop with
/// [`Service::shutdown`] (or drop), resize live with [`Service::split`] /
/// [`Service::grow`].
pub struct Service {
    /// Declared before `migration`: on drop, source shards shut down first
    /// (flushing their forwards), and the destination — kept alive by the
    /// plan — joins after.
    pub(crate) topo: parking_lot::RwLock<Topology>,
    pub(crate) migration: parking_lot::Mutex<Option<Arc<MigrationPlan>>>,
    /// Shard-index factory, retained so a migration can spawn its
    /// destination shard the same way `start` spawned the originals.
    pub(crate) make_shard: Box<dyn Fn(usize) -> Arc<dyn Index> + Send + Sync>,
    pub(crate) cfg: ServiceConfig,
    /// The PM domain of the thread that started it, for every shard's batches.
    pub(crate) domain: Arc<pm::Domain>,
}

impl Service {
    /// Start `cfg.shards` workers, shard `i` owning `make_shard(i)`'s index.
    /// Each shard is an *independent* index instance: the keyspace is
    /// partitioned by the router, so cross-shard operations do not exist and
    /// shards never contend with each other. The factory is retained — a
    /// later [`Service::split`] calls it for the new shard's index.
    pub fn start(
        cfg: ServiceConfig,
        make_shard: impl Fn(usize) -> Arc<dyn Index> + Send + Sync + 'static,
    ) -> Service {
        assert!(cfg.shards > 0, "service needs at least one shard");
        let domain = pm::Domain::current();
        let shards = (0..cfg.shards)
            .map(|i| Arc::new(Shard::spawn(i, make_shard(i), &domain, &cfg)))
            .collect();
        Service {
            topo: parking_lot::RwLock::new(Topology { router: Router::new(cfg.shards), shards }),
            migration: parking_lot::Mutex::new(None),
            make_shard: Box::new(make_shard),
            cfg,
            domain,
        }
    }

    /// The configuration this service was started with.
    #[must_use]
    pub fn config(&self) -> ServiceConfig {
        self.cfg
    }

    /// Current number of shards (grows by one per completed migration).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.topo.read().shards.len()
    }

    /// The shard `key` routes to under the *current* ring (exposed for tests
    /// and load reporting; moves forward at migration cutover).
    #[must_use]
    pub fn route(&self, key: &[u8]) -> usize {
        self.topo.read().router.route(key)
    }

    /// The effective latency budget for a request: its own deadline if it
    /// carries one, else the config default (0 = none).
    fn budget_ns(&self, req: &Request) -> Option<u64> {
        req.deadline
            .map(|d| d.budget_ns)
            .or((self.cfg.default_deadline_ns > 0).then_some(self.cfg.default_deadline_ns))
    }

    /// Closed-loop request: route, execute under a group commit, return the
    /// typed reply. Accepts a bare [`crate::Op`] or a full [`Request`]
    /// envelope.
    ///
    /// If the target shard is idle the calling thread runs the request itself
    /// — it becomes the shard's combiner for a bounded turn (at most
    /// `max_batch` jobs, see [`crate::shard`]) and returns with no thread
    /// wake on either side. Otherwise the request is enqueued and the caller
    /// waits for whoever is combining; a full queue returns a
    /// [`crate::ReplyBody::Shed`] reply immediately — admission control never
    /// blocks the caller behind an overloaded shard.
    ///
    /// The routing read lock is held across route + enqueue, or route + the
    /// caller's own turn — which never blocks on another request and never
    /// takes a routing lock — and never across a wait: a request the turn
    /// could not finish (forwarded or bounced by a live migration) comes back
    /// as a ticket that is waited on after the lock is gone. So a migration
    /// cutover waits for at most one bounded turn per caller, and a claim is
    /// ordered against it exactly as an enqueue is.
    ///
    /// # Panics
    ///
    /// If the request's own index operation panics (see "When an operation
    /// panics" in [`crate::shard`]).
    #[must_use]
    pub fn call(&self, req: impl Into<Request>) -> Reply {
        let req: Request = req.into();
        let budget = self.budget_ns(&req);
        let called = {
            let topo = self.topo.read();
            topo.shards[topo.router.route(req.key())].call(req.op, budget)
        };
        match called {
            Called::Replied(reply) => reply,
            Called::Pending(ticket) => ticket.wait(),
        }
    }

    /// Open-loop request: route and enqueue without waiting. Returns whether
    /// the request was admitted; its effects become durable with its batch.
    /// Index-side capacity and deadline sheds are visible in
    /// [`Service::stats`] (the caller, by construction, is not listening).
    pub fn cast(&self, req: impl Into<Request>) -> Result<(), ShedReason> {
        let req: Request = req.into();
        let budget = self.budget_ns(&req);
        let topo = self.topo.read();
        topo.shards[topo.router.route(req.key())].cast(req.op, budget)
    }

    /// Split shard `src`'s keyspace onto a freshly spawned shard, live: load
    /// keeps executing while the moved half drains over. Drives the whole
    /// handoff on the calling thread and returns when the new topology is
    /// fully cut over and the forwarding window retired. See
    /// [`crate::migrate`] for the protocol and its crash-consistency
    /// argument.
    pub fn split(&self, src: usize) -> Result<MigrationReport, MigrateError> {
        crate::migrate::split(self, src)
    }

    /// Grow the ring by one shard, pulling a ~`1/(n+1)` slice from every
    /// existing shard (the router fork's exact delta) instead of halving one
    /// source. Same protocol and guarantees as [`Service::split`].
    pub fn grow(&self) -> Result<MigrationReport, MigrateError> {
        crate::migrate::grow(self)
    }

    /// Resume a migration that was interrupted (e.g. by a simulated crash in
    /// the driver): re-enters the drive loop from the persisted cursors.
    /// Every step is idempotent, so resuming after *any* interruption point
    /// converges to the same final topology. `None` if nothing is pending.
    pub fn resume_split(&self) -> Option<MigrationReport> {
        crate::migrate::resume(self)
    }

    /// Block until every shard queue is empty and nobody is combining. With
    /// concurrent submitters this is a momentary truth, not a fence; use it
    /// after open-loop runs to bound "all casts executed". Multi-pass: a
    /// drained source that forwarded work to a migration destination sends
    /// the loop around again until the whole topology is simultaneously idle.
    pub fn drain(&self) {
        loop {
            let shards: Vec<Arc<Shard>> = self.topo.read().shards.clone();
            for s in &shards {
                s.drain();
            }
            if shards.iter().all(|s| s.is_idle()) && self.topo.read().shards.len() == shards.len() {
                return;
            }
        }
    }

    /// Per-shard accounting snapshots, indexed by shard id.
    #[must_use]
    pub fn stats(&self) -> Vec<ShardStats> {
        self.topo.read().shards.iter().map(|s| s.stats()).collect()
    }

    /// Execute every queued request, stop the workers, and return the final
    /// per-shard stats. Shards shut down in increasing id order: migration
    /// forwards only ever target a *newer* (higher-id) shard, so a source's
    /// final flush always lands on a still-running destination.
    pub fn shutdown(self) -> Vec<ShardStats> {
        let shards: Vec<Arc<Shard>> = self.topo.read().shards.clone();
        for s in &shards {
            s.shutdown();
        }
        shards.iter().map(|s| s.stats()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Deadline, Op, ReplyBody};
    use recipe::key::u64_key;
    use recipe::session::{Capabilities, OpError, OpResult, ScanBuf};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// Minimal shard index; refuses inserts beyond `cap` with
    /// `CapacityExceeded` so shed paths are deterministic.
    struct CappedMap {
        map: Mutex<std::collections::BTreeMap<Vec<u8>, u64>>,
        cap: usize,
    }

    impl CappedMap {
        fn shared(cap: usize) -> Arc<dyn Index> {
            Arc::new(CappedMap { map: Mutex::new(Default::default()), cap })
        }
    }

    impl Index for CappedMap {
        fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
            let mut m = self.map.lock().unwrap();
            if !m.contains_key(key) && m.len() >= self.cap {
                return Err(OpError::CapacityExceeded);
            }
            match m.insert(key.to_vec(), value) {
                None => Ok(OpResult::Inserted),
                Some(_) => Ok(OpResult::Updated),
            }
        }
        fn exec_get(&self, key: &[u8]) -> Option<u64> {
            self.map.lock().unwrap().get(key).copied()
        }
        fn exec_remove(&self, key: &[u8]) -> Result<OpResult, OpError> {
            match self.map.lock().unwrap().remove(key) {
                Some(_) => Ok(OpResult::Removed),
                None => Err(OpError::NotFound),
            }
        }
        fn exec_scan(&self, start: &[u8], n: usize, out: &mut ScanBuf) {
            for (k, v) in self.map.lock().unwrap().range(start.to_vec()..).take(n) {
                out.push(k, *v);
            }
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities { scan: true, ..Capabilities::hash_index(false) }
        }
        fn index_name(&self) -> String {
            "capped-map".into()
        }
        fn recover(&self) {}
    }

    #[test]
    fn calls_route_execute_and_type_their_replies() {
        let svc = Service::start(ServiceConfig { shards: 3, ..ServiceConfig::default() }, |_| {
            CappedMap::shared(usize::MAX)
        });
        for i in 0..300u64 {
            assert_eq!(
                svc.call(Op::Insert(u64_key(i).to_vec(), i)),
                ReplyBody::Done(OpResult::Inserted)
            );
        }
        for i in 0..300u64 {
            assert_eq!(svc.call(Op::Get(u64_key(i).to_vec())), ReplyBody::Value(Some(i)));
        }
        assert_eq!(svc.call(Op::Get(u64_key(999).to_vec())), ReplyBody::Value(None));
        assert_eq!(svc.call(Op::Remove(u64_key(5).to_vec())), ReplyBody::Done(OpResult::Removed));
        assert_eq!(svc.call(Op::Remove(u64_key(5).to_vec())), ReplyBody::Error(OpError::NotFound));
        let stats = svc.shutdown();
        let total: u64 = stats.iter().map(|s| s.completed).sum();
        assert_eq!(total, 603);
        assert!(stats.iter().all(|s| s.shed_queue_full == 0 && s.shed_index_capacity == 0));
        // Every shard saw some of the 300-key load (router balance sanity).
        assert!(stats.iter().all(|s| s.enqueued > 0));
    }

    #[test]
    fn replies_carry_their_disposition() {
        let svc = Service::start(ServiceConfig { shards: 4, ..ServiceConfig::default() }, |_| {
            CappedMap::shared(usize::MAX)
        });
        for i in 0..64u64 {
            let key = u64_key(i).to_vec();
            let expect = svc.route(&key);
            let r = svc.call(Op::Insert(key, i));
            assert_eq!(r.shard, expect, "reply names the executing shard");
            assert!(r.queue_age_ns > 0, "queue age is observed, not defaulted");
        }
        svc.shutdown();
    }

    #[test]
    fn envelopes_and_bare_ops_are_interchangeable() {
        let svc = Service::start(ServiceConfig { shards: 2, ..ServiceConfig::default() }, |_| {
            CappedMap::shared(usize::MAX)
        });
        // Bare op.
        assert_eq!(
            svc.call(Op::Insert(u64_key(1).to_vec(), 1)),
            ReplyBody::Done(OpResult::Inserted)
        );
        // Envelope with a generous deadline: executes normally.
        let req =
            Request::new(Op::Get(u64_key(1).to_vec())).with_deadline(Deadline::from_millis(10_000));
        assert_eq!(svc.call(req), ReplyBody::Value(Some(1)));
        // Envelope via cast.
        svc.cast(Request::new(Op::Insert(u64_key(2).to_vec(), 2))).unwrap();
        svc.drain();
        assert_eq!(svc.call(Op::Get(u64_key(2).to_vec())), ReplyBody::Value(Some(2)));
        svc.shutdown();
    }

    #[test]
    fn index_capacity_surfaces_as_typed_shed() {
        let svc = Service::start(ServiceConfig { shards: 1, ..ServiceConfig::default() }, |_| {
            CappedMap::shared(10)
        });
        let mut shed = 0;
        for i in 0..50u64 {
            match svc.call(Op::Insert(u64_key(i).to_vec(), i)).body {
                ReplyBody::Done(OpResult::Inserted) => {}
                ReplyBody::Shed(ShedReason::IndexCapacity) => shed += 1,
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert_eq!(shed, 40, "10 fit, 40 shed");
        let stats = svc.shutdown();
        assert_eq!(stats[0].shed_index_capacity, 40);
        assert_eq!(stats[0].completed, 10);
    }

    /// A queue capped at 1 with a worker wedged behind a slow first op must
    /// shed excess open-loop casts rather than queue them unboundedly.
    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        struct SlowOnce {
            inner: Arc<dyn Index>,
            gate: AtomicU64,
        }
        impl Index for SlowOnce {
            fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
                if self.gate.fetch_add(1, Ordering::Relaxed) == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                self.inner.exec_insert(key, value)
            }
            fn exec_get(&self, key: &[u8]) -> Option<u64> {
                self.inner.exec_get(key)
            }
            fn exec_remove(&self, key: &[u8]) -> Result<OpResult, OpError> {
                self.inner.exec_remove(key)
            }
            fn capabilities(&self) -> Capabilities {
                Capabilities::hash_index(false)
            }
            fn index_name(&self) -> String {
                "slow-once".into()
            }
            fn recover(&self) {}
        }
        let svc = Service::start(
            ServiceConfig { shards: 1, queue_cap: 4, max_batch: 4, ..ServiceConfig::default() },
            |_| {
                Arc::new(SlowOnce { inner: CappedMap::shared(usize::MAX), gate: AtomicU64::new(0) })
            },
        );
        // First cast wedges the worker for 100ms; then flood far past the cap.
        let mut admitted = 0u64;
        let mut shed = 0u64;
        for i in 0..200u64 {
            match svc.cast(Op::Insert(u64_key(i).to_vec(), i)) {
                Ok(()) => admitted += 1,
                Err(ShedReason::QueueFull) => shed += 1,
                Err(r) => panic!("unexpected shed {r:?}"),
            }
        }
        assert!(shed > 0, "queue_cap=4 must shed under a 200-op flood");
        svc.drain();
        let stats = svc.shutdown();
        assert_eq!(stats[0].completed, admitted, "every admitted cast executes");
        assert_eq!(stats[0].shed_queue_full, shed);
        assert_eq!(admitted + shed, 200);
    }

    #[test]
    fn batched_execution_reports_batch_sizes() {
        let svc = Service::start(
            ServiceConfig { shards: 1, queue_cap: 4096, max_batch: 64, ..ServiceConfig::default() },
            |_| CappedMap::shared(usize::MAX),
        );
        for i in 0..2_000u64 {
            svc.cast(Op::Insert(u64_key(i).to_vec(), i)).unwrap();
        }
        svc.drain();
        let stats = svc.shutdown();
        assert_eq!(stats[0].completed, 2_000);
        assert!(
            stats[0].mean_batch() > 1.5,
            "an open-loop flood must batch (mean {})",
            stats[0].mean_batch()
        );
    }

    #[test]
    fn split_on_a_quiet_service_moves_and_preserves_everything() {
        let svc = Service::start(ServiceConfig { shards: 2, ..ServiceConfig::default() }, |_| {
            CappedMap::shared(usize::MAX)
        });
        for i in 0..2_000u64 {
            assert!(!svc.call(Op::Insert(u64_key(i).to_vec(), i)).is_shed());
        }
        let report = svc.split(0).expect("split starts");
        assert_eq!(report.dest, 2);
        assert_eq!(report.sources, vec![0]);
        assert!(report.moved_entries > 0, "a split must move keys");
        assert_eq!(svc.shard_count(), 3);
        // Every key still reads back, and from the shard the new ring names.
        for i in 0..2_000u64 {
            let key = u64_key(i).to_vec();
            let expect = svc.route(&key);
            let r = svc.call(Op::Get(key));
            assert_eq!(r, ReplyBody::Value(Some(i)), "key {i}");
            assert_eq!(r.shard, expect, "key {i} answered by its ring owner");
        }
        let stats = svc.shutdown();
        assert_eq!(stats[2].migrated_in, report.moved_entries);
        assert!(svc_total(&stats) >= 4_000);
    }

    #[test]
    fn split_requires_scan_capability() {
        struct NoScan(Arc<dyn Index>);
        impl Index for NoScan {
            fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
                self.0.exec_insert(key, value)
            }
            fn exec_get(&self, key: &[u8]) -> Option<u64> {
                self.0.exec_get(key)
            }
            fn exec_remove(&self, key: &[u8]) -> Result<OpResult, OpError> {
                self.0.exec_remove(key)
            }
            fn capabilities(&self) -> Capabilities {
                Capabilities::hash_index(false) // scan: false
            }
            fn index_name(&self) -> String {
                "no-scan".into()
            }
            fn recover(&self) {}
        }
        let svc = Service::start(ServiceConfig::default(), |_| {
            Arc::new(NoScan(CappedMap::shared(usize::MAX))) as Arc<dyn Index>
        });
        assert_eq!(svc.split(0).unwrap_err(), MigrateError::ScanUnsupported);
        assert_eq!(svc.split(9).unwrap_err(), MigrateError::UnknownShard);
        assert_eq!(svc.shard_count(), 2, "failed validation spawns nothing");
        svc.shutdown();
    }

    fn svc_total(stats: &[ShardStats]) -> u64 {
        stats.iter().map(|s| s.completed).sum()
    }

    #[test]
    fn service_knobs_parse_or_keep_their_defaults() {
        let vars = |pairs: &'static [(&'static str, &'static str)]| {
            move |k: &str| pairs.iter().find(|(n, _)| *n == k).map(|(_, v)| (*v).to_string())
        };
        let d = ServiceConfig::default();
        let cfg = ServiceConfig::from_lookup(&vars(&[
            ("RECIPE_SERVICE_SHARDS", "4"),
            ("RECIPE_SERVICE_QUEUE_CAP", "0"),
            ("RECIPE_SERVICE_BATCH", " 8 "),
            ("RECIPE_SERVICE_DEADLINE_NS", "3ms"),
        ]));
        assert_eq!((cfg.shards, cfg.max_batch), (4, 8));
        assert_eq!(cfg.queue_cap, d.queue_cap, "a zero size keeps its default");
        assert_eq!(cfg.default_deadline_ns, 0, "a malformed deadline keeps the default");
        let cfg = ServiceConfig::from_lookup(&vars(&[("RECIPE_SERVICE_DEADLINE_NS", "250000")]));
        assert_eq!((cfg.shards, cfg.default_deadline_ns), (d.shards, 250_000));
        let stream = vars(&[("RECIPE_SERVICE_STREAM_MS", "25"), ("RECIPE_SERVICE_BATCH", "x")]);
        assert_eq!(knob(&stream, "RECIPE_SERVICE_STREAM_MS", 0), 25);
        assert_eq!(knob(&stream, "RECIPE_SERVICE_BATCH", 32), 32);
        assert_eq!(knob(&stream, "RECIPE_SERVICE_SHARDS", 2), 2, "unset");
    }
}
