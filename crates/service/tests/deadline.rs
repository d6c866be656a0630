//! Deadline-aware shedding under open-loop overload: the queue-age check
//! measurably bounds completed-op tail latency, and the shed accounting is
//! exact — every offered op is either execution-accepted or shed with a
//! typed reason, nothing double-counted, nothing lost.

use service::{
    run_open_loop, Deadline, LoadReport, LoadgenConfig, Op, Request, Service, ServiceConfig,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A map whose every operation costs a fixed sleep — a shard whose drain
/// rate is far below an open-loop submitter's offer rate.
struct SlowMap {
    map: Mutex<std::collections::BTreeMap<Vec<u8>, u64>>,
    per_op: Duration,
}

impl SlowMap {
    fn shared(per_op: Duration) -> Arc<dyn recipe::session::Index> {
        Arc::new(SlowMap { map: Mutex::new(Default::default()), per_op })
    }
}

impl recipe::session::Index for SlowMap {
    fn exec_insert(
        &self,
        key: &[u8],
        value: u64,
    ) -> Result<recipe::session::OpResult, recipe::session::OpError> {
        std::thread::sleep(self.per_op);
        match self.map.lock().unwrap().insert(key.to_vec(), value) {
            None => Ok(recipe::session::OpResult::Inserted),
            Some(_) => Ok(recipe::session::OpResult::Updated),
        }
    }
    fn exec_get(&self, key: &[u8]) -> Option<u64> {
        std::thread::sleep(self.per_op);
        self.map.lock().unwrap().get(key).copied()
    }
    fn exec_remove(
        &self,
        key: &[u8],
    ) -> Result<recipe::session::OpResult, recipe::session::OpError> {
        std::thread::sleep(self.per_op);
        match self.map.lock().unwrap().remove(key) {
            Some(_) => Ok(recipe::session::OpResult::Removed),
            None => Err(recipe::session::OpError::NotFound),
        }
    }
    fn capabilities(&self) -> recipe::session::Capabilities {
        recipe::session::Capabilities::hash_index(false)
    }
    fn index_name(&self) -> String {
        "slow-map".into()
    }
    fn recover(&self) {}
}

/// `offered == enqueued + shed_queue_full + shed_deadline` (enqueued counts
/// execution-accepted jobs) and `completed + shed_index_capacity ==
/// enqueued`, summed across shards — exact, not approximate.
fn assert_exact_accounting(r: &LoadReport) {
    let enqueued: u64 = r.per_shard.iter().map(|s| s.enqueued).sum();
    assert_eq!(
        r.offered,
        enqueued + r.shed_queue_full + r.shed_deadline,
        "every offered op is accepted or shed exactly once"
    );
    assert_eq!(
        r.completed + r.shed_index_capacity,
        enqueued,
        "every accepted op completes or sheds on capacity"
    );
}

#[test]
fn deadline_shedding_bounds_p999_and_accounts_exactly() {
    let base = LoadgenConfig {
        keys: 500,
        ops: 4_000,
        read_pct: 50,
        remove_pct: 0,
        threads: 1,
        seed: 0xDEAD11,
        ..LoadgenConfig::default()
    };
    let mk = || {
        Service::start(
            ServiceConfig { shards: 1, queue_cap: 8_192, max_batch: 8, ..ServiceConfig::default() },
            |_| SlowMap::shared(Duration::from_micros(50)),
        )
    };

    // Open-loop flood with no deadline: everything queues and executes, so
    // late ops wait behind thousands of 50us predecessors — an unbounded
    // tail.
    let svc = mk();
    let undeadlined = run_open_loop(&svc, &base);
    svc.shutdown();
    assert_exact_accounting(&undeadlined);
    assert_eq!(undeadlined.shed_deadline, 0, "no deadline, no deadline sheds");
    assert_eq!(undeadlined.shed_queue_full, 0, "queue cap covers the whole run");
    assert_eq!(undeadlined.completed, base.ops);

    // Same flood with a 3ms budget: over-age ops are dropped unexecuted, so
    // the ops that *do* complete never waited much past the budget.
    let svc = mk();
    let deadlined = run_open_loop(&svc, &LoadgenConfig { deadline_ns: 3_000_000, ..base });
    svc.shutdown();
    assert_exact_accounting(&deadlined);
    assert!(deadlined.shed_deadline > 0, "overload must deadline-shed");
    assert_eq!(
        deadlined.completed + deadlined.shed_deadline,
        base.ops,
        "with a roomy queue, every op either completes or deadline-sheds"
    );

    // The bound, measured: completed-op p999 stays within budget + one
    // batch's execution slop (8 ops x 50us, with generous margin), while the
    // undeadlined run's tail is the whole queue's drain time.
    assert!(
        deadlined.max_p999() < 30_000_000,
        "deadline must bound p999 near its 3ms budget, got {}ns",
        deadlined.max_p999()
    );
    assert!(
        deadlined.max_p999() * 2 < undeadlined.max_p999(),
        "deadline run tail ({}ns) must beat unbounded tail ({}ns)",
        deadlined.max_p999(),
        undeadlined.max_p999()
    );
}

/// Closed-loop deadline semantics: a caller whose request went stale in the
/// queue gets a typed `DeadlineExceeded` reply carrying the observed queue
/// age — and an undecorated request inherits the service-level default
/// budget from `ServiceConfig::default_deadline_ns`.
#[test]
fn stale_closed_loop_calls_shed_with_observed_age() {
    struct WedgeOnce {
        inner: Arc<dyn recipe::session::Index>,
        gate: AtomicU64,
    }
    impl recipe::session::Index for WedgeOnce {
        fn exec_insert(
            &self,
            key: &[u8],
            value: u64,
        ) -> Result<recipe::session::OpResult, recipe::session::OpError> {
            if self.gate.fetch_add(1, Ordering::Relaxed) == 0 {
                std::thread::sleep(Duration::from_millis(50));
            }
            self.inner.exec_insert(key, value)
        }
        fn exec_get(&self, key: &[u8]) -> Option<u64> {
            self.inner.exec_get(key)
        }
        fn exec_remove(
            &self,
            key: &[u8],
        ) -> Result<recipe::session::OpResult, recipe::session::OpError> {
            self.inner.exec_remove(key)
        }
        fn capabilities(&self) -> recipe::session::Capabilities {
            recipe::session::Capabilities::hash_index(false)
        }
        fn index_name(&self) -> String {
            "wedge-once".into()
        }
        fn recover(&self) {}
    }
    let svc = Service::start(
        ServiceConfig {
            shards: 1,
            max_batch: 1, // the wedged insert must occupy a batch alone
            default_deadline_ns: 1_000_000,
            ..ServiceConfig::default()
        },
        |_| {
            Arc::new(WedgeOnce { inner: SlowMap::shared(Duration::ZERO), gate: AtomicU64::new(0) })
                as Arc<dyn recipe::session::Index>
        },
    );
    // Wedge the worker for 50ms, then submit one explicit-deadline request
    // and one bare op (which inherits the 1ms config default). Both go stale.
    svc.cast(Op::Insert(b"wedge".to_vec(), 0)).unwrap();
    let stale = std::thread::scope(|scope| {
        let explicit = scope.spawn(|| {
            svc.call(Request::new(Op::Get(b"k1".to_vec())).with_deadline(Deadline::from_millis(1)))
        });
        let inherited = scope.spawn(|| svc.call(Op::Get(b"k2".to_vec())));
        [explicit.join().unwrap(), inherited.join().unwrap()]
    });
    for r in stale {
        assert_eq!(r, service::ReplyBody::Shed(service::ShedReason::DeadlineExceeded), "{r:?}");
        assert!(r.queue_age_ns >= 1_000_000, "reply reports the stale age, got {}", r.queue_age_ns);
        assert_eq!(r.shard, 0);
    }
    svc.drain();
    let stats = svc.shutdown();
    assert_eq!(stats[0].shed_deadline, 2);
    assert_eq!(stats[0].completed, 1, "only the wedge insert executed");
}
