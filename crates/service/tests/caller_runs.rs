//! Caller-runs, observed from outside: an idle shard is served by the thread
//! that calls it, under the same group commit as any other batch; a request
//! that arrives while a batch is open joins it before its fence; and a caller
//! that finds the shard busy is still served in order. Every scenario is
//! forced by a channel or decided by its outcome, never by a sleep.

use recipe::key::u64_key;
use recipe::session::{Capabilities, Index, OpError, OpResult};
use service::{Op, Reply, ReplyBody, Service, ServiceConfig, ShedReason};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const LIMIT: Duration = Duration::from_secs(60);

/// On an idle P-CLHT shard `call(Insert)` returns with the *calling thread's*
/// fence counter exactly one higher — the request ran on this thread
/// (caller-runs) and its batch's closing fence retired before the reply
/// (fence-before-ack) — and `call(Get)` with it unchanged. Fence counters
/// tick under any latency model, so nothing process-global is switched.
#[test]
fn an_idle_shard_is_served_by_its_caller_and_fenced_before_the_reply() {
    let svc = Service::start(ServiceConfig { shards: 2, ..ServiceConfig::default() }, |_| {
        Arc::new(clht::PClht::new())
    });
    for i in 0..200u64 {
        let key = u64_key(i).to_vec();
        let before = pm::stats::snapshot_local();
        let put = svc.call(Op::Insert(key.clone(), i));
        let after_put = pm::stats::snapshot_local();
        let got = svc.call(Op::Get(key.clone()));
        let after_get = pm::stats::snapshot_local();

        assert_eq!(put, ReplyBody::Done(OpResult::Inserted));
        assert_eq!(after_put.since(&before).fence, 1, "key {i}: one closing fence, on this thread");
        assert_eq!(got, ReplyBody::Value(Some(i)));
        assert_eq!(
            after_get.since(&after_put).fence,
            0,
            "key {i}: a read-only batch fences nothing"
        );
        assert_eq!(put.shard, svc.route(&key));
        assert!(put.queue_age_ns > 0 && got.queue_age_ns > 0, "claim-to-commit time is observed");
    }
    let stats = svc.shutdown();
    let sum = |f: fn(&service::ShardStats) -> u64| stats.iter().map(f).sum::<u64>();
    assert_eq!(sum(|s| s.completed), 400);
    assert_eq!(sum(|s| s.batches), 400, "one caller alone makes batches of one");
    assert_eq!(sum(|s| s.caller_batches), 400, "and runs every one of them itself");
}

/// A map whose insert of [`GATE`] reports that it is inside the operation and
/// then waits to be let go, so a caller can be held mid-batch.
struct GatedMap {
    map: Mutex<BTreeMap<Vec<u8>, u64>>,
    entered: mpsc::SyncSender<()>,
    go: Mutex<mpsc::Receiver<()>>,
}

const GATE: &[u8] = b"gate";

impl Index for GatedMap {
    fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        if key == GATE {
            self.entered.send(()).unwrap();
            self.go.lock().unwrap().recv_timeout(LIMIT).expect("the gate was never opened");
        }
        match self.map.lock().unwrap().insert(key.to_vec(), value) {
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
    fn capabilities(&self) -> Capabilities {
        Capabilities::hash_index(false)
    }
    fn index_name(&self) -> String {
        "gated-map".into()
    }
    fn recover(&self) {}
}

/// The first caller is held inside its own operation while a second caller
/// enqueues behind it; once let go, the first caller finds the late arrival
/// before its fence and both requests commit in **one** batch.
///
/// "Has enqueued" is read off the admission control: with `queue_cap` 1 and
/// two more callers, exactly one is queued and the other shed, and the shed
/// reply — which returns at once — proves the queue holds the other.
#[test]
fn a_late_arrival_joins_the_open_group_commit() {
    let (entered_tx, entered) = mpsc::sync_channel(1);
    let (go, go_rx) = mpsc::channel();
    let index =
        Arc::new(GatedMap { map: Mutex::default(), entered: entered_tx, go: Mutex::new(go_rx) });
    let svc = Service::start(
        ServiceConfig { shards: 1, queue_cap: 1, ..ServiceConfig::default() },
        move |_| Arc::clone(&index) as Arc<dyn Index>,
    );
    let (first, late) = std::thread::scope(|s| {
        let first = s.spawn(|| svc.call(Op::Insert(GATE.to_vec(), 1)));
        entered.recv_timeout(LIMIT).expect("the first caller never ran its own operation");

        let (tx, replies) = mpsc::channel::<Reply>();
        for key in [b"b", b"c"] {
            let (tx, svc) = (tx.clone(), &svc);
            s.spawn(move || tx.send(svc.call(Op::Insert(key.to_vec(), 2))).unwrap());
        }
        let shed = replies.recv_timeout(LIMIT).expect("neither late caller was shed");
        assert_eq!(shed, ReplyBody::Shed(ShedReason::QueueFull), "the held batch cannot reply yet");
        go.send(()).unwrap();
        let late = replies.recv_timeout(LIMIT).expect("the queued caller never got its reply");
        (first.join().unwrap(), late)
    });
    assert_eq!(first, ReplyBody::Done(OpResult::Inserted));
    assert_eq!(late, ReplyBody::Done(OpResult::Inserted));
    let stats = svc.shutdown();
    assert_eq!(stats[0].completed, 2);
    assert_eq!(stats[0].batches, 1, "the late arrival rode in the first caller's batch");
    assert_eq!(stats[0].caller_batches, 1);
    assert_eq!(stats[0].shed_queue_full, 1);
}

/// A `call` behind a window of 256 casts — onto a worker that is busy with
/// them, or a queue that still holds them — is served in submission order: it
/// reads what the last cast wrote, and the ledger counts every job once.
#[test]
fn a_call_behind_a_cast_window_is_served_in_order() {
    const WINDOW: u64 = 256;
    let svc = Service::start(ServiceConfig { shards: 1, ..ServiceConfig::default() }, |_| {
        Arc::new(clht::PClht::new())
    });
    for round in 1..=20u64 {
        for i in 0..WINDOW {
            svc.cast(Op::Insert(u64_key(i).to_vec(), round * 1_000 + i)).expect("cap is 1024");
        }
        let last = WINDOW - 1;
        let reply = svc.call(Op::Get(u64_key(last).to_vec()));
        assert_eq!(reply, ReplyBody::Value(Some(round * 1_000 + last)), "round {round}");
    }
    let stats = svc.shutdown();
    assert_eq!(stats[0].completed, 20 * (WINDOW + 1));
    assert_eq!(stats[0].enqueued, stats[0].completed);
    assert!(stats[0].batches > stats[0].caller_batches, "the casts are the worker's");
}

/// A map that panics on [`POISON`].
struct PoisonedMap(Mutex<BTreeMap<Vec<u8>, u64>>);

const POISON: &[u8] = b"poison";

impl Index for PoisonedMap {
    fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        assert!(key != POISON, "poisoned key");
        match self.0.lock().unwrap().insert(key.to_vec(), value) {
            None => Ok(OpResult::Inserted),
            Some(_) => Ok(OpResult::Updated),
        }
    }
    fn exec_get(&self, key: &[u8]) -> Option<u64> {
        self.0.lock().unwrap().get(key).copied()
    }
    fn exec_remove(&self, _: &[u8]) -> Result<OpResult, OpError> {
        Err(OpError::NotFound)
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities::hash_index(false)
    }
    fn index_name(&self) -> String {
        "poisoned-map".into()
    }
    fn recover(&self) {}
}

/// A caller that unwinds inside its own inline operation gives the token
/// back: its `call` panics on its own thread, every other caller keeps being
/// served, and so does the worker after a poisoned cast of its own;
/// `shutdown` returns.
#[test]
fn a_panicking_operation_costs_its_own_request_only() {
    let (tx, done) = mpsc::channel();
    let scenario = std::thread::spawn(move || {
        let svc = Service::start(ServiceConfig { shards: 1, ..ServiceConfig::default() }, |_| {
            Arc::new(PoisonedMap(Mutex::default()))
        });
        std::thread::scope(|s| {
            let poisoned = s.spawn(|| svc.call(Op::Insert(POISON.to_vec(), 0)));
            assert!(poisoned.join().is_err(), "the poisoned call panics on its caller's thread");
            // The token came back: four callers are served, inline or queued.
            let callers: Vec<_> = (0..4u64)
                .map(|c| {
                    let svc = &svc;
                    s.spawn(move || {
                        for i in 0..500u64 {
                            let key = u64_key(c * 1_000 + i).to_vec();
                            let reply = svc.call(Op::Insert(key, i));
                            assert_eq!(reply, ReplyBody::Done(OpResult::Inserted));
                        }
                    })
                })
                .collect();
            callers.into_iter().for_each(|c| c.join().unwrap());
        });
        // The worker survives a poisoned cast: the casts behind it execute.
        svc.cast(Op::Insert(POISON.to_vec(), 0)).unwrap();
        for i in 0..10u64 {
            svc.cast(Op::Insert(u64_key(9_000 + i).to_vec(), i)).unwrap();
        }
        svc.drain();
        assert_eq!(svc.call(Op::Get(u64_key(9_009).to_vec())), ReplyBody::Value(Some(9)));
        tx.send(svc.shutdown()).unwrap();
    });
    let stats = done.recv_timeout(LIMIT).expect("a caller, the drain or the shutdown hung");
    scenario.join().unwrap();
    assert_eq!(stats[0].completed, 4 * 500 + 10 + 1);
}
