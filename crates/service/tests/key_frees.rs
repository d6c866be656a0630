//! A request's key is freed on the thread that allocated it. The submitting
//! thread copies a short key into the queued job and drops its own buffer
//! there, so a combiner on another thread frees nothing per request: a block
//! freed on a thread other than its allocator's leaves the allocator's
//! per-thread cache, for the free and for the client's next allocation.
//!
//! A counting global allocator tallies each thread's frees of 8-byte blocks,
//! the size of every key these tests send.

use recipe::key::u64_key;
use recipe::session::{Capabilities, Index, OpError, OpResult};
use service::{Op, Reply, ReplyBody, Service, ServiceConfig, ShedReason};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

struct Counting;

thread_local! {
    /// This thread's frees of 8-byte blocks. A `const` `Cell` needs no lazy
    /// initialisation and no destructor, so the allocator may touch it.
    static FREED_8B: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// only addition is a thread-local counter bump that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.size() == 8 {
            FREED_8B.with(|n| n.set(n.get() + 1));
        }
        // SAFETY: forwarded unchanged; `ptr` came from `System` via `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The calling thread's 8-byte frees while `f` runs, and `f`'s result.
fn freed_8b_by<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = FREED_8B.with(Cell::get);
    let r = f();
    (FREED_8B.with(Cell::get) - before, r)
}

const LIMIT: Duration = Duration::from_secs(60);

/// 1,000 casts with 8-byte keys: each key buffer is freed by the casting
/// thread, none by the shard worker that executes the insert.
#[test]
fn a_cast_frees_its_key_on_the_casting_thread() {
    const N: u64 = 1_000;
    let index = Arc::new(clht::PClht::new());
    let shard = Arc::clone(&index);
    let svc = Service::start(ServiceConfig { shards: 1, ..ServiceConfig::default() }, move |_| {
        Arc::clone(&shard) as Arc<dyn Index>
    });
    let (freed, ()) = freed_8b_by(|| {
        for i in 0..N {
            svc.cast(Op::Insert(u64_key(i).to_vec(), i))
                .expect("1,000 casts fit a 1,024-deep queue");
        }
    });
    svc.drain();
    assert!(freed >= N, "the casting thread freed {freed} of {N} key buffers");
    assert_eq!(index.len(), N as usize, "every cast was executed");
    assert_eq!(svc.shutdown()[0].completed, N);
}

/// A map whose insert of [`GATE`] reports that it is inside the operation and
/// then waits to be let go, so the shard stays busy while calls collide.
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

/// 1,000 calls that each find the shard busy: in each round a caller holds
/// the shard inside its own operation while `QUEUED + 1` more callers
/// arrive. With `queue_cap` at `QUEUED`, exactly one of them is shed, and
/// its reply, which returns at once, proves the queue holds the others; the
/// held caller's turn then executes them. Each queued caller freed its own
/// key buffer.
#[test]
fn a_call_onto_a_busy_shard_frees_its_key_on_the_calling_thread() {
    const QUEUED: usize = 8;
    const ROUNDS: u64 = 125;
    let (entered_tx, entered) = mpsc::sync_channel(1);
    let (go, go_rx) = mpsc::channel();
    let index =
        Arc::new(GatedMap { map: Mutex::default(), entered: entered_tx, go: Mutex::new(go_rx) });
    let svc = Service::start(
        ServiceConfig { shards: 1, queue_cap: QUEUED, ..ServiceConfig::default() },
        move |_| Arc::clone(&index) as Arc<dyn Index>,
    );
    let mut queued_frees = 0u64;
    let mut queued_calls = 0u64;
    for round in 0..ROUNDS {
        std::thread::scope(|s| {
            let held = s.spawn(|| svc.call(Op::Insert(GATE.to_vec(), round)));
            entered.recv_timeout(LIMIT).expect("the holding caller never ran its own operation");
            let (tx, replies) = mpsc::channel::<(u64, Reply)>();
            for c in 0..=QUEUED as u64 {
                let (tx, svc) = (tx.clone(), &svc);
                s.spawn(move || {
                    let key = u64_key(round * 100 + c).to_vec();
                    tx.send(freed_8b_by(|| svc.call(Op::Insert(key, c)))).unwrap();
                });
            }
            let (_, shed) = replies.recv_timeout(LIMIT).expect("no colliding caller was shed");
            assert_eq!(shed, ReplyBody::Shed(ShedReason::QueueFull), "the held shard cannot reply");
            go.send(()).unwrap();
            for _ in 0..QUEUED {
                let (freed, reply) =
                    replies.recv_timeout(LIMIT).expect("a queued call never got its reply");
                assert_eq!(reply, ReplyBody::Done(OpResult::Inserted));
                queued_frees += freed;
                queued_calls += 1;
            }
            assert!(matches!(held.join().unwrap().body, ReplyBody::Done(_)));
        });
    }
    assert_eq!(queued_calls, 1_000);
    assert!(
        queued_frees >= queued_calls,
        "the calling threads freed {queued_frees} of {queued_calls} key buffers"
    );
    let stats = svc.shutdown();
    assert_eq!(stats[0].completed, ROUNDS * (1 + QUEUED as u64));
    assert_eq!(stats[0].shed_queue_full, ROUNDS);
}
