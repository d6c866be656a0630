//! A shard: one index, one bounded queue, and **one combiner at a time** —
//! who may be the shard's worker thread or a caller — running batched group
//! commits, plus deadline-aware admission and the migration window.
//!
//! Each shard owns an `Arc<dyn Index>` and a bounded request queue. Whoever
//! holds the shard's *combiner token* (the `busy` flag under the queue mutex)
//! serves the queue through `run_batch`, the only code that
//! classifies, executes, acknowledges and accounts a job:
//!
//! * **The worker thread** takes the token whenever jobs are queued and nobody
//!   holds it, and keeps it until the queue is empty. This is the path of
//!   every open-loop [`cast`](crate::Service::cast) and of every request that
//!   arrives while the shard is busy.
//! * **A closed-loop caller** that finds the shard *idle* (token free, queue
//!   empty) takes the token itself and executes its own request on its own
//!   thread — no enqueue, no ticket, no thread wake in either direction. It
//!   keeps combining while jobs are queued, for at most `max_batch` jobs in
//!   all, then hands the token back and wakes the worker only if jobs remain.
//!   This is the helping discipline of the Bw-tree SMOs: whoever finds the
//!   work runs it.
//!
//! A batch executes inside a single [`recipe::session::Handle::batch`]: one
//! epoch pin and one closing fence amortized over the whole batch (see the
//! crate docs for the cost model). **Late arrivals join the open batch**:
//! before the batch guard drops the combiner re-checks the queue and pulls
//! what has arrived meanwhile under the same fence (up to `max_batch` jobs per
//! batch), so two callers that collide on a shard share one fence instead of
//! paying one each. Requests are acknowledged only *after* the batch guard
//! drops — i.e. after the batch's fence — so a caller that has its reply in
//! hand holds a durably committed operation (group commit), whoever ran it.
//!
//! Before executing a job the combiner makes two checks, in order:
//!
//! 1. **Deadline**: a job carrying a latency budget whose queue age already
//!    exceeds it is dropped unexecuted with
//!    [`ShedReason::DeadlineExceeded`]. Shedding *before* the index touch
//!    means an overloaded shard spends its cycles only on requests that can
//!    still meet their budget; the accounting is exact
//!    (`offered == enqueued + shed_queue_full + shed_deadline` — `enqueued`
//!    counts execution-accepted jobs).
//! 2. **Migration window**: while this shard is the source of a live
//!    migration ([`crate::migrate`]), a job whose key lies in the moved
//!    ranges is classified against the handoff cursor — already-handed-off
//!    keys **forward** to the destination shard's queue (cap-exempt, so an
//!    admitted request is never lost to the move), keys inside the frozen
//!    copy window **bounce** to the back of the queue and retry, and
//!    not-yet-reached keys execute locally as usual. Every pickup pass (the
//!    batch's first jobs, then each group of late arrivals) is classified
//!    under one view of the window, read under the queue lock that picked the
//!    jobs up. A caller never spins on its own bounce: a batch that bounced
//!    anything ends a caller's turn, and the worker — which backs off between
//!    retries — takes over.
//!
//! The queue is FIFO and a caller only ever claims an *empty* one, so
//! per-shard submission order is execution order, and a sync barrier
//! (`Shard::sync`) still means "everything enqueued or claimed before it
//! has been fully processed": the barrier is a queued job, queued jobs are
//! served only by the token holder, and it is acknowledged after the fence of
//! the batch it rode in.
//!
//! The queue uses `std::sync::{Mutex, Condvar}` (the vendored `parking_lot`
//! stand-in has no condvar). std's `notify_all` is a futex syscall whether or
//! not anyone waits, so the queue tracks its waiters under the lock — the
//! worker `parked` for jobs, callers inside `drain` — and notifies only when
//! there is one, and only when it must: an enqueue while a combiner is at work
//! wakes nobody (the combiner finds the job itself, or wakes the worker when
//! it hands the token back), and a batch nobody is draining behind costs no
//! syscall. A `Ticket` follows the same rule: its waiter spins for
//! `TICKET_SPIN` before it parks, and `complete` notifies only a parked
//! waiter. Admission control happens at enqueue time under the queue lock: a
//! full queue sheds immediately with [`ShedReason::QueueFull`], keeping
//! worst-case memory per shard bounded at `queue_cap` caller jobs (migration
//! traffic — forwards, copy batches, sync barriers — is cap-exempt and
//! bounded by the migration's chunk size).
//!
//! A queued job owns no heap object of its caller's. `call` and `cast`
//! convert the routed [`Op`] into a `QueuedOp` before they take the queue
//! lock: the op kind, the value, and the key bytes inline, up to 24 bytes
//! (ycsb's `OP_KEY_MAX`, the paper's string-key length); only a longer key
//! moves its buffer in. So the caller's key `Vec` is freed on the thread that
//! allocated it, and the combiner frees nothing per request. When the worker
//! freed each key instead, both that free and the client's next allocation
//! left glibc's per-thread cache for the shared arena: a SIGPROF sampling
//! probe of `svc_window` (one client casting into one shard) put 23% of its
//! samples in glibc's malloc, and 1% with the copy, and `svc_window` rose
//! from 1.88M to 2.36M op/s (medians of 10 alternating pairs, 2 vCPUs). The
//! copy costs a few tens of bytes per queued job, and at most `queue_cap`
//! jobs are queued.
//!
//! # When an operation panics
//!
//! The token is held through an RAII guard, so a combiner that unwinds out of
//! an index operation (a crash-injector site armed inside the index, or a
//! panicking [`Index`] impl) still releases it and wakes the worker. Nothing
//! in that batch was acknowledged (acknowledgement follows the fence, and an
//! unwinding [`recipe::session::Batch`] issues none), so every job of the
//! batch except the one that panicked goes back to the *head* of the queue in
//! its original order and is executed again by the next combiner, under a
//! fence that does retire — at-least-once for a request nobody was told about
//! (a repeated upsert is idempotent; a repeated remove may answer `NotFound`).
//! The job that panicked is dropped: if its caller is the combiner, that
//! `call` is what unwinds; if it waits on a ticket, its `call` panics too
//! (abandoned ticket); a cast is lost. A caller whose turn dies on someone
//! else's late arrival unwinds as well, its own request executed (or
//! re-executed) but never acknowledged. The worker survives its own unwinds
//! and goes back to waiting. The shard's ledgers are exact only for runs
//! without such panics.

use crate::migrate::{KeyState, ShardMigration};
use crate::{Op, Reply, ReplyBody, ServiceConfig, ShedReason};
use recipe::session::{Handle, Index, IndexExt, OpError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Default bound on queued jobs per shard.
pub const DEFAULT_QUEUE_CAP: usize = 1024;
/// Default maximum jobs drained into one group-commit batch.
pub const DEFAULT_MAX_BATCH: usize = 32;

/// How long a [`Ticket`] waiter polls before it parks.
///
/// A waiter is behind, at most, the rest of one open batch plus its own:
/// `max_batch` sub-microsecond operations and a fence, a few microseconds.
/// Parking instead costs a futex sleep for the waiter and a futex wake for
/// whoever completes the ticket — about 17 µs each way on the benchmark host
/// (`service.wake_p50_ns` / `queue_age_p50_ns` before this bound existed).
/// Spinning for about the price of one park-and-wake before parking is the
/// classic competitive choice: a wait never costs more than twice the better
/// of the two options, and the common short wait costs no syscall at all.
const TICKET_SPIN: Duration = Duration::from_micros(20);

/// Lock a std mutex, recovering the guard if a panicking holder poisoned it.
/// Every critical section in this module only stores plain fields, so the
/// data is valid at every step; and several of these locks are taken in
/// `Drop` during an unwind, where a second panic would abort the process.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The waiting half of a completion slot for a request that was enqueued
/// (a caller's request onto a busy shard, a migration copy or barrier).
pub(crate) struct Ticket {
    /// Set after `slot` is filled; a spinning waiter polls this, not the mutex.
    ready: AtomicBool,
    slot: Mutex<TicketSlot>,
    cv: Condvar,
}

#[derive(Default)]
struct TicketSlot {
    /// `Some(None)`: the job was dropped unexecuted by an unwinding combiner.
    outcome: Option<Option<Reply>>,
    /// The waiter gave up spinning and sleeps on `cv`.
    parked: bool,
}

/// The completing half of a [`Ticket`], carried by the queued job. Dropping
/// it without a reply abandons the ticket, so its waiter never hangs.
pub(crate) struct Completer {
    ticket: Arc<Ticket>,
    completed: bool,
}

impl Ticket {
    pub(crate) fn new() -> (Completer, Arc<Ticket>) {
        let ticket = Arc::new(Ticket {
            ready: AtomicBool::new(false),
            slot: Mutex::new(TicketSlot::default()),
            cv: Condvar::new(),
        });
        (Completer { ticket: Arc::clone(&ticket), completed: false }, ticket)
    }

    fn deliver(&self, outcome: Option<Reply>) {
        let mut g = lock(&self.slot);
        g.outcome = Some(outcome);
        let parked = g.parked;
        drop(g);
        // Release: pairs with the waiter's Acquire poll (the slot itself is
        // published by the mutex; this only ends the spin).
        self.ready.store(true, Ordering::Release);
        if parked {
            self.cv.notify_one();
        }
    }

    /// Wait for the reply: poll for [`TICKET_SPIN`], then park.
    ///
    /// # Panics
    ///
    /// If the job was dropped by a combiner that unwound while executing it
    /// (see the module docs): the request's own operation panicked.
    pub(crate) fn wait(&self) -> Reply {
        let spin_until = Instant::now() + TICKET_SPIN;
        while !self.ready.load(Ordering::Acquire) && Instant::now() < spin_until {
            std::hint::spin_loop();
        }
        let mut g = lock(&self.slot);
        loop {
            if let Some(outcome) = g.outcome.take() {
                return outcome.expect("the request's operation panicked on its combiner");
            }
            g.parked = true;
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Completer {
    fn complete(mut self, r: Reply) {
        self.ticket.deliver(Some(r));
        self.completed = true;
    }
}

impl Drop for Completer {
    fn drop(&mut self) {
        if !self.completed {
            self.ticket.deliver(None);
        }
    }
}

/// Key bytes a queued job holds inline: ycsb's `OP_KEY_MAX`, the paper's
/// string-key length, so every benchmark key fits.
const INLINE_KEY: usize = 24;

/// A queued job's key: its bytes, inline, up to [`INLINE_KEY`]; a longer key
/// keeps the caller's buffer.
pub(crate) enum JobKey {
    Inline { len: u8, bytes: [u8; INLINE_KEY] },
    Spilled(Vec<u8>),
}

impl JobKey {
    fn new(key: Vec<u8>) -> JobKey {
        if key.len() > INLINE_KEY {
            return JobKey::Spilled(key);
        }
        let mut bytes = [0; INLINE_KEY];
        bytes[..key.len()].copy_from_slice(&key);
        JobKey::Inline { len: key.len() as u8, bytes }
    }

    fn bytes(&self) -> &[u8] {
        match self {
            JobKey::Inline { len, bytes } => &bytes[..usize::from(*len)],
            JobKey::Spilled(key) => key,
        }
    }
}

/// A caller's [`Op`] as it crosses the queue. The conversion happens on the
/// caller's thread, before the queue lock: a short key's buffer is freed
/// there, by the thread that allocated it, so no combiner frees a request's
/// heap block on another thread — which would send both that free and the
/// caller's next allocation out of the allocator's per-thread cache.
pub(crate) enum QueuedOp {
    Insert(JobKey, u64),
    Update(JobKey, u64),
    Get(JobKey),
    Remove(JobKey),
}

impl QueuedOp {
    fn key(&self) -> &[u8] {
        match self {
            QueuedOp::Insert(k, _)
            | QueuedOp::Update(k, _)
            | QueuedOp::Get(k)
            | QueuedOp::Remove(k) => k.bytes(),
        }
    }
}

impl From<Op> for QueuedOp {
    fn from(op: Op) -> QueuedOp {
        match op {
            Op::Insert(k, v) => QueuedOp::Insert(JobKey::new(k), v),
            Op::Update(k, v) => QueuedOp::Update(JobKey::new(k), v),
            Op::Get(k) => QueuedOp::Get(JobKey::new(k)),
            Op::Remove(k) => QueuedOp::Remove(JobKey::new(k)),
        }
    }
}

/// What a queued job asks its combiner to do.
pub(crate) enum Payload {
    /// A caller's operation.
    Op(QueuedOp),
    /// A migration copy batch: upsert these moved entries into this
    /// (destination) shard's index, inside the normal group commit.
    Copy(Vec<(Vec<u8>, u64)>),
    /// A sync barrier: completes (in queue order) once every job enqueued or
    /// claimed before it has been fully processed. The migration driver uses
    /// it to order freezes against in-flight batches.
    Sync,
}

/// Where a job's reply goes.
pub(crate) enum ReplyTo {
    /// Open-loop submission: nobody is listening.
    Nobody,
    /// Someone waits on the other half of this ticket.
    Ticket(Completer),
    /// The combiner's own request: the reply is handed back on its stack.
    Combiner,
}

/// One request plus its completion plumbing.
pub(crate) struct Job {
    payload: Payload,
    /// When the job was enqueued — or, for a caller's own request, claimed.
    enqueued: Instant,
    /// Deadline budget in ns from `enqueued`; `None` never deadline-sheds.
    budget_ns: Option<u64>,
    reply_to: ReplyTo,
}

impl Job {
    /// The job is about to leave its combiner's turn unanswered (forwarded or
    /// bounced). If it is the combining caller's own request, give it a
    /// ticket after all and leave the waiting half in `own`.
    fn outlive_turn(&mut self, own: &mut Option<Called>) {
        if matches!(self.reply_to, ReplyTo::Combiner) {
            let (done, ticket) = Ticket::new();
            self.reply_to = ReplyTo::Ticket(done);
            *own = Some(Called::Pending(ticket));
        }
    }
}

/// How a closed-loop request left [`Shard::call`].
pub(crate) enum Called {
    /// Executed by the caller itself, shed at admission, or deadline-shed:
    /// the reply is final.
    Replied(Reply),
    /// Enqueued (busy shard), or forwarded/bounced by the caller's own turn:
    /// wait on the ticket — *after* releasing the routing lock.
    Pending(Arc<Ticket>),
}

/// How one picked-up job is to be handled.
enum Disp {
    /// Execute on this shard (ops, copy batches, sync barriers).
    Exec,
    /// Hand to this migration destination's queue (key already handed off).
    Forward(Arc<Queue>),
    /// Re-queue and retry (key inside the frozen copy window).
    Bounce,
    /// Drop unexecuted; payload is the observed queue age in ns.
    Deadline(u64),
}

/// The combiner's working buffers. They travel with the token — taken out of
/// the queue when it is claimed, put back when it is released — so every turn
/// reuses their capacity, whichever thread runs it.
#[derive(Default)]
struct Scratch {
    /// The open batch, in pickup order; `disps` and `bodies` run parallel.
    jobs: Vec<Job>,
    disps: Vec<Disp>,
    bodies: Vec<Option<ReplyBody>>,
    /// Jobs the batch bounced, re-queued when the batch is over.
    bounced: Vec<Job>,
    /// The batch's queue ages, for the one histogram record of each batch.
    ages: Vec<u64>,
    /// The migration record as of the latest pickup.
    migration: Option<Arc<ShardMigration>>,
    /// Where the combining caller's own request ended up.
    own: Option<Called>,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
    /// The combiner token: someone — the worker or a caller — is between
    /// picking jobs up and having fully processed them. `drain` must not
    /// report idle while this is set, and nobody else serves the queue.
    busy: bool,
    /// The worker is waiting on `cv` and nobody has notified it yet. Set by
    /// the worker before each wait, taken by whoever notifies.
    parked: bool,
    /// Callers waiting on `cv` inside `drain` for the queue to go idle.
    drainers: usize,
    /// The live-migration record while this shard is a migration *source*;
    /// every pickup reads it under the lock that hands the jobs over.
    migration: Option<Arc<ShardMigration>>,
    /// Present while the token is free; see [`Scratch`].
    scratch: Scratch,
}

pub(crate) struct Queue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
    cap: usize,
}

impl Queue {
    /// Enqueue unconditionally, ignoring the cap — for migration traffic
    /// (forwards, copies, syncs) that must never shed, and whose volume the
    /// migration driver itself bounds.
    pub(crate) fn push_exempt(&self, job: Job) {
        self.push(lock(&self.inner), job);
    }

    /// Append `job` under the held lock, release it, and wake the worker if
    /// it is parked and the token is free. A combiner at work needs no wake:
    /// it finds the job before its fence or when it hands the token back, and
    /// wakes the worker then if jobs remain. (`notify_all`, not `_one`:
    /// drainers share the condvar.)
    fn push(&self, mut g: MutexGuard<'_, QueueInner>, job: Job) {
        g.jobs.push_back(job);
        let wake = !g.busy && std::mem::take(&mut g.parked);
        drop(g);
        if wake {
            self.cv.notify_all();
        }
    }
}

/// Cumulative per-shard accounting, mirrored into `obs` counters.
///
/// The invariants (exact, gated in `service_smoke`):
/// `offered == enqueued + shed_queue_full + shed_deadline` summed across
/// shards, and per shard `completed + shed_index_capacity == enqueued`.
/// `enqueued` counts jobs a combiner *accepted for execution* — a job shed at
/// admission or dropped by its deadline never counts; a job forwarded by
/// migration counts at the shard that finally executed it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests accepted for execution.
    pub enqueued: u64,
    /// Requests executed and committed.
    pub completed: u64,
    /// Requests refused at admission ([`ShedReason::QueueFull`]).
    pub shed_queue_full: u64,
    /// Requests refused by the index ([`ShedReason::IndexCapacity`]).
    pub shed_index_capacity: u64,
    /// Requests dropped unexecuted because their queue age exceeded their
    /// budget ([`ShedReason::DeadlineExceeded`]).
    pub shed_deadline: u64,
    /// Group-commit batches executed.
    pub batches: u64,
    /// Of `batches`, those a caller ran on its own thread rather than the
    /// shard's worker.
    pub caller_batches: u64,
    /// Jobs this (source) shard forwarded to a migration destination.
    pub forwarded: u64,
    /// Jobs re-queued because their key was inside the frozen copy window.
    pub bounced: u64,
    /// Entries this (destination) shard ingested from migration copy batches.
    pub migrated_in: u64,
}

impl ShardStats {
    /// Mean jobs per batch, the batching factor actually achieved.
    #[must_use]
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }

    /// Fold another shard's counters into this one.
    pub fn merge(&mut self, o: &ShardStats) {
        self.enqueued += o.enqueued;
        self.completed += o.completed;
        self.shed_queue_full += o.shed_queue_full;
        self.shed_index_capacity += o.shed_index_capacity;
        self.shed_deadline += o.shed_deadline;
        self.batches += o.batches;
        self.caller_batches += o.caller_batches;
        self.forwarded += o.forwarded;
        self.bounced += o.bounced;
        self.migrated_in += o.migrated_in;
    }
}

/// One ledger line: this shard's own count (what [`ShardStats`] reports —
/// `obs` names are process-wide, and two services may share one) and its
/// `service.shard{i}.*` mirror in the `obs` registry.
struct Stat {
    own: AtomicU64,
    mirror: obs::Counter,
}

impl Stat {
    fn new(shard: usize, name: &str) -> Stat {
        Stat {
            own: AtomicU64::new(0),
            mirror: obs::counter(&format!("service.shard{shard}.{name}")),
        }
    }

    /// Most lines of most batches add nothing, and an atomic add of zero
    /// still takes the cache line exclusively, so zero is skipped.
    fn add(&self, n: u64) {
        if n != 0 {
            self.own.fetch_add(n, Ordering::Relaxed);
            self.mirror.add(n);
        }
    }

    fn get(&self) -> u64 {
        self.own.load(Ordering::Relaxed)
    }
}

struct Stats {
    enqueued: Stat,
    completed: Stat,
    shed_queue_full: Stat,
    shed_index_capacity: Stat,
    shed_deadline: Stat,
    batches: Stat,
    caller_batches: Stat,
    forwarded: Stat,
    bounced: Stat,
    migrated_in: Stat,
}

impl Stats {
    fn new(shard: usize) -> Stats {
        let stat = |name| Stat::new(shard, name);
        Stats {
            enqueued: stat("enqueued"),
            completed: stat("completed"),
            shed_queue_full: stat("shed.queue_full"),
            shed_index_capacity: stat("shed.index_capacity"),
            shed_deadline: stat("shed.deadline"),
            batches: stat("batches"),
            caller_batches: stat("caller_batches"),
            forwarded: stat("forwarded"),
            bounced: stat("bounced"),
            migrated_in: stat("migrated_in"),
        }
    }

    fn snapshot(&self) -> ShardStats {
        ShardStats {
            enqueued: self.enqueued.get(),
            completed: self.completed.get(),
            shed_queue_full: self.shed_queue_full.get(),
            shed_index_capacity: self.shed_index_capacity.get(),
            shed_deadline: self.shed_deadline.get(),
            batches: self.batches.get(),
            caller_batches: self.caller_batches.get(),
            forwarded: self.forwarded.get(),
            bounced: self.bounced.get(),
            migrated_in: self.migrated_in.get(),
        }
    }
}

/// Everything a combiner needs, shared by the [`Shard`] handle (callers) and
/// the worker thread.
struct Core {
    id: usize,
    index: Arc<dyn Index>,
    /// The service's PM domain, entered by whoever holds the combiner token.
    domain: Arc<pm::Domain>,
    queue: Arc<Queue>,
    max_batch: usize,
    stats: Stats,
    m_copy_errors: obs::Counter,
    m_lat: obs::Histogram,
    m_depth: obs::Gauge,
}

/// Handle to a running shard: the submission side plus its worker's join
/// handle.
pub(crate) struct Shard {
    core: Arc<Core>,
    join: parking_lot::Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// Nanoseconds from `enqueued` to `now`, never 0 (0 marks an admission shed).
fn age_ns(now: Instant, enqueued: Instant) -> u64 {
    u64::try_from(now.saturating_duration_since(enqueued).as_nanos()).unwrap_or(u64::MAX).max(1)
}

/// Execute one op on the shard's (batched) handle and map the outcome.
fn exec<I: Index + ?Sized>(h: &mut Handle<'_, I>, op: &QueuedOp) -> ReplyBody {
    let mapped = |r: Result<recipe::session::OpResult, OpError>| match r {
        Ok(res) => ReplyBody::Done(res),
        Err(OpError::CapacityExceeded) => ReplyBody::Shed(ShedReason::IndexCapacity),
        Err(e) => ReplyBody::Error(e),
    };
    match op {
        QueuedOp::Insert(k, v) => mapped(h.insert(k.bytes(), *v)),
        QueuedOp::Update(k, v) => mapped(h.update(k.bytes(), *v)),
        QueuedOp::Get(k) => ReplyBody::Value(h.get(k.bytes())),
        QueuedOp::Remove(k) => mapped(h.remove(k.bytes())),
    }
}

impl Core {
    /// Move up to `room` queued jobs into the open batch, with the migration
    /// record they are to be classified under. Returns how many moved.
    fn pick_up(&self, g: &mut QueueInner, s: &mut Scratch, room: usize) -> usize {
        let n = g.jobs.len().min(room);
        if n > 0 {
            s.jobs.extend(g.jobs.drain(..n));
            s.migration.clone_from(&g.migration);
            self.m_depth.set(g.jobs.len() as f64);
        }
        n
    }

    /// Decide what happens to `s.jobs[s.disps.len()..]` — one pickup pass —
    /// under one consistent view of the migration window, so a freeze
    /// published mid-pass cannot split its routing decisions. (The driver's
    /// sync barrier orders its scans after this whole batch either way.)
    fn classify(s: &mut Scratch) {
        let Scratch { jobs, disps, migration, .. } = s;
        let mig = migration.as_deref();
        let win = mig.map(|m| m.window.lock());
        // Read the clock once per pass, and only if some job has a budget.
        let mut now = None;
        for job in &jobs[disps.len()..] {
            let Payload::Op(op) = &job.payload else {
                disps.push(Disp::Exec);
                continue;
            };
            if let Some(budget) = job.budget_ns {
                let age = age_ns(*now.get_or_insert_with(Instant::now), job.enqueued);
                if age > budget {
                    disps.push(Disp::Deadline(age));
                    continue;
                }
            }
            disps.push(match (mig, &win) {
                (Some(m), Some(w)) if m.is_moved(op.key()) => match w.classify(op.key()) {
                    KeyState::Done => Disp::Forward(Arc::clone(&m.dest_queue)),
                    KeyState::Frozen => Disp::Bounce,
                    KeyState::Open => Disp::Exec,
                },
                _ => Disp::Exec,
            });
        }
    }

    /// One group commit over `s.jobs` (the first pickup pass, non-empty) and
    /// whatever arrives while it is open, up to `limit` jobs: classify,
    /// execute under one [`Handle::batch`], acknowledge after its closing
    /// fence, account. Every job is processed by exactly this function,
    /// whoever holds the token. Leaves `s.jobs` empty and bounced jobs in
    /// `s.bounced`; returns how many jobs the batch held.
    fn run_batch(&self, s: &mut Scratch, limit: usize, by_caller: bool) -> usize {
        // Phases 1 and 2, per pickup pass: classify, then execute what is
        // executable. One pin + one closing fence for the lot; results become
        // durable when the batch guard drops.
        {
            let mut handle = self.index.handle();
            let mut b = handle.batch();
            loop {
                Self::classify(s);
                for i in s.bodies.len()..s.jobs.len() {
                    if !matches!(s.disps[i], Disp::Exec) {
                        s.bodies.push(None);
                        continue;
                    }
                    let body = match &s.jobs[i].payload {
                        Payload::Op(op) => exec(&mut b, op),
                        Payload::Copy(entries) => {
                            let mut failed = 0u64;
                            for (k, v) in entries {
                                failed += u64::from(b.insert(k, *v).is_err());
                            }
                            if failed > 0 {
                                self.m_copy_errors.add(failed);
                            }
                            ReplyBody::Value(None)
                        }
                        Payload::Sync => ReplyBody::Value(None),
                    };
                    s.bodies.push(Some(body));
                }
                // Late arrivals join the open batch, before its fence: this
                // is what makes colliding callers share a group commit now
                // that no thread wake holds the batch open for them.
                if s.jobs.len() >= limit
                    || self.pick_up(&mut lock(&self.queue.inner), s, limit - s.jobs.len()) == 0
                {
                    break;
                }
            }
        }

        // Phase 3: the batch's fence has retired — acknowledge, forward,
        // bounce, and account.
        let total = s.jobs.len();
        let now = Instant::now();
        // The executed caller ops' queue ages, under one histogram lock and
        // before any of them is acknowledged.
        for (job, disp) in s.jobs.iter().zip(&s.disps) {
            if let (Disp::Exec, Payload::Op(_)) = (disp, &job.payload) {
                s.ages.push(age_ns(now, job.enqueued));
            }
        }
        let n_exec = s.ages.len() as u64; // executed caller ops (incl. capacity sheds)
        if n_exec > 0 {
            self.m_lat.record_all(&s.ages);
            s.ages.clear();
        }
        let mut n_shed_cap = 0u64;
        let mut n_deadline = 0u64;
        let mut n_forward = 0u64;
        let mut migrated = 0u64;
        for ((mut job, disp), body) in
            s.jobs.drain(..).zip(s.disps.drain(..)).zip(s.bodies.drain(..))
        {
            let reply = match disp {
                Disp::Exec => {
                    let body = body.expect("executed job has a body");
                    let queue_age_ns = match &job.payload {
                        Payload::Op(_) => {
                            n_shed_cap +=
                                u64::from(body == ReplyBody::Shed(ShedReason::IndexCapacity));
                            age_ns(now, job.enqueued)
                        }
                        Payload::Copy(entries) => {
                            migrated += entries.len() as u64;
                            0
                        }
                        Payload::Sync => 0,
                    };
                    Reply { body, shard: self.id, queue_age_ns }
                }
                Disp::Deadline(age) => {
                    n_deadline += 1;
                    Reply {
                        body: ReplyBody::Shed(ShedReason::DeadlineExceeded),
                        shard: self.id,
                        queue_age_ns: age,
                    }
                }
                Disp::Forward(dest) => {
                    n_forward += 1;
                    job.outlive_turn(&mut s.own);
                    dest.push_exempt(job);
                    continue;
                }
                Disp::Bounce => {
                    job.outlive_turn(&mut s.own);
                    s.bounced.push(job);
                    continue;
                }
            };
            match job.reply_to {
                ReplyTo::Nobody => {}
                ReplyTo::Ticket(done) => done.complete(reply),
                ReplyTo::Combiner => s.own = Some(Called::Replied(reply)),
            }
        }
        let st = &self.stats;
        st.enqueued.add(n_exec);
        st.completed.add(n_exec - n_shed_cap);
        st.shed_index_capacity.add(n_shed_cap);
        st.shed_deadline.add(n_deadline);
        st.forwarded.add(n_forward);
        st.bounced.add(s.bounced.len() as u64);
        st.migrated_in.add(migrated);
        if n_exec > 0 {
            st.batches.add(1);
            st.caller_batches.add(u64::from(by_caller));
        }
        // A worker batch that was *pure* bounces means the frozen window is
        // the only thing in the queue: yield briefly so the retry loop does
        // not spin against the driver's copy in progress. (A caller's turn
        // ends on any bounce instead.)
        if !by_caller && s.bounced.len() == total {
            std::thread::sleep(Duration::from_micros(50));
        }
        total
    }
}

/// The combiner token, held: its holder is the only thread serving the
/// shard's queue. Dropping it — at the end of [`Turn::run`], or by an unwind
/// out of an index operation — releases the token and wakes whoever must
/// take over.
struct Turn<'a> {
    core: &'a Core,
    s: Scratch,
    by_caller: bool,
    released: bool,
}

impl<'a> Turn<'a> {
    /// Claim the token under the queue lock (the caller checked it is free).
    fn claim(core: &'a Core, g: &mut QueueInner, by_caller: bool) -> Turn<'a> {
        debug_assert!(!g.busy);
        g.busy = true;
        let mut s = std::mem::take(&mut g.scratch);
        s.migration.clone_from(&g.migration);
        Turn { core, s, by_caller, released: false }
    }

    /// Serve `s.jobs` (non-empty) and then the queue, batch after batch: the
    /// worker until the queue is empty, a caller for at most `max_batch` jobs
    /// or until a batch bounces something. Returns where the caller's own
    /// request ended up, if this turn had one. Releases the token.
    fn run(mut self) -> Option<Called> {
        let core = self.core;
        // Jobs a caller may still serve this turn; the worker's never runs out.
        let mut budget = if self.by_caller { core.max_batch } else { usize::MAX };
        loop {
            let served = core.run_batch(&mut self.s, core.max_batch.min(budget), self.by_caller);
            if self.by_caller {
                budget = if self.s.bounced.is_empty() { budget - served } else { 0 };
            }
            let mut g = lock(&core.queue.inner);
            g.jobs.extend(self.s.bounced.drain(..));
            if core.pick_up(&mut g, &mut self.s, core.max_batch.min(budget)) == 0 {
                let own = self.s.own.take();
                self.release(g);
                return own;
            }
        }
    }

    /// Hand the token back under the queue lock and wake whoever is needed:
    /// the worker if it is parked and has a reason to run (jobs remain, or
    /// the queue closed while the token was out), drainers if the shard just
    /// went idle — the one place idle is ever reached.
    fn release(&mut self, mut g: MutexGuard<'_, QueueInner>) {
        self.s.migration = None;
        g.scratch = std::mem::take(&mut self.s);
        g.busy = false;
        self.released = true;
        let idle = g.jobs.is_empty();
        let wake_worker = (!idle || g.closed) && std::mem::take(&mut g.parked);
        let wake = wake_worker || (idle && g.drainers > 0);
        drop(g);
        if wake {
            self.core.queue.cv.notify_all();
        }
    }
}

impl Drop for Turn<'_> {
    /// Does something only for an unwind out of [`Turn::run`], which releases
    /// the token itself on its way out; see "When an operation panics" in the
    /// module docs.
    fn drop(&mut self) {
        if self.released {
            return;
        }
        let s = &mut self.s;
        // `bodies` has one entry per job already executed, so it indexes the
        // job that was executing when the unwind started.
        if s.bodies.len() < s.jobs.len() {
            drop(s.jobs.remove(s.bodies.len()));
        }
        s.disps.clear();
        s.bodies.clear();
        s.own = None;
        let mut g = lock(&self.core.queue.inner);
        for mut job in s.jobs.drain(..).rev() {
            if matches!(job.reply_to, ReplyTo::Combiner) {
                job.reply_to = ReplyTo::Nobody;
            }
            g.jobs.push_front(job);
        }
        g.jobs.extend(s.bounced.drain(..));
        self.release(g);
    }
}

fn worker_loop(core: &Core) {
    let _domain = core.domain.enter();
    loop {
        let turn = {
            let mut g = lock(&core.queue.inner);
            while g.busy || g.jobs.is_empty() {
                if g.closed && !g.busy {
                    return;
                }
                g.parked = true;
                g = core.queue.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
            g.parked = false;
            let mut turn = Turn::claim(core, &mut g, false);
            core.pick_up(&mut g, &mut turn.s, core.max_batch);
            turn
        };
        // A panicking operation costs its own request, not the shard: the
        // unwinding `Turn` has already re-queued the rest of its batch.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| turn.run()));
    }
}

impl Shard {
    /// Start shard `id` over its own `index` shard: the queue, and the
    /// worker thread that serves it whenever no caller does, in `domain`.
    pub(crate) fn spawn(
        id: usize,
        index: Arc<dyn Index>,
        domain: &Arc<pm::Domain>,
        cfg: &ServiceConfig,
    ) -> Shard {
        let queue = Arc::new(Queue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
                busy: false,
                parked: false,
                drainers: 0,
                migration: None,
                scratch: Scratch::default(),
            }),
            cv: Condvar::new(),
            cap: cfg.queue_cap.max(1),
        });
        // obs handles are cheap clones of registry entries; resolve once.
        let core = Arc::new(Core {
            id,
            index,
            domain: Arc::clone(domain),
            queue,
            max_batch: cfg.max_batch.max(1),
            stats: Stats::new(id),
            m_copy_errors: obs::counter(&format!("service.shard{id}.migrate_copy_errors")),
            m_lat: obs::histogram(&format!("service.shard{id}.latency_ns")),
            m_depth: obs::gauge(&format!("service.shard{id}.queue_depth")),
        });
        let for_worker = Arc::clone(&core);
        let join = std::thread::Builder::new()
            .name(format!("shard-{id}"))
            .spawn(move || worker_loop(&for_worker))
            .expect("spawn shard worker");
        Shard { core, join: parking_lot::Mutex::new(Some(join)) }
    }

    /// Enqueue `job` under the held lock, or shed it if the queue is at
    /// capacity.
    fn admit(&self, g: MutexGuard<'_, QueueInner>, job: Job) -> Result<(), ShedReason> {
        if g.jobs.len() >= self.core.queue.cap {
            drop(g);
            self.core.stats.shed_queue_full.add(1);
            return Err(ShedReason::QueueFull);
        }
        self.core.queue.push(g, job);
        Ok(())
    }

    /// Open-loop submission: enqueue for the worker, or shed if the queue is
    /// at capacity.
    pub(crate) fn cast(&self, op: Op, budget_ns: Option<u64>) -> Result<(), ShedReason> {
        let job = Job {
            payload: Payload::Op(op.into()),
            enqueued: Instant::now(),
            budget_ns,
            reply_to: ReplyTo::Nobody,
        };
        self.admit(lock(&self.core.queue.inner), job)
    }

    /// Closed-loop submission. An idle shard (token free, queue empty, not
    /// closed) is served by the caller itself, right here; otherwise the
    /// request is enqueued — or shed — and the caller gets a ticket.
    pub(crate) fn call(&self, op: Op, budget_ns: Option<u64>) -> Called {
        let core = &*self.core;
        let mut job = Job {
            payload: Payload::Op(op.into()),
            enqueued: Instant::now(),
            budget_ns,
            reply_to: ReplyTo::Combiner,
        };
        let mut g = lock(&core.queue.inner);
        if g.busy || !g.jobs.is_empty() || g.closed {
            let (done, ticket) = Ticket::new();
            job.reply_to = ReplyTo::Ticket(done);
            return match self.admit(g, job) {
                Ok(()) => Called::Pending(ticket),
                Err(reason) => Called::Replied(Reply {
                    body: ReplyBody::Shed(reason),
                    shard: core.id,
                    queue_age_ns: 0,
                }),
            };
        }
        let mut turn = Turn::claim(core, &mut g, true);
        drop(g);
        turn.s.jobs.push(job);
        let _domain = core.domain.enter();
        turn.run().expect("a caller's turn settles its own request")
    }

    /// Enqueue a cap-exempt job and return the ticket it completes.
    fn push_ticketed(&self, payload: Payload) -> Arc<Ticket> {
        let (done, ticket) = Ticket::new();
        self.core.queue.push_exempt(Job {
            payload,
            enqueued: Instant::now(),
            budget_ns: None,
            reply_to: ReplyTo::Ticket(done),
        });
        ticket
    }

    /// Submit a sync barrier and wait for it: on return, every job enqueued
    /// — or claimed by its caller — before the call has been fully processed
    /// (executed, forwarded, shed, or bounced at least once). Cap-exempt —
    /// the barrier must go through.
    pub(crate) fn sync(&self) {
        let _ = self.push_ticketed(Payload::Sync).wait();
    }

    /// Enqueue a migration copy batch (cap-exempt); the returned ticket
    /// completes after the entries are committed with a group-commit batch.
    pub(crate) fn push_copy(&self, entries: Vec<(Vec<u8>, u64)>) -> Arc<Ticket> {
        self.push_ticketed(Payload::Copy(entries))
    }

    /// This shard's queue, for a migration record's forward target.
    pub(crate) fn queue(&self) -> Arc<Queue> {
        Arc::clone(&self.core.queue)
    }

    /// The index this shard serves (the migration driver scans and prunes the
    /// source index directly, from its own session).
    pub(crate) fn index(&self) -> Arc<dyn Index> {
        Arc::clone(&self.core.index)
    }

    /// Install or clear this shard's source-migration record.
    pub(crate) fn set_migration(&self, rec: Option<Arc<ShardMigration>>) {
        lock(&self.core.queue.inner).migration = rec;
    }

    /// Block until the queue is empty and nobody is combining.
    pub(crate) fn drain(&self) {
        let queue = &self.core.queue;
        let mut g = lock(&queue.inner);
        g.drainers += 1;
        while !g.jobs.is_empty() || g.busy {
            g = queue.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        g.drainers -= 1;
    }

    /// Momentary emptiness check (no waiting) — `Service::drain` uses it to
    /// detect forwarding refills across shards.
    pub(crate) fn is_idle(&self) -> bool {
        let g = lock(&self.core.queue.inner);
        g.jobs.is_empty() && !g.busy
    }

    pub(crate) fn stats(&self) -> ShardStats {
        self.core.stats.snapshot()
    }

    /// Close the queue and join the worker. Queued jobs are still executed.
    pub(crate) fn shutdown(&self) {
        lock(&self.core.queue.inner).closed = true;
        self.core.queue.cv.notify_all();
        if let Some(j) = self.join.lock().take() {
            let _ = j.join();
        }
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe::session::{Capabilities, OpResult};
    use std::sync::mpsc;

    const CFG: ServiceConfig =
        ServiceConfig { shards: 1, queue_cap: 8, max_batch: 4, default_deadline_ns: 0 };

    /// Run `f` on its own thread; panic if it has not finished within 30 s.
    fn within_30s<R: Send + 'static>(what: &str, f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        let t = std::thread::spawn(move || tx.send(f()).unwrap());
        let r = rx.recv_timeout(Duration::from_secs(30)).unwrap_or_else(|_| panic!("{what}"));
        t.join().unwrap();
        r
    }

    fn wait_until_parked(shard: &Shard) {
        let parked_by = Instant::now() + Duration::from_secs(30);
        while !lock(&shard.core.queue.inner).parked {
            assert!(Instant::now() < parked_by, "idle worker never parked");
            std::thread::yield_now();
        }
    }

    /// A worker parked on an empty queue is the one waiter no enqueue will
    /// ever notify; `shutdown` must wake it regardless of the `parked` flag's
    /// bookkeeping.
    #[test]
    fn shutdown_wakes_a_parked_worker() {
        let shard =
            Shard::spawn(0, Arc::new(bwtree::DramBwTree::new()), &pm::Domain::current(), &CFG);
        shard.cast(Op::Insert(vec![7], 7), None).unwrap();
        shard.drain();
        wait_until_parked(&shard);
        let stats = within_30s("shutdown hung: the parked worker was not woken", move || {
            shard.shutdown();
            shard.stats()
        });
        assert_eq!(stats.completed, 1);
    }

    /// An index whose insert of [`GATE`] waits inside the operation until the
    /// test lets it go, so a caller can be held mid-turn, and whose insert of
    /// [`POISON`] panics.
    struct Probe {
        entered: mpsc::SyncSender<()>,
        go: Mutex<mpsc::Receiver<()>>,
    }

    const GATE: &[u8] = b"gate";
    const POISON: &[u8] = b"poison";

    impl Probe {
        /// A shard over a probe, its worker parked, plus the two gate ends.
        fn shard() -> (Arc<Shard>, mpsc::Receiver<()>, mpsc::Sender<()>) {
            let (entered_tx, entered) = mpsc::sync_channel(1);
            let (go, go_rx) = mpsc::channel();
            let index = Arc::new(Probe { entered: entered_tx, go: Mutex::new(go_rx) });
            let shard = Arc::new(Shard::spawn(0, index, &pm::Domain::current(), &CFG));
            wait_until_parked(&shard);
            (shard, entered, go)
        }
    }

    impl Index for Probe {
        fn exec_insert(&self, key: &[u8], _: u64) -> Result<OpResult, OpError> {
            assert!(key != POISON, "poisoned key");
            if key == GATE {
                self.entered.send(()).unwrap();
                lock(&self.go).recv().unwrap();
            }
            Ok(OpResult::Inserted)
        }
        fn exec_get(&self, _: &[u8]) -> Option<u64> {
            None
        }
        fn exec_remove(&self, _: &[u8]) -> Result<OpResult, OpError> {
            Err(OpError::NotFound)
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities::hash_index(false)
        }
        fn index_name(&self) -> String {
            "probe".into()
        }
        fn recover(&self) {}
    }

    /// `shard.call`, settled: the reply, however it arrives.
    fn call(shard: &Shard, key: &[u8]) -> Reply {
        match shard.call(Op::Insert(key.to_vec(), 1), None) {
            Called::Replied(r) => r,
            Called::Pending(t) => t.wait(),
        }
    }

    /// Spin until `cond` holds for the queue's state.
    fn wait_for_queue(shard: &Shard, what: &str, cond: impl Fn(&QueueInner) -> bool) {
        let by = Instant::now() + Duration::from_secs(30);
        while !cond(&lock(&shard.core.queue.inner)) {
            assert!(Instant::now() < by, "{what}");
            std::thread::yield_now();
        }
    }

    /// The `closed && busy` edge: `shutdown` arrives while a *caller* holds
    /// the token. Its notify finds the worker unable to exit (the token is
    /// out), so the worker parks again — and the finishing caller, not an
    /// enqueue, is what must wake it so it can exit and be joined.
    #[test]
    fn shutdown_racing_a_caller_combiner_still_joins_the_worker() {
        let (shard, entered, go) = Probe::shard();
        let caller = {
            let shard = Arc::clone(&shard);
            std::thread::spawn(move || call(&shard, GATE))
        };
        entered.recv_timeout(Duration::from_secs(30)).expect("the caller never ran its own op");
        let closer = {
            let shard = Arc::clone(&shard);
            std::thread::spawn(move || shard.shutdown())
        };
        wait_for_queue(&shard, "worker never re-parked behind the caller", |g| {
            g.closed && g.parked
        });
        go.send(()).unwrap();
        let reply = caller.join().unwrap();
        assert_eq!(reply.body, ReplyBody::Done(OpResult::Inserted));
        within_30s(
            "shutdown hung: the finishing caller did not wake the parked worker",
            move || {
                closer.join().unwrap();
            },
        );
        let stats = shard.stats();
        assert_eq!((stats.completed, stats.caller_batches), (1, 1));
    }

    /// What the module docs promise when a late arrival panics on the caller
    /// that picked it up: that turn unwinds and gives the token back, the
    /// poisoned request's own `call` panics too (abandoned ticket) instead of
    /// hanging, the request queued behind it is served, and nothing of the
    /// dead batch was acknowledged.
    #[test]
    fn a_poisoned_late_arrival_unwinds_its_combiner_and_its_owner_only() {
        let (shard, entered, go) = Probe::shard();
        let spawn_call = |key: &'static [u8]| {
            let shard = Arc::clone(&shard);
            std::thread::spawn(move || call(&shard, key))
        };
        let combiner = spawn_call(GATE);
        entered.recv_timeout(Duration::from_secs(30)).expect("the caller never ran its own op");
        let poisoned = spawn_call(POISON);
        wait_for_queue(&shard, "the poisoned call never enqueued", |g| g.jobs.len() == 1);
        let behind = spawn_call(b"behind");
        wait_for_queue(&shard, "the third call never enqueued", |g| g.jobs.len() == 2);
        // Twice: the combiner's own gate insert goes back to the head of the
        // queue and passes the gate again when the worker re-executes it.
        go.send(()).unwrap();
        go.send(()).unwrap();

        assert!(combiner.join().is_err(), "the combiner unwinds on what it combined");
        assert!(poisoned.join().is_err(), "the poisoned request's caller panics, not hangs");
        let reply = within_30s("the request behind the poisoned one was never served", move || {
            behind.join().unwrap()
        });
        assert_eq!(reply.body, ReplyBody::Done(OpResult::Inserted));
        // Served: "behind", and the combiner's own gate insert — re-executed
        // from the head of the queue, acknowledged to nobody.
        shard.drain();
        assert_eq!(call(&shard, b"after").body, ReplyBody::Done(OpResult::Inserted));
        assert_eq!(shard.stats().completed, 3);
    }
}
