//! Shard worker: one thread, one index shard, one pinned session, batched
//! group commit — plus deadline-aware admission and the migration window.
//!
//! Each worker owns an `Arc<dyn Index>` shard and a bounded request queue.
//! The loop drains up to `max_batch` queued jobs and executes them inside a
//! single [`recipe::session::Handle::batch`]: one epoch pin and one closing
//! fence amortized over the whole batch (see the crate docs for the cost
//! model). Tickets are completed only *after* the batch guard drops — i.e.
//! after the batch's fence — so a closed-loop caller that has its reply in
//! hand holds a durably committed operation (group commit).
//!
//! Before executing a job the worker makes two checks, in order:
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
//!    not-yet-reached keys execute locally as usual.
//!
//! The queue uses `std::sync::{Mutex, Condvar}` (the vendored `parking_lot`
//! stand-in has no condvar). std's `notify_all` is a futex syscall whether or
//! not anyone waits, so the queue tracks its waiters under the lock — the
//! worker `parked` for jobs, callers inside `drain` — and notifies only when
//! there is one: an enqueue onto a busy worker's queue and a batch nobody is
//! draining behind cost no syscall. Admission control happens at enqueue time under
//! the queue lock: a full queue sheds immediately with
//! [`ShedReason::QueueFull`], keeping worst-case memory per shard bounded at
//! `queue_cap` caller jobs (migration traffic — forwards, copy batches,
//! sync barriers — is cap-exempt and bounded by the migration's chunk size).

use crate::migrate::{KeyState, ShardMigration};
use crate::{Op, Reply, ReplyBody, ShedReason};
use recipe::session::{Handle, Index, IndexExt, OpError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Default bound on queued jobs per shard.
pub const DEFAULT_QUEUE_CAP: usize = 1024;
/// Default maximum jobs drained into one group-commit batch.
pub const DEFAULT_MAX_BATCH: usize = 32;

/// A waitable completion slot for a closed-loop request.
pub(crate) struct Ticket {
    slot: Mutex<Option<Reply>>,
    cv: Condvar,
}

impl Ticket {
    pub(crate) fn new() -> Arc<Ticket> {
        Arc::new(Ticket { slot: Mutex::new(None), cv: Condvar::new() })
    }

    pub(crate) fn complete(&self, r: Reply) {
        *self.slot.lock().unwrap() = Some(r);
        self.cv.notify_one();
    }

    pub(crate) fn wait(&self) -> Reply {
        let mut g = self.slot.lock().unwrap();
        loop {
            if let Some(r) = g.take() {
                return r;
            }
            g = self.cv.wait(g).unwrap();
        }
    }
}

/// What a queued job asks the worker to do.
pub(crate) enum Payload {
    /// A caller's operation.
    Op(Op),
    /// A migration copy batch: upsert these moved entries into this
    /// (destination) shard's index, inside the normal group commit.
    Copy(Vec<(Vec<u8>, u64)>),
    /// A sync barrier: completes (in queue order) once every job enqueued
    /// before it has been fully processed. The migration driver uses it to
    /// order freezes against in-flight batches.
    Sync,
}

/// One queued request plus its completion plumbing.
pub(crate) struct Job {
    pub(crate) payload: Payload,
    pub(crate) enqueued: Instant,
    /// Deadline budget in ns from `enqueued`; `None` never deadline-sheds.
    pub(crate) budget_ns: Option<u64>,
    /// `None` for open-loop (fire-and-forget) submissions.
    pub(crate) ticket: Option<Arc<Ticket>>,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
    /// The worker is between draining a batch and completing it; `drain`
    /// must not report idle while this is set.
    busy: bool,
    /// The worker is waiting on `cv` for jobs and no enqueue has notified it
    /// yet. Set by the worker before each wait, taken by the enqueue that
    /// notifies.
    parked: bool,
    /// Callers waiting on `cv` inside `drain` for the queue to go idle.
    drainers: usize,
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
        self.push(self.inner.lock().unwrap(), job);
    }

    /// Append `job` under the held lock, release it, and wake the worker if
    /// it is parked. (`notify_all`, not `_one`: drainers share the condvar.)
    fn push(&self, mut g: MutexGuard<'_, QueueInner>, job: Job) {
        g.jobs.push_back(job);
        let wake = std::mem::take(&mut g.parked);
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
/// `enqueued` counts jobs a worker *accepted for execution* — a job shed at
/// admission or dropped by its deadline never counts; a job forwarded by
/// migration counts at the shard that finally executed it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests accepted for execution by the worker.
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
        self.forwarded += o.forwarded;
        self.bounced += o.bounced;
        self.migrated_in += o.migrated_in;
    }
}

/// Handle to a running shard worker: the submission side plus its join handle.
pub(crate) struct Shard {
    queue: Arc<Queue>,
    stats: Arc<AtomicStats>,
    index: Arc<dyn Index>,
    /// The live-migration record while this shard is a migration *source*;
    /// the worker classifies moved keys against it every batch.
    migration: Arc<parking_lot::Mutex<Option<Arc<ShardMigration>>>>,
    m_shed_queue_full: obs::Counter,
    join: parking_lot::Mutex<Option<std::thread::JoinHandle<()>>>,
}

#[derive(Default)]
struct AtomicStats {
    enqueued: AtomicU64,
    completed: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_index_capacity: AtomicU64,
    shed_deadline: AtomicU64,
    batches: AtomicU64,
    forwarded: AtomicU64,
    bounced: AtomicU64,
    migrated_in: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> ShardStats {
        ShardStats {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed_queue_full: self.shed_queue_full.load(Ordering::Relaxed),
            shed_index_capacity: self.shed_index_capacity.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            forwarded: self.forwarded.load(Ordering::Relaxed),
            bounced: self.bounced.load(Ordering::Relaxed),
            migrated_in: self.migrated_in.load(Ordering::Relaxed),
        }
    }
}

/// Execute one op on the shard's (batched) handle and map the outcome.
fn exec<I: Index + ?Sized>(h: &mut Handle<'_, I>, op: &Op) -> ReplyBody {
    let mapped = |r: Result<recipe::session::OpResult, OpError>| match r {
        Ok(res) => ReplyBody::Done(res),
        Err(OpError::CapacityExceeded) => ReplyBody::Shed(ShedReason::IndexCapacity),
        Err(e) => ReplyBody::Error(e),
    };
    match op {
        Op::Insert(k, v) => mapped(h.insert(k, *v)),
        Op::Update(k, v) => mapped(h.update(k, *v)),
        Op::Get(k) => ReplyBody::Value(h.get(k)),
        Op::Remove(k) => mapped(h.remove(k)),
    }
}

impl Shard {
    /// Spawn the worker thread for shard `id` over its own `index` shard.
    pub(crate) fn spawn(
        id: usize,
        index: Arc<dyn Index>,
        queue_cap: usize,
        max_batch: usize,
    ) -> Shard {
        let queue = Arc::new(Queue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
                busy: false,
                parked: false,
                drainers: 0,
            }),
            cv: Condvar::new(),
            cap: queue_cap.max(1),
        });
        let stats = Arc::new(AtomicStats::default());
        let migration = Arc::new(parking_lot::Mutex::new(None));
        let q = Arc::clone(&queue);
        let st = Arc::clone(&stats);
        let mig = Arc::clone(&migration);
        let idx = Arc::clone(&index);
        let max_batch = max_batch.max(1);
        let join = std::thread::Builder::new()
            .name(format!("shard-{id}"))
            .spawn(move || worker_loop(id, &idx, &q, &st, &mig, max_batch))
            .expect("spawn shard worker");
        Shard {
            queue,
            stats,
            index,
            migration,
            m_shed_queue_full: obs::counter(&format!("service.shard{id}.shed.queue_full")),
            join: parking_lot::Mutex::new(Some(join)),
        }
    }

    /// Enqueue a job, or shed if the queue is at capacity. `ticket` is `None`
    /// for open-loop submissions.
    pub(crate) fn submit(
        &self,
        op: Op,
        budget_ns: Option<u64>,
        ticket: Option<Arc<Ticket>>,
    ) -> Result<(), ShedReason> {
        let g = self.queue.inner.lock().unwrap();
        if g.jobs.len() >= self.queue.cap {
            drop(g);
            self.stats.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            self.m_shed_queue_full.inc();
            return Err(ShedReason::QueueFull);
        }
        let job = Job { payload: Payload::Op(op), enqueued: Instant::now(), budget_ns, ticket };
        self.queue.push(g, job);
        Ok(())
    }

    /// Submit a sync barrier and wait for it: on return, every job enqueued
    /// before the call has been fully processed (executed, forwarded, shed,
    /// or bounced at least once). Cap-exempt — the barrier must go through.
    pub(crate) fn sync(&self) {
        let ticket = Ticket::new();
        self.queue.push_exempt(Job {
            payload: Payload::Sync,
            enqueued: Instant::now(),
            budget_ns: None,
            ticket: Some(Arc::clone(&ticket)),
        });
        let _ = ticket.wait();
    }

    /// Enqueue a migration copy batch (cap-exempt); the returned ticket
    /// completes after the entries are committed with a group-commit batch.
    pub(crate) fn push_copy(&self, entries: Vec<(Vec<u8>, u64)>) -> Arc<Ticket> {
        let ticket = Ticket::new();
        self.queue.push_exempt(Job {
            payload: Payload::Copy(entries),
            enqueued: Instant::now(),
            budget_ns: None,
            ticket: Some(Arc::clone(&ticket)),
        });
        ticket
    }

    /// This shard's queue, for a migration record's forward target.
    pub(crate) fn queue(&self) -> Arc<Queue> {
        Arc::clone(&self.queue)
    }

    /// The index this shard serves (the migration driver scans and prunes the
    /// source index directly, from its own session).
    pub(crate) fn index(&self) -> Arc<dyn Index> {
        Arc::clone(&self.index)
    }

    /// Install or clear this shard's source-migration record.
    pub(crate) fn set_migration(&self, rec: Option<Arc<ShardMigration>>) {
        *self.migration.lock() = rec;
    }

    /// Block until the queue is empty and the worker is idle.
    pub(crate) fn drain(&self) {
        let mut g = self.queue.inner.lock().unwrap();
        g.drainers += 1;
        while !g.jobs.is_empty() || g.busy {
            g = self.queue.cv.wait(g).unwrap();
        }
        g.drainers -= 1;
    }

    /// Momentary emptiness check (no waiting) — `Service::drain` uses it to
    /// detect forwarding refills across shards.
    pub(crate) fn is_idle(&self) -> bool {
        let g = self.queue.inner.lock().unwrap();
        g.jobs.is_empty() && !g.busy
    }

    pub(crate) fn stats(&self) -> ShardStats {
        self.stats.snapshot()
    }

    /// Close the queue and join the worker. Queued jobs are still executed.
    pub(crate) fn shutdown(&self) {
        self.queue.inner.lock().unwrap().closed = true;
        self.queue.cv.notify_all();
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

/// How one dequeued job is to be handled this round.
enum Disp {
    /// Execute on this shard (ops, copy batches, sync barriers).
    Exec,
    /// Hand to the migration destination's queue (key already handed off).
    Forward,
    /// Re-queue and retry (key inside the frozen copy window).
    Bounce,
    /// Drop unexecuted; payload is the observed queue age in ns.
    Deadline(u64),
}

fn worker_loop(
    id: usize,
    index: &Arc<dyn Index>,
    queue: &Arc<Queue>,
    stats: &AtomicStats,
    migration: &parking_lot::Mutex<Option<Arc<ShardMigration>>>,
    max_batch: usize,
) {
    // obs handles are cheap clones of registry entries; resolve once.
    let m_enqueued = obs::counter(&format!("service.shard{id}.enqueued"));
    let m_completed = obs::counter(&format!("service.shard{id}.completed"));
    let m_batches = obs::counter(&format!("service.shard{id}.batches"));
    let m_shed_cap = obs::counter(&format!("service.shard{id}.shed.index_capacity"));
    let m_shed_deadline = obs::counter(&format!("service.shard{id}.shed.deadline"));
    let m_forwarded = obs::counter(&format!("service.shard{id}.forwarded"));
    let m_bounced = obs::counter(&format!("service.shard{id}.bounced"));
    let m_migrated = obs::counter(&format!("service.shard{id}.migrated_in"));
    let m_copy_errors = obs::counter(&format!("service.shard{id}.migrate_copy_errors"));
    let m_lat = obs::histogram(&format!("service.shard{id}.latency_ns"));
    let m_depth = obs::gauge(&format!("service.shard{id}.queue_depth"));
    let mut handle = index.handle();
    let mut batch_jobs: Vec<Job> = Vec::with_capacity(max_batch);
    let mut bodies: Vec<Option<ReplyBody>> = Vec::with_capacity(max_batch);
    loop {
        {
            let mut g = queue.inner.lock().unwrap();
            while g.jobs.is_empty() && !g.closed {
                g.parked = true;
                g = queue.cv.wait(g).unwrap();
            }
            g.parked = false;
            if g.jobs.is_empty() && g.closed {
                return;
            }
            let n = g.jobs.len().min(max_batch);
            batch_jobs.extend(g.jobs.drain(..n));
            g.busy = true;
            m_depth.set(g.jobs.len() as f64);
        }
        let mig = migration.lock().clone();

        // Classify every job under one consistent view of the migration
        // window, so a freeze published mid-batch cannot split a batch's
        // routing decisions. (The driver's sync barrier orders its scans
        // after this whole batch either way.)
        let disps: Vec<Disp> = {
            let win = mig.as_ref().map(|m| m.window.lock());
            batch_jobs
                .iter()
                .map(|job| match &job.payload {
                    Payload::Copy(_) | Payload::Sync => Disp::Exec,
                    Payload::Op(op) => {
                        let age =
                            u64::try_from(job.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        if job.budget_ns.is_some_and(|b| age > b) {
                            Disp::Deadline(age)
                        } else {
                            match (&mig, &win) {
                                (Some(m), Some(w)) if m.is_moved(op.key()) => {
                                    match w.classify(op.key()) {
                                        KeyState::Done => Disp::Forward,
                                        KeyState::Frozen => Disp::Bounce,
                                        KeyState::Open => Disp::Exec,
                                    }
                                }
                                _ => Disp::Exec,
                            }
                        }
                    }
                })
                .collect()
        };

        // Phase 2: one pin + one closing fence for everything executable;
        // results become durable when this guard drops.
        let mut migrated = 0u64;
        let mut copy_errors = 0u64;
        bodies.clear();
        {
            let mut b = handle.batch();
            for (job, disp) in batch_jobs.iter().zip(&disps) {
                if !matches!(disp, Disp::Exec) {
                    bodies.push(None);
                    continue;
                }
                bodies.push(Some(match &job.payload {
                    Payload::Op(op) => exec(&mut b, op),
                    Payload::Copy(entries) => {
                        for (k, v) in entries {
                            copy_errors += u64::from(b.insert(k, *v).is_err());
                        }
                        migrated += entries.len() as u64;
                        ReplyBody::Value(None)
                    }
                    Payload::Sync => ReplyBody::Value(None),
                }));
            }
        }

        // Phase 3: the batch's fence has retired — acknowledge, forward,
        // bounce, and account.
        let total = batch_jobs.len();
        let mut n_exec = 0u64; // executed caller ops (incl. capacity sheds)
        let mut n_shed_cap = 0u64;
        let mut n_deadline = 0u64;
        let mut n_forward = 0u64;
        let mut bounce_buf: Vec<Job> = Vec::new();
        for ((job, disp), body) in batch_jobs.drain(..).zip(&disps).zip(bodies.drain(..)) {
            match disp {
                Disp::Exec => match &job.payload {
                    Payload::Op(_) => {
                        let body = body.expect("executed job has a body");
                        let age =
                            u64::try_from(job.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        m_lat.record(age);
                        if body == ReplyBody::Shed(ShedReason::IndexCapacity) {
                            n_shed_cap += 1;
                        }
                        n_exec += 1;
                        if let Some(t) = job.ticket {
                            t.complete(Reply { body, shard: id, queue_age_ns: age });
                        }
                    }
                    Payload::Copy(_) | Payload::Sync => {
                        if let Some(t) = job.ticket {
                            t.complete(Reply {
                                body: body.expect("executed job has a body"),
                                shard: id,
                                queue_age_ns: 0,
                            });
                        }
                    }
                },
                Disp::Deadline(age) => {
                    n_deadline += 1;
                    if let Some(t) = job.ticket {
                        t.complete(Reply {
                            body: ReplyBody::Shed(ShedReason::DeadlineExceeded),
                            shard: id,
                            queue_age_ns: *age,
                        });
                    }
                }
                Disp::Forward => {
                    n_forward += 1;
                    // The record outlives the window's Done state until the
                    // post-cutover sync, so `mig` is necessarily Some here.
                    if let Some(m) = &mig {
                        m.dest_queue.push_exempt(job);
                    }
                }
                Disp::Bounce => bounce_buf.push(job),
            }
        }
        let n_bounce = bounce_buf.len() as u64;
        stats.enqueued.fetch_add(n_exec, Ordering::Relaxed);
        stats.completed.fetch_add(n_exec - n_shed_cap, Ordering::Relaxed);
        stats.shed_index_capacity.fetch_add(n_shed_cap, Ordering::Relaxed);
        stats.shed_deadline.fetch_add(n_deadline, Ordering::Relaxed);
        stats.forwarded.fetch_add(n_forward, Ordering::Relaxed);
        stats.bounced.fetch_add(n_bounce, Ordering::Relaxed);
        stats.migrated_in.fetch_add(migrated, Ordering::Relaxed);
        m_enqueued.add(n_exec);
        m_completed.add(n_exec - n_shed_cap);
        m_shed_cap.add(n_shed_cap);
        m_shed_deadline.add(n_deadline);
        m_forwarded.add(n_forward);
        m_bounced.add(n_bounce);
        m_migrated.add(migrated);
        m_copy_errors.add(copy_errors);
        if n_exec > 0 {
            stats.batches.fetch_add(1, Ordering::Relaxed);
            m_batches.inc();
        }
        // A batch that was *pure* bounces means the frozen window is the only
        // thing in the queue: yield briefly so the retry loop does not spin
        // against the driver's copy in progress.
        let only_bounces = n_bounce as usize == total;
        if only_bounces {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        let mut g = queue.inner.lock().unwrap();
        g.jobs.extend(bounce_buf.drain(..));
        g.busy = false;
        // Idle is only ever reached here, so this is the one place drainers
        // need waking.
        let wake = g.drainers > 0 && g.jobs.is_empty();
        drop(g);
        if wake {
            queue.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A worker parked on an empty queue is the one waiter no enqueue will
    /// ever notify; `shutdown` must wake it regardless of the `parked` flag's
    /// bookkeeping.
    #[test]
    fn shutdown_wakes_a_parked_worker() {
        let shard = Shard::spawn(0, Arc::new(bwtree::DramBwTree::new()), 8, 4);
        shard.submit(Op::Insert(vec![7], 7), None, None).unwrap();
        shard.drain();
        let parked_by = Instant::now() + Duration::from_secs(30);
        while !shard.queue.inner.lock().unwrap().parked {
            assert!(Instant::now() < parked_by, "idle worker never parked");
            std::thread::yield_now();
        }
        let (tx, rx) = mpsc::channel();
        let closer = std::thread::spawn(move || {
            shard.shutdown();
            tx.send(shard.stats()).unwrap();
        });
        let stats = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("shutdown hung: the parked worker was not woken");
        closer.join().unwrap();
        assert_eq!(stats.completed, 1);
    }
}
