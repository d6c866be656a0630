//! A sharded session-store service over the RECIPE indexes — now *elastic*.
//!
//! This crate turns the per-thread [`recipe::session::Handle`] API into a
//! small *service*: a set of shards, each owning one index shard, a bounded
//! queue and a worker thread, fed by a consistent-hash [`router`]. A shard is
//! a *combiner*, not a thread: at any moment at most one thread — the worker,
//! or a caller that found the shard idle — executes its requests, under one
//! group commit per batch.
//!
//! The design points, in the order they matter:
//!
//! * **Typed request envelope** ([`Request`]): callers submit an [`Op`]
//!   optionally wrapped with a latency budget ([`Deadline`]). `impl From<Op>
//!   for Request` keeps every pre-envelope call site compiling unchanged —
//!   [`Service::call`]/[`Service::cast`] accept both. The [`Reply`] carries the request's disposition back: which shard
//!   executed it and how long it queued.
//! * **Batched group commit** ([`shard`]): the shard's combiner takes up to
//!   `max_batch` requests — what is queued, plus what arrives while the batch
//!   is open — and executes them under one [`recipe::session::Batch`] — a
//!   single epoch pin and a single closing fence for the whole batch.
//!   Per-line `clwb`s dedup across the batch's one fence epoch
//!   ([`pm::latency`]), so the *charged* PM cost per operation drops as
//!   batches grow. Requests are acknowledged only after the batch's closing
//!   fence: durability is per-batch (group commit), visibility is immediate.
//! * **Caller-runs** ([`Service::call`]): a closed-loop request onto an idle
//!   shard is executed by the calling thread itself, through that same batch
//!   path — no enqueue, no ticket, no thread woken in either direction, so an
//!   uncontended call costs about a microsecond instead of two context
//!   switches. A request onto a busy shard is enqueued; its caller spins
//!   briefly, then parks. Open-loop [`Service::cast`]s always go to the
//!   worker.
//! * **Admission control** ([`Service::call`] / [`Service::cast`]): each
//!   shard queue is bounded. A full queue sheds the request with a typed
//!   [`ShedReason::QueueFull`] — never a panic, never an unbounded queue. An
//!   index refusing an entry ([`recipe::session::OpError::CapacityExceeded`],
//!   e.g. a CCEH probe-window overflow) surfaces as
//!   [`ShedReason::IndexCapacity`] on the same path. Requests carrying a
//!   [`Deadline`] are additionally dropped *before execution* once their
//!   queue age exceeds the budget ([`ShedReason::DeadlineExceeded`]) — a
//!   doomed request never occupies the index.
//! * **Consistent-hash routing** ([`router::Router`]): keys map to shards
//!   through a virtual-node hash ring, so adding a shard moves `~1/n` of the
//!   keyspace instead of reshuffling everything — and the ring's resize API
//!   ([`Router::fork`] / [`Router::split_shard`]) reports the exact moved
//!   ranges, which the live-migration driver consumes directly.
//! * **Live migration** ([`migrate`]): [`Service::split`] relieves a hot
//!   shard online — it spawns a new worker, forks the ring, and drains the
//!   moved keyspace chunk-by-chunk through a freeze/copy/forward window while
//!   load keeps running. Acknowledged writes are never lost; crash sites
//!   (`service.migrate.*`) make the handoff sweepable.
//! * **Observability**: every shard registers `service.shard{i}.*` counters
//!   (`caller_batches` says how many of its `batches` callers ran) and an
//!   exact latency histogram (`service.shard{i}.latency_ns`,
//!   enqueue-to-commit) in the [`obs`] registry, so one
//!   `recipe-obs-metrics/v1` snapshot carries the full service state. The
//!   [`loadgen`] module reads p50/p90/p99/p999 back from those histograms and
//!   can attach an [`obs::SnapshotStream`] for an in-flight timeline.
//!
//! [`Service::call`]: service::Service::call
//! [`Service::cast`]: service::Service::cast
//! [`Service::split`]: service::Service::split
//! [`Router::fork`]: router::Router::fork
//! [`Router::split_shard`]: router::Router::split_shard

pub mod loadgen;
pub mod migrate;
pub mod router;
pub mod service;
pub mod shard;

pub use loadgen::{
    run_closed_loop, run_open_loop, LoadReport, LoadgenConfig, ShardLatency, TimelinePoint,
};
pub use migrate::{MigrateError, MigrationReport, MIGRATE_CRASH_SITES};
pub use router::{moved_owner, MovedRange, Router};
pub use service::{Service, ServiceConfig};
pub use shard::{ShardStats, DEFAULT_MAX_BATCH, DEFAULT_QUEUE_CAP};

use recipe::session::{OpError, OpResult};

/// A point operation on one key — the payload of a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Upsert `key -> value`.
    Insert(Vec<u8>, u64),
    /// Conditional update of an existing key.
    Update(Vec<u8>, u64),
    /// Point lookup.
    Get(Vec<u8>),
    /// Remove the key.
    Remove(Vec<u8>),
}

impl Op {
    /// The key this operation routes on.
    #[must_use]
    pub fn key(&self) -> &[u8] {
        match self {
            Op::Insert(k, _) | Op::Update(k, _) | Op::Get(k) | Op::Remove(k) => k,
        }
    }
}

/// A latency budget for one request, measured from enqueue. A combiner that
/// picks up a request whose queue age already exceeds its budget drops it
/// *before* executing ([`ShedReason::DeadlineExceeded`]) — under overload
/// this converts unbounded tail latency into typed, accounted sheds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// Maximum tolerated queue age, in nanoseconds.
    pub budget_ns: u64,
}

impl Deadline {
    /// A budget of `ns` nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Deadline {
        Deadline { budget_ns: ns }
    }

    /// A budget of `us` microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Deadline {
        Deadline { budget_ns: us * 1_000 }
    }

    /// A budget of `ms` milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Deadline {
        Deadline { budget_ns: ms * 1_000_000 }
    }
}

/// The typed request envelope: an [`Op`] plus optional admission metadata.
/// `From<Op>` means every bare-`Op` call site keeps compiling —
/// [`Service::call`](service::Service::call) takes `impl Into<Request>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The operation to execute.
    pub op: Op,
    /// Optional latency budget; `None` means never deadline-shed.
    pub deadline: Option<Deadline>,
}

impl Request {
    /// Wrap an op with no deadline.
    #[must_use]
    pub fn new(op: Op) -> Request {
        Request { op, deadline: None }
    }

    /// Attach a latency budget.
    #[must_use]
    pub fn with_deadline(mut self, d: Deadline) -> Request {
        self.deadline = Some(d);
        self
    }

    /// The key this request routes on.
    #[must_use]
    pub fn key(&self) -> &[u8] {
        self.op.key()
    }
}

impl From<Op> for Request {
    fn from(op: Op) -> Request {
        Request::new(op)
    }
}

/// Why a request was refused instead of executed.
///
/// Non-exhaustive: admission control grows reasons (deadline shedding arrived
/// after queue/capacity); match with a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ShedReason {
    /// The target shard's bounded queue was full (admission control).
    QueueFull,
    /// The shard's index refused the entry
    /// ([`OpError::CapacityExceeded`]).
    IndexCapacity,
    /// The request's queue age exceeded its [`Deadline`] budget before a
    /// worker could execute it; it was dropped unexecuted.
    DeadlineExceeded,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull => write!(f, "shard queue full"),
            ShedReason::IndexCapacity => write!(f, "index capacity exceeded"),
            ShedReason::DeadlineExceeded => write!(f, "deadline exceeded in queue"),
        }
    }
}

/// The typed outcome of a serviced request — the payload of a [`Reply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyBody {
    /// A mutation completed (and its batch's fence retired): the payload is
    /// the typed outcome ([`OpResult::Inserted`] / `Updated` / `Removed`).
    Done(OpResult),
    /// A lookup completed; `None` means the key is absent.
    Value(Option<u64>),
    /// The operation executed and failed index-side with a non-capacity
    /// error (e.g. [`OpError::NotFound`] for a conditional update).
    Error(OpError),
    /// The request was refused; see [`ShedReason`]. Shed mutations were never
    /// applied.
    Shed(ShedReason),
}

impl ReplyBody {
    /// Whether the request was shed rather than executed.
    #[must_use]
    pub fn is_shed(&self) -> bool {
        matches!(self, ReplyBody::Shed(_))
    }
}

/// A serviced request's outcome plus its disposition: which shard executed
/// it (meaningful during live migration, where a forwarded request lands on
/// the destination) and how long it took from submission to commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// The typed outcome.
    pub body: ReplyBody,
    /// Shard that executed (or shed) the request. For a request refused at
    /// admission this is the shard it routed to.
    pub shard: usize,
    /// Nanoseconds from enqueue to the request's group commit — or, for a
    /// deadline shed, to the moment it was found stale. A request its caller
    /// ran itself was never enqueued: the clock starts when the caller claims
    /// the shard, so this is the cost of its own batch. Never 0 for a request
    /// a combiner saw; 0 marks an admission shed.
    pub queue_age_ns: u64,
}

impl Reply {
    /// Whether the request was shed rather than executed.
    #[must_use]
    pub fn is_shed(&self) -> bool {
        self.body.is_shed()
    }
}

/// Compare a full reply against just its body — keeps
/// `assert_eq!(svc.call(op), ReplyBody::Done(..))`-style tests readable
/// without caring about disposition.
impl PartialEq<ReplyBody> for Reply {
    fn eq(&self, other: &ReplyBody) -> bool {
        self.body == *other
    }
}

impl PartialEq<Reply> for ReplyBody {
    fn eq(&self, other: &Reply) -> bool {
        *self == other.body
    }
}
