//! Live shard migration: split a hot shard (or grow the ring) while load
//! keeps running, without losing an acknowledged write.
//!
//! # Protocol
//!
//! A migration moves the keyspace delta reported by the router's resize API
//! ([`Router::split_shard`] / [`Router::fork`]) from its source shard(s) to a
//! freshly spawned destination shard, chunk by chunk, with a three-state
//! **forwarding window** per source keeping routing consistent throughout:
//!
//! ```text
//!       done_hi         frozen_hi
//!  ───────┬────────────────┬──────────────────▶ key order
//!   DONE  │     FROZEN     │       OPEN
//! forward │ bounce (retry) │ execute at source
//! to dest │                │
//! ```
//!
//! Per chunk, the driver (the thread inside [`Service::split`]):
//!
//! 1. **freeze** — scans ahead of the cursor to pick the chunk's upper key
//!    `K` and publishes `frozen_hi = K` (monotone: it never retreats, so a
//!    crash-resume cannot expose a half-moved key as writable);
//! 2. **sync** — pushes a barrier job through the source queue; once it
//!    completes, every request classified under the *old* window — enqueued,
//!    or claimed by a caller running it itself — has fully executed, so the
//!    source index is quiescent for moved keys `≤ K`;
//! 3. **copy** — re-scans `(done_hi, K]` authoritatively, and ships the
//!    moved entries to the destination queue as one cap-exempt copy batch —
//!    committed by the destination shard's combiner under the same batched
//!    group commit as any other write — waiting for its ticket;
//! 4. **prune** — removes the copied keys from the source index (driver
//!    session, batched); frozen classification keeps them unreachable at the
//!    source meanwhile;
//! 5. **advance** — publishes `done_hi = K`: the copied keys now *forward*,
//!    and requests for them execute at the destination, which holds their
//!    latest acknowledged state.
//!
//! When the scan ahead of the cursor is exhausted the window goes terminal
//! (`frozen_all`), one last sync + residue copy catches any moved key
//! inserted behind the cursor's final position, and `done_all` turns the
//! whole moved range into forwards. **Cutover** then swaps the router under
//! the topology write lock (no submit is in flight across it), a final sync
//! flushes pre-cutover stragglers out of each source queue, and the records
//! **retire** — the window is gone, new requests route straight to the
//! destination.
//!
//! # Why acknowledged writes survive
//!
//! * A moved key is only ever writable in one place: at the source while
//!   `Open`, at the destination once `Done` — and the `Frozen` gap between
//!   them admits no writes at all (requests bounce and retry).
//! * The copy of a chunk happens strictly after the sync barrier, so it sees
//!   every acknowledged source write; the destination applies copies before
//!   any forwarded request for those keys (FIFO queue, forwards only start
//!   after `advance`).
//! * Both freeze and done cursors move monotonically forward, and every
//!   driver step is idempotent, so a crash at any `service.migrate.*` site
//!   ([`MIGRATE_CRASH_SITES`]) resumes cleanly: re-copies overwrite with the
//!   same value (a frozen key cannot have changed), re-prunes are no-ops,
//!   and the crash-sweep test drives every site hole-free.
//!
//! [`Router::split_shard`]: crate::router::Router::split_shard
//! [`Router::fork`]: crate::router::Router::fork
//! [`Service::split`]: crate::service::Service::split

use crate::router::{moved_owner, MovedRange, Router};
use crate::service::Service;
use crate::shard::{Queue, Shard};
use pm::crash::site;
use recipe::session::IndexExt;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Raw entries the driver scans ahead per chunk when picking the freeze key
/// (moved and unmoved alike — the cursor walks the full key order).
const CHUNK_SCAN: usize = 128;

/// Every simulated-crash site the migration driver passes through, in
/// protocol order. The crash-sweep test arms each one and verifies that
/// resuming ([`Service::resume_split`]) leaves source and destination
/// agreeing on the acknowledged state — and that the sweep saw all of them.
///
/// [`Service::resume_split`]: crate::service::Service::resume_split
pub const MIGRATE_CRASH_SITES: &[&str] = &[
    "service.migrate.fork",
    "service.migrate.freeze",
    "service.migrate.synced",
    "service.migrate.copied",
    "service.migrate.pruned",
    "service.migrate.advanced",
    "service.migrate.frozen_all",
    "service.migrate.handoff_done",
    "service.migrate.cutover",
    "service.migrate.retire",
];

/// Why a migration could not start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MigrateError {
    /// Another migration is still in flight (one at a time).
    Busy,
    /// A source shard's index does not support scans
    /// ([`recipe::session::Capabilities::scan`]), so its moved keyspace
    /// cannot be enumerated for handoff.
    ScanUnsupported,
    /// The named source shard does not exist.
    UnknownShard,
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::Busy => write!(f, "a migration is already in flight"),
            MigrateError::ScanUnsupported => {
                write!(f, "source index does not support scans (required for handoff)")
            }
            MigrateError::UnknownShard => write!(f, "no such source shard"),
        }
    }
}

impl std::error::Error for MigrateError {}

/// What a completed migration did.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// The new shard the moved keyspace landed on.
    pub dest: usize,
    /// Source shards that handed keys off.
    pub sources: Vec<usize>,
    /// Entries shipped in copy batches. A crash-resume re-copies its
    /// interrupted chunk, so sweeps can count a few entries twice.
    pub moved_entries: u64,
    /// Handoff chunks driven (including each source's terminal pass).
    pub chunks: u64,
}

/// Where a moved key stands relative to the handoff cursors.
pub(crate) enum KeyState {
    /// Not yet reached: execute at the source as usual.
    Open,
    /// Inside the freeze/copy window: bounce and retry.
    Frozen,
    /// Handed off: forward to the destination queue.
    Done,
}

/// The per-source forwarding window, published by the driver and read by the
/// source shard's combiner every pickup pass. Both cursors are inclusive and
/// move only forward; the `*_all` flags are the terminal states of each cursor.
#[derive(Default)]
pub(crate) struct Window {
    frozen_hi: Option<Vec<u8>>,
    done_hi: Option<Vec<u8>>,
    frozen_all: bool,
    done_all: bool,
}

impl Window {
    pub(crate) fn classify(&self, key: &[u8]) -> KeyState {
        if self.done_all || self.done_hi.as_deref().is_some_and(|h| key <= h) {
            KeyState::Done
        } else if self.frozen_all || self.frozen_hi.as_deref().is_some_and(|h| key <= h) {
            KeyState::Frozen
        } else {
            KeyState::Open
        }
    }

    /// Whether the window still intercepts anything (false once retired).
    fn done(&self) -> bool {
        self.done_all
    }
}

/// One source shard's migration state: the moved hash ranges, the forward
/// target, and the forwarding window.
pub(crate) struct ShardMigration {
    /// This source's moved ranges (sorted, disjoint — a filtered router
    /// delta), defining *which* keys the window applies to.
    ranges: Vec<MovedRange>,
    /// The destination shard's queue; `Done` keys forward here, cap-exempt.
    pub(crate) dest_queue: Arc<Queue>,
    pub(crate) window: parking_lot::Mutex<Window>,
}

impl ShardMigration {
    /// Whether `key`'s ring position lies in this migration's moved ranges.
    pub(crate) fn is_moved(&self, key: &[u8]) -> bool {
        moved_owner(&self.ranges, Router::key_point(key)).is_some()
    }
}

struct SourceMigration {
    src: usize,
    record: Arc<ShardMigration>,
}

/// A whole in-flight migration: the target topology plus per-source records.
/// Held by the service until retire, so a crashed driver can resume it.
pub(crate) struct MigrationPlan {
    new_router: Router,
    dest: usize,
    dest_shard: Arc<Shard>,
    sources: Vec<SourceMigration>,
    cut_over: AtomicBool,
    moved_entries: AtomicU64,
    chunks: AtomicU64,
}

impl MigrationPlan {
    fn report(&self) -> MigrationReport {
        MigrationReport {
            dest: self.dest,
            sources: self.sources.iter().map(|s| s.src).collect(),
            moved_entries: self.moved_entries.load(Ordering::Relaxed),
            chunks: self.chunks.load(Ordering::Relaxed),
        }
    }
}

/// Start a split of `src` onto a new shard; see [`Service::split`].
pub(crate) fn split(svc: &Service, src: usize) -> Result<MigrationReport, MigrateError> {
    begin(svc, |router| {
        if src >= router.shards() {
            return Err(MigrateError::UnknownShard);
        }
        Ok(router.split_shard(src))
    })
}

/// Grow the ring by one shard, migrating from every source the fork delta
/// names; see [`Service::grow`].
pub(crate) fn grow(svc: &Service) -> Result<MigrationReport, MigrateError> {
    begin(svc, |router| Ok(router.fork(router.shards() + 1)))
}

/// Resume an interrupted migration, if one is pending.
pub(crate) fn resume(svc: &Service) -> Option<MigrationReport> {
    let plan = svc.migration.lock().clone()?;
    Some(drive(svc, &plan))
}

fn begin(
    svc: &Service,
    fork: impl FnOnce(&Router) -> Result<(Router, Vec<MovedRange>), MigrateError>,
) -> Result<MigrationReport, MigrateError> {
    let mut active = svc.migration.lock();
    if active.is_some() {
        return Err(MigrateError::Busy);
    }
    let (new_router, delta, dest_id) = {
        let topo = svc.topo.read();
        let (new_router, delta) = fork(&topo.router)?;
        let mut sources: Vec<usize> = delta.iter().map(|r| r.from).collect();
        sources.sort_unstable();
        sources.dedup();
        for &s in &sources {
            if !topo.shards[s].index().capabilities().scan {
                return Err(MigrateError::ScanUnsupported);
            }
        }
        (new_router, delta, topo.shards.len())
    };
    debug_assert_eq!(dest_id + 1, new_router.shards());
    let dest_shard =
        Arc::new(Shard::spawn(dest_id, (svc.make_shard)(dest_id), &svc.domain, &svc.cfg));
    let mut by_src: BTreeMap<usize, Vec<MovedRange>> = BTreeMap::new();
    for r in delta {
        by_src.entry(r.from).or_default().push(r);
    }
    let sources: Vec<SourceMigration> = by_src
        .into_iter()
        .map(|(src, ranges)| SourceMigration {
            src,
            record: Arc::new(ShardMigration {
                ranges,
                dest_queue: dest_shard.queue(),
                window: parking_lot::Mutex::new(Window::default()),
            }),
        })
        .collect();
    let plan = Arc::new(MigrationPlan {
        new_router,
        dest: dest_id,
        dest_shard: Arc::clone(&dest_shard),
        sources,
        cut_over: AtomicBool::new(false),
        moved_entries: AtomicU64::new(0),
        chunks: AtomicU64::new(0),
    });
    *active = Some(Arc::clone(&plan));
    drop(active);
    // Publish the new worker and the forwarding windows before the first
    // crash site: from here on, `drive` is resumable from the stored plan.
    {
        let mut topo = svc.topo.write();
        topo.shards.push(dest_shard);
        for s in &plan.sources {
            topo.shards[s.src].set_migration(Some(Arc::clone(&s.record)));
        }
    }
    site("service.migrate.fork");
    Ok(drive(svc, &plan))
}

/// The (re-entrant, idempotent) driver: hand off every source, cut the
/// router over, flush stragglers, retire the windows.
fn drive(svc: &Service, plan: &Arc<MigrationPlan>) -> MigrationReport {
    for s in &plan.sources {
        drive_source(svc, plan, s);
    }
    if !plan.cut_over.load(Ordering::SeqCst) {
        let mut topo = svc.topo.write();
        topo.router = plan.new_router.clone();
        plan.cut_over.store(true, Ordering::SeqCst);
    }
    site("service.migrate.cutover");
    // Every submit after cutover routes moved keys straight to the
    // destination; one barrier per source flushes the pre-cutover stragglers
    // still in its queue through the (all-Done) window.
    {
        let topo = svc.topo.read();
        for s in &plan.sources {
            topo.shards[s.src].sync();
        }
    }
    site("service.migrate.retire");
    {
        let topo = svc.topo.read();
        for s in &plan.sources {
            topo.shards[s.src].set_migration(None);
        }
    }
    *svc.migration.lock() = None;
    plan.report()
}

/// Drive one source's chunked handoff to completion (no-op if already done).
fn drive_source(svc: &Service, plan: &Arc<MigrationPlan>, sm: &SourceMigration) {
    let (src_shard, src_index) = {
        let topo = svc.topo.read();
        let shard = Arc::clone(&topo.shards[sm.src]);
        let index = shard.index();
        (shard, index)
    };
    let mut handle = src_index.handle();
    loop {
        let (cursor, mut terminal) = {
            let w = sm.record.window.lock();
            if w.done() {
                return;
            }
            (w.done_hi.clone(), w.frozen_all)
        };
        let mut hi: Option<Vec<u8>> = None;
        if !terminal {
            // Pick the chunk's upper key: the last of the next CHUNK_SCAN raw
            // entries past the cursor. Values here are advisory — the
            // authoritative read happens after the sync barrier.
            let last =
                scan_from(&mut handle, cursor.as_deref()).limit(CHUNK_SCAN).last().map(|(k, _)| k);
            match last {
                None => {
                    // Source exhausted past the cursor: terminal freeze. Any
                    // moved key inserted from now on bounces until done_all.
                    sm.record.window.lock().frozen_all = true;
                    terminal = true;
                    site("service.migrate.frozen_all");
                }
                Some(k) => {
                    let mut w = sm.record.window.lock();
                    // Monotone: a resume that picks a smaller chunk (keys
                    // pruned meanwhile) must not re-expose frozen keys.
                    if w.frozen_hi.as_ref().is_none_or(|cur| *cur < k) {
                        w.frozen_hi = Some(k.clone());
                    }
                    drop(w);
                    hi = Some(k);
                    site("service.migrate.freeze");
                }
            }
        }
        src_shard.sync();
        site("service.migrate.synced");
        // Authoritative copy scan: after the barrier, every moved key in
        // (cursor, hi] is frozen and quiescent — what we read is the full
        // acknowledged state.
        let entries: Vec<(Vec<u8>, u64)> = scan_from(&mut handle, cursor.as_deref())
            .take_while(|(k, _)| hi.as_ref().is_none_or(|h| k <= h))
            .filter(|(k, _)| sm.record.is_moved(k))
            .collect();
        if !entries.is_empty() {
            let keys: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();
            plan.moved_entries.fetch_add(entries.len() as u64, Ordering::Relaxed);
            // Committed by the destination shard's batched group commit.
            plan.dest_shard.push_copy(entries).wait();
            site("service.migrate.copied");
            {
                let mut b = handle.batch();
                for k in &keys {
                    // NotFound after a crash-resume re-prune is expected.
                    let _ = b.remove(k);
                }
            }
            site("service.migrate.pruned");
        }
        {
            let mut w = sm.record.window.lock();
            if terminal {
                w.done_all = true;
            } else {
                w.done_hi = hi;
            }
        }
        plan.chunks.fetch_add(1, Ordering::Relaxed);
        site("service.migrate.advanced");
        if terminal {
            site("service.migrate.handoff_done");
            return;
        }
    }
}

/// Open the driver's cursor: from the beginning, or exclusively after the
/// last handed-off key.
fn scan_from<'h, 'a, I: recipe::session::Index + ?Sized>(
    handle: &'h mut recipe::session::Handle<'a, I>,
    cursor: Option<&[u8]>,
) -> recipe::session::Scanner<'h, 'a, I> {
    match cursor {
        None => handle.scan(&[]),
        Some(c) => handle.scan_after(c),
    }
}
