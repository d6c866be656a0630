//! The session-handle index API: typed results, cursor scans, and epoch-pinned
//! reclamation.
//!
//! This is the primary interface of the workspace. A shared [`Index`] object is
//! `Send + Sync` and holds the data; each thread opens a cheap, `!Sync`
//! [`Handle`] session on it ([`IndexExt::handle`]). The handle
//!
//! * returns **typed results**: [`OpResult`] / [`OpError`] instead of the
//!   cause-erasing booleans of the legacy [`ConcurrentIndex`] trait (CCEH's
//!   `SegmentFull`, for instance, converts into
//!   [`OpError::CapacityExceeded`] instead of living in a crate-local side
//!   channel, and hash indexes report [`OpError::UnsupportedKey`] for keys
//!   they cannot store instead of silently answering `false`);
//! * exposes range queries as a **resumable cursor** ([`Handle::scan`] →
//!   [`Scanner`]) over one flat, reused [`ScanBuf`] the handle owns: an index
//!   scans straight into it ([`Index::exec_scan`]) and a caller reads the
//!   entries in place ([`Scanner::visit`]), so a scan allocates nothing once
//!   the buffer has grown to the workload's scan length;
//! * **pins an epoch guard** ([`crate::epoch`]) around every operation when the
//!   index reclaims memory ([`Index::reclaimer`]), so lock-free indexes can
//!   free unlinked nodes at epoch quiescence while any session might still be
//!   traversing them;
//! * accumulates per-thread **operation statistics** ([`Handle::stats`]).
//!
//! Capability discovery moves from the old lone `supports_scan` flag to the
//! [`Capabilities`] struct ([`Index::capabilities`]).
//!
//! # The scan path and its compatibility shims
//!
//! [`Index::exec_scan`] into a [`ScanBuf`] is the **only** scan an index
//! implements, and [`Scanner::visit`] is the only way to read a cursor without
//! a heap allocation per key. The owned-pair forms — [`Iterator::next`] on a
//! [`Scanner`], [`Scanner::next_into`], [`Scanner::collect_vec`] and
//! [`IndexExt::exec_scan_chunk`] — are shims written once in this module over
//! those two: each copies an entry out of the `ScanBuf` into a fresh `Vec<u8>`.
//! They stay because the frozen `benchmark/` package, the legacy
//! [`ConcurrentIndex::scan`] adapter and most tests want owned pairs and are
//! not hot paths; nothing on a measured path should call them.
//!
//! The legacy [`ConcurrentIndex`] trait stays alive as a *blanket adapter*
//! over [`Index`] (every `Index` is automatically a `ConcurrentIndex`), so old
//! call sites keep compiling while new code talks to handles.
//!
//! ```
//! use recipe::session::{Capabilities, Index, IndexExt, OpError, OpResult, ScanBuf};
//! # use std::collections::BTreeMap;
//! # use std::sync::Mutex;
//! # struct Toy(Mutex<BTreeMap<Vec<u8>, u64>>);
//! # impl Index for Toy {
//! #     fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
//! #         match self.0.lock().unwrap().insert(key.to_vec(), value) {
//! #             None => Ok(OpResult::Inserted),
//! #             Some(_) => Ok(OpResult::Updated),
//! #         }
//! #     }
//! #     fn exec_get(&self, key: &[u8]) -> Option<u64> {
//! #         self.0.lock().unwrap().get(key).copied()
//! #     }
//! #     fn exec_remove(&self, key: &[u8]) -> Result<OpResult, OpError> {
//! #         match self.0.lock().unwrap().remove(key) {
//! #             Some(_) => Ok(OpResult::Removed),
//! #             None => Err(OpError::NotFound),
//! #         }
//! #     }
//! #     fn exec_scan(&self, start: &[u8], max: usize, out: &mut ScanBuf) {
//! #         for (k, v) in self.0.lock().unwrap().range(start.to_vec()..).take(max) {
//! #             out.push(k, *v);
//! #         }
//! #     }
//! #     fn capabilities(&self) -> Capabilities {
//! #         Capabilities { ordered: true, scan: true, linearizable_update: true }
//! #     }
//! #     fn index_name(&self) -> String {
//! #         "toy".into()
//! #     }
//! # }
//! # let index = Toy(Mutex::new(BTreeMap::new()));
//! let mut handle = index.handle(); // one per thread
//! assert_eq!(handle.insert(b"k1", 1), Ok(OpResult::Inserted));
//! assert_eq!(handle.insert(b"k1", 2), Ok(OpResult::Updated));
//! assert_eq!(handle.update(b"missing", 9), Err(OpError::NotFound));
//! assert_eq!(handle.get(b"k1"), Some(2));
//!
//! // Cursor scan: read the entries where the index wrote them, no copies.
//! handle.insert(b"k2", 4).unwrap();
//! let mut sum = 0;
//! let n = handle.scan(b"k1").visit(|_key, value| sum += value);
//! assert_eq!((n, sum), (2, 6));
//! assert_eq!(handle.stats().inserts, 3);
//! ```

use crate::epoch;
use crate::index::ConcurrentIndex;
use std::marker::PhantomData;

/// Default entries fetched per [`Scanner`] batch.
pub const DEFAULT_SCAN_BATCH: usize = 64;

/// What an index can do, replacing the legacy lone `supports_scan` flag.
///
/// Surfaced per registry entry (`harness::registry::IndexEntry::caps`) so
/// drivers and tests select workloads without building an index first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Keys are kept in lexicographic order.
    pub ordered: bool,
    /// Range scans ([`Handle::scan`]) return data. Matches `ordered` for every
    /// index in this workspace, but is reported separately so a future
    /// hash-partitioned ordered index can say `ordered && !scan`.
    pub scan: bool,
    /// [`Handle::update`] is a single linearizable conditional update. Indexes
    /// relying on the default get-then-insert fallback **must** report `false`:
    /// the fallback can resurrect a concurrently removed key or miss a
    /// concurrently inserted one (it never corrupts the index). The registry
    /// conformance suite probes this flag against actual interleavings.
    pub linearizable_update: bool,
}

impl Capabilities {
    /// Capabilities of an ordered (tree/trie) index.
    #[must_use]
    pub const fn ordered_index(linearizable_update: bool) -> Self {
        Capabilities { ordered: true, scan: true, linearizable_update }
    }

    /// Capabilities of an unordered hash index.
    #[must_use]
    pub const fn hash_index(linearizable_update: bool) -> Self {
        Capabilities { ordered: false, scan: false, linearizable_update }
    }
}

/// Success outcome of a typed index operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpResult {
    /// The key was not present and is now.
    Inserted,
    /// The key was present; its value was overwritten.
    Updated,
    /// The key was present and is now gone.
    Removed,
}

/// Failure outcome of a typed index operation.
///
/// These were invisible under the boolean [`ConcurrentIndex`] interface:
/// `update`/`remove` of an absent key, a capacity-limited structure refusing a
/// key, and a hash index silently dropping a key it cannot encode all
/// collapsed into `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpError {
    /// Conditional operation on an absent key (`update`, `remove`).
    NotFound,
    /// The structure cannot take the entry without violating its invariants —
    /// e.g. a CCEH segment probe window with no free slot (the crate-local
    /// `SegmentFull` side channel converts into this variant).
    CapacityExceeded,
    /// The index cannot represent this key (e.g. the fixed 8-byte hash-table
    /// keys, or WOART's non-empty-key requirement).
    UnsupportedKey,
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::NotFound => write!(f, "key not found"),
            OpError::CapacityExceeded => write!(f, "index capacity exceeded"),
            OpError::UnsupportedKey => write!(f, "key not representable by this index"),
        }
    }
}

impl std::error::Error for OpError {}

/// The core index contract every index crate implements once.
///
/// These are the raw entry points the session layer drives; applications use a
/// [`Handle`] instead (epoch pinning, statistics, cursors). Method names carry
/// an `exec_` prefix so they never shadow the index's inherent API.
///
/// Implementations are internally synchronized (`Send + Sync`); an index that
/// reclaims unlinked memory additionally exposes its epoch [`Collector`]
/// through [`Index::reclaimer`] and must protect its own traversals (e.g. via
/// [`epoch::Collector::enter`]) so that direct calls remain safe.
///
/// [`Collector`]: epoch::Collector
pub trait Index: Send + Sync {
    /// Upsert `key -> value`. `Ok(Inserted)` if the key was new,
    /// `Ok(Updated)` if it existed (value overwritten), `Err` if the index
    /// cannot store the entry.
    fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError>;

    /// Conditional update: store `value` only if `key` is present.
    ///
    /// The default is a **non-atomic** get-then-insert sequence: under
    /// concurrent mutation of the same key it can resurrect a concurrently
    /// removed key or report [`OpError::NotFound`] for a concurrently inserted
    /// one. It never corrupts the index — each step is individually
    /// linearizable — but the conditional is not. Implementations keeping this
    /// default **must** report [`Capabilities::linearizable_update`] `= false`;
    /// implementations that can check-and-write under one write exclusion
    /// should override and report `true`.
    fn exec_update(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        if self.exec_get(key).is_some() {
            self.exec_insert(key, value)?;
            Ok(OpResult::Updated)
        } else {
            Err(OpError::NotFound)
        }
    }

    /// Look up the latest value associated with `key`.
    fn exec_get(&self, key: &[u8]) -> Option<u64>;

    /// Remove `key`: `Ok(Removed)` if it was present, `Err(NotFound)` if not.
    fn exec_remove(&self, key: &[u8]) -> Result<OpResult, OpError>;

    /// Append up to `max` entries with keys `>= start`, in ascending key
    /// order, to `out` — without clearing it. Appending fewer than `max`
    /// entries means no further keys existed at the time of the call. The
    /// default (for unordered indexes, [`Capabilities::scan`] `= false`)
    /// appends nothing.
    ///
    /// This is the one scan an index implements: keys are copied once, from
    /// the index's nodes into the [`ScanBuf`] arena, and nothing is allocated
    /// per entry. The owned-pair form is the [`IndexExt::exec_scan_chunk`]
    /// shim over it.
    fn exec_scan(&self, start: &[u8], max: usize, out: &mut ScanBuf) {
        let _ = (start, max, out);
    }

    /// One-shot structural maintenance after a bulk load: indexes that reshape
    /// themselves opportunistically during inserts (e.g. P-HOT's compound-node
    /// widening) finish the job here, so read-phase measurements see the settled
    /// structure instead of whatever the load's sampling left behind. Must be
    /// safe to call at any time, including concurrently with operations. The
    /// default does nothing.
    fn exec_settle(&self) {}

    /// What this index supports; see [`Capabilities`].
    fn capabilities(&self) -> Capabilities;

    /// Short display name, e.g. `"P-ART"` or `"FAST&FAIR"`.
    fn index_name(&self) -> String;

    /// The epoch collector protecting this index's memory reclamation, if it
    /// has one. Handles register a session with it and pin an epoch guard
    /// around every operation; its gauges
    /// ([`epoch::Collector::retired_bytes`]) bound unreclaimed memory.
    fn reclaimer(&self) -> Option<&epoch::Collector> {
        None
    }
}

/// Extension trait providing [`IndexExt::handle`] for every [`Index`]
/// (including trait objects and smart pointers).
pub trait IndexExt: Index {
    /// Open a per-thread session on this index. See [`Handle`].
    fn handle(&self) -> Handle<'_, Self> {
        Handle::new(self)
    }

    /// [`Index::exec_scan`] into owned pairs, appended to `out`.
    ///
    /// A compatibility shim (the frozen `benchmark/` package calls it): it
    /// scans into a temporary [`ScanBuf`] and copies every key into a `Vec` of
    /// its own, so it allocates per entry and costs a little more than the
    /// scan alone (about 1 µs per 50 entries). Blanket-implemented here so
    /// that no index can carry a second scan implementation.
    fn exec_scan_chunk(&self, start: &[u8], max: usize, out: &mut Vec<(Vec<u8>, u64)>) {
        let mut buf = ScanBuf::new();
        self.exec_scan(start, max, &mut buf);
        out.extend(buf.iter().map(|(k, v)| (k.to_vec(), v)));
    }
}

impl<T: Index + ?Sized> IndexExt for T {}

/// The flat buffer every scan fills: keys packed back to back in one byte
/// arena, plus one end offset and one value per entry.
///
/// An index appends to it ([`Index::exec_scan`]); a [`Handle`] owns one and
/// lends it to every [`Scanner`] it opens. [`ScanBuf::clear`] keeps the three
/// allocations, so once they have grown to a workload's longest scan a scan
/// allocates nothing — where a `Vec<(Vec<u8>, u64)>` paid one `malloc` and one
/// `free` per returned key.
#[derive(Debug, Default)]
pub struct ScanBuf {
    /// Key bytes of every entry, in entry order.
    bytes: Vec<u8>,
    /// `ends[i]` is the offset in `bytes` one past entry `i`'s key.
    ends: Vec<usize>,
    values: Vec<u64>,
}

impl ScanBuf {
    /// An empty buffer; allocates on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the buffer holds no entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Drop every entry, keeping the allocations.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Drop the entries at and after index `len` (no-op if there are fewer),
    /// keeping the allocations. An index that reads a node optimistically rolls
    /// back what it appended from a snapshot that failed validation.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.bytes.truncate(if len == 0 { 0 } else { self.ends[len - 1] });
            self.ends.truncate(len);
            self.values.truncate(len);
        }
    }

    /// Append one entry.
    pub fn push(&mut self, key: &[u8], value: u64) {
        self.push_parts(key, &[], value);
    }

    /// Append one entry whose key is `head` followed by `tail` — for indexes
    /// that hold a key in two pieces (a layer prefix and a key slice) and would
    /// otherwise concatenate them into a temporary first.
    pub fn push_parts(&mut self, head: &[u8], tail: &[u8], value: u64) {
        self.bytes.extend_from_slice(head);
        self.bytes.extend_from_slice(tail);
        self.ends.push(self.bytes.len());
        self.values.push(value);
    }

    /// Key of entry `i`. Panics if `i >= len()`.
    #[must_use]
    pub fn key(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    /// Value of entry `i`. Panics if `i >= len()`.
    #[must_use]
    pub fn value(&self, i: usize) -> u64 {
        self.values[i]
    }

    /// Key of the last entry, if any (what duplicate suppression and cursor
    /// resumption compare against).
    #[must_use]
    pub fn last_key(&self) -> Option<&[u8]> {
        self.len().checked_sub(1).map(|i| self.key(i))
    }

    /// The entries in order, borrowed.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], u64)> + '_ {
        (0..self.len()).map(|i| (self.key(i), self.values[i]))
    }

    /// The entries as owned pairs (tests and the convenience `scan` wrappers).
    #[must_use]
    pub fn to_vec(&self) -> Vec<(Vec<u8>, u64)> {
        self.iter().map(|(k, v)| (k.to_vec(), v)).collect()
    }
}

/// Per-thread operation statistics accumulated by a [`Handle`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HandleStats {
    /// Calls to [`Handle::insert`].
    pub inserts: u64,
    /// Calls to [`Handle::update`].
    pub updates: u64,
    /// Calls to [`Handle::get`].
    pub gets: u64,
    /// Calls to [`Handle::remove`].
    pub removes: u64,
    /// Cursors opened via [`Handle::scan`].
    pub scans: u64,
    /// Gets that found a value.
    pub hits: u64,
    /// Gets that found nothing.
    pub misses: u64,
    /// Typed operations that returned an [`OpError`].
    pub errors: u64,
    /// Entries yielded across all cursors.
    pub entries_scanned: u64,
}

impl HandleStats {
    /// Total operations issued through the handle (scans count once per
    /// cursor, not per entry).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.inserts + self.updates + self.gets + self.removes + self.scans
    }

    /// Merge another handle's counters into this one (per-run aggregation
    /// across worker threads).
    pub fn merge(&mut self, other: &HandleStats) {
        self.inserts += other.inserts;
        self.updates += other.updates;
        self.gets += other.gets;
        self.removes += other.removes;
        self.scans += other.scans;
        self.hits += other.hits;
        self.misses += other.misses;
        self.errors += other.errors;
        self.entries_scanned += other.entries_scanned;
    }
}

/// A per-thread session on a shared [`Index`].
///
/// Cheap to create (at most one epoch-slot acquisition), `!Sync` by
/// construction — create one per worker thread, not one shared one. Every
/// operation pins a fresh epoch guard on the index's [`Index::reclaimer`] (a
/// no-op for indexes without one) and bumps the session's [`HandleStats`].
///
/// The type parameter is the concrete index for static dispatch, or the
/// default `dyn Index` when opened over a trait object.
pub struct Handle<'a, I: Index + ?Sized = dyn Index + 'a> {
    index: &'a I,
    session: Option<epoch::Session>,
    stats: HandleStats,
    scan_batch: usize,
    /// The buffer and resume key every [`Scanner`] of this handle borrows, so
    /// their capacity carries over from one scan to the next.
    scan_buf: ScanBuf,
    scan_resume: Vec<u8>,
    /// `Cell` is `!Sync`: a handle belongs to one thread of control.
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

impl<'a, I: Index + ?Sized> Handle<'a, I> {
    /// Open a session. Equivalent to [`IndexExt::handle`].
    #[must_use]
    pub fn new(index: &'a I) -> Self {
        let session = index.reclaimer().map(epoch::Collector::register);
        Handle {
            index,
            session,
            stats: HandleStats::default(),
            scan_batch: DEFAULT_SCAN_BATCH,
            scan_buf: ScanBuf::new(),
            scan_resume: Vec::new(),
            _not_sync: PhantomData,
        }
    }

    /// Split the handle into the pieces an operation needs: the index, a
    /// pinned epoch guard (if the index reclaims), and the stats counters.
    fn parts(&mut self) -> (&'a I, Option<epoch::Guard<'_>>, &mut HandleStats) {
        let Handle { index, session, stats, .. } = self;
        (*index, session.as_mut().map(epoch::Session::pin), stats)
    }

    /// Upsert `key -> value`; see [`Index::exec_insert`].
    pub fn insert(&mut self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        let (index, _pin, stats) = self.parts();
        stats.inserts += 1;
        let r = index.exec_insert(key, value);
        stats.errors += u64::from(r.is_err());
        r
    }

    /// Conditional update of an existing key; see [`Index::exec_update`] (and
    /// [`Capabilities::linearizable_update`] for the atomicity contract).
    pub fn update(&mut self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        let (index, _pin, stats) = self.parts();
        stats.updates += 1;
        let r = index.exec_update(key, value);
        stats.errors += u64::from(r.is_err());
        r
    }

    /// Look up `key`.
    pub fn get(&mut self, key: &[u8]) -> Option<u64> {
        let (index, _pin, stats) = self.parts();
        stats.gets += 1;
        let r = index.exec_get(key);
        match r {
            Some(_) => stats.hits += 1,
            None => stats.misses += 1,
        }
        r
    }

    /// Remove `key`.
    pub fn remove(&mut self, key: &[u8]) -> Result<OpResult, OpError> {
        let (index, _pin, stats) = self.parts();
        stats.removes += 1;
        let r = index.exec_remove(key);
        stats.errors += u64::from(r.is_err());
        r
    }

    /// Open a resumable cursor over keys `>= start`; see [`Scanner`].
    ///
    /// The cursor borrows the handle — its [`ScanBuf`] and resume-key buffer
    /// included, so opening a cursor allocates nothing — and keeps its epoch
    /// pin alive for the whole traversal, so reclaiming indexes cannot free
    /// pages under it. On an index without scan support the cursor is
    /// immediately exhausted.
    pub fn scan<'h>(&'h mut self, start: &[u8]) -> Scanner<'h, 'a, I> {
        let scan_batch = self.scan_batch;
        let Handle { index, session, stats, scan_buf, scan_resume, .. } = self;
        stats.scans += 1;
        scan_buf.clear();
        scan_resume.clear();
        scan_resume.extend_from_slice(start);
        Scanner {
            index: *index,
            stats,
            _pin: session.as_mut().map(epoch::Session::pin),
            next_start: scan_resume,
            primed: false,
            batch: scan_buf,
            pos: 0,
            done: false,
            remaining: None,
            batch_size: scan_batch,
        }
    }

    /// Open a cursor over keys strictly **after** `key` — the exclusive-resume
    /// form of [`Handle::scan`]. This is how a caller continues a traversal
    /// from the last key it already processed (the service's live-migration
    /// driver resumes its handoff cursor this way): re-opening at the cursor
    /// key would re-yield it, and synthesizing a successor key is not
    /// representable for indexes with fixed-width key encodings. Internally it
    /// reuses the scanner's primed-resume path: the first batch re-fetches
    /// from `key` inclusively and drops `key` itself if still present.
    pub fn scan_after<'h>(&'h mut self, key: &[u8]) -> Scanner<'h, 'a, I> {
        let mut sc = self.scan(key);
        sc.primed = true;
        sc
    }

    /// Entries fetched per cursor batch (default [`DEFAULT_SCAN_BATCH`]).
    pub fn set_scan_batch(&mut self, entries: usize) {
        self.scan_batch = entries.max(1);
    }

    /// Open a **group-commit batch** over this handle.
    ///
    /// While the returned [`Batch`] is alive:
    ///
    /// * the epoch session stays pinned **once** — per-operation pins inside
    ///   the batch degrade to a depth increment instead of the announce-fence
    ///   cycle ([`epoch`]), amortizing one pin across the whole batch;
    /// * the thread is inside a [`pm::flush::coalesce_fences`] region — every
    ///   per-operation `sfence` is elided and a **single** fence closes the
    ///   batch when it drops, so per-line `clwb`s dedup across the entire
    ///   batch's fence epoch ([`pm::latency`]).
    ///
    /// The durability contract weakens from per-op to per-batch: an operation
    /// is durable only once the batch closes (its single fence retires every
    /// write-back posted inside it). Callers implementing group commit must
    /// therefore acknowledge a batch's operations only after dropping the
    /// batch — exactly what the service shard workers do. Results returned
    /// mid-batch are *visible* (the in-DRAM structures are fully updated) but
    /// not yet durable.
    ///
    /// The batch dereferences to the handle, so all operations are available
    /// unchanged.
    pub fn batch<'h>(&'h mut self) -> Batch<'h, 'a, I> {
        if let Some(s) = self.session.as_mut() {
            s.pin_raw();
        }
        Batch { fence: Some(pm::flush::coalesce_fences()), handle: self }
    }

    /// This session's accumulated counters.
    #[must_use]
    pub fn stats(&self) -> HandleStats {
        self.stats
    }

    /// Reset the session counters (per-phase accounting).
    pub fn reset_stats(&mut self) {
        self.stats = HandleStats::default();
    }

    /// The underlying index's capabilities.
    #[must_use]
    pub fn capabilities(&self) -> Capabilities {
        self.index.capabilities()
    }

    /// The underlying index's display name.
    #[must_use]
    pub fn index_name(&self) -> String {
        self.index.index_name()
    }
}

/// A group-commit batch over a [`Handle`], from [`Handle::batch`].
///
/// Holds one epoch pin and one fence-coalescing region for its whole lifetime;
/// see [`Handle::batch`] for the amortization and durability contract. Derefs
/// to the handle.
pub struct Batch<'h, 'a, I: Index + ?Sized = dyn Index + 'a> {
    handle: &'h mut Handle<'a, I>,
    /// `Option` so Drop can release the fence region *before* unpinning: the
    /// batch's closing fence must land while reclamation is still held off.
    fence: Option<pm::flush::FenceCoalesce>,
}

impl<'a, I: Index + ?Sized> std::ops::Deref for Batch<'_, 'a, I> {
    type Target = Handle<'a, I>;
    fn deref(&self) -> &Handle<'a, I> {
        self.handle
    }
}

impl<'a, I: Index + ?Sized> std::ops::DerefMut for Batch<'_, 'a, I> {
    fn deref_mut(&mut self) -> &mut Handle<'a, I> {
        self.handle
    }
}

impl<I: Index + ?Sized> Drop for Batch<'_, '_, I> {
    fn drop(&mut self) {
        // Issue the batch's closing fence first, then release the epoch pin.
        self.fence = None;
        if let Some(s) = self.handle.session.as_mut() {
            s.unpin_raw();
        }
    }
}

/// A resumable range-scan cursor, from [`Handle::scan`].
///
/// Streams entries in ascending key order, fetching them from the index in
/// batches of the handle's scan-batch size ([`Index::exec_scan`]) into the
/// handle's [`ScanBuf`], which every cursor and every batch reuses: opening a
/// cursor, refilling it and reading it through [`Scanner::visit`] allocate
/// nothing once that buffer has grown to the workload's batch. Resumption
/// between batches is by key (the cursor continues after the last yielded key,
/// re-descending from the root), so a cursor stays valid while the index is
/// concurrently mutated: entries removed after they were fetched are still
/// yielded (each batch is a point-in-time snapshot); entries inserted behind
/// the cursor are not revisited; order is always strictly ascending with no
/// duplicates.
///
/// [`Scanner::visit`] lends each entry to a closure. The [`Iterator`] impl
/// ([`Scanner::next`]), [`Scanner::next_into`] and [`Scanner::collect_vec`]
/// yield owned `(Vec<u8>, u64)` pairs instead — compatibility shims over the
/// same cursor that pay one allocation per key (see the module docs).
pub struct Scanner<'h, 'a, I: Index + ?Sized = dyn Index + 'a> {
    index: &'a I,
    stats: &'h mut HandleStats,
    _pin: Option<epoch::Guard<'h>>,
    /// Lower fetch bound: the caller's start before the first batch (inclusive),
    /// then the last fetched key (re-fetched and skipped — some indexes encode
    /// fixed-width keys, so a synthesized successor key is not representable).
    next_start: &'h mut Vec<u8>,
    primed: bool,
    batch: &'h mut ScanBuf,
    pos: usize,
    done: bool,
    remaining: Option<usize>,
    batch_size: usize,
}

impl<I: Index + ?Sized> Scanner<'_, '_, I> {
    /// Cap the total number of entries this cursor will yield. A limit of 0
    /// exhausts the cursor immediately without touching the index.
    #[must_use]
    pub fn limit(mut self, entries: usize) -> Self {
        self.remaining = Some(entries);
        self
    }

    fn refill(&mut self) {
        self.batch.clear();
        self.pos = 0;
        let want = match self.remaining {
            Some(r) => r.min(self.batch_size),
            None => self.batch_size,
        };
        if want == 0 {
            self.done = true;
            return;
        }
        // Resumed batches fetch from the last yielded key *inclusively* (one
        // extra entry) and drop it below: uniform across indexes, including
        // those whose fixed-width key encoding cannot represent a successor key.
        let req = want.saturating_add(usize::from(self.primed));
        self.index.exec_scan(self.next_start, req, self.batch);
        if self.batch.len() < req {
            self.done = true;
        }
        if self.primed && !self.batch.is_empty() && self.batch.key(0) == self.next_start.as_slice()
        {
            self.pos = 1;
        }
        if let Some(k) = self.batch.last_key() {
            self.next_start.clear();
            self.next_start.extend_from_slice(k);
        }
        self.primed = true;
    }

    /// Step to the next entry and return its position in the current batch.
    /// Every way of reading the cursor goes through here, so limits, refills
    /// and [`HandleStats::entries_scanned`] cannot differ between them.
    fn advance(&mut self) -> Option<usize> {
        if self.remaining == Some(0) {
            return None;
        }
        if self.pos >= self.batch.len() {
            if self.done {
                return None;
            }
            self.refill();
            if self.pos >= self.batch.len() {
                return None;
            }
        }
        let at = self.pos;
        self.pos += 1;
        if let Some(r) = &mut self.remaining {
            *r -= 1;
        }
        self.stats.entries_scanned += 1;
        Some(at)
    }

    /// Hand every remaining entry (up to the cursor's [`Scanner::limit`]) to
    /// `f` as a borrowed `(key, value)`, in order; returns how many there
    /// were. The keys are read where the index wrote them, in the handle's
    /// [`ScanBuf`] — nothing is copied or allocated.
    pub fn visit(&mut self, mut f: impl FnMut(&[u8], u64)) -> usize {
        let mut n = 0;
        while let Some(at) = self.advance() {
            f(self.batch.key(at), self.batch.value(at));
            n += 1;
        }
        n
    }

    /// Append owned entries to `buf` until the buffer's **spare capacity** is
    /// used up or the cursor is exhausted; returns how many were appended.
    /// Never grows the buffer; a buffer with no spare capacity appends
    /// nothing. A compatibility shim: every appended key is a fresh `Vec`.
    pub fn next_into(&mut self, buf: &mut Vec<(Vec<u8>, u64)>) -> usize {
        let want = buf.capacity() - buf.len();
        let mut n = 0;
        while n < want {
            match self.next() {
                Some(e) => {
                    buf.push(e);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Drain the remaining entries into a fresh vector (convenience for tests
    /// and the legacy-`scan` compatibility adapter).
    #[must_use]
    pub fn collect_vec(self) -> Vec<(Vec<u8>, u64)> {
        self.collect()
    }
}

/// Owned-pair iteration: a compatibility shim over the cursor that copies each
/// key out of the [`ScanBuf`] (one allocation per entry). Use
/// [`Scanner::visit`] where that matters.
impl<I: Index + ?Sized> Iterator for Scanner<'_, '_, I> {
    type Item = (Vec<u8>, u64);

    fn next(&mut self) -> Option<(Vec<u8>, u64)> {
        let at = self.advance()?;
        Some((self.batch.key(at).to_vec(), self.batch.value(at)))
    }
}

/// Generates the `&T` / `Arc<T>` delegation impls for the session traits in
/// one place, so adding a method cannot drift between the two pointer kinds
/// (the legacy [`ConcurrentIndex`] needs no delegation impls at all: it is
/// blanket-implemented over every [`Index`], including these).
macro_rules! delegate_session_traits {
    ($({$($decl:tt)*} {$($rdecl:tt)*} $ty:ty),+ $(,)?) => {$(
        impl<$($decl)*> Index for $ty {
            fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
                (**self).exec_insert(key, value)
            }
            fn exec_update(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
                (**self).exec_update(key, value)
            }
            fn exec_get(&self, key: &[u8]) -> Option<u64> {
                (**self).exec_get(key)
            }
            fn exec_remove(&self, key: &[u8]) -> Result<OpResult, OpError> {
                (**self).exec_remove(key)
            }
            fn exec_scan(&self, start: &[u8], max: usize, out: &mut ScanBuf) {
                (**self).exec_scan(start, max, out);
            }
            fn exec_settle(&self) {
                (**self).exec_settle();
            }
            fn capabilities(&self) -> Capabilities {
                (**self).capabilities()
            }
            fn index_name(&self) -> String {
                (**self).index_name()
            }
            fn reclaimer(&self) -> Option<&epoch::Collector> {
                (**self).reclaimer()
            }
        }

        impl<$($rdecl)*> crate::index::Recoverable for $ty {
            fn recover(&self) {
                (**self).recover();
            }
        }
    )+};
}

delegate_session_traits! {
    {'x, T: Index + ?Sized} {'x, T: crate::index::Recoverable + ?Sized} &'x T,
    {T: Index + ?Sized} {T: crate::index::Recoverable + ?Sized} std::sync::Arc<T>,
}

/// The compatibility adapter: every [`Index`] is automatically a legacy
/// [`ConcurrentIndex`]. Each call opens a transient [`Handle`] (epoch-pinned
/// like any other session) and collapses the typed result into the old
/// boolean. New code should use [`IndexExt::handle`] directly.
impl<T: Index + ?Sized> ConcurrentIndex for T {
    fn insert(&self, key: &[u8], value: u64) -> bool {
        matches!(self.handle().insert(key, value), Ok(OpResult::Inserted))
    }

    fn update(&self, key: &[u8], value: u64) -> bool {
        self.handle().update(key, value).is_ok()
    }

    fn get(&self, key: &[u8]) -> Option<u64> {
        self.handle().get(key)
    }

    fn remove(&self, key: &[u8]) -> bool {
        self.handle().remove(key).is_ok()
    }

    fn scan(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, u64)> {
        let mut h = self.handle();
        // A legacy scan was one call into the index; fetch the whole request as
        // one chunk (capped for huge counts like `usize::MAX`) instead of
        // paying a cursor refill — and its per-batch re-descent — every
        // `DEFAULT_SCAN_BATCH` entries.
        h.set_scan_batch(count.clamp(1, 4_096));
        h.scan(start).limit(count).collect_vec()
    }

    fn supports_scan(&self) -> bool {
        self.capabilities().scan
    }

    fn name(&self) -> String {
        self.index_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::RwLock;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// Reference implementation with an epoch collector attached, so the
    /// session tests exercise the pinning path too.
    struct Model {
        map: RwLock<BTreeMap<Vec<u8>, u64>>,
        epoch: epoch::Collector,
        /// Calls that reached [`Index::exec_settle`].
        settles: std::sync::atomic::AtomicUsize,
        /// Collector slots in use during the last [`Index::exec_get`], which
        /// protects itself with `enter` as a reclaiming index must.
        slots_in_get: std::sync::atomic::AtomicUsize,
    }

    impl Model {
        fn new() -> Self {
            Model {
                map: RwLock::new(BTreeMap::new()),
                epoch: epoch::Collector::new(),
                settles: std::sync::atomic::AtomicUsize::new(0),
                slots_in_get: std::sync::atomic::AtomicUsize::new(0),
            }
        }
    }

    impl Index for Model {
        fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
            if key.len() > 64 {
                return Err(OpError::UnsupportedKey);
            }
            match self.map.write().insert(key.to_vec(), value) {
                None => Ok(OpResult::Inserted),
                Some(_) => Ok(OpResult::Updated),
            }
        }

        fn exec_update(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
            match self.map.write().get_mut(key) {
                Some(v) => {
                    *v = value;
                    Ok(OpResult::Updated)
                }
                None => Err(OpError::NotFound),
            }
        }

        fn exec_get(&self, key: &[u8]) -> Option<u64> {
            let _epoch = self.epoch.enter();
            self.slots_in_get
                .store(self.epoch.occupied_slots(), std::sync::atomic::Ordering::Relaxed);
            self.map.read().get(key).copied()
        }

        fn exec_remove(&self, key: &[u8]) -> Result<OpResult, OpError> {
            match self.map.write().remove(key) {
                Some(_) => Ok(OpResult::Removed),
                None => Err(OpError::NotFound),
            }
        }

        fn exec_scan(&self, start: &[u8], max: usize, out: &mut ScanBuf) {
            for (k, v) in self.map.read().range(start.to_vec()..).take(max) {
                out.push(k, *v);
            }
        }

        fn exec_settle(&self) {
            self.settles.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }

        fn capabilities(&self) -> Capabilities {
            Capabilities::ordered_index(true)
        }

        fn index_name(&self) -> String {
            "model".into()
        }

        fn reclaimer(&self) -> Option<&epoch::Collector> {
            Some(&self.epoch)
        }
    }

    fn k(x: u64) -> [u8; 8] {
        crate::key::u64_key(x)
    }

    #[test]
    fn typed_results_distinguish_outcomes() {
        let m = Model::new();
        let mut h = m.handle();
        assert_eq!(h.insert(&k(1), 10), Ok(OpResult::Inserted));
        assert_eq!(h.insert(&k(1), 11), Ok(OpResult::Updated));
        assert_eq!(h.update(&k(1), 12), Ok(OpResult::Updated));
        assert_eq!(h.update(&k(2), 1), Err(OpError::NotFound));
        assert_eq!(h.remove(&k(1)), Ok(OpResult::Removed));
        assert_eq!(h.remove(&k(1)), Err(OpError::NotFound));
        assert_eq!(h.insert(&[0u8; 65], 1), Err(OpError::UnsupportedKey));
        let s = h.stats();
        assert_eq!(s.inserts, 3);
        assert_eq!(s.updates, 2);
        assert_eq!(s.removes, 2);
        assert_eq!(s.errors, 3);
    }

    #[test]
    fn handle_stats_track_hits_and_misses() {
        let m = Model::new();
        let mut h = m.handle();
        h.insert(&k(1), 1).unwrap();
        assert_eq!(h.get(&k(1)), Some(1));
        assert_eq!(h.get(&k(2)), None);
        let s = h.stats();
        assert_eq!((s.gets, s.hits, s.misses), (2, 1, 1));
        assert_eq!(s.ops(), 3);
        let mut total = HandleStats::default();
        total.merge(&s);
        total.merge(&s);
        assert_eq!(total.gets, 4);
        h.reset_stats();
        assert_eq!(h.stats(), HandleStats::default());
    }

    #[test]
    fn scanner_streams_across_batches_in_order() {
        let m = Model::new();
        let mut h = m.handle();
        for i in 0..500u64 {
            h.insert(&k(i), i).unwrap();
        }
        h.set_scan_batch(7); // force many refills
        let got: Vec<u64> = h.scan(&k(100)).map(|(_, v)| v).collect();
        assert_eq!(got, (100..500).collect::<Vec<u64>>());
        assert_eq!(h.stats().entries_scanned, 400);
    }

    #[test]
    fn scan_after_resumes_exclusively() {
        let m = Model::new();
        let mut h = m.handle();
        for i in 0..50u64 {
            h.insert(&k(i), i).unwrap();
        }
        // Present cursor key: excluded. The cursor-chaining pattern walks the
        // whole index with no duplicates and no gaps.
        let got: Vec<u64> = h.scan_after(&k(10)).map(|(_, v)| v).collect();
        assert_eq!(got, (11..50).collect::<Vec<u64>>());
        // Absent cursor key: behaves like an exclusive bound all the same.
        h.remove(&k(20)).unwrap();
        let got: Vec<u64> = h.scan_after(&k(20)).limit(3).map(|(_, v)| v).collect();
        assert_eq!(got, vec![21, 22, 23]);
        // Chaining from the last yielded key reproduces a plain scan.
        let mut chained = Vec::new();
        let mut cursor: Option<Vec<u8>> = None;
        loop {
            let sc = match &cursor {
                None => h.scan(&[]),
                Some(c) => h.scan_after(c),
            };
            let batch: Vec<(Vec<u8>, u64)> = sc.limit(7).collect();
            match batch.last() {
                None => break,
                Some((last, _)) => cursor = Some(last.clone()),
            }
            chained.extend(batch.iter().map(|(_, v)| *v));
        }
        let all: Vec<u64> = h.scan(&[]).map(|(_, v)| v).collect();
        assert_eq!(chained, all);
    }

    #[test]
    fn scanner_limit_and_next_into() {
        let m = Model::new();
        let mut h = m.handle();
        for i in 0..100u64 {
            h.insert(&k(i), i).unwrap();
        }
        assert_eq!(h.scan(&k(0)).limit(0).next(), None, "limit 0 yields nothing");
        let mut buf: Vec<(Vec<u8>, u64)> = Vec::with_capacity(10);
        let n = h.scan(&k(5)).limit(25).next_into(&mut buf);
        assert_eq!(n, 10, "bounded by spare capacity");
        assert_eq!(buf[0].1, 5);
        // Reuse the buffer: clear keeps capacity, so the next scan is
        // allocation-free again.
        buf.clear();
        let mut sc = h.scan(&k(90));
        assert_eq!(sc.next_into(&mut buf), 10, "exhausts at the last key");
        assert_eq!(sc.next(), None);
    }

    #[test]
    fn visit_lends_the_same_entries_next_yields() {
        let m = Model::new();
        let mut h = m.handle();
        for i in 0..300u64 {
            h.insert(&k(i), i * 3).unwrap();
        }
        h.set_scan_batch(7); // refills mid-visit
        let owned: Vec<(Vec<u8>, u64)> = h.scan(&k(40)).limit(100).collect();
        let scanned = h.stats().entries_scanned;
        let mut lent = Vec::new();
        let n = h.scan(&k(40)).limit(100).visit(|key, v| lent.push((key.to_vec(), v)));
        assert_eq!((n, &lent), (100, &owned));
        assert_eq!(h.stats().entries_scanned, scanned + 100, "visit counts entries like next");
        // A visit picks up where `next` stopped, and an unlimited one drains.
        let mut sc = h.scan_after(&k(289));
        assert_eq!(sc.next().map(|(_, v)| v), Some(290 * 3));
        let mut rest = Vec::new();
        assert_eq!(sc.visit(|_, v| rest.push(v / 3)), 9);
        assert_eq!(rest, (291..300).collect::<Vec<u64>>());
        assert_eq!(sc.visit(|_, _| unreachable!("cursor is exhausted")), 0);
        drop(sc);
        assert_eq!(h.scan(&[]).limit(0).visit(|_, _| unreachable!("limit 0")), 0);
    }

    #[test]
    fn scan_buf_packs_keys_of_every_length() {
        let keys: Vec<Vec<u8>> = [0usize, 1, 8, 24, 300]
            .iter()
            .map(|&n| (0..n).map(|i| (i * 7 + n) as u8).collect())
            .collect();
        let mut buf = ScanBuf::new();
        assert!(buf.is_empty());
        assert_eq!(buf.last_key(), None);
        for (i, key) in keys.iter().enumerate() {
            buf.push(key, i as u64 * 11);
            assert_eq!(buf.last_key(), Some(key.as_slice()));
        }
        // A key in two parts lands as their concatenation; an empty part is fine.
        buf.push_parts(b"layer-prefix", b"slice", 99);
        buf.push_parts(b"", b"", 100);
        assert_eq!(buf.len(), keys.len() + 2);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!((buf.key(i), buf.value(i)), (key.as_slice(), i as u64 * 11));
        }
        assert_eq!(buf.key(5), b"layer-prefixslice");
        assert_eq!((buf.key(6), buf.value(6)), (&b""[..], 100));
        let want: Vec<(Vec<u8>, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, key)| (key.clone(), i as u64 * 11))
            .chain([(b"layer-prefixslice".to_vec(), 99), (Vec::new(), 100)])
            .collect();
        assert_eq!(buf.to_vec(), want);
        // Rolling back to a mark drops exactly the entries past it.
        buf.truncate(4);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.last_key(), Some(keys[3].as_slice()));
        buf.truncate(9); // past the end: nothing to drop
        assert_eq!(buf.len(), 4);
        buf.push(b"after", 5);
        assert_eq!(buf.key(4), b"after");
    }

    #[test]
    fn scan_buf_clear_keeps_capacity_and_offsets_pass_64k() {
        let mut buf = ScanBuf::new();
        let key = [0xABu8; 300];
        for i in 0..400u64 {
            buf.push(&key, i); // 120 000 bytes: end offsets no longer fit 16 bits
        }
        assert_eq!(buf.len(), 400);
        assert!(buf.iter().enumerate().all(|(i, (k, v))| k == key && v == i as u64));
        assert_eq!(buf.key(399).len(), 300);
        let caps = (buf.bytes.capacity(), buf.ends.capacity(), buf.values.capacity());
        assert!(caps.0 >= 120_000);
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.last_key(), None);
        assert_eq!((buf.bytes.capacity(), buf.ends.capacity(), buf.values.capacity()), caps);
        // Refilling to the same size reuses the same three allocations.
        let arena = buf.bytes.as_ptr();
        for i in 0..400u64 {
            buf.push(&key, i);
        }
        assert_eq!(buf.bytes.as_ptr(), arena);
        assert_eq!((buf.bytes.capacity(), buf.ends.capacity(), buf.values.capacity()), caps);
    }

    #[test]
    fn compat_adapter_preserves_legacy_semantics() {
        let m = Model::new();
        let legacy: &dyn ConcurrentIndex = &m;
        assert!(legacy.insert(&k(1), 1));
        assert!(!legacy.insert(&k(1), 2), "re-insert reports existing");
        assert_eq!(legacy.get(&k(1)), Some(2));
        assert!(legacy.update(&k(1), 3));
        assert!(!legacy.update(&k(9), 1));
        assert!(legacy.supports_scan());
        assert_eq!(legacy.scan(&k(0), 10).len(), 1);
        assert_eq!(legacy.scan(&k(0), 0).len(), 0);
        assert_eq!(legacy.name(), "model");
        assert!(legacy.remove(&k(1)));
        assert!(!legacy.remove(&k(1)));
    }

    #[test]
    fn delegation_covers_refs_arcs_and_trait_objects() {
        let m = Arc::new(Model::new());
        let mut h = m.handle(); // Arc<Model> is itself an Index
        assert_eq!(h.insert(&k(7), 70), Ok(OpResult::Inserted));
        drop(h);
        let obj: Arc<dyn Index> = m;
        let mut h = obj.handle();
        assert_eq!(h.get(&k(7)), Some(70));
        let r: &dyn Index = &obj;
        let mut h = r.handle();
        assert_eq!(h.scan(&[]).count(), 1);
        assert_eq!(h.capabilities(), Capabilities::ordered_index(true));
        assert_eq!(h.index_name(), "model");
    }

    /// The pointer impls must forward the methods that have a default too:
    /// a dropped `exec_settle` skips an index's maintenance pass without any
    /// sign of it, and a dropped `exec_scan` scans nothing.
    #[test]
    fn delegation_forwards_settle_and_scan() {
        // Generic over the pointer type, so the call resolves to *its* impl
        // (method syntax on `&m` would auto-deref straight to `Model`'s).
        fn settle<I: Index>(index: I) {
            index.exec_settle();
        }
        fn scan<I: Index>(index: I, start: &[u8]) -> Vec<(Vec<u8>, u64)> {
            let mut buf = ScanBuf::new();
            index.exec_scan(start, 10, &mut buf);
            buf.to_vec()
        }
        let settles = |m: &Model| m.settles.load(std::sync::atomic::Ordering::Relaxed);
        let m = Model::new();
        m.exec_insert(&k(3), 30).unwrap();
        m.exec_insert(&k(4), 40).unwrap();
        let both = vec![(k(3).to_vec(), 30), (k(4).to_vec(), 40)];
        settle(&m);
        assert_eq!(settles(&m), 1, "&T reaches the inner exec_settle");
        assert_eq!(scan(&m, &k(0)), both);
        let arc = Arc::new(m);
        settle(Arc::clone(&arc));
        assert_eq!(settles(&arc), 2, "Arc<T> reaches the inner exec_settle");
        assert_eq!(scan(Arc::clone(&arc), &k(4)), both[1..]);
        let obj: Arc<dyn Index> = arc.clone();
        settle(Arc::clone(&obj));
        settle(&obj);
        assert_eq!(settles(&arc), 4, "and so do Arc<dyn Index> and a reference to one");
        // A scan through the trait object fills the caller's buffer, and the
        // owned-pair shim sits on the same scan.
        assert_eq!(scan(Arc::clone(&obj), &k(0)), both);
        let mut owned = Vec::new();
        obj.exec_scan_chunk(&k(4), 10, &mut owned);
        assert_eq!(owned, both[1..]);
    }

    #[test]
    fn handle_pins_reclaimer_per_operation() {
        let m = Model::new();
        let mut h = m.handle();
        h.insert(&k(1), 1).unwrap();
        // Retire garbage, then keep a cursor open: the cursor's pin must hold
        // the garbage in place until the cursor drops.
        let freed = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let f = Arc::clone(&freed);
        m.epoch.defer_free(8, move || {
            f.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        let sc = h.scan(&[]);
        m.epoch.flush();
        assert_eq!(freed.load(std::sync::atomic::Ordering::Relaxed), 0, "cursor pin protects");
        drop(sc);
        m.epoch.flush();
        assert_eq!(freed.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn a_pinned_handle_get_registers_no_second_slot() {
        let m = Model::new();
        let slots_in_get = || m.slots_in_get.load(std::sync::atomic::Ordering::Relaxed);
        // Bare call: the index's own `enter` registers (and pins) one slot.
        assert_eq!(m.exec_get(&k(1)), None);
        assert_eq!(slots_in_get(), 1);
        // Through a handle: the handle's pinned session is the only slot.
        let mut h = m.handle();
        assert_eq!(h.get(&k(1)), None);
        assert_eq!(slots_in_get(), 1, "enter under the handle's pin took a slot");
        // A second handle on this thread does not change that.
        let mut h2 = m.handle();
        assert_eq!(h2.get(&k(1)), None);
        assert_eq!(slots_in_get(), 2, "two handles, two slots, no third for the enter");
    }

    #[test]
    fn batch_holds_one_pin_and_one_fence_epoch() {
        let m = Model::new();
        let mut h = m.handle();
        let freed = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let fence_before = pm::stats::snapshot_local();
        {
            let mut b = h.batch();
            for i in 0..50u64 {
                b.insert(&k(i), i).unwrap();
            }
            // Garbage retired mid-batch must survive until the batch closes:
            // the batch's single pin covers every op.
            let f = Arc::clone(&freed);
            m.epoch.defer_free(8, move || {
                f.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
            m.epoch.flush();
            assert_eq!(freed.load(std::sync::atomic::Ordering::Relaxed), 0, "batch pin protects");
            // Fences inside the batch are elided into the closing fence.
            pm::flush::sfence();
            pm::flush::sfence();
            assert_eq!(pm::stats::snapshot_local().since(&fence_before).fence, 0);
        }
        assert_eq!(
            pm::stats::snapshot_local().since(&fence_before).fence,
            1,
            "one closing fence per batch"
        );
        m.epoch.flush();
        assert_eq!(freed.load(std::sync::atomic::Ordering::Relaxed), 1, "unpinned after drop");
        assert_eq!(h.get(&k(7)), Some(7));
        assert_eq!(h.stats().inserts, 50);
    }

    /// Deterministic witness of the documented default-`exec_update`
    /// non-atomicity: a shim injects a concurrent `remove` between the get and
    /// the insert, resurrecting the removed key. This is exactly the
    /// interleaving [`Capabilities::linearizable_update`]` = false` warns
    /// about (the registry conformance suite probes it with real threads).
    #[test]
    fn default_update_resurrects_on_injected_remove() {
        struct InjectRemove {
            inner: Model,
            armed: std::sync::atomic::AtomicBool,
        }
        impl Index for InjectRemove {
            fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
                self.inner.exec_insert(key, value)
            }
            fn exec_get(&self, key: &[u8]) -> Option<u64> {
                let r = self.inner.exec_get(key);
                if self.armed.swap(false, std::sync::atomic::Ordering::Relaxed) {
                    // The "concurrent" remove lands inside the window.
                    let _ = self.inner.exec_remove(key);
                }
                r
            }
            fn exec_remove(&self, key: &[u8]) -> Result<OpResult, OpError> {
                self.inner.exec_remove(key)
            }
            fn capabilities(&self) -> Capabilities {
                Capabilities::hash_index(false) // default update => flag false
            }
            fn index_name(&self) -> String {
                "inject-remove".into()
            }
        }
        let idx =
            InjectRemove { inner: Model::new(), armed: std::sync::atomic::AtomicBool::new(false) };
        let mut h = idx.handle();
        h.insert(&k(1), 7).unwrap();
        idx.armed.store(true, std::sync::atomic::Ordering::Relaxed);
        // Default update: get sees the key, the injected remove deletes it,
        // the fallback insert resurrects it — `Ok` despite the interleaved
        // remove, exactly the anomaly the capability flag documents.
        assert_eq!(h.update(&k(1), 8), Ok(OpResult::Updated));
        assert_eq!(h.get(&k(1)), Some(8), "removed key resurrected by the fallback");
    }

    #[test]
    fn default_update_is_get_then_insert() {
        struct NoUpdate(Model);
        impl Index for NoUpdate {
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
                Capabilities::hash_index(false)
            }
            fn index_name(&self) -> String {
                "no-update".into()
            }
        }
        let m = NoUpdate(Model::new());
        let mut h = m.handle();
        assert_eq!(h.update(&k(1), 1), Err(OpError::NotFound));
        h.insert(&k(1), 1).unwrap();
        assert_eq!(h.update(&k(1), 2), Ok(OpResult::Updated));
        assert_eq!(h.get(&k(1)), Some(2));
    }
}
