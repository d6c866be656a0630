//! Pages, delta records and the mapping table of the Bw-tree.
//!
//! The Bw-tree (Levandoski et al., ICDE '13) never updates a page in place. Every
//! page is named by a *logical page ID* (PID) resolved through a mapping table, and
//! its current content is a *delta chain*: a base page plus a linked list of delta
//! records prepended one CAS at a time on the mapping-table slot. Because a published
//! chain is immutable, a single atomic load of the slot yields a consistent snapshot
//! of the whole page — which is exactly why the paper classifies the Bw-tree's
//! non-SMO operations under Condition #1 (single atomic store) and its multi-step
//! SMOs under Condition #2 (non-blocking writers whose *helping mechanism* fixes any
//! partial SMO they observe).
//!
//! This module holds the passive data structures — [`Delta`], [`BasePage`], the
//! [`MappingTable`] and the chain-walking queries ([`leaf_lookup`], [`inner_route`],
//! and [`merge_chain`], the one merge behind scans and consolidation) — while
//! `tree` drives the CAS protocol, the persistence ordering and the SMOs.

use recipe::key::LeafKey;
use recipe::persist::{span, PersistMode, Span};
use recipe::session::ScanBuf;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};

/// Logical page ID. PIDs are never reused within a tree's lifetime.
pub type Pid = u64;

/// The invalid PID (no page / no sibling).
pub const NO_PID: Pid = 0;

/// Immutable page snapshot at the tail of every delta chain.
///
/// Leaf bases map keys to record values; inner bases map separator keys to the child
/// covering `[sep, next_sep)`, with [`BasePage::leftmost`] covering keys below every
/// separator. This is the page's *header*: two cache lines of its own, allocated
/// beside the chain's [`Delta`] record and flushed with it. Its entries live in one
/// payload buffer behind it, which is not flushed: `len` 8-byte big-endian
/// zero-padded key prefixes, then `len` values, then `len` key end offsets (`u32`),
/// then the packed key bytes. A binary search compares prefix words and reads full
/// keys from the same buffer only on a prefix tie.
#[repr(align(64))]
pub struct BasePage {
    /// Whether this is a leaf page.
    pub leaf: bool,
    /// Entries in `payload`.
    len: usize,
    /// Prefixes, values (record values or child PIDs), key end offsets, key bytes.
    payload: Box<[u64]>,
    /// Child covering keys below every separator (inner pages only).
    pub leftmost: Pid,
    /// Inclusive lower bound of this page's key space (`None` = unbounded, i.e.
    /// the leftmost page of its level). Set when a split creates the page and
    /// preserved by consolidation; the merge SMO routes toward it to find the
    /// victim's parent entry and left sibling.
    pub low: Option<Box<[u8]>>,
    /// Exclusive upper bound of this page's key space (`None` = unbounded).
    pub high: Option<Box<[u8]>>,
    /// Right sibling PID at the time the base was built ([`NO_PID`] = none).
    pub right: Pid,
}

const _: () =
    assert!(std::mem::size_of::<BasePage>() == 2 * pm::CACHE_LINE, "a base header is two lines");

/// The first 8 bytes of `key`, zero-padded, as a big-endian word: a strictly
/// smaller prefix means a strictly smaller key, and equal keys have equal prefixes.
#[inline]
fn prefix(key: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    let n = key.len().min(8);
    word[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(word)
}

impl BasePage {
    /// A base over `entries` (keys sorted and distinct), packed into one payload
    /// buffer: record values (leaf) or child PIDs (inner).
    #[must_use]
    pub fn new(
        leaf: bool,
        entries: &[(&[u8], u64)],
        leftmost: Pid,
        low: Option<Box<[u8]>>,
        high: Option<Box<[u8]>>,
        right: Pid,
    ) -> BasePage {
        let n = entries.len();
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "sorted, distinct keys");
        let key_bytes: usize = entries.iter().map(|(k, _)| k.len()).sum();
        let end_words = n.div_ceil(2);
        let mut payload = vec![0u64; 2 * n + end_words + key_bytes.div_ceil(8)].into_boxed_slice();
        for (i, &(key, value)) in entries.iter().enumerate() {
            payload[i] = prefix(key);
            payload[n + i] = value;
        }
        let (ends, keys) = as_bytes_mut(&mut payload[2 * n..]).split_at_mut(8 * end_words);
        let mut end = 0usize;
        for (i, (key, _)) in entries.iter().enumerate() {
            keys[end..end + key.len()].copy_from_slice(key);
            end += key.len();
            let end = u32::try_from(end).expect("a page's keys fit in 4 GiB");
            ends[4 * i..4 * i + 4].copy_from_slice(&end.to_ne_bytes());
        }
        BasePage { leaf, len: n, payload, leftmost, low, high, right }
    }

    /// An empty leaf base (the initial root page of a tree).
    #[must_use]
    pub fn empty_leaf() -> BasePage {
        BasePage::new(true, &[], NO_PID, None, None, NO_PID)
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn ends(&self) -> &[u32] {
        let words = &self.payload[2 * self.len..];
        // SAFETY: the `len.div_ceil(2)` words after the values hold `len` native
        // `u32` offsets, and a `u64` slice is aligned for `u32`.
        unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u32>(), self.len) }
    }

    /// The `i`th key, ascending.
    #[inline]
    #[must_use]
    pub fn key(&self, i: usize) -> &[u8] {
        let ends = self.ends();
        let start = if i == 0 { 0 } else { ends[i - 1] as usize };
        let keys = as_bytes(&self.payload[2 * self.len + self.len.div_ceil(2)..]);
        &keys[start..ends[i] as usize]
    }

    /// The `i`th value: a record value (leaf) or a child PID (inner).
    #[inline]
    #[must_use]
    pub fn val(&self, i: usize) -> u64 {
        self.payload[self.len + i]
    }

    /// Binary search for `key`, like `slice::binary_search`: `Ok(i)` if `key(i)`
    /// is `key`, else `Err(i)` with `i` the index of the first larger key. The
    /// prefix words settle every step but a prefix tie, which compares full keys.
    pub fn search(&self, key: &[u8]) -> Result<usize, usize> {
        let want = prefix(key);
        let prefixes = &self.payload[..self.len];
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match prefixes[mid].cmp(&want).then_with(|| self.key(mid).cmp(key)) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Bytes behind the header that freeing the page releases: the payload
    /// buffer and the bound keys.
    fn payload_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.payload)
            + self.low.as_ref().map_or(0, |k| k.len())
            + self.high.as_ref().map_or(0, |k| k.len())
    }
}

fn as_bytes(words: &[u64]) -> &[u8] {
    // SAFETY: any initialized `u64` is a valid run of bytes, and `u8` has no
    // alignment requirement.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), std::mem::size_of_val(words)) }
}

fn as_bytes_mut(words: &mut [u64]) -> &mut [u8] {
    // SAFETY: as in `as_bytes`; every byte pattern is also a valid `u64`.
    unsafe {
        std::slice::from_raw_parts_mut(words.as_mut_ptr().cast(), std::mem::size_of_val(words))
    }
}

/// The owning pointer from a base record to its [`BasePage`] header, which lives on
/// the PM pool (`pm::alloc::pm_line_box`) and is freed with the record.
pub struct BaseBox(std::ptr::NonNull<BasePage>);

impl BaseBox {
    /// Move `page` onto the PM pool. Flushed by [`Delta::stage`].
    #[must_use]
    pub fn new(page: BasePage) -> BaseBox {
        let p = pm::alloc::pm_line_box(page);
        BaseBox(std::ptr::NonNull::new(p).expect("pm_line_box never returns null"))
    }
}

impl std::ops::Deref for BaseBox {
    type Target = BasePage;

    fn deref(&self) -> &BasePage {
        // SAFETY: the header is owned by this box and lives until it drops.
        unsafe { self.0.as_ref() }
    }
}

impl Drop for BaseBox {
    fn drop(&mut self) {
        // SAFETY: allocated by `pm_line_box` in `BaseBox::new` and owned only here.
        unsafe { pm::alloc::pm_line_drop(self.0.as_ptr()) };
    }
}

// SAFETY: `BaseBox` uniquely owns its `BasePage`, which is `Send + Sync`.
unsafe impl Send for BaseBox {}
// SAFETY: as above; shared access only reads through `Deref`.
unsafe impl Sync for BaseBox {}

/// One record in a delta chain.
pub enum DeltaKind {
    /// The base page terminating the chain.
    Base(BaseBox),
    /// Leaf upsert: `key` now maps to `value`.
    Insert {
        /// Record key.
        key: LeafKey,
        /// Record value.
        value: u64,
    },
    /// Leaf delete: `key` is no longer mapped.
    Delete {
        /// Record key.
        key: LeafKey,
    },
    /// Split delta: this page is logically truncated at `sep`; keys `>= sep` now
    /// live in the page `right`. Published as the *second* step of the split SMO
    /// (after the right page is installed); the SMO is complete once the parent
    /// routes `sep` to `right`.
    Split {
        /// First key owned by the right sibling (the new exclusive high key here).
        sep: LeafKey,
        /// PID of the new right sibling.
        right: Pid,
        /// Transient completion hint: set once a helper confirmed the parent entry
        /// exists, so later traversals skip the parent check. Purely an
        /// optimization — it is re-derived after a crash.
        done: AtomicBool,
    },
    /// Inner insert: the parent-side completion of a child split, routing keys
    /// `>= sep` (up to the next separator) to `child`.
    IndexEntry {
        /// Separator key being installed.
        sep: LeafKey,
        /// PID of the split-off child.
        child: Pid,
    },
    /// Merge SMO step 1 — posted on the (empty) victim page. The page is
    /// logically deleted: writers that observe it help complete the merge and
    /// re-descend; lookups keep answering from the frozen chain below (the
    /// page is empty, so `Missing` stays correct), and scans keep following
    /// the right link.
    RemoveNode {
        /// Transient completion hint, like [`DeltaKind::Split::done`]: set once
        /// a helper confirmed all three merge steps; re-derived after a crash.
        done: AtomicBool,
    },
    /// Merge SMO step 2 — posted on the victim's live left sibling, extending
    /// its key space over the victim's: the sibling's effective high key and
    /// right link become the victim's. Never published over a chain that still
    /// carries a split delta (consolidate first), so everything below a merge
    /// delta is bounded by it.
    Merge {
        /// The victim's (frozen) exclusive high key — the new bound here.
        high: Option<LeafKey>,
        /// The victim's (frozen) right sibling — the new right link here.
        right: Pid,
        /// PID of the removed page, for helpers and diagnostics.
        victim: Pid,
    },
    /// Merge SMO step 3 — posted on the victim's parent: the routing entry
    /// `(sep -> child)` no longer exists, so keys at or beyond `sep` fall back
    /// to the preceding separator (the sibling that absorbed the victim).
    IndexTermDelete {
        /// Separator of the entry being deleted (the victim's low key).
        sep: LeafKey,
        /// The removed child the entry routed to. Deletion is pair-exact: a
        /// newer re-promotion of the same separator to a different child is
        /// not affected.
        child: Pid,
    },
}

impl DeltaKind {
    /// A base record over `page`, whose header moves onto the PM pool.
    #[must_use]
    pub fn base(page: BasePage) -> DeltaKind {
        DeltaKind::Base(BaseBox::new(page))
    }
}

/// A node of a delta chain: one cache line. Chains are immutable once published:
/// `next` is set before the node is CAS-installed and never changes afterwards, and
/// a replaced chain is freed only at epoch quiescence (or when the tree drops), so
/// readers traverse without further protection.
///
/// Publishing a record makes reachable its own line and the objects it owns — a
/// spilled key, a base page's header — and nothing else, so those are exactly what
/// [`Delta::stage`] flushes and [`Delta::covers`] names to the publishing CAS.
#[repr(align(64))]
pub struct Delta {
    /// Next (older) record; the chain ends at a [`DeltaKind::Base`] with a null
    /// `next`.
    pub next: AtomicPtr<Delta>,
    /// Whether the chain this record belongs to is a leaf page.
    pub leaf: bool,
    /// Payload.
    pub kind: DeltaKind,
}

const _: () = assert!(std::mem::size_of::<Delta>() == pm::CACHE_LINE, "a record is one line");

impl Delta {
    /// Allocate a chain node in a one-line slab block of the PM pool
    /// (`pm::alloc::pm_line_box`; free it with `pm_line_drop`). The caller must
    /// stage it ([`Delta::stage`]) before publishing it (CAS into a
    /// mapping-table slot).
    pub fn alloc(next: *mut Delta, leaf: bool, kind: DeltaKind) -> *mut Delta {
        pm::alloc::pm_line_box(Delta { next: AtomicPtr::new(next), leaf, kind })
    }

    /// Every PM range this record makes reachable when published: its line, then a
    /// spilled key or a base page's header (empty if neither).
    #[must_use]
    pub fn covers(&self) -> [Span; 2] {
        let key = match &self.kind {
            DeltaKind::Base(b) => return [span(self), span(&**b)],
            DeltaKind::Insert { key, .. } | DeltaKind::Delete { key } => Some(key),
            DeltaKind::Split { sep, .. }
            | DeltaKind::IndexEntry { sep, .. }
            | DeltaKind::IndexTermDelete { sep, .. } => Some(sep),
            DeltaKind::Merge { high, .. } => high.as_ref(),
            DeltaKind::RemoveNode { .. } => None,
        };
        let spill =
            key.and_then(LeafKey::spill).map_or((std::ptr::null(), 0), |s| (s.as_ptr(), s.len()));
        [span(self), spill]
    }

    /// Stage every range the record owns — its line, a spilled key, a base page's
    /// header — without a fence: one line for a keyed delta whose key sits inline.
    pub fn stage<P: PersistMode>(&self) {
        for (ptr, len) in self.covers() {
            P::stage(ptr, len);
        }
    }

    /// Heap footprint of the record: its line, a base page's header and payload, and
    /// a spilled key — the unit the reclamation gauge counts in.
    #[must_use]
    pub fn footprint(&self) -> usize {
        let bytes: usize = self.covers().iter().map(|&(_, len)| len).sum();
        match &self.kind {
            DeltaKind::Base(b) => bytes + b.payload_bytes(),
            _ => bytes,
        }
    }
}

#[inline]
pub(crate) fn delta_ref<'a>(p: *mut Delta) -> &'a Delta {
    debug_assert!(!p.is_null());
    // SAFETY: chain nodes are published before any pointer to them escapes and are
    // never freed while the tree is alive (deferred reclamation; see `Delta` docs).
    unsafe { &*p }
}

/// Outcome of a point query against one leaf chain snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Find {
    /// Key present with this value.
    Val(u64),
    /// Key absent from this page.
    Missing,
    /// Key is at or beyond this page's (possibly in-split) high key: continue at
    /// the right sibling.
    Right(Pid),
}

/// Point lookup over the immutable chain snapshot starting at `head`.
///
/// Walks newest-to-oldest: the first record mentioning `key` wins, and a split
/// delta redirects keys at or beyond its separator *before* any older record is
/// consulted (older records covering those keys were already copied right).
pub fn leaf_lookup(head: *mut Delta, key: &[u8]) -> Find {
    let mut cur = head;
    // Once a merge delta is passed, it owns the page's high/right boundary:
    // the base's (narrower) bound below it must not redirect keys the merge
    // adopted from the victim.
    let mut merged = false;
    loop {
        let d = delta_ref(cur);
        match &d.kind {
            DeltaKind::Insert { key: k, value } if k.as_ref() == key => return Find::Val(*value),
            DeltaKind::Delete { key: k } if k.as_ref() == key => return Find::Missing,
            DeltaKind::Split { sep, right, .. } if key >= sep.as_ref() => {
                return Find::Right(*right)
            }
            DeltaKind::Merge { high, right, .. } if !merged => {
                if high.as_ref().is_some_and(|h| key >= h.as_ref()) {
                    return Find::Right(*right);
                }
                merged = true;
            }
            DeltaKind::Base(b) => {
                if !merged && b.high.as_ref().is_some_and(|h| key >= h.as_ref()) {
                    return Find::Right(b.right);
                }
                return match b.search(key) {
                    Ok(i) => Find::Val(b.val(i)),
                    Err(_) => Find::Missing,
                };
            }
            _ => {}
        }
        cur = d.next.load(Ordering::Acquire);
    }
}

/// Outcome of routing a key through one inner chain snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Descend into this child.
    Child(Pid),
    /// Key is at or beyond this page's high key: continue at the right sibling.
    Right(Pid),
}

/// Route `key` through the inner chain snapshot at `head`: the child under the
/// largest separator `<= key`, taking uncombined [`DeltaKind::IndexEntry`] records,
/// [`DeltaKind::IndexTermDelete`] shadowing and split truncation into account.
pub fn inner_route(head: *mut Delta, key: &[u8]) -> Route {
    inner_route_impl(head, key, true)
}

/// Route toward the *predecessor region* of `key`: the child covering the
/// largest keys strictly below `key`. Used by the merge SMO to find the live
/// left sibling of a page whose low key is `key` — strict comparisons mean the
/// victim's own separator never routes here.
pub fn inner_route_before(head: *mut Delta, key: &[u8]) -> Route {
    inner_route_impl(head, key, false)
}

fn inner_route_impl(head: *mut Delta, key: &[u8], inclusive: bool) -> Route {
    // `sep` routes for `key` when sep <= key (inclusive) or sep < key (strict).
    let routes = |sep: &[u8]| if inclusive { sep <= key } else { sep < key };
    // The page covers `key` (resp. its predecessor) unless key >= high
    // (resp. key > high: the predecessor of `high` still lives here).
    let beyond = |h: &[u8]| if inclusive { key >= h } else { key > h };
    let mut best: Option<(&[u8], Pid)> = None;
    // Pair-exact tombstones from index-term-delete deltas. Empty (never
    // allocated) unless the chain carries a pending merge completion.
    let mut deleted: Vec<(&[u8], Pid)> = Vec::new();
    let mut cur = head;
    loop {
        let d = delta_ref(cur);
        match &d.kind {
            DeltaKind::IndexEntry { sep, child }
                if routes(sep)
                    && best.is_none_or(|(b, _)| sep.as_ref() > b)
                    && !deleted.contains(&(sep.as_ref(), *child)) =>
            {
                best = Some((sep.as_ref(), *child));
            }
            DeltaKind::IndexTermDelete { sep, child } => {
                deleted.push((sep.as_ref(), *child));
            }
            DeltaKind::Split { sep, right, .. } if beyond(sep) => return Route::Right(*right),
            DeltaKind::Base(b) => {
                if b.high.as_ref().is_some_and(|h| beyond(h)) {
                    return Route::Right(b.right);
                }
                let mut i = match b.search(key) {
                    Ok(i) if inclusive => Some(i),
                    Ok(0) | Err(0) => None,
                    Ok(i) | Err(i) => Some(i - 1),
                };
                // Step left over base entries shadowed by a term delete.
                while let Some(ix) = i {
                    if deleted.contains(&(b.key(ix), b.val(ix))) {
                        i = ix.checked_sub(1);
                    } else {
                        break;
                    }
                }
                if let Some(ix) = i {
                    if best.is_none_or(|(bk, _)| b.key(ix) > bk) {
                        best = Some((b.key(ix), b.val(ix)));
                    }
                }
                return Route::Child(best.map_or(b.leftmost, |(_, c)| c));
            }
            _ => {}
        }
        cur = d.next.load(Ordering::Acquire);
    }
}

/// Whether the inner chain at `head` already publishes the separator `sep`
/// (i.e. the split SMO that promotes `sep` has completed on the parent side).
pub fn inner_contains_sep(head: *mut Delta, sep: &[u8]) -> bool {
    let mut cur = head;
    loop {
        let d = delta_ref(cur);
        match &d.kind {
            DeltaKind::IndexEntry { sep: s, .. } if s.as_ref() == sep => return true,
            // A newer term delete shadows every older record for this separator.
            DeltaKind::IndexTermDelete { sep: s, .. } if s.as_ref() == sep => return false,
            DeltaKind::Split { sep: s, .. } if sep >= s.as_ref() => return false,
            DeltaKind::Base(b) => {
                if b.high.as_ref().is_some_and(|h| sep >= h.as_ref()) {
                    return false;
                }
                return b.search(sep).is_ok();
            }
            _ => {}
        }
        cur = d.next.load(Ordering::Acquire);
    }
}

/// The newest (and only incomplete-able) split delta in the chain at `head`, if
/// any: `(delta node, separator, right PID)`. Used by the helping mechanism.
pub fn first_split(head: *mut Delta) -> Option<(&'static Delta, &'static [u8], Pid)> {
    let mut cur = head;
    loop {
        let d = delta_ref(cur);
        match &d.kind {
            DeltaKind::Split { sep, right, .. } => {
                // SAFETY of the 'static launder: see `delta_ref` — nodes live until
                // the tree is dropped, and callers only use the borrow while the
                // tree is alive.
                return Some((d, sep.as_ref(), *right));
            }
            DeltaKind::Base(_) => return None,
            _ => {}
        }
        cur = d.next.load(Ordering::Acquire);
    }
}

/// The newest structure-modification marker in a chain, for the helping
/// mechanism: markers are published in completion order, so the newest one is
/// the only SMO that can still be incomplete.
pub enum SmoMarker {
    /// A split delta: `(delta node, separator, right PID)`.
    Split(&'static Delta, &'static [u8], Pid),
    /// A remove-node delta on a merge victim (this page is logically deleted).
    Removed(&'static Delta),
    /// A merge delta on the adopting sibling: `(delta node, victim PID)`.
    Merged(&'static Delta, Pid),
}

/// The newest SMO marker in the chain at `head`, if any.
pub fn first_smo(head: *mut Delta) -> Option<SmoMarker> {
    let mut cur = head;
    loop {
        let d = delta_ref(cur);
        match &d.kind {
            // SAFETY of the 'static launder: see `delta_ref` — nodes live until
            // the tree is dropped, and callers only use the borrow while the
            // tree is alive.
            DeltaKind::Split { sep, right, .. } => {
                return Some(SmoMarker::Split(d, sep.as_ref(), *right));
            }
            DeltaKind::RemoveNode { .. } => return Some(SmoMarker::Removed(d)),
            DeltaKind::Merge { victim, .. } => return Some(SmoMarker::Merged(d, *victim)),
            DeltaKind::Base(_) => return None,
            _ => {}
        }
        cur = d.next.load(Ordering::Acquire);
    }
}

/// Whether the chain carries a remove-node delta (the page was, or is being,
/// merged away). A removed page never takes new records, so the marker — once
/// present — is permanent.
pub fn chain_removed(head: *mut Delta) -> bool {
    let mut cur = head;
    loop {
        let d = delta_ref(cur);
        match &d.kind {
            DeltaKind::RemoveNode { .. } => return true,
            DeltaKind::Base(_) => return false,
            _ => {}
        }
        cur = d.next.load(Ordering::Acquire);
    }
}

/// Whether the leaf chain at `head` holds at least one live record —
/// allocation-free, unlike a scan. Each candidate key (insert deltas and base
/// keys) is resolved through [`leaf_lookup`] on the same snapshot, so delete
/// shadowing and split/merge truncation are honoured exactly.
pub fn page_live(head: *mut Delta) -> bool {
    let mut cur = head;
    loop {
        let d = delta_ref(cur);
        match &d.kind {
            DeltaKind::Insert { key, .. } => {
                if matches!(leaf_lookup(head, key), Find::Val(_)) {
                    return true;
                }
            }
            DeltaKind::Base(b) => {
                return (0..b.len()).any(|i| matches!(leaf_lookup(head, b.key(i)), Find::Val(_)));
            }
            _ => {}
        }
        cur = d.next.load(Ordering::Acquire);
    }
}

/// The effective `(high, right)` boundary of the chain at `head`, from
/// [`merge_chain`]. Clones the key (slow-path use: the merge SMO).
pub fn effective_bounds(head: *mut Delta) -> (Option<Box<[u8]>>, Pid) {
    let merged = merge_chain(head, &[], |_, _| false);
    (merged.high.map(Box::from), merged.right)
}

/// The page's inclusive low bound, from its base (stable for the page's
/// lifetime: splits and merges never move a page's own low key).
pub fn page_low(head: *mut Delta) -> Option<Box<[u8]>> {
    let mut cur = head;
    loop {
        let d = delta_ref(cur);
        if let DeltaKind::Base(b) = &d.kind {
            return b.low.clone();
        }
        cur = d.next.load(Ordering::Acquire);
    }
}

/// Number of records in the chain at `head`, including the base.
pub fn chain_len(head: *mut Delta) -> usize {
    let mut n = 0;
    let mut cur = head;
    while !cur.is_null() {
        n += 1;
        cur = delta_ref(cur).next.load(Ordering::Acquire);
    }
    n
}

/// Heap footprint of the chain at `head` ([`Delta::footprint`] summed): the unit
/// the reclamation gauge counts retired chains in.
pub fn chain_bytes(head: *mut Delta) -> u64 {
    let mut total = 0u64;
    let mut cur = head;
    while !cur.is_null() {
        let d = delta_ref(cur);
        total += d.footprint() as u64;
        cur = d.next.load(Ordering::Acquire);
    }
    total
}

/// Delta records of one chain a merge overlays from the stack; a longer chain
/// (consolidation lost its CAS many times over) spills to the heap.
const OVERLAY_INLINE: usize = 32;

/// Where a chain's merge ended: its base (for `leaf`, `leftmost` and `low`) and
/// the effective `(high, right)` — the newest split or merge delta's, else the
/// base's.
pub struct Merged<'a> {
    /// The base page terminating the chain.
    pub base: &'a BasePage,
    /// Effective exclusive upper bound.
    pub high: Option<&'a [u8]>,
    /// Effective right sibling.
    pub right: Pid,
}

/// The one merge of a chain: stream the live entries with key `>= start` of the
/// chain snapshot at `head` into `emit`, ascending, until `emit` returns `false`
/// or the page's effective high key is reached. The newest record for a key wins:
/// inserts and index entries map it, deletes and index-term deletes unmap it.
/// Keys are borrowed from the chain (the caller's epoch guard keeps it alive).
/// Range scans ([`scan_leaf`]) and consolidation are its two callers.
pub fn merge_chain<'a>(
    head: *mut Delta,
    start: &[u8],
    mut emit: impl FnMut(&'a [u8], u64) -> bool,
) -> Merged<'a> {
    // The chain's records at or after `start`, newest first; `None` = deleted.
    let mut inline: [(&[u8], Option<u64>); OVERLAY_INLINE] = [(&[], None); OVERLAY_INLINE];
    let mut spilled: Vec<(&[u8], Option<u64>)> = Vec::new();
    let mut n = 0usize;
    // Effective (high, right): the newest split *or* merge delta owns it.
    let mut boundary: Option<(Option<&[u8]>, Pid)> = None;
    let mut cur = head;
    let base = loop {
        let d: &'a Delta = delta_ref(cur);
        let record = match &d.kind {
            DeltaKind::Insert { key, value } => Some((key.as_ref(), Some(*value))),
            DeltaKind::IndexEntry { sep, child } => Some((sep.as_ref(), Some(*child))),
            DeltaKind::Delete { key } => Some((key.as_ref(), None)),
            DeltaKind::IndexTermDelete { sep, .. } => Some((sep.as_ref(), None)),
            DeltaKind::Split { sep, right, .. } => {
                boundary.get_or_insert((Some(sep.as_ref()), *right));
                None
            }
            DeltaKind::Merge { high, right, .. } => {
                boundary.get_or_insert((high.as_deref(), *right));
                None
            }
            DeltaKind::Base(b) => break &**b,
            DeltaKind::RemoveNode { .. } => None,
        };
        if let Some(record) = record.filter(|(k, _)| *k >= start) {
            if n < OVERLAY_INLINE {
                inline[n] = record;
            } else {
                if spilled.is_empty() {
                    spilled.extend_from_slice(&inline);
                }
                spilled.push(record);
            }
            n += 1;
        }
        cur = d.next.load(Ordering::Acquire);
    };
    let overlay = if n <= OVERLAY_INLINE { &mut inline[..n] } else { &mut spilled[..] };
    // Stable, so of several records for one key the newest stays first — and wins.
    overlay.sort_by(|a, b| a.0.cmp(b.0));
    let (high, right) = boundary.unwrap_or((base.high.as_deref(), base.right));

    // Merge-join the sorted base with the sorted overlay (overlay shadows base),
    // both cut at the effective high key: the rest is the right sibling's.
    let overlay = &overlay[..overlay.partition_point(|(k, _)| high.is_none_or(|h| *k < h))];
    let base_end = high.map_or(base.len(), |h| base.search(h).unwrap_or_else(|i| i));
    let mut bi = base.search(start).unwrap_or_else(|i| i);
    let mut oi = 0usize;
    loop {
        let take_overlay = match (bi < base_end, overlay.get(oi)) {
            (true, Some((ok, _))) => match base.key(bi).cmp(ok) {
                std::cmp::Ordering::Equal => {
                    bi += 1; // shadowed by the overlay record
                    true
                }
                order => order.is_gt(),
            },
            (false, Some(_)) => true,
            (true, None) => false,
            (false, None) => break,
        };
        let (key, value) = if take_overlay {
            let (key, value) = overlay[oi];
            oi += 1;
            while overlay.get(oi).is_some_and(|older| older.0 == key) {
                oi += 1;
            }
            (key, value)
        } else {
            bi += 1;
            (base.key(bi - 1), Some(base.val(bi - 1)))
        };
        if let Some(value) = value {
            if !emit(key, value) {
                break;
            }
        }
    }
    Merged { base, high, right }
}

/// Stream the live records with key `>= start` of the leaf chain snapshot at
/// `head` into `out`, ascending, until `out` holds `target` entries or the page
/// ends; returns the page's effective right sibling. Keys are copied once, into
/// `out`. `out` must hold fewer than `target` entries on entry.
///
/// `first` is where this scan's entries start in `out`: a record that does not
/// sort after the last one appended since is dropped — cross-page duplicate
/// suppression (defence in depth; split truncation already keeps page snapshots
/// disjoint).
pub fn scan_leaf(
    head: *mut Delta,
    start: &[u8],
    first: usize,
    target: usize,
    out: &mut ScanBuf,
) -> Pid {
    debug_assert!(out.len() < target);
    // The merge ascends: once one record sorts after the last entry, all do.
    let mut after = out.len() <= first;
    merge_chain(head, start, |key, value| {
        after = after || out.last_key().is_none_or(|last| last < key);
        if after {
            out.push(key, value);
        }
        out.len() < target
    })
    .right
}

const SEG_BITS: usize = 12;
const SEG_SLOTS: usize = 1 << SEG_BITS;
const SEG_COUNT: usize = 1 << 12;

/// One lazily allocated block of mapping-table slots.
struct Segment {
    slots: Vec<AtomicPtr<Delta>>,
}

/// The mapping table: logical PID → current delta-chain head.
///
/// A two-level lazily grown array (up to `SEG_COUNT` segments of `SEG_SLOTS`
/// slots). The indirection is what makes every page update a single CAS: writers
/// swap the slot, never any in-page pointer.
pub struct MappingTable {
    segs: Vec<AtomicPtr<Segment>>,
}

impl MappingTable {
    /// Create a table with the first segment allocated (PIDs start at 1).
    pub fn new<P: PersistMode>() -> MappingTable {
        let mut segs = Vec::with_capacity(SEG_COUNT);
        segs.resize_with(SEG_COUNT, || AtomicPtr::new(std::ptr::null_mut()));
        let t = MappingTable { segs };
        t.ensure::<P>(1);
        t
    }

    /// Make sure the segment covering `pid` exists (persisted before it is linked).
    pub fn ensure<P: PersistMode>(&self, pid: Pid) {
        let si = (pid as usize) >> SEG_BITS;
        assert!(si < SEG_COUNT, "mapping table capacity exceeded");
        if !self.segs[si].load(Ordering::Acquire).is_null() {
            return;
        }
        let mut slots = Vec::with_capacity(SEG_SLOTS);
        slots.resize_with(SEG_SLOTS, || AtomicPtr::new(std::ptr::null_mut()));
        let seg = pm::alloc::pm_box(Segment { slots });
        P::stage_obj(seg);
        let link = &self.segs[si];
        let cas = || {
            link.compare_exchange(std::ptr::null_mut(), seg, Ordering::AcqRel, Ordering::Acquire)
        };
        if P::publish(link, cas, [span(seg)], None).is_err() {
            // Another thread installed the segment first.
            // SAFETY: `seg` was never published; no other thread can reach it.
            unsafe { pm::alloc::pm_drop(seg) };
        }
    }

    /// The slot of `pid`. The segment must exist (PIDs are only handed out after
    /// [`MappingTable::ensure`]).
    #[inline]
    pub fn slot(&self, pid: Pid) -> &AtomicPtr<Delta> {
        let si = (pid as usize) >> SEG_BITS;
        let seg = self.segs[si].load(Ordering::Acquire);
        debug_assert!(!seg.is_null(), "slot({pid}) before ensure");
        // SAFETY: segments are never freed while the table is alive.
        let seg = unsafe { &*seg };
        &seg.slots[(pid as usize) & (SEG_SLOTS - 1)]
    }

    /// Free every segment. Must only be called with exclusive access (Drop), after
    /// all chains reachable from the slots were already reclaimed.
    pub fn free_segments(&mut self) {
        for s in &self.segs {
            let p = s.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                // SAFETY: exclusive access; segments are only allocated by `ensure`.
                unsafe { pm::alloc::pm_drop(p) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe::persist::Dram;

    fn bx(s: &[u8]) -> Box<[u8]> {
        s.into()
    }

    fn dk(s: &[u8]) -> LeafKey {
        LeafKey::new(s)
    }

    fn free_chain(mut p: *mut Delta) {
        while !p.is_null() {
            let next = delta_ref(p).next.load(Ordering::Acquire);
            // SAFETY: test-local chains, no other references.
            unsafe { pm::alloc::pm_line_drop(p) };
            p = next;
        }
    }

    fn leaf_base(pairs: &[(&[u8], u64)], high: Option<&[u8]>, right: Pid) -> *mut Delta {
        let base = BasePage::new(true, pairs, NO_PID, None, high.map(bx), right);
        Delta::alloc(std::ptr::null_mut(), true, DeltaKind::base(base))
    }

    #[test]
    fn leaf_lookup_honours_newest_first_overlay() {
        let base = leaf_base(&[(b"b", 2), (b"d", 4)], None, NO_PID);
        let del = Delta::alloc(base, true, DeltaKind::Delete { key: dk(b"b") });
        let ins = Delta::alloc(del, true, DeltaKind::Insert { key: dk(b"b"), value: 9 });
        assert_eq!(leaf_lookup(base, b"b"), Find::Val(2));
        assert_eq!(leaf_lookup(del, b"b"), Find::Missing);
        assert_eq!(leaf_lookup(ins, b"b"), Find::Val(9), "newest record wins");
        assert_eq!(leaf_lookup(ins, b"d"), Find::Val(4));
        assert_eq!(leaf_lookup(ins, b"x"), Find::Missing);
        free_chain(ins);
    }

    #[test]
    fn leaf_lookup_redirects_at_split_before_older_records() {
        let base = leaf_base(&[(b"a", 1), (b"m", 13), (b"z", 26)], None, NO_PID);
        let split = Delta::alloc(
            base,
            true,
            DeltaKind::Split { sep: dk(b"m"), right: 7, done: AtomicBool::new(false) },
        );
        // `m` and `z` were copied to page 7; the stale base records must be shadowed.
        assert_eq!(leaf_lookup(split, b"m"), Find::Right(7));
        assert_eq!(leaf_lookup(split, b"z"), Find::Right(7));
        assert_eq!(leaf_lookup(split, b"a"), Find::Val(1));
        // A consolidated base with a high key redirects the same way.
        let cons = leaf_base(&[(b"a", 1)], Some(b"m"), 7);
        assert_eq!(leaf_lookup(cons, b"z"), Find::Right(7));
        free_chain(split);
        free_chain(cons);
    }

    #[test]
    fn inner_route_combines_base_and_index_entry_deltas() {
        let base = Delta::alloc(
            std::ptr::null_mut(),
            false,
            DeltaKind::base(BasePage::new(false, &[(b"h", 20)], 10, None, None, NO_PID)),
        );
        let ie = Delta::alloc(base, false, DeltaKind::IndexEntry { sep: dk(b"p"), child: 30 });
        assert_eq!(inner_route(ie, b"a"), Route::Child(10));
        assert_eq!(inner_route(ie, b"h"), Route::Child(20));
        assert_eq!(inner_route(ie, b"k"), Route::Child(20));
        assert_eq!(inner_route(ie, b"p"), Route::Child(30), "delta separator routes");
        assert_eq!(inner_route(ie, b"z"), Route::Child(30));
        assert!(inner_contains_sep(ie, b"p"));
        assert!(inner_contains_sep(ie, b"h"));
        assert!(!inner_contains_sep(ie, b"k"));
        let split = Delta::alloc(
            ie,
            false,
            DeltaKind::Split { sep: dk(b"p"), right: 5, done: AtomicBool::new(false) },
        );
        assert_eq!(inner_route(split, b"z"), Route::Right(5));
        assert_eq!(inner_route(split, b"h"), Route::Child(20));
        free_chain(split);
    }

    /// Consolidating a chain: the merge's entries and effective bounds, packed
    /// into a base that answers lookups the way the chain did.
    #[test]
    fn merge_chain_consolidates_overlay_split_and_base() {
        let base = leaf_base(&[(b"a", 1), (b"c", 3), (b"p", 16), (b"t", 20)], None, NO_PID);
        let d1 = Delta::alloc(base, true, DeltaKind::Insert { key: dk(b"b"), value: 2 });
        let d2 = Delta::alloc(d1, true, DeltaKind::Delete { key: dk(b"c") });
        let d3 = Delta::alloc(
            d2,
            true,
            DeltaKind::Split { sep: dk(b"p"), right: 9, done: AtomicBool::new(false) },
        );
        let d4 = Delta::alloc(d3, true, DeltaKind::Insert { key: dk(b"a"), value: 11 });
        let mut got = Vec::new();
        let merged = merge_chain(d4, b"", |k, v| {
            got.push((k, v));
            true
        });
        assert!(merged.base.leaf);
        assert_eq!((merged.high, merged.right), (Some(&b"p"[..]), 9));
        // `c` deleted, `a` overwritten, `p`/`t` truncated away by the split.
        assert_eq!(got, vec![(&b"a"[..], 11), (&b"b"[..], 2)]);
        let page = BasePage::new(true, &got, NO_PID, None, merged.high.map(bx), merged.right);
        let cons = Delta::alloc(std::ptr::null_mut(), true, DeltaKind::base(page));
        for k in [&b"a"[..], b"b", b"c", b"p", b"t", b"z"] {
            assert_eq!(leaf_lookup(cons, k), leaf_lookup(d4, k), "key {k:?}");
        }
        free_chain(d4);
        free_chain(cons);
    }

    /// One record of a test chain, over `u64` keys.
    #[derive(Clone, Copy)]
    enum Rec {
        Ins(u64, u64),
        Del(u64),
        Split(u64, Pid),
        Merge(Option<u64>, Pid),
        Entry(u64, Pid),
        TermDel(u64, Pid),
    }

    fn key(i: u64) -> Box<[u8]> {
        bx(&i.to_be_bytes())
    }

    /// A test chain: a base of `(key, value)` pairs with its bounds, and the
    /// records published on it, oldest first.
    struct Shape<'a> {
        leaf: bool,
        base: &'a [(u64, u64)],
        high: Option<u64>,
        right: Pid,
        records: Vec<Rec>,
    }

    /// What a chain denotes: its live entries and its effective `(high, right)`.
    #[derive(Debug, PartialEq)]
    struct Denoted {
        entries: Vec<(Vec<u8>, u64)>,
        high: Option<Vec<u8>>,
        right: Pid,
    }

    impl Shape<'_> {
        fn build(&self) -> *mut Delta {
            let keys: Vec<Box<[u8]>> = self.base.iter().map(|&(k, _)| key(k)).collect();
            let pairs: Vec<(&[u8], u64)> =
                keys.iter().zip(self.base).map(|(k, &(_, v))| (&k[..], v)).collect();
            let leftmost = if self.leaf { NO_PID } else { 1 };
            let page =
                BasePage::new(self.leaf, &pairs, leftmost, None, self.high.map(key), self.right);
            let mut head = Delta::alloc(std::ptr::null_mut(), self.leaf, DeltaKind::base(page));
            for &rec in &self.records {
                let kind = match rec {
                    Rec::Ins(k, value) => DeltaKind::Insert { key: dk(&key(k)), value },
                    Rec::Del(k) => DeltaKind::Delete { key: dk(&key(k)) },
                    Rec::Split(k, right) => {
                        DeltaKind::Split { sep: dk(&key(k)), right, done: AtomicBool::new(false) }
                    }
                    Rec::Merge(h, right) => {
                        DeltaKind::Merge { high: h.map(|h| dk(&key(h))), right, victim: right }
                    }
                    Rec::Entry(k, child) => DeltaKind::IndexEntry { sep: dk(&key(k)), child },
                    Rec::TermDel(k, child) => {
                        DeltaKind::IndexTermDelete { sep: dk(&key(k)), child }
                    }
                };
                head = Delta::alloc(head, self.leaf, kind);
            }
            head
        }

        /// The model: a newest-first `BTreeMap` overlay on the base, cut at the
        /// newest split or merge delta's high key.
        fn model(&self) -> Denoted {
            let mut overlay = std::collections::BTreeMap::new();
            let mut bounds = None;
            for &rec in self.records.iter().rev() {
                match rec {
                    Rec::Ins(k, v) | Rec::Entry(k, v) => {
                        overlay.entry(k).or_insert(Some(v));
                    }
                    Rec::Del(k) | Rec::TermDel(k, _) => {
                        overlay.entry(k).or_insert(None);
                    }
                    Rec::Split(k, r) => {
                        bounds.get_or_insert((Some(k), r));
                    }
                    Rec::Merge(h, r) => {
                        bounds.get_or_insert((h, r));
                    }
                }
            }
            for &(k, v) in self.base {
                overlay.entry(k).or_insert(Some(v));
            }
            let (high, right) = bounds.unwrap_or((self.high, self.right));
            let live = overlay.into_iter().filter(|&(k, _)| high.is_none_or(|h| k < h));
            let entries = live.filter_map(|(k, v)| Some((key(k).to_vec(), v?))).collect();
            Denoted { entries, high: high.map(|h| key(h).to_vec()), right }
        }
    }

    /// The one chain merge — as a range scan from any start key with any room
    /// left in the buffer, and as consolidation — denotes what a newest-first
    /// model of the chain does: on shadowed and re-inserted keys, a split with a
    /// spilled overlay, a merge over a narrower base, and an inner chain of index
    /// entries and index-term deletes.
    #[test]
    fn scan_leaf_and_merge_chain_match_a_newest_first_model() {
        let base: Vec<(u64, u64)> = (0..20u64).map(|i| (i * 10, i)).collect();
        let mut spill = vec![Rec::Ins(125, 9), Rec::Split(120, 9)];
        spill.extend((0..(OVERLAY_INLINE as u64 + 8)).map(|i| Rec::Ins(i * 3 + 1, i)));
        let shapes = [
            // Overlay only: updates, deletes, a delete then re-insert, new keys.
            Shape {
                leaf: true,
                base: &base,
                high: None,
                right: NO_PID,
                records: vec![
                    Rec::Ins(30, 300),
                    Rec::Del(40),
                    Rec::Ins(45, 450),
                    Rec::Del(50),
                    Rec::Ins(50, 51),
                    Rec::Ins(5, 1),
                ],
            },
            // A split below newer records, then a long tail that spills the overlay.
            Shape { leaf: true, base: &base, high: Some(500), right: 7, records: spill },
            // A merge delta widens the base's bound; records past the old bound count.
            Shape {
                leaf: true,
                base: &base[..10],
                high: Some(100),
                right: 3,
                records: vec![Rec::Merge(Some(150), 4), Rec::Ins(120, 12), Rec::Ins(170, 17)],
            },
            // An inner chain: index entries installed, replaced and deleted, then split.
            Shape {
                leaf: false,
                base: &base[..12],
                high: None,
                right: NO_PID,
                records: vec![
                    Rec::Entry(35, 35),
                    Rec::TermDel(40, 4),
                    Rec::Entry(40, 41),
                    Rec::TermDel(60, 6),
                    Rec::Entry(95, 95),
                    Rec::TermDel(35, 35),
                    Rec::Split(90, 8),
                ],
            },
        ];
        for shape in shapes {
            let head = shape.build();
            let want = shape.model();
            let mut entries = Vec::new();
            let merged = merge_chain(head, b"", |k, v| {
                entries.push((k.to_vec(), v));
                true
            });
            let high = merged.high.map(<[u8]>::to_vec);
            assert_eq!(Denoted { entries, high, right: merged.right }, want);
            assert_eq!(merged.base.leaf, shape.leaf);
            for start in (0..210u64).step_by(5).map(key).chain([bx(b"")]) {
                let from: Vec<_> =
                    want.entries.iter().filter(|(k, _)| k[..] >= start[..]).cloned().collect();
                for room in [1, 3, usize::MAX] {
                    let mut out = ScanBuf::new();
                    assert_eq!(scan_leaf(head, &start, 0, room, &mut out), want.right);
                    let got = out.to_vec();
                    assert_eq!(got, from[..from.len().min(room)], "start {start:?} room {room}");
                }
            }
            free_chain(head);
        }
    }

    #[test]
    fn scan_leaf_drops_what_does_not_sort_after_this_scans_last_entry() {
        let head = leaf_base(&[(b"b", 2), (b"d", 4)], None, NO_PID);
        let mut out = ScanBuf::new();
        out.push(b"zz", 0); // an earlier scan's entry: below `first`, not compared
        out.push(b"b", 1); // this scan's: a torn split already yielded `b`
        scan_leaf(head, b"", 1, 10, &mut out);
        let got = out.to_vec();
        assert_eq!(got, vec![(b"zz".to_vec(), 0), (b"b".to_vec(), 1), (b"d".to_vec(), 4)]);
        free_chain(head);
    }

    /// Key stems: empty, short, zero-terminated, and two sharing an 8-byte prefix.
    const STEMS: [&[u8]; 5] = [b"", b"ab", b"ab\0", b"prefix08", b"prefix08\0"];

    /// A key of at most 30 bytes: a stem and a tail over {0, 1, 'a', 0xff}.
    fn test_key((stem, tail): &(usize, Vec<usize>)) -> Vec<u8> {
        let mut k = STEMS[*stem].to_vec();
        k.extend(tail.iter().map(|&b| [0u8, 1, b'a', 0xff][b]));
        k.truncate(30);
        k
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 512, ..Default::default() })]

        /// The flat page against a sorted `Vec`: `search`, its lower bound,
        /// `key(i)` and `val(i)`, on 0, 1 and 24 entries whose keys share
        /// prefixes and carry embedded and trailing zero bytes.
        #[test]
        fn flat_page_matches_a_sorted_vec(
            size in 0usize..3,
            raw in proptest::collection::vec((0usize..5, proptest::collection::vec(0usize..4, 0..=28)), 64),
            probes in proptest::collection::vec((0usize..5, proptest::collection::vec(0usize..4, 0..=28)), 32),
        ) {
            let mut keys: Vec<Vec<u8>> = raw.iter().map(test_key).collect();
            keys.sort();
            keys.dedup();
            keys.truncate([0, 1, 24][size]);
            let pairs: Vec<(&[u8], u64)> =
                keys.iter().enumerate().map(|(i, k)| (&k[..], i as u64 * 7 + 1)).collect();
            let page = BasePage::new(true, &pairs, NO_PID, None, None, NO_PID);
            proptest::prop_assert_eq!(page.len(), keys.len());
            for (i, k) in keys.iter().enumerate() {
                proptest::prop_assert_eq!(page.key(i), &k[..]);
                proptest::prop_assert_eq!(page.val(i), i as u64 * 7 + 1);
            }
            let mut queries: Vec<Vec<u8>> = probes.iter().map(test_key).collect();
            for k in &keys {
                queries.push(k.clone());
                queries.push([&k[..], b"\0"].concat());
                queries.push(k[..k.len().saturating_sub(1)].to_vec());
            }
            for q in &queries {
                proptest::prop_assert_eq!(page.search(q), keys.binary_search(q), "query {:?}", q);
                let lower = page.search(q).unwrap_or_else(|i| i);
                proptest::prop_assert_eq!(lower, keys.partition_point(|k| k < q));
            }
        }
    }

    #[test]
    fn persisting_a_record_flushes_its_line_and_what_it_owns() {
        use recipe::persist::Pmem;
        let clwbs = |d: *mut Delta| {
            let before = pm::stats::snapshot_local();
            delta_ref(d).stage::<Pmem>();
            pm::stats::snapshot_local().since(&before).clwb
        };
        let base = leaf_base(&[(b"a", 1)], None, NO_PID);
        let ins = Delta::alloc(base, true, DeltaKind::Insert { key: dk(&[3u8; 8]), value: 2 });
        let long = Delta::alloc(ins, true, DeltaKind::Insert { key: dk(&[4u8; 24]), value: 3 });
        assert_eq!(clwbs(base), 1 + 2, "the record's line and the base header's two");
        assert_eq!(clwbs(ins), 1, "an inline key is on the record's line");
        let DeltaKind::Insert { key, .. } = &delta_ref(long).kind else { unreachable!() };
        let spill = key.spill().expect("24 bytes spill");
        let spill_lines = pm::flush::lines_spanned(spill.as_ptr() as usize, spill.len()) as u64;
        assert_eq!(clwbs(long), 1 + spill_lines, "a spilled key is flushed with its record");
        free_chain(long);
    }

    /// The reclamation gauge of a hand-built chain: every record's line, the base
    /// header and its payload, and each spilled key.
    #[test]
    fn chain_bytes_counts_lines_headers_payload_and_spills() {
        let long = [b'k'; 30];
        let base = Delta::alloc(
            std::ptr::null_mut(),
            true,
            DeltaKind::base(BasePage::new(
                true,
                &[(b"a", 1), (&long, 2)],
                NO_PID,
                Some(bx(b"lo")),
                Some(bx(b"zzzzz")),
                4,
            )),
        );
        let ins = Delta::alloc(base, true, DeltaKind::Insert { key: dk(&[1u8; 8]), value: 3 });
        let spilled = Delta::alloc(ins, true, DeltaKind::Delete { key: dk(&[b'q'; 40]) });
        let split = Delta::alloc(
            spilled,
            true,
            DeltaKind::Split { sep: dk(b"m"), right: 4, done: AtomicBool::new(false) },
        );
        assert_eq!(std::mem::size_of::<Delta>(), 64);
        assert_eq!(std::mem::size_of::<BasePage>(), 128);
        // Two prefix words, two value words, one word of end offsets, the 31 key
        // bytes padded to four words; then the bound keys.
        let payload = (2 + 2 + 1 + 4) * 8 + 2 + 5;
        assert_eq!(chain_bytes(base), 64 + 128 + payload);
        assert_eq!(chain_bytes(split), 4 * 64 + 128 + payload + 40);
        free_chain(split);
    }

    #[test]
    fn chain_len_and_first_split() {
        let base = leaf_base(&[], None, NO_PID);
        assert_eq!(chain_len(base), 1);
        assert!(first_split(base).is_none());
        let s1 = Delta::alloc(
            base,
            true,
            DeltaKind::Split { sep: dk(b"m"), right: 3, done: AtomicBool::new(false) },
        );
        let s2 = Delta::alloc(
            s1,
            true,
            DeltaKind::Split { sep: dk(b"f"), right: 4, done: AtomicBool::new(false) },
        );
        let (_, sep, right) = first_split(s2).expect("split present");
        assert_eq!((sep, right), (&b"f"[..], 4), "newest (smallest) split wins");
        assert_eq!(chain_len(s2), 3);
        free_chain(s2);
    }

    #[test]
    fn mapping_table_hands_out_independent_slots() {
        let mut t = MappingTable::new::<Dram>();
        t.ensure::<Dram>(SEG_SLOTS as u64 + 5);
        let d = leaf_base(&[], None, NO_PID);
        t.slot(1).store(d, Ordering::Release);
        assert_eq!(t.slot(1).load(Ordering::Acquire), d);
        assert!(t.slot(2).load(Ordering::Acquire).is_null());
        assert!(t.slot(SEG_SLOTS as u64 + 5).load(Ordering::Acquire).is_null());
        free_chain(t.slot(1).swap(std::ptr::null_mut(), Ordering::AcqRel));
        t.free_segments();
    }
}
