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
//! [`scan_leaf`], [`build_view`]) — while `tree` drives the CAS protocol, the
//! persistence ordering and the SMOs.

use recipe::key::LeafKey;
use recipe::persist::{span, PersistMode, Span};
use recipe::session::ScanBuf;
use std::collections::BTreeMap;
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
/// beside the chain's [`Delta`] record and flushed with it. The payload behind it
/// (the two vectors' buffers and the key boxes) is not flushed.
#[repr(align(64))]
pub struct BasePage {
    /// Whether this is a leaf page.
    pub leaf: bool,
    /// Sorted keys: record keys (leaf) or separators (inner).
    pub keys: Vec<Box<[u8]>>,
    /// Values aligned with `keys`: record values (leaf) or child PIDs (inner).
    pub vals: Vec<Pid>,
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

impl BasePage {
    /// An empty leaf base (the initial root page of a tree).
    #[must_use]
    pub fn empty_leaf() -> BasePage {
        BasePage {
            leaf: true,
            keys: Vec::new(),
            vals: Vec::new(),
            leftmost: NO_PID,
            low: None,
            high: None,
            right: NO_PID,
        }
    }

    /// Bytes of the payload behind the header: key bytes and value words.
    fn payload_bytes(&self) -> usize {
        self.keys.iter().map(|k| k.len()).sum::<usize>()
            + self.vals.len() * std::mem::size_of::<Pid>()
            + self.low.as_ref().map_or(0, |k| k.len())
            + self.high.as_ref().map_or(0, |k| k.len())
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
                return match b.keys.binary_search_by(|k| k.as_ref().cmp(key)) {
                    Ok(i) => Find::Val(b.vals[i]),
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
                let mut i = match b.keys.binary_search_by(|k| k.as_ref().cmp(key)) {
                    Ok(i) if inclusive => Some(i),
                    Ok(0) | Err(0) => None,
                    Ok(i) | Err(i) => Some(i - 1),
                };
                // Step left over base entries shadowed by a term delete.
                while let Some(ix) = i {
                    if deleted.contains(&(b.keys[ix].as_ref(), b.vals[ix])) {
                        i = ix.checked_sub(1);
                    } else {
                        break;
                    }
                }
                if let Some(ix) = i {
                    if best.is_none_or(|(bk, _)| b.keys[ix].as_ref() > bk) {
                        best = Some((b.keys[ix].as_ref(), b.vals[ix]));
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
                return b.keys.binary_search_by(|k| k.as_ref().cmp(sep)).is_ok();
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
/// allocation-free, unlike materializing a [`build_view`] or a scan. Each
/// candidate key (insert deltas and base keys) is resolved through
/// [`leaf_lookup`] on the same snapshot, so delete shadowing and split/merge
/// truncation are honoured exactly.
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
                return b.keys.iter().any(|k| matches!(leaf_lookup(head, k), Find::Val(_)));
            }
            _ => {}
        }
        cur = d.next.load(Ordering::Acquire);
    }
}

/// The effective `(high, right)` boundary of the chain at `head`: the newest
/// split or merge delta owns it, else the base. Clones the key (slow-path use:
/// the merge SMO and diagnostics).
pub fn effective_bounds(head: *mut Delta) -> (Option<Box<[u8]>>, Pid) {
    let mut cur = head;
    loop {
        let d = delta_ref(cur);
        match &d.kind {
            DeltaKind::Split { sep, right, .. } => return (Some(sep[..].into()), *right),
            DeltaKind::Merge { high, right, .. } => {
                return (high.as_deref().map(Box::from), *right)
            }
            DeltaKind::Base(b) => return (b.high.clone(), b.right),
            _ => {}
        }
        cur = d.next.load(Ordering::Acquire);
    }
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

/// A consolidated, owned snapshot of one page: the logical content the delta chain
/// at `head` denotes. Used by consolidation, splits and recovery; a range scan
/// streams the chain through [`scan_leaf`] instead and owns nothing.
pub struct PageView {
    /// Whether the page is a leaf.
    pub leaf: bool,
    /// Sorted live entries: records (leaf) or separator/child pairs (inner).
    pub entries: Vec<(Box<[u8]>, u64)>,
    /// Leftmost child (inner pages).
    pub leftmost: Pid,
    /// Effective exclusive upper bound (split truncation applied).
    pub high: Option<Box<[u8]>>,
    /// Effective right sibling (split redirection applied).
    pub right: Pid,
    /// Records in the chain (consolidation trigger).
    pub chain_len: usize,
    /// The newest split delta's `(sep, right)` if the chain has one.
    pub pending_split: Option<(Box<[u8]>, Pid)>,
    /// Whether the chain carries a remove-node delta (merge victim husk).
    pub removed: bool,
    /// The page's own inclusive low bound (from the base; never moves).
    pub low: Option<Box<[u8]>>,
}

/// Build the consolidated view of the chain snapshot at `head`.
pub fn build_view(head: *mut Delta) -> PageView {
    // Newest-first overlay: the first record seen for a key wins; `None` = deleted.
    let mut overlay: BTreeMap<&[u8], Option<u64>> = BTreeMap::new();
    let mut pending_split: Option<(Box<[u8]>, Pid)> = None;
    // Effective (high, right): the newest split *or* merge delta owns it.
    let mut boundary: Option<(Option<Box<[u8]>>, Pid)> = None;
    let mut removed = false;
    let mut n = 0usize;
    let mut cur = head;
    let base = loop {
        let d = delta_ref(cur);
        n += 1;
        match &d.kind {
            DeltaKind::Insert { key, value } => {
                overlay.entry(key.as_ref()).or_insert(Some(*value));
            }
            DeltaKind::Delete { key } => {
                overlay.entry(key.as_ref()).or_insert(None);
            }
            DeltaKind::IndexEntry { sep, child } => {
                overlay.entry(sep.as_ref()).or_insert(Some(*child));
            }
            DeltaKind::IndexTermDelete { sep, .. } => {
                overlay.entry(sep.as_ref()).or_insert(None);
            }
            DeltaKind::Split { sep, right, .. } => {
                if pending_split.is_none() {
                    pending_split = Some((sep[..].into(), *right));
                }
                if boundary.is_none() {
                    boundary = Some((Some(sep[..].into()), *right));
                }
            }
            DeltaKind::Merge { high, right, .. } => {
                if boundary.is_none() {
                    boundary = Some((high.as_deref().map(Box::from), *right));
                }
            }
            DeltaKind::RemoveNode { .. } => removed = true,
            DeltaKind::Base(b) => break b,
        }
        cur = d.next.load(Ordering::Acquire);
    };

    let (high, right) = match boundary {
        Some(b) => b,
        None => (base.high.clone(), base.right),
    };
    let below_high = |k: &[u8]| high.as_ref().is_none_or(|h| k < h.as_ref());

    // Merge-join the sorted base with the sorted overlay (overlay shadows base).
    let ov: Vec<(&[u8], Option<u64>)> = overlay.iter().map(|(k, v)| (*k, *v)).collect();
    let mut entries: Vec<(Box<[u8]>, u64)> = Vec::with_capacity(base.keys.len() + ov.len());
    let push_overlay = |entries: &mut Vec<(Box<[u8]>, u64)>, k: &[u8], v: Option<u64>| {
        if let Some(v) = v {
            if below_high(k) {
                entries.push((k.into(), v));
            }
        }
    };
    let (mut bi, mut oi) = (0usize, 0usize);
    while bi < base.keys.len() || oi < ov.len() {
        let take_overlay = match (base.keys.get(bi), ov.get(oi)) {
            (Some(bk), Some((ok, _))) => {
                if bk.as_ref() == *ok {
                    bi += 1; // shadowed by the overlay entry
                    true
                } else {
                    *ok < bk.as_ref()
                }
            }
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => unreachable!(),
        };
        if take_overlay {
            let (ok, ov_val) = ov[oi];
            push_overlay(&mut entries, ok, ov_val);
            oi += 1;
        } else {
            if below_high(&base.keys[bi]) {
                entries.push((base.keys[bi].clone(), base.vals[bi]));
            }
            bi += 1;
        }
    }

    PageView {
        leaf: base.leaf,
        entries,
        leftmost: base.leftmost,
        high,
        right,
        chain_len: n,
        pending_split,
        removed,
        low: base.low.clone(),
    }
}

/// Delta records of one chain a scan overlays from the stack; a longer chain
/// (consolidation lost its CAS many times over) spills to the heap.
const OVERLAY_INLINE: usize = 32;

/// Stream the live records with key `>= start` of the leaf chain snapshot at
/// `head` into `out`, ascending, until `out` holds `target` entries or the page
/// ends; returns the page's effective right sibling. The same content
/// [`build_view`] denotes, read in place: keys are borrowed from the chain (the
/// caller's epoch guard keeps it alive) and copied once, into `out`.
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
    // The chain's records at or after `start`, newest first; `None` = deleted.
    let mut inline: [(&[u8], Option<u64>); OVERLAY_INLINE] = [(&[], None); OVERLAY_INLINE];
    let mut spilled: Vec<(&[u8], Option<u64>)> = Vec::new();
    let mut n = 0usize;
    // Effective (high, right): the newest split *or* merge delta owns it.
    let mut boundary: Option<(Option<&[u8]>, Pid)> = None;
    let mut cur = head;
    let base = loop {
        let d = delta_ref(cur);
        let record = match &d.kind {
            DeltaKind::Insert { key, value } => Some((key.as_ref(), Some(*value))),
            DeltaKind::Delete { key } => Some((key.as_ref(), None)),
            DeltaKind::Split { sep, right, .. } => {
                boundary.get_or_insert((Some(sep.as_ref()), *right));
                None
            }
            DeltaKind::Merge { high, right, .. } => {
                boundary.get_or_insert((high.as_deref(), *right));
                None
            }
            DeltaKind::Base(b) => break b,
            _ => None,
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

    // Merge-join the sorted base with the sorted overlay (overlay shadows base).
    let mut bi = base.keys.partition_point(|k| k.as_ref() < start);
    let mut oi = 0usize;
    while out.len() < target {
        let take_overlay = match (base.keys.get(bi), overlay.get(oi)) {
            (Some(bk), Some((ok, _))) => {
                if bk.as_ref() == *ok {
                    bi += 1; // shadowed by the overlay record
                    true
                } else {
                    *ok < bk.as_ref()
                }
            }
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => break,
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
            (base.keys[bi - 1].as_ref(), Some(base.vals[bi - 1]))
        };
        if high.is_some_and(|h| key >= h) {
            break; // both sides ascend: everything left is the right sibling's
        }
        let Some(value) = value else { continue };
        if out.len() > first && out.last_key().is_some_and(|last| last >= key) {
            continue;
        }
        out.push(key, value);
    }
    right
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
        let base = BasePage {
            leaf: true,
            keys: pairs.iter().map(|(k, _)| bx(k)).collect(),
            vals: pairs.iter().map(|(_, v)| *v).collect(),
            leftmost: NO_PID,
            high: high.map(bx),
            right,
            low: None,
        };
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
            DeltaKind::base(BasePage {
                leaf: false,
                keys: vec![bx(b"h")],
                vals: vec![20],
                leftmost: 10,
                high: None,
                right: NO_PID,
                low: None,
            }),
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

    #[test]
    fn build_view_consolidates_overlay_split_and_base() {
        let base = leaf_base(&[(b"a", 1), (b"c", 3), (b"p", 16), (b"t", 20)], None, NO_PID);
        let d1 = Delta::alloc(base, true, DeltaKind::Insert { key: dk(b"b"), value: 2 });
        let d2 = Delta::alloc(d1, true, DeltaKind::Delete { key: dk(b"c") });
        let d3 = Delta::alloc(
            d2,
            true,
            DeltaKind::Split { sep: dk(b"p"), right: 9, done: AtomicBool::new(false) },
        );
        let d4 = Delta::alloc(d3, true, DeltaKind::Insert { key: dk(b"a"), value: 11 });
        let v = build_view(d4);
        assert!(v.leaf);
        assert_eq!(v.chain_len, 5);
        assert_eq!(v.pending_split, Some((bx(b"p"), 9)));
        assert_eq!(v.high.as_deref(), Some(&b"p"[..]));
        assert_eq!(v.right, 9);
        let got: Vec<(&[u8], u64)> = v.entries.iter().map(|(k, v)| (k.as_ref(), *v)).collect();
        // `c` deleted, `a` overwritten, `p`/`t` truncated away by the split.
        assert_eq!(got, vec![(&b"a"[..], 11), (&b"b"[..], 2)]);
        free_chain(d4);
    }

    /// `scan_leaf` must denote exactly what `build_view` consolidates, from any
    /// start key and for any room left in the buffer — on chains with shadowed
    /// and re-inserted keys, a split, a merge over a narrower base, and one long
    /// enough to spill the stack overlay.
    #[test]
    fn scan_leaf_streams_what_build_view_consolidates() {
        let key = |i: u64| bx(&i.to_be_bytes());
        let pairs: Vec<(Box<[u8]>, u64)> = (0..20u64).map(|i| (key(i * 10), i)).collect();
        let pair_refs: Vec<(&[u8], u64)> = pairs.iter().map(|(k, v)| (k.as_ref(), *v)).collect();
        let mut chains = Vec::new();

        // Overlay only: updates, deletes, a delete then re-insert, new keys.
        let mut head = leaf_base(&pair_refs, None, NO_PID);
        for (k, v) in
            [(30, Some(300)), (40, None), (45, Some(450)), (50, None), (50, Some(51)), (5, Some(1))]
        {
            let kind = match v {
                Some(value) => DeltaKind::Insert { key: dk(&key(k)), value },
                None => DeltaKind::Delete { key: dk(&key(k)) },
            };
            head = Delta::alloc(head, true, kind);
        }
        chains.push(head);

        // A split below newer records, then a long tail that spills the overlay.
        let mut head = leaf_base(&pair_refs, Some(&key(500)), 7);
        head = Delta::alloc(head, true, DeltaKind::Insert { key: dk(&key(125)), value: 9 });
        head = Delta::alloc(
            head,
            true,
            DeltaKind::Split { sep: dk(&key(120)), right: 9, done: AtomicBool::new(false) },
        );
        for i in 0..(OVERLAY_INLINE as u64 + 8) {
            head =
                Delta::alloc(head, true, DeltaKind::Insert { key: dk(&key(i * 3 + 1)), value: i });
        }
        chains.push(head);

        // A merge delta widens the base's bound; records past the old bound count.
        let mut head = leaf_base(&pair_refs[..10], Some(&key(100)), 3);
        head = Delta::alloc(
            head,
            true,
            DeltaKind::Merge { high: Some(dk(&key(150))), right: 4, victim: 3 },
        );
        head = Delta::alloc(head, true, DeltaKind::Insert { key: dk(&key(120)), value: 12 });
        head = Delta::alloc(head, true, DeltaKind::Insert { key: dk(&key(170)), value: 17 });
        chains.push(head);

        for head in chains {
            let view = build_view(head);
            for start in (0..210u64).step_by(5).map(key).chain([bx(b"")]) {
                let want: Vec<(Vec<u8>, u64)> = view
                    .entries
                    .iter()
                    .filter(|(k, _)| k.as_ref() >= start.as_ref())
                    .map(|(k, v)| (k.to_vec(), *v))
                    .collect();
                for room in [1, 3, usize::MAX] {
                    let mut out = ScanBuf::new();
                    let right = scan_leaf(head, &start, 0, room, &mut out);
                    assert_eq!(right, view.right);
                    let got = out.to_vec();
                    assert_eq!(got, want[..want.len().min(room)], "start {start:?} room {room}");
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
            DeltaKind::base(BasePage {
                leaf: true,
                keys: vec![bx(b"a"), bx(&long)],
                vals: vec![1, 2],
                leftmost: NO_PID,
                low: Some(bx(b"lo")),
                high: Some(bx(b"zzzzz")),
                right: 4,
            }),
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
        let payload = (1 + 30) + 2 * 8 + 2 + 5;
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
