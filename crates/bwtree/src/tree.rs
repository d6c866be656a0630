//! The Bw-tree and its RECIPE Condition #2 conversion.
//!
//! Both readers and writers are non-blocking: every operation works on an immutable
//! delta-chain snapshot obtained with one atomic mapping-table load, and every write
//! becomes visible through a single CAS of the mapping-table slot. Structure
//! modifications are *ordered atomic steps* — install the new right page, publish
//! the split delta, publish the parent index entry — and any thread that observes
//! the middle state **helps complete it** (the Bw-tree's help-along protocol). That
//! is exactly the paper's Condition #2, so the conversion (§4.4) is:
//!
//! * flush + fence after every store that publishes state (each delta before its
//!   CAS, the mapping-table slot after it, the root pointer), and
//! * flush + fence after the *loads the helping mechanism participates in*: before
//!   a helper acts on a split delta it did not create, it persists the delta and
//!   the right page's mapping entry it just read, so the helper's dependent store
//!   can never become durable before the state it was derived from.
//!
//! A delta record is one cache line with its key inline ([`Delta`]), so an insert
//! flushes that line, fences, publishes, and flushes and fences the slot: two lines,
//! two fences. An object nothing can reach yet is *staged* — flushed without a fence
//! of its own — and rides on the fence ahead of the store that publishes it: a split
//! stages its right page and that page's mapping slot under the split delta's fence.
//! The CAS that publishes a record checks (`PersistMode::assert_durable`) that the
//! record and everything it owns are durable.
//!
//! Crash sites sit after each ordered step; [`BwTree::recover`] replays incomplete
//! SMOs (the same helper code) at restart.
//!
//! Node *merges* follow the OpenBw-Tree three-step protocol, restricted to fully
//! emptied leaves (the case delete-heavy load actually produces): publish a
//! remove-node delta on the empty victim, publish a merge delta on the left
//! sibling that widens its key space over the victim's, then publish an
//! index-term-delete delta on the parent. Each step is one CAS; any thread that
//! observes a remove-node or merge delta helps drive the remaining steps, and
//! the same §4.4 flush-after-helping-load rule applies before a helper acts on
//! a marker it did not create. Without merges, a delete-heavy workload
//! accumulates unmergeable empty pages that every scan must still traverse.

use crate::page::{
    build_view, chain_bytes, chain_len, chain_removed, delta_ref, effective_bounds, first_smo,
    first_split, inner_contains_sep, inner_route, inner_route_before, leaf_lookup, page_live,
    page_low, scan_leaf, BasePage, Delta, DeltaKey, DeltaKind, Find, MappingTable, PageView, Pid,
    Route, SmoMarker, NO_PID,
};
use recipe::persist::PersistMode;
use recipe::session::ScanBuf;
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Delta-chain length at which a traversing operation consolidates the page.
pub const DEFAULT_CONSOLIDATE_AFTER: usize = 8;

/// Consolidated page size at which consolidation splits instead.
pub const DEFAULT_SPLIT_AT: usize = 24;

/// The Bw-tree, generic over the persistence policy: `BwTree<Dram>` is the original
/// lock-free DRAM index, `BwTree<Pmem>` is P-BwTree.
pub struct BwTree<P: PersistMode> {
    map: MappingTable,
    root: AtomicU64,
    next_pid: AtomicU64,
    consolidate_after: usize,
    split_at: usize,
    suffix: &'static str,
    /// Epoch-based reclamation domain: chains replaced by consolidation are
    /// retired here and freed at epoch quiescence, bounding memory during long
    /// delete-heavy runs (they used to park on a tree-local list until `Drop`).
    /// Every public operation enters it; session handles additionally pin it
    /// around each call, keeping cursors safe across batches.
    epoch: recipe::epoch::Collector,
    /// Completed merge SMOs (victim pages retired), cumulative.
    merged_pages: AtomicU64,
    _policy: PhantomData<P>,
}

std::thread_local! {
    /// Re-entrancy depth of the helping mechanism on this thread. Helping a
    /// merge descends the tree, which helps more pages; the guard stops that
    /// recursion from unbounded nesting (the outermost traversal retries and
    /// finishes any SMO the bounded helper left behind).
    static HELP_DEPTH: Cell<u32> = const { Cell::new(0) };
}

const MAX_HELP_DEPTH: u32 = 4;

/// Free every node of a detached delta chain.
///
/// # Safety
///
/// The chain must be unreachable (its head swapped out of the mapping table)
/// and the caller must guarantee no thread can still be traversing it — either
/// exclusive tree access (`Drop`) or epoch quiescence (the deferred-free path).
unsafe fn free_chain(mut p: *mut Delta) {
    while !p.is_null() {
        let next = delta_ref(p).next.load(Ordering::Acquire);
        // SAFETY: per the function contract the chain is unreachable and
        // unobserved; nodes are never shared across chains.
        unsafe { pm::alloc::pm_line_drop(p) };
        p = next;
    }
}

impl<P: PersistMode> Default for BwTree<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: PersistMode> BwTree<P> {
    /// Create an empty tree with the default consolidation/split thresholds.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(DEFAULT_CONSOLIDATE_AFTER, DEFAULT_SPLIT_AT, "")
    }

    /// Create an empty tree with explicit thresholds. `suffix` is appended to the
    /// display name (used by the registry's delta-chain ablation entry).
    #[must_use]
    pub fn with_config(consolidate_after: usize, split_at: usize, suffix: &'static str) -> Self {
        assert!(split_at >= 2, "a split needs at least two entries");
        let map = MappingTable::new::<P>();
        let base =
            Delta::alloc(std::ptr::null_mut(), true, DeltaKind::base(BasePage::empty_leaf()));
        delta_ref(base).persist::<P>(true);
        map.slot(1).store(base, Ordering::Release);
        let t = BwTree {
            map,
            root: AtomicU64::new(1),
            next_pid: AtomicU64::new(2),
            consolidate_after: consolidate_after.max(2),
            split_at,
            suffix,
            epoch: recipe::epoch::Collector::new(),
            merged_pages: AtomicU64::new(0),
            _policy: PhantomData,
        };
        P::persist_obj(t.map.slot(1), false);
        P::persist_obj(&t.root, true);
        t
    }

    /// Display-name suffix configured at construction.
    #[must_use]
    pub fn suffix(&self) -> &'static str {
        self.suffix
    }

    fn alloc_pid(&self) -> Pid {
        let pid = self.next_pid.fetch_add(1, Ordering::AcqRel);
        self.map.ensure::<P>(pid);
        pid
    }

    #[inline]
    fn head(&self, pid: Pid) -> *mut Delta {
        self.map.slot(pid).load(Ordering::Acquire)
    }

    /// Publish `delta` (already persisted) as the new head of `pid`'s chain iff the
    /// head is still `expected`; on success persist the slot and fence.
    fn publish(&self, pid: Pid, expected: *mut Delta, delta: *mut Delta) -> bool {
        delta_ref(delta).assert_durable::<P>();
        let slot = self.map.slot(pid);
        if slot.compare_exchange(expected, delta, Ordering::AcqRel, Ordering::Acquire).is_ok() {
            P::mark_dirty_obj(slot);
            P::persist_obj(slot, true);
            true
        } else {
            // Never published: no other thread has seen it.
            // SAFETY: `delta` came from `Delta::alloc` and never escaped.
            unsafe { pm::alloc::pm_line_drop(delta) };
            false
        }
    }

    /// Descend from the root to the leaf whose key space contains `key`, helping
    /// along the way: any split delta observed on the path is completed first.
    fn descend_to_leaf(&self, key: &[u8]) -> Pid {
        let mut pid = self.root.load(Ordering::Acquire);
        loop {
            let head = self.head(pid);
            self.help_page(pid, head);
            if delta_ref(head).leaf {
                return pid;
            }
            match inner_route(head, key) {
                Route::Right(r) => pid = r,
                Route::Child(c) => {
                    debug_assert_ne!(c, NO_PID, "inner page routed to no child");
                    pid = c;
                }
            }
        }
    }

    /// The Condition #2 helping mechanism: if the chain at `head` carries an SMO
    /// marker (split, remove-node or merge delta) whose remaining steps are not
    /// yet confirmed, complete the SMO. Called by readers and writers alike on
    /// every page they traverse. Depth-bounded: helping a merge re-descends the
    /// tree, which helps more pages; past [`MAX_HELP_DEPTH`] the helper returns
    /// and the outermost traversal finishes the SMO on its own retry.
    fn help_page(&self, pid: Pid, head: *mut Delta) {
        if HELP_DEPTH.with(|d| d.get()) >= MAX_HELP_DEPTH {
            return;
        }
        match first_smo(head) {
            None => {}
            Some(SmoMarker::Split(delta, sep, right)) => {
                let DeltaKind::Split { done, .. } = &delta.kind else { unreachable!() };
                if done.load(Ordering::Acquire) {
                    return;
                }
                // A split whose right page was since merged away must not be
                // re-completed: installing its parent entry would resurrect the
                // dead PID. (The entry's deletion is idempotent regardless; see
                // `leaf_write`'s removed-page path.)
                let rhead = self.head(right);
                if rhead.is_null() || chain_removed(rhead) {
                    done.store(true, Ordering::Release);
                    return;
                }
                // Flush + fence after the loads the helper participates in
                // (§4.4): the split delta and the right page's mapping entry
                // were written by another thread and may not be durable yet; the
                // helper's parent store must not become durable before them.
                delta.persist::<P>(false);
                P::persist_obj(self.map.slot(right), true);
                P::crash_site("bwtree.help.split_flushed");
                obs::event::emit("bwtree.smo", "help_split", pid, right);
                self.with_help_depth(|t| t.complete_smo(pid, sep, right));
                done.store(true, Ordering::Release);
            }
            Some(SmoMarker::Removed(delta)) => {
                let DeltaKind::RemoveNode { done } = &delta.kind else { unreachable!() };
                if done.load(Ordering::Acquire) {
                    return;
                }
                // Same helping-load rule: the remove-node delta and the victim's
                // slot must be durable before any dependent merge/parent store.
                delta.persist::<P>(false);
                P::persist_obj(self.map.slot(pid), true);
                P::crash_site("bwtree.help.merge_flushed");
                obs::event::emit("bwtree.smo", "help_merge", pid, 0);
                self.with_help_depth(|t| t.complete_merge(pid));
            }
            Some(SmoMarker::Merged(delta, victim)) => {
                // Step 2 is published on this page; the victim owns the done
                // flag for the overall merge. Finish step 3 if it still needs it.
                let vhead = self.head(victim);
                if vhead.is_null() || !chain_removed(vhead) {
                    return; // merge fully completed and victim already retired
                }
                if let Some(SmoMarker::Removed(rm)) = first_smo(vhead) {
                    let DeltaKind::RemoveNode { done } = &rm.kind else { unreachable!() };
                    if done.load(Ordering::Acquire) {
                        return;
                    }
                    delta.persist::<P>(false);
                    P::persist_obj(self.map.slot(victim), true);
                    P::crash_site("bwtree.help.merge_flushed");
                    obs::event::emit("bwtree.smo", "help_merge", victim, pid);
                    self.with_help_depth(|t| t.complete_merge(victim));
                }
            }
        }
    }

    /// Run `f` with the thread's helping depth incremented. Unwind-safe: crash
    /// sites panic out of SMO steps, and a leaked increment would permanently
    /// disable helping (and thus recovery) on this thread.
    fn with_help_depth<R>(&self, f: impl FnOnce(&Self) -> R) -> R {
        struct DepthGuard;
        impl Drop for DepthGuard {
            fn drop(&mut self) {
                HELP_DEPTH.with(|d| d.set(d.get() - 1));
            }
        }
        HELP_DEPTH.with(|d| d.set(d.get() + 1));
        let _g = DepthGuard;
        f(self)
    }

    /// Complete the split SMO `(left, sep) -> right`: make the parent route `sep`
    /// to `right` (installing an index-entry delta, or a new root if `left` *is*
    /// the root). Idempotent; runs from the splitting writer, from every helper
    /// that observes the split, and from [`BwTree::recover`].
    fn complete_smo(&self, left: Pid, sep: &[u8], right: Pid) {
        loop {
            let root = self.root.load(Ordering::Acquire);
            if root == left {
                if self.split_root(left, sep, right) {
                    return;
                }
                continue;
            }
            // Find the parent of `left` by routing toward `sep` from the root.
            let mut cur = root;
            let mut parent = None;
            let found = loop {
                if cur == left {
                    break true;
                }
                if cur == right {
                    return; // routed into the right page: entry already installed
                }
                let head = self.head(cur);
                if delta_ref(head).leaf {
                    break false; // trail lost (concurrent restructuring); retry
                }
                match inner_route(head, sep) {
                    Route::Right(r) => cur = r,
                    Route::Child(c) => {
                        parent = Some(cur);
                        cur = c;
                    }
                }
            };
            if !found {
                continue;
            }
            let Some(parent) = parent else {
                continue; // left became the root in between; redo from the top
            };
            match self.try_install_index_entry(parent, sep, right) {
                Some(()) => return,
                None => continue,
            }
        }
    }

    /// Try to publish the index entry `(sep -> right)` on `parent`. Returns
    /// `Some(())` when the entry is (now) present, `None` when the parent no longer
    /// covers `sep` and the caller must re-route.
    fn try_install_index_entry(&self, parent: Pid, sep: &[u8], right: Pid) -> Option<()> {
        loop {
            let head = self.head(parent);
            if delta_ref(head).leaf {
                return None;
            }
            if inner_contains_sep(head, sep) {
                return Some(());
            }
            // The right page may have been merged away since the split delta was
            // observed; re-installing its entry would resurrect a dead PID.
            let rhead = self.head(right);
            if rhead.is_null() || chain_removed(rhead) {
                return Some(());
            }
            if let Route::Right(_) = inner_route(head, sep) {
                return None;
            }
            let delta = Delta::alloc(
                head,
                false,
                DeltaKind::IndexEntry { sep: DeltaKey::new(sep), child: right },
            );
            delta_ref(delta).persist::<P>(true);
            if self.publish(parent, head, delta) {
                P::crash_site("bwtree.smo.parent_published");
                obs::event::emit("bwtree.smo", "parent_published", parent, right);
                self.try_consolidate(parent);
                return Some(());
            }
        }
    }

    /// Grow the tree: replace the root `left` with a fresh inner page routing
    /// `sep` to `right`. Returns `false` if `left` stopped being the root.
    fn split_root(&self, left: Pid, sep: &[u8], right: Pid) -> bool {
        let base = BasePage {
            leaf: false,
            keys: vec![sep.into()],
            vals: vec![right],
            leftmost: left,
            high: None,
            right: NO_PID,
            low: None,
        };
        let delta = Delta::alloc(std::ptr::null_mut(), false, DeltaKind::base(base));
        delta_ref(delta).persist::<P>(true);
        let new_root = self.alloc_pid();
        let slot = self.map.slot(new_root);
        delta_ref(delta).assert_durable::<P>();
        slot.store(delta, Ordering::Release);
        P::mark_dirty_obj(slot);
        P::persist_obj(slot, true);
        P::crash_site("bwtree.root_split.new_root_installed");
        P::assert_durable_obj(slot);
        if self.root.compare_exchange(left, new_root, Ordering::AcqRel, Ordering::Acquire).is_ok() {
            P::mark_dirty_obj(&self.root);
            P::persist_obj(&self.root, true);
            P::crash_site("bwtree.root_split.committed");
            obs::event::emit("bwtree.smo", "root_split", left, right);
            true
        } else {
            // Lost the race: nothing routes to `new_root` (the CAS that would
            // have exposed it failed), so unpublish and free it immediately.
            let orphan = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
            P::mark_dirty_obj(slot);
            P::persist_obj(slot, true);
            // SAFETY: the page was freshly allocated and never became reachable.
            unsafe { free_chain(orphan) };
            false
        }
    }

    /// Publish a remove-node delta on `pid` if it is an empty, non-leftmost,
    /// non-root leaf with no pending split — step 1 of the merge SMO — then
    /// drive the remaining steps. The CAS succeeding proves the emptiness check
    /// still holds (any interleaved write would have moved the head).
    fn maybe_merge(&self, pid: Pid) {
        if pid == self.root.load(Ordering::Acquire) {
            return;
        }
        let head = self.head(pid);
        let d = delta_ref(head);
        if !d.leaf || chain_removed(head) || first_split(head).is_some() {
            return;
        }
        let Some(low) = page_low(head) else {
            return; // leftmost leaf: no left sibling under any parent
        };
        if !self.parent_entry_routes(&low, pid) {
            // Only entry-routed pages are mergeable: a parent's *leftmost*
            // pointer has no index term for step 3 to delete.
            return;
        }
        if page_live(head) {
            return;
        }
        let rm = Delta::alloc(head, true, DeltaKind::RemoveNode { done: AtomicBool::new(false) });
        delta_ref(rm).persist::<P>(true);
        if self.publish(pid, head, rm) {
            P::crash_site("bwtree.merge.remove_published");
            obs::event::emit("bwtree.smo", "remove_published", pid, 0);
            // The removing thread is the merge's first helper.
            self.help_page(pid, self.head(pid));
        }
    }

    /// Complete the merge SMO for the removed page `victim`: adopt its key
    /// space into the left sibling (step 2), delete the parent's index term
    /// (step 3), then retire the husk through the epoch domain. Idempotent;
    /// runs from the remover, from helpers and from [`BwTree::recover`].
    fn complete_merge(&self, victim: Pid) {
        let vhead = self.head(victim);
        if vhead.is_null() {
            return;
        }
        let Some(SmoMarker::Removed(rm)) = first_smo(vhead) else { return };
        let DeltaKind::RemoveNode { done } = &rm.kind else { unreachable!() };
        if done.load(Ordering::Acquire) {
            return;
        }
        let Some(vlow) = page_low(vhead) else {
            // Defensive: `maybe_merge` never removes a leftmost page.
            done.store(true, Ordering::Release);
            return;
        };
        let (vhigh, vright) = effective_bounds(vhead);

        // Step 2: make the left sibling adopt [vlow, vhigh). Bounded retries:
        // on persistent interference (deep helping recursion, racing merges)
        // the SMO is left for a later traversal or `recover` to finish.
        let mut adopted = false;
        for _ in 0..16 {
            let left = self.descend_to_left_of(&vlow);
            if left == victim {
                return; // defensive: strict routing cannot land on the victim
            }
            let lhead = self.head(left);
            if chain_removed(lhead) {
                // The would-be adopter is itself a merge victim: finish its
                // merge first; the re-descent then lands on *its* adopter.
                self.help_page(left, lhead);
                continue;
            }
            let (lhigh, _) = effective_bounds(lhead);
            if lhigh.as_ref().is_none_or(|h| h.as_ref() > vlow.as_ref()) {
                adopted = true; // bounds already widened past the victim's low
                break;
            }
            if first_split(lhead).is_some() {
                // Never stack a merge delta over a split delta: the split is
                // the in-progress marker helpers look for. Complete it and
                // consolidate it into the base, then retry.
                self.help_page(left, lhead);
                self.consolidate(left, true);
                continue;
            }
            let merge = Delta::alloc(
                lhead,
                true,
                DeltaKind::Merge {
                    high: vhigh.as_deref().map(DeltaKey::new),
                    right: vright,
                    victim,
                },
            );
            delta_ref(merge).persist::<P>(true);
            if self.publish(left, lhead, merge) {
                P::crash_site("bwtree.merge.merge_published");
                obs::event::emit("bwtree.smo", "merge_published", left, victim);
                adopted = true;
                break;
            }
        }
        if !adopted {
            return;
        }

        // Step 3: delete the parent's (vlow -> victim) index term.
        self.remove_index_entry(&vlow, victim);

        // Exactly one completer retires the husk (the done-flag CAS winner).
        if done.compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire).is_ok() {
            self.merged_pages.fetch_add(1, Ordering::AcqRel);
            obs::event::emit("bwtree.smo", "merge", victim, vright);
            if self.parent_routes_to(&vlow, victim) {
                // Pathological promotion race: a concurrent inner split made
                // the victim a parent's *leftmost* child, which no index-term
                // delete can unroute. Leak the husk instead of retiring it —
                // traversals that land on it redirect to the left adopter.
                return;
            }
            let slot_addr =
                self.map.slot(victim) as *const std::sync::atomic::AtomicPtr<Delta> as usize;
            let bytes = chain_bytes(vhead);
            // Deferred to epoch quiescence: a reader that obtained the victim's
            // PID from a pre-merge snapshot is pinned in an epoch no later than
            // this one, so the slot cannot go null under it.
            self.epoch.defer_free(bytes, move || {
                // SAFETY: mapping-table segments outlive every deferred free
                // (`Drop` flushes the epoch domain before freeing segments),
                // and at quiescence no thread can still hold the stale PID.
                let slot = unsafe { &*(slot_addr as *const std::sync::atomic::AtomicPtr<Delta>) };
                let head = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
                // SAFETY: the husk became unreachable at step 3 and the chain
                // was frozen by the remove-node delta.
                unsafe { free_chain(head) };
            });
        }
    }

    /// Descend to the live leaf covering the key space immediately *before*
    /// `key` — strict routing never enters the page whose low bound is `key`
    /// itself, which is exactly the merge victim the caller wants to avoid.
    fn descend_to_left_of(&self, key: &[u8]) -> Pid {
        let mut pid = self.root.load(Ordering::Acquire);
        loop {
            let head = self.head(pid);
            self.help_page(pid, head);
            if delta_ref(head).leaf {
                return pid;
            }
            match inner_route_before(head, key) {
                Route::Right(r) => pid = r,
                Route::Child(c) => {
                    debug_assert_ne!(c, NO_PID, "inner page routed to no child");
                    pid = c;
                }
            }
        }
    }

    /// Delete the index term `(sep -> child)` from whichever parent still
    /// routes it. Idempotent: returns once no parent does.
    fn remove_index_entry(&self, sep: &[u8], child: Pid) {
        'retry: loop {
            let mut pid = self.root.load(Ordering::Acquire);
            loop {
                let head = self.head(pid);
                if delta_ref(head).leaf {
                    return; // nothing routes `sep` to `child` anymore
                }
                match inner_route(head, sep) {
                    Route::Right(r) => pid = r,
                    Route::Child(c) if c == child => {
                        if !inner_contains_sep(head, sep) {
                            // Routed via the leftmost pointer: no index term to
                            // delete (see `complete_merge`'s leak fallback).
                            return;
                        }
                        let delta = Delta::alloc(
                            head,
                            false,
                            DeltaKind::IndexTermDelete { sep: DeltaKey::new(sep), child },
                        );
                        delta_ref(delta).persist::<P>(true);
                        if self.publish(pid, head, delta) {
                            P::crash_site("bwtree.merge.parent_updated");
                            obs::event::emit("bwtree.smo", "parent_updated", pid, child);
                            self.try_consolidate(pid);
                            return;
                        }
                        continue 'retry;
                    }
                    Route::Child(c) => pid = c,
                }
            }
        }
    }

    /// Consolidate `pid` if its chain grew past the threshold, splitting when the
    /// consolidated page is too large. Best-effort: a lost CAS is simply abandoned
    /// (some later traversal will retry).
    fn try_consolidate(&self, pid: Pid) {
        self.consolidate(pid, false);
    }

    /// [`BwTree::try_consolidate`] body; with `force`, consolidates regardless of
    /// chain length (the merge SMO uses this to fold a completed split delta into
    /// the base before stacking a merge delta on the chain).
    fn consolidate(&self, pid: Pid, force: bool) {
        let head = self.head(pid);
        if !force && chain_len(head) <= self.consolidate_after {
            return;
        }
        if chain_removed(head) {
            // A merge victim's chain is frozen: consolidating it would drop the
            // remove-node marker helpers and recovery look for.
            return;
        }
        // Never absorb a split delta whose SMO might still be incomplete: the delta
        // *is* the in-progress marker helpers and recovery look for.
        self.help_page(pid, head);
        let view = build_view(head);
        if view.entries.len() > self.split_at {
            self.split_page(pid, head, &view);
            return;
        }
        let base = BasePage {
            leaf: view.leaf,
            keys: view.entries.iter().map(|(k, _)| k.clone()).collect(),
            vals: view.entries.iter().map(|(_, v)| *v).collect(),
            leftmost: view.leftmost,
            high: view.high.clone(),
            right: view.right,
            low: view.low.clone(),
        };
        let emptied = view.leaf && view.entries.is_empty();
        let delta = Delta::alloc(std::ptr::null_mut(), view.leaf, DeltaKind::base(base));
        delta_ref(delta).persist::<P>(true);
        if self.publish(pid, head, delta) {
            P::crash_site("bwtree.consolidate.installed");
            obs::event::emit("bwtree.smo", "consolidate", pid, view.entries.len() as u64);
            // The whole old chain is now unreachable; retire it to the epoch
            // domain (freed once every thread that might still hold the old
            // snapshot has unpinned).
            let addr = head as usize;
            // SAFETY: the chain was atomically replaced above and the deferred
            // free runs only at epoch quiescence.
            self.epoch
                .defer_free(chain_bytes(head), move || unsafe { free_chain(addr as *mut Delta) });
            if emptied {
                // Consolidation just proved the leaf empty: trigger the merge.
                self.maybe_merge(pid);
            }
        }
    }

    /// Split `pid` (leaf or inner): the ordered atomic steps of the Condition #2
    /// SMO. `head` is the chain the caller consolidated `view` from.
    fn split_page(&self, pid: Pid, head: *mut Delta, view: &PageView) {
        let n = view.entries.len();
        debug_assert!(n >= 2);
        let mut m = n / 2;
        if !view.leaf {
            // Never promote an entry whose child is a merge victim: promotion
            // would make the husk a leftmost child, which the merge SMO's
            // index-term delete cannot unroute.
            let live = |i: usize| {
                let h = self.head(view.entries[i].1);
                !h.is_null() && !chain_removed(h)
            };
            if !live(m) {
                match (1..n).filter(|&i| live(i)).min_by_key(|&i| i.abs_diff(m)) {
                    Some(i) => m = i,
                    None => return, // nothing promotable; retry after the merges
                }
            }
        }
        let sep: Box<[u8]> = view.entries[m].0.clone();

        // Step 1: build and install the right page under a fresh PID. Until the
        // split delta is published the page is unreachable, so a crash here only
        // leaks it — and the page and its slot are only staged (flushed, not
        // fenced): they ride on the split delta's fence below.
        let right_base = if view.leaf {
            BasePage {
                leaf: true,
                keys: view.entries[m..].iter().map(|(k, _)| k.clone()).collect(),
                vals: view.entries[m..].iter().map(|(_, v)| *v).collect(),
                leftmost: NO_PID,
                high: view.high.clone(),
                right: view.right,
                low: Some(sep.clone()),
            }
        } else {
            // Promote entries[m]: its child becomes the right page's leftmost.
            BasePage {
                leaf: false,
                keys: view.entries[m + 1..].iter().map(|(k, _)| k.clone()).collect(),
                vals: view.entries[m + 1..].iter().map(|(_, v)| *v).collect(),
                leftmost: view.entries[m].1,
                high: view.high.clone(),
                right: view.right,
                low: Some(sep.clone()),
            }
        };
        let right_delta =
            Delta::alloc(std::ptr::null_mut(), view.leaf, DeltaKind::base(right_base));
        delta_ref(right_delta).persist::<P>(false);
        let right = self.alloc_pid();
        let slot = self.map.slot(right);
        slot.store(right_delta, Ordering::Release);
        P::mark_dirty_obj(slot);
        P::persist_obj(slot, false);
        P::crash_site("bwtree.split.right_installed");

        // Step 2: publish the split delta — the single CAS that makes the split
        // logically visible (keys >= sep redirect through the B-link). Its fence
        // covers the staged right page and slot too.
        let split = Delta::alloc(
            head,
            view.leaf,
            DeltaKind::Split { sep: DeltaKey::new(&sep), right, done: AtomicBool::new(false) },
        );
        delta_ref(split).persist::<P>(true);
        delta_ref(right_delta).assert_durable::<P>();
        P::assert_durable_obj(slot);
        if !self.publish(pid, head, split) {
            // Chain moved on: unpublish the orphaned right page (nothing ever
            // routed to it — the split delta that would have exposed it was
            // never installed) and free it immediately.
            let orphan = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
            P::mark_dirty_obj(slot);
            P::persist_obj(slot, true);
            // SAFETY: freshly allocated and never reachable.
            unsafe { free_chain(orphan) };
            return;
        }
        P::crash_site("bwtree.split.delta_published");
        obs::event::emit("bwtree.smo", "split", pid, right);

        // Step 3: the splitting writer is the SMO's first helper.
        self.help_page(pid, self.head(pid));
    }

    /// The tree's epoch-reclamation domain: session handles pin it around
    /// every operation, and its gauges expose the retired-chain memory bound.
    #[must_use]
    pub fn reclaimer(&self) -> &recipe::epoch::Collector {
        &self.epoch
    }

    /// Bytes of retired delta chains currently awaiting epoch quiescence.
    #[must_use]
    pub fn retired_bytes(&self) -> u64 {
        self.epoch.retired_bytes()
    }

    /// High-water mark of [`BwTree::retired_bytes`] — the gauge the
    /// reclamation regression tests (`harness/tests/epoch_reclamation.rs`) bound.
    #[must_use]
    pub fn peak_retired_bytes(&self) -> u64 {
        self.epoch.peak_retired_bytes()
    }

    /// Cumulative bytes of retired chains already freed.
    #[must_use]
    pub fn reclaimed_bytes(&self) -> u64 {
        self.epoch.reclaimed_bytes()
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        let _epoch = self.epoch.enter();
        let mut pid = self.descend_to_leaf(key);
        loop {
            pm::stats::record_node_visit();
            let head = self.head(pid);
            if let Some(left) = self.redirect_from_husk(pid, head) {
                pid = left;
                continue;
            }
            match leaf_lookup(head, key) {
                Find::Val(v) => return Some(v),
                Find::Missing => return None,
                Find::Right(r) => pid = r,
            }
        }
    }

    /// If `head` is a merge victim's frozen husk, help the merge to completion
    /// and return the left adopter's PID (whose widened bounds now cover the
    /// victim's key space); `None` for live pages. Keeps every traversal off
    /// husks, including one leaked by the promotion race (`complete_merge`).
    fn redirect_from_husk(&self, pid: Pid, head: *mut Delta) -> Option<Pid> {
        if head.is_null() || !chain_removed(head) {
            return None;
        }
        self.help_page(pid, head);
        let low = page_low(head)?;
        Some(self.descend_to_left_of(&low))
    }

    /// Insert `key -> value`. Returns `true` if the key was newly inserted, `false`
    /// if it already existed (its value is overwritten).
    pub fn insert(&self, key: &[u8], value: u64) -> bool {
        self.leaf_write(key, Some(value), false, "bwtree.insert.delta_published")
            .expect("unconditional upsert always publishes")
    }

    /// Conditional update: store `value` only if `key` is present. Linearizes at
    /// the CAS (the presence check and the publish act on the same chain snapshot).
    pub fn update(&self, key: &[u8], value: u64) -> bool {
        self.leaf_write(key, Some(value), true, "bwtree.update.delta_published").is_some()
    }

    /// Remove `key`. Returns `true` if it was present.
    pub fn remove(&self, key: &[u8]) -> bool {
        self.leaf_write(key, None, true, "bwtree.remove.delta_published").is_some()
    }

    /// Shared leaf write path: publish an insert (`Some(value)`) or delete (`None`)
    /// delta. With `require_present`, absent keys publish nothing and return `None`.
    /// Returns `Some(newly)` once a delta was published.
    fn leaf_write(
        &self,
        key: &[u8],
        value: Option<u64>,
        require_present: bool,
        site: &'static str,
    ) -> Option<bool> {
        let _epoch = self.epoch.enter();
        let mut pid = self.descend_to_leaf(key);
        loop {
            pm::stats::record_node_visit();
            let head = self.head(pid);
            if let Some(left) = self.redirect_from_husk(pid, head) {
                // Merge victim: never publish on a frozen husk. The helper has
                // driven the merge; clear any stale (resurrected) parent entry
                // still routing here, then continue at the left adopter, whose
                // widened bounds now cover this key.
                if let Some(low) = page_low(head) {
                    self.remove_index_entry(&low, pid);
                }
                pid = left;
                continue;
            }
            let existed = match leaf_lookup(head, key) {
                Find::Right(r) => {
                    pid = r;
                    continue;
                }
                Find::Val(_) => true,
                Find::Missing => false,
            };
            if require_present && !existed {
                // Linearized at the `head` load: no delta needed.
                return None;
            }
            let kind = match value {
                Some(v) => DeltaKind::Insert { key: DeltaKey::new(key), value: v },
                None => DeltaKind::Delete { key: DeltaKey::new(key) },
            };
            let delta = Delta::alloc(head, true, kind);
            delta_ref(delta).persist::<P>(true);
            if self.publish(pid, head, delta) {
                P::crash_site(site);
                self.try_consolidate(pid);
                if value.is_none() && !page_live(self.head(pid)) {
                    // This delete may have emptied the leaf: trigger the merge.
                    self.maybe_merge(pid);
                }
                return Some(!existed);
            }
        }
    }

    /// Range scan: up to `count` pairs with keys `>= start`, ascending, following
    /// the leaf B-link chain. Each page contributes one immutable snapshot.
    pub fn scan(&self, start: &[u8], count: usize) -> Vec<(Vec<u8>, u64)> {
        let mut out = ScanBuf::new();
        self.scan_into(start, count, &mut out);
        out.to_vec()
    }

    /// [`BwTree::scan`] into a caller-provided buffer: appends up to `count`
    /// pairs with key `>= start` (ascending) to `out` without clearing it, so
    /// cursor callers can stream batches through one reused allocation.
    pub fn scan_into(&self, start: &[u8], count: usize, out: &mut ScanBuf) {
        if count == 0 {
            return;
        }
        // Held to the end: `scan_leaf` reads keys borrowed from the chains.
        let _epoch = self.epoch.enter();
        let count = out.len().saturating_add(count);
        let base = out.len();
        let mut pid = self.descend_to_leaf(start);
        // The start descent may land on a merge victim's husk; redirect to the
        // left adopter so records in the adopted range are not skipped. (Husks
        // entered mid-scan via stale right links are harmlessly empty.)
        let head = self.head(pid);
        if let Some(left) = self.redirect_from_husk(pid, head) {
            pid = left;
        }
        while pid != NO_PID && out.len() < count {
            pm::stats::record_node_visit();
            let head = self.head(pid);
            if head.is_null() {
                break; // stale right link into a retired husk's slot
            }
            pid = scan_leaf(head, start, base, count, out);
        }
    }

    /// Post-crash recovery: replay every incomplete split-delta installation.
    ///
    /// The Bw-tree has no locks to re-initialise; restart only needs the helping
    /// mechanism run over the surviving state, exactly as RECIPE prescribes for
    /// Condition #2. Scans the mapping table (the tree's own structure) and
    /// completes every split SMO whose parent entry is missing — including a torn
    /// root split, which re-roots the tree. Must run single-threaded, like a
    /// restart would.
    pub fn recover(&self) {
        let _epoch = self.epoch.enter();
        let max = self.next_pid.load(Ordering::Acquire);
        for pid in 1..max {
            let head = self.head(pid);
            if head.is_null() {
                continue;
            }
            self.help_page(pid, head);
        }
    }

    /// Diagnostic: in-progress (or crash-torn) SMOs — split deltas whose
    /// separator the parent level does not route yet, plus removed pages whose
    /// parent entry still routes to them. Zero on a quiescent consistent tree;
    /// [`BwTree::recover`] restores it to zero. Single-threaded use only.
    #[must_use]
    pub fn incomplete_smos(&self) -> usize {
        let _epoch = self.epoch.enter();
        let max = self.next_pid.load(Ordering::Acquire);
        let mut n = 0;
        for pid in 1..max {
            let head = self.head(pid);
            if head.is_null() {
                continue;
            }
            match first_smo(head) {
                Some(SmoMarker::Split(_, sep, right)) => {
                    // A split whose right page was merged away is moot (its
                    // parent entry must stay absent), not incomplete.
                    let rhead = self.head(right);
                    if !rhead.is_null()
                        && !chain_removed(rhead)
                        && !self.routed_from_parent(sep, right)
                    {
                        n += 1;
                    }
                }
                Some(SmoMarker::Removed(_)) => {
                    // Merge incomplete while a parent still routes into the husk.
                    if let Some(low) = page_low(head) {
                        if self.parent_routes_to(&low, pid) {
                            n += 1;
                        }
                    }
                }
                Some(SmoMarker::Merged(..)) | None => {}
            }
        }
        n
    }

    /// Whether `child`'s immediate parent routes `sep` to it through a proper
    /// index term (not the leftmost pointer) — the merge-eligibility check:
    /// step 3 can only unroute what an index-term delete can delete.
    fn parent_entry_routes(&self, sep: &[u8], child: Pid) -> bool {
        let mut pid = self.root.load(Ordering::Acquire);
        loop {
            if pid == child {
                return false;
            }
            let head = self.head(pid);
            if head.is_null() || delta_ref(head).leaf {
                return false;
            }
            match inner_route(head, sep) {
                Route::Right(r) => pid = r,
                Route::Child(c) if c == child => return inner_contains_sep(head, sep),
                Route::Child(c) => pid = c,
            }
        }
    }

    /// Whether routing `sep` from the root reaches `child` through a parent
    /// index term (the merge SMO's step 3 deletes exactly that term).
    fn parent_routes_to(&self, sep: &[u8], child: Pid) -> bool {
        let mut pid = self.root.load(Ordering::Acquire);
        loop {
            if pid == child {
                return true;
            }
            let head = self.head(pid);
            if head.is_null() || delta_ref(head).leaf {
                return false;
            }
            match inner_route(head, sep) {
                Route::Right(r) => pid = r,
                Route::Child(c) => pid = c,
            }
        }
    }

    /// Whether routing `sep` from the root reaches `right` through parent links
    /// (index entries) rather than only through the split delta's B-link.
    fn routed_from_parent(&self, sep: &[u8], right: Pid) -> bool {
        let mut pid = self.root.load(Ordering::Acquire);
        loop {
            if pid == right {
                return true;
            }
            let head = self.head(pid);
            if delta_ref(head).leaf {
                return false;
            }
            match inner_route(head, sep) {
                Route::Right(r) if r == right => return false,
                Route::Right(r) => pid = r,
                Route::Child(c) if c == right => return true,
                Route::Child(c) => pid = c,
            }
        }
    }

    /// Number of stored keys (full scan; tests and diagnostics only).
    #[must_use]
    pub fn len(&self) -> usize {
        self.scan(&[], usize::MAX).len()
    }

    /// Whether the tree holds no keys: an allocation-free mapping-table walk
    /// (every live leaf checked with [`page_live`]), not a scan.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let _epoch = self.epoch.enter();
        let max = self.next_pid.load(Ordering::Acquire);
        for pid in 1..max {
            let head = self.head(pid);
            if head.is_null() {
                continue;
            }
            if !delta_ref(head).leaf || chain_removed(head) {
                continue;
            }
            if page_live(head) {
                return false;
            }
        }
        true
    }

    /// Live (non-removed) leaf pages currently holding zero records — the
    /// merge trigger's backlog. Shrinks as merges retire emptied pages.
    /// Single-threaded use only (diagnostics and tests).
    #[must_use]
    pub fn empty_leaf_pages(&self) -> u64 {
        let _epoch = self.epoch.enter();
        let max = self.next_pid.load(Ordering::Acquire);
        let mut n = 0;
        for pid in 1..max {
            let head = self.head(pid);
            if head.is_null() {
                continue;
            }
            if !delta_ref(head).leaf || chain_removed(head) {
                continue;
            }
            // The leftmost leaf is never merged; it still counts here only if
            // it is not the sole leaf left (an empty tree is one empty page).
            if !page_live(head) {
                n += 1;
            }
        }
        n
    }

    /// Completed merge SMOs (victim pages retired), cumulative.
    #[must_use]
    pub fn merged_pages(&self) -> u64 {
        self.merged_pages.load(Ordering::Acquire)
    }

    /// Maintenance sweep: walk the mapping table, help any in-flight SMO and
    /// trigger a merge for every mergeable empty leaf. Returns the number of
    /// merges completed by the sweep. Safe to run concurrently with other
    /// operations; session handles call it from `exec_settle`.
    pub fn merge_empty_pages(&self) -> u64 {
        let _epoch = self.epoch.enter();
        let before = self.merged_pages.load(Ordering::Acquire);
        let max = self.next_pid.load(Ordering::Acquire);
        for pid in 1..max {
            let head = self.head(pid);
            if head.is_null() {
                continue;
            }
            self.help_page(pid, head);
            if delta_ref(head).leaf {
                self.maybe_merge(pid);
            }
        }
        self.merged_pages.load(Ordering::Acquire) - before
    }

    /// Display name under this persistence policy (plus the config suffix).
    #[must_use]
    pub fn display_name(&self) -> String {
        if P::PERSISTENT {
            format!("P-BwTree{}", self.suffix)
        } else {
            format!("BwTree{}", self.suffix)
        }
    }
}

impl<P: PersistMode> Drop for BwTree<P> {
    fn drop(&mut self) {
        // Retired chains are disjoint from the mapping table's; with `&mut
        // self` no session can be pinned, so the flush drains all of them.
        self.epoch.flush();
        let max = *self.next_pid.get_mut();
        for pid in 1..max {
            let head = self.map.slot(pid).swap(std::ptr::null_mut(), Ordering::AcqRel);
            // SAFETY: exclusive access (`&mut self` in drop); chains were
            // detached just above.
            unsafe { free_chain(head) };
        }
        self.map.free_segments();
    }
}
