//! Cross-index conformance suite: every index in the workspace must implement the
//! paper's DRAM-index interface (§2.1) with the same observable semantics, checked
//! against a BTreeMap model, sequentially and under concurrency — driven through
//! the session-handle API ([`recipe::session::Handle`]) with typed results.
use harness::registry::{self, PolicyMode};
use recipe::key::u64_key;
use recipe::session::{Index, IndexExt, OpError, OpResult};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Every registry index in both policy modes: the DRAM original must conform to
/// the same §2.1 semantics as its PM conversion.
/// `ordered` selects ordered (`Some(true)`) or hash (`Some(false)`) entries.
fn indexes_of_kind(ordered: Option<bool>) -> Vec<(&'static str, Arc<dyn Index>)> {
    registry::all_indexes()
        .iter()
        .filter(|e| ordered.is_none_or(|o| e.caps.ordered == o))
        .flat_map(|e| PolicyMode::ALL.map(|mode| (e.name(mode), e.build(mode))))
        .collect()
}

fn ordered_indexes() -> Vec<(&'static str, Arc<dyn Index>)> {
    indexes_of_kind(Some(true))
}

fn all_indexes() -> Vec<(&'static str, Arc<dyn Index>)> {
    indexes_of_kind(None)
}

#[test]
fn point_operations_match_model() {
    for (name, index) in all_indexes() {
        let mut handle = index.handle();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        // Mixed inserts, updates and removes with a deterministic pattern.
        for i in 0..20_000u64 {
            let k = (i * 7919) % 10_000;
            let expect =
                if model.insert(k, i).is_none() { OpResult::Inserted } else { OpResult::Updated };
            assert_eq!(
                handle.insert(&u64_key(k), i),
                Ok(expect),
                "{name}: insert({k}) outcome mismatch"
            );
            if i % 5 == 0 {
                let k2 = (i * 104729) % 10_000;
                let expect = match model.remove(&k2) {
                    Some(_) => Ok(OpResult::Removed),
                    None => Err(OpError::NotFound),
                };
                assert_eq!(handle.remove(&u64_key(k2)), expect, "{name}: remove({k2})");
            }
        }
        for k in 0..10_000u64 {
            assert_eq!(handle.get(&u64_key(k)), model.get(&k).copied(), "{name}: get({k})");
        }
        let stats = handle.stats();
        assert_eq!(stats.inserts, 20_000, "{name}: handle insert count");
        assert_eq!(stats.removes, 4_000, "{name}: handle remove count");
        assert_eq!(stats.gets, 10_000, "{name}: handle get count");
        assert_eq!(stats.hits + stats.misses, stats.gets, "{name}");
    }
}

#[test]
fn update_only_touches_existing_keys() {
    for (name, index) in all_indexes() {
        let mut h = index.handle();
        assert_eq!(h.update(&u64_key(1), 1), Err(OpError::NotFound), "{name}");
        assert_eq!(h.insert(&u64_key(1), 1), Ok(OpResult::Inserted), "{name}");
        assert_eq!(h.update(&u64_key(1), 2), Ok(OpResult::Updated), "{name}");
        assert_eq!(h.get(&u64_key(1)), Some(2), "{name}");
    }
}

#[test]
fn ordered_indexes_scan_in_sorted_order() {
    for (name, index) in ordered_indexes() {
        let mut h = index.handle();
        assert!(h.capabilities().scan, "{name}");
        let mut model = BTreeMap::new();
        for i in 0..5_000u64 {
            let k = (i * 37) % 60_000;
            h.insert(&u64_key(k), i).unwrap();
            model.insert(u64_key(k).to_vec(), i);
        }
        for start in [0u64, 1, 30_000, 59_999, 70_000] {
            let got: Vec<(Vec<u8>, u64)> = h.scan(&u64_key(start)).limit(50).collect();
            let want: Vec<(Vec<u8>, u64)> = model
                .range(u64_key(start).to_vec()..)
                .take(50)
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            assert_eq!(got, want, "{name}: scan from {start}");
        }
    }
}

#[test]
fn concurrent_mixed_workload_loses_nothing() {
    for (name, index) in all_indexes() {
        let index = Arc::new(index);
        let threads = 8u64;
        let per = 2_000u64;
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let index = Arc::clone(&index);
                scope.spawn(move || {
                    let mut h = index.handle();
                    for i in 0..per {
                        let k = tid * per + i;
                        assert_eq!(
                            h.insert(&u64_key(k), k + 1),
                            Ok(OpResult::Inserted),
                            "{name}: insert {k}"
                        );
                        if i % 3 == 0 {
                            assert_eq!(
                                h.get(&u64_key(k)),
                                Some(k + 1),
                                "{name}: read-own-write {k}"
                            );
                        }
                    }
                });
            }
        });
        let mut h = index.handle();
        for k in 0..threads * per {
            assert_eq!(h.get(&u64_key(k)), Some(k + 1), "{name}: key {k} lost");
        }
    }
}

#[test]
fn dram_variants_issue_no_persistence_traffic() {
    let dram_indexes: Vec<(&str, Arc<dyn Index>)> = registry::all_indexes()
        .iter()
        .map(|e| (e.name(PolicyMode::Dram), e.build(PolicyMode::Dram)))
        .collect();
    for (name, index) in dram_indexes {
        let mut h = index.handle();
        let before = pm::stats::snapshot_local();
        for i in 0..2_000u64 {
            h.insert(&u64_key(i), i).unwrap();
        }
        let d = pm::stats::snapshot_local().since(&before);
        assert_eq!(d.clwb, 0, "{name} issued clwb");
        assert_eq!(d.fence, 0, "{name} issued fences");
    }
}

/// The §2.1 interface erases failure causes; the typed API must name them.
/// Hash indexes store fixed 8-byte keys and must say so instead of silently
/// answering `false`.
#[test]
fn hash_indexes_report_unsupported_keys() {
    for (name, index) in indexes_of_kind(Some(false)) {
        let mut h = index.handle();
        let long = b"longer-than-8-bytes";
        assert_eq!(h.insert(long, 1), Err(OpError::UnsupportedKey), "{name}");
        assert_eq!(h.update(long, 1), Err(OpError::UnsupportedKey), "{name}");
        assert_eq!(h.remove(long), Err(OpError::UnsupportedKey), "{name}");
        assert_eq!(h.get(long), None, "{name}");
        assert_eq!(h.stats().errors, 3, "{name}: typed errors must be counted");
    }
}

/// Probe one index's `update` for the non-atomic get-then-insert interleaving.
///
/// Protocol per round: the key is inserted, then an updater thread hammers
/// `update(key, ..)` in a tight loop while a remover thread issues exactly one
/// `remove(key)`. Under a linearizable update the remove's effect can only be
/// undone by an `insert` — there is none, so once both threads quiesce the key
/// is always absent. The non-atomic fallback can interleave the remove between
/// its get and its insert and resurrect the key (the hammering loop is long
/// enough that even on a single-core host the preemption that switches to the
/// remover regularly lands inside that window). Returns `true` if any round
/// ended with the key present.
fn probe_update_resurrection(index: &Arc<dyn Index>, rounds: u64, early_exit: bool) -> bool {
    /// Updates hammered per round. The remover's trigger is a *progress
    /// target* inside this range, so the remove lands mid-hammer regardless of
    /// host speed — on a single-core box it executes at whatever random point
    /// the scheduler preempted the updater after the target was crossed.
    const HAMMER: u64 = 8_192;
    let key = u64_key(424_242);
    let resurrected = AtomicBool::new(false);
    // Round-synchronised: workers wait for their round flag, run their part,
    // and clear the flag as a done marker; `u64::MAX` shuts a worker down.
    let round_a = AtomicU64::new(0);
    let round_b = AtomicU64::new(0);
    let progress = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for (flag, is_updater) in [(&round_a, true), (&round_b, false)] {
            let index = &index;
            let key = &key;
            let progress = &progress;
            scope.spawn(move || {
                let mut h = index.handle();
                let mut seen = 0;
                loop {
                    let r = flag.load(Ordering::Acquire);
                    if r == u64::MAX {
                        return;
                    }
                    // Rounds are strictly increasing; anything else is either
                    // the current round already handled or this worker's own
                    // done marker (0) read back — never new work.
                    if r <= seen {
                        std::thread::yield_now();
                        continue;
                    }
                    seen = r;
                    if is_updater {
                        for i in 0..HAMMER {
                            let _ = h.update(key, i | 1);
                            progress.store(i + 1, Ordering::Release);
                        }
                    } else {
                        // Wait until the updater is provably inside its hammer
                        // loop, at a round-swept depth, then remove. Yielding
                        // (not spinning) matters on a single-core host: it hands
                        // the CPU to the updater, and this thread resumes at a
                        // random preemption point of the update loop — which is
                        // how the remove lands inside the get-then-insert window.
                        let target = 1 + seen.wrapping_mul(2_654_435_761) % (HAMMER * 3 / 4);
                        while progress.load(Ordering::Acquire) < target {
                            std::thread::yield_now();
                        }
                        let _ = h.remove(key);
                    }
                    flag.store(0, Ordering::Release); // done marker
                }
            });
        }
        let mut h = index.handle();
        for round in 1..=rounds {
            h.insert(&key, 1).unwrap();
            progress.store(0, Ordering::Release);
            round_a.store(round, Ordering::Release);
            round_b.store(round, Ordering::Release);
            while round_a.load(Ordering::Acquire) != 0 || round_b.load(Ordering::Acquire) != 0 {
                std::thread::yield_now();
            }
            // Both quiesced and the round's single remove happened: a present
            // key means an update re-published it afterwards.
            if h.get(&key).is_some() {
                resurrected.store(true, Ordering::Relaxed);
                let _ = h.remove(&key);
                if early_exit {
                    break;
                }
            }
        }
        round_a.store(u64::MAX, Ordering::Release);
        round_b.store(u64::MAX, Ordering::Release);
    });
    resurrected.load(Ordering::Relaxed)
}

/// `Capabilities::linearizable_update` must match reality, in both directions:
/// an index claiming linearizable updates must never resurrect a removed key
/// (hard guarantee), and an index declaring the get-then-insert fallback must
/// actually exhibit the interleaving the flag warns about.
#[test]
fn linearizable_update_flag_matches_interleaving_probe() {
    for entry in registry::all_indexes() {
        // The DRAM variant maximises the interleaving window (no simulated
        // flush latency serialising the threads); semantics are mode-independent.
        let index = entry.build(PolicyMode::Dram);
        if entry.caps.linearizable_update {
            assert!(
                !probe_update_resurrection(&index, 8, false),
                "{}: claims linearizable_update but resurrected a removed key",
                entry.name
            );
        } else {
            // Early exit on first detection keeps this fast (typically a
            // couple of rounds); the high cap is headroom for hostile
            // schedulers, since the progress-coupled design needs a preemption
            // to land inside the get-then-insert window on a single-core host.
            // The probe is inherently stochastic, and when other test binaries
            // compete for the core whole passes can come up empty — so the
            // retry budget is wall-clock time, not a pass count: isolation
            // detects within the first pass, a loaded host gets as many
            // passes as fit the budget before the flag is declared wrong.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(90);
            let mut caught = false;
            while !caught && std::time::Instant::now() < deadline {
                caught = probe_update_resurrection(&index, 2_000, true);
            }
            assert!(
                caught,
                "{}: declares the non-atomic update fallback but the probe never \
                 caught the interleaving — flag (or probe) is wrong",
                entry.name
            );
        }
    }
}
