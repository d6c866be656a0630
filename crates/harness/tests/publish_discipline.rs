//! The stage–fence–publish discipline of every registry row, checked where a
//! crash sweep cannot see it.
//!
//! The sweeps keep every store a crashed operation executed, so they prove the
//! *order of steps* but pass an index that publishes an object before the fence
//! that makes it durable. Here the durability tracker is on, and every
//! `PersistMode::publish` asserts that what its store makes reachable (its
//! `covers`) is already flushed *and* fenced — an `assert!`, so this file means
//! the same in debug and release; every `publish_same_line` asserts that its
//! covered words share the slot's cache line. Dropping a stage, or the fence a
//! staged object rides on, makes the stream below panic at the site that lost it.
//!
//! The tracker and the crash-site counters are process-global, so this file
//! holds a single test.

use harness::registry::{all_indexes, PolicyMode};
use pm::stats::Mapping;
use recipe::key::u64_key;
use recipe::session::{Index, ScanBuf};
use std::collections::BTreeMap;

const OPS: u64 = 20_000;

/// Uniform 8-byte keys: shallow, wide nodes near the root (Node256 / Node48
/// adds), Node4 leaf splits below them, HOT branch inserts and slot fills.
fn random_key(id: u64) -> Vec<u8> {
    u64_key(pm::mix64(id)).to_vec()
}

/// 24-byte keys under a handful of long shared prefixes, dense in the bytes
/// behind them: chained leaf splits, path splits where a new tenant diverges
/// inside a compressed prefix, and one node per tenant that grows Node4 → 16 →
/// 48 → 256; in HOT, deep branch chains that widen into compounds and then take
/// appends until they regrow; in Masstree, three trie layers per key; in the
/// Bw-tree, keys too long for a delta record, so every one spills.
fn shared_prefix_key(id: u64) -> Vec<u8> {
    const TENANTS: [&[u8; 18]; 5] = [
        b"tenant-00/objects/",
        b"tenant-01/objects/",
        b"tenant-01/objectz/",
        b"tenant-02/objects/",
        b"tenant-02/obj/cts/",
    ];
    let r = pm::mix64(id ^ 0xD15C);
    let mut key = TENANTS[(r % 5) as usize].to_vec();
    // 3 000 dense object numbers per tenant: 12 values of the high byte, all
    // 256 of the low one.
    key.extend_from_slice(&((r >> 8) % 3_000).to_be_bytes()[6..]);
    key.extend_from_slice(&(id as u32).to_be_bytes());
    key.resize(24, b'.');
    key
}

/// Inserts (60%), updates (20%) and removes (20%) of `key(id)` against `index`
/// and a `BTreeMap`, with the tracker recording from before the index exists;
/// then the middle half of the live keys is removed in key order, emptying
/// whole leaves (P-BwTree merges them away); then the whole contents are
/// compared (by a full scan too, where the index scans) and every line must be
/// durable.
fn run_stream(index: &dyn Index, key: fn(u64) -> Vec<u8>) {
    let name = index.index_name();
    let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    let mut next_id = 0u64;
    for i in 0..OPS {
        let r = pm::mix64(0x9B15_C1F1 ^ i);
        // A live key for updates and removes: an earlier id, if it still exists.
        let old = key((r >> 16) % next_id.max(1));
        match r % 10 {
            0..=5 => {
                let k = key(next_id);
                next_id += 1;
                index.exec_insert(&k, i).expect("insert is supported");
                model.insert(k, i);
            }
            6..=7 => {
                let updated = index.exec_update(&old, i).is_ok();
                assert_eq!(updated, model.contains_key(&old), "{name}: update at op {i}");
                if updated {
                    model.insert(old, i);
                }
            }
            _ => {
                let removed = index.exec_remove(&old).is_ok();
                assert_eq!(removed, model.remove(&old).is_some(), "{name}: remove at op {i}");
            }
        }
        if i == OPS / 2 {
            // P-HOT: widen what the first half built, so the second half
            // appends into compounds (and regrows the ones it fills).
            index.exec_settle();
        }
    }

    let live: Vec<Vec<u8>> = model.keys().cloned().collect();
    for k in &live[live.len() / 4..live.len() * 3 / 4] {
        assert!(index.exec_remove(k).is_ok(), "{name}: range remove of {k:?}");
        model.remove(k);
    }
    index.exec_settle();

    let report = pm::tracker::check(true);
    assert!(report.is_durable(), "{name}: lines left unflushed or unfenced: {report:?}");
    for (k, v) in &model {
        assert_eq!(index.exec_get(k), Some(*v), "{name}: key {k:?}");
    }
    if index.capabilities().scan {
        let mut all = ScanBuf::new();
        index.exec_scan(&[], model.len() + 1, &mut all);
        let want: Vec<(Vec<u8>, u64)> = model.into_iter().collect();
        assert_eq!(all.to_vec(), want, "{name}: full scan");
    }
}

#[test]
fn every_publishing_store_finds_its_object_durable() {
    pm::crash::arm_count_only();
    pm::crash::start_named_counts();
    let probes0 = pm::stats::probes_local();
    for entry in all_indexes() {
        // The hash indexes take 8-byte keys only.
        let streams: &[fn(u64) -> Vec<u8>] =
            if entry.caps.ordered { &[random_key, shared_prefix_key] } else { &[random_key] };
        for &key in streams {
            // Enabled before construction: the root allocation is tracked too.
            pm::tracker::enable();
            let index = entry.build(PolicyMode::Pmem);
            run_stream(index.as_ref(), key);
        }
    }
    pm::tracker::disable();

    // The streams went through every publish site of every row, SMOs included.
    for site in [
        "art.insert.committed",
        "art.grow.committed",
        "art.leaf_split.committed",
        "art.path_split.prefix_truncated",
        "art.remove.committed",
        "hot.insert.root_committed",
        "hot.insert.slot_committed",
        "hot.branch.committed",
        "hot.widen.committed",
        "hot.remove.committed",
        "masstree.insert.committed",
        "masstree.update.committed",
        "masstree.remove.committed",
        "masstree.split.left_truncated",
        "masstree.root_split.committed",
        "masstree.parent_split.left_truncated",
        "masstree.parent.committed",
        "bwtree.insert.delta_published",
        "bwtree.update.delta_published",
        "bwtree.remove.delta_published",
        "bwtree.consolidate.installed",
        "bwtree.split.delta_published",
        "bwtree.smo.parent_published",
        "bwtree.root_split.committed",
        "bwtree.merge.remove_published",
        "bwtree.merge.merge_published",
        "bwtree.merge.parent_updated",
        "clht.insert.committed",
        "clht.remove.committed",
        "clht.rehash.committed",
        "fastfair.insert.committed",
        "fastfair.split.sibling_linked",
        "fastfair.parent_split.left_truncated",
        "fastfair.root_split.committed",
        "apex.insert.committed",
        "apex.update.committed",
        "apex.remove.committed",
        "apex.smo.swapped",
        "woart.insert.committed",
        "woart.leaf_split",
        "cceh.insert.committed",
        "cceh.split.directory_updated",
        "cceh.doubling.committed",
        "level.insert.committed",
        "level.resize.committed",
    ] {
        assert!(pm::crash::named_count(site) > 0, "{site} never ran");
    }
    // ... and through every ART node type (a probe is recorded per searched node;
    // a Node48 only exists by growing a Node16, a dense byte position of 256
    // values only fits a Node256).
    let probes = pm::stats::probes_local().since(&probes0);
    for m in [Mapping::ArtN4, Mapping::ArtN16, Mapping::ArtN48, Mapping::ArtN256] {
        assert!(probes.get(m) > 0, "no {} was searched", m.label());
    }
    assert!(probes.get(Mapping::HotCompound) > 0, "no compound node was searched");
    pm::crash::stop_named_counts();
    pm::crash::disarm();
}
