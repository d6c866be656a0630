//! Deterministic read-path evidence for the vectorized-search / compound-widening
//! speed pass (the host is 1-core, so wall clocks prove nothing): node-visit and
//! per-mapping probe counters, which are defined by tree shape and occupancy, not by
//! the target's search path.
//!
//! All assertions use **thread-local** counter snapshots ([`pm::stats::snapshot_local`],
//! [`pm::stats::probes_local`]) so concurrently running tests cannot perturb them.

use hot_trie::PHot;
use pm::stats::{probes_local, snapshot_local, Mapping};
use recipe::key::u64_key;
use recipe::session::{Index, IndexExt};
use std::collections::HashSet;
use std::sync::Arc;

/// SplitMix64: the deterministic key stream for the 100k-key workload.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 100_000 u64 keys whose top 21 bits are pairwise distinct, so every key pair
/// diverges before bit 21 and every divergence fits a compound window hanging at
/// bit >= 10 (window `[10, 25)` covers nodes up to `bit_pos 20 + width 5`).
///
/// The first 1024 keys are a skeleton enumerating all 10-bit prefixes (`j << 54`)
/// in bit-reversed order: each new skeleton key then diverges from an existing key
/// exactly at bit 0, 5, ... — i.e. it either fills a slot of an existing aligned
/// node or displaces a leaf, so the top two trie levels build as full-width
/// `[0,5)` / `[5,10)` nodes instead of the narrow "staircase" nodes incremental
/// growth produces. Everything below bit 10 is random.
fn workload_keys() -> Vec<u64> {
    const N: usize = 100_000;
    let mut keys = Vec::with_capacity(N);
    let mut top21 = HashSet::with_capacity(N);
    for j in 0..1024u64 {
        let rev = (j.reverse_bits()) >> (64 - 10); // 10-bit bit-reversal
        let key = rev << 54;
        assert!(top21.insert(key >> 43));
        keys.push(key);
    }
    let mut s = 0x5EED_0006u64;
    while keys.len() < N {
        let key = splitmix64(&mut s);
        if top21.insert(key >> 43) {
            keys.push(key);
        }
    }
    keys
}

#[test]
fn phot_widened_hit_lookups_take_at_most_three_node_visits() {
    // The acceptance bar for the speed pass: after settling, P-HOT resolves a hit
    // lookup at 100k keys in <= 3 node visits (the ISSUE bar), and with the
    // frontier-aware root widening the settled shape is in fact exactly **two**:
    // the root compound resolves bits [0, 10) into 1024 pointer entries (the
    // skeleton keys guarantee every 10-bit prefix is populated, and the planner
    // stops at the depth-10 frontier because expanding further exceeds
    // `COMPOUND_CAP`), and each second-level compound resolves the rest down to
    // the leaf. The plain-node trie needs ~5 visits for the same keys.
    let keys = workload_keys();
    let trie: PHot = PHot::new();
    for &k in &keys {
        assert!(trie.insert(&u64_key(k), k));
    }
    trie.widen_all();
    assert!(trie.compound_nodes() > 0, "settling must install compound nodes");

    let visits_before = snapshot_local();
    let probes_before = probes_local();
    for &k in &keys {
        assert_eq!(trie.get(&u64_key(k)), Some(k));
    }
    let visits = snapshot_local().since(&visits_before).node_visits;
    let probes = probes_local().since(&probes_before);

    let n = keys.len() as u64;
    let avg = visits as f64 / n as f64;
    assert!(
        avg <= 3.0,
        "P-HOT hit lookups must average <= 3 node visits after widening, got {avg} ({visits} visits / {n} gets)"
    );
    assert_eq!(
        visits,
        2 * n,
        "the settled 100k tree resolves every hit in exactly two compound visits"
    );
    // Per-mapping attribution: no plain node is left on any hit path, every
    // lookup searches two compounds (probe counts are occupancy-defined), and
    // nothing else is exercised.
    assert_eq!(probes.get(Mapping::HotNode), 0, "no plain-node visits on the settled hit path");
    assert!(probes.get(Mapping::HotCompound) >= 2 * n, "every lookup must search two compounds");
    assert_eq!(probes.get(Mapping::ArtN4) + probes.get(Mapping::ArtN16), 0);
}

#[test]
fn widen_all_settling_is_idempotent_and_preserves_scans() {
    let keys = workload_keys();
    let trie: PHot = PHot::new();
    for &k in &keys {
        trie.insert(&u64_key(k), k);
    }
    trie.widen_all();
    let shape = trie.compound_nodes();
    trie.widen_all();
    assert_eq!(trie.compound_nodes(), shape, "re-settling an already settled tree is a no-op");

    // Scans across compound nodes still come out in key order.
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let mut out = recipe::session::ScanBuf::new();
    trie.scan_into(&u64_key(sorted[40]), 300, &mut out);
    let expect: Vec<u64> = sorted[40..340].to_vec();
    let got: Vec<u64> = out.iter().map(|(_, v)| v).collect();
    assert_eq!(got, expect);
}

#[test]
fn art_probe_counters_attribute_intra_node_search_work() {
    // The ART speed pass keeps its evidence in the same per-mapping counters: a
    // small tree lives in Node4/Node16 (occupancy-defined probes), a dense one
    // promotes to Node48/Node256 (exactly one probe per visit).
    let art = harness::registry::all_indexes()
        .into_iter()
        .find(|e| e.name == "P-ART")
        .expect("P-ART in registry")
        .build(harness::registry::PolicyMode::Pmem);
    probe_art(art);
}

fn probe_art(art: Arc<dyn Index>) {
    let mut h = art.handle();
    let before = probes_local();
    for i in 0..4u64 {
        h.insert(&u64_key(i), i).unwrap();
    }
    for i in 0..4u64 {
        assert_eq!(h.get(&u64_key(i)), Some(i));
    }
    let small = probes_local().since(&before);
    assert!(small.get(Mapping::ArtN4) > 0, "4 keys must exercise the Node4 mapping");

    let before = probes_local();
    for i in 0..4096u64 {
        h.insert(&u64_key(i), i).unwrap();
    }
    for i in 0..4096u64 {
        assert_eq!(h.get(&u64_key(i)), Some(i));
    }
    let dense = probes_local().since(&before);
    assert!(
        dense.get(Mapping::ArtN48) + dense.get(Mapping::ArtN256) > 0,
        "4096 dense keys must promote into the indirect/direct mappings"
    );
    assert_eq!(dense.get(Mapping::HotNode) + dense.get(Mapping::HotCompound), 0);
}
