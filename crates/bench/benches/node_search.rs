//! Criterion micro-benchmarks for intra-node key search, per node type: the layer
//! the speed pass vectorized. ART lookups are driven through trees shaped to keep
//! the root in one specific mapping (Node4/16/48/256); HOT lookups compare the
//! plain-node trie against the same tree settled into compound nodes; the compound
//! sparse-array search is additionally benched raw at several occupancies. The
//! search path is the target's own (SSE2 on x86-64, NEON on aarch64), fixed at
//! compile time.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hot_trie::compound::{Compound, Entry, FULL_MASK};
use recipe::key::u64_key;

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One ART tree per node type: `fanout` distinct first bytes keep the root in the
/// corresponding mapping (4 -> Node4, 16 -> Node16, 40 -> Node48, 200 -> Node256).
fn bench_art_nodes(c: &mut Criterion) {
    let mut group = c.benchmark_group("art_node_search");
    group.sample_size(20);
    for (label, fanout) in [("node4", 4u16), ("node16", 16), ("node48", 40), ("node256", 200)] {
        let tree = art_index::DramArt::new();
        let keys: Vec<[u8; 2]> = (0..fanout).map(|b| [(b % 256) as u8, (b / 256) as u8]).collect();
        for (i, k) in keys.iter().enumerate() {
            tree.insert(k, i as u64);
        }
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let mut found = 0u64;
                for k in &keys {
                    if tree.get(k).is_some() {
                        found += 1;
                    }
                }
                std::hint::black_box(found)
            });
        });
    }
    group.finish();
}

/// The widening payoff end-to-end: the same 100k-key HOT, before and after
/// settling into compound nodes.
fn bench_hot_plain_vs_widened(c: &mut Criterion) {
    let mut s = 0x5EED_0007u64;
    let keys: Vec<u64> = (0..100_000).map(|_| splitmix64(&mut s)).collect();
    let probe: Vec<u64> = keys.iter().copied().step_by(100).collect();

    let mut group = c.benchmark_group("hot_lookup_100k");
    group.sample_size(20);
    for (label, widen) in [("plain_nodes", false), ("widened", true)] {
        let tree = hot_trie::DramHot::new();
        for &k in &keys {
            tree.insert(&u64_key(k), k);
        }
        if widen {
            tree.widen_all();
            assert!(tree.compound_nodes() > 0, "settling must install compounds");
        }
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let mut found = 0u64;
                for k in &probe {
                    if tree.get(&u64_key(*k)).is_some() {
                        found += 1;
                    }
                }
                std::hint::black_box(found)
            });
        });
    }
    group.finish();
}

/// The raw compound sparse-array search (vectorized masked compare over u16
/// lanes) at several occupancies.
fn bench_compound_find_child(c: &mut Criterion) {
    let mut group = c.benchmark_group("compound_find_child");
    group.sample_size(20);
    for occupancy in [8u16, 48, 192] {
        let entries: Vec<Entry> = (0..occupancy)
            .map(|i| (i * 151 % (1 << 15), FULL_MASK, (usize::from(i) << 3) | 1))
            .collect();
        let mut sorted = entries.clone();
        sorted.sort_unstable_by_key(|e| e.0);
        sorted.dedup_by_key(|e| e.0);
        // SAFETY: never freed, bench-local.
        let node = unsafe { &*Compound::alloc(0, &sorted) };
        let probes: Vec<u16> = sorted.iter().map(|e| e.0).collect();
        group.bench_function(BenchmarkId::from_parameter(occupancy), |b| {
            b.iter(|| {
                let mut hits = 0u64;
                for &p in &probes {
                    if node.find_child(p).is_some() {
                        hits += 1;
                    }
                }
                std::hint::black_box(hits)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_art_nodes, bench_hot_plain_vs_widened, bench_compound_find_child);
criterion_main!(benches);
