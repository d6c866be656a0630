//! Criterion micro-benchmarks: single-threaded insert and lookup latency for every
//! index in the evaluation (the per-operation complement to the YCSB figures).
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recipe::key::u64_key;
use recipe::session::IndexExt;

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("insert_1k_sequential");
    group.sample_size(10);
    for entry in bench::registry::all_indexes() {
        group.bench_function(BenchmarkId::from_parameter(entry.name), |b| {
            b.iter_batched(
                entry.build_pmem,
                |index| {
                    let mut h = index.handle();
                    for i in 0..1_000u64 {
                        let _ = h.insert(&u64_key(i), i);
                    }
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("lookup_1k_of_100k");
    group.sample_size(10);
    for entry in bench::registry::all_indexes() {
        let index = (entry.build_pmem)();
        let mut h = index.handle();
        for i in 0..100_000u64 {
            let _ = h.insert(&u64_key(i), i);
        }
        group.bench_function(BenchmarkId::from_parameter(entry.name), |b| {
            b.iter(|| {
                let mut found = 0u64;
                for i in (0..100_000u64).step_by(100) {
                    if h.get(&u64_key(i)).is_some() {
                        found += 1;
                    }
                }
                std::hint::black_box(found)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_insert, bench_lookup);
criterion_main!(benches);
