//! End-to-end YCSB smoke tests: every index runs every workload it supports at a small
//! scale, and every read of a loaded key must succeed.
use harness::registry;
use ycsb::{KeyType, Spec, Workload};

fn spec(workload: Workload, key_type: KeyType) -> Spec {
    Spec {
        load_count: 5_000,
        op_count: 5_000,
        threads: 4,
        key_type,
        workload,
        scan_max: 20,
        seed: 99,
    }
}

#[test]
fn ordered_indexes_run_all_workloads_with_integer_and_string_keys() {
    for entry in registry::ordered_indexes() {
        let name = entry.name;
        let index = (entry.build_pmem)();
        for key_type in [KeyType::RandInt, KeyType::String24] {
            for wl in Workload::ALL {
                let res = ycsb::run_spec(&index, &spec(wl, key_type));
                assert_eq!(res.run.failed_reads, 0, "{name} {key_type:?} {}", wl.label());
            }
        }
    }
}

#[test]
fn hash_indexes_run_point_workloads_with_integer_keys() {
    for entry in registry::hash_indexes() {
        let name = entry.name;
        let index = (entry.build_pmem)();
        for wl in [Workload::LoadA, Workload::A, Workload::B, Workload::C] {
            let res = ycsb::run_spec(&index, &spec(wl, KeyType::RandInt));
            assert_eq!(res.run.failed_reads, 0, "{name} {}", wl.label());
        }
    }
}

/// The sharded chunked driver (what `bench::run_matrix` uses at scale) must hit
/// every loaded key too, for every index, with a bounded op-buffer footprint.
#[test]
fn sharded_driver_matches_smoke_expectations_for_all_indexes() {
    const CHUNK: usize = 512;
    ycsb::reset_peak_resident_ops();
    for entry in registry::all_indexes() {
        let name = entry.name;
        let index = (entry.build_pmem)();
        let workloads: &[Workload] =
            if entry.caps.scan { &[Workload::A, Workload::E] } else { &[Workload::A, Workload::C] };
        for &wl in workloads {
            let s = spec(wl, KeyType::RandInt);
            let res = ycsb::run_spec_sharded(index.as_ref(), &s, CHUNK);
            assert_eq!(res.run.failed_reads, 0, "{name} {} (sharded)", wl.label());
            assert_eq!(res.load.ops, s.load_count as u64, "{name}");
        }
    }
    let peak = ycsb::peak_resident_ops();
    assert!(peak <= (4 * CHUNK) as u64, "op-buffer footprint regressed: {peak}");
}
