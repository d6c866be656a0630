//! Registry conformance smoke test: every entry in `harness::registry` must build
//! a working index in both policy modes, with its declared [`Capabilities`]
//! matching actual behavior and names matching the catalogue.
use harness::registry::{all_indexes, PolicyMode};
use recipe::key::u64_key;
use recipe::session::{Capabilities, Index, IndexExt, OpError, OpResult};
use std::sync::Arc;

#[test]
fn every_entry_works_in_both_policy_modes() {
    for entry in all_indexes() {
        for mode in PolicyMode::ALL {
            let index = entry.build(mode);
            let name = entry.name(mode);
            let mut h = index.handle();
            assert_eq!(h.index_name(), name, "registry name mismatch for {name}");

            // insert / get / update / remove round-trip, typed.
            for i in 0..1_000u64 {
                assert_eq!(
                    h.insert(&u64_key(i), i * 2),
                    Ok(OpResult::Inserted),
                    "{name}: insert {i}"
                );
            }
            assert_eq!(
                h.insert(&u64_key(0), 1),
                Ok(OpResult::Updated),
                "{name}: re-insert must report existing"
            );
            assert_eq!(h.get(&u64_key(0)), Some(1), "{name}: re-insert must overwrite");
            for i in 1..1_000u64 {
                assert_eq!(h.get(&u64_key(i)), Some(i * 2), "{name}: get {i}");
            }
            assert_eq!(h.update(&u64_key(5), 99), Ok(OpResult::Updated), "{name}: update existing");
            assert_eq!(h.get(&u64_key(5)), Some(99), "{name}");
            assert_eq!(
                h.update(&u64_key(1_000_000), 1),
                Err(OpError::NotFound),
                "{name}: update absent"
            );
            assert_eq!(h.get(&u64_key(1_000_000)), None, "{name}: update must not insert");
            assert_eq!(h.remove(&u64_key(7)), Ok(OpResult::Removed), "{name}: remove present");
            assert_eq!(h.remove(&u64_key(7)), Err(OpError::NotFound), "{name}: remove absent");
            assert_eq!(h.get(&u64_key(7)), None, "{name}");
        }
    }
}

#[test]
fn capabilities_match_actual_scan_behavior() {
    for entry in all_indexes() {
        for mode in PolicyMode::ALL {
            let index = entry.build(mode);
            let name = entry.name(mode);
            assert_eq!(
                index.capabilities(),
                entry.caps,
                "{name}: registry capabilities disagree with the index"
            );
            let mut h = index.handle();
            for i in 0..100u64 {
                h.insert(&u64_key(i), i).unwrap();
            }
            let got: Vec<(Vec<u8>, u64)> = h.scan(&u64_key(10)).limit(20).collect();
            if entry.caps.scan {
                let want: Vec<(Vec<u8>, u64)> =
                    (10..30).map(|i| (u64_key(i).to_vec(), i)).collect();
                assert_eq!(got, want, "{name}: scan must return sorted keys");
            } else {
                assert!(got.is_empty(), "{name}: unordered index must return an empty scan");
            }
        }
    }
}

#[test]
fn capability_combinations_are_coherent() {
    let mut lin_true = 0;
    let mut lin_false = 0;
    for entry in all_indexes() {
        let Capabilities { ordered, scan, linearizable_update } = entry.caps;
        assert_eq!(ordered, scan, "{}: every ordered index here scans", entry.name);
        if linearizable_update {
            lin_true += 1;
        } else {
            lin_false += 1;
        }
    }
    // Both sides of the linearizable-update contract are represented in the
    // registry, so the conformance probe exercises both directions.
    assert!(lin_true > 0 && lin_false > 0);
}

#[test]
fn pmem_mode_flushes_and_dram_mode_does_not() {
    for entry in all_indexes() {
        // Constructors flush too; measure only the operation window.
        let pmem = entry.build(PolicyMode::Pmem);
        let dram = entry.build(PolicyMode::Dram);
        let mut pmem_h = pmem.handle();
        let mut dram_h = dram.handle();

        let before = pm::stats::snapshot_local();
        for i in 0..500u64 {
            dram_h.insert(&u64_key(i), i).unwrap();
        }
        let d = pm::stats::snapshot_local().since(&before);
        assert_eq!(d.clwb, 0, "{}: dram mode issued clwb", entry.dram_name);
        assert_eq!(d.fence, 0, "{}: dram mode issued fences", entry.dram_name);

        let before = pm::stats::snapshot_local();
        for i in 0..500u64 {
            pmem_h.insert(&u64_key(i), i).unwrap();
        }
        let d = pm::stats::snapshot_local().since(&before);
        assert!(d.clwb > 0, "{}: pmem mode issued no clwb", entry.name);
        assert!(d.fence > 0, "{}: pmem mode issued no fences", entry.name);
    }
}

#[test]
fn recoverable_entries_recover_and_stay_usable() {
    for entry in all_indexes() {
        for mode in PolicyMode::ALL {
            let name = entry.name(mode);
            // `recover` reaches the index through the `Arc<dyn Index>` delegation.
            let index: Arc<dyn Index> = entry.build(mode);
            let mut h = index.handle();
            for i in 0..200u64 {
                h.insert(&u64_key(i), i).unwrap();
            }
            drop(h);
            index.recover();
            let mut h = index.handle();
            for i in 0..200u64 {
                assert_eq!(h.get(&u64_key(i)), Some(i), "{name}: key {i} lost");
            }
            assert!(h.insert(&u64_key(1_000), 1).is_ok(), "{name}: unusable after recover");
        }
    }
}
