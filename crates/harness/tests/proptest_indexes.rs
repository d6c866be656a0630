//! Property-based tests: arbitrary operation sequences applied to each index must
//! observe exactly the same results as a BTreeMap model.
use harness::registry::{self, PolicyMode};
use proptest::prelude::*;
use recipe::key::u64_key;
use recipe::session::{Index, IndexExt, OpError, OpResult};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Action {
    Insert(u16, u64),
    Update(u16, u64),
    Remove(u16),
    Get(u16),
    Scan(u16, u8),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (any::<u16>(), any::<u64>()).prop_map(|(k, v)| Action::Insert(k, v)),
        (any::<u16>(), any::<u64>()).prop_map(|(k, v)| Action::Update(k, v)),
        any::<u16>().prop_map(Action::Remove),
        any::<u16>().prop_map(Action::Get),
        (any::<u16>(), 1u8..32).prop_map(|(k, n)| Action::Scan(k, n)),
    ]
}

/// Delete-heavy mix over a small key domain (dense collisions): removes outweigh
/// inserts, so sequences drain structures, recycle slots and hit empty-node edge
/// cases that the insert-dominated default mix under-exercises.
fn delete_heavy_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (any::<u8>(), any::<u64>()).prop_map(|(k, v)| Action::Insert(u16::from(k), v)),
        (any::<u8>(), any::<u64>()).prop_map(|(k, v)| Action::Update(u16::from(k), v)),
        any::<u8>().prop_map(|k| Action::Remove(u16::from(k))),
        any::<u8>().prop_map(|k| Action::Remove(u16::from(k))),
        any::<u8>().prop_map(|k| Action::Get(u16::from(k))),
        (any::<u8>(), 1u8..16).prop_map(|(k, n)| Action::Scan(u16::from(k), n)),
    ]
}

fn check_against_model(index: &dyn Index, actions: &[Action], check_scan: bool) {
    let mut h = index.handle();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for action in actions {
        match action {
            Action::Insert(k, v) => {
                let k = u64::from(*k);
                let expect = if model.insert(k, *v).is_none() {
                    OpResult::Inserted
                } else {
                    OpResult::Updated
                };
                assert_eq!(h.insert(&u64_key(k), *v), Ok(expect), "insert {k}");
            }
            Action::Update(k, v) => {
                let k = u64::from(*k);
                let expect = match model.get_mut(&k) {
                    Some(slot) => {
                        *slot = *v;
                        Ok(OpResult::Updated)
                    }
                    None => Err(OpError::NotFound),
                };
                assert_eq!(h.update(&u64_key(k), *v), expect, "update {k}");
            }
            Action::Remove(k) => {
                let k = u64::from(*k);
                let expect = match model.remove(&k) {
                    Some(_) => Ok(OpResult::Removed),
                    None => Err(OpError::NotFound),
                };
                assert_eq!(h.remove(&u64_key(k)), expect, "remove {k}");
            }
            Action::Get(k) => {
                let k = u64::from(*k);
                assert_eq!(h.get(&u64_key(k)), model.get(&k).copied(), "get {k}");
            }
            Action::Scan(k, n) => {
                if check_scan {
                    let k = u64::from(*k);
                    let got: Vec<(Vec<u8>, u64)> = h.scan(&u64_key(k)).limit(*n as usize).collect();
                    let want: Vec<(Vec<u8>, u64)> = model
                        .range(k..)
                        .take(*n as usize)
                        .map(|(k, v)| (u64_key(*k).to_vec(), *v))
                        .collect();
                    assert_eq!(got, want, "scan {k}x{n}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn p_art_matches_model(actions in proptest::collection::vec(action_strategy(), 1..400)) {
        check_against_model(&art_index::PArt::new(), &actions, true);
    }

    #[test]
    fn p_hot_matches_model(actions in proptest::collection::vec(action_strategy(), 1..400)) {
        check_against_model(&hot_trie::PHot::new(), &actions, true);
    }

    #[test]
    fn p_bwtree_matches_model(actions in proptest::collection::vec(action_strategy(), 1..400)) {
        check_against_model(&bwtree::PBwTree::new(), &actions, true);
    }

    #[test]
    fn p_masstree_matches_model(actions in proptest::collection::vec(action_strategy(), 1..400)) {
        check_against_model(&masstree::PMasstree::new(), &actions, true);
    }

    #[test]
    fn fastfair_matches_model(actions in proptest::collection::vec(action_strategy(), 1..400)) {
        check_against_model(&fastfair::PFastFair::new(), &actions, true);
    }

    #[test]
    fn p_clht_matches_model(actions in proptest::collection::vec(action_strategy(), 1..400)) {
        check_against_model(&clht::PClht::new(), &actions, false);
    }

    #[test]
    fn cceh_matches_model(actions in proptest::collection::vec(action_strategy(), 1..400)) {
        check_against_model(&cceh::PCceh::new(), &actions, false);
    }

    #[test]
    fn levelhash_matches_model(actions in proptest::collection::vec(action_strategy(), 1..400)) {
        check_against_model(&levelhash::PLevelHash::new(), &actions, false);
    }

    #[test]
    fn woart_matches_model(actions in proptest::collection::vec(action_strategy(), 1..400)) {
        check_against_model(&woart::PWoart::new(), &actions, true);
    }

    #[test]
    fn prefix_packing_roundtrips(prefix in proptest::collection::vec(any::<u8>(), 0..=7)) {
        let w = art_index::node::pack_prefix(&prefix);
        let (bytes, len) = art_index::node::unpack_prefix(w);
        prop_assert_eq!(&bytes[..len], &prefix[..]);
    }

    #[test]
    fn ycsb_generation_is_deterministic(seed in any::<u64>(), n in 10usize..200) {
        let spec = ycsb::Spec { load_count: n, op_count: n, threads: 3, seed, ..ycsb::Spec::default() };
        let a = ycsb::generate(&spec);
        let b = ycsb::generate(&spec);
        prop_assert_eq!(a.load, b.load);
        prop_assert_eq!(a.run, b.run);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every registry entry, both policy modes, under the delete-heavy mix:
    /// deletes were under-exercised relative to inserts by the per-index
    /// properties above, and slot recycling / emptied-structure paths only show
    /// up when removes dominate.
    #[test]
    fn all_registry_entries_match_model_delete_heavy(
        actions in proptest::collection::vec(delete_heavy_strategy(), 1..300)
    ) {
        for entry in registry::all_indexes() {
            for mode in PolicyMode::ALL {
                let index = entry.build(mode);
                let scan = entry.caps.scan;
                check_against_model(index.as_ref(), &actions, scan);
            }
        }
    }
}
