//! The single catalogue of every index in the workspace.
//!
//! Each [`IndexEntry`] can construct its index under either persistence policy
//! ([`PolicyMode::Dram`] gives the original DRAM index, [`PolicyMode::Pmem`] the
//! RECIPE-converted / hand-crafted PM index) as an [`Index`] object — the
//! same object the crash harness restarts through [`Index::recover`] — and
//! carries the index's static [`Capabilities`] so callers can pick workloads
//! without building anything. Tests, examples and the benchmark binaries all
//! enumerate indexes through [`all_indexes`] so adding an index to the
//! evaluation is a one-line change here.

use recipe::persist::{Dram, Pmem};
use recipe::session::{Capabilities, Index};
use std::sync::Arc;

/// Which persistence policy to instantiate an index with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyMode {
    /// The original concurrent DRAM index (persistence compiled out).
    Dram,
    /// The persistent index (flushes, fences, crash sites, durability tracking).
    Pmem,
}

impl PolicyMode {
    /// Both policy modes, for tests that iterate over them.
    pub const ALL: [PolicyMode; 2] = [PolicyMode::Dram, PolicyMode::Pmem];
}

/// One index in the catalogue, with constructors for both policy modes.
pub struct IndexEntry {
    /// Display name of the PM instantiation (the paper's naming, e.g. `"P-ART"`).
    pub name: &'static str,
    /// Display name of the DRAM instantiation (e.g. `"ART"`).
    pub dram_name: &'static str,
    /// The index crate's declared capabilities (identical across policy modes;
    /// the conformance suite asserts it matches what the built index reports,
    /// and probes `linearizable_update` against actual interleavings).
    pub caps: Capabilities,
    /// `true` for RECIPE-converted indexes, `false` for hand-crafted PM baselines.
    pub converted: bool,
    /// `true` if writers serialize on a single global lock (WOART); such indexes
    /// are kept out of the multi-threaded figure registries.
    pub single_writer: bool,
    /// Every crash site the index's crate can emit, for the §5 per-site
    /// exhaustive sweep and its coverage report.
    pub crash_sites: &'static [&'static str],
    /// Construct the PM instantiation.
    pub build_pmem: fn() -> Arc<dyn Index>,
    /// Construct the DRAM instantiation.
    pub build_dram: fn() -> Arc<dyn Index>,
}

impl IndexEntry {
    /// Construct the index under the given policy mode.
    #[must_use]
    pub fn build(&self, mode: PolicyMode) -> Arc<dyn Index> {
        match mode {
            PolicyMode::Dram => (self.build_dram)(),
            PolicyMode::Pmem => (self.build_pmem)(),
        }
    }

    /// Display name under the given policy mode.
    #[must_use]
    pub fn name(&self, mode: PolicyMode) -> &'static str {
        match mode {
            PolicyMode::Dram => self.dram_name,
            PolicyMode::Pmem => self.name,
        }
    }
}

macro_rules! entry {
    ($pname:literal, $dname:literal, converted: $conv:literal,
     single_writer: $sw:literal, $ty:ident :: $base:ident, $sites:expr) => {
        IndexEntry {
            name: $pname,
            dram_name: $dname,
            caps: $ty::CAPS,
            converted: $conv,
            single_writer: $sw,
            crash_sites: $sites,
            build_pmem: || Arc::new($ty::$base::<Pmem>::new()),
            build_dram: || Arc::new($ty::$base::<Dram>::new()),
        }
    };
}

/// Delta-chain ablation: the same P-BwTree with a longer consolidation threshold
/// (16 instead of 8). Longer chains trade flushes (fewer consolidations) for
/// pointer chases, the Bw-tree's central tuning knob.
fn bwtree_dc16() -> IndexEntry {
    const DC: usize = 16;
    IndexEntry {
        name: "P-BwTree(dc16)",
        dram_name: "BwTree(dc16)",
        caps: bwtree::CAPS,
        converted: true,
        single_writer: false,
        crash_sites: bwtree::CRASH_SITES,
        build_pmem: || {
            Arc::new(bwtree::BwTree::<Pmem>::with_config(
                DC,
                bwtree::tree::DEFAULT_SPLIT_AT,
                "(dc16)",
            ))
        },
        build_dram: || {
            Arc::new(bwtree::BwTree::<Dram>::with_config(
                DC,
                bwtree::tree::DEFAULT_SPLIT_AT,
                "(dc16)",
            ))
        },
    }
}

/// Every index in the workspace, converted indexes first, in the order the
/// paper's figures present them.
#[must_use]
pub fn all_indexes() -> Vec<IndexEntry> {
    vec![
        entry!("P-ART", "ART", converted: true, single_writer: false, art_index::Art, art_index::CRASH_SITES),
        entry!("P-HOT", "HOT", converted: true, single_writer: false, hot_trie::Hot, hot_trie::CRASH_SITES),
        entry!("P-BwTree", "BwTree", converted: true, single_writer: false, bwtree::BwTree, bwtree::CRASH_SITES),
        entry!("P-Masstree", "Masstree", converted: true, single_writer: false, masstree::Masstree, masstree::CRASH_SITES),
        entry!("P-CLHT", "CLHT", converted: true, single_writer: false, clht::Clht, clht::CRASH_SITES),
        bwtree_dc16(),
        entry!("FAST&FAIR", "FAST&FAIR(dram)", converted: false, single_writer: false, fastfair::FastFair, fastfair::CRASH_SITES),
        entry!("P-APEX", "APEX(dram)", converted: false, single_writer: false, apex::Apex, apex::CRASH_SITES),
        entry!("WOART(global-lock)", "WOART(dram)", converted: false, single_writer: true, woart::Woart, woart::CRASH_SITES),
        entry!("CCEH", "CCEH(dram)", converted: false, single_writer: false, cceh::Cceh, cceh::CRASH_SITES),
        entry!("Level-Hashing", "Level-Hashing(dram)", converted: false, single_writer: false, levelhash::LevelHash, levelhash::CRASH_SITES),
    ]
}

/// The ordered indexes of the paper's Fig. 4 (multi-threaded; excludes the
/// global-lock WOART baseline, which gets its own §7.3 comparison).
#[must_use]
pub fn ordered_indexes() -> Vec<IndexEntry> {
    all_indexes().into_iter().filter(|e| e.caps.ordered && !e.single_writer).collect()
}

/// The unordered (hash) indexes of the paper's Fig. 5 / Table 4.
#[must_use]
pub fn hash_indexes() -> Vec<IndexEntry> {
    all_indexes().into_iter().filter(|e| !e.caps.ordered).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe::session::IndexExt;

    #[test]
    fn registry_covers_both_kinds() {
        let all = all_indexes();
        assert_eq!(all.len(), 11);
        assert!(all.iter().any(|e| e.caps.ordered));
        assert!(all.iter().any(|e| !e.caps.ordered));
        assert_eq!(ordered_indexes().len() + hash_indexes().len() + 1, all.len());
    }

    #[test]
    fn every_converted_table_1_index_is_registered() {
        // The paper's five converted indexes are all present (the Bw-tree twice:
        // default and the delta-chain ablation).
        let all = all_indexes();
        for name in ["P-ART", "P-HOT", "P-BwTree", "P-Masstree", "P-CLHT", "P-BwTree(dc16)"] {
            assert!(
                all.iter().any(|e| e.name == name && e.converted),
                "{name} missing from the registry"
            );
        }
    }

    #[test]
    fn figure_registries_split_on_caps_and_single_writer() {
        let (ordered, hash) = (ordered_indexes(), hash_indexes());
        assert!(ordered.iter().all(|e| e.caps.ordered && e.caps.scan && !e.single_writer));
        assert!(hash.iter().all(|e| !e.caps.ordered && !e.caps.scan));
        // The one entry in neither figure is the single-writer ordered index.
        let left_out: Vec<_> = all_indexes()
            .into_iter()
            .filter(|e| !ordered.iter().chain(&hash).any(|f| f.name == e.name))
            .collect();
        assert_eq!(left_out.len(), 1);
        assert!(left_out[0].single_writer && left_out[0].caps.ordered, "{}", left_out[0].name);
    }

    #[test]
    fn declared_caps_match_built_index() {
        for e in all_indexes() {
            assert_eq!(e.caps.scan, e.caps.ordered, "{}", e.name);
            for mode in PolicyMode::ALL {
                assert_eq!(e.build(mode).capabilities(), e.caps, "{}", e.name(mode));
            }
        }
    }

    #[test]
    fn crash_site_lists_are_distinct_and_crate_prefixed() {
        let all = all_indexes();
        // Every one of the 11 entries must declare sites — an empty list would
        // silently drop an index from the §5 exhaustive sweep.
        assert_eq!(all.iter().filter(|e| !e.crash_sites.is_empty()).count(), all.len());
        for e in all {
            assert!(!e.crash_sites.is_empty(), "{}: no crash sites declared", e.name);
            let set: std::collections::HashSet<_> = e.crash_sites.iter().collect();
            assert_eq!(set.len(), e.crash_sites.len(), "{}: duplicate site", e.name);
            let prefix = e.crash_sites[0].split('.').next().unwrap();
            assert!(
                e.crash_sites.iter().all(|s| s.starts_with(prefix)),
                "{}: mixed-crate site names",
                e.name
            );
        }
    }

    #[test]
    fn names_match_policy_mode() {
        for e in all_indexes() {
            assert_eq!(e.build(PolicyMode::Pmem).index_name(), e.name, "{}", e.name);
            assert_eq!(e.build(PolicyMode::Dram).index_name(), e.dram_name, "{}", e.name);
        }
    }

    #[test]
    fn built_indexes_recover_and_stay_usable() {
        for e in all_indexes() {
            let idx = e.build(PolicyMode::Pmem);
            assert_eq!(idx.index_name(), e.name);
            idx.recover();
            let mut h = idx.handle();
            assert!(h.insert(&recipe::key::u64_key(1), 1).is_ok());
            assert_eq!(h.get(&recipe::key::u64_key(1)), Some(1));
        }
    }

    /// Recovery re-initialises locks only (§4.2): every key written before
    /// `recover` reads back after it, under both policies.
    #[test]
    fn recover_keeps_every_written_key_in_both_modes() {
        for e in all_indexes() {
            for mode in PolicyMode::ALL {
                let idx = e.build(mode);
                let mut h = idx.handle();
                for i in 0..300u64 {
                    assert!(h.insert(&recipe::key::u64_key(i), i + 1).is_ok());
                }
                drop(h);
                idx.recover();
                let mut h = idx.handle();
                for i in 0..300u64 {
                    let got = h.get(&recipe::key::u64_key(i));
                    assert_eq!(got, Some(i + 1), "{} key {i}", e.name(mode));
                }
                assert!(h.insert(&recipe::key::u64_key(300), 301).is_ok());
                assert_eq!(h.get(&recipe::key::u64_key(300)), Some(301), "{}", e.name(mode));
            }
        }
    }
}
