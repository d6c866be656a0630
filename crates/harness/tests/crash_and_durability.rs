//! §5 / §7.5 integration: every multi-writer registry row must keep every
//! acknowledged operation across sampled crash states, the converted rows must pass
//! the durability test (every dirtied cache line flushed and fenced), the per-site
//! exhaustive sweep must exercise every declared crash site, and P-Masstree's and
//! P-BwTree's SMOs, cut at each ordered step, must recover (or be helped to
//! completion by a reader).
//!
//! The sweeps run through `crashtest`'s one crash driver; it and the durability
//! test each enter a `pm::Domain` of their own. The SMO tests cut one load by hand
//! with the driver's load loop (`crashtest::run_load`) and acknowledged-state model
//! (`crashtest::Acked`), and enter a domain of their own so their arming and
//! tracker are invisible to the tests libtest runs beside them.
use crashtest::{
    run_crash_sweep, run_durability_test, run_load, Acked, Cut, MixedGen, MixedOp, Readback,
    SweepConfig,
};
use harness::registry;
use recipe::key::u64_key;
use recipe::session::{Handle, Index, IndexExt};

/// Enter a fresh PM domain for the rest of the test.
fn own_domain() -> pm::domain::Entered {
    pm::Domain::new().enter()
}

/// Inserts of keys `keys`, each with value `key + offset`.
fn inserts(keys: std::ops::Range<u64>, offset: u64) -> impl Iterator<Item = MixedOp> {
    keys.map(move |i| MixedOp::Insert(i, i + offset))
}

/// Run `ops` through `h` with a crash armed at the first hit of `site`, which
/// must fire.
fn cut_at<I: Index>(
    h: &mut Handle<'_, I>,
    site: &'static str,
    ops: impl IntoIterator<Item = MixedOp>,
    acked: &mut Acked,
) -> Cut {
    pm::crash::install_quiet_hook();
    pm::crash::arm_at_site(site, 1);
    let cut = run_load(h, ops, acked).unwrap_or_else(|| panic!("{site}: crash never fired"));
    assert_eq!(cut.site, site);
    cut
}

/// Every multi-writer row, converted or baseline (built without its `*-bug`
/// feature), keeps every acknowledged operation across sampled crash states of a
/// mixed load.
#[test]
fn multi_writer_rows_survive_sampled_crash_states() {
    let cfg =
        SweepConfig { load_ops: 2_000, post_ops: 1_000, threads: 4, sampled_states: 40, seed: 11 };
    for entry in registry::all_indexes().into_iter().filter(|e| !e.single_writer) {
        let report = run_crash_sweep(entry.build_pmem, &[], &cfg);
        assert!(report.crashes_triggered > 0, "{}: no crash state fired", entry.name);
        assert!(report.consistent(), "{}: {report:?}", entry.name);
    }
}

#[test]
fn recipe_indexes_pass_durability_check() {
    for entry in registry::all_indexes().into_iter().filter(|e| e.converted) {
        let report = run_durability_test(entry.build_pmem, 2_000, 500);
        assert!(report.passed(), "{}: {report:?}", entry.name);
    }
}

/// Targeted P-Masstree SMO coverage: cut a leaf split at each of its ordered atomic
/// steps, recover, and verify no committed key is lost, the tree scans in order, and
/// it stays writable — the paper's "writers don't fix inconsistencies, the helper
/// runs on restart" Condition #3 story.
#[test]
fn masstree_leaf_split_crash_then_recover() {
    let _domain = own_domain();
    for site in [
        "masstree.split.sibling_persisted",
        "masstree.split.sibling_linked",
        "masstree.split.high_set",
        "masstree.split.left_truncated",
        "masstree.root_split.new_root_persisted",
        "masstree.root_split.committed",
    ] {
        let t = masstree::PMasstree::new();
        let mut h = t.handle();
        let mut acked = Acked::default();
        // Fill exactly one leaf (15 entries); the 16th insert forces the split.
        assert_eq!(run_load(&mut h, inserts(0..15, 100), &mut acked), None);
        cut_at(&mut h, site, inserts(15..16, 100), &mut acked);

        t.recover();

        // Every committed (acknowledged) key must survive with its value.
        assert_eq!(acked.read_back(|k| h.get(&u64_key(k))), Readback::default(), "{site}");
        // The tree must scan in strict order with no torn-split duplicates, and the
        // scan must agree with point lookups (the unacknowledged 16th key may or may
        // not have committed).
        let scanned = t.scan(&[], 100);
        assert!(
            scanned.windows(2).all(|w| w[0].0 < w[1].0),
            "{site}: scan has duplicates or disorder: {scanned:?}"
        );
        let visible: usize = (0..16u64).filter(|&i| t.get(&u64_key(i)).is_some()).count();
        assert_eq!(scanned.len(), visible, "{site}: scan disagrees with lookups");

        // And it must remain fully usable: inserts into both halves plus re-split.
        for i in 20..60u64 {
            assert!(t.insert(&u64_key(i), i), "{site}: unusable after recover");
            assert_eq!(t.get(&u64_key(i)), Some(i));
        }
    }
}

/// Cut the split's *parent link* (the step whose loss leaves a sibling reachable only
/// via B-link move-right): recovery must reattach the orphan — a second `recover()`
/// finds nothing left to fix and the registry-smoke workload still passes — and no
/// acknowledged key may be lost.
#[test]
fn masstree_torn_parent_link_is_reattached_on_recover() {
    let _domain = own_domain();
    for site in ["masstree.parent.slot_written", "masstree.parent.committed"] {
        let t = masstree::PMasstree::new();
        let mut h = t.handle();
        let mut acked = Acked::default();
        cut_at(&mut h, site, inserts(0..400, 1), &mut acked);
        if site == "masstree.parent.slot_written" {
            // The separator was cut before publishing: the right sibling must be
            // reachable only via B-link until the recovery helper reattaches it.
            assert!(t.unrouted_siblings() > 0, "{site}: expected an orphaned sibling");
        }

        t.recover();
        assert_eq!(t.unrouted_siblings(), 0, "{site}: recovery left an orphan unparented");
        assert_eq!(acked.read_back(|k| h.get(&u64_key(k))), Readback::default(), "{site}");
        let scanned = t.scan(&[], 1_000);
        assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0), "{site}: scan disorder");
        // Recovery completed the split: running it again must be a no-op that leaves
        // the tree equally healthy, and the tree must keep absorbing splits.
        t.recover();
        for i in 1_000..1_400u64 {
            assert!(t.insert(&u64_key(i), i), "{site}: unusable after recover");
        }
        assert_eq!(acked.read_back(|k| h.get(&u64_key(k))), Readback::default(), "{site}: late");
    }
}

/// The §5 claim in full: for every (non-single-writer) registry index, the
/// exhaustive sweep — one targeted state per declared crash site plus sampled
/// mixed states — must keep consistency *and* exercise every declared site.
#[test]
fn exhaustive_sweep_covers_every_declared_crash_site() {
    // Level-Hashing's resize only triggers past ~7k distinct inserts, so the load
    // must stay at the paper's 10k scale for full coverage.
    let cfg =
        SweepConfig { load_ops: 10_000, post_ops: 800, threads: 4, sampled_states: 2, seed: 11 };
    for entry in registry::all_indexes().into_iter().filter(|e| !e.single_writer) {
        let report = run_crash_sweep(entry.build_pmem, entry.crash_sites, &cfg);
        assert!(report.consistent(), "{}: {report:?}", entry.name);
        let holes: Vec<_> =
            report.per_site.iter().filter(|s| !s.exercised).map(|s| s.site).collect();
        assert!(holes.is_empty(), "{}: never-exercised crash sites {holes:?}", entry.name);
        assert!(report.passed(), "{}: {report:?}", entry.name);
    }
}

/// Two sweeps on two registry rows at once, each on its own thread (and so in
/// its own domain): both pass, and neither report counts a site of the other row.
#[test]
fn crash_sweeps_in_separate_domains_run_in_parallel() {
    let cfg =
        SweepConfig { load_ops: 4_000, post_ops: 400, threads: 2, sampled_states: 4, seed: 5 };
    let rows: Vec<_> = registry::all_indexes()
        .into_iter()
        .filter(|e| e.name == "P-ART" || e.name == "P-Masstree")
        .collect();
    assert_eq!(rows.len(), 2);
    std::thread::scope(|scope| {
        let sweeps: Vec<_> = rows
            .iter()
            .map(|entry| {
                let cfg = &cfg;
                scope.spawn(move || {
                    (entry, run_crash_sweep(entry.build_pmem, entry.crash_sites, cfg))
                })
            })
            .collect();
        for sweep in sweeps {
            let (entry, report) = sweep.join().expect("sweep thread");
            assert!(report.passed(), "{}: {report:?}", entry.name);
            let prefix = entry.crash_sites[0].split('.').next().unwrap();
            let foreign: Vec<_> = report
                .per_site
                .iter()
                .filter(|s| s.exercised)
                .map(|s| s.site)
                .chain(report.undeclared_sites.iter().copied())
                .filter(|site| !site.starts_with(&format!("{prefix}.")))
                .collect();
            assert!(foreign.is_empty(), "{}: sites of another row {foreign:?}", entry.name);
        }
    });
}

/// Condition #2's distinguishing behavior, deterministically: a crash tears a
/// P-BwTree split in half (split delta published, parent entry missing), and a
/// *reader* that merely observes the torn state completes the SMO — with every
/// store of the helper flushed and fenced (the §4.4 conversion also flushes the
/// loads the helper participates in, so the whole help path is durable).
#[test]
fn bwtree_reader_helps_complete_torn_split() {
    let _domain = own_domain();
    let t = bwtree::PBwTree::new();
    let mut h = t.handle();
    let mut acked = Acked::default();
    cut_at(&mut h, "bwtree.split.delta_published", inserts(0..400, 1), &mut acked);
    assert_eq!(t.incomplete_smos(), 1, "crash must leave the SMO torn");

    // No recover(): a plain reader observes the split delta while descending and
    // must fix it. Track its stores to confirm the helper flushed + fenced them.
    pm::tracker::enable();
    assert_eq!(t.get(&u64_key(0)), Some(1), "reader must see pre-crash data");
    let durability = pm::tracker::check(true);
    assert!(durability.is_durable(), "helper stores left unflushed/unfenced lines: {durability:?}");
    pm::tracker::disable();
    assert_eq!(t.incomplete_smos(), 0, "the reader must have completed the SMO");

    // The helped tree is fully consistent and writable.
    assert_eq!(acked.read_back(|k| h.get(&u64_key(k))), Readback::default());
    let scanned = t.scan(&[], 1_000);
    assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0), "scan disorder: {scanned:?}");
    for i in 1_000..1_200u64 {
        assert!(t.insert(&u64_key(i), i), "unusable after help");
    }
}

/// Cut the P-BwTree split SMO at each of its ordered atomic steps; `recover()`
/// (the restart-time helper replay) must complete the split, lose nothing, and
/// leave the tree writable — including the root-split steps.
#[test]
fn bwtree_split_crash_then_recover_at_every_step() {
    let _domain = own_domain();
    for site in [
        "bwtree.split.right_installed",
        "bwtree.split.delta_published",
        "bwtree.help.split_flushed",
        "bwtree.smo.parent_published",
        "bwtree.root_split.new_root_installed",
        "bwtree.root_split.committed",
        "bwtree.consolidate.installed",
    ] {
        let t = bwtree::PBwTree::new();
        let mut h = t.handle();
        let mut acked = Acked::default();
        let cut = cut_at(&mut h, site, inserts(0..400, 1), &mut acked);

        t.recover();
        assert_eq!(t.incomplete_smos(), 0, "{site}: recovery left the SMO torn");
        assert_eq!(acked.read_back(|k| h.get(&u64_key(k))), Readback::default(), "{site}");
        let scanned = t.scan(&[], 1_000);
        assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0), "{site}: scan disorder");
        // Scans agree with point lookups (the crashed op's key may or may not
        // have committed).
        let visible = (0..=cut.op.key()).filter(|i| t.get(&u64_key(*i)).is_some()).count();
        assert_eq!(scanned.len(), visible, "{site}: scan disagrees with lookups");
        for i in 1_000..1_400u64 {
            assert!(t.insert(&u64_key(i), i), "{site}: unusable after recover");
            assert_eq!(t.get(&u64_key(i)), Some(i));
        }
    }
}

/// Cut the P-BwTree merge SMO at each of its ordered atomic steps — remove-node
/// published, helper flush, merge delta published, parent index term deleted —
/// and `recover()` must finish the merge, lose no acknowledged operation, keep
/// scans ordered, and leave the merged key range writable.
#[test]
fn bwtree_merge_crash_then_recover_at_every_step() {
    let _domain = own_domain();
    for site in [
        "bwtree.merge.remove_published",
        "bwtree.help.merge_flushed",
        "bwtree.merge.merge_published",
        "bwtree.merge.parent_updated",
    ] {
        let t = bwtree::PBwTree::new();
        let mut h = t.handle();
        let mut acked = Acked::default();
        assert_eq!(run_load(&mut h, inserts(0..400, 1), &mut acked), None);
        // Empty leaves from a middle range upward; the delete that empties a
        // leaf triggers the merge inline, so the armed site fires mid-remove.
        let cut = cut_at(&mut h, site, (100..400).map(MixedOp::Remove), &mut acked);

        t.recover();
        assert_eq!(t.incomplete_smos(), 0, "{site}: recovery left the merge torn");
        // Acknowledged removes stay removed; untouched keys stay readable.
        assert_eq!(acked.read_back(|k| h.get(&u64_key(k))), Readback::default(), "{site}");
        let scanned = t.scan(&[], 1_000);
        assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0), "{site}: scan disorder");
        // The merged (adopted) key range accepts writes again.
        for i in (100..cut.op.key()).take(50) {
            assert!(t.insert(&u64_key(i), i * 3), "{site}: unusable after recover");
            assert_eq!(t.get(&u64_key(i)), Some(i * 3));
        }
    }
}

/// Condition #2 for merges: a crash tears the merge mid-protocol, and a plain
/// *reader* that lands on the removed husk completes the remaining steps — with
/// every helper store flushed and fenced — no `recover()` call involved.
#[test]
fn bwtree_reader_helps_complete_torn_merge() {
    let _domain = own_domain();
    let t = bwtree::PBwTree::new();
    let mut h = t.handle();
    let mut acked = Acked::default();
    assert_eq!(run_load(&mut h, inserts(0..400, 1), &mut acked), None);
    let removes = (100..400).map(MixedOp::Remove);
    let crashed_at_key =
        cut_at(&mut h, "bwtree.merge.remove_published", removes, &mut acked).op.key();
    assert_eq!(t.incomplete_smos(), 1, "crash must leave the merge torn");

    // No recover(): a reader descending into the removed page's key range
    // observes the remove-node delta and must drive steps 2 and 3, durably.
    pm::tracker::enable();
    assert_eq!(t.get(&u64_key(crashed_at_key)), None, "torn remove is unacknowledged-or-gone");
    let durability = pm::tracker::check(true);
    assert!(durability.is_durable(), "helper stores left unflushed/unfenced: {durability:?}");
    pm::tracker::disable();
    assert_eq!(t.incomplete_smos(), 0, "the reader must have completed the merge");
    assert!(t.merged_pages() > 0, "the torn merge must have completed, not been abandoned");

    // Fully consistent and writable afterwards.
    assert_eq!(acked.read_back(|k| h.get(&u64_key(k))), Readback::default());
    let scanned = t.scan(&[], 1_000);
    assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0), "scan disorder");
    for i in 100..=crashed_at_key {
        assert!(t.insert(&u64_key(i), i * 7), "unusable after help");
    }
}

/// Torn-delta-chain stress: many crash/recover rounds against the *same*
/// P-BwTree, each cutting a mixed insert/update/remove burst at a
/// pseudo-random site. Accumulated torn-and-recovered state must never lose an
/// acknowledged operation, and the tree must keep scanning in order.
#[test]
fn bwtree_torn_delta_chain_stress() {
    let _domain = own_domain();
    pm::crash::install_quiet_hook();
    let t = bwtree::PBwTree::new();
    let mut h = t.handle();
    let mut gen = MixedGen::new(0xB417);
    let mut acked = Acked::default();
    let mut op_index = 0u64;
    let mut crashes = 0;
    for round in 0..60u64 {
        pm::crash::arm_nth(round % 97 * 5 + 3);
        let burst = (0..300).map(|_| {
            let op = gen.next_op(op_index);
            op_index += 1;
            op
        });
        crashes += usize::from(run_load(&mut h, burst, &mut acked).is_some());
        pm::crash::disarm();
        t.recover();
        assert_eq!(t.incomplete_smos(), 0, "round {round}: torn SMO survived recovery");
    }
    assert!(crashes >= 30, "stress must actually crash often (got {crashes})");
    assert_eq!(acked.read_back(|k| h.get(&u64_key(k))), Readback::default());
    let scanned = t.scan(&[], usize::MAX);
    assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0), "scan disorder after stress");
    // The scan may additionally contain keys from crashed (unacknowledged) ops.
    assert!(scanned.len() >= acked.present().count(), "scan lost acknowledged keys");
}

#[test]
fn dram_indexes_never_crash_because_sites_are_inert() {
    let _domain = own_domain();
    // Crash sites are only active in PM mode: the DRAM variant must run the same
    // workload without a single site firing.
    pm::crash::arm_count_only();
    let t = art_index::DramArt::new();
    for i in 0..2_000u64 {
        t.insert(&u64_key(i), i);
    }
    assert_eq!(pm::crash::sites_hit(), 0);
    pm::crash::disarm();
}
