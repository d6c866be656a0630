//! Cursor-semantics conformance suite: every ordered registry entry, in both
//! policy modes, must give [`recipe::session::Scanner`] the same observable
//! behavior — empty-start scans, mid-key resumption across batch boundaries,
//! zero limits, past-the-end starts, buffer-bounded `next_into`, scans racing
//! concurrent removals, and one sequence from every way of reading a cursor
//! (`visit`, `next`, `next_into`, the bare `exec_scan_chunk`, chained
//! `scan_after`).
use harness::registry::{self, IndexKind, PolicyMode};
use recipe::key::{key_to_u64, u64_key};
use recipe::session::{Index, IndexExt};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Every ordered index in both policy modes, loaded with `count` keys
/// `step, 2*step, ...` mapped to twice their key.
fn loaded_ordered(count: u64, step: u64) -> Vec<(&'static str, Arc<dyn Index>)> {
    registry::all_indexes()
        .iter()
        .filter(|e| e.kind == IndexKind::Ordered)
        .flat_map(|e| PolicyMode::ALL.map(|mode| (e.name(mode), e.build(mode))))
        .map(|(name, index)| {
            let mut h = index.handle();
            for i in 1..=count {
                h.insert(&u64_key(i * step), i * step * 2).unwrap();
            }
            drop(h);
            (name, index)
        })
        .collect()
}

/// Batch sizes that exercise the refill paths: mid-stream resumption (tiny),
/// the default, and a single-fetch fast path (larger than the data set).
const BATCHES: [usize; 3] = [3, 64, 4_096];

#[test]
fn empty_start_streams_everything_in_order() {
    for (name, index) in loaded_ordered(500, 7) {
        for batch in BATCHES {
            let mut h = index.handle();
            h.set_scan_batch(batch);
            let got: Vec<u64> = h
                .scan(&[])
                .map(|(k, v)| {
                    assert_eq!(v, key_to_u64(&k) * 2, "{name}: value mismatch");
                    key_to_u64(&k)
                })
                .collect();
            let want: Vec<u64> = (1..=500).map(|i| i * 7).collect();
            assert_eq!(got, want, "{name} (batch {batch}): full scan from empty start");
            assert_eq!(h.stats().entries_scanned, 500, "{name}");
        }
    }
}

#[test]
fn mid_key_start_and_resume_across_batches() {
    for (name, index) in loaded_ordered(300, 10) {
        for batch in BATCHES {
            let mut h = index.handle();
            h.set_scan_batch(batch);
            // Start on an existing key.
            let got: Vec<u64> = h.scan(&u64_key(1_500)).map(|(k, _)| key_to_u64(&k)).collect();
            let want: Vec<u64> = (150..=300).map(|i| i * 10).collect();
            assert_eq!(got, want, "{name} (batch {batch}): scan from existing key");
            // Start between keys (1_505 is absent; next is 1_510).
            let got: Vec<u64> =
                h.scan(&u64_key(1_505)).limit(5).map(|(k, _)| key_to_u64(&k)).collect();
            assert_eq!(got, vec![1_510, 1_520, 1_530, 1_540, 1_550], "{name} (batch {batch})");
        }
    }
}

#[test]
fn zero_limits_and_empty_buffers_touch_nothing() {
    for (name, index) in loaded_ordered(50, 1) {
        let mut h = index.handle();
        assert_eq!(h.scan(&[]).limit(0).next(), None, "{name}: limit 0 yields nothing");
        let mut full: Vec<(Vec<u8>, u64)> = Vec::new(); // zero capacity => zero spare
        assert_eq!(h.scan(&[]).next_into(&mut full), 0, "{name}: no spare capacity");
        assert!(full.is_empty(), "{name}");
        // The legacy adapter agrees.
        use recipe::index::ConcurrentIndex;
        assert!(index.scan(&[], 0).is_empty(), "{name}");
    }
}

#[test]
fn past_end_start_is_immediately_exhausted() {
    for (name, index) in loaded_ordered(100, 2) {
        let mut h = index.handle();
        let mut sc = h.scan(&u64_key(10_000));
        assert_eq!(sc.next(), None, "{name}: past-the-end scan must be empty");
        assert_eq!(sc.next(), None, "{name}: and stay exhausted");
    }
}

#[test]
fn next_into_is_bounded_by_spare_capacity_and_resumable() {
    for (name, index) in loaded_ordered(200, 3) {
        let mut h = index.handle();
        h.set_scan_batch(16);
        let mut buf: Vec<(Vec<u8>, u64)> = Vec::with_capacity(25);
        let mut sc = h.scan(&[]);
        assert_eq!(sc.next_into(&mut buf), 25, "{name}: fills spare capacity exactly");
        let cap = buf.capacity();
        // Draining the buffer and re-filling from the same cursor continues
        // where it stopped — and never grows the buffer.
        let first: Vec<u64> = buf.drain(..).map(|(k, _)| key_to_u64(&k)).collect();
        assert_eq!(first, (1..=25).map(|i| i * 3).collect::<Vec<u64>>(), "{name}");
        assert_eq!(sc.next_into(&mut buf), 25, "{name}: resumes mid-stream");
        assert_eq!(buf.capacity(), cap, "{name}: next_into must not reallocate");
        assert_eq!(key_to_u64(&buf[0].0), 26 * 3, "{name}: no gap, no duplicate");
    }
}

/// A cursor outliving concurrent removals must stay well-formed: strictly
/// ascending keys, no duplicates, nothing that was never inserted — and keys
/// removed *before* the cursor reaches their region must not appear (each
/// batch is a fresh point-in-time snapshot).
#[test]
fn remove_during_scan_keeps_cursor_well_formed() {
    for (name, index) in loaded_ordered(400, 5) {
        let mut h = index.handle();
        h.set_scan_batch(10);
        let mut sc = h.scan(&[]);
        // Consume the first 50 entries.
        let mut got: Vec<u64> = Vec::new();
        for _ in 0..50 {
            got.push(key_to_u64(&sc.next().expect("cursor has 400 entries").0));
        }
        // Remove a stretch well ahead of the cursor through a second handle.
        let mut h2 = index.handle();
        for i in 201..=300u64 {
            h2.remove(&u64_key(i * 5)).unwrap();
        }
        got.extend(sc.map(|(k, _)| key_to_u64(&k)));
        // Entries 1..=50 were consumed pre-removal; the removed stretch
        // (batches fetched after the removal) must be gone; everything else
        // present, in order, exactly once.
        let want: Vec<u64> = (1..=200u64).chain(301..=400).map(|i| i * 5).collect();
        assert_eq!(got, want, "{name}: cursor after concurrent removals");
    }
}

/// A second wave of inserts behind the cursor must not be revisited, and
/// inserts ahead of it show up — resumption is by key, not by snapshot.
#[test]
fn insert_during_scan_is_seen_only_ahead_of_the_cursor() {
    for (name, index) in loaded_ordered(100, 10) {
        let mut h = index.handle();
        h.set_scan_batch(8);
        let mut sc = h.scan(&[]);
        let mut got: Vec<u64> = Vec::new();
        for _ in 0..30 {
            got.push(key_to_u64(&sc.next().unwrap().0));
        }
        let mut h2 = index.handle();
        h2.insert(&u64_key(5), 10).unwrap(); // behind the cursor: never seen
        h2.insert(&u64_key(505), 1_010).unwrap(); // ahead: must be seen
        got.extend(sc.map(|(k, _)| key_to_u64(&k)));
        let mut want: Vec<u64> = (1..=100).map(|i| i * 10).collect();
        want.push(505);
        want.sort_unstable();
        assert_eq!(got, want, "{name}: inserts behind/ahead of the cursor");
    }
}

/// The borrowing visitor, the owned-pair shims over it, the bare chunk call and
/// cursor chaining through `scan_after` are five ways to read the same scan:
/// each must yield exactly the model's sequence, from start keys of every
/// length up to the stored keys' (empty included; the fixed-width indexes
/// zero-pad a shorter start key, which orders the same way) and whatever the
/// batch size cuts the stream into.
#[test]
fn every_way_of_reading_a_cursor_yields_the_model_sequence() {
    // Keys spread over the whole 64-bit space, so short start keys cut into it.
    let keys: Vec<[u8; 8]> = (1..=300u64).map(|i| u64_key(i << 54)).collect();
    let model: BTreeMap<Vec<u8>, u64> =
        keys.iter().enumerate().map(|(i, k)| (k.to_vec(), i as u64 + 1)).collect();
    let starts: Vec<Vec<u8>> = vec![
        vec![],
        vec![0x00],
        vec![0x40],
        vec![0x12, 0x34, 0x56],
        vec![0x4A, 0xC0, 0, 0, 0],
        u64_key(77 << 54).to_vec(),                           // present
        u64_key((77 << 54) + 1).to_vec(),                     // absent, between two keys
        vec![0x4A, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF], // past the last key
    ];
    let indexes = registry::all_indexes()
        .iter()
        .filter(|e| e.kind == IndexKind::Ordered)
        .flat_map(|e| PolicyMode::ALL.map(|mode| (e.name(mode), e.build(mode))))
        .collect::<Vec<_>>();
    for (name, index) in indexes {
        let mut h = index.handle();
        for (k, v) in &model {
            h.insert(k, *v).unwrap();
        }
        for start in &starts {
            let want: Vec<(Vec<u8>, u64)> =
                model.range(start.clone()..).map(|(k, v)| (k.clone(), *v)).collect();
            let what =
                |how: &str, batch: usize| format!("{name}: {how} from {start:?}, batch {batch}");

            let mut bare = Vec::new();
            index.exec_scan_chunk(start, want.len() + 5, &mut bare);
            assert_eq!(bare, want, "{}", what("exec_scan_chunk", 0));

            for batch in [1, 7, 64] {
                h.set_scan_batch(batch);

                let mut lent = Vec::new();
                let n = h.scan(start).visit(|k, v| lent.push((k.to_vec(), v)));
                assert_eq!((n, &lent), (want.len(), &want), "{}", what("visit", batch));

                let owned: Vec<(Vec<u8>, u64)> = h.scan(start).collect();
                assert_eq!(owned, want, "{}", what("next", batch));

                let mut filled = Vec::new();
                let mut buf: Vec<(Vec<u8>, u64)> = Vec::with_capacity(25);
                let mut sc = h.scan(start);
                while sc.next_into(&mut buf) > 0 {
                    filled.append(&mut buf);
                }
                drop(sc);
                assert_eq!(filled, want, "{}", what("next_into", batch));

                // Cursors of 10 entries, each resumed after the last key of the
                // one before it.
                let mut chained: Vec<(Vec<u8>, u64)> = Vec::new();
                loop {
                    let mut sc = match chained.last() {
                        None => h.scan(start),
                        Some((last, _)) => h.scan_after(last),
                    }
                    .limit(10);
                    let mut step = Vec::new();
                    if sc.visit(|k, v| step.push((k.to_vec(), v))) == 0 {
                        break;
                    }
                    chained.append(&mut step);
                }
                assert_eq!(chained, want, "{}", what("scan_after chain", batch));
            }
        }
    }
}
