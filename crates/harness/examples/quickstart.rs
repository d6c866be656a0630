//! Quickstart: build a RECIPE-converted persistent index, use it through a
//! session handle, and see what the conversion actually does (flushes + fences
//! after each committing store).
//!
//! Run with `cargo run -p harness --release --example quickstart`.
use recipe::key::u64_key;
use recipe::session::{IndexExt, OpError, OpResult};

fn main() {
    // P-ART: the RECIPE conversion of the Adaptive Radix Tree (Condition #3).
    // The index object is shared; each thread opens its own cheap handle.
    let index = art_index::PArt::new();
    let mut h = index.handle();
    let before = pm::stats::snapshot();

    for i in 0..10_000u64 {
        h.insert(&u64_key(i), i * 10).expect("ART stores any byte key");
    }
    assert_eq!(h.get(&u64_key(42)), Some(420));

    // Ordered indexes support range queries through a resumable cursor. The
    // visitor borrows each entry from the handle's reused scan buffer, so a
    // scan allocates nothing; only what the caller keeps is copied.
    let mut range = Vec::with_capacity(5);
    h.scan(&u64_key(100)).limit(5).visit(|key, _value| range.push(recipe::key::key_to_u64(key)));
    println!("5 keys starting at 100: {range:?}");

    let stats = pm::stats::snapshot().since(&before);
    println!(
        "P-ART inserted 10k keys using {:.2} clwb and {:.2} fences per insert",
        stats.clwb as f64 / 10_000.0,
        stats.fence as f64 / 10_000.0
    );
    let s = h.stats();
    println!(
        "session stats: {} inserts, {} gets ({} hits), {} scans, {} entries scanned",
        s.inserts, s.gets, s.hits, s.scans, s.entries_scanned
    );

    // The same code instantiated with the DRAM policy is the original in-memory index:
    // no flushes, no fences — that *is* the RECIPE conversion, expressed as a type.
    let dram = art_index::DramArt::new();
    let mut dram_h = dram.handle();
    let before = pm::stats::snapshot();
    for i in 0..10_000u64 {
        dram_h.insert(&u64_key(i), i).unwrap();
    }
    let stats = pm::stats::snapshot().since(&before);
    println!("DRAM ART inserted 10k keys using {} clwb and {} fences", stats.clwb, stats.fence);

    // Unordered example: P-CLHT, converted with ~30 LOC in the paper. The typed
    // results distinguish outcomes the old boolean interface conflated.
    let hash = clht::PClht::new();
    let mut hash_h = hash.handle();
    assert_eq!(hash_h.insert(&u64_key(7), 700), Ok(OpResult::Inserted));
    assert_eq!(hash_h.insert(&u64_key(7), 701), Ok(OpResult::Updated));
    assert_eq!(hash_h.insert(b"way-too-long-key", 1), Err(OpError::UnsupportedKey));
    println!("P-CLHT lookup: {:?}", hash_h.get(&u64_key(7)));
}
