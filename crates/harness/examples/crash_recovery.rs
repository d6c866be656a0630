//! Crash-recovery walkthrough (§5 of the paper): cut an insert of P-ART between its
//! atomic steps, "restart", and show that nothing acknowledged is lost and the index
//! remains fully usable — without any dedicated recovery code.
//!
//! The load runs through `crashtest`'s load loop and is checked against its
//! acknowledged-state model, the same two every crash sweep uses.
//!
//! Run with `cargo run -p harness --release --example crash_recovery`.
use crashtest::{run_load, Acked, MixedOp, Readback};
use recipe::key::u64_key;
use recipe::session::{Index, IndexExt};

fn main() {
    pm::crash::install_quiet_hook();
    let index = art_index::PArt::new();
    let mut h = index.handle();
    let mut acked = Acked::default();
    let inserts = |keys: std::ops::Range<u64>| keys.map(|i| MixedOp::Insert(i, i));

    // Load some keys, then arm a crash at a structure-modification site.
    assert_eq!(run_load(&mut h, inserts(0..1_000), &mut acked), None);
    pm::crash::arm_nth(500); // crash at the 500th atomic-step boundary from now on
    let cut = run_load(&mut h, inserts(1_000..50_000), &mut acked)
        .expect("the armed crash should have fired");
    println!("simulated crash while inserting key {} at crash site '{}'", cut.op.key(), cut.site);

    // "Restart": RECIPE only requires re-initialising the locks.
    index.recover();

    // Every acknowledged key must still be there with the right value.
    let readback = acked.read_back(|k| h.get(&u64_key(k)));
    println!(
        "acknowledged before crash: {}, lost after recovery: {}",
        acked.present().count(),
        readback.lost
    );
    assert_eq!(readback, Readback::default());

    // And the index keeps working: writes detect and repair any permanent
    // inconsistency lazily (Condition #3 helper).
    for i in 100_000..101_000u64 {
        h.insert(&u64_key(i), i).unwrap();
    }
    assert_eq!(h.get(&u64_key(100_500)), Some(100_500));
    println!("post-recovery inserts and lookups succeed — no explicit recovery pass needed");
}
