//! Crash-recovery walkthrough (§5 of the paper): cut an insert of P-ART between its
//! atomic steps, "restart", and show that nothing acknowledged is lost and the index
//! remains fully usable — without any dedicated recovery code.
//!
//! Run with `cargo run -p harness --release --example crash_recovery`.
use recipe::key::u64_key;
use recipe::session::{Index, IndexExt};

fn main() {
    pm::crash::install_quiet_hook();
    let index = art_index::PArt::new();
    let mut h = index.handle();

    // Load some keys, then arm a crash at a structure-modification site.
    for i in 0..1_000u64 {
        h.insert(&u64_key(i), i).unwrap();
    }
    pm::crash::arm_nth(500); // crash at the 500th atomic-step boundary from now on

    let mut acknowledged = Vec::new();
    let mut crashed_at = None;
    for i in 1_000..50_000u64 {
        let r = pm::crash::catch_crash(std::panic::AssertUnwindSafe(|| {
            let _ = h.insert(&u64_key(i), i);
        }));
        match r {
            Ok(_) => acknowledged.push(i),
            Err(site) => {
                crashed_at = Some((i, site));
                break;
            }
        }
    }
    pm::crash::disarm();
    let (key, site) = crashed_at.expect("the armed crash should have fired");
    println!("simulated crash while inserting key {key} at crash site '{site}'");

    // "Restart": RECIPE only requires re-initialising the locks.
    index.recover();

    // Every acknowledged key must still be there with the right value.
    let lost = acknowledged.iter().filter(|&&k| h.get(&u64_key(k)) != Some(k)).count();
    println!("acknowledged before crash: {}, lost after recovery: {lost}", acknowledged.len());
    assert_eq!(lost, 0);

    // And the index keeps working: writes detect and repair any permanent
    // inconsistency lazily (Condition #3 helper).
    for i in 100_000..101_000u64 {
        h.insert(&u64_key(i), i).unwrap();
    }
    assert_eq!(h.get(&u64_key(100_500)), Some(100_500));
    println!("post-recovery inserts and lookups succeed — no explicit recovery pass needed");
}
