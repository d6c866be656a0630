//! Two crash sweeps at once share the process's `obs` event ring: neither may
//! switch tracing off or clear events under the other. In a binary of its own,
//! so no other test holds tracing on while this one checks it is off.

use crashtest::{run_crash_sweep, SweepConfig};
use parking_lot::Mutex;
use recipe::session::{Capabilities, Index, OpError, OpResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A map with one crash site per insert. A lossy one forgets everything on
/// recovery, so every crash state loses acknowledged keys.
struct Toy {
    map: Mutex<HashMap<Vec<u8>, u64>>,
    lossy: bool,
}

impl Toy {
    fn new(lossy: bool) -> Toy {
        Toy { map: Mutex::new(HashMap::new()), lossy }
    }
}

impl Index for Toy {
    fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        pm::crash::site("toy.insert");
        match self.map.lock().insert(key.to_vec(), value) {
            None => Ok(OpResult::Inserted),
            Some(_) => Ok(OpResult::Updated),
        }
    }
    fn exec_get(&self, key: &[u8]) -> Option<u64> {
        self.map.lock().get(key).copied()
    }
    fn exec_remove(&self, key: &[u8]) -> Result<OpResult, OpError> {
        self.map.lock().remove(key).map(|_| OpResult::Removed).ok_or(OpError::NotFound)
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities::hash_index(false)
    }
    fn index_name(&self) -> String {
        "toy".into()
    }
    fn recover(&self) {
        if self.lossy {
            self.map.lock().clear();
        }
    }
}

#[test]
fn a_lossy_sweep_keeps_its_events_while_another_sweep_runs() {
    let cfg = SweepConfig { load_ops: 300, post_ops: 60, threads: 2, sampled_states: 3, seed: 5 };
    let lossy_started = AtomicBool::new(false);
    let lossy_done = AtomicBool::new(false);
    let builds = AtomicUsize::new(0);
    let on_after_lossy = AtomicBool::new(false);
    std::thread::scope(|s| {
        let lossy = s.spawn(|| {
            run_crash_sweep(
                || {
                    lossy_started.store(true, Ordering::SeqCst);
                    Toy::new(true)
                },
                &["toy.insert"],
                &cfg,
            )
        });
        while !lossy_started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // The second sweep starts after the first and, from its second index
        // on, runs only once the first has returned.
        let correct = s.spawn(|| {
            run_crash_sweep(
                || {
                    if builds.fetch_add(1, Ordering::SeqCst) == 1 {
                        while !lossy_done.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        on_after_lossy.store(obs::event::enabled(), Ordering::SeqCst);
                    }
                    Toy::new(false)
                },
                &["toy.insert"],
                &cfg,
            )
        });
        let lossy = lossy.join().expect("lossy sweep");
        lossy_done.store(true, Ordering::SeqCst);
        let correct = correct.join().expect("correct sweep");

        assert!(correct.passed(), "{correct:?}");
        assert!(!lossy.consistent());
        assert!(!lossy.failure_dumps.is_empty());
        for fd in &lossy.failure_dumps {
            let lost = fd.dump.events.iter().filter(|e| e.kind == "sweep.readback").count();
            assert!(lost > 0, "{}: no sweep.readback events in its dump", fd.state);
        }
    });
    assert!(on_after_lossy.load(Ordering::SeqCst), "the first sweep switched tracing off");
    assert!(!obs::event::enabled(), "tracing stays on after both sweeps returned");
}
