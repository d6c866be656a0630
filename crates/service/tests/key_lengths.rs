//! Keys on both sides of the queued job's inline key buffer — 0, 8, 24, 25
//! and 64 bytes — reach the index byte for byte, whichever way the request
//! travels: a call its caller runs, a cast the worker runs, and, during a live
//! split, a forward from the source shard's queue to the destination's.
//! Replies and the final tables are checked against a model map, and each
//! shard's latency histogram against the caller ops it executed.

use recipe::session::{Capabilities, Index, OpError, OpResult, ScanBuf};
use service::{Op, ReplyBody, Service, ServiceConfig};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// An ordered map, so a split can scan it.
#[derive(Default)]
struct Model(Mutex<BTreeMap<Vec<u8>, u64>>);

impl Index for Model {
    fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        match self.0.lock().unwrap().insert(key.to_vec(), value) {
            None => Ok(OpResult::Inserted),
            Some(_) => Ok(OpResult::Updated),
        }
    }
    fn exec_get(&self, key: &[u8]) -> Option<u64> {
        self.0.lock().unwrap().get(key).copied()
    }
    fn exec_remove(&self, key: &[u8]) -> Result<OpResult, OpError> {
        match self.0.lock().unwrap().remove(key) {
            Some(_) => Ok(OpResult::Removed),
            None => Err(OpError::NotFound),
        }
    }
    fn exec_scan(&self, start: &[u8], max: usize, out: &mut ScanBuf) {
        for (k, v) in self.0.lock().unwrap().range(start.to_vec()..).take(max) {
            out.push(k, *v);
        }
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities::ordered_index(true)
    }
    fn index_name(&self) -> String {
        "model".into()
    }
    fn recover(&self) {}
}

const LENGTHS: [usize; 5] = [0, 8, 24, 25, 64];
/// Keys per length (the empty key is one key).
const PER_LENGTH: usize = 12;
/// Greater than every test key, whose bytes stay below 0xF0: preloaded, it
/// is the last key of the split's first chunk.
const SENTINEL: [u8; 65] = [0xFF; 65];

fn keys() -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = LENGTHS
        .iter()
        .flat_map(|&len| {
            (0..PER_LENGTH)
                .map(move |j| (0..len).map(|b| ((j * 31 + b * 7 + len) % 0xF0) as u8).collect())
        })
        .collect();
    keys.dedup();
    keys
}

#[test]
fn keys_around_the_inline_length_travel_every_path_intact() {
    let _domain = pm::Domain::new().enter();
    pm::crash::install_quiet_hook();
    let made: Arc<Mutex<Vec<Arc<Model>>>> = Arc::default();
    let log = Arc::clone(&made);
    let svc = Service::start(ServiceConfig { shards: 1, ..ServiceConfig::default() }, move |_| {
        let m = Arc::new(Model::default());
        log.lock().unwrap().push(Arc::clone(&m));
        m as Arc<dyn Index>
    });
    let keys = keys();
    assert_eq!(keys.len(), 1 + (LENGTHS.len() - 1) * PER_LENGTH);

    // Calls onto an idle shard: the caller runs each itself.
    for k in &keys {
        assert_eq!(svc.call(Op::Insert(k.clone(), 1)), ReplyBody::Done(OpResult::Inserted));
        assert_eq!(svc.call(Op::Update(k.clone(), 2)), ReplyBody::Done(OpResult::Updated));
        assert_eq!(svc.call(Op::Get(k.clone())), ReplyBody::Value(Some(2)));
    }
    // Casts: the worker runs them.
    for (i, k) in keys.iter().enumerate() {
        svc.cast(Op::Insert(k.clone(), 3)).unwrap();
        if i % 2 == 1 {
            svc.cast(Op::Remove(k.clone())).unwrap();
        }
    }
    svc.drain();
    for (i, k) in keys.iter().enumerate() {
        let want = if i % 2 == 1 { None } else { Some(3) };
        assert_eq!(svc.call(Op::Get(k.clone())), ReplyBody::Value(want), "key {k:?}");
        let removed = svc.call(Op::Remove(k.clone()));
        let want = if i % 2 == 1 {
            ReplyBody::Error(OpError::NotFound)
        } else {
            ReplyBody::Done(OpResult::Removed)
        };
        assert_eq!(removed, want, "key {k:?}");
    }

    // A split cut right after it hands off its first chunk, which ends at the
    // sentinel: from then on every moved key forwards to the destination.
    svc.cast(Op::Insert(SENTINEL.to_vec(), 0)).unwrap();
    for k in &keys {
        svc.cast(Op::Insert(k.clone(), 4)).unwrap();
    }
    svc.drain();
    pm::crash::arm_at_site("service.migrate.advanced", 1);
    let cut = pm::crash::catch_crash(std::panic::AssertUnwindSafe(|| svc.split(0)));
    pm::crash::disarm();
    assert_eq!(cut.err(), Some("service.migrate.advanced"));

    let mut forwarded_lengths = BTreeMap::new();
    for k in &keys {
        let put = svc.call(Op::Insert(k.clone(), 5));
        assert_eq!(put, ReplyBody::Done(OpResult::Updated), "key {k:?}");
        // Forwarded requests execute on the destination, shard 1.
        *forwarded_lengths.entry(k.len()).or_insert(0) += usize::from(put.shard == 1);
        svc.cast(Op::Update(k.clone(), 6)).unwrap();
        let got = svc.call(Op::Get(k.clone()));
        assert_eq!(got, ReplyBody::Value(Some(6)), "key {k:?}");
        assert_eq!(got.shard, put.shard, "key {k:?}");
    }
    for len in [8, 24, 25, 64] {
        assert!(forwarded_lengths[&len] > 0, "no {len}-byte key was forwarded");
    }

    let report = svc.resume_split().expect("the cut split resumes");
    assert_eq!(report.dest, 1);
    let mut expect: BTreeMap<Vec<u8>, u64> = keys.iter().map(|k| (k.clone(), 6)).collect();
    expect.insert(SENTINEL.to_vec(), 0);
    for (k, v) in &expect {
        let got = svc.call(Op::Get(k.clone()));
        assert_eq!(got, ReplyBody::Value(Some(*v)), "key {k:?}");
        assert_eq!(got.shard, svc.route(k), "key {k:?} answered off-ring");
    }
    svc.drain();
    let made = made.lock().unwrap();
    assert_eq!(made.len(), 2);
    let mut tables = BTreeMap::new();
    for (shard, m) in made.iter().enumerate() {
        for (k, v) in m.0.lock().unwrap().iter() {
            assert_eq!(svc.route(k), shard, "key {k:?} stored off-ring");
            assert!(tables.insert(k.clone(), *v).is_none(), "key {k:?} on both shards");
        }
    }
    assert_eq!(tables, expect);

    let stats = svc.shutdown();
    assert!(stats[0].forwarded > 0);
    // One queue age per executed caller op, recorded a batch at a time.
    for (shard, st) in stats.iter().enumerate() {
        let lat = obs::histogram(&format!("service.shard{shard}.latency_ns")).snapshot();
        assert_eq!(lat.count(), st.enqueued, "shard {shard}");
    }
}
