//! YCSB workload specification and generation.
//!
//! The paper drives every index with the Yahoo! Cloud Serving Benchmark (§7, Table 3),
//! generated with the index micro-benchmark and statically split across threads:
//!
//! | Workload | Mix                  | Application pattern      |
//! |----------|----------------------|--------------------------|
//! | Load A   | 100% inserts         | bulk database insert     |
//! | A        | 50% read / 50% write | session store            |
//! | B        | 95% read / 5% write  | photo tagging            |
//! | C        | 100% read            | user-profile cache       |
//! | E        | 95% scan / 5% write  | threaded conversations   |
//!
//! Workloads D and F are excluded exactly as in the paper (they require in-place value
//! updates, which some of the compared indexes do not support). "Write" in the run
//! phase means inserting a previously unseen key. Two key types are generated: 8-byte
//! random integers (`randint`) and 24-byte YCSB-style string keys, both uniformly
//! distributed.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The YCSB workloads used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// 100% inserts (the load phase, also reported as "Load A").
    LoadA,
    /// 50% reads, 50% inserts.
    A,
    /// 95% reads, 5% inserts.
    B,
    /// 100% reads.
    C,
    /// 95% range scans, 5% inserts.
    E,
}

impl Workload {
    /// All run-phase workloads in the order the paper plots them.
    pub const ALL: [Workload; 5] =
        [Workload::LoadA, Workload::A, Workload::B, Workload::C, Workload::E];

    /// Short label used in tables and figures.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Workload::LoadA => "Load A",
            Workload::A => "A",
            Workload::B => "B",
            Workload::C => "C",
            Workload::E => "E",
        }
    }

    /// (read%, insert%, scan%) mix of the run phase.
    #[must_use]
    pub fn mix(&self) -> (u32, u32, u32) {
        match self {
            Workload::LoadA => (0, 100, 0),
            Workload::A => (50, 50, 0),
            Workload::B => (95, 5, 0),
            Workload::C => (100, 0, 0),
            Workload::E => (0, 5, 95),
        }
    }
}

/// Key representations evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyType {
    /// 8-byte uniformly random integer keys.
    RandInt,
    /// 24-byte YCSB string keys (`user` + zero-padded decimal id).
    String24,
}

impl KeyType {
    /// Encode the `i`-th generated identifier as a key of this type.
    #[must_use]
    pub fn encode(&self, id: u64) -> OpKey {
        let mut key = OpKey { len: 0, bytes: [0; OP_KEY_MAX] };
        match self {
            KeyType::RandInt => {
                key.len = 8;
                key.bytes[..8].copy_from_slice(&recipe::key::u64_key(id));
            }
            KeyType::String24 => {
                // `user` and the id in 20 zero-padded decimal digits (`u64::MAX` has 20).
                key.len = 24;
                key.bytes[..4].copy_from_slice(b"user");
                let mut n = id;
                for digit in key.bytes[4..].iter_mut().rev() {
                    *digit = b'0' + (n % 10) as u8;
                    n /= 10;
                }
            }
        }
        key
    }
}

/// Longest key an [`OpKey`] holds: a key of either [`KeyType`] fits.
const OP_KEY_MAX: usize = 24;

/// A generated key, held inline: an [`Op`] is `Copy`, and generating one allocates
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpKey {
    len: u8,
    bytes: [u8; OP_KEY_MAX],
}

impl std::ops::Deref for OpKey {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

/// A single benchmark operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert `key -> value`.
    Insert(OpKey, u64),
    /// Point lookup.
    Read(OpKey),
    /// Range scan of `len` items starting at `key`.
    Scan(OpKey, usize),
}

/// Workload generation parameters.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Number of keys inserted in the load phase.
    pub load_count: usize,
    /// Number of operations executed in the run phase.
    pub op_count: usize,
    /// Number of worker threads (operations are statically partitioned).
    pub threads: usize,
    /// Key representation.
    pub key_type: KeyType,
    /// Run-phase workload mix.
    pub workload: Workload,
    /// Maximum scan length for workload E (uniformly drawn from `1..=scan_max`).
    pub scan_max: usize,
    /// RNG seed; the same spec always generates the same operations.
    pub seed: u64,
}

impl Default for Spec {
    fn default() -> Self {
        Spec {
            load_count: 100_000,
            op_count: 100_000,
            threads: 4,
            key_type: KeyType::RandInt,
            workload: Workload::A,
            scan_max: 100,
            seed: 0x5EED,
        }
    }
}

/// A fully generated workload: the load phase plus per-thread run-phase partitions.
#[derive(Debug)]
pub struct GeneratedWorkload {
    /// Operations of the load phase, already split across threads.
    pub load: Vec<Vec<Op>>,
    /// Operations of the run phase, split across threads.
    pub run: Vec<Vec<Op>>,
    /// Keys inserted by the load phase (for correctness checks).
    pub loaded_keys: Vec<OpKey>,
}

/// Generate unique uniformly distributed key identifiers.
///
/// Integer identifiers avoid `u64::MAX` (reserved by the hash-table sentinel mapping);
/// string identifiers are drawn from the full range and rendered as decimal.
fn generate_ids(rng: &mut StdRng, n: usize) -> Vec<u64> {
    let mut set = std::collections::HashSet::with_capacity(n * 2);
    let mut ids = Vec::with_capacity(n);
    while ids.len() < n {
        let id: u64 = rng.gen_range(0..u64::MAX - 1);
        if set.insert(id) {
            ids.push(id);
        }
    }
    ids
}

/// Generate the load and run phases for `spec`.
#[must_use]
pub fn generate(spec: &Spec) -> GeneratedWorkload {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let threads = spec.threads.max(1);
    let total_ids = spec.load_count + spec.op_count; // upper bound on inserts
    let ids = generate_ids(&mut rng, total_ids);
    let (load_ids, run_ids) = ids.split_at(spec.load_count);

    let loaded_keys: Vec<OpKey> = load_ids.iter().map(|&id| spec.key_type.encode(id)).collect();

    // Load phase: pure inserts, statically partitioned.
    let mut load: Vec<Vec<Op>> = vec![Vec::with_capacity(spec.load_count / threads + 1); threads];
    for (i, key) in loaded_keys.iter().enumerate() {
        load[i % threads].push(Op::Insert(*key, id_value(load_ids[i])));
    }

    // Run phase.
    let (read_pct, insert_pct, _scan_pct) = spec.workload.mix();
    let mut run: Vec<Vec<Op>> = vec![Vec::with_capacity(spec.op_count / threads + 1); threads];
    let mut next_new_key = 0usize;
    for i in 0..spec.op_count {
        let dice = rng.gen_range(0..100u32);
        let op = if dice < read_pct {
            Op::Read(loaded_keys[rng.gen_range(0..loaded_keys.len().max(1))])
        } else if dice < read_pct + insert_pct {
            let id = run_ids.get(next_new_key).copied().unwrap_or_else(|| rng.gen());
            next_new_key += 1;
            Op::Insert(spec.key_type.encode(id), id_value(id))
        } else {
            let key = loaded_keys[rng.gen_range(0..loaded_keys.len().max(1))];
            Op::Scan(key, rng.gen_range(1..=spec.scan_max.max(1)))
        };
        run[i % threads].push(op);
    }

    // Shuffle each partition so per-thread op order is not phase-correlated.
    for part in run.iter_mut() {
        part.shuffle(&mut rng);
    }

    GeneratedWorkload { load, run, loaded_keys }
}

/// The value stored for a generated key (derived from the id so checks can recompute
/// it).
#[must_use]
pub fn id_value(id: u64) -> u64 {
    id.wrapping_mul(2654435761).wrapping_add(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sum_to_100() {
        for w in Workload::ALL {
            let (r, i, s) = w.mix();
            assert_eq!(r + i + s, 100, "{}", w.label());
        }
    }

    #[test]
    fn string_keys_are_24_bytes() {
        for id in [0u64, 1, 1234, u64::MAX - 2] {
            let key = KeyType::String24.encode(id);
            assert_eq!(&*key, format!("user{id:020}").as_bytes());
        }
        assert_eq!(KeyType::RandInt.encode(7).len(), 8);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = Spec { load_count: 1000, op_count: 1000, threads: 3, ..Spec::default() };
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.load, b.load);
        assert_eq!(a.run, b.run);
    }

    #[test]
    fn load_phase_covers_all_keys_once() {
        let spec = Spec { load_count: 5000, op_count: 100, threads: 4, ..Spec::default() };
        let g = generate(&spec);
        let total: usize = g.load.iter().map(Vec::len).sum();
        assert_eq!(total, 5000);
        let mut keys = std::collections::HashSet::new();
        for part in &g.load {
            for op in part {
                match op {
                    Op::Insert(k, _) => assert!(keys.insert(*k), "duplicate load key"),
                    other => panic!("unexpected load op {other:?}"),
                }
            }
        }
        assert_eq!(keys.len(), 5000);
    }

    #[test]
    fn run_mix_matches_spec_roughly() {
        let spec = Spec {
            load_count: 2000,
            op_count: 20_000,
            threads: 2,
            workload: Workload::B,
            ..Spec::default()
        };
        let g = generate(&spec);
        let mut reads = 0;
        let mut inserts = 0;
        let mut scans = 0;
        for part in &g.run {
            for op in part {
                match op {
                    Op::Read(_) => reads += 1,
                    Op::Insert(..) => inserts += 1,
                    Op::Scan(..) => scans += 1,
                }
            }
        }
        let total = (reads + inserts + scans) as f64;
        assert_eq!(total as usize, 20_000);
        assert!((reads as f64 / total - 0.95).abs() < 0.02, "reads {reads}");
        assert!((inserts as f64 / total - 0.05).abs() < 0.02, "inserts {inserts}");
        assert_eq!(scans, 0);
    }

    #[test]
    fn workload_e_generates_scans() {
        let spec =
            Spec { load_count: 500, op_count: 2000, workload: Workload::E, ..Spec::default() };
        let g = generate(&spec);
        let scans: usize =
            g.run.iter().flat_map(|p| p.iter()).filter(|op| matches!(op, Op::Scan(..))).count();
        assert!(scans > 1700, "expected mostly scans, got {scans}");
    }
}
