//! The repo benchmark. See `README.md` beside this crate for what each
//! workload and metric is and why it is here.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! benchmark set [--seed <n>] [--seconds <s>] [--out <file>]             every workload, one process each
//! benchmark compare <A.json> <B.json>                                    two ledgers against the bounds
//! benchmark spread <ledger.json>...                                      run-to-run spread of ledgers
//! ```

mod common;
mod direct;
mod ledger;
mod stats;
mod svc;
mod tower;
mod trace;

use common::{Env, Outcome, CORE5, ORD4};
use direct::Direct;
use std::process::ExitCode;
use svc::Svc;

/// `run_seconds` of `BENCHMARK.json`, for runs started by hand.
const DEFAULT_SECONDS: f64 = 15.0;
const DEFAULT_SEED: u64 = 0x5EED;

pub enum Workload {
    Direct(Direct),
    Svc(Svc),
}

impl Workload {
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Direct(d) => d.name,
            Workload::Svc(s) => s.name,
        }
    }
}

/// The six workloads. Sizes are per repetition; a run repeats them for
/// `--seconds`.
pub fn workloads() -> Vec<Workload> {
    use ycsb::Workload as Mix;
    vec![
        Workload::Direct(Direct {
            name: "load_a",
            mix: Mix::LoadA,
            set: CORE5,
            load_n: 100_000,
            ops_n: 150_000,
        }),
        Workload::Direct(Direct {
            name: "read_c",
            mix: Mix::C,
            set: CORE5,
            load_n: 100_000,
            ops_n: 400_000,
        }),
        Workload::Direct(Direct {
            name: "mixed_a",
            mix: Mix::A,
            set: CORE5,
            load_n: 100_000,
            ops_n: 200_000,
        }),
        Workload::Direct(Direct {
            name: "scan_e",
            mix: Mix::E,
            set: ORD4,
            load_n: 50_000,
            ops_n: 20_000,
        }),
        Workload::Svc(Svc { name: "svc_closed", closed: true, slice_reqs: 10_000, slices: 8 }),
        Workload::Svc(Svc { name: "svc_window", closed: false, slice_reqs: 400_000, slices: 4 }),
    ]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = parse_u64(value).ok_or_else(bad)?,
            "--seconds" => {
                a.seconds =
                    value.parse().ok().filter(|s| *s > 0.0 && *s <= 600.0).ok_or_else(bad)?;
            }
            "--trace" => a.trace = matches!(value.as_str(), "1" | "true"),
            "--out" => a.out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                ledger::num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.metrics.iter().all(|m| m.value.is_finite()),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn run_one(a: &Args) -> Result<ExitCode, String> {
    let all = workloads();
    let workload = all.iter().find(|w| w.name() == a.workload).ok_or_else(|| {
        let names: Vec<_> = all.iter().map(Workload::name).collect();
        format!("--workload must be one of {names:?}")
    })?;
    let env = Env::new(a.seed, a.seconds);
    println!(
        "conditions: policy Pmem, model CALIBRATED {:?}, obs events off, tracker off, crash injector \
         disarmed, 8-byte RandInt keys, nproc {}, threads {}, seed {:#x}, seconds {}, trace {}",
        pm::latency::Model::CALIBRATED,
        env.nproc,
        env.threads,
        env.seed,
        env.seconds,
        u8::from(a.trace)
    );
    common::fix_conditions(&env);
    let out = if a.trace {
        let (out, tracer) = tower::run(workload, &env);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.json", workload.name()));
        match tracer.write_json(&path) {
            Ok(()) => println!("{} spans written to {}", tracer.len(), path.display()),
            Err(e) => println!("trace not written to {}: {e}", path.display()),
        }
        out
    } else {
        match workload {
            Workload::Direct(d) => d.run(&env),
            Workload::Svc(s) => s.run(&env),
        }
    };
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.metrics {
        println!("{:28} {:>16} {}", m.name, ledger::num(m.value), m.unit);
    }
    println!("{}", result_line(&out));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("set") => parse_args(&argv[1..]).and_then(|a| ledger::set(a.seed, a.seconds, a.out)),
        Some("compare") if argv.len() == 3 => ledger::compare(&argv[1], &argv[2]),
        Some("spread") if argv.len() >= 3 => ledger::spread(&argv[1..]),
        Some("compare" | "spread") => Err("compare takes two ledgers, spread at least two".into()),
        _ => parse_args(&argv).and_then(|a| run_one(&a)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::END_TO_END;
    use harness::registry::{all_indexes, PolicyMode};
    use pm::latency::Model;

    /// The installed model is process-global and tower cells switch it, so
    /// the tests that run cells take turns.
    static MODEL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn declared(doc: &obs::json::Json, list: &str) -> Vec<String> {
        doc.get(list)
            .and_then(|l| l.as_array())
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
            .iter()
            .map(|e| {
                e.get("name").and_then(|n| n.as_str()).expect("entry without a name").to_string()
            })
            .collect()
    }

    /// Every name the benchmark emits is declared in `BENCHMARK.json`, and the
    /// other way round; names and counts stay inside the contract's limits.
    #[test]
    fn emitted_names_match_benchmark_json() {
        let _turn = MODEL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let doc = obs::json::parse(ledger::BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let names: Vec<_> = workloads().iter().map(|w| w.name().to_string()).collect();
        assert_eq!(declared(&doc, "workloads"), names);
        let end_to_end = END_TO_END.map(|(name, _)| name);
        assert_eq!(declared(&doc, "end_to_end"), end_to_end);

        let w = &workloads()[4];
        let mut env = Env::new(7, 1.0);
        env.threads = 1;
        let (out, _) = tower::run(w, &env);
        let emitted: Vec<_> = out.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(declared(&doc, "per_layer"), emitted);
        assert_eq!(emitted.len(), 94);
        assert!(out.metrics.iter().all(|m| m.value.is_finite()), "{:?}", out.metrics);

        assert!(names.len() <= 8 && END_TO_END.len() <= 16 && emitted.len() <= 128);
        for n in names.iter().chain(&emitted).map(String::as_str).chain(end_to_end) {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(Model::current() == Model::CALIBRATED, "a cell left another model installed");
    }

    /// The traced pass's per-index counters are a function of the seed: fences
    /// and node visits repeat exactly even inside one process. A flush covers
    /// every line an object spans, so `clwb` (and with it the charge) also
    /// depends on where the allocator put the object — identical from one
    /// fresh process to the next, within a few percent on a second pass over
    /// a heap the first pass has used.
    #[test]
    fn index_counters_repeat_for_a_seed_and_move_with_it() {
        let _turn = MODEL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let counters = |seed: u64| -> Vec<tower::Cost> {
            let stream = tower::ycsb_stream(ycsb::Workload::A, seed, 4_000, 4_000);
            let cost = |e| tower::index_costs(&stream, e, PolicyMode::Pmem, Model::CALIBRATED);
            all_indexes().iter().map(cost).collect()
        };
        let (a, again, other) = (counters(11), counters(11), counters(12));
        for ((a, again), other) in a.iter().zip(&again).zip(&other) {
            assert_eq!((a.fence, a.visits), (again.fence, again.visits));
            assert!((a.clwb / again.clwb - 1.0).abs() < 0.05, "{a:?} {again:?}");
            assert!((a.charged_ns / again.charged_ns - 1.0).abs() < 0.05, "{a:?} {again:?}");
            assert_ne!((a.fence, a.visits), (other.fence, other.visits));
            assert!(a.clwb > 0.0 && a.fence > 0.0 && a.visits > 0.0 && a.charged_ns > 0.0);
        }
    }
}
