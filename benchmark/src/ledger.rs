//! Ledger files: a whole set of runs with the environment it ran in
//! (`set`), two of them held against the bounds (`compare`), and the
//! run-to-run spread of several (`spread`).

use crate::common::END_TO_END;
use crate::stats::{iqr_over_median, median};
use crate::{workloads, Workload};
use obs::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// The contract file this benchmark is written to, read at build time so
/// `compare` and the tests use the bounds the driver uses.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A number as JSON: every digit `f64` holds, `null` when not finite.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn crate_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// First line of a command's output, or "unknown".
fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(crate_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Run every workload untraced and traced, each in a fresh process (allocator
/// state carried from one workload into the next moved `load_a` by 12%), and
/// write the ledger.
pub fn set(seed: u64, seconds: f64, out: Option<String>) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let env = crate::common::Env::new(seed, seconds);
    let mut blocks = Vec::new();
    let mut walls = Vec::new();
    let mut all_correct = true;
    for w in workloads().iter().map(Workload::name) {
        let mut pair = Vec::new();
        for trace in ["0", "1"] {
            let t = Instant::now();
            let child = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .output()
                .map_err(|e| format!("cannot start {w}: {e}"))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            print!("{stdout}");
            let line = stdout.lines().last().unwrap_or_default();
            let doc = obs::json::parse(line).map_err(|e| format!("{w}: no result line ({e})"))?;
            if !child.status.success() || doc.get("correct") != Some(&Json::Bool(true)) {
                all_correct = false;
            }
            walls.push(format!("\"{w}.trace{trace}\": {}", num(t.elapsed().as_secs_f64())));
            pair.push(line.to_string());
        }
        blocks.push(format!(
            "\"{w}\": {{\n   \"end_to_end\": {},\n   \"per_layer\": {}\n  }}",
            pair[0], pair[1]
        ));
    }
    let model = pm::latency::Model::CALIBRATED;
    let doc = format!(
        "{{\n \"schema\": \"recipe-benchmark-ledger/v1\",\n \"env\": {{\"nproc\": {}, \"threads\": {}, \
         \"seed\": {seed}, \"seconds\": {}, \"git_commit\": \"{}\", \"rustc\": \"{}\", \
         \"model\": {{\"clwb_ns\": {}, \"fence_ns\": {}, \"read_ns\": {}, \"eadr\": {}}}, \
         \"wall_s\": {{{}}}}},\n \"workloads\": {{\n  {}\n }}\n}}\n",
        env.nproc,
        env.threads,
        num(seconds),
        first_line("git", &["rev-parse", "HEAD"]),
        first_line("rustc", &["-V"]),
        model.clwb_ns,
        model.fence_ns,
        model.read_ns,
        model.eadr,
        walls.join(", "),
        blocks.join(",\n  ")
    );
    let path = out.map_or_else(|| crate_dir().join("out").join("set.json"), PathBuf::from);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("ledger written to {}", path.display());
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `workloads.<w>.end_to_end.metrics.<m>.value` of a ledger.
fn value(ledger: &Json, w: &str, m: &str) -> Option<f64> {
    ledger
        .get("workloads")?
        .get(w)?
        .get("end_to_end")?
        .get("metrics")?
        .get(m)?
        .get("value")?
        .as_f64()
}

/// Hold ledger `b` against ledger `a` with the bounds of `BENCHMARK.json`.
/// A pairing whose recorded run-to-run spread (`results/spread.json`) is wider
/// than its bound is `unresolved`, not `ok`. Fails on any `worse`.
pub fn compare(a: &str, b: &str) -> Result<ExitCode, String> {
    let (a, b) = (read_json(Path::new(a))?, read_json(Path::new(b))?);
    let contract = obs::json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spreads = read_json(&crate_dir().join("results").join("spread.json")).ok();
    let declared = contract.get("end_to_end").and_then(Json::as_array).ok_or("no end_to_end")?;
    let mut worse = 0;
    println!(
        "{:11} {:18} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound", "spread"
    );
    for w in workloads().iter().map(Workload::name) {
        for m in declared {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default();
            let name = field("name");
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            let (Some(va), Some(vb)) = (value(&a, w, name), value(&b, w, name)) else {
                return Err(format!("{w}.{name} missing from a ledger"));
            };
            let worse_by = if field("better") == "lower" { (vb - va) / va } else { (va - vb) / va };
            let spread = spreads
                .as_ref()
                .and_then(|s| s.get("spread")?.get(w)?.get(name)?.as_f64())
                .unwrap_or(0.0);
            let verdict = if worse_by > bound {
                worse += 1;
                "worse"
            } else if spread > bound {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{w:11} {name:18} {va:14.4} {vb:14.4} {:9.4} {bound:7.3} {spread:7.3}  {verdict} \
                 (B/A, base A = {va:.4} {})",
                vb / va,
                field("unit")
            );
        }
    }
    Ok(if worse == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Print, as JSON, the interquartile range over the median of every workload ×
/// end-to-end metric across the given ledgers.
pub fn spread(paths: &[String]) -> Result<ExitCode, String> {
    let ledgers = paths.iter().map(|p| read_json(Path::new(p))).collect::<Result<Vec<_>, _>>()?;
    let mut blocks = Vec::new();
    for w in workloads().iter().map(Workload::name) {
        let mut fields = Vec::new();
        for (m, _) in END_TO_END {
            let vals: Vec<f64> = ledgers.iter().filter_map(|l| value(l, w, m)).collect();
            if vals.len() != ledgers.len() {
                return Err(format!("{w}.{m} missing from a ledger"));
            }
            fields.push(format!("\"{m}\": {}", num(iqr_over_median(&vals))));
            eprintln!(
                "{w:11} {m:18} median {:14.4} spread {:.4}",
                median(&vals),
                iqr_over_median(&vals)
            );
        }
        blocks.push(format!("  \"{w}\": {{{}}}", fields.join(", ")));
    }
    println!("{{\n \"sets\": {},\n \"spread\": {{\n{}\n }}\n}}", ledgers.len(), blocks.join(",\n"));
    Ok(ExitCode::SUCCESS)
}
