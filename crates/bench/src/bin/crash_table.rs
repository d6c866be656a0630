//! §5 / §7.5: exhaustive crash-recovery and durability testing of every PM index.
//!
//! For each index the §5 methodology runs in its *exhaustive* form: one targeted
//! crash state per declared crash site (the paper's "simulate a crash after each
//! atomic step"), plus `RECIPE_CRASH_STATES` uniformly sampled states over a mixed
//! insert/update/remove load, plus the durability check. A per-site coverage
//! report (sites defined vs. sites exercised) is printed and written to
//! `RECIPE_OUT_DIR/crash_coverage.csv`; the run **exits non-zero** if any state
//! fails or any index has a crash site the sweep never exercised.
//!
//! The baselines compiled with their `*-bug` features reproduce the paper's
//! findings (run `cargo run -p bench --features
//! cceh/durability-bug,fastfair/durability-bug --bin crash_table` to see them fail
//! the durability column — and, by design, the process exit code).
use crashtest::{run_crash_sweep, run_durability_test, SweepConfig};

fn main() {
    let cfg = SweepConfig {
        post_ops: bench::crash_post_from_env(),
        sampled_states: bench::crash_states_from_env(),
        ..SweepConfig::default()
    };
    println!(
        "== §7.5 — exhaustive crash-recovery and durability testing (per-site states + {} sampled, {} load ops) ==",
        cfg.sampled_states, cfg.load_ops
    );
    // The global-lock WOART baseline gets its own §7.3 comparison and is excluded
    // here, as in the paper's Table 5 row set.
    let mut rows = Vec::new();
    let mut coverage_rows = Vec::new();
    let mut all_passed = true;
    for entry in bench::registry::all_indexes().into_iter().filter(|e| !e.single_writer) {
        let sweep = run_crash_sweep(entry.build_pmem, entry.crash_sites, &cfg);
        let durability = run_durability_test(entry.build_pmem, 5_000, 1_000);
        println!(
            "{:<16} states={:<5} crashes={:<5} lost={:<3} wrong={:<3} resurrected={:<3} failed-ops={:<3} coverage={}/{} {:<6} | durability: construction-unflushed={} per-op-violations={} {}",
            entry.name,
            sweep.states_tested,
            sweep.crashes_triggered,
            sweep.lost_keys,
            sweep.wrong_values,
            sweep.resurrected_keys,
            sweep.failed_post_ops,
            sweep.sites_exercised(),
            sweep.sites_defined(),
            if sweep.passed() { "PASS" } else { "FAIL" },
            durability.construction_unflushed,
            durability.ops_with_unflushed_lines + durability.ops_with_unfenced_lines,
            if durability.passed() { "PASS" } else { "FAIL" },
        );
        println!("                 avg time per crash state: {:.1} ms", sweep.avg_state_ms);
        for s in &sweep.per_site {
            println!(
                "                 site {:<45} load-hits={:<6} crashed={:<5} exercised={}",
                s.site,
                s.hits_in_load,
                if s.crash_fired { "yes" } else { "no" },
                if s.exercised { "yes" } else { "NEVER" },
            );
            coverage_rows.push(format!(
                "{},{},true,{},{},{}",
                entry.name, s.site, s.hits_in_load, s.crash_fired, s.exercised
            ));
        }
        for site in &sweep.undeclared_sites {
            println!("                 site {site:<45} EMITTED BUT NOT DECLARED in CRASH_SITES");
            coverage_rows.push(format!("{},{site},false,,false,true", entry.name));
        }
        if !sweep.full_coverage() {
            eprintln!("error: {} has never-exercised or undeclared crash sites", entry.name);
        }
        // Dump-on-failure: the event timeline (SMO steps, crash sites, epoch
        // activity, failing keys) of every inconsistent state.
        for fd in &sweep.failure_dumps {
            eprintln!("  FAILING STATE [{}] {} — {}", entry.name, fd.state, fd.summary);
            eprint!("{}", fd.dump.tail(120));
        }
        all_passed &= sweep.passed() && durability.passed();
        rows.push(format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.3}",
            entry.name,
            sweep.states_tested,
            sweep.crashes_triggered,
            sweep.lost_keys,
            sweep.wrong_values,
            sweep.resurrected_keys,
            sweep.failed_post_ops,
            sweep.sites_defined(),
            sweep.sites_exercised(),
            if sweep.passed() { "PASS" } else { "FAIL" },
            durability.construction_unflushed,
            durability.ops_with_unflushed_lines,
            durability.ops_with_unfenced_lines,
            if durability.passed() { "PASS" } else { "FAIL" },
            sweep.avg_state_ms,
        ));
    }
    bench::csv::report(
        bench::csv::write_rows(
            "crash_table",
            "index,states,crashes,lost_keys,wrong_values,resurrected_keys,failed_post_ops,\
             sites_defined,sites_exercised,crash_result,construction_unflushed,\
             per_op_unflushed,per_op_unfenced,durability_result,avg_state_ms",
            &rows,
        ),
        "crash_table",
    );
    bench::csv::report(
        bench::csv::write_rows(
            "crash_coverage",
            "index,site,declared,load_hits,crash_fired,exercised",
            &coverage_rows,
        ),
        "crash_coverage",
    );
    if !all_passed {
        eprintln!("crash_table: FAIL (consistency violation, durability violation, or uncovered crash site)");
        std::process::exit(1);
    }
    println!("crash_table: PASS (all states consistent, all declared crash sites exercised)");
}
