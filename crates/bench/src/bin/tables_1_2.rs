//! Tables 1 & 2: the RECIPE categorisation of the converted DRAM indexes.
fn main() {
    bench::knobs();
    println!("== Table 1 / Table 2 — RECIPE categorisation ==");
    println!(
        "{:<10}{:<16}{:<14}{:<14}{:<9}{:<9}{:<24}crate",
        "DRAM", "structure", "reader", "writer", "non-SMO", "SMO", "paper effort"
    );
    let catalog = recipe::condition::catalog();
    for e in &catalog {
        println!(
            "{:<10}{:<16}{:<14}{:<14}{:<9}{:<9}{:<24}{}",
            e.dram_index,
            e.structure,
            e.reader.to_string(),
            e.writer.to_string(),
            e.non_smo.label(),
            e.smo.label(),
            e.paper_effort,
            e.crate_name
        );
    }
    println!("\nConversion actions:");
    for c in [
        recipe::Condition::SingleAtomicStore,
        recipe::Condition::WritersFixInconsistencies,
        recipe::Condition::WritersDontFixInconsistencies,
    ] {
        println!("  {}: {}", c.label(), c.conversion_action());
    }

    // Every index the evaluation runs — the converted Table 1 entries plus the
    // hand-crafted PM baselines (and the PM-native learned index).
    let all = harness::registry::all_indexes();
    println!("\n== Registry — all {} evaluated indexes ==", all.len());
    println!(
        "{:<20}{:<20}{:<9}{:<11}{:<14}{:<13}crash sites",
        "PM index", "DRAM index", "kind", "converted", "linearizable", "concurrency"
    );
    for e in &all {
        println!(
            "{:<20}{:<20}{:<9}{:<11}{:<14}{:<13}{}",
            e.name,
            e.dram_name,
            if e.caps.ordered { "ordered" } else { "hash" },
            e.converted,
            e.caps.linearizable_update,
            if e.single_writer { "single-wr" } else { "multi-wr" },
            e.crash_sites.len()
        );
    }

    let rows: Vec<String> = catalog
        .iter()
        .map(|e| {
            format!(
                "{},{},{},{},{},{},{},\"{}\",{}",
                e.dram_index,
                e.pm_index,
                e.structure,
                e.reader,
                e.writer,
                e.non_smo.label(),
                e.smo.label(),
                e.paper_effort,
                e.crate_name
            )
        })
        .collect();
    bench::csv::report(
        bench::csv::write_rows(
            "tables_1_2",
            "dram_index,pm_index,structure,reader,writer,non_smo,smo,paper_effort,crate",
            &rows,
        ),
        "tables_1_2",
    );

    let registry_rows: Vec<String> = all
        .iter()
        .map(|e| {
            format!(
                "{},{},{},{},{},{},{}",
                e.name,
                e.dram_name,
                if e.caps.ordered { "ordered" } else { "hash" },
                e.converted,
                e.caps.linearizable_update,
                !e.single_writer,
                e.crash_sites.len()
            )
        })
        .collect();
    bench::csv::report(
        bench::csv::write_rows(
            "registry_entries",
            "pm_index,dram_index,kind,converted,linearizable_update,multi_writer,crash_sites",
            &registry_rows,
        ),
        "registry_entries",
    );
}
