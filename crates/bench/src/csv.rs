//! Machine-readable CSV output written next to the printed tables.
//!
//! Every figure/table binary calls into this module after printing its human-readable
//! table, so each run leaves a diffable artifact (one file per figure) that can be
//! compared and plotted across PRs. Files land in [`OUT_DIR`], one `<figure>.csv`
//! per binary.

use crate::Cell;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Column header of the per-cell measurement CSVs written by [`write_cells`].
const CELL_HEADER: &str = "index,workload,ops,secs,mops,clwb_per_op,fence_per_op,\
                           node_visits_per_op,failed_reads,p50_ns,p90_ns,p99_ns,p999_ns,\
                           sim_ns_per_op";

/// Directory the CSV and metrics files are written to, relative to the working
/// directory.
pub const OUT_DIR: &str = "target/figures";

/// Write `header` plus `rows` to `<OUT_DIR>/<file_stem>.csv`, creating the directory
/// as needed. Returns the path written.
pub fn write_rows(file_stem: &str, header: &str, rows: &[String]) -> std::io::Result<PathBuf> {
    write_rows_in(Path::new(OUT_DIR), file_stem, header, rows)
}

/// [`write_rows`] into an explicit directory (separated out so tests can write to a
/// temp dir).
fn write_rows_in(
    dir: &Path,
    file_stem: &str,
    header: &str,
    rows: &[String],
) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{file_stem}.csv"));
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{header}")?;
    for row in rows {
        writeln!(f, "{row}")?;
    }
    Ok(path)
}

/// Write the full measurement matrix of a figure — every (index × workload) cell with
/// throughput, per-op counters and latency percentiles — as CSV.
pub fn write_cells(file_stem: &str, cells: &[Cell]) -> std::io::Result<PathBuf> {
    write_rows(file_stem, CELL_HEADER, &cell_rows(cells))
}

/// Format each cell as one CSV row matching [`CELL_HEADER`].
fn cell_rows(cells: &[Cell]) -> Vec<String> {
    cells
        .iter()
        .map(|c| {
            format!(
                "{},{},{},{:.6},{:.4},{:.2},{:.2},{:.2},{},{},{},{},{},{:.1}",
                c.index,
                c.workload,
                c.result.ops,
                c.result.secs,
                c.result.mops,
                c.result.clwb_per_op,
                c.result.fence_per_op,
                c.result.node_visits_per_op,
                c.result.failed_reads,
                c.result.p50_ns,
                c.result.p90_ns,
                c.result.p99_ns,
                c.result.p999_ns,
                c.result.sim_ns_per_op,
            )
        })
        .collect()
}

/// Report the outcome of a CSV write on stdout/stderr without failing the run: the
/// printed tables remain the primary output and a read-only filesystem should not
/// abort a benchmark.
pub fn report(result: std::io::Result<PathBuf>, what: &str) {
    match result {
        Ok(path) => println!("wrote {what} CSV: {}", path.display()),
        Err(e) => eprintln!("warning: could not write {what} CSV: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ycsb::PhaseResult;

    fn cell(index: &'static str, workload: &'static str) -> Cell {
        Cell {
            index,
            workload,
            result: PhaseResult {
                ops: 10,
                secs: 0.5,
                mops: 0.02,
                clwb_per_op: 3.0,
                fence_per_op: 2.0,
                node_visits_per_op: 4.5,
                failed_reads: 0,
                p50_ns: 1_200,
                p90_ns: 4_500,
                p99_ns: 9_800,
                p999_ns: 22_000,
                sim_ns_per_op: 350.5,
                ..Default::default()
            },
        }
    }

    #[test]
    fn cells_round_trip_through_csv() {
        let dir = std::env::temp_dir().join(format!("recipe-csv-test-{}", std::process::id()));
        let cells = [cell("P-Masstree", "Load A"), cell("P-ART", "A")];
        let path = write_rows_in(&dir, "unit_test_fig", CELL_HEADER, &cell_rows(&cells))
            .expect("write must succeed in temp dir");
        let body = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("index,workload,ops,secs,mops"));
        assert_eq!(lines[0].split(',').count(), 14, "header column count");
        assert!(lines[0].contains(",p50_ns,p90_ns,p99_ns,p999_ns,"), "quantile columns present");
        assert!(lines[1].starts_with("P-Masstree,Load A,10,"));
        assert!(lines[1].ends_with(",1200,4500,9800,22000,350.5"));
        assert_eq!(lines[1].split(',').count(), 14, "row column count");
        let _ = fs::remove_dir_all(&dir);
    }
}
