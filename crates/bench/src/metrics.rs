//! Bench-layer wiring into the `obs` metric registry.
//!
//! [`install`] hooks up the substrate collector (`pm` probe/flush/charged
//! counters); [`record_cell`] publishes each measured matrix cell's full
//! latency distributions and handle statistics;
//! [`record_epoch`] captures the epoch reclaimer's byte gauges while the
//! index is still alive. After a matrix run a single [`obs::snapshot`]
//! therefore holds the substrate counters, the per-cell histograms and the
//! epoch gauges together, and [`export`] writes it as self-describing JSON
//! (`recipe-obs-metrics/v1`) next to the figure CSVs.
//!
//! Metric naming follows a `family/index/workload` convention:
//!
//! | Name | Type | Meaning |
//! |------|------|---------|
//! | `lat.wall_ns/<index>/<wl>` | histogram | wall-clock ns of every op in the reported phase |
//! | `lat.charged_ns/<index>/<wl>` | histogram | simulated PM ns charged per op |
//! | `handle.<stat>/<index>/<wl>` | gauge | merged [`recipe::session::HandleStats`] field |
//! | `epoch.{retired,peak_retired,reclaimed}_bytes/<index>` | gauge | epoch reclaimer state |
//! | `pm.*` | counter | substrate collector (see [`pm::obs_bridge::METRICS`]) |

use crate::Cell;
use recipe::session::Index;
use std::path::PathBuf;

/// Install every collector the bench layer depends on. Idempotent; called by
/// [`crate::run_matrix_scaled`] so any binary that runs a matrix gets a complete
/// snapshot.
pub fn install() {
    pm::obs_bridge::install_obs();
}

/// Publish one measured matrix cell: the full wall/charged latency
/// distributions as registry histograms and the merged handle statistics as
/// gauges. Re-recording the same cell (e.g. a best-of repetition) replaces
/// the previous values, so repeated passes stay idempotent.
pub fn record_cell(cell: &Cell) {
    let r = &cell.result;
    obs::histogram(&format!("lat.wall_ns/{}/{}", cell.index, cell.workload))
        .set(r.wall_hist.clone());
    obs::histogram(&format!("lat.charged_ns/{}/{}", cell.index, cell.workload))
        .set(r.charged_hist.clone());
    let h = &r.handle_stats;
    for (stat, v) in [
        ("inserts", h.inserts),
        ("updates", h.updates),
        ("gets", h.gets),
        ("removes", h.removes),
        ("scans", h.scans),
        ("hits", h.hits),
        ("misses", h.misses),
        ("errors", h.errors),
        ("entries_scanned", h.entries_scanned),
    ] {
        obs::gauge(&format!("handle.{}/{}/{}", stat, cell.index, cell.workload)).set(v as f64);
    }
}

/// Publish the epoch reclaimer's byte gauges for `name`, if the index has
/// one. Must run while the index is alive — the collector is owned by it.
pub fn record_epoch(name: &str, index: &dyn Index) {
    if let Some(c) = index.reclaimer() {
        obs::gauge(&format!("epoch.retired_bytes/{name}")).set(c.retired_bytes() as f64);
        obs::gauge(&format!("epoch.peak_retired_bytes/{name}")).set(c.peak_retired_bytes() as f64);
        obs::gauge(&format!("epoch.reclaimed_bytes/{name}")).set(c.reclaimed_bytes() as f64);
    }
}

/// Write the current [`obs::snapshot`] as JSON to `<file_stem>.json` in
/// [`crate::csv::OUT_DIR`] and return the path. The figure binaries call this after their matrix so every run leaves a metrics
/// artifact alongside its CSV.
pub fn export(file_stem: &str) -> std::io::Result<PathBuf> {
    let dir = std::path::Path::new(crate::csv::OUT_DIR);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{file_stem}.json"));
    std::fs::write(&path, obs::snapshot().to_json())?;
    Ok(path)
}

/// [`export`] plus the same one-line confirmation the CSV writer prints.
pub fn export_report(file_stem: &str) {
    match export(file_stem) {
        Ok(path) => eprintln!("# wrote {} metrics to {}", file_stem, path.display()),
        Err(e) => eprintln!("# WARNING: could not write {file_stem} metrics: {e}"),
    }
}
