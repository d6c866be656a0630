//! The paper's qualitative throughput orderings ("the shape" of Figures 4–5), as
//! checkable constraints.
//!
//! Absolute Mops/s numbers depend on the host; what the paper's Optane evaluation
//! actually establishes — and what the calibrated [`pm::latency::Model`] must
//! reproduce — is a set of *orderings* between indexes per workload: the
//! flush-frugal trie beats the shift-heavy B+-tree once writes cost PM prices, the
//! high-fanout trie stays competitive when reads dominate, the cache-friendly hash
//! table beats the probing one. `bench --bin calibrate` grid-searches the model
//! constants against these constraints; `bench --bin shape_check` asserts them at
//! the calibrated defaults and gates CI.

use crate::registry::{all_indexes, IndexEntry};
use crate::{Cell, MatrixScale};
use ycsb::{KeyType, Workload};

/// Ordered indexes the shape matrix runs (the Fig. 4 protagonists; P-BwTree's
/// ablation and the global-lock WOART are excluded to keep the gate fast).
pub const ORDERED: &[&str] = &["P-ART", "P-HOT", "P-Masstree", "FAST&FAIR"];

/// Hash indexes the shape matrix runs (the Fig. 5 / Table 4 protagonists).
pub const HASH: &[&str] = &["P-CLHT", "CCEH", "Level-Hashing"];

/// Workloads the constraints quantify over: write-only, write-heavy, read-heavy,
/// read-only. Workload E is excluded (scan length dominates, not PM costs).
pub const WORKLOADS: [Workload; 4] = [Workload::LoadA, Workload::A, Workload::B, Workload::C];

/// What the left-hand side is compared against.
#[derive(Debug, Clone, Copy)]
pub enum Rhs {
    /// A single named index on the same workload.
    Index(&'static str),
    /// The best throughput among these indexes on the same workload.
    BestOf(&'static [&'static str]),
}

/// One qualitative ordering from the paper: `lhs >= factor × rhs` on `workload`.
#[derive(Debug, Clone, Copy)]
pub struct Constraint {
    /// Stable identifier (CSV key).
    pub id: &'static str,
    /// Workload label the ordering holds on.
    pub workload: &'static str,
    /// Index whose throughput must clear the bar.
    pub lhs: &'static str,
    /// The bar.
    pub rhs: Rhs,
    /// Slack factor: 1.0 is a strict ordering, <1.0 is "competitive with".
    pub factor: f64,
    /// Why the paper predicts this (shown in the failure diff).
    pub why: &'static str,
}

/// The asserted Figure 4–5 orderings.
#[must_use]
pub fn constraints() -> Vec<Constraint> {
    vec![
        Constraint {
            id: "loada_art_over_fastfair",
            workload: "Load A",
            lhs: "P-ART",
            rhs: Rhs::Index("FAST&FAIR"),
            factor: 1.0,
            why: "Fig 4a (insert-only): P-ART's single-line publish outruns FAST&FAIR's \
                  shift-and-flush inserts once flushes cost PM prices",
        },
        Constraint {
            id: "a_art_over_fastfair",
            workload: "A",
            lhs: "P-ART",
            rhs: Rhs::Index("FAST&FAIR"),
            factor: 1.0,
            why: "Fig 4a (write-heavy A): flush-frugal P-ART stays ahead of FAST&FAIR",
        },
        Constraint {
            id: "loada_hot_over_fastfair",
            workload: "Load A",
            lhs: "P-HOT",
            rhs: Rhs::Index("FAST&FAIR"),
            factor: 1.0,
            why: "Fig 4a (insert-only): P-HOT issues ~5 clwb + ~2 fences per insert to \
                  FAST&FAIR's ~14 of each (shift-heavy leaves), so PM write costs put \
                  it ahead",
        },
        Constraint {
            id: "c_art_over_fastfair",
            workload: "C",
            lhs: "P-ART",
            rhs: Rhs::Index("FAST&FAIR"),
            factor: 0.95,
            why: "Fig 4a (read-only C): P-ART's path-compressed lookups touch ~2 nodes \
                  to FAST&FAIR's ~4, so Optane read latency keeps it at least level",
        },
        Constraint {
            id: "c_hot_competitive",
            workload: "C",
            lhs: "P-HOT",
            rhs: Rhs::BestOf(ORDERED),
            factor: 0.85,
            why: "Fig 4a (read-only C): P-HOT stays competitive with the best ordered \
                  index. Frontier-aware compound widening (settled between phases \
                  via exec_settle) turns the root into a 1024-entry compound over a \
                  depth-10 pointer frontier, so hit lookups touch exactly 2 nodes \
                  like P-ART's path-compressed descent. Recorded ratios have fallen \
                  below the 0.85x bar as software time moved: 0.69-0.88x (median \
                  0.77x) over 10 runs before the tries' leaves became one line, \
                  0.60-0.86x (median 0.77x) after; the latency-model re-fit restates \
                  this ordering",
        },
        Constraint {
            id: "b_clht_over_level",
            workload: "B",
            lhs: "P-CLHT",
            rhs: Rhs::Index("Level-Hashing"),
            factor: 1.0,
            why: "Fig 5 (read-heavy B): P-CLHT's in-place single-line buckets beat \
                  Level-Hashing's two-level probing",
        },
        Constraint {
            id: "c_clht_over_cceh",
            workload: "C",
            lhs: "P-CLHT",
            rhs: Rhs::Index("CCEH"),
            factor: 1.0,
            why: "Fig 5 (read-only C): P-CLHT reads need one bucket line; CCEH pays the \
                  directory plus segment probe",
        },
    ]
}

/// One evaluated constraint against a measured matrix.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The constraint evaluated.
    pub constraint: Constraint,
    /// Measured left-hand throughput (Mops/s).
    pub lhs_mops: f64,
    /// Name the right-hand bar resolved to (the best index for [`Rhs::BestOf`]).
    pub rhs_name: String,
    /// Measured right-hand throughput (Mops/s), before the factor.
    pub rhs_mops: f64,
    /// Relative margin: `lhs / (factor × rhs) − 1` (≥ 0 means the ordering holds).
    pub margin: f64,
    /// Whether the ordering holds.
    pub ok: bool,
}

impl Evaluation {
    /// One-line human-readable verdict (the "readable diff" on violation).
    #[must_use]
    pub fn describe(&self) -> String {
        let c = &self.constraint;
        format!(
            "{} {}: {} {:.3} Mops/s vs {:.2}x {} {:.3} Mops/s on {} (margin {:+.1}%)\n      ({})",
            if self.ok { "PASS" } else { "FAIL" },
            c.id,
            c.lhs,
            self.lhs_mops,
            c.factor,
            self.rhs_name,
            self.rhs_mops,
            c.workload,
            self.margin * 100.0,
            c.why
        )
    }
}

fn mops_of(cells: &[Cell], index: &str, workload: &str) -> Option<f64> {
    cells.iter().find(|c| c.index == index && c.workload == workload).map(|c| c.result.mops)
}

/// Evaluate every constraint against a measured matrix. Constraints whose cells are
/// missing from `cells` evaluate as failed with zero throughput (a shape run must
/// include every index it asserts on).
#[must_use]
pub fn evaluate(cells: &[Cell], constraints: &[Constraint]) -> Vec<Evaluation> {
    constraints
        .iter()
        .map(|c| {
            let lhs_mops = mops_of(cells, c.lhs, c.workload).unwrap_or(0.0);
            let (rhs_name, rhs_mops) = match c.rhs {
                Rhs::Index(name) => (name.to_string(), mops_of(cells, name, c.workload)),
                Rhs::BestOf(names) => names
                    .iter()
                    .filter(|&&n| n != c.lhs)
                    .filter_map(|&n| mops_of(cells, n, c.workload).map(|m| (n.to_string(), m)))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .map_or(("<missing>".to_string(), None), |(n, m)| (n, Some(m))),
            };
            let rhs_mops = rhs_mops.unwrap_or(f64::INFINITY);
            let bar = c.factor * rhs_mops;
            let margin = if bar > 0.0 { lhs_mops / bar - 1.0 } else { 0.0 };
            Evaluation {
                constraint: *c,
                lhs_mops,
                rhs_name,
                rhs_mops: if rhs_mops.is_finite() { rhs_mops } else { 0.0 },
                margin: if margin.is_finite() { margin } else { -1.0 },
                ok: margin.is_finite() && margin >= 0.0,
            }
        })
        .collect()
}

/// Smallest margin across evaluations (the robustness of the weakest ordering).
#[must_use]
pub fn min_margin(evals: &[Evaluation]) -> f64 {
    evals.iter().map(|e| e.margin).fold(f64::INFINITY, f64::min)
}

fn subset(names: &[&str]) -> Vec<IndexEntry> {
    names
        .iter()
        .map(|&n| {
            all_indexes()
                .into_iter()
                .find(|e| e.name == n)
                .unwrap_or_else(|| panic!("shape index {n} not in registry"))
        })
        .collect()
}

/// Run the reduced shape matrix — the [`ORDERED`] and [`HASH`] subsets over
/// [`WORKLOADS`] with integer keys — under the currently installed latency model,
/// `reps` times, keeping each cell's **best** throughput.
///
/// The workload stream is deterministic per spec, so structural effects (resizes,
/// splits) repeat identically; the only run-to-run variance is scheduler
/// interference, which is strictly downward — the per-cell max is therefore the
/// right estimator for ordering comparisons on noisy (CI) hosts.
#[must_use]
pub fn run_shape_matrix(scale: MatrixScale, reps: usize) -> Vec<Cell> {
    let mut cells =
        crate::run_matrix_best_of(&subset(ORDERED), &WORKLOADS, KeyType::RandInt, scale, reps);
    cells.extend(crate::run_matrix_best_of(
        &subset(HASH),
        &WORKLOADS,
        KeyType::RandInt,
        scale,
        reps,
    ));
    cells
}

/// CSV header shared by `calibration.csv` and `shape_check.csv`: one row per
/// (model × constraint), so the grid search and the gate are diffable against each
/// other.
pub const SHAPE_CSV_HEADER: &str = "clwb_ns,fence_ns,read_ns,eadr,constraint,workload,\
                                    lhs,lhs_mops,rhs,rhs_mops,factor,margin,ok";

/// Render evaluations as [`SHAPE_CSV_HEADER`] rows for the given model.
#[must_use]
pub fn csv_rows(model: &pm::latency::Model, evals: &[Evaluation]) -> Vec<String> {
    evals
        .iter()
        .map(|e| {
            format!(
                "{},{},{},{},{},{},{},{:.4},{},{:.4},{:.2},{:.4},{}",
                model.clwb_ns,
                model.fence_ns,
                model.read_ns,
                u8::from(model.eadr),
                e.constraint.id,
                e.constraint.workload,
                e.constraint.lhs,
                e.lhs_mops,
                e.rhs_name,
                e.rhs_mops,
                e.constraint.factor,
                e.margin,
                e.ok
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ycsb::PhaseResult;

    fn cell(index: &'static str, workload: &'static str, mops: f64) -> Cell {
        Cell {
            index,
            workload,
            result: PhaseResult { ops: 1, secs: 1.0, mops, ..Default::default() },
        }
    }

    #[test]
    fn orderings_evaluate_with_margins() {
        let cells = [
            cell("P-ART", "A", 1.2),
            cell("FAST&FAIR", "A", 1.0),
            cell("P-ART", "Load A", 0.9),
            cell("FAST&FAIR", "Load A", 1.0),
        ];
        let cs: Vec<Constraint> = constraints()
            .into_iter()
            .filter(|c| c.id == "a_art_over_fastfair" || c.id == "loada_art_over_fastfair")
            .collect();
        let evals = evaluate(&cells, &cs);
        assert_eq!(evals.len(), 2);
        let a = evals.iter().find(|e| e.constraint.workload == "A").unwrap();
        assert!(a.ok && (a.margin - 0.2).abs() < 1e-9, "{}", a.describe());
        let load = evals.iter().find(|e| e.constraint.workload == "Load A").unwrap();
        assert!(!load.ok && load.margin < 0.0, "{}", load.describe());
        assert!((min_margin(&evals) - (-0.1)).abs() < 1e-9);
    }

    #[test]
    fn best_of_excludes_the_lhs_and_picks_the_max() {
        let cells = [
            cell("P-HOT", "C", 0.9),
            cell("P-ART", "C", 1.0),
            cell("P-Masstree", "C", 0.5),
            cell("FAST&FAIR", "C", 0.8),
        ];
        let cs: Vec<Constraint> =
            constraints().into_iter().filter(|c| c.id == "c_hot_competitive").collect();
        let e = &evaluate(&cells, &cs)[0];
        assert_eq!(e.rhs_name, "P-ART");
        assert!(e.ok, "0.9 >= 0.85 * 1.0: {}", e.describe());
    }

    #[test]
    fn missing_cells_fail_rather_than_pass() {
        let cs = constraints();
        let evals = evaluate(&[], &cs);
        assert!(evals.iter().all(|e| !e.ok), "empty matrix must not satisfy the shape");
    }

    #[test]
    fn shape_indexes_exist_in_registry() {
        let _ = subset(ORDERED);
        let _ = subset(HASH);
    }

    #[test]
    fn csv_rows_match_header_arity() {
        let cells = [cell("P-ART", "A", 1.0), cell("FAST&FAIR", "A", 1.0)];
        let cs: Vec<Constraint> =
            constraints().into_iter().filter(|c| c.id == "a_art_over_fastfair").collect();
        let rows = csv_rows(&pm::latency::Model::CALIBRATED, &evaluate(&cells, &cs));
        let cols = SHAPE_CSV_HEADER.split(',').count();
        for r in &rows {
            assert_eq!(r.split(',').count(), cols, "{r}");
        }
    }
}
