//! The environment knobs of the bench binaries, in one table.
//!
//! No crate below `bench` reads the environment. Every other condition of a run
//! is a constant in its one reader: the calibrated latency model, a scan length
//! of 100, the `target/figures` output directory, the repetition counts of the
//! gating binaries. The eight knobs of [`TABLE`] remain because each has a second
//! value in use: they scale a run down (CI, the bench workflow, quick local runs)
//! or narrow the calibration sweep.
//!
//! [`knobs`] reads the environment once per process. A malformed value keeps the
//! knob's default and a `RECIPE_*` name that is not in [`TABLE`] is ignored; both
//! are reported on stderr, so a typo or a knob that no longer exists is seen, not
//! silently dropped.

use std::sync::OnceLock;

/// One row of [`TABLE`].
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// Environment variable name.
    pub name: &'static str,
    /// Default, as the README shows it. `SHAPE_SCALE` is [`crate::SHAPE_SCALE`].
    pub default: &'static str,
}

/// Every environment variable a bench binary reads, and its default. The
/// README's "Environment knobs" table lists exactly these (a unit test checks it);
/// [`Knobs`] documents what each one sets.
pub const TABLE: [Knob; 8] = [
    Knob { name: "RECIPE_LOAD_N", default: "2000000 (SHAPE_SCALE: 60000)" },
    Knob { name: "RECIPE_OPS_N", default: "2000000 (SHAPE_SCALE: 240000)" },
    Knob { name: "RECIPE_THREADS", default: "16 (SHAPE_SCALE: 4)" },
    Knob { name: "RECIPE_CRASH_STATES", default: "1000" },
    Knob { name: "RECIPE_CRASH_POST_N", default: "4000" },
    Knob { name: "RECIPE_CAL_CLWB", default: "0,60,120,240" },
    Knob { name: "RECIPE_CAL_FENCE", default: "0,90,180" },
    Knob { name: "RECIPE_CAL_READ", default: "0,20,40" },
];

/// The parsed values of [`TABLE`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Knobs {
    /// `RECIPE_LOAD_N`: keys inserted in each cell's load phase; `None` keeps the
    /// binary's [`crate::MatrixScale`].
    pub load_n: Option<usize>,
    /// `RECIPE_OPS_N`: operations in each cell's run phase; `None` keeps the
    /// binary's [`crate::MatrixScale`].
    pub ops_n: Option<usize>,
    /// `RECIPE_THREADS`: worker threads per cell, at least 1; `None` keeps the
    /// binary's [`crate::MatrixScale`].
    pub threads: Option<usize>,
    /// `RECIPE_CRASH_STATES`: sampled crash states per index in `crash_table`.
    pub crash_states: usize,
    /// `RECIPE_CRASH_POST_N`: post-recovery operations per crash state in
    /// `crash_table`.
    pub crash_post_n: usize,
    /// `RECIPE_CAL_CLWB`: `calibrate`'s grid of ns per flushed line.
    pub cal_clwb: Vec<u64>,
    /// `RECIPE_CAL_FENCE`: `calibrate`'s grid of ns per fence.
    pub cal_fence: Vec<u64>,
    /// `RECIPE_CAL_READ`: `calibrate`'s grid of ns per node visit.
    pub cal_read: Vec<u64>,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            load_n: None,
            ops_n: None,
            threads: None,
            crash_states: 1_000,
            crash_post_n: 4_000,
            cal_clwb: vec![0, 60, 120, 240],
            cal_fence: vec![0, 90, 180],
            cal_read: vec![0, 20, 40],
        }
    }
}

impl Knobs {
    /// Parse the `RECIPE_*` entries of `vars` (name, value pairs; other names are
    /// skipped) over the defaults. Returns the knobs and one warning per malformed
    /// value or unknown name.
    fn parse(vars: impl IntoIterator<Item = (String, String)>) -> (Knobs, Vec<String>) {
        let mut k = Knobs::default();
        let mut warnings = Vec::new();
        for (name, raw) in vars {
            if !name.starts_with("RECIPE_") {
                continue;
            }
            let set = match name.as_str() {
                "RECIPE_LOAD_N" => size(&raw, 1).map(|n| k.load_n = Some(n)),
                "RECIPE_OPS_N" => size(&raw, 1).map(|n| k.ops_n = Some(n)),
                "RECIPE_THREADS" => size(&raw, 1).map(|n| k.threads = Some(n)),
                "RECIPE_CRASH_STATES" => size(&raw, 0).map(|n| k.crash_states = n),
                "RECIPE_CRASH_POST_N" => size(&raw, 0).map(|n| k.crash_post_n = n),
                "RECIPE_CAL_CLWB" => grid(&raw).map(|g| k.cal_clwb = g),
                "RECIPE_CAL_FENCE" => grid(&raw).map(|g| k.cal_fence = g),
                "RECIPE_CAL_READ" => grid(&raw).map(|g| k.cal_read = g),
                _ => {
                    let known: Vec<&str> = TABLE.iter().map(|r| r.name).collect();
                    warnings.push(format!(
                        "{name} is not a bench knob and is ignored (the knobs are {})",
                        known.join(", ")
                    ));
                    continue;
                }
            };
            if let Err(why) = set {
                warnings.push(format!("{name}={raw:?} {why}; keeping the default"));
            }
        }
        (k, warnings)
    }
}

/// An integer of at least `min`.
fn size(raw: &str, min: usize) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= min => Ok(n),
        Ok(_) => Err(format!("is below {min}")),
        Err(_) => Err("is not a non-negative integer".into()),
    }
}

/// A comma-separated list of at least one nanosecond value.
fn grid(raw: &str) -> Result<Vec<u64>, String> {
    raw.split(',')
        .map(|tok| tok.trim().parse::<u64>().map_err(|_| format!("has a malformed entry {tok:?}")))
        .collect()
}

/// The knobs of this process: the environment, parsed and warned about on the
/// first call. Every bench binary calls it at startup, so a stale or malformed
/// `RECIPE_*` variable is reported even by a binary that reads no knob.
pub fn knobs() -> &'static Knobs {
    static KNOBS: OnceLock<Knobs> = OnceLock::new();
    KNOBS.get_or_init(|| {
        let vars = std::env::vars_os()
            .filter_map(|(k, v)| Some((k.into_string().ok()?, v.to_string_lossy().into_owned())));
        let (knobs, warnings) = Knobs::parse(vars);
        for w in warnings {
            eprintln!("warning: {w}");
        }
        knobs
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(pairs: &[(&str, &str)]) -> (Knobs, Vec<String>) {
        Knobs::parse(pairs.iter().map(|&(k, v)| (k.to_string(), v.to_string())))
    }

    #[test]
    fn every_table_name_parses_and_nothing_else_is_set() {
        let (k, warnings) = parse(&[("PATH", "/bin"), ("HOME", "x")]);
        assert_eq!((k, warnings), (Knobs::default(), vec![]), "non-RECIPE names are skipped");
        for row in TABLE {
            let (k, warnings) = parse(&[(row.name, "7")]);
            assert!(warnings.is_empty(), "{}: {warnings:?}", row.name);
            assert_ne!(k, Knobs::default(), "{} must set a field", row.name);
        }
        let (k, _) = parse(&[
            ("RECIPE_LOAD_N", " 20000 "),
            ("RECIPE_THREADS", "4"),
            ("RECIPE_CRASH_STATES", "0"),
            ("RECIPE_CAL_CLWB", "0, 120"),
        ]);
        assert_eq!((k.load_n, k.ops_n, k.threads), (Some(20_000), None, Some(4)));
        assert_eq!((k.crash_states, k.cal_clwb), (0, vec![0, 120]));
    }

    #[test]
    fn table_defaults_of_the_fixed_knobs_are_the_parsed_defaults() {
        let fixed: Vec<(&str, &str)> = TABLE
            .iter()
            .filter(|r| !r.default.contains("SHAPE_SCALE"))
            .map(|r| (r.name, r.default))
            .collect();
        assert_eq!(fixed.len(), 5);
        assert_eq!(parse(&fixed), (Knobs::default(), vec![]));
    }

    #[test]
    fn malformed_values_keep_the_default_and_warn_by_name() {
        for (name, raw) in [
            ("RECIPE_LOAD_N", "2M"),
            ("RECIPE_OPS_N", "-1"),
            ("RECIPE_CRASH_POST_N", "1.5"),
            ("RECIPE_CAL_FENCE", "0,9x0"),
            ("RECIPE_CAL_READ", ""),
        ] {
            let (k, warnings) = parse(&[(name, raw)]);
            assert_eq!(k, Knobs::default(), "{name}={raw:?}");
            assert_eq!(warnings.len(), 1, "{name}={raw:?}");
            assert!(warnings[0].starts_with(name), "{}", warnings[0]);
        }
    }

    #[test]
    fn zero_threads_is_refused() {
        let (k, warnings) = parse(&[("RECIPE_THREADS", "0")]);
        assert_eq!(k.threads, None, "the binary's scale keeps its thread count");
        assert_eq!(warnings, vec!["RECIPE_THREADS=\"0\" is below 1; keeping the default"]);
    }

    #[test]
    fn unknown_recipe_names_warn() {
        let (k, warnings) = parse(&[("RECIPE_CLWB_NS", "0"), ("RECIPE_OBS_EVENTS", "1")]);
        assert_eq!(k, Knobs::default());
        assert_eq!(warnings.len(), 2);
        assert!(warnings[0].starts_with("RECIPE_CLWB_NS is not a bench knob"), "{}", warnings[0]);
        assert!(warnings[1].starts_with("RECIPE_OBS_EVENTS is not a bench knob"));
    }

    #[test]
    fn readme_knob_table_lists_exactly_the_table() {
        let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
        let rows: Vec<(String, String)> = readme
            .lines()
            .filter(|l| l.starts_with("| `RECIPE_"))
            .map(|l| {
                let cols: Vec<&str> = l.split('|').map(str::trim).collect();
                (cols[1].trim_matches('`').to_string(), cols[2].to_string())
            })
            .collect();
        let want: Vec<(String, String)> =
            TABLE.iter().map(|r| (r.name.to_string(), r.default.to_string())).collect();
        assert_eq!(rows, want, "README rows `| `NAME` | default | meaning |` must match TABLE");
    }
}
