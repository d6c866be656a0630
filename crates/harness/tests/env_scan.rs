//! Only the bench binaries read the environment.
//!
//! Every condition of a run below `bench` is fixed in code: the latency model a
//! caller installs, the event ring's capacity, the service's configuration, the
//! search path of the target. The knobs that scale a bench run are one table in
//! `bench::knobs`. An `env::var`, `env::var_os`, `env::vars` or `env::vars_os` in
//! the non-test source of any other crate under `crates/` fails this test.

use std::path::{Path, PathBuf};

/// The one crate that reads the environment.
const ALLOWED: &str = "bench";

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if !path.ends_with("tests") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The lines before the first `#[cfg(test)]`: the non-test source, by the same
/// rule the line count uses.
fn non_test_source(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("source file is readable");
    text.lines().take_while(|l| !l.starts_with("#[cfg(test)]")).collect::<Vec<_>>().join("\n")
}

#[test]
fn no_crate_but_bench_reads_the_environment() {
    let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut crates: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .expect("crates/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.join("Cargo.toml").is_file() && !p.ends_with(ALLOWED))
        .collect();
    crates.sort();
    assert!(crates.len() >= 17, "expected every crate under crates/, found {}", crates.len());
    let mut found = Vec::new();
    for krate in crates {
        let mut files = Vec::new();
        rust_files(&krate, &mut files);
        for file in files {
            if non_test_source(&file).contains("env::var") {
                let rel = file.strip_prefix(&crates_dir).expect("under crates/");
                found.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    found.sort();
    assert!(
        found.is_empty(),
        "these files read the environment outside `bench`: {found:?}; fix the condition \
         in code, or add a row to bench::knobs::TABLE and pass the value down"
    );
}
