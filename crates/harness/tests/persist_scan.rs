//! The conversion is written once, in `recipe::persist`: no index crate spells it
//! out by hand.
//!
//! Every index publishes through `PersistMode::{stage, stage_store, publish,
//! persist_store, publish_same_line}`. A hand `mark_dirty` (a store the primitive
//! did not report), `assert_durable` (a check outside `publish`) or bare
//! `P::fence(` (an ordering fence outside `publish`) in the non-test source of an
//! index crate fails this test, unless it is listed in [`EXCEPTIONS`] with its
//! exact count and a reason.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The crates behind the registry's 11 rows (P-BwTree has two).
const INDEX_CRATES: [&str; 10] =
    ["art", "hot", "bwtree", "masstree", "woart", "fastfair", "cceh", "clht", "levelhash", "apex"];

/// What the primitive replaces.
const HAND_WRITTEN: [&str; 3] = ["mark_dirty", "assert_durable", "P::fence("];

/// `(file under crates/, occurrences, reason)` of a hand-written call the primitive
/// cannot express without adding a fence. None is needed today: the feature-gated
/// paper bugs (`fastfair/durability-bug`, `cceh/doubling-bug`) are written with the
/// primitive too.
const EXCEPTIONS: &[(&str, usize, &str)] = &[];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
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
fn no_index_crate_writes_the_conversion_by_hand() {
    let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut found: BTreeMap<String, usize> = BTreeMap::new();
    for krate in INDEX_CRATES {
        let mut files = Vec::new();
        rust_files(&crates_dir.join(krate).join("src"), &mut files);
        assert!(!files.is_empty(), "{krate}: no sources found");
        for file in files {
            let source = non_test_source(&file);
            let n: usize = HAND_WRITTEN.iter().map(|w| source.matches(w).count()).sum();
            if n > 0 {
                let rel = file.strip_prefix(&crates_dir).expect("under crates/");
                found.insert(rel.to_string_lossy().replace('\\', "/"), n);
            }
        }
    }
    let allowed: BTreeMap<String, usize> =
        EXCEPTIONS.iter().map(|&(file, n, _)| (file.to_owned(), n)).collect();
    assert_eq!(
        found, allowed,
        "hand-written {HAND_WRITTEN:?} in index crates (left) against the exception list \
         (right): publish through recipe::persist instead, or list the file with a reason"
    );
}
