//! The conversion is written once, in `recipe::persist`: no index crate spells it
//! out by hand.
//!
//! Every index publishes through `PersistMode::{stage, stage_store, publish,
//! persist_store, publish_same_line}`. A hand `mark_dirty` (a store the primitive
//! did not report), `assert_durable` (a check outside `publish`) or bare
//! `P::fence(` (an ordering fence outside `publish`) in the non-test source of an
//! index crate fails this test, unless it is listed in [`EXCEPTIONS`] with its
//! exact count and a reason.
//!
//! So does a slot argument that borrows a call's result: `stage_store(&n.key(s),
//! ..)` where `key` returns `&AtomicU64` passes a `&&AtomicU64`, so the primitive
//! reports and flushes the caller's stack slot holding the reference, and every
//! check still passes. A slot bound first (`let v = &n.val(s);`, then
//! `persist_store(v, ..)`) is the same mistake and is caught too. Pass the
//! accessor's result itself.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The crates behind the registry's 11 rows (P-BwTree has two).
const INDEX_CRATES: [&str; 10] =
    ["art", "hot", "bwtree", "masstree", "woart", "fastfair", "cceh", "clht", "levelhash", "apex"];

/// What the primitive replaces.
const HAND_WRITTEN: [&str; 3] = ["mark_dirty", "assert_durable", "P::fence("];

/// The primitives whose first argument is the slot they report and flush.
const SLOT_TAKERS: [&str; 4] = ["stage_store(", "persist_store(", "publish(", "publish_same_line("];

/// `(file under crates/, occurrences, reason)` of a hand-written call the primitive
/// cannot express without adding a fence, or of a slot argument that borrows a
/// call's result on purpose. None is needed today: the feature-gated paper bugs
/// (`fastfair/durability-bug`, `cceh/doubling-bug`) are written with the primitive
/// too.
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

/// The first argument of the call whose `(` ends `source[..open]`, trimmed: the
/// text up to the first comma or closing parenthesis outside any nesting.
fn first_argument(source: &str, open: usize) -> &str {
    let mut depth = 0usize;
    for (i, c) in source[open..].char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' if depth == 0 => return source[open..open + i].trim(),
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 => return source[open..open + i].trim(),
            _ => {}
        }
    }
    source[open..].trim()
}

/// Whether `expr` is `&` (or `&mut`) applied to a call: its last postfix step is
/// `name(..)` or `name::<..>(..)`, so the reference points at a temporary.
fn borrows_a_call(expr: &str) -> bool {
    let Some(inner) = expr.strip_prefix('&') else { return false };
    let inner = inner.trim_start().strip_prefix("mut ").unwrap_or(inner).trim();
    if !inner.ends_with(')') {
        return false;
    }
    let mut depth = 0usize;
    for (i, c) in inner.char_indices().rev() {
        match c {
            ')' | ']' => depth += 1,
            '(' | '[' => {
                depth -= 1;
                if depth == 0 {
                    let callee = inner[..i].trim_end();
                    return callee.ends_with(|c: char| c.is_alphanumeric() || c == '_' || c == '>');
                }
            }
            _ => {}
        }
    }
    false
}

/// Slot arguments of [`SLOT_TAKERS`] in `source` that borrow a call's result,
/// directly or through a `let name = &..;` binding of the same file.
fn slots_borrowing_a_call(source: &str) -> Vec<String> {
    let bound: Vec<&str> = source
        .match_indices("let ")
        .filter_map(|(at, _)| {
            let (name, rest) = source[at + 4..].split_once('=')?;
            let name = name.trim().trim_start_matches("mut ");
            let simple = name.chars().all(|c| c.is_alphanumeric() || c == '_');
            (simple && borrows_a_call(rest.split(';').next()?.trim())).then_some(name)
        })
        .collect();
    let mut found = Vec::new();
    for taker in SLOT_TAKERS {
        for (at, _) in source.match_indices(taker) {
            // Only a whole identifier names the primitive.
            let before = source[..at].chars().next_back();
            if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
            let arg = first_argument(source, at + taker.len());
            if borrows_a_call(arg) || bound.contains(&arg) {
                found.push(format!("{taker}{arg}"));
            }
        }
    }
    found
}

#[test]
fn the_scan_recognises_a_borrowed_call_result() {
    for slot in ["&node.key(s)", "& n.pair(slot)", "&mut x.get::<u8>(0)", "&f()"] {
        assert!(borrows_a_call(slot), "{slot}");
    }
    for slot in ["&hdr.count", "&n.children[slot]", "&n.index[b as usize / 8]", "&(x)", "v"] {
        assert!(!borrows_a_call(slot), "{slot}");
    }
    let source = "
        // An update.
        let v = &node.val(slot);
        P::persist_store(v, || v.store(1, R));
        P::publish(
            &t.root,
            || ());
        P::stage_store(&n.key(s), || ());
        P::stage_store(node.key(s), || ());
        let w = node.val(0);";
    assert_eq!(
        slots_borrowing_a_call(source),
        ["stage_store(&n.key(s)", "persist_store(v"],
        "the borrowed-call slots of {source:?}"
    );
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
            let n: usize = HAND_WRITTEN.iter().map(|w| source.matches(w).count()).sum::<usize>()
                + slots_borrowing_a_call(&source).len();
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
        "hand-written {HAND_WRITTEN:?}, or slots borrowed from a call's result, in index \
         crates (left) against the exception list (right): publish through recipe::persist \
         with the accessor's result itself, or list the file with a reason"
    );
}
