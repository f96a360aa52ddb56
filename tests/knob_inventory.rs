//! The environment knobs the code reads and the knobs README documents are
//! the same set: a deleted knob cannot linger in the table, a new one
//! cannot appear undocumented, and the count is pinned so that adding one
//! is a decision somebody makes in this file.

use std::collections::BTreeSet;
use std::path::Path;

/// The `"RSPARSE_…"` / `"RCOMM_…"` string literals in one source text.
fn knob_literals(text: &str, into: &mut BTreeSet<String>) {
    for prefix in ["\"RSPARSE_", "\"RCOMM_"] {
        for (at, _) in text.match_indices(prefix) {
            let name = &text[at + 1..];
            let len = name
                .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(name.len());
            if name[len..].starts_with('"') {
                into.insert(name[..len].to_string());
            }
        }
    }
}

fn scan(dir: &Path, into: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            scan(&path, into);
        } else if path.extension().is_some_and(|x| x == "rs") {
            knob_literals(&std::fs::read_to_string(&path).unwrap(), into);
        }
    }
}

/// The first column of README's "Environment knobs" table.
fn documented_knobs(readme: &str) -> BTreeSet<String> {
    let section = readme
        .split_once("\n## Environment knobs\n")
        .expect("README has an \"Environment knobs\" section")
        .1;
    let section = section.split_once("\n## ").map_or(section, |(head, _)| head);
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split_once('`'))
        .map(|(name, _)| name.to_string())
        .collect()
}

#[test]
fn readme_lists_exactly_the_environment_knobs_the_code_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut read = BTreeSet::new();
    // Every crate's `src`; the offline shims under `crates/shims` are one
    // level deeper and read no knobs of this project.
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            scan(&src, &mut read);
        }
    }
    let documented = documented_knobs(&std::fs::read_to_string(root.join("README.md")).unwrap());
    let undocumented: Vec<_> = read.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&read).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "read by the code but not in README's table: {undocumented:?}; \
         in the table but read nowhere: {stale:?}"
    );
    assert_eq!(read.len(), 14, "environment knobs: {read:?}");
}
