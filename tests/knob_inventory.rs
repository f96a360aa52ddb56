//! The environment knobs the code reads and the knobs README documents are
//! the same set: a deleted knob cannot linger in the table, a new one
//! cannot appear undocumented, and the count is pinned so that adding one
//! is a decision somebody makes in this file.

use std::collections::BTreeSet;
use std::path::Path;

/// The name of the `fn` or closure whose body starts last before `at`:
/// `fn NAME(` or `let NAME = |`.
fn enclosing_helper(text: &str, at: usize) -> Option<&str> {
    let head = &text[..at];
    let closure = head.rfind("let ").filter(|&l| head[l..].contains("= |"));
    let (name, end) = match (closure, head.rfind("fn ")) {
        (Some(l), f) if f < Some(l) => (&head[l + 4..], " ="),
        (_, Some(f)) => (&head[f + 3..], "("),
        _ => return None,
    };
    Some(&name[..name.find(end)?])
}

/// The string literal that opens `args` (the text after a call's `(`).
fn leading_literal(args: &str) -> Option<&str> {
    let quoted = args.trim_start().strip_prefix('"')?;
    Some(&quoted[..quoted.find('"')?])
}

/// Each call of `callee` in `text`: where its argument list starts, and
/// the text from there on.
fn args_of<'t>(text: &'t str, callee: &str) -> Vec<(usize, &'t str)> {
    let open = format!("{callee}(");
    text.match_indices(&open)
        .map(|(at, _)| at + open.len())
        .map(|end| (end, &text[end..]))
        .collect()
}

/// Every string literal one source text hands to `env::var` / `var_os`,
/// whatever it is called: directly (`env::var("X")`), or as the first
/// argument of a helper in the same file that passes its parameter on (`fn
/// env_usize(key, …)`, `let var = |name| …`). A read this cannot resolve
/// to literals — a computed name, a helper in another file — panics, so
/// nothing the process reads from its environment escapes the table.
fn knob_literals(path: &Path, text: &str, into: &mut BTreeSet<String>) {
    const DIRECT: [&str; 2] = ["env::var", "env::var_os"];
    let mut readers = DIRECT.to_vec();
    for direct in DIRECT {
        for (end, args) in args_of(text, direct) {
            if leading_literal(args).is_none() {
                let helper = enclosing_helper(text, end)
                    .unwrap_or_else(|| panic!("{}: {direct} of a computed name", path.display()));
                readers.push(helper);
            }
        }
    }
    for reader in readers {
        let names: Vec<&str> = args_of(text, reader)
            .into_iter()
            .filter_map(|(_, args)| leading_literal(args))
            .collect();
        assert!(
            DIRECT.contains(&reader) || !names.is_empty(),
            "{}: helper `{reader}` reads the environment but is never given a literal",
            path.display()
        );
        into.extend(names.into_iter().map(String::from));
    }
}

fn scan(dir: &Path, into: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            scan(&path, into);
        } else if path.extension().is_some_and(|x| x == "rs") {
            knob_literals(&path, &std::fs::read_to_string(&path).unwrap(), into);
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
    // Every crate's `src`, bins included; the offline shims under
    // `crates/shims` are one level deeper and are not this project's code.
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
    assert_eq!(read.len(), 10, "environment knobs: {read:?}");
}
