//! Solve-ledger plumbing (the driver layer assembles the content): where
//! ledgers go — `RSPARSE_LEDGER` or the `set("ledger", …)` port key, in the
//! destination grammar the postmortem shares — the per-path sequence that
//! keeps repeated solves from clobbering each other, and the last
//! published document, which the postmortem embeds.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use crate::recorder::{self, LEDGER_ASKED};

/// Default ledger path when armed with a bare switch (`RSPARSE_LEDGER=1`
/// or `set("ledger", "on")`).
pub const DEFAULT_PATH: &str = "solve_ledger.json";

/// Schema tag stamped into every ledger document.
pub const SCHEMA: &str = "rsparse-solve-ledger-v1";

/// The programmatic destination: `None` defers to `RSPARSE_LEDGER`,
/// `Some(None)` is explicitly off, `Some(Some(path))` the target.
static OVERRIDE: Mutex<Option<Option<PathBuf>>> = Mutex::new(None);
static LATEST: Mutex<Option<String>> = Mutex::new(None);
static SEQ: Mutex<BTreeMap<PathBuf, u64>> = Mutex::new(BTreeMap::new());

/// The one grammar of a knob naming an output file (`RSPARSE_LEDGER`,
/// `set("ledger", …)`, `RSPARSE_POSTMORTEM`), each knob passing its own
/// defaults: unset or empty is `default` if `on_if_unset` and off
/// otherwise, `off|0|none|false` is off, `1|on|true` is `default`,
/// anything else is the path.
pub fn parse_destination(spec: Option<&str>, default: &str, on_if_unset: bool) -> Option<PathBuf> {
    let spec = spec.unwrap_or("").trim();
    match spec.to_ascii_lowercase().as_str() {
        "" if on_if_unset => Some(PathBuf::from(default)),
        "" | "off" | "0" | "none" | "false" => None,
        "1" | "on" | "true" => Some(PathBuf::from(default)),
        _ => Some(PathBuf::from(spec)),
    }
}

/// A ledger needs the span table even when no probe sink is selected,
/// so having a destination *is* asking for [`crate::Level::Spans`]: the
/// level follows the destination, and nothing is left to release.
fn set_override(dest: Option<Option<PathBuf>>) {
    *OVERRIDE.lock().unwrap_or_else(|e| e.into_inner()) = dest;
    recorder::ask(LEDGER_ASKED, if armed().is_some() { LEDGER_ASKED } else { 0 });
}

/// Set the ledger destination programmatically (the `set("ledger", …)`
/// reserved port key), in the grammar of [`parse_destination`] with
/// [`DEFAULT_PATH`]. The override beats `RSPARSE_LEDGER` until
/// [`clear_destination`].
pub fn set_destination(spec: &str) {
    set_override(Some(parse_destination(Some(spec), DEFAULT_PATH, false)));
}

/// Drop the programmatic destination; `RSPARSE_LEDGER` applies again.
pub fn clear_destination() {
    set_override(None);
}

/// Resolve the ledger destination: the programmatic override when set,
/// else `RSPARSE_LEDGER` (same grammar; read once per process), else
/// `None` (the default — emission off).
pub fn armed() -> Option<PathBuf> {
    static ENV: OnceLock<Option<PathBuf>> = OnceLock::new();
    if let Some(dest) = &*OVERRIDE.lock().unwrap_or_else(|e| e.into_inner()) {
        return dest.clone();
    }
    let env = || std::env::var("RSPARSE_LEDGER").ok();
    ENV.get_or_init(|| parse_destination(env().as_deref(), DEFAULT_PATH, false)).clone()
}

/// Pick a destination that does not clobber an earlier ledger from this
/// process: the first write for a configured path uses the path as-is,
/// later ones insert a monotonic sequence before the extension
/// (`solve_ledger.json`, `solve_ledger.1.json`, …) — the same contract
/// as the postmortem writer.
pub fn sequenced_dest(base: &Path) -> PathBuf {
    let mut seq = SEQ.lock().unwrap_or_else(|e| e.into_inner());
    let n = seq.entry(base.to_path_buf()).or_insert(0);
    let dest = if *n == 0 {
        base.to_path_buf()
    } else {
        match base.extension().and_then(|e| e.to_str()) {
            Some(ext) => base.with_extension(format!("{n}.{ext}")),
            None => {
                let mut name = base.as_os_str().to_os_string();
                name.push(format!(".{n}"));
                PathBuf::from(name)
            }
        }
    };
    *n += 1;
    dest
}

/// Record `doc` as the latest ledger (for postmortem embedding) and
/// write it to the next sequenced destination under `base`. Returns the
/// path written. I/O failure still publishes the in-memory document —
/// the ledger is diagnostics and must never fail a solve.
pub fn publish(base: &Path, doc: String) -> std::io::Result<PathBuf> {
    let dest = sequenced_dest(base);
    let result = std::fs::write(&dest, &doc).map(|()| dest);
    *LATEST.lock().unwrap_or_else(|e| e.into_inner()) = Some(doc);
    result
}

/// The most recently published ledger document, or `"null"` — embedded
/// verbatim into postmortem dumps.
pub fn latest_json() -> String {
    LATEST
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
        .unwrap_or_else(|| "null".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every spelling, read by both knobs: the ledger (off unless asked)
    /// and the postmortem (on unless told off), each with its own path.
    #[test]
    fn spec_grammar_matches_the_postmortem_switch() {
        const PM: &str = lisi::postmortem::DEFAULT_PATH;
        // (spec, ledger, postmortem)
        let table: [(Option<&str>, Option<&str>, Option<&str>); 12] = [
            (None, None, Some(PM)),
            (Some(""), None, Some(PM)),
            (Some("  "), None, Some(PM)),
            (Some("off"), None, None),
            (Some("0"), None, None),
            (Some("None"), None, None),
            (Some("false"), None, None),
            (Some("1"), Some(DEFAULT_PATH), Some(PM)),
            (Some("ON"), Some(DEFAULT_PATH), Some(PM)),
            (Some("true"), Some(DEFAULT_PATH), Some(PM)),
            (Some("/tmp/x.json"), Some("/tmp/x.json"), Some("/tmp/x.json")),
            (Some(" rel/y.json "), Some("rel/y.json"), Some("rel/y.json")),
        ];
        for (spec, ledger, postmortem) in table {
            let path = |p: Option<&str>| p.map(PathBuf::from);
            assert_eq!(parse_destination(spec, DEFAULT_PATH, false), path(ledger), "ledger {spec:?}");
            assert_eq!(parse_destination(spec, PM, true), path(postmortem), "postmortem {spec:?}");
        }
    }

    #[test]
    fn sequenced_destinations_never_repeat() {
        let base = PathBuf::from("/tmp/lisi-test-ledger-seq/ledger.json");
        assert_eq!(sequenced_dest(&base), base);
        assert_eq!(
            sequenced_dest(&base),
            PathBuf::from("/tmp/lisi-test-ledger-seq/ledger.1.json")
        );
        let bare = PathBuf::from("/tmp/lisi-test-ledger-seq/ledger-bare");
        assert_eq!(sequenced_dest(&bare), bare);
        assert_eq!(
            sequenced_dest(&bare),
            PathBuf::from("/tmp/lisi-test-ledger-seq/ledger-bare.1")
        );
    }

    #[test]
    fn publish_stores_the_latest_document() {
        let dir = std::env::temp_dir().join("rsparse_ledger_publish_test");
        let _ = std::fs::create_dir_all(&dir);
        let base = dir.join("ledger.json");
        let doc = format!("{{\"schema\":\"{SCHEMA}\",\"marker\":1}}");
        let dest = publish(&base, doc.clone()).expect("write ledger");
        assert_eq!(std::fs::read_to_string(&dest).unwrap(), doc);
        assert_eq!(latest_json(), doc);
        let _ = std::fs::remove_file(&dest);
    }
}
