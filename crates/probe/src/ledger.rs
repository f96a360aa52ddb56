//! Solve-ledger plumbing: destination resolution, the per-path write
//! sequence, and the latest-document store.
//!
//! The ledger *content* is assembled by the driver layer (it owns the
//! solve report, the options and the communicator); this module owns the
//! process-global pieces every driver shares: where ledgers go
//! (`RSPARSE_LEDGER` or the `set("ledger", …)` port key), the
//! per-path sequence that keeps repeated solves from clobbering each
//! other, and the last published document so the postmortem writer can
//! embed it (mirroring `probe::critpath::latest_json`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use crate::recorder::{self, LEDGER_ASKED};

/// Default ledger path when armed with a bare switch (`RSPARSE_LEDGER=1`
/// or `set("ledger", "on")`).
pub const DEFAULT_PATH: &str = "solve_ledger.json";

/// Schema tag stamped into every ledger document.
pub const SCHEMA: &str = "rsparse-solve-ledger-v1";

#[derive(Debug, Clone, PartialEq, Eq)]
enum Destination {
    /// No programmatic override: fall back to `RSPARSE_LEDGER`.
    Unset,
    /// Explicitly disabled through the port key.
    Off,
    /// Explicit target path.
    Path(PathBuf),
}

static OVERRIDE: Mutex<Destination> = Mutex::new(Destination::Unset);
static LATEST: Mutex<Option<String>> = Mutex::new(None);
static SEQ: Mutex<BTreeMap<PathBuf, u64>> = Mutex::new(BTreeMap::new());

fn parse_spec(spec: &str) -> Destination {
    let spec = spec.trim();
    match spec.to_ascii_lowercase().as_str() {
        "" | "off" | "0" | "none" | "false" => Destination::Off,
        "1" | "on" | "true" => Destination::Path(PathBuf::from(DEFAULT_PATH)),
        _ => Destination::Path(PathBuf::from(spec)),
    }
}

/// A ledger needs the span table even when no probe sink is selected,
/// so having a destination *is* asking for [`crate::Level::Spans`]: the
/// level follows the destination, and nothing is left to release.
fn set_override(dest: Destination) {
    *OVERRIDE.lock().unwrap_or_else(|e| e.into_inner()) = dest;
    recorder::ask(LEDGER_ASKED, if armed().is_some() { LEDGER_ASKED } else { 0 });
}

/// Set the ledger destination programmatically (the `set("ledger", …)`
/// reserved port key). `off|0|none|false` disables emission, `1|on|true`
/// selects [`DEFAULT_PATH`], anything else is the target path. The
/// override beats `RSPARSE_LEDGER` until [`clear_destination`].
pub fn set_destination(spec: &str) {
    set_override(parse_spec(spec));
}

/// Drop the programmatic destination; `RSPARSE_LEDGER` applies again.
pub fn clear_destination() {
    set_override(Destination::Unset);
}

/// Resolve the ledger destination: the programmatic override when set,
/// else `RSPARSE_LEDGER` (same grammar; read once per process), else
/// `None` (the default — emission off).
pub fn armed() -> Option<PathBuf> {
    static ENV: OnceLock<Option<PathBuf>> = OnceLock::new();
    match &*OVERRIDE.lock().unwrap_or_else(|e| e.into_inner()) {
        Destination::Off => return None,
        Destination::Path(p) => return Some(p.clone()),
        Destination::Unset => {}
    }
    ENV.get_or_init(|| match std::env::var("RSPARSE_LEDGER").map(|v| parse_spec(&v)) {
        Ok(Destination::Path(p)) => Some(p),
        _ => None,
    })
    .clone()
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

    #[test]
    fn spec_grammar_matches_the_postmortem_switch() {
        assert_eq!(parse_spec("off"), Destination::Off);
        assert_eq!(parse_spec("0"), Destination::Off);
        assert_eq!(parse_spec(""), Destination::Off);
        assert_eq!(parse_spec("1"), Destination::Path(PathBuf::from(DEFAULT_PATH)));
        assert_eq!(parse_spec("on"), Destination::Path(PathBuf::from(DEFAULT_PATH)));
        assert_eq!(parse_spec("/tmp/x.json"), Destination::Path(PathBuf::from("/tmp/x.json")));
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
