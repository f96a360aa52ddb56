//! Failure postmortems: the flight recorder's black-box dump.
//!
//! When a resilient solve ends badly — every retry exhausted — or ends
//! well only after a recovery, each rank snapshots its flight-recorder
//! tail (see `probe::flight`), its residual history and its non-zero
//! counters into a JSON fragment; the fragments are gathered onto rank 0
//! over the driver's own communicator and written as **one** structured
//! `postmortem.json` for the whole cohort. The document records what the
//! cohort was doing in its final moments: the trigger, the active fault
//! plan and which rules actually fired, the recovery path the driver
//! walked, and the last-N timestamped events of every rank.
//!
//! Gather protocol: the fragments travel over the *original* driver
//! communicator (never a per-attempt `dup()` — under rank-divergent
//! failures the dup counters themselves diverge, and a context-mismatched
//! collective would hang). The driver runs no other collectives on that
//! communicator, so the gather is context-clean whenever the cohort
//! reaches the postmortem in lockstep. If ranks diverge instead (one
//! exhausts while its peers recover), the deadlock watchdog converts the
//! lonely gather into an error within `RCOMM_DEADLOCK_TIMEOUT_SECS`, and
//! the writing rank falls back to a process-local registry snapshot
//! (`probe::flight::tails_by_rank`) — ranks are threads of one
//! process, so the fallback still captures every rank's tail.
//!
//! The path defaults to `postmortem.json` in the working directory (as
//! does `RSPARSE_POSTMORTEM=1|on|true`); `off|0|none|false` disables the
//! dump entirely and any other non-empty value overrides the path — the
//! grammar the solve ledger's destination shares.

use std::path::PathBuf;

use probe::flight;
use probe::json::{escape as json_escape, number};
use rcomm::Communicator;

use crate::status::SolveReport;

/// Schema tag stamped into every postmortem document.
pub const SCHEMA: &str = "lisi-postmortem-v1";

/// Default output path (relative to the working directory).
pub const DEFAULT_PATH: &str = "postmortem.json";

/// Resolve the postmortem destination from `RSPARSE_POSTMORTEM` (the
/// grammar of [`probe::ledger::parse_destination`], on by default):
/// `None` when dumps are disabled, otherwise the target path.
pub fn path() -> Option<PathBuf> {
    let spec = std::env::var("RSPARSE_POSTMORTEM").ok();
    probe::ledger::parse_destination(spec.as_deref(), DEFAULT_PATH, true)
}

fn report_json(report: &SolveReport) -> String {
    format!(
        "{{\"converged\":{},\"iterations\":{},\"residual\":{},\"setup_seconds\":{},\
         \"solve_seconds\":{},\"reason\":{},\"attempts\":{},\"recovery\":{},\"cohort\":{}}}",
        report.converged,
        report.iterations,
        number(report.residual),
        number(report.setup_seconds),
        number(report.solve_seconds),
        report.reason,
        report.attempts,
        report.recovery,
        report.cohort,
    )
}

/// What an elastic shrink did to the cohort — stamped into the
/// postmortem as the `cohort_change` object so a dump of a survived
/// rank loss names the casualty, the survivor remapping and where the
/// restarted solve picked up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CohortChange {
    /// World rank that was declared lost.
    pub lost_rank: usize,
    /// Cohort size before the shrink.
    pub old_size: usize,
    /// Cohort size after the shrink.
    pub new_size: usize,
    /// Surviving world ranks in new-rank order: `survivors[new]` is the
    /// world rank now serving dense rank `new`.
    pub survivors: Vec<usize>,
    /// Checkpoint iteration the solve resumed from (0 = restarted from
    /// the caller's initial guess; no consistent checkpoint existed).
    pub resumed_iteration: usize,
}

impl CohortChange {
    fn json(&self) -> String {
        let survivors: Vec<String> =
            self.survivors.iter().map(|r| r.to_string()).collect();
        format!(
            "{{\"lost_rank\":{},\"old_size\":{},\"new_size\":{},\
             \"survivors\":[{}],\"resumed_iteration\":{}}}",
            self.lost_rank,
            self.old_size,
            self.new_size,
            survivors.join(","),
            self.resumed_iteration,
        )
    }
}

/// The residual history a tail's `Iter` events replay, in order.
fn residuals_json(tail: &[probe::Event]) -> String {
    let residuals: Vec<String> = tail
        .iter()
        .filter_map(|e| match e.kind {
            probe::EventKind::Iter { residual, .. } => Some(number(residual)),
            _ => None,
        })
        .collect();
    format!("[{}]", residuals.join(","))
}

/// One rank's contribution: its tail, residual history, counters and
/// notes (e.g. the chosen SpMV format).
fn rank_fragment(rank: usize) -> String {
    let (tail, total) = flight::local_tail();
    format!(
        "{{\"rank\":{rank},\"trace_id\":{},\"events_recorded\":{total},{},\
         \"residual_history\":{},\"events\":{}}}",
        probe::trace::current(),
        probe::local_report().counters_and_notes_json(),
        residuals_json(&tail),
        flight::tail_json(&tail),
    )
}

/// Fallback fragments from the process-wide recorder registry, used when
/// the cohort gather cannot complete (rank-divergent termination).
fn registry_fragments() -> Vec<String> {
    flight::tails_by_rank()
        .into_iter()
        .map(|(rank, tail)| {
            let rank =
                rank.map(|r| r.to_string()).unwrap_or_else(|| "null".into());
            format!(
                "{{\"rank\":{rank},\"trace_id\":{},\"events_recorded\":{},\"counters\":{{}},\
                 \"notes\":{{}},\"residual_history\":[],\"events\":{}}}",
                flight::latest_solve(&tail),
                tail.len(),
                flight::tail_json(&tail),
            )
        })
        .collect()
}

/// Assemble the full postmortem document from its pieces. Public so
/// schema-conformance tests can build a document without staging a
/// whole failed cohort; applications should go through
/// [`write_cohort`].
#[allow(clippy::too_many_arguments)] // one positional arg per document section
pub fn assemble(
    trigger: &str,
    ranks: usize,
    policy_spec: &str,
    recovery_path: &[String],
    report: &SolveReport,
    cohort_change: Option<&CohortChange>,
    gathered: &str,
    fragments: &[String],
) -> String {
    let fault_plan = rcomm::fault::active_plan()
        .map(|p| format!("\"{}\"", json_escape(&p.spec())))
        .unwrap_or_else(|| "null".into());
    let fired: Vec<String> =
        rcomm::fault::fired_rule_ids().iter().map(|i| i.to_string()).collect();
    let path: Vec<String> = recovery_path
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    let cohort_change =
        cohort_change.map(|c| c.json()).unwrap_or_else(|| "null".into());
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"trace_id\": {},\n  \"trigger\": \"{}\",\n  \"ranks\": {ranks},\n  \
         \"gathered\": \"{gathered}\",\n  \"policy\": \"{}\",\n  \"recovery_path\": [{}],\n  \
         \"fault_plan\": {fault_plan},\n  \"fault_rules_fired\": [{}],\n  \"report\": {},\n  \
         \"cohort_change\": {cohort_change},\n  \
         \"critical_path\": {},\n  \
         \"ledger\": {},\n  \
         \"rank_tails\": [\n    {}\n  ]\n}}\n",
        probe::trace::current(),
        json_escape(trigger),
        json_escape(policy_spec),
        path.join(", "),
        fired.join(", "),
        report_json(report),
        probe::critpath::latest_json(),
        probe::ledger::latest_json(),
        fragments.join(",\n    "),
    )
}

/// Gather every rank's flight-recorder tail and write the cohort's
/// postmortem document.
///
/// Call this from every rank that reached the trigger; rank 0 (or, on a
/// failed gather, whichever rank fell back to the registry snapshot)
/// writes the file. Returns the path written by *this* rank, `None` when
/// this rank was a non-root contributor or dumps are disabled. I/O and
/// gather failures degrade — the postmortem is diagnostics, it must
/// never turn a structured solve verdict into a crash.
pub fn write_cohort(
    comm: &Communicator,
    trigger: &str,
    report: &SolveReport,
    policy_spec: &str,
    recovery_path: &[String],
    cohort_change: Option<&CohortChange>,
) -> Option<PathBuf> {
    let base = path()?;
    let ranks = comm.size();
    let doc = match comm.gather(0, rank_fragment(comm.rank())) {
        Ok(Some(fragments)) => assemble(
            trigger,
            ranks,
            policy_spec,
            recovery_path,
            report,
            cohort_change,
            "cohort",
            &fragments,
        ),
        Ok(None) => return None, // non-root: rank 0 writes
        Err(_) => {
            // Divergent cohort: the gather could not complete. Snapshot
            // the registry instead — same process, every tail is local.
            let fragments = registry_fragments();
            assemble(
                trigger,
                ranks,
                policy_spec,
                recovery_path,
                report,
                cohort_change,
                "registry",
                &fragments,
            )
        }
    };
    // `postmortem.json`, `postmortem.1.json`, …: never clobber an earlier
    // dump. Advance the sequence only on the rank that writes, so non-root
    // contributors (which return above) never consume a slot.
    let dest = probe::ledger::sequenced_dest(&base);
    match std::fs::write(&dest, doc) {
        Ok(()) => {
            probe::emit_jsonl(&format!(
                "{{\"event\":\"postmortem\",\"trigger\":\"{}\",\"path\":\"{}\"}}",
                json_escape(trigger),
                json_escape(&dest.display().to_string()),
            ));
            Some(dest)
        }
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quotes, backslashes and control bytes in the free-text sections
    /// parse back out of the document as they went in.
    #[test]
    fn escaping_handles_quotes_and_control_bytes() {
        let (trigger, policy, step) = ("a\"b\\c\nd", "rksp:solver=cg\u{1}", "x\ty");
        let rep = SolveReport::default();
        let doc = assemble(trigger, 1, policy, &[step.into()], &rep, None, "cohort", &[]);
        let v = serde_json::from_str(&doc).expect("the postmortem parses");
        assert_eq!(v["trigger"].as_str(), Some(trigger));
        assert_eq!(v["policy"].as_str(), Some(policy));
        assert_eq!(v["recovery_path"][0].as_str(), Some(step));
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        let rep = SolveReport {
            residual: f64::NAN,
            setup_seconds: f64::INFINITY,
            solve_seconds: 1.5,
            ..SolveReport::default()
        };
        let v = serde_json::from_str(&report_json(&rep)).expect("the report block parses");
        assert!(v["residual"].is_null() && v["setup_seconds"].is_null());
        assert_eq!(v["solve_seconds"].as_f64(), Some(1.5));
    }

    #[test]
    fn sequenced_destinations_never_repeat() {
        use probe::ledger::sequenced_dest;
        let base = PathBuf::from("/tmp/lisi-test-seq/pm.json");
        assert_eq!(sequenced_dest(&base), base);
        assert_eq!(sequenced_dest(&base), PathBuf::from("/tmp/lisi-test-seq/pm.1.json"));
        assert_eq!(sequenced_dest(&base), PathBuf::from("/tmp/lisi-test-seq/pm.2.json"));
        // Extension-less paths get a plain numeric suffix.
        let bare = PathBuf::from("/tmp/lisi-test-seq/pm-bare");
        assert_eq!(sequenced_dest(&bare), bare);
        assert_eq!(sequenced_dest(&bare), PathBuf::from("/tmp/lisi-test-seq/pm-bare.1"));
        // Distinct configured paths keep independent counters.
        let other = PathBuf::from("/tmp/lisi-test-seq/other.json");
        assert_eq!(sequenced_dest(&other), other);
    }

    #[test]
    fn assembled_document_is_balanced_json_with_the_schema_tag() {
        let rep = SolveReport { converged: false, attempts: 3, recovery: -1, ..Default::default() };
        let doc = assemble(
            "exhausted",
            2,
            "cg:solver=cg -> lu",
            &["cg#1: swap: boom".into(), "lu#2: exhausted: boom".into()],
            &rep,
            None,
            "cohort",
            &["{\"rank\":0}".into(), "{\"rank\":1}".into()],
        );
        assert!(doc.contains("\"schema\": \"lisi-postmortem-v1\""));
        assert!(doc.contains("\"trigger\": \"exhausted\""));
        assert!(doc.contains("\"rank\":1"));
        assert!(doc.contains("\"cohort_change\": null"));
        let depth = doc.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "braces/brackets balance");
    }

    #[test]
    fn cohort_change_serializes_the_survivor_mapping() {
        let change = CohortChange {
            lost_rank: 2,
            old_size: 4,
            new_size: 3,
            survivors: vec![0, 1, 3],
            resumed_iteration: 20,
        };
        let rep = SolveReport { converged: true, recovery: 3, cohort: 3, ..Default::default() };
        let doc = assemble(
            "recovered",
            4,
            "rksp:solver=cg",
            &["rksp#2: shrink: rank 2 lost from cohort".into()],
            &rep,
            Some(&change),
            "cohort",
            &["{\"rank\":0}".into()],
        );
        assert!(doc.contains(
            "\"cohort_change\": {\"lost_rank\":2,\"old_size\":4,\"new_size\":3,\
             \"survivors\":[0,1,3],\"resumed_iteration\":20}"
        ));
        assert!(doc.contains("\"cohort\":3"));
        let depth = doc.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "braces/brackets balance");
    }
}
