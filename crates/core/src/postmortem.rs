//! Failure postmortems: the flight recorder's black-box dump.
//!
//! When a resilient solve ends badly — every retry exhausted — or ends
//! well only after a recovery, each rank snapshots its flight-recorder
//! tail (see `probe::flight`), its residual history and its non-zero
//! counters into a JSON fragment; the fragments are gathered onto rank 0
//! over the driver's own communicator and written as **one** structured
//! `postmortem.json` for the whole cohort. The document records what the
//! cohort was doing in its final moments: the trigger, the launch's fault
//! plan and which rules actually fired, the recovery path the driver
//! walked, and the last-N timestamped events of every rank. The
//! `recovery_path` and `cohort_change` sections are rendered from the
//! driver's [`probe::EventKind::Attempt`] events, the one record of the
//! recovery.
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

use probe::json::{escape as json_escape, number};
use probe::{flight, AttemptOutcome, Event, EventKind};
use rcomm::{Communicator, FaultPlan};

use crate::resilient::RetryPolicy;
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

/// One `recovery_path` entry per `Attempt` event but the starts:
/// `backend#attempt: phase[: detail]`, the backend named by the event's
/// slot in `policy`.
fn recovery_path(policy: &RetryPolicy, attempts: &[Event]) -> String {
    let steps: Vec<String> = attempts
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Attempt { outcome: AttemptOutcome::Start, .. } => None,
            EventKind::Attempt { slot, attempt, outcome } => {
                let backend = policy.attempts.get(slot as usize).map_or("?", |a| &a.backend);
                let (phase, cause) = outcome.describe();
                let detail = match outcome {
                    AttemptOutcome::Shrink { lost, new_size, resumed_iteration } => format!(
                        ": rank {lost} lost, cohort {} -> {new_size}, resume at iteration \
                         {resumed_iteration}",
                        new_size + 1
                    ),
                    _ => cause.map(|c| format!(": {c}")).unwrap_or_default(),
                };
                let step = format!("{backend}#{attempt}: {phase}{detail}");
                Some(format!("\"{}\"", json_escape(&step)))
            }
            _ => None,
        })
        .collect();
    format!("[{}]", steps.join(", "))
}

/// What the last shrink did to the cohort — the casualty, the sizes, the
/// surviving world ranks in new-rank order (`survivors[new]` serves dense
/// rank `new`) and the checkpoint iteration the solve resumed from (0 =
/// from scratch) — or `null` when the cohort never changed.
fn cohort_change(attempts: &[Event], survivors: &[usize]) -> String {
    let last_shrink = attempts.iter().rev().find_map(|e| match e.kind {
        EventKind::Attempt {
            outcome: AttemptOutcome::Shrink { lost, new_size, resumed_iteration },
            ..
        } => Some((lost, new_size, resumed_iteration)),
        _ => None,
    });
    let Some((lost, new_size, resumed_iteration)) = last_shrink else {
        return "null".into();
    };
    let survivors: Vec<String> = survivors.iter().map(|r| r.to_string()).collect();
    format!(
        "{{\"lost_rank\":{lost},\"old_size\":{},\"new_size\":{new_size},\
         \"survivors\":[{}],\"resumed_iteration\":{resumed_iteration}}}",
        new_size + 1,
        survivors.join(","),
    )
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
            let rank = rank.map(|r| r.to_string()).unwrap_or_else(|| "null".into());
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

/// Assemble the full postmortem document from its pieces: `attempts`
/// are the solve's `Attempt` events, `survivors` the world ranks of the
/// cohort the solve ended on, `faults` the launch's fault plan and the
/// indices of its rules that fired. Public so schema-conformance tests can
/// build a document without staging a whole failed cohort; applications
/// should go through [`write_cohort`].
#[allow(clippy::too_many_arguments)] // one positional arg per document section
pub fn assemble(
    trigger: &str,
    ranks: usize,
    policy: &RetryPolicy,
    attempts: &[Event],
    survivors: &[usize],
    faults: Option<(&FaultPlan, &[usize])>,
    report: &SolveReport,
    gathered: &str,
    fragments: &[String],
) -> String {
    let (fault_plan, fired) = match faults {
        Some((plan, fired)) => (format!("\"{}\"", json_escape(&plan.spec())), fired),
        None => ("null".into(), &[][..]),
    };
    let fired: Vec<String> = fired.iter().map(|i| i.to_string()).collect();
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"trace_id\": {},\n  \"trigger\": \"{}\",\n  \"ranks\": {ranks},\n  \
         \"gathered\": \"{gathered}\",\n  \"policy\": \"{}\",\n  \"recovery_path\": {},\n  \
         \"fault_plan\": {fault_plan},\n  \"fault_rules_fired\": [{}],\n  \"report\": {},\n  \
         \"cohort_change\": {},\n  \
         \"critical_path\": {},\n  \
         \"ledger\": {},\n  \
         \"rank_tails\": [\n    {}\n  ]\n}}\n",
        probe::trace::current(),
        json_escape(trigger),
        json_escape(&policy.spec()),
        recovery_path(policy, attempts),
        fired.join(", "),
        report_json(report),
        cohort_change(attempts, survivors),
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
    policy: &RetryPolicy,
    attempts: &[Event],
) -> Option<PathBuf> {
    let base = path()?;
    let (gathered, fragments) = match comm.gather(0, rank_fragment(comm.rank())) {
        Ok(Some(fragments)) => ("cohort", fragments),
        Ok(None) => return None, // non-root: rank 0 writes
        // Divergent cohort: the gather could not complete. Snapshot the
        // registry instead — same process, every tail is local.
        Err(_) => ("registry", registry_fragments()),
    };
    let fired = comm.fired_rule_ids();
    let doc = assemble(
        trigger,
        comm.size(),
        policy,
        attempts,
        comm.world_members(),
        comm.fault_plan().map(|plan| (plan, &fired[..])),
        report,
        gathered,
        &fragments,
    );
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

    use crate::resilient::AttemptSpec;

    /// An `Attempt` event as the driver commits it.
    fn attempt(slot: u32, attempt: u32, outcome: AttemptOutcome) -> Event {
        Event { t0_ns: 0, t1_ns: 0, solve: 1, kind: EventKind::Attempt { slot, attempt, outcome } }
    }

    fn policy(spec: &str) -> RetryPolicy {
        RetryPolicy::parse(spec).unwrap()
    }

    /// Quotes, backslashes and control bytes in the free-text sections
    /// parse back out of the document as they went in.
    #[test]
    fn escaping_handles_quotes_and_control_bytes() {
        let trigger = "a\"b\\c\nd";
        let policy = RetryPolicy {
            attempts: vec![AttemptSpec {
                backend: "x\ty".into(),
                overrides: vec![("solver".into(), "cg\u{1}".into())],
            }],
            ..RetryPolicy::default()
        };
        let rep = SolveReport::default();
        let ok = [attempt(0, 1, AttemptOutcome::Start), attempt(0, 1, AttemptOutcome::Ok)];
        let doc = assemble(trigger, 1, &policy, &ok, &[0], None, &rep, "cohort", &[]);
        let v = serde_json::from_str(&doc).expect("the postmortem parses");
        assert_eq!(v["trigger"].as_str(), Some(trigger));
        assert_eq!(v["policy"].as_str(), Some("x\ty:solver=cg\u{1}"));
        assert_eq!(v["recovery_path"][0].as_str(), Some("x\ty#1: ok"));
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
        let walked = [
            attempt(0, 1, AttemptOutcome::Start),
            attempt(0, 1, AttemptOutcome::Swap("not-converged")),
            attempt(1, 2, AttemptOutcome::Start),
            attempt(1, 2, AttemptOutcome::Exhausted("package")),
        ];
        let doc = assemble(
            "exhausted",
            2,
            &policy("cg:solver=cg -> lu"),
            &walked,
            &[0, 1],
            None,
            &rep,
            "cohort",
            &["{\"rank\":0}".into(), "{\"rank\":1}".into()],
        );
        assert!(doc.contains("\"schema\": \"lisi-postmortem-v1\""));
        assert!(doc.contains("\"trigger\": \"exhausted\""));
        assert!(doc.contains("\"rank\":1"));
        assert!(doc.contains(
            "\"recovery_path\": [\"cg#1: swap: not-converged\", \"lu#2: exhausted: package\"]"
        ));
        assert!(doc.contains("\"cohort_change\": null"));
        let depth = doc.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "braces/brackets balance");
    }

    /// Two losses in one solve: the path narrates both shrinks, and
    /// `cohort_change` is the last one, with the survivors the solve
    /// ended on.
    #[test]
    fn cohort_change_serializes_the_survivor_mapping() {
        let shrink = |lost, new_size, resumed_iteration| AttemptOutcome::Shrink {
            lost,
            new_size,
            resumed_iteration,
        };
        let walked = [
            attempt(0, 1, AttemptOutcome::Start),
            attempt(0, 1, shrink(2, 3, 20)),
            attempt(0, 2, AttemptOutcome::Start),
            attempt(0, 2, shrink(1, 2, 0)),
            attempt(0, 3, AttemptOutcome::Start),
            attempt(0, 3, AttemptOutcome::Ok),
        ];
        let rep = SolveReport { converged: true, recovery: 3, cohort: 2, ..Default::default() };
        let doc = assemble(
            "recovered",
            2,
            &policy("rksp:solver=cg"),
            &walked,
            &[0, 3],
            None,
            &rep,
            "cohort",
            &["{\"rank\":0}".into()],
        );
        assert!(doc.contains(
            "\"recovery_path\": [\"rksp#1: shrink: rank 2 lost, cohort 4 -> 3, resume at \
             iteration 20\", \"rksp#2: shrink: rank 1 lost, cohort 3 -> 2, resume at iteration \
             0\", \"rksp#3: ok\"]"
        ));
        assert!(doc.contains(
            "\"cohort_change\": {\"lost_rank\":1,\"old_size\":3,\"new_size\":2,\
             \"survivors\":[0,3],\"resumed_iteration\":0}"
        ));
        assert!(doc.contains("\"cohort\":2"));
        let depth = doc.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "braces/brackets balance");
    }
}
