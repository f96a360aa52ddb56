//! The flight recorder: the black-box view of the per-thread event log.
//!
//! Every layer that can explain a failed solve commits events — comm
//! commits p2p and collective operations (op, peer, bytes, tag), the
//! Krylov monitor per-iteration residuals and the final verdict, the
//! fault injector every rule firing, and the resilient driver attempt
//! starts/outcomes/swaps. They are [`EventKind::black_box`] kinds: kept
//! at every [`crate::Level`], with no switch to turn them off, in a log
//! that holds [`CAPACITY`] events per thread until a trace enlarges it.
//! Every event is `Copy` with `&'static str` names, so the steady state
//! never allocates: the log is allocated on a thread's first event and
//! overwritten in place forever after (`crates/probe/tests/event_log.rs`
//! counts). Each costs one relaxed load, one clock read and one
//! thread-local log write under an uncontended lock — inside every
//! tracked `solve_s`.
//!
//! This module only *reads*: the tail a postmortem embeds is the last
//! [`CAPACITY`] black-box events of a log snapshot, whatever else a
//! trace put beside them.

use crate::event::{AttemptOutcome, Event, EventKind};
use crate::json;
use crate::recorder::{self, Recorder};

/// Events in a rendered tail, and in the log itself below
/// [`crate::Level::Trace`].
pub const CAPACITY: usize = crate::event::BLACK_BOX_CAPACITY;

/// The last [`CAPACITY`] black-box events of `r`'s log, oldest first,
/// plus how many events the log has ever committed.
fn tail_of(r: &Recorder) -> (Vec<Event>, u64) {
    let local = r.local();
    let mut tail: Vec<Event> =
        local.log.iter().rev().filter(|e| e.kind.black_box()).take(CAPACITY).copied().collect();
    tail.reverse();
    (tail, local.log.total())
}

/// Snapshot the current thread's tail in chronological order, plus the
/// total number of events ever committed on this thread (`total −
/// retained` have been overwritten).
pub fn local_tail() -> (Vec<Event>, u64) {
    recorder::with_local(|r| tail_of(r))
}

/// Snapshot every registered recorder's tail, merged by rank: ranked
/// threads first (events from threads sharing a rank interleaved by
/// timestamp), then one `None` entry for untagged threads if they
/// recorded anything.
pub fn tails_by_rank() -> Vec<(Option<usize>, Vec<Event>)> {
    let mut tails = Vec::new();
    for (rank, recorders) in recorder::by_rank() {
        let mut tail: Vec<Event> = recorders.iter().flat_map(|r| tail_of(r).0).collect();
        if !tail.is_empty() {
            tail.sort_by_key(|e| e.t1_ns);
            tails.push((rank, tail));
        }
    }
    tails
}

/// Id of the most recent solve any of `events` belongs to (0 if none).
pub fn latest_solve(events: &[Event]) -> u64 {
    events.iter().map(|e| e.solve).max().unwrap_or(0)
}

/// Serialize one black-box event as a JSON object; `t_us` is when it was
/// committed, in microseconds since the probe epoch (shared with chrome
/// traces). `None` for the trace-only kinds.
pub fn record_json(ev: &Event) -> Option<String> {
    let t = ev.t1_ns / 1_000;
    let comm = |op: &str, peer: i64, bytes: u64, tag: i64| {
        format!(
            "{{\"t_us\":{t},\"type\":\"comm\",\"op\":\"{op}\",\"peer\":{peer},\"bytes\":{bytes},\"tag\":{tag}}}"
        )
    };
    Some(match ev.kind {
        EventKind::Begin | EventKind::End | EventKind::Span { .. } => return None,
        EventKind::Send { peer, bytes, tag, .. } => comm("send", peer as i64, bytes, tag),
        EventKind::Recv { peer, bytes, tag, .. } => comm("recv", peer as i64, bytes, tag),
        EventKind::Collective { op, .. } => comm(op, -1, 0, -1),
        EventKind::Iter { iteration, residual } => format!(
            "{{\"t_us\":{t},\"type\":\"iter\",\"iteration\":{iteration},\"residual\":{}}}",
            json::number(residual)
        ),
        EventKind::Verdict { verdict, iteration } => format!(
            "{{\"t_us\":{t},\"type\":\"verdict\",\"verdict\":\"{verdict}\",\"iteration\":{iteration}}}"
        ),
        EventKind::Fault { rule, op, kind } => format!(
            "{{\"t_us\":{t},\"type\":\"fault\",\"rule\":{rule},\"op\":\"{op}\",\"kind\":\"{kind}\"}}"
        ),
        EventKind::Attempt { slot, attempt, outcome } => {
            // A shrink's resumed iteration is `resumed_from` here: the key
            // `resumed_iteration` belongs to the postmortem's `cohort_change`.
            let (phase, cause) = outcome.describe();
            let detail = match outcome {
                AttemptOutcome::Shrink { lost, new_size, resumed_iteration } => format!(
                    ",\"lost\":{lost},\"new_size\":{new_size},\"resumed_from\":{resumed_iteration}"
                ),
                _ => cause.map(|c| format!(",\"cause\":\"{c}\"")).unwrap_or_default(),
            };
            format!(
                "{{\"t_us\":{t},\"type\":\"attempt\",\"slot\":{slot},\"attempt\":{attempt},\
                 \"phase\":\"{phase}\"{detail}}}"
            )
        }
    })
}

/// Serialize the black-box events of a slice as a JSON array.
pub fn tail_json(events: &[Event]) -> String {
    let objects: Vec<String> = events.iter().filter_map(record_json).collect();
    format!("[{}]", objects.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_serialize_as_json_objects() {
        let at =
            |t_us: u64, kind| Event { t0_ns: t_us * 1_000, t1_ns: t_us * 1_000, solve: 9, kind };
        let swap = AttemptOutcome::Swap("injected");
        let recs = [
            at(1, EventKind::Recv { peer: 2, bytes: 8, tag: 7001, src_seq: 0 }),
            at(2, EventKind::Iter { iteration: 4, residual: f64::NAN }),
            at(3, EventKind::Fault { rule: 0, op: "allreduce", kind: "corrupt" }),
            at(4, EventKind::Attempt { slot: 1, attempt: 2, outcome: AttemptOutcome::Start }),
            at(4, EventKind::Attempt { slot: 1, attempt: 2, outcome: swap }),
            at(
                4,
                EventKind::Attempt {
                    slot: 0,
                    attempt: 3,
                    outcome: AttemptOutcome::Shrink { lost: 2, new_size: 3, resumed_iteration: 20 },
                },
            ),
            at(5, EventKind::Span { name: "not_black_box" }),
            at(6, EventKind::Collective { op: "barrier", index: 0 }),
        ];
        let json = tail_json(&recs);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(
            json.contains("{\"t_us\":1,\"type\":\"comm\",\"op\":\"recv\",\"peer\":2,\"bytes\":8,\"tag\":7001}"),
            "{json}"
        );
        assert!(json.contains("\"op\":\"barrier\",\"peer\":-1,\"bytes\":0,\"tag\":-1"), "{json}");
        assert!(json.contains("\"residual\":null"), "NaN must serialize as null: {json}");
        assert!(json.contains("\"rule\":0"));
        assert!(json.contains("\"phase\":\"start\"}"), "{json}");
        assert!(json.contains("\"phase\":\"swap\",\"cause\":\"injected\"}"), "{json}");
        assert!(
            json.contains("\"phase\":\"shrink\",\"lost\":2,\"new_size\":3,\"resumed_from\":20}"),
            "{json}"
        );
        assert!(!json.contains("not_black_box"), "spans are not black-box events: {json}");
        assert_eq!(latest_solve(&recs), 9);
        let (mut braces, mut brackets) = (0i64, 0i64);
        for c in json.chars() {
            match c {
                '{' => braces += 1,
                '}' => braces -= 1,
                '[' => brackets += 1,
                ']' => brackets -= 1,
                _ => {}
            }
        }
        assert_eq!((braces, brackets), (0, 0));
    }

    #[test]
    fn non_finite_residuals_become_null() {
        let iter = |residual| {
            let ev = Event {
                t0_ns: 0,
                t1_ns: 0,
                solve: 1,
                kind: EventKind::Iter { iteration: 3, residual },
            };
            record_json(&ev).expect("Iter is a black-box event")
        };
        for r in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rec = iter(r);
            assert!(rec.ends_with("\"residual\":null}"), "{r} must serialize as null: {rec}");
        }
        let rec = iter(1.5);
        assert!(rec.contains("\"residual\":1.5"), "{rec}");
        assert!(rec.contains("\"iteration\":3"), "{rec}");
    }
}
