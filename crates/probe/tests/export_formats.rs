//! Schema validation of the probe crate's machine-readable exports:
//! the chrome://tracing document, the per-rank JSONL report stream and
//! the postmortem are parsed back with the in-tree `serde_json` shim and
//! checked field by field — catching quoting slips, missing commas and
//! schema drift that substring asserts cannot.
//!
//! The tests mutate the process-wide probe mode and recorder registry,
//! so they serialize on one lock and reset state at each boundary.

use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn chrome_trace_parses_with_rank_pids_and_monotone_end_times() {
    let _g = locked();
    probe::reset();
    probe::set_mode(probe::ProbeMode::Chrome);
    probe::set_rank(3);
    {
        let _outer = probe::span!("outer_phase");
        let _inner = probe::span!("inner_phase");
    }
    let doc = probe::chrome_trace_json();
    probe::set_mode(probe::ProbeMode::Off);
    probe::reset();

    let v = serde_json::from_str(&doc).expect("chrome trace must be valid JSON");
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty(), "spans must have produced events");

    let mut names = Vec::new();
    let mut last_end: std::collections::BTreeMap<(u64, u64), f64> = Default::default();
    for e in events {
        match e["ph"].as_str().expect("ph string") {
            "X" => {
                // Complete events: the viewer contract is name/cat/ts/dur
                // plus pid=rank and tid=thread lanes.
                let name = e["name"].as_str().expect("X event name").to_string();
                assert_eq!(e["cat"].as_str(), Some("probe"));
                let ts = e["ts"].as_f64().expect("ts number");
                let dur = e["dur"].as_f64().expect("dur number");
                assert!(ts >= 0.0 && dur >= 0.0, "non-negative times: {e:?}");
                let pid = e["pid"].as_u64().expect("pid number");
                let tid = e["tid"].as_u64().expect("tid number");
                assert_eq!(pid, 3, "pid is the SPMD rank");
                // Events are appended at span close, so end times are
                // non-decreasing within one (pid, tid) lane.
                let end = ts + dur;
                let prev = last_end.insert((pid, tid), end).unwrap_or(0.0);
                assert!(end >= prev, "end times must be monotone per lane");
                names.push(name);
            }
            "M" => {
                assert_eq!(e["name"].as_str(), Some("process_name"));
                assert!(e["args"]["name"].as_str().is_some(), "lane label");
            }
            ph => panic!("unexpected phase type {ph:?}"),
        }
    }
    assert!(names.iter().any(|n| n == "outer_phase"), "names: {names:?}");
    assert!(names.iter().any(|n| n == "inner_phase"), "names: {names:?}");
    assert!(v["otherData"]["droppedEvents"].as_u64().is_some());
}

#[test]
fn jsonl_report_stream_parses_line_by_line() {
    let _g = locked();
    probe::reset();
    probe::set_mode(probe::ProbeMode::Summary);
    probe::incr(probe::Counter::PortCalls);
    {
        let _span = probe::span!("jsonl_span");
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
    let text = probe::render_jsonl(&probe::aggregate());
    probe::set_mode(probe::ProbeMode::Off);
    probe::reset();

    let mut saw_span = false;
    let mut lines = 0;
    for line in text.lines() {
        let v = serde_json::from_str(line).expect("each JSONL line is one JSON object");
        lines += 1;
        assert!(
            v["rank"].as_u64().is_some() || v["rank"].is_null(),
            "rank is a number or null: {line}"
        );
        let counters = v["counters"].as_object().expect("counters object");
        for c in counters.values() {
            assert!(c.as_u64().is_some_and(|n| n > 0), "only nonzero counters appear");
        }
        assert!(v["notes"].as_object().is_some(), "notes object");
        for s in v["spans"].as_array().expect("spans array") {
            assert!(s["name"].as_str().is_some());
            assert!(s["calls"].as_u64().is_some_and(|n| n > 0));
            let total = s["total_s"].as_f64().expect("total_s number");
            let self_s = s["self_s"].as_f64().expect("self_s number");
            assert!(total >= self_s && self_s >= 0.0, "span times ordered: {s:?}");
            if s["name"].as_str() == Some("jsonl_span") {
                saw_span = true;
            }
        }
    }
    assert!(lines >= 1, "at least one rank line:\n{text}");
    assert!(saw_span, "the recorded span must appear:\n{text}");
}

#[test]
fn postmortem_cohort_change_schema_parses_with_survivor_mapping() {
    let _g = locked();
    // Assembled by the core crate; validated here with the shim parser
    // like every other machine-readable export.
    let report = lisi::SolveReport {
        converged: true,
        iterations: 41,
        residual: 3.2e-11,
        attempts: 2,
        recovery: 3,
        cohort: 3,
        ..Default::default()
    };
    // The driver's one record of the shrink: its `Attempt` event.
    let shrink = probe::AttemptOutcome::Shrink { lost: 2, new_size: 3, resumed_iteration: 20 };
    let attempts = [probe::Event {
        t0_ns: 0,
        t1_ns: 0,
        solve: 1,
        kind: probe::EventKind::Attempt { slot: 0, attempt: 1, outcome: shrink },
    }];
    let policy = lisi::RetryPolicy::parse("rksp:solver=cg,preconditioner=ilu0").unwrap();
    let doc = lisi::postmortem::assemble(
        "recovered",
        4,
        &policy,
        &attempts,
        &[0, 1, 3],
        None,
        &report,
        "",
        &[],
    );

    let v = serde_json::from_str(&doc).expect("postmortem must be valid JSON");
    assert_eq!(v["trigger"].as_str(), Some("recovered"));
    let cc = v["cohort_change"].as_object().expect("cohort_change object");
    assert_eq!(cc["lost_rank"].as_u64(), Some(2));
    assert_eq!(cc["old_size"].as_u64(), Some(4));
    assert_eq!(cc["new_size"].as_u64(), Some(3));
    let survivors: Vec<u64> = cc["survivors"]
        .as_array()
        .expect("survivors array")
        .iter()
        .map(|s| s.as_u64().expect("survivor world rank"))
        .collect();
    assert_eq!(survivors, vec![0, 1, 3], "new-rank-ordered world ranks");
    assert_eq!(cc["resumed_iteration"].as_u64(), Some(20));
    // The shrunken size is mirrored into the report block, and the
    // mapping is internally consistent with it.
    assert_eq!(v["report"]["cohort"].as_u64(), Some(3));
    assert_eq!(v["report"]["recovery"].as_u64(), Some(3));
    assert_eq!(survivors.len() as u64, cc["new_size"].as_u64().unwrap());
    assert!(!survivors.contains(&2), "the casualty never survives itself");

    // Without a change the key is an explicit null, not absent: readers
    // can distinguish "cohort intact" from schema drift.
    let doc = lisi::postmortem::assemble(
        "recovered",
        4,
        &policy,
        &[],
        &[0, 1, 3],
        None,
        &report,
        "",
        &[],
    );
    let v = serde_json::from_str(&doc).expect("postmortem must be valid JSON");
    assert!(v["cohort_change"].is_null(), "null when the cohort never changed");
}

#[test]
fn summary_sink_is_deterministic_and_name_sorted() {
    let _g = locked();
    probe::reset();
    probe::set_mode(probe::ProbeMode::Summary);
    // Record counters and spans in an order that is NOT alphabetical, so
    // the sort inside the sink is what produces the stable layout.
    probe::incr(probe::Counter::PcApplies);
    probe::incr(probe::Counter::MatvecCalls);
    for name in ["z_last", "a_first", "m_middle"] {
        let _span = probe::span!(name);
    }
    let reports = probe::aggregate();
    let once = probe::render_summary(&reports);
    let twice = probe::render_summary(&probe::aggregate());
    probe::set_mode(probe::ProbeMode::Off);
    probe::reset();

    assert_eq!(once, twice, "two renders of the same state must be identical");
    for rep in &reports {
        let names: Vec<&str> = rep.spans().iter().map(|s| s.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "span rows sorted by name");
    }
    let a = once.find("a_first").expect("a_first row");
    let m = once.find("m_middle").expect("m_middle row");
    let z = once.find("z_last").expect("z_last row");
    assert!(a < m && m < z, "span rows render in name order");
    let mv = once.find("matvec_calls").expect("matvec_calls row");
    let pc = once.find("pc_applies").expect("pc_applies row");
    assert!(mv < pc, "counter rows render in name order");
}

/// A thread that holds one histogram sample and recorded nothing else —
/// one iteration of a solve, no span, no counter — is not an empty
/// recorder: its rank shows in `aggregate()` and its sample on the
/// Prometheus page.
#[test]
fn a_recorder_holding_only_a_histogram_sample_is_reported() {
    let _g = locked();
    probe::reset();
    probe::set_mode(probe::ProbeMode::Summary);
    std::thread::spawn(|| {
        probe::set_rank(5);
        let _solve = probe::trace::solve_guard();
        probe::emit(probe::EventKind::Iter { iteration: 1, residual: 0.5 });
    })
    .join()
    .unwrap();
    let reports = probe::aggregate();
    let page = probe::export::snapshot();
    probe::set_mode(probe::ProbeMode::Off);
    probe::reset();

    let rep = reports.iter().find(|r| r.rank == Some(5)).expect("the sampling thread's report");
    assert!(rep.spans().is_empty(), "nothing but the sample: {:?}", rep.spans());
    assert_eq!(rep.hist(probe::hist::Hist::IterTime).count, 1);
    assert!(page.contains("rsparse_iter_time_seconds_count{rank=\"5\"} 1\n"), "got: {page}");
}
