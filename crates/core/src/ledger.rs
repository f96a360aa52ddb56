//! The per-solve efficiency ledger.
//!
//! When armed (`RSPARSE_LEDGER` or the `set("ledger", path)` reserved
//! port key — a destination also asks the probe for span timing, for as
//! long as it is set), the adapters' solve pipeline fuses the static work models
//! ([`probe::model`]), the measured phase times and spans, convergence
//! analytics from the Krylov recurrence, the rank×rank communication
//! matrix and the cohort counters into one versioned
//! `solve_ledger.json` document. Its model side (kernel set, units,
//! flops, bytes) is a pure function of the system and is held exactly by
//! `tests/ledger.rs`; its measured side is a diagnostic.
//!
//! Emission is diagnostics: it never fails a solve. Rank 0 assembles
//! the whole document after a barrier (the SPMD launcher runs ranks as
//! threads of one process, so the probe registry already holds every
//! rank's recorder — no gather needed).

use std::fmt::Write as _;

use probe::json::{escape as json_escape, number};
use rcomm::Communicator;

use crate::status::SolveReport;

/// Default relative tolerance assumed for the unpreconditioned-CG
/// iteration estimate when the option surface supplied none (matches
/// `rkrylov::KspConfig::default().rtol`).
const DEFAULT_RTOL: f64 = 1e-8;

/// Everything the solve pipeline knows about the finished solve that the
/// probe registry does not: a backend's `run` fills in the report and
/// the analytics, the pipeline the names and the timings.
#[derive(Default)]
pub struct SolveInfo {
    /// Adapter package name (`rksp`, `raztec`, `rslu`, `rmg`).
    pub backend: &'static str,
    /// The report about to be written into the status vector.
    pub report: SolveReport,
    /// Configured solver name, if the backend is iterative.
    pub ksp: Option<String>,
    /// Configured preconditioner name, if any.
    pub pc: Option<String>,
    /// Relative tolerance the solve targeted, if configured.
    pub rtol: Option<f64>,
    /// CG Lanczos condition-number estimate (see `rkrylov::analytics`).
    pub cond_estimate: Option<f64>,
    /// ‖b − A·x₀‖₂ at entry of the (last) solve, when known.
    pub initial_residual: Option<f64>,
    /// The cohort agreed the session cache held this system's artifact:
    /// the solve ran no set-up.
    pub warm: bool,
}

/// Assemble and publish the ledger for a finished solve. No-op unless a
/// destination is armed. Collective when armed (one barrier, so rank 0
/// snapshots the registry only after every rank finished recording);
/// rank 0 writes the document and embeds it for the postmortem writer.
pub fn emit(comm: &Communicator, info: &SolveInfo) {
    let Some(base) = probe::ledger::armed() else { return };
    if comm.barrier().is_err() {
        return;
    }
    if comm.rank() != 0 {
        return;
    }
    let doc = assemble(comm.size(), info);
    if let Err(e) = probe::ledger::publish(&base, doc) {
        eprintln!("lisi: solve ledger write to {} failed: {e}", base.display());
    }
}

fn opt_str(v: &Option<String>) -> String {
    match v {
        Some(s) => format!("\"{}\"", json_escape(s)),
        None => "null".into(),
    }
}

fn opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "null".into(), number)
}

/// Build the ledger document from the probe registry plus the adapter's
/// [`SolveInfo`]. Pure with respect to the registry snapshot, so tests
/// can call it deterministically.
pub fn assemble(ranks: usize, info: &SolveInfo) -> String {
    let reports = probe::aggregate();
    let rep = &info.report;

    // Convergence analytics: geometric per-iteration residual reduction,
    // the Lanczos κ̂, and the preconditioner-quality ratio (estimated
    // unpreconditioned iterations over observed iterations).
    let reduction_rate = match (info.initial_residual, rep.iterations) {
        (Some(r0), iters) if iters > 0 && r0 > 0.0 && rep.residual > 0.0 => {
            Some((rep.residual / r0).powf(1.0 / iters as f64))
        }
        _ => None,
    };
    let unprec = info.cond_estimate.and_then(|k| {
        rkrylov::analytics::unpreconditioned_iterations(k, info.rtol.unwrap_or(DEFAULT_RTOL))
    });
    let pc_quality = match (unprec, rep.iterations) {
        (Some(u), iters) if iters > 0 => Some(u as f64 / iters as f64),
        _ => None,
    };

    let counter_sum = |c: probe::Counter| reports.iter().map(|r| r.counter(c)).sum::<u64>();

    let mut doc = String::from("{");
    let _ = writeln!(doc, "\"schema\":\"{}\",", probe::ledger::SCHEMA);
    let _ = writeln!(doc, "\"trace_id\":{},", probe::trace::current());
    let _ = writeln!(doc, "\"backend\":\"{}\",", json_escape(info.backend));
    let _ = writeln!(
        doc,
        "\"solver\":{{\"ksp\":{},\"pc\":{},\"ranks\":{ranks}}},",
        opt_str(&info.ksp),
        opt_str(&info.pc),
    );
    let _ = writeln!(
        doc,
        "\"phases\":{{\"setup_seconds\":{:e},\"solve_seconds\":{:e}}},",
        rep.setup_seconds, rep.solve_seconds
    );
    let _ = writeln!(
        doc,
        "\"convergence\":{{\"iterations\":{},\"converged\":{},\"reason\":{},\
         \"initial_residual\":{},\"final_residual\":{},\"reduction_rate\":{},\
         \"rtol\":{},\"cond_estimate\":{},\"unpreconditioned_estimate\":{},\
         \"pc_quality\":{}}},",
        rep.iterations,
        rep.converged,
        rep.reason,
        opt_f64(info.initial_residual),
        opt_f64(Some(rep.residual)),
        opt_f64(reduction_rate),
        opt_f64(info.rtol),
        opt_f64(info.cond_estimate),
        unprec.map(|u| u.to_string()).unwrap_or_else(|| "null".into()),
        opt_f64(pc_quality),
    );
    match probe::model::roofline() {
        Some(r) => {
            let _ = writeln!(
                doc,
                "\"roofline\":{{\"copy_gbs\":{:e},\"triad_gbs\":{:e}}},",
                r.copy_gbs, r.triad_gbs
            );
        }
        None => doc.push_str("\"roofline\":null,\n"),
    }
    // One row per (rank, modelled kernel): the same join the summary
    // sink and the Prometheus exporter render, so the three surfaces
    // agree by construction.
    let _ = writeln!(doc, "\"kernels\":{},", probe::kernel_efficiency_json(&reports));
    let m = probe::comm_matrix(&reports);
    let _ = writeln!(
        doc,
        "\"comm\":{{\"ranks\":{:?},\"msgs\":{:?},\"bytes\":{:?}}},",
        m.ranks, m.msgs, m.bytes
    );
    // Session-layer accounting: cache traffic from the long-lived
    // `SolverService`, the batch width the adapter actually ran, and —
    // from the same span table as everything above — the slowest rank's
    // admission wait and cache lookup.
    let batch = reports.iter().find_map(|r| r.note("batch").map(str::to_string));
    let span_max = |name: &str| {
        reports.iter().filter_map(|r| r.span(name)).map(|s| s.total_s).fold(0.0, f64::max)
    };
    let _ = writeln!(
        doc,
        "\"session\":{{\"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\
         \"rhs_batched\":{},\"batch\":{},\"admit_wait_s\":{:e},\"lookup_s\":{:e},\
         \"warm\":{},\"evictions\":{}}},",
        counter_sum(probe::Counter::SessionCacheHits),
        counter_sum(probe::Counter::SessionCacheMisses),
        counter_sum(probe::Counter::SessionCacheEvictions),
        counter_sum(probe::Counter::RhsBatched),
        opt_str(&batch),
        span_max("session_admit"),
        span_max("session_lookup"),
        info.warm,
        counter_sum(probe::Counter::SessionCacheEvictions),
    );
    let _ = writeln!(
        doc,
        "\"cohort\":{{\"ranks_lost\":{},\"cohort_shrinks\":{},\"faults_injected\":{}}}",
        counter_sum(probe::Counter::RanksLost),
        counter_sum(probe::Counter::CohortShrinks),
        counter_sum(probe::Counter::FaultsInjected),
    );
    doc.push('}');
    doc
}
