//! Per-iteration solver monitoring.
//!
//! A [`SolveMonitor`] streams convergence data out of a solve as it
//! happens, instead of the legacy pattern of accumulating a residual
//! history `Vec<f64>` inside the result. The Krylov and direct solvers
//! drive the callbacks; monitor delivery is an explicit caller opt-in and
//! therefore independent of the global probe mode.

use std::io::Write;

use crate::json::number as json_f64;

/// Callback interface driven by the iterative and direct solvers.
///
/// All methods have default no-op bodies, so implementors override only
/// what they need. `Send` because solves run on SPMD rank threads.
pub trait SolveMonitor: Send {
    /// Called once before iteration 0 with the initial residual norm.
    fn on_start(&mut self, initial_residual: f64) {
        let _ = initial_residual;
    }

    /// Called after each iteration with the current residual norm and the
    /// cumulative number of allreduce collectives this solve has issued.
    fn on_iteration(&mut self, iteration: usize, residual: f64, collectives: u64) {
        let _ = (iteration, residual, collectives);
    }

    /// Called when a named solver phase completes (e.g. `"factorize"`,
    /// `"triangular_solve"`) with its wall-clock duration.
    fn on_phase(&mut self, phase: &'static str, seconds: f64) {
        let _ = (phase, seconds);
    }

    /// Called once when the solve finishes.
    fn on_finish(&mut self, iterations: usize, final_residual: f64, converged: bool) {
        let _ = (iterations, final_residual, converged);
    }
}

/// A monitor that retains everything it is told — the drop-in replacement
/// for reading `KspResult::history` after the fact.
#[derive(Debug, Default)]
pub struct ResidualHistory {
    /// Residual norms: `history[0]` is the initial residual, `history[k]`
    /// the norm after iteration `k`.
    pub history: Vec<f64>,
    /// Cumulative allreduce count reported at each iteration.
    pub collectives: Vec<u64>,
    /// `(phase, seconds)` pairs in completion order.
    pub phases: Vec<(&'static str, f64)>,
    /// Iteration count reported at finish.
    pub iterations: usize,
    /// Final residual norm reported at finish.
    pub final_residual: f64,
    /// Whether the solve converged.
    pub converged: bool,
}

impl ResidualHistory {
    /// New, empty history monitor.
    pub fn new() -> ResidualHistory {
        ResidualHistory::default()
    }
}

impl SolveMonitor for ResidualHistory {
    fn on_start(&mut self, initial_residual: f64) {
        self.history.push(initial_residual);
    }

    fn on_iteration(&mut self, _iteration: usize, residual: f64, collectives: u64) {
        self.history.push(residual);
        self.collectives.push(collectives);
    }

    fn on_phase(&mut self, phase: &'static str, seconds: f64) {
        self.phases.push((phase, seconds));
    }

    fn on_finish(&mut self, iterations: usize, final_residual: f64, converged: bool) {
        self.iterations = iterations;
        self.final_residual = final_residual;
        self.converged = converged;
    }
}

/// A monitor that writes one JSON object per event to a writer (JSON
/// lines), for piping a live solve into external tooling.
pub struct JsonlMonitor<W: Write + Send> {
    out: W,
    /// Optional rank tag included in every line.
    rank: Option<usize>,
}

impl<W: Write + Send> JsonlMonitor<W> {
    /// Stream events to `out`, untagged.
    pub fn new(out: W) -> JsonlMonitor<W> {
        JsonlMonitor { out, rank: None }
    }

    /// Stream events to `out`, tagging each line with `rank`.
    pub fn with_rank(out: W, rank: usize) -> JsonlMonitor<W> {
        JsonlMonitor { out, rank: Some(rank) }
    }

    fn emit(&mut self, body: &str) {
        let mut line = String::from("{");
        if let Some(r) = self.rank {
            line.push_str(&format!("\"rank\":{r},"));
        }
        line.push_str(body);
        line.push('}');
        // A broken pipe must not abort the solve.
        let _ = writeln!(self.out, "{line}");
    }
}

impl<W: Write + Send> SolveMonitor for JsonlMonitor<W> {
    fn on_start(&mut self, initial_residual: f64) {
        self.emit(&format!(
            "\"event\":\"start\",\"residual\":{}",
            json_f64(initial_residual)
        ));
    }

    fn on_iteration(&mut self, iteration: usize, residual: f64, collectives: u64) {
        self.emit(&format!(
            "\"event\":\"iteration\",\"iteration\":{iteration},\"residual\":{},\"collectives\":{collectives}",
            json_f64(residual)
        ));
    }

    fn on_phase(&mut self, phase: &'static str, seconds: f64) {
        self.emit(&format!(
            "\"event\":\"phase\",\"phase\":\"{phase}\",\"seconds\":{}",
            json_f64(seconds)
        ));
    }

    fn on_finish(&mut self, iterations: usize, final_residual: f64, converged: bool) {
        self.emit(&format!(
            "\"event\":\"finish\",\"iterations\":{iterations},\"residual\":{},\"converged\":{converged}",
            json_f64(final_residual)
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_history_retains_stream() {
        let mut m = ResidualHistory::new();
        m.on_start(10.0);
        m.on_iteration(1, 5.0, 3);
        m.on_iteration(2, 1.0, 6);
        m.on_phase("factorize", 0.25);
        m.on_finish(2, 1.0, true);
        assert_eq!(m.history, vec![10.0, 5.0, 1.0]);
        assert_eq!(m.collectives, vec![3, 6]);
        assert_eq!(m.phases, vec![("factorize", 0.25)]);
        assert_eq!(m.iterations, 2);
        assert!(m.converged);
    }

    #[test]
    fn jsonl_monitor_emits_one_line_per_event() {
        let mut buf = Vec::new();
        {
            let mut m = JsonlMonitor::with_rank(&mut buf, 2);
            m.on_start(8.0);
            m.on_iteration(1, 4.0, 2);
            m.on_finish(1, 4.0, false);
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"rank\":2"));
        assert!(lines[0].contains("\"event\":\"start\""));
        assert!(lines[1].contains("\"collectives\":2"));
        assert!(lines[2].contains("\"converged\":false"));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn non_finite_residuals_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert!(json_f64(1.5).contains("1.5"));
    }
}
