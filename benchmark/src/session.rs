//! Driving the paper path: `cca::Framework` → `SolverComponent` →
//! `Arc<dyn SparseSolverPort>`, one cold open then re-solves on the live
//! port, every request timed barrier-to-barrier and checked afterwards.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use cca::Framework;
use lisi::{SolverComponent, SparseSolverPort, SOLVER_PORT, SOLVER_PORT_TYPE, STATUS_LEN};
use rcomm::Communicator;
use rsparse::CsrMatrix;

use crate::workloads::{Package, Workload};

/// A request fails the benchmark's check above this ‖b − A·x‖₂/‖b‖₂.
const CHECK_TOL: f64 = 1e-6;

/// The benchmark's own generator (splitmix64), so a change to the
/// repository's generators cannot change the benchmark's inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// The benchmark's own serial CSR product over raw arrays: `y ← A·x`. The
/// residual check must not lean on the kernels it is checking.
pub fn csr_product(a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    let (ptr, idx, val) = (a.row_ptr(), a.col_idx(), a.values());
    for (i, yi) in y.iter_mut().enumerate() {
        let mut acc = 0.0;
        for k in ptr[i]..ptr[i + 1] {
            acc += val[k] * x[idx[k]];
        }
        *yi = acc;
    }
}

/// What one rank holds for the whole run: its rows, and on rank 0 the
/// whole matrix for checking.
pub struct RankData {
    pub local: CsrMatrix,
    pub start_row: usize,
    /// Grid side `m`; the matrix has `m²` rows.
    pub side: usize,
    pub global_rows: usize,
    pub global: Option<CsrMatrix>,
}

/// Share of `x_true` that is seeded noise; the rest is one smooth field.
/// With pure noise BiCGStab and GMRES need 290 to 610 iterations depending
/// on the draw, and time to solution would measure the draw; at 1 % they
/// stay within a few per cent of each other and still differ by seed.
const NOISE: f64 = 0.01;

/// One request's right-hand sides: `nrhs` columns, each `A·x_true` for
/// `x_true = sin(πx)·sin(πy) + NOISE·u`, `u` uniform in [-1, 1) and drawn
/// from `(seed, request)`. `local` is this rank's slice, column-major.
pub struct Rhs {
    pub local: Vec<f64>,
    x_true: Vec<f64>,
    nrhs: usize,
}

impl Rhs {
    /// Every rank draws the same `x_true` from `(seed, request)` and
    /// multiplies its own rows.
    pub fn generate(data: &RankData, nrhs: usize, seed: u64, request: u64) -> Rhs {
        let n = data.global_rows;
        let rows = data.local.rows();
        let mut rng = Rng::new(seed, request);
        let m = data.side;
        let h = std::f64::consts::PI / (m + 1) as f64;
        let x_true: Vec<f64> = (0..n * nrhs)
            .map(|k| {
                let (i, j) = ((k % n) / m, k % m);
                ((j + 1) as f64 * h).sin() * ((i + 1) as f64 * h).sin() + NOISE * rng.next_f64()
            })
            .collect();
        let mut local = vec![0.0; rows * nrhs];
        for q in 0..nrhs {
            csr_product(
                &data.local,
                &x_true[q * n..(q + 1) * n],
                &mut local[q * rows..(q + 1) * rows],
            );
        }
        Rhs {
            local,
            x_true,
            nrhs,
        }
    }

    /// Worst ‖b − A·x‖₂/‖b‖₂ over the columns, on rank 0 (`None` elsewhere).
    /// Collective: gathers the solution.
    fn relative_residual(
        &self,
        comm: &Communicator,
        data: &RankData,
        x_local: &[f64],
    ) -> Option<f64> {
        let n = data.global_rows;
        let rows = data.local.rows();
        let mut worst = 0.0f64;
        for q in 0..self.nrhs {
            let x = comm
                .allgatherv(&x_local[q * rows..(q + 1) * rows])
                .expect("gather solution");
            let Some(a) = &data.global else { continue };
            let mut b = vec![0.0; n];
            csr_product(a, &self.x_true[q * n..(q + 1) * n], &mut b);
            let mut ax = vec![0.0; n];
            csr_product(a, &x, &mut ax);
            let norm = |v: &mut dyn Iterator<Item = f64>| v.map(|t| t * t).sum::<f64>().sqrt();
            let r = norm(&mut b.iter().zip(&ax).map(|(bi, ai)| bi - ai));
            let nb = norm(&mut b.iter().copied());
            // A non-finite residual must fail the check, and `max` drops NaN.
            worst = if r.is_finite() && nb > 0.0 {
                worst.max(r / nb)
            } else {
                f64::INFINITY
            };
        }
        data.global.as_ref().map(|_| worst)
    }

    /// Judge a solution after the clock stopped: the solver's own claim
    /// first, then the benchmark's residual check. `None` is a pass. Rank 0
    /// holds the residual, and every rank must branch the same way, so the
    /// verdict is broadcast. Collective.
    pub fn verdict(
        &self,
        comm: &Communicator,
        data: &RankData,
        x_local: &[f64],
        claim: Result<(), &str>,
    ) -> Option<String> {
        let residual = self.relative_residual(comm, data, x_local);
        let mine = match claim {
            Err(why) => Some(why.to_string()),
            Ok(()) => residual
                .filter(|r| *r > CHECK_TOL)
                .map(|r| format!("residual check {r:e} > {CHECK_TOL:e}")),
        };
        comm.bcast(0, mine).expect("bcast")
    }
}

/// Stored entries one calibration pass walks over, all ranks together:
/// about 2 ms of work.
const SWEEP_ENTRIES: usize = 1_500_000;

/// The benchmark's reference loop for calibration: forward substitution
/// over the strictly lower part of this rank's diagonal block, every row
/// waiting for the rows before it. Its time follows the host's speed the
/// way the solvers' time does; a streaming CSR product slows down 1.8×
/// where the solvers slow down 1.4× (see `benchmark/README.md`).
pub fn dependent_sweep(a: &CsrMatrix, start_row: usize, z: &mut [f64]) {
    let (ptr, idx, val) = (a.row_ptr(), a.col_idx(), a.values());
    for i in 0..z.len() {
        let (mut acc, mut diag) = (1.0, 1.0);
        for k in ptr[i]..ptr[i + 1] {
            let c = idx[k];
            if c >= start_row && c < start_row + i {
                acc -= val[k] * z[c - start_row];
            } else if c == start_row + i {
                diag = val[k];
            }
        }
        z[i] = acc / diag;
    }
}

/// Thread hand-offs one calibration pass makes between the ranks.
const SWEEP_HANDOFFS: usize = 50;
/// What one of them costs on the nominal machine, seconds.
const NOMINAL_HANDOFF: f64 = 10e-6;

/// Host-speed calibration. This host runs at speeds up to 1.6× apart and
/// stays at one for minutes, so a whole run is fast or slow and no estimator
/// inside the run can tell. After every request all ranks therefore time a
/// fixed piece of the benchmark's own code exactly as a request is timed:
/// [`dependent_sweep`] over their rows, then a few dozen waits on a std
/// `Barrier` they share — the two things the host's state changes, compute
/// and thread hand-off. A request's seconds are scaled by the nominal over
/// the measured pass time on either side of it. The nominal machine walks
/// one stored entry per nanosecond per rank and hands off in 10 µs, which
/// makes a calibrated second a second on that machine.
pub struct Calibrator {
    reps: usize,
    z: Vec<f64>,
    handoff: Arc<Barrier>,
    /// Seconds the pass takes on the nominal machine.
    nominal: f64,
    /// The most recent pass, seconds.
    last: f64,
    /// Every pass of the run, measured over nominal: 1 is the nominal
    /// machine, 2 a host half as fast.
    pub slowdown: Vec<f64>,
}

impl Calibrator {
    /// Collective. `handoff` is shared by all ranks of the run.
    pub fn new(comm: &Communicator, data: &RankData, handoff: Arc<Barrier>) -> Calibrator {
        let entries: usize = comm
            .allreduce(data.local.nnz(), rcomm::sum)
            .expect("allreduce");
        let reps = (SWEEP_ENTRIES / entries).max(1);
        // A lone rank's barrier never waits.
        let handoffs = if comm.size() > 1 {
            SWEEP_HANDOFFS as f64 * NOMINAL_HANDOFF
        } else {
            0.0
        };
        let mut c = Calibrator {
            reps,
            z: vec![0.0; data.local.rows()],
            handoff,
            nominal: (reps * entries) as f64 / comm.size() as f64 * 1e-9 + handoffs,
            last: 0.0,
            slowdown: Vec::new(),
        };
        // The first pass pays the page faults.
        c.sweep(comm, data);
        c.slowdown.clear();
        c.sweep(comm, data);
        c
    }

    /// The middle of three passes: one pass in forty is hit by a stall
    /// that doubles it, and a pass stands for the two requests beside it.
    fn sweep(&mut self, comm: &Communicator, data: &RankData) {
        let mut passes = [0.0; 3];
        for seconds in &mut passes {
            (*seconds, ()) = timed(comm, || {
                for _ in 0..self.reps {
                    dependent_sweep(&data.local, data.start_row, &mut self.z);
                    std::hint::black_box(&mut self.z);
                }
                for _ in 0..SWEEP_HANDOFFS {
                    self.handoff.wait();
                }
            });
        }
        passes.sort_by(f64::total_cmp);
        self.last = passes[1];
        self.slowdown.push(self.last / self.nominal);
    }

    /// Sweep once more and return the scale for a request that ran between
    /// the previous sweep and this one.
    fn scale_after_request(&mut self, comm: &Communicator, data: &RankData) -> f64 {
        let before = self.last;
        self.sweep(comm, data);
        self.nominal / (0.5 * (before + self.last))
    }
}

/// Wall seconds of `f` on this communicator: barrier, run, max over ranks.
pub fn timed<R>(comm: &Communicator, f: impl FnOnce() -> R) -> (f64, R) {
    comm.barrier().expect("barrier");
    let t0 = Instant::now();
    let r = f();
    let mine = t0.elapsed().as_secs_f64();
    (comm.allreduce(mine, rcomm::max).expect("allreduce"), r)
}

/// Registry + two instantiations + connect + get_port: the CCA wiring of
/// one solver component, as the paper's application does at launch.
pub fn wire(package: Package) -> (Framework, Arc<dyn SparseSolverPort>) {
    struct App;
    impl cca::Component for App {
        fn set_services(&mut self, services: &cca::Services) -> cca::CcaResult<()> {
            services.register_uses_port("solver", SOLVER_PORT_TYPE)
        }
    }
    let mut fw = Framework::with_registry(cca::sidl::SidlRegistry::lisi());
    let app = fw
        .instantiate("driver", Box::new(App))
        .expect("driver component");
    let solver = match package {
        Package::Rksp => fw.instantiate("solver", Box::new(SolverComponent::rksp())),
        Package::Raztec => fw.instantiate("solver", Box::new(SolverComponent::raztec())),
        Package::Rslu => fw.instantiate("solver", Box::new(SolverComponent::rslu())),
    }
    .expect("solver component");
    fw.connect(&app, "solver", &solver, SOLVER_PORT)
        .expect("connect");
    let port = fw
        .services(&app)
        .expect("driver services")
        .get_port::<Arc<dyn SparseSolverPort>>("solver")
        .expect("solver port");
    (fw, port)
}

/// `initialize` → setters → `setupMatrix` → `setupRHS`: everything of a
/// cold open between wiring and the first `solve`.
pub fn ingest(
    port: &dyn SparseSolverPort,
    comm: &Communicator,
    w: &Workload,
    data: &RankData,
    tag: &str,
    rhs: &Rhs,
) -> lisi::LisiResult<()> {
    port.initialize(comm.dup().expect("dup"))?;
    port.set_start_row(data.start_row)?;
    port.set_local_rows(data.local.rows())?;
    port.set_local_nnz(data.local.nnz())?;
    port.set_global_cols(data.global_rows)?;
    for (k, v) in w.params() {
        port.set(k, v)?;
    }
    if w.nrhs > 1 {
        port.set_int("nrhs", w.nrhs as i64)?;
    }
    // A tag no earlier session used: the option dump is part of the
    // session fingerprint, so this open misses the process-wide cache.
    port.set("session_tag", tag)?;
    port.setup_matrix(
        data.local.values(),
        data.local.row_ptr(),
        data.local.col_idx(),
        lisi::SparseStruct::Csr,
    )?;
    port.setup_rhs(&rhs.local, w.nrhs)
}

/// `solve` from a zero guess; returns the solution and the status array.
pub fn solve(
    port: &dyn SparseSolverPort,
    rows: usize,
    nrhs: usize,
) -> lisi::LisiResult<(Vec<f64>, [f64; STATUS_LEN])> {
    let mut x = vec![0.0; rows * nrhs];
    let mut status = [0.0; STATUS_LEN];
    port.solve(&mut x, &mut status)?;
    Ok((x, status))
}

/// One timed request through the port, judged after the clock stopped.
pub struct Request {
    /// Barrier-to-barrier wall seconds, max over ranks.
    pub seconds: f64,
    /// Nominal over measured sweep time around this request: wall seconds
    /// times this are calibrated seconds.
    pub scale: f64,
    /// The port's own solve-phase seconds (`status[4]`), max over ranks.
    pub solve_phase: f64,
    /// `None` when the request passed; else why it failed.
    pub failure: Option<String>,
}

/// Time `f` (a port call sequence ending in a solve) and check what it
/// returned: port error, `status[0] ≠ 1`, or the benchmark's own residual.
pub fn request(
    comm: &Communicator,
    data: &RankData,
    rhs: &Rhs,
    calibrator: &mut Calibrator,
    f: impl FnOnce() -> lisi::LisiResult<(Vec<f64>, [f64; STATUS_LEN])>,
) -> Request {
    let (seconds, out) = timed(comm, f);
    let scale = calibrator.scale_after_request(comm, data);
    // Ranks agree on failure before any further collective.
    let ok = comm
        .allgather(out.is_ok())
        .expect("allgather")
        .into_iter()
        .all(|ok| ok);
    let (x, status) = match out {
        Ok(v) if ok => v,
        Ok(_) => return Request::failed(seconds, scale, "a peer rank's port call failed".into()),
        Err(e) => return Request::failed(seconds, scale, format!("port error: {e}")),
    };
    let solve_phase = comm
        .allreduce(status[lisi::status::STATUS_SOLVE_SECONDS], rcomm::max)
        .expect("allreduce");
    let converged = status[lisi::status::STATUS_CONVERGED] == 1.0;
    let failure = rhs.verdict(
        comm,
        data,
        &x,
        converged.then_some(()).ok_or("status[0] != 1"),
    );
    Request {
        seconds,
        scale,
        solve_phase,
        failure,
    }
}

impl Request {
    fn failed(seconds: f64, scale: f64, why: String) -> Request {
        Request {
            seconds,
            scale,
            solve_phase: 0.0,
            failure: Some(why),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(m: usize) -> RankData {
        let a = rsparse::generate::laplacian_2d(m);
        RankData {
            local: a.clone(),
            start_row: 0,
            side: m,
            global_rows: m * m,
            global: Some(a),
        }
    }

    #[test]
    fn the_seed_and_the_request_number_decide_the_right_hand_side() {
        let d = data(6);
        let again = Rhs::generate(&d, 2, 7, 3);
        assert_eq!(
            Rhs::generate(&d, 2, 7, 3).local,
            again.local,
            "same seed, same request"
        );
        assert_ne!(
            Rhs::generate(&d, 2, 8, 3).local,
            again.local,
            "another seed"
        );
        assert_ne!(
            Rhs::generate(&d, 2, 7, 4).local,
            again.local,
            "another request"
        );
        assert_ne!(again.local[..36], again.local[36..], "columns differ");
    }

    #[test]
    fn the_check_passes_the_true_solution_and_fails_a_wrong_one() {
        let d = data(6);
        let rhs = Rhs::generate(&d, 1, 1, 1);
        let out = rcomm::Universe::run(1, |comm| {
            let mut wrong = rhs.x_true.clone();
            wrong[5] += 1e-3;
            (
                rhs.relative_residual(comm, &d, &rhs.x_true),
                rhs.relative_residual(comm, &d, &wrong),
            )
        });
        let (good, bad) = out[0];
        assert!(good.expect("rank 0 judges") < 1e-14);
        assert!(bad.expect("rank 0 judges") > CHECK_TOL);
    }

    #[test]
    fn the_dependent_sweep_solves_the_lower_triangle() {
        // (D + L)·z = 1 for the 1-D Laplacian: z₀ = 1/2, zᵢ = (1 + zᵢ₋₁)/2.
        let a = rsparse::generate::laplacian_1d(5);
        let mut z = vec![0.0; 5];
        dependent_sweep(&a, 0, &mut z);
        let mut expect = 0.0;
        for zi in z {
            expect = (1.0 + expect) / 2.0;
            assert!((zi - expect).abs() < 1e-15);
        }
    }
}
