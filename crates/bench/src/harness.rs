//! The two call paths (native vs CCA/LISI) and the timing machinery.

use std::sync::Arc;

use cca::Framework;
use lisi::{SolverComponent, SparseSolverPort, SOLVER_PORT, SOLVER_PORT_TYPE};
use rcomm::Communicator;
use rsparse::{DistCsrMatrix, DistVector};

use crate::workload::Workload;

/// Which solver package a run exercises (the paper's PETSc / Trilinos /
/// SuperLU triple).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Package {
    /// RKSP — the PETSc stand-in.
    Rksp,
    /// RAztec — the Trilinos stand-in.
    Raztec,
    /// RSLU — the SuperLU stand-in.
    Rslu,
}

impl Package {
    /// All three, in the paper's order.
    pub const ALL: [Package; 3] = [Package::Rksp, Package::Raztec, Package::Rslu];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Package::Rksp => "RKSP",
            Package::Raztec => "RAztec",
            Package::Rslu => "RSLU",
        }
    }
}

/// Outcome of one timed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Wall seconds of the solve workflow (max over ranks).
    pub seconds: f64,
    /// Iterations reported by the solver (0 for the direct package).
    pub iterations: usize,
    /// Final residual norm.
    pub residual: f64,
    /// Did the solver converge?
    pub converged: bool,
}

/// Synchronized wall-time of `f` on this communicator: barrier, run,
/// allreduce-max of the per-rank elapsed times. Timing goes through
/// [`probe::timed`], so when the probe is enabled the same measurement
/// also lands in the per-rank span table (and chrome trace) under `name`.
fn timed<R>(comm: &Communicator, name: &'static str, f: impl FnOnce() -> R) -> (f64, R) {
    comm.barrier().expect("barrier");
    let (r, mine) = probe::timed(name, f);
    let max = comm.allreduce(mine, rcomm::max).expect("allreduce");
    (max, r)
}

/// The **non-CCA** path: call the native package APIs directly, exactly
/// as a hand-coupled application would.
pub fn run_native(comm: &Communicator, package: Package, w: &Workload) -> RunResult {
    // Mesh generation is outside the measured region in the paper (it is
    // written to local files before the solve phase starts).
    let local = w.problem().assemble_local(comm);
    let partition = local.partition.clone();
    let rank = comm.rank();

    match package {
        Package::Rksp => {
            let mut opts = rkrylov::Options::new();
            for (k, v) in &w.params {
                opts.set(k, v);
            }
            let (secs, out) = timed(comm, "native", || {
                let setup = probe::SectionTimer::start("native_setup");
                let dist =
                    DistCsrMatrix::from_local_rows(comm, partition.clone(), local.matrix.clone())
                        .expect("distribute");
                let op = rkrylov::MatOperator::new(dist);
                let ksp = rkrylov::Ksp::from_options(&opts).expect("configure");
                let b = DistVector::from_local(partition.clone(), rank, local.rhs.clone())
                    .expect("rhs");
                setup.stop();
                let _solve = probe::span!("native_solve");
                let mut x = DistVector::zeros(partition.clone(), rank);
                let res = ksp.solve(comm, &op, &b, &mut x).expect("solve");
                (res.iterations, res.final_residual, res.converged())
            });
            RunResult { seconds: secs, iterations: out.0, residual: out.1, converged: out.2 }
        }
        Package::Raztec => {
            let mut az_opts = raztec::AztecOptions::default();
            for (k, v) in &w.params {
                match k.as_str() {
                    "solver" => az_opts.solver = raztec::AzSolver::parse(v).expect("solver"),
                    "preconditioner" => {
                        az_opts.precond = raztec::AzPrecond::parse(v).expect("precond")
                    }
                    "tol" => az_opts.tol = v.parse().expect("tol"),
                    "maxits" => az_opts.max_iter = v.parse().expect("maxits"),
                    _ => {}
                }
            }
            // Match the LISI convergence convention (‖r‖/‖b‖).
            az_opts.conv = raztec::AzConv::Rhs;
            let (secs, out) = timed(comm, "native", || {
                let setup = probe::SectionTimer::start("native_setup");
                let map = raztec::Map::from_partition(partition.clone(), rank);
                let a = raztec::CrsMatrix::from_local_rows(comm, map.clone(), local.matrix.clone())
                    .expect("distribute");
                let b = raztec::Vector::from_values(map.clone(), local.rhs.clone()).expect("rhs");
                let mut x = raztec::Vector::new(map);
                let mut az = raztec::AztecOO::new(&a);
                az.set_options(az_opts.clone());
                setup.stop();
                let _solve = probe::span!("native_solve");
                let st = az.iterate(comm, &b, &mut x).expect("solve");
                (st.its, st.true_residual, st.why.converged())
            });
            RunResult { seconds: secs, iterations: out.0, residual: out.1, converged: out.2 }
        }
        Package::Rslu => {
            let (secs, out) = timed(comm, "native", || {
                let setup = probe::SectionTimer::start("native_setup");
                let dist =
                    DistCsrMatrix::from_local_rows(comm, partition.clone(), local.matrix.clone())
                        .expect("distribute");
                let mut solver = rdirect::DistRslu::new(rdirect::RsluOptions::default());
                solver.factorize(comm, &dist).expect("factorize");
                let b = DistVector::from_local(partition.clone(), rank, local.rhs.clone())
                    .expect("rhs");
                setup.stop();
                let _solve = probe::span!("native_solve");
                let x = solver.solve(comm, &partition, &b).expect("solve");
                let r = {
                    // Residual check so both paths do equivalent work.
                    let ax = dist.matvec(comm, &x).expect("matvec");
                    let mut rr = b.clone();
                    rr.axpy(-1.0, &ax).expect("axpy");
                    rr.norm2(comm).expect("norm")
                };
                (0usize, r, true)
            });
            RunResult { seconds: secs, iterations: out.0, residual: out.1, converged: out.2 }
        }
    }
}

/// Build a framework with one solver component of the requested package
/// plus an application shell, wired together; returns the fetched port.
/// This is the once-per-application wiring cost, outside the measured
/// region (the paper's component instantiation happens at launch).
pub fn wire_component(package: Package) -> (Framework, Arc<dyn SparseSolverPort>) {
    struct App;
    impl cca::Component for App {
        fn set_services(&mut self, services: &cca::Services) -> cca::CcaResult<()> {
            services.register_uses_port("solver", SOLVER_PORT_TYPE)
        }
    }
    let mut fw = Framework::with_registry(cca::sidl::SidlRegistry::lisi());
    let app = fw.instantiate("driver", Box::new(App)).expect("app");
    let solver_id = match package {
        Package::Rksp => fw.instantiate("solver", Box::new(SolverComponent::rksp())),
        Package::Raztec => fw.instantiate("solver", Box::new(SolverComponent::raztec())),
        Package::Rslu => fw.instantiate("solver", Box::new(SolverComponent::rslu())),
    }
    .expect("solver component");
    fw.connect(&app, "solver", &solver_id, SOLVER_PORT).expect("connect");
    let port = fw
        .services(&app)
        .expect("services")
        .get_port::<Arc<dyn SparseSolverPort>>("solver")
        .expect("port");
    (fw, port)
}

/// The **CCA** path: the same workload pushed through the LISI port of a
/// solver component.
pub fn run_cca(comm: &Communicator, package: Package, w: &Workload) -> RunResult {
    let local = w.problem().assemble_local(comm);
    let partition = local.partition.clone();
    let rank = comm.rank();
    let range = partition.range(rank);
    let (_fw, port) = wire_component(package);

    let (secs, out) = timed(comm, "cca", || {
        let setup = probe::SectionTimer::start("cca_setup");
        port.initialize(comm.dup().expect("dup")).expect("initialize");
        port.set_start_row(range.start).expect("start row");
        port.set_local_rows(range.len()).expect("local rows");
        port.set_local_nnz(local.matrix.nnz()).expect("local nnz");
        port.set_global_cols(partition.global_rows()).expect("global cols");
        for (k, v) in &w.params {
            port.set(k, v).expect("param");
        }
        port.setup_matrix(
            local.matrix.values(),
            local.matrix.row_ptr(),
            local.matrix.col_idx(),
            lisi::SparseStruct::Csr,
        )
        .expect("setup matrix");
        port.setup_rhs(&local.rhs, 1).expect("setup rhs");
        setup.stop();
        let _solve = probe::span!("cca_solve");
        let mut x = vec![0.0; range.len()];
        let mut status = [0.0; lisi::STATUS_LEN];
        port.solve(&mut x, &mut status).expect("solve");
        lisi::SolveReport::from_slice(&status)
    });
    RunResult {
        seconds: secs,
        iterations: out.iterations,
        residual: out.residual,
        converged: out.converged,
    }
}

/// Run both paths `reps` times and return
/// `(native seconds, cca seconds, iterations)`. The paper collects ten
/// runs on dedicated cluster nodes and picks the mean; on a shared
/// machine the mean is outlier-dominated, so this harness alternates the
/// execution order every repetition (cancelling warm-up drift) and
/// reports the **median**, documenting the deviation in EXPERIMENTS.md.
pub fn measure_pair(
    comm: &Communicator,
    package: Package,
    w: &Workload,
    reps: usize,
) -> (f64, f64, usize) {
    // Warm-up pass (allocators, caches) — excluded.
    let _ = run_native(comm, package, w);
    let _ = run_cca(comm, package, w);
    let mut native = Vec::with_capacity(reps);
    let mut through_cca = Vec::with_capacity(reps);
    let mut iters = 0usize;
    for rep in 0..reps {
        let (n, c) = if rep % 2 == 0 {
            let n = run_native(comm, package, w);
            let c = run_cca(comm, package, w);
            (n, c)
        } else {
            let c = run_cca(comm, package, w);
            let n = run_native(comm, package, w);
            (n, c)
        };
        assert!(n.converged && c.converged, "benchmark solves must converge");
        native.push(n.seconds);
        through_cca.push(c.seconds);
        iters = iters.max(c.iterations.max(n.iterations));
    }
    (median(&mut native), median(&mut through_cca), iters)
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::paper_workload;
    use rcomm::Universe;

    #[test]
    fn both_paths_solve_and_agree_on_iterations() {
        let w = paper_workload(12);
        for package in Package::ALL {
            let out = Universe::run(2, |comm| {
                let n = run_native(comm, package, &w);
                let c = run_cca(comm, package, &w);
                (n, c)
            });
            let (n, c) = &out[0];
            assert!(n.converged && c.converged, "{package:?}");
            assert!(n.seconds > 0.0 && c.seconds > 0.0);
            // Same algorithm, same substrate → identical iteration counts.
            assert_eq!(n.iterations, c.iterations, "{package:?}");
            if package == Package::Rslu {
                assert_eq!(n.iterations, 0);
            } else {
                assert!(n.iterations > 0);
            }
        }
    }

    #[test]
    fn measure_pair_returns_positive_means() {
        let w = paper_workload(8);
        let out = Universe::run(2, |comm| measure_pair(comm, Package::Rksp, &w, 2));
        let (native, cca_s, iters) = out[0];
        assert!(native > 0.0 && cca_s > 0.0);
        assert!(iters > 0);
    }

    #[test]
    fn package_names_are_stable() {
        assert_eq!(Package::Rksp.name(), "RKSP");
        assert_eq!(Package::Raztec.name(), "RAztec");
        assert_eq!(Package::Rslu.name(), "RSLU");
    }
}
