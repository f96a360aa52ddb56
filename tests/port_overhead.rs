//! The paper's claim in exact counts: what the LISI port adds to a native
//! call of the same package (PAPER.md §5, Table 1, Figure 5).
//!
//! Each case solves one system twice on the same row blocks — once
//! through the package's own API, as a hand-coupled application would,
//! and once through the port (`setupMatrix → setupRHS → solve`) — and
//! takes port minus native of what the probe counted on each rank:
//! collectives by kind, point-to-point sends and bytes. Cold runs count
//! everything from the matrix hand-over to the solution; warm runs count
//! one re-solve after a cold one (a new right-hand side through the port,
//! the kept operator and preconditioner or factors natively). Operator
//! and preconditioner applications, iterations and the solution bits must
//! be equal; the differences are the rows of [`EXPECTED`]. The paper's
//! finding — the port's cost is small and does not grow with the problem —
//! is the assertion that every difference is the same at m and 2m. The
//! BiCGStab rows also solve the paper's nonsymmetric convection–diffusion
//! system, and must show the same differences on it.

use cca_lisi::comm::{Communicator, Universe};
use cca_lisi::lisi::{
    RaztecAdapter, RkspAdapter, RmgAdapter, RsluAdapter, SolveReport, SparseSolverPort,
    SparseStruct, STATUS_LEN,
};
use cca_lisi::probe::{self, Counter};
use cca_lisi::sparse::{generate, BlockRowPartition, CsrMatrix, DistCsrMatrix, DistVector};
use cca_lisi::{aztec, direct, krylov, mesh, multigrid};

/// The grid side of the smaller system; every case also runs at twice it.
const M: usize = 15;

/// What a case counts on a rank, in this order: the seven collective
/// kinds, then point-to-point sends and bytes.
const TRAFFIC: [Counter; 9] = [
    Counter::Barriers,
    Counter::Bcasts,
    Counter::Allreduces,
    Counter::Gathers,
    Counter::Allgathers,
    Counter::Scatters,
    Counter::Alltoalls,
    Counter::SendsPosted,
    Counter::BytesSent,
];

/// Work both paths must do alike: operator and preconditioner
/// applications and Krylov iterations.
const WORK: [Counter; 3] = [Counter::MatvecCalls, Counter::PcApplies, Counter::KspIterations];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    RkspCg,
    RkspBicgstab,
    RaztecGmres,
    RaztecBicgstab,
    Rslu,
    Rmg,
}

/// The system a case solves at grid side m: the 5-point Laplacian with a
/// random right-hand side, or the paper's convection–diffusion PDE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum System {
    Laplacian,
    Paper,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Cold,
    Warm,
}

/// Port minus native, indexed like [`TRAFFIC`], per backend, rank count
/// and phase. Sends and bytes never differ: the port adds collectives
/// only — the admission agreement on every solve (one `allgather`) and,
/// cold, the agreement on the row partition and the set-up verdict (one
/// `allgather` each).
const EXPECTED: &[(Backend, usize, Phase, [i64; 9])] = &[
    (Backend::RkspCg, 1, Phase::Cold, [0, 0, 0, 0, 3, 0, 0, 0, 0]),
    (Backend::RkspCg, 1, Phase::Warm, [0, 0, 0, 0, 1, 0, 0, 0, 0]),
    (Backend::RkspCg, 2, Phase::Cold, [0, 0, 0, 0, 3, 0, 0, 0, 0]),
    (Backend::RkspCg, 2, Phase::Warm, [0, 0, 0, 0, 1, 0, 0, 0, 0]),
    (Backend::RkspBicgstab, 1, Phase::Cold, [0, 0, 0, 0, 3, 0, 0, 0, 0]),
    (Backend::RkspBicgstab, 1, Phase::Warm, [0, 0, 0, 0, 1, 0, 0, 0, 0]),
    (Backend::RkspBicgstab, 2, Phase::Cold, [0, 0, 0, 0, 3, 0, 0, 0, 0]),
    (Backend::RkspBicgstab, 2, Phase::Warm, [0, 0, 0, 0, 1, 0, 0, 0, 0]),
    (Backend::RaztecGmres, 1, Phase::Cold, [0, 0, 0, 0, 3, 0, 0, 0, 0]),
    (Backend::RaztecGmres, 1, Phase::Warm, [0, 0, 0, 0, 1, 0, 0, 0, 0]),
    (Backend::RaztecGmres, 2, Phase::Cold, [0, 0, 0, 0, 3, 0, 0, 0, 0]),
    (Backend::RaztecGmres, 2, Phase::Warm, [0, 0, 0, 0, 1, 0, 0, 0, 0]),
    (Backend::RaztecBicgstab, 1, Phase::Cold, [0, 0, 0, 0, 3, 0, 0, 0, 0]),
    (Backend::RaztecBicgstab, 1, Phase::Warm, [0, 0, 0, 0, 1, 0, 0, 0, 0]),
    (Backend::RaztecBicgstab, 2, Phase::Cold, [0, 0, 0, 0, 3, 0, 0, 0, 0]),
    (Backend::RaztecBicgstab, 2, Phase::Warm, [0, 0, 0, 0, 1, 0, 0, 0, 0]),
    (Backend::Rslu, 1, Phase::Cold, [0, 0, 0, 0, 3, 0, 0, 0, 0]),
    (Backend::Rslu, 1, Phase::Warm, [0, 0, 0, 0, 1, 0, 0, 0, 0]),
    (Backend::Rslu, 2, Phase::Cold, [0, 0, 0, 0, 3, 0, 0, 0, 0]),
    (Backend::Rslu, 2, Phase::Warm, [0, 0, 0, 0, 1, 0, 0, 0, 0]),
    (Backend::Rmg, 1, Phase::Cold, [0, 0, 0, 0, 3, 0, 0, 0, 0]),
    (Backend::Rmg, 1, Phase::Warm, [0, 0, 0, 0, 1, 0, 0, 0, 0]),
    (Backend::Rmg, 2, Phase::Cold, [0, 0, 0, 0, 3, 0, 0, 0, 0]),
    (Backend::Rmg, 2, Phase::Warm, [0, 0, 0, 0, 1, 0, 0, 0, 0]),
];

impl Backend {
    /// The port options of this backend; the native paths configure the
    /// package to the same values.
    fn options(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Backend::RkspCg => &[("solver", "cg"), ("preconditioner", "jacobi"), ("tol", "1e-10")],
            Backend::RkspBicgstab => {
                &[("solver", "bicgstab"), ("preconditioner", "jacobi"), ("tol", "1e-10")]
            }
            Backend::RaztecGmres => {
                &[("solver", "gmres"), ("preconditioner", "jacobi"), ("tol", "1e-10")]
            }
            // Normalised by ‖b‖, as RKSP is; the native path sets the same.
            Backend::RaztecBicgstab => &[
                ("solver", "bicgstab"),
                ("preconditioner", "jacobi"),
                ("tol", "1e-10"),
                ("conv", "rhs"),
            ],
            Backend::Rslu => &[],
            Backend::Rmg => &[("tol", "1e-10")],
        }
    }

    fn adapter(self) -> Box<dyn SparseSolverPort> {
        match self {
            Backend::RkspCg | Backend::RkspBicgstab => Box::new(RkspAdapter::new()),
            Backend::RaztecGmres | Backend::RaztecBicgstab => Box::new(RaztecAdapter::new()),
            Backend::Rslu => Box::new(RsluAdapter::new()),
            Backend::Rmg => Box::new(RmgAdapter::new()),
        }
    }

    /// The systems this backend's cases solve.
    fn systems(self) -> &'static [System] {
        match self {
            Backend::RkspBicgstab | Backend::RaztecBicgstab => &[System::Laplacian, System::Paper],
            _ => &[System::Laplacian],
        }
    }
}

impl System {
    /// The global matrix and right-hand side at grid side `m`.
    fn assemble(self, m: usize) -> (CsrMatrix, Vec<f64>) {
        match self {
            System::Laplacian => {
                let a = generate::laplacian_2d(m);
                let b = generate::random_vector(a.rows(), 29);
                (a, b)
            }
            System::Paper => mesh::paper_problem(m).assemble_global(),
        }
    }
}

/// What one path did on one rank.
#[derive(Debug, PartialEq)]
struct Counted {
    traffic: [u64; 9],
    work: [u64; 3],
    iterations: usize,
    bits: Vec<u64>,
}

/// The probe's counts on this rank.
fn snapshot<const N: usize>(counters: [Counter; N]) -> [u64; N] {
    let report = probe::local_report();
    counters.map(|c| report.counter(c))
}

/// One rank's view of the system: its rows, its slice of `b`, the grid.
struct Local<'a> {
    comm: &'a Communicator,
    part: BlockRowPartition,
    rows: CsrMatrix,
    b: Vec<f64>,
    m: usize,
}

impl Local<'_> {
    fn dist(&self) -> DistCsrMatrix {
        DistCsrMatrix::from_local_rows(self.comm, self.part.clone(), self.rows.clone()).unwrap()
    }
}

/// Solve once (cold) or twice (warm) and count what the last solve did
/// on this rank. `solve` builds what it needs into its argument the
/// first time and returns the iteration count and this rank's rows of
/// the solution.
fn count_solve<T>(
    phase: Phase,
    mut solve: impl FnMut(&mut Option<T>) -> (usize, Vec<f64>),
) -> Counted {
    let mut built = None;
    if phase == Phase::Warm {
        solve(&mut built);
    }
    let (traffic0, work0) = (snapshot(TRAFFIC), snapshot(WORK));
    let (iterations, x) = solve(&mut built);
    let (traffic1, work1) = (snapshot(TRAFFIC), snapshot(WORK));
    Counted {
        traffic: std::array::from_fn(|i| traffic1[i] - traffic0[i]),
        work: std::array::from_fn(|i| work1[i] - work0[i]),
        iterations,
        bits: x.iter().map(|v| v.to_bits()).collect(),
    }
}

/// The package API: set up and solve, as a hand-coupled application
/// would; warm, solve again on what the first solve set up.
fn native(backend: Backend, l: &Local, phase: Phase) -> Counted {
    let comm = l.comm;
    let rank = comm.rank();
    match backend {
        Backend::RkspCg | Backend::RkspBicgstab => {
            let mut opts = krylov::Options::new();
            for (k, v) in backend.options() {
                opts.set(k, v);
            }
            let ksp = krylov::Ksp::from_options(&opts).unwrap();
            count_solve(phase, |built| {
                let (op, pc) = built.get_or_insert_with(|| {
                    let op = krylov::MatOperator::new(l.dist());
                    let pc = ksp.make_pc(&op).unwrap();
                    (op, pc)
                });
                let b = DistVector::from_local(l.part.clone(), rank, l.b.clone()).unwrap();
                let mut x = DistVector::zeros(l.part.clone(), rank);
                let res = ksp.solve_with_pc(comm, op, pc.as_ref(), &b, &mut x).unwrap();
                assert!(res.converged());
                (res.iterations, x.local().to_vec())
            })
        }
        Backend::RaztecGmres | Backend::RaztecBicgstab => {
            let (solver, conv) = match backend {
                Backend::RaztecGmres => ("gmres", aztec::AzConv::R0),
                _ => ("bicgstab", aztec::AzConv::Rhs),
            };
            let opts = aztec::AztecOptions {
                solver: aztec::AzSolver::parse(solver).unwrap(),
                precond: aztec::AzPrecond::parse("jacobi").unwrap(),
                tol: 1e-10,
                conv,
                ..Default::default()
            };
            let map = aztec::Map::from_partition(l.part.clone(), rank);
            count_solve(phase, |built| {
                let a = built.get_or_insert_with(|| {
                    aztec::CrsMatrix::from_local_rows(comm, map.clone(), l.rows.clone()).unwrap()
                });
                let mut az = aztec::AztecOO::new(a);
                az.set_options(opts.clone());
                let b = aztec::Vector::from_values(map.clone(), l.b.clone()).unwrap();
                let mut x = aztec::Vector::new(map.clone());
                let st = az.iterate(comm, &b, &mut x).unwrap();
                assert!(st.why.converged());
                (st.its, x.values().to_vec())
            })
        }
        Backend::Rslu => count_solve(phase, |built| {
            let lu = built.get_or_insert_with(|| {
                let mut lu = direct::DistRslu::new(direct::RsluOptions::default());
                lu.factorize(comm, &l.dist()).unwrap();
                lu
            });
            let mut x = vec![0.0; l.b.len()];
            lu.solve_local(comm, &l.part, &l.b, &mut x).unwrap();
            (0, x)
        }),
        Backend::Rmg => count_solve(phase, |built| {
            let hierarchy = built.get_or_insert_with(|| {
                let gathered = l.dist().gather_to_root(comm, 0).unwrap();
                gathered.map(|a| {
                    let coarse = multigrid::CoarseOperator::Galerkin;
                    multigrid::Hierarchy::build(a, l.m, coarse, 20, 1, None).unwrap()
                })
            });
            let cfg = multigrid::MgConfig { rtol: 1e-10, ..Default::default() };
            let chunks = comm.gatherv(0, &l.b).unwrap().map(|b| {
                let h = hierarchy.as_ref().expect("the root holds the hierarchy");
                let mut x = vec![0.0; b.len()];
                let res = multigrid::RmgSolver::new(h, cfg).unwrap().solve(&b, &mut x).unwrap();
                assert!(res.converged);
                let slice = |r| vec![(x[l.part.range(r)].to_vec(), res.cycles)];
                (0..comm.size()).map(slice).collect()
            });
            let (x, cycles) = comm.scatter(0, chunks).unwrap().pop().unwrap();
            (cycles, x)
        }),
    }
}

/// The same solve through the port; `tag` keeps the session cache's
/// entries of concurrent cases apart.
fn port(backend: Backend, l: &Local, phase: Phase, tag: &str) -> Counted {
    let range = l.part.range(l.comm.rank());
    let solver = backend.adapter();
    solver.initialize(l.comm.dup().unwrap()).unwrap();
    solver.set_start_row(range.start).unwrap();
    solver.set_local_rows(range.len()).unwrap();
    solver.set_global_cols(l.part.global_rows()).unwrap();
    solver.set("session_tag", tag).unwrap();
    for (k, v) in backend.options() {
        solver.set(k, v).unwrap();
    }
    let rows = &l.rows;
    count_solve(phase, |set_up| {
        set_up.get_or_insert_with(|| {
            let (v, p, c) = (rows.values(), rows.row_ptr(), rows.col_idx());
            solver.setup_matrix(v, p, c, SparseStruct::Csr).unwrap();
        });
        solver.setup_rhs(&l.b, 1).unwrap();
        let mut x = vec![0.0; range.len()];
        let mut status = [0.0; STATUS_LEN];
        solver.solve(&mut x, &mut status).unwrap();
        (SolveReport::from_slice(&status).iterations, x)
    })
}

/// Port minus native on every rank of a `p`-rank run of `system` at grid
/// side `m`.
fn differences(
    backend: Backend,
    system: System,
    p: usize,
    phase: Phase,
    m: usize,
) -> Vec<[i64; 9]> {
    let (a, b_full) = system.assemble(m);
    let n = a.rows();
    Universe::run(p, |comm| {
        probe::set_mode(probe::ProbeMode::Summary);
        let part = BlockRowPartition::even(n, comm.size());
        let range = part.range(comm.rank());
        let rows = a.row_block(range.start, range.end).unwrap();
        let l = Local { comm, part, rows, b: b_full[range].to_vec(), m };
        let tag = format!("port_overhead_{backend:?}_{system:?}_{p}_{phase:?}_{m}");
        let native = native(backend, &l, phase);
        let port = port(backend, &l, phase, &tag);
        let rank = comm.rank();
        let ctx = format!("{backend:?} on {system:?}, {p} ranks, {phase:?}, m = {m}, rank {rank}");
        assert_eq!(port.work, native.work, "{ctx}: matvecs, pc applies, iterations");
        assert_eq!(port.iterations, native.iterations, "{ctx}: reported iterations");
        assert_eq!(port.bits, native.bits, "{ctx}: solution bits");
        std::array::from_fn(|i| port.traffic[i] as i64 - native.traffic[i] as i64)
    })
}

/// Every case of `backend` in [`EXPECTED`], on each of its systems, at m
/// and 2m.
fn check(backend: Backend) {
    for &(_, p, phase, expect) in EXPECTED.iter().filter(|case| case.0 == backend) {
        for (&system, m) in backend.systems().iter().flat_map(|s| [(s, M), (s, 2 * M)]) {
            let diffs = differences(backend, system, p, phase, m);
            for (rank, diff) in diffs.into_iter().enumerate() {
                let ctx = format!("{backend:?} on {system:?}, {p} ranks, {phase:?}, m = {m}");
                assert_eq!(diff, expect, "{ctx}, rank {rank}: port minus native, by {TRAFFIC:?}");
            }
        }
    }
}

#[test]
fn rksp_cg_port_overhead() {
    check(Backend::RkspCg);
}

#[test]
fn rksp_bicgstab_port_overhead() {
    check(Backend::RkspBicgstab);
}

#[test]
fn raztec_gmres_port_overhead() {
    check(Backend::RaztecGmres);
}

#[test]
fn raztec_bicgstab_port_overhead() {
    check(Backend::RaztecBicgstab);
}

#[test]
fn rslu_port_overhead() {
    check(Backend::Rslu);
}

#[test]
fn rmg_port_overhead() {
    check(Backend::Rmg);
}
