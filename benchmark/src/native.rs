//! The native replay of a request: the same system solved by calling the
//! package directly, as a hand-coupled application would, through
//! benchmark-owned wrappers that record a span per call into the layer
//! below. Port time minus this is Table 1's overhead column.

use rcomm::Communicator;
use rkrylov::{LinearOperator, MatOperator, Preconditioner};
use rsparse::{BlockRowPartition, CsrMatrix, DistCsrMatrix, DistVector};

use crate::session::RankData;
use crate::trace::Recorder;
use crate::workloads::{Package, Workload, MAXITS, TOL};

/// `rkrylov::LinearOperator` with a span around every apply.
struct TracedOperator {
    inner: MatOperator,
    rec: Recorder,
}

impl LinearOperator for TracedOperator {
    fn partition(&self) -> &BlockRowPartition {
        self.inner.partition()
    }

    fn apply(
        &self,
        comm: &Communicator,
        x: &DistVector,
        y: &mut DistVector,
    ) -> Result<(), rkrylov::KspError> {
        self.rec
            .scope("sparse.spmv", || self.inner.apply(comm, x, y))
    }

    fn diagonal_local(&self) -> Option<Vec<f64>> {
        self.inner.diagonal_local()
    }

    fn diagonal_block(&self) -> Option<CsrMatrix> {
        self.inner.diagonal_block()
    }

    fn apply_multi(
        &self,
        comm: &Communicator,
        xs: &[f64],
        ys: &mut [f64],
        k: usize,
    ) -> Result<(), rkrylov::KspError> {
        self.rec.scope("sparse.spmv_multi", || {
            self.inner.apply_multi(comm, xs, ys, k)
        })
    }
}

/// `rkrylov::Preconditioner` with a span around every apply.
struct TracedPc {
    inner: Box<dyn Preconditioner>,
    rec: Recorder,
}

impl Preconditioner for TracedPc {
    fn apply(
        &self,
        comm: &Communicator,
        r: &DistVector,
        z: &mut DistVector,
    ) -> Result<(), rkrylov::KspError> {
        self.rec
            .scope("krylov.pc_apply", || self.inner.apply(comm, r, z))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// `raztec::RowMatrix` with a span around every apply. Seen from outside,
/// RAztec's matvec is the SpMV plus its vector bridge.
struct TracedRowMatrix {
    inner: raztec::CrsMatrix,
    rec: Recorder,
}

impl raztec::RowMatrix for TracedRowMatrix {
    fn row_map(&self) -> &raztec::Map {
        self.inner.row_map()
    }

    fn apply(
        &self,
        comm: &Communicator,
        x: &raztec::Vector,
        y: &mut raztec::Vector,
    ) -> raztec::AztecResult<()> {
        self.rec
            .scope("aztec.matvec", || self.inner.apply(comm, x, y))
    }

    fn extract_my_row(
        &self,
        lid: usize,
        cols: &mut Vec<usize>,
        vals: &mut Vec<f64>,
    ) -> Option<usize> {
        self.inner.extract_my_row(lid, cols, vals)
    }

    fn extract_diagonal(&self) -> Option<Vec<f64>> {
        self.inner.extract_diagonal()
    }

    fn num_global_nonzeros(&self) -> Option<usize> {
        self.inner.num_global_nonzeros()
    }
}

// One per rank and session, never in a collection: boxing the big variant
// would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Solver {
    Rksp {
        op: TracedOperator,
        pc: TracedPc,
        ksp: rkrylov::Ksp,
    },
    Raztec {
        a: TracedRowMatrix,
        options: raztec::AztecOptions,
    },
    Rslu {
        dist: DistCsrMatrix,
        lu: rdirect::DistRslu,
    },
}

/// A package set up natively on this rank's rows, ready to replay requests.
pub struct Native {
    solver: Solver,
    partition: BlockRowPartition,
    rec: Recorder,
}

/// What a native solve reported.
pub struct NativeOutcome {
    pub x: Vec<f64>,
    pub converged: bool,
    pub iterations: usize,
}

impl Native {
    /// Distribute the matrix and build the preconditioner or factorization,
    /// each under its own span.
    pub fn setup(comm: &Communicator, w: &Workload, data: &RankData, rec: &Recorder) -> Native {
        let partition = BlockRowPartition::even(data.global_rows, comm.size());
        let distribute = || {
            rec.scope("sparse.distribute", || {
                DistCsrMatrix::from_local_rows(comm, partition.clone(), data.local.clone())
                    .expect("distribute")
            })
        };
        let solver = match w.package {
            Package::Rksp => {
                let mut opts = rkrylov::Options::new();
                for (k, v) in w.params() {
                    opts.set(k, v);
                }
                let ksp = rkrylov::Ksp::from_options(&opts).expect("configure");
                let op = TracedOperator {
                    inner: MatOperator::new(distribute()),
                    rec: rec.clone(),
                };
                let pc = rec.scope("krylov.pc_setup", || {
                    ksp.make_pc(&op).expect("preconditioner")
                });
                Solver::Rksp {
                    op,
                    pc: TracedPc {
                        inner: pc,
                        rec: rec.clone(),
                    },
                    ksp,
                }
            }
            Package::Raztec => {
                let options = raztec::AztecOptions {
                    solver: raztec::AzSolver::parse(w.solver).expect("solver"),
                    precond: raztec::AzPrecond::parse(w.preconditioner).expect("preconditioner"),
                    conv: raztec::AzConv::Rhs,
                    tol: TOL.parse().expect("tolerance"),
                    max_iter: MAXITS.parse().expect("iteration cap"),
                    ..Default::default()
                };
                let map = raztec::Map::from_partition(partition.clone(), comm.rank());
                let a = rec.scope("sparse.distribute", || {
                    raztec::CrsMatrix::from_local_rows(comm, map, data.local.clone())
                        .expect("distribute")
                });
                Solver::Raztec {
                    a: TracedRowMatrix {
                        inner: a,
                        rec: rec.clone(),
                    },
                    options,
                }
            }
            Package::Rslu => {
                let dist = distribute();
                let mut lu = rdirect::DistRslu::new(rdirect::RsluOptions::default());
                rec.scope("direct.factor", || {
                    lu.factorize(comm, &dist).expect("factorize")
                });
                Solver::Rslu { dist, lu }
            }
        };
        Native {
            solver,
            partition,
            rec: rec.clone(),
        }
    }

    /// The distributed matrix under the package, for the kernel call loops.
    pub fn matrix(&self) -> &DistCsrMatrix {
        match &self.solver {
            Solver::Rksp { op, .. } => op.inner.matrix(),
            Solver::Raztec { a, .. } => a.inner.inner(),
            Solver::Rslu { dist, .. } => dist,
        }
    }

    /// Entries of L + U on the rank that holds the factors; 0 elsewhere
    /// and for the iterative packages.
    pub fn fill_nnz(&self) -> usize {
        match &self.solver {
            Solver::Rslu { lu, .. } => lu.root_solver().stats().fill,
            _ => 0,
        }
    }

    /// Solve for `nrhs` right-hand sides (column-major local slices) from a
    /// zero guess, the package call alone under its span.
    pub fn solve(&mut self, comm: &Communicator, rhs: &[f64], nrhs: usize) -> NativeOutcome {
        let rank = comm.rank();
        let rows = self.partition.local_rows(rank);
        let rec = self.rec.clone();
        match &mut self.solver {
            Solver::Rksp { op, pc, ksp } if nrhs > 1 => {
                let mut x = vec![0.0; rows * nrhs];
                let results = rec
                    .scope("krylov.solve", || {
                        ksp.solve_batch_with_pc(comm, &*op, &*pc, rhs, &mut x, nrhs)
                    })
                    .expect("batched solve");
                NativeOutcome {
                    x,
                    converged: results.iter().all(|r| r.converged()),
                    iterations: results.iter().map(|r| r.iterations).max().unwrap_or(0),
                }
            }
            Solver::Rksp { op, pc, ksp } => {
                let b = DistVector::from_local(self.partition.clone(), rank, rhs.to_vec())
                    .expect("rhs");
                let mut x = DistVector::zeros(self.partition.clone(), rank);
                let r = rec
                    .scope("krylov.solve", || {
                        ksp.solve_with_pc(comm, &*op, &*pc, &b, &mut x)
                    })
                    .expect("solve");
                NativeOutcome {
                    x: x.local().to_vec(),
                    converged: r.converged(),
                    iterations: r.iterations,
                }
            }
            Solver::Raztec { a, options } => {
                let map = raztec::RowMatrix::row_map(a).clone();
                let b = raztec::Vector::from_values(map.clone(), rhs.to_vec()).expect("rhs");
                let mut x = raztec::Vector::new(map);
                let mut az = raztec::AztecOO::new(&*a);
                az.set_options(options.clone());
                let st = rec
                    .scope("aztec.iterate", || az.iterate(comm, &b, &mut x))
                    .expect("iterate");
                NativeOutcome {
                    x: x.values().to_vec(),
                    converged: st.why.converged(),
                    iterations: st.its,
                }
            }
            Solver::Rslu { lu, .. } => {
                let b = DistVector::from_local(self.partition.clone(), rank, rhs.to_vec())
                    .expect("rhs");
                let x = rec
                    .scope("direct.trisolve", || lu.solve(comm, &self.partition, &b))
                    .expect("solve");
                NativeOutcome {
                    x: x.local().to_vec(),
                    converged: true,
                    iterations: 0,
                }
            }
        }
    }
}
