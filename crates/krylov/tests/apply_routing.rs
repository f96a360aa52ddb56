//! Which operator entry point a CG, GMRES or FGMRES solve calls, and how
//! often. A single column — through `solve_with_pc` or a one-column
//! `solve_batch_with_pc` — calls only `LinearOperator::apply`; a wider
//! batch calls only `apply_multi`, once per step. Either way the solve
//! makes as many operator and preconditioner applications as the
//! single-vector loops did: CG 1 + its operator and 1 + its
//! preconditioner applications; GMRES and FGMRES 1 + its + restarts
//! operator applications, and its preconditioner applications plus, for
//! GMRES, one per correction (restarts + 1). A batch runs its columns in
//! lockstep, so it makes the longest column's operator count and every
//! column's preconditioner applications. A right-hand side or iterate on
//! another partition is a typed `BadBlockPartition` on every rank.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use rcomm::{Communicator, Universe};
use rkrylov::{
    Ksp, KspConfig, KspError, KspResult, KspType, LinearOperator, MatOperator, PcType,
    Preconditioner,
};
use rsparse::{generate, BlockRowPartition, CsrMatrix, DistCsrMatrix, DistVector, SparseError};

/// A matrix operator that counts calls to each entry point.
struct CountingOp {
    inner: MatOperator,
    applies: AtomicUsize,
    multis: AtomicUsize,
}

impl LinearOperator for CountingOp {
    fn partition(&self) -> &BlockRowPartition {
        self.inner.partition()
    }

    fn apply(
        &self,
        comm: &Communicator,
        x: &DistVector,
        y: &mut DistVector,
    ) -> Result<(), KspError> {
        self.applies.fetch_add(1, Relaxed);
        self.inner.apply(comm, x, y)
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
    ) -> Result<(), KspError> {
        self.multis.fetch_add(1, Relaxed);
        self.inner.apply_multi(comm, xs, ys, k)
    }
}

/// A preconditioner that counts its applications.
struct CountingPc {
    inner: Box<dyn Preconditioner>,
    applies: AtomicUsize,
}

impl Preconditioner for CountingPc {
    fn apply(
        &self,
        comm: &Communicator,
        r: &DistVector,
        z: &mut DistVector,
    ) -> Result<(), KspError> {
        self.applies.fetch_add(1, Relaxed);
        self.inner.apply(comm, r, z)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Operator and preconditioner applications the single-vector loop makes
/// for a solve that stopped inside a restart cycle after `its` iterations.
fn single_loop_counts(cfg: &KspConfig, its: usize) -> (usize, usize) {
    let restarts = (its - 1) / cfg.restart;
    match cfg.ksp_type {
        KspType::Cg => (1 + its, 1 + its),
        KspType::Gmres => (1 + its + restarts, its + restarts + 1),
        _ => (1 + its + restarts, its),
    }
}

#[derive(Debug, PartialEq)]
struct Counts {
    applies: usize,
    multis: usize,
    pc_applies: usize,
}

/// Solve `k` columns (`k = 0`: one column through `solve_with_pc`) and
/// return what the operator and preconditioner saw, with the results.
fn run(comm: &Communicator, a: &CsrMatrix, cfg: &KspConfig, k: usize) -> (Counts, Vec<KspResult>) {
    let n = a.rows();
    let part = BlockRowPartition::even(n, comm.size());
    let op = CountingOp {
        inner: MatOperator::new(DistCsrMatrix::from_global(comm, part.clone(), a).unwrap()),
        applies: AtomicUsize::new(0),
        multis: AtomicUsize::new(0),
    };
    let ksp = Ksp::new(cfg.clone()).unwrap();
    let pc = CountingPc { inner: ksp.make_pc(&op).unwrap(), applies: AtomicUsize::new(0) };
    let cols: Vec<DistVector> = (0..k.max(1))
        .map(|q| {
            let b = a.matvec(&generate::random_vector(n, 5 + q as u64)).unwrap();
            DistVector::from_global(part.clone(), comm.rank(), &b).unwrap()
        })
        .collect();
    let results = if k == 0 {
        let mut x = DistVector::zeros(part.clone(), comm.rank());
        vec![ksp.solve_with_pc(comm, &op, &pc, &cols[0], &mut x).unwrap()]
    } else {
        let bs: Vec<f64> = cols.iter().flat_map(|b| b.local().to_vec()).collect();
        let mut xs = vec![0.0; bs.len()];
        ksp.solve_batch_with_pc(comm, &op, &pc, &bs, &mut xs, k).unwrap()
    };
    let counts = Counts {
        applies: op.applies.load(Relaxed),
        multis: op.multis.load(Relaxed),
        pc_applies: pc.applies.load(Relaxed),
    };
    (counts, results)
}

#[test]
fn one_column_applies_and_a_batch_applies_multi_as_often_as_the_single_loop() {
    let a = generate::laplacian_2d(10);
    let cases = [
        (KspType::Cg, PcType::Jacobi, 30),
        (KspType::Gmres, PcType::Jacobi, 50),
        (KspType::Gmres, PcType::Ilu0, 7),
        (KspType::Fgmres, PcType::Jacobi, 7),
    ];
    for (ksp_type, pc_type, restart) in cases {
        let cfg = KspConfig { ksp_type, pc_type, restart, rtol: 1e-9, ..KspConfig::default() };
        for ranks in [1usize, 3] {
            let out =
                Universe::run(ranks, |comm| [0usize, 1, 2, 4].map(|k| (k, run(comm, &a, &cfg, k))));
            for (rank, cases) in out.iter().enumerate() {
                for (k, (counts, results)) in cases {
                    let tag = format!("{ksp_type:?}/restart {restart}/{ranks}r rank {rank}/k{k}");
                    assert!(results.iter().all(|r| r.converged() && r.iterations > 7), "{tag}");
                    let per_column: Vec<(usize, usize)> =
                        results.iter().map(|r| single_loop_counts(&cfg, r.iterations)).collect();
                    let ops = per_column.iter().map(|c| c.0).max().unwrap();
                    let expect = Counts {
                        applies: if *k <= 1 { ops } else { 0 },
                        multis: if *k <= 1 { 0 } else { ops },
                        pc_applies: per_column.iter().map(|c| c.1).sum(),
                    };
                    assert_eq!(*counts, expect, "{tag}");
                }
            }
        }
    }
}

#[test]
fn vectors_on_another_partition_are_rejected_on_every_rank() {
    let a = generate::laplacian_2d(6);
    let n = a.rows();
    for ksp_type in [KspType::Cg, KspType::Gmres, KspType::Fgmres, KspType::BiCgStab] {
        for ranks in [1usize, 3] {
            let out = Universe::run(ranks, |comm| {
                let part = BlockRowPartition::even(n, comm.size());
                let other = BlockRowPartition::even(n + 3, comm.size());
                let op =
                    MatOperator::new(DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap());
                let ksp = Ksp::new(KspConfig {
                    ksp_type,
                    pc_type: PcType::Jacobi,
                    ..KspConfig::default()
                })
                .unwrap();
                let pc = ksp.make_pc(&op).unwrap();
                let rank = comm.rank();
                let (b, mut x) =
                    (DistVector::zeros(part.clone(), rank), DistVector::zeros(part.clone(), rank));
                let (b_other, mut x_other) =
                    (DistVector::zeros(other.clone(), rank), DistVector::zeros(other, rank));
                [
                    ksp.solve_with_pc(comm, &op, pc.as_ref(), &b_other, &mut x).unwrap_err(),
                    ksp.solve_with_pc(comm, &op, pc.as_ref(), &b, &mut x_other).unwrap_err(),
                ]
            });
            for (rank, errs) in out.iter().enumerate() {
                for err in errs {
                    assert!(
                        matches!(err, KspError::Sparse(SparseError::BadBlockPartition(_))),
                        "{ksp_type:?}/{ranks}r rank {rank}: {err}"
                    );
                }
            }
        }
    }
}
