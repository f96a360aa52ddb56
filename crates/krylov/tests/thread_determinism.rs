//! End-to-end thread-determinism test: a CG + ILU(0) solve large enough
//! for the threaded SpMV chunks and blocked reductions to engage must
//! reproduce the serial residual history **bit for bit** when the
//! rank-local thread count changes — the contract that makes
//! `RSPARSE_THREADS` a pure performance knob. (The triangular sweeps are
//! single-threaded at every count, so they hold it by construction.)

use rcomm::Universe;
use rkrylov::{Ksp, KspConfig, KspType, MatOperator, PcType};
use rsparse::{generate, BlockRowPartition, DistCsrMatrix, DistVector};

/// Solve the m×m 5-point Laplacian with CG + ILU(0) on one rank.
fn solve_cg_ilu(m: usize) -> rkrylov::KspResult {
    let a = generate::laplacian_2d(m);
    let n = a.rows();
    let x_true = generate::random_vector(n, 41);
    let b = a.matvec(&x_true).unwrap();
    let out = Universe::run(1, move |comm| {
        let part = BlockRowPartition::even(n, comm.size());
        let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
        let op = MatOperator::new(da);
        let db = DistVector::from_global(part.clone(), comm.rank(), &b).unwrap();
        let mut dx = DistVector::zeros(part, comm.rank());
        let ksp = Ksp::new(KspConfig {
            ksp_type: KspType::Cg,
            pc_type: PcType::Ilu0,
            rtol: 1e-8,
            maxits: 60,
            ..KspConfig::default()
        })
        .unwrap();
        ksp.solve(comm, &op, &db, &mut dx).unwrap()
    });
    out.into_iter().next().unwrap()
}

/// Both thread counts solve in one test body: the thread count is
/// process-global, so interleaving with another test that sets it would
/// race. 80×80 gives n = 6400 rows — past the row count at which the
/// SpMV dispatches to the pool.
#[test]
fn cg_ilu0_history_is_bit_identical_across_thread_counts() {
    rsparse::threads::set_threads(1);
    let serial = solve_cg_ilu(80);
    rsparse::threads::set_threads(4);
    let threaded = solve_cg_ilu(80);
    rsparse::threads::set_threads(1);

    assert!(serial.history.len() > 5, "solve should iterate: {serial:?}");
    assert_eq!(serial.iterations, threaded.iterations);
    assert_eq!(serial.history.len(), threaded.history.len());
    for (i, (s, t)) in serial.history.iter().zip(&threaded.history).enumerate() {
        assert_eq!(
            s.to_bits(),
            t.to_bits(),
            "residual history diverged at iteration {i}: {s} vs {t}"
        );
    }
    assert_eq!(
        serial.final_residual.to_bits(),
        threaded.final_residual.to_bits()
    );
}
