//! The reduction schedule, pinned by exact count. On the 5-point
//! Laplacian with Jacobi (whose set-up and applies are collective-free),
//! every allreduce a solve posts is one of the Krylov loop's own:
//!
//! - CG: 3 before the loop (‖b‖, ‖r₀‖, r·z), then 2 per iteration (p·q,
//!   then ‖r‖², r·z and the wall-clock guard in one `allreduce_vec`).
//! - GMRES and FGMRES: 2 before the loop (‖b‖, ‖r₀‖), then 2 per inner
//!   iteration (all classical Gram–Schmidt coefficients in one, then ‖w‖
//!   with the guard), and 1 per restart (the recomputed true residual).
//!   A solve whose verdict lands inside cycle `c` has made `c − 1`
//!   restarts, i.e. `⌊its / m⌋` when `its` is not a multiple of `m`.
//! - BiCGStab: 3 before the loop (‖b‖, ‖r₀‖, r̂·r₀), then 4 per iteration
//!   (r̂·v; ‖s‖² with the guard; t·t and t·s; ‖r‖², the guard and r̂·r).
//!   An iteration that converges on ‖s‖ stops after its second.

use rcomm::Universe;
use rkrylov::{Ksp, KspConfig, KspType, MatOperator, PcType};
use rsparse::{generate, BlockRowPartition, DistCsrMatrix, DistVector};

/// Solve the `m × m` Laplacian at `p` ranks with GMRES restart `restart`
/// and return every rank's `(KspResult, allreduce calls made by the
/// solve)`.
fn solve_counted(
    ksp_type: KspType,
    p: usize,
    m: usize,
    restart: usize,
) -> Vec<(rkrylov::KspResult, u64)> {
    solve_counted_to(ksp_type, p, m, restart, 1e-10)
}

/// [`solve_counted`] to relative tolerance `rtol`.
fn solve_counted_to(
    ksp_type: KspType,
    p: usize,
    m: usize,
    restart: usize,
    rtol: f64,
) -> Vec<(rkrylov::KspResult, u64)> {
    let a = generate::laplacian_2d(m);
    let n = a.rows();
    let b = a.matvec(&generate::random_vector(n, 23)).unwrap();
    Universe::run(p, move |comm| {
        let part = BlockRowPartition::even(n, comm.size());
        let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
        let op = MatOperator::new(da);
        let db = DistVector::from_global(part.clone(), comm.rank(), &b).unwrap();
        let mut dx = DistVector::zeros(part, comm.rank());
        let ksp = Ksp::new(KspConfig {
            ksp_type,
            pc_type: PcType::Jacobi,
            rtol,
            maxits: 2000,
            restart,
            ..KspConfig::default()
        })
        .unwrap();
        let before = comm.allreduce_count();
        let res = ksp.solve(comm, &op, &db, &mut dx).unwrap();
        (res, comm.allreduce_count() - before)
    })
}

#[test]
fn cg_posts_three_plus_two_allreduces_per_iteration() {
    for p in [1usize, 4] {
        for (rank, (res, count)) in solve_counted(KspType::Cg, p, 10, 30).iter().enumerate() {
            assert!(res.converged() && res.iterations > 2, "p = {p}");
            assert_eq!(*count, 3 + 2 * res.iterations as u64, "p = {p}, rank {rank}");
        }
    }
}

/// GMRES and FGMRES post the same schedule: the flexible variant only
/// changes which basis the update is formed from.
fn assert_gmres_schedule(ksp_type: KspType) {
    // Restart 50 converges inside the first cycle; restart 7 restarts.
    for (restart, restarted) in [(50usize, false), (7, true)] {
        for p in [1usize, 4] {
            let out = solve_counted(ksp_type, p, 10, restart);
            for (rank, (res, count)) in out.iter().enumerate() {
                let ctx = format!("{ksp_type:?}({restart}), p = {p}, rank {rank}");
                let its = res.iterations;
                assert!(res.converged(), "{ctx}");
                assert_ne!(its % restart, 0, "{ctx}: the verdict must land inside a cycle");
                let restarts = its / restart;
                assert_eq!(restarts > 0, restarted, "{ctx}: {its} iterations");
                assert_eq!(*count, 2 + 2 * its as u64 + restarts as u64, "{ctx}: {its} its");
            }
        }
    }
}

#[test]
fn gmres_posts_two_allreduces_per_inner_iteration_and_one_per_restart() {
    assert_gmres_schedule(KspType::Gmres);
}

#[test]
fn fgmres_posts_the_gmres_schedule() {
    assert_gmres_schedule(KspType::Fgmres);
}

#[test]
fn bicgstab_posts_three_plus_four_allreduces_per_iteration() {
    // Tolerances chosen so both exits occur: on ‖s‖ half-way through an
    // iteration and on ‖r‖ at its end.
    let mut exits = [false; 2];
    for p in [1usize, 4] {
        for rtol in [1e-10, 1e-8, 1e-6, 1e-4] {
            for (rank, (res, count)) in
                solve_counted_to(KspType::BiCgStab, p, 10, 30, rtol).iter().enumerate()
            {
                let ctx = format!("p = {p}, rtol = {rtol:e}, rank {rank}");
                let its = res.iterations as u64;
                assert!(res.converged() && its > 2, "{ctx}");
                // Every iteration checks ‖s‖ and ‖r‖; the last may stop
                // after the first.
                let checks = res.history.len() as u64 - 1;
                let half_step = checks == 2 * its - 1;
                assert!(half_step || checks == 2 * its, "{ctx}: {checks} checks");
                exits[half_step as usize] = true;
                let last = if half_step { 2 } else { 4 };
                assert_eq!(*count, 3 + 4 * (its - 1) + last, "{ctx}: {its} its");
            }
        }
    }
    assert_eq!(exits, [true, true], "both exits were exercised");
}
