//! Preconditioned conjugate gradients (Hestenes–Stiefel), for SPD
//! operators with an SPD preconditioner.
//!
//! Collectives per solve: 3 before the loop (‖b‖, ‖r₀‖, r·z), then 2 per
//! iteration (p·q, then ‖r‖², r·z and the wall-clock guard in one).

use rcomm::Communicator;
use rsparse::DistVector;

use crate::operator::LinearOperator;
use crate::pc::Preconditioner;
use crate::result::{ConvergedReason, KspOutcome, KspResult};
use crate::solver::{KspConfig, Monitor};

pub(crate) fn solve(
    comm: &Communicator,
    op: &dyn LinearOperator,
    pc: &dyn Preconditioner,
    b: &DistVector,
    x: &mut DistVector,
    cfg: &KspConfig,
) -> KspOutcome<KspResult> {
    cfg.validate()?;
    let part = op.partition().clone();
    let rank = comm.rank();

    let bnorm = b.norm2(comm)?;
    let mut r = b.clone();
    let mut scratch = DistVector::zeros(part.clone(), rank);
    op.apply(comm, x, &mut scratch)?;
    r.axpy(-1.0, &scratch)?;
    let r0 = r.norm2(comm)?;
    let mut mon = Monitor::new(comm, cfg, bnorm, r0);
    if let Some(reason) = mon.check(0, r0) {
        return Ok(mon.finish(reason, 0, r0, r0));
    }

    let mut z = DistVector::zeros(part.clone(), rank);
    pc.apply(comm, &r, &mut z)?;
    let mut p = z.clone();
    let mut q = DistVector::zeros(part, rank);
    let mut rz = r.dot(&z, comm)?;

    let mut iterations = 0usize;
    let mut rnorm = r0;
    // The CG scalars double as Lanczos coefficients; keep them so the
    // result can carry a condition-number estimate (see
    // [`crate::analytics`]).
    let mut alphas: Vec<f64> = Vec::new();
    let mut betas: Vec<f64> = Vec::new();
    let reason = loop {
        iterations += 1;
        op.apply(comm, &p, &mut q)?;
        let pq = p.dot(&q, comm)?;
        if pq == 0.0 || !pq.is_finite() {
            break ConvergedReason::Breakdown;
        }
        let alpha = rz / pq;
        alphas.push(alpha);
        x.axpy(alpha, &p)?;
        // r ← r − α·q, with ‖r‖² formed in the same pass.
        let rr = rsparse::dense::axpy_norm2_sq(-alpha, q.local(), r.local_mut());
        // Apply the preconditioner first, then reduce ‖r‖², r·z and the
        // wall-clock guard flag in one collective: 2 allreduces per
        // iteration (p·q and this one), and the timeout verdict is
        // rank-agreed for free. The allreduce is elementwise over the
        // same rank-ordered tree, so each component is bit-identical to
        // its standalone reduction.
        pc.apply(comm, &r, &mut z)?;
        let local = [rr, rsparse::dense::pdot(r.local(), z.local()), mon.local_guard()];
        let fused = comm.allreduce_vec(&local, rcomm::sum)?;
        rnorm = fused[0].sqrt();
        let rz_new = fused[1];
        mon.absorb_guard(fused[2]);
        if let Some(reason) = mon.check(iterations, rnorm) {
            break reason;
        }
        if cfg.checkpoint_every > 0 && iterations.is_multiple_of(cfg.checkpoint_every) {
            // Elastic-recovery snapshot (x, r) at the checkpoint boundary;
            // every rank passes here on the same iteration, so the
            // deposited generation is cohort-consistent up to the one
            // in-flight boundary `latest_consistent` tolerates.
            crate::checkpoint::deposit(
                comm.world_members()[rank],
                iterations,
                op.partition().start_row(rank),
                x.local(),
                r.local(),
            );
        }
        if rz == 0.0 {
            break ConvergedReason::Breakdown;
        }
        let beta = rz_new / rz;
        betas.push(beta);
        rz = rz_new;
        // p ← z + β·p (threaded elementwise kernel; same arithmetic).
        rsparse::dense::xpby(z.local(), beta, p.local_mut());
    };
    let mut result = mon.finish(reason, iterations, r0, rnorm);
    result.cond_estimate = crate::analytics::cond_estimate_from_cg(&alphas, &betas);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::MatOperator;
    use crate::pc::{make_preconditioner, PcType};
    use rcomm::Universe;
    use rsparse::{generate, BlockRowPartition, DistCsrMatrix};

    /// The loop as it stood before `axpy_norm2_sq` — the residual update
    /// and its norm two passes — kept as the oracle [`solve`] must match
    /// bit for bit.
    fn solve_unfused(
        comm: &Communicator,
        op: &dyn LinearOperator,
        pc: &dyn Preconditioner,
        b: &DistVector,
        x: &mut DistVector,
        cfg: &KspConfig,
    ) -> KspOutcome<KspResult> {
        cfg.validate()?;
        let part = op.partition().clone();
        let rank = comm.rank();

        let bnorm = b.norm2(comm)?;
        let mut r = b.clone();
        let mut scratch = DistVector::zeros(part.clone(), rank);
        op.apply(comm, x, &mut scratch)?;
        r.axpy(-1.0, &scratch)?;
        let r0 = r.norm2(comm)?;
        let mut mon = Monitor::new(comm, cfg, bnorm, r0);
        if let Some(reason) = mon.check(0, r0) {
            return Ok(mon.finish(reason, 0, r0, r0));
        }

        let mut z = DistVector::zeros(part.clone(), rank);
        pc.apply(comm, &r, &mut z)?;
        let mut p = z.clone();
        let mut q = DistVector::zeros(part, rank);
        let mut rz = r.dot(&z, comm)?;

        let mut iterations = 0usize;
        let mut rnorm = r0;
        // The CG scalars double as Lanczos coefficients; keep them so the
        // result can carry a condition-number estimate (see
        // [`crate::analytics`]).
        let mut alphas: Vec<f64> = Vec::new();
        let mut betas: Vec<f64> = Vec::new();
        let reason = loop {
            iterations += 1;
            op.apply(comm, &p, &mut q)?;
            let pq = p.dot(&q, comm)?;
            if pq == 0.0 || !pq.is_finite() {
                break ConvergedReason::Breakdown;
            }
            let alpha = rz / pq;
            alphas.push(alpha);
            x.axpy(alpha, &p)?;
            r.axpy(-alpha, &q)?;
            pc.apply(comm, &r, &mut z)?;
            let local = [
                rsparse::dense::pdot(r.local(), r.local()),
                rsparse::dense::pdot(r.local(), z.local()),
                mon.local_guard(),
            ];
            let fused = comm.allreduce_vec(&local, rcomm::sum)?;
            rnorm = fused[0].sqrt();
            let rz_new = fused[1];
            mon.absorb_guard(fused[2]);
            if let Some(reason) = mon.check(iterations, rnorm) {
                break reason;
            }
            if cfg.checkpoint_every > 0 && iterations.is_multiple_of(cfg.checkpoint_every) {
                // Elastic-recovery snapshot (x, r) at the checkpoint boundary;
                // every rank passes here on the same iteration, so the
                // deposited generation is cohort-consistent up to the one
                // in-flight boundary `latest_consistent` tolerates.
                crate::checkpoint::deposit(
                    comm.world_members()[rank],
                    iterations,
                    op.partition().start_row(rank),
                    x.local(),
                    r.local(),
                );
            }
            if rz == 0.0 {
                break ConvergedReason::Breakdown;
            }
            let beta = rz_new / rz;
            betas.push(beta);
            rz = rz_new;
            // p ← z + β·p (threaded elementwise kernel; same arithmetic).
            rsparse::dense::xpby(z.local(), beta, p.local_mut());
        };
        let mut result = mon.finish(reason, iterations, r0, rnorm);
        result.cond_estimate = crate::analytics::cond_estimate_from_cg(&alphas, &betas);
        Ok(result)
    }

    /// Verdict, iteration count, condition estimate, residual history and
    /// iterate of both loops on `ranks` ranks, bit for bit.
    fn assert_matches_oracle(a: &rsparse::CsrMatrix, pc_type: PcType, ranks: usize) {
        let n = a.rows();
        let b = a.matvec(&generate::random_vector(n, 43)).unwrap();
        let tag = format!("{pc_type:?}/{ranks}r");
        Universe::run(ranks, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let da = DistCsrMatrix::from_global(comm, part.clone(), a).unwrap();
            let op = MatOperator::new(da);
            let pc = make_preconditioner(pc_type, &op).unwrap();
            let db = DistVector::from_global(part.clone(), comm.rank(), &b).unwrap();
            let cfg = KspConfig { rtol: 1e-10, ..KspConfig::default() };
            let mut x_new = DistVector::zeros(part.clone(), comm.rank());
            let mut x_old = DistVector::zeros(part, comm.rank());
            let new = solve(comm, &op, pc.as_ref(), &db, &mut x_new, &cfg).unwrap();
            let old = solve_unfused(comm, &op, pc.as_ref(), &db, &mut x_old, &cfg).unwrap();
            assert_eq!(new.reason, old.reason, "{tag}");
            assert_eq!(new.iterations, old.iterations, "{tag}");
            assert!(new.converged() && new.iterations > 2, "{tag}");
            assert_eq!(new.cond_estimate, old.cond_estimate, "{tag}");
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&new.history), bits(&old.history), "{tag} history");
            assert_eq!(bits(x_new.local()), bits(x_old.local()), "{tag} iterate");
        });
    }

    #[test]
    fn fused_update_matches_the_unfused_oracle_bitwise() {
        let a = generate::laplacian_2d(12);
        for ranks in [1usize, 2, 3] {
            for pc_type in [PcType::Jacobi, PcType::Ic0] {
                assert_matches_oracle(&a, pc_type, ranks);
            }
        }
    }

    #[test]
    fn fused_update_matches_the_oracle_with_variable_coefficients() {
        let laplacian = generate::laplacian_2d(12);
        for ranks in [1usize, 2, 3] {
            let (a, uniform) = crate::solver::vary_second_half(&laplacian, ranks);
            let split = [vec![false], vec![true, false], vec![true, false, false]];
            assert_eq!(uniform, split[ranks - 1], "{ranks}r Jacobi slices");
            for pc_type in [PcType::Jacobi, PcType::Ic0] {
                assert_matches_oracle(&a, pc_type, ranks);
            }
        }
    }
}
