//! BiCGStab (van der Vorst) with right preconditioning — the workhorse for
//! the paper's nonsymmetric convection–diffusion systems.

use rcomm::Communicator;
use rsparse::{dense, DistVector};

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
    let mut t = DistVector::zeros(part.clone(), rank);
    op.apply(comm, x, &mut t)?;
    r.axpy(-1.0, &t)?;
    let r0_norm = r.norm2(comm)?;
    let mut mon = Monitor::new(comm, cfg, bnorm, r0_norm);
    if let Some(reason) = mon.check(0, r0_norm) {
        return Ok(mon.finish(reason, 0, r0_norm, r0_norm));
    }

    // Shadow residual r̂ = r₀ (fixed).
    let r_hat = r.clone();
    let mut p = r.clone();
    let mut v = DistVector::zeros(part.clone(), rank);
    let mut p_hat = DistVector::zeros(part.clone(), rank);
    let mut s_hat = DistVector::zeros(part, rank);
    let mut rho = r_hat.dot(&r, comm)?;

    let mut iterations = 0usize;
    let mut rnorm = r0_norm;
    let reason = loop {
        iterations += 1;
        // p̂ = M⁻¹·p ; v = A·p̂.
        pc.apply(comm, &p, &mut p_hat)?;
        op.apply(comm, &p_hat, &mut v)?;
        let rhv = r_hat.dot(&v, comm)?;
        if rhv == 0.0 || !rhv.is_finite() {
            break ConvergedReason::Breakdown;
        }
        let alpha = rho / rhv;
        // s = r − α·v (reuse r as s), with ‖s‖² formed in the same pass.
        let ss = dense::axpy_norm2_sq(-alpha, v.local(), r.local_mut());
        let snorm = mon.guarded_norm2_of(ss)?;
        if let Some(reason) = mon.check(iterations, snorm) {
            // Half-step convergence: x += α·p̂.
            x.axpy(alpha, &p_hat)?;
            rnorm = snorm;
            break reason;
        }
        // ŝ = M⁻¹·s ; t = A·ŝ.
        pc.apply(comm, &r, &mut s_hat)?;
        op.apply(comm, &s_hat, &mut t)?;
        // t·t and t·s in one pass over t and one reduction.
        let (tt, ts) = dense::pdot2(t.local(), t.local(), r.local());
        let [tt, ts] = comm.allreduce_vec(&[tt, ts], rcomm::sum)?[..] else {
            unreachable!("a two-entry reduction")
        };
        if tt == 0.0 {
            break ConvergedReason::Breakdown;
        }
        let omega = ts / tt;
        if omega == 0.0 || !omega.is_finite() {
            break ConvergedReason::Breakdown;
        }
        // x += α·p̂ + ω·ŝ in one pass; r = s − ω·t with ‖r‖² and r̂·r in
        // one more, reduced together with the wall-clock guard.
        dense::axpy2(alpha, p_hat.local(), omega, s_hat.local(), x.local_mut());
        let (rr, rho_local) = dense::axpy_pdot2(-omega, t.local(), r.local_mut(), r_hat.local());
        let rho_new;
        (rnorm, rho_new) = mon.guarded_norm2_with(rr, rho_local)?;
        if let Some(reason) = mon.check(iterations, rnorm) {
            break reason;
        }
        if rho == 0.0 {
            break ConvergedReason::Breakdown;
        }
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        // p = r + β·(p − ω·v).
        dense::xpby_sub(r.local(), beta, omega, v.local(), p.local_mut());
    };
    Ok(mon.finish(reason, iterations, r0_norm, rnorm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::MatOperator;
    use crate::pc::{make_preconditioner, PcType};
    use rcomm::Universe;
    use rsparse::{generate, BlockRowPartition, CsrMatrix, DistCsrMatrix};

    /// The loop as it stood before the fused kernels — every dot and norm
    /// its own pass, `x` updated in two — kept as the oracle [`solve`] must
    /// match bit for bit.
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
        let mut t = DistVector::zeros(part.clone(), rank);
        op.apply(comm, x, &mut t)?;
        r.axpy(-1.0, &t)?;
        let r0_norm = r.norm2(comm)?;
        let mut mon = Monitor::new(comm, cfg, bnorm, r0_norm);
        if let Some(reason) = mon.check(0, r0_norm) {
            return Ok(mon.finish(reason, 0, r0_norm, r0_norm));
        }

        // Shadow residual r̂ = r₀ (fixed).
        let r_hat = r.clone();
        let mut p = r.clone();
        let mut v = DistVector::zeros(part.clone(), rank);
        let mut p_hat = DistVector::zeros(part.clone(), rank);
        let mut s_hat = DistVector::zeros(part, rank);
        let mut rho = r_hat.dot(&r, comm)?;

        let mut iterations = 0usize;
        let mut rnorm = r0_norm;
        let reason = loop {
            iterations += 1;
            // p̂ = M⁻¹·p ; v = A·p̂.
            pc.apply(comm, &p, &mut p_hat)?;
            op.apply(comm, &p_hat, &mut v)?;
            let rhv = r_hat.dot(&v, comm)?;
            if rhv == 0.0 || !rhv.is_finite() {
                break ConvergedReason::Breakdown;
            }
            let alpha = rho / rhv;
            // s = r − α·v  (reuse r as s).
            r.axpy(-alpha, &v)?;
            let snorm = mon.guarded_norm2(&r)?;
            if let Some(reason) = mon.check(iterations, snorm) {
                // Half-step convergence: x += α·p̂.
                x.axpy(alpha, &p_hat)?;
                rnorm = snorm;
                break reason;
            }
            // ŝ = M⁻¹·s ; t = A·ŝ.
            pc.apply(comm, &r, &mut s_hat)?;
            op.apply(comm, &s_hat, &mut t)?;
            let tt = t.dot(&t, comm)?;
            if tt == 0.0 {
                break ConvergedReason::Breakdown;
            }
            let omega = t.dot(&r, comm)? / tt;
            if omega == 0.0 || !omega.is_finite() {
                break ConvergedReason::Breakdown;
            }
            // x += α·p̂ + ω·ŝ ; r = s − ω·t.
            x.axpy(alpha, &p_hat)?;
            x.axpy(omega, &s_hat)?;
            r.axpy(-omega, &t)?;
            rnorm = mon.guarded_norm2(&r)?;
            if let Some(reason) = mon.check(iterations, rnorm) {
                break reason;
            }
            let rho_new = r_hat.dot(&r, comm)?;
            if rho == 0.0 {
                break ConvergedReason::Breakdown;
            }
            let beta = (rho_new / rho) * (alpha / omega);
            rho = rho_new;
            // p = r + β·(p − ω·v).
            for ((pi, ri), vi) in p.local_mut().iter_mut().zip(r.local()).zip(v.local()) {
                *pi = ri + beta * (*pi - omega * vi);
            }
        };
        Ok(mon.finish(reason, iterations, r0_norm, rnorm))
    }

    /// Residual history, verdict and iterate of both loops on `ranks` ranks.
    fn assert_matches_oracle(a: &CsrMatrix, pc_type: PcType, ranks: usize, maxits: usize) {
        let n = a.rows();
        let b = a.matvec(&generate::random_vector(n, 41)).unwrap();
        Universe::run(ranks, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let da = DistCsrMatrix::from_global(comm, part.clone(), a).unwrap();
            let op = MatOperator::new(da);
            let pc = make_preconditioner(pc_type, &op).unwrap();
            let db = DistVector::from_global(part.clone(), comm.rank(), &b).unwrap();
            let cfg = KspConfig { rtol: 1e-10, maxits, ..KspConfig::default() };
            let mut x_new = DistVector::zeros(part.clone(), comm.rank());
            let mut x_old = DistVector::zeros(part, comm.rank());
            let new = solve(comm, &op, pc.as_ref(), &db, &mut x_new, &cfg).unwrap();
            let old = solve_unfused(comm, &op, pc.as_ref(), &db, &mut x_old, &cfg).unwrap();
            assert_eq!(new.reason, old.reason, "{pc_type:?}/{ranks}r");
            assert_eq!(new.iterations, old.iterations, "{pc_type:?}/{ranks}r");
            assert!(new.iterations > 2, "{pc_type:?}/{ranks}r: the loop must have run");
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&new.history), bits(&old.history), "{pc_type:?}/{ranks}r history");
            assert_eq!(bits(x_new.local()), bits(x_old.local()), "{pc_type:?}/{ranks}r iterate");
        });
    }

    #[test]
    fn fused_loop_matches_the_unfused_oracle_bitwise() {
        let (a, _) = rmesh::paper_problem(14).assemble_global();
        for ranks in [1usize, 2, 3] {
            for pc_type in [PcType::Jacobi, PcType::Ilu0] {
                assert_matches_oracle(&a, pc_type, ranks, 2000);
            }
        }
    }

    #[test]
    fn fused_loop_matches_the_oracle_with_variable_coefficients() {
        let (paper, _) = rmesh::paper_problem(14).assemble_global();
        for ranks in [1usize, 2, 3] {
            let (a, uniform) = crate::solver::vary_second_half(&paper, ranks);
            let split = [vec![false], vec![true, false], vec![true, false, false]];
            assert_eq!(uniform, split[ranks - 1], "{ranks}r Jacobi slices");
            for pc_type in [PcType::Jacobi, PcType::Ilu0] {
                assert_matches_oracle(&a, pc_type, ranks, 2000);
            }
        }
    }

    #[test]
    fn fused_loop_matches_the_oracle_past_one_reduction_block() {
        // 262² > DOT_BLOCK local entries on one rank: the blocked
        // reductions combine partials; a few iterations suffice.
        let a = generate::laplacian_2d(262);
        assert!(a.rows() > rsparse::dense::DOT_BLOCK);
        assert_matches_oracle(&a, PcType::Jacobi, 1, 4);
    }
}
