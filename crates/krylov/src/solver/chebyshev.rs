//! Chebyshev semi-iteration. Needs bounds (λmin, λmax) on the spectrum of
//! the preconditioned operator M⁻¹A; if the caller does not provide them,
//! λmax is estimated with a few power-method steps (deterministic start
//! vector, identical on every rank) and λmin is set to λmax/30 — the same
//! pragmatic heuristic PETSc applies when Chebyshev runs as a smoother.

use rcomm::Communicator;
use rsparse::DistVector;

use crate::operator::LinearOperator;
use crate::pc::Preconditioner;
use crate::result::{KspError, KspOutcome, KspResult};
use crate::solver::{KspConfig, Monitor};

/// Power-method estimate of the largest eigenvalue of M⁻¹A.
pub(crate) fn estimate_lambda_max(
    comm: &Communicator,
    op: &dyn LinearOperator,
    pc: &dyn Preconditioner,
    steps: usize,
) -> KspOutcome<f64> {
    let part = op.partition().clone();
    let rank = comm.rank();
    // Deterministic, rank-consistent start vector based on global indices.
    let start = part.start_row(rank);
    let mut v = DistVector::from_local(
        part.clone(),
        rank,
        (0..part.local_rows(rank))
            .map(|i| 1.0 + 0.5 * (((start + i) as f64) * 0.7).sin())
            .collect(),
    )?;
    let n = v.norm2(comm)?;
    if n == 0.0 {
        return Err(KspError::BadConfig("empty operator".into()));
    }
    rsparse::dense::scale(1.0 / n, v.local_mut());
    let mut av = DistVector::zeros(part.clone(), rank);
    let mut mav = DistVector::zeros(part, rank);
    let mut lambda = 1.0f64;
    for _ in 0..steps {
        op.apply(comm, &v, &mut av)?;
        pc.apply(comm, &av, &mut mav)?;
        lambda = mav.norm2(comm)?;
        if lambda == 0.0 || !lambda.is_finite() {
            return Err(KspError::BadConfig("power method broke down".into()));
        }
        v.local_mut().copy_from_slice(mav.local());
        rsparse::dense::scale(1.0 / lambda, v.local_mut());
    }
    Ok(lambda)
}

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

    let (lmin, lmax) = match cfg.cheby_bounds {
        Some((lo, hi)) => (lo, hi),
        None => {
            let hi = estimate_lambda_max(comm, op, pc, 20)?;
            // The power method approaches λmax from below (slowly when the
            // top of the spectrum is clustered, as for Laplacians), and
            // eigenvalues *above* lmax make the Chebyshev polynomial blow
            // up — so pad generously. A too-small lmin or too-large lmax
            // only slows convergence; the reverse prevents it.
            (hi / 50.0, hi * 1.2)
        }
    };
    if !(lmin > 0.0 && lmax > lmin) {
        return Err(KspError::BadConfig(format!(
            "Chebyshev needs 0 < lmin < lmax, got ({lmin}, {lmax})"
        )));
    }

    let bnorm = b.norm2(comm)?;
    let mut ax = DistVector::zeros(part.clone(), rank);
    op.apply(comm, x, &mut ax)?;
    let mut r = b.clone();
    r.axpy(-1.0, &ax)?;
    let r0 = r.norm2(comm)?;
    let mut mon = Monitor::new(comm, cfg, bnorm, r0);
    if let Some(reason) = mon.check(0, r0) {
        return Ok(mon.finish(reason, 0, r0, r0));
    }

    // Standard three-term Chebyshev recurrence on the interval
    // [lmin, lmax] (Saad, Iterative Methods, alg. 12.1).
    let theta = 0.5 * (lmax + lmin);
    let delta = 0.5 * (lmax - lmin);
    let sigma1 = theta / delta;
    let mut rho = 1.0 / sigma1;
    let mut z = DistVector::zeros(part.clone(), rank);
    pc.apply(comm, &r, &mut z)?;
    let mut d = z.clone();
    rsparse::dense::scale(1.0 / theta, d.local_mut());

    let mut iterations = 0usize;
    let mut rnorm;
    let reason = loop {
        iterations += 1;
        x.axpy(1.0, &d)?;
        op.apply(comm, x, &mut ax)?;
        r.local_mut().copy_from_slice(b.local());
        r.axpy(-1.0, &ax)?;
        rnorm = mon.guarded_norm2(&r)?;
        if let Some(reason) = mon.check(iterations, rnorm) {
            break reason;
        }
        pc.apply(comm, &r, &mut z)?;
        let rho_new = 1.0 / (2.0 * sigma1 - rho);
        // d ← ρ_new·ρ·d + (2·ρ_new/δ)·z.
        let a1 = rho_new * rho;
        let a2 = 2.0 * rho_new / delta;
        for (di, zi) in d.local_mut().iter_mut().zip(z.local()) {
            *di = a1 * *di + a2 * zi;
        }
        rho = rho_new;
    };
    Ok(mon.finish(reason, iterations, r0, rnorm))
}
