//! Transpose-free QMR (Freund), right-preconditioned — smooths CGS's
//! erratic convergence without needing Aᵀ.

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

    // Preconditioned apply: w ← A·M⁻¹·v.
    let mut pre = DistVector::zeros(part.clone(), rank);
    let mut apply_right =
        |comm: &Communicator, vin: &DistVector, vout: &mut DistVector| -> KspOutcome<()> {
            pc.apply(comm, vin, &mut pre)?;
            op.apply(comm, &pre, vout)
        };

    let bnorm = b.norm2(comm)?;
    let mut r = b.clone();
    let mut tmp = DistVector::zeros(part.clone(), rank);
    op.apply(comm, x, &mut tmp)?;
    r.axpy(-1.0, &tmp)?;
    let r0n = r.norm2(comm)?;
    let mut mon = Monitor::new(comm, cfg, bnorm, r0n);
    if let Some(reason) = mon.check(0, r0n) {
        return Ok(mon.finish(reason, 0, r0n, r0n));
    }

    // TFQMR in the preconditioned variable: accumulate the update d in the
    // preconditioned space, then x += M⁻¹·(…) is folded in because every
    // direction enters through M⁻¹ already — we accumulate d directly in
    // solution space by preconditioning each y before adding.
    let r_hat = r.clone();
    let mut w = r.clone();
    let mut y = r.clone();
    let mut v = DistVector::zeros(part.clone(), rank);
    apply_right(comm, &y, &mut v)?;
    let mut u = v.clone();
    let mut d = DistVector::zeros(part.clone(), rank);
    let mut d_pre = DistVector::zeros(part.clone(), rank);
    let mut theta = 0.0f64;
    let mut eta = 0.0f64;
    let mut tau = r0n;
    let mut rho = r_hat.dot(&r, comm)?;

    let mut iterations = 0usize;
    let mut rnorm = r0n;
    let reason = 'outer: loop {
        iterations += 1;
        let sigma = r_hat.dot(&v, comm)?;
        if sigma == 0.0 || rho == 0.0 || !sigma.is_finite() {
            break ConvergedReason::Breakdown;
        }
        let alpha = rho / sigma;
        // Two half-steps m = 1, 2.
        for m in 0..2 {
            if m == 1 {
                // y₂ = y₁ − α·v ; u₂ = A·M⁻¹·y₂.
                y.axpy(-alpha, &v)?;
                apply_right(comm, &y, &mut u)?;
            }
            // w ← w − α·u.
            w.axpy(-alpha, &u)?;
            // d ← y + (θ²·η/α)·d, accumulated in un-preconditioned space.
            let coeff = theta * theta * eta / alpha;
            for (di, yi) in d.local_mut().iter_mut().zip(y.local()) {
                *di = yi + coeff * *di;
            }
            theta = mon.guarded_norm2(&w)? / tau;
            let c = 1.0 / (1.0 + theta * theta).sqrt();
            tau *= theta * c;
            eta = c * c * alpha;
            // x += η·M⁻¹·d.
            pc.apply(comm, &d, &mut d_pre)?;
            x.axpy(eta, &d_pre)?;
            // Freund's residual bound: ‖r‖ ≤ τ·√(2k+1…); use τ directly as
            // the (tight in practice) estimate PETSc reports.
            rnorm = tau * ((2 * iterations) as f64).sqrt();
            if let Some(reason) = mon.check(iterations, rnorm) {
                // Recompute the true residual for honest reporting.
                rnorm = crate::solver::true_residual_norm(comm, op, b, x)?;
                break 'outer reason;
            }
        }
        let rho_new = r_hat.dot(&w, comm)?;
        let beta = rho_new / rho;
        rho = rho_new;
        // y₁ = w + β·y₂ ; v = A·M⁻¹·y₁ + β·(u₂ + β·v).
        for (yi, wi) in y.local_mut().iter_mut().zip(w.local()) {
            *yi = wi + beta * *yi;
        }
        let mut au = DistVector::zeros(part.clone(), rank);
        apply_right(comm, &y, &mut au)?;
        for ((vi, ui), aui) in v.local_mut().iter_mut().zip(u.local()).zip(au.local()) {
            *vi = aui + beta * (ui + beta * *vi);
        }
        u = au;
    };
    Ok(mon.finish(reason, iterations, r0n, rnorm))
}
