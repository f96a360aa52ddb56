//! Conjugate gradients squared (Sonneveld) with right preconditioning.

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
    let mut tmp = DistVector::zeros(part.clone(), rank);
    op.apply(comm, x, &mut tmp)?;
    r.axpy(-1.0, &tmp)?;
    let r0n = r.norm2(comm)?;
    let mut mon = Monitor::new(comm, cfg, bnorm, r0n);
    if let Some(reason) = mon.check(0, r0n) {
        return Ok(mon.finish(reason, 0, r0n, r0n));
    }

    let r_hat = r.clone();
    let mut p = r.clone();
    let mut u = r.clone();
    let mut q = DistVector::zeros(part.clone(), rank);
    let mut v = DistVector::zeros(part.clone(), rank);
    let mut phat = DistVector::zeros(part.clone(), rank);
    let mut uhat = DistVector::zeros(part, rank);
    let mut rho = r_hat.dot(&r, comm)?;

    let mut iterations = 0usize;
    let mut rnorm = r0n;
    let reason = loop {
        iterations += 1;
        if rho == 0.0 || !rho.is_finite() {
            break ConvergedReason::Breakdown;
        }
        // p̂ = M⁻¹ p ; v = A p̂.
        pc.apply(comm, &p, &mut phat)?;
        op.apply(comm, &phat, &mut v)?;
        let sigma = r_hat.dot(&v, comm)?;
        if sigma == 0.0 || !sigma.is_finite() {
            break ConvergedReason::Breakdown;
        }
        let alpha = rho / sigma;
        // q = u − α·v.
        for ((qi, ui), vi) in q.local_mut().iter_mut().zip(u.local()).zip(v.local()) {
            *qi = ui - alpha * vi;
        }
        // û = M⁻¹(u + q) ; x += α·û ; r −= α·A·û.
        for (ti, (ui, qi)) in tmp.local_mut().iter_mut().zip(u.local().iter().zip(q.local())) {
            *ti = ui + qi;
        }
        pc.apply(comm, &tmp, &mut uhat)?;
        x.axpy(alpha, &uhat)?;
        op.apply(comm, &uhat, &mut tmp)?;
        r.axpy(-alpha, &tmp)?;
        rnorm = mon.guarded_norm2(&r)?;
        if let Some(reason) = mon.check(iterations, rnorm) {
            break reason;
        }
        let rho_new = r_hat.dot(&r, comm)?;
        let beta = rho_new / rho;
        rho = rho_new;
        // u = r + β·q ; p = u + β·(q + β·p).
        for ((ui, ri), qi) in u.local_mut().iter_mut().zip(r.local()).zip(q.local()) {
            *ui = ri + beta * qi;
        }
        for ((pi, qi), ui) in p.local_mut().iter_mut().zip(q.local()).zip(u.local()) {
            *pi = ui + beta * (qi + beta * *pi);
        }
    };
    Ok(mon.finish(reason, iterations, r0n, rnorm))
}
