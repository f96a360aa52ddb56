//! Preconditioned Richardson iteration: x ← x + s·M⁻¹·(b − A·x). The
//! simplest stationary method; with a good preconditioner it is the
//! smoother multigrid and dome-level composites build on.

use rcomm::Communicator;
use rsparse::DistVector;

use crate::operator::LinearOperator;
use crate::pc::Preconditioner;
use crate::result::{KspOutcome, KspResult};
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
    let s = cfg.richardson_scale;

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

    let mut z = DistVector::zeros(part, rank);
    let mut iterations = 0usize;
    let mut rnorm;
    let reason = loop {
        iterations += 1;
        pc.apply(comm, &r, &mut z)?;
        x.axpy(s, &z)?;
        op.apply(comm, x, &mut ax)?;
        r.local_mut().copy_from_slice(b.local());
        r.axpy(-1.0, &ax)?;
        rnorm = mon.guarded_norm2(&r)?;
        if let Some(reason) = mon.check(iterations, rnorm) {
            break reason;
        }
    };
    Ok(mon.finish(reason, iterations, r0, rnorm))
}
