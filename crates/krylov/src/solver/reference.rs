//! The single-vector Krylov loops the k-wide ones in [`super::cg`] and
//! [`super::gmres`] replaced, kept as oracles: every column of a lockstep
//! solve must reproduce them bit for bit.

use rcomm::Communicator;
use rsparse::DistVector;

use crate::operator::LinearOperator;
use crate::pc::Preconditioner;
use crate::result::{ConvergedReason, KspOutcome, KspResult};
use crate::solver::{KspConfig, Monitor};

/// CG as it stood before `axpy_norm2_sq` — the residual update and its
/// norm two passes — and before it ran k columns: the oracle
/// [`super::cg::solve`] must match column by column, bit for bit.
pub(crate) fn cg(
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
                comm,
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
        // p ← z + β·p (elementwise kernel; same arithmetic).
        rsparse::dense::xpby(z.local(), beta, p.local_mut());
    };
    let mut result = mon.finish(reason, iterations, r0, rnorm);
    result.cond_estimate = crate::analytics::cond_estimate_from_cg(&alphas, &betas);
    Ok(result)
}

/// Restarted GMRES/FGMRES on one right-hand side, as it stood before it
/// ran k columns: the oracle [`super::gmres::solve`] must match column by
/// column, bit for bit.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gmres(
    comm: &Communicator,
    op: &dyn LinearOperator,
    pc: &dyn Preconditioner,
    b: &DistVector,
    x: &mut DistVector,
    cfg: &KspConfig,
    flexible: bool,
) -> KspOutcome<KspResult> {
    cfg.validate()?;
    let part = op.partition().clone();
    let rank = comm.rank();
    let m = cfg.restart;

    let bnorm = b.norm2(comm)?;
    let mut r = b.clone();
    let mut w = DistVector::zeros(part.clone(), rank);
    op.apply(comm, x, &mut w)?;
    r.axpy(-1.0, &w)?;
    let r0 = r.norm2(comm)?;
    let mut mon = Monitor::new(comm, cfg, bnorm, r0);
    if let Some(reason) = mon.check(0, r0) {
        return Ok(mon.finish(reason, 0, r0, r0));
    }

    let mut iterations = 0usize;
    let mut rnorm = r0;
    let mut last_checkpoint = 0usize;

    // Per-restart workspace, hoisted out of the cycle loop: the Arnoldi
    // bases grow to restart length once and later cycles overwrite the
    // same vectors; the Hessenberg columns, rotation parameters and the
    // preconditioner scratch are likewise reused. Restart cycles after the
    // first allocate nothing.
    let mut basis_v: Vec<DistVector> = Vec::with_capacity(m + 1);
    let mut basis_z: Vec<DistVector> = Vec::with_capacity(if flexible { m } else { 0 });
    let mut z = DistVector::zeros(part.clone(), rank);
    let mut vy = DistVector::zeros(part, rank);
    let mut cs: Vec<f64> = Vec::with_capacity(m);
    let mut sn: Vec<f64> = Vec::with_capacity(m);
    let mut g = vec![0.0f64; m + 1];
    // Hessenberg column storage: h_cols[j] holds column j; only entries
    // 0..=j+1 of a column are ever written or read.
    let mut h_cols: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut dots_local: Vec<f64> = Vec::with_capacity(m + 1);

    /// Copy `src` into slot `*n` of a reused basis, growing it only the
    /// first time a cycle reaches this depth.
    fn store_basis(basis: &mut Vec<DistVector>, n: &mut usize, src: &DistVector) {
        if *n < basis.len() {
            basis[*n].local_mut().copy_from_slice(src.local());
        } else {
            basis.push(src.clone());
        }
        *n += 1;
    }

    let reason = 'outer: loop {
        let mut n_v = 0usize;
        let mut n_z = 0usize;
        let beta = rnorm;
        if beta == 0.0 {
            break ConvergedReason::AbsoluteTolerance;
        }
        store_basis(&mut basis_v, &mut n_v, &r);
        rsparse::dense::scale(1.0 / beta, basis_v[0].local_mut());

        // Givens rotation parameters and the rotated rhs g.
        cs.clear();
        sn.clear();
        g.fill(0.0);
        g[0] = beta;

        let mut inner = 0usize;
        let mut inner_reason: Option<ConvergedReason> = None;
        while inner < m {
            let j = inner;
            // w = A·M⁻¹·v_j (right preconditioning).
            pc.apply(comm, &basis_v[j], &mut z)?;
            op.apply(comm, &z, &mut w)?;
            if flexible {
                store_basis(&mut basis_z, &mut n_z, &z);
            }
            if j == h_cols.len() {
                h_cols.push(vec![0.0f64; m + 2]);
            }
            let hcol = &mut h_cols[j];
            // Classical Gram–Schmidt: project against the *unmodified* w,
            // so all j+1 coefficients batch into a single allreduce_vec;
            // one more reduction for the norm makes 2 collectives for this
            // inner iteration. The matching "gram_schmidt" work model is
            // registered by the dispatcher.
            let gs_span = probe::span!("gram_schmidt");
            dots_local.clear();
            for vi in basis_v.iter().take(j + 1) {
                dots_local.push(rsparse::dense::pdot(w.local(), vi.local()));
            }
            let dots = comm.allreduce_vec(&dots_local, rcomm::sum)?;
            for (i, (vi, &hij)) in basis_v.iter().take(j + 1).zip(&dots).enumerate() {
                hcol[i] = hij;
                w.axpy(-hij, vi)?;
            }
            drop(gs_span);
            let hnext = mon.guarded_norm2(&w)?;
            hcol[j + 1] = hnext;
            // Apply accumulated rotations to the new column.
            for i in 0..j {
                let t = cs[i] * hcol[i] + sn[i] * hcol[i + 1];
                hcol[i + 1] = -sn[i] * hcol[i] + cs[i] * hcol[i + 1];
                hcol[i] = t;
            }
            // New rotation annihilating hcol[j+1].
            let (c, s) = super::gmres::givens(hcol[j], hcol[j + 1]);
            cs.push(c);
            sn.push(s);
            hcol[j] = c * hcol[j] + s * hcol[j + 1];
            hcol[j + 1] = 0.0;
            let gj = g[j];
            g[j] = c * gj;
            g[j + 1] = -s * gj;

            iterations += 1;
            inner += 1;
            rnorm = g[j + 1].abs();
            if let Some(reason) = mon.check(iterations, rnorm) {
                inner_reason = Some(reason);
                break;
            }
            if hnext == 0.0 {
                // Lucky breakdown: exact solution in this Krylov space.
                inner_reason = Some(ConvergedReason::AbsoluteTolerance);
                break;
            }
            store_basis(&mut basis_v, &mut n_v, &w);
            rsparse::dense::scale(1.0 / hnext, basis_v[j + 1].local_mut());
        }

        // Back-substitute y from the triangularized system.
        let k = inner;
        let mut y = vec![0.0f64; k];
        for i in (0..k).rev() {
            let mut acc = g[i];
            for (jj, yj) in y.iter().enumerate().take(k).skip(i + 1) {
                acc -= h_cols[jj][i] * yj;
            }
            y[i] = acc / h_cols[i][i];
        }
        // Update x: x += M⁻¹·V·y (GMRES) or x += Z·y (FGMRES).
        if flexible {
            for (zi, yi) in basis_z.iter().zip(&y) {
                x.axpy(*yi, zi)?;
            }
        } else {
            vy.local_mut().fill(0.0);
            for (vi, yi) in basis_v.iter().zip(&y) {
                vy.axpy(*yi, vi)?;
            }
            pc.apply(comm, &vy, &mut z)?;
            x.axpy(1.0, &z)?;
        }

        if let Some(reason) = inner_reason {
            break 'outer reason;
        }
        // Restart: recompute the true residual.
        r.local_mut().copy_from_slice(b.local());
        op.apply(comm, x, &mut w)?;
        r.axpy(-1.0, &w)?;
        rnorm = mon.guarded_norm2(&r)?;
        if let Some(reason) = mon.check(iterations, rnorm) {
            break 'outer reason;
        }
        if cfg.checkpoint_every > 0 && iterations - last_checkpoint >= cfg.checkpoint_every {
            // Elastic-recovery snapshot at the restart boundary: x and
            // the freshly recomputed true residual fully determine the
            // restart, so no Arnoldi basis needs to be preserved — a
            // restore simply warm-restarts from this x.
            crate::checkpoint::deposit(
                comm,
                iterations,
                op.partition().start_row(rank),
                x.local(),
                r.local(),
            );
            last_checkpoint = iterations;
        }
    };
    Ok(mon.finish(reason, iterations, r0, rnorm))
}
