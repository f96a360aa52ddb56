//! Restarted GMRES with right preconditioning (and FGMRES, its flexible
//! variant), classical Gram–Schmidt orthogonalization with one batched
//! reduction per inner iteration and Givens rotations on the Hessenberg
//! matrix — the algorithm of Saad & Schultz.
//!
//! Collectives per solve: 2 for ‖b‖ and ‖r₀‖, 2 per inner iteration (the
//! projection coefficients, then ‖w‖ with the wall-clock guard), and 1
//! per restart for the recomputed true residual.

use rcomm::Communicator;
use rsparse::DistVector;

use crate::operator::LinearOperator;
use crate::pc::Preconditioner;
use crate::result::{ConvergedReason, KspOutcome, KspResult};
use crate::solver::{KspConfig, Monitor};

#[allow(clippy::too_many_arguments)] // internal entry point shared by GMRES/FGMRES
pub(crate) fn solve(
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
            let (c, s) = givens(hcol[j], hcol[j + 1]);
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
        if cfg.checkpoint_every > 0
            && iterations - last_checkpoint >= cfg.checkpoint_every
        {
            // Elastic-recovery snapshot at the restart boundary: x and
            // the freshly recomputed true residual fully determine the
            // restart, so no Arnoldi basis needs to be preserved — a
            // restore simply warm-restarts from this x.
            crate::checkpoint::deposit(
                comm.world_members()[rank],
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

/// Stable Givens rotation `(c, s)` with `c·a + s·b = r`, `−s·a + c·b = 0`.
pub(crate) fn givens(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else if a.abs() < b.abs() {
        let t = a / b;
        let s = 1.0 / (1.0 + t * t).sqrt();
        (s * t, s)
    } else {
        let t = b / a;
        let c = 1.0 / (1.0 + t * t).sqrt();
        (c, c * t)
    }
}

#[cfg(test)]
mod tests {
    use super::givens;

    #[test]
    fn givens_annihilates_second_component() {
        for (a, b) in [(3.0, 4.0), (1.0, 0.0), (0.0, 2.0), (-5.0, 2.5), (1e-30, 1.0)] {
            let (c, s) = givens(a, b);
            let zero = -s * a + c * b;
            assert!(zero.abs() < 1e-12 * (a.abs() + b.abs()).max(1.0), "({a},{b})");
            assert!((c * c + s * s - 1.0).abs() < 1e-12);
        }
    }
}
