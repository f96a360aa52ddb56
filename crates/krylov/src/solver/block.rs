//! Batched multi-RHS drivers: block CG and pseudo-block GMRES.
//!
//! Both drivers run `k` independent solves in lockstep so that every
//! per-iteration collective carries all active columns at once: the
//! operator application uses the fused multi-vector SpMV
//! ([`LinearOperator::apply_multi`] — one matrix sweep and one halo
//! exchange for all columns), and the per-column dot products batch into
//! a single `allreduce_vec`. Since the batched reduction is elementwise
//! over the same rank-ordered tree as the standalone reductions, every
//! column's scalar sequence — and therefore its iterate — is
//! **bit-identical** to the corresponding single-RHS solve. Columns that
//! converge (or break down) early are frozen: their iterate stops
//! changing and they drop out of subsequent reductions, while the
//! remaining columns keep iterating.
//!
//! Freezing decisions are made only from reduced (rank-agreed) values,
//! so the active set is identical on every rank and the collective
//! schedule never diverges.
//!
//! The batched drivers do not deposit elastic-recovery checkpoints
//! (`checkpoint_every` is ignored); recovery of a batched solve re-runs
//! it from the session's cached setup instead.

use rcomm::Communicator;
use rsparse::DistVector;

use crate::operator::LinearOperator;
use crate::pc::Preconditioner;
use crate::result::{ConvergedReason, KspError, KspOutcome, KspResult};
use crate::solver::{KspConfig, Monitor};

/// Validate the flat column layout: `k` local columns of length `n`.
pub(super) fn check_layout(n: usize, k: usize, bs: &[f64], xs: &[f64]) -> KspOutcome<()> {
    if k == 0 {
        return Err(KspError::BadConfig("batched solve needs k >= 1".into()));
    }
    if bs.len() != k * n || xs.len() != k * n {
        return Err(KspError::Nonconforming(format!(
            "batched solve expects k*n_local = {} values per side, got b: {}, x: {}",
            k * n,
            bs.len(),
            xs.len()
        )));
    }
    Ok(())
}

/// The wall-clock guard flag folded into each batched reduction: any
/// active column's monitor over budget trips the shared flag (all
/// monitors carry the same budget, so this matches the single-solve
/// guard bit-for-bit when `k = 1`).
fn batch_guard(mons: &[Option<Monitor<'_>>]) -> f64 {
    mons.iter()
        .flatten()
        .map(|m| m.local_guard())
        .fold(0.0, f64::max)
}

/// Block conjugate gradients: `k` CG solves in lockstep sharing every
/// collective. Mirrors the reduction schedule of
/// [`super::cg::solve`] exactly per column — same operation order, same
/// reduction contents — so column `q`'s result is bit-identical to a
/// single CG solve of that column.
pub(crate) fn block_cg(
    comm: &Communicator,
    op: &dyn LinearOperator,
    pc: &dyn Preconditioner,
    bs: &[f64],
    xs: &mut [f64],
    k: usize,
    cfg: &KspConfig,
) -> KspOutcome<Vec<KspResult>> {
    cfg.validate()?;
    let part = op.partition().clone();
    let rank = comm.rank();
    let n = part.local_rows(rank);
    check_layout(n, k, bs, xs)?;
    let col = |c: usize| c * n..(c + 1) * n;

    // ‖b‖ for every column in one collective (componentwise identical to
    // k standalone norm2 calls).
    let bb_local: Vec<f64> = (0..k)
        .map(|c| rsparse::dense::pdot(&bs[col(c)], &bs[col(c)]))
        .collect();
    let bnorms: Vec<f64> =
        comm.allreduce_vec(&bb_local, rcomm::sum)?.iter().map(|v| v.sqrt()).collect();

    // r = b − A·x, one fused multi-vector apply for all columns.
    let mut q_flat = vec![0.0f64; k * n];
    op.apply_multi(comm, xs, &mut q_flat, k)?;
    let mut r: Vec<DistVector> = (0..k)
        .map(|c| {
            let mut rc = bs[col(c)].to_vec();
            rsparse::dense::axpy(-1.0, &q_flat[col(c)], &mut rc);
            DistVector::from_local(part.clone(), rank, rc)
        })
        .collect::<Result<_, _>>()
        .map_err(KspError::Sparse)?;
    let rr_local: Vec<f64> =
        r.iter().map(|rc| rsparse::dense::pdot(rc.local(), rc.local())).collect();
    let r0s: Vec<f64> =
        comm.allreduce_vec(&rr_local, rcomm::sum)?.iter().map(|v| v.sqrt()).collect();

    let mut mons: Vec<Option<Monitor>> = Vec::with_capacity(k);
    let mut results: Vec<Option<KspResult>> = vec![None; k];
    for c in 0..k {
        let mut mon = Monitor::new(comm, cfg, bnorms[c], r0s[c]);
        if let Some(reason) = mon.check(0, r0s[c]) {
            results[c] = Some(mon.finish(reason, 0, r0s[c], r0s[c]));
            mons.push(None);
        } else {
            mons.push(Some(mon));
        }
    }

    let mut z: Vec<DistVector> =
        (0..k).map(|_| DistVector::zeros(part.clone(), rank)).collect();
    let mut p_flat = vec![0.0f64; k * n];
    let mut rz = vec![0.0f64; k];
    {
        let active: Vec<usize> = (0..k).filter(|&c| results[c].is_none()).collect();
        if !active.is_empty() {
            let mut rz_local = Vec::with_capacity(active.len());
            for &c in &active {
                pc.apply(comm, &r[c], &mut z[c])?;
                p_flat[col(c)].copy_from_slice(z[c].local());
                rz_local.push(rsparse::dense::pdot(r[c].local(), z[c].local()));
            }
            let red = comm.allreduce_vec(&rz_local, rcomm::sum)?;
            for (i, &c) in active.iter().enumerate() {
                rz[c] = red[i];
            }
        }
    }

    let mut iterations = 0usize;
    let mut rnorm_last = r0s.clone();
    let mut alphas: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut betas: Vec<Vec<f64>> = vec![Vec::new(); k];

    while results.iter().any(Option::is_none) {
        iterations += 1;
        op.apply_multi(comm, &p_flat, &mut q_flat, k)?;

        let active: Vec<usize> = (0..k).filter(|&c| results[c].is_none()).collect();
        let pq_local: Vec<f64> = active
            .iter()
            .map(|&c| rsparse::dense::pdot(&p_flat[col(c)], &q_flat[col(c)]))
            .collect();
        let pqs = comm.allreduce_vec(&pq_local, rcomm::sum)?;

        let mut survivors: Vec<(usize, f64)> = Vec::with_capacity(active.len());
        for (i, &c) in active.iter().enumerate() {
            let pq = pqs[i];
            if pq == 0.0 || !pq.is_finite() {
                let mut res = mons[c].take().unwrap().finish(
                    ConvergedReason::Breakdown,
                    iterations,
                    r0s[c],
                    rnorm_last[c],
                );
                res.cond_estimate =
                    crate::analytics::cond_estimate_from_cg(&alphas[c], &betas[c]);
                results[c] = Some(res);
                p_flat[col(c)].fill(0.0);
            } else {
                survivors.push((c, pq));
            }
        }

        if survivors.is_empty() {
            continue;
        }
        // α, iterate/residual updates and the preconditioner application,
        // then one fused reduction carrying [‖r‖², r·z] per column plus
        // the shared wall-clock guard — exactly the per-column contents
        // of the single-solve fused collective.
        let mut fused_local = Vec::with_capacity(2 * survivors.len() + 1);
        for &(c, pq) in &survivors {
            let alpha = rz[c] / pq;
            alphas[c].push(alpha);
            rsparse::dense::axpy(alpha, &p_flat[col(c)], &mut xs[col(c)]);
            // r ← r − α·q with ‖r‖² in the same pass, as in `cg::solve`.
            let rr =
                rsparse::dense::axpy_norm2_sq(-alpha, &q_flat[col(c)], r[c].local_mut());
            pc.apply(comm, &r[c], &mut z[c])?;
            fused_local.push(rr);
            fused_local.push(rsparse::dense::pdot(r[c].local(), z[c].local()));
        }
        fused_local.push(batch_guard(&mons));
        let fused = comm.allreduce_vec(&fused_local, rcomm::sum)?;
        let guard = fused[fused.len() - 1];

        for (i, &(c, _)) in survivors.iter().enumerate() {
            let rnorm = fused[2 * i].sqrt();
            let rz_new = fused[2 * i + 1];
            rnorm_last[c] = rnorm;
            let mon = mons[c].as_mut().unwrap();
            mon.absorb_guard(guard);
            let reason = match mon.check(iterations, rnorm) {
                Some(reason) => Some(reason),
                None if rz[c] == 0.0 => Some(ConvergedReason::Breakdown),
                None => None,
            };
            if let Some(reason) = reason {
                let mut res =
                    mons[c].take().unwrap().finish(reason, iterations, r0s[c], rnorm);
                res.cond_estimate =
                    crate::analytics::cond_estimate_from_cg(&alphas[c], &betas[c]);
                results[c] = Some(res);
                p_flat[col(c)].fill(0.0);
                continue;
            }
            let beta = rz_new / rz[c];
            betas[c].push(beta);
            rz[c] = rz_new;
            rsparse::dense::xpby(z[c].local(), beta, &mut p_flat[col(c)]);
        }
    }
    Ok(results.into_iter().map(Option::unwrap).collect())
}

/// Per-column Arnoldi state for pseudo-block GMRES.
struct GmresCol {
    basis_v: Vec<DistVector>,
    basis_z: Vec<DistVector>,
    n_v: usize,
    n_z: usize,
    cs: Vec<f64>,
    sn: Vec<f64>,
    g: Vec<f64>,
    h_cols: Vec<Vec<f64>>,
}

impl GmresCol {
    fn store_v(&mut self, src: &[f64], part: &rsparse::BlockRowPartition, rank: usize) {
        if self.n_v < self.basis_v.len() {
            self.basis_v[self.n_v].local_mut().copy_from_slice(src);
        } else {
            self.basis_v.push(
                DistVector::from_local(part.clone(), rank, src.to_vec()).expect("conforming"),
            );
        }
        self.n_v += 1;
    }

    fn store_z(&mut self, src: &DistVector) {
        if self.n_z < self.basis_z.len() {
            self.basis_z[self.n_z].local_mut().copy_from_slice(src.local());
        } else {
            self.basis_z.push(src.clone());
        }
        self.n_z += 1;
    }
}

/// Pseudo-block restarted GMRES/FGMRES: `k` independent Arnoldi
/// processes advanced in lockstep (same inner index `j` every step), so
/// the operator application is one fused multi-vector SpMV and all
/// columns' classical-Gram–Schmidt projection coefficients ride a single
/// `allreduce_vec` (one more for the batched `h_{j+1,j}` norms + guard).
/// Givens rotations and back-substitution stay per-column and local.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pseudo_block_gmres(
    comm: &Communicator,
    op: &dyn LinearOperator,
    pc: &dyn Preconditioner,
    bs: &[f64],
    xs: &mut [f64],
    k: usize,
    cfg: &KspConfig,
    flexible: bool,
) -> KspOutcome<Vec<KspResult>> {
    cfg.validate()?;
    let part = op.partition().clone();
    let rank = comm.rank();
    let n = part.local_rows(rank);
    check_layout(n, k, bs, xs)?;
    let m = cfg.restart;
    let col = |c: usize| c * n..(c + 1) * n;

    let bb_local: Vec<f64> = (0..k)
        .map(|c| rsparse::dense::pdot(&bs[col(c)], &bs[col(c)]))
        .collect();
    let bnorms: Vec<f64> =
        comm.allreduce_vec(&bb_local, rcomm::sum)?.iter().map(|v| v.sqrt()).collect();

    let mut w_flat = vec![0.0f64; k * n];
    op.apply_multi(comm, xs, &mut w_flat, k)?;
    let mut r: Vec<Vec<f64>> = (0..k)
        .map(|c| {
            let mut rc = bs[col(c)].to_vec();
            rsparse::dense::axpy(-1.0, &w_flat[col(c)], &mut rc);
            rc
        })
        .collect();
    let rr_local: Vec<f64> =
        r.iter().map(|rc| rsparse::dense::pdot(rc, rc)).collect();
    let r0s: Vec<f64> =
        comm.allreduce_vec(&rr_local, rcomm::sum)?.iter().map(|v| v.sqrt()).collect();

    let mut mons: Vec<Option<Monitor>> = Vec::with_capacity(k);
    let mut results: Vec<Option<KspResult>> = vec![None; k];
    for c in 0..k {
        let mut mon = Monitor::new(comm, cfg, bnorms[c], r0s[c]);
        if let Some(reason) = mon.check(0, r0s[c]) {
            results[c] = Some(mon.finish(reason, 0, r0s[c], r0s[c]));
            mons.push(None);
        } else {
            mons.push(Some(mon));
        }
    }

    let mut cols: Vec<GmresCol> = (0..k)
        .map(|_| GmresCol {
            basis_v: Vec::with_capacity(m + 1),
            basis_z: Vec::with_capacity(if flexible { m } else { 0 }),
            n_v: 0,
            n_z: 0,
            cs: Vec::with_capacity(m),
            sn: Vec::with_capacity(m),
            g: vec![0.0f64; m + 1],
            h_cols: Vec::with_capacity(m),
        })
        .collect();
    let mut z_dv: Vec<DistVector> =
        (0..k).map(|_| DistVector::zeros(part.clone(), rank)).collect();
    let mut vy = DistVector::zeros(part.clone(), rank);
    let mut z_flat = vec![0.0f64; k * n];
    let mut rnorms = r0s.clone();
    let mut iterations = 0usize;

    // Back-substitute y and apply the correction for one column whose
    // inner cycle just ended after `inner` steps.
    let apply_update = |st: &mut GmresCol,
                            x_col: &mut [f64],
                            z_dv: &mut DistVector,
                            vy: &mut DistVector,
                            inner: usize|
     -> KspOutcome<()> {
        let mut y = vec![0.0f64; inner];
        for i in (0..inner).rev() {
            let mut acc = st.g[i];
            for (jj, yj) in y.iter().enumerate().take(inner).skip(i + 1) {
                acc -= st.h_cols[jj][i] * yj;
            }
            y[i] = acc / st.h_cols[i][i];
        }
        if flexible {
            for (zi, yi) in st.basis_z.iter().take(st.n_z).zip(&y) {
                rsparse::dense::axpy(*yi, zi.local(), x_col);
            }
        } else {
            vy.local_mut().fill(0.0);
            for (vi, yi) in st.basis_v.iter().zip(&y) {
                vy.axpy(*yi, vi).map_err(KspError::Sparse)?;
            }
            pc.apply(comm, vy, z_dv)?;
            rsparse::dense::axpy(1.0, z_dv.local(), x_col);
        }
        Ok(())
    };

    while results.iter().any(Option::is_none) {
        // --- start of a restart cycle: all live columns enter together.
        let entering: Vec<usize> = (0..k).filter(|&c| results[c].is_none()).collect();
        let mut in_cycle: Vec<usize> = Vec::with_capacity(entering.len());
        for &c in &entering {
            let beta = rnorms[c];
            if beta == 0.0 {
                results[c] = Some(mons[c].take().unwrap().finish(
                    ConvergedReason::AbsoluteTolerance,
                    iterations,
                    r0s[c],
                    rnorms[c],
                ));
                z_flat[col(c)].fill(0.0);
                continue;
            }
            let st = &mut cols[c];
            st.n_v = 0;
            st.n_z = 0;
            st.store_v(&r[c], &part, rank);
            rsparse::dense::scale(1.0 / beta, st.basis_v[0].local_mut());
            st.cs.clear();
            st.sn.clear();
            st.g.fill(0.0);
            st.g[0] = beta;
            in_cycle.push(c);
        }

        for j in 0..m {
            if in_cycle.is_empty() {
                break;
            }
            // w = A·M⁻¹·v_j for every in-cycle column: per-column PC
            // applies, then one fused multi-vector operator apply.
            for &c in &in_cycle {
                pc.apply(comm, &cols[c].basis_v[j], &mut z_dv[c])?;
                z_flat[col(c)].copy_from_slice(z_dv[c].local());
                if flexible {
                    let zc = z_dv[c].clone();
                    cols[c].store_z(&zc);
                }
            }
            op.apply_multi(comm, &z_flat, &mut w_flat, k)?;

            // Classical Gram–Schmidt, batched: all columns' j+1
            // projection coefficients in one collective.
            let gs_span = probe::span!("gram_schmidt");
            let mut dots_local = Vec::with_capacity(in_cycle.len() * (j + 1));
            for &c in &in_cycle {
                let wc = &w_flat[col(c)];
                for vi in cols[c].basis_v.iter().take(j + 1) {
                    dots_local.push(rsparse::dense::pdot(wc, vi.local()));
                }
            }
            let dots = comm.allreduce_vec(&dots_local, rcomm::sum)?;
            for (ci, &c) in in_cycle.iter().enumerate() {
                let st = &mut cols[c];
                if j == st.h_cols.len() {
                    st.h_cols.push(vec![0.0f64; m + 2]);
                }
                let wc = &mut w_flat[col(c)];
                for i in 0..=j {
                    let hij = dots[ci * (j + 1) + i];
                    st.h_cols[j][i] = hij;
                    rsparse::dense::axpy(-hij, st.basis_v[i].local(), wc);
                }
            }
            drop(gs_span);

            // Batched ‖w‖ (= h_{j+1,j}) with the wall-clock guard riding
            // the same collective.
            let mut ww_local: Vec<f64> = in_cycle
                .iter()
                .map(|&c| {
                    let wc = &w_flat[col(c)];
                    rsparse::dense::pdot(wc, wc)
                })
                .collect();
            ww_local.push(batch_guard(&mons));
            let ww = comm.allreduce_vec(&ww_local, rcomm::sum)?;
            let guard = ww[ww.len() - 1];

            iterations += 1;
            let mut still: Vec<usize> = Vec::with_capacity(in_cycle.len());
            for (ci, &c) in in_cycle.iter().enumerate() {
                let hnext = ww[ci].sqrt();
                let st = &mut cols[c];
                st.h_cols[j][j + 1] = hnext;
                for i in 0..j {
                    let t = st.cs[i] * st.h_cols[j][i] + st.sn[i] * st.h_cols[j][i + 1];
                    st.h_cols[j][i + 1] =
                        -st.sn[i] * st.h_cols[j][i] + st.cs[i] * st.h_cols[j][i + 1];
                    st.h_cols[j][i] = t;
                }
                let (cg, sg) = super::gmres::givens(st.h_cols[j][j], st.h_cols[j][j + 1]);
                st.cs.push(cg);
                st.sn.push(sg);
                st.h_cols[j][j] = cg * st.h_cols[j][j] + sg * st.h_cols[j][j + 1];
                st.h_cols[j][j + 1] = 0.0;
                let gj = st.g[j];
                st.g[j] = cg * gj;
                st.g[j + 1] = -sg * gj;
                rnorms[c] = st.g[j + 1].abs();

                let mon = mons[c].as_mut().unwrap();
                mon.absorb_guard(guard);
                let reason = match mon.check(iterations, rnorms[c]) {
                    Some(reason) => Some(reason),
                    None if hnext == 0.0 => Some(ConvergedReason::AbsoluteTolerance),
                    None => None,
                };
                if let Some(reason) = reason {
                    // Inner termination: fold the correction into x now,
                    // exactly as the single solve does after its inner
                    // break, then freeze the column.
                    apply_update(
                        &mut cols[c],
                        &mut xs[col(c)],
                        &mut z_dv[c],
                        &mut vy,
                        j + 1,
                    )?;
                    results[c] = Some(mons[c].take().unwrap().finish(
                        reason,
                        iterations,
                        r0s[c],
                        rnorms[c],
                    ));
                    z_flat[col(c)].fill(0.0);
                    continue;
                }
                let wc = &w_flat[col(c)];
                cols[c].store_v(wc, &part, rank);
                let nv = cols[c].n_v;
                rsparse::dense::scale(1.0 / hnext, cols[c].basis_v[nv - 1].local_mut());
                still.push(c);
            }
            in_cycle = still;
        }

        // --- restart: columns that exhausted the cycle update x and
        // recompute the true residual (one fused apply for all of them).
        if in_cycle.is_empty() {
            continue;
        }
        for &c in &in_cycle {
            apply_update(&mut cols[c], &mut xs[col(c)], &mut z_dv[c], &mut vy, m)?;
        }
        op.apply_multi(comm, xs, &mut w_flat, k)?;
        let mut rr_local: Vec<f64> = in_cycle
            .iter()
            .map(|&c| {
                let rc = &mut r[c];
                rc.copy_from_slice(&bs[col(c)]);
                rsparse::dense::axpy(-1.0, &w_flat[col(c)], rc);
                rsparse::dense::pdot(rc, rc)
            })
            .collect();
        rr_local.push(batch_guard(&mons));
        let rr = comm.allreduce_vec(&rr_local, rcomm::sum)?;
        let guard = rr[rr.len() - 1];
        for (ci, &c) in in_cycle.iter().enumerate() {
            rnorms[c] = rr[ci].sqrt();
            let mon = mons[c].as_mut().unwrap();
            mon.absorb_guard(guard);
            if let Some(reason) = mon.check(iterations, rnorms[c]) {
                results[c] = Some(mons[c].take().unwrap().finish(
                    reason,
                    iterations,
                    r0s[c],
                    rnorms[c],
                ));
                z_flat[col(c)].fill(0.0);
            }
        }
    }
    Ok(results.into_iter().map(Option::unwrap).collect())
}
