//! Restarted GMRES with right preconditioning (and FGMRES, its flexible
//! variant), classical Gram–Schmidt orthogonalization with one batched
//! reduction per inner iteration and Givens rotations on the Hessenberg
//! matrix — the algorithm of Saad & Schultz — on `k` right-hand sides in
//! lockstep (a single solve is k = 1; see [`super::columns`]). Every live
//! column is at the same inner index of the same restart cycle; rotations
//! and back-substitution stay per column and local.
//!
//! Collectives per solve, at any k: 2 for ‖b‖ and ‖r₀‖, 2 per inner
//! iteration (the projection coefficients, then ‖w‖ with the wall-clock
//! guard), and 1 per restart for the recomputed true residual. Each
//! carries the entries of every live column.

use rcomm::Communicator;
use rsparse::{dense, BlockRowPartition, DistVector};

use crate::operator::LinearOperator;
use crate::pc::Preconditioner;
use crate::result::{ConvergedReason, KspOutcome, KspResult};
use crate::solver::columns::{dist_columns, sum, Block, Lanes};
use crate::solver::KspConfig;

/// One column's Arnoldi process. Its bases grow to restart length once and
/// later cycles overwrite the same vectors; the Hessenberg columns and
/// rotation parameters are likewise reused, so restart cycles after the
/// first allocate nothing.
struct Arnoldi {
    /// The Krylov basis v₀, v₁, ….
    v: Vec<DistVector>,
    /// FGMRES's preconditioned basis zⱼ = M⁻¹·vⱼ.
    z: Vec<DistVector>,
    /// Hessenberg columns: `h[j]` holds column j; only entries 0..=j+1
    /// are ever written or read.
    h: Vec<Vec<f64>>,
    cs: Vec<f64>,
    sn: Vec<f64>,
    /// The rotated right-hand side.
    g: Vec<f64>,
}

/// Copy `src` into slot `i` of a reused basis, growing it only the first
/// time a cycle reaches this depth.
fn put(basis: &mut Vec<DistVector>, i: usize, src: &[f64], part: &BlockRowPartition, rank: usize) {
    match basis.get_mut(i) {
        Some(v) => v.local_mut().copy_from_slice(src),
        None => basis.push(
            DistVector::from_local(part.clone(), rank, src.to_vec()).expect("a local column"),
        ),
    }
}

impl Arnoldi {
    fn new(m: usize) -> Self {
        Arnoldi {
            v: Vec::with_capacity(m + 1),
            z: Vec::new(),
            h: Vec::with_capacity(m),
            cs: Vec::with_capacity(m),
            sn: Vec::with_capacity(m),
            g: vec![0.0; m + 1],
        }
    }

    /// Begin a cycle from the residual `r` of norm `beta`.
    fn restart(&mut self, r: &[f64], beta: f64, part: &BlockRowPartition, rank: usize) {
        put(&mut self.v, 0, r, part, rank);
        dense::scale(1.0 / beta, self.v[0].local_mut());
        self.cs.clear();
        self.sn.clear();
        self.g.fill(0.0);
        self.g[0] = beta;
    }

    /// Complete Hessenberg column `j` with h_{j+1,j} = `hnext`, apply the
    /// accumulated rotations and a new one annihilating h_{j+1,j}, and
    /// return the least-squares residual norm |g_{j+1}|.
    fn rotate(&mut self, j: usize, hnext: f64) -> f64 {
        let (cs, sn, hcol) = (&mut self.cs, &mut self.sn, &mut self.h[j]);
        hcol[j + 1] = hnext;
        for i in 0..j {
            let t = cs[i] * hcol[i] + sn[i] * hcol[i + 1];
            hcol[i + 1] = -sn[i] * hcol[i] + cs[i] * hcol[i + 1];
            hcol[i] = t;
        }
        let (c, s) = givens(hcol[j], hcol[j + 1]);
        cs.push(c);
        sn.push(s);
        hcol[j] = c * hcol[j] + s * hcol[j + 1];
        hcol[j + 1] = 0.0;
        let gj = self.g[j];
        self.g[j] = c * gj;
        self.g[j + 1] = -s * gj;
        self.g[j + 1].abs()
    }

    /// Back-substitute `y` from the triangularized system after `steps`
    /// inner iterations.
    fn solve_y(&self, steps: usize, y: &mut Vec<f64>) {
        y.clear();
        y.resize(steps, 0.0);
        for i in (0..steps).rev() {
            let mut acc = self.g[i];
            for (jj, yj) in y.iter().enumerate().skip(i + 1) {
                acc -= self.h[jj][i] * yj;
            }
            y[i] = acc / self.h[i][i];
        }
    }
}

/// GMRES (`flexible`: FGMRES) on the `k` columns of `bs` (column `c` at
/// `[c·n .. (c+1)·n]` of the local rows), from the iterates in `xs`.
#[allow(clippy::too_many_arguments)] // internal entry point shared by GMRES/FGMRES
pub(crate) fn solve(
    comm: &Communicator,
    op: &dyn LinearOperator,
    pc: &dyn Preconditioner,
    bs: &[f64],
    xs: &mut [f64],
    k: usize,
    cfg: &KspConfig,
    flexible: bool,
) -> KspOutcome<Vec<KspResult>> {
    let (part, rank, m) = (op.partition(), comm.rank(), cfg.restart);
    let n = part.local_rows(rank);
    let (mut z, mut w) = (Block::zeros(part, rank, k), Block::zeros(part, rank, k));
    let mut r = dist_columns(part, rank, k);
    let mut lanes = Lanes::start(comm, op, cfg, (bs, xs), k, (&mut z, &mut w), &mut r)?;

    // Per-solve workspace: the live columns, the local halves of each
    // reduction, y and V·y are refilled in place.
    let mut arnoldi: Vec<Arnoldi> = (0..k).map(|_| Arnoldi::new(m)).collect();
    let mut live = Vec::with_capacity(k);
    let mut local = Vec::with_capacity(k * (m + 1) + 1);
    let mut y = Vec::with_capacity(m);
    let mut vy = DistVector::zeros(part.clone(), rank);
    // Fold a finished cycle's correction into x: x += M⁻¹·V·y (GMRES) or
    // x += Z·y (FGMRES).
    let mut correct = |a: &Arnoldi, steps: usize, z: &mut Block, c: usize, x: &mut [f64]| {
        a.solve_y(steps, &mut y);
        if flexible {
            for (zi, yi) in a.z.iter().zip(&y) {
                dense::axpy(*yi, zi.local(), x);
            }
        } else {
            vy.local_mut().fill(0.0);
            for (vi, yi) in a.v.iter().zip(&y) {
                dense::axpy(*yi, vi.local(), vy.local_mut());
            }
            z.precondition(c, comm, pc, &vy)?;
            dense::axpy(1.0, z.col(c), x);
        }
        KspOutcome::Ok(())
    };

    let mut iterations = 0usize;
    while lanes.any_live() {
        lanes.live(&mut live);
        for &c in &live {
            arnoldi[c].restart(r[c].local(), lanes.rnorm(c), part, rank);
        }
        for j in 0..m {
            lanes.live(&mut live);
            if live.is_empty() {
                break;
            }
            // w = A·M⁻¹·v_j (right preconditioning).
            for &c in &live {
                z.precondition(c, comm, pc, &arnoldi[c].v[j])?;
                if flexible {
                    put(&mut arnoldi[c].z, j, z.col(c), part, rank);
                }
            }
            z.apply(comm, op, &mut w)?;
            // Classical Gram–Schmidt: project against the *unmodified* w,
            // so all j+1 coefficients of every column batch into a single
            // reduction; one more for the norms makes 2 collectives for
            // this inner iteration. The matching "gram_schmidt" work model
            // is registered by the dispatcher.
            let gs_span = probe::span!("gram_schmidt");
            local.clear();
            for &c in &live {
                let wc = w.col(c);
                local.extend(arnoldi[c].v[..=j].iter().map(|vi| dense::pdot(wc, vi.local())));
            }
            let dots = sum(comm, &local)?;
            for (&c, dots) in live.iter().zip(dots.chunks_exact(j + 1)) {
                let a = &mut arnoldi[c];
                if j == a.h.len() {
                    a.h.push(vec![0.0; m + 2]);
                }
                for (i, (vi, &hij)) in a.v.iter().zip(dots).enumerate() {
                    a.h[j][i] = hij;
                    dense::axpy(-hij, vi.local(), w.col_mut(c));
                }
            }
            drop(gs_span);
            local.clear();
            local.extend(live.iter().map(|&c| dense::pdot(w.col(c), w.col(c))));
            local.push(lanes.guard());
            let ww = sum(comm, &local)?;
            let guard = ww[live.len()];

            iterations += 1;
            for (&c, ww) in live.iter().zip(&ww) {
                let hnext = ww.sqrt();
                let rnorm = arnoldi[c].rotate(j, hnext);
                // hnext = 0 is a lucky breakdown: the exact solution lies
                // in this Krylov space.
                let reason = lanes.check(c, iterations, rnorm, guard);
                if let Some(reason) =
                    reason.or((hnext == 0.0).then_some(ConvergedReason::AbsoluteTolerance))
                {
                    correct(&arnoldi[c], j + 1, &mut z, c, &mut xs[c * n..][..n])?;
                    lanes.finish(c, reason, iterations);
                    continue;
                }
                put(&mut arnoldi[c].v, j + 1, w.col(c), part, rank);
                dense::scale(1.0 / hnext, arnoldi[c].v[j + 1].local_mut());
            }
        }

        // Restart the columns that ran the whole cycle: fold in the
        // correction and recompute the true residual.
        lanes.live(&mut live);
        if live.is_empty() {
            break;
        }
        for &c in &live {
            correct(&arnoldi[c], m, &mut z, c, &mut xs[c * n..][..n])?;
        }
        lanes.residual(op, (bs, xs), (&mut z, &mut w), &mut r)?;
        local.clear();
        local.extend(live.iter().map(|&c| dense::pdot(r[c].local(), r[c].local())));
        local.push(lanes.guard());
        let rr = sum(comm, &local)?;
        let guard = rr[live.len()];
        for (&c, rr) in live.iter().zip(&rr) {
            match lanes.check(c, iterations, rr.sqrt(), guard) {
                Some(reason) => {
                    lanes.finish(c, reason, iterations);
                }
                // x and the freshly recomputed true residual fully
                // determine the restart, so no Arnoldi basis needs to be
                // kept: a restore warm-restarts from this x.
                None => lanes.checkpoint(iterations, xs, r[c].local()),
            }
        }
    }
    Ok(lanes.into_results())
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
