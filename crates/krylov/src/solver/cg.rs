//! Preconditioned conjugate gradients (Hestenes–Stiefel), for SPD
//! operators with an SPD preconditioner, on `k` right-hand sides in
//! lockstep (a single solve is k = 1; see [`super::columns`]).
//!
//! Collectives per solve, at any k: 3 before the loop (‖b‖, ‖r₀‖, r·z),
//! then 2 per iteration (p·q, then ‖r‖², r·z and the wall-clock guard in
//! one). Each carries one entry per live column.

use rcomm::Communicator;
use rsparse::dense;

use crate::analytics::cond_estimate_from_cg;
use crate::operator::LinearOperator;
use crate::pc::Preconditioner;
use crate::result::{ConvergedReason, KspOutcome, KspResult};
use crate::solver::columns::{dist_columns, sum, Block, Lanes};
use crate::solver::KspConfig;

/// CG on the `k` columns of `bs` (column `c` at `[c·n .. (c+1)·n]` of the
/// local rows), from the iterates in `xs`.
pub(crate) fn solve(
    comm: &Communicator,
    op: &dyn LinearOperator,
    pc: &dyn Preconditioner,
    bs: &[f64],
    xs: &mut [f64],
    k: usize,
    cfg: &KspConfig,
) -> KspOutcome<Vec<KspResult>> {
    let (part, rank) = (op.partition(), comm.rank());
    let n = part.local_rows(rank);
    let (mut p, mut q) = (Block::zeros(part, rank, k), Block::zeros(part, rank, k));
    let (mut r, mut z) = (dist_columns(part, rank, k), dist_columns(part, rank, k));
    let mut lanes = Lanes::start(comm, op, cfg, (bs, xs), k, (&mut p, &mut q), &mut r)?;

    // Per-solve buffers: the live columns and the local halves of each
    // reduction are refilled in place every iteration.
    let mut live = Vec::with_capacity(k);
    let mut local = Vec::with_capacity(2 * k + 1);
    let mut rz = vec![0.0; k];
    lanes.live(&mut live);
    for &c in &live {
        pc.apply(comm, &r[c], &mut z[c])?;
        p.col_mut(c).copy_from_slice(z[c].local());
        local.push(dense::pdot(r[c].local(), z[c].local()));
    }
    if !live.is_empty() {
        for (&c, rzc) in live.iter().zip(sum(comm, &local)?) {
            rz[c] = rzc;
        }
    }

    let mut iterations = 0usize;
    // The CG scalars double as Lanczos coefficients; keep them so the
    // result can carry a condition-number estimate (see
    // [`crate::analytics`]).
    let mut alphas: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut betas: Vec<Vec<f64>> = vec![Vec::new(); k];
    while lanes.any_live() {
        iterations += 1;
        p.apply(comm, op, &mut q)?;
        lanes.live(&mut live);
        local.clear();
        local.extend(live.iter().map(|&c| dense::pdot(p.col(c), q.col(c))));
        let pq = sum(comm, &local)?;
        local.clear();
        for (&c, &pq) in live.iter().zip(&pq) {
            if pq == 0.0 || !pq.is_finite() {
                let res = lanes.finish(c, ConvergedReason::Breakdown, iterations);
                res.cond_estimate = cond_estimate_from_cg(&alphas[c], &betas[c]);
                continue;
            }
            let alpha = rz[c] / pq;
            alphas[c].push(alpha);
            dense::axpy(alpha, p.col(c), &mut xs[c * n..][..n]);
            // r ← r − α·q, with ‖r‖² formed in the same pass.
            local.push(dense::axpy_norm2_sq(-alpha, q.col(c), r[c].local_mut()));
            pc.apply(comm, &r[c], &mut z[c])?;
            local.push(dense::pdot(r[c].local(), z[c].local()));
        }
        lanes.live(&mut live);
        if live.is_empty() {
            break;
        }
        // ‖r‖² and r·z of every column and the wall-clock guard flag in
        // one collective: 2 allreduces per iteration (p·q and this one),
        // and the timeout verdict is rank-agreed for free.
        local.push(lanes.guard());
        let fused = sum(comm, &local)?;
        let guard = fused[fused.len() - 1];
        for (&c, f) in live.iter().zip(fused.chunks_exact(2)) {
            let reason = match lanes.check(c, iterations, f[0].sqrt(), guard) {
                None => {
                    lanes.checkpoint(iterations, xs, r[c].local());
                    (rz[c] == 0.0).then_some(ConvergedReason::Breakdown)
                }
                reason => reason,
            };
            if let Some(reason) = reason {
                let res = lanes.finish(c, reason, iterations);
                res.cond_estimate = cond_estimate_from_cg(&alphas[c], &betas[c]);
                continue;
            }
            let beta = f[1] / rz[c];
            betas[c].push(beta);
            rz[c] = f[1];
            // p ← z + β·p (elementwise kernel).
            dense::xpby(z[c].local(), beta, p.col_mut(c));
        }
    }
    Ok(lanes.into_results())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::MatOperator;
    use crate::pc::{make_preconditioner, PcType};
    use rcomm::Universe;
    use rsparse::DistVector;
    use rsparse::{generate, BlockRowPartition, DistCsrMatrix};

    /// Verdict, iteration count, condition estimate, residual history and
    /// iterate of the loop at k = 1 and the unfused oracle on `ranks`
    /// ranks, bit for bit.
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
            let pc = pc.as_ref();
            let mut new = solve(comm, &op, pc, db.local(), x_new.local_mut(), 1, &cfg).unwrap();
            let new = new.pop().unwrap();
            let old = crate::solver::reference::cg(comm, &op, pc, &db, &mut x_old, &cfg).unwrap();
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
