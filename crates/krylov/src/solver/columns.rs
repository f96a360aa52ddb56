//! What CG and GMRES/FGMRES share to run `k` right-hand sides in
//! lockstep: the column block an operator apply reads and writes, and the
//! per-column monitors.
//!
//! Every per-step reduction carries all live columns at once, and the
//! batched reduction is elementwise over the same rank-ordered tree as a
//! standalone one, so each column's scalar sequence — and its iterate — is
//! the one a solve of that column alone computes. A column that stops is
//! frozen: its iterate no longer changes and it leaves the reductions.
//! Stopping is decided from reduced values only, so every rank keeps the
//! same live set and the collective schedule never diverges.

use rcomm::Communicator;
use rsparse::{BlockRowPartition, DistVector};

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

/// `k` local columns, column-major. One column is a [`DistVector`], which
/// the operator's `apply` and the preconditioner write in place; a wider
/// block is one flat buffer for [`LinearOperator::apply_multi`]. This type
/// is the one place the width picks between the two.
pub(super) enum Block {
    One(DistVector),
    Many { flat: Vec<f64>, k: usize, stage: DistVector },
}

impl Block {
    pub(super) fn zeros(part: &BlockRowPartition, rank: usize, k: usize) -> Self {
        let stage = DistVector::zeros(part.clone(), rank);
        match k {
            1 => Block::One(stage),
            _ => Block::Many { flat: vec![0.0; k * stage.local().len()], k, stage },
        }
    }

    pub(super) fn col(&self, c: usize) -> &[f64] {
        match self {
            Block::One(v) => v.local(),
            Block::Many { flat, stage, .. } => {
                let n = stage.local().len();
                &flat[c * n..(c + 1) * n]
            }
        }
    }

    pub(super) fn col_mut(&mut self, c: usize) -> &mut [f64] {
        match self {
            Block::One(v) => v.local_mut(),
            Block::Many { flat, stage, .. } => {
                let n = stage.local().len();
                &mut flat[c * n..(c + 1) * n]
            }
        }
    }

    /// `out` ← A·`self`, every column: one `apply` at k = 1, one
    /// `apply_multi` otherwise.
    pub(super) fn apply(
        &self,
        comm: &Communicator,
        op: &dyn LinearOperator,
        out: &mut Block,
    ) -> KspOutcome<()> {
        match (self, out) {
            (Block::One(x), Block::One(y)) => op.apply(comm, x, y),
            (Block::Many { flat: x, k, .. }, Block::Many { flat: y, .. }) => {
                op.apply_multi(comm, x, y, *k)
            }
            _ => unreachable!("the blocks of one solve share its width"),
        }
    }

    /// Column `c` ← M⁻¹·`r`: in place at k = 1, through the staging
    /// vector otherwise.
    pub(super) fn precondition(
        &mut self,
        c: usize,
        comm: &Communicator,
        pc: &dyn Preconditioner,
        r: &DistVector,
    ) -> KspOutcome<()> {
        match self {
            Block::One(z) => pc.apply(comm, r, z),
            Block::Many { flat, stage, .. } => {
                pc.apply(comm, r, stage)?;
                let n = stage.local().len();
                flat[c * n..(c + 1) * n].copy_from_slice(stage.local());
                Ok(())
            }
        }
    }
}

/// `k` zero columns, one [`DistVector`] each (what a preconditioner reads).
pub(super) fn dist_columns(part: &BlockRowPartition, rank: usize, k: usize) -> Vec<DistVector> {
    (0..k).map(|_| DistVector::zeros(part.clone(), rank)).collect()
}

/// `local` summed element-wise over the communicator in one collective.
/// One entry goes through the scalar `allreduce`, whose value sits in its
/// board slot where `allreduce_vec` copies the slice into a `Vec` and
/// reads the other ranks' buffers (`allreduce/vec1/2` ≈ 1.3 ×
/// `allreduce/scalar/2` in `cargo bench -p lisi-bench --bench
/// collectives`); the bits, the fault call index and the probe counts are
/// the same.
pub(super) fn sum(comm: &Communicator, local: &[f64]) -> KspOutcome<Vec<f64>> {
    if let [value] = *local {
        return Ok(vec![comm.allreduce(value, rcomm::sum)?]);
    }
    Ok(comm.allreduce_vec(local, rcomm::sum)?)
}

/// The per-column monitors of a lockstep solve. A column is live until it
/// has a verdict.
pub(super) struct Lanes<'a> {
    comm: &'a Communicator,
    n: usize,
    mons: Vec<Option<Monitor<'a>>>,
    results: Vec<Option<KspResult>>,
    r0: Vec<f64>,
    /// The residual norm each column was last checked against.
    rnorm: Vec<f64>,
    start_row: usize,
    /// Checkpoint period: 0 when off, and for a solve of several columns.
    every: usize,
    last_checkpoint: usize,
}

impl<'a> Lanes<'a> {
    /// Validate, reduce ‖b‖ and ‖b − A·x‖ of every column (the residuals
    /// stay in `r`) and give each column a monitor; a column that its
    /// initial residual already stops has its verdict at iteration 0.
    pub(super) fn start(
        comm: &'a Communicator,
        op: &dyn LinearOperator,
        cfg: &KspConfig,
        (bs, xs): (&[f64], &[f64]),
        k: usize,
        scratch: (&mut Block, &mut Block),
        r: &mut [DistVector],
    ) -> KspOutcome<Self> {
        cfg.validate()?;
        let rank = comm.rank();
        let n = op.partition().local_rows(rank);
        check_layout(n, k, bs, xs)?;
        let b_sq: Vec<f64> =
            (0..k).map(|c| rsparse::dense::pdot(&bs[c * n..][..n], &bs[c * n..][..n])).collect();
        let b_sq = sum(comm, &b_sq)?;
        let mut lanes = Lanes {
            comm,
            n,
            mons: Vec::with_capacity(k),
            results: vec![None; k],
            r0: Vec::with_capacity(k),
            rnorm: Vec::with_capacity(k),
            start_row: op.partition().start_row(rank),
            every: if k == 1 { cfg.checkpoint_every } else { 0 },
            last_checkpoint: 0,
        };
        lanes.residual(op, (bs, xs), scratch, r)?;
        let r_sq: Vec<f64> = r.iter().map(|v| rsparse::dense::pdot(v.local(), v.local())).collect();
        for (c, (b_sq, r_sq)) in b_sq.into_iter().zip(sum(comm, &r_sq)?).enumerate() {
            let r0 = r_sq.sqrt();
            let mut mon = Monitor::new(comm, cfg, b_sq.sqrt(), r0);
            match mon.check(0, r0) {
                Some(reason) => {
                    lanes.results[c] = Some(mon.finish(reason, 0, r0, r0));
                    lanes.mons.push(None);
                }
                None => lanes.mons.push(Some(mon)),
            }
            lanes.r0.push(r0);
            lanes.rnorm.push(r0);
        }
        Ok(lanes)
    }

    /// r_c ← b_c − A·x_c for every live column, through `src`, which takes
    /// a copy of x (the one copy of x a solve or restart makes), and `dst`.
    pub(super) fn residual(
        &self,
        op: &dyn LinearOperator,
        (bs, xs): (&[f64], &[f64]),
        (src, dst): (&mut Block, &mut Block),
        r: &mut [DistVector],
    ) -> KspOutcome<()> {
        let n = self.n;
        let live = || (0..self.results.len()).filter(|&c| self.is_live(c));
        for c in live() {
            src.col_mut(c).copy_from_slice(&xs[c * n..][..n]);
        }
        src.apply(self.comm, op, dst)?;
        for c in live() {
            let rc = r[c].local_mut();
            rc.copy_from_slice(&bs[c * n..][..n]);
            rsparse::dense::axpy(-1.0, dst.col(c), rc);
        }
        Ok(())
    }

    fn is_live(&self, c: usize) -> bool {
        self.results[c].is_none()
    }

    pub(super) fn any_live(&self) -> bool {
        self.results.iter().any(Option::is_none)
    }

    /// Refill `out` with the live columns in order.
    pub(super) fn live(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.results.len()).filter(|&c| self.is_live(c)));
    }

    /// The last residual norm column `c` was checked against.
    pub(super) fn rnorm(&self, c: usize) -> f64 {
        self.rnorm[c]
    }

    /// This rank's wall-clock guard flag for the next reduction: every
    /// monitor carries the same budget, so any live one over it trips the
    /// flag (at k = 1, the one monitor's flag).
    pub(super) fn guard(&self) -> f64 {
        self.mons.iter().flatten().map(Monitor::local_guard).fold(0.0, f64::max)
    }

    /// Check column `c`'s residual norm after absorbing the reduced guard.
    pub(super) fn check(
        &mut self,
        c: usize,
        iteration: usize,
        rnorm: f64,
        guard: f64,
    ) -> Option<ConvergedReason> {
        self.rnorm[c] = rnorm;
        let mon = self.mons[c].as_mut().expect("a live column has a monitor");
        mon.absorb_guard(guard);
        mon.check(iteration, rnorm)
    }

    /// Give column `c` its verdict; it is frozen from here on.
    pub(super) fn finish(
        &mut self,
        c: usize,
        reason: ConvergedReason,
        iterations: usize,
    ) -> &mut KspResult {
        let mon = self.mons[c].take().expect("a live column has a monitor");
        self.results[c].insert(mon.finish(reason, iterations, self.r0[c], self.rnorm[c]))
    }

    /// Deposit an elastic-recovery snapshot (x, r) once `checkpoint_every`
    /// iterations have passed since the last one. Every rank passes here
    /// on the same iteration, so the deposited generation is
    /// cohort-consistent up to the one in-flight boundary
    /// `latest_consistent` tolerates. Only a single-column solve deposits;
    /// recovery of a batched solve re-runs it from the session's cached
    /// set-up instead.
    pub(super) fn checkpoint(&mut self, iterations: usize, x: &[f64], r: &[f64]) {
        if self.every > 0 && iterations - self.last_checkpoint >= self.every {
            crate::checkpoint::deposit(self.comm, iterations, self.start_row, x, r);
            self.last_checkpoint = iterations;
        }
    }

    pub(super) fn into_results(self) -> Vec<KspResult> {
        self.results.into_iter().map(|r| r.expect("every column has a verdict")).collect()
    }
}
