//! The KSP solver context: configuration, dispatch, and the iterative
//! methods themselves.

mod bicgstab;
mod cg;
mod cgs;
mod chebyshev;
mod columns;
mod gmres;
#[cfg(test)]
mod reference;
mod richardson;
mod tfqmr;

use rcomm::Communicator;
use rsparse::{DistVector, SparseError};

use crate::operator::LinearOperator;
use crate::options::Options;
use crate::pc::{make_preconditioner, PcType, Preconditioner};
use crate::result::{ConvergedReason, KspError, KspOutcome, KspResult};

/// The solver vocabulary, mirroring PETSc's `-ksp_type` values shipped
/// here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KspType {
    /// Conjugate gradients (SPD systems).
    Cg,
    /// Stabilized bi-conjugate gradients.
    BiCgStab,
    /// Restarted generalized minimal residual.
    Gmres,
    /// Flexible GMRES (tolerates a varying preconditioner).
    Fgmres,
    /// Conjugate gradients squared.
    Cgs,
    /// Transpose-free quasi-minimal residual.
    Tfqmr,
    /// Preconditioned Richardson iteration.
    Richardson,
    /// Chebyshev semi-iteration (needs spectral bounds; estimated if
    /// absent).
    Chebyshev,
}

impl KspType {
    /// Parse a PETSc-flavoured name.
    pub fn parse(name: &str) -> KspOutcome<Self> {
        Ok(match name.to_ascii_lowercase().as_str() {
            "cg" => KspType::Cg,
            "bicgstab" | "bcgs" => KspType::BiCgStab,
            "gmres" => KspType::Gmres,
            "fgmres" => KspType::Fgmres,
            "cgs" => KspType::Cgs,
            "tfqmr" => KspType::Tfqmr,
            "richardson" => KspType::Richardson,
            "chebyshev" | "cheby" => KspType::Chebyshev,
            other => return Err(KspError::UnknownName { kind: "solver", name: other.to_string() }),
        })
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            KspType::Cg => "cg",
            KspType::BiCgStab => "bicgstab",
            KspType::Gmres => "gmres",
            KspType::Fgmres => "fgmres",
            KspType::Cgs => "cgs",
            KspType::Tfqmr => "tfqmr",
            KspType::Richardson => "richardson",
            KspType::Chebyshev => "chebyshev",
        }
    }
}

/// Full solver configuration — the parameter surface LISI's generic
/// setters drive.
#[derive(Debug, Clone, PartialEq)]
pub struct KspConfig {
    /// Which method.
    pub ksp_type: KspType,
    /// Which preconditioner.
    pub pc_type: PcType,
    /// Relative tolerance on ‖r‖/‖b‖.
    pub rtol: f64,
    /// Absolute tolerance on ‖r‖.
    pub atol: f64,
    /// Divergence tolerance: stop when ‖r‖ > dtol·‖b‖.
    pub dtol: f64,
    /// Iteration cap.
    pub maxits: usize,
    /// GMRES restart length.
    pub restart: usize,
    /// Richardson damping factor.
    pub richardson_scale: f64,
    /// Chebyshev spectral bounds (λmin, λmax) of the preconditioned
    /// operator; `None` triggers a power-method estimate.
    pub cheby_bounds: Option<(f64, f64)>,
    /// Wall-clock budget in seconds (`None` = unlimited). Each rank's
    /// local deadline flag is folded into the per-iteration residual
    /// reduction, so the `TimedOut` verdict is agreed rank-wide without
    /// any extra collective.
    pub max_seconds: Option<f64>,
    /// Stagnation window: stop with `Stagnated` after this many
    /// consecutive iterations without a new best residual norm
    /// (0 = disabled). The test is purely residual-derived and residuals
    /// are rank-agreed, so the verdict is identical on every rank.
    pub stagnation_window: usize,
    /// Deposit a [`crate::checkpoint`] snapshot of the Krylov state every
    /// this many iterations (CG: every k-th iteration; GMRES and FGMRES: at
    /// each restart boundary once k iterations have passed). Only those
    /// three methods deposit, and only in a single-column solve: a batched
    /// solve and every other method ignore it.
    /// 0 disables checkpointing entirely — the default, so solves pay
    /// nothing unless elastic recovery is wanted. Defaults from
    /// `RSPARSE_CHECKPOINT_EVERY` (read per `KspConfig::default()` call,
    /// not cached, so recovery layers can toggle it per solve).
    pub checkpoint_every: usize,
}

impl Default for KspConfig {
    fn default() -> Self {
        KspConfig {
            ksp_type: KspType::Gmres,
            pc_type: PcType::Ilu0,
            rtol: 1e-8,
            atol: 1e-50,
            dtol: 1e5,
            maxits: 10_000,
            restart: 30,
            richardson_scale: 1.0,
            cheby_bounds: None,
            max_seconds: None,
            stagnation_window: 0,
            checkpoint_every: std::env::var("RSPARSE_CHECKPOINT_EVERY")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0),
        }
    }
}

impl KspConfig {
    /// Validate numeric sanity.
    pub fn validate(&self) -> KspOutcome<()> {
        if self.rtol < 0.0 || self.atol < 0.0 || self.dtol <= 0.0 {
            return Err(KspError::BadConfig("tolerances must be non-negative".into()));
        }
        if self.restart == 0 {
            return Err(KspError::BadConfig("restart must be at least 1".into()));
        }
        if self.maxits == 0 {
            return Err(KspError::BadConfig("maxits must be at least 1".into()));
        }
        if let Some(s) = self.max_seconds {
            // NaN must be rejected too, hence not `s <= 0.0`.
            if s.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(KspError::BadConfig("max_seconds must be positive".into()));
            }
        }
        // Checked here as well as by the factorization, so that every rank
        // fails before the first collective.
        if let PcType::Ilut { droptol, .. } = self.pc_type {
            if droptol.is_nan() || droptol < 0.0 {
                return Err(KspError::BadConfig(format!("droptol must be ≥ 0, got {droptol}")));
            }
        }
        Ok(())
    }

    /// Build from a string option database (PETSc-style keys with several
    /// LISI-friendly aliases): `ksp_type`/`solver`, `pc_type`/
    /// `preconditioner`, `ksp_rtol`/`tol`, `ksp_atol`, `ksp_dtol`,
    /// `ksp_max_it`/`maxits`, `ksp_gmres_restart`/`restart`,
    /// `pc_ilut_droptol`, `pc_ilut_maxfill`, `pc_sor_omega`,
    /// `richardson_scale`, `ksp_max_seconds`, `ksp_stagnation_window`,
    /// `ksp_checkpoint_every`. A value that does not parse is a
    /// [`KspError::BadValue`] naming the key that was set.
    pub fn from_options(opts: &Options) -> KspOutcome<Self> {
        let mut cfg = KspConfig::default();
        if let Some(v) = opts.get_first(&["ksp_type", "solver"]) {
            cfg.ksp_type = KspType::parse(&v)?;
        }
        if let Some(v) = opts.get_first(&["pc_type", "preconditioner"]) {
            cfg.pc_type = PcType::parse(&v)?;
        }
        cfg.rtol = opts.parse_first(&["ksp_rtol", "tol", "rtol"])?.unwrap_or(cfg.rtol);
        cfg.atol = opts.parse_first(&["ksp_atol", "atol"])?.unwrap_or(cfg.atol);
        cfg.dtol = opts.parse_first(&["ksp_dtol", "dtol"])?.unwrap_or(cfg.dtol);
        let maxits = opts.parse_first(&["ksp_max_it", "maxits", "max_iterations"])?;
        cfg.maxits = maxits.unwrap_or(cfg.maxits);
        cfg.restart = opts.parse_first(&["ksp_gmres_restart", "restart"])?.unwrap_or(cfg.restart);
        // Preconditioner parameters are parsed whatever the type, so a bad
        // value is an error even where it would not be read.
        let droptol = opts.parse_first(&["pc_ilut_droptol", "droptol"])?;
        let fill = opts.parse_first(&["pc_ilut_maxfill", "fill"])?;
        let sor_omega = opts.parse_first(&["pc_sor_omega", "omega"])?;
        match &mut cfg.pc_type {
            PcType::Ilut { droptol: d, max_fill } => {
                *d = droptol.unwrap_or(*d);
                *max_fill = fill.unwrap_or(*max_fill);
            }
            PcType::Ssor { omega } => *omega = sor_omega.unwrap_or(*omega),
            _ => {}
        }
        let scale = opts.parse_first(&["richardson_scale"])?;
        cfg.richardson_scale = scale.unwrap_or(cfg.richardson_scale);
        let max_seconds = opts.parse_first(&["ksp_max_seconds", "max_seconds"])?;
        cfg.max_seconds = max_seconds.or(cfg.max_seconds);
        let window = opts.parse_first(&["ksp_stagnation_window", "stagnation_window"])?;
        cfg.stagnation_window = window.unwrap_or(cfg.stagnation_window);
        let every = opts.parse_first(&["ksp_checkpoint_every", "checkpoint_every"])?;
        cfg.checkpoint_every = every.unwrap_or(cfg.checkpoint_every);
        cfg.validate()?;
        Ok(cfg)
    }
}

/// Convergence bookkeeping shared by every method. Every residual it is
/// shown goes into [`KspResult::history`]; each iteration's first one is
/// also committed to the probe log as an [`probe::EventKind::Iter`], and
/// the verdict as one [`probe::EventKind::Verdict`] — the stream every
/// artifact renders.
pub(crate) struct Monitor<'a> {
    rtol_target: f64,
    atol: f64,
    dtol_target: f64,
    maxits: usize,
    history: Vec<f64>,
    comm: &'a Communicator,
    /// Highest iteration number seen, so methods that check twice per
    /// iteration (BiCGStab's half-step) count each iteration once.
    last_counted: usize,
    /// Local wall-clock deadline (`None` = no budget).
    deadline: Option<std::time::Instant>,
    /// Rank-agreed timeout verdict, set only by [`Self::absorb_guard`]
    /// from a reduced flag — never from the local clock directly, so all
    /// ranks stop on the same iteration.
    timed_out: bool,
    /// Stagnation window (0 = disabled).
    stagnation_window: usize,
    /// Best residual norm seen so far.
    best_rnorm: f64,
    /// Consecutive iterations without a new best residual.
    stalled: usize,
}

impl<'a> Monitor<'a> {
    pub(crate) fn new(comm: &'a Communicator, cfg: &KspConfig, bnorm: f64, r0: f64) -> Self {
        // PETSc semantics: relative to ‖b‖ unless b = 0, then absolute.
        let scale = if bnorm > 0.0 { bnorm } else { 1.0 };
        Monitor {
            rtol_target: cfg.rtol * scale,
            atol: cfg.atol,
            dtol_target: cfg.dtol * scale.max(r0),
            maxits: cfg.maxits,
            history: vec![r0],
            comm,
            last_counted: 0,
            deadline: cfg
                .max_seconds
                .map(|s| std::time::Instant::now() + std::time::Duration::from_secs_f64(s)),
            timed_out: false,
            stagnation_window: cfg.stagnation_window,
            best_rnorm: r0,
            stalled: 0,
        }
    }

    /// Local guard flag: 1.0 when this rank's wall-clock budget is
    /// exhausted, else 0.0. Fold the flag into an existing sum-reduction
    /// (piggybacked on the residual norm) and feed the reduced value back
    /// through [`Self::absorb_guard`] — that keeps the timeout verdict
    /// rank-agreed without any extra collective.
    pub(crate) fn local_guard(&self) -> f64 {
        match self.deadline {
            Some(d) if std::time::Instant::now() >= d => 1.0,
            _ => 0.0,
        }
    }

    /// Absorb the reduced (summed) guard flag: any rank over budget trips
    /// the timeout on every rank.
    pub(crate) fn absorb_guard(&mut self, reduced_flag: f64) {
        if reduced_flag > 0.0 {
            self.timed_out = true;
        }
    }

    /// Residual norm with the wall-clock guard piggybacked: computes
    /// `‖v‖₂` via one fused `allreduce_vec` carrying `[‖v‖²_local,
    /// guard_flag]` — the same collective count as a plain `norm2`, and
    /// bit-identical per component (elementwise reduction over the same
    /// rank-ordered tree).
    pub(crate) fn guarded_norm2(&mut self, v: &DistVector) -> KspOutcome<f64> {
        self.guarded_norm2_of(rsparse::dense::pdot(v.local(), v.local()))
    }

    /// [`Self::guarded_norm2`] for a vector whose local `‖v‖²` a fused
    /// update-then-reduce kernel already formed: the same collective,
    /// without the second pass over `v`.
    pub(crate) fn guarded_norm2_of(&mut self, local_sq: f64) -> KspOutcome<f64> {
        let local = [local_sq, self.local_guard()];
        let red = self.comm.allreduce_vec(&local, rcomm::sum)?;
        self.absorb_guard(red[1]);
        Ok(red[0].sqrt())
    }

    /// [`Self::guarded_norm2_of`] with one more local sum riding in the
    /// same collective as its third entry: returns `(‖v‖₂, Σ extra)`. The
    /// element-wise bracket is the scalar one, so both keep the bits of
    /// reductions of their own.
    pub(crate) fn guarded_norm2_with(
        &mut self,
        local_sq: f64,
        extra: f64,
    ) -> KspOutcome<(f64, f64)> {
        let local = [local_sq, self.local_guard(), extra];
        let red = self.comm.allreduce_vec(&local, rcomm::sum)?;
        self.absorb_guard(red[1]);
        Ok((red[0].sqrt(), red[2]))
    }

    /// Record a residual norm; `Some(reason)` means stop.
    pub(crate) fn check(&mut self, iteration: usize, rnorm: f64) -> Option<ConvergedReason> {
        if iteration > 0 {
            if iteration > self.last_counted {
                self.last_counted = iteration;
                probe::incr(probe::Counter::KspIterations);
                // Black box: the per-iteration residual trail is what a
                // postmortem replays when the attempt never converges
                // (and, with spans on, the gap between two of these is
                // the iteration-time histogram's sample).
                probe::emit(probe::EventKind::Iter {
                    iteration: iteration as u64,
                    residual: rnorm,
                });
                if self.stagnation_window > 0 {
                    // Progress = a strictly better (finite) residual. The
                    // test uses only the rank-agreed rnorm, so every rank
                    // reaches the same stall count.
                    if rnorm.is_finite() && rnorm < self.best_rnorm * (1.0 - 1e-12) {
                        self.best_rnorm = rnorm;
                        self.stalled = 0;
                    } else {
                        self.stalled += 1;
                    }
                }
            }
            self.history.push(rnorm);
        }
        if rnorm <= self.atol {
            return Some(ConvergedReason::AbsoluteTolerance);
        }
        if rnorm <= self.rtol_target {
            return Some(ConvergedReason::RelativeTolerance);
        }
        if !rnorm.is_finite() {
            // NaN/Inf screen on the reduced residual: corruption anywhere
            // (halo payloads, local products) propagates through the sum
            // reduction, so this trips identically on every rank.
            probe::incr(probe::Counter::GuardTrips);
            return Some(ConvergedReason::Diverged);
        }
        if rnorm > self.dtol_target {
            return Some(ConvergedReason::Diverged);
        }
        if self.timed_out {
            probe::incr(probe::Counter::GuardTrips);
            return Some(ConvergedReason::TimedOut);
        }
        if self.stagnation_window > 0 && self.stalled >= self.stagnation_window {
            probe::incr(probe::Counter::GuardTrips);
            return Some(ConvergedReason::Stagnated);
        }
        if iteration >= self.maxits {
            return Some(ConvergedReason::MaxIterations);
        }
        None
    }

    pub(crate) fn finish(
        self,
        reason: ConvergedReason,
        iterations: usize,
        r0: f64,
        rfinal: f64,
    ) -> KspResult {
        // Every solve path funnels through finish, so this is the single
        // verdict-transition event the flight recorder sees.
        probe::emit(probe::EventKind::Verdict {
            verdict: reason.name(),
            iteration: iterations as u64,
        });
        KspResult {
            reason,
            iterations,
            initial_residual: r0,
            final_residual: rfinal,
            history: self.history,
            cond_estimate: None,
        }
    }
}

/// True residual norm ‖b − A·x‖₂ (collective).
pub(crate) fn true_residual_norm(
    comm: &Communicator,
    op: &dyn LinearOperator,
    b: &DistVector,
    x: &DistVector,
) -> KspOutcome<f64> {
    let mut ax = DistVector::zeros(op.partition().clone(), comm.rank());
    op.apply(comm, x, &mut ax)?;
    let mut r = b.clone();
    r.axpy(-1.0, &ax)?;
    Ok(r.norm2(comm)?)
}

/// A configured solver context — RKSP's `KSP`.
#[derive(Debug, Clone)]
pub struct Ksp {
    config: KspConfig,
}

impl Ksp {
    /// Create from a configuration.
    pub fn new(config: KspConfig) -> KspOutcome<Self> {
        config.validate()?;
        Ok(Ksp { config })
    }

    /// Create from a string option database.
    pub fn from_options(opts: &Options) -> KspOutcome<Self> {
        Ok(Ksp { config: KspConfig::from_options(opts)? })
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &KspConfig {
        &self.config
    }

    /// Build the configured preconditioner for `op` (exposed so callers
    /// can reuse a preconditioner across solves — paper §5.2b/d).
    pub fn make_pc(&self, op: &dyn LinearOperator) -> KspOutcome<Box<dyn Preconditioner>> {
        make_preconditioner(self.config.pc_type, op)
    }

    /// Solve A·x = b starting from the current content of `x`, using a
    /// freshly built preconditioner.
    pub fn solve(
        &self,
        comm: &Communicator,
        op: &dyn LinearOperator,
        b: &DistVector,
        x: &mut DistVector,
    ) -> KspOutcome<KspResult> {
        let pc = self.make_pc(op)?;
        self.solve_with_pc(comm, op, pc.as_ref(), b, x)
    }

    /// Solve with a caller-provided (possibly reused) preconditioner.
    /// `b` and `x` must be on the operator's partition.
    pub fn solve_with_pc(
        &self,
        comm: &Communicator,
        op: &dyn LinearOperator,
        pc: &dyn Preconditioner,
        b: &DistVector,
        x: &mut DistVector,
    ) -> KspOutcome<KspResult> {
        // The loops read `b` and update `x` through their local slices,
        // so check here what `DistVector::axpy` would have checked.
        if b.partition() != op.partition() || x.partition() != op.partition() {
            return Err(SparseError::BadBlockPartition(
                "right-hand side or solution partition differs from the operator's".into(),
            )
            .into());
        }
        // Open a causal trace for this solve (inert unless tracing is
        // armed) before the span so the span lands inside the trace.
        let _trace = probe::trace::solve_guard();
        let _span = probe::span!("ksp_solve");
        self.register_work_models(comm, op, 1);
        match self.lockstep(comm, op, pc, b.local(), x.local_mut(), 1) {
            Some(results) => Ok(results?.swap_remove(0)),
            None => self.run_method(comm, op, pc, b, x),
        }
    }

    /// Solve `k` systems sharing the operator — `A·x_q = b_q` for the
    /// columns stored contiguously in `bs`/`xs` (column `q` at
    /// `[q·n_local .. (q+1)·n_local]`) — with a freshly built
    /// preconditioner. See [`Self::solve_batch_with_pc`].
    pub fn solve_batch(
        &self,
        comm: &Communicator,
        op: &dyn LinearOperator,
        bs: &[f64],
        xs: &mut [f64],
        k: usize,
    ) -> KspOutcome<Vec<KspResult>> {
        let pc = self.make_pc(op)?;
        self.solve_batch_with_pc(comm, op, pc.as_ref(), bs, xs, k)
    }

    /// Batched multi-RHS solve with a caller-provided preconditioner.
    ///
    /// CG, GMRES and FGMRES run the `k` columns in lockstep through the
    /// loop a single solve runs at k = 1: one fused multi-vector SpMV per
    /// operator application and every per-column dot product batched
    /// into the same collectives. Every other method solves the columns
    /// one after another. Either way column `q`'s result is bit-identical
    /// to a standalone solve of that column.
    pub fn solve_batch_with_pc(
        &self,
        comm: &Communicator,
        op: &dyn LinearOperator,
        pc: &dyn Preconditioner,
        bs: &[f64],
        xs: &mut [f64],
        k: usize,
    ) -> KspOutcome<Vec<KspResult>> {
        let _trace = probe::trace::solve_guard();
        let _span = probe::span!("ksp_solve");
        self.register_work_models(comm, op, k);
        if let Some(results) = self.lockstep(comm, op, pc, bs, xs, k) {
            return results;
        }
        let part = op.partition();
        let n = part.local_rows(comm.rank());
        columns::check_layout(n, k, bs, xs)?;
        let mut out = Vec::with_capacity(k);
        for c in 0..k {
            let col = c * n..(c + 1) * n;
            let local = |v: &[f64]| {
                DistVector::from_local(part.clone(), comm.rank(), v[col.clone()].to_vec())
            };
            let b = local(bs)?;
            let mut x = local(xs)?;
            out.push(self.run_method(comm, op, pc, &b, &mut x)?);
            xs[col].copy_from_slice(x.local());
        }
        Ok(out)
    }

    /// Work models for the solver-owned kernels of a solve of `nrhs`
    /// columns, from the config and the operator's partition. The
    /// collective payload model joins with the ReducedBytes counter
    /// (message sizes vary per call); the CG vector-op model rides the
    /// ksp_solve *self* time — the matvec/sptrsv/allreduce children carry
    /// their own models. `nrhs` marks the batch width for ledger
    /// attribution.
    fn register_work_models(&self, comm: &Communicator, op: &dyn LinearOperator, nrhs: usize) {
        use probe::model::{register, KernelModel, TimeBase, WorkUnit};
        let n = op.partition().local_rows(comm.rank()) as u64;
        let nrhs = nrhs as u64;
        register(
            "allreduce",
            KernelModel {
                span: "allreduce",
                flops: 0,
                bytes: 1,
                unit: WorkUnit::Counter(probe::Counter::ReducedBytes),
                time: TimeBase::Total,
                nrhs: 1,
            },
        );
        match self.config.ksp_type {
            // Per CG iteration (of each column): 3 axpy-shaped updates (2
            // flops, 3 streams each) and 3 dot-shaped reductions (2 flops,
            // 2 streams each) over the local length.
            KspType::Cg => register(
                "krylov_vec_ops",
                KernelModel {
                    span: "ksp_solve",
                    flops: 12 * n,
                    bytes: 120 * n,
                    unit: WorkUnit::Counter(probe::Counter::KspIterations),
                    time: TimeBase::SelfTime,
                    nrhs,
                },
            ),
            // Per inner GMRES iteration, averaged over a restart cycle of
            // depth m: (m+1)/2 projections, each one dot plus one axpy.
            KspType::Gmres | KspType::Fgmres => {
                let proj = (self.config.restart as u64).div_ceil(2);
                register(
                    "gram_schmidt",
                    KernelModel {
                        span: "gram_schmidt",
                        flops: 4 * n * proj,
                        bytes: 40 * n * proj,
                        unit: WorkUnit::SpanCalls,
                        time: TimeBase::Total,
                        nrhs,
                    },
                );
            }
            _ => {}
        }
    }

    /// CG, GMRES or FGMRES on the `k` columns in lockstep; `None` for a
    /// method without a k-wide loop.
    fn lockstep(
        &self,
        comm: &Communicator,
        op: &dyn LinearOperator,
        pc: &dyn Preconditioner,
        bs: &[f64],
        xs: &mut [f64],
        k: usize,
    ) -> Option<KspOutcome<Vec<KspResult>>> {
        let cfg = &self.config;
        Some(match cfg.ksp_type {
            KspType::Cg => cg::solve(comm, op, pc, bs, xs, k, cfg),
            KspType::Gmres => gmres::solve(comm, op, pc, bs, xs, k, cfg, false),
            KspType::Fgmres => gmres::solve(comm, op, pc, bs, xs, k, cfg, true),
            _ => return None,
        })
    }

    /// A method without a k-wide loop on one right-hand side.
    fn run_method(
        &self,
        comm: &Communicator,
        op: &dyn LinearOperator,
        pc: &dyn Preconditioner,
        b: &DistVector,
        x: &mut DistVector,
    ) -> KspOutcome<KspResult> {
        let cfg = &self.config;
        match cfg.ksp_type {
            KspType::BiCgStab => bicgstab::solve(comm, op, pc, b, x, cfg),
            KspType::Cgs => cgs::solve(comm, op, pc, b, x, cfg),
            KspType::Tfqmr => tfqmr::solve(comm, op, pc, b, x, cfg),
            KspType::Richardson => richardson::solve(comm, op, pc, b, x, cfg),
            KspType::Chebyshev => chebyshev::solve(comm, op, pc, b, x, cfg),
            KspType::Cg | KspType::Gmres | KspType::Fgmres => {
                unreachable!("CG and GMRES run in lockstep")
            }
        }
    }
}

/// `a` with row `r` of its second half scaled by `1 + (r mod 7 + 1)·2⁻²⁰`
/// (a variable-coefficient operator), and whether each of `ranks` even
/// slices of its diagonal is uniform: the first half's rows keep their
/// values, so on two ranks Jacobi keeps one number on rank 0 and one a
/// row on rank 1.
#[cfg(test)]
pub(crate) fn vary_second_half(
    a: &rsparse::CsrMatrix,
    ranks: usize,
) -> (rsparse::CsrMatrix, Vec<bool>) {
    let n = a.rows();
    let scale = |r: usize| 1.0 + (r % 7 + 1) as f64 / (1u32 << 20) as f64;
    let scales: Vec<f64> = (0..n).map(|r| if r < n / 2 { 1.0 } else { scale(r) }).collect();
    let varied = rsparse::ops::diag_scale_rows(&scales, a).unwrap();
    let diagonal = varied.diagonal().unwrap();
    let part = rsparse::BlockRowPartition::even(n, ranks);
    let uniform = (0..ranks)
        .map(|rank| {
            let slice = diagonal[part.range(rank)].to_vec();
            rsparse::dense::DiagonalScale::new(slice).unwrap().is_uniform()
        })
        .collect();
    (varied, uniform)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::MatOperator;
    use rcomm::Universe;
    use rsparse::{generate, BlockRowPartition, DistCsrMatrix};

    fn solve_problem(
        ksp_type: KspType,
        pc_type: PcType,
        a: &rsparse::CsrMatrix,
        ranks: usize,
    ) -> (bool, usize, f64) {
        let n = a.rows();
        let x_true = generate::random_vector(n, 17);
        let b = a.matvec(&x_true).unwrap();
        let out = Universe::run(ranks, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let da = DistCsrMatrix::from_global(comm, part.clone(), a).unwrap();
            let op = MatOperator::new(da);
            let db = DistVector::from_global(part.clone(), comm.rank(), &b).unwrap();
            let mut dx = DistVector::zeros(part, comm.rank());
            let ksp = Ksp::new(KspConfig {
                ksp_type,
                pc_type,
                rtol: 1e-10,
                maxits: 2000,
                ..KspConfig::default()
            })
            .unwrap();
            let res = ksp.solve(comm, &op, &db, &mut dx).unwrap();
            let full = dx.allgather_full(comm).unwrap();
            (res, full)
        });
        let (res, full) = &out[0];
        // All ranks must agree on the result metadata.
        for (r, _) in &out {
            assert_eq!(r.iterations, res.iterations);
            assert_eq!(r.reason, res.reason);
        }
        let err = full.iter().zip(&x_true).fold(0.0f64, |m, (g, e)| m.max((g - e).abs()));
        (res.converged(), res.iterations, err)
    }

    #[test]
    fn every_method_solves_spd_poisson_serial() {
        let a = generate::laplacian_2d(8);
        for ksp in [
            KspType::Cg,
            KspType::BiCgStab,
            KspType::Gmres,
            KspType::Fgmres,
            KspType::Cgs,
            KspType::Tfqmr,
            KspType::Chebyshev,
        ] {
            let (ok, its, err) = solve_problem(ksp, PcType::Jacobi, &a, 1);
            assert!(ok, "{ksp:?} did not converge");
            assert!(err < 1e-6, "{ksp:?}: err = {err}, its = {its}");
        }
    }

    #[test]
    fn richardson_solves_with_strong_pc() {
        // Richardson needs an effective preconditioner; ILU(0) qualifies.
        let a = generate::laplacian_2d(6);
        let (ok, _, err) = solve_problem(KspType::Richardson, PcType::Ilu0, &a, 1);
        assert!(ok);
        assert!(err < 1e-6, "err = {err}");
    }

    #[test]
    fn nonsymmetric_methods_solve_convection_diffusion() {
        let (a, _) = rmesh::paper_problem(10).assemble_global();
        for ksp in [KspType::BiCgStab, KspType::Gmres, KspType::Fgmres, KspType::Tfqmr] {
            let (ok, its, err) = solve_problem(ksp, PcType::Ilu0, &a, 1);
            assert!(ok, "{ksp:?}");
            assert!(err < 1e-6, "{ksp:?}: err = {err}, its = {its}");
        }
    }

    #[test]
    fn parallel_solves_match_serial_for_all_methods() {
        let a = generate::laplacian_2d(7);
        for ksp in [KspType::Cg, KspType::BiCgStab, KspType::Gmres] {
            let (ok1, _, err1) = solve_problem(ksp, PcType::Jacobi, &a, 1);
            let (ok4, _, err4) = solve_problem(ksp, PcType::Jacobi, &a, 4);
            assert!(ok1 && ok4, "{ksp:?}");
            assert!(err1 < 1e-6 && err4 < 1e-6, "{ksp:?}: {err1} {err4}");
        }
    }

    #[test]
    fn block_jacobi_pcs_work_in_parallel() {
        let a = generate::laplacian_2d(8);
        for pc in [PcType::Ilu0, PcType::Ic0, PcType::Ssor { omega: 1.0 }] {
            let (ok, its, err) = solve_problem(KspType::Gmres, pc, &a, 3);
            assert!(ok, "{pc:?}");
            assert!(err < 1e-6, "{pc:?}: err = {err}, its = {its}");
        }
    }

    #[test]
    fn gmres_restart_still_converges() {
        let (a, _) = rmesh::paper_problem(9).assemble_global();
        let n = a.rows();
        let x_true = generate::random_vector(n, 3);
        let b = a.matvec(&x_true).unwrap();
        let out = Universe::run(1, |comm| {
            let part = BlockRowPartition::even(n, 1);
            let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
            let op = MatOperator::new(da);
            let db = DistVector::from_global(part.clone(), 0, &b).unwrap();
            let mut dx = DistVector::zeros(part, 0);
            let ksp = Ksp::new(KspConfig {
                ksp_type: KspType::Gmres,
                pc_type: PcType::None,
                restart: 5,
                rtol: 1e-9,
                maxits: 5000,
                ..KspConfig::default()
            })
            .unwrap();
            let r = ksp.solve(comm, &op, &db, &mut dx).unwrap();
            (r.converged(), r.iterations)
        });
        assert!(out[0].0, "restarted GMRES(5) must still converge");
        assert!(out[0].1 > 5, "must have needed at least one restart cycle");
    }

    #[test]
    fn zero_rhs_returns_zero_solution_immediately() {
        let a = generate::laplacian_2d(4);
        let out = Universe::run(1, |comm| {
            let part = BlockRowPartition::even(16, 1);
            let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
            let op = MatOperator::new(da);
            let db = DistVector::zeros(part.clone(), 0);
            let mut dx = DistVector::zeros(part, 0);
            let ksp = Ksp::new(KspConfig::default()).unwrap();
            let r = ksp.solve(comm, &op, &db, &mut dx).unwrap();
            (r.converged(), r.iterations, dx.local().to_vec())
        });
        let (ok, its, x) = &out[0];
        assert!(ok);
        assert_eq!(*its, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn maxits_is_reported_when_hit() {
        let a = generate::laplacian_2d(10);
        let n = 100;
        let b = vec![1.0; n];
        let out = Universe::run(1, |comm| {
            let part = BlockRowPartition::even(n, 1);
            let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
            let op = MatOperator::new(da);
            let db = DistVector::from_global(part.clone(), 0, &b).unwrap();
            let mut dx = DistVector::zeros(part, 0);
            let ksp = Ksp::new(KspConfig {
                ksp_type: KspType::Cg,
                pc_type: PcType::None,
                rtol: 1e-14,
                maxits: 3,
                ..KspConfig::default()
            })
            .unwrap();
            ksp.solve(comm, &op, &db, &mut dx).unwrap()
        });
        assert_eq!(out[0].reason, ConvergedReason::MaxIterations);
        assert_eq!(out[0].iterations, 3);
        assert!(!out[0].converged());
    }

    #[test]
    fn history_is_monotone_for_gmres() {
        let a = generate::laplacian_2d(6);
        let n = 36;
        let b = vec![1.0; n];
        let out = Universe::run(1, |comm| {
            let part = BlockRowPartition::even(n, 1);
            let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
            let op = MatOperator::new(da);
            let db = DistVector::from_global(part.clone(), 0, &b).unwrap();
            let mut dx = DistVector::zeros(part, 0);
            let ksp = Ksp::new(KspConfig {
                ksp_type: KspType::Gmres,
                pc_type: PcType::None,
                restart: 50,
                ..KspConfig::default()
            })
            .unwrap();
            ksp.solve(comm, &op, &db, &mut dx).unwrap()
        });
        let h = &out[0].history;
        assert!(h.len() >= 2);
        for w in h.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-12), "GMRES residual must not increase: {h:?}");
        }
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(Ksp::new(KspConfig { rtol: -1.0, ..KspConfig::default() }).is_err());
        assert!(Ksp::new(KspConfig { restart: 0, ..KspConfig::default() }).is_err());
        assert!(Ksp::new(KspConfig { maxits: 0, ..KspConfig::default() }).is_err());
        assert!(KspType::parse("nope").is_err());
    }

    #[test]
    fn from_options_builds_configured_solver() {
        let mut o = Options::new();
        o.set("ksp_type", "cg");
        o.set("pc_type", "jacobi");
        o.set("ksp_rtol", "1e-5");
        o.set("maxits", "123");
        o.set("restart", "7");
        let ksp = Ksp::from_options(&o).unwrap();
        assert_eq!(ksp.config().ksp_type, KspType::Cg);
        assert_eq!(ksp.config().pc_type, PcType::Jacobi);
        assert_eq!(ksp.config().rtol, 1e-5);
        assert_eq!(ksp.config().maxits, 123);
        assert_eq!(ksp.config().restart, 7);

        let mut bad = Options::new();
        bad.set("ksp_type", "unobtainium");
        assert!(Ksp::from_options(&bad).is_err());
    }

    #[test]
    fn from_options_parses_guard_keys() {
        let mut o = Options::new();
        o.set("ksp_max_seconds", "2.5");
        o.set("ksp_stagnation_window", "12");
        let ksp = Ksp::from_options(&o).unwrap();
        assert_eq!(ksp.config().max_seconds, Some(2.5));
        assert_eq!(ksp.config().stagnation_window, 12);

        let mut bad = Options::new();
        bad.set("ksp_max_seconds", "-1");
        assert!(Ksp::from_options(&bad).is_err());
    }

    #[test]
    fn stagnation_is_reported_rank_consistently() {
        // Unpreconditioned CG on a stiff problem with a 1-iteration stall
        // window: the residual is not strictly monotone, so the stall
        // trips long before maxits — and identically on every rank.
        let a = generate::laplacian_2d(10);
        let n = 100;
        let b = vec![1.0; n];
        for ranks in [1usize, 3] {
            let out = Universe::run(ranks, |comm| {
                let part = BlockRowPartition::even(n, comm.size());
                let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
                let op = MatOperator::new(da);
                let db = DistVector::from_global(part.clone(), comm.rank(), &b).unwrap();
                let mut dx = DistVector::zeros(part, comm.rank());
                let ksp = Ksp::new(KspConfig {
                    ksp_type: KspType::Cg,
                    pc_type: PcType::None,
                    rtol: 1e-30,
                    atol: 1e-300,
                    maxits: 100_000,
                    stagnation_window: 1,
                    ..KspConfig::default()
                })
                .unwrap();
                ksp.solve(comm, &op, &db, &mut dx).unwrap()
            });
            for r in &out {
                assert_eq!(r.reason, out[0].reason, "ranks disagree");
                assert_eq!(r.iterations, out[0].iterations, "ranks disagree");
            }
            assert_eq!(out[0].reason, ConvergedReason::Stagnated);
            assert!(out[0].iterations < 100_000);
        }
    }

    #[test]
    fn wall_clock_budget_times_out_rank_consistently() {
        // An impossible tolerance with a tiny time budget: every rank must
        // stop with TimedOut on the same iteration (the verdict rides the
        // fused reductions).
        let a = generate::laplacian_2d(10);
        let n = 100;
        let b = vec![1.0; n];
        let out = Universe::run(3, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
            let op = MatOperator::new(da);
            let db = DistVector::from_global(part.clone(), comm.rank(), &b).unwrap();
            let mut dx = DistVector::zeros(part, comm.rank());
            let ksp = Ksp::new(KspConfig {
                // Richardson with a negligible step makes essentially no
                // progress per iteration, so only the clock can stop it.
                ksp_type: KspType::Richardson,
                pc_type: PcType::None,
                richardson_scale: 1e-18,
                rtol: 1e-12,
                dtol: 1e300,
                maxits: 100_000_000,
                max_seconds: Some(0.05),
                ..KspConfig::default()
            })
            .unwrap();
            ksp.solve(comm, &op, &db, &mut dx).unwrap()
        });
        for r in &out {
            assert_eq!(r.reason, out[0].reason, "ranks disagree");
            assert_eq!(r.iterations, out[0].iterations, "ranks disagree");
        }
        assert_eq!(out[0].reason, ConvergedReason::TimedOut);
    }

    /// The lockstep loops' contract: every column of a `solve_batch`, and
    /// a `solve_with_pc`, reproduces the single-vector oracle in
    /// [`reference`] bit for bit — iterate, residual history, iteration
    /// count, verdict and condition estimate — for CG, GMRES and FGMRES,
    /// serial and on three ranks, at k = 1, 2 and 4.
    #[test]
    fn batched_solves_match_single_solves_bitwise() {
        let a = generate::laplacian_2d(6);
        let n = a.rows();
        let cases = [
            (KspType::Cg, PcType::Jacobi, 30),
            (KspType::Gmres, PcType::Ilu0, 30),
            (KspType::Gmres, PcType::Jacobi, 4),
            (KspType::Fgmres, PcType::Jacobi, 5),
        ];
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for (ksp_type, pc_type, restart) in cases {
            for ranks in [1usize, 3] {
                for k in [1usize, 2, 4] {
                    let bs_global: Vec<Vec<f64>> = (0..k)
                        .map(|q| a.matvec(&generate::random_vector(n, 11 + q as u64)).unwrap())
                        .collect();
                    Universe::run(ranks, |comm| {
                        let part = BlockRowPartition::even(n, comm.size());
                        let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
                        let op = MatOperator::new(da);
                        let nl = part.local_rows(comm.rank());
                        let cols: Vec<DistVector> = bs_global
                            .iter()
                            .map(|bg| {
                                DistVector::from_global(part.clone(), comm.rank(), bg).unwrap()
                            })
                            .collect();
                        let bs_flat: Vec<f64> =
                            cols.iter().flat_map(|b| b.local().to_vec()).collect();
                        let cfg = KspConfig {
                            ksp_type,
                            pc_type,
                            restart,
                            rtol: 1e-10,
                            maxits: 2000,
                            ..KspConfig::default()
                        };
                        let ksp = Ksp::new(cfg.clone()).unwrap();
                        let pc = ksp.make_pc(&op).unwrap();
                        let pc = pc.as_ref();
                        let mut xs_flat = vec![0.0f64; k * nl];
                        let batch = ksp
                            .solve_batch_with_pc(comm, &op, pc, &bs_flat, &mut xs_flat, k)
                            .unwrap();
                        for (q, db) in cols.iter().enumerate() {
                            let tag = format!("{ksp_type:?}/{restart}/{ranks}r/k{k} col {q}");
                            let mut dx = DistVector::zeros(part.clone(), comm.rank());
                            let oracle = match ksp_type {
                                KspType::Cg => reference::cg(comm, &op, pc, db, &mut dx, &cfg),
                                flexible => reference::gmres(
                                    comm,
                                    &op,
                                    pc,
                                    db,
                                    &mut dx,
                                    &cfg,
                                    flexible == KspType::Fgmres,
                                ),
                            }
                            .unwrap();
                            assert!(oracle.converged() && oracle.iterations > 2, "{tag}");
                            let mut single = DistVector::zeros(part.clone(), comm.rank());
                            let one = ksp.solve_with_pc(comm, &op, pc, db, &mut single).unwrap();
                            for (got, x) in
                                [(&batch[q], &xs_flat[q * nl..][..nl]), (&one, single.local())]
                            {
                                assert_eq!(got.reason, oracle.reason, "{tag} verdict");
                                assert_eq!(got.iterations, oracle.iterations, "{tag} iterations");
                                assert_eq!(
                                    got.cond_estimate.map(f64::to_bits),
                                    oracle.cond_estimate.map(f64::to_bits),
                                    "{tag} condition estimate"
                                );
                                assert_eq!(
                                    bits(&got.history),
                                    bits(&oracle.history),
                                    "{tag} history"
                                );
                                assert_eq!(bits(x), bits(dx.local()), "{tag} iterate");
                            }
                        }
                    });
                }
            }
        }
    }
}
