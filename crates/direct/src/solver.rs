//! High-level RSLU driver: the analyze → factorize → solve pipeline with
//! options and statistics, plus the distributed gather/solve/scatter
//! front-end for block-row partitioned systems.

use rcomm::Communicator;
use rsparse::{BlockRowPartition, CsrMatrix, DistCsrMatrix, DistVector};

use crate::lu::{LuFactorization, SolveScratch};
use crate::ordering::Ordering;
use crate::symbolic::Symbolic;
use crate::{RsluError, RsluResult};

/// Options for a solve — RSLU's `superlu_options_t`.
#[derive(Debug, Clone, PartialEq)]
pub struct RsluOptions {
    /// Fill-reducing ordering (`permc_spec`).
    pub ordering: Ordering,
    /// Diagonal pivot threshold in (0, 1] (`diag_pivot_thresh`).
    pub pivot_threshold: f64,
    /// Run one step of iterative refinement after each solve.
    pub refine: bool,
    /// Equilibrate (row scale to unit ∞-norm, then column scale) before
    /// factorization — SuperLU's `equil` option. Improves pivot quality
    /// on badly scaled systems at the cost of two scaling passes.
    pub equilibrate: bool,
}

impl Default for RsluOptions {
    fn default() -> Self {
        RsluOptions {
            ordering: Ordering::MinDegree,
            pivot_threshold: 1.0,
            refine: true,
            equilibrate: false,
        }
    }
}

/// Compute equilibration scales and the scaled matrix
/// `A' = diag(r)·A·diag(c)` with unit ∞-norm rows and columns.
fn equilibrate(a: &CsrMatrix) -> RsluResult<(CsrMatrix, Vec<f64>, Vec<f64>)> {
    let n = a.rows();
    let mut r = vec![0.0f64; n];
    for (i, ri) in r.iter_mut().enumerate() {
        let m = a.row(i).1.iter().fold(0.0f64, |mx, v| mx.max(v.abs()));
        if m == 0.0 {
            return Err(RsluError::Singular { column: i });
        }
        *ri = 1.0 / m;
    }
    let row_scaled = rsparse::ops::diag_scale_rows(&r, a)?;
    let mut c = vec![0.0f64; n];
    for (_, j, v) in row_scaled.iter() {
        c[j] = c[j].max(v.abs());
    }
    for (j, cj) in c.iter_mut().enumerate() {
        if *cj == 0.0 {
            return Err(RsluError::Singular { column: j });
        }
        *cj = 1.0 / *cj;
    }
    // Column scaling: multiply each entry by c[j].
    let (rows, cols, row_ptr, col_idx, mut values) = {
        let (rr, cc, p, ci, v) = row_scaled.into_parts();
        (rr, cc, p, ci, v)
    };
    for (k, &j) in col_idx.iter().enumerate() {
        values[k] *= c[j];
    }
    let scaled = CsrMatrix::from_parts(rows, cols, row_ptr, col_idx, values)
        .map_err(|e| RsluError::Sparse(e.to_string()))?;
    Ok((scaled, r, c))
}

/// `r = b − A·x` in one fused pass — `rsparse::ops::residual`'s
/// arithmetic into a buffer the solver keeps (`a` is the factored matrix,
/// so the lengths agree with the workspace by construction).
fn residual_into(a: &CsrMatrix, x: &[f64], b: &[f64], r: &mut [f64]) {
    for (i, (ri, &bi)) in r.iter_mut().zip(b).enumerate() {
        let (cols, vals) = a.row(i);
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v * x[c];
        }
        *ri = bi - acc;
    }
}

/// Statistics from the last factorization/solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RsluStats {
    /// Stored entries in L + U.
    pub fill: usize,
    /// Input nonzeros.
    pub nnz: usize,
    /// Number of numeric factorizations performed so far.
    pub factorizations: usize,
    /// Number of triangular solves performed so far.
    pub solves: usize,
    /// ‖b − A·x‖∞ after the last solve (with refinement if enabled).
    pub backward_error: f64,
    /// ‖b − A·x‖₂ of that same residual.
    pub residual_norm2: f64,
}

/// What a solve scratches, sized once per factorization: the triangular
/// sweeps' buffers, the residual, the refinement correction and (under
/// equilibration) the scaled right-hand side.
#[derive(Debug, Clone, Default)]
struct Workspace {
    lu: SolveScratch,
    residual: Vec<f64>,
    correction: Vec<f64>,
    scaled_rhs: Vec<f64>,
}

/// The serial (per-rank) RSLU solver with reusable phases.
///
/// Usage scenarios from paper §5.2 map to this API directly:
/// * (a) one-shot: [`RsluSolver::solve_system`];
/// * (b) reuse factorization: `analyze` + `factorize` once, then many
///   [`RsluSolver::solve`] calls;
/// * (c) multiple RHS: [`RsluSolver::solve_multi`];
/// * (d) new values, same pattern: [`RsluSolver::refactorize`].
#[derive(Debug, Clone, Default)]
pub struct RsluSolver {
    options: RsluOptions,
    symbolic: Option<Symbolic>,
    factors: Option<LuFactorization>,
    matrix: Option<CsrMatrix>,
    /// Equilibration scales `(row, col)` when enabled.
    scales: Option<(Vec<f64>, Vec<f64>)>,
    stats: RsluStats,
    work: Workspace,
}

impl RsluSolver {
    /// New solver with options.
    pub fn new(options: RsluOptions) -> Self {
        RsluSolver { options, ..Default::default() }
    }

    /// Borrow current statistics.
    pub fn stats(&self) -> &RsluStats {
        &self.stats
    }

    /// Borrow the options.
    pub fn options(&self) -> &RsluOptions {
        &self.options
    }

    /// Phase 1: symbolic analysis (reused until the pattern changes).
    pub fn analyze(&mut self, a: &CsrMatrix) -> RsluResult<()> {
        let _span = probe::span!("rslu_analyze");
        self.symbolic = Some(Symbolic::analyze(a, self.options.ordering)?);
        self.factors = None;
        self.matrix = None;
        Ok(())
    }

    /// Phase 2: numeric factorization (runs analyze implicitly if absent
    /// or incompatible).
    pub fn factorize(&mut self, a: &CsrMatrix) -> RsluResult<()> {
        self.factor_pattern(a)?;
        self.matrix = Some(a.clone());
        Ok(())
    }

    /// [`Self::factorize`] on a matrix the caller hands over, kept for
    /// refinement as it is instead of copied.
    pub(crate) fn factorize_owned(&mut self, a: CsrMatrix) -> RsluResult<()> {
        self.factor_pattern(&a)?;
        self.matrix = Some(a);
        Ok(())
    }

    /// Everything [`Self::factorize`] does but keep `a`: analyze when the
    /// stored analysis does not fit its pattern, then factor it.
    fn factor_pattern(&mut self, a: &CsrMatrix) -> RsluResult<()> {
        let need_analysis = match &self.symbolic {
            Some(s) => !s.compatible_with(a),
            None => true,
        };
        if need_analysis {
            self.analyze(a)?;
        }
        self.factor_numeric(a)?;
        self.stats.nnz = a.nnz();
        Ok(())
    }

    /// Phase 2': refactorize with new values on the identical pattern,
    /// reusing the symbolic analysis (scenario d).
    pub fn refactorize(&mut self, values: &[f64]) -> RsluResult<()> {
        let mut a = self
            .matrix
            .take()
            .ok_or_else(|| RsluError::BadOption("refactorize requires a prior factorize".into()))?;
        let out = if values.len() == a.nnz() {
            a.values_mut().copy_from_slice(values);
            self.factor_numeric(&a)
        } else {
            Err(RsluError::PatternMismatch { expected: a.nnz(), got: values.len() })
        };
        self.matrix = Some(a);
        out
    }

    /// The numeric phase shared by `factorize` and `refactorize`: factor
    /// `a` (equilibrated first when asked) under the stored analysis. The
    /// previous factors go first, so a failure leaves none for `solve` to
    /// answer with.
    fn factor_numeric(&mut self, a: &CsrMatrix) -> RsluResult<()> {
        let _span = probe::span!("rslu_factor");
        probe::incr(probe::Counter::FactorCalls);
        self.factors = None;
        self.scales = None;
        let sym = self.symbolic.as_ref().expect("analysis precedes the numeric phase");
        let threshold = self.options.pivot_threshold;
        let (lu, scales) = if self.options.equilibrate {
            let (scaled, r, c) = equilibrate(a)?;
            (LuFactorization::factor(&scaled, sym, threshold)?, Some((r, c)))
        } else {
            (LuFactorization::factor(a, sym, threshold)?, None)
        };
        self.stats.fill = lu.fill();
        self.stats.factorizations += 1;
        let n = lu.order();
        self.work = Workspace {
            lu: lu.scratch(),
            residual: vec![0.0; n],
            correction: vec![0.0; n],
            scaled_rhs: vec![0.0; if scales.is_some() { n } else { 0 }],
        };
        self.factors = Some(lu);
        self.scales = scales;
        Ok(())
    }

    /// Heap bytes the solver holds between calls: the factors, the
    /// matrix copy refinement reads, the equilibration scales and the
    /// solve workspace.
    pub fn heap_bytes(&self) -> usize {
        let floats = self.scales.as_ref().map_or(0, |(r, c)| r.len() + c.len())
            + self.work.lu.len()
            + self.work.residual.len()
            + self.work.correction.len()
            + self.work.scaled_rhs.len();
        self.factors.as_ref().map_or(0, LuFactorization::heap_bytes)
            + self.matrix.as_ref().map_or(0, |a| {
                std::mem::size_of_val(a.row_ptr())
                    + std::mem::size_of_val(a.col_idx())
                    + std::mem::size_of_val(a.values())
            })
            + floats * std::mem::size_of::<f64>()
    }

    /// Phase 3: triangular solves (+ optional refinement).
    pub fn solve(&mut self, b: &[f64]) -> RsluResult<Vec<f64>> {
        let mut x = vec![0.0; b.len()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// [`RsluSolver::solve`] into `x`. Allocates nothing: every buffer a
    /// solve scratches was sized when the factors were computed.
    pub fn solve_into(&mut self, b: &[f64], x: &mut [f64]) -> RsluResult<()> {
        let _trace = probe::trace::solve_guard();
        let _span = probe::span!("rslu_solve");
        let lu = self
            .factors
            .as_ref()
            .ok_or_else(|| RsluError::BadOption("solve requires a prior factorize".into()))?;
        let Workspace { lu: scratch, residual, correction, scaled_rhs } = &mut self.work;
        // With equilibration the factors invert A' = R·A·C, so
        // A·x = b ⟺ A'·y = R·b with x = C·y.
        let mut scaled_solve = |rhs: &[f64], out: &mut [f64]| -> RsluResult<()> {
            probe::incr(probe::Counter::TriangularSolves);
            match &self.scales {
                None => lu.solve_into(rhs, out, scratch),
                Some((r, c)) => {
                    for ((s, v), ri) in scaled_rhs.iter_mut().zip(rhs).zip(r) {
                        *s = v * ri;
                    }
                    lu.solve_into(scaled_rhs, out, scratch)?;
                    for (yi, ci) in out.iter_mut().zip(c) {
                        *yi *= ci;
                    }
                    Ok(())
                }
            }
        };
        scaled_solve(b, x)?;
        self.stats.solves += 1;
        if let Some(a) = &self.matrix {
            residual_into(a, x, b, residual);
            if self.options.refine {
                scaled_solve(residual, correction)?;
                rsparse::dense::axpy(1.0, correction, x);
                residual_into(a, x, b, residual);
            }
            self.stats.backward_error = rsparse::dense::norm_inf(residual);
            self.stats.residual_norm2 = rsparse::dense::norm2(residual);
        }
        Ok(())
    }

    /// Multi-RHS solve on a flat column-major buffer.
    pub fn solve_multi(&mut self, b: &[f64], nrhs: usize) -> RsluResult<Vec<f64>> {
        let n = self
            .factors
            .as_ref()
            .ok_or_else(|| RsluError::BadOption("solve requires a prior factorize".into()))?
            .order();
        if nrhs == 0 || b.len() != n * nrhs {
            return Err(RsluError::PatternMismatch { expected: n * nrhs, got: b.len() });
        }
        let mut out = vec![0.0; b.len()];
        for k in 0..nrhs {
            let col = k * n..(k + 1) * n;
            self.solve_into(&b[col.clone()], &mut out[col])?;
        }
        Ok(out)
    }

    /// Convenience one-shot: analyze + factorize + solve (scenario a).
    pub fn solve_system(&mut self, a: &CsrMatrix, b: &[f64]) -> RsluResult<Vec<f64>> {
        self.factorize(a)?;
        self.solve(b)
    }
}

/// Distributed front-end: gathers the block-row system to rank 0, runs
/// the serial pipeline there, scatters the solution back — the documented
/// parallel-mode substitution (DESIGN.md).
#[derive(Debug, Default)]
pub struct DistRslu {
    inner: RsluSolver,
    /// The root's full-length solution, sized by `factorize`.
    x_full: Vec<f64>,
}

impl DistRslu {
    /// New distributed driver.
    pub fn new(options: RsluOptions) -> Self {
        DistRslu { inner: RsluSolver::new(options), x_full: Vec::new() }
    }

    /// Access the rank-0 serial solver. Meaningful on the root only, but
    /// for `stats().residual_norm2`, which every rank receives with its
    /// slice of the last solve.
    pub fn root_solver(&self) -> &RsluSolver {
        &self.inner
    }

    /// Factor a distributed matrix (gather happens here). Collective.
    pub fn factorize(&mut self, comm: &Communicator, a: &DistCsrMatrix) -> RsluResult<()> {
        let _span = probe::span!("rslu_dist_factor");
        let gathered = a.gather_to_root(comm, 0)?;
        let outcome = gathered.map(|global| {
            self.x_full = vec![0.0; global.rows()];
            self.inner.factorize_owned(global)
        });
        // Broadcast the root's outcome so all ranks agree on it.
        comm.bcast(0, outcome)?.expect("the root sends its outcome")
    }

    /// Solve with the factors held on rank 0; every rank passes its rhs
    /// chunk and receives its solution chunk. Collective.
    pub fn solve(
        &mut self,
        comm: &Communicator,
        partition: &BlockRowPartition,
        b: &DistVector,
    ) -> RsluResult<DistVector> {
        let mut x = DistVector::zeros(partition.clone(), comm.rank());
        self.solve_local(comm, partition, b.local(), x.local_mut())?;
        Ok(x)
    }

    /// [`DistRslu::solve`] on the caller's own buffers: this rank's rows
    /// of the right-hand side in, its rows of the solution out. Collective.
    pub fn solve_local(
        &mut self,
        comm: &Communicator,
        partition: &BlockRowPartition,
        b: &[f64],
        x: &mut [f64],
    ) -> RsluResult<()> {
        let _trace = probe::trace::solve_guard();
        let _span = probe::span!("rslu_dist_solve");
        let b_full = comm.gatherv(0, b)?;
        // The root's outcome travels with the scatter — each rank gets its
        // slice and the residual norm, or the root's error — so a failure
        // strands nobody.
        let chunks = b_full.map(|full| {
            let solved = self.inner.solve_into(&full, &mut self.x_full);
            let norm = self.inner.stats.residual_norm2;
            (0..comm.size())
                .map(|r| {
                    let slice = solved.clone().and_then(|()| {
                        self.x_full.get(partition.range(r)).ok_or(RsluError::PatternMismatch {
                            expected: partition.global_rows(),
                            got: self.x_full.len(),
                        })
                    });
                    vec![slice.map(|x| (x.to_vec(), norm))]
                })
                .collect()
        });
        let (mine, norm) = comm.scatter(0, chunks)?.pop().expect("one outcome per rank")?;
        if mine.len() != x.len() {
            return Err(RsluError::PatternMismatch { expected: x.len(), got: mine.len() });
        }
        x.copy_from_slice(&mine);
        self.inner.stats.residual_norm2 = norm;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcomm::Universe;
    use rsparse::generate;

    #[test]
    fn one_shot_solve_with_refinement() {
        let a = generate::laplacian_2d(7);
        let x_true = generate::random_vector(49, 3);
        let b = a.matvec(&x_true).unwrap();
        let mut s = RsluSolver::new(RsluOptions::default());
        let x = s.solve_system(&a, &b).unwrap();
        for (g, e) in x.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-9);
        }
        assert_eq!(s.stats().factorizations, 1);
        assert_eq!(s.stats().solves, 1);
        assert!(s.stats().fill >= a.nnz());
        assert!(s.stats().backward_error < 1e-10);
    }

    #[test]
    fn factor_reuse_across_rhs() {
        let a = generate::random_diag_dominant(25, 3, 4);
        let mut s = RsluSolver::new(RsluOptions::default());
        s.factorize(&a).unwrap();
        for seed in 0..5 {
            let x_true = generate::random_vector(25, seed);
            let b = a.matvec(&x_true).unwrap();
            let x = s.solve(&b).unwrap();
            for (g, e) in x.iter().zip(&x_true) {
                assert!((g - e).abs() < 1e-9);
            }
        }
        assert_eq!(s.stats().factorizations, 1, "one factorization, many solves");
        assert_eq!(s.stats().solves, 5);
    }

    #[test]
    fn refactorize_reuses_symbolic_analysis() {
        let a = generate::random_diag_dominant(20, 3, 8);
        let mut s = RsluSolver::new(RsluOptions::default());
        s.factorize(&a).unwrap();

        // Same pattern, scaled values.
        let new_vals: Vec<f64> = a.values().iter().map(|v| v * 2.5).collect();
        s.refactorize(&new_vals).unwrap();
        let scaled = rsparse::ops::scale(2.5, &a);
        let x_true = generate::random_vector(20, 6);
        let b = scaled.matvec(&x_true).unwrap();
        let x = s.solve(&b).unwrap();
        for (g, e) in x.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-9);
        }
        assert_eq!(s.stats().factorizations, 2);
        // Wrong-length values are rejected.
        assert!(matches!(s.refactorize(&new_vals[1..]), Err(RsluError::PatternMismatch { .. })));
    }

    #[test]
    fn solve_before_factorize_is_an_error() {
        let mut s = RsluSolver::default();
        assert!(s.solve(&[1.0]).is_err());
        assert!(s.refactorize(&[1.0]).is_err());
        assert!(s.solve_multi(&[1.0], 1).is_err());
    }

    #[test]
    fn a_failed_numeric_phase_leaves_no_factors_to_solve_with() {
        let a = generate::laplacian_1d(6);
        let b = a.matvec(&[1.0; 6]).unwrap();
        let zeros = vec![0.0; a.nnz()];
        let mut singular = a.clone();
        singular.values_mut().fill(0.0);
        let no_factors = |s: &mut RsluSolver| {
            for err in [s.solve(&b).unwrap_err(), s.solve_multi(&b, 1).unwrap_err()] {
                assert!(
                    matches!(&err, RsluError::BadOption(m) if m == "solve requires a prior factorize"),
                    "{err}"
                );
            }
        };
        for equilibrate in [false, true] {
            let options = RsluOptions { equilibrate, ..Default::default() };
            // New values on the same pattern, through either entry point.
            for through_factorize in [false, true] {
                let mut s = RsluSolver::new(options.clone());
                s.factorize(&a).unwrap();
                let failed =
                    if through_factorize { s.factorize(&singular) } else { s.refactorize(&zeros) };
                assert!(matches!(failed, Err(RsluError::Singular { .. })));
                no_factors(&mut s);
                // A correct refactorize recovers.
                s.refactorize(a.values()).unwrap();
                for (g, e) in s.solve(&b).unwrap().iter().zip([1.0; 6]) {
                    assert!((g - e).abs() < 1e-12, "{g} vs {e}");
                }
                assert!(s.stats().backward_error < 1e-12);
            }
        }
    }

    #[test]
    fn multi_rhs_path() {
        let a = generate::random_diag_dominant(10, 2, 12);
        let mut s = RsluSolver::new(RsluOptions::default());
        s.factorize(&a).unwrap();
        let x1 = generate::random_vector(10, 1);
        let x2 = generate::random_vector(10, 2);
        let mut b = a.matvec(&x1).unwrap();
        b.extend(a.matvec(&x2).unwrap());
        let xs = s.solve_multi(&b, 2).unwrap();
        for (g, e) in xs[..10].iter().zip(&x1) {
            assert!((g - e).abs() < 1e-9);
        }
        for (g, e) in xs[10..].iter().zip(&x2) {
            assert!((g - e).abs() < 1e-9);
        }
    }

    #[test]
    fn equilibration_solves_badly_scaled_systems() {
        // Rows scaled across 12 orders of magnitude: without
        // equilibration partial pivoting alone still works here, but the
        // equilibrated path must produce an (at least) equally accurate
        // answer through its R/C scaling algebra.
        let base = generate::random_diag_dominant(25, 3, 40);
        let scales: Vec<f64> = (0..25).map(|i| 10f64.powi((i % 13) - 6)).collect();
        let a = rsparse::ops::diag_scale_rows(&scales, &base).unwrap();
        let x_true = generate::random_vector(25, 41);
        let b = a.matvec(&x_true).unwrap();
        let mut s = RsluSolver::new(RsluOptions { equilibrate: true, ..Default::default() });
        let x = s.solve_system(&a, &b).unwrap();
        for (g, e) in x.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-8, "{g} vs {e}");
        }
        // Refactorize path keeps the scales fresh.
        let new_vals: Vec<f64> = a.values().iter().map(|v| v * 0.5).collect();
        s.refactorize(&new_vals).unwrap();
        let half = rsparse::ops::scale(0.5, &a);
        let b2 = half.matvec(&x_true).unwrap();
        let x2 = s.solve(&b2).unwrap();
        for (g, e) in x2.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-8);
        }
    }

    #[test]
    fn equilibration_rejects_zero_rows() {
        // Row 1 empty ⇒ no scale exists.
        let mut coo = rsparse::CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(2, 2, 1.0).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        let a = coo.to_csr();
        let mut s = RsluSolver::new(RsluOptions { equilibrate: true, ..Default::default() });
        assert!(matches!(s.factorize(&a), Err(RsluError::Singular { .. })));
    }

    #[test]
    fn distributed_solve_matches_serial() {
        let (a, _) = rmesh::paper_problem(8).assemble_global();
        let n = a.rows();
        let x_true = generate::random_vector(n, 9);
        let b = a.matvec(&x_true).unwrap();
        for p in [1usize, 2, 4] {
            let out = Universe::run(p, |comm| {
                let part = BlockRowPartition::even(n, comm.size());
                let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
                let db = DistVector::from_global(part.clone(), comm.rank(), &b).unwrap();
                let mut solver = DistRslu::new(RsluOptions::default());
                solver.factorize(comm, &da).unwrap();
                let dx = solver.solve(comm, &part, &db).unwrap();
                dx.allgather_full(comm).unwrap()
            });
            for got in out {
                for (g, e) in got.iter().zip(&x_true) {
                    assert!((g - e).abs() < 1e-8, "p = {p}");
                }
            }
        }
    }

    #[test]
    fn factor_and_solve_post_probe_counters() {
        let a = generate::random_diag_dominant(30, 3, 11);
        let x_true = generate::random_vector(30, 12);
        let b = a.matvec(&x_true).unwrap();

        let factors0 = probe::get(probe::Counter::FactorCalls);
        let trisolves0 = probe::get(probe::Counter::TriangularSolves);

        let mut s = RsluSolver::new(RsluOptions::default());
        s.factorize(&a).unwrap();
        let x = s.solve(&b).unwrap();
        for (g, e) in x.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-9);
        }
        assert!(s.stats().backward_error < 1e-10);

        // Counters are always on: one factorization, and with refinement
        // each solve() runs two triangular solves.
        assert_eq!(probe::get(probe::Counter::FactorCalls) - factors0, 1);
        assert_eq!(probe::get(probe::Counter::TriangularSolves) - trisolves0, 2);
    }

    #[test]
    fn distributed_solve_reports_the_residual_on_every_rank() {
        let a = generate::random_diag_dominant(24, 3, 21);
        let n = a.rows();
        let x_true = generate::random_vector(n, 22);
        let b = a.matvec(&x_true).unwrap();
        let out = Universe::run(3, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
            let db = DistVector::from_global(part.clone(), comm.rank(), &b).unwrap();
            let mut solver = DistRslu::new(RsluOptions::default());
            solver.factorize(comm, &da).unwrap();
            let dx = solver.solve(comm, &part, &db).unwrap();
            (dx.allgather_full(comm).unwrap(), solver.root_solver().stats().residual_norm2)
        });
        let root_residual = out[0].1;
        assert!(root_residual < 1e-10);
        for (rank, (full, residual)) in out.into_iter().enumerate() {
            for (g, e) in full.iter().zip(&x_true) {
                assert!((g - e).abs() < 1e-8, "rank {rank}");
            }
            // The root's refinement residual travels with each slice.
            assert_eq!(residual.to_bits(), root_residual.to_bits(), "rank {rank}");
        }
    }

    #[test]
    fn distributed_failures_reach_all_ranks_with_the_same_typed_error() {
        // Globally singular matrix: only column 0 is populated.
        let mut coo = rsparse::CooMatrix::new(6, 6);
        for i in 0..6 {
            coo.push(i, 0, 1.0).unwrap();
        }
        let a = coo.to_csr();
        for p in [2usize, 3] {
            let started = std::time::Instant::now();
            let out = Universe::run(p, |comm| {
                let part = BlockRowPartition::even(6, comm.size());
                let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
                let db = DistVector::from_global(part.clone(), comm.rank(), &[1.0; 6]).unwrap();
                let mut solver = DistRslu::new(RsluOptions::default());
                // The root fails before it has anything to scatter.
                let early = solver.solve(comm, &part, &db).unwrap_err();
                let singular = solver.factorize(comm, &da).unwrap_err();
                (early, singular)
            });
            // A stranded rank would sit out the 30 s deadlock timeout.
            assert!(started.elapsed().as_secs() < 10, "p = {p}: a rank waited for the timeout");
            let (early, singular) = &out[0];
            assert!(matches!(early, RsluError::BadOption(_)), "p = {p}: {early}");
            assert!(matches!(singular, RsluError::Singular { .. }), "p = {p}: {singular}");
            for (rank, errors) in out.iter().enumerate() {
                assert_eq!(errors, &out[0], "p = {p}: rank {rank} disagrees with the root");
            }
        }
    }
}
