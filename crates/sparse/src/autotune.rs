//! Format autotuning: pick the storage format (CSR, SELL-C-σ, or
//! block-CSR) an operator should run its SpMV in.
//!
//! The policy is process-global like the thread count: it is read once
//! from the `RSPARSE_FORMAT` environment variable (`csr` — the default
//! and the historical behavior —, `sell`, `bcsr`, or `auto`) and can be
//! overridden programmatically with [`set_policy`], which is what the
//! LISI adapters' reserved `port.set("format", ...)` option key calls.
//!
//! Under `auto` the choice is made per matrix at plan-build time
//! (`setupMatrix`): a cheap O(nnz) scan computes row-length statistics,
//! the best dense-block fill and the share of rows a CSR plan would store
//! as stencil runs ([`analyze`]), and a rule model ([`choose`]) maps them
//! to a format. Setting `RSPARSE_AUTOTUNE=measure`
//! replaces the model with direct micro-measurement of candidate
//! matvecs ([`choose_measured`]) — slower to plan, immune to model
//! error. Either way the decision and the converted matrix are cached
//! in the operator plan, so steady-state solves pay zero conversion
//! cost; and because every format's kernel accumulates each row in CSR
//! entry order, **the choice never changes a single result bit**.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::bcsr::BcsrMatrix;
use crate::compact;
use crate::csr::CsrMatrix;
use crate::sell::SellMatrix;
use crate::threads::SharedMutSlice;

/// A concrete storage format for SpMV kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// Compressed sparse row — the baseline every kernel is bit-compared
    /// against.
    Csr,
    /// SELL-C-σ (sliced ELLPACK, length-sorted lanes).
    Sell,
    /// Block-CSR (dense tiles over a CSR skeleton).
    Bcsr,
}

impl Format {
    /// Canonical lowercase name (`csr`, `sell`, `bcsr`).
    pub fn name(self) -> &'static str {
        match self {
            Format::Csr => "csr",
            Format::Sell => "sell",
            Format::Bcsr => "bcsr",
        }
    }
}

/// How operators pick their format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatPolicy {
    /// Always use the given format.
    Fixed(Format),
    /// Decide per matrix from its pattern (or by measurement under
    /// `RSPARSE_AUTOTUNE=measure`).
    Auto,
}

impl FormatPolicy {
    /// Parse a policy from an env-var or `set("format", ...)` value.
    /// Case-insensitive; returns `None` for unrecognized spellings.
    pub fn parse(s: &str) -> Option<FormatPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "csr" => Some(FormatPolicy::Fixed(Format::Csr)),
            "sell" | "sell-c-sigma" | "sellcs" => Some(FormatPolicy::Fixed(Format::Sell)),
            "bcsr" | "block" | "block-csr" => Some(FormatPolicy::Fixed(Format::Bcsr)),
            "auto" => Some(FormatPolicy::Auto),
            _ => None,
        }
    }

    /// Canonical lowercase name (`csr`, `sell`, `bcsr`, `auto`).
    pub fn name(self) -> &'static str {
        match self {
            FormatPolicy::Fixed(f) => f.name(),
            FormatPolicy::Auto => "auto",
        }
    }
}

/// Sentinel meaning "not yet initialized from the environment".
const POLICY_UNSET: u8 = u8::MAX;

static POLICY: AtomicU8 = AtomicU8::new(POLICY_UNSET);

fn policy_to_u8(p: FormatPolicy) -> u8 {
    match p {
        FormatPolicy::Fixed(Format::Csr) => 0,
        FormatPolicy::Fixed(Format::Sell) => 1,
        FormatPolicy::Fixed(Format::Bcsr) => 2,
        FormatPolicy::Auto => 3,
    }
}

fn policy_from_u8(v: u8) -> FormatPolicy {
    match v {
        1 => FormatPolicy::Fixed(Format::Sell),
        2 => FormatPolicy::Fixed(Format::Bcsr),
        3 => FormatPolicy::Auto,
        _ => FormatPolicy::Fixed(Format::Csr),
    }
}

/// Read the `RSPARSE_FORMAT` environment variable (unrecognized or unset
/// values mean CSR, the historical behavior).
pub fn policy_from_env() -> FormatPolicy {
    std::env::var("RSPARSE_FORMAT")
        .ok()
        .and_then(|v| FormatPolicy::parse(&v))
        .unwrap_or(FormatPolicy::Fixed(Format::Csr))
}

/// The active format policy, lazily initialized from `RSPARSE_FORMAT` on
/// first use.
#[inline]
pub fn active_policy() -> FormatPolicy {
    let raw = POLICY.load(Ordering::Relaxed);
    if raw == POLICY_UNSET {
        let p = policy_from_env();
        // A benign race: concurrent initializers compute the same value.
        POLICY.store(policy_to_u8(p), Ordering::Relaxed);
        p
    } else {
        policy_from_u8(raw)
    }
}

/// Set the format policy (overrides the environment). This is what
/// `port.set("format", ...)` installs.
pub fn set_policy(p: FormatPolicy) {
    POLICY.store(policy_to_u8(p), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Pattern analysis and the selection model
// ---------------------------------------------------------------------------

/// Matrices smaller than this stay CSR under `auto`: conversion and
/// padding overheads cannot amortize.
pub const AUTOTUNE_MIN_ROWS: usize = 128;

/// Minimum dense-block fill for BCSR to win: below this the fill
/// arithmetic outweighs the index-load savings.
pub const BCSR_MIN_FILL: f64 = 0.66;

/// Maximum row-length coefficient of variation for SELL to win: above
/// this the slice padding outweighs the regular inner loop.
pub const SELL_MAX_CV: f64 = 0.4;

/// Minimum share of rows in stencil runs for `auto` to stay on CSR: the
/// distributed CSR plan stores those rows without column indices (see
/// [`crate::dist`]), which no converted format matches.
pub const STENCIL_MIN_COVER: f64 = 0.5;

/// Square block sizes the detection scan tries, largest (best payoff)
/// first.
pub const BLOCK_CANDIDATES: [usize; 3] = [4, 3, 2];

/// Cheap O(nnz) pattern statistics driving the selection model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixStats {
    /// Row count.
    pub rows: usize,
    /// Stored entries.
    pub nnz: usize,
    /// Mean stored entries per row.
    pub mean_row_len: f64,
    /// Coefficient of variation (std-dev / mean) of the row lengths;
    /// 0.0 for perfectly uniform rows.
    pub row_len_cv: f64,
    /// Best candidate square block size (from [`BLOCK_CANDIDATES`]).
    pub block_size: usize,
    /// Dense-block fill at `block_size`: nnz / (blocks · b²).
    pub block_fill: f64,
    /// Share of rows in stencil runs: sequences of consecutive rows, each
    /// the row above shifted one column to the right, long enough for the
    /// distributed CSR plan to store them without column indices.
    pub stencil_cover: f64,
}

/// Fill of the dense `b×b` block cover of `a`'s pattern — one stamped
/// O(nnz) pass, no allocation beyond a block-column stamp array.
fn block_fill(a: &CsrMatrix, b: usize) -> f64 {
    let rows = a.rows();
    if a.nnz() == 0 || rows == 0 {
        return 0.0;
    }
    let nb = a.cols().div_ceil(b);
    let mut stamp = vec![usize::MAX; nb];
    let mut blocks = 0usize;
    let row_ptr = a.row_ptr();
    let cols = a.col_idx();
    for bi in 0..rows.div_ceil(b) {
        for r in bi * b..((bi + 1) * b).min(rows) {
            for &c in &cols[row_ptr[r]..row_ptr[r + 1]] {
                let bcol = c / b;
                if stamp[bcol] != bi {
                    stamp[bcol] = bi;
                    blocks += 1;
                }
            }
        }
    }
    a.nnz() as f64 / (blocks * b * b) as f64
}

/// Compute [`MatrixStats`] for `a` (row-length moments plus the best
/// candidate block size by fill).
pub fn analyze(a: &CsrMatrix) -> MatrixStats {
    let rows = a.rows();
    let nnz = a.nnz();
    let row_ptr = a.row_ptr();
    let (mut mean, mut cv) = (0.0, 0.0);
    if rows > 0 {
        mean = nnz as f64 / rows as f64;
        let var = (0..rows)
            .map(|r| {
                let d = (row_ptr[r + 1] - row_ptr[r]) as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / rows as f64;
        cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
    }
    let (mut block_size, mut best_fill) = (1usize, 0.0f64);
    for &b in &BLOCK_CANDIDATES {
        let fill = block_fill(a, b);
        if fill > best_fill {
            best_fill = fill;
            block_size = b;
        }
    }
    MatrixStats {
        rows,
        nnz,
        mean_row_len: mean,
        row_len_cv: cv,
        block_size,
        block_fill: best_fill,
        stencil_cover: compact::stencil_cover(a),
    }
}

/// The rule model: map [`MatrixStats`] to a format.
///
/// * tiny or empty matrices → CSR (nothing to amortize);
/// * stencil runs cover ≥ [`STENCIL_MIN_COVER`] of the rows → CSR (the
///   plan's run kernel loads no column index; SELL and BCSR still do);
/// * block fill ≥ [`BCSR_MIN_FILL`] at a block size ≥ 2 → BCSR
///   (FEM-style multi-dof assembly);
/// * row-length CV ≤ [`SELL_MAX_CV`] → SELL-C-σ (near-uniform rows
///   without the shifted-row structure: negligible padding);
/// * otherwise → CSR (skewed row lengths defeat both).
pub fn choose_from_stats(stats: &MatrixStats) -> Format {
    if stats.rows < AUTOTUNE_MIN_ROWS || stats.nnz == 0 {
        return Format::Csr;
    }
    if stats.stencil_cover >= STENCIL_MIN_COVER {
        return Format::Csr;
    }
    if stats.block_size >= 2 && stats.block_fill >= BCSR_MIN_FILL {
        return Format::Bcsr;
    }
    if stats.row_len_cv <= SELL_MAX_CV {
        return Format::Sell;
    }
    Format::Csr
}

/// Analyze `a` and apply the rule model.
pub fn choose(a: &CsrMatrix) -> Format {
    choose_from_stats(&analyze(a))
}

/// Decide by measurement instead of the model: convert to each
/// candidate format and time a few serial matvecs, keeping the fastest
/// (ties break toward CSR). The CSR candidate is what a CSR plan runs on
/// these rows — stencil runs plus the compact remainder — not the plain
/// [`CsrMatrix`] kernel. Plan-time only — far costlier than [`choose`],
/// but immune to model error. Tiny matrices still short-circuit to CSR.
pub fn choose_measured(a: &CsrMatrix) -> Format {
    if a.rows() < AUTOTUNE_MIN_ROWS || a.nnz() == 0 {
        return Format::Csr;
    }
    const TRIALS: usize = 3;
    fn fastest(mut matvec: impl FnMut()) -> f64 {
        matvec(); // warm-up
        (0..TRIALS)
            .map(|_| {
                let t0 = std::time::Instant::now();
                matvec();
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }
    // The split kernels take `x` and `y` over one index space; make it
    // wide enough for every row and every column.
    let n = a.rows().max(a.cols());
    let x = vec![1.0f64; n];
    let mut y = vec![0.0f64; n];
    let (runs, rest, _) = compact::split_interior(a, &(0..a.cols()), n, true);
    let mut best = (
        Format::Csr,
        fastest(|| {
            runs.spmv(&x, &mut y, 1);
            rest.spmv(&x, &[], &mut y, 1);
        }),
    );
    for format in [Format::Sell, Format::Bcsr] {
        let m = FormatMatrix::build(a, format);
        let time = fastest(|| m.matvec_into(&x[..a.cols()], &mut y[..a.rows()]));
        if time < best.1 {
            best = (format, time);
        }
    }
    best.0
}

/// Whether `RSPARSE_AUTOTUNE=measure` asked for measurement instead of
/// the model (read per call — plan building is rare).
pub fn measure_mode() -> bool {
    std::env::var("RSPARSE_AUTOTUNE")
        .map(|v| v.trim().eq_ignore_ascii_case("measure"))
        .unwrap_or(false)
}

/// Resolve the active policy for one matrix: fixed policies pass
/// through; `auto` runs the model (or measurement), and the autotune
/// time lands on [`probe::Counter::FormatAutotuneNs`].
pub fn plan(a: &CsrMatrix, policy: FormatPolicy) -> Format {
    match policy {
        FormatPolicy::Fixed(f) => f,
        FormatPolicy::Auto => {
            let t0 = std::time::Instant::now();
            let f = if measure_mode() { choose_measured(a) } else { choose(a) };
            probe::add(probe::Counter::FormatAutotuneNs, t0.elapsed().as_nanos() as u64);
            f
        }
    }
}

/// Bump the chosen-format counter and annotate the rank report
/// (`probe::note("format", ...)`). Call once per operator plan.
pub fn record_choice(format: Format) {
    probe::incr(match format {
        Format::Csr => probe::Counter::FormatChosenCsr,
        Format::Sell => probe::Counter::FormatChosenSell,
        Format::Bcsr => probe::Counter::FormatChosenBcsr,
    });
    probe::note("format", format.name());
}

// ---------------------------------------------------------------------------
// Format-dispatched matrix
// ---------------------------------------------------------------------------

/// A matrix stored in whichever format the plan chose, with uniform
/// SpMV entry points. All variants are bit-identical to the CSR kernels
/// for finite data at every thread count.
#[derive(Debug, Clone, PartialEq)]
pub enum FormatMatrix {
    /// CSR (kept as-is, no conversion).
    Csr(CsrMatrix),
    /// SELL-C-σ.
    Sell(SellMatrix),
    /// Block-CSR.
    Bcsr(BcsrMatrix),
}

impl FormatMatrix {
    /// Convert `a` into `format` storage (CSR clones), charging the
    /// conversion time to [`probe::Counter::FormatConversionNs`]. BCSR
    /// uses the detected best square block size.
    pub fn build(a: &CsrMatrix, format: Format) -> FormatMatrix {
        let t0 = std::time::Instant::now();
        let built = match format {
            Format::Csr => FormatMatrix::Csr(a.clone()),
            Format::Sell => FormatMatrix::Sell(SellMatrix::from_csr(a)),
            Format::Bcsr => {
                let b = analyze(a).block_size.max(2);
                FormatMatrix::Bcsr(BcsrMatrix::from_csr_with(a, b, b))
            }
        };
        probe::add(probe::Counter::FormatConversionNs, t0.elapsed().as_nanos() as u64);
        built
    }

    /// Which format this matrix is stored in.
    pub fn format(&self) -> Format {
        match self {
            FormatMatrix::Csr(_) => Format::Csr,
            FormatMatrix::Sell(_) => Format::Sell,
            FormatMatrix::Bcsr(_) => Format::Bcsr,
        }
    }

    /// Matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        match self {
            FormatMatrix::Csr(m) => m.shape(),
            FormatMatrix::Sell(m) => m.shape(),
            FormatMatrix::Bcsr(m) => m.shape(),
        }
    }

    /// Stored entries (excluding any padding/fill).
    pub fn nnz(&self) -> usize {
        match self {
            FormatMatrix::Csr(m) => m.nnz(),
            FormatMatrix::Sell(m) => m.nnz(),
            FormatMatrix::Bcsr(m) => m.nnz(),
        }
    }

    /// y = A·x into a caller-provided buffer (serial, no allocation).
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        match self {
            FormatMatrix::Csr(m) => m.matvec_into(x, y),
            FormatMatrix::Sell(m) => m.matvec_into(x, y),
            FormatMatrix::Bcsr(m) => m.matvec_into(x, y),
        }
    }

    /// y = A·x with an explicit thread count (allocation-free,
    /// bit-identical to serial at any count).
    pub fn matvec_threaded_into(&self, x: &[f64], y: &mut [f64], threads: usize) {
        match self {
            FormatMatrix::Csr(m) => {
                // CSR's own par path reads the global thread count; chunk
                // explicitly to honor the caller's.
                let ys = SharedMutSlice::new(y);
                crate::threads::for_each_chunk(m.rows(), threads, |s, e| {
                    // SAFETY: disjoint chunks, reborrowed exclusively.
                    let chunk = unsafe {
                        std::slice::from_raw_parts_mut(ys.as_ptr().add(s), e - s)
                    };
                    m.spmv_chunk(s, x, chunk);
                });
            }
            FormatMatrix::Sell(m) => m.matvec_threaded_into(x, y, threads),
            FormatMatrix::Bcsr(m) => m.matvec_threaded_into(x, y, threads),
        }
    }

    /// y = A·x over the rank-local thread pool (allocation-free).
    pub fn matvec_par_into(&self, x: &[f64], y: &mut [f64]) {
        match self {
            FormatMatrix::Csr(m) => m.matvec_par_into(x, y),
            FormatMatrix::Sell(m) => m.matvec_par_into(x, y),
            FormatMatrix::Bcsr(m) => m.matvec_par_into(x, y),
        }
    }

    /// Re-read values from the (same-pattern) CSR matrix this was built
    /// from. CSR storage re-copies; SELL/BCSR replay their source maps.
    pub fn refresh_values(&mut self, a: &CsrMatrix) -> crate::error::SparseResult<()> {
        self.refresh_from(a.values())
    }

    /// [`Self::refresh_values`] from the bare value array of that matrix
    /// (what the distributed split pieces keep).
    pub(crate) fn refresh_from(&mut self, values: &[f64]) -> crate::error::SparseResult<()> {
        match self {
            FormatMatrix::Csr(m) => {
                if values.len() != m.nnz() {
                    return Err(crate::error::SparseError::LengthMismatch {
                        what: "format refresh values",
                        expected: m.nnz(),
                        got: values.len(),
                    });
                }
                m.values_mut().copy_from_slice(values);
                Ok(())
            }
            FormatMatrix::Sell(m) => m.refresh_from(values),
            FormatMatrix::Bcsr(m) => m.refresh_from(values),
        }
    }

    /// Scatter SpMV for the distributed split kernels: row `r` writes
    /// `y[rows_map[r]]` (`rows_map` injective); threaded when warranted.
    /// Converted formats only — a CSR plan runs its compact split pieces
    /// (`compact.rs`) and never builds a `FormatMatrix`.
    pub(crate) fn spmv_scatter(
        &self,
        rows_map: &[usize],
        x: &[f64],
        y: &SharedMutSlice<'_>,
        threads: usize,
    ) {
        match self {
            FormatMatrix::Csr(_) => unreachable!("a CSR plan has no converted kernel"),
            FormatMatrix::Sell(m) => m.spmv_scatter(rows_map, x, y, threads),
            FormatMatrix::Bcsr(m) => m.spmv_scatter(rows_map, x, y, threads),
        }
    }

    /// Multi-vector scatter SpMV: row `r` against `k` input columns
    /// (column `q` at `xs[q·x_stride..]`), each result written to
    /// `y[q·y_stride + rows_map[r]]`. One matrix sweep per
    /// [`crate::csr::MULTI_CHUNK`]-column group in every format;
    /// per-column results are bit-identical to [`Self::spmv_scatter`] at
    /// any thread count (threads get disjoint row/slice/block-row
    /// chunks, exactly as in the single-vector scatter).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spmv_scatter_multi(
        &self,
        rows_map: &[usize],
        xs: &[f64],
        x_stride: usize,
        y: &SharedMutSlice<'_>,
        y_stride: usize,
        k: usize,
        threads: usize,
    ) {
        match self {
            FormatMatrix::Csr(_) => unreachable!("a CSR plan has no converted kernel"),
            FormatMatrix::Sell(m) => {
                let kernel = |s0: usize, s1: usize| {
                    m.spmv_slices_multi(s0, s1, xs, x_stride, y, y_stride, k, Some(rows_map));
                };
                if threads > 1 && m.rows() >= 2048 {
                    crate::threads::for_each_chunk(m.n_slices(), threads, kernel);
                } else {
                    kernel(0, m.n_slices());
                }
            }
            FormatMatrix::Bcsr(m) => {
                let mb = m.rows().div_ceil(m.block_shape().0);
                let kernel = |b0: usize, b1: usize| {
                    m.spmv_block_rows_multi(b0, b1, xs, x_stride, y, y_stride, k, Some(rows_map));
                };
                if threads > 1 && m.rows() >= 2048 {
                    crate::threads::for_each_chunk(mb, threads, kernel);
                } else {
                    kernel(0, mb);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn policy_parses_all_spellings() {
        assert_eq!(FormatPolicy::parse("csr"), Some(FormatPolicy::Fixed(Format::Csr)));
        assert_eq!(FormatPolicy::parse(""), Some(FormatPolicy::Fixed(Format::Csr)));
        assert_eq!(FormatPolicy::parse("SELL"), Some(FormatPolicy::Fixed(Format::Sell)));
        assert_eq!(FormatPolicy::parse("sell-c-sigma"), Some(FormatPolicy::Fixed(Format::Sell)));
        assert_eq!(FormatPolicy::parse("bcsr"), Some(FormatPolicy::Fixed(Format::Bcsr)));
        assert_eq!(FormatPolicy::parse("block"), Some(FormatPolicy::Fixed(Format::Bcsr)));
        assert_eq!(FormatPolicy::parse(" auto "), Some(FormatPolicy::Auto));
        assert_eq!(FormatPolicy::parse("bogus"), None);
        for p in [
            FormatPolicy::Fixed(Format::Csr),
            FormatPolicy::Fixed(Format::Sell),
            FormatPolicy::Fixed(Format::Bcsr),
            FormatPolicy::Auto,
        ] {
            assert_eq!(FormatPolicy::parse(p.name()), Some(p));
        }
    }

    #[test]
    fn model_picks_the_expected_family() {
        // Dense band: one stencil run from the first full row to the
        // last → stays CSR, where the plan stores it without indices.
        let band = analyze(&generate::banded(600, 4, 1));
        assert!(band.stencil_cover > 0.9, "cover {}", band.stencil_cover);
        assert_eq!(choose_from_stats(&band), Format::Csr);
        // 5-point stencil: a run per grid line (38 of every 40 rows) → CSR.
        let stencil = analyze(&generate::laplacian_2d(40));
        assert_eq!(stencil.stencil_cover, 38.0 / 40.0);
        assert_eq!(choose_from_stats(&stencil), Format::Csr);
        // Near-uniform rows, scattered entries, nothing shifted → SELL.
        let scattered = analyze(&generate::random_diag_dominant(600, 5, 19));
        assert_eq!(scattered.stencil_cover, 0.0);
        assert_eq!(choose_from_stats(&scattered), Format::Sell);
        // FEM blocks: full 3×3 tiles → BCSR.
        let fem = generate::fem_block(12, 3, 2);
        let stats = analyze(&fem);
        assert_eq!(stats.block_size, 3);
        assert!(stats.block_fill > 0.9, "fill {}", stats.block_fill);
        assert_eq!(stats.stencil_cover, 0.0);
        assert_eq!(choose(&fem), Format::Bcsr);
        // Skewed row lengths → CSR.
        assert_eq!(choose(&generate::skewed_csr(600, 600, 3, 80, 3)), Format::Csr);
        // Tiny matrices never convert.
        assert_eq!(choose(&generate::banded(32, 2, 4)), Format::Csr);
    }

    #[test]
    fn measured_choice_is_a_valid_format_and_small_stays_csr() {
        let a = generate::banded(300, 3, 9);
        let f = choose_measured(&a);
        assert!(matches!(f, Format::Csr | Format::Sell | Format::Bcsr));
        assert_eq!(choose_measured(&generate::banded(16, 1, 2)), Format::Csr);
    }

    #[test]
    fn format_matrix_round_trips_and_refreshes() {
        let mut a = generate::laplacian_2d(20);
        let x = generate::random_vector(a.cols(), 5);
        let mut y_csr = vec![0.0; a.rows()];
        a.matvec_into(&x, &mut y_csr);
        for format in [Format::Csr, Format::Sell, Format::Bcsr] {
            let mut m = FormatMatrix::build(&a, format);
            assert_eq!(m.format(), format);
            assert_eq!(m.shape(), a.shape());
            assert_eq!(m.nnz(), a.nnz());
            let mut y = vec![0.0; a.rows()];
            m.matvec_into(&x, &mut y);
            for (p, q) in y.iter().zip(&y_csr) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
            for v in a.values_mut() {
                *v *= 2.0;
            }
            m.refresh_values(&a).unwrap();
            m.matvec_into(&x, &mut y);
            for (p, q) in y.iter().zip(&y_csr) {
                assert_eq!(p.to_bits(), (q * 2.0).to_bits());
            }
            for v in a.values_mut() {
                *v /= 2.0;
            }
        }
    }

    #[test]
    fn stats_are_sane_on_degenerate_matrices() {
        let empty = CsrMatrix::from_parts(3, 3, vec![0, 0, 0, 0], vec![], vec![]).unwrap();
        let stats = analyze(&empty);
        assert_eq!(stats.nnz, 0);
        assert_eq!(choose_from_stats(&stats), Format::Csr);
        let zero = CsrMatrix::from_parts(0, 0, vec![0], vec![], vec![]).unwrap();
        assert_eq!(choose(&zero), Format::Csr);
    }
}
