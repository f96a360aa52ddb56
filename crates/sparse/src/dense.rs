//! Dense kernels: BLAS-1 style vector operations and a small dense matrix
//! with an LU solve, used as the reference implementation in tests and as
//! the coarsest-grid solver in multigrid.
//!
//! The streaming kernels — the dots, the updates, the fused forms and the
//! diagonal scale — are each one `lane_kernel!` body run through the lane
//! loop `lanes::stream`, so each has an SSE2 and an AVX2 instance (and a
//! portable one off x86-64) with the same bits, the widest the CPU runs
//! chosen per call.

use crate::error::{SparseError, SparseResult};
use crate::lanes::{lane_kernel, stream, Isa};

/// Fixed reduction-block length of the one reducer under [`pdot`] and
/// the fused forms. Partial sums are formed per block and folded in block
/// order, so a result depends only on this constant. Vectors at or under
/// one block reduce as a single block, bit-identical to [`dot`].
pub const DOT_BLOCK: usize = 65_536;

/// The blocked reducer under [`pdot`] and the fused forms: `K` simultaneous
/// sums over `0..n`, where `block(lo, hi)` returns the `K` sums over one
/// block `lo..hi` — a one-block lane kernel on the block's subslices.
///
/// `0..n` is cut into [`DOT_BLOCK`]-element blocks and the block partials
/// are folded in block order from `-0.0`, so the `k`-th sum depends only on
/// the `k`-th sum of each block: a fused kernel returns exactly what the
/// separate passes over the same products would. A single block is
/// returned as is.
///
/// `block` is called exactly once per block, in block order, so it may
/// also *write* its block of an output vector: that is how the
/// update-then-reduce forms make one pass of two. No heap.
#[inline(always)]
fn reduce<const K: usize>(n: usize, mut block: impl FnMut(usize, usize) -> [f64; K]) -> [f64; K] {
    if n <= DOT_BLOCK {
        return block(0, n);
    }
    // `-0.0` is the identity `Iterator::sum` starts from.
    let mut total = [-0.0f64; K];
    for lo in (0..n).step_by(DOT_BLOCK) {
        for (t, p) in total.iter_mut().zip(block(lo, (lo + DOT_BLOCK).min(n))) {
            *t += p;
        }
    }
    total
}

lane_kernel! {
    /// [`dot`] on instance `isa`: ⟨x, y⟩ as one block.
    fn dot_on<L>(l; x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len());
        // SAFETY: both inputs hold `x.len()` elements; nothing is written.
        let [s] = unsafe {
            stream(l, x.len(), [x.as_ptr(), y.as_ptr()], [], |[x, y]| ([], [x * y]))
        };
        s
    }
}

lane_kernel! {
    /// `(⟨x, y⟩, ⟨x, z⟩)` as one block: a block of [`pdot2`].
    fn dot2_on<L>(l; x: &[f64], y: &[f64], z: &[f64]) -> [f64; 2] {
        assert_eq!(x.len(), y.len());
        assert_eq!(x.len(), z.len());
        // SAFETY: all three inputs hold `x.len()` elements; nothing is
        // written.
        unsafe {
            stream(l, x.len(), [x.as_ptr(), y.as_ptr(), z.as_ptr()], [], |[x, y, z]| {
                ([], [x * y, x * z])
            })
        }
    }
}

lane_kernel! {
    /// [`axpy_dot`] on instance `isa`: `y ← a·x + y`, then ⟨y, z⟩ as one
    /// block.
    fn axpy_dot_on<L>(l; a: f64, x: &[f64], y: &mut [f64], z: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len());
        assert_eq!(z.len(), y.len());
        let a = l.splat(a);
        let yp = y.as_mut_ptr();
        // SAFETY: every slice holds `y.len()` elements; the one output is
        // `y`, also an input, and `&mut` keeps it apart from `x` and `z`.
        let [yz] = unsafe {
            stream(l, y.len(), [x.as_ptr(), yp, z.as_ptr()], [yp], |[x, y, z]| {
                let y = y + a * x;
                ([y], [y * z])
            })
        };
        yz
    }
}

lane_kernel! {
    /// [`axpy_dot_self`] on instance `isa`; also a block of
    /// [`axpy_norm2_sq`].
    fn axpy_dot_self_on<L>(l; a: f64, x: &[f64], y: &mut [f64]) -> f64 {
        assert_eq!(x.len(), y.len());
        let a = l.splat(a);
        let yp = y.as_mut_ptr();
        // SAFETY: as in `axpy_dot_on`, without `z`.
        let [yy] = unsafe {
            stream(l, y.len(), [x.as_ptr(), yp], [yp], |[x, y]| {
                let y = y + a * x;
                ([y], [y * y])
            })
        };
        yy
    }
}

lane_kernel! {
    /// `y ← a·x + y`, then `(⟨y, y⟩, ⟨y, z⟩)` as one block: a block of
    /// [`axpy_pdot2`].
    fn axpy_dot2_on<L>(l; a: f64, x: &[f64], y: &mut [f64], z: &[f64]) -> [f64; 2] {
        assert_eq!(x.len(), y.len());
        assert_eq!(z.len(), y.len());
        let a = l.splat(a);
        let yp = y.as_mut_ptr();
        // SAFETY: as in `axpy_dot_on`.
        unsafe {
            stream(l, y.len(), [x.as_ptr(), yp, z.as_ptr()], [yp], |[x, y, z]| {
                let y = y + a * x;
                ([y], [y * y, y * z])
            })
        }
    }
}

lane_kernel! {
    /// [`axpy`] on instance `isa`.
    fn axpy_on<L>(l; a: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len());
        let a = l.splat(a);
        let yp = y.as_mut_ptr();
        // SAFETY: as in `axpy_dot_self_on`.
        unsafe { stream(l, y.len(), [x.as_ptr(), yp], [yp], |[x, y]| ([y + a * x], [])) };
    }
}

lane_kernel! {
    /// [`axpy2`] on instance `isa`.
    fn axpy2_on<L>(l; a: f64, x: &[f64], b: f64, z: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len());
        assert_eq!(z.len(), y.len());
        let (a, b) = (l.splat(a), l.splat(b));
        let yp = y.as_mut_ptr();
        // SAFETY: as in `axpy_dot_on`.
        unsafe {
            stream(l, y.len(), [x.as_ptr(), yp, z.as_ptr()], [yp], |[x, y, z]| {
                ([(y + a * x) + b * z], [])
            })
        };
    }
}

lane_kernel! {
    /// [`xpby`] on instance `isa`.
    fn xpby_on<L>(l; x: &[f64], b: f64, y: &mut [f64]) {
        assert_eq!(x.len(), y.len());
        let b = l.splat(b);
        let yp = y.as_mut_ptr();
        // SAFETY: as in `axpy_dot_self_on`.
        unsafe { stream(l, y.len(), [x.as_ptr(), yp], [yp], |[x, y]| ([x + b * y], [])) };
    }
}

lane_kernel! {
    /// [`xpby_sub`] on instance `isa`.
    fn xpby_sub_on<L>(l; x: &[f64], b: f64, c: f64, z: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len());
        assert_eq!(z.len(), y.len());
        let (b, c) = (l.splat(b), l.splat(c));
        let yp = y.as_mut_ptr();
        // SAFETY: as in `axpy_dot_on`.
        unsafe {
            stream(l, y.len(), [x.as_ptr(), yp, z.as_ptr()], [yp], |[x, y, z]| {
                ([x + b * (y - c * z)], [])
            })
        };
    }
}

/// Dot product ⟨x, y⟩ as one block, whatever the length.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    dot_on(Isa::detect(), x, y)
}

/// Blocked dot product ⟨x, y⟩ — the reduction kernel feeding the fused
/// solver collectives: the blocked reducer over `x[i]·y[i]`. A
/// single-block input is exactly [`dot`], for every local length
/// ≤ `DOT_BLOCK`.
pub fn pdot(x: &[f64], y: &[f64]) -> f64 {
    pdot_on(Isa::detect(), x, y)
}

fn pdot_on(isa: Isa, x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    let [s] = reduce(x.len(), move |lo, hi| [dot_on(isa, &x[lo..hi], &y[lo..hi])]);
    s
}

/// Two dots in one pass: `(⟨x, y⟩, ⟨x, z⟩)`, each bit-identical to its own
/// [`pdot`]. `y` may be `x` itself (BiCGStab's `(t·t, t·s)`, CG's
/// `(r·r, r·z)`).
pub fn pdot2(x: &[f64], y: &[f64], z: &[f64]) -> (f64, f64) {
    pdot2_on(Isa::detect(), x, y, z)
}

fn pdot2_on(isa: Isa, x: &[f64], y: &[f64], z: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), y.len());
    assert_eq!(x.len(), z.len());
    let [xy, xz] = reduce(x.len(), move |lo, hi| dot2_on(isa, &x[lo..hi], &y[lo..hi], &z[lo..hi]));
    (xy, xz)
}

/// Update-then-‖·‖²: `y ← a·x + y`, returning `⟨y, y⟩` of the updated `y`
/// — [`axpy`] then [`pdot`] in one pass, bit-identical to the pair.
pub fn axpy_norm2_sq(a: f64, x: &[f64], y: &mut [f64]) -> f64 {
    axpy_norm2_sq_on(Isa::detect(), a, x, y)
}

fn axpy_norm2_sq_on(isa: Isa, a: f64, x: &[f64], y: &mut [f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    let [yy] = reduce(y.len(), |lo, hi| [axpy_dot_self_on(isa, a, &x[lo..hi], &mut y[lo..hi])]);
    yy
}

/// Update-then-two-dots: `y ← a·x + y`, returning `(⟨y, y⟩, ⟨y, z⟩)` of the
/// updated `y` — [`axpy`] then two [`pdot`]s in one pass, bit-identical to
/// the three (BiCGStab's `r ← s − ω·t`, `‖r‖²`, `r̂·r`).
pub fn axpy_pdot2(a: f64, x: &[f64], y: &mut [f64], z: &[f64]) -> (f64, f64) {
    axpy_pdot2_on(Isa::detect(), a, x, y, z)
}

fn axpy_pdot2_on(isa: Isa, a: f64, x: &[f64], y: &mut [f64], z: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), y.len());
    assert_eq!(z.len(), y.len());
    let [yy, yz] =
        reduce(y.len(), |lo, hi| axpy_dot2_on(isa, a, &x[lo..hi], &mut y[lo..hi], &z[lo..hi]));
    (yy, yz)
}

/// Update-then-dot as **one block**: `y ← a·x + y`, returning `⟨y, z⟩` of
/// the updated `y` — [`axpy`] then [`dot`] in one pass, bit-identical to
/// the pair at every length (where [`axpy_norm2_sq`] matches [`pdot`]).
/// Serial, like [`dot`]. One step of a modified Gram–Schmidt sweep: subtract
/// the last projection while measuring the next.
pub fn axpy_dot(a: f64, x: &[f64], y: &mut [f64], z: &[f64]) -> f64 {
    axpy_dot_on(Isa::detect(), a, x, y, z)
}

/// [`axpy_dot`] against the updated vector itself: `y ← a·x + y`, returning
/// `⟨y, y⟩` as one block — [`axpy`] then `dot(y, y)`, bit for bit.
pub fn axpy_dot_self(a: f64, x: &[f64], y: &mut [f64]) -> f64 {
    axpy_dot_self_on(Isa::detect(), a, x, y)
}

/// y ← a·x + y.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    axpy_on(Isa::detect(), a, x, y)
}

/// y ← (y + a·x) + b·z — two [`axpy`]s in one pass (BiCGStab's iterate
/// update `x += α·p̂ + ω·ŝ`). The parenthesization is the sequential one, so
/// the result is bit-identical to `axpy(a, x, y); axpy(b, z, y)`.
#[inline]
pub fn axpy2(a: f64, x: &[f64], b: f64, z: &[f64], y: &mut [f64]) {
    axpy2_on(Isa::detect(), a, x, b, z, y)
}

/// y ← x + b·y (the "xpby" update GMRES and BiCG variants use).
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn xpby(x: &[f64], b: f64, y: &mut [f64]) {
    xpby_on(Isa::detect(), x, b, y)
}

/// y ← x + b·(y − c·z) — BiCGStab's direction update `p ← r + β·(p − ω·v)`
/// in one pass, parenthesized as written.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn xpby_sub(x: &[f64], b: f64, c: f64, z: &[f64], y: &mut [f64]) {
    xpby_sub_on(Isa::detect(), x, b, c, z, y)
}

/// x ← a·x.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= a;
    }
}

/// Euclidean norm ‖x‖₂.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Max norm ‖x‖∞.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, &v| m.max(v.abs()))
}

/// 1-norm ‖x‖₁.
#[inline]
pub fn norm1(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// y ← x (copy helper that asserts shapes).
#[inline]
pub fn copy(x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    y.copy_from_slice(x);
}

/// z ← D⁻¹·r for one rank's slice of a matrix diagonal D, inverted once
/// when it is built — the one diagonal scale beneath RKSP's Jacobi and
/// RAztec's Jacobi and Neumann preconditioners.
///
/// A diagonal whose entries all have the same bits is kept as one number,
/// 1/d₀, so an apply streams `r` and `z` and no third vector: the paper
/// operator and the Laplacian have constant coefficients, the same
/// property the constant stencil runs of [`crate::DistCsrMatrix`] use.
/// Any other diagonal keeps one inverse a row. Both forms compute
/// `r_i · (1/d_i)` with the same operands in the same order, so they agree
/// bit for bit, a NaN in `r` keeping its payload. (When `r_i` and `d_i`
/// are both NaN, which payload the product keeps is left to the compiler,
/// in either form.)
#[derive(Debug, Clone)]
pub struct DiagonalScale {
    len: usize,
    inv: Inverse,
}

#[derive(Debug, Clone)]
enum Inverse {
    Uniform(f64),
    PerRow(Vec<f64>),
}

impl DiagonalScale {
    /// Scale by the inverse of `diagonal`, inverted in place. A zero entry
    /// (either sign) is [`SparseError::ZeroPivot`] at its row.
    pub fn new(mut diagonal: Vec<f64>) -> SparseResult<Self> {
        if let Some(row) = diagonal.iter().position(|&d| d == 0.0) {
            return Err(SparseError::ZeroPivot { row });
        }
        let len = diagonal.len();
        let inv = match diagonal.first() {
            Some(d0) if diagonal.iter().all(|d| d.to_bits() == d0.to_bits()) => {
                Inverse::Uniform(1.0 / d0)
            }
            _ => {
                for d in &mut diagonal {
                    *d = 1.0 / *d;
                }
                Inverse::PerRow(diagonal)
            }
        };
        Ok(DiagonalScale { len, inv })
    }

    /// Whether the diagonal was one number repeated (kept as one `f64`).
    pub fn is_uniform(&self) -> bool {
        matches!(self.inv, Inverse::Uniform(_))
    }

    /// z_i ← r_i · (1/d_i).
    #[inline]
    pub fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.apply_on(Isa::detect(), r, z)
    }

    fn apply_on(&self, isa: Isa, r: &[f64], z: &mut [f64]) {
        assert!(r.len() == self.len && z.len() == self.len, "diagonal scale length mismatch");
        match &self.inv {
            Inverse::Uniform(s) => scale_into(isa, *s, r, z),
            Inverse::PerRow(inv) => mul_into(isa, inv, r, z),
        }
    }

    /// t_i ← t_i − a_i · (1/d_i).
    #[inline]
    pub fn apply_sub(&self, a: &[f64], t: &mut [f64]) {
        self.apply_sub_on(Isa::detect(), a, t)
    }

    fn apply_sub_on(&self, isa: Isa, a: &[f64], t: &mut [f64]) {
        assert!(a.len() == self.len && t.len() == self.len, "diagonal scale length mismatch");
        match &self.inv {
            Inverse::Uniform(s) => sub_scaled(isa, *s, a, t),
            Inverse::PerRow(inv) => sub_mul(isa, inv, a, t),
        }
    }
}

lane_kernel! {
    /// `z ← r·s`: a uniform [`DiagonalScale::apply`].
    fn scale_into<L>(l; s: f64, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), z.len());
        let s = l.splat(s);
        // SAFETY: both slices hold `z.len()` elements; `&mut` keeps the
        // output `z` apart from `r`.
        unsafe { stream(l, z.len(), [r.as_ptr()], [z.as_mut_ptr()], |[r]| ([r * s], [])) };
    }
}

lane_kernel! {
    /// `z ← r·d`, elementwise: a per-row [`DiagonalScale::apply`].
    fn mul_into<L>(l; d: &[f64], r: &[f64], z: &mut [f64]) {
        assert_eq!(d.len(), z.len());
        assert_eq!(r.len(), z.len());
        // SAFETY: as in `scale_into`, with `d` a second input.
        unsafe {
            stream(l, z.len(), [r.as_ptr(), d.as_ptr()], [z.as_mut_ptr()], |[r, d]| {
                ([r * d], [])
            })
        };
    }
}

lane_kernel! {
    /// `t ← t − a·s`: a uniform [`DiagonalScale::apply_sub`].
    fn sub_scaled<L>(l; s: f64, a: &[f64], t: &mut [f64]) {
        assert_eq!(a.len(), t.len());
        let s = l.splat(s);
        let tp = t.as_mut_ptr();
        // SAFETY: both slices hold `t.len()` elements; the one output is
        // `t`, also an input, and `&mut` keeps it apart from `a`.
        unsafe { stream(l, t.len(), [a.as_ptr(), tp], [tp], |[a, t]| ([t - a * s], [])) };
    }
}

lane_kernel! {
    /// `t ← t − a·d`, elementwise: a per-row [`DiagonalScale::apply_sub`].
    fn sub_mul<L>(l; d: &[f64], a: &[f64], t: &mut [f64]) {
        assert_eq!(d.len(), t.len());
        assert_eq!(a.len(), t.len());
        let tp = t.as_mut_ptr();
        // SAFETY: as in `sub_scaled`, with `d` a third input.
        unsafe {
            stream(l, t.len(), [a.as_ptr(), d.as_ptr(), tp], [tp], |[a, d, t]| {
                ([t - a * d], [])
            })
        };
    }
}

/// A row-major dense matrix. Deliberately minimal: it exists to provide
/// ground truth for sparse kernels and a coarse-grid direct solve, not to
/// compete with a real dense library.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major slice.
    pub fn from_row_major(rows: usize, cols: usize, data: &[f64]) -> SparseResult<Self> {
        if data.len() != rows * cols {
            return Err(SparseError::LengthMismatch {
                what: "dense data",
                expected: rows * cols,
                got: data.len(),
            });
        }
        Ok(DenseMatrix { rows, cols, data: data.to_vec() })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the row-major storage.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// y = A·x.
    pub fn matvec(&self, x: &[f64]) -> SparseResult<Vec<f64>> {
        if x.len() != self.cols {
            return Err(SparseError::LengthMismatch {
                what: "matvec input",
                expected: self.cols,
                got: x.len(),
            });
        }
        Ok((0..self.rows).map(|i| dot(self.row(i), x)).collect())
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        norm2(&self.data)
    }

    /// Solve A·x = b by LU with partial pivoting (in a copy). This is the
    /// reference solver every sparse solver in the workspace is tested
    /// against.
    pub fn solve(&self, b: &[f64]) -> SparseResult<Vec<f64>> {
        if self.rows != self.cols {
            return Err(SparseError::NotSquare { rows: self.rows, cols: self.cols });
        }
        let n = self.rows;
        if b.len() != n {
            return Err(SparseError::LengthMismatch { what: "rhs", expected: n, got: b.len() });
        }
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        let mut piv: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivot: largest magnitude in column k at/below row k.
            let (p, pmax) = (k..n).map(|i| (i, a[i * n + k].abs())).fold((k, -1.0), |best, cur| {
                if cur.1 > best.1 {
                    cur
                } else {
                    best
                }
            });
            if pmax == 0.0 {
                return Err(SparseError::ZeroPivot { row: k });
            }
            if p != k {
                for j in 0..n {
                    a.swap(k * n + j, p * n + j);
                }
                piv.swap(k, p);
                x.swap(k, p);
            }
            let pivot = a[k * n + k];
            for i in k + 1..n {
                let l = a[i * n + k] / pivot;
                if l != 0.0 {
                    a[i * n + k] = l;
                    for j in k + 1..n {
                        a[i * n + j] -= l * a[k * n + j];
                    }
                    x[i] -= l * x[k];
                }
            }
        }
        // Back substitution.
        for k in (0..n).rev() {
            for j in k + 1..n {
                x[k] -= a[k * n + j] * x[j];
            }
            x[k] /= a[k * n + k];
        }
        Ok(x)
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blas1_ops() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![4.0, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![6.0, 9.0, 12.0]);
        xpby(&x, 0.5, &mut y);
        assert_eq!(y, vec![4.0, 6.5, 9.0]);
        scale(2.0, &mut y);
        assert_eq!(y, vec![8.0, 13.0, 18.0]);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
        assert_eq!(norm1(&[-7.0, 2.0]), 9.0);
    }

    #[test]
    fn pdot_matches_dot_below_one_block_and_is_thread_invariant() {
        // Below one block pdot IS the serial dot, bit for bit.
        let x: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..1000).map(|i| (i as f64).cos()).collect();
        assert_eq!(pdot(&x, &y), dot(&x, &y));
        // Above one block: each block's `dot`, folded in block order from
        // `-0.0`, bit for bit — the one order a blocked sum is taken in.
        // Block 0 sums to 1 and blocks 1 and 2 to half an ulp of 1 each:
        // folded in order, both halves round away; folded from the last
        // block back, or summed as one block, they make one ulp.
        let n = 2 * DOT_BLOCK + 1234;
        let x = vec![1.0; n];
        let mut y = vec![0.0; n];
        y[..DOT_BLOCK].fill(2f64.powi(-16));
        y[DOT_BLOCK + 5] = 2f64.powi(-53);
        y[2 * DOT_BLOCK + 7] = 2f64.powi(-53);
        let folded =
            x.chunks(DOT_BLOCK).zip(y.chunks(DOT_BLOCK)).fold(-0.0, |s, (xb, yb)| s + dot(xb, yb));
        let blocked = pdot(&x, &y);
        assert_eq!(blocked.to_bits(), folded.to_bits());
        assert_ne!(blocked.to_bits(), dot(&x, &y).to_bits());
        // And the blocked result is numerically (not bitwise) the dot.
        assert!((blocked - dot(&x, &y)).abs() < 1e-9 * dot(&x, &x).abs().sqrt());
    }

    /// Every fused kernel against the sequence of plain kernels it
    /// replaces — same bits in the reductions, same bits in the updated
    /// vector — at lengths around the lane and block boundaries, on every
    /// instance this CPU runs (portable, SSE2, AVX2). The references are the
    /// plain kernels on the portable instance, so the plain kernels of
    /// every other instance are held to them too. Three inputs a length:
    /// finite values with `−0.0`s among them, all-`−0.0` `x` and `y` (every
    /// product a signed zero, so a lane started at `−0.0` would show), and
    /// the finite values with one NaN with a payload in `x`.
    #[test]
    fn fused_kernels_match_their_unfused_sequences_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let gen = |n: usize, seed: usize| -> Vec<f64> {
            (0..n)
                .map(|i| match (i * 7 + seed * 13) % 101 {
                    0 | 50 => -0.0,
                    k => k as f64 * 0.37 - 18.1,
                })
                .collect()
        };
        let nan = f64::from_bits(0x7ff8_0000_0000_0d1f);
        let lengths =
            [0, 1, 3, 4, 7, 8, 9, DOT_BLOCK - 1, DOT_BLOCK, DOT_BLOCK + 1, 2 * DOT_BLOCK + 3];
        let (a, b, c) = (0.8125, -1.37, 0.59);
        let pt = Isa::Portable;
        for n in lengths {
            for case in ["finite", "signed zeros", "NaN payload"] {
                let (mut x, mut y0, z) = (gen(n, 1), gen(n, 2), gen(n, 3));
                match case {
                    "signed zeros" => {
                        x.fill(-0.0);
                        y0.fill(-0.0);
                    }
                    "NaN payload" if n > 0 => x[n / 2] = nan,
                    _ => {}
                }
                // References: the plain kernels, portable.
                let mut y_axpy = y0.clone();
                axpy_on(pt, a, &x, &mut y_axpy);
                let yy = pdot_on(pt, &y_axpy, &y_axpy);
                let yz = pdot_on(pt, &y_axpy, &z);
                let mut y_axpy2 = y_axpy.clone();
                axpy_on(pt, b, &z, &mut y_axpy2);
                let (xy, xz, xx) = (pdot_on(pt, &x, &y0), pdot_on(pt, &x, &z), pdot_on(pt, &x, &x));
                let dot_xy = dot_on(pt, &x, &y0);
                let pair = |p: (f64, f64)| (p.0.to_bits(), p.1.to_bits());
                let want_xpby: Vec<f64> = x.iter().zip(&y0).map(|(xi, yi)| xi + b * yi).collect();
                let want_xpby_sub: Vec<f64> =
                    (0..n).map(|i| x[i] + b * (y0[i] - c * z[i])).collect();
                for isa in Isa::available() {
                    let tag = format!("n = {n}, {case}, {isa:?}");
                    let got = pdot2_on(isa, &x, &y0, &z);
                    assert_eq!(pair(got), pair((xy, xz)), "{tag}");
                    let got = pdot2_on(isa, &x, &x, &z);
                    assert_eq!(pair(got), pair((xx, xz)), "{tag}");
                    assert_eq!(pdot_on(isa, &x, &y0).to_bits(), xy.to_bits(), "{tag}");
                    assert_eq!(dot_on(isa, &x, &y0).to_bits(), dot_xy.to_bits(), "{tag}");

                    let mut y = y0.clone();
                    axpy_on(isa, a, &x, &mut y);
                    assert_eq!(bits(&y), bits(&y_axpy), "{tag}");

                    let mut y = y0.clone();
                    let got = axpy_norm2_sq_on(isa, a, &x, &mut y);
                    assert_eq!(got.to_bits(), yy.to_bits(), "{tag}");
                    assert_eq!(bits(&y), bits(&y_axpy), "{tag}");

                    let mut y = y0.clone();
                    let got = axpy_pdot2_on(isa, a, &x, &mut y, &z);
                    assert_eq!(pair(got), pair((yy, yz)), "{tag}");
                    assert_eq!(bits(&y), bits(&y_axpy), "{tag}");

                    let mut y = y0.clone();
                    axpy2_on(isa, a, &x, b, &z, &mut y);
                    assert_eq!(bits(&y), bits(&y_axpy2), "{tag}");

                    let mut y = y0.clone();
                    xpby_on(isa, &x, b, &mut y);
                    assert_eq!(bits(&y), bits(&want_xpby), "{tag}");

                    let mut y = y0.clone();
                    xpby_sub_on(isa, &x, b, c, &z, &mut y);
                    assert_eq!(bits(&y), bits(&want_xpby_sub), "{tag}");
                }
            }
        }
    }

    /// The one-block fused forms against `axpy` then `dot` — which is one
    /// block at every length, so past `DOT_BLOCK` they must *not* agree
    /// with the blocked `axpy_norm2_sq`.
    #[test]
    fn one_block_fused_forms_match_axpy_then_dot_bitwise() {
        let gen = |n: usize, seed: usize| -> Vec<f64> {
            (0..n).map(|i| ((i * 7 + seed * 13) % 101) as f64 * 0.37 - 18.1).collect()
        };
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let a = -0.8125;
        for n in [0, 1, 7, 8, 9, 1_000, DOT_BLOCK, DOT_BLOCK + 1, 70_001] {
            let (x, y0, z) = (gen(n, 1), gen(n, 2), gen(n, 3));
            for isa in Isa::available() {
                let tag = format!("n = {n}, {isa:?}");
                let mut y_ref = y0.clone();
                axpy(a, &x, &mut y_ref);
                let (yz, yy) = (dot(&y_ref, &z), dot(&y_ref, &y_ref));

                let mut y = y0.clone();
                assert_eq!(axpy_dot_on(isa, a, &x, &mut y, &z).to_bits(), yz.to_bits(), "{tag}");
                assert_eq!(bits(&y), bits(&y_ref), "{tag}");
                let mut y = y0.clone();
                assert_eq!(axpy_dot_self_on(isa, a, &x, &mut y).to_bits(), yy.to_bits(), "{tag}");
                assert_eq!(bits(&y), bits(&y_ref), "{tag}");
            }
        }
        // The guard has teeth: past one block, one-block and blocked sums
        // round differently on this data.
        let n = 70_001;
        let (x, mut y1, mut y2) = (gen(n, 1), gen(n, 2), gen(n, 2));
        assert_ne!(
            axpy_dot_self(a, &x, &mut y1).to_bits(),
            axpy_norm2_sq(a, &x, &mut y2).to_bits()
        );
    }

    /// A length mismatch panics in every build profile: the kernels load
    /// through raw lane pointers, so a short slice must never reach them.
    #[test]
    fn updates_reject_mismatched_lengths() {
        let panics =
            |f: &dyn Fn()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err();
        let x = vec![1.0; 9];
        assert!(panics(&|| axpy(2.0, &x, &mut [0.0; 8])));
        assert!(panics(&|| xpby(&x, 2.0, &mut [0.0; 8])));
        assert!(panics(&|| xpby_sub(&x, 2.0, 0.5, &x, &mut [0.0; 8])));
        assert!(panics(&|| axpy2(1.0, &x, 2.0, &x, &mut [0.0; 8])));
    }

    #[test]
    fn dot_handles_lengths_around_lane_boundaries() {
        for n in 0..34 {
            let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let expect: f64 = (0..n).map(|i| (i * i) as f64).sum();
            assert_eq!(dot(&x, &x), expect, "n = {n}");
        }
    }

    #[test]
    fn identity_solve_returns_rhs() {
        let a = DenseMatrix::identity(4);
        let b = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(a.solve(&b).unwrap(), b);
    }

    #[test]
    fn lu_solve_matches_known_solution() {
        // A deliberately non-symmetric matrix needing pivoting.
        let a = DenseMatrix::from_row_major(3, 3, &[0.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0, -1.0, 3.0])
            .unwrap();
        let x_true = vec![1.0, -1.0, 2.0];
        let b = a.matvec(&x_true).unwrap();
        let x = a.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn singular_matrix_reports_zero_pivot() {
        let a = DenseMatrix::from_row_major(2, 2, &[1.0, 2.0, 2.0, 4.0]).unwrap();
        assert!(matches!(a.solve(&[1.0, 1.0]), Err(SparseError::ZeroPivot { .. })));
    }

    #[test]
    fn shape_validation() {
        assert!(DenseMatrix::from_row_major(2, 2, &[1.0]).is_err());
        let a = DenseMatrix::zeros(2, 3);
        assert!(a.matvec(&[1.0, 2.0]).is_err());
        assert!(a.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn matvec_matches_manual() {
        let a = DenseMatrix::from_row_major(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![6.0, 15.0]);
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a[(1, 2)], 6.0);
    }

    #[test]
    fn diagonal_scale_keeps_one_number_for_a_uniform_diagonal() {
        let uniform = DiagonalScale::new(vec![4.0; 5]).unwrap();
        assert!(uniform.is_uniform());
        let per_row = DiagonalScale::new(vec![4.0, 4.0, 2.0]).unwrap();
        assert!(!per_row.is_uniform());
        let mut z = vec![0.0; 3];
        per_row.apply(&[8.0, -4.0, 1.0], &mut z);
        assert_eq!(z, vec![2.0, -1.0, 0.5]);
        per_row.apply_sub(&[4.0, 4.0, 4.0], &mut z);
        assert_eq!(z, vec![1.0, -2.0, -1.5]);
        let mut t = vec![1.0; 5];
        uniform.apply_sub(&[2.0; 5], &mut t);
        assert_eq!(t, vec![0.5; 5]);
        // Same bits decide, not `==`: one NaN repeated is uniform, NaNs that
        // differ in payload are not.
        assert!(DiagonalScale::new(vec![f64::NAN; 4]).unwrap().is_uniform());
        let payloads = vec![f64::NAN, f64::from_bits(f64::NAN.to_bits() | 1)];
        assert!(!DiagonalScale::new(payloads).unwrap().is_uniform());
        // Empty slices (a rank that owns no rows) are a per-row scale of none.
        DiagonalScale::new(Vec::new()).unwrap().apply(&[], &mut []);
        // Every instance, both forms, past one lane group and into the
        // tail: the per-row product and difference, bit for bit.
        let n = 19;
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let d: Vec<f64> = (0..n).map(|i| 3.0 + (i % 4) as f64).collect();
        for diag in [vec![3.0; n], d] {
            let scale = DiagonalScale::new(diag.clone()).unwrap();
            let inv: Vec<f64> = diag.iter().map(|d| 1.0 / d).collect();
            let want_z: Vec<u64> = r.iter().zip(&inv).map(|(r, i)| (r * i).to_bits()).collect();
            let want_t: Vec<u64> =
                r.iter().zip(&inv).map(|(r, i)| (0.5 - r * i).to_bits()).collect();
            for isa in Isa::available() {
                let mut z = vec![0.0; n];
                scale.apply_on(isa, &r, &mut z);
                assert_eq!(z.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want_z, "{isa:?}");
                let mut t = vec![0.5; n];
                scale.apply_sub_on(isa, &r, &mut t);
                assert_eq!(t.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want_t, "{isa:?}");
            }
        }
    }

    #[test]
    fn diagonal_scale_rejects_a_zero_of_either_sign_at_its_row() {
        for zero in [0.0, -0.0] {
            let e = DiagonalScale::new(vec![1.0, 1.0, zero, 1.0]).unwrap_err();
            assert_eq!(e, SparseError::ZeroPivot { row: 2 });
        }
        assert!(DiagonalScale::new(vec![0.0; 3]).is_err());
    }
}
