//! The factorize and solve phases: left-looking Gilbert–Peierls sparse LU
//! with threshold partial pivoting, the algorithm family SuperLU builds
//! its supernodal variant on. Produces `P·A·Q = L·U` with unit-diagonal
//! L; the factors are kept as supernodal panels ([`crate::panels`]), L by
//! columns and U by rows.
//!
//! L is grown as panels while it is factored, not packed after: a column
//! whose structure continues the last panel's run joins that panel, and
//! wherever consecutive columns of one panel follow each other in a
//! column's reach they are applied as one dense block — the rows they
//! reach gathered once, one axpy a column, scattered back — with every
//! entry receiving the subtractions a column at a time gave it.

use std::ops::Range;

use rsparse::{CscMatrix, CsrMatrix};

use crate::panels::PanelTri;
use crate::symbolic::Symbolic;
use crate::{RsluError, RsluResult};

/// A computed sparse LU factorization.
#[derive(Debug, Clone, PartialEq)]
pub struct LuFactorization {
    /// Unit-lower-triangular factor by columns, in *pivot-row* numbering.
    l: PanelTri,
    /// Upper-triangular factor by rows: the strictly lower triangle of
    /// Uᵀ, with U's diagonal.
    ut: PanelTri,
    /// Row permutation: `row_perm[pivot_position] = original_row`.
    row_perm: Vec<usize>,
    /// Column permutation used (`col_perm[new] = old`).
    col_perm: Vec<usize>,
    n: usize,
}

/// Sparse column buffers used during factorization.
struct ColumnWork {
    /// Dense accumulator.
    x: Vec<f64>,
    /// Dense copy of the rows one block of panel columns reaches.
    block: Vec<f64>,
    /// DFS stack: `(row, next child, end of children)` as positions in
    /// [`Reach::rows`].
    stack: Vec<(usize, usize, usize)>,
    /// Topologically ordered pattern of the current column.
    pattern: Vec<usize>,
    /// Its unpivoted rows, in pattern order.
    free: Vec<usize>,
    /// Visitation marks, keyed by original row.
    mark: Vec<bool>,
}

/// L's structure as the reach DFS walks it, apart from L's values (those
/// live in the panels alone): column `k`'s rows below the diagonal, in
/// original numbering, in the order they were gathered until pruning
/// moves the pivotal ones to the front. The DFS descends only
/// `rows[ptr[k]..prune[k]]`.
struct Reach {
    ptr: Vec<u32>,
    rows: Vec<u32>,
    prune: Vec<u32>,
}

/// L under construction as supernodal panels, in [`PanelTri`]'s value
/// layout, rows in original numbering until [`GrowingL::finish`].
///
/// Panel `p` keeps one row list `P`: its columns' pivot rows in column
/// order, then its *tail*, the rows below the panel in the order they
/// were gathered. Its column `k` holds one value per row of `P[k + 1..]`,
/// so the list's length is fixed when the panel opens, and a column that
/// joins only moves its pivot row to the front of the tail. Each column
/// also keeps where its rows and values start, so the elimination reaches
/// a column as it would a CSC one.
struct GrowingL {
    /// Panel `p` covers columns `first[p]..first[p + 1]`; the last entry
    /// is the number of columns so far.
    first: Vec<u32>,
    /// Panel `p`'s list is `rows[row_ptr[p]..row_ptr[p + 1]]`.
    row_ptr: Vec<usize>,
    rows: Vec<u32>,
    vals: Vec<f64>,
    /// Column `c`'s rows below its diagonal start at `rows[rptr[c]]`, its
    /// values are `vals[vptr[c]..vptr[c + 1]]`.
    rptr: Vec<u32>,
    vptr: Vec<u32>,
    /// The panel of each column.
    panel_of: Vec<u32>,
    /// Where a row sits in the last panel's list — meaningful only where
    /// that entry names the row back, so nothing is ever cleared.
    slot: Vec<u32>,
}

impl GrowingL {
    fn with_capacity(n: usize, entries: usize) -> Self {
        let mut vptr = Vec::with_capacity(n + 1);
        vptr.push(0);
        GrowingL {
            first: vec![0],
            row_ptr: vec![0],
            rows: Vec::new(),
            vals: Vec::with_capacity(entries),
            rptr: Vec::with_capacity(n),
            vptr,
            panel_of: Vec::with_capacity(n),
            slot: vec![0; n],
        }
    }

    /// Where the last panel's list starts.
    fn open(&self) -> usize {
        self.row_ptr[self.row_ptr.len() - 2]
    }

    /// Columns of the last panel.
    fn width(&self) -> usize {
        match self.first[..] {
            [.., a, b] => (b - a) as usize,
            _ => 0,
        }
    }

    /// Rows in the last panel's tail.
    fn tail_len(&self) -> usize {
        match self.width() {
            0 => 0,
            width => self.rows.len() - self.open() - width,
        }
    }

    /// Does the column whose unpivoted rows (its pivot among them) are
    /// `free` continue the last panel's run? Exactly when `free` is that
    /// panel's tail: the T2 supernode test.
    fn joins(&self, free: &[usize]) -> bool {
        free.len() == self.tail_len()
            && free.iter().all(|&r| {
                let at = self.open() + self.slot[r] as usize;
                at < self.rows.len() && self.rows[at] as usize == r
            })
    }

    /// Append the column pivoting on `pivot`, whose unpivoted rows (the
    /// pivot among them) are `free`, with the values `x[r] / pivot_val` of
    /// its rows below. A column that [`GrowingL::joins`] the last panel
    /// swaps its pivot row to the front of the tail, in the list and in
    /// every earlier column's values; any other opens a panel over `free`
    /// without the pivot, in that order.
    fn push_column(&mut self, pivot: usize, free: &[usize], x: &[f64], pivot_val: f64) {
        if self.joins(free) {
            let (open, s) = (self.open(), self.width());
            let t = self.slot[pivot] as usize;
            if t != s {
                self.rows.swap(open + s, open + t);
                self.slot[self.rows[open + t] as usize] = t as u32;
                self.slot[pivot] = s as u32;
                // Column k's value for list entry i is its (i − k − 1)-th.
                let c0 = self.first[self.first.len() - 2] as usize;
                for (k, &at) in self.vptr[c0..c0 + s].iter().enumerate() {
                    let at = at as usize;
                    self.vals.swap(at + s - k - 1, at + t - k - 1);
                }
            }
            *self.first.last_mut().expect("a panel is open") += 1;
        } else {
            let open = self.rows.len();
            self.rows.push(pivot as u32);
            self.rows.extend(free.iter().filter(|&&r| r != pivot).map(|&r| r as u32));
            for (i, &r) in self.rows[open..].iter().enumerate() {
                self.slot[r as usize] = i as u32;
            }
            self.row_ptr.push(self.rows.len());
            let columns = *self.first.last().expect("never empty");
            self.first.push(columns + 1);
        }
        let at = self.open() + self.width();
        self.rptr.push(at as u32);
        self.vals.extend(self.rows[at..].iter().map(|&r| x[r as usize] / pivot_val));
        self.vptr.push(self.vals.len() as u32);
        self.panel_of.push((self.first.len() - 2) as u32);
    }

    /// `x ← x − xj·L(:, c)` for the consecutive columns `cols` of one
    /// panel, one after the other, where `xj` is `x` at the column's pivot
    /// row — `first_xj` for the first — and a column whose multiplier is
    /// exactly 0.0 is skipped: what the column-at-a-time loop does to every
    /// entry, in the same order. One column is applied in place; two or
    /// more through `block`, a dense copy of the rows below the first.
    fn eliminate(&self, cols: Range<usize>, first_xj: f64, x: &mut [f64], block: &mut Vec<f64>) {
        // Column c + k holds the rows of column c but its first k.
        let mut vals = &self.vals[self.vptr[cols.start] as usize..self.vptr[cols.end] as usize];
        let at = self.rptr[cols.start] as usize;
        let below =
            &self.rows[at..at + (self.vptr[cols.start + 1] - self.vptr[cols.start]) as usize];
        if cols.len() == 1 {
            if first_xj != 0.0 {
                for (&r, &v) in below.iter().zip(vals) {
                    x[r as usize] -= first_xj * v;
                }
            }
            return;
        }
        if block.len() < below.len() {
            block.resize(below.len(), 0.0);
        }
        let w = &mut block[..below.len()];
        for (wt, &r) in w.iter_mut().zip(below) {
            *wt = x[r as usize];
        }
        for k in 0..cols.len() {
            let column;
            (column, vals) = vals.split_at(below.len() - k);
            // The multiplier of a later column is a row of the block.
            let xj = if k == 0 { first_xj } else { w[k - 1] };
            if xj != 0.0 {
                for (wt, &v) in w[k..].iter_mut().zip(column) {
                    *wt -= xj * v;
                }
            }
        }
        for (&wt, &r) in w.iter().zip(below) {
            x[r as usize] = wt;
        }
    }

    /// L as a [`PanelTri`] in pivot numbering: every panel's tail is
    /// renumbered through `pinv` and sorted once, each of its columns'
    /// values below the panel permuted to follow, and the lists lose
    /// their pivot rows — in place, so no array is copied.
    fn finish(self, n: usize, pinv: &[usize]) -> RsluResult<PanelTri> {
        let GrowingL { first, row_ptr, mut rows, mut vals, .. } = self;
        let mut idx_ptr = Vec::with_capacity(first.len());
        idx_ptr.push(0u32);
        let mut order: Vec<(u32, u32)> = Vec::new();
        let mut moved: Vec<f64> = Vec::new();
        let (mut to, mut at) = (0, 0);
        for (cols, list) in first.windows(2).zip(row_ptr.windows(2)) {
            let width = (cols[1] - cols[0]) as usize;
            order.clear();
            order.extend(
                rows[list[0] + width..list[1]]
                    .iter()
                    .zip(0u32..)
                    .map(|(&r, i)| (pinv[r as usize] as u32, i)),
            );
            order.sort_unstable_by_key(|&(r, _)| r);
            let m = order.len();
            for k in 0..width {
                at += width - 1 - k;
                let off = &mut vals[at..at + m];
                moved.clear();
                moved.extend(order.iter().map(|&(_, i)| off[i as usize]));
                off.copy_from_slice(&moved);
                at += m;
            }
            // Every list before this one lost at least one pivot row, so
            // the write never overtakes the read.
            for (dst, &(r, _)) in rows[to..to + m].iter_mut().zip(&order) {
                *dst = r;
            }
            to += m;
            idx_ptr.push(to as u32);
        }
        rows.truncate(to);
        rows.shrink_to_fit();
        vals.shrink_to_fit();
        Ok(PanelTri::from_parts(n, first, idx_ptr, rows, vals, Vec::new())?)
    }
}

/// U under construction: CSC columns appended one at a time. Row indices
/// are `u32` (`factor` checks the order once).
struct Columns {
    ptr: Vec<usize>,
    rows: Vec<u32>,
    vals: Vec<f64>,
}

impl Columns {
    fn with_capacity(n: usize, entries: usize) -> Self {
        let mut ptr = Vec::with_capacity(n + 1);
        ptr.push(0);
        Columns { ptr, rows: Vec::with_capacity(entries), vals: Vec::with_capacity(entries) }
    }

    fn push(&mut self, row: usize, val: f64) {
        self.rows.push(row as u32);
        self.vals.push(val);
    }

    /// U as panels of its rows: one counting-sort transpose (columns are
    /// visited in order, so every row comes out ascending) that sets the
    /// diagonal apart.
    fn into_upper_rows(self, n: usize) -> RsluResult<PanelTri> {
        let mut ptr = vec![0usize; n + 1];
        for (j, w) in self.ptr.windows(2).enumerate() {
            for &k in self.rows[w[0]..w[1]].iter().filter(|&&k| k as usize != j) {
                ptr[k as usize + 1] += 1;
            }
        }
        for k in 0..n {
            ptr[k + 1] += ptr[k];
        }
        let mut next = ptr[..n].to_vec();
        let mut cols = vec![0u32; ptr[n]];
        let mut vals = vec![0.0; ptr[n]];
        let mut diag = vec![0.0; n];
        for (j, w) in self.ptr.windows(2).enumerate() {
            for (&k, &v) in self.rows[w[0]..w[1]].iter().zip(&self.vals[w[0]..w[1]]) {
                let k = k as usize;
                if k == j {
                    diag[j] = v;
                } else {
                    cols[next[k]] = j as u32;
                    vals[next[k]] = v;
                    next[k] += 1;
                }
            }
        }
        drop(self);
        Ok(PanelTri::from_columns(n, &ptr, &cols, vals, diag)?)
    }
}

/// What one triangular solve scratches: the permuted vector and the
/// panel sweeps' dense target buffer.
#[derive(Debug, Clone, Default)]
pub(crate) struct SolveScratch {
    y: Vec<f64>,
    w: Vec<f64>,
}

impl SolveScratch {
    /// Elements held.
    pub(crate) fn len(&self) -> usize {
        self.y.len() + self.w.len()
    }
}

impl LuFactorization {
    /// Factor `a` using the symbolic context (column ordering) from
    /// `sym`. `pivot_threshold ∈ (0, 1]`: 1.0 = classical partial
    /// pivoting; smaller values prefer the diagonal entry when it is
    /// within the threshold of the column maximum (SuperLU's
    /// `diag_pivot_thresh`).
    ///
    /// The stored pattern of L and U is the *structural* one: an entry
    /// that cancels to exactly 0.0 stays as an explicit zero. The
    /// symmetric pruning of the reach (see `dfs_reach`) is only valid on
    /// that pattern.
    pub fn factor(
        a: &CsrMatrix,
        sym: &Symbolic,
        pivot_threshold: f64,
    ) -> RsluResult<LuFactorization> {
        if !(0.0..=1.0).contains(&pivot_threshold) || pivot_threshold == 0.0 {
            return Err(RsluError::BadOption(format!(
                "pivot threshold must be in (0, 1], got {pivot_threshold}"
            )));
        }
        if !sym.compatible_with(a) {
            return Err(RsluError::PatternMismatch { expected: sym.nnz, got: a.nnz() });
        }
        let n = sym.n;
        if u32::try_from(n).is_err() {
            return Err(RsluError::Sparse(format!("order {n} is beyond the factors' u32 indices")));
        }
        // Column access to A with the fill-reducing permutation applied.
        let acsc = a.to_csc();

        // Growing factors. L keeps original row numbers until the end; U
        // rows are pivot positions. `pinv[orig_row] = pivot position` or
        // MAX.
        let mut l = GrowingL::with_capacity(n, 4 * a.nnz());
        let mut reach = Reach {
            ptr: Vec::with_capacity(n + 1),
            rows: Vec::with_capacity(4 * a.nnz()),
            prune: Vec::with_capacity(n),
        };
        reach.ptr.push(0);
        let mut u = Columns::with_capacity(n, 4 * a.nnz());
        let mut pinv = vec![usize::MAX; n];
        let mut row_perm = vec![usize::MAX; n];

        let mut work = ColumnWork {
            x: vec![0.0; n],
            block: Vec::new(),
            stack: Vec::with_capacity(n),
            pattern: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
            mark: vec![false; n],
        };

        for (j, &old_col) in sym.col_perm.iter().enumerate() {
            let (arows, avals) = acsc.col(old_col);

            // --- Symbolic step: reach of the column pattern through the
            //     already-computed columns of L (DFS in pivot order).
            work.pattern.clear();
            for &r in arows {
                dfs_reach(r, &pinv, &reach, &mut work);
            }
            // Pattern is in reverse-topological order; process in reverse.

            // --- Numeric step: scatter A(:, old_col), then eliminate.
            //     Only pivotal rows have an L column to apply; the others
            //     are leaves that merely carry values for the gather. A
            //     pivotal node and the next columns of its panel that
            //     follow it, leaves between them passed over, are one
            //     block.
            for (&r, &v) in arows.iter().zip(avals) {
                work.x[r] = v;
            }
            let pattern = &work.pattern;
            let mut next = pattern.len();
            while next > 0 {
                next -= 1;
                let node = pattern[next];
                let col = pinv[node];
                if col == usize::MAX {
                    continue;
                }
                let mut end = col + 1;
                let mut look = next;
                while look > 0 {
                    look -= 1;
                    match pinv[pattern[look]] {
                        usize::MAX => {}
                        c if c == end && l.panel_of[c] == l.panel_of[col] => {
                            end += 1;
                            next = look;
                        }
                        _ => break,
                    }
                }
                l.eliminate(col..end, work.x[node], &mut work.x, &mut work.block);
            }

            // --- Pivot: largest magnitude among non-pivotal rows, with
            //     diagonal preference under the threshold.
            let mut pivot_row = usize::MAX;
            let mut pivot_abs = 0.0f64;
            work.free.clear();
            for &node in &work.pattern {
                if pinv[node] == usize::MAX {
                    work.free.push(node);
                    let a = work.x[node].abs();
                    if a > pivot_abs {
                        pivot_abs = a;
                        pivot_row = node;
                    }
                }
            }
            // Prefer the natural diagonal (old row == old col) when close
            // enough to the maximum.
            if pinv[old_col] == usize::MAX
                && work.x[old_col].abs() >= pivot_threshold * pivot_abs
                && work.x[old_col] != 0.0
            {
                pivot_row = old_col;
            }
            if pivot_row == usize::MAX || work.x[pivot_row] == 0.0 {
                // Clean up scatter before failing.
                for &node in &work.pattern {
                    work.x[node] = 0.0;
                    work.mark[node] = false;
                }
                return Err(RsluError::Singular { column: j });
            }
            let pivot_val = work.x[pivot_row];
            pinv[pivot_row] = j;
            row_perm[j] = pivot_row;

            // L's entries plus n bound every position L's u32 pointers
            // hold; this column adds fewer than `free` entries.
            if l.vals.len() + work.free.len() + n > u32::MAX as usize {
                return Err(RsluError::Sparse(format!(
                    "{} entries of L are beyond u32 positions",
                    l.vals.len()
                )));
            }

            // --- Gather straight into the factors: the rest of the
            //     unpivoted rows into L — joining the last panel when they
            //     and the pivot row are exactly its tail — the pivotal
            //     rows into U (the new pivot is its diagonal).
            l.push_column(pivot_row, &work.free, &work.x, pivot_val);
            for &node in &work.pattern {
                let v = work.x[node];
                work.x[node] = 0.0;
                work.mark[node] = false;
                let k = pinv[node];
                if k == usize::MAX {
                    reach.rows.push(node as u32);
                    continue;
                }
                u.push(k, v);
                if k == j {
                    continue; // the diagonal of U
                }
                // Symmetric pruning: u_kj and l_jk both structurally
                // nonzero, so every row of L(:, k) still unpivoted is in
                // L(:, j) too and stays reachable from k through j. Move
                // the pivotal rows of column k to the front and stop the
                // DFS there.
                let (lo, hi) = (reach.ptr[k] as usize, reach.ptr[k + 1] as usize);
                if reach.prune[k] as usize == hi && reach.rows[lo..hi].contains(&(pivot_row as u32))
                {
                    let (mut front, mut back) = (lo, hi);
                    while front < back {
                        if pinv[reach.rows[front] as usize] != usize::MAX {
                            front += 1;
                        } else {
                            back -= 1;
                            reach.rows.swap(front, back);
                        }
                    }
                    reach.prune[k] = front as u32;
                }
            }
            reach.ptr.push(reach.rows.len() as u32);
            reach.prune.push(reach.rows.len() as u32);
            u.ptr.push(u.rows.len());
        }

        // Both factors live in the permuted space. A's columns, the
        // workspace, the DFS lists and one triangle's growing arrays are
        // gone before the other's panels are built.
        drop((acsc, work, reach));
        let l = l.finish(n, &pinv)?;
        let ut = u.into_upper_rows(n)?;
        Ok(LuFactorization { l, ut, row_perm, col_perm: sym.col_perm.clone(), n })
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Fill: entries of L + U, both diagonals counted (diagnostic; the
    /// quantity orderings try to minimize).
    pub fn fill(&self) -> usize {
        self.l.nnz() + self.ut.nnz() + 2 * self.n
    }

    /// L as panels of its columns (unit diagonal, not stored).
    pub fn l_panels(&self) -> &PanelTri {
        &self.l
    }

    /// U as panels of its rows.
    pub fn u_panels(&self) -> &PanelTri {
        &self.ut
    }

    /// Heap bytes the factorization holds: both triangles' panel arrays
    /// and the two permutations.
    pub fn heap_bytes(&self) -> usize {
        self.l.heap_bytes()
            + self.ut.heap_bytes()
            + std::mem::size_of_val(&self.row_perm[..])
            + std::mem::size_of_val(&self.col_perm[..])
    }

    /// L in CSC form (pivot-order numbering, unit diagonal stored),
    /// converted on demand — the solves never use it.
    pub fn l(&self) -> CscMatrix {
        self.l.to_csc().expect("a validated triangle is a valid CSC matrix")
    }

    /// U in CSC form, converted on demand: the CSR arrays of Uᵀ are the
    /// CSC arrays of U.
    pub fn u(&self) -> CscMatrix {
        let ut = self.ut.to_csc().expect("a validated triangle is a valid CSC matrix");
        let (n, _, ptr, rows, vals) = ut.to_csr().into_parts();
        CscMatrix::from_parts(n, n, ptr, rows, vals).expect("the transpose of a valid matrix")
    }

    /// Row permutation (`row_perm[pivot_position] = original_row`).
    pub fn row_perm(&self) -> &[usize] {
        &self.row_perm
    }

    /// A scratch sized for this factorization's solves.
    pub(crate) fn scratch(&self) -> SolveScratch {
        let w = self.l.scratch_len().max(self.ut.scratch_len());
        SolveScratch { y: vec![0.0; self.n], w: vec![0.0; w] }
    }

    fn check_len(&self, what: &str, len: usize) -> RsluResult<()> {
        if len == self.n {
            Ok(())
        } else {
            Err(RsluError::Sparse(format!("{what} has length {len}, expected {}", self.n)))
        }
    }

    /// Solve A·x = b using the factors (one rhs).
    pub fn solve(&self, b: &[f64]) -> RsluResult<Vec<f64>> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x, &mut self.scratch())?;
        Ok(x)
    }

    /// [`LuFactorization::solve`] into `x`, allocating nothing: `scratch`
    /// comes from [`LuFactorization::scratch`] of these factors.
    pub(crate) fn solve_into(
        &self,
        b: &[f64],
        x: &mut [f64],
        scratch: &mut SolveScratch,
    ) -> RsluResult<()> {
        self.check_len("rhs", b.len())?;
        self.check_len("solution", x.len())?;
        let SolveScratch { y, w } = scratch;
        // y = P·b.
        for (yi, &orig) in y.iter_mut().zip(&self.row_perm) {
            *yi = b[orig];
        }
        // L·z = y, then U·w = z through U's rows.
        self.l.scatter_forward(y, w);
        self.ut.gather_backward(y, w);
        // x = Q·w: w is in permuted column space, scatter back.
        for (&yi, &old) in y.iter().zip(&self.col_perm) {
            x[old] = yi;
        }
        Ok(())
    }

    /// Solve Aᵀ·x = b using the same factors: with P·A·Q = L·U this is
    /// x = Pᵀ·L⁻ᵀ·U⁻ᵀ·Qᵀ·b. (SuperLU's `trans` option; also the engine
    /// behind the Hager condition estimator.)
    pub fn solve_transpose(&self, b: &[f64]) -> RsluResult<Vec<f64>> {
        self.check_len("rhs", b.len())?;
        let SolveScratch { mut y, mut w } = self.scratch();
        // u = Qᵀ·b.
        for (yi, &old) in y.iter_mut().zip(&self.col_perm) {
            *yi = b[old];
        }
        // Uᵀ·v = u forward through U's rows, then Lᵀ·w = v backward.
        self.ut.scatter_forward(&mut y, &mut w);
        self.l.gather_backward(&mut y, &mut w);
        // x = Pᵀ·w.
        let mut x = vec![0.0; self.n];
        for (&yi, &orig) in y.iter().zip(&self.row_perm) {
            x[orig] = yi;
        }
        Ok(x)
    }

    /// Hager–Higham estimate of ‖A⁻¹‖₁ from the factors (one forward and
    /// a handful of solve/transpose-solve pairs). Multiply by ‖A‖₁ for a
    /// 1-norm condition-number estimate — SuperLU's `*gscon`.
    pub fn inverse_norm1_estimate(&self) -> RsluResult<f64> {
        let n = self.n;
        let mut x = vec![1.0 / n as f64; n];
        let mut best = 0.0f64;
        for _ in 0..5 {
            let y = self.solve(&x)?;
            let est = rsparse::dense::norm1(&y);
            // ξ = sign(y); z = A⁻ᵀ·ξ.
            let xi: Vec<f64> = y.iter().map(|v| if *v >= 0.0 { 1.0 } else { -1.0 }).collect();
            let z = self.solve_transpose(&xi)?;
            // Stop when no coordinate beats the current functional value.
            let (jmax, zmax) = z.iter().enumerate().fold((0usize, 0.0f64), |(bj, bv), (j, &v)| {
                if v.abs() > bv {
                    (j, v.abs())
                } else {
                    (bj, bv)
                }
            });
            best = best.max(est);
            let zx = rsparse::dense::dot(&z, &x);
            if zmax <= zx {
                break;
            }
            x.iter_mut().for_each(|v| *v = 0.0);
            x[jmax] = 1.0;
        }
        Ok(best)
    }

    /// Solve for several right-hand sides given as columns of a flat
    /// column-major array (LISI's multi-RHS scenario §5.2c).
    pub fn solve_multi(&self, b: &[f64], nrhs: usize) -> RsluResult<Vec<f64>> {
        if nrhs == 0 || b.len() != self.n * nrhs {
            return Err(RsluError::Sparse(format!(
                "multi-rhs buffer has length {}, expected {}",
                b.len(),
                self.n * nrhs
            )));
        }
        let mut out = vec![0.0; b.len()];
        let mut scratch = self.scratch();
        for k in 0..nrhs {
            let col = k * self.n..(k + 1) * self.n;
            self.solve_into(&b[col.clone()], &mut out[col], &mut scratch)?;
        }
        Ok(out)
    }
}

/// DFS from original row `start` through pivotal columns, appending the
/// reach to `work.pattern` in reverse-topological order (CSparse's
/// `cs_dfs` shape). A pivotal row's children are the rows of its L column
/// up to the column's prune point (Eisenstat–Liu symmetric pruning); a
/// non-pivotal row is a leaf.
fn dfs_reach(start: usize, pinv: &[usize], reach: &Reach, work: &mut ColumnWork) {
    let ColumnWork { stack, pattern, mark, .. } = work;
    if mark[start] {
        return;
    }
    mark[start] = true;
    // A pivotal row's stack frame: its children.
    let frame =
        |node: usize, col: usize| (node, reach.ptr[col] as usize, reach.prune[col] as usize);
    match pinv[start] {
        usize::MAX => return pattern.push(start),
        col => stack.push(frame(start, col)),
    }
    while let Some(&(node, mut next, end)) = stack.last() {
        let top = stack.len() - 1;
        let mut descended = false;
        while next < end && !descended {
            let child = reach.rows[next] as usize;
            next += 1;
            if mark[child] {
                continue;
            }
            mark[child] = true;
            match pinv[child] {
                usize::MAX => pattern.push(child),
                col => {
                    stack[top].1 = next;
                    stack.push(frame(child, col));
                    descended = true;
                }
            }
        }
        if !descended {
            pattern.push(node);
            stack.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::Ordering;
    use rsparse::generate;

    fn factor_and_check(a: &CsrMatrix, ord: Ordering) {
        let sym = Symbolic::analyze(a, ord).unwrap();
        let lu = LuFactorization::factor(a, &sym, 1.0).unwrap();
        let n = a.rows();
        // Check A·x = b for a known solution.
        let x_true = generate::random_vector(n, 42);
        let b = a.matvec(&x_true).unwrap();
        let x = lu.solve(&b).unwrap();
        let scale = rsparse::dense::norm_inf(&x_true).max(1.0);
        for (g, e) in x.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-8 * scale, "{ord:?}: {g} vs {e}");
        }
    }

    #[test]
    fn factors_solve_diag_dominant_systems_under_all_orderings() {
        let a = generate::random_diag_dominant(40, 4, 11);
        for ord in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
            factor_and_check(&a, ord);
        }
    }

    #[test]
    fn factors_solve_2d_laplacian() {
        let a = generate::laplacian_2d(9);
        factor_and_check(&a, Ordering::MinDegree);
    }

    #[test]
    fn factors_solve_nonsymmetric_convection_problem() {
        let (a, _) = rmesh::paper_problem(8).assemble_global();
        for ord in [Ordering::Natural, Ordering::MinDegree] {
            factor_and_check(&a, ord);
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [0 1; 1 0] requires a row swap.
        let a = rsparse::CooMatrix::from_triplets(2, 2, &[0, 1], &[1, 0], &[1.0, 2.0])
            .unwrap()
            .to_csr();
        let sym = Symbolic::analyze(&a, Ordering::Natural).unwrap();
        let lu = LuFactorization::factor(&a, &sym, 1.0).unwrap();
        let x = lu.solve(&[3.0, 4.0]).unwrap();
        // x1 = 3 (from row 0: x1*1 = 3), x0 = 2 (row 1: 2x0 = 4).
        assert!((x[0] - 2.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_is_detected() {
        // Second column identically zero.
        let a = rsparse::CooMatrix::from_triplets(2, 2, &[0, 1], &[0, 0], &[1.0, 2.0])
            .unwrap()
            .to_csr();
        let sym = Symbolic::analyze(&a, Ordering::Natural).unwrap();
        assert!(matches!(LuFactorization::factor(&a, &sym, 1.0), Err(RsluError::Singular { .. })));
    }

    /// P·A·Q = L·U entrywise, via dense products.
    fn assert_reconstructs(a: &CsrMatrix, lu: &LuFactorization, what: &str) {
        let n = a.rows();
        let ld = lu.l().to_csr().to_dense();
        let ud = lu.u().to_csr().to_dense();
        let ad = a.to_dense();
        for i in 0..n {
            for j in 0..n {
                let s: f64 = (0..n).map(|k| ld[(i, k)] * ud[(k, j)]).sum();
                // (P·A·Q)[i][j] = A[row_perm[i]][col_perm[j]].
                let expect = ad[(lu.row_perm[i], lu.col_perm[j])];
                assert!(
                    (s - expect).abs() < 1e-9 * (1.0 + expect.abs()),
                    "{what} ({i},{j}): {s} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn lu_product_reconstructs_permuted_matrix() {
        // Rows rotated off the diagonal: no column can take its natural
        // pivot, whatever the ordering and threshold.
        let a = crate::corpus::matrix(2, 15, 7);
        for ord in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
            for threshold in [1.0, 0.1] {
                let sym = Symbolic::analyze(&a, ord).unwrap();
                let lu = LuFactorization::factor(&a, &sym, threshold).unwrap();
                assert!(
                    lu.row_perm().iter().zip(&sym.col_perm).any(|(r, c)| r != c),
                    "{ord:?}: expected off-diagonal pivots"
                );
                assert_reconstructs(&a, &lu, &format!("{ord:?}, threshold {threshold}"));
            }
        }
    }

    /// The oracle for the reach: the structural pattern of L + U of
    /// P·A·Q under the pivot order `lu` chose, by dense boolean
    /// elimination — no DFS, no pruning, no numerical values.
    fn structural_fill(a: &CsrMatrix, lu: &LuFactorization) -> Vec<Vec<bool>> {
        let n = a.rows();
        let mut pinv = vec![0; n];
        let mut qinv = vec![0; n];
        for k in 0..n {
            pinv[lu.row_perm[k]] = k;
            qinv[lu.col_perm[k]] = k;
        }
        let mut s = vec![vec![false; n]; n];
        for (r, c, _) in a.iter() {
            s[pinv[r]][qinv[c]] = true;
        }
        for k in 0..n {
            let (done, below) = s.split_at_mut(k + 1);
            for row in below.iter_mut().filter(|row| row[k]) {
                for j in k + 1..n {
                    row[j] |= done[k][j];
                }
            }
        }
        s
    }

    fn assert_structural_pattern(a: &CsrMatrix, lu: &LuFactorization) -> Result<(), String> {
        let s = structural_fill(a, lu);
        let column = |rows: std::ops::Range<usize>, j: usize| -> Vec<usize> {
            rows.filter(|&i| s[i][j]).collect()
        };
        let (l, u) = (lu.l(), lu.u());
        for j in 0..a.rows() {
            let (upper, lower) = (column(0..j + 1, j), column(j..a.rows(), j));
            if u.col(j).0 != upper || l.col(j).0 != lower {
                return Err(format!(
                    "column {j}: U {:?} vs {upper:?}, L {:?} vs {lower:?}",
                    u.col(j).0,
                    l.col(j).0
                ));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn pruned_reach_gives_the_structural_pattern_of_every_column(
            kind in 0usize..crate::corpus::KINDS,
            n in 2usize..=200,
            seed in 0u64..100_000,
            ord in 0usize..3,
            threshold in proptest::sample::select(vec![1.0, 0.1]),
        ) {
            let a = crate::corpus::matrix(kind, n, seed);
            let ord = [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree][ord];
            let sym = Symbolic::analyze(&a, ord).unwrap();
            let lu = LuFactorization::factor(&a, &sym, threshold).unwrap();
            proptest::prop_assert_eq!(assert_structural_pattern(&a, &lu), Ok(()));
            proptest::prop_assert_eq!(compare_with_column_loop(&a, &sym, threshold), Ok(()));
            let x_true = generate::random_vector(a.rows(), seed ^ 0xfeed);
            let b = a.matvec(&x_true).unwrap();
            let r = rsparse::ops::residual(&a, &lu.solve(&b).unwrap(), &b).unwrap();
            proptest::prop_assert!(
                rsparse::dense::norm_inf(&r) <= 1e-10 * rsparse::dense::norm_inf(&b).max(1.0)
            );
        }
    }

    fn cancelling_matrix() -> CsrMatrix {
        #[rustfmt::skip]
        let dense = [
            [1.0, 1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0, 1.0],
            [0.0, 1.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 1.0],
        ];
        let mut coo = rsparse::CooMatrix::new(4, 4);
        for (i, row) in dense.iter().enumerate() {
            for (j, &v) in row.iter().enumerate().filter(|(_, v)| **v != 0.0) {
                coo.push(i, j, v).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn exactly_cancelled_entries_stay_as_explicit_zeros() {
        // Column 1: x(r1) = 1 − 1·1 = 0 exactly, and r2 takes the pivot,
        // so L(:, 1) holds r1 with value 0. Row r1 is in the pattern of
        // column 2 only through that entry (A(r1, c2) = 0), where it
        // cancels again; it finally pivots in column 3.
        let a = cancelling_matrix();
        let sym = Symbolic::analyze(&a, Ordering::Natural).unwrap();
        let lu = LuFactorization::factor(&a, &sym, 1.0).unwrap();
        assert_eq!(lu.row_perm(), [0, 2, 3, 1]);
        // Row r1 sits at pivot position 3.
        let l = lu.l();
        assert_eq!(l.col(1), (&[1, 3][..], &[1.0, 0.0][..]));
        assert_eq!(l.col(2), (&[2, 3][..], &[1.0, 0.0][..]));
        assert_eq!(assert_structural_pattern(&a, &lu), Ok(()));
        assert_reconstructs(&a, &lu, "cancelling");
        let x_true = [1.0, -2.0, 3.0, 0.5];
        let x = lu.solve(&a.matvec(&x_true).unwrap()).unwrap();
        for (g, e) in x.iter().zip(&x_true) {
            assert!((g - e).abs() <= 1e-12, "{g} vs {e}");
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `factor` against the column loop in `reference.rs`: the same
    /// verdict (a `Singular` at the same column), the same pivots, the
    /// bits of every entry of L and U, and L's panels exactly the runs the
    /// T2 test finds on the loop's columns.
    fn compare_with_column_loop(
        a: &CsrMatrix,
        sym: &Symbolic,
        threshold: f64,
    ) -> Result<(), String> {
        let (lu, oracle) = match (
            LuFactorization::factor(a, sym, threshold),
            crate::reference::factor_by_columns(a, &sym.col_perm, threshold),
        ) {
            (Err(RsluError::Singular { column }), Err(c)) if column == c => return Ok(()),
            (Ok(lu), Ok(oracle)) => (lu, oracle),
            (got, expected) => {
                return Err(format!("factor {:?}, column loop {:?}", got.err(), expected.err()))
            }
        };
        let same = |x: &CscMatrix, y: &CscMatrix| {
            x.col_ptr() == y.col_ptr()
                && x.row_idx() == y.row_idx()
                && bits(x.values()) == bits(y.values())
        };
        if lu.row_perm() != oracle.row_perm {
            return Err("row permutations differ".into());
        }
        if !same(&lu.l(), &oracle.l) || !same(&lu.u(), &oracle.u) {
            return Err("L or U differs".into());
        }
        if lu.fill() != oracle.l.nnz() + oracle.u.nnz() {
            return Err(format!("fill {} vs {}", lu.fill(), oracle.l.nnz() + oracle.u.nnz()));
        }
        // The loop's L below its diagonal, cut into runs after the fact.
        let n = a.rows();
        let l = &oracle.l;
        let ptr: Vec<usize> = (0..=n).map(|j| l.col_ptr()[j] - j).collect();
        let below = |j: usize| l.col_ptr()[j] + 1..l.col_ptr()[j + 1];
        let rows: Vec<u32> =
            (0..n).flat_map(|j| l.row_idx()[below(j)].iter().map(|&r| r as u32)).collect();
        let vals: Vec<f64> = (0..n).flat_map(|j| l.values()[below(j)].iter().copied()).collect();
        let runs =
            PanelTri::from_columns(n, &ptr, &rows, vals, Vec::new()).map_err(|e| e.to_string())?;
        let panels = lu.l_panels();
        let shape = |t: &PanelTri| (t.panel_count(), t.index_count(), t.max_panel_width(), t.nnz());
        if shape(panels) != shape(&runs) || *panels != runs {
            return Err(format!("panels {:?} vs runs {:?}", shape(panels), shape(&runs)));
        }
        Ok(())
    }

    fn assert_matches_column_loop(a: &CsrMatrix, what: &str) {
        for ord in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
            for threshold in [1.0, 0.1] {
                let sym = Symbolic::analyze(a, ord).unwrap();
                assert_eq!(
                    compare_with_column_loop(a, &sym, threshold),
                    Ok(()),
                    "{what}, {ord:?}, threshold {threshold}"
                );
            }
        }
    }

    #[test]
    fn factor_is_bitwise_the_column_loop() {
        for m in [8, 24, 40, 120] {
            let (a, _) = rmesh::paper_problem(m).assemble_global();
            assert_matches_column_loop(&a, &format!("paper problem m = {m}"));
        }
        assert_matches_column_loop(&generate::laplacian_2d(13), "laplacian_2d");
        for kind in 0..crate::corpus::KINDS {
            assert_matches_column_loop(
                &crate::corpus::matrix(kind, 90, 7),
                &format!("corpus {kind}"),
            );
        }
        assert_matches_column_loop(&cancelling_matrix(), "cancelling");
        assert_matches_column_loop(
            &crate::corpus::interleave2(&generate::laplacian_2d(6)),
            "no runs",
        );
        // Stored zeros of both signs off the diagonal: multipliers that
        // are exactly ±0.0 take the skip.
        let (mut signed, _) = rmesh::paper_problem(12).assemble_global();
        let (row_ptr, cols) = (signed.row_ptr().to_vec(), signed.col_idx().to_vec());
        let vals = signed.values_mut();
        for (i, w) in row_ptr.windows(2).enumerate() {
            for k in (w[0]..w[1]).filter(|&k| cols[k] != i && cols[k] % 3 == 0) {
                vals[k] = if k % 2 == 0 { -0.0 } else { 0.0 };
            }
        }
        assert_matches_column_loop(&signed, "signed zeros");
    }

    #[test]
    fn singular_matrices_fail_at_the_column_the_column_loop_fails_at() {
        // Columns 3 and 7 of a Laplacian reduced to one entry each, in the
        // same row: whichever comes second finds no pivot.
        let base = generate::laplacian_2d(5);
        let mut coo = rsparse::CooMatrix::new(25, 25);
        for (r, c, v) in base.iter().filter(|&(_, c, _)| c != 3 && c != 7) {
            coo.push(r, c, v).unwrap();
        }
        coo.push(0, 3, 1.0).unwrap();
        coo.push(0, 7, 2.0).unwrap();
        // All ones: the second column cancels to exactly 0.0.
        let ones = rsparse::CooMatrix::from_triplets(2, 2, &[0, 0, 1, 1], &[0, 1, 0, 1], &[1.0; 4])
            .unwrap();
        for (a, what) in [(coo.to_csr(), "structural"), (ones.to_csr(), "numerical")] {
            for ord in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
                let sym = Symbolic::analyze(&a, ord).unwrap();
                assert!(
                    matches!(
                        LuFactorization::factor(&a, &sym, 1.0),
                        Err(RsluError::Singular { .. })
                    ),
                    "{what}"
                );
                assert_eq!(compare_with_column_loop(&a, &sym, 1.0), Ok(()), "{what}, {ord:?}");
            }
        }
    }

    /// Every solve entry point against the column sweeps over the CSC
    /// conversions of the same factors, bit for bit.
    fn assert_matches_column_sweeps(a: &CsrMatrix, what: &str) {
        let n = a.rows();
        // A right-hand side that exercises the zero skip: exact zeros and
        // negative zeros among ordinary values.
        let mut holes = generate::random_vector(n, 5);
        for (i, v) in holes.iter_mut().enumerate() {
            match i % 4 {
                0 => *v = 0.0,
                1 => *v = -0.0,
                _ => {}
            }
        }
        let rhs = [generate::random_vector(n, 3), holes, vec![0.0; n], vec![-0.0; n]];
        for ord in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
            for threshold in [1.0, 0.1] {
                let ctx = format!("{what}, {ord:?}, threshold {threshold}");
                let sym = Symbolic::analyze(a, ord).unwrap();
                let lu = LuFactorization::factor(a, &sym, threshold).unwrap();
                let (l, u) = (lu.l(), lu.u());
                assert_eq!(lu.fill(), l.nnz() + u.nnz(), "{ctx}: fill counts logical entries");
                let oracle = crate::reference::CscFactors {
                    l: &l,
                    u: &u,
                    row_perm: &lu.row_perm,
                    col_perm: &lu.col_perm,
                };
                for b in &rhs {
                    assert_eq!(bits(&lu.solve(b).unwrap()), bits(&oracle.solve(b)), "{ctx}: solve");
                    assert_eq!(
                        bits(&lu.solve_transpose(b).unwrap()),
                        bits(&oracle.solve_transpose(b)),
                        "{ctx}: solve_transpose"
                    );
                }
                let flat = rhs.concat();
                let expect: Vec<f64> = rhs.iter().flat_map(|b| oracle.solve(b)).collect();
                assert_eq!(
                    bits(&lu.solve_multi(&flat, rhs.len()).unwrap()),
                    bits(&expect),
                    "{ctx}: solve_multi"
                );
                assert_eq!(
                    lu.inverse_norm1_estimate().unwrap().to_bits(),
                    oracle.inverse_norm1_estimate().to_bits(),
                    "{ctx}: condition estimate"
                );
            }
        }
    }

    #[test]
    fn panel_sweeps_are_bitwise_the_column_sweeps() {
        for m in [8, 24, 40] {
            let (a, _) = rmesh::paper_problem(m).assemble_global();
            assert_matches_column_sweeps(&a, &format!("paper problem m = {m}"));
        }
        assert_matches_column_sweeps(&generate::laplacian_2d(13), "laplacian_2d");
        for kind in 0..crate::corpus::KINDS {
            assert_matches_column_sweeps(
                &crate::corpus::matrix(kind, 90, 7),
                &format!("corpus {kind}"),
            );
        }
        // Off-diagonal pivots.
        let swap = rsparse::CooMatrix::from_triplets(2, 2, &[0, 1], &[1, 0], &[1.0, 2.0])
            .unwrap()
            .to_csr();
        assert_matches_column_sweeps(&swap, "zero diagonal");
        // An exactly cancelled entry: the explicit zero stays inside a panel.
        assert_matches_column_sweeps(&cancelling_matrix(), "cancelling");
        assert_matches_column_sweeps(
            &crate::corpus::interleave2(&generate::laplacian_2d(6)),
            "no runs",
        );
    }

    #[test]
    fn tracked_matrix_has_the_pinned_panel_structure() {
        let (a, _) = rmesh::paper_problem(120).assemble_global();
        let sym = Symbolic::analyze(&a, Ordering::MinDegree).unwrap();
        let lu = LuFactorization::factor(&a, &sym, 1.0).unwrap();
        assert_eq!(lu.fill(), 684_072);
        for (name, tri) in [("L", lu.l_panels()), ("U", lu.u_panels())] {
            assert_eq!(tri.nnz() + tri.order(), 342_036, "{name}");
            assert_eq!(tri.panel_count(), 10_852, "{name}");
            assert_eq!(tri.index_count(), 81_497, "{name}");
            assert!(tri.max_panel_width() >= 64, "{name}: {}", tri.max_panel_width());
        }
        // 16 B an entry is what the CSC factors took.
        assert!(
            lu.heap_bytes() * 100 <= 65 * 16 * lu.fill(),
            "{} B for {} entries",
            lu.heap_bytes(),
            lu.fill()
        );
    }

    #[test]
    fn interleaved_copies_have_no_run_and_every_panel_is_one_column() {
        // Unknown i of copy c is numbered 2·i + c, so every row index in a
        // column of L (column index in a row of U) has the column's parity
        // and none is its successor.
        let a = crate::corpus::interleave2(&rmesh::paper_problem(12).assemble_global().0);
        let sym = Symbolic::analyze(&a, Ordering::Natural).unwrap();
        let lu = LuFactorization::factor(&a, &sym, 1.0).unwrap();
        for tri in [lu.l_panels(), lu.u_panels()] {
            assert_eq!(tri.panel_count(), a.rows());
            assert_eq!(tri.max_panel_width(), 1);
            assert_eq!(tri.index_count(), tri.nnz());
        }
        assert!(lu.fill() > 4 * a.nnz(), "the bypass matrix still fills in");
    }

    #[test]
    fn mindegree_reduces_fill_versus_worst_case() {
        // Arrow matrix pointing the wrong way: natural ordering fills
        // completely, minimum degree keeps it sparse.
        let n = 30;
        let mut coo = rsparse::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            if i > 0 {
                coo.push(0, i, 1.0).unwrap();
                coo.push(i, 0, 1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let f_nat = {
            let sym = Symbolic::analyze(&a, Ordering::Natural).unwrap();
            LuFactorization::factor(&a, &sym, 1.0).unwrap().fill()
        };
        let f_md = {
            let sym = Symbolic::analyze(&a, Ordering::MinDegree).unwrap();
            LuFactorization::factor(&a, &sym, 1.0).unwrap().fill()
        };
        assert!(f_md * 3 < f_nat, "minimum degree should avoid the arrow fill: {f_md} vs {f_nat}");
    }

    #[test]
    fn multi_rhs_solves_each_column() {
        let a = generate::random_diag_dominant(12, 3, 9);
        let sym = Symbolic::analyze(&a, Ordering::MinDegree).unwrap();
        let lu = LuFactorization::factor(&a, &sym, 1.0).unwrap();
        let x1 = generate::random_vector(12, 1);
        let x2 = generate::random_vector(12, 2);
        let mut b = a.matvec(&x1).unwrap();
        b.extend(a.matvec(&x2).unwrap());
        let xs = lu.solve_multi(&b, 2).unwrap();
        for (g, e) in xs[..12].iter().zip(&x1) {
            assert!((g - e).abs() < 1e-9);
        }
        for (g, e) in xs[12..].iter().zip(&x2) {
            assert!((g - e).abs() < 1e-9);
        }
        assert!(lu.solve_multi(&b, 3).is_err());
    }

    #[test]
    fn transpose_solve_matches_dense_transpose() {
        let a = generate::random_diag_dominant(18, 3, 31);
        let sym = Symbolic::analyze(&a, Ordering::MinDegree).unwrap();
        let lu = LuFactorization::factor(&a, &sym, 1.0).unwrap();
        let x_true = generate::random_vector(18, 6);
        let bt = a.transpose().matvec(&x_true).unwrap();
        let x = lu.solve_transpose(&bt).unwrap();
        for (g, e) in x.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-9, "{g} vs {e}");
        }
        assert!(lu.solve_transpose(&[1.0]).is_err());
    }

    #[test]
    fn condition_estimate_brackets_the_true_condition_number() {
        // For a well-conditioned diagonally dominant matrix, the Hager
        // estimate of ‖A⁻¹‖₁ must be a lower bound on the true value and
        // within a small factor of it.
        let n = 15;
        let a = generate::random_diag_dominant(n, 3, 17);
        let sym = Symbolic::analyze(&a, Ordering::Natural).unwrap();
        let lu = LuFactorization::factor(&a, &sym, 1.0).unwrap();
        let est = lu.inverse_norm1_estimate().unwrap();
        // True ‖A⁻¹‖₁ from dense columns.
        let dense = a.to_dense();
        let mut true_norm = 0.0f64;
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let col = dense.solve(&e).unwrap();
            true_norm = true_norm.max(rsparse::dense::norm1(&col));
        }
        assert!(
            est <= true_norm * (1.0 + 1e-10),
            "estimate must lower-bound: {est} vs {true_norm}"
        );
        assert!(est >= true_norm / 10.0, "estimate too loose: {est} vs {true_norm}");
    }

    #[test]
    fn condition_estimate_blows_up_for_near_singular_matrices() {
        // tridiag(−1, 2, −1) of order n has condition O(n²); a tiny
        // diagonal perturbation version is much worse than a dominant one.
        let good = generate::random_diag_dominant(20, 3, 9);
        let bad = generate::laplacian_1d(60);
        let est = |a: &CsrMatrix| {
            let sym = Symbolic::analyze(a, Ordering::Natural).unwrap();
            let lu = LuFactorization::factor(a, &sym, 1.0).unwrap();
            lu.inverse_norm1_estimate().unwrap() * a.norm_inf()
        };
        assert!(est(&bad) > 20.0 * est(&good), "{} vs {}", est(&bad), est(&good));
    }

    #[test]
    fn bad_pivot_threshold_rejected() {
        let a = generate::laplacian_1d(4);
        let sym = Symbolic::analyze(&a, Ordering::Natural).unwrap();
        assert!(LuFactorization::factor(&a, &sym, 0.0).is_err());
        assert!(LuFactorization::factor(&a, &sym, 1.5).is_err());
        assert!(LuFactorization::factor(&a, &sym, 0.5).is_ok());
    }

    #[test]
    fn pattern_mismatch_on_reuse_is_detected() {
        let a = generate::laplacian_1d(6);
        let b = generate::laplacian_1d(7);
        let sym = Symbolic::analyze(&a, Ordering::Natural).unwrap();
        assert!(matches!(
            LuFactorization::factor(&b, &sym, 1.0),
            Err(RsluError::PatternMismatch { .. })
        ));
    }
}
