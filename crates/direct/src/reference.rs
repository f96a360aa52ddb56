//! The loops RSLU ran before its factors were panels — the oracles the
//! panel code must reproduce bit for bit: the column sweeps over CSC
//! factors, and `factor`'s column-at-a-time elimination. Compiled into
//! this crate's unit tests and, by path, into `tests/proptest_lu.rs`;
//! nothing here names a crate-private item.

use rsparse::{CscMatrix, CsrMatrix};

/// What [`factor_by_columns`] returns: L (unit diagonal stored first) and
/// U (diagonal last) as CSC in pivot numbering, rows ascending, and
/// `row_perm[pivot position] = original row`.
pub struct ColumnFactors {
    pub l: CscMatrix,
    pub u: CscMatrix,
    pub row_perm: Vec<usize>,
}

/// `LuFactorization::factor` as a column loop: every L column of a
/// column's reach applied on its own through a scattered axpy, L kept as
/// CSC columns whose rows (and values) pruning reorders in place.
/// `col_perm[new] = old`, `threshold` as in `factor` (not checked). `Err`
/// carries the column that found no pivot.
pub fn factor_by_columns(
    a: &CsrMatrix,
    col_perm: &[usize],
    threshold: f64,
) -> Result<ColumnFactors, usize> {
    let n = a.rows();
    let acsc = a.to_csc();
    // L's columns start with their pivot row (the unit diagonal); rows
    // keep original numbers until the end, U's rows are pivot positions.
    let mut l = Oracle { ptr: vec![0], rows: Vec::new(), vals: Vec::new(), prune: Vec::new() };
    let (mut u_ptr, mut u_rows, mut u_vals) = (vec![0], Vec::new(), Vec::new());
    let mut pinv = vec![usize::MAX; n];
    let mut row_perm = vec![usize::MAX; n];
    let mut x = vec![0.0; n];
    let mut mark = vec![false; n];
    let mut pattern = Vec::new();
    for (j, &old_col) in col_perm.iter().enumerate() {
        let (arows, avals) = acsc.col(old_col);
        pattern.clear();
        for &r in arows {
            l.reach(r, &pinv, &mut mark, &mut pattern);
        }
        for (&r, &v) in arows.iter().zip(avals) {
            x[r] = v;
        }
        for &node in pattern.iter().rev() {
            let col = pinv[node];
            if col == usize::MAX {
                continue;
            }
            let xj = x[node];
            if xj != 0.0 {
                for t in l.ptr[col] + 1..l.ptr[col + 1] {
                    x[l.rows[t]] -= xj * l.vals[t];
                }
            }
        }
        let mut pivot_row = usize::MAX;
        let mut pivot_abs = 0.0f64;
        for &node in pattern.iter().filter(|&&r| pinv[r] == usize::MAX) {
            if x[node].abs() > pivot_abs {
                pivot_abs = x[node].abs();
                pivot_row = node;
            }
        }
        if pinv[old_col] == usize::MAX
            && x[old_col].abs() >= threshold * pivot_abs
            && x[old_col] != 0.0
        {
            pivot_row = old_col;
        }
        if pivot_row == usize::MAX || x[pivot_row] == 0.0 {
            return Err(j);
        }
        let pivot_val = x[pivot_row];
        pinv[pivot_row] = j;
        row_perm[j] = pivot_row;
        l.rows.push(pivot_row);
        l.vals.push(1.0);
        for &node in &pattern {
            let v = std::mem::take(&mut x[node]);
            mark[node] = false;
            let k = pinv[node];
            if k == usize::MAX {
                l.rows.push(node);
                l.vals.push(v / pivot_val);
                continue;
            }
            u_rows.push(k);
            u_vals.push(v);
            if k == j {
                continue;
            }
            // Symmetric pruning, as in `factor`.
            let (lo, hi) = (l.ptr[k] + 1, l.ptr[k + 1]);
            if l.prune[k] == hi && l.rows[lo..hi].contains(&pivot_row) {
                let (mut front, mut back) = (lo, hi);
                while front < back {
                    if pinv[l.rows[front]] != usize::MAX {
                        front += 1;
                    } else {
                        back -= 1;
                        l.rows.swap(front, back);
                        l.vals.swap(front, back);
                    }
                }
                l.prune[k] = front;
            }
        }
        l.ptr.push(l.rows.len());
        l.prune.push(l.rows.len());
        u_ptr.push(u_rows.len());
    }
    for r in &mut l.rows {
        *r = pinv[*r];
    }
    Ok(ColumnFactors {
        l: sorted_csc(n, &l.ptr, &l.rows, &l.vals),
        u: sorted_csc(n, &u_ptr, &u_rows, &u_vals),
        row_perm,
    })
}

/// L under the column loop, with its pruning points.
struct Oracle {
    ptr: Vec<usize>,
    rows: Vec<usize>,
    vals: Vec<f64>,
    prune: Vec<usize>,
}

impl Oracle {
    /// Append the reach of `start` to `pattern` in reverse-topological
    /// order, descending column k's rows below its diagonal up to its
    /// prune point.
    fn reach(&self, start: usize, pinv: &[usize], mark: &mut [bool], pattern: &mut Vec<usize>) {
        if mark[start] {
            return;
        }
        mark[start] = true;
        if pinv[start] == usize::MAX {
            return pattern.push(start);
        }
        let frame = |node: usize| (node, self.ptr[pinv[node]] + 1, self.prune[pinv[node]]);
        let mut stack = vec![frame(start)];
        while let Some(&(node, mut next, end)) = stack.last() {
            let top = stack.len() - 1;
            let mut descended = false;
            while next < end && !descended {
                let child = self.rows[next];
                next += 1;
                if mark[child] {
                    continue;
                }
                mark[child] = true;
                if pinv[child] == usize::MAX {
                    pattern.push(child);
                } else {
                    stack[top].1 = next;
                    stack.push(frame(child));
                    descended = true;
                }
            }
            if !descended {
                pattern.push(node);
                stack.pop();
            }
        }
    }
}

/// CSC from columns whose rows come in any order.
fn sorted_csc(n: usize, ptr: &[usize], rows: &[usize], vals: &[f64]) -> CscMatrix {
    let mut sorted_rows = Vec::with_capacity(rows.len());
    let mut sorted_vals = Vec::with_capacity(vals.len());
    for w in ptr.windows(2) {
        let mut col: Vec<(usize, f64)> =
            rows[w[0]..w[1]].iter().copied().zip(vals[w[0]..w[1]].iter().copied()).collect();
        col.sort_unstable_by_key(|&(r, _)| r);
        sorted_rows.extend(col.iter().map(|&(r, _)| r));
        sorted_vals.extend(col.iter().map(|&(_, v)| v));
    }
    CscMatrix::from_parts(n, n, ptr.to_vec(), sorted_rows, sorted_vals).expect("valid columns")
}

/// `P·A·Q = L·U` as CSC factors (L with its unit diagonal stored first
/// in every column, U with its diagonal last) and the two permutations,
/// `perm[new] = old`.
pub struct CscFactors<'a> {
    pub l: &'a CscMatrix,
    pub u: &'a CscMatrix,
    pub row_perm: &'a [usize],
    pub col_perm: &'a [usize],
}

impl CscFactors<'_> {
    /// A·x = b: column scatter forward over L, column scatter backward
    /// over U, both skipping a column whose unknown is exactly 0.0.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = b.len();
        let mut y: Vec<f64> = self.row_perm.iter().map(|&orig| b[orig]).collect();
        for j in 0..n {
            let (rows, vals) = self.l.col(j);
            let yj = y[j];
            if yj != 0.0 {
                for (&r, &v) in rows[1..].iter().zip(&vals[1..]) {
                    y[r] -= v * yj;
                }
            }
        }
        for j in (0..n).rev() {
            let (rows, vals) = self.u.col(j);
            y[j] /= vals.last().expect("U has its diagonal");
            let yj = y[j];
            if yj != 0.0 {
                for (&r, &v) in rows.iter().zip(vals).take(rows.len() - 1) {
                    y[r] -= v * yj;
                }
            }
        }
        let mut x = vec![0.0; n];
        for (new, &old) in self.col_perm.iter().enumerate() {
            x[old] = y[new];
        }
        x
    }

    /// Aᵀ·x = b: the CSC columns of U and L are the rows of Uᵀ and Lᵀ, so
    /// both sweeps gather.
    pub fn solve_transpose(&self, b: &[f64]) -> Vec<f64> {
        let n = b.len();
        let mut y: Vec<f64> = self.col_perm.iter().map(|&old| b[old]).collect();
        for j in 0..n {
            let (rows, vals) = self.u.col(j);
            let mut acc = y[j];
            for (&r, &v) in rows.iter().zip(vals).take(rows.len() - 1) {
                acc -= v * y[r];
            }
            y[j] = acc / vals.last().expect("U has its diagonal");
        }
        for j in (0..n).rev() {
            let (rows, vals) = self.l.col(j);
            let mut acc = y[j];
            for (&r, &v) in rows[1..].iter().zip(&vals[1..]) {
                acc -= v * y[r];
            }
            y[j] = acc;
        }
        let mut x = vec![0.0; n];
        for (pos, &orig) in self.row_perm.iter().enumerate() {
            x[orig] = y[pos];
        }
        x
    }

    /// The Hager–Higham loop of `LuFactorization::inverse_norm1_estimate`
    /// over the two solves above.
    pub fn inverse_norm1_estimate(&self) -> f64 {
        let n = self.row_perm.len();
        let mut x = vec![1.0 / n as f64; n];
        let mut best = 0.0f64;
        for _ in 0..5 {
            let y = self.solve(&x);
            let est = rsparse::dense::norm1(&y);
            let xi: Vec<f64> = y.iter().map(|v| if *v >= 0.0 { 1.0 } else { -1.0 }).collect();
            let z = self.solve_transpose(&xi);
            let (jmax, zmax) = z.iter().enumerate().fold((0usize, 0.0f64), |(bj, bv), (j, &v)| {
                if v.abs() > bv {
                    (j, v.abs())
                } else {
                    (bj, bv)
                }
            });
            best = best.max(est);
            if zmax <= rsparse::dense::dot(&z, &x) {
                break;
            }
            x.iter_mut().for_each(|v| *v = 0.0);
            x[jmax] = 1.0;
        }
        best
    }
}
