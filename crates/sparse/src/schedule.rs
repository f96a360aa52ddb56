//! Level-ordered triangular sweeps.
//!
//! A triangular solve `L·z = r` (or `U·z = r`) walked in natural row
//! order is a latency chain: on a grid matrix `z[i]` waits for `z[i ∓ 1]`
//! through a multiply, a subtract and (for `U`) a divide, and the
//! processor cannot start row `i + 1` before row `i` retires. But row `i`
//! only depends on the rows its off-diagonal columns point at. Grouping
//! rows by the length of their longest dependency chain — their **level**
//! — gives an order in which every row of a level is independent of the
//! others, so consecutive rows issue back to back.
//!
//! A [`LevelTri`] is one triangle *stored in that order*: the analysis
//! walks the pattern once when the factor is built, and the rows, their
//! entries and their diagonals are laid out level after level in compact
//! `u32`-indexed arrays. Every index the sweep will follow is checked once
//! ([`LevelTri::from_parts`], typed errors); [`LevelTri::sweep_from`] /
//! [`LevelTri::sweep_in_place`] then gather unchecked.
//!
//! Entries inside a row keep the order the caller gave them and each row
//! performs the arithmetic of the natural-order loop
//! (`acc = src[i]; acc -= v·z[c] …; z[i] = finish(acc, d)`), so the result
//! is bit-identical to it; only the order in which independent rows run
//! changes. On a chain (one row per level) level order *is* natural
//! order. The sweep is single-threaded at every `RSPARSE_THREADS` value —
//! a level of a grid matrix is a fraction of a microsecond of work, less
//! than one barrier.

use crate::error::{SparseError, SparseResult};

/// Which triangle a [`LevelTri`] is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Triangle {
    /// Forward sweep: every stored column is `< row`.
    Lower,
    /// Backward sweep: every stored column is `> row`.
    Upper,
}

/// One strict triangle, stored in level order for the sweep.
///
/// Slot `q` writes row `rows[q]` from the entries
/// `ptr[q]..ptr[q + 1]` of `col`/`val` and, when the triangle has a
/// stored diagonal, `diag[q]`. Slots `level_ptr[l]..level_ptr[l + 1]` form
/// level `l`; every column a slot reads was written by a slot of an
/// earlier level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelTri {
    n: usize,
    level_ptr: Vec<u32>,
    rows: Vec<u32>,
    ptr: Vec<u32>,
    col: Vec<u32>,
    val: Vec<f64>,
    /// Per slot; empty for a unit triangle.
    diag: Vec<f64>,
}

/// The typed error for a triangle whose `count` rows or entries do not fit
/// the compact layout's `u32` indices.
fn fits_u32(axis: &'static str, count: usize) -> SparseResult<()> {
    match u32::try_from(count) {
        Ok(c) if c < u32::MAX => Ok(()),
        _ => Err(SparseError::IndexOutOfBounds {
            axis,
            index: count,
            bound: u32::MAX as usize,
        }),
    }
}

/// `ptr` must start at 0, never decrease and end at `end`.
fn check_pointers(ptr: &[u32], end: usize, why: &'static str) -> SparseResult<()> {
    let ok = ptr.first() == Some(&0)
        && ptr.last().map(|&p| p as usize) == Some(end)
        && ptr.windows(2).all(|w| w[0] <= w[1]);
    if ok {
        Ok(())
    } else {
        Err(SparseError::MalformedPointers(why))
    }
}

impl LevelTri {
    /// Analyze and lay out one strict triangle of an `n × n` factor.
    ///
    /// `row(i)` yields row `i`'s off-diagonal columns and values, in the
    /// order the sweep must subtract them; `diag(i)`, when given, is the
    /// divisor handed to `finish` for row `i` (`None` builds a unit
    /// triangle). For [`Triangle::Lower`] every column must be `< i`, for
    /// [`Triangle::Upper`] `> i` and `< n`; anything else is
    /// [`SparseError::BadSweepOrder`] / [`SparseError::IndexOutOfBounds`],
    /// as is a triangle with `n` or its entry count beyond `u32`.
    pub fn build<'a>(
        triangle: Triangle,
        n: usize,
        row: impl Fn(usize) -> (&'a [usize], &'a [f64]),
        diag: Option<&dyn Fn(usize) -> f64>,
    ) -> SparseResult<Self> {
        fits_u32("triangular sweep row", n)?;
        let mut nnz = 0usize;
        for i in 0..n {
            let (cols, vals) = row(i);
            if cols.len() != vals.len() {
                return Err(SparseError::LengthMismatch {
                    what: "triangular sweep row values",
                    expected: cols.len(),
                    got: vals.len(),
                });
            }
            nnz = nnz.saturating_add(cols.len());
        }
        fits_u32("triangular sweep entry", nnz)?;

        // Level of a row = 1 + the deepest level among its dependencies,
        // visiting rows in the order the natural sweep solves them.
        let mut level = vec![0u32; n];
        let mut n_levels = 0u32;
        let mut visit = |i: usize| -> SparseResult<()> {
            let mut depth = 0u32;
            for &c in row(i).0 {
                let solved_before = match triangle {
                    Triangle::Lower => c < i,
                    Triangle::Upper => c > i,
                };
                if c >= n {
                    return Err(SparseError::IndexOutOfBounds {
                        axis: "column",
                        index: c,
                        bound: n,
                    });
                }
                if !solved_before {
                    return Err(SparseError::BadSweepOrder { row: i, col: c });
                }
                depth = depth.max(level[c]);
            }
            level[i] = depth + 1;
            n_levels = n_levels.max(depth + 1);
            Ok(())
        };
        match triangle {
            Triangle::Lower => (0..n).try_for_each(&mut visit)?,
            Triangle::Upper => (0..n).rev().try_for_each(&mut visit)?,
        }

        // Counting sort of the rows by level, ascending inside a level.
        let mut level_ptr = vec![0u32; n_levels as usize + 1];
        for &l in &level {
            level_ptr[l as usize] += 1;
        }
        for l in 1..level_ptr.len() {
            level_ptr[l] += level_ptr[l - 1];
        }
        let mut next = level_ptr.clone();
        let mut rows = vec![0u32; n];
        for (i, &l) in level.iter().enumerate() {
            let slot = &mut next[l as usize - 1];
            rows[*slot as usize] = i as u32;
            *slot += 1;
        }
        drop((level, next));

        let mut ptr = Vec::with_capacity(n + 1);
        let mut col = Vec::with_capacity(nnz);
        let mut val = Vec::with_capacity(nnz);
        ptr.push(0u32);
        for &i in &rows {
            let (cols, vals) = row(i as usize);
            col.extend(cols.iter().map(|&c| c as u32));
            val.extend_from_slice(vals);
            ptr.push(col.len() as u32);
        }
        let diag = match diag {
            Some(d) => rows.iter().map(|&i| d(i as usize)).collect(),
            None => Vec::new(),
        };
        Self::from_parts(n, level_ptr, rows, ptr, col, val, diag)
    }

    /// Assemble a triangle from arrays already in level order, checking
    /// once everything the unchecked sweep relies on: `level_ptr` and
    /// `ptr` start at 0 and never decrease, `rows` is a permutation of
    /// `0..n`, every column is `< n` and belongs to a row of an **earlier
    /// level** than the slot reading it, `diag` is empty or one per slot.
    /// Violations are typed errors, never a panic.
    pub fn from_parts(
        n: usize,
        level_ptr: Vec<u32>,
        rows: Vec<u32>,
        ptr: Vec<u32>,
        col: Vec<u32>,
        val: Vec<f64>,
        diag: Vec<f64>,
    ) -> SparseResult<Self> {
        fits_u32("triangular sweep row", n)?;
        fits_u32("triangular sweep entry", col.len())?;
        for (what, expected, got) in [
            ("triangular sweep rows", n, rows.len()),
            ("triangular sweep ptr", n + 1, ptr.len()),
            ("triangular sweep values", col.len(), val.len()),
            (
                "triangular sweep diagonal",
                if diag.is_empty() { 0 } else { n },
                diag.len(),
            ),
        ] {
            if expected != got {
                return Err(SparseError::LengthMismatch {
                    what,
                    expected,
                    got,
                });
            }
        }
        check_pointers(
            &ptr,
            col.len(),
            "sweep ptr must run 0..=nnz without decreasing",
        )?;
        check_pointers(
            &level_ptr,
            n,
            "sweep level_ptr must run 0..=n without decreasing",
        )?;

        // Level of each row (0 = not scheduled yet), then every dependency
        // against it.
        let mut level_of = vec![0u32; n];
        for (l, w) in level_ptr.windows(2).enumerate() {
            for &r in &rows[w[0] as usize..w[1] as usize] {
                let r = r as usize;
                if r >= n {
                    return Err(SparseError::IndexOutOfBounds {
                        axis: "row",
                        index: r,
                        bound: n,
                    });
                }
                if level_of[r] != 0 {
                    return Err(SparseError::MalformedPointers(
                        "a row is scheduled twice in a triangular sweep",
                    ));
                }
                level_of[r] = l as u32 + 1;
            }
        }
        for (q, &r) in rows.iter().enumerate() {
            for &c in &col[ptr[q] as usize..ptr[q + 1] as usize] {
                let c = c as usize;
                if c >= n {
                    return Err(SparseError::IndexOutOfBounds {
                        axis: "column",
                        index: c,
                        bound: n,
                    });
                }
                if level_of[c] >= level_of[r as usize] {
                    return Err(SparseError::BadSweepOrder {
                        row: r as usize,
                        col: c,
                    });
                }
            }
        }

        let tri = LevelTri {
            n,
            level_ptr,
            rows,
            ptr,
            col,
            val,
            diag,
        };
        tri.record_levels();
        Ok(tri)
    }

    /// Rows (= columns) of the triangle.
    pub fn n_rows(&self) -> usize {
        self.n
    }

    /// Stored off-diagonal entries.
    pub fn nnz(&self) -> usize {
        self.col.len()
    }

    /// Number of levels (the critical-path length of the solve).
    pub fn levels(&self) -> usize {
        self.level_ptr.len() - 1
    }

    /// Histogram of level widths over fixed log-ish buckets
    /// `[1, 2–7, 8–31, 32–127, ≥128]`: how many independent rows the
    /// sweep finds side by side.
    pub fn width_histogram(&self) -> [usize; 5] {
        let mut hist = [0usize; 5];
        for w in self.level_ptr.windows(2) {
            let bucket = match w[1] - w[0] {
                0..=1 => 0,
                2..=7 => 1,
                8..=31 => 2,
                32..=127 => 3,
                _ => 4,
            };
            hist[bucket] += 1;
        }
        hist
    }

    /// Record the level count and width histogram into the probe
    /// counters — once, when the triangle is built, never per sweep.
    fn record_levels(&self) {
        use probe::Counter as C;
        const BUCKETS: [probe::Counter; 5] = [
            C::SptrsvLevelWidth1,
            C::SptrsvLevelWidth2to7,
            C::SptrsvLevelWidth8to31,
            C::SptrsvLevelWidth32to127,
            C::SptrsvLevelWidth128Plus,
        ];
        probe::add(C::SptrsvLevels, self.levels() as u64);
        for (bucket, &count) in BUCKETS.iter().zip(self.width_histogram().iter()) {
            if count > 0 {
                probe::add(*bucket, count as u64);
            }
        }
    }

    /// Flops and bytes of one sweep, from the arrays it reads: 2 flops
    /// per stored entry, a stored diagonal counting as one; 20 bytes per
    /// off-diagonal entry (value, `u32` column, gathered `z`), 24 per row
    /// (`rows`, `ptr`, one read, one write) and 8 per stored diagonal.
    fn traffic(&self) -> (u64, u64) {
        let (n, nnz, diags) = (self.n as u64, self.col.len() as u64, self.diag.len() as u64);
        (2 * (nnz + diags), 20 * nnz + 24 * n + 8 * diags)
    }

    /// `z[i] = finish(r[i] − Σ v·z[c], d)` for every row in level order,
    /// `d` being the row's stored diagonal (`1.0` for a unit triangle).
    ///
    /// # Panics
    /// If `r` or `z` is not `n_rows()` long.
    #[inline]
    pub fn sweep_from(&self, r: &[f64], z: &mut [f64], finish: impl Fn(f64, f64) -> f64) {
        assert_eq!(r.len(), self.n, "sweep source length");
        assert_eq!(z.len(), self.n, "sweep target length");
        // SAFETY: both slices hold `n` elements and `r` is only read.
        unsafe { self.run(r.as_ptr(), z.as_mut_ptr(), finish) }
    }

    /// [`sweep_from`](Self::sweep_from) with `z` as its own right-hand
    /// side: `z[i] = finish(z[i] − Σ v·z[c], d)`.
    ///
    /// # Panics
    /// If `z` is not `n_rows()` long.
    #[inline]
    pub fn sweep_in_place(&self, z: &mut [f64], finish: impl Fn(f64, f64) -> f64) {
        assert_eq!(z.len(), self.n, "sweep target length");
        let p = z.as_mut_ptr();
        // SAFETY: `z` holds `n` elements; every access goes through `p`.
        unsafe { self.run(p, p, finish) }
    }

    /// The one sweep loop.
    ///
    /// # Safety
    /// `src` must be readable and `z` readable and writable for `n`
    /// elements; they may be the same allocation.
    #[inline(always)]
    unsafe fn run(&self, src: *const f64, z: *mut f64, finish: impl Fn(f64, f64) -> f64) {
        let mut lo = 0usize;
        for q in 0..self.n {
            // SAFETY: `from_parts` checked, once, that `rows` and `ptr`
            // hold `n` and `n + 1` entries, that `ptr` never decreases and
            // ends at `col.len() == val.len()`, that every `rows[q]` and
            // `col[k]` is `< n`, and that `diag` is empty or `n` long; the
            // caller vouches for `n` elements behind `src` and `z`. The
            // fields are private and nothing mutates them after that.
            unsafe {
                let row = *self.rows.get_unchecked(q) as usize;
                let hi = *self.ptr.get_unchecked(q + 1) as usize;
                let mut acc = *src.add(row);
                for k in lo..hi {
                    let c = *self.col.get_unchecked(k) as usize;
                    acc -= *self.val.get_unchecked(k) * *z.add(c);
                }
                let d = if self.diag.is_empty() {
                    1.0
                } else {
                    *self.diag.get_unchecked(q)
                };
                *z.add(row) = finish(acc, d);
                lo = hi;
            }
        }
    }
}

/// Register the ledger's `sptrsv` model for a preconditioner whose apply
/// is one forward and one backward sweep: the two triangles' traffic plus
/// one flop per row, per call of the `sptrsv` span.
pub fn register_sweep_model(fwd: &LevelTri, bwd: &LevelTri) {
    let (ff, fb) = fwd.traffic();
    let (bf, bb) = bwd.traffic();
    probe::model::register(
        "sptrsv",
        probe::model::KernelModel {
            span: "sptrsv",
            flops: ff + bf + fwd.n as u64,
            bytes: fb + bb,
            unit: probe::model::WorkUnit::SpanCalls,
            time: probe::model::TimeBase::Total,
            nrhs: 1,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;
    use crate::generate;

    /// Strict lower rows of `a` (columns ascending).
    fn strict_lower<'a>(a: &'a CsrMatrix) -> impl Fn(usize) -> (&'a [usize], &'a [f64]) + 'a {
        move |i| {
            let (cols, vals) = a.row(i);
            let end = cols.partition_point(|&c| c < i);
            (&cols[..end], &vals[..end])
        }
    }

    fn diag_of(a: &CsrMatrix) -> impl Fn(usize) -> f64 + '_ {
        move |i| a.get(i, i)
    }

    /// The natural-order forward sweep the level-ordered one must equal.
    fn natural_lower<'a>(
        n: usize,
        row: impl Fn(usize) -> (&'a [usize], &'a [f64]),
        diag: impl Fn(usize) -> f64,
        r: &[f64],
    ) -> Vec<f64> {
        let mut z = vec![0.0; n];
        for i in 0..n {
            let (cols, vals) = row(i);
            let mut acc = r[i];
            for (&c, &v) in cols.iter().zip(vals) {
                acc -= v * z[c];
            }
            z[i] = acc / diag(i);
        }
        z
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn levels_respect_dependencies_and_cover_every_row_once() {
        let a = generate::laplacian_2d(9);
        let tri = LevelTri::build(Triangle::Lower, 81, strict_lower(&a), None).unwrap();
        assert_eq!(tri.levels(), 17, "anti-diagonals of a 9 × 9 grid");
        assert_eq!(tri.width_histogram().iter().sum::<usize>(), tri.levels());
        let mut level_of = vec![0usize; 81];
        for (l, w) in tri.level_ptr.windows(2).enumerate() {
            for &r in &tri.rows[w[0] as usize..w[1] as usize] {
                level_of[r as usize] = l;
            }
        }
        for i in 0..81 {
            for &c in strict_lower(&a)(i).0 {
                assert!(level_of[c] < level_of[i], "row {i} dep {c}");
            }
        }
        let mut seen = tri.rows.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..81).collect::<Vec<u32>>());
    }

    #[test]
    fn a_chain_degenerates_to_natural_order() {
        let a = generate::laplacian_1d(500);
        let fwd = LevelTri::build(Triangle::Lower, 500, strict_lower(&a), None).unwrap();
        assert_eq!(fwd.levels(), 500);
        assert_eq!(fwd.rows, (0..500).collect::<Vec<u32>>());
        let upper = |i: usize| {
            let (cols, vals) = a.row(i);
            let start = cols.partition_point(|&c| c <= i);
            (&cols[start..], &vals[start..])
        };
        let bwd = LevelTri::build(Triangle::Upper, 500, upper, Some(&diag_of(&a))).unwrap();
        assert_eq!(bwd.rows, (0..500).rev().collect::<Vec<u32>>());
        // No dependencies at all: one level holding every row.
        let none = LevelTri::build(Triangle::Lower, 500, |_| (&[][..], &[][..]), None).unwrap();
        assert_eq!(none.levels(), 1);
        assert_eq!(none.width_histogram(), [0, 0, 0, 0, 1]);
    }

    #[test]
    fn sweep_is_bitwise_the_natural_order_loop() {
        for a in [
            generate::laplacian_2d(1),
            generate::laplacian_2d(2),
            generate::laplacian_2d(7),
            generate::laplacian_1d(64),
            generate::fem_block(4, 3, 5),
            generate::random_diag_dominant(60, 5, 8),
        ] {
            let n = a.rows();
            let tri =
                LevelTri::build(Triangle::Lower, n, strict_lower(&a), Some(&diag_of(&a))).unwrap();
            let mut r = generate::random_vector(n, 17);
            for poison in [None, Some(f64::NAN), Some(f64::INFINITY)] {
                if let Some(p) = poison {
                    r[n / 2] = p;
                }
                let want = natural_lower(n, strict_lower(&a), diag_of(&a), &r);
                let mut got = vec![0.0; n];
                tri.sweep_from(&r, &mut got, |acc, d| acc / d);
                assert_eq!(bits(&got), bits(&want), "n = {n}, poison {poison:?}");
                let mut in_place = r.clone();
                tri.sweep_in_place(&mut in_place, |acc, d| acc / d);
                assert_eq!(bits(&in_place), bits(&want));
            }
        }
    }

    #[test]
    fn unsorted_columns_and_stored_zeros_keep_their_order() {
        // Row 3 subtracts columns 2, 0, 1 in that order, one of them
        // through an explicit zero; reordering them would change the
        // rounding.
        let cols: [&[usize]; 4] = [&[], &[0], &[1, 0], &[2, 0, 1]];
        let vals: [&[f64]; 4] = [&[], &[1e-17], &[0.0, 3.0], &[1e16, 1.0, -1e16]];
        let row = |i: usize| (cols[i], vals[i]);
        let tri = LevelTri::build(Triangle::Lower, 4, row, None).unwrap();
        let r = [1.0, 1.0, 0.1, 0.3];
        let want = natural_lower(4, row, |_| 1.0, &r);
        let mut got = [0.0; 4];
        tri.sweep_from(&r, &mut got, |acc, _| acc);
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn empty_and_single_row_triangles_sweep() {
        let empty = LevelTri::build(Triangle::Upper, 0, |_| (&[][..], &[][..]), None).unwrap();
        assert_eq!((empty.levels(), empty.nnz()), (0, 0));
        empty.sweep_in_place(&mut [], |acc, _| acc);
        let one =
            LevelTri::build(Triangle::Lower, 1, |_| (&[][..], &[][..]), Some(&|_| 4.0)).unwrap();
        let mut z = [0.0];
        one.sweep_from(&[2.0], &mut z, |acc, d| acc / d);
        assert_eq!(z, [0.5]);
    }

    #[test]
    fn build_rejects_what_the_sweep_could_not_follow() {
        let one = [1.0];
        // A column past the end.
        let err = LevelTri::build(
            Triangle::Upper,
            3,
            |i| {
                if i == 0 {
                    (&[3][..], &one[..])
                } else {
                    (&[][..], &[][..])
                }
            },
            None,
        );
        assert_eq!(
            err,
            Err(SparseError::IndexOutOfBounds {
                axis: "column",
                index: 3,
                bound: 3
            })
        );
        // A "lower" entry on or above the diagonal.
        for c in [1usize, 2] {
            let cols = [c];
            let err = LevelTri::build(
                Triangle::Lower,
                3,
                |i| {
                    if i == 1 {
                        (&cols[..], &one[..])
                    } else {
                        (&[][..], &[][..])
                    }
                },
                None,
            );
            assert_eq!(err, Err(SparseError::BadSweepOrder { row: 1, col: c }));
        }
        // An "upper" entry below the diagonal.
        let err = LevelTri::build(
            Triangle::Upper,
            3,
            |i| {
                if i == 2 {
                    (&[0][..], &one[..])
                } else {
                    (&[][..], &[][..])
                }
            },
            None,
        );
        assert_eq!(err, Err(SparseError::BadSweepOrder { row: 2, col: 0 }));
        // Columns and values of different lengths.
        let err = LevelTri::build(Triangle::Lower, 2, |_| (&[][..], &one[..]), None);
        assert!(matches!(err, Err(SparseError::LengthMismatch { .. })));
    }

    #[test]
    fn sizes_beyond_u32_are_typed_errors_before_any_allocation() {
        let too_many_rows = u32::MAX as usize;
        let err = LevelTri::build(Triangle::Lower, too_many_rows, |_| (&[][..], &[][..]), None);
        assert!(matches!(
            err,
            Err(SparseError::IndexOutOfBounds {
                axis: "triangular sweep row",
                ..
            })
        ));
        // 4097 rows sharing one 2²⁰-entry slice: 2³² + 2²⁰ entries.
        let cols = vec![0usize; 1 << 20];
        let vals = vec![0.0f64; 1 << 20];
        let err = LevelTri::build(Triangle::Lower, 4097, |_| (&cols[..], &vals[..]), None);
        assert!(matches!(
            err,
            Err(SparseError::IndexOutOfBounds {
                axis: "triangular sweep entry",
                ..
            })
        ));
    }

    /// Two rows, row 1 reading row 0, as level-ordered parts.
    #[allow(clippy::type_complexity)]
    fn parts() -> (
        usize,
        Vec<u32>,
        Vec<u32>,
        Vec<u32>,
        Vec<u32>,
        Vec<f64>,
        Vec<f64>,
    ) {
        (
            2,
            vec![0, 1, 2],
            vec![0, 1],
            vec![0, 0, 1],
            vec![0],
            vec![0.5],
            vec![],
        )
    }

    #[test]
    fn from_parts_rejects_every_broken_invariant() {
        let (n, lp, rows, ptr, col, val, diag) = parts();
        assert!(LevelTri::from_parts(
            n,
            lp.clone(),
            rows.clone(),
            ptr.clone(),
            col.clone(),
            val.clone(),
            diag.clone()
        )
        .is_ok());
        // Both rows in one level: the dependency is no longer earlier.
        let err = LevelTri::from_parts(
            n,
            vec![0, 2],
            rows.clone(),
            ptr.clone(),
            col.clone(),
            val.clone(),
            diag.clone(),
        );
        assert_eq!(err, Err(SparseError::BadSweepOrder { row: 1, col: 0 }));
        // The dependency in a later level.
        let err = LevelTri::from_parts(
            n,
            lp.clone(),
            vec![1, 0],
            vec![0, 1, 1],
            col.clone(),
            val.clone(),
            diag.clone(),
        );
        assert_eq!(err, Err(SparseError::BadSweepOrder { row: 1, col: 0 }));
        // Non-monotone and mis-terminated pointers.
        for bad in [vec![0, 1, 0], vec![1, 1, 1], vec![0, 0, 2]] {
            let err = LevelTri::from_parts(
                n,
                lp.clone(),
                rows.clone(),
                bad,
                col.clone(),
                val.clone(),
                diag.clone(),
            );
            assert!(
                matches!(err, Err(SparseError::MalformedPointers(_))),
                "{err:?}"
            );
        }
        for bad in [vec![0, 2, 1], vec![0, 1], vec![]] {
            let err = LevelTri::from_parts(
                n,
                bad,
                rows.clone(),
                ptr.clone(),
                col.clone(),
                val.clone(),
                diag.clone(),
            );
            assert!(
                matches!(err, Err(SparseError::MalformedPointers(_))),
                "{err:?}"
            );
        }
        // A column, then a row, past the end; a row scheduled twice.
        let err = LevelTri::from_parts(
            n,
            lp.clone(),
            rows.clone(),
            ptr.clone(),
            vec![2],
            val.clone(),
            diag.clone(),
        );
        assert_eq!(
            err,
            Err(SparseError::IndexOutOfBounds {
                axis: "column",
                index: 2,
                bound: 2
            })
        );
        let err = LevelTri::from_parts(
            n,
            lp.clone(),
            vec![0, 2],
            ptr.clone(),
            col.clone(),
            val.clone(),
            diag.clone(),
        );
        assert_eq!(
            err,
            Err(SparseError::IndexOutOfBounds {
                axis: "row",
                index: 2,
                bound: 2
            })
        );
        let err = LevelTri::from_parts(
            n,
            lp.clone(),
            vec![0, 0],
            ptr.clone(),
            col.clone(),
            val.clone(),
            diag.clone(),
        );
        assert!(matches!(err, Err(SparseError::MalformedPointers(_))));
        // Array lengths that disagree.
        let err = LevelTri::from_parts(
            n,
            lp.clone(),
            rows.clone(),
            ptr.clone(),
            col.clone(),
            vec![],
            diag.clone(),
        );
        assert!(matches!(err, Err(SparseError::LengthMismatch { .. })));
        let err = LevelTri::from_parts(
            n,
            lp.clone(),
            rows.clone(),
            ptr.clone(),
            col.clone(),
            val.clone(),
            vec![1.0],
        );
        assert!(matches!(err, Err(SparseError::LengthMismatch { .. })));
        let err = LevelTri::from_parts(n, lp, vec![0], ptr, col, val, diag);
        assert!(matches!(err, Err(SparseError::LengthMismatch { .. })));
    }
}
