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
//! walks the pattern once when the factor is built and lays the rows out
//! level after level. Inside one level of a grid triangle the rows sit at
//! a constant stride and every row reads its dependencies at the same
//! offsets from itself, so the same pass cuts each level into **strided
//! runs** ([`Runs`]): at least four (`MIN_RUN`) consecutive rows of the
//! level that share an entry count `k`, a stride and, entry by entry, one
//! offset `col − row`. A run is stored as `row0`, `stride`, `len`, its `k`
//! offsets, its values diagonal-major and one divisor per row — no row
//! numbers, pointers or column indices. The rows no run takes keep
//! compact `u32`-indexed slots ([`Slots`]). Every index the sweep will
//! follow is checked once ([`LevelTri::from_parts`], typed errors);
//! [`LevelTri::sweep_from`] / [`LevelTri::sweep_in_place`] then read
//! unchecked, level by level: first the level's runs through one
//! const-generic kernel (up to eight entries unrolled, a plain loop for
//! any further ones), then its slots.
//!
//! Entries inside a row keep the order the caller gave them and each row
//! performs the arithmetic of the natural-order loop
//! (`acc = src[i]; acc -= v·z[c] …; z[i] = finish(acc, d)`), so the result
//! is bit-identical to it; only the order in which independent rows run
//! changes. On a chain (one row per level) level order *is* natural
//! order and there are no runs. The sweep needs no scratch vector.

use crate::error::{SparseError, SparseResult};

/// Fewest rows a strided run holds; a shorter stretch stays in slots.
const MIN_RUN: usize = 4;

/// Entries per run row the kernel unrolls; a row with more subtracts the
/// rest in a plain loop.
const FUSED: usize = 8;

/// Which triangle a [`LevelTri`] is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Triangle {
    /// Forward sweep: every stored column is `< row`.
    Lower,
    /// Backward sweep: every stored column is `> row`.
    Upper,
}

/// Rows `row0 + t·stride`, `t < len`, of one level, each reading `k`
/// entries at the same offsets from itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StridedRun {
    /// The run's first row.
    pub row0: u32,
    /// Distance between consecutive rows.
    pub stride: u32,
    /// Rows in the run.
    pub len: u32,
    /// Off-diagonal entries per row.
    pub k: u32,
}

/// The rows of a triangle kept with explicit indices. Slot `q` writes row
/// `rows[q]` from the entries `ptr[q]..ptr[q + 1]` of `col`/`val` and,
/// when the triangle has a stored diagonal, `diag[q]`; slots
/// `level_ptr[l]..level_ptr[l + 1]` belong to level `l`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Slots {
    /// Slot range of each level.
    pub level_ptr: Vec<u32>,
    /// Row each slot writes.
    pub rows: Vec<u32>,
    /// Entry range of each slot.
    pub ptr: Vec<u32>,
    /// Column of each entry.
    pub col: Vec<u32>,
    /// Value of each entry.
    pub val: Vec<f64>,
    /// Divisor of each slot; empty for a unit triangle.
    pub diag: Vec<f64>,
}

/// The strided runs of a triangle: runs `level_ptr[l]..level_ptr[l + 1]`
/// belong to level `l`. Run after run, each owns the next `k` entries of
/// `offsets`, the next `k·len` of `val` (entry `j` of row `t` at
/// `j·len + t`) and, when the triangle has a stored diagonal, the next
/// `len` of `diag`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Runs {
    /// Run range of each level.
    pub level_ptr: Vec<u32>,
    /// The runs, level after level.
    pub runs: Vec<StridedRun>,
    /// `col − row` of each run entry, in the caller's entry order.
    pub offsets: Vec<isize>,
    /// Values, diagonal-major within a run.
    pub val: Vec<f64>,
    /// Divisor of each run row; empty for a unit triangle.
    pub diag: Vec<f64>,
}

/// One strict triangle, stored in level order for the sweep: a level's
/// rows are its strided runs and its indexed slots. Every column a row
/// reads was written by a row of an earlier level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelTri {
    n: usize,
    slots: Slots,
    runs: Runs,
}

/// The typed error for a triangle whose `count` rows or entries do not fit
/// the compact layout's `u32` indices.
fn fits_u32(axis: &'static str, count: usize) -> SparseResult<()> {
    match u32::try_from(count) {
        Ok(c) if c < u32::MAX => Ok(()),
        _ => Err(SparseError::IndexOutOfBounds { axis, index: count, bound: u32::MAX as usize }),
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

/// How many rows from the front of `rows` (one level, ascending) share
/// the first one's entry count, its offsets and one stride.
fn stretch<'a>(rows: &[u32], row: &impl Fn(usize) -> (&'a [usize], &'a [f64])) -> usize {
    let first = rows[0] as usize;
    let cols0 = row(first).0;
    let same_offsets = |r: usize| {
        let cols = row(r).0;
        cols.len() == cols0.len()
            && cols.iter().zip(cols0).all(|(&c, &c0)| c.wrapping_sub(r) == c0.wrapping_sub(first))
    };
    let stride = rows.get(1).map(|&r| r - rows[0]);
    let mut len = 1;
    while len < rows.len()
        && Some(rows[len] - rows[len - 1]) == stride
        && same_offsets(rows[len] as usize)
    {
        len += 1;
    }
    len
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
        let mut order = vec![0u32; n];
        for (i, &l) in level.iter().enumerate() {
            let slot = &mut next[l as usize - 1];
            order[*slot as usize] = i as u32;
            *slot += 1;
        }
        drop((level, next));

        // One pass over the level order cuts every level into runs and
        // slots. The slots' rows are compacted into the front of `order`,
        // never past the row being read.
        let mut runs = Runs {
            level_ptr: Vec::with_capacity(level_ptr.len()),
            val: Vec::with_capacity(nnz),
            ..Runs::default()
        };
        let mut slots = Slots {
            level_ptr: Vec::with_capacity(level_ptr.len()),
            ptr: vec![0],
            ..Slots::default()
        };
        runs.level_ptr.push(0);
        slots.level_ptr.push(0);
        let mut kept = 0usize;
        for w in level_ptr.windows(2) {
            let (mut p, hi) = (w[0] as usize, w[1] as usize);
            while p < hi {
                let len = stretch(&order[p..hi], &row);
                if len >= MIN_RUN {
                    let members = &order[p..p + len];
                    let row0 = members[0] as usize;
                    let cols0 = row(row0).0;
                    let k = cols0.len();
                    runs.runs.push(StridedRun {
                        row0: members[0],
                        stride: members[1] - members[0],
                        len: len as u32,
                        k: k as u32,
                    });
                    runs.offsets.extend(cols0.iter().map(|&c| c as isize - row0 as isize));
                    let base = runs.val.len();
                    runs.val.resize(base + k * len, 0.0);
                    for (t, &r) in members.iter().enumerate() {
                        for (j, &v) in row(r as usize).1.iter().enumerate() {
                            runs.val[base + j * len + t] = v;
                        }
                    }
                    if let Some(d) = diag {
                        runs.diag.extend(members.iter().map(|&r| d(r as usize)));
                    }
                    p += len;
                } else {
                    let r = order[p];
                    order[kept] = r;
                    kept += 1;
                    let (cols, vals) = row(r as usize);
                    slots.col.extend(cols.iter().map(|&c| c as u32));
                    slots.val.extend_from_slice(vals);
                    slots.ptr.push(slots.col.len() as u32);
                    if let Some(d) = diag {
                        slots.diag.push(d(r as usize));
                    }
                    p += 1;
                }
            }
            runs.level_ptr.push(runs.runs.len() as u32);
            slots.level_ptr.push(kept as u32);
        }
        order.truncate(kept);
        slots.rows = order;
        Self::from_parts(n, slots, runs)
    }

    /// Assemble a triangle from slots and runs already in level order,
    /// checking once everything the unchecked sweep relies on: the
    /// pointer arrays start at 0 and never decrease, slots and runs
    /// describe the same number of levels, every array is as long as the
    /// slots and runs say, the slots' rows and the runs' rows together
    /// cover each row of `0..n` exactly once, every column (for a run,
    /// `row + offset`) is in `0..n` and belongs to a row of an **earlier
    /// level** than the row reading it, and a diagonal is stored for every
    /// row or for none. Violations are typed errors, never a panic.
    pub fn from_parts(n: usize, slots: Slots, runs: Runs) -> SparseResult<Self> {
        fits_u32("triangular sweep row", n)?;
        fits_u32("triangular sweep entry", slots.col.len())?;
        // What the runs' cursors will walk, in `u64` so no product wraps.
        let (mut run_rows, mut run_offsets, mut run_vals) = (0u64, 0u64, 0u64);
        for s in &runs.runs {
            run_rows = run_rows.saturating_add(u64::from(s.len));
            run_offsets = run_offsets.saturating_add(u64::from(s.k));
            run_vals = run_vals.saturating_add(u64::from(s.k) * u64::from(s.len));
        }
        let as_len = |x: u64| usize::try_from(x).unwrap_or(usize::MAX);
        let (run_rows, run_offsets, run_vals) =
            (as_len(run_rows), as_len(run_offsets), as_len(run_vals));
        let unit = slots.diag.is_empty() && runs.diag.is_empty();
        let diag_len = |rows: usize| if unit { 0 } else { rows };
        for (what, expected, got) in [
            ("triangular sweep rows", n, slots.rows.len().saturating_add(run_rows)),
            ("triangular sweep ptr", slots.rows.len() + 1, slots.ptr.len()),
            ("triangular sweep values", slots.col.len(), slots.val.len()),
            ("triangular sweep diagonal", diag_len(slots.rows.len()), slots.diag.len()),
            ("triangular sweep run offsets", run_offsets, runs.offsets.len()),
            ("triangular sweep run values", run_vals, runs.val.len()),
            ("triangular sweep run diagonal", diag_len(run_rows), runs.diag.len()),
        ] {
            if expected != got {
                return Err(SparseError::LengthMismatch { what, expected, got });
            }
        }
        check_pointers(
            &slots.ptr,
            slots.col.len(),
            "sweep ptr must run 0..=nnz without decreasing",
        )?;
        check_pointers(
            &slots.level_ptr,
            slots.rows.len(),
            "sweep level_ptr must run 0..=slots without decreasing",
        )?;
        check_pointers(
            &runs.level_ptr,
            runs.runs.len(),
            "sweep run level_ptr must run 0..=runs without decreasing",
        )?;
        if runs.level_ptr.len() != slots.level_ptr.len() {
            return Err(SparseError::LengthMismatch {
                what: "triangular sweep run levels",
                expected: slots.level_ptr.len(),
                got: runs.level_ptr.len(),
            });
        }

        // Level of each row (0 = not scheduled yet), then every dependency
        // against it.
        let mut level_of = vec![0u32; n];
        let mut schedule = |r: usize, l: usize| -> SparseResult<()> {
            if r >= n {
                return Err(SparseError::IndexOutOfBounds { axis: "row", index: r, bound: n });
            }
            if level_of[r] != 0 {
                return Err(SparseError::MalformedPointers(
                    "a row is scheduled twice in a triangular sweep",
                ));
            }
            level_of[r] = l as u32 + 1;
            Ok(())
        };
        for l in 0..slots.level_ptr.len() - 1 {
            let (lo, hi) = (slots.level_ptr[l] as usize, slots.level_ptr[l + 1] as usize);
            for &r in &slots.rows[lo..hi] {
                schedule(r as usize, l)?;
            }
            let (lo, hi) = (runs.level_ptr[l] as usize, runs.level_ptr[l + 1] as usize);
            for s in &runs.runs[lo..hi] {
                if s.len == 0 {
                    continue;
                }
                // No wrap in `u64`: (2³² − 1)² + 2³² − 1 < 2⁶⁴.
                let last = u64::from(s.row0) + u64::from(s.len - 1) * u64::from(s.stride);
                if last >= n as u64 {
                    return Err(SparseError::IndexOutOfBounds {
                        axis: "row",
                        index: as_len(last),
                        bound: n,
                    });
                }
                for r in s.rows() {
                    schedule(r, l)?;
                }
            }
        }
        let reads = |r: usize, c: usize| -> SparseResult<()> {
            if c >= n {
                return Err(SparseError::IndexOutOfBounds { axis: "column", index: c, bound: n });
            }
            if level_of[c] >= level_of[r] {
                return Err(SparseError::BadSweepOrder { row: r, col: c });
            }
            Ok(())
        };
        for (q, &r) in slots.rows.iter().enumerate() {
            for &c in &slots.col[slots.ptr[q] as usize..slots.ptr[q + 1] as usize] {
                reads(r as usize, c as usize)?;
            }
        }
        let mut at = 0usize;
        for s in &runs.runs {
            let offsets = &runs.offsets[at..at + s.k as usize];
            at += s.k as usize;
            for r in s.rows() {
                for &off in offsets {
                    // A column before 0 shows as its wrapped value.
                    reads(r, r.wrapping_add_signed(off))?;
                }
            }
        }

        let tri = LevelTri { n, slots, runs };
        tri.record_levels();
        Ok(tri)
    }

    /// Rows (= columns) of the triangle.
    pub fn n_rows(&self) -> usize {
        self.n
    }

    /// Stored off-diagonal entries, in runs and slots alike.
    pub fn nnz(&self) -> usize {
        self.slots.col.len() + self.runs.val.len()
    }

    /// Number of levels (the critical-path length of the solve).
    pub fn levels(&self) -> usize {
        self.slots.level_ptr.len() - 1
    }

    /// Rows swept inside strided runs; the other `n_rows() − run_rows()`
    /// go through indexed slots.
    pub fn run_rows(&self) -> usize {
        self.n - self.slots.rows.len()
    }

    /// Rows in each level, runs and slots together.
    fn level_widths(&self) -> impl Iterator<Item = usize> + '_ {
        let (slots, runs) = (&self.slots.level_ptr, &self.runs.level_ptr);
        (0..self.levels()).map(move |l| {
            let in_runs: usize = self.runs.runs[runs[l] as usize..runs[l + 1] as usize]
                .iter()
                .map(|s| s.len as usize)
                .sum();
            in_runs + (slots[l + 1] - slots[l]) as usize
        })
    }

    /// Histogram of level widths over fixed log-ish buckets
    /// `[1, 2–7, 8–31, 32–127, ≥128]`: how many independent rows the
    /// sweep finds side by side.
    pub fn width_histogram(&self) -> [usize; 5] {
        let mut hist = [0usize; 5];
        for width in self.level_widths() {
            let bucket = match width {
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

    /// Flops and bytes of one sweep in the *logical* model, whatever the
    /// layout: 2 flops per stored entry, a stored diagonal counting as
    /// one; 20 bytes per off-diagonal entry (value, `u32` column, gathered
    /// `z`), 24 per row (`rows`, `ptr`, one read, one write) and 8 per
    /// stored diagonal. Run rows read no columns, rows or pointers; the
    /// model bills them anyway, as SpMV's bills its stencil runs.
    fn traffic(&self) -> (u64, u64) {
        let unit = self.slots.diag.is_empty() && self.runs.diag.is_empty();
        let (n, nnz) = (self.n as u64, self.nnz() as u64);
        let diags = if unit { 0 } else { n };
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

    /// The one sweep loop: level by level, the level's runs, then its
    /// slots.
    ///
    /// # Safety
    /// `src` must be readable and `z` readable and writable for `n`
    /// elements; they may be the same allocation.
    #[inline(always)]
    unsafe fn run(&self, src: *const f64, z: *mut f64, finish: impl Fn(f64, f64) -> f64) {
        let (slots, runs) = (&self.slots, &self.runs);
        let mut at = RunCursor::default();
        let (mut s, mut q, mut lo) = (0usize, 0usize, 0usize);
        for l in 1..slots.level_ptr.len() {
            // SAFETY: `from_parts` checked, once, that both `level_ptr`s
            // hold one entry per level plus one, never decrease and end at
            // `runs.len()` / `rows.len()`; that `ptr` holds `rows.len() + 1`
            // entries, never decreases and ends at `col.len() ==
            // val.len()`; that every slot row, every run row and every
            // column (`col[k]`, or a run row plus an offset) is `< n`;
            // that the runs' `k`, `k·len` and `len` add up to
            // `offsets.len()`, `val.len()` and `diag.len()` (or `diag` is
            // empty); and that the slots' `diag` is empty or one per slot.
            // The caller vouches for `n` elements behind `src` and `z`.
            // The fields are private and nothing mutates them after that.
            unsafe {
                let s_hi = *runs.level_ptr.get_unchecked(l) as usize;
                for run in runs.runs.get_unchecked(s..s_hi) {
                    self.strided(run, &mut at, src, z, &finish);
                }
                s = s_hi;
                let q_hi = *slots.level_ptr.get_unchecked(l) as usize;
                for slot in q..q_hi {
                    let row = *slots.rows.get_unchecked(slot) as usize;
                    let hi = *slots.ptr.get_unchecked(slot + 1) as usize;
                    let mut acc = *src.add(row);
                    for k in lo..hi {
                        let c = *slots.col.get_unchecked(k) as usize;
                        acc -= *slots.val.get_unchecked(k) * *z.add(c);
                    }
                    let d =
                        if slots.diag.is_empty() { 1.0 } else { *slots.diag.get_unchecked(slot) };
                    *z.add(row) = finish(acc, d);
                    lo = hi;
                }
                q = q_hi;
            }
        }
    }

    /// Sweep one run through the kernel unrolled for its `k`, reading its
    /// offsets, values and divisors at `at` and moving `at` past them.
    ///
    /// # Safety
    /// As [`Self::run`], with `run` one of `self`'s runs and `at` where
    /// the runs before it left the cursor.
    #[inline(always)]
    unsafe fn strided(
        &self,
        run: &StridedRun,
        at: &mut RunCursor,
        src: *const f64,
        z: *mut f64,
        finish: &impl Fn(f64, f64) -> f64,
    ) {
        let runs = &self.runs;
        let (k, len) = (run.k as usize, run.len as usize);
        // SAFETY: the cursor sits at this run's offsets, values and
        // divisors (see `run`), which lie inside their arrays.
        unsafe {
            let off = runs.offsets.as_ptr().add(at.off);
            let val = runs.val.as_ptr().add(at.val);
            let diag = (!runs.diag.is_empty()).then(|| runs.diag.as_ptr().add(at.diag));
            match k {
                0 => strided_rows::<0, _>(run, off, val, diag, src, z, finish),
                1 => strided_rows::<1, _>(run, off, val, diag, src, z, finish),
                2 => strided_rows::<2, _>(run, off, val, diag, src, z, finish),
                3 => strided_rows::<3, _>(run, off, val, diag, src, z, finish),
                4 => strided_rows::<4, _>(run, off, val, diag, src, z, finish),
                5 => strided_rows::<5, _>(run, off, val, diag, src, z, finish),
                6 => strided_rows::<6, _>(run, off, val, diag, src, z, finish),
                7 => strided_rows::<7, _>(run, off, val, diag, src, z, finish),
                _ => strided_rows::<FUSED, _>(run, off, val, diag, src, z, finish),
            }
        }
        at.off += k;
        at.val += k * len;
        at.diag += len;
    }
}

impl StridedRun {
    /// The run's rows, in sweep order.
    fn rows(&self) -> impl Iterator<Item = usize> {
        let (row0, stride) = (self.row0 as usize, self.stride as usize);
        (0..self.len as usize).map(move |t| row0 + t * stride)
    }
}

/// Where the next run's offsets, values and divisors start.
#[derive(Default)]
struct RunCursor {
    off: usize,
    val: usize,
    diag: usize,
}

/// The run kernel: each row `acc = src[row]; acc −= v_j·z[row + off_j]`
/// for its `k` entries in stored order, the first `K` unrolled, then
/// `z[row] = finish(acc, d)`, `d` read from `diag` (`None`: a unit
/// triangle, `d = 1.0`).
///
/// # Safety
/// `off`, `val` and `diag` address the run's `k` offsets, `k·len` values
/// and `len` divisors; every row and every `row + off_j` is in bounds of
/// `src` and `z` as [`LevelTri::run`] requires; only `K == FUSED` may see
/// `k > K`.
unsafe fn strided_rows<const K: usize, F: Fn(f64, f64) -> f64>(
    run: &StridedRun,
    off: *const isize,
    val: *const f64,
    diag: Option<*const f64>,
    src: *const f64,
    z: *mut f64,
    finish: &F,
) {
    let (len, stride, k) = (run.len as usize, run.stride as usize, run.k as usize);
    // SAFETY: as the function's contract states.
    unsafe {
        // Filled by a plain loop: whether `std::array::from_fn` inlines
        // depends on what shares its codegen unit.
        let (mut offs, mut vals) = ([0isize; K], [std::ptr::null::<f64>(); K]);
        for (j, (o, v)) in offs.iter_mut().zip(&mut vals).enumerate() {
            *o = *off.add(j);
            *v = val.add(j * len);
        }
        let mut row = run.row0 as usize;
        for t in 0..len {
            let zr = z.add(row);
            let mut acc = *src.add(row);
            for (&o, v) in offs.iter().zip(&vals) {
                acc -= *v.add(t) * *zr.offset(o);
            }
            if K == FUSED {
                for j in K..k {
                    acc -= *val.add(j * len + t) * *zr.offset(*off.add(j));
                }
            }
            let d = match diag {
                Some(d) => *d.add(t),
                None => 1.0,
            };
            *zr = finish(acc, d);
            row += stride;
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
mod tests;
