use super::*;
use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::generate;

type Row<'a> = (&'a [usize], &'a [f64]);

/// Strict lower rows of `a` (columns ascending).
fn strict_lower<'a>(a: &'a CsrMatrix) -> impl Fn(usize) -> Row<'a> + 'a {
    move |i| {
        let (cols, vals) = a.row(i);
        let end = cols.partition_point(|&c| c < i);
        (&cols[..end], &vals[..end])
    }
}

/// Strict upper rows of `a` (columns ascending).
fn strict_upper<'a>(a: &'a CsrMatrix) -> impl Fn(usize) -> Row<'a> + 'a {
    move |i| {
        let (cols, vals) = a.row(i);
        let start = cols.partition_point(|&c| c <= i);
        (&cols[start..], &vals[start..])
    }
}

fn diag_of(a: &CsrMatrix) -> impl Fn(usize) -> f64 + '_ {
    move |i| a.get(i, i)
}

/// The oracle's run detection: how many rows from the front of `rows`
/// (one level, ascending) share the first one's entry count, its offsets
/// and one stride, read from the rows themselves.
fn stretch_oracle<'a>(rows: &[u32], row: &impl Fn(usize) -> (&'a [usize], &'a [f64])) -> usize {
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

/// The build as it was before the runs were linked in the sweep-order
/// pass, kept as the oracle of the layout: it re-reads every row of a
/// level to find its runs. [`LevelTri::build`] must lay out every
/// triangle exactly as this does (`PartialEq`: slots, runs, offsets,
/// values and divisors).
fn build_oracle<'a>(
    triangle: Triangle,
    n: usize,
    row: impl Fn(usize) -> (&'a [usize], &'a [f64]),
    diag: Option<&dyn Fn(usize) -> f64>,
) -> SparseResult<LevelTri> {
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
                return Err(SparseError::IndexOutOfBounds { axis: "column", index: c, bound: n });
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
    let mut slots =
        Slots { level_ptr: Vec::with_capacity(level_ptr.len()), ptr: vec![0], ..Slots::default() };
    runs.level_ptr.push(0);
    slots.level_ptr.push(0);
    let mut kept = 0usize;
    for w in level_ptr.windows(2) {
        let (mut p, hi) = (w[0] as usize, w[1] as usize);
        while p < hi {
            let len = stretch_oracle(&order[p..hi], &row);
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
    LevelTri::from_parts(n, slots, runs)
}

/// The natural-order sweep the level-ordered one must equal: forward for
/// a lower triangle, backward for an upper one, dividing by `diag` when
/// given.
fn natural<'a>(
    triangle: Triangle,
    n: usize,
    row: impl Fn(usize) -> Row<'a>,
    diag: Option<&dyn Fn(usize) -> f64>,
    r: &[f64],
) -> Vec<f64> {
    let mut z = vec![0.0; n];
    let mut solve = |i: usize| {
        let (cols, vals) = row(i);
        let mut acc = r[i];
        for (&c, &v) in cols.iter().zip(vals) {
            acc -= v * z[c];
        }
        z[i] = match diag {
            Some(d) => acc / d(i),
            None => acc,
        };
    };
    match triangle {
        Triangle::Lower => (0..n).for_each(&mut solve),
        Triangle::Upper => (0..n).rev().for_each(&mut solve),
    }
    z
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Build the triangle and hold both sweep entry points against
/// [`natural`], for a random `r` and for `r` carrying NaN, +∞ or −∞.
fn assert_sweeps_bitwise<'a>(
    label: &str,
    triangle: Triangle,
    n: usize,
    row: &dyn Fn(usize) -> Row<'a>,
    diag: Option<&dyn Fn(usize) -> f64>,
) -> LevelTri {
    let tri = LevelTri::build(triangle, n, row, diag).unwrap();
    let finish = |acc: f64, d: f64| if diag.is_some() { acc / d } else { acc };
    let mut r = generate::random_vector(n, 17);
    for poison in [None, Some(f64::NAN), Some(f64::INFINITY), Some(f64::NEG_INFINITY)] {
        if let Some(p) = poison {
            r[n / 3] = p;
            r[n - 1 - n / 5] = p;
        }
        let want = natural(triangle, n, row, diag, &r);
        let mut got = vec![0.0; n];
        tri.sweep_from(&r, &mut got, finish);
        assert_eq!(bits(&got), bits(&want), "{label} {triangle:?}, poison {poison:?}");
        let mut in_place = r.clone();
        tri.sweep_in_place(&mut in_place, finish);
        assert_eq!(bits(&in_place), bits(&want), "{label} {triangle:?} in place");
    }
    tri
}

/// Every level's rows, runs first, then slots.
fn level_rows(tri: &LevelTri) -> Vec<Vec<usize>> {
    let (slots, runs) = (&tri.slots, &tri.runs);
    (0..tri.levels())
        .map(|l| {
            let of_runs = runs.level_ptr[l] as usize..runs.level_ptr[l + 1] as usize;
            let of_slots = slots.level_ptr[l] as usize..slots.level_ptr[l + 1] as usize;
            runs.runs[of_runs]
                .iter()
                .flat_map(StridedRun::rows)
                .chain(slots.rows[of_slots].iter().map(|&r| r as usize))
                .collect()
        })
        .collect()
}

/// The 5-point stencil's couplings `(dx, dy)`; each is stored with its
/// mirror.
const FIVE: &[(isize, isize)] = &[(1, 0), (0, 1)];
/// The 9-point stencil's.
const NINE: &[(isize, isize)] = &[(1, 0), (0, 1), (1, 1), (1, -1)];
/// Eleven couplings: rows of eleven entries on either side of the
/// diagonal, past the kernel's unrolled width.
const WIDE: &[(isize, isize)] =
    &[(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1)];

/// A diagonally dominant operator on the points `(x, y)` of an `m × m`
/// grid that `keep` keeps, numbered row-major, coupling each point to
/// `(x ± dx, y ± dy)` for every `(dx, dy)` of `stencil`. Every 7th
/// coupling is stored as an explicit zero.
fn grid(
    m: usize,
    stencil: &[(isize, isize)],
    keep: impl Fn(usize, usize) -> bool,
    seed: u64,
) -> CsrMatrix {
    let mut id = vec![None; m * m];
    let mut n = 0;
    for (point, slot) in id.iter_mut().enumerate() {
        if keep(point % m, point / m) {
            *slot = Some(n);
            n += 1;
        }
    }
    let side = 0..m as isize;
    let at = |x: isize, y: isize| {
        if side.contains(&x) && side.contains(&y) {
            id[y as usize * m + x as usize]
        } else {
            None
        }
    };
    let mut rng = generate::XorShift64::new(seed);
    let mut coo = CooMatrix::new(n, n);
    let mut count = 0usize;
    for point in 0..m * m {
        let (x, y) = ((point % m) as isize, (point / m) as isize);
        let Some(i) = at(x, y) else { continue };
        coo.push(i, i, 4.0 * stencil.len() as f64).unwrap();
        for &(dx, dy) in stencil {
            for (cx, cy) in [(x + dx, y + dy), (x - dx, y - dy)] {
                if let Some(j) = at(cx, cy) {
                    count += 1;
                    let v = if count.is_multiple_of(7) { 0.0 } else { rng.next_f64() - 0.5 };
                    coo.push(i, j, v).unwrap();
                }
            }
        }
    }
    coo.to_csr()
}

/// How far row `i`'s `len` entries are rotated left.
type Rotation = fn(usize, usize) -> usize;

/// `n` rows of a triangle as owned arrays, each row's entries rotated
/// left by `rotate(i, len)`.
fn rotated<'a>(
    n: usize,
    row: impl Fn(usize) -> Row<'a>,
    rotate: Rotation,
) -> Vec<(Vec<usize>, Vec<f64>)> {
    (0..n)
        .map(|i| {
            let (mut cols, mut vals) = (row(i).0.to_vec(), row(i).1.to_vec());
            if !cols.is_empty() {
                let by = rotate(i, cols.len()) % cols.len();
                cols.rotate_left(by);
                vals.rotate_left(by);
            }
            (cols, vals)
        })
        .collect()
}

/// Build one triangle with [`LevelTri::build`] and with [`build_oracle`]
/// and assert the two results equal: the same layout, or the same error.
fn assert_oracle_layout<'a>(
    label: &str,
    triangle: Triangle,
    n: usize,
    row: &dyn Fn(usize) -> Row<'a>,
    diag: Option<&dyn Fn(usize) -> f64>,
) {
    let got = LevelTri::build(triangle, n, row, diag);
    let want = build_oracle(triangle, n, row, diag);
    if let (Ok(g), Ok(w)) = (&got, &want) {
        assert_eq!(
            (g.run_rows(), g.runs.runs.len(), g.levels()),
            (w.run_rows(), w.runs.runs.len(), w.levels()),
            "{label} {triangle:?}: run rows, runs, levels"
        );
    }
    assert!(got == want, "{label} {triangle:?}: layout differs from the oracle");
}

/// The pattern of the `sptrsv/paper*` rows' convection–diffusion matrix
/// (the 5-point stencil of `laplacian_2d(m)`) with a convection term's
/// unequal west and east couplings. The ILU(0), IC(0) and SSOR layouts
/// depend only on the pattern; ILUT's drops need the non-symmetric values.
fn convection_2d(m: usize) -> CsrMatrix {
    let a = generate::laplacian_2d(m);
    let h = 1.0 / (m + 1) as f64;
    let mut values = a.values().to_vec();
    for i in 0..a.rows() {
        let span = a.row_ptr()[i]..a.row_ptr()[i + 1];
        for (k, &c) in span.clone().zip(&a.col_idx()[span]) {
            values[k] += if c + 1 == i {
                -1.5 * h
            } else if c == i + 1 {
                1.5 * h
            } else {
                0.0
            };
        }
    }
    let (row_ptr, col_idx) = (a.row_ptr().to_vec(), a.col_idx().to_vec());
    CsrMatrix::from_parts(a.rows(), a.cols(), row_ptr, col_idx, values).unwrap()
}

/// The matrices the `sptrsv/*` kernel rows sweep.
fn sweep_matrices() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("laplacian200", generate::laplacian_2d(200)),
        ("paper128", convection_2d(128)),
        ("paper300", convection_2d(300)),
        ("femb3", generate::fem_block(80, 3, 2)),
        ("tridiagonal40000", generate::laplacian_1d(40_000)),
        ("random", generate::random_diag_dominant(40_000, 4, 7)),
    ]
}

/// Rows as owned arrays, one `(columns, values)` pair a row.
type OwnedRows = Vec<(Vec<usize>, Vec<f64>)>;

/// Saad's ILUT(p, τ), written plainly: row `i` of `a` is eliminated
/// against the rows of U above it in ascending column order, entries at
/// or below τ·‖aᵢ‖₂ are dropped, and the `p` largest of each of L and U
/// are kept. Returns L's and U's strict rows (columns ascending) and U's
/// diagonal: a factor whose fill varies from row to row, which is what
/// the layout has to cope with.
fn ilut(a: &CsrMatrix, tau: f64, p: usize) -> (OwnedRows, OwnedRows, Vec<f64>) {
    let n = a.rows();
    let (mut lower, mut upper) = (Vec::new(), Vec::<Vec<(usize, f64)>>::new());
    let mut diag = Vec::<f64>::with_capacity(n);
    for i in 0..n {
        let (cols, vals) = a.row(i);
        // The work row, columns ascending.
        let mut w: Vec<(usize, f64)> = cols.iter().copied().zip(vals.iter().copied()).collect();
        let norm = vals.iter().map(|v| v * v).sum::<f64>().sqrt();
        let floor = tau * norm;
        let mut at = 0;
        while at < w.len() && w[at].0 < i {
            let (k, wk) = w[at];
            let lik = wk / diag[k];
            if lik.abs() <= floor {
                w.remove(at);
                continue;
            }
            w[at].1 = lik;
            for &(j, ukj) in &upper[k] {
                match w.binary_search_by_key(&j, |e| e.0) {
                    Ok(q) => w[q].1 -= lik * ukj,
                    Err(q) => w.insert(q, (j, 0.0 - lik * ukj)),
                }
            }
            at += 1;
        }
        let keep = |mut part: Vec<(usize, f64)>| {
            part.retain(|e| e.1.abs() > floor);
            part.sort_by(|x, y| y.1.abs().total_cmp(&x.1.abs()).then(x.0.cmp(&y.0)));
            part.truncate(p);
            part.sort_by_key(|e| e.0);
            part
        };
        let split = w.partition_point(|e| e.0 < i);
        let d = w.get(split).filter(|e| e.0 == i && e.1 != 0.0).map(|e| e.1);
        diag.push(d.unwrap_or(1e-4 * norm));
        let past = w.partition_point(|e| e.0 <= i);
        upper.push(keep(w[past..].to_vec()));
        w.truncate(split);
        lower.push(keep(w));
    }
    let owned = |rows: Vec<Vec<(usize, f64)>>| -> OwnedRows {
        rows.into_iter().map(|r| r.into_iter().unzip()).collect()
    };
    (owned(lower), owned(upper), diag)
}

#[test]
fn build_lays_out_ilu0_and_ssor_triangles_as_the_oracle() {
    for (label, a) in sweep_matrices() {
        let n = a.rows();
        let diag = diag_of(&a);
        // ILU(0)'s L (unit) and U, and SSOR's divided L: the factor's
        // pattern and entry order, A's values (both builds only copy them).
        assert_oracle_layout(label, Triangle::Lower, n, &strict_lower(&a), None);
        assert_oracle_layout(label, Triangle::Lower, n, &strict_lower(&a), Some(&diag));
        assert_oracle_layout(label, Triangle::Upper, n, &strict_upper(&a), Some(&diag));
    }
}

#[test]
fn build_lays_out_ic0_triangles_as_the_oracle() {
    for (label, a) in sweep_matrices() {
        let n = a.rows();
        // IC(0)'s L (columns ≤ i, diagonal last) and Lᵀ's rows, diagonal
        // first and the rest reversed, as `Ic0::new` hands them over.
        let lower: OwnedRows = (0..n)
            .map(|i| {
                let (cols, vals) = a.row(i);
                let end = cols.partition_point(|&c| c <= i);
                (cols[..end].to_vec(), vals[..end].to_vec())
            })
            .collect();
        let l_diag = |i: usize| *lower[i].1.last().unwrap();
        let fwd = |i: usize| {
            let k = lower[i].0.len() - 1;
            (&lower[i].0[..k], &lower[i].1[..k])
        };
        assert_oracle_layout(label, Triangle::Lower, n, &fwd, Some(&l_diag));
        let mut t: OwnedRows = vec![(Vec::new(), Vec::new()); n];
        for (i, (cols, vals)) in lower.iter().enumerate() {
            for (&c, &v) in cols.iter().zip(vals).rev().skip(1) {
                t[c].0.push(i);
                t[c].1.push(v);
            }
        }
        for (cols, vals) in &mut t {
            cols.reverse();
            vals.reverse();
        }
        let bwd = |c: usize| (&t[c].0[..], &t[c].1[..]);
        assert_oracle_layout(label, Triangle::Upper, n, &bwd, Some(&l_diag));
    }
}

#[test]
fn build_lays_out_ilut_triangles_as_the_oracle() {
    for (label, a) in sweep_matrices() {
        let n = a.rows();
        let (lower, upper, diag) = ilut(&a, 1e-3, 10);
        let fwd = |i: usize| (&lower[i].0[..], &lower[i].1[..]);
        let bwd = |i: usize| (&upper[i].0[..], &upper[i].1[..]);
        assert_oracle_layout(label, Triangle::Lower, n, &fwd, None);
        assert_oracle_layout(label, Triangle::Upper, n, &bwd, Some(&|i| diag[i]));
    }
}

/// Random strict rows of an `n`-row triangle: about a quarter empty, half
/// taking one of three offset patterns (so runs form and break), the rest
/// random columns in random order, some of them stored zeros.
fn random_triangle(triangle: Triangle, n: usize, seed: u64) -> OwnedRows {
    const PATTERNS: [&[usize]; 3] = [&[1], &[1, 9], &[9, 1, 17]];
    let mut rng = generate::XorShift64::new(seed);
    (0..n)
        .map(|i| {
            let side = match triangle {
                Triangle::Lower => i,
                Triangle::Upper => n - 1 - i,
            };
            let at = |d: usize| match triangle {
                Triangle::Lower => i - d,
                Triangle::Upper => i + d,
            };
            let mut cols: Vec<usize> = match rng.next_below(4) {
                0 => Vec::new(),
                1 | 2 => {
                    let pattern = PATTERNS[rng.next_below(PATTERNS.len())];
                    pattern.iter().filter(|&&d| d <= side).map(|&d| at(d)).collect()
                }
                _ if side == 0 => Vec::new(),
                _ => (0..rng.next_below(5)).map(|_| at(1 + rng.next_below(side))).collect(),
            };
            cols.sort_unstable();
            cols.dedup();
            if rng.next_below(2) == 0 {
                cols.reverse();
            }
            let vals = cols
                .iter()
                .map(|_| if rng.next_below(7) == 0 { 0.0 } else { rng.next_f64() - 0.5 })
                .collect();
            (cols, vals)
        })
        .collect()
}

#[test]
fn build_lays_out_random_patterns_with_empty_rows_as_the_oracle() {
    for (seed, n) in [(1u64, 1usize), (2, 7), (3, 64), (4, 500), (5, 3000)] {
        for triangle in [Triangle::Lower, Triangle::Upper] {
            let rows = random_triangle(triangle, n, seed);
            assert!(n < 64 || rows.iter().any(|r| r.0.is_empty()), "seed {seed}: no empty row");
            let row = |i: usize| (&rows[i].0[..], &rows[i].1[..]);
            let label = format!("seed {seed}, n = {n}");
            assert_oracle_layout(&label, triangle, n, &row, None);
            assert_oracle_layout(&label, triangle, n, &row, Some(&|i| 2.0 + i as f64));
        }
    }
}

#[test]
fn a_single_offset_breaks_a_run() {
    // Rows 0–7 read nothing (level 1); rows 8–15 read two of them (level
    // 2), at offsets −8 and −7 — but row 12 reads −8 and −6. It has the
    // same entry count as the rows around it and one offset apart, so
    // rows 8–11 run and 12–15 stay in slots.
    let cols: Vec<Vec<usize>> = (0..16)
        .map(|i| match i {
            0..8 => vec![],
            12 => vec![4, 6],
            _ => vec![i - 8, i - 7],
        })
        .collect();
    let vals: Vec<Vec<f64>> =
        cols.iter().map(|c| c.iter().map(|&c| 0.5 + c as f64).collect()).collect();
    let row = |i: usize| (&cols[i][..], &vals[i][..]);
    assert_oracle_layout("one offset apart", Triangle::Lower, 16, &row, None);
    let tri = LevelTri::build(Triangle::Lower, 16, row, None).unwrap();
    let run = |row0, len, k| StridedRun { row0, stride: 1, len, k };
    assert_eq!(tri.runs.runs, [run(0, 8, 0), run(8, 4, 2)]);
    assert_eq!(tri.runs.offsets, [-8, -7]);
    assert_eq!(tri.slots.rows, [12, 13, 14, 15]);
    assert_eq!(tri.slots.col, [4, 6, 5, 6, 6, 7, 7, 8]);
}

#[test]
fn levels_respect_dependencies_and_cover_every_row_once() {
    let a = generate::laplacian_2d(9);
    let tri = LevelTri::build(Triangle::Lower, 81, strict_lower(&a), None).unwrap();
    assert_eq!(tri.levels(), 17, "anti-diagonals of a 9 × 9 grid");
    assert_eq!(tri.width_histogram().iter().sum::<usize>(), tri.levels());
    let levels = level_rows(&tri);
    let mut level_of = vec![0usize; 81];
    for (l, rows) in levels.iter().enumerate() {
        for &r in rows {
            level_of[r] = l;
        }
    }
    for i in 0..81 {
        for &c in strict_lower(&a)(i).0 {
            assert!(level_of[c] < level_of[i], "row {i} dep {c}");
        }
    }
    let mut seen = levels.concat();
    seen.sort_unstable();
    assert_eq!(seen, (0..81).collect::<Vec<_>>());
}

#[test]
fn a_chain_degenerates_to_natural_order() {
    let a = generate::laplacian_1d(500);
    let fwd = LevelTri::build(Triangle::Lower, 500, strict_lower(&a), None).unwrap();
    assert_eq!(fwd.levels(), 500);
    assert_eq!(fwd.run_rows(), 0, "one row per level: nothing to run");
    assert_eq!(fwd.slots.rows, (0..500).collect::<Vec<u32>>());
    let bwd = LevelTri::build(Triangle::Upper, 500, strict_upper(&a), Some(&diag_of(&a))).unwrap();
    assert_eq!(bwd.slots.rows, (0..500).rev().collect::<Vec<u32>>());
    // No dependencies at all: one level holding every row, one run.
    let none = LevelTri::build(Triangle::Lower, 500, |_| (&[][..], &[][..]), None).unwrap();
    assert_eq!(none.levels(), 1);
    assert_eq!(none.width_histogram(), [0, 0, 0, 0, 1]);
    let whole = StridedRun { row0: 0, stride: 1, len: 500, k: 0 };
    assert_eq!(none.runs.runs, [whole]);
}

#[test]
fn runs_cover_a_grid_triangle_but_its_edges_and_shortest_levels() {
    for m in [9usize, 40, 200] {
        let a = generate::laplacian_2d(m);
        let n = m * m;
        let fwd = LevelTri::build(Triangle::Lower, n, strict_lower(&a), None).unwrap();
        let bwd =
            LevelTri::build(Triangle::Upper, n, strict_upper(&a), Some(&diag_of(&a))).unwrap();
        // The (m − 1)² points with both neighbours on the swept side lie
        // on anti-diagonals of 1, 2, …, m − 1, …, 2, 1 points; the
        // MIN_RUN − 1 shortest at either end stay in slots, as do the edge
        // points, which read one neighbour.
        let want = (m - 1) * (m - 1) - MIN_RUN * (MIN_RUN - 1);
        let m_off = m as isize;
        for (tri, offsets) in [(&fwd, [-m_off, -1]), (&bwd, [1, m_off])] {
            assert_eq!(tri.run_rows(), want, "m = {m}");
            assert!(tri.runs.runs.iter().all(|s| s.stride as usize == m - 1 && s.k == 2));
            assert!(tri.runs.offsets.chunks(2).all(|o| o == &offsets[..]));
            assert_eq!(tri.nnz(), 2 * n - 2 * m);
        }
        if m == 200 {
            assert!(want * 100 >= 98 * n, "{want} of {n} rows in runs");
        }
    }
}

#[test]
fn sweep_is_bitwise_the_natural_order_loop() {
    for a in [
        generate::laplacian_2d(1),
        generate::laplacian_2d(2),
        generate::laplacian_2d(7),
        generate::laplacian_2d(30),
        generate::laplacian_1d(64),
        generate::fem_block(4, 3, 5),
        generate::random_diag_dominant(60, 5, 8),
    ] {
        let n = a.rows();
        let diag = diag_of(&a);
        for diag in [None, Some(&diag as &dyn Fn(usize) -> f64)] {
            assert_sweeps_bitwise("matrix", Triangle::Lower, n, &strict_lower(&a), diag);
            assert_sweeps_bitwise("matrix", Triangle::Upper, n, &strict_upper(&a), diag);
        }
    }
}

#[test]
fn grid_runs_sweep_bitwise_in_every_entry_order() {
    let full = |_: usize, _: usize| true;
    let holes = |x: usize, y: usize| !(x * 7 + y * 3).is_multiple_of(11);
    // Entries ascending, the same rotation in every row (runs keep), and a
    // rotation that varies from row to row (runs break).
    let orders: [(&str, Rotation); 3] =
        [("sorted", |_, _| 0), ("rotated", |_, _| 1), ("shuffled", |i, len| i % len)];
    for (label, a, covered) in [
        ("5-point", grid(13, FIVE, full, 1), true),
        ("9-point", grid(13, NINE, full, 2), true),
        ("wide", grid(15, WIDE, full, 3), true),
        ("5-point with holes", grid(17, FIVE, holes, 4), false),
        ("9-point with holes", grid(17, NINE, holes, 5), false),
    ] {
        let n = a.rows();
        let diag = diag_of(&a);
        for triangle in [Triangle::Lower, Triangle::Upper] {
            let strict = |i: usize| match triangle {
                Triangle::Lower => strict_lower(&a)(i),
                Triangle::Upper => strict_upper(&a)(i),
            };
            for (order, rotate) in orders {
                let rows = rotated(n, strict, rotate);
                let row = |i: usize| (&rows[i].0[..], &rows[i].1[..]);
                for diag in [None, Some(&diag as &dyn Fn(usize) -> f64)] {
                    let label = format!("{label}, {order}, divided {}", diag.is_some());
                    let tri = assert_sweeps_bitwise(&label, triangle, n, &row, diag);
                    if covered && order != "shuffled" {
                        assert!(2 * tri.run_rows() > n, "{label}: {}", tri.run_rows());
                        assert!(tri.run_rows() < n, "{label}: edges stay in slots");
                    }
                    if label.starts_with("wide, sorted") {
                        assert!(tri.runs.runs.iter().any(|s| s.k == 11), "{label}");
                    }
                }
            }
        }
    }
}

#[test]
fn a_hole_breaks_a_level_into_two_runs() {
    // Point (6, 6) is missing from a 16 × 16 grid. Anti-diagonal 12 (level
    // 12 of the forward sweep) loses its middle, and (5, 7), whose south
    // neighbour the hole now sits between in the numbering, reads at −15
    // instead of −16 and is a slot.
    let a = grid(16, FIVE, |x, y| (x, y) != (6, 6), 1);
    let n = a.rows();
    assert_eq!(n, 255);
    let tri = LevelTri::build(Triangle::Lower, n, strict_lower(&a), None).unwrap();
    let runs = &tri.runs;
    let level = |l: usize| &runs.runs[runs.level_ptr[l] as usize..runs.level_ptr[l + 1] as usize];
    assert_eq!(level(25).len(), 1, "far from the hole: one run");
    assert_eq!(level(12).iter().map(|s| s.len).collect::<Vec<_>>(), [5, 4]);
    assert!(tri.run_rows() < 15 * 15 - MIN_RUN * (MIN_RUN - 1));
}

#[test]
fn unsorted_columns_and_stored_zeros_keep_their_order() {
    // Row 3 subtracts columns 2, 0, 1 in that order, one of them through
    // an explicit zero; reordering them would change the rounding.
    let cols: [&[usize]; 4] = [&[], &[0], &[1, 0], &[2, 0, 1]];
    let vals: [&[f64]; 4] = [&[], &[1e-17], &[0.0, 3.0], &[1e16, 1.0, -1e16]];
    let row = |i: usize| (cols[i], vals[i]);
    let tri = LevelTri::build(Triangle::Lower, 4, row, None).unwrap();
    let r = [1.0, 1.0, 0.1, 0.3];
    let want = natural(Triangle::Lower, 4, row, None, &r);
    let mut got = [0.0; 4];
    tri.sweep_from(&r, &mut got, |acc, _| acc);
    assert_eq!(bits(&got), bits(&want));
}

#[test]
fn empty_and_single_row_triangles_sweep() {
    let empty = LevelTri::build(Triangle::Upper, 0, |_| (&[][..], &[][..]), None).unwrap();
    assert_eq!((empty.levels(), empty.nnz()), (0, 0));
    empty.sweep_in_place(&mut [], |acc, _| acc);
    let one = LevelTri::build(Triangle::Lower, 1, |_| (&[][..], &[][..]), Some(&|_| 4.0)).unwrap();
    let mut z = [0.0];
    one.sweep_from(&[2.0], &mut z, |acc, d| acc / d);
    assert_eq!(z, [0.5]);
}

#[test]
fn build_rejects_what_the_sweep_could_not_follow() {
    const ONE: &[f64] = &[1.0];
    let only = |at: usize, cols: &'static [usize]| {
        move |i: usize| {
            if i == at {
                (cols, ONE)
            } else {
                (&[][..], &[][..])
            }
        }
    };
    // A column past the end.
    let err = LevelTri::build(Triangle::Upper, 3, only(0, &[3]), None);
    assert_eq!(err, Err(SparseError::IndexOutOfBounds { axis: "column", index: 3, bound: 3 }));
    // A "lower" entry on or above the diagonal.
    let err = LevelTri::build(Triangle::Lower, 3, only(1, &[1]), None);
    assert_eq!(err, Err(SparseError::BadSweepOrder { row: 1, col: 1 }));
    let err = LevelTri::build(Triangle::Lower, 3, only(1, &[2]), None);
    assert_eq!(err, Err(SparseError::BadSweepOrder { row: 1, col: 2 }));
    // An "upper" entry below the diagonal.
    let err = LevelTri::build(Triangle::Upper, 3, only(2, &[0]), None);
    assert_eq!(err, Err(SparseError::BadSweepOrder { row: 2, col: 0 }));
    // Columns and values of different lengths.
    let err = LevelTri::build(Triangle::Lower, 2, |_| (&[][..], ONE), None);
    assert!(matches!(err, Err(SparseError::LengthMismatch { .. })));
}

#[test]
fn sizes_beyond_u32_are_typed_errors_before_any_allocation() {
    let too_many_rows = u32::MAX as usize;
    let err = LevelTri::build(Triangle::Lower, too_many_rows, |_| (&[][..], &[][..]), None);
    assert!(matches!(err, Err(SparseError::IndexOutOfBounds { axis: "triangular sweep row", .. })));
    // 4097 rows sharing one 2²⁰-entry slice: 2³² + 2²⁰ entries.
    let cols = vec![0usize; 1 << 20];
    let vals = vec![0.0f64; 1 << 20];
    let err = LevelTri::build(Triangle::Lower, 4097, |_| (&cols[..], &vals[..]), None);
    assert!(matches!(
        err,
        Err(SparseError::IndexOutOfBounds { axis: "triangular sweep entry", .. })
    ));
}

/// Slots only, with as many (empty) run levels as slot levels.
fn slots_only(n: usize, slots: Slots) -> SparseResult<LevelTri> {
    let runs = Runs { level_ptr: vec![0; slots.level_ptr.len()], ..Runs::default() };
    LevelTri::from_parts(n, slots, runs)
}

/// Two rows, row 1 reading row 0, as level-ordered slots.
fn two_rows() -> Slots {
    Slots {
        level_ptr: vec![0, 1, 2],
        rows: vec![0, 1],
        ptr: vec![0, 0, 1],
        col: vec![0],
        val: vec![0.5],
        diag: vec![],
    }
}

#[test]
fn from_parts_rejects_every_broken_invariant() {
    let good = two_rows();
    assert!(slots_only(2, good.clone()).is_ok());
    // Both rows in one level: the dependency is no longer earlier.
    let one_level = Slots { level_ptr: vec![0, 2], ..good.clone() };
    assert_eq!(slots_only(2, one_level), Err(SparseError::BadSweepOrder { row: 1, col: 0 }));
    // The dependency in a later level.
    let later = Slots { rows: vec![1, 0], ptr: vec![0, 1, 1], ..good.clone() };
    assert_eq!(slots_only(2, later), Err(SparseError::BadSweepOrder { row: 1, col: 0 }));
    // Non-monotone and mis-terminated pointers.
    for ptr in [vec![0, 1, 0], vec![1, 1, 1], vec![0, 0, 2]] {
        let err = slots_only(2, Slots { ptr, ..good.clone() });
        assert!(matches!(err, Err(SparseError::MalformedPointers(_))), "{err:?}");
    }
    for level_ptr in [vec![0, 2, 1], vec![0, 1], vec![]] {
        let err = slots_only(2, Slots { level_ptr, ..good.clone() });
        assert!(matches!(err, Err(SparseError::MalformedPointers(_))), "{err:?}");
    }
    // A column, then a row, past the end; a row scheduled twice.
    let err = slots_only(2, Slots { col: vec![2], ..good.clone() });
    assert_eq!(err, Err(SparseError::IndexOutOfBounds { axis: "column", index: 2, bound: 2 }));
    let err = slots_only(2, Slots { rows: vec![0, 2], ..good.clone() });
    assert_eq!(err, Err(SparseError::IndexOutOfBounds { axis: "row", index: 2, bound: 2 }));
    let err = slots_only(2, Slots { rows: vec![0, 0], ..good.clone() });
    assert!(matches!(err, Err(SparseError::MalformedPointers(_))));
    // Array lengths that disagree.
    for slots in [
        Slots { val: vec![], ..good.clone() },
        Slots { diag: vec![1.0], ..good.clone() },
        Slots { rows: vec![0], ..good.clone() },
    ] {
        let err = slots_only(2, slots);
        assert!(matches!(err, Err(SparseError::LengthMismatch { .. })), "{err:?}");
    }
    // Run levels that are not the slots' levels.
    let runs = Runs { level_ptr: vec![0, 0], ..Runs::default() };
    let err = LevelTri::from_parts(2, good, runs);
    assert!(matches!(err, Err(SparseError::LengthMismatch { .. })), "{err:?}");
}

/// Eight rows in two levels of one run each: rows 0–3 read nothing, rows
/// 4–7 each read the row four before them.
fn two_runs() -> Runs {
    let run = |row0, k| StridedRun { row0, stride: 1, len: 4, k };
    Runs {
        level_ptr: vec![0, 1, 2],
        runs: vec![run(0, 0), run(4, 1)],
        offsets: vec![-4],
        val: vec![0.5, -0.25, 2.0, 1e-3],
        diag: vec![],
    }
}

/// No slot in either of two levels.
fn no_slots() -> Slots {
    Slots { level_ptr: vec![0, 0, 0], ptr: vec![0], ..Slots::default() }
}

#[test]
fn from_parts_runs_sweep_like_their_rows() {
    let tri = LevelTri::from_parts(8, no_slots(), two_runs()).unwrap();
    assert_eq!((tri.run_rows(), tri.nnz(), tri.levels()), (8, 4, 2));
    let r = generate::random_vector(8, 5);
    let mut want = r.clone();
    for (t, v) in [0.5, -0.25, 2.0, 1e-3].into_iter().enumerate() {
        want[4 + t] -= v * want[t];
    }
    let mut got = vec![0.0; 8];
    tri.sweep_from(&r, &mut got, |acc, _| acc);
    assert_eq!(bits(&got), bits(&want));
}

#[test]
fn from_parts_rejects_every_broken_run_invariant() {
    let good = two_runs();
    let second = good.runs[1];
    let with_second = |second: StridedRun, offset: isize| Runs {
        runs: vec![good.runs[0], second],
        offsets: vec![offset],
        val: vec![1.0; second.len as usize],
        ..good.clone()
    };
    let build = |slots: Slots, runs: Runs| LevelTri::from_parts(8, slots, runs);
    // A run that reads its own level (row 5 reads row 4), and one that
    // reads itself.
    let err = build(no_slots(), with_second(second, -1));
    assert_eq!(err, Err(SparseError::BadSweepOrder { row: 5, col: 4 }));
    let err = build(no_slots(), with_second(second, 0));
    assert_eq!(err, Err(SparseError::BadSweepOrder { row: 4, col: 4 }));
    // A run that reads a later level: the first run reads the second.
    let later = Runs {
        runs: vec![StridedRun { k: 1, ..good.runs[0] }, StridedRun { k: 0, ..second }],
        offsets: vec![4],
        ..good.clone()
    };
    let err = build(no_slots(), later);
    assert_eq!(err, Err(SparseError::BadSweepOrder { row: 0, col: 4 }));
    // A run past n: rows 4, 6, 8, 10.
    let err = build(no_slots(), with_second(StridedRun { stride: 2, ..second }, -4));
    assert_eq!(err, Err(SparseError::IndexOutOfBounds { axis: "row", index: 10, bound: 8 }));
    // A column past n, and one before 0.
    let err = build(no_slots(), with_second(second, 4));
    assert_eq!(err, Err(SparseError::IndexOutOfBounds { axis: "column", index: 8, bound: 8 }));
    let err = build(no_slots(), with_second(second, -5));
    assert!(matches!(err, Err(SparseError::IndexOutOfBounds { axis: "column", .. })), "{err:?}");
    // Row 0 in a run and in a slot (and row 7 in neither).
    let slots =
        Slots { level_ptr: vec![0, 0, 1], rows: vec![0], ptr: vec![0, 0], ..Slots::default() };
    let err = build(slots, with_second(StridedRun { len: 3, ..second }, -4));
    assert!(matches!(err, Err(SparseError::MalformedPointers(_))), "{err:?}");
    // Rows covered by neither.
    let err = LevelTri::from_parts(9, no_slots(), good.clone());
    assert!(matches!(err, Err(SparseError::LengthMismatch { .. })), "{err:?}");
    // Offsets, values or divisors the runs do not account for.
    for runs in [
        Runs { offsets: vec![], ..good.clone() },
        Runs { val: vec![1.0; 5], ..good.clone() },
        Runs { diag: vec![1.0; 7], ..good.clone() },
    ] {
        let err = build(no_slots(), runs);
        assert!(matches!(err, Err(SparseError::LengthMismatch { .. })), "{err:?}");
    }
    // Run levels out of order.
    let err = build(no_slots(), Runs { level_ptr: vec![0, 2, 1], ..good });
    assert!(matches!(err, Err(SparseError::MalformedPointers(_))), "{err:?}");
}
