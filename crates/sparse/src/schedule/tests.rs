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
