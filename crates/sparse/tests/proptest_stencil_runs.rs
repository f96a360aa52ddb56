//! The split SpMV plan — stencil runs and compact remainder — against the
//! serial CSR product, bit for bit.
//!
//! The interior rows that repeat the row above shifted by one column are
//! stored diagonal-major without column indices; the kernels that walk
//! them must be indistinguishable from the compact `u32` kernel the other
//! rows go through. The matrices here are the ones the detection is for
//! (3-/5-/7-/9-point grids, dense bands up to eleven diagonals — past the
//! run kernel's fused width), the ones meant to trip it (emptied rows,
//! explicit stored zeros, grid lines of 15, 16 and 17 points around the
//! minimum run length, an offset set that changes mid-matrix, `x` with NaN
//! and ±Inf in it) and the generators' irregular ones, which have few runs
//! or none (multi-dof FEM blocks, skewed and scattered rows). On one rank
//! a row is summed in one order whatever the storage, so arbitrary reals
//! must agree; across ranks a boundary row sums "owned then ghost", so the
//! data is integer-valued there.
//!
//! (A `CsrMatrix` cannot hold unsorted or repeated columns inside a row;
//! those, and the build-time window checks, are unit tests in
//! `src/compact.rs`.)

use proptest::prelude::*;
use proptest::sample::select;
use rcomm::Universe;
use rsparse::generate::XorShift64;
use rsparse::{generate, BlockRowPartition, CsrMatrix, DistCsrMatrix, DistVector};

/// A grid stencil: point `(x, y, z)` of a `dims` grid (x fastest) couples
/// to every in-grid neighbour at one of `offsets`.
fn grid_pattern(dims: [usize; 3], offsets: &[[isize; 3]]) -> Vec<Vec<usize>> {
    let [nx, ny, nz] = dims;
    let mut rows = Vec::with_capacity(nx * ny * nz);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let mut cols: Vec<usize> = offsets
                    .iter()
                    .filter_map(|&[dx, dy, dz]| {
                        let (cx, cy, cz) = (
                            x.checked_add_signed(dx)?,
                            y.checked_add_signed(dy)?,
                            z.checked_add_signed(dz)?,
                        );
                        (cx < nx && cy < ny && cz < nz).then_some((cz * ny + cy) * nx + cx)
                    })
                    .collect();
                cols.sort_unstable();
                rows.push(cols);
            }
        }
    }
    rows
}

/// The centre point and its two neighbours along each of the first `axes`
/// axes: the 3-, 5- and 7-point stencils.
fn star(axes: usize) -> Vec<[isize; 3]> {
    let mut offsets = vec![[0, 0, 0]];
    for a in 0..axes {
        for d in [-1, 1] {
            let mut e = [0; 3];
            e[a] = d;
            offsets.push(e);
        }
    }
    offsets
}

/// The pattern families, by index; `m` is the grid line length (runs are
/// `m − 2` rows long on the grids).
fn pattern(kind: usize, m: usize) -> Vec<Vec<usize>> {
    match kind {
        0 => grid_pattern([m, 1, 1], &star(1)),
        1 => grid_pattern([m, m, 1], &star(2)),
        2 => grid_pattern([m, 5, 3], &star(3)),
        3 => {
            let box9: Vec<[isize; 3]> =
                (-1..=1).flat_map(|dy| (-1..=1).map(move |dx| [dx, dy, 0])).collect();
            grid_pattern([m, m, 1], &box9)
        }
        // Dense bands of 3 to 11 diagonals.
        4 => {
            let (n, bw) = (4 * m, 1 + m % 5);
            (0..n).map(|i| (i.saturating_sub(bw)..=(i + bw).min(n - 1)).collect()).collect()
        }
        // The offset set changes half-way down, with no row between.
        _ => {
            let n = 6 * m;
            (0..n)
                .map(|i| {
                    let offs: &[isize] = if i < n / 2 { &[-1, 0, 1] } else { &[-3, 0, 2, 4] };
                    offs.iter()
                        .filter_map(|&d| i.checked_add_signed(d).filter(|&c| c < n))
                        .collect()
                })
                .collect()
        }
    }
}

/// `rows` as a square matrix. Every `hole`-th row is emptied (0 = none);
/// about one stored value in five is an explicit zero when `zeros`; values
/// are small integers when `integral`, reals in (−1, 1) otherwise.
fn matrix(rows: &[Vec<usize>], hole: usize, zeros: bool, integral: bool, seed: u64) -> CsrMatrix {
    let mut rng = XorShift64::new(seed | 1);
    let mut row_ptr = vec![0];
    let (mut col_idx, mut values) = (Vec::new(), Vec::new());
    for (i, cols) in rows.iter().enumerate() {
        if hole == 0 || i % hole != hole - 1 {
            for &c in cols {
                col_idx.push(c);
                values.push(if zeros && rng.next_below(5) == 0 {
                    0.0
                } else if integral {
                    rng.next_below(17) as f64 - 8.0
                } else {
                    2.0 * rng.next_f64() - 1.0
                });
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_parts(rows.len(), rows.len(), row_ptr, col_idx, values).unwrap()
}

fn vector(n: usize, integral: bool, poisoned: bool, seed: u64) -> Vec<f64> {
    let mut rng = XorShift64::new(seed | 1);
    let mut x: Vec<f64> =
        (0..n)
            .map(|_| {
                if integral {
                    rng.next_below(17) as f64 - 8.0
                } else {
                    2.0 * rng.next_f64() - 1.0
                }
            })
            .collect();
    if poisoned {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            x[rng.next_below(n)] = bad;
        }
    }
    x
}

/// Equal bit for bit, any NaN equal to any NaN (which operand's payload an
/// addition of two NaNs keeps is the compiler's choice of operand order).
fn assert_bits_eq(got: &[f64], want: &[f64], tag: &str) {
    assert_eq!(got.len(), want.len(), "{tag}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{tag}: row {i}: {g:e} vs {w:e}"
        );
    }
}

/// `a·xs[q]` for every column through the distributed plan on `p` ranks —
/// single-vector and batched — against the serial product. Returns the
/// rows the plans stored as runs, summed over ranks.
fn check_against_serial(a: &CsrMatrix, xs: &[Vec<f64>], p: usize, tag: &str) -> usize {
    let n = a.rows();
    let k = xs.len();
    let want: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| {
            let mut y = vec![0.0; n];
            a.matvec_into(x, &mut y);
            y
        })
        .collect();
    Universe::run(p, |comm| {
        let part = BlockRowPartition::even(n, comm.size());
        let r = part.range(comm.rank());
        let da = DistCsrMatrix::from_global(comm, part.clone(), a).unwrap();
        assert!(da.stencil_row_count() <= da.interior_row_count());
        assert_eq!(da.interior_row_count() + da.boundary_row_count(), da.local_rows());
        let dx = DistVector::from_global(part.clone(), comm.rank(), &xs[0]).unwrap();
        let mut dy = DistVector::zeros(part, comm.rank());
        for _ in 0..2 {
            da.matvec_into(comm, &dx, &mut dy).unwrap();
        }
        assert_bits_eq(dy.local(), &want[0][r.clone()], &format!("{tag}, single"));
        let flat: Vec<f64> = xs.iter().flat_map(|x| x[r.clone()].to_vec()).collect();
        let mut ys = vec![f64::NAN; flat.len()];
        da.matvec_multi_into(comm, &flat, &mut ys, k).unwrap();
        for (q, w) in want.iter().enumerate() {
            let col = &ys[q * r.len()..(q + 1) * r.len()];
            assert_bits_eq(col, &w[r.clone()], &format!("{tag}, column {q} of {k}"));
        }
        da.stencil_row_count()
    })
    .into_iter()
    .sum()
}

proptest! {
    // Distributed cases spawn threads; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One rank, arbitrary reals, every batch width: the run kernel is
    /// `CsrMatrix::matvec_into` bit for bit, explicit zeros in the matrix
    /// included — and NaN and ±Inf in `x` too, since a run stores exactly
    /// the row's entries.
    #[test]
    fn one_rank_runs_equal_the_serial_product_bitwise_on_reals(
        kind in 0usize..6,
        m in select(vec![3usize, 17, 18, 19, 24]),
        hole in select(vec![0usize, 7, 20]),
        zeros in any::<bool>(),
        poisoned in any::<bool>(),
        k in select(vec![1usize, 3, 8, 11]),
        seed in any::<u64>(),
    ) {
        let a = matrix(&pattern(kind, m), hole, zeros, false, seed);
        let xs: Vec<Vec<f64>> =
            (0..k).map(|q| vector(a.rows(), false, poisoned, seed ^ (q as u64 + 1))).collect();
        check_against_serial(&a, &xs, 1, &format!("kind {kind}, m = {m}, hole {hole}"));
    }

    /// 1–8 ranks, integer-valued data: every order of summation is exact,
    /// so runs, compact remainder and boundary piece must all land on the
    /// serial product's bits.
    #[test]
    fn runs_equal_the_serial_product_bitwise_at_1_to_8_ranks(
        kind in 0usize..6,
        m in select(vec![3usize, 17, 18, 19, 24]),
        hole in select(vec![0usize, 7, 20]),
        zeros in any::<bool>(),
        p in 1usize..=8,
        k in select(vec![1usize, 3, 8, 11]),
        seed in any::<u64>(),
    ) {
        let a = matrix(&pattern(kind, m), hole, zeros, true, seed);
        let xs: Vec<Vec<f64>> =
            (0..k).map(|q| vector(a.rows(), true, false, seed ^ (q as u64 + 1))).collect();
        let tag = format!("kind {kind}, m = {m}, hole {hole}, p = {p}");
        check_against_serial(&a, &xs, p, &tag);
    }
}

/// Grid lines of 15, 16 and 17 points between the edges: the first is left
/// to the compact remainder, the other two are runs.
#[test]
fn the_minimum_run_length_is_sixteen_rows() {
    for (m, expect) in [(17usize, 0usize), (18, 18 * 16), (19, 19 * 17)] {
        let a = matrix(&pattern(1, m), 0, false, false, 3);
        let xs = [vector(a.rows(), false, false, 4)];
        assert_eq!(check_against_serial(&a, &xs, 1, &format!("m = {m}")), expect);
    }
}

/// The row patterns of the generators' matrices without stencil structure
/// to speak of — full 3×3 FEM blocks, a few very long rows among short
/// ones, uniformly scattered columns — beside two with runs (a nine-diagonal
/// band, the 5-point Laplacian). Long enough that a lone rank's pieces pass
/// the threading threshold. Cases are `(name, rows, expect runs)`; these
/// expect none.
fn generated_patterns() -> Vec<(&'static str, Vec<Vec<usize>>, bool)> {
    let rows_of = |a: CsrMatrix| (0..a.rows()).map(|i| a.row(i).0.to_vec()).collect();
    vec![
        ("fem_block", rows_of(generate::fem_block(28, 3, 2)), false),
        ("banded", rows_of(generate::banded(2_500, 4, 1)), false),
        ("skewed_csr", rows_of(generate::skewed_csr(2_500, 2_500, 3, 80, 3)), false),
        ("random_diag_dominant", rows_of(generate::random_diag_dominant(2_500, 6, 3)), false),
        ("laplacian_2d", rows_of(generate::laplacian_2d(50)), false),
    ]
}

/// Matrices of a few thousand rows on 1–4 ranks × every batch width: the
/// stencil grids, which a lone rank stores nearly whole as runs, and the
/// generated patterns, most of which go through the compact remainder.
#[test]
fn threaded_and_batched_products_equal_the_serial_product_bitwise() {
    let stencils = [
        ("5-point 70×70", pattern(1, 70), true),
        ("7-point 64×16×5", grid_pattern([64, 16, 5], &star(3)), true),
        ("9-point 70×70", pattern(3, 70), true),
        ("11 diagonals", pattern(4, 1249), true),
    ];
    for (name, rows, mostly_runs) in stencils.into_iter().chain(generated_patterns()) {
        for p in [1usize, 2, 3, 4] {
            let integral = p > 1;
            let a = matrix(&rows, 0, true, integral, 11);
            for k in [1usize, 3, 8, 11] {
                let xs: Vec<Vec<f64>> =
                    (0..k).map(|q| vector(a.rows(), integral, false, 20 + q as u64)).collect();
                let tag = format!("{name}, p = {p}");
                let in_runs = check_against_serial(&a, &xs, p, &tag);
                // Alone, a rank stores nearly every stencil row as a
                // run; a 3-D grid's rank boundary is a whole plane.
                if mostly_runs {
                    let least = if p == 1 { a.rows() * 8 / 10 } else { 1 };
                    assert!(in_runs >= least, "{tag}: {in_runs} rows in runs");
                }
            }
        }
    }
}

/// New values on the same pattern reach every piece: after `update_values`
/// the operator is the one a cold build of the new values plans — runs
/// re-classed constant or varying, compact rows re-read — and its product
/// is the serial product of the updated matrix.
#[test]
fn update_values_is_a_cold_build_of_the_new_values() {
    let stencils = [(1usize, 24usize), (3, 19), (4, 24), (5, 24)]
        .map(|(kind, m)| ("stencil", pattern(kind, m), true));
    for (name, rows, has_runs) in stencils.into_iter().chain(generated_patterns()) {
        for p in [1usize, 2, 3, 4] {
            let integral = p > 1;
            let a = matrix(&rows, 50, false, integral, 5);
            let b = matrix(&rows, 50, true, integral, 6);
            let n = a.rows();
            let x = vector(n, integral, false, 7);
            let mut want = vec![0.0; n];
            b.matvec_into(&x, &mut want);
            let in_runs: usize = Universe::run(p, |comm| {
                let part = BlockRowPartition::even(n, comm.size());
                let r = part.range(comm.rank());
                let mut da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
                da.update_values(b.row_block(r.start, r.end).unwrap().values()).unwrap();
                let cold = DistCsrMatrix::from_global(comm, part.clone(), &b).unwrap();
                assert!(da == cold, "{name}, p = {p}: refreshed plan differs from a cold build");
                let dx = DistVector::from_global(part, comm.rank(), &x).unwrap();
                let dy = da.matvec(comm, &dx).unwrap();
                assert_bits_eq(dy.local(), &want[r], &format!("{name}, p = {p}"));
                da.stencil_row_count()
            })
            .into_iter()
            .sum();
            // (A quarter of the smaller grids holds no stretch of sixteen
            // rows between a hole, a grid edge and a rank boundary.)
            if has_runs && p < 4 {
                assert!(in_runs > 0, "{name}, p = {p}");
            }
        }
    }
}

/// Blocks handed back by `repartition_block_rows` go through the ordinary
/// plan build: the rebuilt operator has its runs and the serial product.
#[test]
fn repartitioned_blocks_rebuild_their_runs_bitwise() {
    let a = matrix(&pattern(1, 24), 0, false, true, 8);
    let n = a.rows();
    let x = vector(n, true, false, 9);
    let mut want = vec![0.0; n];
    a.matvec_into(&x, &mut want);
    for p in [1usize, 2, 3] {
        Universe::run(p, |comm| {
            // A lopsided starting partition: rank 0 holds all but p − 1 rows.
            let mut counts = vec![1; p];
            counts[0] = n - (p - 1);
            let old = BlockRowPartition::from_counts(&counts).unwrap();
            let r = old.range(comm.rank());
            let local = a.row_block(r.start, r.end).unwrap();
            let (start, block, rhs) = DistCsrMatrix::repartition_block_rows(
                comm,
                r.start,
                &local,
                &x[r.clone()],
                None,
                n,
            )
            .unwrap();
            let part = BlockRowPartition::even(n, comm.size());
            assert_eq!(start, part.start_row(comm.rank()));
            assert_bits_eq(&rhs, &x[part.range(comm.rank())], "redistributed vector");
            let da = DistCsrMatrix::from_local_rows(comm, part.clone(), block).unwrap();
            let dx = DistVector::from_local(part.clone(), comm.rank(), rhs).unwrap();
            let dy = da.matvec(comm, &dx).unwrap();
            assert_bits_eq(dy.local(), &want[part.range(comm.rank())], &format!("p = {p}"));
            // 22-point stretches on every full grid line a rank owns.
            assert!(da.stencil_row_count() > 0, "p = {p}");
        });
    }
}
