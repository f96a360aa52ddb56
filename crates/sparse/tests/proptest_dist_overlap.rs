//! Property-based and structural tests for the communication-overlapped
//! distributed matvec: the interior/boundary split must reproduce the
//! serial product for arbitrary matrices at 1–8 ranks (including the
//! degenerate all-interior and all-boundary splits), and the persistent
//! halo lines and ghost slots must make repeated matvecs allocation-free,
//! whatever the pattern: a sender that runs ahead waits for room on its
//! line instead of allocating.
//!
//! The split pieces are stored compactly (`u32` columns in two index
//! spaces, gathered unchecked after one validation at plan build), so the
//! bitwise tests here are the ones that would catch a wrong index: on
//! integer-valued data every summation order is exact, and the compact
//! kernel and its batched twin must both equal the serial product bit for
//! bit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::collection::vec;
use proptest::prelude::*;
use rcomm::Universe;
use rsparse::{BlockRowPartition, CooMatrix, CsrMatrix, DistCsrMatrix, DistVector};

thread_local! {
    /// Allocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers to `System`; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it cannot allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn to_csr(n: usize, t: &[(usize, usize, f64)]) -> CsrMatrix {
    let r: Vec<usize> = t.iter().map(|e| e.0).collect();
    let c: Vec<usize> = t.iter().map(|e| e.1).collect();
    let v: Vec<f64> = t.iter().map(|e| e.2).collect();
    CooMatrix::from_triplets(n, n, &r, &c, &v).unwrap().to_csr()
}

/// Run `reps` overlapped matvecs at `p` ranks and return, per rank, the
/// gathered result, the allocations the rank made in all matvecs but the
/// first, and the split diagnostics.
fn run_dist_matvec(
    a: &CsrMatrix,
    x: &[f64],
    p: usize,
    reps: usize,
) -> Vec<(Vec<f64>, u64, usize, usize, usize)> {
    let n = a.rows();
    Universe::run(p, |comm| {
        let part = BlockRowPartition::even(n, comm.size());
        let da = DistCsrMatrix::from_global(comm, part.clone(), a).unwrap();
        let dx = DistVector::from_global(part.clone(), comm.rank(), x).unwrap();
        let mut dy = DistVector::zeros(part, comm.rank());
        da.matvec_into(comm, &dx, &mut dy).unwrap();
        let before = ALLOCS.with(Cell::get);
        for _ in 1..reps {
            da.matvec_into(comm, &dx, &mut dy).unwrap();
        }
        let allocs = ALLOCS.with(Cell::get) - before;
        (
            dy.allgather_full(comm).unwrap(),
            allocs,
            da.interior_row_count(),
            da.boundary_row_count(),
            da.local_rows(),
        )
    })
}

fn assert_bits_eq(got: &[f64], want: &[f64], tag: &str) {
    assert_eq!(got.len(), want.len(), "{tag}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{tag}: row {i}: {g:e} vs {w:e}");
    }
}

proptest! {
    // Distributed cases spawn threads; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn overlapped_matvec_matches_serial_at_1_to_8_ranks(
        (n, t) in (2usize..20).prop_flat_map(|n| {
            (Just(n), vec((0..n, 0..n, -10.0f64..10.0), 1..70))
        }),
        p in 1usize..=8,
        xseed in any::<u64>(),
    ) {
        let a = to_csr(n, &t);
        let x = rsparse::generate::random_vector(n, xseed);
        let expect = a.matvec(&x).unwrap();
        for (got, allocs, interior, boundary, local) in run_dist_matvec(&a, &x, p, 4) {
            // Every local row lands in exactly one half of the split.
            prop_assert_eq!(interior + boundary, local);
            // Asymmetric patterns too: a one-way sender waits for room on
            // its line, it does not grow anything.
            prop_assert_eq!(allocs, 0);
            for (g, e) in got.iter().zip(&expect) {
                prop_assert!((g - e).abs() < 1e-9 * (1.0 + e.abs()));
            }
        }
    }

    /// Integer-valued entries and inputs: every product and partial sum is
    /// exact, so the split product — whatever order a boundary row is
    /// summed in, single or batched — must equal the serial product bit for
    /// bit, and any wrong column, ghost slot or value shows as a different
    /// integer.
    #[test]
    fn compact_split_equals_serial_bitwise_on_exact_data(
        (n, t) in (2usize..24).prop_flat_map(|n| {
            (Just(n), vec((0..n, 0..n, -8i32..=8), 1..90))
        }),
        p in 1usize..=8,
        xseed in 0usize..1000,
    ) {
        let t: Vec<(usize, usize, f64)> =
            t.into_iter().map(|(i, j, v)| (i, j, v as f64)).collect();
        let a = to_csr(n, &t);
        let k = 3;
        let xs: Vec<Vec<f64>> = (0..k)
            .map(|q| (0..n).map(|i| ((i * 5 + xseed + q * 11) % 17) as f64 - 8.0).collect())
            .collect();
        let expect: Vec<Vec<f64>> = xs.iter().map(|x| a.matvec(x).unwrap()).collect();
        let tag = format!("n = {n}, p = {p}");
        for (got, ..) in run_dist_matvec(&a, &xs[0], p, 2) {
            assert_bits_eq(&got, &expect[0], &tag);
        }
        // The batched kernel: k columns through one halo exchange.
        let ys = Universe::run(p, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let r = part.range(comm.rank());
            let da = DistCsrMatrix::from_global(comm, part, &a).unwrap();
            let flat: Vec<f64> = xs.iter().flat_map(|x| x[r.clone()].to_vec()).collect();
            let mut ys = vec![f64::NAN; flat.len()];
            da.matvec_multi_into(comm, &flat, &mut ys, k).unwrap();
            (r, ys)
        });
        for (r, ys) in ys {
            for (q, want) in expect.iter().enumerate() {
                let col = &ys[q * r.len()..(q + 1) * r.len()];
                assert_bits_eq(col, &want[r.clone()], &format!("{tag}, column {q}"));
            }
        }
    }

    /// On one rank there is no ghost and a row is walked in its stored
    /// order, so arbitrary reals must match the serial product bitwise too.
    #[test]
    fn one_rank_split_equals_serial_bitwise_on_reals(
        (n, t) in (2usize..20).prop_flat_map(|n| {
            (Just(n), vec((0..n, 0..n, -10.0f64..10.0), 1..70))
        }),
        xseed in any::<u64>(),
    ) {
        let a = to_csr(n, &t);
        let x = rsparse::generate::random_vector(n, xseed);
        let expect = a.matvec(&x).unwrap();
        for (got, ..) in run_dist_matvec(&a, &x, 1, 2) {
            assert_bits_eq(&got, &expect, &format!("n = {n}"));
        }
    }
}

/// Block-diagonal w.r.t. an even partition: no row references a remote
/// column, so the boundary part must be empty and no halo is exchanged.
#[test]
fn empty_boundary_split_is_all_interior() {
    let n = 12;
    for p in [2usize, 3, 4] {
        let b = n / p;
        let t: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| {
                let block = (i / b) * b;
                let next = block + (i - block + 1) % b;
                [(i, i, 2.0 + i as f64), (i, next, -1.0)]
            })
            .collect();
        let a = to_csr(n, &t);
        let x: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let expect = a.matvec(&x).unwrap();
        for (got, allocs, interior, boundary, local) in run_dist_matvec(&a, &x, p, 3) {
            assert_eq!(boundary, 0, "p = {p}");
            assert_eq!(interior, local);
            assert_eq!(allocs, 0);
            // Interior rows keep their stored order: bitwise, any reals.
            assert_bits_eq(&got, &expect, &format!("p = {p}"));
        }
    }
}

/// Symmetric circulant coupling at block-size stride: with p ≥ 2 every row
/// references columns owned by both neighbouring ranks, so the interior
/// part must be empty and the overlap path degenerates to pure
/// halo-then-compute.
#[test]
fn all_boundary_split_has_no_interior_rows() {
    let n = 12;
    for p in [2usize, 3, 4] {
        let b = n / p;
        let t: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| [(i, i, 3.0), (i, (i + b) % n, 1.5), (i, (i + n - b) % n, 0.5)])
            .collect();
        let a = to_csr(n, &t);
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let expect = a.matvec(&x).unwrap();
        for (got, allocs, interior, boundary, local) in run_dist_matvec(&a, &x, p, 3) {
            assert_eq!(interior, 0, "p = {p}");
            assert_eq!(boundary, local);
            assert_eq!(allocs, 0);
            // Halves and small integers: every sum is exact, so the
            // "owned then ghost" order must still match bitwise.
            assert_bits_eq(&got, &expect, &format!("p = {p}"));
        }
    }
}

/// A long matvec sequence (a solver's worth) stays allocation-free and
/// keeps producing the right answer — the ghost slots and the lines'
/// buffers are not consumed or corrupted by reuse.
#[test]
fn steady_state_stays_allocation_free_over_many_matvecs() {
    let a = rsparse::generate::laplacian_2d(8);
    let n = a.rows();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
    let expect = a.matvec(&x).unwrap();
    for (got, allocs, ..) in run_dist_matvec(&a, &x, 4, 50) {
        assert_eq!(allocs, 0, "50 matvecs must reuse the workspace");
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-12);
        }
    }
}
