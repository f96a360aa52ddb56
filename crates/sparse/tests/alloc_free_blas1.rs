//! The reduction kernels under the Krylov loops allocate nothing: `pdot`
//! (which used to heap-allocate its block partials on every call past one
//! block) and every fused form built on the same reducer. Neither does the
//! product they alternate with: a steady-state distributed matvec over
//! stencil runs, single or batched, on one rank and — halo exchange
//! included — on two (same counting allocator, so it lives here).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rsparse::dense::{self, DOT_BLOCK};

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

/// Allocations the calling thread makes while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn pdot_and_every_fused_kernel_allocate_nothing() {
    // One block, two blocks (the Figure 5 one-rank length), and 66 blocks.
    for n in [1000, 90_000, 65 * DOT_BLOCK + 17] {
        let x = vec![0.5f64; n];
        let z = vec![0.25f64; n];
        let mut y = vec![1.0f64; n];
        let mut sink = 0.0;
        let mut kernels = |sink: &mut f64| {
            *sink += dense::dot(&x[..1000], &z[..1000]);
            *sink += dense::pdot(&x, &z);
            *sink += dense::pdot2(&x, &x, &z).1;
            *sink += dense::axpy_norm2_sq(0.0, &x, &mut y);
            *sink += dense::axpy_pdot2(0.0, &x, &mut y, &z).1;
            dense::axpy2(0.0, &x, 0.0, &z, &mut y);
        };
        kernels(&mut sink);
        let allocs = allocs_during(|| kernels(&mut sink));
        assert_eq!(allocs, 0, "n = {n}");
        std::hint::black_box(sink);
    }
}

#[test]
fn steady_state_matvecs_over_stencil_runs_allocate_nothing() {
    use rsparse::{BlockRowPartition, DistCsrMatrix, DistVector};
    // 4 900 rows, 68 of every 70 in runs.
    let a = rsparse::generate::laplacian_2d(70);
    let n = a.rows();
    let k = 8;
    let xs = rsparse::generate::random_vector(k * n, 3);
    rcomm::Universe::run(1, |comm| {
        let part = BlockRowPartition::even(n, 1);
        let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
        assert_eq!(da.stencil_row_count(), 70 * 68);
        let dx = DistVector::from_global(part.clone(), 0, &xs[..n]).unwrap();
        let mut dy = DistVector::zeros(part, 0);
        let mut ys = vec![0.0; k * n];
        let mut matvecs = || {
            da.matvec_into(comm, &dx, &mut dy).unwrap();
            da.matvec_multi_into(comm, &xs, &mut ys, k).unwrap();
        };
        // First pass: the batched workspace is built.
        matvecs();
        let allocs = allocs_during(|| {
            for _ in 0..5 {
                matvecs();
            }
        });
        assert_eq!(allocs, 0);
    });
}

#[test]
fn steady_state_matvecs_on_two_ranks_allocate_nothing_on_either() {
    use rsparse::{BlockRowPartition, DistCsrMatrix, DistVector};
    // `sync_cg_2r`'s matrix: 512 rows a rank, one 32-value halo each way.
    let a = rsparse::generate::laplacian_2d(32);
    let n = a.rows();
    let k = 8;
    let xs = rsparse::generate::random_vector(k * n, 5);
    let allocs = rcomm::Universe::run(2, |comm| {
        let part = BlockRowPartition::even(n, 2);
        let r = part.range(comm.rank());
        let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
        assert_eq!(da.ghost_count(), 32);
        let xs: Vec<f64> =
            (0..k).flat_map(|q| xs[q * n..(q + 1) * n][r.clone()].to_vec()).collect();
        let dx = DistVector::from_local(part.clone(), comm.rank(), xs[..r.len()].to_vec()).unwrap();
        let mut dy = DistVector::zeros(part, comm.rank());
        let mut ys = vec![0.0; xs.len()];
        let mut matvecs = || {
            da.matvec_into(comm, &dx, &mut dy).unwrap();
            da.matvec_multi_into(comm, &xs, &mut ys, k).unwrap();
        };
        // First pass: the batched ghost slots and line buffers are sized.
        matvecs();
        allocs_during(|| {
            for _ in 0..50 {
                matvecs();
            }
        })
    });
    assert_eq!(allocs, [0, 0]);
}
