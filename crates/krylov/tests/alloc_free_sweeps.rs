//! Warm ILU(0), IC(0), SSOR and Jacobi applies allocate nothing: a sweep
//! reads its two level-ordered triangles and writes `z` — no scratch
//! vector, no permutation, no per-apply workspace — and a Jacobi apply
//! reads `r` (and one inverse a row unless the diagonal is uniform).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rcomm::Universe;
use rkrylov::{Ic0, Ilu0, Jacobi, Preconditioner, Ssor};
use rsparse::dense::DiagonalScale;
use rsparse::{BlockRowPartition, DistVector};

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

#[test]
fn warm_sweep_applies_allocate_nothing() {
    // Most rows in strided runs, the grid's edges in indexed slots: both
    // paths of the sweep run.
    let a = rsparse::generate::laplacian_2d(60);
    let n = a.rows();
    let r = rsparse::generate::random_vector(n, 3);
    let ilu = Ilu0::new(&a).unwrap();
    let ic = Ic0::new(&a).unwrap();
    let ssor = Ssor::new(&a, 1.2).unwrap();
    let applies = |z: &mut [f64]| {
        ilu.solve_local(&r, z);
        ic.solve_local(&r, z);
        ssor.solve_local(&r, z);
    };
    let mut z = vec![0.0; n];
    // First pass: the probe's per-thread state is set up.
    applies(&mut z);
    let before = ALLOCS.with(Cell::get);
    for _ in 0..5 {
        applies(&mut z);
    }
    assert_eq!(ALLOCS.with(Cell::get) - before, 0);
    std::hint::black_box(&z);
}

#[test]
fn warm_jacobi_applies_allocate_nothing() {
    let n = 3600;
    let uniform = vec![4.0; n];
    let per_row: Vec<f64> = (0..n).map(|i| 4.0 + i as f64 / n as f64).collect();
    assert!(DiagonalScale::new(uniform.clone()).unwrap().is_uniform());
    assert!(!DiagonalScale::new(per_row.clone()).unwrap().is_uniform());
    let out = Universe::run(1, |comm| {
        let part = BlockRowPartition::even(n, 1);
        let values = rsparse::generate::random_vector(n, 3);
        let r = DistVector::from_local(part.clone(), 0, values).unwrap();
        let mut z = DistVector::zeros(part, 0);
        let mut allocs = Vec::new();
        for diagonal in [&uniform, &per_row] {
            let pc = Jacobi::new(diagonal.clone()).unwrap();
            pc.apply(comm, &r, &mut z).unwrap();
            let before = ALLOCS.with(Cell::get);
            for _ in 0..5 {
                pc.apply(comm, &r, &mut z).unwrap();
            }
            allocs.push(ALLOCS.with(Cell::get) - before);
        }
        std::hint::black_box(&z);
        allocs
    });
    assert_eq!(out[0], vec![0, 0], "uniform, per-row");
}
