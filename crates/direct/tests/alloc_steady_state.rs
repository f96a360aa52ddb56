//! RSLU allocates at factor scope, not per solve: once the factors and
//! their workspace exist, `RsluSolver::solve_into` — two triangular
//! solves, two residuals and the refinement update — allocates nothing,
//! with and without equilibration.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rdirect::{RsluOptions, RsluSolver};

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
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
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
fn fifty_solves_allocate_nothing() {
    let (a, _) = rmesh::paper_problem(24).assemble_global();
    let n = a.rows();
    for equilibrate in [false, true] {
        let mut solver = RsluSolver::new(RsluOptions { equilibrate, ..Default::default() });
        solver.factorize(&a).unwrap();
        let rhs: Vec<Vec<f64>> =
            (0..50).map(|seed| rsparse::generate::random_vector(n, seed)).collect();
        let mut x = vec![0.0; n];
        let before = ALLOCS.with(Cell::get);
        for b in &rhs {
            solver.solve_into(b, &mut x).unwrap();
        }
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(allocs, 0, "equilibrate = {equilibrate}: {allocs} allocations in 50 solves");
        assert_eq!(solver.stats().solves, 50);
        assert!(solver.stats().backward_error < 1e-10);
    }
}
