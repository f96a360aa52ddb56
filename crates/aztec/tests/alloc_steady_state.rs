//! RAztec's loops and preconditioners allocate at solve scope only: the
//! number of allocations inside `AztecOO::iterate` does not depend on how
//! many iterations — or, for GMRES, how many restart cycles — the solve
//! runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use raztec::{
    AzConv, AzPrecond, AzSolver, AzWhy, AztecOO, AztecOptions, CrsMatrix, RowMatrix, Vector,
};
use rcomm::Universe;

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

/// Allocations the rank's thread makes inside one `iterate` that stops on
/// `max_iter`, and the iterations it ran.
fn allocs_in_iterate(solver: AzSolver, precond: AzPrecond, max_iter: usize) -> (u64, usize) {
    let (a, _) = rmesh::paper_problem(40).assemble_global();
    let b = rsparse::generate::random_vector(a.rows(), 17);
    let out = Universe::run(1, |comm| {
        let m = CrsMatrix::from_global(comm, &a).unwrap();
        let bv = Vector::from_global(m.row_map().clone(), &b).unwrap();
        let mut az = AztecOO::new(&m);
        az.set_options(AztecOptions {
            solver,
            precond,
            conv: AzConv::Rhs,
            tol: 0.0,
            max_iter,
            kspace: 10,
            stall_window: 0,
        });
        // One solve first: the matrix's matvec workspace primes itself.
        let mut xv = Vector::new(m.row_map().clone());
        az.iterate(comm, &bv, &mut xv).unwrap();
        let mut xv = Vector::new(m.row_map().clone());
        let before = ALLOCS.with(Cell::get);
        let status = az.iterate(comm, &bv, &mut xv).unwrap();
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(status.why, AzWhy::Maxits, "{solver:?}: the solve must run its full length");
        (allocs, status.its)
    });
    out[0]
}

#[test]
fn no_loop_allocates_per_iteration_or_per_restart() {
    for solver in
        [AzSolver::Gmres, AzSolver::Cg, AzSolver::BiCgStab, AzSolver::Cgs, AzSolver::Tfqmr]
    {
        // GMRES(10): 4 restart cycles against 40.
        let (short, its_short) = allocs_in_iterate(solver, AzPrecond::Jacobi, 40);
        let (long, its_long) = allocs_in_iterate(solver, AzPrecond::Jacobi, 400);
        assert_eq!((its_short, its_long), (40, 400), "{solver:?}");
        assert_eq!(short, long, "{solver:?}: {short} allocations in 40 iterations, {long} in 400");
    }
}

/// The Neumann polynomial holds its series term and the term's product
/// with A from `iterate` to `iterate`: a warm apply allocates nothing, so
/// a solve ten times longer allocates no more.
#[test]
fn neumann_applies_allocate_nothing() {
    for solver in [AzSolver::Gmres, AzSolver::BiCgStab] {
        for order in 1..=3 {
            let precond = AzPrecond::Neumann { order };
            let (short, its_short) = allocs_in_iterate(solver, precond, 40);
            let (long, its_long) = allocs_in_iterate(solver, precond, 400);
            assert_eq!((its_short, its_long), (40, 400), "{solver:?} order {order}");
            assert_eq!(
                short, long,
                "{solver:?} order {order}: {short} allocations in 40 iterations, {long} in 400"
            );
        }
    }
}
