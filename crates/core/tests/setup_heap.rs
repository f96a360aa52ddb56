//! A cold set-up allocates no second copy of the rows the port ingested:
//! every package's operator shares the port's `Arc<CsrMatrix>`. The heap
//! bytes a cold `solve` allocates beyond a warm re-solve of the same
//! system (the set-up alone: halo plan, compact pieces, preconditioner)
//! stay under half the rows' CSR bytes; a deep clone of the rows would
//! cost one whole CSR on its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lisi::{RaztecAdapter, RkspAdapter, SparseSolverPort, SparseStruct, STATUS_LEN};
use rcomm::Universe;

thread_local! {
    /// Heap bytes requested by this thread (a `realloc` counts its growth).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: defers to `System`; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it cannot allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread allocates while `f` runs.
fn bytes_of(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

/// On one rank, wire `solver` to the paper problem at m = 60 with GMRES
/// and Jacobi, solve it cold and then warm, and return (cold − warm
/// bytes, the rows' CSR bytes).
fn setup_bytes<P: SparseSolverPort>(make: fn() -> P, tag: &'static str) -> (u64, u64) {
    let (a, b) = rmesh::paper_problem(60).assemble_global();
    let n = a.rows();
    let csr_bytes = (a.nnz() * 16 + (n + 1) * 8) as u64;
    let out = Universe::run(1, |comm| {
        let solver = make();
        solver.initialize(comm.dup().unwrap()).unwrap();
        solver.set_start_row(0).unwrap();
        solver.set_local_rows(n).unwrap();
        solver.set_global_cols(n).unwrap();
        for (k, v) in [("solver", "gmres"), ("preconditioner", "jacobi"), ("session_tag", tag)] {
            solver.set(k, v).unwrap();
        }
        solver.setup_matrix(a.values(), a.row_ptr(), a.col_idx(), SparseStruct::Csr).unwrap();
        solver.setup_rhs(&b, 1).unwrap();
        let solve = || {
            let mut x = vec![0.0; n];
            let mut status = [0.0; STATUS_LEN];
            solver.solve(&mut x, &mut status).unwrap();
        };
        let cold = bytes_of(solve);
        let warm = bytes_of(solve);
        cold.saturating_sub(warm)
    });
    (out[0], csr_bytes)
}

fn assert_no_second_copy(package: &str, (setup, csr): (u64, u64)) {
    assert!(
        2 * setup < csr,
        "{package}: a cold set-up allocated {setup} B beyond a warm re-solve, \
         {:.2} × the rows' {csr} CSR bytes (limit 0.5 ×)",
        setup as f64 / csr as f64
    );
}

#[test]
fn rksp_cold_setup_shares_the_ingested_rows() {
    assert_no_second_copy("rksp", setup_bytes(RkspAdapter::new, "setup_heap_rksp"));
}

#[test]
fn raztec_cold_setup_shares_the_ingested_rows() {
    assert_no_second_copy("raztec", setup_bytes(RaztecAdapter::new, "setup_heap_raztec"));
}
