//! Warm ILU(0), IC(0), SSOR and Jacobi applies allocate nothing: a sweep
//! reads its two level-ordered triangles and writes `z` — no scratch
//! vector, no permutation, no per-apply workspace — and a Jacobi apply
//! reads `r` (and one inverse a row unless the diagonal is uniform). A
//! batched CG iteration allocates what a single-column one does: its
//! buffers are the solve's, not the iteration's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rcomm::Universe;
use rkrylov::{
    ConvergedReason, Ic0, Ilu0, Jacobi, Ksp, KspConfig, KspType, MatOperator, PcType,
    Preconditioner, Ssor,
};
use rsparse::dense::DiagonalScale;
use rsparse::{BlockRowPartition, DistCsrMatrix, DistVector};

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

#[test]
fn batched_cg_allocates_per_iteration_what_a_single_solve_does() {
    // Per-iteration allocations are a 60-iteration solve's minus a
    // 40-iteration solve's, both stopped by `maxits`: the α, β and
    // residual-history vectors hold 39 to 61 entries, one capacity band
    // (33..=64), so their growth does not enter the difference.
    let a = rsparse::generate::laplacian_2d(40);
    let n = a.rows();
    let out = Universe::run(1, |comm| {
        let part = BlockRowPartition::even(n, 1);
        let op = MatOperator::new(DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap());
        let b = DistVector::from_local(part.clone(), 0, rsparse::generate::random_vector(n, 7))
            .unwrap();
        let bs = b.local().repeat(4);
        // Allocations of one solve from zero; `k = 0` is `solve_with_pc`.
        let solve = |k: usize, maxits: usize| {
            let cfg = KspConfig {
                ksp_type: KspType::Cg,
                pc_type: PcType::Jacobi,
                rtol: 1e-30,
                maxits,
                checkpoint_every: 0,
                ..KspConfig::default()
            };
            let ksp = Ksp::new(cfg).unwrap();
            let pc = ksp.make_pc(&op).unwrap();
            let mut x = DistVector::zeros(part.clone(), 0);
            let mut xs = vec![0.0; bs.len()];
            let before = ALLOCS.with(Cell::get);
            let results = match k {
                0 => vec![ksp.solve_with_pc(comm, &op, pc.as_ref(), &b, &mut x).unwrap()],
                _ => ksp.solve_batch_with_pc(comm, &op, pc.as_ref(), &bs, &mut xs, k).unwrap(),
            };
            let allocs = ALLOCS.with(Cell::get) - before;
            for r in &results {
                assert_eq!((r.reason, r.iterations), (ConvergedReason::MaxIterations, maxits));
            }
            std::hint::black_box((&x, &xs));
            allocs
        };
        [0usize, 4].map(|k| {
            // First solve: the matvec workspaces and the probe's
            // per-thread state are set up.
            solve(k, 40);
            solve(k, 60) - solve(k, 40)
        })
    });
    let [single, batched] = out[0];
    assert_eq!(batched, single, "20 iterations: single column {single}, four columns {batched}");
}
