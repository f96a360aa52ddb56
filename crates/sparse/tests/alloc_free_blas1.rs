//! The reduction kernels under the Krylov loops allocate nothing: `pdot`
//! (which used to heap-allocate its block partials on every call past one
//! block) and every fused form built on the same reducer, on the serial
//! path and with the thread pool engaged.

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
    // One block, two blocks (the Figure 5 one-rank length), and more
    // blocks than one stack group of partials holds.
    for n in [1000, 90_000, 65 * DOT_BLOCK + 17] {
        let x = vec![0.5f64; n];
        let z = vec![0.25f64; n];
        let mut y = vec![1.0f64; n];
        for threads in [1usize, 2] {
            rsparse::threads::set_threads(threads);
            let mut sink = 0.0;
            let mut kernels = |sink: &mut f64| {
                *sink += dense::dot(&x[..1000], &z[..1000]);
                *sink += dense::pdot(&x, &z);
                *sink += dense::pdot2(&x, &x, &z).1;
                *sink += dense::axpy_norm2_sq(0.0, &x, &mut y);
                *sink += dense::axpy_pdot2(0.0, &x, &mut y, &z).1;
                dense::axpy2(0.0, &x, 0.0, &z, &mut y);
            };
            // First pass: the pool may spawn its workers.
            kernels(&mut sink);
            let allocs = allocs_during(|| kernels(&mut sink));
            assert_eq!(allocs, 0, "n = {n}, threads = {threads}");
            std::hint::black_box(sink);
        }
    }
    rsparse::threads::set_threads(1);
}
