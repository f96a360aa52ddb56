//! Rank-local thread-count configuration and small helpers for the
//! deterministic threaded kernels.
//!
//! The thread count is process-global: it is read once from the
//! `RSPARSE_THREADS` environment variable (default 1 — fully serial, the
//! historical behavior) and can be overridden programmatically with
//! [`set_threads`], which is what the LISI adapters' reserved
//! `port.set("threads", ...)` option key calls.
//!
//! # Determinism contract
//!
//! Every threaded kernel in this crate is **bit-deterministic across
//! thread counts**:
//!
//! * elementwise kernels (SpMV rows, axpy/xpby) write disjoint outputs and
//!   perform the identical per-element arithmetic regardless of which
//!   thread runs them;
//! * reductions ([`crate::dense::pdot`]) accumulate fixed-size blocks
//!   ([`crate::dense::DOT_BLOCK`] elements, independent of the thread
//!   count) and combine the partial sums in block order on the calling
//!   thread.
//!
//! Consequently residual histories are bit-identical for any
//! `RSPARSE_THREADS` value, and for local lengths ≤ `DOT_BLOCK` they are
//! also bit-identical to the pre-threading serial code.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Hard cap on the configured thread count (matches the pool's own limit).
pub const MAX_THREADS: usize = rayon::pool::MAX_POOL_THREADS;

/// 0 = not yet initialized from the environment.
static THREADS: AtomicUsize = AtomicUsize::new(0);

fn clamp(n: usize) -> usize {
    n.clamp(1, MAX_THREADS)
}

/// The active rank-local thread count (≥ 1). First call reads
/// `RSPARSE_THREADS`; unset, unparsable or zero values mean 1.
#[inline]
pub fn active() -> usize {
    let t = THREADS.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    let init = std::env::var("RSPARSE_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(clamp)
        .unwrap_or(1);
    // A benign race: concurrent initializers compute the same value.
    THREADS.store(init, Ordering::Relaxed);
    init
}

/// Set the rank-local thread count, clamped to `1..=MAX_THREADS`. Returns
/// the value actually installed. Overrides `RSPARSE_THREADS`.
pub fn set_threads(n: usize) -> usize {
    let t = clamp(n);
    THREADS.store(t, Ordering::Relaxed);
    t
}

/// A `Copy + Sync` view of a mutable slice for kernels whose threads write
/// provably disjoint elements (distinct output chunks). The unsafety is confined to `set` and
/// `range_mut`.
#[derive(Clone, Copy)]
pub struct SharedMutSlice<'a> {
    ptr: *mut f64,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [f64]>,
}

// SAFETY: access discipline (disjoint element sets per thread) is the
// caller's obligation, documented on `set` and `range_mut`.
unsafe impl Send for SharedMutSlice<'_> {}
unsafe impl Sync for SharedMutSlice<'_> {}

impl<'a> SharedMutSlice<'a> {
    /// Wrap a mutable slice.
    pub fn new(slice: &'a mut [f64]) -> Self {
        SharedMutSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements `lo..hi` as an exclusive slice.
    ///
    /// # Safety
    /// No other thread may read or write elements `lo..hi` while the slice
    /// lives.
    ///
    /// # Panics
    /// Panics unless `lo ≤ hi ≤ len`.
    #[inline]
    pub unsafe fn range_mut(&self, lo: usize, hi: usize) -> &'a mut [f64] {
        assert!(lo <= hi && hi <= self.len, "range {lo}..{hi} outside {} elements", self.len);
        // SAFETY: `lo..hi` lies inside the wrapped slice, and the caller
        // guarantees the elements are not shared meanwhile.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) }
    }

    /// Write element `i`.
    ///
    /// # Safety
    /// `i < len`, and no other thread may be reading or writing element `i`
    /// concurrently.
    #[inline]
    pub unsafe fn set(&self, i: usize, v: f64) {
        debug_assert!(i < self.len);
        unsafe { *self.ptr.add(i) = v }
    }
}

/// Split `0..len` into `threads` contiguous chunks and run `f(start, end)`
/// for each, in parallel over the pool when possible and serially (same
/// chunk boundaries, ascending order) otherwise. Deterministic for any
/// kernel whose chunks touch disjoint data: the chunk boundaries depend
/// only on `threads`, and elementwise work is order-independent.
pub fn for_each_chunk<F>(len: usize, threads: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    if len == 0 {
        return;
    }
    let t = threads.clamp(1, MAX_THREADS).min(len);
    let chunk = len.div_ceil(t);
    let run = |tid: usize| {
        let start = tid * chunk;
        let end = (start + chunk).min(len);
        if start < end {
            f(start, end);
        }
    };
    if t <= 1 || !rayon::pool::try_broadcast(t, run) {
        for tid in 0..t {
            run(tid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_threads_clamps() {
        assert_eq!(set_threads(0), 1);
        assert_eq!(set_threads(4), 4);
        assert_eq!(set_threads(MAX_THREADS + 7), MAX_THREADS);
        set_threads(1);
        assert_eq!(active(), 1);
    }

    #[test]
    fn chunks_cover_range_exactly_once() {
        for threads in [1usize, 2, 3, 8] {
            for len in [0usize, 1, 5, 1000] {
                let mut buf = vec![0.0f64; len];
                let out = SharedMutSlice::new(&mut buf);
                for_each_chunk(len, threads, |s, e| {
                    // SAFETY: chunks are disjoint, so each element is
                    // written by exactly one thread.
                    for v in unsafe { out.range_mut(s, e) } {
                        *v += 1.0;
                    }
                });
                for (i, &v) in buf.iter().enumerate() {
                    assert_eq!(v, 1.0, "threads={threads} len={len} i={i}");
                }
            }
        }
    }
}
