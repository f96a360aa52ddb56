//! A persistent worker-thread pool with a broadcast ("run this closure on
//! every participant") primitive.
//!
//! The threaded kernels dispatch one job per call, so the per-call cost is
//! a wake-up of hot workers rather than a thread spawn (~10 µs). Workers
//! spin briefly after finishing a job before sleeping on a condvar, which
//! keeps them hot across the back-to-back dispatches of a solver
//! iteration.
//!
//! Dispatch is exclusive: [`try_broadcast`] returns `false` without running
//! the closure when another thread (e.g. a different in-process rank) holds
//! the pool, and the caller falls back to its serial path. That makes
//! oversubscription from rank-level parallelism degrade gracefully instead
//! of queueing, and makes nested broadcasts (a worker re-entering the pool)
//! impossible by construction.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Upper bound on pool size; requests beyond it are refused (the caller
/// runs serially). Far above any sane `RSPARSE_THREADS` value.
pub const MAX_POOL_THREADS: usize = 256;

/// Spin iterations before the dispatcher yields the CPU while it waits for
/// its workers (oversubscribed hosts).
const DISPATCH_SPINS: u32 = 1 << 12;

/// Spin iterations a worker polls for the next job before sleeping.
const WORKER_SPINS: u32 = 1 << 14;

/// A published broadcast job: a type-erased borrow of the caller's closure.
/// The pointer is only dereferenced while its generation is current, and
/// `try_broadcast` does not return until every participant acknowledged
/// completion, so the borrow never outlives the closure.
struct Job {
    f: *const (dyn Fn(usize) + Sync),
    threads: usize,
    generation: u64,
}
// SAFETY: the raw pointer is only shared with pool workers under the
// generation protocol described above; the pointee is `Sync`.
unsafe impl Send for Job {}

struct Shared {
    /// Generation counter workers poll; bumped on publish.
    generation: AtomicU64,
    job: Mutex<Option<Job>>,
    start: Condvar,
    /// Participants (excluding the caller) that finished the current job.
    done: AtomicUsize,
}

struct Pool {
    shared: std::sync::Arc<Shared>,
    /// Exclusive dispatch: holds worker-count bookkeeping.
    dispatch: Mutex<usize>,
}

fn worker_loop(id: usize, shared: std::sync::Arc<Shared>) {
    let mut seen = 0u64;
    loop {
        // Fast path: spin-poll for the next generation so back-to-back
        // dispatches (a solver's inner loop) never pay a condvar wake.
        let mut spins = 0u32;
        while shared.generation.load(Ordering::Acquire) == seen && spins < WORKER_SPINS {
            std::hint::spin_loop();
            spins += 1;
        }
        if shared.generation.load(Ordering::Acquire) == seen {
            let mut guard = shared.job.lock().unwrap_or_else(|e| e.into_inner());
            while shared.generation.load(Ordering::Acquire) == seen {
                guard = shared.start.wait(guard).unwrap_or_else(|e| e.into_inner());
            }
        }
        let (f, threads, generation) = {
            let guard = shared.job.lock().unwrap_or_else(|e| e.into_inner());
            let job = guard.as_ref().expect("generation bumped ⇒ job published");
            (job.f, job.threads, job.generation)
        };
        seen = generation;
        if id < threads {
            // SAFETY: the caller blocks in `try_broadcast` until `done`
            // reaches `threads − 1`, so the closure outlives this call.
            let f = unsafe { &*f };
            f(id);
            shared.done.fetch_add(1, Ordering::AcqRel);
        }
    }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        shared: std::sync::Arc::new(Shared {
            generation: AtomicU64::new(0),
            job: Mutex::new(None),
            start: Condvar::new(),
            done: AtomicUsize::new(0),
        }),
        dispatch: Mutex::new(0),
    })
}

/// Run `f(tid)` for every `tid` in `0..threads`, with `tid == 0` on the
/// calling thread and the rest on persistent pool workers. Returns `true`
/// once every participant finished.
///
/// Returns `false` — without calling `f` at all — when the fan-out cannot
/// happen: `threads < 2`, the pool is busy with another dispatch (another
/// in-process rank, or a nested call from a worker), or `threads` exceeds
/// [`MAX_POOL_THREADS`]. Callers must then run their serial path.
pub fn try_broadcast<F>(threads: usize, f: F) -> bool
where
    F: Fn(usize) + Sync,
{
    if threads < 2 || threads > MAX_POOL_THREADS {
        return false;
    }
    let pool = pool();
    let Ok(mut workers) = pool.dispatch.try_lock() else {
        return false;
    };
    // Grow the worker set on demand (ids 1..threads; the caller is tid 0).
    while *workers + 1 < threads {
        let id = *workers + 1;
        let shared = std::sync::Arc::clone(&pool.shared);
        let spawned = std::thread::Builder::new()
            .name(format!("rsparse-pool-{id}"))
            .spawn(move || worker_loop(id, shared))
            .is_ok();
        if !spawned {
            return false;
        }
        *workers += 1;
    }

    let shared = &pool.shared;
    shared.done.store(0, Ordering::Relaxed);
    // Erase the closure's lifetime for the workers; see `Job` for why this
    // is sound.
    let f_ref: &(dyn Fn(usize) + Sync) = &f;
    let erased: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
            f_ref,
        )
    };
    {
        let mut guard = shared.job.lock().unwrap_or_else(|e| e.into_inner());
        let generation = shared.generation.load(Ordering::Relaxed) + 1;
        *guard = Some(Job { f: erased, threads, generation });
        shared.generation.store(generation, Ordering::Release);
        shared.start.notify_all();
    }
    f(0);
    let mut spins = 0u32;
    while shared.done.load(Ordering::Acquire) != threads - 1 {
        std::hint::spin_loop();
        spins += 1;
        if spins >= DISPATCH_SPINS {
            std::thread::yield_now();
            spins = 0;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Dispatch is exclusive, so tests that assert a broadcast *happened*
    /// must not overlap each other.
    static POOL: Mutex<()> = Mutex::new(());

    #[test]
    fn broadcast_runs_every_tid_exactly_once() {
        let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        assert!(try_broadcast(4, |tid| {
            hits[tid].fetch_add(1, Ordering::SeqCst);
        }));
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn single_thread_requests_are_refused() {
        assert!(!try_broadcast(1, |_| panic!("must not run")));
        assert!(!try_broadcast(0, |_| panic!("must not run")));
        assert!(!try_broadcast(MAX_POOL_THREADS + 1, |_| panic!("must not run")));
    }

    #[test]
    fn repeated_broadcasts_reuse_workers() {
        let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
        for round in 0..50usize {
            let total = AtomicUsize::new(0);
            assert!(try_broadcast(3, |tid| {
                total.fetch_add(tid + 1, Ordering::SeqCst);
            }));
            assert_eq!(total.load(Ordering::SeqCst), 6, "round {round}");
        }
    }
}
