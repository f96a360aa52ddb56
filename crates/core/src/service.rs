//! The solver service: a long-lived session layer that caches setup
//! artifacts across solves.
//!
//! In a serving deployment the same operator is solved against many
//! right-hand sides over the lifetime of a process — parameter sweeps,
//! time stepping with a frozen Jacobian, embarrassingly parallel UQ
//! ensembles. The expensive part of each solve is often not the Krylov
//! iteration but the setup that precedes it: partition construction,
//! halo-plan and SpMV-plan assembly, ILU factorization,
//! sparse-direct symbolic analysis. [`SolverService`] lets the solve
//! pipeline (`adapters/pipeline.rs`) memoize those artifacts under a
//! *session key*, so a second solve of an identical system skips setup
//! entirely.
//!
//! Three concerns live here:
//!
//! 1. **Keying**, in two parts, both through [`rsparse::digest`].
//!    [`matrix_digest`] is the O(nnz) part: the digest of the local CSR
//!    pattern and value bits, computed once where the matrix changes (the
//!    `LisiState` matrix setter) and stored next to it.
//!    [`session_fingerprint`] is the O(1) part a solve pays: it folds that
//!    digest with the rank/size, the row range, the option dump and the
//!    probe reset epoch.
//!    Any change to the pattern, the values, the distribution or the
//!    configuration yields a different key, so stale artifacts can never
//!    be served. [`fingerprint`] composes the two for outside callers.
//!    The hit or miss decision must be *rank-collective* (a warm rank
//!    skipping a collective setup while a cold rank enters it would
//!    deadlock), so the pipeline gathers every rank's `(admitted, hit)`
//!    pair in one `allgather` before branching — see
//!    [`SolverService::lookup`]'s docs.
//! 2. **Budgeting.** Cached artifacts are byte-accounted and evicted in
//!    least-recently-used order once the budget set by
//!    `RSPARSE_SESSION_CACHE_MB` (default 64) is exceeded. Hits, misses
//!    and evictions are visible as probe counters
//!    (`session_cache_{hits,misses,evictions}`) and in the solve
//!    ledger's `session` object.
//! 3. **Admission.** Each in-flight solve holds a [`SessionTicket`].
//!    When `max_inflight` tickets are out, further callers wait in a
//!    bounded queue; once the queue is full (or the wait times out) the
//!    solve returns [`LisiError::Busy`] (code `-7`) on every rank of the
//!    cohort so callers can back off instead of piling onto a saturated
//!    process. The process-wide service's limits (512 in flight,
//!    4096 queued) are constants far above any rank-thread count, so
//!    backpressure only engages on a service built with tighter
//!    [`SolverService::with_limits`].

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, OnceLock};
use std::time::Duration;

use parking_lot::Mutex;
use rsparse::digest::{self, Digest};

use crate::error::{LisiError, LisiResult};

/// Identifies one cached session: the adapter backend, the rank
/// coordinates, and the matrix/options fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionKey {
    /// Adapter backend name (`"rksp"`, `"rslu"`, ...).
    pub backend: &'static str,
    /// Rank that owns the artifact (artifacts hold rank-local state).
    pub rank: usize,
    /// Cohort size the artifact was built for.
    pub size: usize,
    /// [`session_fingerprint`] of the local matrix digest + options.
    pub fingerprint: u64,
}

/// The O(nnz) part of a session key: [`rsparse::digest::csr`] over the
/// local CSR pattern and value *bits* (not rounded values), so that any
/// numerical change — however small, a sign included — is a miss.
/// Computed where the matrix changes, never per solve.
pub fn matrix_digest(row_ptr: &[usize], col_idx: &[usize], values: &[f64]) -> u64 {
    digest::csr(row_ptr, col_idx, values)
}

/// The per-solve part of a session key: a stored [`matrix_digest`]
/// folded with the rank/size, the owned row range and the solver option
/// dump.
pub fn session_fingerprint(
    matrix_digest: u64,
    rank: usize,
    size: usize,
    start_row: usize,
    global_cols: usize,
    options_dump: &str,
) -> u64 {
    let words = [matrix_digest, rank as u64, size as u64, start_row as u64, global_cols as u64];
    // A probe reset wipes registered kernel work models; folding the
    // reset epoch in forces the next solve cold so setup re-registers
    // them (a warm solve would assemble a ledger with no kernel rows).
    Digest::new()
        .words(&words)
        .bytes(options_dump.as_bytes())
        .words(&[probe::reset_epoch()])
        .finish()
}

/// [`session_fingerprint`] over a freshly computed [`matrix_digest`] —
/// the whole key in one call, for callers that hold raw arrays.
#[allow(clippy::too_many_arguments)]
pub fn fingerprint(
    rank: usize,
    size: usize,
    start_row: usize,
    global_cols: usize,
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[f64],
    options_dump: &str,
) -> u64 {
    let digest = matrix_digest(row_ptr, col_idx, values);
    session_fingerprint(digest, rank, size, start_row, global_cols, options_dump)
}

struct Entry {
    value: Arc<dyn Any + Send + Sync>,
    bytes: usize,
    last_use: u64,
}

struct Inner {
    entries: HashMap<SessionKey, Entry>,
    total_bytes: usize,
    tick: u64,
    inflight: usize,
    queued: usize,
}

/// Process-global cache + admission controller for solver sessions.
/// Obtain the shared instance with [`SolverService::global`]; tests
/// construct private instances with explicit limits via
/// [`SolverService::with_limits`].
pub struct SolverService {
    inner: Mutex<Inner>,
    admit_cv: Condvar,
    capacity_bytes: usize,
    max_inflight: usize,
    max_queue: usize,
    wait_timeout: Duration,
}

/// RAII admission ticket: holding one means the solve is in flight;
/// dropping it frees the slot and wakes one queued waiter.
pub struct SessionTicket<'a> {
    service: &'a SolverService,
}

impl std::fmt::Debug for SessionTicket<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionTicket").finish_non_exhaustive()
    }
}

impl Drop for SessionTicket<'_> {
    fn drop(&mut self) {
        let mut inner = self.service.inner.lock();
        inner.inflight -= 1;
        drop(inner);
        self.service.admit_cv.notify_one();
    }
}

/// Solves the process-wide service admits concurrently before new
/// arrivals queue.
const MAX_INFLIGHT: usize = 512;
/// Queued solves the process-wide service holds before answering `Busy`.
const MAX_QUEUE: usize = 4096;

impl SolverService {
    /// A service with explicit limits (used by tests; [`Self::global`]
    /// takes the budget from the environment and the constants above).
    pub fn with_limits(
        capacity_bytes: usize,
        max_inflight: usize,
        max_queue: usize,
        wait_timeout: Duration,
    ) -> Self {
        SolverService {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                total_bytes: 0,
                tick: 0,
                inflight: 0,
                queued: 0,
            }),
            admit_cv: Condvar::new(),
            capacity_bytes,
            max_inflight: max_inflight.max(1),
            max_queue,
            wait_timeout,
        }
    }

    /// The process-wide service. Budget from `RSPARSE_SESSION_CACHE_MB`
    /// (default 64 MB); admission limits `MAX_INFLIGHT` and
    /// `MAX_QUEUE` — generous enough that rank-thread cohorts never
    /// trip backpressure.
    pub fn global() -> &'static SolverService {
        static GLOBAL: OnceLock<SolverService> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cache_mb = std::env::var("RSPARSE_SESSION_CACHE_MB")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(64usize);
            SolverService::with_limits(
                cache_mb.saturating_mul(1024 * 1024),
                MAX_INFLIGHT,
                MAX_QUEUE,
                Duration::from_secs(30),
            )
        })
    }

    /// Admit one solve, waiting in the bounded queue if `max_inflight`
    /// tickets are already out. Returns [`LisiError::Busy`] when the
    /// queue is full or the wait times out.
    pub fn admit(&self) -> LisiResult<SessionTicket<'_>> {
        let mut inner = self.inner.lock();
        if inner.inflight < self.max_inflight {
            inner.inflight += 1;
            return Ok(SessionTicket { service: self });
        }
        if inner.queued >= self.max_queue {
            return Err(LisiError::Busy(format!(
                "{} solves in flight and {} queued (queue depth {})",
                inner.inflight, inner.queued, self.max_queue
            )));
        }
        inner.queued += 1;
        let deadline = std::time::Instant::now() + self.wait_timeout;
        loop {
            if inner.inflight < self.max_inflight {
                inner.queued -= 1;
                inner.inflight += 1;
                return Ok(SessionTicket { service: self });
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                inner.queued -= 1;
                return Err(LisiError::Busy(format!(
                    "timed out after {:?} waiting for an admission slot",
                    self.wait_timeout
                )));
            }
            // The shim Mutex hands out std guards, so the std Condvar
            // composes with it (poisoning ignored, matching the shim).
            let (guard, _timeout) = self
                .admit_cv
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
    }

    /// Look up a cached artifact without touching the hit/miss counters
    /// (the pipeline counts one hit or one miss per rank per solve, once
    /// the cohort has *agreed* on warm vs cold). Bumps LRU recency on hit.
    ///
    /// Rank-collective protocols must not branch on this result alone:
    /// if eviction removed one rank's entry but not its peers', a warm
    /// rank would skip a collective setup the cold rank enters and the
    /// cohort deadlocks. The solve pipeline therefore gathers the
    /// per-rank hit flag (in the same `allgather` that carries the
    /// admission verdict) and only takes the warm path when *every*
    /// rank hit.
    pub fn lookup<T: Send + Sync + 'static>(&self, key: &SessionKey) -> Option<Arc<T>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.get_mut(key)?;
        entry.last_use = tick;
        entry.value.clone().downcast::<T>().ok()
    }

    /// Insert an artifact (size `bytes`), then evict least-recently-used
    /// entries until the budget is respected again. The entry just
    /// inserted is never evicted by its own insertion, so a single
    /// over-budget artifact still caches (it will be first out next
    /// time).
    pub fn insert(&self, key: SessionKey, value: Arc<dyn Any + Send + Sync>, bytes: usize) {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.entries.insert(key.clone(), Entry { value, bytes, last_use: tick })
        {
            inner.total_bytes -= old.bytes;
        }
        inner.total_bytes += bytes;
        while inner.total_bytes > self.capacity_bytes && inner.entries.len() > 1 {
            let victim = inner
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    if let Some(e) = inner.entries.remove(&k) {
                        inner.total_bytes -= e.bytes;
                        probe::incr(probe::Counter::SessionCacheEvictions);
                    }
                }
                None => break,
            }
        }
    }

    /// (entry count, total cached bytes) — for tests and diagnostics.
    pub fn stats(&self) -> (usize, usize) {
        let inner = self.inner.lock();
        (inner.entries.len(), inner.total_bytes)
    }

    /// Drop every cached artifact (tests; also useful between benchmark
    /// phases to force cold setups).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.total_bytes = 0;
    }
}

/// Rough per-rank byte footprint of a cached CSR-shaped artifact:
/// pattern indices + values, plus a fudge for derived structures
/// (halo plans, the SpMV plan, ILU factors are all O(nnz)).
pub fn approx_csr_bytes(nnz: usize, rows: usize) -> usize {
    // row_ptr + col_idx as usize, values as f64, ×3 for derived copies
    // (SpMV plan, preconditioner factors, halo staging).
    (rows + 1) * std::mem::size_of::<usize>()
        + nnz * (std::mem::size_of::<usize>() + std::mem::size_of::<f64>()).saturating_mul(3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(fp: u64) -> SessionKey {
        SessionKey { backend: "test", rank: 0, size: 1, fingerprint: fp }
    }

    #[test]
    fn lookup_miss_then_hit_roundtrips_value() {
        let svc = SolverService::with_limits(1 << 20, 4, 4, Duration::from_millis(50));
        assert!(svc.lookup::<Vec<f64>>(&key(1)).is_none());
        svc.insert(key(1), Arc::new(vec![1.0f64, 2.0]), 16);
        let got = svc.lookup::<Vec<f64>>(&key(1)).expect("hit");
        assert_eq!(*got, vec![1.0, 2.0]);
        // Wrong type at the same key is a miss, not a panic.
        assert!(svc.lookup::<String>(&key(1)).is_none());
        assert_eq!(svc.stats(), (1, 16));
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let svc = SolverService::with_limits(100, 4, 4, Duration::from_millis(50));
        svc.insert(key(1), Arc::new(1u64), 40);
        svc.insert(key(2), Arc::new(2u64), 40);
        // Touch key 1 so key 2 is the LRU victim.
        assert!(svc.lookup::<u64>(&key(1)).is_some());
        svc.insert(key(3), Arc::new(3u64), 40);
        assert!(svc.lookup::<u64>(&key(2)).is_none(), "LRU entry evicted");
        assert!(svc.lookup::<u64>(&key(1)).is_some());
        assert!(svc.lookup::<u64>(&key(3)).is_some());
        let (n, bytes) = svc.stats();
        assert_eq!(n, 2);
        assert!(bytes <= 100);
    }

    #[test]
    fn oversized_entry_still_caches_alone() {
        let svc = SolverService::with_limits(10, 4, 4, Duration::from_millis(50));
        svc.insert(key(1), Arc::new(0u8), 1000);
        assert_eq!(svc.stats().0, 1);
        svc.insert(key(2), Arc::new(0u8), 1000);
        // The older oversized entry goes; the new one stays.
        assert!(svc.lookup::<u8>(&key(1)).is_none());
        assert!(svc.lookup::<u8>(&key(2)).is_some());
    }

    #[test]
    fn admission_returns_busy_when_saturated() {
        let svc = SolverService::with_limits(1 << 20, 1, 0, Duration::from_millis(20));
        let t1 = svc.admit().expect("first ticket");
        // inflight full, queue depth 0 → immediate Busy with code -7.
        let err = svc.admit().expect_err("queue full");
        assert!(matches!(err, LisiError::Busy(_)));
        assert_eq!(err.code(), -7);
        drop(t1);
        let t2 = svc.admit().expect("slot freed after drop");
        drop(t2);
    }

    #[test]
    fn queued_waiter_times_out_busy_or_acquires_after_release() {
        let svc = Arc::new(SolverService::with_limits(1 << 20, 1, 4, Duration::from_millis(40)));
        // Timeout path: nobody releases, the queued waiter goes Busy.
        let t1 = svc.admit().expect("first ticket");
        let err = svc.admit().expect_err("waiter times out");
        assert!(matches!(err, LisiError::Busy(_)));
        // Handoff path: release from another thread while one waits.
        let svc2 = Arc::clone(&svc);
        let waiter = std::thread::spawn(move || svc2.admit().map(drop).is_ok());
        std::thread::sleep(Duration::from_millis(5));
        drop(t1);
        assert!(waiter.join().unwrap(), "waiter acquired after release");
    }

    #[test]
    fn fingerprint_tracks_values_pattern_and_options() {
        let base = fingerprint(0, 2, 0, 8, &[0, 2], &[0, 1], &[1.0, 2.0], "cg");
        assert_eq!(
            base,
            fingerprint(0, 2, 0, 8, &[0, 2], &[0, 1], &[1.0, 2.0], "cg"),
            "deterministic"
        );
        assert_ne!(base, fingerprint(0, 2, 0, 8, &[0, 2], &[0, 1], &[1.0, 2.5], "cg"));
        assert_ne!(base, fingerprint(0, 2, 0, 8, &[0, 2], &[0, 2], &[1.0, 2.0], "cg"));
        assert_ne!(base, fingerprint(0, 2, 0, 8, &[0, 2], &[0, 1], &[1.0, 2.0], "gmres"));
        assert_ne!(base, fingerprint(1, 2, 4, 8, &[0, 2], &[0, 1], &[1.0, 2.0], "cg"));
        // The two halves compose: a stored digest keys the same session.
        let digest = matrix_digest(&[0, 2], &[0, 1], &[1.0, 2.0]);
        assert_eq!(base, session_fingerprint(digest, 0, 2, 0, 8, "cg"));
        assert_ne!(digest, matrix_digest(&[0, 2], &[0, 1], &[1.0, -2.0]));
    }
}
