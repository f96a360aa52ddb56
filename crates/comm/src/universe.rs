//! SPMD launcher: spawn one thread per rank, wire them up, collect results.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::cohort::Registry;
use crate::comm::{Communicator, Inbox, Wiring};
use crate::envelope::WORLD_CONTEXT;
use crate::fault::{Armed, FaultPlan};

/// The SPMD execution environment, playing the role of `mpiexec`.
///
/// [`Universe::run_with_faults`] is the single launch path: it spawns `n`
/// OS threads, hands each a world [`Communicator`] of size `n`, runs the
/// supplied closure on every rank, and returns the per-rank results in
/// rank order. Everything a launch shares between its ranks — inboxes,
/// boards, halo lines, the fault plan with its fuses, the cohort registry, the deadlock
/// watchdog, [`Communicator::universe_store`] — belongs to that launch,
/// so two universes in one process never see each other's state.
/// A panic on any rank propagates (after the other ranks either finish or
/// fail with `PeerGone`/`DeadlockSuspected`), so test failures are loud.
pub struct Universe;

/// Launches so far in this process: each universe's number.
static LAUNCHES: AtomicU64 = AtomicU64::new(0);

/// Marks a rank's inbox departed when its closure returns or unwinds, so
/// later sends to the rank fail instead of queueing for nobody.
struct Departs<'a>(&'a Inbox);

impl Drop for Departs<'_> {
    fn drop(&mut self) {
        self.0.depart();
    }
}

impl Universe {
    /// Run `f` on `n` ranks under the fault plan `RSPARSE_FAULTS` spells
    /// (read at each launch; none when it is unset) and collect each
    /// rank's return value, indexed by rank.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or if any rank's closure panics.
    pub fn run<F, R>(n: usize, f: F) -> Vec<R>
    where
        F: Fn(&Communicator) -> R + Send + Sync,
        R: Send,
    {
        Self::run_with_faults(n, FaultPlan::from_env(), f)
    }

    /// [`Universe::run`] under `faults` instead of the environment's plan:
    /// its rules count and fire within this launch only.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or if any rank's closure panics.
    pub fn run_with_faults<F, R>(n: usize, faults: Option<FaultPlan>, f: F) -> Vec<R>
    where
        F: Fn(&Communicator) -> R + Send + Sync,
        R: Send,
    {
        assert!(n > 0, "a universe needs at least one rank");
        // Start the live telemetry exporter once if RSPARSE_METRICS_ADDR
        // is set, and bump the trace generation so solves in this launch
        // get trace ids distinct from earlier launches. Both happen
        // before any rank thread spawns, so every rank agrees.
        probe::export::maybe_serve_from_env();
        probe::trace::advance_generation();
        // Ranks are threads: with more of them than cores a spinning
        // receiver only delays the sender it waits for. An unknown core
        // count is treated as one core.
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let deadlock_secs = std::env::var("RCOMM_DEADLOCK_TIMEOUT_SECS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(30);
        let wiring = Arc::new(Wiring {
            faults: faults.map(|plan| Box::new(Armed::new(plan))),
            cohort: Registry::new(n),
            inboxes: (0..n).map(|_| Inbox::default()).collect(),
            id: LAUNCHES.fetch_add(1, Ordering::Relaxed),
            oversubscribed: n > cores,
            deadlock_timeout: Duration::from_secs(deadlock_secs),
            boards: Mutex::default(),
            lines: Default::default(),
            store: Mutex::default(),
        });
        let members: Arc<Vec<usize>> = Arc::new((0..n).collect());

        let fref = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|rank| {
                    let comm = Communicator::new(
                        rank,
                        Arc::clone(&members),
                        WORLD_CONTEXT,
                        Arc::clone(&wiring),
                    );
                    let inbox = &wiring.inboxes[rank];
                    scope.spawn(move || {
                        let _departs = Departs(inbox);
                        // Tag this thread's probe recorder so per-rank
                        // reports group correctly.
                        probe::set_rank(rank);
                        fref(&comm)
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(rank, h)| match h.join() {
                    Ok(r) => r,
                    Err(e) => {
                        let msg = e
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| e.downcast_ref::<&str>().copied())
                            .unwrap_or("<non-string panic payload>");
                        panic!("rank {rank} panicked: {msg}")
                    }
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_rank_ordered() {
        let out = Universe::run(8, |c| c.rank() * c.rank());
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn single_rank_universe_works() {
        let out = Universe::run(1, |c| {
            assert_eq!(c.size(), 1);
            c.allreduce(41, |a, b| a + b).unwrap() + 1
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_is_rejected() {
        let _ = Universe::run(0, |_| ());
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked")]
    fn rank_panic_propagates_with_rank_id() {
        let _ = Universe::run(2, |c| {
            if c.rank() == 1 {
                panic!("boom on purpose");
            }
        });
    }

    #[test]
    fn heavy_traffic_does_not_lose_messages() {
        // Stress the inbox: every rank sends to every rank with many
        // tags and receives in reverse order, so each receive finds its
        // message queued among many others.
        let out = Universe::run(4, |c| {
            let p = c.size();
            for dest in 0..p {
                for t in 0..20 {
                    c.send(dest, t, (c.rank(), t)).unwrap();
                }
            }
            let mut sum = 0usize;
            for src in (0..p).rev() {
                for t in (0..20).rev() {
                    let (r, tt): (usize, i32) = c.recv(src, t).unwrap();
                    assert_eq!((r, tt), (src, t));
                    sum += 1;
                }
            }
            sum
        });
        assert_eq!(out, vec![80; 4]);
    }
}
