//! Process-wide cohort health: who is alive, who has been lost.
//!
//! The SPMD runtime emulates a fixed-size MPI cohort with one thread per
//! rank. When a rank dies — today via a `kind=kill` fault rule, in a real
//! deployment via a node failure — its peers must reach a *rank-consistent*
//! verdict [`crate::CommError::RankLost`] instead of hanging until the
//! deadlock watchdog gives up. This module is that verdict's source of
//! truth:
//!
//! * a **killed-rank registry** (the authoritative in-process detector):
//!   [`mark_dead`] is called by the fault gates the instant a `kill` rule
//!   fires, and every blocked receive polls [`lost_member`] on a short
//!   slice so all survivors fail fast with the *same* lost rank;
//! * **heartbeats**: every communication call stamps a per-world-rank
//!   wall-clock heartbeat. With [`set_heartbeat_timeout_ms`] given a
//!   nonzero value, a member whose heartbeat is older than the timeout is
//!   *also* reported lost while a peer is blocked waiting on it — the
//!   belt-and-braces detector for a genuinely wedged rank that never got
//!   to mark itself dead. It defaults to off (0) because the in-process
//!   transport always delivers the authoritative kill signal, and a
//!   staleness verdict can misfire on a rank that is legitimately
//!   compute-bound on a loaded CI machine.
//!
//! State is keyed by *world* rank and reset by [`crate::Universe::run`]
//! at launch, exactly like the fault plan: tests that kill ranks must
//! serialize, like tests that arm faults already do.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// The registry's state. The process has one ([`GLOBAL`], behind the free
/// functions below); the unit tests build their own, so they cannot race
/// the universes other tests of the same binary launch.
struct Registry {
    /// Fast-path flag: has *any* rank been marked dead since the last
    /// reset? One relaxed load keeps the no-faults receive loop free of
    /// lock traffic.
    any_dead: AtomicBool,
    /// World ranks marked dead since the last reset.
    dead: Mutex<Vec<usize>>,
    /// Millisecond heartbeat timestamps, indexed by world rank (grown on
    /// demand). A slot of 0 means "never heard from".
    heartbeats: Mutex<Vec<u64>>,
    /// Heartbeat staleness timeout in milliseconds; 0 (the default) is off.
    heartbeat_timeout_ms: AtomicU64,
}

static GLOBAL: Registry = Registry::new();

fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

impl Registry {
    const fn new() -> Self {
        Registry {
            any_dead: AtomicBool::new(false),
            dead: Mutex::new(Vec::new()),
            heartbeats: Mutex::new(Vec::new()),
            heartbeat_timeout_ms: AtomicU64::new(0),
        }
    }

    fn heartbeat_timeout_ms(&self) -> u64 {
        self.heartbeat_timeout_ms.load(Ordering::Relaxed)
    }

    fn reset(&self, world_size: usize) {
        let mut dead = self.dead.lock().unwrap();
        dead.clear();
        let mut hb = self.heartbeats.lock().unwrap();
        hb.clear();
        hb.resize(world_size, 0);
        self.any_dead.store(false, Ordering::Release);
    }

    fn mark_dead(&self, world_rank: usize) {
        let mut dead = self.dead.lock().unwrap();
        if !dead.contains(&world_rank) {
            dead.push(world_rank);
            probe::incr(probe::Counter::RanksLost);
        }
        self.any_dead.store(true, Ordering::Release);
    }

    #[inline]
    fn is_lost(&self, world_rank: usize) -> bool {
        if !self.any_dead.load(Ordering::Relaxed) {
            return false;
        }
        self.dead.lock().unwrap().contains(&world_rank)
    }

    fn heartbeat(&self, world_rank: usize) {
        if self.heartbeat_timeout_ms() == 0 {
            return;
        }
        let mut hb = self.heartbeats.lock().unwrap();
        if world_rank >= hb.len() {
            hb.resize(world_rank + 1, 0);
        }
        hb[world_rank] = now_ms();
    }

    fn lost_member(&self, members: &[usize]) -> Option<usize> {
        if self.any_dead.load(Ordering::Relaxed) {
            let dead = self.dead.lock().unwrap();
            if let Some(&m) = members.iter().find(|m| dead.contains(m)) {
                return Some(m);
            }
        }
        let timeout = self.heartbeat_timeout_ms();
        if timeout > 0 {
            let hb = self.heartbeats.lock().unwrap();
            let now = now_ms();
            for &m in members {
                // Only a rank we have heard from at least once can go stale;
                // a never-started rank is the launcher's problem.
                if let Some(&last) = hb.get(m) {
                    if last != 0 && now.saturating_sub(last) > timeout {
                        return Some(m);
                    }
                }
            }
        }
        None
    }

    fn capture(&self, members: &[usize]) -> CohortView {
        let mut alive = Vec::with_capacity(members.len());
        let mut lost = Vec::new();
        let timeout = self.heartbeat_timeout_ms();
        let dead = self.dead.lock().unwrap();
        let hb = self.heartbeats.lock().unwrap();
        let now = now_ms();
        for (local, &world) in members.iter().enumerate() {
            let stale = timeout > 0
                && hb.get(world).is_some_and(|&last| {
                    last != 0 && now.saturating_sub(last) > timeout
                });
            if dead.contains(&world) || stale {
                lost.push(local);
            } else {
                alive.push(local);
            }
        }
        CohortView { members: members.to_vec(), alive, lost }
    }
}

/// The heartbeat staleness timeout in milliseconds; 0 (the default)
/// disables staleness verdicts.
pub fn heartbeat_timeout_ms() -> u64 {
    GLOBAL.heartbeat_timeout_ms()
}

/// Set the heartbeat staleness timeout (0 disables).
pub fn set_heartbeat_timeout_ms(ms: u64) {
    GLOBAL.heartbeat_timeout_ms.store(ms, Ordering::Relaxed);
}

/// Forget every death and heartbeat — called by [`crate::Universe::run`]
/// at launch so one universe's casualties don't haunt the next.
pub(crate) fn reset(world_size: usize) {
    GLOBAL.reset(world_size)
}

/// Mark `world_rank` dead. Idempotent; called by the fault gates when a
/// `kill` rule fires.
pub fn mark_dead(world_rank: usize) {
    GLOBAL.mark_dead(world_rank)
}

/// Has `world_rank` been marked dead?
#[inline]
pub fn is_lost(world_rank: usize) -> bool {
    GLOBAL.is_lost(world_rank)
}

/// Stamp a heartbeat for `world_rank` (called on every communication
/// call). Free when staleness detection is disabled — the default — so
/// the no-faults communication path stays within its overhead budget.
pub fn heartbeat(world_rank: usize) {
    GLOBAL.heartbeat(world_rank)
}

/// The lowest member of `members` (world ranks) currently considered
/// lost: marked dead, or — when the heartbeat timeout is enabled —
/// heartbeat-stale. Consulted by blocked receives; `None` means everyone
/// looks alive.
pub fn lost_member(members: &[usize]) -> Option<usize> {
    GLOBAL.lost_member(members)
}

/// A survivor's-eye snapshot of a communicator's cohort: which members
/// are still alive and which have been lost. Built by
/// [`crate::Communicator::cohort_view`]; the `alive` list is exactly the
/// argument `shrink` expects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CohortView {
    /// World rank of each member, indexed by the communicator's rank.
    pub members: Vec<usize>,
    /// Local ranks whose member is still alive, ascending.
    pub alive: Vec<usize>,
    /// Local ranks whose member has been lost, ascending.
    pub lost: Vec<usize>,
}

impl CohortView {
    /// Build the view for `members` (world ranks in local-rank order).
    pub(crate) fn capture(members: &[usize]) -> CohortView {
        GLOBAL.capture(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test owns its registry: the process-wide one belongs to the
    // universes the other unit tests launch concurrently.

    #[test]
    fn dead_marks_are_idempotent_and_visible() {
        let reg = Registry::new();
        assert!(!reg.is_lost(901));
        assert_eq!(reg.lost_member(&[900, 901, 902]), None);
        reg.mark_dead(901);
        reg.mark_dead(901);
        assert!(reg.is_lost(901));
        assert_eq!(reg.lost_member(&[900, 901, 902]), Some(901));
        assert_eq!(reg.lost_member(&[900, 902]), None, "other cohorts unaffected");
        let view = reg.capture(&[900, 901, 902]);
        assert_eq!(view.alive, vec![0, 2]);
        assert_eq!(view.lost, vec![1]);
        reg.reset(0);
        assert!(!reg.is_lost(901));
    }

    #[test]
    fn stale_heartbeats_count_as_lost_only_when_enabled() {
        let reg = Registry::new();
        reg.heartbeat_timeout_ms.store(50, Ordering::Relaxed);
        reg.heartbeat(903);
        // Pretend 903's heartbeat is ancient.
        reg.heartbeats.lock().unwrap()[903] = 1;
        reg.heartbeat_timeout_ms.store(0, Ordering::Relaxed);
        assert_eq!(reg.lost_member(&[903]), None, "staleness off when disabled");
        reg.heartbeat_timeout_ms.store(50, Ordering::Relaxed);
        assert_eq!(reg.lost_member(&[903]), Some(903));
        let view = reg.capture(&[903, 904]);
        assert_eq!(view.lost, vec![0]);
        // 904 never heartbeat at all: not stale, just unstarted.
        assert_eq!(view.alive, vec![1]);
    }
}
