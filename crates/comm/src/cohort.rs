//! Cohort health: who is alive, who has been lost.
//!
//! The SPMD runtime emulates a fixed-size MPI cohort with one thread per
//! rank. When a rank dies — today via a `kind=kill` fault rule, in a real
//! deployment via a node failure — its peers must reach a *rank-consistent*
//! verdict [`crate::CommError::RankLost`] instead of hanging until the
//! deadlock watchdog gives up. Each universe owns one registry, the
//! verdict's source of truth for its ranks and for no other universe's:
//!
//! * **kill marks** (the authoritative in-process detector): the fault
//!   gate marks a rank dead the instant a `kill` rule fires, and every
//!   blocked receive polls the marks on a short slice so all survivors
//!   fail fast with the *same* lost rank;
//! * **heartbeats**: every communication call stamps a per-world-rank
//!   wall-clock heartbeat. With
//!   [`crate::Communicator::set_heartbeat_timeout_ms`] given a nonzero
//!   value, a member whose heartbeat is older than the timeout is *also*
//!   reported lost while a peer is blocked waiting on it — the
//!   belt-and-braces detector for a genuinely wedged rank that never got
//!   to mark itself dead. It defaults to off (0) because the in-process
//!   transport always delivers the authoritative kill signal, and a
//!   staleness verdict can misfire on a rank that is legitimately
//!   compute-bound on a loaded CI machine.
//!
//! State is indexed by *world* rank and lives exactly as long as the
//! universe: a casualty stays a casualty for every communicator of its
//! universe, and a later launch starts with a clean cohort.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// One universe's kill marks and heartbeats.
pub(crate) struct Registry {
    /// Fast-path flag: has *any* rank been marked dead? One load
    /// keeps the no-faults paths from scanning the marks.
    any_dead: AtomicBool,
    /// Heartbeat staleness timeout in milliseconds; 0 (the default) is off.
    heartbeat_timeout_ms: AtomicU64,
    /// Kill marks, indexed by world rank.
    dead: Box<[AtomicBool]>,
    /// Millisecond heartbeat timestamps, indexed by world rank. A slot of
    /// 0 means "never heard from".
    heartbeats: Box<[AtomicU64]>,
}

fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

impl Registry {
    /// A clean cohort of `world_size` ranks.
    pub(crate) fn new(world_size: usize) -> Self {
        Registry {
            any_dead: AtomicBool::new(false),
            heartbeat_timeout_ms: AtomicU64::new(0),
            dead: (0..world_size).map(|_| AtomicBool::new(false)).collect(),
            heartbeats: (0..world_size).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Set the heartbeat staleness timeout (0 disables).
    pub(crate) fn set_heartbeat_timeout_ms(&self, ms: u64) {
        self.heartbeat_timeout_ms.store(ms, Ordering::Relaxed);
    }

    /// Mark `world_rank` dead. Idempotent; called by the fault gate when a
    /// `kill` rule fires. The `Release` store of `any_dead` publishes the
    /// mark to every reader that loads `any_dead` with `Acquire` first.
    pub(crate) fn mark_dead(&self, world_rank: usize) {
        if !self.dead[world_rank].swap(true, Ordering::Relaxed) {
            probe::incr(probe::Counter::RanksLost);
        }
        self.any_dead.store(true, Ordering::Release);
    }

    /// Has `world_rank` been marked dead?
    #[inline]
    pub(crate) fn is_lost(&self, world_rank: usize) -> bool {
        self.any_dead.load(Ordering::Acquire) && self.dead[world_rank].load(Ordering::Relaxed)
    }

    /// Stamp a heartbeat for `world_rank` (on every communication call).
    /// Free when staleness detection is off — the default — so the
    /// no-faults communication path stays within its overhead budget.
    #[inline]
    pub(crate) fn heartbeat(&self, world_rank: usize) {
        if self.heartbeat_timeout_ms.load(Ordering::Relaxed) != 0 {
            self.heartbeats[world_rank].store(now_ms(), Ordering::Relaxed);
        }
    }

    /// Is `world_rank` lost: marked dead, or — with the timeout on —
    /// heard from once and silent for longer than the timeout? A rank
    /// never heard from is not stale, just unstarted: the launcher's
    /// problem.
    fn lost(&self, world_rank: usize, timeout: u64, now: u64) -> bool {
        let last = self.heartbeats[world_rank].load(Ordering::Relaxed);
        self.is_lost(world_rank) || (timeout > 0 && last != 0 && now.saturating_sub(last) > timeout)
    }

    /// The lowest member of `members` (world ranks) currently considered
    /// lost. Consulted by blocked receives; `None` means everyone looks
    /// alive.
    pub(crate) fn lost_member(&self, members: &[usize]) -> Option<usize> {
        let timeout = self.heartbeat_timeout_ms.load(Ordering::Relaxed);
        if timeout == 0 && !self.any_dead.load(Ordering::Acquire) {
            return None;
        }
        let now = now_ms();
        members.iter().copied().find(|&m| self.lost(m, timeout, now))
    }

    /// The survivor's-eye view of `members` (world ranks in local-rank
    /// order).
    pub(crate) fn capture(&self, members: &[usize]) -> CohortView {
        let timeout = self.heartbeat_timeout_ms.load(Ordering::Relaxed);
        let now = now_ms();
        let (lost, alive): (Vec<usize>, Vec<usize>) =
            (0..members.len()).partition(|&r| self.lost(members[r], timeout, now));
        CohortView { members: members.to_vec(), alive, lost }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_marks_are_idempotent_and_visible() {
        let reg = Registry::new(905);
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
    }

    #[test]
    fn stale_heartbeats_count_as_lost_only_when_enabled() {
        let reg = Registry::new(905);
        reg.set_heartbeat_timeout_ms(50);
        reg.heartbeat(903);
        // Pretend 903's heartbeat is ancient.
        reg.heartbeats[903].store(1, Ordering::Relaxed);
        reg.set_heartbeat_timeout_ms(0);
        assert_eq!(reg.lost_member(&[903]), None, "staleness off when disabled");
        reg.set_heartbeat_timeout_ms(50);
        assert_eq!(reg.lost_member(&[903]), Some(903));
        let view = reg.capture(&[903, 904]);
        assert_eq!(view.lost, vec![0]);
        // 904 never heartbeat at all: not stale, just unstarted.
        assert_eq!(view.alive, vec![1]);
    }
}
