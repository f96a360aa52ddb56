//! Neighbor-checkpointed Krylov state for elastic recovery.
//!
//! With `RSPARSE_CHECKPOINT_EVERY=k` (or `KspConfig::checkpoint_every`)
//! set to a nonzero period, a single-column CG, GMRES or FGMRES solve
//! deposits a snapshot of its per-rank state — the current iterate `x`
//! and the residual `r` — every `k` iterations (GMRES and FGMRES at the
//! first restart boundary `k` iterations past the last snapshot). Other
//! methods and batched solves deposit nothing. In the MPI picture each
//! rank's snapshot lives in the memory of its ring neighbour, rank
//! `(r + 1) mod size`, so losing any single rank leaves every snapshot —
//! including the dead rank's — alive on some survivor. In this in-process
//! SPMD runtime all rank threads share one heap, so a registry owned by
//! the universe ([`rcomm::Communicator::universe_store`]) *is* the
//! surviving neighbour copy; what the design preserves is the invariant
//! that matters for the recovery protocol: after `RankLost(d)`, the
//! survivors can assemble the newest snapshot set that **every** member
//! of the old cohort had deposited, `d` included. Two universes in one
//! process never see each other's snapshots, and the snapshots are freed
//! with their universe.
//!
//! Snapshots are keyed by world rank and double-buffered: ranks pass a
//! checkpoint boundary one collective apart, so at the moment of a loss
//! the newest snapshot may exist on only part of the cohort — the
//! previous one is kept so [`latest_consistent`] can always fall back to
//! the newest *complete* set. Deposits recycle their buffers
//! (`clear` + `extend_from_slice` into storage retained across deposits),
//! so a solve's steady state allocates nothing after each slot's first
//! two snapshots. Recovery layers should [`clear_all`] at solve entry.

use std::collections::HashMap;
use std::sync::Mutex;

use rcomm::Communicator;

/// One deposited snapshot of a rank's Krylov state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Iteration count at the checkpoint boundary.
    pub iteration: usize,
    /// First global row of this rank's block (keys the layout remap).
    pub start_row: usize,
    /// Local chunk of the iterate.
    pub x: Vec<f64>,
    /// Local chunk of the residual.
    pub r: Vec<f64>,
}

/// The two most recent snapshots for one world rank: `newest` and the one
/// before it (see module docs for why two).
#[derive(Debug, Default)]
struct Slot {
    newest: Snapshot,
    previous: Snapshot,
    /// How many deposits this slot has received (0, 1, or saturating 2).
    filled: u8,
}

/// A universe's retained snapshots by world rank.
#[derive(Default)]
struct Registry {
    slots: Mutex<HashMap<usize, Slot>>,
}

/// One member's `(start_row, x)` piece of a restored snapshot.
pub type SnapshotChunk = (usize, Vec<f64>);

impl Registry {
    fn clear_all(&self) {
        self.slots.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    fn deposit(&self, world_rank: usize, iteration: usize, start_row: usize, x: &[f64], r: &[f64]) {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let slot = slots.entry(world_rank).or_default();
        // Rotate: the old `previous` buffers become the write target.
        std::mem::swap(&mut slot.newest, &mut slot.previous);
        let dst = &mut slot.newest;
        dst.iteration = iteration;
        dst.start_row = start_row;
        dst.x.clear();
        dst.x.extend_from_slice(x);
        dst.r.clear();
        dst.r.extend_from_slice(r);
        slot.filled = (slot.filled + 1).min(2);
    }

    fn latest_consistent(&self, world_members: &[usize]) -> Option<(usize, Vec<SnapshotChunk>)> {
        let map = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        // The candidate iterations are the ones every member retains: the
        // newest complete set is the *minimum* over members of each member's
        // newest iteration — every member keeps its previous generation, so a
        // member that has advanced past `it` can still serve `it` as long as
        // only one boundary separates them (the collective lock-step
        // guarantees survivors are at most one checkpoint apart).
        let target = world_members
            .iter()
            .map(|w| map.get(w).filter(|s| s.filled > 0).map(|s| s.newest.iteration))
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .min()?;
        let mut chunks = Vec::with_capacity(world_members.len());
        for &w in world_members {
            let slot = map.get(&w)?;
            let snap = if slot.newest.iteration == target {
                &slot.newest
            } else if slot.filled >= 2 && slot.previous.iteration == target {
                &slot.previous
            } else {
                return None;
            };
            chunks.push((snap.start_row, snap.x.clone()));
        }
        chunks.sort_by_key(|&(s, _)| s);
        Some((target, chunks))
    }
}

/// Forget every snapshot of `comm`'s universe (recovery layers call this
/// at solve entry so a restored checkpoint can never leak across solves).
pub fn clear_all(comm: &Communicator) {
    comm.universe_store::<Registry>().clear_all();
}

/// Deposit a snapshot for the calling rank of `comm` (keyed by its world
/// rank). The previous newest snapshot is demoted, not dropped; buffers
/// are recycled in place. Cold and never inlined: the Krylov loops call
/// it behind a period check every iteration, and the store lookup must
/// not grow their code.
#[cold]
#[inline(never)]
pub fn deposit(comm: &Communicator, iteration: usize, start_row: usize, x: &[f64], r: &[f64]) {
    let me = comm.world_members()[comm.rank()];
    comm.universe_store::<Registry>().deposit(me, iteration, start_row, x, r);
}

/// The newest iteration for which **every** member of `comm` has a
/// snapshot, together with each member's `(start_row, x)` chunk at that
/// iteration, sorted by `start_row`. `None` if any member never deposited
/// or no common iteration exists among the retained generations.
pub fn latest_consistent(comm: &Communicator) -> Option<(usize, Vec<SnapshotChunk>)> {
    comm.universe_store::<Registry>().latest_consistent(comm.world_members())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_set_falls_back_to_previous_generation() {
        let reg = Registry::default();
        reg.deposit(0, 10, 0, &[1.0, 2.0], &[0.1, 0.2]);
        reg.deposit(1, 10, 2, &[3.0, 4.0], &[0.3, 0.4]);
        // Rank 0 advances to 20; 1 dies before depositing 20.
        reg.deposit(0, 20, 0, &[5.0, 6.0], &[0.5, 0.6]);
        let (it, chunks) = reg.latest_consistent(&[0, 1]).unwrap();
        assert_eq!(it, 10, "must fall back to the newest complete set");
        assert_eq!(chunks, vec![(0, vec![1.0, 2.0]), (2, vec![3.0, 4.0])]);
        // Once 1 catches up, the newer set wins.
        reg.deposit(1, 20, 2, &[7.0, 8.0], &[0.7, 0.8]);
        let (it, chunks) = reg.latest_consistent(&[0, 1]).unwrap();
        assert_eq!(it, 20);
        assert_eq!(chunks, vec![(0, vec![5.0, 6.0]), (2, vec![7.0, 8.0])]);
    }

    #[test]
    fn missing_member_means_no_consistent_set() {
        let reg = Registry::default();
        reg.deposit(0, 5, 0, &[1.0], &[0.0]);
        assert!(reg.latest_consistent(&[0, 1]).is_none());
        assert!(reg.latest_consistent(&[0]).is_some());
        reg.clear_all();
        assert!(reg.latest_consistent(&[0]).is_none());
    }

    #[test]
    fn deposits_recycle_buffers_without_reallocating() {
        let reg = Registry::default();
        let x = vec![1.0; 64];
        let r = vec![2.0; 64];
        reg.deposit(0, 10, 0, &x, &r);
        reg.deposit(0, 20, 0, &x, &r);
        // Steady state: both generations' buffers exist; further deposits
        // must reuse their capacity.
        let cap_before = {
            let slots = reg.slots.lock().unwrap();
            let slot = &slots[&0];
            (slot.newest.x.capacity(), slot.previous.x.capacity())
        };
        for it in [30, 40, 50] {
            reg.deposit(0, it, 0, &x, &r);
        }
        let slots = reg.slots.lock().unwrap();
        let slot = &slots[&0];
        assert_eq!(
            (slot.newest.x.capacity(), slot.previous.x.capacity()),
            cap_before,
            "steady-state deposits must not grow the buffers"
        );
        assert_eq!(slot.newest.iteration, 50);
        assert_eq!(slot.previous.iteration, 40);
    }
}
