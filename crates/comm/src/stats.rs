//! Per-communicator traffic accounting.
//!
//! Generalizes the old single `allreduce_count()` into a full
//! [`CommStats`]: every public collective wrapper and point-to-point
//! operation bumps a relaxed atomic here, and mirrors the event into the
//! per-rank `probe` counters so traffic shows up in probe reports too.
//!
//! Counts are **per communicator**: `dup()`/`split()` children start from
//! zero, so a solver handed a duplicated communicator can be audited in
//! isolation. Byte counts are the sizes of the payload values as handed
//! to `send`/`recv` (`size_of::<T>()`; a payload that boxes or shares its
//! storage counts at handle size), and 8 bytes per value a halo line's
//! `post` is handed or its `take` delivers — the data a halo moves.

use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot of one communicator's operation counts, from
/// [`crate::Communicator::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Point-to-point sends posted (`send`, and the send half of
    /// `sendrecv`).
    pub sends: u64,
    /// Point-to-point receives completed (`recv`, and the receive half of
    /// `sendrecv`).
    pub recvs: u64,
    /// Payload bytes handed to point-to-point sends.
    pub bytes_sent: u64,
    /// Payload bytes delivered by point-to-point receives.
    pub bytes_received: u64,
    /// `barrier()` calls.
    pub barriers: u64,
    /// `bcast()` calls.
    pub bcasts: u64,
    /// `allreduce()`/`allreduce_vec()` calls.
    pub allreduces: u64,
    /// `gather()`/`gatherv()` calls.
    pub gathers: u64,
    /// `allgather()`/`allgatherv()` calls.
    pub allgathers: u64,
    /// `scatter()` calls.
    pub scatters: u64,
    /// `alltoall()` calls.
    pub alltoalls: u64,
}

impl CommStats {
    /// Total collective operations of any flavour.
    pub fn collective_calls(&self) -> u64 {
        self.barriers
            + self.bcasts
            + self.allreduces
            + self.gathers
            + self.allgathers
            + self.scatters
            + self.alltoalls
    }

    /// Total point-to-point operations (sends + receives).
    pub fn point_to_point_calls(&self) -> u64 {
        self.sends + self.recvs
    }
}

/// The live counters behind [`CommStats`]. One per communicator.
#[derive(Default)]
pub(crate) struct StatsCell {
    sends: AtomicU64,
    recvs: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    barriers: AtomicU64,
    bcasts: AtomicU64,
    allreduces: AtomicU64,
    gathers: AtomicU64,
    allgathers: AtomicU64,
    scatters: AtomicU64,
    alltoalls: AtomicU64,
}

macro_rules! bump {
    ($fn_name:ident, $field:ident, $probe:ident) => {
        #[inline]
        pub(crate) fn $fn_name(&self) {
            self.$field.fetch_add(1, Ordering::Relaxed);
            probe::incr(probe::Counter::$probe);
        }
    };
}

impl StatsCell {
    bump!(barrier, barriers, Barriers);
    bump!(bcast, bcasts, Bcasts);
    bump!(allreduce, allreduces, Allreduces);
    bump!(gather, gathers, Gathers);
    bump!(allgather, allgathers, Allgathers);
    bump!(scatter, scatters, Scatters);
    bump!(alltoall, alltoalls, Alltoalls);

    #[inline]
    pub(crate) fn send(&self, bytes: u64) {
        self.sends.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
        probe::incr(probe::Counter::SendsPosted);
        probe::add(probe::Counter::BytesSent, bytes);
    }

    #[inline]
    pub(crate) fn recv(&self, bytes: u64) {
        self.recvs.fetch_add(1, Ordering::Relaxed);
        self.bytes_received.fetch_add(bytes, Ordering::Relaxed);
        probe::incr(probe::Counter::RecvsCompleted);
        probe::add(probe::Counter::BytesReceived, bytes);
    }

    pub(crate) fn allreduce_count(&self) -> u64 {
        self.allreduces.load(Ordering::Relaxed)
    }

    pub(crate) fn snapshot(&self) -> CommStats {
        CommStats {
            sends: self.sends.load(Ordering::Relaxed),
            recvs: self.recvs.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            barriers: self.barriers.load(Ordering::Relaxed),
            bcasts: self.bcasts.load(Ordering::Relaxed),
            allreduces: self.allreduces.load(Ordering::Relaxed),
            gathers: self.gathers.load(Ordering::Relaxed),
            allgathers: self.allgathers.load(Ordering::Relaxed),
            scatters: self.scatters.load(Ordering::Relaxed),
            alltoalls: self.alltoalls.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Universe;

    /// A scripted 4-rank exchange with exact expected counts per rank:
    /// one ring send/recv of a `[f64; 4]` (32 bytes each way), a broadcast,
    /// a scatter, a gather, a barrier and an allreduce.
    #[test]
    fn scripted_four_rank_exchange_counts_exactly() {
        let stats = Universe::run(4, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            let payload = [c.rank() as f64; 4];
            c.send(next, 0, payload).unwrap();
            let got: [f64; 4] = c.recv(prev, 0).unwrap();
            assert_eq!(got, [prev as f64; 4]);

            let b = c.bcast(0, 17u64).unwrap();
            assert_eq!(b, 17);

            let chunks = if c.is_root() {
                Some((0..4).map(|r| vec![r as f64, -(r as f64)]).collect())
            } else {
                None
            };
            let mine = c.scatter(0, chunks).unwrap();
            assert_eq!(mine, vec![c.rank() as f64, -(c.rank() as f64)]);

            let gathered = c.gather(0, c.rank()).unwrap();
            if c.is_root() {
                assert_eq!(gathered, Some(vec![0, 1, 2, 3]));
            }

            c.barrier().unwrap();
            let total = c.allreduce(1u64, |a, b| a + b).unwrap();
            assert_eq!(total, 4);

            c.stats()
        });

        for (rank, s) in stats.iter().enumerate() {
            assert_eq!(s.sends, 1, "rank {rank} sends");
            assert_eq!(s.recvs, 1, "rank {rank} recvs");
            assert_eq!(s.bytes_sent, 32, "rank {rank} bytes_sent");
            assert_eq!(s.bytes_received, 32, "rank {rank} bytes_received");
            assert_eq!(s.bcasts, 1, "rank {rank} bcasts");
            assert_eq!(s.scatters, 1, "rank {rank} scatters");
            assert_eq!(s.gathers, 1, "rank {rank} gathers");
            assert_eq!(s.barriers, 1, "rank {rank} barriers");
            assert_eq!(s.allreduces, 1, "rank {rank} allreduces");
            assert_eq!(s.allgathers, 0);
            assert_eq!(s.alltoalls, 0);
            assert_eq!(s.collective_calls(), 5, "rank {rank} collectives");
            assert_eq!(s.point_to_point_calls(), 2, "rank {rank} p2p");
        }
    }

    #[test]
    fn dup_and_split_children_start_from_zero() {
        let out = Universe::run(2, |c| {
            c.allreduce(0u32, |a, b| a + b).unwrap();
            let d = c.dup().unwrap();
            let child_before = d.stats();
            d.barrier().unwrap();
            (c.stats(), child_before, d.stats())
        });
        for (parent, child_before, child_after) in out {
            assert_eq!(parent.allreduces, 1);
            // The dup's allgather-free construction leaves the child clean.
            assert_eq!(child_before, Default::default());
            assert_eq!(child_after.barriers, 1);
            // Child traffic never leaks into the parent.
            assert_eq!(parent.barriers, 0);
        }
    }

    #[test]
    fn sendrecv_counts_both_halves() {
        let out = Universe::run(2, |c| {
            let other = 1 - c.rank();
            let _: u64 = c.sendrecv(other, 3, c.rank() as u64, other, 3).unwrap();
            c.stats()
        });
        for s in out {
            assert_eq!(s.sends, 1);
            assert_eq!(s.recvs, 1);
            assert_eq!(s.bytes_sent, 8);
            assert_eq!(s.bytes_received, 8);
        }
    }
}
