//! Typed event counters.
//!
//! Counters are always-on: each is a relaxed per-thread atomic, so bumping
//! one costs a handful of nanoseconds regardless of the probe mode. The
//! probe mode only gates the *timing* machinery (spans, chrome events).

use crate::recorder;

/// Everything the instrumented layers count. One slot per variant in each
/// per-rank recorder.
///
/// The first block mirrors `rcomm::CommStats` (the communicator keeps its
/// own per-communicator snapshot; these are the per-rank totals across all
/// communicators). The rest are layer-specific: sparse halo traffic,
/// Krylov/direct solver work, and CCA component-layer activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// `barrier()` calls.
    Barriers,
    /// `bcast()` calls.
    Bcasts,
    /// Rooted `reduce()` calls.
    Reduces,
    /// `allreduce()` / `allreduce_vec()` calls.
    Allreduces,
    /// `gather()` / `gatherv()` calls.
    Gathers,
    /// `allgather()` / `allgatherv()` calls.
    Allgathers,
    /// `scatter()` calls.
    Scatters,
    /// `alltoall()` calls.
    Alltoalls,
    /// `scan()` / `exscan()` calls.
    Scans,
    /// Point-to-point sends posted.
    SendsPosted,
    /// Point-to-point receives completed.
    RecvsCompleted,
    /// Payload bytes handed to point-to-point sends.
    BytesSent,
    /// Payload bytes delivered by point-to-point receives.
    BytesReceived,
    /// Halo-exchange messages posted by the distributed matvec.
    HaloMessages,
    /// Halo-exchange payload bytes (the boundary values actually moved).
    HaloBytes,
    /// Allocations taken on the steady-state (primed-workspace) matvec
    /// path. Should stay 0 after the first matvec.
    SteadyStateAllocs,
    /// Operator applications (distributed matvec or shell apply).
    MatvecCalls,
    /// Preconditioner applications.
    PcApplies,
    /// Krylov iterations across all solves.
    KspIterations,
    /// Direct-solver numeric factorizations (incl. refactorizations).
    FactorCalls,
    /// Direct-solver triangular solves (one per right-hand side).
    TriangularSolves,
    /// CCA port method invocations crossing the component boundary.
    PortCalls,
    /// `Services::get_port` lookups.
    PortFetches,
    /// Faults fired by an armed `rcomm` fault plan.
    FaultsInjected,
    /// Non-finite values observed in received halo payloads.
    HaloNonFinite,
    /// Solver guard verdicts (non-finite residual, stagnation, or
    /// wall-clock budget) that stopped an iteration.
    GuardTrips,
    /// Solve attempts started by the resilient solver (first tries and
    /// retries alike).
    ResilientAttempts,
    /// Solves that succeeded only after a retry or a backend swap.
    ResilientRecoveries,
    /// Dependency levels of the level-ordered triangles built (the
    /// critical-path length of their sweeps), added once per triangle at
    /// build.
    SptrsvLevels,
    /// Level-width histogram, bumped once per level when a triangle is
    /// built: levels of width 1 (no independent rows side by side).
    SptrsvLevelWidth1,
    /// Levels of width 2–7.
    SptrsvLevelWidth2to7,
    /// Levels of width 8–31.
    SptrsvLevelWidth8to31,
    /// Levels of width 32–127.
    SptrsvLevelWidth32to127,
    /// Levels of width ≥ 128.
    SptrsvLevelWidth128Plus,
    /// World ranks marked lost in the cohort registry (killed by a fault
    /// rule or declared heartbeat-stale).
    RanksLost,
    /// Communicator shrinks performed by the elastic recovery path (one
    /// per successful `Communicator::shrink`-based repartition).
    CohortShrinks,
    /// Payload bytes fed through `allreduce`/`allreduce_vec` (per-rank
    /// contribution size; the unit the collective work model joins with).
    ReducedBytes,
    /// Solver-service session lookups that found a cached setup (halo
    /// plan, format plan, factorization) for the requested fingerprint.
    SessionCacheHits,
    /// Solver-service session lookups that had to build setup artifacts
    /// from scratch.
    SessionCacheMisses,
    /// Cached sessions evicted to respect the LRU byte budget
    /// (`RSPARSE_SESSION_CACHE_MB`).
    SessionCacheEvictions,
    /// Right-hand sides solved as a batch through the LISI port; each
    /// batched solve adds its column count.
    RhsBatched,
}

/// Number of counter variants (recorder slot-array length).
pub(crate) const COUNTER_COUNT: usize = 41;

impl Counter {
    /// All variants, in declaration order (matching slot indices).
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::Barriers,
        Counter::Bcasts,
        Counter::Reduces,
        Counter::Allreduces,
        Counter::Gathers,
        Counter::Allgathers,
        Counter::Scatters,
        Counter::Alltoalls,
        Counter::Scans,
        Counter::SendsPosted,
        Counter::RecvsCompleted,
        Counter::BytesSent,
        Counter::BytesReceived,
        Counter::HaloMessages,
        Counter::HaloBytes,
        Counter::SteadyStateAllocs,
        Counter::MatvecCalls,
        Counter::PcApplies,
        Counter::KspIterations,
        Counter::FactorCalls,
        Counter::TriangularSolves,
        Counter::PortCalls,
        Counter::PortFetches,
        Counter::FaultsInjected,
        Counter::HaloNonFinite,
        Counter::GuardTrips,
        Counter::ResilientAttempts,
        Counter::ResilientRecoveries,
        Counter::SptrsvLevels,
        Counter::SptrsvLevelWidth1,
        Counter::SptrsvLevelWidth2to7,
        Counter::SptrsvLevelWidth8to31,
        Counter::SptrsvLevelWidth32to127,
        Counter::SptrsvLevelWidth128Plus,
        Counter::RanksLost,
        Counter::CohortShrinks,
        Counter::ReducedBytes,
        Counter::SessionCacheHits,
        Counter::SessionCacheMisses,
        Counter::SessionCacheEvictions,
        Counter::RhsBatched,
    ];

    /// Stable snake_case name used by the JSON and summary sinks.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Barriers => "barriers",
            Counter::Bcasts => "bcasts",
            Counter::Reduces => "reduces",
            Counter::Allreduces => "allreduces",
            Counter::Gathers => "gathers",
            Counter::Allgathers => "allgathers",
            Counter::Scatters => "scatters",
            Counter::Alltoalls => "alltoalls",
            Counter::Scans => "scans",
            Counter::SendsPosted => "sends_posted",
            Counter::RecvsCompleted => "recvs_completed",
            Counter::BytesSent => "bytes_sent",
            Counter::BytesReceived => "bytes_received",
            Counter::HaloMessages => "halo_messages",
            Counter::HaloBytes => "halo_bytes",
            Counter::SteadyStateAllocs => "steady_state_allocs",
            Counter::MatvecCalls => "matvec_calls",
            Counter::PcApplies => "pc_applies",
            Counter::KspIterations => "ksp_iterations",
            Counter::FactorCalls => "factor_calls",
            Counter::TriangularSolves => "triangular_solves",
            Counter::PortCalls => "port_calls",
            Counter::PortFetches => "port_fetches",
            Counter::FaultsInjected => "faults_injected",
            Counter::HaloNonFinite => "halo_non_finite",
            Counter::GuardTrips => "guard_trips",
            Counter::ResilientAttempts => "resilient_attempts",
            Counter::ResilientRecoveries => "resilient_recoveries",
            Counter::SptrsvLevels => "sptrsv_levels",
            Counter::SptrsvLevelWidth1 => "sptrsv_level_width_1",
            Counter::SptrsvLevelWidth2to7 => "sptrsv_level_width_2_7",
            Counter::SptrsvLevelWidth8to31 => "sptrsv_level_width_8_31",
            Counter::SptrsvLevelWidth32to127 => "sptrsv_level_width_32_127",
            Counter::SptrsvLevelWidth128Plus => "sptrsv_level_width_128_plus",
            Counter::RanksLost => "ranks_lost",
            Counter::CohortShrinks => "cohort_shrinks",
            Counter::ReducedBytes => "reduced_bytes",
            Counter::SessionCacheHits => "session_cache_hits",
            Counter::SessionCacheMisses => "session_cache_misses",
            Counter::SessionCacheEvictions => "session_cache_evictions",
            Counter::RhsBatched => "rhs_batched",
        }
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Add `v` to counter `c` on the current thread's recorder.
#[inline]
pub fn add(c: Counter, v: u64) {
    recorder::with_local(|r| r.add_counter(c, v));
}

/// Increment counter `c` by one on the current thread's recorder.
#[inline]
pub fn incr(c: Counter) {
    add(c, 1);
}

/// Read counter `c` from the current thread's recorder.
pub fn get(c: Counter) -> u64 {
    recorder::with_local(|r| r.counter(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_exhaustive_and_ordered() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{} out of order", c.name());
        }
        // Names are unique.
        let mut names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTER_COUNT);
    }
}
