//! Typed event counters.
//!
//! Counters are always-on: each is a relaxed per-thread atomic, so bumping
//! one costs a handful of nanoseconds regardless of the probe mode. The
//! probe mode only gates the *timing* machinery (spans, chrome events).

use crate::recorder;

/// Declare the counters once: the enum (one recorder slot per variant),
/// [`Counter::ALL`] in declaration order, and each variant's stable name.
macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident = $name:literal,)*) => {
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
            $($(#[$doc])* $variant,)*
        }

        /// Number of counter variants (recorder slot-array length).
        pub(crate) const COUNTER_COUNT: usize = [$($name),*].len();

        impl Counter {
            /// All variants, in declaration order (matching slot indices).
            pub const ALL: [Counter; COUNTER_COUNT] = [$(Counter::$variant),*];

            /// Stable snake_case name used by the JSON and summary sinks.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }
        }
    };
}

counters! {
    /// `barrier()` calls.
    Barriers = "barriers",
    /// `bcast()` calls.
    Bcasts = "bcasts",
    /// `allreduce()` / `allreduce_vec()` calls.
    Allreduces = "allreduces",
    /// `gather()` / `gatherv()` calls.
    Gathers = "gathers",
    /// `allgather()` / `allgatherv()` calls.
    Allgathers = "allgathers",
    /// `scatter()` calls.
    Scatters = "scatters",
    /// `alltoall()` calls.
    Alltoalls = "alltoalls",
    /// Point-to-point sends posted.
    SendsPosted = "sends_posted",
    /// Point-to-point receives completed.
    RecvsCompleted = "recvs_completed",
    /// Payload bytes handed to point-to-point sends.
    BytesSent = "bytes_sent",
    /// Payload bytes delivered by point-to-point receives.
    BytesReceived = "bytes_received",
    /// Halo-exchange messages posted by the distributed matvec.
    HaloMessages = "halo_messages",
    /// Halo-exchange payload bytes (the boundary values actually moved).
    HaloBytes = "halo_bytes",
    /// Operator applications (distributed matvec or shell apply).
    MatvecCalls = "matvec_calls",
    /// Preconditioner applications.
    PcApplies = "pc_applies",
    /// Krylov iterations across all solves.
    KspIterations = "ksp_iterations",
    /// Direct-solver numeric factorizations (incl. refactorizations).
    FactorCalls = "factor_calls",
    /// Direct-solver triangular solves (one per right-hand side).
    TriangularSolves = "triangular_solves",
    /// CCA port method invocations crossing the component boundary.
    PortCalls = "port_calls",
    /// `Services::get_port` lookups.
    PortFetches = "port_fetches",
    /// Faults fired by an armed `rcomm` fault plan.
    FaultsInjected = "faults_injected",
    /// Non-finite values observed in received halo payloads.
    HaloNonFinite = "halo_non_finite",
    /// Solver guard verdicts (non-finite residual, stagnation, or
    /// wall-clock budget) that stopped an iteration.
    GuardTrips = "guard_trips",
    /// Solve attempts started by the resilient solver (first tries and
    /// retries alike).
    ResilientAttempts = "resilient_attempts",
    /// Solves that succeeded only after a retry or a backend swap.
    ResilientRecoveries = "resilient_recoveries",
    /// Dependency levels of the level-ordered triangles built (the
    /// critical-path length of their sweeps), added once per triangle at
    /// build.
    SptrsvLevels = "sptrsv_levels",
    /// Level-width histogram, bumped once per level when a triangle is
    /// built: levels of width 1 (no independent rows side by side).
    SptrsvLevelWidth1 = "sptrsv_level_width_1",
    /// Levels of width 2–7.
    SptrsvLevelWidth2to7 = "sptrsv_level_width_2_7",
    /// Levels of width 8–31.
    SptrsvLevelWidth8to31 = "sptrsv_level_width_8_31",
    /// Levels of width 32–127.
    SptrsvLevelWidth32to127 = "sptrsv_level_width_32_127",
    /// Levels of width ≥ 128.
    SptrsvLevelWidth128Plus = "sptrsv_level_width_128_plus",
    /// World ranks marked lost in the cohort registry (killed by a fault
    /// rule or declared heartbeat-stale).
    RanksLost = "ranks_lost",
    /// Communicator shrinks performed by the elastic recovery path (one
    /// per successful `Communicator::shrink`-based repartition).
    CohortShrinks = "cohort_shrinks",
    /// Payload bytes fed through `allreduce`/`allreduce_vec` (per-rank
    /// contribution size; the unit the collective work model joins with).
    ReducedBytes = "reduced_bytes",
    /// Solver-service session lookups that found a cached setup (halo
    /// plan, format plan, factorization) for the requested fingerprint.
    SessionCacheHits = "session_cache_hits",
    /// Solver-service session lookups that had to build setup artifacts
    /// from scratch.
    SessionCacheMisses = "session_cache_misses",
    /// Cached sessions evicted to respect the LRU byte budget
    /// (`RSPARSE_SESSION_CACHE_MB`).
    SessionCacheEvictions = "session_cache_evictions",
    /// Right-hand sides solved as a batch through the LISI port; each
    /// batched solve adds its column count.
    RhsBatched = "rhs_batched",
}

impl Counter {
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
