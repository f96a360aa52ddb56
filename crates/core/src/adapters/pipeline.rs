//! The one solve pipeline under the four adapters.
//!
//! [`Adapter`] owns, exactly once, everything a LISI solve does that is
//! not a solver package's own business: buffer checks → `configure` on
//! every rank → admission, session key and cache lookup, agreed across
//! the cohort in **one** `allgather` → on a miss `build`, its verdict
//! agreed in a second `allgather` (cold path only), then cached → `run`
//! under the `lisi_solve` timer → ledger → status array → the
//! non-convergence error. A [`Backend`] supplies what differs between
//! packages: its option parsing, what it builds, and how it runs it.

use std::sync::Arc;

use parking_lot::Mutex;
use probe::Counter;
use rcomm::Communicator;
use rsparse::{BlockRowPartition, CsrMatrix};

use crate::error::{LisiError, LisiResult};
use crate::ledger::{self, SolveInfo};
use crate::service::{self, SessionKey, SolverService};
use crate::state::LisiState;
use crate::traits::{MatrixFreePort, SparseSolverPort};

/// One solver package beneath the LISI port.
pub trait Backend: Default + Send + Sync + 'static {
    /// Package name: `get_all`'s header, the session key's backend and
    /// the ledger's.
    const NAME: &'static str;
    /// Set-up gathers the system onto rank 0, which the session cache
    /// then bills for the global footprint.
    const GATHERS_TO_ROOT: bool = false;
    /// The option table, parsed and validated into the package's terms.
    type Config;
    /// What set-up produces and the session cache keeps.
    type Artifact: Send + Sync + 'static;

    /// Parse the options. Runs on every rank before the first
    /// collective, so a bad value is the same typed error everywhere.
    fn configure(&self, state: &LisiState) -> LisiResult<Self::Config>;

    /// The ledger's (solver, preconditioner, relative tolerance).
    fn labels(_options: &rkrylov::Options) -> (Option<String>, Option<String>, Option<f64>) {
        (None, None, None)
    }

    /// Set up an assembled system. Collective. `matrix` is the rows the
    /// port ingested: an operator shares them rather than copying them.
    fn build(
        cfg: &Self::Config,
        comm: &Communicator,
        partition: BlockRowPartition,
        matrix: &Arc<CsrMatrix>,
    ) -> LisiResult<Self::Artifact>;

    /// Set up a solve whose operator is the application's `MatrixFree`
    /// port (`port` is the phase error when none is connected). Never
    /// cached: a callback has no fingerprint.
    fn build_matrix_free(
        _cfg: &Self::Config,
        _comm: &Communicator,
        _partition: BlockRowPartition,
        _port: LisiResult<Arc<dyn MatrixFreePort>>,
    ) -> LisiResult<Self::Artifact> {
        Err(LisiError::Unsupported(format!(
            "{} works on assembled entries and cannot run matrix-free",
            Self::NAME
        )))
    }

    /// Heap bytes a built artifact holds on this rank, when the package
    /// can count them; `None` bills the CSR-shaped estimate.
    fn artifact_bytes(_artifact: &Self::Artifact) -> Option<usize> {
        None
    }

    /// Solve `n_rhs` column-major right-hand sides into `x` (which holds
    /// the initial guesses) and report the outcome. Collective;
    /// `batched` asks for the package's multi-RHS driver where it has
    /// one.
    fn run(
        artifact: &Self::Artifact,
        cfg: Self::Config,
        comm: &Communicator,
        rhs: &[f64],
        x: &mut [f64],
        n_rhs: usize,
        batched: bool,
    ) -> LisiResult<SolveInfo>;
}

/// A LISI solver port over one solver package — the type behind the four
/// public adapter names ([`crate::RkspAdapter`], [`crate::RaztecAdapter`],
/// [`crate::RsluAdapter`], [`crate::RmgAdapter`]).
#[derive(Default)]
pub struct Adapter<B: Backend> {
    state: Mutex<LisiState>,
    pub(super) backend: B,
}

impl<B: Backend> Adapter<B> {
    const PACKAGE_NAME: &'static str = B::NAME;

    /// Fresh, un-initialized adapter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Connect the application's matrix-free port (done by the CCA
    /// component when the `"matrix-free"` uses port is wired).
    pub fn set_matrix_free(&self, port: Arc<dyn MatrixFreePort>) {
        self.state.lock().matrix_free = Some(port);
    }

    /// Solve all right-hand-side columns as one batch regardless of the
    /// `nrhs` option — the explicit multi-RHS entry point (the `nrhs`
    /// option is the declarative twin that makes plain
    /// [`SparseSolverPort::solve`] take this path). Every package shares
    /// its set-up across the columns; RKSP also runs them in lockstep
    /// through one k-wide Krylov call.
    pub fn solve_batch(&self, solution: &mut [f64], status: &mut [f64]) -> LisiResult<()> {
        self.solve_columns(solution, status, true)
    }

    /// Build after a session-cache miss (or matrix-free), then agree on
    /// the verdict: a rank that failed returns its own error, its peers
    /// one that names it, and nobody goes on to `run` alone. Returns the
    /// artifact and the bytes the cache bills for it.
    fn build_agreed(
        st: &LisiState,
        cfg: &B::Config,
        comm: &Communicator,
        system: Option<&Arc<CsrMatrix>>,
    ) -> LisiResult<(B::Artifact, usize)> {
        let rank = comm.rank();
        let built = st.build_partition().and_then(|partition| {
            let Some(matrix) = system else {
                let port = st.require_matrix_free();
                return Ok((B::build_matrix_free(cfg, comm, partition, port)?, 0));
            };
            let estimate = if B::GATHERS_TO_ROOT && rank == 0 {
                let global_nnz = matrix.nnz().saturating_mul(comm.size());
                service::approx_csr_bytes(global_nnz, partition.global_rows())
            } else {
                service::approx_csr_bytes(matrix.nnz(), partition.local_rows(rank))
            };
            let artifact = B::build(cfg, comm, partition, matrix)?;
            let bytes = B::artifact_bytes(&artifact).unwrap_or(estimate);
            Ok((artifact, bytes))
        });
        let verdicts = comm.allgather(built.as_ref().err().map(LisiError::to_string));
        let built = built?;
        match verdicts?.into_iter().enumerate().find_map(|(r, v)| v.map(|msg| (r, msg))) {
            Some((r, msg)) => Err(LisiError::Package(format!("set-up failed on rank {r}: {msg}"))),
            None => Ok(built),
        }
    }

    fn solve_columns(
        &self,
        solution: &mut [f64],
        status: &mut [f64],
        force_batch: bool,
    ) -> LisiResult<()> {
        // One solve, one identity: everything below — admission, set-up,
        // the package's own solve (whose guard folds into this one), the
        // ledger — commits its events under this id.
        let _solve = probe::trace::solve_guard();
        let st = self.state.lock();
        st.check_solve_buffers(solution, status)?;
        let comm = st.comm()?;
        let (rank, size) = (comm.rank(), comm.size());
        let cfg = self.backend.configure(&st)?;
        let rhs = st.require_rhs()?;
        // Matrix-free operators bypass the session cache (a callback's
        // identity cannot be fingerprinted). An assembled system is keyed
        // by its stored digest plus everything O(1) that set-up depends
        // on, so a solve hashes no matrix entries.
        let system = if st.matrix_free_requested() { None } else { Some(st.require_system()?.0) };
        let key = system.map(|_| SessionKey {
            backend: B::NAME,
            rank,
            size,
            fingerprint: service::session_fingerprint(
                st.matrix.digest(),
                rank,
                size,
                st.start_row.unwrap_or(0),
                st.global_cols.unwrap_or(0),
                &st.options.dump(),
            ),
        });

        // One agreement for both cohort decisions. Admission: if any
        // peer was refused, everyone returns Busy rather than leaving the
        // refused rank's peers stranded in a collective. Warm or cold: a
        // rank whose entry was evicted must not drag its warm peers into
        // a set-up collective they would skip. It is an allgather, not
        // an allreduce: fault plans address allreduce calls by index, and
        // the session layer must not shift the numbering of the solver's
        // own reductions.
        let svc = SolverService::global();
        let ticket = {
            let _wait = probe::span!("session_admit");
            svc.admit()
        };
        let hit = {
            let _lookup = probe::span!("session_lookup");
            key.as_ref().and_then(|k| svc.lookup::<B::Artifact>(k))
        };
        let votes = comm.allgather((ticket.is_ok(), hit.is_some()))?;
        let _ticket = ticket?;
        if !votes.iter().all(|v| v.0) {
            return Err(LisiError::Busy("a peer rank was refused admission".into()));
        }
        let warm = votes.iter().all(|v| v.1);
        if key.is_some() {
            probe::incr(if warm { Counter::SessionCacheHits } else { Counter::SessionCacheMisses });
        }
        // A warm session performs zero set-up — the "lisi_setup" span is
        // never even opened.
        let (artifact, setup_seconds) = match hit.filter(|_| warm) {
            Some(artifact) => (artifact, 0.0),
            None => {
                let setup_t = probe::SectionTimer::start("lisi_setup");
                let (artifact, bytes) = Self::build_agreed(&st, &cfg, comm, system)?;
                let artifact = Arc::new(artifact);
                if let Some(key) = key {
                    svc.insert(key, Arc::clone(&artifact) as Arc<_>, bytes);
                }
                (artifact, setup_t.stop())
            }
        };

        let batched = force_batch || st.options.get_parsed::<usize>("nrhs").unwrap_or(1) >= 2;
        if batched {
            probe::add(Counter::RhsBatched, st.n_rhs as u64);
            probe::note("batch", format!("nrhs={}", st.n_rhs));
        }
        let solve_t = probe::SectionTimer::start("lisi_solve");
        let mut info = B::run(&artifact, cfg, comm, rhs, solution, st.n_rhs, batched)?;
        info.report.solve_seconds = solve_t.stop();
        info.report.setup_seconds = setup_seconds + st.convert_seconds;
        info.backend = B::NAME;
        info.warm = warm;
        (info.ksp, info.pc, info.rtol) = B::labels(&st.options);
        ledger::emit(comm, &info);
        info.report.write_into(status)?;
        if info.report.converged {
            Ok(())
        } else {
            let reason = info.report.reason;
            Err(LisiError::Package(format!("{} did not converge (reason code {reason})", B::NAME)))
        }
    }
}

impl<B: Backend> SparseSolverPort for Adapter<B> {
    super::lisi_common_methods!();

    fn solve(&self, solution: &mut [f64], status: &mut [f64]) -> LisiResult<()> {
        self.solve_columns(solution, status, false)
    }
}

impl<B: Backend> crate::components::MatrixFreeSink for Adapter<B> {
    fn inject_matrix_free(&self, port: Arc<dyn MatrixFreePort>) {
        self.set_matrix_free(port);
    }
}
