//! The resilient solve driver: a [`SparseSolverPort`] that orchestrates
//! *other* solver components and survives their failures.
//!
//! The paper's central claim is that a common interface makes solver
//! packages interchangeable. This module turns that interchangeability
//! into a fault-tolerance mechanism: because every backend speaks
//! `lisi.SparseSolver`, a failed solve can be retried — on the same
//! backend with adjusted parameters, or on an entirely different package
//! — by replaying the captured setup phase onto the next port in a
//! [`RetryPolicy`] chain. The swap itself is the CCA builder operation
//! (`disconnect` + `connect` of the driver's uses port), so the recovery
//! path exercises exactly the dynamic-composition machinery of §4.
//!
//! Failure taxonomy handled here (`next_step` maps an error to it):
//!
//! - **transient communication faults** (injected faults, suspected
//!   deadlocks, departed peers): retried on the *same* backend after an
//!   exponential backoff, up to `max_transient_retries` times;
//! - **numerical failures** (divergence, stagnation, breakdown, budget
//!   exhaustion — surfaced by the guards in `rkrylov`/`raztec` as
//!   non-convergence errors) and every other error: no point retrying
//!   identically, so the driver swaps to the next attempt spec in the
//!   chain;
//! - **lost ranks** ([`rcomm::CommError::RankLost`] — a member stopped
//!   servicing communication for good): no amount of retrying at the
//!   old size can succeed, so the survivors *shrink* the communicator
//!   around the casualty, repartition its block rows from the
//!   neighbour-mirrored copy of the problem data, restore the newest
//!   cohort-consistent Krylov checkpoint (falling back to zeros when
//!   checkpointing was off) and re-run the same attempt spec on the
//!   smaller cohort (`recovery = 3`, with the new cohort size in
//!   `STATUS_COHORT`). Each survivor mirrors its new block again, so a
//!   second loss in the same solve recovers the same way. A solve of
//!   several right-hand sides swaps instead;
//! - **exhaustion**: every spec failed. The driver still writes a full
//!   status array (`converged = 0`, `recovery = −1`, the attempt count)
//!   before returning a structured error — callers always get the
//!   post-solve statistics the interface promises, even for a lost
//!   battle.
//!
//! One record: every transition — start, ok, retry, swap, exhausted,
//! casualty, shrink, shrink-failed — is one [`probe::EventKind::Attempt`]
//! event in the calling thread's log. The driver keeps the events it
//! committed (a long attempt can push them out of the black box), and
//! the postmortem's `recovery_path` and `cohort_change` are rendered from
//! them ([`crate::postmortem`]); in JSON probe mode each is also printed
//! as its [`probe::flight::record_json`] line.
//!
//! The recovery state — the mirrored blocks and the Krylov checkpoints —
//! belongs to the universe ([`rcomm::Communicator::universe_store`]): two
//! universes in one process never see each other's, and it is freed with
//! the universe.
//!
//! Rank consistency: each attempt runs on a fresh `dup()` of the
//! driver's communicator, and the numerical guards downstream fold
//! their verdicts into existing reductions, so under rank-consistent
//! failures every rank walks the same attempt sequence. Under
//! rank-*divergent* failures (one rank errors out of a collective while
//! its peers block), the peers' deadlock watchdog converts the hang
//! into a transient error within `RCOMM_DEADLOCK_TIMEOUT_SECS`, and the
//! bounded attempt count guarantees eventual termination with a
//! structured verdict on every rank — never a permanent deadlock.

use std::collections::BTreeMap;
use std::sync::{Arc, Weak};
use std::time::Duration;

use cca::{BuilderService, CcaError, ComponentId, Framework, Services};
use parking_lot::{Mutex, RwLock};
use probe::AttemptOutcome;

use crate::components::{SOLVER_PORT, SOLVER_PORT_TYPE};
use crate::error::{LisiError, LisiResult};
use crate::state::LisiState;
use crate::status::{SolveReport, STATUS_LEN};
use crate::traits::SparseSolverPort;
use crate::types::SparseStruct;

/// The neighbour mirror of each rank's set-up data (block rows +
/// right-hand side). In the MPI picture this copy lives in the memory of
/// rank `(r + 1) mod size` — the same ring placement the Krylov
/// checkpoints use — so one lost rank leaves every block recoverable on a
/// survivor. In this in-process SPMD runtime all rank threads share one
/// heap, so a store owned by the universe, keyed by world rank, plays the
/// neighbour's part; what matters for the recovery protocol is that after
/// `RankLost(d)` the casualty's ring neighbour can produce `d`'s exact
/// block for the repartition.
mod mirror {
    use std::collections::HashMap;
    use std::sync::Arc;

    use parking_lot::Mutex;
    use rcomm::Communicator;
    use rsparse::CsrMatrix;

    use crate::state::LisiState;

    #[derive(Clone)]
    pub(super) struct Block {
        pub start_row: usize,
        pub matrix: Arc<CsrMatrix>,
        pub rhs: Vec<f64>,
    }

    #[derive(Default)]
    struct Store(Mutex<HashMap<usize, Block>>);

    /// Overwrite the calling rank's mirrored block with the state's
    /// current one — the matrix is shared, not copied. Every solve entry
    /// and every shrink re-deposits, so a repartition never meets a block
    /// of an earlier solve or layout.
    pub(super) fn deposit(st: &LisiState) {
        let (Ok(comm), Some(matrix), Some(rhs)) = (st.comm(), st.matrix.get(), &st.rhs) else {
            return;
        };
        let block = Block {
            start_row: st.start_row.unwrap_or(0),
            matrix: Arc::clone(matrix),
            rhs: rhs.clone(),
        };
        let me = comm.world_members()[comm.rank()];
        comm.universe_store::<Store>().0.lock().insert(me, block);
    }

    pub(super) fn get(comm: &Communicator, world_rank: usize) -> Option<Block> {
        comm.universe_store::<Store>().0.lock().get(&world_rank).cloned()
    }
}

/// Uses-port name through which the resilient driver reaches its
/// current backend solver (type [`SOLVER_PORT_TYPE`]).
pub const BACKEND_PORT: &str = "resilient-backend";

/// Option keys consumed by the driver itself — everything else is
/// replayed verbatim onto each backend.
const RESILIENT_KEYS: [&str; 3] =
    ["retry_policy", "resilient_max_transient_retries", "resilient_backoff_ms"];

/// One entry in a retry chain: which backend to use and which option
/// overrides to apply on top of the caller's options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptSpec {
    /// Backend name, resolved through the connected [`BackendSwitch`].
    pub backend: String,
    /// `(key, value)` pairs applied after the caller's own options.
    pub overrides: Vec<(String, String)>,
}

/// An ordered fallback chain plus the transient-retry knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempt specs, tried in order.
    pub attempts: Vec<AttemptSpec>,
    /// How many extra times a *transient* failure may retry the same
    /// spec before the driver moves on.
    pub max_transient_retries: usize,
    /// Base of the exponential backoff between transient retries.
    pub backoff_base_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { attempts: Vec::new(), max_transient_retries: 2, backoff_base_ms: 5 }
    }
}

impl AttemptSpec {
    /// Render this attempt back in the `retry_policy` grammar
    /// (`backend[:key=value,…]`).
    pub fn spec(&self) -> String {
        if self.overrides.is_empty() {
            return self.backend.clone();
        }
        let opts: Vec<String> = self.overrides.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{}:{}", self.backend, opts.join(","))
    }
}

impl RetryPolicy {
    /// Render the attempt chain back in the `retry_policy` grammar —
    /// stamped into postmortem documents so a failure dump names the
    /// exact chain that was walked.
    pub fn spec(&self) -> String {
        let parts: Vec<String> = self.attempts.iter().map(AttemptSpec::spec).collect();
        parts.join(" -> ")
    }

    /// Parse the chain grammar used by the `"retry_policy"` option:
    ///
    /// ```text
    /// backend[:key=value[,key=value…]] [-> backend[:…]]…
    /// ```
    ///
    /// e.g. `"rksp:solver=cg -> rksp:solver=gmres,restart=30 -> rslu"`.
    /// Backend names are whatever the connected [`BackendSwitch`] knows;
    /// whitespace around separators is ignored.
    pub fn parse(spec: &str) -> LisiResult<RetryPolicy> {
        let bad = |reason: String| LisiError::BadParameter { key: "retry_policy".into(), reason };
        let mut attempts = Vec::new();
        for part in spec.split("->") {
            let part = part.trim();
            if part.is_empty() {
                return Err(bad(format!("empty attempt spec in '{spec}'")));
            }
            let (backend, opts) = match part.split_once(':') {
                Some((b, o)) => (b.trim(), o.trim()),
                None => (part, ""),
            };
            if backend.is_empty() {
                return Err(bad(format!("missing backend name in '{part}'")));
            }
            let mut overrides = Vec::new();
            if !opts.is_empty() {
                for kv in opts.split(',') {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| bad(format!("expected key=value, got '{kv}'")))?;
                    let (k, v) = (k.trim(), v.trim());
                    if k.is_empty() {
                        return Err(bad(format!("empty key in '{kv}'")));
                    }
                    overrides.push((k.to_string(), v.to_string()));
                }
            }
            attempts.push(AttemptSpec { backend: backend.to_string(), overrides });
        }
        Ok(RetryPolicy { attempts, ..RetryPolicy::default() })
    }
}

/// Resolves a backend name to a live solver port — the seam between the
/// driver's policy logic and however the backends are hosted.
pub trait BackendSwitch: Send + Sync {
    /// Make `name` the active backend and return its port.
    fn acquire(&self, name: &str) -> LisiResult<Arc<dyn SparseSolverPort>>;
}

/// A switch over plain `Arc` ports — for tests and library embedders
/// that do not run a CCA framework.
#[derive(Default)]
pub struct StaticSwitch {
    backends: BTreeMap<String, Arc<dyn SparseSolverPort>>,
}

impl StaticSwitch {
    /// Empty switch.
    pub fn new() -> Self {
        StaticSwitch::default()
    }

    /// Register `port` under `name` (builder style).
    pub fn with(mut self, name: &str, port: Arc<dyn SparseSolverPort>) -> Self {
        self.backends.insert(name.to_string(), port);
        self
    }
}

impl BackendSwitch for StaticSwitch {
    fn acquire(&self, name: &str) -> LisiResult<Arc<dyn SparseSolverPort>> {
        self.backends
            .get(name)
            .cloned()
            .ok_or_else(|| LisiError::InvalidInput(format!("no backend registered under '{name}'")))
    }
}

/// The CCA-native switch: every `acquire` rewires the driver
/// component's [`BACKEND_PORT`] uses port to the named provider through
/// the framework's [`BuilderService`] (a `disconnect` + `connect` pair,
/// visible in the builder event log), then fetches the freshly
/// connected port. Holds the framework weakly — the application owns
/// the framework; the switch must not keep it (or the component cycle
/// it contains) alive.
pub struct FrameworkSwitch {
    framework: Weak<RwLock<Framework>>,
    user: ComponentId,
    uses_port: String,
    providers: BTreeMap<String, ComponentId>,
}

impl FrameworkSwitch {
    /// A switch that rewires `user`'s `uses_port` inside `framework`.
    pub fn new(framework: &Arc<RwLock<Framework>>, user: ComponentId, uses_port: &str) -> Self {
        FrameworkSwitch {
            framework: Arc::downgrade(framework),
            user,
            uses_port: uses_port.to_string(),
            providers: BTreeMap::new(),
        }
    }

    /// Map `name` to a provider component instance (builder style).
    pub fn with_provider(mut self, name: &str, id: ComponentId) -> Self {
        self.providers.insert(name.to_string(), id);
        self
    }
}

impl BackendSwitch for FrameworkSwitch {
    fn acquire(&self, name: &str) -> LisiResult<Arc<dyn SparseSolverPort>> {
        let provider = self.providers.get(name).cloned().ok_or_else(|| {
            LisiError::InvalidInput(format!("no provider component registered under '{name}'"))
        })?;
        let fw = self.framework.upgrade().ok_or_else(|| {
            LisiError::BadPhase("the CCA framework behind this switch is gone".into())
        })?;
        let mut fw = fw.write();
        let mut builder = BuilderService::new(&mut fw);
        match builder.disconnect(&self.user, &self.uses_port) {
            Ok(()) | Err(CcaError::NotConnected { .. }) => {}
            Err(e) => return Err(LisiError::Package(e.to_string())),
        }
        builder
            .connect(&self.user, &self.uses_port, &provider, SOLVER_PORT)
            .map_err(|e| LisiError::Package(e.to_string()))?;
        fw.services(&self.user)
            .and_then(|s| s.get_port::<Arc<dyn SparseSolverPort>>(&self.uses_port))
            .map_err(|e| LisiError::Package(e.to_string()))
    }
}

/// The resilient driver. Speaks [`SparseSolverPort`] like any adapter,
/// but its `solve` delegates to the backends selected by the policy.
#[derive(Default)]
pub struct ResilientSolver {
    state: Mutex<LisiState>,
    policy: Mutex<RetryPolicy>,
    switch: Mutex<Option<Arc<dyn BackendSwitch>>>,
}

impl ResilientSolver {
    const PACKAGE_NAME: &str = "resilient";

    /// Fresh driver with an empty policy and no switch.
    pub fn new() -> Self {
        ResilientSolver::default()
    }

    /// Connect the backend switch (done by the embedding application or
    /// the CCA driver wiring).
    pub fn set_backends(&self, switch: Arc<dyn BackendSwitch>) {
        *self.switch.lock() = Some(switch);
    }

    /// Install a policy programmatically. The `"retry_policy"` option,
    /// if set, overrides the attempt chain (but not the retry knobs) at
    /// solve time.
    pub fn set_policy(&self, policy: RetryPolicy) {
        *self.policy.lock() = policy;
    }

    /// The policy in force for a solve: programmatic base, with the
    /// generic options (§6.5 surface) layered on top.
    fn effective_policy(&self, st: &LisiState) -> LisiResult<RetryPolicy> {
        let mut policy = self.policy.lock().clone();
        if let Some(spec) = st.options.get("retry_policy") {
            policy.attempts = RetryPolicy::parse(&spec)?.attempts;
        }
        if let Some(n) = st.options.parse_first(&["resilient_max_transient_retries"])? {
            policy.max_transient_retries = n;
        }
        if let Some(ms) = st.options.parse_first(&["resilient_backoff_ms"])? {
            policy.backoff_base_ms = ms;
        }
        Ok(policy)
    }

    /// The elastic recovery action: shrink the communicator around the
    /// casualty, repartition its block rows from the neighbour mirror,
    /// and restore the newest cohort-consistent Krylov checkpoint.
    ///
    /// Collective on the survivor set — every survivor reaches this from
    /// the same rank-consistent `RankLost` verdict. Mutates the captured
    /// setup state in place (communicator, distribution, matrix, RHS),
    /// so the ordinary [`Self::configure_backend`] replay rebuilds the
    /// halo and SpMV plans for the new layout through the cached setup
    /// path, and mirrors the new block. Returns the new cohort size, the
    /// checkpoint iteration resumed from and the initial guess for this
    /// rank's new block: the checkpoint slice when one exists, zeros
    /// otherwise (restart from scratch).
    fn shrink_after_loss(
        st: &mut LisiState,
        lost_world: usize,
    ) -> LisiResult<(usize, usize, Vec<f64>)> {
        let comm = st.comm()?;
        let old_size = comm.size();
        let dead_local =
            comm.world_members().iter().position(|&w| w == lost_world).ok_or_else(|| {
                LisiError::Package(format!(
                    "world rank {lost_world} reported lost is not a cohort member"
                ))
            })?;
        let survivors: Vec<usize> = (0..old_size).filter(|&r| r != dead_local).collect();
        let shrunken = comm.shrink(&survivors).map_err(LisiError::from)?;
        // The casualty's ring neighbour serves its mirrored block.
        let extra = if comm.rank() == (dead_local + 1) % old_size {
            let block = mirror::get(comm, lost_world).ok_or_else(|| {
                LisiError::Package(format!(
                    "no mirrored block for lost rank {lost_world}; its rows are unrecoverable"
                ))
            })?;
            Some((block.start_row, rsparse::CsrMatrix::clone(&block.matrix), block.rhs))
        } else {
            None
        };
        let matrix = st
            .matrix
            .get()
            .ok_or_else(|| LisiError::BadPhase("cannot repartition before setupMatrix".into()))?;
        let rhs = st
            .rhs
            .as_deref()
            .ok_or_else(|| LisiError::BadPhase("cannot repartition before setupRHS".into()))?;
        let global_rows = st
            .global_cols
            .ok_or_else(|| LisiError::BadPhase("cannot repartition before setGlobalCols".into()))?;
        let (new_start, new_matrix, new_rhs) = rsparse::DistCsrMatrix::repartition_block_rows(
            &shrunken,
            st.start_row.unwrap_or(0),
            matrix,
            rhs,
            extra,
            global_rows,
        )
        .map_err(|e| LisiError::Package(e.to_string()))?;
        let new_rows = new_matrix.rows();
        // Restore against the *old* membership: the casualty's
        // neighbour-held snapshot is part of the consistent set. After an
        // earlier shrink a slot may still hold a snapshot of the layout
        // before it; a set that does not tile the rows is not restored.
        let restored = rkrylov::checkpoint::latest_consistent(comm).and_then(|(it, chunks)| {
            let mut full = Vec::with_capacity(global_rows);
            for (start, x) in chunks {
                if start != full.len() {
                    return None;
                }
                full.extend(x);
            }
            (full.len() == global_rows).then_some((it, full))
        });
        let (resumed_iteration, guess) = match restored {
            Some((it, full)) => (it, full[new_start..new_start + new_rows].to_vec()),
            None => (0, vec![0.0; new_rows]),
        };
        st.comm = Some(shrunken);
        st.start_row = Some(new_start);
        st.local_rows = Some(new_rows);
        st.matrix.set(new_matrix);
        st.rhs = Some(new_rhs);
        mirror::deposit(st);
        probe::note("cohort_size", (old_size - 1).to_string());
        Ok((old_size - 1, resumed_iteration, guess))
    }

    /// Replay the captured setup phase onto `port`: communicator,
    /// distribution, options (caller's, then the spec's overrides),
    /// matrix and right-hand sides — the §5.1 call sequence, re-driven
    /// from the driver's state instead of the application.
    fn configure_backend(
        port: &dyn SparseSolverPort,
        st: &LisiState,
        spec: &AttemptSpec,
        comm: rcomm::Communicator,
    ) -> LisiResult<()> {
        port.initialize(comm)?;
        if st.block_size > 1 {
            port.set_block_size(st.block_size)?;
        }
        if let Some(v) = st.start_row {
            port.set_start_row(v)?;
        }
        if let Some(v) = st.local_rows {
            port.set_local_rows(v)?;
        }
        if let Some(v) = st.global_cols {
            port.set_global_cols(v)?;
        }
        for (k, v) in st.options.iter() {
            if RESILIENT_KEYS.contains(&k) {
                continue;
            }
            port.set(k, v)?;
        }
        for (k, v) in &spec.overrides {
            port.set(k, v)?;
        }
        if let Some(m) = st.matrix.get() {
            // The state already holds the localized CSR form, whatever
            // format the application originally supplied.
            port.setup_matrix(m.values(), m.row_ptr(), m.col_idx(), SparseStruct::Csr)?;
        }
        if let Some(rhs) = &st.rhs {
            port.setup_rhs(rhs, st.n_rhs)?;
        }
        Ok(())
    }

    /// One full backend solve: acquire, configure, run. Returns the
    /// backend's report on success.
    fn attempt_once(
        st: &LisiState,
        switch: &dyn BackendSwitch,
        spec: &AttemptSpec,
        solution: &mut [f64],
    ) -> LisiResult<SolveReport> {
        // A fresh context per attempt keeps a retried solve's messages
        // from matching stragglers of the failed one.
        let comm = st.comm()?.dup().map_err(LisiError::from)?;
        let port = switch.acquire(&spec.backend)?;
        Self::configure_backend(port.as_ref(), st, spec, comm)?;
        let mut inner = [0.0; STATUS_LEN];
        port.solve(solution, &mut inner)?;
        Ok(SolveReport::from_slice(&inner))
    }
}

/// The class of a failed attempt's error: the `cause` its `Attempt`
/// event carries. Comm failures reach the driver stringified
/// (`LisiError::Package`, possibly inside a package's own error), so
/// their class is read from the stable display forms of
/// [`rcomm::CommError`]; `comm_errors_map_to_retry_shrink_or_swap`
/// pins every variant.
fn cause_class(err: &LisiError) -> &'static str {
    const PACKAGE_CLASSES: [(&str, &str); 5] = [
        ("injected fault", "injected"),
        ("suspected deadlock", "deadlock"),
        ("is gone", "peer-gone"),
        (" lost from cohort", "rank-lost"),
        ("did not converge", "not-converged"),
    ];
    match err {
        LisiError::Package(msg) => PACKAGE_CLASSES
            .iter()
            .find(|(needle, _)| msg.contains(needle))
            .map_or("package", |&(_, class)| class),
        LisiError::NotInitialized => "not-initialized",
        LisiError::BadPhase(_) => "bad-phase",
        LisiError::InvalidInput(_) => "invalid-input",
        LisiError::Unsupported(_) => "unsupported",
        LisiError::BadParameter { .. } => "bad-parameter",
        LisiError::Busy(_) => "busy",
    }
}

/// The world rank named by a `RankLost` verdict (`"rank R lost from
/// cohort"`), if this error is one.
fn lost_rank(err: &LisiError) -> Option<usize> {
    let LisiError::Package(msg) = err else { return None };
    let head = &msg[..msg.find(" lost from cohort")?];
    head.rsplit(|c: char| !c.is_ascii_digit()).next().and_then(|d| d.parse().ok())
}

/// What the driver does about a failed attempt, before the retry budget
/// and the chain's length are consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Transient: run the same spec again.
    Retry,
    /// Move on to the next spec.
    Swap,
    /// Shrink the cohort around this lost world rank.
    Shrink(usize),
    /// This rank is the one lost.
    Casualty,
}

/// [`Step`] for `err` on world rank `me` of a solve with `n_rhs`
/// right-hand sides. A lost rank is not a retryable hiccup — the cohort
/// itself changed shape — and only a single right-hand side is
/// repartitioned.
fn next_step(err: &LisiError, me: usize, n_rhs: usize) -> Step {
    match cause_class(err) {
        "rank-lost" => match lost_rank(err) {
            Some(lost) if lost == me => Step::Casualty,
            Some(lost) if n_rhs == 1 => Step::Shrink(lost),
            _ => Step::Swap,
        },
        "injected" | "deadlock" | "peer-gone" => Step::Retry,
        _ => Step::Swap,
    }
}

/// Commit one attempt transition: the event goes to the log, its JSON
/// line to the probe's JSON sink, and the event itself to `attempts`.
fn record(attempts: &mut Vec<probe::Event>, slot: usize, attempt: usize, outcome: AttemptOutcome) {
    let ev = probe::emit(probe::EventKind::Attempt {
        slot: slot as u32,
        attempt: attempt as u32,
        outcome,
    });
    if let Some(line) = probe::flight::record_json(&ev) {
        probe::emit_jsonl(&line);
    }
    attempts.push(ev);
}

impl SparseSolverPort for ResilientSolver {
    crate::adapters::lisi_common_methods!();

    fn solve(&self, solution: &mut [f64], status: &mut [f64]) -> LisiResult<()> {
        // Every attempt, swap and shrink below is one solve to the probe:
        // the attempts' own solve guards fold into this id, and the
        // postmortem, the ledger and the trace all name it.
        let _solve = probe::trace::solve_guard();
        let mut st = self.state.lock();
        st.check_solve_buffers(solution, status)?;
        let policy = self.effective_policy(&st)?;
        if policy.attempts.is_empty() {
            return Err(LisiError::BadPhase(
                "resilient solver has no retry policy (set the \"retry_policy\" option or \
                 call set_policy)"
                    .into(),
            ));
        }
        let switch = self.switch.lock().clone().ok_or_else(|| {
            LisiError::BadPhase("no backend switch connected (call set_backends)".into())
        })?;

        // Elastic-recovery staging: forget this universe's checkpoints
        // from earlier solves (a restored iterate must never leak across
        // solves — the first deposit of this solve is gated behind
        // collectives, so no rank can deposit before every rank has
        // cleared), and mirror this rank's set-up data so a lost
        // rank's block stays recoverable.
        let comm = st.comm()?;
        rkrylov::checkpoint::clear_all(comm);
        if st.n_rhs == 1 {
            mirror::deposit(&st);
        }
        // This rank's world rank, which a shrink does not change, and the
        // caller's layout, for writing the solution back after a shrink
        // moved this rank's block boundaries.
        let me = comm.world_members()[comm.rank()];
        let old_start = st.start_row.unwrap_or(0);
        let old_rows = st.local_rows.unwrap_or(solution.len());

        // The caller's initial guess, restored before every attempt so a
        // half-diverged iterate never seeds the next backend. A shrink
        // replaces it with the restored checkpoint slice for the new
        // block (or zeros when no checkpoint existed).
        let mut guess: Vec<f64> = solution.to_vec();
        // Working buffer sized to the *current* layout — after a shrink
        // the local block no longer matches the caller's `solution`.
        let mut work: Vec<f64> = Vec::new();
        let mut attempts = Vec::new();
        let mut made = 0usize;
        let mut last_err: Option<LisiError> = None;
        // Cohort size after the last shrink; 0 while the cohort is whole.
        let mut cohort = 0usize;

        'specs: for (slot, spec) in policy.attempts.iter().enumerate() {
            let mut retries = 0usize;
            loop {
                made += 1;
                probe::incr(probe::Counter::ResilientAttempts);
                let _span = probe::span!("resilient_attempt");
                record(&mut attempts, slot, made, AttemptOutcome::Start);
                work.clear();
                work.extend_from_slice(&guess);
                let e = match Self::attempt_once(&st, switch.as_ref(), spec, &mut work) {
                    Ok(mut report) => {
                        record(&mut attempts, slot, made, AttemptOutcome::Ok);
                        report.attempts = made;
                        report.recovery = match (cohort, made, slot) {
                            (0, 1, _) => 0,
                            (0, _, 0) => 1,
                            (0, _, _) => 2,
                            _ => 3,
                        };
                        report.cohort = cohort;
                        if report.recovery != 0 {
                            probe::incr(probe::Counter::ResilientRecoveries);
                        }
                        report.write_into(status)?;
                        if cohort != 0 {
                            // The survivors' blocks moved; rebuild the
                            // global solution and hand the caller back
                            // exactly the rows it originally owned.
                            let full = st.comm()?.allgatherv(&work).map_err(LisiError::from)?;
                            solution.copy_from_slice(&full[old_start..old_start + old_rows]);
                        } else {
                            solution.copy_from_slice(&work);
                        }
                        if report.recovery != 0 {
                            // The solve survived only through recovery:
                            // leave the black-box record of how.
                            crate::postmortem::write_cohort(
                                st.comm()?,
                                "recovered",
                                &report,
                                &policy,
                                &attempts,
                            );
                        }
                        return Ok(());
                    }
                    Err(e) => e,
                };
                let cause = cause_class(&e);
                let outcome = match next_step(&e, me, st.n_rhs) {
                    Step::Shrink(lost) => match Self::shrink_after_loss(&mut st, lost) {
                        Ok((new_size, resumed_iteration, restored)) => {
                            let outcome = AttemptOutcome::Shrink {
                                lost: lost as u32,
                                new_size: new_size as u32,
                                resumed_iteration: resumed_iteration as u64,
                            };
                            record(&mut attempts, slot, made, outcome);
                            guess = restored;
                            cohort = new_size;
                            // Same spec, shrunken cohort; a loss does
                            // not spend a retry.
                            continue;
                        }
                        Err(se) => {
                            let outcome = AttemptOutcome::ShrinkFailed(cause_class(&se));
                            record(&mut attempts, slot, made, outcome);
                            last_err = Some(se);
                            break 'specs;
                        }
                    },
                    Step::Casualty => {
                        // No shrink can include this rank: exit with the
                        // full structured verdict below.
                        record(&mut attempts, slot, made, AttemptOutcome::Casualty(cause));
                        last_err = Some(e);
                        break 'specs;
                    }
                    Step::Retry if retries < policy.max_transient_retries => {
                        AttemptOutcome::Retry(cause)
                    }
                    _ if slot + 1 < policy.attempts.len() => AttemptOutcome::Swap(cause),
                    _ => AttemptOutcome::Exhausted(cause),
                };
                record(&mut attempts, slot, made, outcome);
                last_err = Some(e);
                if !matches!(outcome, AttemptOutcome::Retry(_)) {
                    break; // next spec in the chain
                }
                retries += 1;
                std::thread::sleep(Duration::from_millis(
                    policy.backoff_base_ms.saturating_mul(1 << retries.min(6)),
                ));
            }
        }

        // Exhausted: still deliver the post-solve statistics.
        let report = SolveReport {
            converged: false,
            attempts: made,
            recovery: -1,
            cohort,
            ..SolveReport::default()
        };
        report.write_into(status)?;
        crate::postmortem::write_cohort(st.comm()?, "exhausted", &report, &policy, &attempts);
        let last = last_err.map(|e| e.to_string()).unwrap_or_else(|| "unknown".into());
        Err(LisiError::Package(format!(
            "resilient solve exhausted {made} attempt(s) over {} backend spec(s); \
             last error: {last}",
            policy.attempts.len()
        )))
    }
}

/// The CCA component wrapper: provides [`SOLVER_PORT`] (applications
/// talk to the driver exactly as to any solver component) and declares
/// the [`BACKEND_PORT`] uses port the [`FrameworkSwitch`] rewires.
pub struct ResilientSolverComponent {
    solver: Arc<ResilientSolver>,
}

impl ResilientSolverComponent {
    /// Fresh component around a fresh driver.
    pub fn new() -> Self {
        ResilientSolverComponent { solver: Arc::new(ResilientSolver::new()) }
    }

    /// Handle to the driver (for `set_policy` / `set_backends` and
    /// direct port calls from the hosting application).
    pub fn solver(&self) -> Arc<ResilientSolver> {
        self.solver.clone()
    }
}

impl Default for ResilientSolverComponent {
    fn default() -> Self {
        Self::new()
    }
}

impl cca::Component for ResilientSolverComponent {
    fn set_services(&mut self, services: &Services) -> cca::CcaResult<()> {
        let port: Arc<dyn SparseSolverPort> = self.solver.clone();
        services.add_provides_port(SOLVER_PORT, SOLVER_PORT_TYPE, port)?;
        services.register_uses_port(BACKEND_PORT, SOLVER_PORT_TYPE)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::{RkspAdapter, RsluAdapter};
    use crate::components::SolverComponent;
    use crate::status::{STATUS_ATTEMPTS, STATUS_CONVERGED, STATUS_RECOVERY};
    use cca::BuilderEvent;
    use rcomm::Universe;
    use rsparse::BlockRowPartition;

    #[test]
    fn policy_grammar_round_trips() {
        let p = RetryPolicy::parse("rksp:solver=cg -> rksp : solver=gmres, restart=30 -> rslu")
            .unwrap();
        assert_eq!(p.attempts.len(), 3);
        assert_eq!(p.attempts[0].backend, "rksp");
        assert_eq!(p.attempts[0].overrides, vec![("solver".into(), "cg".into())]);
        assert_eq!(
            p.attempts[1].overrides,
            vec![("solver".into(), "gmres".into()), ("restart".into(), "30".into())]
        );
        assert_eq!(p.attempts[2].backend, "rslu");
        assert!(p.attempts[2].overrides.is_empty());
    }

    #[test]
    fn malformed_policy_specs_are_rejected() {
        for bad in ["", " -> rslu", "rksp:solver", "rksp:=cg", ":solver=cg"] {
            assert!(
                matches!(RetryPolicy::parse(bad), Err(LisiError::BadParameter { .. })),
                "spec {bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn static_switch_reports_unknown_backends() {
        let sw = StaticSwitch::new();
        assert!(matches!(sw.acquire("rksp"), Err(LisiError::InvalidInput(_))));
    }

    /// A recovered or exhausted solve dumps a postmortem: send it to a
    /// scratch path instead of the working directory (the crate's).
    fn scratch_postmortems() {
        let dest = std::env::temp_dir().join("lisi_core_unit_postmortem.json");
        std::env::set_var("RSPARSE_POSTMORTEM", dest);
    }

    /// Drive the resilient solver over the manufactured paper problem.
    fn run_resilient(
        ranks: usize,
        policy: &str,
        expect_converged: bool,
    ) -> Vec<(LisiResult<()>, Vec<f64>, f64)> {
        scratch_postmortems();
        let man = rmesh::manufactured::paper_manufactured(9);
        let n = man.exact.len();
        let a = man.matrix.clone();
        let b = man.rhs.clone();
        let policy = policy.to_string();
        let out = Universe::run(ranks, move |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let range = part.range(comm.rank());
            let local = a.row_block(range.start, range.end).unwrap();
            let driver = ResilientSolver::new();
            let switch = StaticSwitch::new()
                .with("rksp", Arc::new(RkspAdapter::new()))
                .with("rslu", Arc::new(RsluAdapter::new()));
            driver.set_backends(Arc::new(switch));
            driver.initialize(comm.dup().unwrap()).unwrap();
            driver.set_start_row(range.start).unwrap();
            driver.set_local_rows(range.len()).unwrap();
            driver.set_global_cols(n).unwrap();
            driver.set("retry_policy", &policy).unwrap();
            driver.set_double("tol", 1e-10).unwrap();
            driver
                .setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
                .unwrap();
            driver.setup_rhs(&b[range.clone()], 1).unwrap();
            let mut x = vec![0.0; range.len()];
            let mut status = vec![0.0; STATUS_LEN];
            let r = driver.solve(&mut x, &mut status);
            let full = comm.allgatherv(&x).unwrap();
            let err_inf = if r.is_ok() {
                // only meaningful when the solve succeeded
                let man = rmesh::manufactured::paper_manufactured(9);
                man.error_inf(&full)
            } else {
                f64::INFINITY
            };
            (r, status, err_inf)
        });
        for (r, status, _) in &out {
            assert_eq!(r.is_ok(), expect_converged, "solve outcome: {r:?}");
            assert_eq!(status[STATUS_CONVERGED], if expect_converged { 1.0 } else { 0.0 });
        }
        out
    }

    /// A driver state holding `comm`'s even share of the rows of `a`,
    /// with a right-hand side of `fill`.
    fn block_state(comm: &rcomm::Communicator, a: &rsparse::CsrMatrix, fill: f64) -> LisiState {
        let n = a.rows();
        let range = BlockRowPartition::even(n, comm.size()).range(comm.rank());
        let mut st = LisiState::new();
        st.comm = Some(comm.dup().unwrap());
        st.start_row = Some(range.start);
        st.local_rows = Some(range.len());
        st.global_cols = Some(n);
        st.ingest_rhs(&vec![fill; range.len()], 1).unwrap();
        st.matrix.set(a.row_block(range.start, range.end).unwrap());
        st
    }

    /// The repartition after a lost rank is the matrix's second writer:
    /// the digest the session key is built from must follow it.
    #[test]
    fn shrink_refreshes_the_matrix_digest() {
        let (p, lost) = (5usize, 4usize);
        let a = rsparse::generate::laplacian_1d(10);
        let out = Universe::run(p, move |comm| {
            let mut st = block_state(comm, &a, 1.0);
            mirror::deposit(&st);
            comm.barrier().unwrap();
            if comm.rank() == lost {
                return None;
            }
            let before = st.matrix.digest();
            ResilientSolver::shrink_after_loss(&mut st, lost).unwrap();
            let m = st.matrix.get().unwrap();
            assert_eq!(Some(m.rows()), st.local_rows);
            let fresh = crate::service::matrix_digest(m.row_ptr(), m.col_idx(), m.values());
            Some((before, st.matrix.digest(), fresh))
        });
        for (rank, digests) in out.into_iter().enumerate() {
            let Some((before, after, fresh)) = digests else { continue };
            assert_eq!(after, fresh, "rank {rank}: the stored digest is the new block's");
            assert_ne!(after, before, "rank {rank}: the block changed, so did the digest");
        }
    }

    /// Two universes at once deposit checkpoints and mirrored blocks for
    /// the same world ranks: each sees only its own, and clearing one's
    /// checkpoints leaves the other's intact.
    #[test]
    fn universes_keep_their_own_recovery_state() {
        let a = rsparse::generate::laplacian_1d(8);
        let gate = std::sync::Barrier::new(4);
        let universe = |u: usize| {
            let (a, gate) = (&a, &gate);
            Universe::run(2, move |comm| {
                let fill = u as f64 + 1.0;
                let st = block_state(comm, a, fill);
                mirror::deposit(&st);
                let x = vec![fill; st.local_rows.unwrap()];
                rkrylov::checkpoint::deposit(comm, 10, st.start_row.unwrap(), &x, &x);
                gate.wait(); // both universes have deposited
                let snapshot: Vec<f64> = rkrylov::checkpoint::latest_consistent(comm)
                    .map(|(_, chunks)| chunks.into_iter().flat_map(|(_, x)| x).collect())
                    .unwrap_or_default();
                let mirrored = mirror::get(comm, 1 - comm.rank()).map(|b| b.rhs);
                gate.wait();
                if u == 0 && comm.rank() == 0 {
                    rkrylov::checkpoint::clear_all(comm);
                }
                gate.wait();
                let kept = rkrylov::checkpoint::latest_consistent(comm).is_some();
                (snapshot, mirrored, kept)
            })
        };
        let out: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2).map(|u| s.spawn(move || universe(u))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (u, ranks) in out.into_iter().enumerate() {
            let fill = u as f64 + 1.0;
            for (snapshot, mirrored, kept) in ranks {
                assert_eq!(snapshot, vec![fill; 8], "universe {u} restores its own iterate");
                assert_eq!(mirrored, Some(vec![fill; 4]), "universe {u} mirrors its own rows");
                assert_eq!(kept, u == 1, "only universe 0 cleared its checkpoints");
            }
        }
    }

    /// The driver's answer to every `CommError`, whether it reaches the
    /// driver bare or inside a Krylov package's error.
    #[test]
    fn comm_errors_map_to_retry_shrink_or_swap() {
        use rcomm::CommError;
        let every = [
            CommError::RankOutOfRange { rank: 9, size: 4 },
            CommError::TypeMismatch { expected: "f64" },
            CommError::InvalidTag(-1),
            CommError::DeadlockSuspected { rank: 1, src: Some(0), tag: Some(7) },
            CommError::PeerGone(3),
            CommError::BadCounts { expected: 4, got: 3 },
            CommError::BadBuffer { expected: 8, got: 7 },
            CommError::RankLost(2),
            CommError::Injected { op: "allreduce", rank: 2, call: 30 },
        ];
        for ce in every {
            // (one right-hand side, several): no wildcard arm, so a new
            // variant has to be placed here.
            let expected = match ce {
                CommError::Injected { .. }
                | CommError::DeadlockSuspected { .. }
                | CommError::PeerGone(_) => (Step::Retry, Step::Retry),
                CommError::RankLost(lost) => (Step::Shrink(lost), Step::Swap),
                CommError::RankOutOfRange { .. }
                | CommError::TypeMismatch { .. }
                | CommError::InvalidTag(_)
                | CommError::BadCounts { .. }
                | CommError::BadBuffer { .. } => (Step::Swap, Step::Swap),
            };
            let bare = LisiError::from(ce.clone());
            let wrapped = LisiError::from(rkrylov::KspError::from(ce.clone()));
            for err in [bare, wrapped] {
                assert_eq!((next_step(&err, 0, 1), next_step(&err, 0, 4)), expected, "{err}");
            }
        }
        // The lost rank itself is the casualty, whatever the width.
        let lost = LisiError::from(CommError::RankLost(2));
        assert_eq!(next_step(&lost, 2, 1), Step::Casualty);
        assert_eq!(next_step(&lost, 2, 4), Step::Casualty);
    }

    #[test]
    fn first_try_success_reports_single_attempt() {
        for ranks in [1usize, 3] {
            let out = run_resilient(ranks, "rksp:solver=gmres,preconditioner=jacobi", true);
            for (_, status, err_inf) in out {
                assert_eq!(status[STATUS_ATTEMPTS], 1.0);
                assert_eq!(status[STATUS_RECOVERY], 0.0);
                assert!(err_inf < 1e-6);
            }
        }
    }

    #[test]
    fn numerical_failure_swaps_to_the_next_backend() {
        // maxits=1 makes the CG attempt fail deterministically with a
        // non-convergence (non-transient) error; the chain then swaps
        // to the direct solver, which cannot stagnate.
        for ranks in [1usize, 2] {
            let out = run_resilient(ranks, "rksp:solver=cg,maxits=1 -> rslu", true);
            for (_, status, err_inf) in out {
                assert_eq!(status[STATUS_ATTEMPTS], 2.0, "one failed + one good attempt");
                assert_eq!(status[STATUS_RECOVERY], 2.0, "recovered by swapping");
                assert!(err_inf < 1e-6);
            }
        }
    }

    #[test]
    fn exhausted_chain_reports_structured_failure() {
        let out = run_resilient(1, "rksp:solver=cg,maxits=1", false);
        for (r, status, _) in out {
            let msg = r.unwrap_err().to_string();
            assert!(msg.contains("exhausted"), "got: {msg}");
            assert_eq!(status[STATUS_ATTEMPTS], 1.0);
            assert_eq!(status[STATUS_RECOVERY], -1.0);
        }
    }

    #[test]
    fn missing_policy_and_switch_are_phase_errors() {
        let driver = ResilientSolver::new();
        let out = Universe::run(1, move |comm| {
            driver.initialize(comm.dup().unwrap()).unwrap();
            driver.set_start_row(0).unwrap();
            driver.set_local_rows(2).unwrap();
            driver.set_global_cols(2).unwrap();
            let m = rsparse::CsrMatrix::identity(2);
            driver.setup_matrix(m.values(), m.row_ptr(), m.col_idx(), SparseStruct::Csr).unwrap();
            driver.setup_rhs(&[1.0, 1.0], 1).unwrap();
            let mut x = [0.0; 2];
            let mut status = [0.0; STATUS_LEN];
            let no_policy = driver.solve(&mut x, &mut status).unwrap_err();
            driver.set("retry_policy", "rksp").unwrap();
            let no_switch = driver.solve(&mut x, &mut status).unwrap_err();
            (no_policy, no_switch)
        });
        let (no_policy, no_switch) = &out[0];
        assert!(matches!(no_policy, LisiError::BadPhase(_)));
        assert!(no_policy.to_string().contains("retry policy"));
        assert!(matches!(no_switch, LisiError::BadPhase(_)));
        assert!(no_switch.to_string().contains("backend switch"));
    }

    #[test]
    fn framework_switch_rewires_through_the_builder_service() {
        scratch_postmortems();
        let man = rmesh::manufactured::paper_manufactured(7);
        let n = man.exact.len();
        let a = man.matrix.clone();
        let b = man.rhs.clone();
        let out = Universe::run(2, move |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let range = part.range(comm.rank());
            let local = a.row_block(range.start, range.end).unwrap();

            // SPMD: each rank builds the same framework cohort.
            let fw =
                Arc::new(RwLock::new(Framework::with_registry(cca::sidl::SidlRegistry::lisi())));
            let (driver, res_id, cg_id, lu_id) = {
                let mut f = fw.write();
                let comp = ResilientSolverComponent::new();
                let driver = comp.solver();
                let res_id = f.instantiate("resilient", Box::new(comp)).unwrap();
                let cg_id = f.instantiate("cg", Box::new(SolverComponent::rksp())).unwrap();
                let lu_id = f.instantiate("lu", Box::new(SolverComponent::rslu())).unwrap();
                (driver, res_id, cg_id, lu_id)
            };
            let switch = FrameworkSwitch::new(&fw, res_id.clone(), BACKEND_PORT)
                .with_provider("rksp", cg_id)
                .with_provider("rslu", lu_id);
            driver.set_backends(Arc::new(switch));

            driver.initialize(comm.dup().unwrap()).unwrap();
            driver.set_start_row(range.start).unwrap();
            driver.set_local_rows(range.len()).unwrap();
            driver.set_global_cols(n).unwrap();
            driver.set("retry_policy", "rksp:solver=cg,maxits=1 -> rslu").unwrap();
            driver
                .setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
                .unwrap();
            driver.setup_rhs(&b[range.clone()], 1).unwrap();
            let mut x = vec![0.0; range.len()];
            let mut status = vec![0.0; STATUS_LEN];
            driver.solve(&mut x, &mut status).unwrap();

            // The swap must be visible in the CCA builder event log:
            // connect(cg), disconnect, connect(lu).
            let wired: Vec<String> = fw
                .read()
                .events()
                .iter()
                .filter_map(|e| match e {
                    BuilderEvent::Connected { uses_port, provider, .. }
                        if uses_port == BACKEND_PORT =>
                    {
                        Some(format!("+{provider}"))
                    }
                    BuilderEvent::Disconnected { uses_port, .. } if uses_port == BACKEND_PORT => {
                        Some("-".into())
                    }
                    _ => None,
                })
                .collect();
            (status, wired, comm.allgatherv(&x).unwrap())
        });
        for (status, wired, full) in out {
            assert_eq!(status[STATUS_ATTEMPTS], 2.0);
            assert_eq!(status[STATUS_RECOVERY], 2.0);
            assert_eq!(wired, vec!["+cg".to_string(), "-".into(), "+lu".into()]);
            assert!(man.error_inf(&full) < 1e-6);
        }
    }
}
