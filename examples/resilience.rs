//! Surviving failures: the resilient driver rides a seeded fault.
//!
//! A fault plan poisons rank 2's contribution to CG's ‖r₀‖ reduction, so
//! the first solve attempt diverges on every rank. The resilient driver
//! then swaps its backend uses port — a CCA builder `disconnect` +
//! `connect`, visible in the event log — to GMRES and, if need be, to
//! the RSLU direct solver, and the solve completes. The recovery is
//! visible in the status array: attempts ≥ 2, recovery code 2.
//!
//! ```text
//! cargo run --example resilience                        # per-rank probe summary, then cross-rank
//! RSPARSE_FAULTS='op=recv,rank=1,tag=7001,call=1,kind=corrupt' cargo run --example resilience
//! RSPARSE_PROBE=json cargo run --example resilience     # JSONL events, one report line a rank
//! RSPARSE_PROBE=chrome cargo run --example resilience   # writes probe_trace.json
//! RSPARSE_PROBE=flight cargo run --example resilience   # every rank's black-box tail
//! ```

use std::sync::Arc;

use cca_lisi::cca::{BuilderEvent, Framework};
use cca_lisi::comm::{FaultPlan, Universe};
use cca_lisi::lisi::resilient::{FrameworkSwitch, ResilientSolverComponent, BACKEND_PORT};
use cca_lisi::lisi::{SolveReport, SolverComponent, SparseSolverPort, SparseStruct, STATUS_LEN};
use cca_lisi::probe::ProbeMode;
use cca_lisi::sparse::{generate, BlockRowPartition};
use parking_lot::RwLock;

const RANKS: usize = 4;
const N_SIDE: usize = 20;

/// One resilient solve over the 2-D Laplacian under `faults`; returns
/// each rank's report and the builder events that rewired the backend
/// port.
fn solve_once(faults: Option<FaultPlan>) -> Vec<(SolveReport, Vec<String>, f64)> {
    let a = generate::laplacian_2d(N_SIDE);
    let n = N_SIDE * N_SIDE;
    let b = vec![1.0; n];
    Universe::run_with_faults(RANKS, faults, move |comm| {
        let part = BlockRowPartition::even(n, comm.size());
        let range = part.range(comm.rank());
        let local = a.row_block(range.start, range.end).unwrap();

        // SPMD: every rank assembles the identical component cohort.
        let fw = Arc::new(RwLock::new(Framework::with_registry(
            cca_lisi::cca::sidl::SidlRegistry::lisi(),
        )));
        let (driver, res_id, cg_id, gmres_id, lu_id) = {
            let mut f = fw.write();
            let comp = ResilientSolverComponent::new();
            let driver = comp.solver();
            let res_id = f.instantiate("resilient", Box::new(comp)).unwrap();
            let cg_id = f.instantiate("cg", Box::new(SolverComponent::rksp())).unwrap();
            let gmres_id = f.instantiate("gmres", Box::new(SolverComponent::rksp())).unwrap();
            let lu_id = f.instantiate("lu", Box::new(SolverComponent::rslu())).unwrap();
            (driver, res_id, cg_id, gmres_id, lu_id)
        };
        let switch = FrameworkSwitch::new(&fw, res_id, BACKEND_PORT)
            .with_provider("cg", cg_id)
            .with_provider("gmres", gmres_id)
            .with_provider("lu", lu_id);
        driver.set_backends(Arc::new(switch));

        driver.initialize(comm.dup().unwrap()).unwrap();
        driver.set_start_row(range.start).unwrap();
        driver.set_local_rows(range.len()).unwrap();
        driver.set_global_cols(n).unwrap();
        driver.set_double("tol", 1e-10).unwrap();
        driver.set("retry_policy", "cg:solver=cg -> gmres:solver=gmres,restart=30 -> lu").unwrap();
        driver
            .setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
            .unwrap();
        driver.setup_rhs(&b[range.clone()], 1).unwrap();

        let mut x = vec![0.0; range.len()];
        let mut status = vec![0.0; STATUS_LEN];
        // Exhaustion still writes the status array; the demo reports it.
        let _ = driver.solve(&mut x, &mut status);

        let events: Vec<String> = fw
            .read()
            .events()
            .iter()
            .filter_map(|e| match e {
                BuilderEvent::Connected { uses_port, provider, .. }
                    if uses_port == BACKEND_PORT =>
                {
                    Some(format!("connect -> {provider}"))
                }
                BuilderEvent::Disconnected { uses_port, .. } if uses_port == BACKEND_PORT => {
                    Some("disconnect".into())
                }
                _ => None,
            })
            .collect();

        // ‖b − A·x‖∞ over the gathered solution. Rank-divergent fault
        // plans (kind=error) can leave one rank still retrying while its
        // peers reach this gather; the laggard's watchdog then fails the
        // collective. That is expected skew, not a bug — report the
        // residual as unknown (NaN) instead of unwrapping.
        let resid = match comm.allgatherv(&x) {
            Ok(full) => {
                let a = generate::laplacian_2d(N_SIDE);
                let ax = a.matvec(&full).unwrap();
                ax.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max)
            }
            Err(_) => f64::NAN,
        };
        (SolveReport::from_slice(&status), events, resid)
    })
}

fn main() {
    println!(
        "Resilient solve demo: {RANKS} ranks, 2-D Laplacian {n}x{n}, \
         policy cg -> gmres(30) -> lu\n",
        n = N_SIDE
    );

    // Default the probe to the summary sink so the cross-rank analytics
    // at the end always have spans to chew on; RSPARSE_PROBE overrides.
    if cca_lisi::probe::mode() == ProbeMode::Off {
        cca_lisi::probe::set_mode(ProbeMode::Summary);
    }
    cca_lisi::probe::reset();

    // Honor an operator-supplied RSPARSE_FAULTS plan; otherwise arm the
    // canonical demo fault (rank 2 poisons CG's ‖r₀‖ reduction).
    let custom_plan = std::env::var("RSPARSE_FAULTS").ok().filter(|s| !s.trim().is_empty());
    let spec = custom_plan
        .clone()
        .unwrap_or_else(|| "op=allreduce,rank=2,call=2,kind=corrupt;seed=11".into());
    println!("fault plan: {spec}");
    let plan = FaultPlan::parse(&spec).expect("bad fault plan");

    let faulted = solve_once(Some(plan));

    println!("\n-- with the fault armed --");
    for (rank, (rep, events, resid)) in faulted.iter().enumerate() {
        println!(
            "rank {rank}: converged={} attempts={} recovery={} its={} resid_inf={resid:.2e}",
            rep.converged, rep.attempts, rep.recovery, rep.iterations
        );
        if rank == 0 {
            println!("  backend port rewiring: {}", events.join(", "));
        }
    }

    // The control launches without a plan, whatever RSPARSE_FAULTS says.
    let clean = solve_once(None);
    println!("\n-- fault disarmed (control) --");
    let (rep, _, resid) = &clean[0];
    println!(
        "rank 0: converged={} attempts={} recovery={} its={} resid_inf={resid:.2e}",
        rep.converged, rep.attempts, rep.recovery, rep.iterations
    );

    // A custom plan can be anything from benign (delay) to unrecoverable,
    // so the recovery-shape asserts only apply to the canonical demo
    // fault; `scripts/fault_matrix.sh` sweeps custom plans and reads the
    // printed outcomes instead.
    if custom_plan.is_none() {
        assert!(faulted.iter().all(|(r, _, _)| r.converged && r.attempts >= 2 && r.recovery == 2));
    }
    assert!(clean.iter().all(|(r, _, _)| r.converged && r.attempts == 1 && r.recovery == 0));
    println!("\nrecovered: the swap is CCA re-wiring, not solver-specific code.");

    // Cross-rank analytics (cumulative over both runs): which spans skew
    // across ranks, how much time each rank spent blocked, and who sent
    // what to whom. The summary sink puts each rank's counters, spans and
    // histograms before them.
    let reports = cca_lisi::probe::aggregate();
    println!();
    if cca_lisi::probe::mode() == ProbeMode::Summary {
        print!("{}", cca_lisi::probe::render_summary(&reports));
    } else {
        print!("{}", cca_lisi::probe::render_imbalance(&reports));
        print!("{}", cca_lisi::probe::render_wait_attribution(&reports));
        print!("{}", cca_lisi::probe::render_comm_matrix(&reports));
    }
    // With RSPARSE_TRACE=1 the causal trace of the last solve yields a
    // critical-path attribution; empty (and silent) otherwise.
    print!("{}", cca_lisi::probe::critpath::render_latest());
    // The other sinks `RSPARSE_PROBE` names: one JSON line per rank, a
    // chrome://tracing file, or every rank's black-box tail.
    match cca_lisi::probe::mode() {
        ProbeMode::Json => print!("{}", cca_lisi::probe::render_jsonl(&reports)),
        ProbeMode::Chrome => {
            cca_lisi::probe::write_chrome_trace("probe_trace.json")
                .expect("write probe_trace.json");
            eprintln!("chrome trace written to probe_trace.json (load in chrome://tracing)");
        }
        ProbeMode::Flight => print!("{}", cca_lisi::probe::render_flight()),
        _ => {}
    }
}
