//! A solve's residual stream has one source. The convergence monitor
//! pushes every residual into `KspResult::history` and commits each
//! iteration's to the probe event log as an `Iter`, then the verdict as
//! one `Verdict`; the postmortem, the flight tail and the ledger render
//! that log. The two views must agree, converged or not.

use probe::{Event, EventKind};
use rcomm::Universe;
use rkrylov::{ConvergedReason, Ksp, KspConfig, KspResult, KspType, MatOperator, PcType};
use rsparse::{generate, BlockRowPartition, DistCsrMatrix, DistVector};

/// Solve the 5 × 5 Laplacian at `p` ranks; every rank's result and the
/// black-box events its solve committed.
fn solve_with_events(ksp_type: KspType, p: usize, maxits: usize) -> Vec<(KspResult, Vec<Event>)> {
    let a = generate::laplacian_2d(5);
    let n = a.rows();
    let b = vec![1.0; n];
    Universe::run(p, |comm| {
        let part = BlockRowPartition::even(n, comm.size());
        let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
        let op = MatOperator::new(da);
        let db = DistVector::from_global(part.clone(), comm.rank(), &b).unwrap();
        let mut dx = DistVector::zeros(part, comm.rank());
        let ksp = Ksp::new(KspConfig {
            ksp_type,
            pc_type: PcType::Jacobi,
            rtol: 1e-12,
            maxits,
            ..KspConfig::default()
        })
        .unwrap();
        let (_, before) = probe::flight::local_tail();
        let res = ksp.solve(comm, &op, &db, &mut dx).unwrap();
        let (tail, after) = probe::flight::local_tail();
        let committed = (after - before) as usize;
        assert!(committed <= tail.len(), "the solve overflowed the black box");
        (res, tail[tail.len() - committed..].to_vec())
    })
}

fn bits(v: impl IntoIterator<Item = f64>) -> Vec<u64> {
    v.into_iter().map(f64::to_bits).collect()
}

/// The single verdict event of `events`: (name, iteration).
fn verdict(events: &[Event]) -> (&'static str, u64) {
    let verdicts: Vec<_> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Verdict { verdict, iteration } => Some((verdict, iteration)),
            _ => None,
        })
        .collect();
    assert_eq!(verdicts.len(), 1, "one verdict per solve: {verdicts:?}");
    verdicts[0]
}

#[test]
fn iter_events_carry_the_result_history_bit_for_bit() {
    // CG and unrestarted GMRES check once per iteration, so the history
    // after its initial residual is exactly the Iter stream.
    for ksp_type in [KspType::Cg, KspType::Gmres] {
        for p in [1usize, 4] {
            for (rank, (res, events)) in solve_with_events(ksp_type, p, 500).iter().enumerate() {
                let ctx = format!("{ksp_type:?} at {p} ranks, rank {rank}");
                assert!(res.converged() && res.iterations > 2, "{ctx}");
                let iters: Vec<(u64, f64)> = events
                    .iter()
                    .filter_map(|e| match e.kind {
                        EventKind::Iter { iteration, residual } => Some((iteration, residual)),
                        _ => None,
                    })
                    .collect();
                let numbers: Vec<u64> = iters.iter().map(|&(i, _)| i).collect();
                assert_eq!(numbers, (1..=res.iterations as u64).collect::<Vec<_>>(), "{ctx}");
                assert_eq!(res.history.len(), res.iterations + 1, "{ctx}");
                assert_eq!(res.history[0], res.initial_residual, "{ctx}");
                assert_eq!(
                    bits(iters.iter().map(|&(_, r)| r)),
                    bits(res.history[1..].iter().copied()),
                    "{ctx}"
                );
                assert_eq!(verdict(events), (res.reason.name(), res.iterations as u64), "{ctx}");
            }
        }
    }
}

#[test]
fn verdict_event_reports_nonconverged_solves_too() {
    for (res, events) in solve_with_events(KspType::Cg, 2, 3) {
        assert_eq!(res.reason, ConvergedReason::MaxIterations);
        assert_eq!(res.iterations, 3);
        assert_eq!(res.history.len(), 4);
        assert_eq!(verdict(&events), (ConvergedReason::MaxIterations.name(), 3));
    }
}
