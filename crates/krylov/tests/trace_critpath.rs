//! Reconciliation of the causal critical-path pass against the span
//! table: per-rank halo / reduce / compute totals computed from the
//! merged cross-rank trace must agree (±1%) with the per-rank span
//! totals that feed `probe::render_wait_attribution` — the trace's
//! `Phase`/`Collective` events are emitted from the same span closes
//! with the same clock reads, so disagreement means the two pipelines
//! drifted apart.
//!
//! Lives in its own binary: arming the process-wide trace switch and
//! reading the whole recorder registry must not race other tests.

use rcomm::Universe;
use rkrylov::{Ksp, KspConfig, KspType, MatOperator, PcType};
use rsparse::{generate, BlockRowPartition, DistCsrMatrix, DistVector};

const RANKS: usize = 4;

/// |a-b| within 1% of the larger magnitude (or 1ns absolute for zeros).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-2 * a.abs().max(b.abs()).max(1e-9)
}

#[test]
fn critpath_totals_reconcile_with_the_wait_attribution_table() {
    probe::reset();
    // Probe mode stays Off: spans must pass through on the strength of
    // the armed trace alone (the RSPARSE_TRACE path).
    probe::trace::set_armed(true);

    let n_side = 20usize;
    let n = n_side * n_side;
    let a = generate::laplacian_2d(n_side);
    let b = vec![1.0; n];
    let results = Universe::run(RANKS, |comm| {
        let part = BlockRowPartition::even(n, comm.size());
        let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
        let op = MatOperator::new(da);
        let db = DistVector::from_global(part.clone(), comm.rank(), &b).unwrap();
        let cfg = KspConfig {
            ksp_type: KspType::Cg,
            pc_type: PcType::Jacobi,
            rtol: 1e-10,
            maxits: 500,
            ..KspConfig::default()
        };
        let ksp = Ksp::new(cfg).unwrap();
        let mut x = DistVector::zeros(part, comm.rank());
        ksp.solve(comm, &op, &db, &mut x).unwrap()
    });
    probe::trace::set_armed(false);
    for r in &results {
        assert!(r.converged(), "CG must converge: {:?}", r.reason);
    }

    let reports = probe::aggregate();
    let cp = probe::critpath::analyze_latest()
        .expect("an armed 4-rank solve must leave a mergeable trace");
    assert_eq!(cp.ranks.len(), RANKS, "one totals row per rank");
    assert!(cp.end_to_end_s > 0.0);
    assert!(!cp.segments.is_empty(), "the walk must cover the solve");

    // The reconciliation: trace-derived per-rank totals vs the span
    // table the wait-attribution sink prints.
    for rt in &cp.ranks {
        let rep = reports
            .iter()
            .find(|r| r.rank == Some(rt.rank))
            .expect("every traced rank aggregates a report");
        let span_total = |name: &str| {
            rep.spans().iter().find(|s| s.name == name).map(|s| s.total_s).unwrap_or(0.0)
        };
        let halo = span_total("halo_post") + span_total("halo_drain");
        let reduce = span_total("allreduce");
        let compute = span_total("spmv_interior") + span_total("spmv_boundary");
        assert!(halo > 0.0, "rank {}: 4-rank CG exchanges halos", rt.rank);
        assert!(reduce > 0.0, "rank {}: CG issues allreduces", rt.rank);
        assert!(compute > 0.0, "rank {}: CG computes SpMVs", rt.rank);
        assert!(
            close(rt.halo_wait_s, halo),
            "rank {}: halo {} (trace) vs {} (spans)",
            rt.rank, rt.halo_wait_s, halo
        );
        assert!(
            close(rt.reduce_s, reduce),
            "rank {}: reduce {} (trace) vs {} (spans)",
            rt.rank, rt.reduce_s, reduce
        );
        assert!(
            close(rt.compute_s, compute),
            "rank {}: compute {} (trace) vs {} (spans)",
            rt.rank, rt.compute_s, compute
        );
    }

    // The walk's covered time can never exceed the end-to-end window.
    assert!(cp.covered_s() <= cp.end_to_end_s * 1.001);

    // Render and JSON views carry the reconciled numbers.
    let text = probe::critpath::render_latest();
    assert!(text.contains("critical path"), "render:\n{text}");
    assert!(text.contains("wait attribution"), "render:\n{text}");
    let json = probe::critpath::latest_json();
    assert!(json.contains("\"end_to_end_s\""), "json: {json}");
    assert!(json.contains("\"per_rank\""), "json: {json}");

    // Histograms filled alongside: per-iteration latency and collective
    // latency were sampled during the armed solve even with probe Off.
    for rep in reports.iter().filter(|r| r.rank.is_some()) {
        assert!(
            rep.hist(probe::hist::Hist::IterTime).count > 0,
            "rank {:?}: iteration histogram sampled",
            rep.rank
        );
        assert!(
            rep.hist(probe::hist::Hist::Collective).count > 0,
            "rank {:?}: collective histogram sampled",
            rep.rank
        );
    }

    probe::reset();
}
