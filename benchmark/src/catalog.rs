//! Every metric the benchmark prints, by name and unit. `BENCHMARK.json`
//! declares the same names; the smoke test holds the two together.

/// `(name, unit)` of the end-to-end metrics, measured with tracing off.
pub const END_TO_END: [(&str, &str); 3] =
    [("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// `(name, unit)` of the per-layer metrics of the traced pass. The layer is
/// the part of the name before the dot, and is the crate's name.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("mesh.assemble_s", "s"),
    ("cca.wire_s", "s"),
    ("core.ingest_s", "s"),
    ("core.first_solve_s", "s"),
    ("core.setup_rhs_s", "s"),
    ("core.resolve_s", "s"),
    ("core.fingerprint_s", "s"),
    ("core.overhead_s", "s"),
    ("core.overhead_pct", "%"),
    ("core.session_entries", "count"),
    ("core.session_bytes", "B"),
    ("core.failed", "count"),
    ("krylov.solve_s", "s"),
    ("krylov.self_s", "s"),
    ("krylov.pc_setup_s", "s"),
    ("krylov.pc_apply_s", "s"),
    ("krylov.pc_apply_calls", "count"),
    ("krylov.iterations", "count"),
    ("aztec.iterate_s", "s"),
    ("aztec.self_s", "s"),
    ("aztec.matvec_s", "s"),
    ("aztec.matvec_calls", "count"),
    ("aztec.iterations", "count"),
    ("direct.factor_s", "s"),
    ("direct.trisolve_s", "s"),
    ("direct.fill_nnz", "count"),
    ("sparse.distribute_s", "s"),
    ("sparse.spmv_s", "s"),
    ("sparse.spmv_calls", "count"),
    ("sparse.spmv_call_us", "us"),
    ("sparse.spmv_local_call_us", "us"),
    ("sparse.halo_us", "us"),
    ("sparse.spmv_gflops", "Gflop/s"),
    ("sparse.spmv_bytes_computed", "B"),
    ("sparse.spmv_multi_s", "s"),
    ("sparse.spmv_multi_calls", "count"),
    ("sparse.axpy_us", "us"),
    ("sparse.dot_us", "us"),
    ("comm.allreduce_us_p50", "us"),
    ("comm.allreduce_us_p90", "us"),
    ("comm.pingpong_us_p50", "us"),
    ("comm.allgather_us_p50", "us"),
    ("comm.barrier_us_p50", "us"),
    ("comm.allreduces_per_solve", "count"),
    ("comm.sends_per_solve", "count"),
    ("comm.p2p_bytes_per_solve", "B"),
    ("probe.armed_overhead_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unattributed_pct", "%"),
    ("host.canary_slowdown", "ratio"),
    ("host.canary_spread_pct", "%"),
    ("host.threads", "count"),
];

/// Per-layer metrics that repeat exactly for one seed (fixed reduction
/// order): a change in one of them explains a timing move before any
/// timing does.
pub const EXACT_COUNTS: [&str; 11] = [
    "krylov.iterations",
    "krylov.pc_apply_calls",
    "aztec.iterations",
    "aztec.matvec_calls",
    "direct.fill_nnz",
    "sparse.spmv_calls",
    "sparse.spmv_multi_calls",
    "sparse.spmv_bytes_computed",
    "comm.allreduces_per_solve",
    "comm.sends_per_solve",
    "comm.p2p_bytes_per_solve",
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or_else(|| panic!("metric {name} is not in the catalog"), |(_, u)| u)
}
