//! `lisi_bench` — the kernel and collective micro-benches
//! (`benches/kernels.rs`, `benches/collectives.rs`), run with
//! `cargo bench -p lisi-bench`. They time single kernels for reading and
//! gate nothing; the paper's end-to-end measurement (port time against
//! native time, Table 1 and Figure 5) is `benchmark/run.sh`, and its
//! exact counts are held by `tests/port_overhead.rs`. This library target
//! is empty: Cargo needs one to build the bench targets.
