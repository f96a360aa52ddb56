#!/usr/bin/env bash
# Full verification sweep: build, clippy, tests at 1 and 4 threads, the
# lisibench smoke, examples, the fault matrix, doc build, benches (compile,
# and RSLU's, the sweeps', Jacobi's, the vector kernels', the split and
# batched matvecs' and RAztec's rows run once). It measures nothing: every
# number the repository states comes from benchmark/run.sh (lisibench);
# table1/figure5 regenerate the paper's tables (see EXPERIMENTS.md).
set -euo pipefail
cd "$(dirname "$0")/.."

# Postmortem and solve-ledger dumps in the working tree, outside target/.
# Tests send theirs to scratch paths; only the examples and the fault
# matrix below write them here, on purpose.
stray_dumps() {
  git status --porcelain --ignored | awk '{print $NF}' \
    | grep -E '(^|/)(postmortem|solve_ledger)[^/]*\.json$' | grep -vE '(^|/)target/' || true
}
stray_dumps | xargs -r rm -f

echo "== build (all targets) =="
cargo build --workspace --all-targets

echo "== clippy (every non-shim package) =="
cargo clippy -p lisi-probe -p lisi-comm -p lisi-sparse -p lisi-mesh -p lisi-krylov \
  -p lisi-aztec -p lisi-direct -p lisi-multigrid -p lisi-cca -p lisi-core \
  -p lisi-bench -p cca-lisi --all-targets -- -D warnings

echo "== tests (RSPARSE_THREADS=1) =="
RSPARSE_THREADS=1 \
RCOMM_DEADLOCK_TIMEOUT_SECS=${RCOMM_DEADLOCK_TIMEOUT_SECS:-30} cargo test --workspace

echo "== tests (RSPARSE_THREADS=4) =="
# Same suite with the rank-local thread pool engaged: exercises the
# chunked SpMV and blocked reductions, whose
# results must be bit-identical to the serial run.
RSPARSE_THREADS=4 \
RCOMM_DEADLOCK_TIMEOUT_SECS=${RCOMM_DEADLOCK_TIMEOUT_SECS:-30} cargo test --workspace

echo "== tests leave no dumps in the tree =="
if [ -n "$(stray_dumps)" ]; then
  echo "tests wrote postmortem / solve-ledger files into the tree:"
  stray_dumps
  exit 1
fi

echo "== lisibench smoke (benchmark/ is its own workspace) =="
# Every declared metric printed, no failed request, exact counts repeat.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== examples =="
for e in quickstart solver_switching matrix_free multigrid_recursion \
         usage_scenarios formats_tour external_matrix resilience; do
  echo "-- $e"
  cargo run --release --example "$e" >/dev/null
done

echo "== fault matrix (incl. kill-rank elastic recovery) =="
scripts/fault_matrix.sh

echo "== causal tracing (resilience example, RSPARSE_TRACE=1) =="
# Same example again with tracing armed: the run must still converge and
# additionally print a critical-path attribution built from the merged
# cross-rank trace of the last solve. (Captured, not piped: grep -q would
# SIGPIPE the example under pipefail.)
traced_out="$(RSPARSE_TRACE=1 cargo run --release --example resilience)"
grep -q "critical path" <<<"$traced_out"

echo "== docs =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== bench compile =="
cargo bench --workspace --no-run

echo "== RSLU, sweep, Jacobi, vector, SpMV and RAztec kernel rows, run once (smoke) =="
# Compiling a bench does not set it up: these run RSLU's rows once each
# (factor, then the triangular solves), the preconditioner sweeps' rows,
# the Jacobi rows, the vector kernels' rows, the digest rows, the plan
# build's and the diagonal's rows, the split
# matvec's single and batched (k = 8) rows and RAztec's apply and GMRES(30)
# rows once, so a panic in their set-up (or a Jacobi row whose
# diagonal is not the kind it names) fails here. One-millisecond windows:
# this measures nothing.
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- factor/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- trisolve
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- sptrsv/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- jacobi/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- blas1/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- digest/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- plan/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- diagonal/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- spmv_formats/split1/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- spmv_multi/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- raztec/

echo "ALL CHECKS PASSED"
