#!/usr/bin/env bash
# Full verification sweep: build, clippy, tests at 1 and 4 threads, the
# lisibench smoke, examples, the fault matrix, doc build, benches (compile
# only). It measures nothing: every number the repository states comes
# from benchmark/run.sh (lisibench); table1/figure5 regenerate the paper's
# tables (see EXPERIMENTS.md).
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

echo "== rcomm unit tests, 20 runs (flake guard) =="
# The lib tests launch universes concurrently in one process; a test that
# leans on process-wide cohort or fault state fails here one run in ten.
for _ in $(seq 20); do
  cargo test -q -p lisi-comm --lib
done

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

echo "ALL CHECKS PASSED"
