#!/usr/bin/env bash
# Full verification sweep: formatting, build, clippy, one workspace test
# pass, an AddressSanitizer pass over the crates with unsafe code, the
# lisibench smoke, examples, the fault matrix, doc build, benches
# (compile; check that the AVX2 kernel instances inlined their intrinsics;
# run RSLU's, the sweeps', ILU(0) set-up's, Jacobi's, the vector kernels',
# the split and batched matvecs' and RAztec's rows once). It measures
# nothing: every number the repository states comes from benchmark/run.sh
# (lisibench), the paper's port-against-native comparison among them.
# benchmark/ is its own workspace and is not formatted here.
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

echo "== formatting (rustfmt.toml) =="
cargo fmt --all --check

echo "== build (all targets) =="
cargo build --workspace --all-targets

echo "== clippy (every non-shim package) =="
cargo clippy -p lisi-probe -p lisi-comm -p lisi-sparse -p lisi-mesh -p lisi-krylov \
  -p lisi-aztec -p lisi-direct -p lisi-multigrid -p lisi-cca -p lisi-core \
  -p lisi-bench -p cca-lisi --all-targets -- -D warnings

echo "== tests =="
RCOMM_DEADLOCK_TIMEOUT_SECS=${RCOMM_DEADLOCK_TIMEOUT_SECS:-30} cargo test --workspace

echo "== tests leave no dumps in the tree =="
if [ -n "$(stray_dumps)" ]; then
  echo "tests wrote postmortem / solve-ledger files into the tree:"
  stray_dumps
  exit 1
fi

echo "== AddressSanitizer (lisi-comm, lisi-sparse, lisi-krylov; nightly) =="
# The board, the lines, the lane kernels and the sweeps hold the unsafe
# code; their lib and integration tests run instrumented, in a target
# directory of their own. Doctests are left out: rustdoc would need the
# same flags in RUSTDOCFLAGS.
RUSTFLAGS="-Zsanitizer=address -Cunsafe-allow-abi-mismatch=sanitizer" \
  RCOMM_DEADLOCK_TIMEOUT_SECS=${RCOMM_DEADLOCK_TIMEOUT_SECS:-30} \
  cargo +nightly test --offline --lib --tests --target x86_64-unknown-linux-gnu \
  --target-dir target/asan -p lisi-comm -p lisi-sparse -p lisi-krylov

echo "== lisibench smoke (benchmark/ is its own workspace) =="
# Every declared metric printed, no failed request, exact counts repeat.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== examples =="
for e in quickstart solver_switching matrix_free multigrid_recursion \
         usage_scenarios formats_tour external_matrix resilience; do
  echo "-- $e"
  cargo run --release --example "$e" >/dev/null
done

echo "== the summary sink (resilience example, its default probe mode) =="
summary_out="$(env -u RSPARSE_PROBE cargo run --release --example resilience 2>/dev/null)"
grep -q "== probe summary: rank 0 ==" <<<"$summary_out"

echo "== the JSON sink (resilience example, RSPARSE_PROBE=json) =="
# One `{"rank":…}` report line per rank of the example's 4-rank cohort.
json_out="$(RSPARSE_PROBE=json cargo run --release --example resilience 2>/dev/null)"
json_ranks="$(grep -cE '^\{"rank":[0-9]+,' <<<"$json_out" || true)"
echo "rank report lines: $json_ranks"
if [ "$json_ranks" -ne 4 ]; then
  echo "expected one JSON report line per rank (4)"
  exit 1
fi

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

echo "== AVX2 kernel instances inline their intrinsics =="
# A closure compiled outside a `#[target_feature(enable = "avx2")]`
# function calls every intrinsic out of line and runs several times
# slower. The one `core_arch` call allowed is std's CPUID probe.
kernels_bin="$(cargo bench -p lisi-bench --bench kernels --no-run --message-format=json 2>/dev/null \
  | grep -o '"executable":"[^"]*/kernels-[^"]*"' | cut -d'"' -f4 | tail -n1)"
if [ ! -x "$kernels_bin" ]; then
  echo "kernels bench binary not found"
  exit 1
fi
core_arch_calls="$(objdump -d --no-show-raw-insn "$kernels_bin" | grep -c 'call.*core_arch' || true)"
echo "out-of-line core_arch calls in $kernels_bin: $core_arch_calls"
if [ "$core_arch_calls" -gt 1 ]; then
  echo "AVX2 kernels call intrinsics out of line"
  exit 1
fi

echo "== RSLU, sweep, Jacobi, vector, SpMV, RAztec and collective rows, run once (smoke) =="
# Compiling a bench does not set it up: these run RSLU's rows once each
# (factor, then the triangular solves), the preconditioner sweeps' rows,
# ILU(0)'s set-up rows (the two triangles' layout, the whole factory), the
# Jacobi rows, the vector kernels' rows, the digest rows, the plan
# build's and the diagonal's rows, the split
# matvec's single and batched (k = 8) rows and RAztec's apply and GMRES(30)
# rows once, then every collective row (a universe launched per sample,
# the burst timed inside it), so a panic in their set-up (or a Jacobi row
# whose diagonal is not the kind it names) fails here. One-millisecond
# windows: this measures nothing.
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- factor/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- trisolve
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- sptrsv/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- levels/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- ilu_setup/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- jacobi/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- blas1/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- digest/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- plan/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- diagonal/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- spmv_formats/split1/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- spmv_multi/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench kernels -- raztec/
BENCH_WARMUP_MS=0 BENCH_MEASURE_MS=1 cargo bench -p lisi-bench --bench collectives

echo "ALL CHECKS PASSED"
