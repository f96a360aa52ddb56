#!/usr/bin/env bash
# The one command. Builds lisibench from source, then hands it every argument.
#
#   benchmark/run.sh                      every workload: untraced rounds, traced pass, summary
#   benchmark/run.sh --workload NAME      the same for one workload
#   benchmark/run.sh --trace-only         the traced pass alone
#   benchmark/run.sh --quick              tiny matrices, one round (the smoke test)
#   benchmark/run.sh --aa [--runs N]      two sets of N runs of the same tree, compared
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one run, one result line (what the driver calls)
#
# The JSON goes to standard output, the human table and progress to standard
# error, generated files to benchmark/out/. Exits non-zero when the build
# fails, a check fails or a workload yields no samples.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
cd "$here/.."

# The driver names the build directory; a person gets one inside benchmark/.
target=${CARGO_TARGET_DIR:-benchmark/target}

# Cargo's chatter goes to standard error: standard output carries results only.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

# lisibench itself removes every RSPARSE_* and RCOMM_* variable before it
# starts a thread, so it is safe to run the binary without this script too.
exec "$target/release/lisibench" "$@"
