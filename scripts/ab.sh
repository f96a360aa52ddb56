#!/usr/bin/env bash
# The paired ruler: compare lisibench between two commits on this host.
#
#   scripts/ab.sh PARENT [CHANGE]
#
# PARENT and CHANGE are git revisions; CHANGE defaults to the working tree
# (tracked and untracked files that git does not ignore). The two sides are
# exported in turn into one directory, AB_DIR/src, with `git archive`
# (nothing is written to .git), and lisibench is built from there offline
# into each side's own target directory, with benchmark/run.sh's build
# line. Both builds see one source path, so the binaries differ only where
# the code does: an A/A of one commit gives byte-identical binaries (the
# script says so). Then, for each workload:
#
#   - PAIRS alternating pairs of the one-run call benchmark/run.sh documents
#     (`--seed S --seconds RUN_SECONDS --trace 0`), a fresh seed per pair, the
#     parent first in odd pairs, each binary run from its own empty
#     directory;
#   - one traced pair (`--trace 1`) at one more seed.
#
# It prints one row per workload and end-to-end metric: each side's
# calibrated median and quartiles, their ratio (change / parent), the
# pairs the change won, the median gap against the parent's
# inter-quartile range, the wall-clock ratio of medians (from the detail
# files), the host_slowdown range of all runs, and a verdict: `gain` when
# the change won at least nine tenths of the pairs and the gap is larger
# than the parent's IQR (the spread of one tree run against itself),
# `loss` for the same the other way, `inconclusive` otherwise. A verdict
# ends `(calibrated ≠ wall)` when the two rulers disagree: the calibrated
# ratio and the wall ratio differ by more than the parent's IQR over its
# median; the wall ratio then decides whether to re-run the row. After
# the rows come the exact counts (unit `count` or `B` in the traced lines,
# less the session cache's entries and bytes, which depend on how many
# sessions a run fitted in) that differ between the traced pair.
#
# Environment: PAIRS (default 10), RUN_SECONDS (per run, default 10),
# WORKLOADS (space-separated, default all seven), SEED (first seed,
# default random), AB_DIR (work directory, default a new one under
# ${TMPDIR:-/tmp}), AB_REPORT_ONLY=1 (print the table again from the
# runs already in AB_DIR, with the same SEED, PAIRS and WORKLOADS).
# Nothing under benchmark/ is changed; the runs' result lines and detail
# files stay in AB_DIR/runs.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    sed -n '2,42p' "$0" >&2
    exit 2
fi
parent=$1
change=${2:-}
repo=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
pairs=${PAIRS:-10}
seconds=${RUN_SECONDS:-10}
workloads=${WORKLOADS:-"fig5_rksp_1r fig5_rksp_2r fig5_raztec_1r ilu_cg_1r direct_2r batch8_2r sync_cg_2r"}
seed=${SEED:-$((RANDOM * 32768 + RANDOM))}
dir=${AB_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")}
mkdir -p "$dir/runs"

# Export one side: a revision with git archive, or the working tree.
export_tree() {
    local rev=$1 out=$2
    rm -rf "$out"
    mkdir -p "$out"
    if [ -n "$rev" ]; then
        git -C "$repo" archive "$rev" | tar -x -C "$out"
    else
        # Files deleted but not yet staged are still listed; skip them.
        (cd "$repo" && git ls-files -z --cached --others --exclude-standard |
            xargs -0 tar -c --no-recursion --ignore-failed-read -f - 2>/dev/null) |
            tar -x -C "$out"
    fi
}

build() {
    local tree=$1 target=$2
    cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml" \
        --target-dir "$target" >&2
}

report() {
python3 - "$dir/runs" "$seed" "$pairs" $workloads <<'EOF'
import json, statistics, sys

runs, seed, pairs, workloads = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]

def load(path):
    try:
        with open(path) as f:
            return json.loads(f.read().strip().splitlines()[-1])
    except (OSError, ValueError, IndexError):
        return None

def fmt(x):
    return f"{x:.4g}"

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[1], q[2]

print("| workload | metric | parent median [q1, q3] | change median [q1, q3] | ratio "
      "| pairs won | gap / parent IQR | wall ratio | host_slowdown | verdict |")
print("|---|---|---|---|---|---|---|---|---|---|")
skip = {"core.session_entries", "core.session_bytes"}
counts = []
for w in workloads:
    seeds = [seed + i for i in range(1, pairs + 1)]
    lines = {side: [load(f"{runs}/{w}.{s}.t0.{side}.line") for s in seeds] for side in "ab"}
    details = {side: [load(f"{runs}/{w}.{s}.t0.{side}.json") for s in seeds] for side in "ab"}
    slow = [h for side in "ab" for d in details[side] if d for h in d.get("host_slowdown", [])]
    slow_range = f"{min(slow):.2f}–{max(slow):.2f}" if slow else "n/a"
    for metric, wall in [("solve_s", "solve_wall_s"), ("setup_s", "setup_wall_s"),
                         ("peak_rss_mb", None)]:
        ok = [(a["metrics"][metric]["value"], b["metrics"][metric]["value"])
              for a, b in zip(lines["a"], lines["b"]) if a and b]
        if not ok:
            print(f"| {w} | {metric} | no runs | | | | | | | |")
            continue
        xa, xb = [p[0] for p in ok], [p[1] for p in ok]
        ma, mb = statistics.median(xa), statistics.median(xb)
        q1, _, q3 = quartiles(xa)
        b1, _, b3 = quartiles(xb)
        iqr = q3 - q1
        won = sum(b < a for a, b in ok)
        lost = sum(b > a for a, b in ok)
        gap = ma - mb
        ratio = mb / ma if ma else float("nan")
        gap_iqr = f"{gap / iqr:+.2f}" if iqr > 0 else ("0" if gap == 0 else "inf")
        wall_ratio, disagree = "n/a", False
        if wall:
            wa = [statistics.median(d[wall]) for d in details["a"] if d and d.get(wall)]
            wb = [statistics.median(d[wall]) for d in details["b"] if d and d.get(wall)]
            if wa and wb:
                wr = statistics.median(wb) / statistics.median(wa)
                wall_ratio = f"{wr:.3f}"
                disagree = ma > 0 and abs(ratio - wr) > iqr / ma
        need = 0.9 * len(ok)
        verdict = "inconclusive"
        if gap > iqr and won >= need:
            verdict = "gain"
        elif -gap > iqr and lost >= need:
            verdict = "loss"
        if disagree:
            verdict += " (calibrated ≠ wall)"
        print(f"| {w} | {metric} | {fmt(ma)} [{fmt(q1)}, {fmt(q3)}] "
              f"| {fmt(mb)} [{fmt(b1)}, {fmt(b3)}] | {ratio:.3f} | {won}/{len(ok)} | {gap_iqr} "
              f"| {wall_ratio} | {slow_range} | {verdict} |")
    ts = seed + pairs + 1
    ta, tb = load(f"{runs}/{w}.{ts}.t1.a.line"), load(f"{runs}/{w}.{ts}.t1.b.line")
    if not (ta and tb):
        counts.append(f"{w}: traced pair missing")
        continue
    for name, m in ta["metrics"].items():
        if m.get("unit") in ("count", "B") and name not in skip:
            other = tb["metrics"].get(name, {}).get("value")
            if other != m["value"]:
                counts.append(f"{w}: {name} {m['value']} -> {other}")
print()
print("Exact counts that differ in the traced pair (seed "
      f"{seed + pairs + 1}):" if counts else "Every exact count repeats in the traced pair.")
for c in counts:
    print(f"- {c}")
EOF
}

echo "ab: work directory $dir" >&2
if [ "${AB_REPORT_ONLY:-0}" = 1 ]; then
    report
    exit 0
fi
echo "ab: building parent ($parent) and change (${change:-working tree})" >&2
export_tree "$parent" "$dir/src"
build "$dir/src" "$dir/target-a"
export_tree "$change" "$dir/src"
build "$dir/src" "$dir/target-b"
bin_a=$dir/target-a/release/lisibench
bin_b=$dir/target-b/release/lisibench
if cmp -s "$bin_a" "$bin_b"; then
    echo "ab: the two lisibench binaries are identical" >&2
fi

# One run of one side: the result line and the detail file, from an empty
# directory of its own.
run() {
    local side=$1 w=$2 s=$3 trace=$4 bin
    bin=$([ "$side" = a ] && echo "$bin_a" || echo "$bin_b")
    local cwd=$dir/cwd-$side
    rm -rf "$cwd" && mkdir -p "$cwd"
    local stem=$dir/runs/$w.$s.t$trace.$side
    (cd "$cwd" && "$bin" --workload "$w" --seed "$s" --seconds "$seconds" --trace "$trace" \
        --detail "$stem.json" 2>/dev/null >"$stem.line") || echo "ab: $w seed $s side $side failed" >&2
}

for w in $workloads; do
    for i in $(seq 1 "$pairs"); do
        s=$((seed + i))
        if [ $((i % 2)) -eq 1 ]; then
            run a "$w" "$s" 0
            run b "$w" "$s" 0
        else
            run b "$w" "$s" 0
            run a "$w" "$s" 0
        fi
        echo "ab: $w pair $i/$pairs" >&2
    done
    s=$((seed + pairs + 1))
    run a "$w" "$s" 1
    run b "$w" "$s" 1
done

report
