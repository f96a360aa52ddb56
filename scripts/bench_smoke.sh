#!/usr/bin/env bash
# Quick SpMV benchmark smoke run: exercises the `spmv` criterion group for a
# short wall-clock budget and records elements/sec for the serial and dist4
# variants at m=200 into BENCH_spmv.json under the given label.
#
# Also runs the paired probe-overhead guard (`probe_guard` bin: the same
# dist4 m=200 SpMV workload with the probe disabled vs enabled in
# alternating pairs, so machine-load drift cancels) and writes
# BENCH_probe_overhead.json with the median paired overhead against a <2%
# target. The disabled path is the same machine code as the plain spmv
# dist4 bench (mode checks are single relaxed atomic loads), so the
# disabled-vs-plain delta is recorded only as a cross-process noise-floor
# reference. A miss prints a WARN but does not fail the script (shared
# machines are noisy).
#
# Fault-injection guards (two distinct budgets):
#   * no-faults (<1%): the fresh disarmed throughput of this run is
#     compared against the stored BENCH_spmv.json baseline — the disarmed
#     hook is one relaxed atomic load per call and must stay invisible.
#   * armed-but-inert (<5%, diagnostic): the `fault_guard` bin measures
#     disarmed vs armed-with-a-never-matching-plan in alternating pairs
#     over the SpMV burst and a fused-reduction CG solve; the armed path
#     (mutex + rule scan per call) is only paid while testing faults.
# Both land in BENCH_fault_overhead.json; misses WARN, never fail.
#
# Krylov-checkpoint guard (same two-budget shape): the `checkpoint_guard`
# bin pairs checkpointing-off against every-10-iterations over a fused-
# reduction CG solve; the off path (<1%) gates against the previously
# stored median, the every-10 snapshot cost gates at <5%. Both land in
# BENCH_checkpoint_overhead.json.
#
# Usage: scripts/bench_smoke.sh [pre|post]   (default: post)
#
# BENCH_spmv.json accumulates one entry per label, so running once before a
# performance change with "pre" and once after with "post" leaves both
# baselines side by side for comparison.
set -euo pipefail
cd "$(dirname "$0")/.."

LABEL="${1:-post}"
# Absolute path: cargo runs bench binaries with cwd = the package dir, so a
# relative CRITERION_SHIM_OUT would land under crates/bench/.
OUT_DIR="$(pwd)/target/criterion-shim"
rm -rf "$OUT_DIR"

echo "== spmv bench smoke (label: $LABEL) =="
BENCH_MEASURE_MS="${BENCH_MEASURE_MS:-600}" BENCH_WARMUP_MS="${BENCH_WARMUP_MS:-150}" \
CRITERION_SHIM_OUT="$OUT_DIR" \
  cargo bench -q -p lisi-bench --bench kernels -- spmv

echo "== probe overhead guard (paired) =="
cargo run -q -p lisi-bench --release --bin probe_guard > "$OUT_DIR/probe_guard.json"

echo "== fault-machinery overhead guard (paired) =="
cargo run -q -p lisi-bench --release --bin fault_guard > "$OUT_DIR/fault_guard.json"

echo "== causal-tracing overhead guard (paired) =="
cargo run -q -p lisi-bench --release --bin trace_guard > "$OUT_DIR/trace_guard.json"

echo "== Krylov-checkpoint overhead guard (paired) =="
cargo run -q -p lisi-bench --release --bin checkpoint_guard > "$OUT_DIR/checkpoint_guard.json"

echo "== solve-ledger overhead guard (paired) =="
cargo run -q -p lisi-bench --release --bin ledger_guard > "$OUT_DIR/ledger_guard.json"

echo "== multi-RHS batching + session-cache guard (paired) =="
cargo run -q -p lisi-bench --release --bin multirhs_guard > "$OUT_DIR/multirhs_guard.json"

python3 - "$LABEL" "$OUT_DIR" <<'EOF'
import json, os, sys

label, out_dir = sys.argv[1], sys.argv[2]
entry = {}
for variant in ("serial", "dist4"):
    path = os.path.join(out_dir, f"spmv_{variant}_200.json")
    with open(path) as f:
        rec = json.load(f)
    entry[variant] = {
        "mean_ns": rec["mean_ns"],
        "elements_per_sec": rec.get("per_sec"),
    }

bench_file = "BENCH_spmv.json"
data = {}
if os.path.exists(bench_file):
    with open(bench_file) as f:
        data = json.load(f)
# The previously stored entry under this label is the no-faults baseline
# below: it was recorded before the current change, so fresh-vs-stored
# measures whatever the change added to the disarmed path.
prev_entry = data.get(label)
data[label] = entry
with open(bench_file, "w") as f:
    json.dump(data, f, indent=2)
    f.write("\n")

print(f"recorded '{label}' into {bench_file}:")
print(json.dumps(entry, indent=2))
if "pre" in data and "post" in data:
    for variant in ("serial", "dist4"):
        pre = data["pre"][variant]["elements_per_sec"]
        post = data["post"][variant]["elements_per_sec"]
        if pre and post:
            print(f"{variant}: {post / pre:.2f}x vs pre")

# Probe-overhead guard. The disabled path is the same machine code as the
# plain dist4 bench (probe is compiled in everywhere; "off" is one relaxed
# atomic load per site), so the runtime-measurable probe cost is the
# enabled-vs-disabled delta. probe_guard measures it in alternating pairs
# (median paired ratio) so machine-load drift cancels. The disabled-vs-
# plain delta crosses two processes and only bounds the measurement noise
# floor; it is recorded for reference, not gated.
with open(os.path.join(out_dir, "probe_guard.json")) as f:
    paired = json.load(f)

with open(os.path.join(out_dir, "spmv_dist4_200.json")) as f:
    baseline = json.load(f)["mean_ns"]

overhead_pct = paired["overhead_pct"]
guard = {
    "workload": paired["workload"],
    "trials": paired["trials"],
    "plain_mean_ns": baseline,
    "disabled_median_ns": paired["disabled_median_ns"],
    "enabled_median_ns": paired["enabled_median_ns"],
    "overhead_pct": overhead_pct,
    "noise_floor_pct":
        100.0 * (paired["disabled_median_ns"] - baseline) / baseline,
    "target_pct": 2.0,
    "pass": overhead_pct < 2.0,
}
with open("BENCH_probe_overhead.json", "w") as f:
    json.dump(guard, f, indent=2)
    f.write("\n")
verdict = "PASS" if guard["pass"] else "WARN (noisy machine or a regression)"
print(f"probe overhead (enabled vs disabled): {overhead_pct:+.2f}% "
      f"(target < 2%) -> {verdict}")
print(f"cross-process noise floor (disabled vs plain): "
      f"{guard['noise_floor_pct']:+.2f}%")
print("recorded BENCH_probe_overhead.json")

# Fault-injection guards. (1) No-faults budget: the disarmed fault hook
# is one relaxed atomic load per communication call, so this run's fresh
# disarmed throughput must sit within 1% of the entry previously stored
# under the same label (recorded before the current change). A
# cross-process comparison, so a miss WARNs rather than fails.
# (2) Armed-but-inert budget: the paired fault_guard measurement bounds
# the armed path's mutex + rule-scan cost over both workloads at <5% —
# only paid while a fault plan is loaded for testing.
with open(os.path.join(out_dir, "fault_guard.json")) as f:
    fg = json.load(f)

NO_FAULTS_TARGET_PCT = 1.0
ARMED_TARGET_PCT = 5.0
baseline_label = f"stored '{label}'"
no_faults = {}
for variant in ("serial", "dist4"):
    base = (prev_entry or {}).get(variant, {}).get("elements_per_sec")
    now = entry[variant]["elements_per_sec"]
    if not (base and now):
        continue
    slowdown_pct = 100.0 * (base / now - 1.0)
    no_faults[variant] = {
        "baseline_label": baseline_label,
        "baseline_elements_per_sec": base,
        "current_elements_per_sec": now,
        "slowdown_pct": slowdown_pct,
        "pass": slowdown_pct < NO_FAULTS_TARGET_PCT,
    }

fault_rec = {
    "no_faults": {"target_pct": NO_FAULTS_TARGET_PCT, **no_faults},
    "armed_inert": {"target_pct": ARMED_TARGET_PCT, "trials": fg["trials"]},
}
for wl in ("spmv", "fused_cg"):
    w = fg[wl]
    fault_rec["armed_inert"][wl] = {
        **w,
        "pass": w["overhead_pct"] < ARMED_TARGET_PCT,
    }
with open("BENCH_fault_overhead.json", "w") as f:
    json.dump(fault_rec, f, indent=2)
    f.write("\n")

if not no_faults:
    # A missing stored baseline means the no-faults regression gate
    # silently never ran — fail loudly so CI can't rot, unless the caller
    # explicitly acknowledges a first run.
    if os.environ.get("BENCH_ALLOW_MISSING_BASELINE") == "1":
        print(f"no-faults baseline: no previous '{label}' entry to compare "
              f"against (recorded one for next time; allowed by "
              f"BENCH_ALLOW_MISSING_BASELINE=1)")
    else:
        print(f"ERROR: no stored '{label}' baseline in {bench_file}; the "
              f"no-faults overhead gate cannot run. Re-run with "
              f"BENCH_ALLOW_MISSING_BASELINE=1 to record a first baseline.",
              file=sys.stderr)
        sys.exit(1)
for variant, rec in no_faults.items():
    verdict = "PASS" if rec["pass"] else "WARN (noisy machine or a regression)"
    print(f"no-faults {variant} vs {baseline_label} baseline: "
          f"{rec['slowdown_pct']:+.2f}% (target < {NO_FAULTS_TARGET_PCT}%) "
          f"-> {verdict}")
for wl in ("spmv", "fused_cg"):
    rec = fault_rec["armed_inert"][wl]
    verdict = "PASS" if rec["pass"] else "WARN (noisy machine or a regression)"
    print(f"armed-inert {wl}: {rec['overhead_pct']:+.2f}% "
          f"(target < {ARMED_TARGET_PCT}%) -> {verdict}")
print("recorded BENCH_fault_overhead.json")

# Causal-tracing guards (two distinct budgets, mirroring the fault
# guards):
#   * disabled path (<2%): with RSPARSE_TRACE unset every trace hook is
#     one relaxed atomic load, so this run's fresh disarmed fused-CG
#     median must sit within 2% of the one stored by the previous run of
#     this script. Cross-process, so a miss WARNs; a *missing* baseline
#     fails loudly (unless BENCH_ALLOW_MISSING_BASELINE=1) so the gate
#     cannot silently rot.
#   * armed (<5%, diagnostic): the paired trace_guard measurement bounds
#     stamping + record staging + span pass-through while tracing is
#     armed — only paid when a user asks for causal traces.
with open(os.path.join(out_dir, "trace_guard.json")) as f:
    tr = json.load(f)

TRACE_DISABLED_TARGET_PCT = 2.0
TRACE_ARMED_TARGET_PCT = 5.0
trace_file = "BENCH_trace_overhead.json"
prev_trace = None
if os.path.exists(trace_file):
    with open(trace_file) as f:
        prev_trace = json.load(f)

w = tr["fused_cg"]
trace_rec = {
    "trials": tr["trials"],
    "armed": {
        "target_pct": TRACE_ARMED_TARGET_PCT,
        **w,
        "pass": w["overhead_pct"] < TRACE_ARMED_TARGET_PCT,
    },
    "disabled": {"target_pct": TRACE_DISABLED_TARGET_PCT},
}
prev_ns = (prev_trace or {}).get("armed", {}).get("disarmed_median_ns")
if prev_ns:
    slowdown_pct = 100.0 * (w["disarmed_median_ns"] / prev_ns - 1.0)
    trace_rec["disabled"].update({
        "baseline_disarmed_median_ns": prev_ns,
        "current_disarmed_median_ns": w["disarmed_median_ns"],
        "slowdown_pct": slowdown_pct,
        "pass": slowdown_pct < TRACE_DISABLED_TARGET_PCT,
    })
with open(trace_file, "w") as f:
    json.dump(trace_rec, f, indent=2)
    f.write("\n")

if prev_ns:
    rec = trace_rec["disabled"]
    verdict = "PASS" if rec["pass"] else "WARN (noisy machine or a regression)"
    print(f"trace disabled-path vs stored baseline: "
          f"{rec['slowdown_pct']:+.2f}% "
          f"(target < {TRACE_DISABLED_TARGET_PCT}%) -> {verdict}")
elif os.environ.get("BENCH_ALLOW_MISSING_BASELINE") == "1":
    print("trace disabled-path: no stored baseline to compare against "
          "(recorded one for next time; allowed by "
          "BENCH_ALLOW_MISSING_BASELINE=1)")
else:
    print(f"ERROR: no stored disarmed baseline in {trace_file}; the "
          f"trace disabled-path gate cannot run. Re-run with "
          f"BENCH_ALLOW_MISSING_BASELINE=1 to record a first baseline.",
          file=sys.stderr)
    sys.exit(1)
rec = trace_rec["armed"]
verdict = "PASS" if rec["pass"] else "WARN (noisy machine or a regression)"
print(f"trace armed-vs-disarmed (fused_cg): {rec['overhead_pct']:+.2f}% "
      f"(target < {TRACE_ARMED_TARGET_PCT}%) -> {verdict}")
print(f"recorded {trace_file}")

# Krylov-checkpoint guards (two distinct budgets, mirroring the trace
# guards):
#   * off path (<1%): with checkpointing disabled (the default) the hook
#     is one integer compare per iteration, so this run's fresh off-path
#     fused-CG median must sit within 1% of the one stored by the
#     previous run of this script. Cross-process, so a miss WARNs; a
#     *missing* baseline fails loudly (unless
#     BENCH_ALLOW_MISSING_BASELINE=1) so the gate cannot silently rot.
#   * every-10 (<5%): the paired checkpoint_guard measurement bounds the
#     (x, r) snapshot copy into the double-buffered registry — only paid
#     when a user opts into elastic recovery.
with open(os.path.join(out_dir, "checkpoint_guard.json")) as f:
    ck = json.load(f)

CKPT_OFF_TARGET_PCT = 1.0
CKPT_ON_TARGET_PCT = 5.0
ckpt_file = "BENCH_checkpoint_overhead.json"
prev_ckpt = None
if os.path.exists(ckpt_file):
    with open(ckpt_file) as f:
        prev_ckpt = json.load(f)

w = ck["fused_cg"]
ckpt_rec = {
    "trials": ck["trials"],
    "every_10": {
        "target_pct": CKPT_ON_TARGET_PCT,
        **w,
        "pass": w["overhead_pct"] < CKPT_ON_TARGET_PCT,
    },
    "off": {"target_pct": CKPT_OFF_TARGET_PCT},
}
prev_ns = (prev_ckpt or {}).get("every_10", {}).get("off_median_ns")
if prev_ns:
    slowdown_pct = 100.0 * (w["off_median_ns"] / prev_ns - 1.0)
    ckpt_rec["off"].update({
        "baseline_off_median_ns": prev_ns,
        "current_off_median_ns": w["off_median_ns"],
        "slowdown_pct": slowdown_pct,
        "pass": slowdown_pct < CKPT_OFF_TARGET_PCT,
    })
with open(ckpt_file, "w") as f:
    json.dump(ckpt_rec, f, indent=2)
    f.write("\n")

if prev_ns:
    rec = ckpt_rec["off"]
    verdict = "PASS" if rec["pass"] else "WARN (noisy machine or a regression)"
    print(f"checkpoint off-path vs stored baseline: "
          f"{rec['slowdown_pct']:+.2f}% "
          f"(target < {CKPT_OFF_TARGET_PCT}%) -> {verdict}")
elif os.environ.get("BENCH_ALLOW_MISSING_BASELINE") == "1":
    print("checkpoint off-path: no stored baseline to compare against "
          "(recorded one for next time; allowed by "
          "BENCH_ALLOW_MISSING_BASELINE=1)")
else:
    print(f"ERROR: no stored off-path baseline in {ckpt_file}; the "
          f"checkpoint off-path gate cannot run. Re-run with "
          f"BENCH_ALLOW_MISSING_BASELINE=1 to record a first baseline.",
          file=sys.stderr)
    sys.exit(1)
rec = ckpt_rec["every_10"]
verdict = "PASS" if rec["pass"] else "WARN (noisy machine or a regression)"
print(f"checkpoint every-10 vs off (fused_cg): {rec['overhead_pct']:+.2f}% "
      f"(target < {CKPT_ON_TARGET_PCT}%) -> {verdict}")
print(f"recorded {ckpt_file}")

# Solve-ledger guards (two distinct budgets, mirroring the trace
# guards):
#   * disabled path (<2%): with no ledger destination armed the per-solve
#     cost is one relaxed atomic load at solve entry plus the model
#     registrations already paid at plan time, so this run's fresh
#     disarmed adapter-CG median must sit within 2% of the one stored by
#     the previous run of this script. Cross-process, so a miss WARNs; a
#     *missing* baseline fails loudly (unless
#     BENCH_ALLOW_MISSING_BASELINE=1) so the gate cannot silently rot.
#   * armed (<10%, diagnostic): the paired ledger_guard measurement
#     bounds forced span collection + rank-0 assembly + the JSON write —
#     only paid when a user asks for a ledger.
with open(os.path.join(out_dir, "ledger_guard.json")) as f:
    lg = json.load(f)

LEDGER_DISABLED_TARGET_PCT = 2.0
LEDGER_ARMED_TARGET_PCT = 10.0
ledger_file = "BENCH_ledger_overhead.json"
prev_ledger = None
if os.path.exists(ledger_file):
    with open(ledger_file) as f:
        prev_ledger = json.load(f)

w = lg["adapter_cg"]
ledger_rec = {
    "trials": lg["trials"],
    "armed": {
        "target_pct": LEDGER_ARMED_TARGET_PCT,
        **w,
        "pass": w["overhead_pct"] < LEDGER_ARMED_TARGET_PCT,
    },
    "disabled": {"target_pct": LEDGER_DISABLED_TARGET_PCT},
}
prev_ns = (prev_ledger or {}).get("armed", {}).get("disarmed_median_ns")
if prev_ns:
    slowdown_pct = 100.0 * (w["disarmed_median_ns"] / prev_ns - 1.0)
    ledger_rec["disabled"].update({
        "baseline_disarmed_median_ns": prev_ns,
        "current_disarmed_median_ns": w["disarmed_median_ns"],
        "slowdown_pct": slowdown_pct,
        "pass": slowdown_pct < LEDGER_DISABLED_TARGET_PCT,
    })
with open(ledger_file, "w") as f:
    json.dump(ledger_rec, f, indent=2)
    f.write("\n")

if prev_ns:
    rec = ledger_rec["disabled"]
    verdict = "PASS" if rec["pass"] else "WARN (noisy machine or a regression)"
    print(f"ledger disabled-path vs stored baseline: "
          f"{rec['slowdown_pct']:+.2f}% "
          f"(target < {LEDGER_DISABLED_TARGET_PCT}%) -> {verdict}")
elif os.environ.get("BENCH_ALLOW_MISSING_BASELINE") == "1":
    print("ledger disabled-path: no stored baseline to compare against "
          "(recorded one for next time; allowed by "
          "BENCH_ALLOW_MISSING_BASELINE=1)")
else:
    print(f"ERROR: no stored disarmed baseline in {ledger_file}; the "
          f"ledger disabled-path gate cannot run. Re-run with "
          f"BENCH_ALLOW_MISSING_BASELINE=1 to record a first baseline.",
          file=sys.stderr)
    sys.exit(1)
rec = ledger_rec["armed"]
verdict = "PASS" if rec["pass"] else "WARN (noisy machine or a regression)"
print(f"ledger armed-vs-disarmed (adapter_cg): {rec['overhead_pct']:+.2f}% "
      f"(target < {LEDGER_ARMED_TARGET_PCT}%) -> {verdict}")
print(f"recorded {ledger_file}")

# Multi-RHS session guard: one batched solve over k right-hand sides vs
# k single solves through the RKSP adapter (paired, order-alternated),
# plus cold-vs-warm session setup through the RSLU adapter. Verdicts:
#   * bit_identical: the batched solution must equal the sequential one
#     bit-for-bit, column by column — a miss is a correctness bug, hard
#     fail;
#   * speedup (target ≥ 1.8×): the batched driver fuses each iteration's
#     reductions across all k columns into one exchange;
#   * warm setup (target < 5% of cold): a cache-hit session must skip
#     partitioning, halo planning and factorization entirely, leaving
#     only the caller's CSR ingest.
with open(os.path.join(out_dir, "multirhs_guard.json")) as f:
    mr = json.load(f)

MULTIRHS_TARGET_SPEEDUP = 1.8
WARM_SETUP_TARGET_PCT = 5.0
mr_rec = {
    **mr,
    "target_speedup": MULTIRHS_TARGET_SPEEDUP,
    "setup": {**mr["setup"], "target_pct": WARM_SETUP_TARGET_PCT,
              "pass": mr["setup"]["warm_over_cold_pct"] < WARM_SETUP_TARGET_PCT},
    "pass": bool(mr["bit_identical"]
                 and mr["speedup"] >= MULTIRHS_TARGET_SPEEDUP
                 and mr["setup"]["warm_over_cold_pct"] < WARM_SETUP_TARGET_PCT),
}
with open("BENCH_multirhs.json", "w") as f:
    json.dump(mr_rec, f, indent=2)
    f.write("\n")

if not mr["bit_identical"]:
    print("ERROR: batched multi-RHS solve is NOT bit-identical to the "
          "sequential solves — determinism contract broken.", file=sys.stderr)
    sys.exit(1)
verdict = ("PASS" if mr["speedup"] >= MULTIRHS_TARGET_SPEEDUP
           else "WARN (below target; noisy machine or a regression)")
print(f"multi-RHS batched vs sequential ({mr['workload']}): "
      f"{mr['speedup']:.2f}x (target >= {MULTIRHS_TARGET_SPEEDUP}x) "
      f"-> {verdict}")
setup = mr_rec["setup"]
verdict = ("PASS" if setup["pass"]
           else "WARN (above target; noisy machine or a regression)")
print(f"warm session setup vs cold: {setup['warm_over_cold_pct']:.2f}% "
      f"(target < {WARM_SETUP_TARGET_PCT}%) -> {verdict}")
print("recorded BENCH_multirhs.json")
EOF
