#!/usr/bin/env bash
# Fault matrix: sweep the resilience example across one canned fault plan
# per injection kind/route and summarise how the resilient driver fared.
#
# Each row arms a different RSPARSE_FAULTS plan (see crates/comm/src/fault.rs
# for the grammar) against the same 4-rank cg -> gmres -> lu policy:
#
#   allreduce-corrupt   poisons rank 2's ‖r₀‖ contribution (the canonical
#                       acceptance scenario: CG diverges, swap recovers)
#   allreduce-error     typed CommError::Injected out of a collective
#                       (transient: same-backend retry, peers ride the
#                       deadlock watchdog)
#   halo-recv-corrupt   NaN lands in a received halo (screened + counted,
#                       NaN spreads rank-consistently via the reduction)
#   halo-send-corrupt   NaN leaves through a sent halo
#   halo-delay          a 50 ms stall on a halo receive (benign: the solve
#                       must succeed on the first attempt)
#   send-truncate       a halo message loses its last element (length
#                       mismatch surfaces as a typed transport error)
#   kill-rank-solve     rank 2 permanently stops servicing communication
#                       mid-CG (allreduce call 30 ≈ iteration 14) with
#                       checkpointing every 10 iterations armed: the three
#                       survivors shrink the cohort, repartition the dead
#                       rank's rows and resume from the iteration-10
#                       snapshot (recovery code 3)
#   kill-rank-setup     rank 1 dies during the first halo-plan exchange,
#                       before any iterate exists: survivors shrink and
#                       restart from zero on the repartitioned layout
#   kill-two-ranks      rank 2 dies mid-CG, then rank 1 on the shrunken
#                       cohort (checkpointing off): both survivors, ranks
#                       0 and 3, must shrink twice and report recovery=3
#
# Every run must exit 0 — the driver's contract is a structured outcome,
# never a hang or a panic. The per-rank attempts/recovery lines from the
# example output tell the story per plan; the watchdog is kept short so
# rank-divergent plans convert blocked peers into retries quickly. The
# ENVS column supplies per-plan knobs (checkpoint cadence, a tighter
# watchdog for the kill rows whose final gather must time out on the
# dead rank).
#
# Usage: scripts/fault_matrix.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export RCOMM_DEADLOCK_TIMEOUT_SECS="${RCOMM_DEADLOCK_TIMEOUT_SECS:-5}"

echo "== building the resilience example =="
cargo build -q --release --example resilience

declare -a NAMES=(
  allreduce-corrupt
  allreduce-error
  halo-recv-corrupt
  halo-send-corrupt
  halo-delay
  send-truncate
  kill-rank-solve
  kill-rank-setup
  kill-two-ranks
)
declare -a PLANS=(
  'op=allreduce,rank=2,call=2,kind=corrupt;seed=11'
  'op=allreduce,rank=1,call=2,kind=error'
  'op=recv,rank=1,tag=7001,call=1,kind=corrupt;seed=5'
  'op=send,rank=3,tag=7001,call=1,kind=corrupt;seed=7'
  'op=recv,rank=2,tag=7001,call=1,kind=delay,delay_ms=50'
  'op=send,rank=1,tag=7001,call=1,kind=truncate'
  'op=allreduce,rank=2,call=30,kind=kill'
  'op=alltoall,rank=1,call=1,kind=kill'
  'op=allreduce,rank=2,call=30,kind=kill;op=allreduce,rank=1,call=70,kind=kill'
)
# Per-plan environment knobs, word-split on purpose.
declare -a ENVS=(
  ''
  ''
  ''
  ''
  ''
  ''
  'RSPARSE_CHECKPOINT_EVERY=10 RCOMM_DEADLOCK_TIMEOUT_SECS=2'
  'RCOMM_DEADLOCK_TIMEOUT_SECS=2'
  'RCOMM_DEADLOCK_TIMEOUT_SECS=2'
)

fail=0
summary=""
for i in "${!NAMES[@]}"; do
  name="${NAMES[$i]}"
  plan="${PLANS[$i]}"
  extra_env="${ENVS[$i]}"
  echo
  echo "== $name: ${extra_env:+$extra_env }RSPARSE_FAULTS='$plan' =="
  log="$(mktemp)"
  # shellcheck disable=SC2086
  if env $extra_env RSPARSE_FAULTS="$plan" ./target/release/examples/resilience >"$log" 2>&1; then
    verdict="ok"
    # The kill rows must actually demonstrate the elastic path: survivor
    # lines reporting recovery code 3 (cohort shrink) — at least one, and
    # both survivors (ranks 0 and 3) for kill-two-ranks.
    case "$name" in
      kill-two-ranks) want=2 ;;
      kill-*) want=1 ;;
      *) want=0 ;;
    esac
    got="$(sed -n '/-- with the fault armed --/,/-- fault disarmed/p' "$log" \
      | grep -Ec 'rank [0-9]+: converged=true .*recovery=3' || true)"
    if [ "$got" -lt "$want" ]; then
      verdict="FAILED"
      fail=1
    fi
  else
    verdict="FAILED"
    fail=1
  fi
  # The per-rank outcome lines from the faulted half of the run.
  sed -n '/-- with the fault armed --/,/-- fault disarmed/p' "$log" \
    | grep -E 'rank [0-9]+:|rewiring' || true
  [ "$verdict" = FAILED ] && tail -n 20 "$log"
  summary+="$(printf '%-18s %s' "$name" "$verdict")"$'\n'
  rm -f "$log"
done

echo
echo "== fault matrix summary =="
printf '%s' "$summary"
if [ "$fail" -ne 0 ]; then
  echo "FAULT MATRIX FAILED"
  exit 1
fi
echo "ALL PLANS HANDLED"
