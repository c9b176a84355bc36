#!/usr/bin/env bash
#===- daemon_smoke.sh - limpetd end-to-end robustness smoke --------------===#
#
# The daemon's whole contract through the real binaries and real signals
# (docs/DAEMON.md):
#
#  1. Liveness: start limpetd, ping it.
#  2. A clean job runs to "finished" and reports a state checksum.
#  3. Fault isolation: a job with an unknown model fails alone (exit 4)
#     and the daemon keeps serving.
#  4. Backpressure: a structurally invalid spec is rejected (exit 3)
#     with a machine-readable reason, not a dropped connection.
#  5. Cancellation: a long-running job cancelled mid-run reaches the
#     "cancelled" terminal state (exit 5).
#  6. Durable queue recovery: SIGKILL the daemon while a checkpointing
#     job is mid-run; a restarted daemon replays it from its newest
#     valid checkpoint and its final checksum is bit-identical to an
#     uninterrupted run of the same spec.
#  7. Cross-tool parity: limpetc --run builds its simulation through the
#     daemon's job code, so a tissue spec and a sweep spec give limpetc
#     the same state checksum the daemon finishes with.
#  8. Graceful drain: the shutdown verb stops the daemon with exit 0.
#
# Usage: daemon_smoke.sh <path-to-limpetd> <path-to-limpetctl>
# (step 7 runs the limpetc built next to limpetd)
#
#===----------------------------------------------------------------------===#

set -euo pipefail

LIMPETD=${1:?usage: daemon_smoke.sh <path-to-limpetd> <path-to-limpetctl>}
LIMPETCTL=${2:?usage: daemon_smoke.sh <path-to-limpetd> <path-to-limpetctl>}
LIMPETC=$(dirname "$LIMPETD")/limpetc
WORK=$(mktemp -d "${TMPDIR:-/tmp}/limpet-daemon-smoke.XXXXXX")
DPID=""
cleanup() {
  [ -n "$DPID" ] && kill -9 "$DPID" 2>/dev/null
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

SOCK=$WORK/limpetd.sock
STATE=$WORK/state
MODEL=HodgkinHuxley

fail() { echo "daemon_smoke: FAIL: $*" >&2; exit 1; }

ctl() { "$LIMPETCTL" --socket "$SOCK" "$@"; }

checksum_of_event() {
  # {"event":"finished",...,"checksum":"-4097.9..."} -> the %.17g string
  grep -o '"checksum":"[^"]*"' "$1" | tail -1 | cut -d'"' -f4
}

start_daemon() {
  # sim-threads 1: the smoke populations are small enough that per-step
  # fork-join overhead would dominate; two runners still exercise the
  # multi-tenant concurrency.
  "$LIMPETD" --socket "$SOCK" --state-dir "$STATE" \
    --runners 2 --sim-threads 1 >"$1" 2>&1 &
  DPID=$!
  for _ in $(seq 1 100); do
    if ctl ping >/dev/null 2>&1; then return 0; fi
    kill -0 "$DPID" 2>/dev/null || fail "daemon died at startup (see $1)"
    sleep 0.05
  done
  fail "daemon never answered ping (see $1)"
}

unset LIMPET_CACHE_DIR
# fsync protects against power loss, not SIGKILL: a kill -9 leaves the
# page cache intact, so the replay contract under test is unchanged and
# the dense checkpoint cadences below stay fast on slow filesystems.
# (This also exercises the documented LIMPET_NO_FSYNC escape hatch.)
export LIMPET_NO_FSYNC=1

# --- 1. liveness -------------------------------------------------------------
start_daemon "$WORK/daemon1.log"
echo "daemon_smoke: daemon up (pid $DPID)"

# --- 2. clean job ------------------------------------------------------------
ctl submit --model $MODEL --cells 64 --steps 4000 --wait >"$WORK/ref.out" \
  || fail "clean job did not finish (exit $?)"
REF=$(checksum_of_event "$WORK/ref.out")
[ -n "$REF" ] || fail "finished event carried no checksum"
echo "daemon_smoke: clean job finished, checksum $REF"

# --- 3. fault isolation ------------------------------------------------------
set +e
ctl submit --model NoSuchModel --wait >"$WORK/fault.out" 2>&1
RC=$?
set -e
[ "$RC" = 4 ] || fail "unknown-model job exited $RC, want 4 (failed)"
ctl ping >/dev/null || fail "daemon unhealthy after a failed job"
echo "daemon_smoke: faulting job failed alone, daemon healthy"

# --- 4. admission rejects bad specs -----------------------------------------
set +e
ctl submit --model $MODEL --cells 0 --wait >"$WORK/reject.out" 2>&1
RC=$?
set -e
[ "$RC" = 3 ] || fail "invalid spec exited $RC, want 3 (rejected)"
grep -q '"event":"rejected"' "$WORK/reject.out" \
  || fail "rejection carried no machine-readable event"
echo "daemon_smoke: invalid spec rejected with reason"

# --- 5. cancellation ---------------------------------------------------------
ctl submit --model $MODEL --cells 64 --steps 200000000 \
  --checkpoint-every 50000 >"$WORK/cancel-submit.out" \
  || fail "long job submit failed"
CANCEL_ID=$(grep -o '"id":[0-9]*' "$WORK/cancel-submit.out" | head -1 | cut -d: -f2)
[ -n "$CANCEL_ID" ] || fail "no id in accepted event"
sleep 0.3 # let it start stepping
ctl cancel --id "$CANCEL_ID" >/dev/null || fail "cancel verb failed"
set +e
ctl wait --id "$CANCEL_ID" >"$WORK/cancel-wait.out" 2>&1
RC=$?
set -e
[ "$RC" = 5 ] || fail "cancelled job exited $RC, want 5 (cancelled)"
echo "daemon_smoke: mid-run cancel reached the cancelled state"

# --- 6. SIGKILL -> restart -> replay bit-identical ---------------------------
# ~5 s of stepping at scalar speed: long enough that the kill lands
# mid-run with checkpoints on disk, short enough that replay + reference
# stay well inside the test budget.
ctl submit --model $MODEL --cells 128 --steps 200000 \
  --checkpoint-every 10000 >"$WORK/victim-submit.out" \
  || fail "victim job submit failed"
VICTIM_ID=$(grep -o '"id":[0-9]*' "$WORK/victim-submit.out" | head -1 | cut -d: -f2)
[ -n "$VICTIM_ID" ] || fail "no id in victim accepted event"

# Kill -9 once the victim has durable checkpoints to resume from.
KILLED=0
for _ in $(seq 1 200); do
  if [ "$(ls "$STATE/job-$VICTIM_ID/ckpt"/ckpt-*.lmpc 2>/dev/null | wc -l)" -ge 2 ]; then
    kill -9 "$DPID" || fail "could not SIGKILL the daemon"
    wait "$DPID" 2>/dev/null || true
    KILLED=1
    break
  fi
  sleep 0.05
done
[ "$KILLED" = 1 ] || fail "victim job never wrote two checkpoints"
echo "daemon_smoke: SIGKILLed daemon mid-job $VICTIM_ID"

start_daemon "$WORK/daemon2.log"
grep -q 'replaying' "$WORK/daemon2.log" \
  || fail "restarted daemon did not report replaying unfinished jobs"
set +e
ctl wait --id "$VICTIM_ID" >"$WORK/replay-wait.out" 2>&1
RC=$?
set -e
[ "$RC" = 0 ] || fail "replayed job exited $RC, want 0 (finished)"
REPLAYED=$(checksum_of_event "$STATE/job-$VICTIM_ID/result.json")
[ -n "$REPLAYED" ] || fail "replayed job left no checksum in result.json"

# Reference: the same spec, uninterrupted, in the restarted daemon.
ctl submit --model $MODEL --cells 128 --steps 200000 \
  --checkpoint-every 10000 --wait \
  >"$WORK/replay-ref.out" || fail "replay reference run failed"
REPLAY_REF=$(checksum_of_event "$WORK/replay-ref.out")
[ "$REPLAYED" = "$REPLAY_REF" ] \
  || fail "replayed job diverged: replayed=$REPLAYED ref=$REPLAY_REF"
echo "daemon_smoke: SIGKILL -> restart -> replay bit-identical OK"

# --- 7. cross-tool parity ----------------------------------------------------
# The same spec through both tools. Guard rails are on in both (limpetc's
# --guard is the daemon's default); limpetc prints 9 significant digits,
# so the daemon's %.17g checksum is compared at that precision.
parity() {
  local TAG=$1; shift
  ctl submit --model $MODEL --steps 2000 "$@" --wait >"$WORK/$TAG-d.out" \
    || fail "$TAG: daemon job did not finish (exit $?)"
  local D
  D=$(printf '%.9g' "$(checksum_of_event "$WORK/$TAG-d.out")")
  "$LIMPETC" $MODEL --run --guard --steps 2000 "$@" >"$WORK/$TAG-c.out" 2>&1 \
    || fail "$TAG: limpetc --run failed (see $WORK/$TAG-c.out)"
  local C
  C=$(grep 'state checksum' "$WORK/$TAG-c.out" | tail -1 | sed 's/.*= //')
  [ -n "$C" ] && [ "$C" = "$D" ] \
    || fail "$TAG: limpetc checksum '$C' != daemon checksum '$D'"
  echo "daemon_smoke: $TAG parity OK (checksum $C)"
}
parity tissue --tissue 16x8
parity sweep --sweep "gNa=90,130"

# --- 8. graceful drain -------------------------------------------------------
ctl shutdown >/dev/null || fail "shutdown verb failed"
wait "$DPID" && RC=0 || RC=$?
DPID=""
[ "$RC" = 0 ] || fail "daemon shutdown exit code was $RC"
echo "daemon_smoke: graceful drain OK"

echo "daemon_smoke: PASS"
