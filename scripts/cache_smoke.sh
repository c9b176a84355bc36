#!/usr/bin/env bash
#===- cache_smoke.sh - artifact + compile-cache end-to-end smoke ---------===#
#
# Exercises the "compile once, simulate many" path through the real CLI:
#
#  1. --emit-artifact / --load-artifact round trip: the loaded artifact
#     must simulate to the exact same state checksum as a fresh compile.
#  2. A corrupted artifact file must be rejected with a recoverable error
#     (nonzero exit, no crash).
#  3. Cold vs. warm LIMPET_CACHE_DIR runs: the cold process compiles (the
#     emit-bytecode stage runs, the cache records a miss + store); the
#     warm process must do zero codegen-stage work (disk_hit recorded, no
#     emit-ir / opt / vectorize / emit-bytecode stage counters).
#  4. A LIMPET_CACHE_DIR beneath a regular file: the run still succeeds
#     and --stats counts the failed disk store (compile.cache.store_failed).
#
# Counter assertions are verified through --stats; on a telemetry-off
# build (-DLIMPET_TELEMETRY=OFF) they are skipped and only the checksum
# and exit-code checks run.
#
# Usage: cache_smoke.sh <path-to-limpetc>
#
#===----------------------------------------------------------------------===#

set -euo pipefail

LIMPETC=${1:?usage: cache_smoke.sh <path-to-limpetc>}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/limpet-cache-smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

MODEL=HodgkinHuxley
RUN_FLAGS=(--run --width 8 --steps 50 --cells 32)

fail() { echo "cache_smoke: FAIL: $*" >&2; exit 1; }

checksum_of() {
  grep 'state checksum' "$1" | tail -1 | sed 's/.*= //'
}

# Keep the environment's cache out of the artifact phase.
unset LIMPET_CACHE_DIR

# --- 1. artifact round trip -------------------------------------------------
"$LIMPETC" "$MODEL" "${RUN_FLAGS[@]}" --no-cache \
  >"$WORK/fresh.out" 2>"$WORK/fresh.err" \
  || fail "fresh compile+run failed"
"$LIMPETC" "$MODEL" --width 8 --emit-artifact "$WORK/model.lmpa" --no-cache \
  >"$WORK/emit.out" 2>"$WORK/emit.err" \
  || fail "--emit-artifact failed"
[ -s "$WORK/model.lmpa" ] || fail "artifact file is missing or empty"
"$LIMPETC" "$MODEL" "${RUN_FLAGS[@]}" --load-artifact "$WORK/model.lmpa" \
  >"$WORK/loaded.out" 2>"$WORK/loaded.err" \
  || fail "--load-artifact failed"

FRESH=$(checksum_of "$WORK/fresh.out")
LOADED=$(checksum_of "$WORK/loaded.out")
[ -n "$FRESH" ] || fail "fresh run printed no state checksum"
[ "$FRESH" = "$LOADED" ] \
  || fail "artifact simulation diverged: fresh=$FRESH loaded=$LOADED"
echo "cache_smoke: artifact round trip OK (checksum $FRESH)"

# --- 2. corrupt artifact is a recoverable error -----------------------------
head -c 64 "$WORK/model.lmpa" >"$WORK/truncated.lmpa"
if "$LIMPETC" "$MODEL" --run --load-artifact "$WORK/truncated.lmpa" \
    >"$WORK/corrupt.out" 2>"$WORK/corrupt.err"; then
  fail "truncated artifact was accepted"
fi
grep -qi 'artifact' "$WORK/corrupt.err" \
  || fail "truncated artifact error does not mention the artifact"
echo "cache_smoke: corrupt artifact rejected OK"

# --- 3. cold vs. warm disk cache --------------------------------------------
export LIMPET_CACHE_DIR="$WORK/cache"
mkdir -p "$LIMPET_CACHE_DIR"

"$LIMPETC" "$MODEL" "${RUN_FLAGS[@]}" --stats \
  >"$WORK/cold.out" 2>"$WORK/cold.err" || fail "cold cached run failed"
"$LIMPETC" "$MODEL" "${RUN_FLAGS[@]}" --stats \
  >"$WORK/warm.out" 2>"$WORK/warm.err" || fail "warm cached run failed"

COLD=$(checksum_of "$WORK/cold.out")
WARM=$(checksum_of "$WORK/warm.out")
[ "$COLD" = "$WARM" ] \
  || fail "warm cache simulation diverged: cold=$COLD warm=$WARM"
[ "$COLD" = "$FRESH" ] \
  || fail "cached simulation diverged from uncached: $COLD vs $FRESH"

if grep -q 'telemetry disabled at build time' "$WORK/cold.out"; then
  echo "cache_smoke: telemetry-off build, skipping counter assertions"
  echo "cache_smoke: PASS"
  exit 0
fi

# The cold process really compiled: codegen stages ran, the cache missed
# and stored. (--stats renders counters as a tree, so we grep leaf names.)
grep -q 'emit-bytecode:' "$WORK/cold.out" \
  || fail "cold run shows no emit-bytecode stage"
grep -q 'miss ' "$WORK/cold.out" || fail "cold run recorded no cache miss"
grep -q 'store ' "$WORK/cold.out" || fail "cold run recorded no cache store"

# The warm process skipped every codegen stage and hit the disk tier.
grep -q 'disk_hit' "$WORK/warm.out" || fail "warm run shows no disk hit"
for stage in emit-ir emit-bytecode vectorize; do
  if grep -q "${stage}:" "$WORK/warm.out"; then
    fail "warm run ran codegen stage ${stage}"
  fi
done
grep -q 'warm:' "$WORK/warm.out" || fail "warm run recorded no warm compile"
echo "cache_smoke: cold/warm disk cache OK (zero codegen on warm start)"

# --- 4. a failed disk-tier store is counted ---------------------------------
# The cache directory sits beneath a regular file, so the disk write
# fails; the run still succeeds off the memory tier and --stats counts
# the lost store.
touch "$WORK/not-a-dir"
LIMPET_CACHE_DIR="$WORK/not-a-dir/cache" \
  "$LIMPETC" "$MODEL" "${RUN_FLAGS[@]}" --stats \
  >"$WORK/nostore.out" 2>"$WORK/nostore.err" \
  || fail "run with an unwritable cache dir failed"
[ "$(checksum_of "$WORK/nostore.out")" = "$FRESH" ] \
  || fail "run with an unwritable cache dir diverged"
grep -q 'store_failed' "$WORK/nostore.out" \
  || fail "failed disk-tier store was not counted"
echo "cache_smoke: failed disk store counted OK"
echo "cache_smoke: PASS"
