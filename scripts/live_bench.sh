#!/usr/bin/env bash
# Live-throughput benchmark: boot a 3-node TCP grid twice — once per
# injection mode — and measure injection and end-to-end throughput
# from one external client (gridctl bench):
#
#   pooled         one grid.inject per job
#   pooled_batched grid.injectbatch
#
# Results land in BENCH_live.json, whose "perdial" row (one TCP
# connection per RPC, the path PR 6 replaced and PR 14 deleted) is
# history and is carried over as is. Environment knobs:
#   BENCH_JOBS     jobs per configuration        (default 300)
#   BENCH_WORK     per-job synthetic runtime     (default 5ms)
#   BENCH_OUT      output path                   (default BENCH_live.json)
#   BENCH_ASSERT   when 1, fail unless batched injection throughput is
#                  at least half of the checked-in BENCH_live.json
#                  pooled_batched rung (CI smoke)
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS=${BENCH_JOBS:-300}
WORK=${BENCH_WORK:-5ms}
OUT=${BENCH_OUT:-BENCH_live.json}
ASSERT=${BENCH_ASSERT:-0}

source scripts/lib.sh

extract() { # extract <file> <json-number-field>
  grep -o "\"$2\":[0-9.eE+-]*" "$1" | head -1 | cut -d: -f2
}

# Read the checked-in rungs before $OUT (possibly the same file) is
# rewritten: the history row, and the floor the assert compares with.
history=$(grep '"perdial":' BENCH_live.json | sed 's/,$//')
grep '"pooled_batched":' BENCH_live.json >"$workdir/rung.json"
rung_inject=$(extract "$workdir/rung.json" inject_jobs_per_sec)

# run_config <name> <batch-flag>
# Boots a fresh 3-node grid, runs one bench, and leaves the JSON result
# line in $workdir/<name>.json.
run_config() {
  local name=$1 batch=$2
  echo "live_bench: config $name (batch=$batch)" >&2
  boot_grid 7700

  local args=(bench -node 127.0.0.1:7701 -n "$JOBS" -work "$WORK" \
    -timeout 4m -json)
  if [ "$batch" = yes ]; then args+=(-batch); fi
  "$workdir/gridctl" "${args[@]}" >"$workdir/$name.json"

  # Tear the grid down so the next configuration starts clean.
  teardown_grid
}

run_config pooled no
run_config pooled_batched yes

{
  echo '{'
  echo '  "bench": "live 3-node grid, one external client",'
  echo "  \"jobs_per_config\": $JOBS,"
  echo "  \"work\": \"$WORK\","
  echo '  "note": "inject_jobs_per_sec is submit->owner-ack throughput (the pooled/batched fast path); e2e_jobs_per_sec is submit->result-delivered",'
  echo "$history,"
  echo "  \"pooled\": $(cat "$workdir/pooled.json"),"
  echo "  \"pooled_batched\": $(cat "$workdir/pooled_batched.json")"
  echo '}'
} >"$OUT"

echo "live_bench: wrote $OUT" >&2

pool_inject=$(extract "$workdir/pooled.json" inject_jobs_per_sec)
batch_inject=$(extract "$workdir/pooled_batched.json" inject_jobs_per_sec)
echo "live_bench: inject jobs/sec: pooled=$pool_inject pooled+batched=$batch_inject (checked-in rung $rung_inject)" >&2

if [ "$ASSERT" = 1 ]; then
  # Flake-tolerant CI gate: a floor against the checked-in rung.
  ok=$(awk -v a="$batch_inject" -v b="$rung_inject" 'BEGIN { print (a >= b / 2) ? 1 : 0 }')
  if [ "$ok" != 1 ]; then
    echo "live_bench: FAIL: batched injection ($batch_inject jobs/s) under half of the checked-in rung ($rung_inject jobs/s)" >&2
    exit 1
  fi
  echo "live_bench: PASS (batched $batch_inject >= half of rung $rung_inject jobs/s)" >&2
fi
