#!/usr/bin/env bash
# Live observability smoke test: boot a 3-node TCP grid with metrics
# enabled, run one job through it, scrape /metrics, and reconstruct the
# job's cross-node lifecycle with `gridctl trace`. Exercises the whole
# obs stack end to end (DESIGN.md §8): registry -> Prometheus endpoint,
# trace propagation across inject/own/match/assign/execute/deliver, and
# the grid.stats / grid.trace RPCs.
set -euo pipefail

cd "$(dirname "$0")/.."

source scripts/lib.sh

# Nodes on 7501-7503, metrics on 7601-7603.
boot_grid 7500 -metrics-addr 127.0.0.1:760%k

# Injected at node 1 and runnable only on node 2 (-cpu 8), so the
# trace spans two nodes whichever node the GUID makes the owner.
"$workdir/gridctl" -node 127.0.0.1:7501 -work 2s -mincpu 6 -n 1 -timeout 90s \
  | tee "$workdir/submit.log"

job_id=$(grep -o 'job=[0-9a-f]\{40\}' "$workdir/submit.log" | head -1 | cut -d= -f2)
if [ -z "$job_id" ]; then
  echo "obs_smoke: FAIL: no job id in submit output" >&2
  exit 1
fi

# The /metrics scrape must be valid Prometheus text with live values.
scrape=$(curl -sf http://127.0.0.1:7601/metrics)
for metric in grid_events_total rpc_server_calls_total chord_lookups_total grid_queue_depth; do
  if ! grep -q "$metric" <<<"$scrape"; then
    echo "obs_smoke: FAIL: $metric missing from /metrics scrape" >&2
    exit 1
  fi
done
curl -sf http://127.0.0.1:7601/debug/pprof/ >/dev/null
curl -sf http://127.0.0.1:7601/healthz >/dev/null

# The trace must reconstruct the cross-node lifecycle. Result delivery
# races the submit acknowledgement, so retry briefly until the final
# stage lands in a trace buffer.
for attempt in $(seq 1 20); do
  if out=$("$workdir/gridctl" trace -node 127.0.0.1:7501 "$job_id" 2>&1); then
    if grep -q 'executed' <<<"$out"; then break; fi
  fi
  sleep 1
done
echo "$out"
# "submitted" is recorded by in-grid clients only; gridctl is an
# external client, so its jobs' traces begin at "injected". The owner
# traces "assigning" before the assign RPC and "matched" once the run
# node has acknowledged it.
for stage in injected owned assigning matched enqueued started executed result-sent; do
  if ! grep -q " $stage " <<<"$out"; then
    echo "obs_smoke: FAIL: stage '$stage' missing from trace" >&2
    exit 1
  fi
done
# The lifecycle must span more than one node (owner vs run/client).
nodes_in_trace=$(awk '/^[0-9]/ {print $4}' <<<"$out" | sort -u | wc -l)
if [ "$nodes_in_trace" -lt 2 ]; then
  echo "obs_smoke: FAIL: trace covers $nodes_in_trace node(s), want >= 2" >&2
  exit 1
fi

# Stats RPC answers with live counters.
"$workdir/gridctl" stats -node 127.0.0.1:7502 | tee "$workdir/stats.log"
grep -q 'grid_events_total' "$workdir/stats.log"

echo "obs_smoke: PASS (job $job_id traced across $nodes_in_trace nodes)"
