#!/usr/bin/env bash
# Live chaos soak: boot a 3-node TCP grid with a seeded fault schedule
# (faultinject rules, DESIGN.md §12) injected into every node's
# outbound RPCs and assert the robustness contract end to end:
#
#   1. Soak        N jobs through gridctl chaos — every job delivered
#                  exactly once, zero lost, zero duplicates, while
#                  heartbeats are delayed, assignments reset mid-frame,
#                  ownership transfers are refused, and a few calls of
#                  every method are dropped.
#   2. Replay      the same seed twice must draw the same fault for
#                  every (from, to, method, leg, seq) decision the runs share —
#                  the determinism contract that makes a chaos failure
#                  reproducible.
#   3. Breakers    killing a node, with jobs submitted through the
#                  other two so that their routes call it, must open
#                  circuit breakers on its peers (visible in /metrics
#                  and gridctl health), and
#                  reviving it must close them again via half-open
#                  probes.
#
# Environment knobs:
#   CHAOS_JOBS   jobs per soak              (default 40)
#   CHAOS_WORK   per-job synthetic runtime  (default 200ms)
#   CHAOS_SEED   fault-schedule seed        (default 42)
#   CHAOS_SPEC   fault schedule override    (default exercises delay,
#                reset, refuse, and drop on the hot grid methods)
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS=${CHAOS_JOBS:-40}
WORK=${CHAOS_WORK:-200ms}
SEED=${CHAOS_SEED:-42}
SPEC=${CHAOS_SPEC:-'method=grid.heartbeat delay=0.25:400ms; method=grid.assign reset=0.15; method=grid.ownbatch refuse=0.15; drop=0.03'}

source scripts/lib.sh

# ---- Phase 1+2: two identically-seeded soaks --------------------------
# Nodes on 7801-7803, metrics on 7901-7903, one chaos log per node.
run_soak() { # run_soak <tag>
  local tag=$1
  echo "live_chaos: soak $tag (jobs=$JOBS seed=$SEED spec='$SPEC')" >&2
  boot_grid 7800 -metrics-addr 127.0.0.1:790%k -chaos "$SPEC" -chaos-seed "$SEED" \
    -chaos-log "$workdir/$tag-n%k.chaos"
  "$workdir/gridctl" chaos -bootstrap 127.0.0.1:7801 -n "$JOBS" -work "$WORK" \
    -timeout 4m -json >"$workdir/$tag.json"
  teardown_grid
  cat "$workdir/$tag.json" >&2
}

run_soak run1
run_soak run2

# Exactly-once is asserted by gridctl chaos itself (non-zero exit on any
# lost or duplicated job); here we additionally require that the
# schedule actually injected faults — a soak that never faulted proves
# nothing.
injected=$(cat "$workdir"/run1-n*.chaos | awk '$6 != "none"' | wc -l)
if [ "$injected" -lt 1 ]; then
  echo "live_chaos: FAIL: chaos schedule injected no faults (check CHAOS_SPEC)" >&2
  exit 1
fi
echo "live_chaos: run1 injected $injected faults across 3 nodes" >&2

# Replay check: every (from, to, method, leg, seq) decision both runs
# drew must have the same fate. A decision log line is "from to method
# leg seq fate". Traffic volume differs between runs, so the runs share
# a prefix of each key's sequence, not the whole log; the client's
# ephemeral-port peers simply never collide across runs.
for k in 1 2 3; do
  awk '{print $1 "|" $2 "|" $3 "|" $4 "|" $5, $6}' "$workdir/run1-n$k.chaos" | sort >"$workdir/r1-n$k.keyed"
  awk '{print $1 "|" $2 "|" $3 "|" $4 "|" $5, $6}' "$workdir/run2-n$k.chaos" | sort >"$workdir/r2-n$k.keyed"
  if ! join "$workdir/r1-n$k.keyed" "$workdir/r2-n$k.keyed" |
    awk '$2 != $3 { print; exit 1 }' >"$workdir/replay-n$k.diff"; then
    echo "live_chaos: FAIL: node $k drew different fates for the same (from,to,method,leg,seq) under seed $SEED:" >&2
    cat "$workdir/replay-n$k.diff" >&2
    exit 1
  fi
done
echo "live_chaos: replay check passed (seed $SEED drew identical fault sequences twice)" >&2

# ---- Phase 3: breaker visibility on a real failure --------------------
echo "live_chaos: breaker phase (no chaos; kill and revive node 3)" >&2
boot_grid 7800 -metrics-addr 127.0.0.1:790%k
n3=${pids[2]}

kill "$n3" 2>/dev/null || true

# An idle ring calls a dead peer only 3-4 times before its tables drop
# it, short of the 5 consecutive failures that open a breaker. So drive
# calls at it on purpose: jobs submitted through n1 and n2 every second
# route by Chord lookup and RN-Tree walk, and every route that still
# names n3 calls it.
probe() { "$workdir/gridctl" -node "127.0.0.1:$1" -n 3 -work 10ms -timeout 10s >/dev/null 2>&1 || true; }
opened=""
probes=()
for _ in $(seq 1 60); do
  probe 7801 &
  probes+=($!)
  probe 7802 &
  probes+=($!)
  for port in 7901 7902; do
    if curl -sf "http://127.0.0.1:$port/metrics" | grep -q 'rpc_breaker_transitions_total{to="open"}'; then
      opened=$port
      break 2
    fi
  done
  sleep 1
done
wait "${probes[@]}"
if [ -z "$opened" ]; then
  echo "live_chaos: FAIL: no breaker opened on n1/n2 within 60s of killing n3" >&2
  exit 1
fi
node_of() { echo "127.0.0.1:$((${1} - 100))"; } # metrics 79xx -> rpc 78xx
echo "live_chaos: breaker opened (seen on $(node_of "$opened") metrics)" >&2

"$workdir/gridctl" health -node "$(node_of "$opened")" >"$workdir/health.txt"
cat "$workdir/health.txt" >&2
if ! grep -Eq '7803[[:space:]]+open' "$workdir/health.txt"; then
  echo "live_chaos: FAIL: gridctl health does not show an open breaker for 127.0.0.1:7803" >&2
  exit 1
fi

# Revive node 3 at the same address; successful half-open probes must
# close the breaker again. A tiny soak forces traffic toward it.
"$workdir/gridnode" -listen 127.0.0.1:7803 -bootstrap 127.0.0.1:7801 -cpu 3 \
  >"$workdir/brk-n3-revived.log" 2>&1 &
pids+=($!)
await_ready "$workdir/brk-n3-revived.log"
"$workdir/gridctl" chaos -bootstrap 127.0.0.1:7801 -n 10 -work 50ms \
  -timeout 2m >/dev/null 2>&1 || true

closed=""
for _ in $(seq 1 90); do
  if curl -sf "http://127.0.0.1:$opened/metrics" | grep -q 'rpc_breaker_transitions_total{to="closed"}'; then
    closed=yes
    break
  fi
  sleep 1
done
teardown_grid
if [ -z "$closed" ]; then
  echo "live_chaos: FAIL: breaker never closed within 90s of reviving n3" >&2
  exit 1
fi
echo "live_chaos: breaker closed after revival" >&2
echo "live_chaos: PASS (exactly-once under chaos, deterministic replay, breaker open/close visible)" >&2
