#!/usr/bin/env bash
# Live push-notification smoke: boot a 3-node TCP grid with the DHT
# pub/sub overlay on (-notify), submit a job, follow its lineage with
# `gridctl watch`, and assert the paper-level claim end to end
# (DESIGN.md §13):
#
#   1. Push     the watch stream prints the job's transitions as owners
#               publish them, ending with completed — no status polling
#               anywhere in the process.
#   2. Traffic  pubsub_notifications_total > 0 across the grid (the
#               overlay actually carried the stream) while
#               grid_status_probes_total stays zero (nobody fell back
#               to polling).
#
# Environment knobs:
#   NOTIFY_WORK     per-job synthetic runtime   (default 6s)
#   NOTIFY_TIMEOUT  watch/result deadline       (default 90s)
set -euo pipefail

cd "$(dirname "$0")/.."

WORK=${NOTIFY_WORK:-6s}
TIMEOUT=${NOTIFY_TIMEOUT:-90s}

source scripts/lib.sh

# Nodes on 7811-7813, metrics on 7911-7913 (live_chaos.sh owns 780x).
boot_grid 7810 -metrics-addr 127.0.0.1:791%k -notify

# Submit one job in the background; its stdout names the lineage GUID
# the watch follows.
"$workdir/gridctl" -node 127.0.0.1:7811 -n 1 -work "$WORK" \
  -timeout "$TIMEOUT" >"$workdir/submit.log" 2>&1 &
submit_pid=$!
pids+=("$submit_pid")

job=""
for _ in $(seq 1 30); do
  job=$(awk '/^submitted job=/ { sub("job=", "", $2); print $2; exit }' "$workdir/submit.log" || true)
  [ -n "$job" ] && break
  sleep 1
done
if [ -z "$job" ]; then
  echo "live_notify: FAIL: no job submitted within 30s" >&2
  cat "$workdir/submit.log" >&2
  exit 1
fi
echo "live_notify: watching job $job" >&2

if ! "$workdir/gridctl" watch -node 127.0.0.1:7811 -timeout "$TIMEOUT" \
  "$job" >"$workdir/watch.log" 2>&1; then
  echo "live_notify: FAIL: watch did not see the completed transition" >&2
  cat "$workdir/watch.log" >&2
  exit 1
fi
cat "$workdir/watch.log" >&2
if ! grep -q 'completed' "$workdir/watch.log"; then
  echo "live_notify: FAIL: watch output lacks a completed transition" >&2
  exit 1
fi

if ! wait "$submit_pid"; then
  echo "live_notify: FAIL: submission did not complete" >&2
  cat "$workdir/submit.log" >&2
  exit 1
fi

# scrape <metric> -> sum across the three nodes' /metrics endpoints.
scrape() {
  local total=0 v
  for port in 7911 7912 7913; do
    v=$(curl -sf "http://127.0.0.1:$port/metrics" |
      awk -v m="$1" '$1 == m { print $2; found=1 } END { if (!found) print 0 }')
    total=$((total + v))
  done
  echo "$total"
}

notified=$(scrape pubsub_notifications_total)
probes=$(scrape grid_status_probes_total)
echo "live_notify: pubsub_notifications_total=$notified grid_status_probes_total=$probes" >&2
if [ "$notified" -lt 1 ]; then
  echo "live_notify: FAIL: overlay carried no notifications" >&2
  exit 1
fi
if [ "$probes" -ne 0 ]; then
  echo "live_notify: FAIL: expected zero status polls, saw $probes" >&2
  exit 1
fi
echo "live_notify: PASS (push stream delivered, zero status polls)" >&2
