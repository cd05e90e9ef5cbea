#!/usr/bin/env bash
# Live workflow smoke: boot a 3-node TCP grid with the pub/sub overlay
# on (-notify), run a small diamond DAG through `gridctl flow run`, and
# assert the workflow contract end to end (DESIGN.md §15):
#
#   1. DAG      every stage delivers exactly once (gridctl's exit
#               status checks delivered==stages and zero duplicates),
#               with fan-in stages submitted only after both branches'
#               outputs arrived to bundle as their input.
#   2. Data     the merge stage's input is its dependencies' carried
#               outputs — a non-empty out= on the branches, so the
#               engine's data-passing path is actually exercised.
#
# Environment knobs:
#   FLOW_TIMEOUT  whole-workflow deadline (default 120s)
set -euo pipefail

cd "$(dirname "$0")/.."

TIMEOUT=${FLOW_TIMEOUT:-120s}

source scripts/lib.sh

# Nodes on 7821-7823, metrics on 7921-7923 (live_notify.sh owns 781x).
boot_grid 7820 -metrics-addr 127.0.0.1:792%k -notify

cat >"$workdir/diamond.flow" <<'EOF'
# Live smoke diamond: two branches fan out of prep and merge back in;
# the branches carry output bytes so merge's input is a real bundle.
flow live-diamond
stage prep work=2s out=2
stage left after=prep work=3s out=1
stage right after=prep work=2s out=1
stage merge after=left,right work=1s
EOF

if ! "$workdir/gridctl" flow run -bootstrap 127.0.0.1:7821 -timeout "$TIMEOUT" \
  -json "$workdir/diamond.flow" >"$workdir/flow.log" 2>&1; then
  echo "live_flow: FAIL: workflow did not complete exactly once" >&2
  cat "$workdir/flow.log" >&2
  for n in 1 2 3; do
    echo "--- node $n log ---" >&2
    tail -20 "$gridlog-n$n.log" >&2 || true
  done
  exit 1
fi
cat "$workdir/flow.log" >&2

# The JSON line is the machine-checkable summary; re-assert it here so
# the script fails loudly even if gridctl's own gate ever regresses.
summary=$(tail -1 "$workdir/flow.log")
delivered=$(echo "$summary" | sed -n 's/.*"delivered":\([0-9]*\).*/\1/p')
stages=$(echo "$summary" | sed -n 's/.*"stages":\([0-9]*\).*/\1/p')
dups=$(echo "$summary" | sed -n 's/.*"duplicates":\([0-9]*\).*/\1/p')
if [ "$delivered" != "4" ] || [ "$stages" != "4" ] || [ "$dups" != "0" ]; then
  echo "live_flow: FAIL: want 4/4 stages exactly once, got delivered=$delivered/$stages duplicates=$dups" >&2
  exit 1
fi

# Data passing: the merge stage bundled its dependencies' outputs, so
# the per-stage lines must show non-empty outputs on both branches.
for s in left right; do
  if ! grep -E "^stage $s .*out=1024B" "$workdir/flow.log" >/dev/null; then
    echo "live_flow: FAIL: stage $s carried no output bytes" >&2
    cat "$workdir/flow.log" >&2
    exit 1
  fi
done

echo "live_flow: PASS (4/4 stages exactly once, branch outputs carried)" >&2
