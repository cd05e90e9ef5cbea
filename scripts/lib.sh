# Sourced by the live scripts (from the repo root): a scratch $workdir
# removed on exit, freshly built gridnode and gridctl in it, and a
# three-node grid that is up when boot_grid returns.

workdir=$(mktemp -d)
pids=()
boots=0

teardown_grid() {
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  pids=()
}
trap 'teardown_grid; rm -rf "$workdir"' EXIT

go build -o "$workdir/gridnode" ./cmd/gridnode
go build -o "$workdir/gridctl" ./cmd/gridctl

# await_ready <log>...
# Returns once every log holds gridnode's ready line (peer.Launch came
# back: ring closed around the node, tree attached, or its own bounds
# ran out and the node said so). After 90 s, which is past those bounds,
# it dumps the logs and fails the script.
await_ready() {
  local deadline=$((SECONDS + 90)) log
  while :; do
    local missing=0
    for log in "$@"; do
      grep -q '^gridnode: ready' "$log" 2>/dev/null || missing=1
    done
    [ "$missing" = 0 ] && return 0
    if [ "$SECONDS" -ge "$deadline" ]; then
      echo "boot: FAIL: not every node printed its ready line within 90 s" >&2
      for log in "$@"; do
        echo "--- $log ---" >&2
        tail -20 "$log" >&2 || true
      done
      exit 1
    fi
    sleep 0.1
  done
}

# boot_grid <portbase> [gridnode flags...]
# Node 1 creates the grid on portbase+1; nodes 2 (-cpu 8) and 3 (-cpu 3)
# join through it on +2 and +3. A %k inside a flag becomes the node's
# number, for per-node ports and files. Logs go to $gridlog-n<k>.log.
boot_grid() {
  local base=$1 k
  shift
  boots=$((boots + 1))
  gridlog=$workdir/grid$boots
  for k in 1 2 3; do
    local args=(-listen "127.0.0.1:$((base + k))")
    case $k in
      2) args+=(-bootstrap "127.0.0.1:$((base + 1))" -cpu 8) ;;
      3) args+=(-bootstrap "127.0.0.1:$((base + 1))" -cpu 3) ;;
    esac
    "$workdir/gridnode" "${args[@]}" "${@//%k/$k}" >"$gridlog-n$k.log" 2>&1 &
    pids+=($!)
  done
  await_ready "$gridlog"-n{1,2,3}.log
}
