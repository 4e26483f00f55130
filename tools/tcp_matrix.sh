#!/usr/bin/env bash
# Loopback TCP acceptance matrix — the distributed tier, end to end through
# the REAL binary on 127.0.0.1:
#
#   1. sweep/ser × c17/s27 × shards=2, each run twice — on the loopback
#      fleet the sweep starts itself (no --shard-hosts) and against
#      pre-started --shard-hosts workers — cmp'd byte-for-byte against the
#      committed golden CSVs and against each other (where the workers come
#      from must be invisible in the bytes).
#   2. `sereep serve` + `sereep client` round-trips, cmp'd against the same
#      goldens — the daemon's kResponse body IS the local rendering.
#   3. Recovery: a remote worker SIGKILLed while slow-streaming its result
#      frames (mid-stream socket close) must be re-dispatched onto the
#      surviving worker and still produce the batched engine's exact bytes.
#
# Every worker/daemon stderr lands in $TCP_MATRIX_LOGDIR (default
# ./tcp-matrix-logs) so CI can upload them as artifacts on failure.
#
# Usage: tools/tcp_matrix.sh path/to/sereep [path/to/tests/data]
set -euo pipefail

BIN=${1:?usage: tcp_matrix.sh path/to/sereep [path/to/tests/data]}
DATA=${2:-"$(dirname "$0")/../tests/data"}
LOGDIR=${TCP_MATRIX_LOGDIR:-tcp-matrix-logs}
mkdir -p "$LOGDIR"
WORK=$(mktemp -d)
PIDS=()

cleanup() {
  local pid
  for pid in "${PIDS[@]:-}"; do
    kill -9 -- "-$pid" "$pid" 2> /dev/null || true
  done
  wait 2> /dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# start_daemon NAME ARGS... — spawns "$BIN ARGS..." in its OWN process
# group (setsid), so killing "-$pid" takes down the accept loop AND its
# forked per-connection children. Waits for the "listening on HOST:PORT"
# line, then sets DAEMON_PID/DAEMON_PORT (globals, NOT echoed: a $(...)
# capture would run this in a subshell and lose the PIDS bookkeeping).
# Stderr goes to $LOGDIR/NAME.err.
start_daemon() {
  local name=$1
  shift
  setsid "$BIN" "$@" > "$WORK/$name.out" 2> "$LOGDIR/$name.err" &
  DAEMON_PID=$!
  PIDS+=("$DAEMON_PID")
  local i
  for i in $(seq 1 200); do
    if grep -q 'listening on' "$WORK/$name.out" 2> /dev/null; then
      DAEMON_PORT=$(sed -n 's/.*listening on .*:\([0-9][0-9]*\)$/\1/p' \
        "$WORK/$name.out")
      return 0
    fi
    sleep 0.05
  done
  echo "error: $name never reported a listening port" >&2
  return 1
}

echo "== golden matrix: sweep/ser x c17/s27 x local fleet/hosts, shards=2"
for circuit in c17 s27; do
  start_daemon "worker-${circuit}-1" worker --netlist="$circuit" --listen=0
  p1=$DAEMON_PORT
  start_daemon "worker-${circuit}-2" worker --netlist="$circuit" --listen=0
  p2=$DAEMON_PORT
  hosts="127.0.0.1:$p1,127.0.0.1:$p2"
  for cmd in sweep ser; do
    golden="$DATA/${cmd}_${circuit}.golden.csv"
    "$BIN" "$cmd" "$circuit" --engine=sharded --shards=2 \
      --csv="$WORK/fleet.csv"
    cmp "$WORK/fleet.csv" "$golden"
    "$BIN" "$cmd" "$circuit" --engine=sharded --shards=2 \
      --shard-hosts="$hosts" --csv="$WORK/hosts.csv"
    cmp "$WORK/hosts.csv" "$golden"
    cmp "$WORK/fleet.csv" "$WORK/hosts.csv"
    echo "   ok: $cmd $circuit (fleet == hosts == golden)"
  done
done

echo "== serve/client round-trips vs goldens"
start_daemon serve serve --port=0
sport=$DAEMON_PORT
for circuit in c17 s27; do
  for cmd in sweep ser; do
    "$BIN" client "$cmd" "$circuit" --connect="127.0.0.1:$sport" \
      --o="$WORK/client.out"
    cmp "$WORK/client.out" "$DATA/${cmd}_${circuit}.golden.csv"
    echo "   ok: client $cmd $circuit"
  done
done

echo "== recovery: SIGKILL a remote worker mid-stream"
# slow-stream=200 holds dispatch 0's result stream open; the kill lands
# mid-sweep, the supervisor re-dispatches onto the survivor, and the bytes
# must still equal the batched engine's.
"$BIN" sweep s953 --csv="$WORK/ref.csv"
export SEREEP_FAULT_PLAN="0:slow-stream=200"
start_daemon worker-kill-1 worker --netlist=s953 --listen=0
victim=$DAEMON_PID
k1=$DAEMON_PORT
start_daemon worker-kill-2 worker --netlist=s953 --listen=0
k2=$DAEMON_PORT
unset SEREEP_FAULT_PLAN
(
  sleep 0.1
  kill -9 -- "-$victim" 2> /dev/null || true
) &
"$BIN" sweep s953 --engine=sharded --shards=2 \
  --shard-hosts="127.0.0.1:$k1,127.0.0.1:$k2" --shard-retries=3 \
  --csv="$WORK/recovered.csv"
cmp "$WORK/recovered.csv" "$WORK/ref.csv"
echo "   ok: killed worker recovered bit-identically"

echo "tcp_matrix: all checks passed"
