#!/usr/bin/env bash
# Open-loop traffic harness driver: boots a real TCP cluster of
# snoopy-server partition processes on loopback, then drives it with
# snoopy-bench -traffic — 10^5..10^6 simulated client sessions on a
# precomputed coordinated-omission-safe schedule (see internal/loadgen).
#
#   scripts/traffic.sh smoke   # CI mode: 2 servers, 10^5 sessions, two
#                              # scenarios, no knee search (~10s)
#   scripts/traffic.sh full    # 4 servers, 10^6 sessions, the whole
#                              # scenario suite plus the knee search vs
#                              # the calibrated Eq. 1 prediction
#
# Writes results/TRAFFIC_<mode>.json.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-smoke}"
BLOCK=64
EPOCH=50ms
BASE_PORT=7411

case "$MODE" in
  smoke)
    SERVERS_N=2
    SESSIONS=100000
    RATE=1200
    DURATION=1s
    SCENARIOS="poisson-uniform,hotkey-storm"
    KNEE=false
    ;;
  full)
    SERVERS_N=4
    SESSIONS=1000000
    RATE=2000
    DURATION=3s
    SCENARIOS="all"
    KNEE=true
    ;;
  *)
    echo "usage: scripts/traffic.sh [smoke|full]" >&2
    exit 2
    ;;
esac

mkdir -p bin results
go build -o bin/snoopy-server ./cmd/snoopy-server
go build -o bin/snoopy-bench ./cmd/snoopy-bench

# Shared simulated-attestation platform key: separately started server
# processes and the bench client must agree on one authority.
PLATFORM="$(head -c 32 /dev/urandom | od -An -tx1 | tr -d ' \n')"

LOGDIR="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$LOGDIR"
}
trap cleanup EXIT

ADDRS=""
for i in $(seq 0 $((SERVERS_N - 1))); do
  port=$((BASE_PORT + i))
  bin/snoopy-server -listen "127.0.0.1:$port" -block "$BLOCK" -platform "$PLATFORM" \
    >"$LOGDIR/server_$i.log" 2>&1 &
  PIDS+=($!)
  ADDRS="${ADDRS:+$ADDRS,}127.0.0.1:$port"
done

# Wait for every partition to accept connections.
for i in $(seq 0 $((SERVERS_N - 1))); do
  port=$((BASE_PORT + i))
  for _ in $(seq 1 50); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
      exec 3>&- 3<&- || true
      break
    fi
    sleep 0.1
  done
done

bin/snoopy-bench -traffic "results/TRAFFIC_$MODE.json" \
  -servers "$ADDRS" -platform "$PLATFORM" \
  -scenarios "$SCENARIOS" -sessions "$SESSIONS" -rate "$RATE" \
  -duration "$DURATION" -epoch "$EPOCH" -objects 1024 -block "$BLOCK" \
  -lbs 1 -knee="$KNEE"

echo "traffic.sh ($MODE): OK — results/TRAFFIC_$MODE.json"
