#!/usr/bin/env bash
# Multi-process deployment smoke: three real kvstore processes form a
# ring over loopback TCP (one bootstrap + two wire-level joins), kvload
# drives a mixed workload at them, a fourth process joins mid-load, and
# the run must finish with zero failed operations and a 4-member ring.
# This is the one gate that exercises the deployment story across
# process boundaries — everything else in CI runs in a single process.
set -euo pipefail

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "deploy-smoke: building binaries..."
go build -o "$WORK/kvstore" ./cmd/kvstore
go build -o "$WORK/kvload" ./cmd/kvload

PORT0=${DEPLOY_SMOKE_PORT:-7411}
ADDR0="127.0.0.1:$PORT0"
ADDR1="127.0.0.1:$((PORT0 + 1))"
ADDR2="127.0.0.1:$((PORT0 + 2))"
ADDR3="127.0.0.1:$((PORT0 + 3))"

# wait_members <count> blocks until `kvstore status` reports the ring
# at the expected size (joins are serialized server-side, so each join
# must complete before the next starts).
wait_members() {
    want=$1
    for _ in $(seq 1 100); do
        # Capture instead of piping into grep -q: an early grep exit
        # would SIGPIPE the status command, and pipefail would read the
        # successful match as a failure.
        out=$("$WORK/kvstore" status -nodes "$ADDR0" 2>/dev/null) || out=""
        case "$out" in
        *"$want members"*) return 0 ;;
        esac
        sleep 0.2
    done
    echo "deploy-smoke: ring never reached $want members" >&2
    "$WORK/kvstore" status -nodes "$ADDR0" >&2 || true
    return 1
}

echo "deploy-smoke: bootstrapping node 0 on $ADDR0 (rf 2)..."
"$WORK/kvstore" serve -addr "$ADDR0" -dir "$WORK/d0" -rf 2 \
    -probe-interval 250ms -repair-interval 30s &
PIDS+=($!)
wait_members 1

echo "deploy-smoke: joining nodes 1 and 2..."
"$WORK/kvstore" serve -addr "$ADDR1" -dir "$WORK/d1" -join "$ADDR0" \
    -probe-interval 250ms -repair-interval 30s &
PIDS+=($!)
wait_members 2
"$WORK/kvstore" serve -addr "$ADDR2" -dir "$WORK/d2" -join "$ADDR0" \
    -probe-interval 250ms -repair-interval 30s &
PIDS+=($!)
wait_members 3

echo "deploy-smoke: starting kvload against the 3-node ring..."
"$WORK/kvload" -mix update-heavy -addr "$ADDR0" \
    -keys 2000 -cells 2 -value 64 -clients 2 -duration 8s \
    >"$WORK/kvload.out" 2>&1 &
LOAD_PID=$!
PIDS+=("$LOAD_PID")

# Give the load time to finish preloading and enter the measured step,
# then join the fourth node mid-traffic.
sleep 3
echo "deploy-smoke: joining node 3 under live load..."
"$WORK/kvstore" serve -addr "$ADDR3" -dir "$WORK/d3" -join "$ADDR0" \
    -probe-interval 250ms -repair-interval 30s &
PIDS+=($!)
wait_members 4

# Zero failed operations across the join: kvload exits non-zero when a
# step had a failed operation (its log names the first one) or ran none.
if ! wait "$LOAD_PID"; then
    echo "deploy-smoke: kvload failed" >&2
    cat "$WORK/kvload.out" >&2
    exit 1
fi
cat "$WORK/kvload.out"

echo "deploy-smoke: final cluster state:"
"$WORK/kvstore" status -nodes "$ADDR0"

# Data written through one member reads back through another.
"$WORK/kvstore" -nodes "$ADDR1" put smoke-pk ck smoke-value >/dev/null
GOT=$("$WORK/kvstore" -nodes "$ADDR3" get smoke-pk ck)
if [ "$GOT" != "smoke-value" ]; then
    echo "deploy-smoke: cross-member read returned '$GOT'" >&2
    exit 1
fi

echo "deploy-smoke: OK — 4-member ring, zero failed ops under a live join"
