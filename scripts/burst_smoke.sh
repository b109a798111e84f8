#!/usr/bin/env bash
# Burst-telemetry smoke test for the wolt daemon: boot the Central
# Controller, connect one agent per user with --burst so every scan
# report is re-sent back-to-back, and require a clean converged session
# whose metrics show the coalescer actually dropped stale burst copies
# (daemon.frames_coalesced > 0).
# Used by CI (with a hard timeout and WOLT_THREADS=2) and runnable
# locally:
#
#   cargo build --release -p wolt-cli && bash scripts/burst_smoke.sh
set -euo pipefail

BIN="${BIN:-target/release/wolt}"
USERS="${USERS:-7}"
SEED="${SEED:-1}"
BURST="${BURST:-8}"
METRICS_OUT="${METRICS_OUT:-}"

WORK="$(mktemp -d)"
[ -n "$METRICS_OUT" ] || METRICS_OUT="$WORK/metrics.json"
cleanup() {
    rm -rf "$WORK"
    # shellcheck disable=SC2046
    kill $(jobs -p) 2>/dev/null || true
}
trap cleanup EXIT

# First numeric value of a named counter in a metrics JSON dump.
counter() {
    grep -o "\"$2\": [0-9]*" "$1" | head -n 1 | grep -o '[0-9]*$' || echo 0
}

"$BIN" serve --addr 127.0.0.1:0 --preset lab --users "$USERS" --seed "$SEED" \
    --addr-file "$WORK/addr" --output "$WORK/report.json" \
    --metrics-out "$METRICS_OUT" &
SERVE_PID=$!

for _ in $(seq 1 200); do
    [ -s "$WORK/addr" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "daemon exited before binding" >&2; exit 1; }
    sleep 0.05
done
[ -s "$WORK/addr" ] || { echo "daemon never published its address" >&2; exit 1; }
ADDR="$(cat "$WORK/addr")"

for i in $(seq 0 $((USERS - 1))); do
    "$BIN" agent --addr "$ADDR" --preset lab --users "$USERS" --seed "$SEED" \
        --client "$i" --name "burst-$i" --burst "$BURST" &
done

wait "$SERVE_PID"
if ! grep -q '"completed": true' "$WORK/report.json"; then
    echo "burst session did not converge:" >&2
    cat "$WORK/report.json" >&2
    exit 1
fi

# Every agent sent each report $BURST times; the coalescer (plus the
# watermark dedup behind it) must have absorbed the copies without
# disturbing the session — and must have seen at least one run to drain.
[ -s "$METRICS_OUT" ] || { echo "daemon wrote no --metrics-out dump" >&2; exit 1; }
COALESCED="$(counter "$METRICS_OUT" daemon.frames_coalesced)"
if [ "$COALESCED" -le 0 ]; then
    echo "burst run coalesced no frames (daemon.frames_coalesced = $COALESCED):" >&2
    cat "$METRICS_OUT" >&2
    exit 1
fi
for name in core.solves cc.directives daemon.frames_in; do
    v="$(counter "$METRICS_OUT" "$name")"
    if [ "$v" -le 0 ]; then
        echo "metrics dump has $name = $v (expected > 0):" >&2
        cat "$METRICS_OUT" >&2
        exit 1
    fi
done

wait
echo "burst smoke: clean converged session over $ADDR with $USERS agents" \
    "at burst=$BURST; $COALESCED stale frames coalesced"
