#!/usr/bin/env bash
# End-to-end smoke of the serving layer on loopback.
#
#   ./ci/serve_smoke.sh [OBS_JSONL]
#
# Starts `ivm-serve serve` with the demo scenario and a JSON-lines
# metrics sink, drives it with the closed-loop load generator
# (8 clients, 90% reads, SERVE_SMOKE_SECS seconds, default 5), shuts
# the server down over the wire, and then gates:
#
#   FAIL  any load-generator operation error (the binary exits nonzero)
#   FAIL  any serve.protocol_errors event in the metrics JSONL
#   FAIL  server did not exit cleanly after Shutdown
#   WARN  throughput below SERVE_SMOKE_MIN_QPS (default 10000) —
#         warn-only: shared-runner timings are too noisy to hard-fail
#
# The JSONL file is left behind for CI artifact upload.
set -euo pipefail
cd "$(dirname "$0")/.."

OBS_JSONL="${1:-serve_obs.jsonl}"
SECS="${SERVE_SMOKE_SECS:-5}"
MIN_QPS="${SERVE_SMOKE_MIN_QPS:-10000}"
SERVER_LOG=$(mktemp)
LOAD_LOG=$(mktemp)
SERVER_PID=

cleanup() {
    if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill "$SERVER_PID" 2>/dev/null || true
    fi
    rm -f "$SERVER_LOG" "$LOAD_LOG"
}
trap cleanup EXIT

cargo build --release -p ivm-serve --bin ivm-serve
BIN=target/release/ivm-serve

rm -f "$OBS_JSONL"
# Port 0: the kernel picks a free port; the server prints the bound addr.
"$BIN" serve --addr 127.0.0.1:0 --obs-jsonl "$OBS_JSONL" >"$SERVER_LOG" 2>&1 &
SERVER_PID=$!

ADDR=
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^ivm-serve listening on //p' "$SERVER_LOG")
    [ -n "$ADDR" ] && break
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "serve_smoke: server exited before binding" >&2
        cat "$SERVER_LOG" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "serve_smoke: server never reported its address" >&2
    cat "$SERVER_LOG" >&2
    exit 1
fi
echo "serve_smoke: server up at $ADDR (pid $SERVER_PID)"

# The load binary exits nonzero if any operation returned an error, and
# --shutdown-after sends the Shutdown command once the run completes.
"$BIN" load --addr "$ADDR" --clients 8 --read-pct 90 --secs "$SECS" \
    --shutdown-after | tee "$LOAD_LOG"

# Graceful shutdown must complete promptly — a hang here means session
# or session threads failed to join.
for _ in $(seq 1 100); do
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "serve_smoke: server still running after Shutdown" >&2
    exit 1
fi
wait "$SERVER_PID" || {
    echo "serve_smoke: server exited nonzero" >&2
    cat "$SERVER_LOG" >&2
    exit 1
}
SERVER_PID=

if [ ! -s "$OBS_JSONL" ]; then
    echo "serve_smoke: metrics JSONL $OBS_JSONL is missing or empty" >&2
    exit 1
fi
if grep -q 'serve\.protocol_errors' "$OBS_JSONL"; then
    echo "serve_smoke: protocol errors recorded during the run:" >&2
    grep 'serve\.protocol_errors' "$OBS_JSONL" >&2
    exit 1
fi

QPS=$(sed -n 's/^load report: qps=\([0-9]*\).*/\1/p' "$LOAD_LOG")
if [ -z "$QPS" ]; then
    echo "serve_smoke: could not parse qps from load report" >&2
    exit 1
fi
if [ "$QPS" -lt "$MIN_QPS" ]; then
    echo "::warning title=serve throughput::serve_smoke measured ${QPS} QPS, below the ${MIN_QPS} QPS target (warn-only)"
else
    echo "serve_smoke: ${QPS} QPS (target ${MIN_QPS})"
fi

echo "serve_smoke: OK ($(wc -l < "$OBS_JSONL") metric events in $OBS_JSONL)"
