#!/usr/bin/env bash
# Record one bench-smoke run in the bench history, one compact JSON line
# per run.
#
#   ./ci/append_bench_history.sh <commit> <BENCH.json> [HISTORY.jsonl]
#
# BENCH.json is the flat map ci/bench_to_json.sh writes (the committed
# BENCH_baseline.json has the same format). The line holds `commit`,
# `measurement_ms` and `benchmarks` (name -> ns per iteration). It is
# printed, then appended to HISTORY.jsonl (default BENCH_history.jsonl);
# pass /dev/null to print it only. Paths are relative to the repository
# root. The history is append-only: the regression gate still compares
# against BENCH_baseline.json, and this file records how the numbers
# moved from one commit to the next.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 <commit> <BENCH.json> [HISTORY.jsonl]" >&2
    exit 2
fi
COMMIT="$1"
BENCH="$2"
HISTORY="${3:-BENCH_history.jsonl}"

case "$COMMIT" in
    '' | *[!0-9A-Za-z._-]*)
        echo "append_bench_history: commit must be a hash or tag, got '$COMMIT'" >&2
        exit 1
        ;;
esac
if [ ! -f "$BENCH" ]; then
    echo "append_bench_history: missing $BENCH" >&2
    exit 1
fi

line=$(awk -v commit="$COMMIT" '
# Input lines look like:
#   "measurement_ms": 120,
#   "group/id/param": 1234.5,
/"measurement_ms"/ {
    match($0, /[0-9]+/)
    ms = substr($0, RSTART, RLENGTH)
    next
}
match($0, /"[^"]+": [0-9.]+/) {
    entry = substr($0, RSTART, RLENGTH)
    sub(/": /, "\":", entry)
    body = body (n++ ? "," : "") entry
}
END {
    if (ms == "" || n == 0) {
        print "append_bench_history: no measurement_ms or no benchmarks in input" > "/dev/stderr"
        exit 1
    }
    printf "{\"commit\":\"%s\",\"measurement_ms\":%s,\"benchmarks\":{%s}}\n", commit, ms, body
}' "$BENCH")

printf '%s\n' "$line"
printf '%s\n' "$line" >> "$HISTORY"
