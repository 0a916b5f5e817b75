#!/usr/bin/env bash
# Run the bench-smoke set and emit a flat JSON map of benchmark -> ns/iter.
#
#   ./ci/bench_to_json.sh [OUT.json]
#
# The smoke set is the fast, stable subset of the paper-experiment benches
# (full sweeps stay manual; see crates/bench). Budget per measurement is
# CRITERION_MEASUREMENT_MS (default 120 ms), small enough for a PR gate.
# The value recorded per benchmark is the median of its batch means (the
# `batch median` field), not the overall mean: one batch that a busy host
# slowed down moves the mean but not the median. Output pairs with
# ci/check_bench_regression.sh and the committed BENCH_baseline.json.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_pr.json}"
MS="${CRITERION_MEASUREMENT_MS:-120}"
SMOKE_BENCHES=(select_view relevance_filter join_view serve_qps obs_overhead)

raw=$(for bench in "${SMOKE_BENCHES[@]}"; do
    CRITERION_MEASUREMENT_MS="$MS" cargo bench -p ivm-bench --bench "$bench" 2>/dev/null
done)

printf '%s\n' "$raw" | awk -v ms="$MS" '
BEGIN { n = 0 }
# Bench lines look like:
#   group/id/param: 13.47 µs per iter (4455 iters; batch median 13.20 µs, MAD 0.11 µs, min 12.91 µs)[, 1209999 elem/s]
/ per iter / {
    name = $1
    sub(/:$/, "", name)
    found = 0
    for (i = 3; i < NF - 1; i++)
        if ($(i - 1) == "batch" && $i == "median") {
            value = $(i + 1) + 0
            unit = $(i + 2)
            sub(/,$/, "", unit)
            found = 1
        }
    if (!found) {
        print "bench_to_json: no batch median in: " $0 > "/dev/stderr"
        bad = 1
        exit 1
    }
    mult = 1
    if (unit == "\302\265s") mult = 1e3      # µs, UTF-8
    else if (unit == "ms")   mult = 1e6
    else if (unit == "s")    mult = 1e9
    names[n] = name
    vals[n] = value * mult
    n++
}
END {
    if (bad)
        exit 1
    if (n == 0) {
        print "bench_to_json: parsed zero benchmark lines" > "/dev/stderr"
        exit 1
    }
    printf "{\n  \"measurement_ms\": %d,\n  \"benchmarks\": {\n", ms
    for (i = 0; i < n; i++)
        printf "    \"%s\": %.1f%s\n", names[i], vals[i], (i < n - 1 ? "," : "")
    printf "  }\n}\n"
    printf "bench_to_json: %d benchmarks\n", n > "/dev/stderr"
}' > "$OUT"

echo "wrote $OUT" >&2
