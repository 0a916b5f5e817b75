#!/usr/bin/env bash
# Workspace static analysis gate (the `analyze` CI job; runnable locally).
#
#   ./ci/analyze.sh
#
# Four stages:
#   1. build the `ivm-lint` binary (release — the scan itself is timed);
#   2. self-test: the seeded regression fixture under
#      crates/lint/fixtures/regression MUST fail the scan, proving the
#      gate can actually catch violations;
#   3. scan the real workspace against the committed lint-baseline.toml
#      and concurrency-catalog.toml — grandfathered findings pass,
#      anything new fails;
#   4. model-check the serve protocol with `ivm-race`: the clean model
#      must verify with all 704 of its interleavings, and the seeded
#      lost-wakeup foil must be caught with a replayable deadlock.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build ivm-lint =="
cargo build --release -q -p ivm-lint
LINT=target/release/ivm-lint

echo "== self-test: seeded regression fixture must fail =="
if "$LINT" --root crates/lint/fixtures/regression --no-baseline --quiet; then
    echo "ERROR: the seeded regression fixture scanned clean — the lint gate is broken" >&2
    exit 1
fi
echo "ok: fixture violations detected"

echo "== workspace scan =="
start_ns=$(date +%s%N)
"$LINT" --root .
elapsed_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
echo "scan wall time: ${elapsed_ms} ms"
# The scan must stay interactive-fast (the PR's acceptance bar is 5 s);
# the budget guards against accidentally quadratic rules.
if [ "$elapsed_ms" -gt 5000 ]; then
    echo "ERROR: workspace scan took ${elapsed_ms} ms (> 5000 ms budget)" >&2
    exit 1
fi

echo "== model-check protocols (ivm-race) =="
cargo build --release -q -p ivm-race
start_ns=$(date +%s%N)
target/release/ivm-race
elapsed_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
echo "model-check wall time: ${elapsed_ms} ms"
# The exhaustive sweep (one clean model, one foil) finishes in milliseconds;
# the budget only guards against a state-space explosion slipping into
# a model.
if [ "$elapsed_ms" -gt 60000 ]; then
    echo "ERROR: model checking took ${elapsed_ms} ms (> 60000 ms budget)" >&2
    exit 1
fi
