#!/usr/bin/env bash
# Non-test line count of the workspace (printed by the `analyze` CI job,
# never gated on; runnable locally).
#
#   ./ci/nontest_loc.sh            # total only
#   ./ci/nontest_loc.sh --files    # per-file counts, then the total
#
# Counts every git-tracked `.rs` file under `crates/` and `src/` outside
# `tests/` directories. A file's non-test lines are the lines before its
# first `#[cfg(test)]`, or all of its lines when it has none. A file named
# `tests.rs` is a unit-test module (`#[cfg(test)] mod tests;` in its
# parent) and counts zero. This is the figure a deletion PR reports
# before and after.
set -euo pipefail
cd "$(dirname "$0")/.."

per_file=0
if [ "${1:-}" = "--files" ]; then
    per_file=1
fi

git ls-files -z -- 'crates/*.rs' 'src/*.rs' \
    | tr '\0' '\n' \
    | grep -v -e '^tests/' -e '/tests/' -e '/tests\.rs$' \
    | while IFS= read -r file; do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        printf '%s %s\n' "$n" "$file"
    done \
    | awk -v per_file="$per_file" '
        { total += $1; if (per_file) print }
        END { print "non-test lines: " total }'
