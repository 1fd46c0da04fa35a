#!/usr/bin/env bash
# Non-test lines per Rust source file: the lines above the first
# `#[cfg(test)]` (the whole file when it has none), with a total per
# directory. Size claims in CHANGES.md come from this table.
#
#   scripts/loc.sh [dir ...]        default: every crates/*/src
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- crates/*/src
for dir in "$@"; do
  find "$dir" -name '*.rs' | sort | while read -r file; do
    awk -v file="$file" '
      /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
      { n++ }
      END { printf "%7d  %s\n", n, file }' "$file"
  done | awk -v dir="$dir" '
    { total += $1; print }
    END { printf "%7d  %s (total, non-test)\n", total, dir }'
done
