#!/usr/bin/env bash
# Non-test lines per Rust source file: the lines above the first
# `#[cfg(test)]` that opens a `mod` on its next line (the whole file when
# none does; a `#[cfg(test)]` on any other item counts), with a total per
# directory. Size claims in CHANGES.md come from this table.
#
#   scripts/loc.sh [dir ...]        default: every crates/*/src
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- crates/*/src
for dir in "$@"; do
  find "$dir" -name '*.rs' | sort | while read -r file; do
    awk -v file="$file" '
      held && /^[[:space:]]*(pub[^[:space:]]*[[:space:]]+)?mod[[:space:]]/ { held = 0; exit }
      held { n++; held = 0 }
      /^[[:space:]]*#\[cfg\(test\)\]/ { held = 1; next }
      { n++ }
      END { printf "%7d  %s\n", n + held, file }' "$file"
  done | awk -v dir="$dir" '
    { total += $1; print }
    END { printf "%7d  %s (total, non-test)\n", total, dir }'
done
