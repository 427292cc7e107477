#!/usr/bin/env bash
# Tracked Rust lines outside e2ebench/, per crate and in total — the
# numbers CHANGES.md quotes for a net-deletion PR. First column: every
# line (code, comments, blanks) of every `git ls-files '*.rs'` entry.
# Second column: the lines before a file's first `#[cfg(test)]` /
# `#[cfg(all(test` — its non-test source (a file with no such line
# counts whole, so integration tests, examples and `proptests.rs`
# modules gated from `lib.rs` show up here too).
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files '*.rs' | grep -v '^e2ebench/' | while read -r f; do
    case "$f" in
    crates/*) group="$(echo "$f" | cut -d/ -f1-2)" ;;
    *) group="$(dirname "$f")" ;;
    esac
    awk -v g="$group" '
        !cut && /^[[:space:]]*#\[cfg\((all\()?test/ { cut = NR - 1 }
        END { print g, NR, (cut ? cut : NR) }' "$f"
done | awk '
    { lines[$1] += $2; src[$1] += $3; total += $2; total_src += $3 }
    END {
        printf "%7s %8s\n", "lines", "non-test"
        for (g in lines) printf "%7d %8d  %s\n", lines[g], src[g], g | "sort -k3"
        close("sort -k3")
        printf "%7d %8d  total\n", total, total_src
    }'
