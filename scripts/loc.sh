#!/usr/bin/env bash
# Tracked Rust lines outside e2ebench/, per crate and in total — the
# number CHANGES.md quotes for a net-deletion PR. Counts every line
# (code, comments, blanks) of every `git ls-files '*.rs'` entry.
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files '*.rs' | grep -v '^e2ebench/' | while read -r f; do
    case "$f" in
    crates/*) group="$(echo "$f" | cut -d/ -f1-2)" ;;
    *) group="$(dirname "$f")" ;;
    esac
    printf '%s %s\n' "$group" "$(wc -l <"$f")"
done | awk '
    { lines[$1] += $2; total += $2 }
    END {
        for (g in lines) printf "%7d  %s\n", lines[g], g | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
    }'
