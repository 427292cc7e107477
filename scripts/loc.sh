#!/usr/bin/env bash
# Tracked Rust lines outside e2ebench/, per crate and in total — the
# numbers CHANGES.md quotes for a net-deletion change. Columns:
#   lines    every line (code, comments, blanks) of every
#            `git ls-files '*.rs'` entry;
#   library  the lines of `crates/*/src` before a file's first
#            `#[cfg(test)]` / `#[cfg(all(test` (a file with no such line
#            counts whole), `src/bin/` and `proptests.rs` left out — the
#            figure a "net-negative" claim is judged on;
#   bins     the same cut of `crates/*/src/bin/`;
#   tests    the rest: `crates/*/tests/`, `tests/`, `examples/`, every
#            `proptests.rs`, and the test modules at the end of source
#            files.
# The three right-hand columns add up to the first.
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files '*.rs' | grep -v '^e2ebench/' | while read -r f; do
    case "$f" in
    crates/*) group="$(echo "$f" | cut -d/ -f1-2)" ;;
    *) group="$(dirname "$f")" ;;
    esac
    case "$f" in
    crates/*/tests/* | tests/* | examples/* | */proptests.rs) kind=test ;;
    crates/*/src/bin/*) kind=bin ;;
    *) kind=lib ;;
    esac
    awk -v g="$group" -v k="$kind" '
        !cut && /^[[:space:]]*#\[cfg\((all\()?test/ { cut = NR - 1 }
        END { print g, k, NR, (k == "test" ? 0 : (cut ? cut : NR)) }' "$f"
done | awk '
    {
        lines[$1] += $3
        if ($2 == "bin") bins[$1] += $4; else lib[$1] += $4
        tests[$1] += $3 - $4
    }
    END {
        printf "%7s %8s %6s %6s\n", "lines", "library", "bins", "tests"
        for (g in lines) {
            printf "%7d %8d %6d %6d  %s\n", lines[g], lib[g], bins[g], tests[g], g | "sort -k5"
            t_lines += lines[g]; t_lib += lib[g]; t_bins += bins[g]; t_tests += tests[g]
        }
        close("sort -k5")
        printf "%7d %8d %6d %6d  total\n", t_lines, t_lib, t_bins, t_tests
    }'
