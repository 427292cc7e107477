#!/usr/bin/env bash
# Tier-1 verification, fully offline: release build, the whole test
# suite, and formatting. Run from anywhere inside the repo.
#
# Stages:
#   scripts/ci.sh           # tier-1: build + tests + clippy + fmt, then
#                           # compiles e2ebench/ (the default)
#   scripts/ci.sh chaos     # tier-2: seeded fault-injection suites only
#   scripts/ci.sh recovery  # tier-2: crash-point WAL recovery suites only
#   scripts/ci.sh parity    # tier-2: planner-parity grid (plan layer vs
#                           # forced engines, every backend + result cache)
#   scripts/ci.sh replication # tier-2: WAL-shipping follower suites
#                           # (loopback parity on shards {1, 4}, a
#                           # range-placed primary, crash points, faulted
#                           # apply, snapshot transfers checked)
#   scripts/ci.sh obs       # tier-2: METRICS exactness suite plus
#                           # the obs_overhead gate (default sampling
#                           # must cost <= 2% on the hot query path)
#   scripts/ci.sh failover  # tier-2: epoch-fenced promotion at every
#                           # frame boundary, FailoverClient through the
#                           # seeded ChaosProxy (fixed seed matrix
#                           # 0xC0FFEE1..3, PROMOTE on shards {1, 4}),
#                           # graceful-shutdown drain
#   scripts/ci.sh serve     # tier-2: the suites that pin admission
#                           # (workers/queue/BUSY), the shutdown drain
#                           # and METRICS over the wire, plus simserve's
#                           # unit tests (the admission gate's among them)
#   scripts/ci.sh engines   # tier-2: what pins "ST-index is MT-index over
#                           # singleton rectangles" and "one step 5" — the
#                           # engine, planner and Eq. 12 unit tests, the
#                           # figure counters against tests/golden/,
#                           # recall, ordering, extensions, the sharded
#                           # planner parity, the FFT under the kernel and
#                           # the engines under seeded faults, then the
#                           # `descent` split binary in its REPRO_FAST shape
#   scripts/ci.sh storage   # tier-2: what pins "one node store" — the page
#                           # devices under it, the R*-tree's unit,
#                           # property and doc tests on PagedStore (with
#                           # node-aligned STR slabs and axis-subset
#                           # trees), and
#                           # the subsequence index (the other tree) with
#                           # its literal counters
#   scripts/ci.sh docs      # tier-2: rustdoc of every workspace crate with
#                           # warnings as errors, so an intra-doc link to
#                           # a deleted, renamed or private item fails
#   scripts/ci.sh e2e       # tier-2: builds the benchmark (e2ebench/, a
#                           # workspace of its own that no PR may edit)
#                           # against the workspace crates and runs its
#                           # ~8 s smoke, so an API break against it is
#                           # caught here and not by the bench pipeline
#   scripts/ci.sh bench     # tier-2, ~7 min: one `e2e --all` round of the
#                           # working tree into results/bench.json, then
#                           # `e2e --check` of it against the newest
#                           # tracked baseline — the highest-numbered
#                           # BENCH_<PR>.json at the repo root (version
#                           # sort), or e2ebench/baseline/BENCH_11.json
#                           # when the root has none; prints the verdict
#                           # table, then fails only on the rows a change
#                           # is judged on — a `regressed` row of one of
#                           # BENCHMARK.json's five end-to-end metrics, or
#                           # a count that `differs` — and lists the rest
#                           # (host_slowdown, raw_*, tail and write
#                           # latencies) as advisory. One round has no
#                           # spread of its own: a
#                           # claimed gain still needs the ten alternating
#                           # pairs CHANGES.md describes, and its `--all
#                           # --runs 3` file committed as BENCH_<PR>.json
#                           # at the root — which then is the baseline
#
# The chaos stage replays the fixed seed ranges baked into tests/chaos.rs
# and crates/serve/tests/chaos_loopback.rs. Every violation panics with
# the offending seed in the message (e.g. "seed 217: mtindex returned a
# WRONG ANSWER under faults"), which this stage echoes so the failure can
# be replayed deterministically.
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"

# stage | cargo test arguments | banner (empty: runs under the previous one)
SUITES='
chaos|-p simquery --test chaos|seeded fault schedules (core engines)
chaos|-p simserve --test chaos_loopback|faulted simserved loopback
recovery|-p simshard --test recovery|crash-point WAL suite (every byte offset; a plain directory stays plain)
recovery|-p simwal|the log itself: torn tail, rewind, fsync-fault poison, hinted reads, fence persistence; the commit-file codec (simwal::Manifest): version line, repeated / missing / unparsable keys named, unknown keys ignored, a damaged MANIFEST is Corrupt
recovery|-p simquery --lib shared|the one-shard view: append poison, replicated apply and follower position, fence across restart
recovery|-p simquery --lib shard::tests|the group write gate: a failed fsync refuses the next mutation before it applies
recovery|-p simshard --lib index|the index group map: poisoned appends stay mapped, saves quiesce inserts
recovery|-p simserve --test recovery_loopback|durable simserved restart loopback, shards {1, 4}
parity|-p simshard --test plan_parity|planner-chosen vs forced engines, 1/2/4/8 shards; a group of one is plan::run
parity|-p simshard --test parity|sharded-vs-single engine suite
parity|-p simserve --test loopback|EXPLAIN + epoch-keyed result cache over the wire; a served group of one is plan::run; the per-connection lowering memo answers each shape as a fresh connection and plan::run do
replication|-p simserve --test replication_loopback|loopback convergence + read-only follower on shards {1, 4}; a range-layout primary replicates its placement and later frames apply without a Gap; a follower of another shard count is refused, and fails simserved start-up
replication|-p simserve --lib repl::|snapshot transfers checked before anything is built (stub primary); REPLICA bytes pinned, a damaged one re-bootstraps
replication|-p simserve --test replication_crash|crash at every frame boundary, both roles
replication|-p simserve --test replication_chaos|faulted follower devices during apply
obs|-p simobs|instruments and exposition, slow-query log, trace ring
obs|-p simserve --test metrics_parity|exact op/index counts, Client::stats decodes METRICS, STATS refused and every _total monotone
failover|-p simquery --lib shared|promote and fence on the index group (one shard)
failover|-p simquery --lib shard::|a fenced checkpoint refused and named in INFO
failover|-p simserve --test failover_promotion|promotion at every frame boundary + fencing
failover|-p simserve --test failover_chaos|FailoverClient through ChaosProxy (seeds 0xC0FFEE1..3), PROMOTE on shards {1, 4}
failover|-p simserve --test shutdown_drain|graceful-shutdown drain
serve|-p simserve --lib|admission gate, protocol, metrics and METRICS render/decode unit tests
serve|-p simserve --test loopback|every verb, error frames, BUSY at queue depth 0, the lowering memo across shapes, an oversize line refused with the connection kept
serve|-p simserve --test serve_load|8-connection parity, BUSY counted not fatal
serve|-p simserve --test sharded_loopback|the same wire over a shard group
serve|-p simserve --test shutdown_drain|drain answers admitted requests, times the gate
engines|-p simquery --lib|engines, planner pricing and the Eq. 12 singleton guard; damaged meta.txt fields (params, seq_len, len, heap_pages, deleted / skipped past len) are InvalidData at open, and meta.txt / sharding.txt bytes are pinned
engines|-p simquery --test figures_smoke|figure counters against tests/golden/ (Fig. 8 x = 1 is ST)
engines|-p simquery --test recall|Lemma 1 recall, ordered families, extensions
engines|-p simquery --test ordering|
engines|-p simquery --test extensions|
engines|-p simshard --test plan_parity|planner-chosen vs forced engines, 1/2/4/8 shards
engines|-p tsfft|the planned real FFT every candidate row comes from (odd lengths too)
engines|-p simquery --test chaos|every index engine, joins included, on the kernel under faults
storage|-p pagestore|page devices, buffer pool and the fault gate
storage|-p rstartree|the R*-tree on its one node store (unit, property, doc tests), STR slabs on node boundaries (bulk::tests::slabs_end_on_node_boundaries) and trees shaped on an axis subset (proptests::axis_subset_*)
storage|-p simquery --lib subseq|the subsequence index: pinned counters at trail lengths 1 and 8
storage|-p simquery --test extensions|
e2e|--manifest-path e2ebench/Cargo.toml|the benchmark builds against the workspace crates and its smoke passes
'

# Runs every SUITES row of one stage, in order. A failing suite echoes
# the seeds / cut offsets / shard ids its panic messages name (the
# suites put them there so a failure replays deterministically) and the
# command that replays it.
run_stage() {
    local stage="$1" log row_stage args banner
    log="$(mktemp)"
    trap 'rm -f "$log"' RETURN
    while IFS='|' read -r row_stage args banner; do
        [ "$row_stage" = "$stage" ] || continue
        if [ -n "$banner" ]; then
            echo "== $stage: $banner =="
        fi
        # shellcheck disable=SC2086 # $args is a list of words
        if ! cargo test --offline $args -- --nocapture </dev/null 2>&1 | tee "$log"; then
            echo
            echo "$stage: FAILED — see output above; seeds/cases it names:"
            grep -oE "(seed [0-9a-fx]+|cut [0-9]+|shard [0-9]+)[^\"]*" "$log" | sort -u | sed 's/^/  /' || true
            echo "replay: cargo test $args -- --nocapture"
            return 1
        fi
    done <<<"$SUITES"
}

# The steps 1–4 vs whole-op split of e2ebench's two index workloads
# (crates/bench/src/bin/descent.rs) on its 200 × 64 shape: it checks that
# the probe is the execution's descent, and running it here keeps it
# building.
descent_smoke() {
    echo "== engines: the descent split, REPRO_FAST shape =="
    if ! REPRO_FAST=1 cargo run --offline --release -q -p bench --bin descent; then
        echo
        echo "engines: the descent split FAILED — see output above"
        return 1
    fi
}

obs_overhead_gate() {
    echo "== obs: overhead gate (default sampling <= 2% vs off) =="
    if ! REPRO_FAST=1 cargo run --offline --release -p bench --bin obs_overhead; then
        echo
        echo "obs: benchmark FAILED — see output above"
        return 1
    fi
    local pct
    pct="$(grep -o '"default_overhead_pct_vs_off": [0-9.-]*' results/obs_overhead.json | awk '{print $2}')"
    if awk -v p="$pct" 'BEGIN { exit !(p <= 2.0) }'; then
        echo "obs: default-sampling overhead ${pct}% within the 2% budget"
    else
        echo "obs: FAILED — default-sampling overhead ${pct}% exceeds 2%"
        return 1
    fi
}

# The newest row of perf history: the highest-numbered tracked
# BENCH_<PR>.json at the repo root (e2ebench/ may not be edited, so only
# the first row lives there), else that first row.
newest_baseline() {
    local newest
    newest="$(git ls-files 'BENCH_*.json' | sort -V | tail -n 1)"
    echo "${newest:-e2ebench/baseline/BENCH_11.json}"
}

# The end-to-end metrics BENCHMARK.json gates. A `regressed` verdict on
# one of them, or a count that `differs`, fails the bench stage; every
# other verdict that is not `ok` (`host_slowdown`, `raw_*`, `lat_p95_ms`,
# `lat_p99_ms`, `write_p50_ms`, `checkpoint_stall_ms`, `unresolved`) is
# host-bound or unbounded and only printed, as advisory.
GATED_E2E='setup_s ops_per_s lat_p50_ms space_amp peak_rss_mb'

bench_against_baseline() {
    local e2e=(cargo run --offline --release --quiet --manifest-path e2ebench/Cargo.toml --bin e2e --)
    local baseline table status=0
    baseline="$(newest_baseline)"
    table="$(mktemp)"
    trap 'rm -f "$table"' RETURN
    echo "== bench: e2e --all, one round, into results/bench.json =="
    "${e2e[@]}" --all --runs 1 --out results/bench.json
    echo "== bench: against $baseline =="
    "${e2e[@]}" --check "$baseline" results/bench.json >"$table" || status=$?
    cat "$table"
    # The comparator exits 1 on any bad row, 2 when it cannot compare.
    if [ "$status" -gt 1 ]; then
        echo "bench: the comparator failed (exit $status)"
        return 1
    fi
    echo "== bench: the verdicts a change is judged on =="
    awk -v gated="$GATED_E2E" '
        BEGIN { split(gated, names, " "); for (i in names) gate[names[i]] = 1 }
        NR == 1 || $NF == "ok" || $NF == "exact" { next }
        $NF == "differs" || ($NF == "regressed" && $2 in gate) { print "  FAIL      " $0; bad++; next }
        { print "  advisory  " $0 }
        END {
            if (bad) { print "bench: " bad " gated row(s) failed"; exit 1 }
            print "bench: no gated row regressed and every count repeats"
        }' "$table"
}

case "$stage" in
chaos | recovery | parity | replication | failover | serve | storage | e2e)
    run_stage "$stage"
    ;;
engines)
    run_stage engines
    descent_smoke
    ;;
bench)
    bench_against_baseline
    ;;
obs)
    run_stage obs
    obs_overhead_gate
    ;;
docs)
    echo "== docs: cargo doc, warnings are errors =="
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
    ;;
all)
    echo "== cargo build --release =="
    cargo build --release --offline

    echo "== cargo test =="
    cargo test -q --offline

    echo "== cargo clippy =="
    cargo clippy --offline --all-targets -- -D warnings

    echo "== cargo fmt --check =="
    cargo fmt --all --check

    # An API break against the benchmark (a workspace of its own, so the
    # steps above never compile it) fails here, not in the bench pipeline.
    echo "== e2ebench builds against the workspace crates =="
    cargo test --offline --manifest-path e2ebench/Cargo.toml --no-run
    ;;
*)
    echo "usage: scripts/ci.sh [chaos|recovery|parity|replication|obs|failover|serve|engines|storage|docs|e2e|bench]" >&2
    echo "  (no argument: tier-1; bench compares against $(newest_baseline))" >&2
    exit 2
    ;;
esac
echo "ci: $stage green"
