//! Metrics-exactness suite: the `METRICS` exposition must agree with the
//! `STATS` report op-for-op (same atomics, same numbers), the slow-query
//! log must fire on exactly the configured threshold semantics on either
//! backend layout, and the trace ring must stay bounded and drainable
//! under load.
//!
//! The tracer is process-global (`simobs::trace::global()`), so every
//! test here serialises on one mutex — otherwise a server started by one
//! test would retune the sampling rate under another.

use simquery::prelude::*;
use simserve::client::Client;
use simserve::protocol::{EngineKind, QueryParams, Request, WireThreshold};
use simserve::server::{serve, Backend, ServerConfig, ServerHandle};
use simshard::{ShardConfig, ShardedIndex};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serialises the tests in this binary (shared global tracer).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn corpus() -> Corpus {
    Corpus::generate(CorpusKind::SyntheticWalks, 60, 64, 43)
}

fn config(cfg_tweak: impl FnOnce(&mut ServerConfig)) -> ServerConfig {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
        max_conns: 16,
        result_cache: 32,
        ..ServerConfig::default()
    };
    cfg_tweak(&mut cfg);
    cfg
}

fn start(cfg_tweak: impl FnOnce(&mut ServerConfig)) -> (SharedIndex, ServerHandle) {
    let index = SeqIndex::build(&corpus(), IndexConfig::default()).unwrap();
    let shared = SharedIndex::new(index);
    let handle = serve(shared.clone(), &config(cfg_tweak)).unwrap();
    (shared, handle)
}

fn query_params(ord: usize) -> QueryParams {
    QueryParams {
        ord,
        ma: (4, 10),
        threshold: WireThreshold::Rho(0.95),
        engine: EngineKind::Auto,
        limit: 0,
    }
}

/// Value of the exposition line whose full name (labels included) is
/// `name`; panics with context when absent.
fn metric(lines: &[String], name: &str) -> u64 {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("exposition missing {name}: {lines:#?}"))
        .parse()
        .unwrap_or_else(|e| panic!("{name} not an integer: {e}"))
}

#[test]
fn metrics_and_stats_agree_op_for_op() {
    let _guard = serial();
    let (_shared, handle) = start(|_| {});
    let mut client = Client::connect(handle.addr).unwrap();

    // A workload touching several ops, a cache hit, one error, and every
    // physical engine (so the drift report has an mt/st/scan row each).
    for ord in 0..8 {
        client.query(query_params(ord)).unwrap().unwrap();
    }
    for engine in [EngineKind::Mt, EngineKind::St, EngineKind::Scan] {
        client
            .query(QueryParams {
                engine,
                ..query_params(20)
            })
            .unwrap()
            .unwrap();
    }
    client.query(query_params(0)).unwrap().unwrap(); // cache hit
    client.knn(3, 4, (4, 10)).unwrap().unwrap();
    client.info().unwrap().unwrap();
    client.query(query_params(9999)).unwrap().unwrap_err(); // RANGE error

    // STATS first, METRICS immediately after: an op is recorded once its
    // response is built, so the exposition additionally sees the STATS
    // call itself but not the in-flight METRICS call.
    let stats = client.stats(false).unwrap().unwrap();
    let lines = client.metrics().unwrap().unwrap();

    for op in &stats.ops {
        let label = format!("{{op=\"{}\"}}", op.op);
        assert_eq!(
            metric(&lines, &format!("simseq_op_total{label}")),
            op.count,
            "count parity for {}",
            op.op
        );
        assert_eq!(
            metric(&lines, &format!("simseq_op_errors_total{label}")),
            op.errors,
            "error parity for {}",
            op.op
        );
        // Latency summaries read the same histogram buckets.
        for (q, v) in [("0.5", op.p50_us), ("0.95", op.p95_us), ("0.99", op.p99_us)] {
            let name = format!("simseq_op_latency_us{{op=\"{}\",quantile=\"{q}\"}}", op.op);
            assert_eq!(metric(&lines, &name), v, "latency parity for {name}");
        }
        assert_eq!(
            metric(&lines, &format!("simseq_op_latency_us_count{label}")),
            op.count
        );
        assert_eq!(
            metric(&lines, &format!("simseq_op_latency_us_max_us{label}")),
            op.max_us
        );
    }
    let query = stats.ops.iter().find(|o| o.op == "query").unwrap();
    assert_eq!(query.count, 13, "11 misses + 1 hit + 1 error");
    assert_eq!(query.errors, 1);
    assert_eq!(metric(&lines, "simseq_op_total{op=\"stats\"}"), 1);
    assert_eq!(
        metric(&lines, "simseq_op_total{op=\"metrics\"}"),
        0,
        "the in-flight METRICS op is not yet recorded"
    );

    // Gauges and counters outside the op table.
    assert_eq!(
        metric(&lines, "simseq_connections_total"),
        stats.connections
    );
    assert_eq!(
        metric(&lines, "simseq_busy_rejected_total"),
        stats.busy_rejected
    );
    assert_eq!(
        metric(&lines, "simseq_index_node_reads_total"),
        stats.counters_total.0
    );
    assert_eq!(
        metric(&lines, "simseq_index_record_page_reads_total"),
        stats.counters_total.1
    );
    assert_eq!(
        metric(&lines, "simseq_index_record_fetches_total"),
        stats.counters_total.2
    );

    // Planner and result-cache counters mirror the PLAN stat line.
    let plan = stats.plan.expect("PLAN line present");
    assert_eq!(metric(&lines, "simseq_plans_built_total"), plan.built);
    assert_eq!(
        metric(&lines, "simseq_result_cache_hits_total"),
        plan.cache_hits
    );
    assert_eq!(
        metric(&lines, "simseq_result_cache_misses_total"),
        plan.cache_misses
    );
    assert_eq!(
        metric(&lines, "simseq_result_cache_entries"),
        plan.cache_entries
    );
    assert_eq!(
        metric(&lines, "simseq_plan_dispatch_total{engine=\"mt\"}"),
        plan.mt
    );
    assert!(plan.cache_hits >= 1 && plan.cache_entries >= 1, "{plan:?}");

    // Est-vs-actual drift gauges are populated for every engine that ran.
    for engine in ["mt", "st", "scan"] {
        let tag = format!("engine=\"{engine}\"");
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("simseq_cost_drift_queries_total{") && l.contains(&tag)),
            "drift row for {engine}: {lines:#?}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("simseq_cost_drift_comparisons{") && l.contains(&tag)),
            "comparisons drift gauge for {engine}"
        );
    }
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("simseq_cost_drift_pages{")),
        "pages drift gauge present"
    );

    client.quit().unwrap();
    handle.shutdown();
}

/// Sends two range misses, a hit and a kNN miss to `handle`, shuts it
/// down, and returns its `simseq_slow_queries_total`.
fn slow_after_three_misses_and_a_hit(handle: ServerHandle) -> u64 {
    let mut client = Client::connect(handle.addr).unwrap();
    client.query(query_params(0)).unwrap().unwrap(); // miss
    client.query(query_params(0)).unwrap().unwrap(); // hit
    client.query(query_params(1)).unwrap().unwrap(); // miss
    client.knn(2, 3, (4, 10)).unwrap().unwrap(); // miss
    let lines = client.metrics().unwrap().unwrap();
    client.quit().unwrap();
    handle.shutdown();
    metric(&lines, "simseq_slow_queries_total")
}

#[test]
fn slow_query_log_fires_on_threshold_and_skips_cache_hits() {
    let _guard = serial();

    // Threshold left at the default (off): nothing ever fires.
    let (_s, quiet) = start(|_| {});
    assert_eq!(slow_after_three_misses_and_a_hit(quiet), 0);

    // Threshold 0 µs: `total_us >= threshold` holds for every timed
    // query, so the log fires exactly once per cache miss, kNN included —
    // and never on a cache hit, which skips the execution path entirely.
    let (_s, noisy) = start(|cfg| cfg.slow_query_us = 0);
    assert_eq!(slow_after_three_misses_and_a_hit(noisy), 3);
}

/// The count comes from the server's request path, not from the layout:
/// a shard group fires once per cache miss exactly like a single index.
#[test]
fn sharded_backend_counts_slow_misses_like_a_single_one() {
    let _guard = serial();
    let (_s, single) = start(|cfg| cfg.slow_query_us = 0);
    let sharded = ShardedIndex::build(
        &corpus(),
        ShardConfig::new(3).unwrap(),
        IndexConfig::default(),
    )
    .unwrap();
    let sharded = serve(Backend::from(sharded), &config(|cfg| cfg.slow_query_us = 0)).unwrap();
    assert_eq!(
        (
            slow_after_three_misses_and_a_hit(single),
            slow_after_three_misses_and_a_hit(sharded)
        ),
        (3, 3)
    );
}

#[test]
fn trace_ring_is_bounded_and_drains_oldest_first() {
    let _guard = serial();
    let (_shared, handle) = start(|cfg| cfg.trace_sample = 1);
    let mut client = Client::connect(handle.addr).unwrap();

    // Clear anything left in the process-global ring by earlier tests.
    client.call(&Request::Trace { n: usize::MAX }).unwrap();

    // Every root is sampled: each query records at least its plan/execute
    // spans.
    for ord in 0..10 {
        client.query(query_params(ord)).unwrap().unwrap();
    }
    let head = client.trace(4).unwrap().unwrap();
    assert_eq!(head.len(), 4, "TRACE n caps the drain");
    assert!(
        head.windows(2).all(|w| w[0].seq < w[1].seq),
        "oldest first: {head:?}"
    );
    let known = [
        "plan.build",
        "plan.execute",
        "shard.scatter",
        "shard.fragment",
        "shard.gather",
        "shard.knn",
        "wal.append",
        "wal.fsync",
        "repl.feed",
        "repl.apply",
    ];
    for ev in &head {
        assert!(known.contains(&ev.name.as_str()), "unknown span {ev:?}");
    }

    // Hammer the global tracer well past the ring capacity from several
    // threads: pushes must never block, and the drain stays bounded.
    let threads: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(|| {
                for _ in 0..2_000 {
                    let _span = simobs::trace::span("plan.build");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let drained = client.trace(usize::MAX).unwrap().unwrap();
    assert!(
        drained.len() <= 4096,
        "ring bounded at RING_CAP, got {}",
        drained.len()
    );
    assert!(!drained.is_empty(), "spans were recorded");

    // Draining consumes: a second drain with no traffic in between finds
    // (at most) the spans of the TRACE ops themselves.
    let again = client.trace(usize::MAX).unwrap().unwrap();
    assert!(again.len() < drained.len(), "drain consumed the ring");

    // Dropped-vs-recorded health counters are visible in the exposition.
    let lines = client.metrics().unwrap().unwrap();
    assert!(metric(&lines, "simseq_trace_recorded_total") > 0);
    assert_eq!(metric(&lines, "simseq_trace_sample"), 1);

    client.quit().unwrap();
    handle.shutdown();
}
