//! The `METRICS` text exposition — the server's one counter report — and
//! the decoder [`crate::client::Client::stats`] reads it back with.
//!
//! The server registry's own instruments (op counters, latency
//! histograms, the slow-query total) render straight from their atomics;
//! the rest of the document — index access counters, WAL activity,
//! planner/result-cache counters, est-vs-actual cost drift, replication
//! position, and trace-ring health — is read from the backend, the result
//! cache and the replication state at render time. Nothing resets any of
//! it, so every `_total` series is monotone, and the difference of two
//! readings is the activity between them.

use crate::metrics::{Registry, OPS};
use crate::protocol::{ProtoError, Response};
use crate::repl::ReplState;
use crate::server::Backend;
use simobs::metrics::labeled;
use simobs::Exposition;
use simquery::index::AccessCounters;
use simquery::prelude::*;
use std::collections::HashMap;

/// Completed requests per op (label `op`).
pub(crate) const OP_TOTAL: &str = "simseq_op_total";
/// Requests per op that answered `ERR`.
pub(crate) const OP_ERRORS: &str = "simseq_op_errors_total";
/// Per-op latency histogram, µs.
pub(crate) const OP_LATENCY: &str = "simseq_op_latency_us";
/// Requests refused by admission control.
pub(crate) const BUSY_REJECTED: &str = "simseq_busy_rejected_total";

/// One op's counts and latency summary, as [`decode`] reads them.
#[derive(Clone, Debug, PartialEq)]
pub struct OpStatLine {
    /// Operation name (`query`, `knn`, …).
    pub op: String,
    /// Completed requests.
    pub count: u64,
    /// Requests that returned `ERR`.
    pub errors: u64,
    /// Latency percentiles in microseconds (upper bucket bounds).
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Maximum observed.
    pub max_us: u64,
}

/// Planner and result-cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStatLine {
    /// Physical plans built since server start.
    pub built: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses (including cache-disabled lookups).
    pub cache_misses: u64,
    /// Result-cache LRU evictions.
    pub cache_evictions: u64,
    /// Entries currently resident in the result cache.
    pub cache_entries: u64,
    /// Executions dispatched to the MT-index engine.
    pub mt: u64,
    /// Executions dispatched to the ST-index engine.
    pub st: u64,
    /// Executions dispatched to the sequential scan.
    pub scan: u64,
}

/// The part of one `METRICS` reading a load driver needs, typed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsReport {
    /// One line per operation with non-zero traffic, in [`OPS`] order.
    pub ops: Vec<OpStatLine>,
    /// Requests rejected by admission control since start.
    pub busy_rejected: u64,
    /// Planner/result-cache counters (always present from this server).
    pub plan: Option<PlanStatLine>,
}

/// Renders the full exposition for one `METRICS` request.
pub(crate) fn render(
    backend: &Backend,
    metrics: &Registry,
    cache: &PlanCache,
    repl: &ReplState,
) -> Response {
    let mut exp = Exposition::new();
    metrics.render_into(&mut exp);

    // Index access counters: on a shard directory each shard's first,
    // then the totals, summed from the same reading so they always equal
    // the shard series.
    let per_shard = backend.per_shard_counters();
    let mut index_counters = |labels: &[(&str, &str)], c: AccessCounters| {
        exp.counter("simseq_index_node_reads_total", labels, c.node_reads);
        exp.counter(
            "simseq_index_record_page_reads_total",
            labels,
            c.record_page_reads,
        );
        exp.counter(
            "simseq_index_record_fetches_total",
            labels,
            c.record_fetches,
        );
    };
    if backend.sharding().is_some() {
        for (id, c) in per_shard.iter().enumerate() {
            index_counters(&[("shard", id.to_string().as_str())], *c);
        }
    }
    index_counters(&[], per_shard.into_iter().sum());

    // WAL activity (absent without --wal).
    if let Some(w) = backend.wal_stats() {
        exp.counter("simseq_wal_appends_total", &[], w.appends);
        exp.counter("simseq_wal_fsyncs_total", &[], w.fsyncs);
        exp.counter("simseq_wal_replayed_total", &[], w.replayed);
        exp.gauge(
            "simseq_wal_epoch",
            &[],
            backend.wal_epoch().unwrap_or(0) as f64,
        );
    }

    // Planner dispatch and result-cache counters.
    let snap = backend.stats().snapshot();
    let cc = cache.counters();
    exp.counter("simseq_plans_built_total", &[], snap.plans_built);
    for (engine, n) in [
        ("mt", snap.dispatch_mt),
        ("st", snap.dispatch_st),
        ("scan", snap.dispatch_scan),
    ] {
        exp.counter("simseq_plan_dispatch_total", &[("engine", engine)], n);
    }
    exp.counter("simseq_result_cache_hits_total", &[], cc.hits);
    exp.counter("simseq_result_cache_misses_total", &[], cc.misses);
    exp.counter("simseq_result_cache_evictions_total", &[], cc.evictions);
    exp.gauge("simseq_result_cache_entries", &[], cc.entries as f64);

    // Est-vs-actual cost drift per (family, engine): measured work over
    // the planner's Eq. 18–20 estimate — 1.0 means the model was exact
    // on average; rows without a recorded estimate are omitted rather
    // than rendered as a fake zero.
    for row in backend.stats().drift_report() {
        let labels = [("family", row.family.as_str()), ("engine", row.engine)];
        exp.counter("simseq_cost_drift_queries_total", &labels, row.queries);
        if let Some(r) = row.pages_ratio() {
            exp.gauge("simseq_cost_drift_pages", &labels, r);
        }
        if let Some(r) = row.comparisons_ratio() {
            exp.gauge("simseq_cost_drift_comparisons", &labels, r);
        }
    }

    // Failover/role view: primary=1 follower=0, the fencing state of the
    // local timeline, and how many promotions this process has served.
    exp.gauge(
        "simseq_role",
        &[],
        if repl.is_follower() { 0.0 } else { 1.0 },
    );
    exp.counter("simseq_promotions_total", &[], repl.promotions());
    exp.gauge("simseq_fence_epoch", &[], backend.fence() as f64);
    exp.gauge(
        "simseq_fenced",
        &[],
        if backend.is_fenced() { 1.0 } else { 0.0 },
    );
    repl.render_into(backend, &mut exp);

    // Trace-ring health: spans kept vs dropped under contention, and the
    // active 1-in-k root sampling rate.
    let tracer = simobs::trace::global();
    exp.counter("simseq_trace_recorded_total", &[], tracer.recorded());
    exp.counter("simseq_trace_dropped_total", &[], tracer.dropped());
    exp.gauge("simseq_trace_sample", &[], tracer.sample() as f64);

    Response::Metrics {
        lines: exp.into_lines(),
    }
}

/// Reads the op table, `busy_rejected` and the planner counters back out
/// of one `METRICS` reading. A series this server always renders that
/// the reading lacks, or a value that is not a count, is an error.
pub fn decode(lines: &[String]) -> Result<StatsReport, ProtoError> {
    let values: HashMap<&str, &str> = lines.iter().filter_map(|l| l.rsplit_once(' ')).collect();
    let get = |name: &str, labels: &[(&str, &str)]| -> Result<u64, ProtoError> {
        let series = labeled(name, labels);
        let value = values
            .get(series.as_str())
            .ok_or_else(|| ProtoError::bad(format!("METRICS lacks {series}")))?;
        value
            .parse()
            .map_err(|_| ProtoError::bad(format!("{series} = {value} is not a count")))
    };
    let mut ops = Vec::new();
    for op in OPS {
        let label = [("op", op)];
        let count = get(OP_TOTAL, &label)?;
        if count == 0 {
            continue;
        }
        let quantile = |q| get(OP_LATENCY, &[("op", op), ("quantile", q)]);
        ops.push(OpStatLine {
            op: op.to_string(),
            count,
            errors: get(OP_ERRORS, &label)?,
            p50_us: quantile("0.5")?,
            p95_us: quantile("0.95")?,
            p99_us: quantile("0.99")?,
            max_us: get(&format!("{OP_LATENCY}_max_us"), &label)?,
        });
    }
    let dispatch = |engine| get("simseq_plan_dispatch_total", &[("engine", engine)]);
    let plan = PlanStatLine {
        built: get("simseq_plans_built_total", &[])?,
        cache_hits: get("simseq_result_cache_hits_total", &[])?,
        cache_misses: get("simseq_result_cache_misses_total", &[])?,
        cache_evictions: get("simseq_result_cache_evictions_total", &[])?,
        cache_entries: get("simseq_result_cache_entries", &[])?,
        mt: dispatch("mt")?,
        st: dispatch("st")?,
        scan: dispatch("scan")?,
    };
    Ok(StatsReport {
        ops,
        busy_rejected: get(BUSY_REJECTED, &[])?,
        plan: Some(plan),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::op_index;
    use simquery::plan::{ChosenBy, PhysicalPlan, PlanOutput, QueryEpoch};
    use std::time::Duration;

    #[test]
    fn decode_returns_what_render_wrote() {
        let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 8, 32, 5);
        let backend: Backend =
            SharedIndex::new(SeqIndex::build(&corpus, IndexConfig::default()).unwrap()).into();

        // Known op traffic; `join` and every other op see none.
        let reg = Registry::new();
        for (op, us, is_err) in [
            ("query", 100, false),
            ("query", 3000, true),
            ("knn", 20, false),
        ] {
            reg.record(op_index(op), Duration::from_micros(us), is_err);
        }
        reg.record(op_index("query"), Duration::from_micros(100), false);
        for _ in 0..2 {
            reg.record_busy();
        }
        reg.record_connection();
        reg.admission_wait().record(Duration::from_micros(700));

        // Planner counters, each field a different number.
        let stats = backend.stats();
        for _ in 0..4 {
            stats.note_plan_built();
        }
        for (engine, n) in [
            (EngineChoice::Mt, 5),
            (EngineChoice::St, 6),
            (EngineChoice::Scan, 7),
        ] {
            for _ in 0..n {
                stats.note_dispatch(engine);
            }
        }
        // A two-entry cache: three puts evict one, two hits, three misses.
        let cache = PlanCache::new(2);
        let epoch = QueryEpoch::default();
        let plan = PhysicalPlan {
            engine: EngineChoice::Scan,
            mbrs: Vec::new(),
            fanout: 1,
            threads: 1,
            est_nodes: 0.0,
            est_pages: 0.0,
            est_comparisons: 0.0,
            est_cost: 0.0,
            chosen_by: ChosenBy::OnlyOption,
        };
        for fp in 1..=3 {
            let out = PlanOutput::Knn(Vec::new(), EngineMetrics::default());
            cache.put(fp, epoch, plan.clone(), out);
        }
        for fp in [3, 3, 7, 8, 9] {
            cache.get(fp, epoch);
        }

        let Response::Metrics { lines } = render(&backend, &reg, &cache, &ReplState::primary())
        else {
            panic!("METRICS renders an exposition");
        };
        for line in [
            "simseq_op_total{op=\"join\"} 0",
            "simseq_connections_total 1",
            "simseq_admission_wait_us_count 1",
            "simseq_admission_wait_us_max_us 700",
            "simseq_slow_queries_total 0",
        ] {
            assert!(lines.iter().any(|l| l == line), "{line} in {lines:#?}");
        }
        let op = |op: &str, count, errors, p50_us, p95_us, max_us| OpStatLine {
            op: op.into(),
            count,
            errors,
            p50_us,
            p95_us,
            p99_us: p95_us,
            max_us,
        };
        let want = StatsReport {
            ops: vec![
                op("query", 3, 1, 127, 4095, 3000),
                op("knn", 1, 0, 31, 31, 20),
            ],
            busy_rejected: 2,
            plan: Some(PlanStatLine {
                built: 4,
                cache_hits: 2,
                cache_misses: 3,
                cache_evictions: 1,
                cache_entries: 2,
                mt: 5,
                st: 6,
                scan: 7,
            }),
        };
        assert_eq!(decode(&lines).unwrap(), want);

        // A reading without the planner series is not this server's.
        let partial: Vec<String> = lines
            .into_iter()
            .filter(|l| !l.starts_with("simseq_plans_built_total"))
            .collect();
        let e = decode(&partial).unwrap_err();
        assert!(e.to_string().contains("simseq_plans_built_total"), "{e}");
    }
}
