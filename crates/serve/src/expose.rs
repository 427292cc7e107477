//! Assembles the `METRICS` text exposition.
//!
//! The server registry's own instruments (op counters, latency
//! histograms, the slow-query total) render straight from their atomics;
//! the rest of the document — index access counters, WAL activity,
//! planner/result-cache counters, est-vs-actual cost drift, replication
//! position, and trace-ring health — is sampled at render time from the
//! same sources the `STATS` request reads. Agreement between the two
//! views is therefore structural, not a matter of double bookkeeping;
//! the loopback metrics suite pins it op-for-op anyway.

use crate::metrics::Registry;
use crate::protocol::{PlanStatLine, ReplStatLine, Response, ShardStatLine, WalStatLine};
use crate::repl::ReplState;
use crate::server::Backend;
use simobs::Exposition;
use simquery::index::AccessCounters;
use simquery::prelude::*;

/// One reading of everything `STATS` and `METRICS` report about the
/// backend rather than about the server's own op table.
pub(crate) struct BackendSample {
    /// Index access totals since server start.
    pub counters: AccessCounters,
    /// Per-shard breakdown (empty on a plain index directory); sums to
    /// `counters`.
    pub shards: Vec<ShardStatLine>,
    /// WAL activity, absent without `--wal`.
    pub wal: Option<WalStatLine>,
    /// Planner dispatch and result-cache counters.
    pub plan: PlanStatLine,
    /// Replication position (primary fleet view or follower position).
    pub repl: Option<ReplStatLine>,
}

/// Samples the backend, the result cache and the replication state — the
/// one reading both `STATS` and `METRICS` render.
pub(crate) fn sample(backend: &Backend, cache: &PlanCache, repl: &ReplState) -> BackendSample {
    // One reading of the shards, so the total always equals the sum of
    // the shard lines; a plain index directory reports no breakdown.
    let per_shard = backend.per_shard_counters();
    let counters = per_shard.iter().copied().sum();
    let shards = match backend.sharding() {
        Some(_) => backend
            .shard_loads()
            .into_iter()
            .zip(per_shard)
            .enumerate()
            .map(|(id, (seqs, c))| ShardStatLine {
                id,
                seqs: seqs as u64,
                node_reads: c.node_reads,
                record_page_reads: c.record_page_reads,
                record_fetches: c.record_fetches,
            })
            .collect(),
        None => Vec::new(),
    };
    let wal = backend.wal_stats().map(|s| WalStatLine {
        appends: s.appends,
        fsyncs: s.fsyncs,
        replayed: s.replayed,
        epoch: backend.wal_epoch().unwrap_or(0),
    });
    let snap = backend.stats().snapshot();
    let cc = cache.counters();
    let plan = PlanStatLine {
        built: snap.plans_built,
        cache_hits: cc.hits,
        cache_misses: cc.misses,
        cache_evictions: cc.evictions,
        cache_entries: cc.entries,
        mt: snap.dispatch_mt,
        st: snap.dispatch_st,
        scan: snap.dispatch_scan,
    };
    BackendSample {
        counters,
        shards,
        wal,
        plan,
        repl: repl.stat_line(backend),
    }
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
    let s = sample(backend, cache, repl);

    // Index access counters — the per-shard breakdown first, then the
    // totals (which equal the sum of the shard lines, same invariant as
    // the STATS COUNTERS/SHARD split).
    let mut index_counters = |labels: &[(&str, &str)], (nodes, pages, fetches): (u64, u64, u64)| {
        exp.counter("simseq_index_node_reads_total", labels, nodes);
        exp.counter("simseq_index_record_page_reads_total", labels, pages);
        exp.counter("simseq_index_record_fetches_total", labels, fetches);
    };
    for shard in &s.shards {
        index_counters(
            &[("shard", shard.id.to_string().as_str())],
            (
                shard.node_reads,
                shard.record_page_reads,
                shard.record_fetches,
            ),
        );
    }
    let c = s.counters;
    index_counters(&[], (c.node_reads, c.record_page_reads, c.record_fetches));

    // WAL activity (absent without --wal, like the STATS WAL line).
    if let Some(w) = &s.wal {
        exp.counter("simseq_wal_appends_total", &[], w.appends);
        exp.counter("simseq_wal_fsyncs_total", &[], w.fsyncs);
        exp.counter("simseq_wal_replayed_total", &[], w.replayed);
        exp.gauge("simseq_wal_epoch", &[], w.epoch as f64);
    }

    // Planner dispatch and result-cache counters.
    exp.counter("simseq_plans_built_total", &[], s.plan.built);
    for (engine, n) in [("mt", s.plan.mt), ("st", s.plan.st), ("scan", s.plan.scan)] {
        exp.counter("simseq_plan_dispatch_total", &[("engine", engine)], n);
    }
    exp.counter("simseq_result_cache_hits_total", &[], s.plan.cache_hits);
    exp.counter("simseq_result_cache_misses_total", &[], s.plan.cache_misses);
    exp.counter(
        "simseq_result_cache_evictions_total",
        &[],
        s.plan.cache_evictions,
    );
    exp.gauge(
        "simseq_result_cache_entries",
        &[],
        s.plan.cache_entries as f64,
    );

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

    // Replication position (primary fleet view or follower position).
    if let Some(r) = &s.repl {
        let labels = [("role", r.role.as_str())];
        exp.gauge("simseq_repl_followers", &labels, r.followers as f64);
        exp.gauge("simseq_repl_acked_lsn", &labels, r.acked_lsn as f64);
        exp.gauge("simseq_repl_applied_lsn", &labels, r.applied_lsn as f64);
        exp.gauge("simseq_repl_lag", &labels, r.lag as f64);
        exp.counter("simseq_repl_bytes_total", &labels, r.bytes);
        exp.gauge("simseq_repl_epoch", &labels, r.epoch as f64);
    }

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
