//! The fixed metric names: what each is measured in, which way is
//! better, and how much worse an end-to-end metric may get before the
//! change counts as a regression. `BENCHMARK.json` repeats the first and
//! last groups; `tests/smoke.rs` fails when the two disagree.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Reported by every workload with `--trace 0`; gated by the driver.
    EndToEnd,
    /// End-to-end, but not in the list the driver gates: only some
    /// workloads have it (writes, a 1000-sample tail), or it does not
    /// repeat within any bound the contract allows (`lat_p95_ms`, and
    /// the figures not corrected for the state of the host).
    /// Printed, kept in `--all` result files, and judged by `--check`.
    Extra,
    /// Reported by every workload with `--trace 1`; no bound.
    PerLayer,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
    pub scope: Scope,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        scope: Scope::EndToEnd,
    }
}

const fn extra(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        scope: Scope::Extra,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        scope: Scope::PerLayer,
    }
}

use Better::{Higher, Lower};

pub const METRICS: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("lat_p50_ms", "ms", Lower, 0.25),
    e2e("space_amp", "ratio", Lower, 0.02),
    e2e("peak_rss_mb", "MiB", Lower, 0.20),
    extra("host_slowdown", "ratio", Lower, 0.25),
    extra("raw_ops_per_s", "1/s", Higher, 0.25),
    extra("raw_lat_p50_ms", "ms", Lower, 0.25),
    extra("lat_p95_ms", "ms", Lower, 0.25),
    extra("lat_p99_ms", "ms", Lower, 0.25),
    extra("write_p50_ms", "ms", Lower, 0.25),
    extra("write_p95_ms", "ms", Lower, 0.25),
    extra("checkpoint_stall_ms", "ms", Lower, 0.25),
    layer("core.index.prepare_query_us", "us", Lower),
    layer("core.plan.plan_us", "us", Lower),
    layer("core.plan.execute_ms", "ms", Lower),
    layer("core.plan.auto_regret", "ratio", Lower),
    layer("core.plan.cache_hit_rate", "ratio", Higher),
    layer("core.plan.cost_drift", "ratio", Lower),
    layer("rstartree.search_ms", "ms", Lower),
    layer("rstartree.node_reads_per_op", "count", Lower),
    layer("rstartree.leaf_reads_per_op", "count", Lower),
    layer("rstartree.nearest_ms", "ms", Lower),
    layer("core.engine.fetch_verify_ms", "ms", Lower),
    layer("core.engine.candidates_per_op", "count", Lower),
    layer("core.engine.comparisons_per_op", "count", Lower),
    layer("core.engine.matches_per_op", "count", Higher),
    layer("core.engine.record_fetches_per_op", "count", Lower),
    layer("core.engine.filter_precision", "ratio", Higher),
    layer("core.index.fetch_series_us", "us", Lower),
    layer("core.feature.extract_us", "us", Lower),
    layer("tsfft.rfft128_us", "us", Lower),
    layer("pagestore.pool_hit_rate", "ratio", Higher),
    layer("pagestore.page_reads_per_op", "count", Lower),
    layer("shard.fragment_sum_ms", "ms", Lower),
    layer("shard.fragment_max_ms", "ms", Lower),
    layer("shard.parallel_efficiency", "ratio", Higher),
    layer("shard.gather_overhead_ms", "ms", Lower),
    layer("serve.parse_us", "us", Lower),
    layer("serve.encode_us", "us", Lower),
    layer("serve.decode_us", "us", Lower),
    layer("serve.transport_queue_us", "us", Lower),
    layer("serve.busy_rate", "ratio", Lower),
    layer("wal.append_overhead_us", "us", Lower),
    layer("wal.fsyncs_per_write", "ratio", Lower),
    layer("wal.bytes_per_insert", "B", Lower),
    layer("wal.checkpoint_ms", "ms", Lower),
    layer("wal.replay_ms", "ms", Lower),
    layer("bench.lat_p95_ms", "ms", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.fail_rate", "ratio", Lower),
];

pub fn def(name: &str) -> &'static MetricDef {
    METRICS
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the table"))
}

/// One measured value, with the number of samples behind it.
pub struct Row {
    pub def: &'static MetricDef,
    pub value: f64,
    pub samples: usize,
}

#[derive(Default)]
pub struct Rows(pub Vec<Row>);

impl Rows {
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        assert!(
            self.0.iter().all(|r| r.def.name != name),
            "metric `{name}` reported twice"
        );
        self.0.push(Row {
            def: def(name),
            value,
            samples,
        });
    }
}
