//! Server observability: per-operation counters and latency histograms,
//! backed by the workspace-wide [`simobs`] instruments.
//!
//! The histogram/counter code that used to live here moved to
//! `crates/obs` in PR 9; what remains is the server's *view*: an op table
//! of shared handles registered in a per-server [`MetricsRegistry`]. The
//! same atomics feed both the `STATS` report and the `METRICS` text
//! exposition, so the two can never disagree — parity is structural, and
//! the loopback metrics suite pins it op-for-op anyway.

use crate::protocol::{
    OpStatLine, PlanStatLine, ReplStatLine, ShardStatLine, StatsReport, WalStatLine,
};
use simobs::metrics::labeled;
use simobs::{Counter, Exposition, Histogram, MetricsRegistry, SlowLog};
use simquery::index::AccessCounters;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The operations the registry tracks, in reporting order.
pub const OPS: [&str; 14] = [
    "query",
    "knn",
    "join",
    "explain",
    "insert",
    "delete",
    "sync",
    "checkpoint",
    "promote",
    "info",
    "repl",
    "stats",
    "metrics",
    "trace",
];

/// Index of an op name in [`OPS`] (the last entry catches anything
/// unknown).
pub fn op_index(op: &str) -> usize {
    OPS.iter().position(|o| *o == op).unwrap_or(OPS.len() - 1)
}

struct OpHandles {
    count: Arc<Counter>,
    errors: Arc<Counter>,
    hist: Arc<Histogram>,
}

/// The server-wide metrics registry shared by all connection threads.
pub struct Registry {
    metrics: MetricsRegistry,
    ops: [OpHandles; OPS.len()],
    admission_wait: Arc<Histogram>,
    busy_rejected: Arc<Counter>,
    connections: Arc<Counter>,
    slow: SlowLog,
    /// Index counters at the previous STATS call — the delta baseline.
    baseline: Mutex<Option<AccessCounters>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry with every op instrument pre-registered.
    pub fn new() -> Self {
        let metrics = MetricsRegistry::new();
        let ops = std::array::from_fn(|i| {
            let op = [("op", OPS[i])];
            OpHandles {
                count: metrics.counter(&labeled("simseq_op_total", &op)),
                errors: metrics.counter(&labeled("simseq_op_errors_total", &op)),
                hist: metrics.histogram(&labeled("simseq_op_latency_us", &op)),
            }
        });
        let admission_wait = metrics.histogram("simseq_admission_wait_us");
        let busy_rejected = metrics.counter("simseq_busy_rejected_total");
        let connections = metrics.counter("simseq_connections_total");
        Self {
            metrics,
            ops,
            admission_wait,
            busy_rejected,
            connections,
            slow: SlowLog::new(),
            baseline: Mutex::new(None),
        }
    }

    /// Records one completed operation.
    pub fn record(&self, op: usize, latency: Duration, is_err: bool) {
        let s = &self.ops[op];
        s.count.inc();
        if is_err {
            s.errors.inc();
        }
        s.hist.record(latency);
    }

    /// Time requests spent at the admission gate before executing, or
    /// being refused (`METRICS` renders it as `simseq_admission_wait_us`;
    /// `STATS` does not carry it).
    pub fn admission_wait(&self) -> &Histogram {
        &self.admission_wait
    }

    /// Counts a request rejected by admission control.
    pub fn record_busy(&self) {
        self.busy_rejected.inc();
    }

    /// Counts an accepted connection.
    pub fn record_connection(&self) {
        self.connections.inc();
    }

    /// Requests rejected so far.
    pub fn busy_rejected(&self) -> u64 {
        self.busy_rejected.get()
    }

    /// The server's slow-query log.
    pub fn slow(&self) -> &SlowLog {
        &self.slow
    }

    /// Renders every registered instrument (op counters, histograms,
    /// connection/busy counters) into `exp` — the registry-owned half of
    /// the `METRICS` exposition.
    pub fn render_into(&self, exp: &mut Exposition) {
        self.metrics.render_into(exp);
        exp.counter("simseq_slow_queries_total", &[], self.slow.fired());
    }

    /// Builds the `STATS` payload; with `reset`, zeroes op counters and
    /// histograms afterwards. `now` is the backend's aggregate access
    /// counters (totals since server start; the delta baseline is kept
    /// here), and `shards` is the per-shard breakdown — empty for a plain
    /// index directory. `plan` carries the planner and result-cache
    /// counters (always present on current servers), and `repl` the
    /// replication view when the server is a primary with followers or a
    /// follower itself.
    pub fn report(
        &self,
        now: AccessCounters,
        shards: Vec<ShardStatLine>,
        wal: Option<WalStatLine>,
        plan: Option<PlanStatLine>,
        repl: Option<ReplStatLine>,
        reset: bool,
    ) -> StatsReport {
        let mut baseline = self.baseline.lock().unwrap_or_else(|e| e.into_inner());
        let prev = baseline.unwrap_or(AccessCounters {
            node_reads: 0,
            record_page_reads: 0,
            record_fetches: 0,
        });
        *baseline = Some(now);
        drop(baseline);

        let ops = OPS
            .iter()
            .zip(&self.ops)
            .filter(|(_, s)| s.count.get() > 0)
            .map(|(name, s)| OpStatLine {
                op: name.to_string(),
                count: s.count.get(),
                errors: s.errors.get(),
                p50_us: s.hist.quantile_us(0.50),
                p95_us: s.hist.quantile_us(0.95),
                p99_us: s.hist.quantile_us(0.99),
                max_us: s.hist.max_us(),
            })
            .collect();
        let report = StatsReport {
            ops,
            busy_rejected: self.busy_rejected.get(),
            connections: self.connections.get(),
            counters_total: (now.node_reads, now.record_page_reads, now.record_fetches),
            counters_delta: (
                now.node_reads - prev.node_reads,
                now.record_page_reads - prev.record_page_reads,
                now.record_fetches - prev.record_fetches,
            ),
            shards,
            wal,
            plan,
            repl,
        };
        if reset {
            for s in &self.ops {
                s.count.reset();
                s.errors.reset();
                s.hist.reset();
            }
            self.admission_wait.reset();
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_indices_cover_all_ops() {
        for (i, op) in OPS.iter().enumerate() {
            assert_eq!(op_index(op), i);
        }
        assert_eq!(op_index("nonsense"), OPS.len() - 1);
    }

    #[test]
    fn stats_and_exposition_read_the_same_atomics() {
        let reg = Registry::new();
        let q = op_index("query");
        for _ in 0..5 {
            reg.record(q, Duration::from_micros(100), false);
        }
        reg.record(q, Duration::from_micros(100), true);
        reg.record_connection();
        reg.admission_wait().record(Duration::from_micros(700));
        let report = reg.report(
            AccessCounters {
                node_reads: 0,
                record_page_reads: 0,
                record_fetches: 0,
            },
            Vec::new(),
            None,
            None,
            None,
            false,
        );
        let line = report.ops.iter().find(|o| o.op == "query").unwrap();
        assert_eq!(line.count, 6);
        assert_eq!(line.errors, 1);
        let mut exp = Exposition::new();
        reg.render_into(&mut exp);
        let lines = exp.into_lines();
        assert!(lines.contains(&"simseq_op_total{op=\"query\"} 6".to_string()));
        assert!(lines.contains(&"simseq_op_errors_total{op=\"query\"} 1".to_string()));
        assert!(lines.contains(&"simseq_connections_total 1".to_string()));
        assert!(lines.contains(&"simseq_admission_wait_us_count 1".to_string()));
        assert!(lines.contains(&"simseq_admission_wait_us_max_us 700".to_string()));
        assert!(lines.contains(&"simseq_slow_queries_total 0".to_string()));
    }

    #[test]
    fn reset_zeroes_ops_but_not_connections() {
        let reg = Registry::new();
        reg.record(op_index("insert"), Duration::from_micros(10), false);
        reg.record_connection();
        let zero = AccessCounters {
            node_reads: 0,
            record_page_reads: 0,
            record_fetches: 0,
        };
        reg.report(zero, Vec::new(), None, None, None, true);
        let report = reg.report(zero, Vec::new(), None, None, None, false);
        assert!(report.ops.is_empty());
        assert_eq!(report.connections, 1);
    }
}
