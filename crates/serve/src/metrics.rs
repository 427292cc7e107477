//! Server observability: per-operation counters and latency histograms,
//! backed by the workspace-wide [`simobs`] instruments.
//!
//! The server's view of them is an op table of shared handles registered
//! in a per-server [`MetricsRegistry`]. `METRICS` renders those atomics
//! (see [`crate::expose`]); they only ever count up, so a `_total` series
//! never runs backwards.

use crate::expose::{BUSY_REJECTED, OP_ERRORS, OP_LATENCY, OP_TOTAL};
use simobs::metrics::labeled;
use simobs::{Counter, Exposition, Histogram, MetricsRegistry, SlowLog};
use std::sync::Arc;
use std::time::Duration;

/// The operations the registry tracks, in reporting order.
pub const OPS: [&str; 13] = [
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
                count: metrics.counter(&labeled(OP_TOTAL, &op)),
                errors: metrics.counter(&labeled(OP_ERRORS, &op)),
                hist: metrics.histogram(&labeled(OP_LATENCY, &op)),
            }
        });
        let admission_wait = metrics.histogram("simseq_admission_wait_us");
        let busy_rejected = metrics.counter(BUSY_REJECTED);
        let connections = metrics.counter("simseq_connections_total");
        Self {
            metrics,
            ops,
            admission_wait,
            busy_rejected,
            connections,
            slow: SlowLog::new(),
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
    /// being refused (`METRICS` renders it as `simseq_admission_wait_us`).
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
}
