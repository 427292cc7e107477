//! Named instruments and their text exposition.
//!
//! Latencies are recorded in microseconds into log₂ buckets (bucket `i`
//! holds `[2^i, 2^{i+1})` µs), so a histogram is 64 atomic counters —
//! cheap enough to update on every request from every worker without a
//! lock, and precise enough for the p50/p95/p99 the exposition reports
//! (percentiles are bucket upper bounds, i.e. ≤ 2× the true value).
//!
//! A [`MetricsRegistry`] maps fully-labelled metric names (e.g.
//! `simseq_op_total{op="query"}`) to shared instrument handles. Callers
//! keep the `Arc` handle and update it lock-free; the registry is only
//! locked at registration and render time. Rendering is Prometheus text
//! exposition: `name value` lines, lexicographically sorted, histograms
//! expanded into `{quantile=…}` summary lines plus `_count` / `_max_us`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const BUCKETS: usize = 64;

/// A monotone atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free log₂-bucketed histogram of microsecond latencies.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one latency.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        let bucket = (64 - us.leading_zeros()).saturating_sub(1) as usize; // floor(log2), 0 for 0–1 µs
        self.buckets[bucket.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (0 < q ≤ 1) as the upper bound of the bucket the
    /// quantile sample falls in; 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Upper bound of bucket i = 2^{i+1} − 1.
                return (2u64 << i) - 1;
            }
        }
        self.max_us()
    }

    /// Largest recorded value.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }
}

/// Formats `name{k1="v1",k2="v2"}`; just `name` when `labels` is empty.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", body.join(","))
}

/// Inserts `suffix` before the label block: `a{x="1"}` + `_count` →
/// `a_count{x="1"}`.
fn suffixed(name: &str, suffix: &str) -> String {
    match name.find('{') {
        Some(i) => format!("{}{}{}", &name[..i], suffix, &name[i..]),
        None => format!("{name}{suffix}"),
    }
}

/// Merges one extra label into a possibly-already-labelled name.
fn with_label(name: &str, key: &str, value: &str) -> String {
    if let Some(stripped) = name.strip_suffix('}') {
        format!("{stripped},{key}=\"{value}\"}}")
    } else {
        format!("{name}{{{key}=\"{value}\"}}")
    }
}

#[derive(Default)]
struct Instruments {
    counters: BTreeMap<String, Arc<Counter>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A registry of named instruments.
///
/// `counter` / `histogram` are get-or-register: the first call for a
/// name creates the instrument, later calls return the same handle,
/// so two subsystems naming the same metric share one atomic. Per-instance,
/// not global — a test binary runs many servers and each owns its numbers.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Instruments>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-register the counter `name` (a fully-labelled metric name).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    /// Get-or-register the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Renders every registered instrument into `out` as exposition lines.
    pub fn render_into(&self, out: &mut Exposition) {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for (name, c) in &inner.counters {
            out.raw(format!("{name} {}", c.get()));
        }
        for (name, h) in &inner.histograms {
            for (q, label) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                out.raw(format!(
                    "{} {}",
                    with_label(name, "quantile", label),
                    h.quantile_us(q)
                ));
            }
            out.raw(format!("{} {}", suffixed(name, "_count"), h.count()));
            out.raw(format!("{} {}", suffixed(name, "_max_us"), h.max_us()));
        }
    }
}

impl Histogram {
    /// A histogram with empty buckets.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Renders a float without scientific notation surprises for the common
/// cases (integral values print without a trailing `.0` machinery — `{}`
/// on f64 is already exact and compact).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// An exposition document under assembly: one metric per line.
#[derive(Default)]
pub struct Exposition {
    lines: Vec<String>,
}

impl Exposition {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a counter sample.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.lines.push(format!("{} {v}", labeled(name, labels)));
    }

    /// Appends a gauge sample.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.lines
            .push(format!("{} {}", labeled(name, labels), fmt_f64(v)));
    }

    /// Appends a preformatted line.
    pub fn raw(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Number of lines so far.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The finished document.
    pub fn into_lines(self) -> Vec<String> {
        self.lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.5), 0, "empty histogram");
        for us in [1u64, 2, 3, 100, 100, 100, 100, 5000, 80_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.max_us(), 80_000);
        let p50 = h.quantile_us(0.50);
        let p95 = h.quantile_us(0.95);
        let p99 = h.quantile_us(0.99);
        // 5th of 9 samples is one of the 100 µs records → bucket [64, 128).
        assert_eq!(p50, 127);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p99 >= 80_000, "p99 covers the max bucket");
    }

    #[test]
    fn quantiles_are_upper_bounds_within_2x() {
        let h = Histogram::default();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        let p50 = h.quantile_us(0.5);
        assert!((500..=1024).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn registry_shares_handles_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total");
        let b = reg.counter("x_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same underlying atomic");
    }

    #[test]
    fn render_is_sorted_and_label_aware() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total").inc();
        reg.counter("a_total{op=\"query\"}").add(7);
        reg.histogram("lat_us{op=\"query\"}")
            .record(Duration::from_micros(100));
        let mut exp = Exposition::new();
        reg.render_into(&mut exp);
        let lines = exp.into_lines();
        assert_eq!(lines[0], "a_total{op=\"query\"} 7");
        assert_eq!(lines[1], "b_total 1");
        assert!(lines.contains(&"lat_us{op=\"query\",quantile=\"0.5\"} 127".to_string()));
        assert!(lines.contains(&"lat_us_count{op=\"query\"} 1".to_string()));
        assert!(lines.contains(&"lat_us_max_us{op=\"query\"} 100".to_string()));
    }

    #[test]
    fn exposition_formats_labels() {
        let mut exp = Exposition::new();
        exp.counter("c", &[("family", "avg#8"), ("engine", "mt")], 4);
        exp.gauge("g", &[], 0.25);
        let lines = exp.into_lines();
        assert_eq!(lines[0], "c{family=\"avg#8\",engine=\"mt\"} 4");
        assert_eq!(lines[1], "g 0.25");
    }
}
