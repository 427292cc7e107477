//! The `simload` closed-loop load generator.
//!
//! N connections each replay a seeded workload of `QUERY` requests
//! (closed loop: the next request goes out only after the previous
//! response is fully read), measuring client-side latency into the same
//! log₂ histograms the server uses. With `verify`, every server response
//! is compared — as a sorted `(seq, transform)` set — against a
//! single-threaded plan execution on a locally opened copy of the index,
//! so a run doubles as an end-to-end result-parity check.

use crate::client::ClientConfig;
use crate::failover::{FailoverClient, FailoverConfig};
use crate::protocol::{EngineKind, QueryParams, Request, Response, WireThreshold};
use crate::server::{engine_pref, Backend};
use simobs::Histogram;
use simquery::prelude::*;
use simshard::{gather, ShardedIndex};
use std::io;
use std::time::{Duration, Instant};
use tseries::rng::SeededRng;

/// Load-run parameters.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Server address.
    pub addr: String,
    /// Concurrent connections.
    pub conns: usize,
    /// Requests per connection.
    pub ops_per_conn: usize,
    /// Workload seed; connection `i` uses `seed + i`.
    pub seed: u64,
    /// Moving-average window range of every query.
    pub ma: (usize, usize),
    /// Correlation threshold of every query.
    pub rho: f64,
    /// Engine the server should use.
    pub engine: EngineKind,
    /// When set, verify result parity against this index group (opened
    /// directly, queried in process with the same engine).
    pub verify: Option<Backend>,
    /// Extra endpoints to fail over to (tried after `addr` when a
    /// request hits `ERR READONLY` or a transport failure).
    pub failover_to: Vec<String>,
    /// Socket timeouts in milliseconds for every connection (`None` =
    /// the [`ClientConfig`] defaults, `Some(0)` = no timeouts).
    pub timeout_ms: Option<u64>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            conns: 8,
            ops_per_conn: 50,
            seed: 1,
            ma: (5, 20),
            rho: 0.96,
            engine: EngineKind::Mt,
            verify: None,
            failover_to: Vec::new(),
            timeout_ms: None,
        }
    }
}

/// Per-connection outcome.
#[derive(Debug)]
pub struct ConnReport {
    /// Completed requests.
    pub ops: u64,
    /// `ERR` responses (any code but BUSY).
    pub errors: u64,
    /// BUSY rejections.
    pub busy: u64,
    /// Matches summed over responses.
    pub matches: u64,
    /// Responses compared against the local engine.
    pub verified: u64,
    /// Responses whose result set differed from the local engine.
    pub parity_failures: u64,
    /// Client-side latency histogram.
    pub hist: Histogram,
    /// Total wall time of this connection's loop.
    pub wall: Duration,
    /// `(retries, redirects, reconnects, giveups)` from this
    /// connection's [`FailoverClient`].
    pub failover: (u64, u64, u64, u64),
}

/// Aggregated outcome of one load run.
#[derive(Debug)]
pub struct LoadReport {
    /// One entry per connection.
    pub conns: Vec<ConnReport>,
    /// Wall time of the whole run (slowest connection).
    pub wall: Duration,
}

impl LoadReport {
    /// Completed requests over all connections.
    pub fn total_ops(&self) -> u64 {
        self.conns.iter().map(|c| c.ops).sum()
    }

    /// Error responses over all connections.
    pub fn total_errors(&self) -> u64 {
        self.conns.iter().map(|c| c.errors).sum()
    }

    /// BUSY rejections over all connections.
    pub fn total_busy(&self) -> u64 {
        self.conns.iter().map(|c| c.busy).sum()
    }

    /// Parity failures over all connections (0 = 100 % parity).
    pub fn total_parity_failures(&self) -> u64 {
        self.conns.iter().map(|c| c.parity_failures).sum()
    }

    /// Failover `(retries, redirects, reconnects, giveups)` summed over
    /// all connections.
    pub fn total_failover(&self) -> (u64, u64, u64, u64) {
        self.conns.iter().fold((0, 0, 0, 0), |acc, c| {
            (
                acc.0 + c.failover.0,
                acc.1 + c.failover.1,
                acc.2 + c.failover.2,
                acc.3 + c.failover.3,
            )
        })
    }

    /// Aggregate throughput, requests per second.
    pub fn throughput(&self) -> f64 {
        self.total_ops() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Renders the per-connection + total table (the shape of
    /// `crates/bench`'s result tables).
    pub fn render(&self) -> String {
        let header = [
            "conn", "ops", "err", "busy", "matches", "p50_us", "p95_us", "p99_us", "max_us",
            "req/s",
        ];
        let mut rows: Vec<Vec<String>> = Vec::new();
        for (i, c) in self.conns.iter().enumerate() {
            rows.push(vec![
                i.to_string(),
                c.ops.to_string(),
                c.errors.to_string(),
                c.busy.to_string(),
                c.matches.to_string(),
                c.hist.quantile_us(0.50).to_string(),
                c.hist.quantile_us(0.95).to_string(),
                c.hist.quantile_us(0.99).to_string(),
                c.hist.max_us().to_string(),
                format!("{:.1}", c.ops as f64 / c.wall.as_secs_f64().max(1e-9)),
            ]);
        }
        rows.push(vec![
            "TOTAL".into(),
            self.total_ops().to_string(),
            self.total_errors().to_string(),
            self.total_busy().to_string(),
            self.conns
                .iter()
                .map(|c| c.matches)
                .sum::<u64>()
                .to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            self.conns
                .iter()
                .map(|c| c.hist.max_us())
                .max()
                .unwrap_or(0)
                .to_string(),
            format!("{:.1}", self.throughput()),
        ]);

        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&format!(
            "## simload: {} conns x {} ops, closed loop\n",
            self.conns.len(),
            self.conns.first().map(|c| c.ops).unwrap_or(0)
        ));
        let head: Vec<String> = header.iter().map(|h| h.to_string()).collect();
        out.push_str(&line(&head));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        let (retries, redirects, reconnects, giveups) = self.total_failover();
        if retries + redirects + reconnects + giveups > 0 {
            out.push_str(&format!(
                "failover: {retries} retries, {redirects} readonly redirects, \
                 {reconnects} reconnects, {giveups} giveups\n"
            ));
        }
        let verified: u64 = self.conns.iter().map(|c| c.verified).sum();
        if self.total_parity_failures() > 0 {
            out.push_str(&format!(
                "PARITY FAILURES: {} of {verified} verified responses\n",
                self.total_parity_failures()
            ));
        } else if verified > 0 {
            out.push_str(&format!(
                "parity: 100% ({verified} responses matched the local engine)\n"
            ));
        }
        out
    }
}

/// Runs the load; blocks until every connection finishes.
pub fn run(cfg: &LoadConfig) -> io::Result<LoadReport> {
    let verify = cfg.verify.as_deref();
    let start = Instant::now();
    let mut conns = Vec::with_capacity(cfg.conns);
    std::thread::scope(|s| -> io::Result<()> {
        let handles: Vec<_> = (0..cfg.conns)
            .map(|i| s.spawn(move || run_conn(cfg, i, verify)))
            .collect();
        for h in handles {
            conns.push(h.join().expect("load connection panicked")?);
        }
        Ok(())
    })?;
    Ok(LoadReport {
        conns,
        wall: start.elapsed(),
    })
}

fn run_conn(
    cfg: &LoadConfig,
    conn_id: usize,
    verify: Option<&ShardedIndex>,
) -> io::Result<ConnReport> {
    let mut endpoints = Vec::with_capacity(1 + cfg.failover_to.len());
    endpoints.push(cfg.addr.clone());
    endpoints.extend(cfg.failover_to.iter().cloned());
    let mut client = FailoverClient::new(
        endpoints,
        FailoverConfig {
            client: cfg
                .timeout_ms
                .map(ClientConfig::with_timeout_ms)
                .unwrap_or_default(),
            seed: cfg.seed + conn_id as u64,
            ..FailoverConfig::default()
        },
    );
    let counters = client.counters();
    let mut rng = SeededRng::seed_from_u64(cfg.seed + conn_id as u64);
    let mut report = ConnReport {
        ops: 0,
        errors: 0,
        busy: 0,
        matches: 0,
        verified: 0,
        parity_failures: 0,
        hist: Histogram::default(),
        wall: Duration::ZERO,
        failover: (0, 0, 0, 0),
    };
    // Ordinals must land inside the served corpus: take its size from the
    // verify copy when present, otherwise ask the server (retrying while
    // admission control sheds the warm-up INFO under a saturated queue).
    let n = match &verify {
        Some(v) => v.len(),
        None => corpus_size(&mut client)?,
    };
    if n == 0 {
        return Err(io::Error::other("server reports an empty corpus"));
    }
    let start = Instant::now();
    for _ in 0..cfg.ops_per_conn {
        let ord = rng.random_range(0usize..n);
        let params = QueryParams {
            ord,
            ma: cfg.ma,
            threshold: WireThreshold::Rho(cfg.rho),
            engine: cfg.engine,
            limit: 0,
        };
        let t0 = Instant::now();
        let response = client.call(&Request::Query(params))?;
        report.hist.record(t0.elapsed());
        report.ops += 1;
        match &response {
            Response::Matches { n, matches, .. } => {
                report.matches += *n as u64;
                if let Some(local) = &verify {
                    let mut got: Vec<(usize, usize)> =
                        matches.iter().map(|m| (m.seq, m.transform)).collect();
                    got.sort_unstable();
                    report.verified += 1;
                    let want = local_pairs(local, ord, cfg);
                    if got != want {
                        report.parity_failures += 1;
                        eprintln!(
                            "parity failure: conn {conn_id} ord {ord}: \
                             server returned {} pairs, local engine {}",
                            got.len(),
                            want.len()
                        );
                    }
                }
            }
            Response::Err {
                code: crate::protocol::ErrCode::Busy,
                ..
            } => report.busy += 1,
            other => {
                report.errors += 1;
                eprintln!("error response: conn {conn_id} ord {ord}: {other:?}");
            }
        }
    }
    report.wall = start.elapsed();
    report.failover = counters.snapshot();
    Ok(report)
}

/// Asks the server how many sequences it serves, retrying on BUSY.
fn corpus_size(client: &mut FailoverClient) -> io::Result<usize> {
    for _ in 0..1000 {
        match client.call(&Request::Info)? {
            Response::Info(pairs) => {
                return pairs
                    .iter()
                    .find(|(k, _)| k == "sequences")
                    .and_then(|(_, v)| v.parse().ok())
                    .ok_or_else(|| io::Error::other("INFO did not report the corpus size"));
            }
            Response::Err {
                code: crate::protocol::ErrCode::Busy,
                ..
            } => std::thread::sleep(Duration::from_millis(1)),
            other => {
                return Err(io::Error::other(format!("INFO failed: {other:?}")));
            }
        }
    }
    Err(io::Error::other(
        "INFO kept getting BUSY; server overloaded",
    ))
}

/// The expected result set, computed locally through the plan layer (and
/// the scatter-gather on a group of more than one shard).
fn local_pairs(group: &ShardedIndex, ord: usize, cfg: &LoadConfig) -> Vec<(usize, usize)> {
    let family = Family::moving_averages(cfg.ma.0..=cfg.ma.1, group.seq_len());
    let q = group
        .fetch_series(ord)
        .ok()
        .flatten()
        .expect("load generator runs on a healthy in-memory index");
    let spec = WireThreshold::Rho(cfg.rho).to_spec();
    let lq = LogicalQuery::range(family, spec).with_engine(engine_pref(cfg.engine));
    match gather::execute(group, &lq, Some(&q)) {
        Ok((_, PlanOutput::Range(r), _)) => r.sorted_pairs(),
        _ => Vec::new(),
    }
}
