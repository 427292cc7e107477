//! A multi-endpoint failover client.
//!
//! [`FailoverClient`] wraps [`Client`] with the three behaviours a
//! fleet-facing caller needs during a primary failover:
//!
//! * **Primary chasing** — an `ERR code=READONLY` response (a follower
//!   or a fenced ex-primary refusing a write) rotates to the next
//!   endpoint instead of surfacing the error; after a promotion the
//!   client converges on whichever endpoint accepts writes.
//! * **Bounded, seeded retry** — connection failures and socket
//!   timeouts re-dial with exponential backoff and equal jitter drawn
//!   from a [`SeededRng`], so a client fleet spreads its reconnect storm
//!   and tests replay the exact schedule.
//! * **Per-op deadlines** — every [`FailoverClient::call`] gives up with
//!   a typed `TimedOut` error once its overall budget is spent, whatever
//!   the per-socket timeouts did.
//!
//! Retrying after a *lost response* means a non-idempotent request
//! (`INSERT`) may be applied more than once — at-least-once semantics,
//! exactly like any retrying client of a non-transactional line
//! protocol. Callers that need exactly-once must reconcile (the chaos
//! suite verifies inserted *content*, not counts). Reads are safe to
//! retry unconditionally.

use crate::client::{Client, ClientConfig};
use crate::protocol::{ErrCode, Request, Response};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tseries::rng::SeededRng;

/// Retry/backoff policy of a [`FailoverClient`].
#[derive(Clone, Copy, Debug)]
pub struct FailoverConfig {
    /// Socket timeouts for every connection the client dials.
    pub client: ClientConfig,
    /// Attempts per call (first try included); at least 1.
    pub max_attempts: u32,
    /// First retry's backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Overall wall-clock budget per call (zero = unbounded).
    pub op_deadline: Duration,
    /// Seed of the jitter stream (equal seeds replay equal schedules).
    pub seed: u64,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        Self {
            client: ClientConfig::default(),
            max_attempts: 8,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            op_deadline: Duration::from_secs(10),
            seed: 0,
        }
    }
}

/// Retry/backoff counters a [`FailoverClient`] publishes (shared, so a
/// load generator can aggregate them across connections).
#[derive(Debug, Default)]
pub struct FailoverCounters {
    /// Re-attempts after a retryable failure (any kind).
    pub retries: AtomicU64,
    /// Endpoint rotations driven by `ERR code=READONLY`.
    pub redirects: AtomicU64,
    /// Re-dials after a connection/socket failure.
    pub reconnects: AtomicU64,
    /// Calls that exhausted their attempts or deadline.
    pub giveups: AtomicU64,
}

impl FailoverCounters {
    /// `(retries, redirects, reconnects, giveups)` snapshot.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.retries.load(Ordering::Relaxed),
            self.redirects.load(Ordering::Relaxed),
            self.reconnects.load(Ordering::Relaxed),
            self.giveups.load(Ordering::Relaxed),
        )
    }
}

/// A client over a fixed endpoint list that keeps one live connection
/// and chases the current primary across failovers.
pub struct FailoverClient {
    endpoints: Vec<String>,
    current: usize,
    conn: Option<Client>,
    cfg: FailoverConfig,
    rng: SeededRng,
    counters: Arc<FailoverCounters>,
}

impl FailoverClient {
    /// A client over `endpoints` (tried in order, starting at the
    /// first). Dials lazily — construction cannot fail.
    pub fn new(endpoints: Vec<String>, cfg: FailoverConfig) -> Self {
        assert!(
            !endpoints.is_empty(),
            "failover needs at least one endpoint"
        );
        Self {
            endpoints,
            current: 0,
            conn: None,
            rng: SeededRng::seed_from_u64(cfg.seed ^ 0x6661_696c_6f76_6572),
            cfg,
            counters: Arc::new(FailoverCounters::default()),
        }
    }

    /// The shared counter block (clone it before moving the client into
    /// a worker thread).
    pub fn counters(&self) -> Arc<FailoverCounters> {
        Arc::clone(&self.counters)
    }

    fn advance(&mut self) {
        self.current = (self.current + 1) % self.endpoints.len();
    }

    /// Equal-jitter exponential backoff for retry number `retry` (1 =
    /// first retry), clamped to the remaining deadline.
    fn backoff(&mut self, retry: u32, deadline: Option<Instant>) {
        let exp = self
            .cfg
            .backoff_base
            .saturating_mul(1u32 << retry.saturating_sub(1).min(16))
            .min(self.cfg.backoff_max);
        let ms = exp.as_millis() as u64;
        let mut sleep = Duration::from_millis(self.rng.random_range(ms / 2..=ms.max(1)));
        if let Some(d) = deadline {
            sleep = sleep.min(d.saturating_duration_since(Instant::now()));
        }
        if !sleep.is_zero() {
            std::thread::sleep(sleep);
        }
    }

    /// Sends `request`, retrying across endpoints per the config. The
    /// returned `Response` may still be a typed error frame (`BUSY`, a
    /// malformed-request rejection, ...) — only *readonly redirects* and
    /// transport failures are chased here.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        let deadline =
            (!self.cfg.op_deadline.is_zero()).then(|| Instant::now() + self.cfg.op_deadline);
        let mut last_err: Option<io::Error> = None;
        let attempts = self.cfg.max_attempts.max(1);
        for attempt in 0..attempts {
            if attempt > 0 {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    break;
                }
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
                self.backoff(attempt, deadline);
            }
            if self.conn.is_none() {
                match Client::connect_with(&self.endpoints[self.current], self.cfg.client) {
                    Ok(c) => self.conn = Some(c),
                    Err(e) => {
                        self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                        last_err = Some(e);
                        self.advance();
                        continue;
                    }
                }
            }
            let conn = self.conn.as_mut().expect("connection ensured above");
            match conn.call(request) {
                Ok(Response::Err {
                    code: ErrCode::ReadOnly,
                    msg,
                }) => {
                    // A follower or fenced ex-primary: rotate toward the
                    // writable primary. The connection itself is fine,
                    // but pinning one per endpoint costs more than
                    // re-dialing after the (rare) failover settles.
                    self.counters.redirects.fetch_add(1, Ordering::Relaxed);
                    last_err = Some(io::Error::other(format!(
                        "endpoint {} is read-only: {msg}",
                        self.endpoints[self.current]
                    )));
                    self.conn = None;
                    self.advance();
                }
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    // Connection refused/reset, or a socket timeout: the
                    // stream may hold a half-written request, so it can
                    // never be reused.
                    self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                    last_err = Some(e);
                    self.conn = None;
                    self.advance();
                }
            }
        }
        self.counters.giveups.fetch_add(1, Ordering::Relaxed);
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::TimedOut, "failover: retry budget exhausted")
        }))
    }
}
