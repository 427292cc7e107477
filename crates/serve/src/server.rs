//! The `simserved` core: acceptor, connection handlers, request execution.
//!
//! Threading model:
//!
//! * one **acceptor** thread blocks on [`TcpListener::accept`];
//! * each accepted connection gets a **connection** thread that reads
//!   request lines, parses them, and executes each request itself
//!   (capped at [`ServerConfig::max_conns`] concurrent connections —
//!   beyond that the connection is greeted with `ERR code=BUSY` and
//!   closed);
//! * before executing, a request passes the one admission
//!   [`Gate`]: at most [`ServerConfig::workers`] requests execute at
//!   once, at most [`ServerConfig::queue_depth`] wait for a slot in
//!   arrival order, and the rest are refused with `ERR code=BUSY`
//!   *before* any index work happens.
//!
//! Queries take their shards' read locks (concurrent), `INSERT`/`DELETE`
//! the owning shard's write lock (exclusive).

use crate::admission::{Gate, Refused};
use crate::metrics::{op_index, Registry};
use crate::protocol::{
    EngineKind, ErrCode, Request, Response, WireMatch, WireMetrics, WirePair, WireTraceEvent,
};
use crate::repl::{serve_repl, FollowerStats, ReplPoll, ReplState};
use simobs::SlowLog;
use simquery::prelude::*;
use simquery::report::{JoinResult, QueryError};
use simquery::shard::ShardedIndex;
use simquery::shared::{DurableError, SharedIndex};
use simshard::gather;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Requests executing at once.
    pub workers: usize,
    /// Requests waiting for an execution slot before the next is refused
    /// with `ERR code=BUSY` (0 refuses every request).
    pub queue_depth: usize,
    /// Maximum concurrent connections.
    pub max_conns: usize,
    /// Result-cache capacity in entries (0 disables caching). Cached
    /// results are keyed on the query fingerprint and the index's
    /// [`QueryEpoch`], so mutations can never serve stale reads.
    pub result_cache: usize,
    /// Slow-query log threshold, µs (inclusive). `u64::MAX` disables the
    /// log; 0 logs every cache-missing query.
    pub slow_query_us: u64,
    /// Trace sampling: record every k-th root span (0 disables tracing).
    pub trace_sample: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            queue_depth: 64,
            max_conns: 64,
            result_cache: 0,
            slow_query_us: u64::MAX,
            trace_sample: simobs::trace::DEFAULT_SAMPLE,
        }
    }
}

/// The index a server executes against: an index group of one shard or
/// many. A [`SharedIndex`], a [`ShardedIndex`] or an `Arc` of one all
/// convert into it.
pub type Backend = Arc<ShardedIndex>;

/// A running server; dropping it does NOT stop the threads — call
/// [`ServerHandle::shutdown`] (tests) or [`ServerHandle::join`] (daemon).
pub struct ServerHandle {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
    /// Shared metrics, exposed for in-process inspection.
    pub metrics: Arc<Registry>,
    repl: Arc<ReplState>,
    gate: Arc<Gate>,
}

impl ServerHandle {
    /// The server's replication state — register the follower loop here
    /// (see [`ReplState::register_follower_loop`]) so a later `PROMOTE`
    /// can halt it.
    pub fn repl(&self) -> &Arc<ReplState> {
        &self.repl
    }

    /// Graceful shutdown: stops accepting, joins the acceptor, then
    /// closes the admission gate and waits it out — requests admitted
    /// before the close, executing or waiting, finish and answer their
    /// clients; later ones from still-open connections get the typed
    /// shutting-down error.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        self.gate.close_and_drain();
    }

    /// Blocks until the acceptor exits (i.e. forever, for a daemon).
    pub fn join(self) {
        let _ = self.acceptor.join();
    }
}

/// Starts serving `backend` per `cfg` (a bare [`SharedIndex`] converts
/// into a group of one). Returns once the listener is bound. The server
/// answers `REPL` polls whenever the backend is a durable index of one
/// shard — any such server can feed followers.
pub fn serve(backend: impl Into<Backend>, cfg: &ServerConfig) -> io::Result<ServerHandle> {
    serve_with(backend, cfg, None)
}

/// [`serve`] for a replication follower: `follower` carries the counters
/// the follower loop publishes. The server then refuses writes with
/// `ERR code=READONLY` and reports the follower `REPL` stats line.
pub fn serve_with(
    backend: impl Into<Backend>,
    cfg: &ServerConfig,
    follower: Option<Arc<FollowerStats>>,
) -> io::Result<ServerHandle> {
    let backend = backend.into();
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let metrics = Arc::new(Registry::default());
    metrics.slow().set_threshold_us(cfg.slow_query_us);
    // The tracer is process-global (the instrumented crates have no
    // server handle); the most recently started server wins the rate.
    simobs::trace::global().set_sample(cfg.trace_sample);
    let stop = Arc::new(AtomicBool::new(false));
    let gate = Arc::new(Gate::new(cfg.workers, cfg.queue_depth));
    let cache = Arc::new(PlanCache::new(cfg.result_cache));
    let repl = Arc::new(match follower {
        Some(stats) => ReplState::follower(stats),
        None => ReplState::primary(),
    });
    let live_conns = Arc::new(AtomicUsize::new(0));
    let max_conns = cfg.max_conns;

    let repl_handle = Arc::clone(&repl);
    let gate_handle = Arc::clone(&gate);
    let acceptor = {
        let (metrics, stop) = (Arc::clone(&metrics), Arc::clone(&stop));
        std::thread::Builder::new()
            .name("simserve-acceptor".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // A reply over the BufWriter's 8 KiB leaves in two
                    // writes; with Nagle on, the second would wait ~40 ms
                    // for the client's delayed ACK.
                    stream.set_nodelay(true).ok();
                    if live_conns.load(Ordering::SeqCst) >= max_conns {
                        metrics.record_busy();
                        let mut w = BufWriter::new(&stream);
                        let msg = format!("connection limit {max_conns} reached");
                        let _ = err(ErrCode::Busy, msg).write_to(&mut w);
                        let _ = w.flush();
                        continue;
                    }
                    metrics.record_connection();
                    live_conns.fetch_add(1, Ordering::SeqCst);
                    let backend = backend.clone();
                    let metrics = Arc::clone(&metrics);
                    let gate = Arc::clone(&gate);
                    let cache = Arc::clone(&cache);
                    let repl = Arc::clone(&repl);
                    let live_conns = Arc::clone(&live_conns);
                    let _ = std::thread::Builder::new()
                        .name("simserve-conn".into())
                        .spawn(move || {
                            let peer = stream
                                .peer_addr()
                                .map(|a| a.to_string())
                                .unwrap_or_else(|_| "unknown".into());
                            let _ = handle_connection(
                                stream, &backend, &metrics, &gate, &cache, &repl, &peer,
                            );
                            repl.drop_peer(&peer);
                            live_conns.fetch_sub(1, Ordering::SeqCst);
                        });
                }
            })?
    };

    Ok(ServerHandle {
        addr,
        stop,
        acceptor,
        metrics,
        repl: repl_handle,
        gate: gate_handle,
    })
}

fn handle_connection(
    stream: TcpStream,
    backend: &Backend,
    metrics: &Registry,
    gate: &Gate,
    cache: &PlanCache,
    repl: &ReplState,
    peer: &str,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // Bytes, not `read_line`: an undecodable line is the client's
        // error to be told about, not an I/O error ending the connection.
        if reader.read_until(b'\n', &mut line)? == 0 {
            return Ok(()); // client hung up
        }
        let request = match std::str::from_utf8(&line) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => Request::parse(text).map_err(|e| e.to_string()),
            Err(_) => Err("request line is not valid UTF-8".into()),
        };
        let response = match request {
            Err(msg) => err(ErrCode::BadRequest, msg),
            Ok(Request::Quit) => {
                Response::Ok.write_to(&mut writer)?;
                return writer.flush();
            }
            Ok(Request::Repl {
                epoch,
                from,
                ack,
                max,
                wait_ms,
            }) => {
                // Served outside the gate, like QUIT: a long-poll parked
                // in a running slot would starve query traffic.
                let start = Instant::now();
                let poll = ReplPoll {
                    epoch,
                    from,
                    ack,
                    max,
                    wait_ms,
                };
                let response = serve_repl(backend, repl, peer, poll);
                let is_err = matches!(response, Response::Err { .. });
                metrics.record(op_index("repl"), start.elapsed(), is_err);
                response
            }
            Ok(request) => {
                let asked = Instant::now();
                let admitted = gate.enter();
                metrics.admission_wait().record(asked.elapsed());
                match admitted {
                    // The permit covers execution, not the write below: a
                    // slow reader must not hold a running slot.
                    Ok(_permit) => {
                        let op = op_index(request.op_name());
                        let start = Instant::now();
                        // A panicking request costs its client one response;
                        // the connection and (through the permit's drop) the
                        // slot survive.
                        let response = catch_unwind(AssertUnwindSafe(|| {
                            execute(backend, metrics, cache, repl, request)
                        }))
                        .unwrap_or_else(|_| err(ErrCode::Server, "the request panicked"));
                        let is_err = matches!(response, Response::Err { .. });
                        metrics.record(op, start.elapsed(), is_err);
                        response
                    }
                    // A full line is an immediate BUSY error — the
                    // admission-control contract.
                    Err(Refused::Full) => {
                        metrics.record_busy();
                        let msg = format!("request queue full (depth {})", gate.waiting());
                        err(ErrCode::Busy, msg)
                    }
                    Err(Refused::Closed) => err(ErrCode::Server, "server shutting down"),
                }
            }
        };
        response.write_to(&mut writer)?;
        writer.flush()?;
    }
}

impl Request {
    /// Metric label of this request.
    pub fn op_name(&self) -> &'static str {
        match self {
            Self::Query(_) => "query",
            Self::Knn { .. } => "knn",
            Self::Join { .. } => "join",
            Self::Insert { .. } => "insert",
            Self::Delete { .. } => "delete",
            Self::Sync => "sync",
            Self::Checkpoint => "checkpoint",
            Self::Info => "info",
            Self::Stats { .. } => "stats",
            Self::Metrics => "metrics",
            Self::Trace { .. } => "trace",
            Self::Explain { .. } => "explain",
            Self::Repl { .. } => "repl",
            Self::Promote => "promote",
            Self::Quit => "info",
        }
    }
}

/// Executes one request against the backend. `Stats` reads the metrics
/// registry; everything else touches only the index (or its shards).
/// Query verbs build a [`LogicalQuery`], consult the result cache, and
/// route through the plan layer — the server never calls an engine
/// directly.
fn execute(
    backend: &Backend,
    metrics: &Registry,
    cache: &PlanCache,
    repl: &ReplState,
    request: Request,
) -> Response {
    if repl.is_follower()
        && matches!(
            request,
            Request::Insert { .. } | Request::Delete { .. } | Request::Checkpoint
        )
    {
        return err(
            ErrCode::ReadOnly,
            "this server is a replication follower; send writes to the primary",
        );
    }
    match request {
        Request::Query(_) | Request::Knn { .. } | Request::Join { .. } => {
            run_query_verb(backend, cache, metrics.slow(), &request)
        }
        Request::Explain { inner } => run_explain(backend, &inner),
        Request::Insert { values } => {
            // The WAL-aware mutation paths: logged-then-acked when the
            // backend is durable, plain apply otherwise.
            match backend.insert_series(&TimeSeries::new(values)) {
                Ok(ord) => {
                    repl.notify_append();
                    Response::Inserted { ord }
                }
                Err(e) => durable_err(e),
            }
        }
        Request::Delete { ord } => match backend.delete_series(ord) {
            Ok(existed) => {
                if existed {
                    repl.notify_append();
                }
                Response::Deleted { existed }
            }
            Err(e) => durable_err(e),
        },
        Request::Sync => match backend.sync_wal() {
            Ok(true) => Response::Ok,
            Ok(false) => not_durable(),
            Err(e) => durable_err(e),
        },
        Request::Checkpoint => match backend.checkpoint() {
            Ok(Some(epoch)) => Response::Checkpointed { epoch },
            Ok(None) => not_durable(),
            Err(e) => durable_err(e),
        },
        Request::Info => {
            let mut info = backend.describe();
            let role = if repl.is_follower() {
                "follower"
            } else {
                "primary"
            };
            let after_durable = info
                .iter()
                .position(|(k, _)| k == "durable")
                .map_or(info.len(), |i| i + 1);
            info.insert(after_durable, ("role".into(), role.into()));
            if repl.is_follower() {
                info.push(("applied_lsn".into(), backend.applied_lsn().to_string()));
            }
            Response::Info(info)
        }
        Request::Stats { reset } => {
            let s = crate::expose::sample(backend, cache, repl);
            Response::Stats(Box::new(metrics.report(
                s.counters,
                s.shards,
                s.wal,
                Some(s.plan),
                s.repl,
                reset,
            )))
        }
        Request::Metrics => crate::expose::render(backend, metrics, cache, repl),
        Request::Trace { n } => {
            let events = simobs::trace::global()
                .drain(n)
                .into_iter()
                .map(|e| WireTraceEvent {
                    seq: e.seq,
                    trace: e.trace,
                    name: e.name.to_string(),
                    depth: e.depth,
                    start_us: e.start_us,
                    dur_us: e.dur_us,
                })
                .collect();
            Response::Trace { events }
        }
        Request::Promote => {
            let Ok(shared) = SharedIndex::try_from(Arc::clone(backend)) else {
                return err(
                    ErrCode::Query,
                    "PROMOTE requires a single-index server (shards replicate separately)",
                );
            };
            if !repl.is_follower() {
                return err(
                    ErrCode::Query,
                    "PROMOTE: this server is already a primary (or standalone)",
                );
            }
            // Halt the replication loop and wait out any in-flight poll
            // BEFORE touching the index, so no frame or snapshot from the
            // old timeline can land on (or roll back) the promoted state.
            repl.halt_follower_loop();
            match shared.promote() {
                Ok(epoch) => {
                    repl.promote_to_primary();
                    Response::Promoted { epoch }
                }
                Err(e) => durable_err(e),
            }
        }
        // Both answered outside the admission gate, never executed here.
        Request::Repl { .. } | Request::Quit => Response::Ok,
    }
}

fn err(code: ErrCode, msg: impl Into<String>) -> Response {
    Response::Err {
        code,
        msg: msg.into(),
    }
}

/// Engine errors carrying a device failure become `ERR IO`; everything
/// else stays `ERR QUERY`.
fn query_err(e: QueryError) -> Response {
    let code = match e {
        QueryError::Io(_) => ErrCode::Io,
        _ => ErrCode::Query,
    };
    err(code, e.to_string())
}

/// Durable-mutation errors: engine rejections keep their `QUERY`/`IO`
/// split; WAL and snapshot failures are `IO`; a replication gap is a
/// protocol-level inconsistency, so `SERVER`.
fn durable_err(e: DurableError) -> Response {
    match e {
        DurableError::Query(q) => query_err(q),
        e @ (DurableError::Wal(_) | DurableError::Io(_) | DurableError::Poisoned) => {
            err(ErrCode::Io, e.to_string())
        }
        gap @ DurableError::Gap { .. } => err(ErrCode::Server, gap.to_string()),
        // A fenced node is read-only by definition: the same signal a
        // follower sends, so FailoverClient chases both identically.
        fenced @ DurableError::Fenced { .. } => err(ErrCode::ReadOnly, fenced.to_string()),
    }
}

/// `SYNC`/`CHECKPOINT` against a server started without `--wal`.
fn not_durable() -> Response {
    err(
        ErrCode::Query,
        "server runs without durability (start simserved with --wal DIR)",
    )
}

fn family_for(ma: (usize, usize), seq_len: usize) -> Result<Family, Response> {
    if ma.1 > seq_len {
        return Err(err(
            ErrCode::Query,
            format!("ma window {} exceeds sequence length {seq_len}", ma.1),
        ));
    }
    Ok(Family::moving_averages(ma.0..=ma.1, seq_len))
}

/// Wire engine choice → planner preference.
pub fn engine_pref(kind: EngineKind) -> EnginePref {
    match kind {
        EngineKind::Mt => EnginePref::Force(EngineChoice::Mt),
        EngineKind::St => EnginePref::Force(EngineChoice::St),
        EngineKind::Scan => EnginePref::Force(EngineChoice::Scan),
        EngineKind::Auto => EnginePref::Auto,
    }
}

/// Renders a range/kNN match list, truncating the body by `limit`.
fn matches_response(matches: &[Match], metrics: &EngineMetrics, limit: usize) -> Response {
    let n = matches.len();
    let take = if limit == 0 { n } else { limit.min(n) };
    Response::Matches {
        n,
        matches: matches[..take]
            .iter()
            .map(|m| WireMatch {
                seq: m.seq,
                transform: m.transform,
                dist: m.dist,
            })
            .collect(),
        metrics: WireMetrics::from(metrics),
    }
}

/// Renders a join pair list, truncating the body by `limit`.
fn pairs_response(r: &JoinResult, limit: usize) -> Response {
    let n = r.matches.len();
    let take = if limit == 0 { n } else { limit.min(n) };
    Response::Pairs {
        n,
        pairs: r.matches[..take]
            .iter()
            .map(|m| WirePair {
                a: m.seq_a,
                b: m.seq_b,
                transform: m.transform,
                dist: m.dist,
            })
            .collect(),
        metrics: WireMetrics::from(&r.metrics),
    }
}

/// Validates the ordinal and family, then fetches the query sequence —
/// the shared front half of every ord-addressed query verb.
fn prepare(
    backend: &Backend,
    ord: usize,
    ma: (usize, usize),
) -> Result<(Family, TimeSeries), Response> {
    let out_of_range = || {
        err(
            ErrCode::Range,
            format!("ordinal {ord} out of range (0..{})", backend.len()),
        )
    };
    if ord >= backend.len() {
        return Err(out_of_range());
    }
    let family = family_for(ma, backend.seq_len())?;
    // Re-checked under the shard's read guard: a replica snapshot install
    // may have shrunk the index since the check above.
    let q = backend
        .fetch_series(ord)
        .map_err(query_err)?
        .ok_or_else(out_of_range)?;
    Ok((family, q))
}

/// Lowers a query verb to its logical query and query sequence — shared
/// by execution and `EXPLAIN`. `JOIN` gets its typed rejection on a
/// group of more than one shard here.
fn lower(
    backend: &Backend,
    request: &Request,
) -> Result<(LogicalQuery, Option<TimeSeries>), Response> {
    match *request {
        Request::Query(p) => {
            let (family, q) = prepare(backend, p.ord, p.ma)?;
            let lq = LogicalQuery::range(family, p.threshold.to_spec())
                .with_engine(engine_pref(p.engine));
            Ok((lq, Some(q)))
        }
        Request::Knn { ord, k, ma } => {
            let (family, q) = prepare(backend, ord, ma)?;
            Ok((LogicalQuery::knn(family, k), Some(q)))
        }
        Request::Join {
            ma,
            threshold,
            engine,
            ..
        } => {
            if SharedIndex::try_from(Arc::clone(backend)).is_err() {
                return Err(err(
                    ErrCode::Query,
                    "JOIN is not supported on a sharded backend (pairs cross shards); \
                     serve the index unsharded to join",
                ));
            }
            let family = family_for(ma, backend.seq_len())?;
            let lq =
                LogicalQuery::join(family, threshold.to_spec()).with_engine(engine_pref(engine));
            Ok((lq, None))
        }
        // Request::parse only wraps query verbs in EXPLAIN.
        _ => Err(err(ErrCode::BadRequest, "EXPLAIN wraps QUERY, KNN or JOIN")),
    }
}

/// Executes a cacheable query verb: epoch-keyed cache lookup, then the
/// plan layer on a miss. The epoch is read *before* execution so a
/// racing mutation can only waste a cache entry, never leave a stale one
/// valid for the current epoch. Cache misses are timed against the
/// slow-query threshold; the result then goes into the cache.
fn run_cached(
    backend: &Backend,
    cache: &PlanCache,
    slow: &SlowLog,
    lq: &LogicalQuery,
    q: Option<&TimeSeries>,
) -> Result<PlanOutput, Response> {
    let epoch = backend.query_epoch();
    let fp = lq.fingerprint(q);
    if let Some((_, out)) = cache.get(fp, epoch) {
        return Ok(out);
    }
    let start = Instant::now();
    let (plan, out, _per_shard) = gather::execute(backend, lq, q).map_err(query_err)?;
    slow.observe(start.elapsed().as_micros().min(u64::MAX as u128) as u64);
    cache.put(fp, epoch, plan, out.clone());
    Ok(out)
}

/// `QUERY` / `KNN` / `JOIN`: lowers the verb, runs it through the result
/// cache, and renders the output, truncating the body by the verb's
/// `limit`.
fn run_query_verb(
    backend: &Backend,
    cache: &PlanCache,
    slow: &SlowLog,
    request: &Request,
) -> Response {
    let (lq, q) = match lower(backend, request) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let limit = match request {
        Request::Query(p) => p.limit,
        Request::Join { limit, .. } => *limit,
        _ => 0,
    };
    match run_cached(backend, cache, slow, &lq, q.as_ref()) {
        Ok(PlanOutput::Range(r)) => matches_response(&r.matches, &r.metrics, limit),
        Ok(PlanOutput::Knn(matches, metrics)) => matches_response(&matches, &metrics, limit),
        Ok(PlanOutput::Join(r)) => pairs_response(&r, limit),
        Err(resp) => resp,
    }
}

/// `EXPLAIN`: plans and executes the wrapped verb, bypassing the result
/// cache (an EXPLAIN that answered from cache would have no actual cost
/// to report), and renders the chosen plan with estimated-vs-actual
/// counters.
fn run_explain(backend: &Backend, inner: &Request) -> Response {
    let (lq, q) = match lower(backend, inner) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    match gather::execute(backend, &lq, q.as_ref()) {
        Ok((plan, out, _)) => {
            let m = out.metrics();
            let n = match &out {
                PlanOutput::Range(r) => r.matches.len(),
                PlanOutput::Knn(matches, _) => matches.len(),
                PlanOutput::Join(r) => r.matches.len(),
            };
            Response::Plan(vec![
                ("verb".into(), inner.op_name().into()),
                ("engine".into(), plan.engine.as_str().into()),
                ("chosen_by".into(), plan.chosen_by.as_str().into()),
                ("partitions".into(), plan.partitions().to_string()),
                ("fanout".into(), plan.fanout.to_string()),
                ("threads".into(), plan.threads.to_string()),
                ("est_nodes".into(), format!("{:.1}", plan.est_nodes)),
                ("est_pages".into(), format!("{:.1}", plan.est_pages)),
                ("est_cmps".into(), format!("{:.1}", plan.est_comparisons)),
                ("est_cost".into(), format!("{:.1}", plan.est_cost)),
                ("nodes".into(), m.node_accesses.to_string()),
                ("pages".into(), m.record_page_accesses.to_string()),
                ("cmps".into(), m.comparisons.to_string()),
                ("matches".into(), n.to_string()),
                ("wall_us".into(), (m.wall.as_micros() as u64).to_string()),
            ])
        }
        Err(e) => query_err(e),
    }
}
