//! The wire protocol: line-oriented, UTF-8, human-readable.
//!
//! A **request** is one line: a verb followed by space-separated
//! `key=value` tokens (`QUERY ord=42 ma=5..34 rho=0.96`). A **response**
//! is one or more lines — a status line (`OK …` or `ERR …`), optional body
//! lines, and a terminating `END` line. The full grammar lives in
//! `crates/serve/PROTOCOL.md`; this module is the single typed
//! parser/serializer used by both `simserved` and the client, so the two
//! sides cannot drift apart.

use simquery::prelude::*;
use simwal::WalOp;
use std::cell::Cell;
use std::fmt;
use std::io::{self, BufRead, Write};

/// Which query engine executes a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// MT-index (Algorithm 1) — the default.
    #[default]
    Mt,
    /// ST-index: one traversal per transformation.
    St,
    /// Sequential scan.
    Scan,
    /// Let the cost-based planner pick (`simquery::plan::Planner`).
    Auto,
}

impl EngineKind {
    fn as_str(self) -> &'static str {
        match self {
            Self::Mt => "mt",
            Self::St => "st",
            Self::Scan => "scan",
            Self::Auto => "auto",
        }
    }

    pub(crate) fn parse(s: &str) -> Result<Self, ProtoError> {
        match s {
            "mt" => Ok(Self::Mt),
            "st" => Ok(Self::St),
            "scan" => Ok(Self::Scan),
            "auto" => Ok(Self::Auto),
            other => Err(ProtoError::bad(format!("unknown engine `{other}`"))),
        }
    }
}

/// The similarity threshold carried by a request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WireThreshold {
    /// Cross-correlation ρ (Eq. 9).
    Rho(f64),
    /// Euclidean ε over transformed normal forms.
    Eps(f64),
}

impl Default for WireThreshold {
    fn default() -> Self {
        Self::Rho(0.96) // the paper's headline setting
    }
}

impl WireThreshold {
    /// Converts to an engine [`RangeSpec`] (Adaptive policy by default —
    /// lossless and pruning; see `simquery::query`).
    pub fn to_spec(self) -> RangeSpec {
        match self {
            Self::Rho(r) => RangeSpec::correlation(r),
            Self::Eps(e) => RangeSpec::euclidean(e),
        }
        .with_policy(FilterPolicy::Adaptive)
    }
}

/// Parameters of a `QUERY` request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryParams {
    /// Ordinal of the query sequence in the served corpus.
    pub ord: usize,
    /// Moving-average window range `lo..=hi` defining the family.
    pub ma: (usize, usize),
    /// Similarity threshold.
    pub threshold: WireThreshold,
    /// Engine choice.
    pub engine: EngineKind,
    /// Maximum number of `MATCH` lines returned (0 = unlimited).
    pub limit: usize,
}

impl Default for QueryParams {
    fn default() -> Self {
        Self {
            ord: 0,
            ma: (1, 8),
            threshold: WireThreshold::default(),
            engine: EngineKind::default(),
            limit: 0,
        }
    }
}

/// A parsed request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Query 1 — range query by stored ordinal.
    Query(QueryParams),
    /// k nearest neighbours of a stored ordinal.
    Knn {
        /// Query ordinal.
        ord: usize,
        /// Number of neighbours.
        k: usize,
        /// Moving-average window range.
        ma: (usize, usize),
    },
    /// Query 2 — the self join.
    Join {
        /// Moving-average window range.
        ma: (usize, usize),
        /// Similarity threshold.
        threshold: WireThreshold,
        /// Engine choice.
        engine: EngineKind,
        /// Maximum number of `PAIR` lines returned (0 = unlimited).
        limit: usize,
    },
    /// Appends a sequence to the served relation (and index).
    Insert {
        /// The raw values.
        values: Vec<f64>,
    },
    /// Tombstones a stored sequence.
    Delete {
        /// Ordinal to delete.
        ord: usize,
    },
    /// Forces the write-ahead log(s) to stable storage.
    Sync,
    /// Checkpoints the index: snapshot, epoch bump, log truncation.
    Checkpoint,
    /// Describes the served index.
    Info,
    /// Server metrics; `reset` zeroes the op counters/histograms after
    /// reporting.
    Stats {
        /// Reset after reporting.
        reset: bool,
    },
    /// Text-exposition dump of every registered instrument — the same
    /// atomics `STATS` reads, rendered one `name{labels} value` line per
    /// series for scrapers.
    Metrics,
    /// Drains up to `n` of the most recent completed trace spans from
    /// the server's bounded trace ring.
    Trace {
        /// Maximum spans returned (the newest win).
        n: usize,
    },
    /// `EXPLAIN <QUERY|KNN|JOIN …>` — plans (and executes, bypassing the
    /// result cache) the wrapped request, returning the chosen physical
    /// plan with estimated-vs-actual cost counters instead of the result.
    Explain {
        /// The wrapped query request (`Query`, `Knn`, or `Join`).
        inner: Box<Request>,
    },
    /// Replication poll: a follower asks the primary for WAL frames.
    /// The handshake state rides on every request — `epoch` is the
    /// primary checkpoint epoch the follower's state corresponds to and
    /// `from` the next LSN it expects; the primary streams frames when
    /// they line up and answers with a snapshot transfer otherwise.
    Repl {
        /// Primary checkpoint epoch the follower last synchronised with.
        epoch: u64,
        /// Next LSN the follower expects (exclusive ack position).
        from: u64,
        /// Highest LSN the follower has durably applied — the primary
        /// records it as this follower's acked position.
        ack: u64,
        /// Maximum frames per response (0 = server default).
        max: usize,
        /// Long-poll budget: how long the primary may hold the request
        /// open waiting for new frames before answering empty.
        wait_ms: u64,
    },
    /// Promotes a follower to primary: the node stops polling its old
    /// primary, bumps its WAL epoch past every timeline it has seen,
    /// persists a fencing token, and begins accepting writes from its
    /// acked prefix. Refused on a node that is already a primary.
    Promote,
    /// Ends the connection.
    Quit,
}

impl Request {
    /// Serializes to one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Self::Query(p) => {
                let mut s = format!(
                    "QUERY ord={} ma={}..{} {} engine={}",
                    p.ord,
                    p.ma.0,
                    p.ma.1,
                    threshold_token(&p.threshold),
                    p.engine.as_str()
                );
                if p.limit != 0 {
                    s.push_str(&format!(" limit={}", p.limit));
                }
                s
            }
            Self::Knn { ord, k, ma } => format!("KNN ord={ord} k={k} ma={}..{}", ma.0, ma.1),
            Self::Join {
                ma,
                threshold,
                engine,
                limit,
            } => {
                let mut s = format!(
                    "JOIN ma={}..{} {} engine={}",
                    ma.0,
                    ma.1,
                    threshold_token(threshold),
                    engine.as_str()
                );
                if *limit != 0 {
                    s.push_str(&format!(" limit={limit}"));
                }
                s
            }
            Self::Insert { values } => {
                let data: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
                format!("INSERT data={}", data.join(","))
            }
            Self::Delete { ord } => format!("DELETE ord={ord}"),
            Self::Sync => "SYNC".into(),
            Self::Checkpoint => "CHECKPOINT".into(),
            Self::Info => "INFO".into(),
            Self::Stats { reset } => {
                if *reset {
                    "STATS reset=yes".into()
                } else {
                    "STATS".into()
                }
            }
            Self::Metrics => "METRICS".into(),
            Self::Trace { n } => format!("TRACE n={n}"),
            Self::Explain { inner } => format!("EXPLAIN {}", inner.to_line()),
            Self::Repl {
                epoch,
                from,
                ack,
                max,
                wait_ms,
            } => format!("REPL epoch={epoch} from={from} ack={ack} max={max} wait_ms={wait_ms}"),
            Self::Promote => "PROMOTE".into(),
            Self::Quit => "QUIT".into(),
        }
    }

    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Self, ProtoError> {
        let line = line.trim_end_matches(['\r', '\n']);
        if let Some(rest) = line.strip_prefix("EXPLAIN ") {
            let inner = Self::parse(rest)?;
            if !matches!(inner, Self::Query(_) | Self::Knn { .. } | Self::Join { .. }) {
                return Err(ProtoError::bad("EXPLAIN wraps QUERY, KNN or JOIN"));
            }
            return Ok(Self::Explain {
                inner: Box::new(inner),
            });
        }
        let mut tokens = line.split_whitespace();
        let verb = tokens
            .next()
            .ok_or_else(|| ProtoError::bad("empty request"))?;
        let kv = KvTokens::collect(tokens)?;
        let request = match verb {
            "QUERY" => Ok(Self::Query(QueryParams {
                ord: kv.req_parse("ord")?,
                ma: kv.range_or("ma", (1, 8))?,
                threshold: kv.threshold()?,
                engine: kv.engine()?,
                limit: kv.parse_or("limit", 0)?,
            })),
            "KNN" => Ok(Self::Knn {
                ord: kv.req_parse("ord")?,
                k: kv.req_parse("k")?,
                ma: kv.range_or("ma", (1, 8))?,
            }),
            "JOIN" => Ok(Self::Join {
                ma: kv.range_or("ma", (1, 8))?,
                threshold: kv.threshold()?,
                engine: kv.engine()?,
                limit: kv.parse_or("limit", 0)?,
            }),
            "INSERT" => Ok(Self::Insert {
                values: parse_floats(kv.req("data")?)?,
            }),
            "DELETE" => Ok(Self::Delete {
                ord: kv.req_parse("ord")?,
            }),
            "SYNC" => Ok(Self::Sync),
            "CHECKPOINT" => Ok(Self::Checkpoint),
            "INFO" => Ok(Self::Info),
            "STATS" => match kv.get("reset") {
                None | Some("no") => Ok(Self::Stats { reset: false }),
                Some("yes") => Ok(Self::Stats { reset: true }),
                Some(_) => Err(ProtoError::bad("reset= must be yes or no")),
            },
            "METRICS" => Ok(Self::Metrics),
            "TRACE" => Ok(Self::Trace {
                n: kv.parse_or("n", 100)?,
            }),
            "REPL" => Ok(Self::Repl {
                epoch: kv.req_parse("epoch")?,
                from: kv.req_parse("from")?,
                ack: kv.parse_or("ack", 0)?,
                max: kv.parse_or("max", 0)?,
                wait_ms: kv.parse_or("wait_ms", 0)?,
            }),
            "PROMOTE" => Ok(Self::Promote),
            "QUIT" => Ok(Self::Quit),
            "EXPLAIN" => Err(ProtoError::bad("EXPLAIN wraps QUERY, KNN or JOIN")),
            other => Err(ProtoError::bad(format!("unknown verb `{other}`"))),
        }?;
        // A key the verb did not read would be a different request
        // answered without an error.
        kv.reject_unread(verb)?;
        Ok(request)
    }
}

fn threshold_token(t: &WireThreshold) -> String {
    match t {
        WireThreshold::Rho(r) => format!("rho={r}"),
        WireThreshold::Eps(e) => format!("eps={e}"),
    }
}

/// Machine-readable error classes carried on `ERR` lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrCode {
    /// The bounded request queue is full — retry later (admission control).
    Busy,
    /// The request line failed to parse.
    BadRequest,
    /// An ordinal was out of range.
    Range,
    /// The query engine rejected the request (see message).
    Query,
    /// A page access failed while executing the request (fault injection
    /// or a genuinely bad device). The index itself stays serviceable —
    /// later requests on the same connection may succeed.
    Io,
    /// Internal server failure.
    Server,
    /// The server is a replication follower: writes (`INSERT`, `DELETE`,
    /// `CHECKPOINT`) are refused — send them to the primary.
    ReadOnly,
}

impl ErrCode {
    fn as_str(self) -> &'static str {
        match self {
            Self::Busy => "BUSY",
            Self::BadRequest => "BADREQ",
            Self::Range => "RANGE",
            Self::Query => "QUERY",
            Self::Io => "IO",
            Self::Server => "SERVER",
            Self::ReadOnly => "READONLY",
        }
    }

    fn parse(s: &str) -> Result<Self, ProtoError> {
        match s {
            "BUSY" => Ok(Self::Busy),
            "BADREQ" => Ok(Self::BadRequest),
            "RANGE" => Ok(Self::Range),
            "QUERY" => Ok(Self::Query),
            "IO" => Ok(Self::Io),
            "SERVER" => Ok(Self::Server),
            "READONLY" => Ok(Self::ReadOnly),
            other => Err(ProtoError::bad(format!("unknown error code `{other}`"))),
        }
    }
}

/// One `MATCH` line of a query/KNN response.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireMatch {
    /// Matching sequence ordinal.
    pub seq: usize,
    /// Qualifying transformation index.
    pub transform: usize,
    /// Exact transformed distance.
    pub dist: f64,
}

/// One `PAIR` line of a join response.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WirePair {
    /// First ordinal (`< b`).
    pub a: usize,
    /// Second ordinal.
    pub b: usize,
    /// Qualifying transformation index.
    pub transform: usize,
    /// Exact transformed distance.
    pub dist: f64,
}

/// The `METRICS` footer of query/join responses.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WireMetrics {
    /// Index node accesses.
    pub nodes: u64,
    /// Logical record fetches.
    pub fetches: u64,
    /// Distance computations.
    pub cmps: u64,
    /// Candidates that reached verification.
    pub cands: u64,
    /// Server-side wall time, microseconds.
    pub wall_us: u64,
}

impl From<&EngineMetrics> for WireMetrics {
    fn from(m: &EngineMetrics) -> Self {
        Self {
            nodes: m.node_accesses,
            fetches: m.record_fetches,
            cmps: m.comparisons,
            cands: m.candidates,
            wall_us: m.wall.as_micros() as u64,
        }
    }
}

/// Per-operation line of a `STATS` response.
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

/// Per-shard line of a `STATS` response (sharded backends only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStatLine {
    /// Shard id, `0..shards`.
    pub id: usize,
    /// Sequences currently mapped to the shard.
    pub seqs: u64,
    /// Tree node reads on this shard since server start.
    pub node_reads: u64,
    /// Record-heap page reads (pool misses) on this shard.
    pub record_page_reads: u64,
    /// Logical record fetches on this shard.
    pub record_fetches: u64,
}

/// Write-ahead-log counters of a `STATS` response (durable servers only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStatLine {
    /// Frames appended since server start.
    pub appends: u64,
    /// `fsync` calls issued by the log(s).
    pub fsyncs: u64,
    /// Frames replayed when the server opened the index.
    pub replayed: u64,
    /// Current checkpoint epoch.
    pub epoch: u64,
}

/// Planner and result-cache counters of a `STATS` response.
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

/// Replication counters of a `STATS` response. On a primary, the
/// follower-fleet view; on a follower, its own applied position.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplStatLine {
    /// `primary` or `follower`.
    pub role: String,
    /// Followers that have polled since server start (primary only).
    pub followers: u64,
    /// Minimum acked LSN across the follower fleet (primary), or the
    /// LSN this follower has acked upstream (follower).
    pub acked_lsn: u64,
    /// Highest LSN applied locally (follower; 0 on a primary).
    pub applied_lsn: u64,
    /// Next-LSN-minus-acked lag in frames (both roles).
    pub lag: u64,
    /// Frame bytes shipped to followers (primary) or received (follower).
    pub bytes: u64,
    /// Checkpoint epoch the replication stream is on.
    pub epoch: u64,
}

/// The full `STATS` payload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsReport {
    /// One line per operation with non-zero traffic.
    pub ops: Vec<OpStatLine>,
    /// Requests rejected by admission control since start.
    pub busy_rejected: u64,
    /// Connections accepted since start.
    pub connections: u64,
    /// Index access counters, total since server start:
    /// `(node_reads, record_page_reads, record_fetches)`.
    pub counters_total: (u64, u64, u64),
    /// Same counters, delta since the previous `STATS` call.
    pub counters_delta: (u64, u64, u64),
    /// Per-shard breakdown; empty unless the index is a shard directory.
    pub shards: Vec<ShardStatLine>,
    /// WAL counters; `None` when the server runs without durability.
    pub wal: Option<WalStatLine>,
    /// Planner/result-cache counters; `None` only for reports produced
    /// by servers predating the plan layer.
    pub plan: Option<PlanStatLine>,
    /// Replication counters; `None` when the server neither serves
    /// followers nor follows a primary.
    pub repl: Option<ReplStatLine>,
}

/// One completed span of a `TRACE` response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireTraceEvent {
    /// Global completion order (monotonic per server).
    pub seq: u64,
    /// Trace id shared by every span of one sampled root.
    pub trace: u64,
    /// Span name (e.g. `plan.execute`, `wal.fsync`).
    pub name: String,
    /// Nesting depth below the root (root = 0).
    pub depth: u16,
    /// Span start, µs since the tracer was created.
    pub start_us: u64,
    /// Span duration in µs.
    pub dur_us: u64,
}

/// One `SNAP` line of a snapshot-transfer response: a stored sequence
/// and whether it is live or tombstoned.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapEntry {
    /// Global ordinal.
    pub ord: u64,
    /// Whether the sequence is live (not tombstoned).
    pub live: bool,
    /// The raw values.
    pub values: Vec<f64>,
}

/// A parsed response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Query/KNN result.
    Matches {
        /// Total matches server-side (body may be truncated by `limit`).
        n: usize,
        /// The (possibly truncated) match list.
        matches: Vec<WireMatch>,
        /// Cost counters of the execution.
        metrics: WireMetrics,
    },
    /// Join result.
    Pairs {
        /// Total qualifying pairs server-side.
        n: usize,
        /// The (possibly truncated) pair list.
        pairs: Vec<WirePair>,
        /// Cost counters of the execution.
        metrics: WireMetrics,
    },
    /// `INSERT` acknowledgement.
    Inserted {
        /// Ordinal assigned to the new sequence.
        ord: usize,
    },
    /// `DELETE` acknowledgement.
    Deleted {
        /// Whether the ordinal existed (and was live).
        existed: bool,
    },
    /// `INFO` payload: ordered key/value pairs.
    Info(Vec<(String, String)>),
    /// `EXPLAIN` payload: ordered key/value pairs describing the chosen
    /// physical plan (engine, partitions, estimated vs actual cost).
    Plan(Vec<(String, String)>),
    /// `STATS` payload (boxed: the report dwarfs every other variant).
    Stats(Box<StatsReport>),
    /// `METRICS` payload: raw text-exposition lines, one per series.
    Metrics {
        /// The exposition, already formatted (`name{labels} value`).
        lines: Vec<String>,
    },
    /// `TRACE` payload: drained spans, oldest first.
    Trace {
        /// The spans.
        events: Vec<WireTraceEvent>,
    },
    /// `CHECKPOINT` acknowledgement carrying the new epoch.
    Checkpointed {
        /// Epoch installed by the checkpoint.
        epoch: u64,
    },
    /// `PROMOTE` acknowledgement carrying the new timeline epoch.
    Promoted {
        /// Epoch the promoted node's timeline begins at.
        epoch: u64,
    },
    /// `REPL` payload: a batch of WAL frames from the primary's log.
    ReplFrames {
        /// The primary's current checkpoint epoch.
        epoch: u64,
        /// Exclusive upper bound of the primary's log (its next LSN);
        /// `end - 1` is the newest LSN a fully drained follower holds.
        end: u64,
        /// Frames with `lsn >= from`, in log order (possibly empty).
        frames: Vec<WalOp>,
    },
    /// `REPL` payload: a full snapshot transfer — the epoch-mismatch
    /// fallback of the handshake.
    ReplSnapshot {
        /// The primary's current checkpoint epoch (what the snapshot
        /// corresponds to).
        epoch: u64,
        /// First LSN the follower resumes streaming from.
        next: u64,
        /// Sequence length of the served corpus.
        seq_len: usize,
        /// One entry per ordinal, in ordinal order — tombstoned
        /// ordinals ship too (`live=no`) so the follower reproduces the
        /// exact ordinal assignment.
        entries: Vec<SnapEntry>,
    },
    /// Plain acknowledgement (`QUIT`, `SYNC`).
    Ok,
    /// An error frame.
    Err {
        /// Machine-readable class.
        code: ErrCode,
        /// Human-readable detail.
        msg: String,
    },
}

impl Response {
    /// Writes the full response (status line, body, `END`) to `w`.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        match self {
            Self::Matches {
                n,
                matches,
                metrics,
            } => {
                writeln!(w, "OK n={n}")?;
                for m in matches {
                    writeln!(w, "MATCH seq={} t={} dist={}", m.seq, m.transform, m.dist)?;
                }
                write_metrics(w, metrics)?;
            }
            Self::Pairs { n, pairs, metrics } => {
                writeln!(w, "OK n={n}")?;
                for p in pairs {
                    writeln!(
                        w,
                        "PAIR a={} b={} t={} dist={}",
                        p.a, p.b, p.transform, p.dist
                    )?;
                }
                write_metrics(w, metrics)?;
            }
            Self::Inserted { ord } => writeln!(w, "OK ord={ord}")?,
            Self::Deleted { existed } => writeln!(w, "OK deleted={existed}")?,
            Self::Info(pairs) => {
                writeln!(w, "OK")?;
                for (k, v) in pairs {
                    writeln!(w, "INFO {k}={v}")?;
                }
            }
            Self::Plan(pairs) => {
                writeln!(w, "OK")?;
                for (k, v) in pairs {
                    writeln!(w, "PLAN {k}={v}")?;
                }
            }
            Self::Stats(s) => {
                writeln!(w, "OK")?;
                for o in &s.ops {
                    writeln!(
                        w,
                        "STAT op={} count={} err={} p50_us={} p95_us={} p99_us={} max_us={}",
                        o.op, o.count, o.errors, o.p50_us, o.p95_us, o.p99_us, o.max_us
                    )?;
                }
                writeln!(
                    w,
                    "COUNTERS node_reads={} record_page_reads={} record_fetches={} \
                     d_node_reads={} d_record_page_reads={} d_record_fetches={}",
                    s.counters_total.0,
                    s.counters_total.1,
                    s.counters_total.2,
                    s.counters_delta.0,
                    s.counters_delta.1,
                    s.counters_delta.2
                )?;
                for sh in &s.shards {
                    writeln!(
                        w,
                        "SHARD id={} seqs={} node_reads={} record_page_reads={} \
                         record_fetches={}",
                        sh.id, sh.seqs, sh.node_reads, sh.record_page_reads, sh.record_fetches
                    )?;
                }
                if let Some(wal) = &s.wal {
                    writeln!(
                        w,
                        "WAL appends={} fsyncs={} replayed={} epoch={}",
                        wal.appends, wal.fsyncs, wal.replayed, wal.epoch
                    )?;
                }
                if let Some(p) = &s.plan {
                    writeln!(
                        w,
                        "PLAN built={} cache_hits={} cache_misses={} cache_evictions={} \
                         cache_entries={} mt={} st={} scan={}",
                        p.built,
                        p.cache_hits,
                        p.cache_misses,
                        p.cache_evictions,
                        p.cache_entries,
                        p.mt,
                        p.st,
                        p.scan
                    )?;
                }
                if let Some(r) = &s.repl {
                    writeln!(
                        w,
                        "REPL role={} followers={} acked_lsn={} applied_lsn={} lag={} \
                         bytes={} epoch={}",
                        r.role, r.followers, r.acked_lsn, r.applied_lsn, r.lag, r.bytes, r.epoch
                    )?;
                }
                writeln!(
                    w,
                    "SERVER busy_rejected={} connections={}",
                    s.busy_rejected, s.connections
                )?;
            }
            Self::Metrics { lines } => {
                // `metrics=prom` tags the status line so the reader never
                // confuses the exposition body (free-form lines) with a
                // keyed payload.
                writeln!(w, "OK metrics=prom lines={}", lines.len())?;
                for line in lines {
                    writeln!(w, "{line}")?;
                }
            }
            Self::Trace { events } => {
                writeln!(w, "OK trace={}", events.len())?;
                for e in events {
                    writeln!(
                        w,
                        "TRACE seq={} trace={} name={} depth={} start_us={} dur_us={}",
                        e.seq, e.trace, e.name, e.depth, e.start_us, e.dur_us
                    )?;
                }
            }
            Self::Checkpointed { epoch } => writeln!(w, "OK epoch={epoch}")?,
            Self::Promoted { epoch } => writeln!(w, "OK promoted=1 epoch={epoch}")?,
            Self::ReplFrames { epoch, end, frames } => {
                writeln!(w, "OK repl=frames epoch={epoch} end={end}")?;
                for op in frames {
                    match op {
                        WalOp::Insert {
                            lsn,
                            global,
                            shard,
                            values,
                        } => writeln!(
                            w,
                            "FRAME lsn={lsn} op=insert global={global} shard={shard} data={}",
                            join_floats(values)
                        )?,
                        WalOp::Delete { lsn, global, shard } => {
                            writeln!(w, "FRAME lsn={lsn} op=delete global={global} shard={shard}")?
                        }
                    }
                }
            }
            Self::ReplSnapshot {
                epoch,
                next,
                seq_len,
                entries,
            } => {
                writeln!(
                    w,
                    "OK repl=snapshot epoch={epoch} next={next} seq_len={seq_len} count={}",
                    entries.len()
                )?;
                for e in entries {
                    writeln!(
                        w,
                        "SNAP ord={} live={} data={}",
                        e.ord,
                        if e.live { "yes" } else { "no" },
                        join_floats(&e.values)
                    )?;
                }
            }
            Self::Ok => writeln!(w, "OK")?,
            Self::Err { code, msg } => writeln!(w, "ERR code={} msg={}", code.as_str(), msg)?,
        }
        writeln!(w, "END")
    }

    /// Reads one full response (through its `END` line) from `r`.
    pub fn read_from(r: &mut impl BufRead) -> io::Result<Self> {
        let status = read_line(r)?;
        let mut body = Vec::new();
        loop {
            let line = read_line(r)?;
            if line == "END" {
                break;
            }
            body.push(line);
        }
        Self::assemble(&status, &body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    fn assemble(status: &str, body: &[String]) -> Result<Self, ProtoError> {
        let mut tokens = status.split_whitespace();
        match tokens.next() {
            Some("ERR") => {
                // msg= is the final token and may contain spaces.
                let rest = status.strip_prefix("ERR").unwrap_or("").trim_start();
                let mut parts = rest.splitn(2, " msg=");
                let code_tok = parts.next().unwrap_or("");
                let msg = parts.next().unwrap_or("").to_string();
                let code = code_tok
                    .strip_prefix("code=")
                    .ok_or_else(|| ProtoError::bad("ERR without code="))?;
                Ok(Self::Err {
                    code: ErrCode::parse(code)?,
                    msg,
                })
            }
            Some("OK") => {
                let kv = KvTokens::collect(tokens)?;
                if let Some(kind) = kv.get("repl") {
                    Self::assemble_repl(kind, &kv, body)
                } else if kv.get("metrics").is_some() {
                    // Sniffed before n=: the exposition body is free-form
                    // text and must never reach the keyed-line parsers.
                    let announced: usize = kv.req_parse("lines")?;
                    if body.len() != announced {
                        return Err(ProtoError::bad(format!(
                            "metrics announced lines={announced} but carried {}",
                            body.len()
                        )));
                    }
                    Ok(Self::Metrics {
                        lines: body.to_vec(),
                    })
                } else if kv.get("trace").is_some() {
                    Self::assemble_trace(&kv, body)
                } else if let Some(n) = kv.get("n") {
                    let n: usize = n.parse().map_err(|_| ProtoError::bad("bad n="))?;
                    Self::assemble_result(n, body)
                } else if let Some(ord) = kv.get("ord") {
                    Ok(Self::Inserted {
                        ord: ord.parse().map_err(|_| ProtoError::bad("bad ord="))?,
                    })
                } else if let Some(d) = kv.get("deleted") {
                    Ok(Self::Deleted {
                        existed: d == "true",
                    })
                } else if kv.get("promoted").is_some() {
                    // Sniffed before the bare epoch= (Checkpointed) branch:
                    // both acks carry an epoch, only this one the marker.
                    Ok(Self::Promoted {
                        epoch: kv.req_parse("epoch")?,
                    })
                } else if let Some(e) = kv.get("epoch") {
                    Ok(Self::Checkpointed {
                        epoch: e.parse().map_err(|_| ProtoError::bad("bad epoch="))?,
                    })
                } else if body
                    .iter()
                    .any(|l| l.starts_with("STAT ") || l.starts_with("COUNTERS "))
                {
                    Self::assemble_stats(body)
                } else if body.iter().any(|l| l.starts_with("INFO ")) {
                    Ok(Self::Info(assemble_kv_body(body, "INFO ")?))
                } else if body.iter().any(|l| l.starts_with("PLAN ")) {
                    Ok(Self::Plan(assemble_kv_body(body, "PLAN ")?))
                } else {
                    Ok(Self::Ok)
                }
            }
            _ => Err(ProtoError::bad(format!("bad status line `{status}`"))),
        }
    }

    fn assemble_result(n: usize, body: &[String]) -> Result<Self, ProtoError> {
        let mut matches = Vec::new();
        let mut pairs = Vec::new();
        let mut metrics = WireMetrics::default();
        for line in body {
            let mut tokens = line.split_whitespace();
            match tokens.next() {
                Some("MATCH") => {
                    let kv = KvTokens::collect(tokens)?;
                    matches.push(WireMatch {
                        seq: kv.req_parse("seq")?,
                        transform: kv.req_parse("t")?,
                        dist: kv.req_parse("dist")?,
                    });
                }
                Some("PAIR") => {
                    let kv = KvTokens::collect(tokens)?;
                    pairs.push(WirePair {
                        a: kv.req_parse("a")?,
                        b: kv.req_parse("b")?,
                        transform: kv.req_parse("t")?,
                        dist: kv.req_parse("dist")?,
                    });
                }
                Some("METRICS") => {
                    let kv = KvTokens::collect(tokens)?;
                    metrics = WireMetrics {
                        nodes: kv.req_parse("nodes")?,
                        fetches: kv.req_parse("fetches")?,
                        cmps: kv.req_parse("cmps")?,
                        cands: kv.req_parse("cands")?,
                        wall_us: kv.req_parse("wall_us")?,
                    };
                }
                other => {
                    return Err(ProtoError::bad(format!("unexpected body line {other:?}")));
                }
            }
        }
        if pairs.is_empty() {
            Ok(Self::Matches {
                n,
                matches,
                metrics,
            })
        } else {
            Ok(Self::Pairs { n, pairs, metrics })
        }
    }

    fn assemble_repl(kind: &str, kv: &KvTokens, body: &[String]) -> Result<Self, ProtoError> {
        match kind {
            "frames" => {
                let mut frames = Vec::new();
                for line in body {
                    let mut tokens = line.split_whitespace();
                    if tokens.next() != Some("FRAME") {
                        return Err(ProtoError::bad(format!("unexpected repl line `{line}`")));
                    }
                    let fkv = KvTokens::collect(tokens)?;
                    let lsn = fkv.req_parse("lsn")?;
                    let global = fkv.req_parse("global")?;
                    let shard = fkv.parse_or("shard", 0)?;
                    frames.push(match fkv.req("op")? {
                        "insert" => WalOp::Insert {
                            lsn,
                            global,
                            shard,
                            values: parse_floats_or_empty(fkv.req("data")?)?,
                        },
                        "delete" => WalOp::Delete { lsn, global, shard },
                        other => {
                            return Err(ProtoError::bad(format!("unknown frame op `{other}`")));
                        }
                    });
                }
                Ok(Self::ReplFrames {
                    epoch: kv.req_parse("epoch")?,
                    end: kv.req_parse("end")?,
                    frames,
                })
            }
            "snapshot" => {
                let count: usize = kv.req_parse("count")?;
                let mut entries = Vec::new();
                for line in body {
                    let mut tokens = line.split_whitespace();
                    if tokens.next() != Some("SNAP") {
                        return Err(ProtoError::bad(format!("unexpected repl line `{line}`")));
                    }
                    let skv = KvTokens::collect(tokens)?;
                    entries.push(SnapEntry {
                        ord: skv.req_parse("ord")?,
                        live: skv.req("live")? == "yes",
                        values: parse_floats_or_empty(skv.req("data")?)?,
                    });
                }
                if entries.len() != count {
                    return Err(ProtoError::bad(format!(
                        "snapshot announced count={count} but carried {}",
                        entries.len()
                    )));
                }
                Ok(Self::ReplSnapshot {
                    epoch: kv.req_parse("epoch")?,
                    next: kv.req_parse("next")?,
                    seq_len: kv.req_parse("seq_len")?,
                    entries,
                })
            }
            other => Err(ProtoError::bad(format!("unknown repl payload `{other}`"))),
        }
    }

    fn assemble_trace(kv: &KvTokens, body: &[String]) -> Result<Self, ProtoError> {
        let announced: usize = kv.req_parse("trace")?;
        let mut events = Vec::new();
        for line in body {
            let mut tokens = line.split_whitespace();
            if tokens.next() != Some("TRACE") {
                return Err(ProtoError::bad(format!("unexpected trace line `{line}`")));
            }
            let tkv = KvTokens::collect(tokens)?;
            events.push(WireTraceEvent {
                seq: tkv.req_parse("seq")?,
                trace: tkv.req_parse("trace")?,
                name: tkv.req("name")?.to_string(),
                depth: tkv.req_parse("depth")?,
                start_us: tkv.req_parse("start_us")?,
                dur_us: tkv.req_parse("dur_us")?,
            });
        }
        if events.len() != announced {
            return Err(ProtoError::bad(format!(
                "trace announced {announced} spans but carried {}",
                events.len()
            )));
        }
        Ok(Self::Trace { events })
    }

    fn assemble_stats(body: &[String]) -> Result<Self, ProtoError> {
        let mut report = StatsReport::default();
        for line in body {
            let mut tokens = line.split_whitespace();
            match tokens.next() {
                Some("STAT") => {
                    let kv = KvTokens::collect(tokens)?;
                    report.ops.push(OpStatLine {
                        op: kv.req("op")?.to_string(),
                        count: kv.req_parse("count")?,
                        errors: kv.req_parse("err")?,
                        p50_us: kv.req_parse("p50_us")?,
                        p95_us: kv.req_parse("p95_us")?,
                        p99_us: kv.req_parse("p99_us")?,
                        max_us: kv.req_parse("max_us")?,
                    });
                }
                Some("COUNTERS") => {
                    let kv = KvTokens::collect(tokens)?;
                    report.counters_total = (
                        kv.req_parse("node_reads")?,
                        kv.req_parse("record_page_reads")?,
                        kv.req_parse("record_fetches")?,
                    );
                    report.counters_delta = (
                        kv.req_parse("d_node_reads")?,
                        kv.req_parse("d_record_page_reads")?,
                        kv.req_parse("d_record_fetches")?,
                    );
                }
                Some("SHARD") => {
                    let kv = KvTokens::collect(tokens)?;
                    report.shards.push(ShardStatLine {
                        id: kv.req_parse("id")?,
                        seqs: kv.req_parse("seqs")?,
                        node_reads: kv.req_parse("node_reads")?,
                        record_page_reads: kv.req_parse("record_page_reads")?,
                        record_fetches: kv.req_parse("record_fetches")?,
                    });
                }
                Some("WAL") => {
                    let kv = KvTokens::collect(tokens)?;
                    report.wal = Some(WalStatLine {
                        appends: kv.req_parse("appends")?,
                        fsyncs: kv.req_parse("fsyncs")?,
                        replayed: kv.req_parse("replayed")?,
                        epoch: kv.req_parse("epoch")?,
                    });
                }
                Some("PLAN") => {
                    let kv = KvTokens::collect(tokens)?;
                    report.plan = Some(PlanStatLine {
                        built: kv.req_parse("built")?,
                        cache_hits: kv.req_parse("cache_hits")?,
                        cache_misses: kv.req_parse("cache_misses")?,
                        cache_evictions: kv.req_parse("cache_evictions")?,
                        cache_entries: kv.req_parse("cache_entries")?,
                        mt: kv.req_parse("mt")?,
                        st: kv.req_parse("st")?,
                        scan: kv.req_parse("scan")?,
                    });
                }
                Some("REPL") => {
                    let kv = KvTokens::collect(tokens)?;
                    report.repl = Some(ReplStatLine {
                        role: kv.req("role")?.to_string(),
                        followers: kv.req_parse("followers")?,
                        acked_lsn: kv.req_parse("acked_lsn")?,
                        applied_lsn: kv.req_parse("applied_lsn")?,
                        lag: kv.req_parse("lag")?,
                        bytes: kv.req_parse("bytes")?,
                        epoch: kv.req_parse("epoch")?,
                    });
                }
                Some("SERVER") => {
                    let kv = KvTokens::collect(tokens)?;
                    report.busy_rejected = kv.req_parse("busy_rejected")?;
                    report.connections = kv.req_parse("connections")?;
                }
                other => {
                    return Err(ProtoError::bad(format!("unexpected stats line {other:?}")));
                }
            }
        }
        Ok(Self::Stats(Box::new(report)))
    }
}

/// Parses a homogeneous `<PREFIX> k=v` body (INFO/PLAN payloads).
fn assemble_kv_body(body: &[String], prefix: &str) -> Result<Vec<(String, String)>, ProtoError> {
    let tag = prefix.trim_end();
    let mut pairs = Vec::new();
    for line in body {
        let rest = line
            .strip_prefix(prefix)
            .ok_or_else(|| ProtoError::bad(format!("mixed {tag} body")))?;
        let (k, v) = rest
            .split_once('=')
            .ok_or_else(|| ProtoError::bad(format!("{tag} line without =")))?;
        pairs.push((k.to_string(), v.to_string()));
    }
    Ok(pairs)
}

/// Joins values with commas in Rust's shortest round-trip formatting —
/// the same representation `INSERT data=` uses, so a replicated value is
/// bit-identical on both ends.
fn join_floats(values: &[f64]) -> String {
    let out: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    out.join(",")
}

fn parse_floats(data: &str) -> Result<Vec<f64>, ProtoError> {
    let values = parse_floats_or_empty(data)?;
    if values.is_empty() {
        return Err(ProtoError::bad("data= must be non-empty"));
    }
    Ok(values)
}

/// Like [`parse_floats`] but an empty `data=` token decodes to an empty
/// list. `FRAME`/`SNAP` lines use this: `WalOp::Insert` with no values
/// is legal at the WAL layer (it allocates an ordinal for a degenerate
/// series), and `join_floats(&[])` encodes it as the empty string, so
/// the replication stream must round-trip it rather than wedge on it.
/// Client-facing `INSERT` keeps the strict non-empty rule.
fn parse_floats_or_empty(data: &str) -> Result<Vec<f64>, ProtoError> {
    if data.is_empty() {
        return Ok(Vec::new());
    }
    let values: Result<Vec<f64>, _> = data.split(',').map(str::parse).collect();
    values.map_err(|_| ProtoError::bad("data= must be comma-separated floats"))
}

fn write_metrics(w: &mut impl Write, m: &WireMetrics) -> io::Result<()> {
    writeln!(
        w,
        "METRICS nodes={} fetches={} cmps={} cands={} wall_us={}",
        m.nodes, m.fetches, m.cmps, m.cands, m.wall_us
    )
}

fn read_line(r: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    let n = r.read_line(&mut line)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    while line.ends_with(['\n', '\r']) {
        line.pop();
    }
    Ok(line)
}

/// A protocol-level failure (bad verb, missing key, malformed value).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError(String);

impl ProtoError {
    fn bad(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ProtoError {}

/// Collected `key=value` tokens of one line, each with a mark set once
/// a getter has read it.
struct KvTokens<'a>(Vec<(&'a str, &'a str, Cell<bool>)>);

impl<'a> KvTokens<'a> {
    fn collect(tokens: impl Iterator<Item = &'a str>) -> Result<Self, ProtoError> {
        let mut kv = Vec::new();
        for t in tokens {
            let (k, v) = t
                .split_once('=')
                .ok_or_else(|| ProtoError::bad(format!("token `{t}` is not key=value")))?;
            kv.push((k, v, Cell::new(false)));
        }
        Ok(Self(kv))
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        let (_, v, read) = self.0.iter().find(|(k, ..)| *k == key)?;
        read.set(true);
        Some(v)
    }

    /// Requests only (responses stay lenient, so new keys reach old
    /// clients): fails on a key given twice or one `verb` never read.
    fn reject_unread(&self, verb: &str) -> Result<(), ProtoError> {
        for (i, (k, _, read)) in self.0.iter().enumerate() {
            if self.0[..i].iter().any(|(earlier, ..)| earlier == k) {
                return Err(ProtoError::bad(format!("{k}= given twice")));
            }
            if !read.get() {
                return Err(ProtoError::bad(format!("{verb} takes no {k}=")));
            }
        }
        Ok(())
    }

    fn req(&self, key: &str) -> Result<&'a str, ProtoError> {
        self.get(key)
            .ok_or_else(|| ProtoError::bad(format!("missing {key}=")))
    }

    fn req_parse<T: std::str::FromStr>(&self, key: &str) -> Result<T, ProtoError> {
        self.req(key)?
            .parse()
            .map_err(|_| ProtoError::bad(format!("bad value for {key}=")))
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ProtoError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ProtoError::bad(format!("bad value for {key}="))),
        }
    }

    /// Parses `key=lo..hi` (inclusive endpoints).
    fn range_or(&self, key: &str, default: (usize, usize)) -> Result<(usize, usize), ProtoError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => {
                let (lo, hi) = raw
                    .split_once("..")
                    .ok_or_else(|| ProtoError::bad(format!("{key}= must be lo..hi")))?;
                let lo: usize = lo
                    .parse()
                    .map_err(|_| ProtoError::bad(format!("bad lower bound in {key}=")))?;
                let hi: usize = hi
                    .parse()
                    .map_err(|_| ProtoError::bad(format!("bad upper bound in {key}=")))?;
                if lo == 0 || hi < lo {
                    return Err(ProtoError::bad(format!("{key}= needs 1 ≤ lo ≤ hi")));
                }
                Ok((lo, hi))
            }
        }
    }

    fn threshold(&self) -> Result<WireThreshold, ProtoError> {
        // Validated here, not at execution: RangeSpec::correlation asserts
        // its range and a request must never panic while it runs. The
        // validation itself lives in `Threshold::parse_args`, shared with
        // the CLI front end.
        match Threshold::parse_args(self.get("rho"), self.get("eps"))
            .map_err(|e| ProtoError::bad(e.to_string()))?
        {
            Some(Threshold::Correlation(rho)) => Ok(WireThreshold::Rho(rho)),
            Some(Threshold::Euclidean(eps)) => Ok(WireThreshold::Eps(eps)),
            None => Ok(WireThreshold::default()),
        }
    }

    fn engine(&self) -> Result<EngineKind, ProtoError> {
        match self.get("engine") {
            None => Ok(EngineKind::default()),
            Some(s) => EngineKind::parse(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip_request(req: Request) {
        let line = req.to_line();
        assert_eq!(Request::parse(&line).unwrap(), req, "line: {line}");
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Query(QueryParams {
            ord: 42,
            ma: (5, 34),
            threshold: WireThreshold::Rho(0.96),
            engine: EngineKind::Mt,
            limit: 10,
        }));
        round_trip_request(Request::Query(QueryParams {
            ord: 0,
            ma: (1, 1),
            threshold: WireThreshold::Eps(2.5),
            engine: EngineKind::Scan,
            limit: 0,
        }));
        round_trip_request(Request::Knn {
            ord: 7,
            k: 5,
            ma: (2, 20),
        });
        round_trip_request(Request::Join {
            ma: (5, 14),
            threshold: WireThreshold::Rho(0.99),
            engine: EngineKind::St,
            limit: 3,
        });
        round_trip_request(Request::Insert {
            values: vec![1.0, -2.5, 3.25],
        });
        round_trip_request(Request::Delete { ord: 9 });
        round_trip_request(Request::Sync);
        round_trip_request(Request::Checkpoint);
        round_trip_request(Request::Info);
        round_trip_request(Request::Stats { reset: true });
        round_trip_request(Request::Stats { reset: false });
        round_trip_request(Request::Metrics);
        round_trip_request(Request::Trace { n: 25 });
        round_trip_request(Request::Quit);
        round_trip_request(Request::Query(QueryParams {
            ord: 5,
            engine: EngineKind::Auto,
            ..QueryParams::default()
        }));
        round_trip_request(Request::Explain {
            inner: Box::new(Request::Query(QueryParams {
                ord: 2,
                engine: EngineKind::Auto,
                ..QueryParams::default()
            })),
        });
        round_trip_request(Request::Explain {
            inner: Box::new(Request::Knn {
                ord: 1,
                k: 3,
                ma: (1, 8),
            }),
        });
        round_trip_request(Request::Repl {
            epoch: 3,
            from: 17,
            ack: 16,
            max: 256,
            wait_ms: 500,
        });
        round_trip_request(Request::Promote);
    }

    #[test]
    fn repl_request_defaults_fill_in() {
        assert_eq!(
            Request::parse("REPL epoch=1 from=5").unwrap(),
            Request::Repl {
                epoch: 1,
                from: 5,
                ack: 0,
                max: 0,
                wait_ms: 0,
            }
        );
        assert!(Request::parse("REPL from=5").is_err(), "epoch is required");
        assert!(Request::parse("REPL epoch=1").is_err(), "from is required");
    }

    #[test]
    fn defaults_fill_in() {
        let r = Request::parse("QUERY ord=3").unwrap();
        assert_eq!(
            r,
            Request::Query(QueryParams {
                ord: 3,
                ..QueryParams::default()
            })
        );
    }

    #[test]
    fn malformed_requests_rejected() {
        for bad in [
            "",
            "FROB ord=1",
            "QUERY",                       // missing ord
            "QUERY ord=x",                 // bad number
            "QUERY ord=1 ma=5",            // not a range
            "QUERY ord=1 ma=0..4",         // lo must be ≥ 1
            "QUERY ord=1 ma=9..4",         // hi < lo
            "QUERY ord=1 rho=a",           // bad float
            "QUERY ord=1 rho=0.9 eps=1",   // both thresholds
            "QUERY ord=1 engine=quantum",  // unknown engine
            "QUERY ord=1 junk",            // token without =
            "QUERY ord=1 rh0=0.99",        // a key QUERY does not read
            "QUERY ord=1 ord=2",           // a key given twice
            "KNN ord=1 k=3 engine=mt",     // read by QUERY, not by KNN
            "INFO verbose=yes",            // verbs without keys take none
            "STATS reset=true",            // reset= is yes|no
            "KNN ord=1",                   // missing k
            "INSERT",                      // missing data
            "INSERT data=1,x,3",           // bad float in data
            "INSERT data=",                // empty data
            "DELETE",                      // missing ord
            "QUERY ord=1 rho=2",           // rho outside [-1, 1]
            "QUERY ord=1 rho=-1.5",        // rho outside [-1, 1]
            "JOIN rho=1.01",               // rho validated on JOIN too
            "QUERY ord=1 eps=-3",          // negative eps
            "QUERY ord=1 eps=nan",         // non-finite eps
            "EXPLAIN",                     // nothing to explain
            "EXPLAIN INFO",                // only query verbs are plannable
            "EXPLAIN EXPLAIN QUERY ord=1", // no nesting
        ] {
            assert!(Request::parse(bad).is_err(), "should reject `{bad}`");
        }
        let stray = Request::parse("QUERY ord=1 rh0=0.99").unwrap_err();
        assert!(stray.to_string().contains("rh0="), "names the key: {stray}");
        assert!(Request::parse("STATS reset=no").is_ok());
    }

    fn round_trip_response(resp: Response) {
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let got = Response::read_from(&mut Cursor::new(buf)).unwrap();
        assert_eq!(got, resp);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Matches {
            n: 2,
            matches: vec![
                WireMatch {
                    seq: 1,
                    transform: 3,
                    dist: 0.5,
                },
                WireMatch {
                    seq: 9,
                    transform: 0,
                    dist: 1.25,
                },
            ],
            metrics: WireMetrics {
                nodes: 10,
                fetches: 20,
                cmps: 30,
                cands: 5,
                wall_us: 123,
            },
        });
        round_trip_response(Response::Pairs {
            n: 1,
            pairs: vec![WirePair {
                a: 0,
                b: 4,
                transform: 2,
                dist: 2.5,
            }],
            metrics: WireMetrics::default(),
        });
        round_trip_response(Response::Inserted { ord: 100 });
        round_trip_response(Response::Deleted { existed: true });
        round_trip_response(Response::Deleted { existed: false });
        round_trip_response(Response::Info(vec![
            ("sequences".into(), "100".into()),
            ("seq_len".into(), "128".into()),
        ]));
        round_trip_response(Response::Stats(Box::new(StatsReport {
            ops: vec![OpStatLine {
                op: "query".into(),
                count: 50,
                errors: 1,
                p50_us: 128,
                p95_us: 512,
                p99_us: 1024,
                max_us: 4096,
            }],
            busy_rejected: 3,
            connections: 8,
            counters_total: (100, 200, 300),
            counters_delta: (10, 20, 30),
            shards: vec![
                ShardStatLine {
                    id: 0,
                    seqs: 60,
                    node_reads: 70,
                    record_page_reads: 80,
                    record_fetches: 90,
                },
                ShardStatLine {
                    id: 1,
                    seqs: 40,
                    node_reads: 30,
                    record_page_reads: 120,
                    record_fetches: 210,
                },
            ],
            wal: Some(WalStatLine {
                appends: 12,
                fsyncs: 4,
                replayed: 7,
                epoch: 3,
            }),
            plan: Some(PlanStatLine {
                built: 42,
                cache_hits: 9,
                cache_misses: 33,
                cache_evictions: 2,
                cache_entries: 7,
                mt: 25,
                st: 10,
                scan: 7,
            }),
            repl: Some(ReplStatLine {
                role: "primary".into(),
                followers: 2,
                acked_lsn: 17,
                applied_lsn: 0,
                lag: 3,
                bytes: 4096,
                epoch: 3,
            }),
        })));
        round_trip_response(Response::Checkpointed { epoch: 5 });
        // Promoted carries an epoch too; the promoted= marker keeps it
        // from collapsing into Checkpointed on the way back.
        round_trip_response(Response::Promoted { epoch: 6 });
        round_trip_response(Response::ReplFrames {
            epoch: 2,
            end: 10,
            frames: vec![
                WalOp::Insert {
                    lsn: 8,
                    global: 4,
                    shard: 0,
                    values: vec![1.5, -0.25, 3.0],
                },
                WalOp::Delete {
                    lsn: 9,
                    global: 2,
                    shard: 3,
                },
            ],
        });
        round_trip_response(Response::ReplFrames {
            epoch: 0,
            end: 1,
            frames: vec![],
        });
        round_trip_response(Response::ReplSnapshot {
            epoch: 3,
            next: 42,
            seq_len: 4,
            entries: vec![
                SnapEntry {
                    ord: 0,
                    live: true,
                    values: vec![0.5, 1.0, 1.5, 2.0],
                },
                SnapEntry {
                    ord: 1,
                    live: false,
                    values: vec![-1.0, 0.0, 1.0, 2.0],
                },
            ],
        });
        round_trip_response(Response::Ok);
        round_trip_response(Response::Plan(vec![
            ("verb".into(), "query".into()),
            ("engine".into(), "mt".into()),
            ("partitions".into(), "4".into()),
            ("est_pages".into(), "120".into()),
            ("pages".into(), "97".into()),
        ]));
    }

    #[test]
    fn trace_request_defaults_to_100_spans() {
        assert_eq!(Request::parse("TRACE").unwrap(), Request::Trace { n: 100 });
    }

    #[test]
    fn observability_responses_round_trip() {
        // Exposition lines are free-form text (braces, quotes, spaces) —
        // they must pass through untouched, not be fed to a kv parser.
        round_trip_response(Response::Metrics {
            lines: vec![
                "simseq_op_total{op=\"query\"} 6".into(),
                "simseq_op_latency_us{op=\"query\",quantile=\"0.95\"} 512".into(),
                "simseq_connections_total 2".into(),
            ],
        });
        round_trip_response(Response::Metrics { lines: vec![] });
        round_trip_response(Response::Trace {
            events: vec![
                WireTraceEvent {
                    seq: 1,
                    trace: 7,
                    name: "plan.execute".into(),
                    depth: 1,
                    start_us: 10,
                    dur_us: 250,
                },
                WireTraceEvent {
                    seq: 2,
                    trace: 7,
                    name: "shard.gather".into(),
                    depth: 0,
                    start_us: 5,
                    dur_us: 400,
                },
            ],
        });
        round_trip_response(Response::Trace { events: vec![] });
    }

    #[test]
    fn metrics_body_must_match_announced_line_count() {
        let input = b"OK metrics=prom lines=2\nsimseq_connections_total 1\nEND\n".to_vec();
        assert!(Response::read_from(&mut Cursor::new(input)).is_err());
    }

    #[test]
    fn empty_value_lists_round_trip_on_the_replication_stream() {
        // `WalOp::Insert { values: vec![] }` is legal at the WAL layer
        // (a degenerate series still claims its ordinal), so the
        // FRAME/SNAP encoding must carry it — an empty `data=` token —
        // without wedging the follower's parser.
        round_trip_response(Response::ReplFrames {
            epoch: 1,
            end: 3,
            frames: vec![WalOp::Insert {
                lsn: 2,
                global: 5,
                shard: 0,
                values: vec![],
            }],
        });
        round_trip_response(Response::ReplSnapshot {
            epoch: 1,
            next: 3,
            seq_len: 8,
            entries: vec![SnapEntry {
                ord: 0,
                live: true,
                values: vec![],
            }],
        });
        // The client-facing strict rule is untouched: an empty INSERT
        // is still refused at the door.
        assert!(Request::parse("INSERT data=").is_err());
    }

    #[test]
    fn error_frames_round_trip_with_spaces_in_message() {
        for (code, msg) in [
            (ErrCode::Busy, "request queue full (depth 64)"),
            (ErrCode::BadRequest, "token `junk` is not key=value"),
            (ErrCode::Range, "ordinal 9 out of range"),
            (ErrCode::Query, "family built for length 32, index holds 64"),
            (
                ErrCode::Io,
                "page access failed: read of P7 failed: i/o error",
            ),
            (ErrCode::Server, ""),
            (
                ErrCode::ReadOnly,
                "follower is read-only; write to the primary",
            ),
        ] {
            round_trip_response(Response::Err {
                code,
                msg: msg.into(),
            });
        }
    }

    #[test]
    fn truncated_response_is_an_error() {
        let input = b"OK n=1\nMATCH seq=1 t=0 dist=0.5\n".to_vec(); // no END
        let err = Response::read_from(&mut Cursor::new(input)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn empty_matches_response_stays_matches() {
        // No body lines and n=0 must parse as Matches, not Ok.
        let mut buf = Vec::new();
        Response::Matches {
            n: 0,
            matches: vec![],
            metrics: WireMetrics::default(),
        }
        .write_to(&mut buf)
        .unwrap();
        let got = Response::read_from(&mut Cursor::new(buf)).unwrap();
        assert!(matches!(got, Response::Matches { n: 0, .. }));
    }
}
