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

/// The longest `{}` rendering of a finite `f64`, the shortest round-trip
/// form `INSERT data=` carries: `-0.` and 324 decimals (a negative number
/// below `1e-307` with 17 significant digits, or a subnormal).
const F64_TEXT_MAX: usize = 327;

/// The longest request line a server of `seq_len`-sample sequences reads,
/// in bytes with its line end: room for an `INSERT` of `seq_len` values
/// each of the longest rendering, plus 4 KiB for the verb, the keys and
/// every other request. A longer line answers `ERR code=BADREQ`.
pub fn max_request_line(seq_len: usize) -> usize {
    4096 + seq_len * (F64_TEXT_MAX + 1)
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
    /// The server's one counter report: every registered instrument and
    /// backend counter, one `name{labels} value` line per series.
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

/// The `ERR code=BADREQ` message a `STATS` line is answered with.
pub(crate) const STATS_REMOVED: &str = "STATS is gone: METRICS reports every counter";

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
            "STATS" => Err(ProtoError::bad(STATS_REMOVED)),
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

/// One `SNAP` line of a snapshot-transfer response: a stored sequence,
/// the shard it lives on, and whether it is live or tombstoned.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapEntry {
    /// Global ordinal.
    pub ord: u64,
    /// Shard of the ordinal on the primary (`0` when the line omits it).
    pub shard: usize,
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
        /// Shards of the primary's group (`1` when the header omits it).
        shards: usize,
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
                shards,
                entries,
            } => {
                writeln!(
                    w,
                    "OK repl=snapshot epoch={epoch} next={next} seq_len={seq_len} \
                     shards={shards} count={}",
                    entries.len()
                )?;
                for e in entries {
                    writeln!(
                        w,
                        "SNAP ord={} shard={} live={} data={}",
                        e.ord,
                        e.shard,
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
        Self::read_with(r, &mut String::new())
    }

    /// [`Response::read_from`] into `buf`, a caller's buffer reused from
    /// one response to the next: the whole response is read into it, and
    /// its lines are parsed as borrowed slices.
    pub(crate) fn read_with(r: &mut impl BufRead, buf: &mut String) -> io::Result<Self> {
        buf.clear();
        let status_end = read_line(r, buf)?;
        let body_start = buf.len();
        loop {
            let start = buf.len();
            let len = read_line(r, buf)?;
            if trim_eol(&buf[start..start + len]) == "END" {
                let body = &buf[body_start..start];
                return Self::assemble(trim_eol(&buf[..status_end]), body)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
            }
        }
    }

    fn assemble(status: &str, body: &str) -> Result<Self, ProtoError> {
        // Reply lines split on ASCII whitespace (the server writes single
        // spaces); requests keep `split_whitespace`.
        let mut tokens = status.split_ascii_whitespace();
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
                    let carried = lines(body).count();
                    if carried != announced {
                        return Err(ProtoError::bad(format!(
                            "metrics announced lines={announced} but carried {carried}"
                        )));
                    }
                    Ok(Self::Metrics {
                        lines: lines(body).map(str::to_string).collect(),
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
                } else if lines(body).any(|l| l.starts_with("INFO ")) {
                    Ok(Self::Info(assemble_kv_body(body, "INFO ")?))
                } else if lines(body).any(|l| l.starts_with("PLAN ")) {
                    Ok(Self::Plan(assemble_kv_body(body, "PLAN ")?))
                } else {
                    Ok(Self::Ok)
                }
            }
            _ => Err(ProtoError::bad(format!("bad status line `{status}`"))),
        }
    }

    fn assemble_result(n: usize, body: &str) -> Result<Self, ProtoError> {
        let mut matches = Vec::new();
        let mut pairs = Vec::new();
        let mut metrics = WireMetrics::default();
        for line in lines(body) {
            let mut tokens = line.split_ascii_whitespace();
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

    fn assemble_repl(kind: &str, kv: &KvTokens, body: &str) -> Result<Self, ProtoError> {
        match kind {
            "frames" => {
                let mut frames = Vec::new();
                for line in lines(body) {
                    let mut tokens = line.split_ascii_whitespace();
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
                for line in lines(body) {
                    let mut tokens = line.split_ascii_whitespace();
                    if tokens.next() != Some("SNAP") {
                        return Err(ProtoError::bad(format!("unexpected repl line `{line}`")));
                    }
                    let skv = KvTokens::collect(tokens)?;
                    entries.push(SnapEntry {
                        ord: skv.req_parse("ord")?,
                        shard: skv.parse_or("shard", 0)?,
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
                    shards: kv.parse_or("shards", 1)?,
                    entries,
                })
            }
            other => Err(ProtoError::bad(format!("unknown repl payload `{other}`"))),
        }
    }

    fn assemble_trace(kv: &KvTokens, body: &str) -> Result<Self, ProtoError> {
        let announced: usize = kv.req_parse("trace")?;
        let mut events = Vec::new();
        for line in lines(body) {
            let mut tokens = line.split_ascii_whitespace();
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
}

/// Parses a homogeneous `<PREFIX> k=v` body (INFO/PLAN payloads).
fn assemble_kv_body(body: &str, prefix: &str) -> Result<Vec<(String, String)>, ProtoError> {
    let tag = prefix.trim_end();
    let mut pairs = Vec::new();
    for line in lines(body) {
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

/// Appends one line (with its end of line) to `buf`; returns its length.
fn read_line(r: &mut impl BufRead, buf: &mut String) -> io::Result<usize> {
    match r.read_line(buf)? {
        0 => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        )),
        n => Ok(n),
    }
}

fn trim_eol(line: &str) -> &str {
    line.trim_end_matches(['\n', '\r'])
}

/// The lines of a response body, each without its end of line.
fn lines(body: &str) -> impl Iterator<Item = &str> {
    body.split_terminator('\n').map(trim_eol)
}

/// A protocol-level failure (bad verb, missing key, malformed value).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError(String);

impl ProtoError {
    pub(crate) fn bad(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ProtoError {}

/// Tokens a line holds without [`KvTokens`] allocating: more than any
/// verb or reply line carries.
const KV_INLINE: usize = 8;

/// Collected `key=value` tokens of one line, borrowed from it, each with a
/// mark set once a getter has read it. Up to [`KV_INLINE`] live on the
/// stack, so a reply line decodes without an allocation; a longer line
/// moves them all to the heap.
struct KvTokens<'a> {
    inline: [Kv<'a>; KV_INLINE],
    len: usize,
    spilled: Vec<Kv<'a>>,
}

type Kv<'a> = (&'a str, &'a str, Cell<bool>);

impl<'a> KvTokens<'a> {
    fn collect(tokens: impl Iterator<Item = &'a str>) -> Result<Self, ProtoError> {
        let mut kv = Self {
            inline: Default::default(),
            len: 0,
            spilled: Vec::new(),
        };
        for t in tokens {
            let (k, v) = t
                .split_once('=')
                .ok_or_else(|| ProtoError::bad(format!("token `{t}` is not key=value")))?;
            if kv.len < KV_INLINE {
                kv.inline[kv.len] = (k, v, Cell::new(false));
            } else {
                if kv.len == KV_INLINE {
                    kv.spilled.extend_from_slice(&kv.inline);
                }
                kv.spilled.push((k, v, Cell::new(false)));
            }
            kv.len += 1;
        }
        Ok(kv)
    }

    fn entries(&self) -> &[Kv<'a>] {
        if self.len > KV_INLINE {
            &self.spilled
        } else {
            &self.inline[..self.len]
        }
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        let (_, v, read) = self.entries().iter().find(|(k, ..)| *k == key)?;
        read.set(true);
        Some(v)
    }

    /// Requests only (responses stay lenient, so new keys reach old
    /// clients): fails on a key given twice or one `verb` never read.
    fn reject_unread(&self, verb: &str) -> Result<(), ProtoError> {
        let entries = self.entries();
        for (i, (k, _, read)) in entries.iter().enumerate() {
            if entries[..i].iter().any(|(earlier, ..)| earlier == k) {
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
            "STATS reset=yes",             // gone: METRICS never resets
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
        let stats = Request::parse("STATS").unwrap_err();
        assert!(stats.to_string().contains("METRICS"), "points on: {stats}");
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
            shards: 2,
            entries: vec![
                SnapEntry {
                    ord: 0,
                    shard: 1,
                    live: true,
                    values: vec![0.5, 1.0, 1.5, 2.0],
                },
                SnapEntry {
                    ord: 1,
                    shard: 0,
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
            shards: 1,
            entries: vec![SnapEntry {
                ord: 0,
                shard: 0,
                live: true,
                values: vec![],
            }],
        });
        // The client-facing strict rule is untouched: an empty INSERT
        // is still refused at the door.
        assert!(Request::parse("INSERT data=").is_err());
    }

    /// A snapshot header without `shards=` reads as one shard and a `SNAP`
    /// line without `shard=` as shard 0, like a `FRAME` line.
    #[test]
    fn snapshot_placement_keys_default_to_one_shard() {
        let input = b"OK repl=snapshot epoch=2 next=5 seq_len=2 count=1\n\
            SNAP ord=0 live=yes data=1,2\nEND\n";
        let want = Response::ReplSnapshot {
            epoch: 2,
            next: 5,
            seq_len: 2,
            shards: 1,
            entries: vec![SnapEntry {
                ord: 0,
                shard: 0,
                live: true,
                values: vec![1.0, 2.0],
            }],
        };
        assert_eq!(Response::read_from(&mut &input[..]).unwrap(), want);
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
    fn reply_keys_are_order_free_and_unknown_ones_ignored() {
        // More keys than a line holds on the stack, in another order, with
        // keys this build does not know and a CRLF line end.
        let input = b"OK n=2 shard=0\r\n\
            MATCH dist=0.5 x1=a x2=b x3=c x4=d x5=e t=3 x6=f seq=1\n\
            MATCH t=0 seq=9 dist=1.25\n\
            METRICS wall_us=7 cands=5 cmps=4 fetches=3 nodes=2 later=1\n\
            END\n";
        let got = Response::read_from(&mut &input[..]).unwrap();
        let want = Response::Matches {
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
                nodes: 2,
                fetches: 3,
                cmps: 4,
                cands: 5,
                wall_us: 7,
            },
        };
        assert_eq!(got, want);
        // Requests stay strict past the stack-held tokens too.
        let many = "QUERY ord=1 ma=1..8 rho=0.9 engine=mt limit=1 a=1 b=2 c=3 d=4";
        let e = Request::parse(many).unwrap_err();
        assert_eq!(e.to_string(), "QUERY takes no a=");
        let twice = "QUERY ord=1 ma=1..8 rho=0.9 engine=mt limit=1 ord=2 b=2 c=3 d=4";
        let e = Request::parse(twice).unwrap_err();
        assert_eq!(e.to_string(), "ord= given twice");
        let e = Request::parse("QUERY ord=1 ma=1..8 rho=0.9 engine=mt limit=1 x y").unwrap_err();
        assert_eq!(e.to_string(), "token `x` is not key=value");
    }

    #[test]
    fn the_longest_insert_fits_the_line_bound() {
        // The longest renderings: below 1e-307 with 17 digits, subnormal.
        for v in [-f64::MIN_POSITIVE, -5e-324, -4.3087481344686126e-308] {
            assert_eq!(v.to_string().len(), F64_TEXT_MAX, "{v:e}");
        }
        assert!(f64::MIN.to_string().len() < F64_TEXT_MAX);
        for seq_len in [1, 64, 128, 1024] {
            let line = Request::Insert {
                values: vec![-f64::MIN_POSITIVE; seq_len],
            }
            .to_line();
            assert!(line.len() + "\r\n".len() <= max_request_line(seq_len));
            assert!(max_request_line(seq_len) - line.len() <= 4096 + 2);
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
