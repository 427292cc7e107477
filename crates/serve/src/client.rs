//! A typed blocking client for the `simserved` protocol.

use crate::expose::{self, StatsReport};
use crate::protocol::{
    ErrCode, QueryParams, Request, Response, WireMatch, WirePair, WireTraceEvent, STATS_REMOVED,
};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Socket timeouts of one [`Client`] connection. A zero duration
/// disables that timeout (block forever — the pre-failover behaviour).
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// TCP connect budget.
    pub connect_timeout: Duration,
    /// Per-read budget. Must exceed the server's `REPL` long-poll
    /// `wait_ms` on a follower connection, or idle polls time out.
    pub read_timeout: Duration,
    /// Per-write budget.
    pub write_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
        }
    }
}

impl ClientConfig {
    /// All three timeouts set to `ms` milliseconds (`0` disables them
    /// all) — the shape `--timeout-ms` maps onto.
    pub fn with_timeout_ms(ms: u64) -> Self {
        let d = Duration::from_millis(ms);
        Self {
            connect_timeout: d,
            read_timeout: d,
            write_timeout: d,
        }
    }
}

/// Capacity of the reply buffer a [`Client`] keeps between calls, bytes.
const REPLY_KEEP: usize = 1 << 16;

/// One connection to a `simserved` instance.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Every response is read into this one buffer.
    reply: String,
}

impl Client {
    /// Connects with the default timeouts ([`ClientConfig::default`]):
    /// a hung or partitioned server surfaces as `TimedOut`/`WouldBlock`
    /// instead of stalling the caller forever.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit timeouts.
    pub fn connect_with(addr: impl ToSocketAddrs, cfg: ClientConfig) -> io::Result<Self> {
        let stream = if cfg.connect_timeout.is_zero() {
            TcpStream::connect(&addr)?
        } else {
            // `connect_timeout` wants resolved addresses; try each in
            // resolution order and keep the last failure for the error.
            let mut last: Option<io::Error> = None;
            let mut connected = None;
            for a in addr.to_socket_addrs()? {
                match TcpStream::connect_timeout(&a, cfg.connect_timeout) {
                    Ok(s) => {
                        connected = Some(s);
                        break;
                    }
                    Err(e) => last = Some(e),
                }
            }
            connected.ok_or_else(|| {
                last.unwrap_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
                })
            })?
        };
        stream.set_nodelay(true).ok();
        let opt = |d: Duration| if d.is_zero() { None } else { Some(d) };
        stream.set_read_timeout(opt(cfg.read_timeout))?;
        stream.set_write_timeout(opt(cfg.write_timeout))?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            reply: String::new(),
        })
    }

    /// Sends one request and reads its full response.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        writeln!(self.writer, "{}", request.to_line())?;
        self.writer.flush()?;
        self.read_reply()
    }

    /// Sends a raw line verbatim (testing malformed input) and reads the
    /// response.
    pub fn call_raw(&mut self, line: &str) -> io::Result<Response> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> io::Result<Response> {
        let response = Response::read_with(&mut self.reader, &mut self.reply);
        // A snapshot transfer can be megabytes; do not hold on to it.
        if self.reply.capacity() > REPLY_KEEP {
            self.reply = String::new();
        }
        response
    }

    /// `QUERY` — returns `(total, matches)` or the error frame.
    pub fn query(
        &mut self,
        params: QueryParams,
    ) -> io::Result<Result<(usize, Vec<WireMatch>), Response>> {
        match self.call(&Request::Query(params))? {
            Response::Matches { n, matches, .. } => Ok(Ok((n, matches))),
            other => Ok(Err(other)),
        }
    }

    /// `KNN`.
    pub fn knn(
        &mut self,
        ord: usize,
        k: usize,
        ma: (usize, usize),
    ) -> io::Result<Result<Vec<WireMatch>, Response>> {
        match self.call(&Request::Knn { ord, k, ma })? {
            Response::Matches { matches, .. } => Ok(Ok(matches)),
            other => Ok(Err(other)),
        }
    }

    /// `JOIN` — an empty result legitimately parses as `Matches { n: 0 }`.
    pub fn join(
        &mut self,
        ma: (usize, usize),
        threshold: crate::protocol::WireThreshold,
    ) -> io::Result<Result<(usize, Vec<WirePair>), Response>> {
        let req = Request::Join {
            ma,
            threshold,
            engine: Default::default(),
            limit: 0,
        };
        match self.call(&req)? {
            Response::Pairs { n, pairs, .. } => Ok(Ok((n, pairs))),
            Response::Matches { n: 0, .. } => Ok(Ok((0, Vec::new()))),
            other => Ok(Err(other)),
        }
    }

    /// `INSERT` — the assigned ordinal.
    pub fn insert(&mut self, values: Vec<f64>) -> io::Result<Result<usize, Response>> {
        match self.call(&Request::Insert { values })? {
            Response::Inserted { ord } => Ok(Ok(ord)),
            other => Ok(Err(other)),
        }
    }

    /// `DELETE` — whether the ordinal was live.
    pub fn delete(&mut self, ord: usize) -> io::Result<Result<bool, Response>> {
        match self.call(&Request::Delete { ord })? {
            Response::Deleted { existed } => Ok(Ok(existed)),
            other => Ok(Err(other)),
        }
    }

    /// `SYNC` — forces the server's WAL(s) to stable storage.
    pub fn sync(&mut self) -> io::Result<Result<(), Response>> {
        match self.call(&Request::Sync)? {
            Response::Ok => Ok(Ok(())),
            other => Ok(Err(other)),
        }
    }

    /// `CHECKPOINT` — the new epoch.
    pub fn checkpoint(&mut self) -> io::Result<Result<u64, Response>> {
        match self.call(&Request::Checkpoint)? {
            Response::Checkpointed { epoch } => Ok(Ok(epoch)),
            other => Ok(Err(other)),
        }
    }

    /// `PROMOTE` — flips a follower server to primary; returns the new
    /// fencing epoch.
    pub fn promote(&mut self) -> io::Result<Result<u64, Response>> {
        match self.call(&Request::Promote)? {
            Response::Promoted { epoch } => Ok(Ok(epoch)),
            other => Ok(Err(other)),
        }
    }

    /// `INFO` as key/value pairs.
    pub fn info(&mut self) -> io::Result<Result<Vec<(String, String)>, Response>> {
        match self.call(&Request::Info)? {
            Response::Info(pairs) => Ok(Ok(pairs)),
            other => Ok(Err(other)),
        }
    }

    /// Op counts, admission rejections and planner counters, decoded from
    /// one `METRICS` reading ([`expose::decode`]). `reset` is answered
    /// with the `ERR code=BADREQ` a server gives `STATS`, without a round
    /// trip: nothing resets the server's counters.
    pub fn stats(&mut self, reset: bool) -> io::Result<Result<StatsReport, Response>> {
        if reset {
            return Ok(Err(Response::Err {
                code: ErrCode::BadRequest,
                msg: STATS_REMOVED.into(),
            }));
        }
        Ok(match self.metrics()? {
            Ok(lines) => Ok(expose::decode(&lines)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?),
            Err(other) => Err(other),
        })
    }

    /// `METRICS` — the raw text exposition, one metric per line.
    pub fn metrics(&mut self) -> io::Result<Result<Vec<String>, Response>> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { lines } => Ok(Ok(lines)),
            other => Ok(Err(other)),
        }
    }

    /// `TRACE` — drains up to `n` recorded spans, oldest first.
    pub fn trace(&mut self, n: usize) -> io::Result<Result<Vec<WireTraceEvent>, Response>> {
        match self.call(&Request::Trace { n })? {
            Response::Trace { events } => Ok(Ok(events)),
            other => Ok(Err(other)),
        }
    }

    /// `QUIT` — consumes the client.
    pub fn quit(mut self) -> io::Result<()> {
        self.call(&Request::Quit)?;
        Ok(())
    }
}
