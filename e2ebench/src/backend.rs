//! Set-up of the program under test, one op through its public entry
//! points, and the Lemma 1 oracle the answers are checked against.

use crate::host::Reference;
use crate::workload::{
    first_reads, Driver, Op, OpGen, Read, Spec, FSYNC, MA, POOL_PAGES, RESULT_CACHE, SHARDS,
    WARMUP_OPS, WIRE_LIMIT, WORKERS,
};
use simquery::engine::seqscan;
use simquery::feature::SeqFeatures;
use simquery::index::{IndexConfig, SeqIndex};
use simquery::plan::{EngineChoice, EnginePref, LogicalQuery, PlanOutput};
use simquery::report::Match;
use simquery::shared::{DurableError, SharedIndex};
use simquery::transform::Family;
use simserve::client::Client;
use simserve::protocol::{EngineKind, QueryParams, Request, Response, WireThreshold};
use simserve::server::{serve, ServerConfig, ServerHandle};
use simshard::{gather, ShardConfig, ShardedIndex};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tseries::{Corpus, CorpusKind, TimeSeries};

/// Unverified reads at the end of every set-up, so that anything the
/// program initialises lazily on its first queries is paid inside
/// `setup_s` and not hidden in the warm-up.
const SETUP_READS: usize = 4;
/// How often a client of the closed loop runs the reference kernel
/// between two of its ops: 1 % of its time.
const SAMPLE_EVERY: Duration = Duration::from_millis(25);

/// A directory under `.bench_tmp/` in the current directory (the
/// checkout, when the driver runs the benchmark), removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(label: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = PathBuf::from(".bench_tmp").join(format!(
            "{label}_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Self(dir)
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only when no other run is using the parent.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

pub fn index_config() -> IndexConfig {
    IndexConfig {
        heap_pool_pages: POOL_PAGES,
        ..IndexConfig::default()
    }
}

pub fn build_sharded(corpus: &Corpus) -> ShardedIndex {
    ShardedIndex::build(
        corpus,
        ShardConfig::new(SHARDS).expect("shard count"),
        index_config(),
    )
    .expect("build sharded index")
}

/// Opens the snapshot in `index/` with the log in `wal/`, replaying it.
fn open_durable(scratch: &Scratch) -> Result<SharedIndex, DurableError> {
    SharedIndex::open_durable(
        &scratch.path("index"),
        &scratch.path("wal"),
        POOL_PAGES,
        FSYNC,
    )
    .map(|(shared, _)| shared)
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        result_cache: RESULT_CACHE,
        ..ServerConfig::default()
    }
}

fn engine_pref(kind: EngineKind) -> EnginePref {
    match kind {
        EngineKind::Mt => EnginePref::Force(EngineChoice::Mt),
        EngineKind::St => EnginePref::Force(EngineChoice::St),
        EngineKind::Scan => EnginePref::Force(EngineChoice::Scan),
        EngineKind::Auto => EnginePref::Auto,
    }
}

/// The read op of a workload as the plan layer sees it — the same
/// `LogicalQuery` the server builds from the wire form of the op.
pub fn logical_query(read: Read, len: usize) -> LogicalQuery {
    let family = Family::moving_averages(MA.0..=MA.1, len);
    match read {
        Read::Range {
            rho,
            engine,
            policy,
        } => LogicalQuery::range(
            family,
            WireThreshold::Rho(rho).to_spec().with_policy(policy),
        )
        .with_engine(engine_pref(engine)),
        Read::Knn { k } => LogicalQuery::knn(family, k),
    }
}

/// The read op of a workload as a wire request.
pub fn wire_request(read: Read, ord: usize) -> Request {
    match read {
        Read::Range { rho, engine, .. } => Request::Query(QueryParams {
            ord,
            ma: MA,
            threshold: WireThreshold::Rho(rho),
            engine,
            limit: WIRE_LIMIT,
        }),
        Read::Knn { k } => Request::Knn { ord, k, ma: MA },
    }
}

pub fn output_matches(out: PlanOutput) -> Vec<Match> {
    match out {
        PlanOutput::Range(r) => r.matches,
        PlanOutput::Knn(m, _) => m,
        PlanOutput::Join(_) => unreachable!("no workload joins"),
    }
}

pub enum Backend {
    InProc(SharedIndex),
    Sharded(Arc<ShardedIndex>),
    Wire {
        server: ServerHandle,
        shared: SharedIndex,
        clients: Vec<Client>,
    },
}

pub enum Answer {
    /// A read's matches, and how many the program found in all — more
    /// than it returned when a wire reply was cut at `WIRE_LIMIT`.
    Matches {
        total: usize,
        matches: Vec<Match>,
    },
    Inserted(usize),
    Deleted,
}

impl Answer {
    fn all(matches: Vec<Match>) -> Self {
        Self::Matches {
            total: matches.len(),
            matches,
        }
    }
}

/// What every op needs besides the backend.
pub struct Ctx {
    pub spec: Spec,
    pub seed: u64,
    pub corpus: Corpus,
    pub lq: LogicalQuery,
}

/// One client's handle on the backend.
pub enum Conn<'a> {
    InProc(&'a SharedIndex),
    Sharded(&'a ShardedIndex),
    Wire(&'a mut Client),
}

impl Conn<'_> {
    /// Runs one op; `Err` is an ERR/BUSY reply or a transport error.
    pub fn run(&mut self, ctx: &Ctx, op: &Op) -> Result<Answer, String> {
        match (self, op) {
            (Self::InProc(shared), Op::Read { ord }) => shared
                .execute(&ctx.lq, Some(&ctx.corpus.series()[*ord]))
                .map(|(_, out)| Answer::all(output_matches(out)))
                .map_err(|e| e.to_string()),
            (Self::Sharded(sharded), Op::Read { ord }) => {
                let q = &ctx.corpus.series()[*ord];
                match ctx.spec.read {
                    Read::Range { .. } => {
                        gather::execute_range(sharded, &ctx.lq, q).map(|(_, r, _)| r.matches)
                    }
                    Read::Knn { .. } => {
                        gather::execute_knn(sharded, &ctx.lq, q).map(|(_, m, _, _)| m)
                    }
                }
                .map(Answer::all)
                .map_err(|e| e.to_string())
            }
            (Self::Wire(client), op) => {
                let request = match op {
                    Op::Read { ord } => wire_request(ctx.spec.read, *ord),
                    Op::Insert(ts) => Request::Insert {
                        values: ts.values().to_vec(),
                    },
                    Op::Delete { ord } => Request::Delete { ord: *ord },
                };
                match client.call(&request).map_err(|e| e.to_string())? {
                    Response::Matches { n, matches, .. } => Ok(Answer::Matches {
                        total: n,
                        matches: matches
                            .into_iter()
                            .map(|m| Match {
                                seq: m.seq,
                                transform: m.transform,
                                dist: m.dist,
                            })
                            .collect(),
                    }),
                    Response::Inserted { ord } => Ok(Answer::Inserted(ord)),
                    Response::Deleted { existed: true } => Ok(Answer::Deleted),
                    other => Err(format!("{other:?}")),
                }
            }
            (_, Op::Insert(_) | Op::Delete { .. }) => {
                unreachable!("only wire workloads write")
            }
        }
    }
}

pub struct Bench {
    pub ctx: Ctx,
    pub backend: Backend,
    /// Snapshot and WAL directories of a durable backend.
    pub scratch: Scratch,
}

/// Everything between process start and the first timed op: corpus
/// generation, STR build (or snapshot save + durable open), server spawn,
/// client connect, and the first reads.
pub fn setup(spec: &Spec, seed: u64) -> Bench {
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, spec.sequences, spec.len, seed);
    let scratch = Scratch::new(spec.name);
    let build = || SeqIndex::build(&corpus, index_config()).expect("non-empty corpus");
    let backend = match spec.driver {
        Driver::InProc => Backend::InProc(SharedIndex::new(build())),
        Driver::Sharded => Backend::Sharded(Arc::new(build_sharded(&corpus))),
        Driver::Wire { durable } => {
            let shared = if durable {
                build()
                    .save(&scratch.path("index"))
                    .expect("save the snapshot");
                open_durable(&scratch).expect("open durable index")
            } else {
                SharedIndex::new(build())
            };
            let server = serve(shared.clone(), &server_config()).expect("bind loopback");
            let clients = (0..spec.clients)
                .map(|_| Client::connect(server.addr).expect("connect to own server"))
                .collect();
            Backend::Wire {
                server,
                shared,
                clients,
            }
        }
    };
    let mut bench = Bench {
        ctx: Ctx {
            spec: *spec,
            seed,
            lq: logical_query(spec.read, spec.len),
            corpus,
        },
        backend,
        scratch,
    };
    for ord in first_reads(spec, seed, SETUP_READS) {
        bench.read(ord).expect("set-up read succeeds");
    }
    bench
}

impl Backend {
    /// One handle per client.
    pub fn conns(&mut self) -> Vec<Conn<'_>> {
        match self {
            Self::InProc(shared) => vec![Conn::InProc(shared)],
            Self::Sharded(sharded) => vec![Conn::Sharded(sharded)],
            Self::Wire { clients, .. } => clients.iter_mut().map(Conn::Wire).collect(),
        }
    }

    /// Runs `f` on a single flat index holding the backend's sequences:
    /// the served index itself, or for a sharded backend a local copy.
    pub fn with_flat_index<R>(&self, corpus: &Corpus, f: impl FnOnce(&SeqIndex) -> R) -> R {
        match self {
            Self::InProc(shared) | Self::Wire { shared, .. } => f(&shared.read()),
            Self::Sharded(_) => {
                f(&SeqIndex::build(corpus, index_config()).expect("non-empty corpus"))
            }
        }
    }

    /// Stops the server, if there is one, and waits for its threads.
    pub fn shutdown(self) {
        if let Self::Wire {
            server, clients, ..
        } = self
        {
            drop(clients);
            server.shutdown();
        }
    }
}

impl Bench {
    /// One read through client 0's handle.
    pub fn read(&mut self, ord: usize) -> Result<Answer, String> {
        self.backend.conns()[0].run(&self.ctx, &Op::Read { ord })
    }

    /// Bytes on disk per byte of user data: saves the freshly set-up state
    /// where it is not on disk already and relates its size to the raw
    /// samples.
    pub fn space_amp(&self) -> f64 {
        let dir = self.scratch.path("index");
        match &self.backend {
            Backend::Wire { shared, .. } if shared.is_durable() => {}
            Backend::InProc(shared) | Backend::Wire { shared, .. } => {
                shared.read().save(&dir).expect("save the snapshot")
            }
            Backend::Sharded(sharded) => sharded.save(&dir).expect("save the shards"),
        }
        let raw = (self.ctx.spec.sequences * self.ctx.spec.len * 8) as f64;
        (dir_bytes(&dir) + dir_bytes(&self.scratch.path("wal"))) as f64 / raw
    }
}

/// The exact answer of a read, from the sequential-scan reference (range)
/// or a brute-force ranking over the corpus (kNN).
pub fn expected(ctx: &Ctx, flat: &SeqIndex, ord: usize) -> Vec<Match> {
    let q = &ctx.corpus.series()[ord];
    match ctx.spec.read {
        Read::Range { .. } => {
            seqscan::range_query(flat, q, &ctx.lq.family, &ctx.lq.spec)
                .expect("oracle scan")
                .matches
        }
        Read::Knn { k } => {
            let qf = SeqFeatures::extract(q).expect("random walks are not constant");
            let mut scored: Vec<Match> = ctx
                .corpus
                .series()
                .iter()
                .enumerate()
                .filter_map(|(seq, ts)| {
                    let x = SeqFeatures::extract(ts)?;
                    ctx.lq
                        .family
                        .transforms()
                        .iter()
                        .enumerate()
                        .map(|(transform, t)| Match {
                            seq,
                            transform,
                            dist: t.transformed_distance(&x, &qf),
                        })
                        .min_by(|a, b| a.dist.total_cmp(&b.dist))
                })
                .collect();
            scored.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.seq.cmp(&b.seq)));
            scored.truncate(k);
            scored
        }
    }
}

/// Range answers compare as `(seq, transform)` sets: the program must
/// have found as many pairs as the oracle, and returned all of them — or
/// exactly `WIRE_LIMIT` distinct ones, when a wire reply was cut there.
/// A kNN answer compares by sequence and distance in rank order: a
/// sequence at distance 0 ties on every transformation, so the
/// transformation is not part of the answer.
pub fn same_answer(read: Read, total: usize, got: &[Match], want: &[Match]) -> bool {
    match read {
        Read::Range { .. } => {
            let key = |m: &[Match]| -> BTreeSet<(usize, usize)> {
                m.iter().map(|m| (m.seq, m.transform)).collect()
            };
            let (got_set, want_set) = (key(got), key(want));
            total == want.len()
                && got_set.len() == got.len()
                && (got.len() == total || got.len() == WIRE_LIMIT)
                && got_set.is_subset(&want_set)
        }
        Read::Knn { .. } => {
            got.len() == want.len()
                && got
                    .iter()
                    .zip(want)
                    .all(|(g, w)| g.seq == w.seq && (g.dist - w.dist).abs() < 1e-9)
        }
    }
}

/// What one segment of the closed loop measured.
pub struct Segment {
    /// From the segment's opening to its last completion.
    pub seconds: f64,
    /// Completed ops per second: each client's own rate, added up.
    pub ops_per_s: f64,
    /// Median read latency.
    pub read_ms: f64,
    /// How many times slower than a quiet host the machine was: the
    /// median of the clients' samples of the reference kernel.
    pub host_slowdown: f64,
}

/// What the closed loop observed, over all of its segments.
pub struct Window {
    /// One op stream per client, carried from segment to segment.
    gens: Vec<OpGen>,
    pub read_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    pub failed: usize,
    pub inserted: Vec<(usize, TimeSeries)>,
    pub deleted: Vec<usize>,
    /// How long the CHECKPOINT held its connection.
    pub checkpoint_ms: Option<f64>,
}

/// One client's share of one segment.
#[derive(Default)]
struct Part {
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    /// When the last op completed, seconds since the segment opened,
    /// the time spent on the reference kernel taken out.
    closed_s: f64,
    slowdowns: Vec<f64>,
    failed: usize,
    inserted: Vec<(usize, TimeSeries)>,
    deleted: Vec<usize>,
    checkpoint_ms: Option<f64>,
}

impl Window {
    pub fn new(ctx: &Ctx) -> Self {
        Self {
            gens: (0..ctx.spec.clients)
                .map(|client| OpGen::new(&ctx.spec, ctx.seed, client))
                .collect(),
            read_ms: Vec::new(),
            write_ms: Vec::new(),
            failed: 0,
            inserted: Vec::new(),
            deleted: Vec::new(),
            checkpoint_ms: None,
        }
    }

    pub fn ops(&self) -> usize {
        self.read_ms.len()
            + self.write_ms.len()
            + self.failed
            + usize::from(self.checkpoint_ms.is_some())
    }
}

/// One segment of the closed loop: every client carries on with its op
/// stream for at least `at_least`, and then to the end of its pass
/// through the query pool, so that every segment of a run holds the same
/// reads; or until it has sent `max_ops`. With `checkpoint`, the first
/// client of a durable backend opens the segment with a CHECKPOINT.
pub fn closed_loop(
    bench: &mut Bench,
    window: &mut Window,
    host: &Reference,
    at_least: Duration,
    max_ops: usize,
    checkpoint: bool,
) -> Segment {
    let ctx = &bench.ctx;
    let durable = ctx.spec.driver == Driver::Wire { durable: true };
    let conns = bench.backend.conns();
    let start = Instant::now();
    let parts: Vec<Part> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(&mut window.gens)
            .enumerate()
            .map(|(client, (mut conn, gen))| {
                s.spawn(move || {
                    let mut part = Part::default();
                    if let (Conn::Wire(c), true) = (&mut conn, checkpoint && durable && client == 0)
                    {
                        let t = Instant::now();
                        match c.checkpoint() {
                            Ok(Ok(_)) => part.checkpoint_ms = Some(t.elapsed().as_secs_f64() * 1e3),
                            _ => part.failed += 1,
                        }
                    }
                    let mut probe = host.probe(client);
                    let mut probing = Duration::ZERO;
                    let mut sent = 0;
                    while sent < max_ops && !(start.elapsed() >= at_least && gen.pass_complete()) {
                        // Between two ops, on the thread and at the pace
                        // of the ops themselves.
                        let now = start.elapsed();
                        if now >= SAMPLE_EVERY * part.slowdowns.len() as u32 {
                            part.slowdowns.push(probe.slowdown());
                            probing += start.elapsed() - now;
                        }
                        let op = gen.next_op();
                        sent += 1;
                        let t = Instant::now();
                        let answer = conn.run(ctx, &op);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        match (answer, op) {
                            (Ok(Answer::Matches { matches, .. }), _) => {
                                std::hint::black_box(matches);
                                part.read_ms.push(ms);
                            }
                            (Ok(Answer::Inserted(ord)), Op::Insert(ts)) => {
                                part.inserted.push((ord, ts));
                                part.write_ms.push(ms);
                            }
                            (Ok(Answer::Deleted), Op::Delete { ord }) => {
                                part.deleted.push(ord);
                                part.write_ms.push(ms);
                            }
                            _ => part.failed += 1,
                        }
                    }
                    part.closed_s = (start.elapsed() - probing).as_secs_f64();
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut segment = Segment {
        seconds: 0.0,
        ops_per_s: 0.0,
        read_ms: 0.0,
        host_slowdown: 0.0,
    };
    let (mut reads, mut slowdowns) = (Vec::new(), Vec::new());
    for p in parts {
        segment.seconds = segment.seconds.max(p.closed_s);
        segment.ops_per_s += (p.read_ms.len() + p.write_ms.len()) as f64 / p.closed_s;
        reads.extend(&p.read_ms);
        slowdowns.extend(p.slowdowns);
        window.read_ms.extend(p.read_ms);
        window.write_ms.extend(p.write_ms);
        window.failed += p.failed;
        window.inserted.extend(p.inserted);
        window.deleted.extend(p.deleted);
        window.checkpoint_ms = window.checkpoint_ms.or(p.checkpoint_ms);
    }
    segment.read_ms = crate::report::median(&mut reads);
    segment.host_slowdown = crate::report::median(&mut slowdowns);
    segment
}

/// Replays the first `n` reads of client 0 through the backend and
/// compares each with the oracle. Returns the number that differ.
fn verify_reads(bench: &mut Bench, n: usize) -> usize {
    let ords = first_reads(&bench.ctx.spec, bench.ctx.seed, n);
    let got: Vec<Option<Answer>> = ords.iter().map(|&ord| bench.read(ord).ok()).collect();
    let ctx = &bench.ctx;
    bench.backend.with_flat_index(&ctx.corpus, |flat| {
        ords.iter()
            .zip(&got)
            .filter(|(&ord, got)| match got {
                Some(Answer::Matches { total, matches }) => {
                    !same_answer(ctx.spec.read, *total, matches, &expected(ctx, flat, ord))
                }
                _ => true,
            })
            .count()
    })
}

/// After a durable run: stop the server, reopen from the files alone,
/// and count acknowledged writes the reopened index does not reflect —
/// an INSERT whose samples differ in any bit, or a DELETE still live.
fn verify_durable(bench: Bench, window: &Window) -> usize {
    let Bench {
        backend, scratch, ..
    } = bench;
    backend.shutdown();
    // `shutdown` joins the acceptor and the workers, but a connection
    // thread drops its handle on the index — and with the last handle the
    // directory lock — a moment after its client hung up.
    let asked = Instant::now();
    let reopened = loop {
        match open_durable(&scratch) {
            Ok(reopened) => break reopened,
            Err(DurableError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    && asked.elapsed() < Duration::from_secs(10) =>
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("reopen durable index: {e}"),
        }
    };
    let index = reopened.read();
    let gone = index.deleted_ordinals();
    let bits = |ts: &TimeSeries| ts.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let lost_inserts = window
        .inserted
        .iter()
        .filter(|(ord, ts)| {
            *ord >= index.len()
                || index
                    .fetch_series(*ord)
                    .map_or(true, |f| bits(&f) != bits(ts))
        })
        .count();
    let lost_deletes = window
        .deleted
        .iter()
        .filter(|ord| gone.binary_search(ord).is_err())
        .count();
    lost_inserts + lost_deletes
}

/// What a run checks once its window has closed: the warm-up reads
/// against the oracle, and on a durable backend every acknowledged write
/// against a reopened index. Ends the backend. Returns how many checks
/// and window ops there were, and how many of them failed.
pub fn verify(mut bench: Bench, window: &Window) -> (usize, usize) {
    let mut attempted = window.ops() + WARMUP_OPS;
    let mut failed = window.failed + verify_reads(&mut bench, WARMUP_OPS);
    if bench.ctx.spec.driver == (Driver::Wire { durable: true }) {
        attempted += window.inserted.len() + window.deleted.len();
        failed += verify_durable(bench, window);
    } else {
        bench.backend.shutdown();
    }
    (attempted, failed)
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
