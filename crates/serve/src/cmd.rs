//! The server and load-generator entry points: `simserved` and `simseq
//! serve` both run [`serve`], `simload` and `simseq load` both run
//! [`load`], so a flag exists on both spellings or on neither.
//!
//! # `serve`
//!
//! The index directory is opened as whatever layout it holds
//! ([`ShardedIndex::open`]): a directory written by `simseq build --shards
//! N` is served with its N shards — an insert write-locks one shard while
//! the others keep serving reads, queries scatter-gather, and `METRICS`
//! gains a per-shard breakdown. There is no serve-time repartitioning:
//! `simseq build --shards N` is the one way to get a shard group.
//!
//! With `--wal DIR/` every `INSERT`/`DELETE` is appended to a write-ahead
//! log before it is acknowledged; on startup the log tail is replayed on
//! top of the snapshot, so a crash loses at most the unsynced suffix.
//! `--fsync` trades durability for throughput: `always` syncs every
//! append, `N` every N appends, `never` leaves syncing to the OS.
//!
//! `--result-cache N` keeps the last N query results in an LRU cache
//! keyed on the query fingerprint and the index epoch; any `INSERT`,
//! `DELETE`, or `CHECKPOINT` moves the epoch, so cached results are
//! never stale. `0` (the default) disables the cache.
//!
//! With `--replicate-from HOST:PORT` the server runs as a **follower**:
//! it streams WAL frames from the primary over the `REPL` verb, applies
//! them through the crash-recovery replay path, and serves read-only
//! queries (writes get `ERR code=READONLY`). A follower takes its shard
//! count from the primary: without `--index` it bootstraps its whole
//! state, placement included, from a snapshot transfer; with `--index`
//! (optionally plus `--wal` for a durable follower that resumes from its
//! persisted replica position) it starts from local state of the
//! primary's shard count and catches up; a directory of another count
//! fails start-up with [`simquery::shared::DurableError::ShardCount`].

use crate::load::{run, LoadConfig};
use crate::opts::Opts;
use crate::protocol::EngineKind;
use crate::repl::{self, Follower, FollowerOpts};
use crate::server::{serve_with, Backend, ServerConfig};
use simshard::ShardedIndex;
use simwal::FsyncPolicy;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Help text of `simserved`.
pub const SERVE_USAGE: &str = "\
simserved — serve a persisted similarity index over TCP

USAGE:
  simserved --index DIR/ [--addr HOST:PORT] [--workers N]
            [--queue N] [--max-conns N] [--pool-pages N]
            [--wal DIR/] [--fsync always|never|N]
            [--result-cache N] [--slow-query-ms N] [--trace-sample K]
  simserved --replicate-from HOST:PORT [--index DIR/] [--wal DIR/]
            [--addr HOST:PORT] [...]

The protocol is documented in crates/serve/PROTOCOL.md. Build an index
with `simseq gen` + `simseq build` first (or a sharded one with
`simseq build --shards N`, which is served with its N shards). At most
`--workers N` requests execute at once and `--queue N` more wait their
turn in arrival order; the next is answered ERR code=BUSY. JOIN
requires an unsharded backend. `--wal DIR/` makes INSERT/DELETE
durable (write-ahead logged, replayed on restart; see SYNC and
CHECKPOINT in the protocol).
`--result-cache N` answers repeated queries from an epoch-keyed LRU
cache (mutations invalidate; see the EXPLAIN verb and the
simseq_result_cache_* series of METRICS in the protocol). `--slow-query-ms N` counts every query at or
over N ms in simseq_slow_queries_total (see METRICS; TRACE spans and
EXPLAIN show what a query did), and
`--trace-sample K` records every K-th query's span tree into a bounded
ring served by the TRACE verb (0 disables; see METRICS and TRACE in
the protocol). `--replicate-from HOST:PORT` runs a read-only
follower of a durable primary of any shard count: without --index it
bootstraps from a snapshot transfer, with --index (+ --wal for
durability) it resumes from local state of the primary's shard count;
writes are refused with ERR code=READONLY.
";

/// Help text of `simload`.
pub const LOAD_USAGE: &str = "\
simload — closed-loop load generator for simserved

USAGE:
  simload --addr HOST:PORT [--conns N] [--ops N] [--seed S]
          [--ma LO..HI] [--rho R] [--engine auto|mt|st|scan]
          [--verify-index DIR/] [--pool-pages N]
          [--timeout-ms MS] [--failover HOST:PORT,HOST:PORT]

Each connection replays a seeded stream of QUERY requests and reports a
per-connection latency/throughput table. --verify-index opens the same
index directory (either layout) directly and checks every response for
result parity against an in-process engine call. --timeout-ms bounds
connect/read/write on every socket (0 = no timeouts); --failover lists
extra endpoints the client rotates to on ERR READONLY or connection
failure.
";

/// Parses an `--engine` value (`mt` when absent, matching the wire
/// protocol's default) — the one parse behind `load` and the CLI's query
/// commands.
pub fn engine_flag(raw: Option<&str>) -> Result<EngineKind, String> {
    let raw = raw.unwrap_or("mt");
    EngineKind::parse(raw).map_err(|_| format!("--engine must be auto|mt|st|scan, got `{raw}`"))
}

/// Serves an index over TCP per `argv` (see [`SERVE_USAGE`]); blocks
/// until the acceptor exits.
pub fn serve(argv: &[String]) -> Result<(), String> {
    if argv.first().map(String::as_str) == Some("help") {
        print!("{SERVE_USAGE}");
        return Ok(());
    }
    let opts = Opts::parse(argv)?;
    // A flag nobody reads is a typo (`--wal-dir`): serving without what
    // it asked for — durability, say — must not be the answer.
    opts.reject_unknown(&[
        "index",
        "addr",
        "workers",
        "queue",
        "max-conns",
        "pool-pages",
        "wal",
        "fsync",
        "result-cache",
        "slow-query-ms",
        "trace-sample",
        "replicate-from",
    ])?;
    let pool_pages: usize = opts.parse_or("pool-pages", 256)?;
    let defaults = ServerConfig::default();
    let cfg = ServerConfig {
        addr: opts
            .get("addr")
            .unwrap_or(defaults.addr.as_str())
            .to_string(),
        workers: opts.parse_or("workers", defaults.workers)?,
        queue_depth: opts.parse_or("queue", defaults.queue_depth)?,
        max_conns: opts.parse_or("max-conns", defaults.max_conns)?,
        result_cache: opts.parse_or("result-cache", defaults.result_cache)?,
        // The flag is in milliseconds (human scale); the log gates in µs.
        slow_query_us: match opts.get("slow-query-ms") {
            None => defaults.slow_query_us,
            Some(raw) => raw
                .parse::<u64>()
                .map(|ms| ms.saturating_mul(1000))
                .map_err(|_| format!("--slow-query-ms must be an integer, got `{raw}`"))?,
        },
        trace_sample: opts.parse_or("trace-sample", defaults.trace_sample)?,
    };

    let wal_dir = opts.get("wal").map(PathBuf::from);
    let policy = match opts.get("fsync") {
        None => FsyncPolicy::Always,
        Some(raw) => FsyncPolicy::parse(raw)
            .ok_or_else(|| format!("--fsync must be always|never|N, got `{raw}`"))?,
    };
    if wal_dir.is_none() && opts.get("fsync").is_some() {
        return Err("--fsync requires --wal".into());
    }
    let open = |dir: &Path| -> Result<ShardedIndex, String> {
        let fail = |e: &dyn std::fmt::Display| format!("opening index {}: {e}", dir.display());
        let Some(wal) = &wal_dir else {
            return ShardedIndex::open(dir, pool_pages).map_err(|e| fail(&e));
        };
        let (group, rec) =
            ShardedIndex::open_durable(dir, wal, pool_pages, policy).map_err(|e| fail(&e))?;
        eprintln!(
            "wal: epoch {}, replayed {} frames ({} stale, {} torn bytes)",
            rec.epoch, rec.frames, rec.stale_frames, rec.truncated_bytes
        );
        Ok(group)
    };
    let dir = opts.get("index").map(PathBuf::from);

    if let Some(primary) = opts.get("replicate-from") {
        // Per-node jitter seed: distinct listen addresses give distinct
        // reconnect schedules, so a follower fleet doesn't thundering-herd
        // a recovering primary.
        let reconnect_seed = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            cfg.addr.hash(&mut h);
            h.finish()
        };
        let fopts = FollowerOpts {
            state_dir: wal_dir.clone(),
            reconnect_seed,
            ..FollowerOpts::default()
        };
        let (backend, follower): (Backend, Follower) = match &dir {
            // A fresh follower bootstraps from a snapshot transfer.
            None => {
                if wal_dir.is_some() {
                    return Err("--wal on a follower requires --index \
                         (a durable follower opens both directories)"
                        .into());
                }
                repl::bootstrap(primary, fopts, pool_pages)
                    .map_err(|e| format!("bootstrapping from {primary}: {e}"))?
            }
            Some(dir) => {
                let backend = Arc::new(open(dir)?);
                let mut follower = Follower::connect(primary, Arc::clone(&backend), fopts)
                    .map_err(|e| format!("connecting to primary {primary}: {e}"))?;
                // A directory of another shard count can never catch up:
                // refuse it now rather than serve its stale state.
                follower
                    .first_poll()
                    .map_err(|e| format!("following {primary}: {e}"))?;
                (backend, follower)
            }
        };
        eprintln!(
            "follower of {primary}: {} sequences of length {}, applied lsn {} \
             ({} workers, queue {})",
            backend.len(),
            backend.seq_len(),
            backend.applied_lsn(),
            cfg.workers,
            cfg.queue_depth
        );
        let stats = follower.stats();
        let stop = Arc::new(AtomicBool::new(false));
        let loop_handle = follower.spawn(Arc::clone(&stop));
        let handle = serve_with(backend, &cfg, Some(stats))
            .map_err(|e| format!("binding {}: {e}", cfg.addr))?;
        // Registered so a PROMOTE request can halt the poll loop before
        // flipping this server to primary.
        handle.repl().register_follower_loop(stop, loop_handle);
        println!("listening on {}", handle.addr);
        handle.join();
        return Ok(());
    }

    let dir = dir.ok_or("missing required --index")?;
    let backend: Backend = Arc::new(open(&dir)?);
    let layout = backend.sharding().map_or(" (".to_string(), |s| {
        format!(" across {} shards (", s.shards)
    });
    eprintln!(
        "serving {} sequences of length {}{layout}{} workers, queue {})",
        backend.len(),
        backend.seq_len(),
        cfg.workers,
        cfg.queue_depth
    );

    let handle =
        serve_with(backend, &cfg, None).map_err(|e| format!("binding {}: {e}", cfg.addr))?;
    println!("listening on {}", handle.addr);
    handle.join();
    Ok(())
}

/// Runs a closed-loop load against a server per `argv` (see
/// [`LOAD_USAGE`]). Fails on any error response or (with
/// `--verify-index`) any result-parity failure.
pub fn load(argv: &[String]) -> Result<(), String> {
    if argv.first().map(String::as_str) == Some("help") {
        print!("{LOAD_USAGE}");
        return Ok(());
    }
    let opts = Opts::parse(argv)?;
    opts.reject_unknown(&[
        "addr",
        "conns",
        "ops",
        "seed",
        "ma",
        "rho",
        "engine",
        "verify-index",
        "pool-pages",
        "timeout-ms",
        "failover",
    ])?;
    let defaults = LoadConfig::default();
    let verify = match opts.get("verify-index") {
        None => None,
        Some(dir) => {
            let pool: usize = opts.parse_or("pool-pages", 256)?;
            // Read-only: the oracle may be the very directory the server
            // under test is serving (and holding the LOCK on).
            let group = ShardedIndex::open_read_only(Path::new(dir), pool)
                .map_err(|e| format!("opening verify index {dir}: {e}"))?;
            Some(Arc::new(group))
        }
    };
    let cfg = LoadConfig {
        addr: opts.req("addr").map_err(|e| e.to_string())?.to_string(),
        conns: opts.parse_or("conns", defaults.conns)?,
        ops_per_conn: opts.parse_or("ops", defaults.ops_per_conn)?,
        seed: opts.parse_or("seed", defaults.seed)?,
        ma: opts.range_or("ma", defaults.ma)?,
        rho: opts.parse_or("rho", defaults.rho)?,
        engine: engine_flag(opts.get("engine"))?,
        verify,
        failover_to: opts
            .get("failover")
            .map(|raw| {
                raw.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default(),
        timeout_ms: match opts.get("timeout-ms") {
            None => None,
            Some(raw) => Some(
                raw.parse()
                    .map_err(|_| format!("--timeout-ms: bad value `{raw}`"))?,
            ),
        },
    };
    let report = run(&cfg).map_err(|e| format!("load run failed: {e}"))?;
    print!("{}", report.render());
    if report.total_errors() > 0 || report.total_parity_failures() > 0 {
        return Err(format!(
            "{} errors, {} parity failures",
            report.total_errors(),
            report.total_parity_failures()
        ));
    }
    Ok(())
}
