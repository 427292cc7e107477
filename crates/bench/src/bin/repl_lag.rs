//! Replication tax: wire-level insert throughput of a primary serving
//! zero followers versus one follower streaming the WAL over loopback.
//!
//! Both runs start from the same saved snapshot and push the same seeded
//! random walks through a live `Client`; the follower run additionally
//! bootstraps a replica via the `REPL` snapshot transfer and lets it
//! poll frames while the inserts are in flight, then measures how long
//! the follower takes to drain the remaining lag to zero. The follower
//! runs paced (`pace_ms`) — the bounded-staleness configuration — so on
//! a small machine the replica's apply work does not time-share the
//! primary's cores mid-burst; the deferred work shows up as `drain_ms`
//! instead. Writes `results/repl_lag.json`.
//!
//! `cargo run -p bench --release --bin repl_lag`

use bench::table::{f2, Table};
use simquery::index::{IndexConfig, SeqIndex};
use simquery::shared::SharedIndex;
use simserve::client::Client;
use simserve::repl::{self, FollowerOpts};
use simserve::server::{serve, ServerConfig};
use simwal::FsyncPolicy;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tseries::rng::SeededRng;
use tseries::{random_walk, Corpus, CorpusKind};

const SEQ_LEN: usize = 64;
/// Follower poll pacing (see `FollowerOpts::pace_ms`).
const PACE_MS: u64 = 100;

struct RunStats {
    followers: usize,
    inserts: usize,
    wall_s: f64,
    per_sec: f64,
    mean_us: f64,
    drain_ms: f64,
    bytes: u64,
    snapshots: u64,
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simseq_repl_lag_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &PathBuf, dst: &PathBuf) {
    std::fs::create_dir_all(dst).expect("create scratch dir");
    for entry in std::fs::read_dir(src).expect("read snapshot dir") {
        let entry = entry.expect("dir entry");
        if entry.file_name() != "LOCK" {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy snapshot file");
        }
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 32,
        max_conns: 16,
        result_cache: 0,
        ..ServerConfig::default()
    }
}

fn run_one(snapshot: &PathBuf, followers: usize, inserts: usize, seed: u64) -> RunStats {
    let idx = scratch(&format!("idx_f{followers}"));
    let wal = scratch(&format!("wal_f{followers}"));
    copy_dir(snapshot, &idx);
    let (shared, _) =
        SharedIndex::open_durable(&idx, &wal, 64, FsyncPolicy::Never).expect("open durable");
    let handle = serve(shared, &server_config()).expect("serve primary");
    let addr = handle.addr.to_string();

    let stop = Arc::new(AtomicBool::new(false));
    let mut replicas = Vec::new();
    for _ in 0..followers {
        let (_, follower) = repl::bootstrap(
            &addr,
            FollowerOpts {
                batch: 0,
                wait_ms: 0,
                pace_ms: PACE_MS,
                state_dir: None,
                reconnect_seed: 0,
            },
            64,
        )
        .expect("bootstrap follower");
        let stats = follower.stats();
        replicas.push((stats, follower.spawn(Arc::clone(&stop))));
    }

    let mut rng = SeededRng::seed_from_u64(seed);
    let series: Vec<_> = (0..inserts)
        .map(|_| random_walk(&mut rng, SEQ_LEN, 100.0))
        .collect();
    let mut client = Client::connect(handle.addr).expect("connect");

    let start = std::time::Instant::now();
    for ts in &series {
        client
            .insert(ts.values().to_vec())
            .expect("wire insert")
            .expect("insert accepted");
    }
    let wall_s = start.elapsed().as_secs_f64();

    // Drain: the run is only done once every follower acked every LSN.
    let drain_start = std::time::Instant::now();
    for (stats, _) in &replicas {
        while stats.acked.load(Ordering::Relaxed) < inserts as u64 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    let drain_ms = drain_start.elapsed().as_secs_f64() * 1e3;
    let bytes = replicas
        .iter()
        .map(|(s, _)| s.bytes.load(Ordering::Relaxed))
        .sum();
    let snapshots = replicas
        .iter()
        .map(|(s, _)| s.snapshots.load(Ordering::Relaxed))
        .sum();

    stop.store(true, Ordering::Relaxed);
    for (_, join) in replicas {
        let _ = join.join();
    }
    client.quit().expect("quit");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&idx);
    let _ = std::fs::remove_dir_all(&wal);
    RunStats {
        followers,
        inserts,
        wall_s,
        per_sec: inserts as f64 / wall_s,
        mean_us: wall_s * 1e6 / inserts as f64,
        drain_ms,
        bytes,
        snapshots,
    }
}

fn write_json(initial: usize, inserts: usize, runs: &[RunStats]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let baseline = runs
        .iter()
        .find(|r| r.followers == 0)
        .map_or(0.0, |r| r.per_sec);
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"benchmark\": \"repl_lag\",");
    let _ = writeln!(
        out,
        "  \"corpus\": {{\"initial\": {initial}, \"len\": {SEQ_LEN}}},"
    );
    let _ = writeln!(out, "  \"inserts\": {inserts},");
    let _ = writeln!(out, "  \"pace_ms\": {PACE_MS},");
    let _ = writeln!(out, "  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"followers\": {}, \"inserts\": {}, \"wall_s\": {:.4}, \
             \"inserts_per_sec\": {:.1}, \"mean_us\": {:.2}, \"drain_ms\": {:.2}, \
             \"bytes_shipped\": {}, \"snapshots\": {}, \"overhead_vs_none\": {:.4}}}{comma}",
            r.followers,
            r.inserts,
            r.wall_s,
            r.per_sec,
            r.mean_us,
            r.drain_ms,
            r.bytes,
            r.snapshots,
            if r.per_sec > 0.0 {
                baseline / r.per_sec
            } else {
                0.0
            }
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    std::fs::write(bench::results_dir().join("repl_lag.json"), out)
}

fn main() {
    let fast = bench::fast_mode();
    let initial = if fast { 50 } else { 200 };
    let inserts = if fast { 200 } else { 1000 };

    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, initial, SEQ_LEN, 0x4E91);
    let snapshot = scratch("snapshot");
    SeqIndex::build(&corpus, IndexConfig::default())
        .expect("non-empty corpus")
        .save(&snapshot)
        .expect("save snapshot");

    let mut t = Table::new(
        format!("Replication lag ({initial} walks × {SEQ_LEN}, {inserts} wire inserts)"),
        &[
            "followers",
            "inserts/s",
            "mean µs",
            "drain ms",
            "bytes",
            "vs none",
        ],
    );
    let mut runs = Vec::new();
    for followers in [0usize, 1] {
        // Warm-up, then best-of-3 to suppress scheduler noise.
        let _ = run_one(&snapshot, followers, inserts / 10, 0xDEAD);
        let r = (0..3)
            .map(|_| run_one(&snapshot, followers, inserts, 0x4E91))
            .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
            .expect("three passes");
        runs.push(r);
    }
    let baseline = runs[0].per_sec;
    for r in &runs {
        t.push(vec![
            r.followers.to_string(),
            f2(r.per_sec),
            f2(r.mean_us),
            f2(r.drain_ms),
            r.bytes.to_string(),
            format!("{:.2}x", baseline / r.per_sec),
        ]);
    }
    t.print();
    write_json(initial, inserts, &runs).expect("write results json");
    let _ = std::fs::remove_dir_all(&snapshot);
}
