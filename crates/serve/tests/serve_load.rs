//! The acceptance check from the serving milestone: `simload` against a
//! live `simserved` with ≥ 8 concurrent connections must see 100 % result
//! parity with a direct single-threaded engine, and `METRICS` must report
//! non-zero latency percentiles and per-op counts.

mod common;

use common::metric;
use simquery::prelude::*;
use simserve::client::Client;
use simserve::load::{run, LoadConfig};
use simserve::protocol::EngineKind;
use simserve::server::{serve, ServerConfig};

#[test]
fn eight_connections_full_parity_and_live_stats() {
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 120, 64, 31);
    let index = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
    let shared = SharedIndex::new(index);
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_depth: 64,
        max_conns: 64,
        result_cache: 0,
        ..ServerConfig::default()
    };
    let handle = serve(shared.clone(), &cfg).unwrap();

    let load = LoadConfig {
        addr: handle.addr.to_string(),
        conns: 8,
        ops_per_conn: 25,
        seed: 42,
        ma: (5, 20),
        rho: 0.96,
        engine: EngineKind::Mt,
        // Same handle the server holds: every response is checked against
        // a single-threaded engine run over identical data.
        verify: Some(shared.clone().into()),
        failover_to: Vec::new(),
        timeout_ms: None,
    };
    let report = run(&load).unwrap();

    assert_eq!(report.conns.len(), 8);
    assert_eq!(report.total_ops(), 8 * 25);
    assert_eq!(report.total_errors(), 0, "{}", report.render());
    let verified: u64 = report.conns.iter().map(|c| c.verified).sum();
    assert_eq!(verified, 8 * 25, "every response was parity-checked");
    assert_eq!(
        report.total_parity_failures(),
        0,
        "100% result parity required:\n{}",
        report.render()
    );
    let rendered = report.render();
    assert!(rendered.contains("parity: 100%"), "{rendered}");
    assert!(report.throughput() > 0.0);

    // METRICS over the wire: per-op counts and non-zero percentiles.
    let mut client = Client::connect(handle.addr).unwrap();
    let stats = client.stats(false).unwrap().unwrap();
    let q = stats
        .ops
        .iter()
        .find(|o| o.op == "query")
        .expect("query stats");
    assert!(q.count >= 8 * 25, "{q:?}");
    assert!(q.p50_us > 0 && q.p95_us > 0 && q.p99_us > 0, "{q:?}");
    assert!(q.p50_us <= q.p95_us && q.p95_us <= q.p99_us, "{q:?}");
    // MT queries walked the index: access-counter totals moved.
    let lines = client.metrics().unwrap().unwrap();
    assert!(metric(&lines, "simseq_index_node_reads_total") > 0);
    assert!(
        metric(&lines, "simseq_connections_total") >= 9,
        "8 load conns + this one"
    );
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn busy_responses_are_counted_not_fatal() {
    // A tiny queue under 8 closed-loop connections sheds load with BUSY
    // instead of erroring or hanging; the load report separates the two.
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 40, 64, 37);
    let index = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
    let shared = SharedIndex::new(index);
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 1,
        max_conns: 64,
        result_cache: 0,
        ..ServerConfig::default()
    };
    let handle = serve(shared.clone(), &cfg).unwrap();

    let load = LoadConfig {
        addr: handle.addr.to_string(),
        conns: 8,
        ops_per_conn: 10,
        seed: 7,
        ma: (5, 12),
        rho: 0.96,
        engine: EngineKind::Mt,
        verify: None,
        failover_to: Vec::new(),
        timeout_ms: None,
    };
    let report = run(&load).unwrap();
    assert_eq!(report.total_ops(), 80, "closed loop completes every op");
    assert_eq!(
        report.total_errors(),
        0,
        "BUSY is not an error:\n{}",
        report.render()
    );
    // The server also counts BUSY responses to the warm-up INFO retries,
    // so its tally can only be ≥ what the op loop observed.
    assert!(
        handle.metrics.busy_rejected() >= report.total_busy(),
        "server saw {} busy, clients counted {}",
        handle.metrics.busy_rejected(),
        report.total_busy()
    );
    handle.shutdown();
}

/// The `simload` binary takes `--engine auto`, like `simseq load` always
/// did (the two used to parse the flag separately).
#[test]
fn simload_binary_accepts_engine_auto() {
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 40, 64, 41);
    let index = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    let handle = serve(SharedIndex::new(index), &cfg).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_simload"))
        .args(["--conns", "2", "--ops", "4", "--engine", "auto", "--addr"])
        .arg(handle.addr.to_string())
        .output()
        .expect("spawn simload");
    assert!(
        out.status.success(),
        "simload failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    handle.shutdown();
}

/// `simload --verify-index` takes a shard directory: against a server of
/// the same three-shard directory, every response matches the oracle's
/// scatter-gather execution.
#[test]
fn simload_verifies_against_a_shard_directory() {
    let dir = std::env::temp_dir().join(format!("simserve_load_shards_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 60, 64, 43);
    let cfg = simshard::ShardConfig::new(3).unwrap();
    simshard::ShardedIndex::build(&corpus, cfg, IndexConfig::default())
        .unwrap()
        .save(&dir)
        .unwrap();
    let served = simshard::ShardedIndex::open(&dir, 64).unwrap();
    assert_eq!(served.shard_count(), 3);
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    let handle = serve(served, &cfg).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_simload"))
        .args(["--conns", "3", "--ops", "10", "--rho", "0.9", "--addr"])
        .arg(handle.addr.to_string())
        .arg("--verify-index")
        .arg(&dir)
        .output()
        .expect("spawn simload");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "simload failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("parity: 100% (30 responses"), "{stdout}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A mistyped or repeated flag must not start a server: `--wal-dir` for
/// `--wal` used to be dropped, and the operator who asked for durability
/// silently got none.
#[test]
fn simserved_binary_refuses_unknown_and_repeated_flags() {
    let typos = ["--index", "idx", "--wal-dir", "wal/", "--fsinc", "always"];
    for (more, named) in [
        (
            &["--workers", "1", "--workers", "2"][..],
            "--workers given twice",
        ),
        (&[][..], "unknown flag --wal-dir"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_simserved"))
            .args(typos)
            .args(more)
            .output()
            .expect("spawn simserved");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success() && stderr.contains(named), "{stderr}");
    }
}
