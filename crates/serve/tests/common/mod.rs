//! Helpers shared by the loopback suites. Each suite is its own crate
//! and uses a subset, hence the blanket `dead_code` allowance.
#![allow(dead_code)]

use simquery::index::{IndexConfig, SeqIndex};
use simquery::shared::SharedIndex;
use simserve::client::Client;
use simserve::protocol::{EngineKind, QueryParams, WireThreshold};
use simserve::repl::Follower;
use simserve::server::{Backend, ServerConfig};
use simshard::{ShardConfig, ShardedIndex};
use std::path::{Path, PathBuf};
use tseries::{Corpus, CorpusKind};

/// Sequence length of the replication/recovery suites' corpora.
pub const SEQ_LEN: usize = 32;
/// Their record buffer-pool size, in pages.
pub const POOL: usize = 32;
/// The shard counts the replication, recovery and failover suites run
/// every scenario on: a plain index directory, and a group of four.
pub const SHARDS: [usize; 2] = [1, 4];

/// Saves `corpus` under `dir` as `shards` shards: a plain index directory
/// for one, a hash-placed shard directory otherwise.
pub fn save_corpus(corpus: &Corpus, shards: usize, dir: &Path) {
    if shards == 1 {
        SeqIndex::build(corpus, IndexConfig::default())
            .unwrap()
            .save(dir)
            .unwrap();
    } else {
        let cfg = ShardConfig::new(shards).unwrap();
        ShardedIndex::build(corpus, cfg, IndexConfig::default())
            .unwrap()
            .save(dir)
            .unwrap();
    }
}

/// An in-memory group of `shards` shards over `corpus`: the one-shard
/// view of a plain index for one.
pub fn in_memory(corpus: &Corpus, shards: usize) -> Backend {
    if shards == 1 {
        SharedIndex::new(SeqIndex::build(corpus, IndexConfig::default()).unwrap()).into()
    } else {
        let cfg = ShardConfig::new(shards).unwrap();
        ShardedIndex::build(corpus, cfg, IndexConfig::default())
            .unwrap()
            .into()
    }
}

/// A small server on a free loopback port, result cache off.
pub fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(), // pick a free port
        workers: 2,
        queue_depth: 16,
        max_conns: 16,
        result_cache: 0,
        ..ServerConfig::default()
    }
}

/// An empty scratch directory unique to this test process and `name`.
pub fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simserve_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Connection handlers are detached threads each holding a backend clone;
/// `shutdown()` joins only the acceptor, so the directory `LOCK` can be
/// released a moment after it returns. Reopens therefore retry briefly.
pub fn retry_locked<T, E: std::fmt::Display>(mut open: impl FnMut() -> Result<T, E>) -> T {
    let mut last = None;
    for _ in 0..500 {
        match open() {
            Ok(v) => return v,
            Err(e) if e.to_string().contains("locked") => {
                last = Some(e);
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => panic!("open failed: {e}"),
        }
    }
    panic!("open kept failing after 5s: {}", last.unwrap());
}

/// Byte-level state equality: same ordinal space, same placement, same
/// tombstone set, same values per ordinal. Stronger than answer parity —
/// a duplicated or skipped frame cannot hide.
pub fn assert_state_identical(a: &ShardedIndex, b: &ShardedIndex, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: ordinal space diverged");
    assert_eq!(a.seq_len(), b.seq_len(), "{ctx}");
    assert_eq!(
        a.map_snapshot().assignment(),
        b.map_snapshot().assignment(),
        "{ctx}: placement diverged"
    );
    assert_eq!(
        a.deleted_ordinals(),
        b.deleted_ordinals(),
        "{ctx}: tombstone sets diverged"
    );
    for ord in 0..a.len() {
        assert_eq!(
            a.fetch_series(ord).unwrap().unwrap().values(),
            b.fetch_series(ord).unwrap().unwrap().values(),
            "{ctx}: values diverged at ordinal {ord}"
        );
    }
}

/// Steps the follower until it has applied everything the primary holds.
pub fn drain(follower: &mut Follower) {
    for _ in 0..1000 {
        if follower.poll_once().unwrap() == 0 && follower.lag() == 0 {
            return;
        }
    }
    panic!("follower failed to drain within 1000 polls");
}

/// Value of the `METRICS` line whose full series name (labels included)
/// is `name`; panics with context when absent or not an integer.
pub fn metric(lines: &[String], name: &str) -> u64 {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("exposition missing {name}: {lines:#?}"))
        .parse()
        .unwrap_or_else(|e| panic!("{name} not an integer: {e}"))
}

/// `n` seeded random walks of length 64.
pub fn corpus(n: usize, seed: u64) -> Corpus {
    Corpus::generate(CorpusKind::SyntheticWalks, n, 64, seed)
}

/// `(n, sorted (seq, transform) pairs)` of an unlimited `QUERY ord=…
/// ma=3..10 rho=0.9` — the answer fingerprint the suites compare.
pub fn query_key(
    client: &mut Client,
    ord: usize,
    engine: EngineKind,
) -> (usize, Vec<(usize, usize)>) {
    let (n, matches) = client
        .query(QueryParams {
            ord,
            ma: (3, 10),
            threshold: WireThreshold::Rho(0.9),
            engine,
            limit: 0,
        })
        .unwrap()
        .unwrap();
    let mut key: Vec<_> = matches.iter().map(|m| (m.seq, m.transform)).collect();
    key.sort_unstable();
    (n, key)
}
