//! WAL-shipping replication over loopback TCP: a durable primary feeds
//! a follower through the `REPL` verb, and after the lag drains the
//! follower is answer-identical to the primary for range queries, kNN,
//! and joins across every engine. Also covers the follower's typed
//! `ERR READONLY` on writes, the `simseq_repl_*` series on both roles, and
//! the plan-cache regression: a cached result on a lagging follower
//! must not outlive an applied frame.
//!
//! Every scenario runs on a plain index and on a group of four shards
//! ([`common::SHARDS`]); a follower takes its shard count and placement
//! from the primary — also a range-placed directory's — and one seeded
//! from a directory of another shard count is refused.

mod common;

use common::{drain, fresh_dir, metric, query_key, save_corpus, POOL, SEQ_LEN, SHARDS};
use simquery::prelude::*;
use simquery::shared::DurableError;
use simserve::client::Client;
use simserve::protocol::{EngineKind, ErrCode, QueryParams, Response, WireThreshold};
use simserve::repl::{self, Follower, FollowerOpts};
use simserve::server::{serve, serve_with, ServerConfig};
use simshard::ShardedIndex;
use simwal::FsyncPolicy;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tseries::random_walk;
use tseries::rng::SeededRng;

fn test_config(result_cache: usize) -> ServerConfig {
    ServerConfig {
        result_cache,
        ..common::test_config()
    }
}

fn knn_key(client: &mut Client, ord: usize, k: usize) -> Vec<(usize, usize, String)> {
    client
        .knn(ord, k, (3, 10))
        .unwrap()
        .unwrap()
        .iter()
        .map(|m| (m.seq, m.transform, format!("{:.9}", m.dist)))
        .collect()
}

/// A `JOIN`'s pairs, or the code it is refused with: a group of more
/// than one shard refuses `JOIN` on every role alike.
fn join_key(
    client: &mut Client,
    engine: EngineKind,
) -> Result<(usize, Vec<(usize, usize)>), ErrCode> {
    let req = simserve::protocol::Request::Join {
        ma: (3, 10),
        threshold: WireThreshold::Rho(0.95),
        engine,
        limit: 0,
    };
    match client.call(&req).unwrap() {
        Response::Pairs { n, pairs, .. } => {
            let mut key: Vec<_> = pairs.iter().map(|p| (p.a, p.b)).collect();
            key.sort_unstable();
            Ok((n, key))
        }
        Response::Err { code, .. } => Err(code),
        other => panic!("JOIN failed: {other:?}"),
    }
}

/// A durable primary over `corpus` saved as `shards` shards under
/// `root/idx`, its log in `root/wal`.
fn durable_primary(root: &Path, corpus: &Corpus, shards: usize) -> ShardedIndex {
    save_corpus(corpus, shards, &root.join("idx"));
    ShardedIndex::open_durable(
        &root.join("idx"),
        &root.join("wal"),
        POOL,
        FsyncPolicy::Always,
    )
    .unwrap()
    .0
}

/// The acceptance scenario: bootstrap a follower from a snapshot, ship
/// N acked mutations, drain, and the follower answers every read verb
/// exactly like the primary — then keeps refusing writes with a typed
/// error.
#[test]
fn follower_converges_and_serves_identical_reads() {
    for shards in SHARDS {
        follower_converges(shards);
    }
}

fn follower_converges(shards: usize) {
    let root = fresh_dir(&format!("parity{shards}"));
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 20, SEQ_LEN, 0x9E9);
    let shared_p = durable_primary(&root, &corpus, shards);
    let hp = serve(shared_p, &test_config(0)).unwrap();
    let mut pc = Client::connect(hp.addr).unwrap();

    // A couple of pre-bootstrap mutations, so the snapshot itself is
    // already past the base state (and contains a tombstone).
    let mut rng = SeededRng::seed_from_u64(0xF01);
    pc.insert(random_walk(&mut rng, SEQ_LEN, 50.0).values().to_vec())
        .unwrap()
        .unwrap();
    assert!(pc.delete(3).unwrap().unwrap());

    let (shared_f, mut follower) = repl::bootstrap(
        &hp.addr.to_string(),
        FollowerOpts {
            wait_ms: 0,
            ..Default::default()
        },
        POOL,
    )
    .unwrap();
    let hf = serve_with(shared_f, &test_config(0), Some(follower.stats())).unwrap();
    let mut fc = Client::connect(hf.addr).unwrap();

    // N acked mutations land after the snapshot cut and must stream.
    for _ in 0..6 {
        pc.insert(random_walk(&mut rng, SEQ_LEN, 50.0).values().to_vec())
            .unwrap()
            .unwrap();
    }
    assert!(pc.delete(7).unwrap().unwrap());
    assert!(pc.delete(20).unwrap().unwrap());
    drain(&mut follower);
    assert_eq!(follower.applied(), 10, "2 + 6 + 2 acked mutations shipped");

    // Answer parity for every read verb, across engines.
    for engine in [EngineKind::Mt, EngineKind::St, EngineKind::Scan] {
        for ord in [0usize, 5, 21, 26] {
            assert_eq!(
                query_key(&mut pc, ord, engine),
                query_key(&mut fc, ord, engine),
                "QUERY diverged at ord {ord} ({engine:?})"
            );
        }
        assert_eq!(
            join_key(&mut pc, engine),
            join_key(&mut fc, engine),
            "JOIN diverged ({engine:?})"
        );
    }
    for ord in [0usize, 5, 21] {
        assert_eq!(
            knn_key(&mut pc, ord, 5),
            knn_key(&mut fc, ord, 5),
            "KNN diverged at ord {ord}"
        );
    }

    // Deleted ordinals answer identically too — same success shape or
    // the same typed error on both roles.
    match (
        pc.query(query_params_for(7)).unwrap(),
        fc.query(query_params_for(7)).unwrap(),
    ) {
        (Ok((np, mut kp)), Ok((nf, mut kf))) => {
            kp.sort_by_key(|a| (a.seq, a.transform));
            kf.sort_by_key(|a| (a.seq, a.transform));
            assert_eq!(np, nf);
            assert_eq!(
                kp.iter().map(|m| (m.seq, m.transform)).collect::<Vec<_>>(),
                kf.iter().map(|m| (m.seq, m.transform)).collect::<Vec<_>>()
            );
        }
        (Err(Response::Err { code: cp, .. }), Err(Response::Err { code: cf, .. })) => {
            assert_eq!(cp, cf)
        }
        other => panic!("roles diverged on a deleted ordinal: {other:?}"),
    }

    // The follower refuses every mutating verb with the typed code and
    // stays fully readable afterwards.
    for resp in [
        fc.insert(vec![1.0; SEQ_LEN]).unwrap().unwrap_err(),
        fc.delete(0).unwrap().unwrap_err(),
        fc.checkpoint().unwrap().unwrap_err(),
    ] {
        match resp {
            Response::Err { code, msg } => {
                assert_eq!(code, ErrCode::ReadOnly, "{msg}");
                assert!(msg.contains("follower"), "error names the role: {msg}");
            }
            other => panic!("expected ERR READONLY, got {other:?}"),
        }
    }
    assert_eq!(query_key(&mut fc, 0, EngineKind::Mt).0, {
        let (n, _) = query_key(&mut pc, 0, EngineKind::Mt);
        n
    });

    // METRICS: the follower reports its role and applied position; the
    // primary reports the follower's acked position and zero lag.
    let repl = |lines: &[String], role: &str, series: &str| {
        metric(lines, &format!("simseq_repl_{series}{{role=\"{role}\"}}"))
    };
    let f = fc.metrics().unwrap().unwrap();
    assert_eq!(repl(&f, "follower", "applied_lsn"), 10);
    assert_eq!(repl(&f, "follower", "acked_lsn"), 10);
    assert_eq!(repl(&f, "follower", "lag"), 0);
    assert!(
        repl(&f, "follower", "bytes_total") > 0,
        "shipped frame bytes are accounted"
    );
    assert_eq!(repl(&f, "follower", "epoch"), 1);

    let p = pc.metrics().unwrap().unwrap();
    assert_eq!(repl(&p, "primary", "followers"), 1);
    assert_eq!(repl(&p, "primary", "acked_lsn"), 10);
    assert_eq!(repl(&p, "primary", "lag"), 0);
    assert!(repl(&p, "primary", "bytes_total") > 0);

    fc.quit().unwrap();
    pc.quit().unwrap();
    hf.shutdown();
    hp.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

fn query_params_for(ord: usize) -> QueryParams {
    QueryParams {
        ord,
        ma: (3, 10),
        threshold: WireThreshold::Rho(0.9),
        engine: EngineKind::Mt,
        limit: 0,
    }
}

/// A follower that starts from a local seed copy of the index (the
/// `--index` form) re-handshakes with the reserved `from=0`, installs
/// the snapshot, and converges like a bootstrapped one.
#[test]
fn follower_with_seed_index_catches_up_via_snapshot() {
    for shards in SHARDS {
        seed_index_catches_up(shards);
    }
}

fn seed_index_catches_up(shards: usize) {
    let root = fresh_dir(&format!("seed{shards}"));
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 16, SEQ_LEN, 0x5EE);
    save_corpus(&corpus, shards, &root.join("fidx"));
    let shared_p = durable_primary(&root, &corpus, shards);
    let hp = serve(shared_p, &test_config(0)).unwrap();
    let mut pc = Client::connect(hp.addr).unwrap();
    let mut rng = SeededRng::seed_from_u64(0x5EED);
    for _ in 0..3 {
        pc.insert(random_walk(&mut rng, SEQ_LEN, 50.0).values().to_vec())
            .unwrap()
            .unwrap();
    }

    let shared_f = Arc::new(ShardedIndex::open(&root.join("fidx"), POOL).unwrap());
    let mut follower = Follower::connect(
        &hp.addr.to_string(),
        shared_f.clone(),
        FollowerOpts {
            wait_ms: 0,
            ..Default::default()
        },
    )
    .unwrap();
    drain(&mut follower);
    assert_eq!(follower.applied(), 3);
    assert_eq!(
        follower
            .stats()
            .snapshots
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "a fresh seed re-handshakes through exactly one snapshot"
    );
    assert_eq!(shared_f.len(), 19);

    pc.quit().unwrap();
    hp.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Plan-cache regression: with `--result-cache` enabled on a follower,
/// a result cached before a frame lands must not be served after the
/// frame applies. The follower's query epoch incorporates replicated
/// LSNs, so the stale entry becomes unreachable the moment the state
/// changes — reads on a lagging follower are stale-at-worst, never
/// wrong-under-the-current-state.
#[test]
fn plan_cache_on_follower_never_serves_stale_reads() {
    for shards in SHARDS {
        plan_cache_on_follower(shards);
    }
}

fn plan_cache_on_follower(shards: usize) {
    let root = fresh_dir(&format!("cache{shards}"));
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 12, SEQ_LEN, 0xCAC);
    let shared_p = durable_primary(&root, &corpus, shards);
    let hp = serve(shared_p, &test_config(0)).unwrap();
    let mut pc = Client::connect(hp.addr).unwrap();

    let (shared_f, mut follower) = repl::bootstrap(
        &hp.addr.to_string(),
        FollowerOpts {
            wait_ms: 0,
            ..Default::default()
        },
        POOL,
    )
    .unwrap();
    // Result cache ON — the whole point of this regression test.
    let hf = serve_with(shared_f, &test_config(32), Some(follower.stats())).unwrap();
    let mut fc = Client::connect(hf.addr).unwrap();

    // Prime the cache: identical request twice; the second must hit.
    let before = query_key(&mut fc, 0, EngineKind::Mt);
    let again = query_key(&mut fc, 0, EngineKind::Mt);
    assert_eq!(before, again);
    let plan = fc.stats(false).unwrap().unwrap().plan.unwrap();
    assert!(plan.cache_hits >= 1, "second identical query must hit");

    // The primary inserts an exact copy of ordinal 0: any ρ-query on
    // ordinal 0 must now match the twin (correlation 1).
    let twin = corpus.series()[0].values().to_vec();
    let new_ord = pc.insert(twin).unwrap().unwrap();
    drain(&mut follower);

    // Same request on the follower: the cached pre-frame result is
    // keyed on the old epoch, so the answer now includes the twin.
    let (_, after) = query_key(&mut fc, 0, EngineKind::Mt);
    assert!(
        after.iter().any(|(seq, _)| *seq == new_ord),
        "follower served a stale cached result: {after:?} misses ord {new_ord}"
    );
    assert_eq!(
        query_key(&mut pc, 0, EngineKind::Mt),
        query_key(&mut fc, 0, EngineKind::Mt),
        "post-frame answers must be identical on both roles"
    );

    fc.quit().unwrap();
    pc.quit().unwrap();
    hf.shutdown();
    hp.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A replica keeps the record pool it was configured with: `bootstrap`
/// builds it with the pool size it is given, and a snapshot install on an
/// `--index` follower (every epoch-mismatch re-sync) keeps the pool of the
/// index it replaces instead of falling back to the default.
#[test]
fn snapshot_installs_keep_the_followers_pool_size() {
    for shards in SHARDS {
        installs_keep_pool_size(shards);
    }
}

fn installs_keep_pool_size(shards: usize) {
    const BOOT_POOL: usize = 37;
    const INDEX_POOL: usize = 29;
    let root = fresh_dir(&format!("pool{shards}"));
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 16, SEQ_LEN, 0x9001);
    save_corpus(&corpus, shards, &root.join("fidx"));
    let shared_p = durable_primary(&root, &corpus, shards);
    let hp = serve(shared_p, &test_config(0)).unwrap();
    let opts = || FollowerOpts {
        wait_ms: 0,
        ..Default::default()
    };

    let (booted, _) = repl::bootstrap(&hp.addr.to_string(), opts(), BOOT_POOL).unwrap();
    assert_eq!(booted.shards()[0].read().heap_pool_pages(), BOOT_POOL);

    // A fresh `--index` follower holds no replica position, so its first
    // poll installs the primary's snapshot over the local index.
    let local = Arc::new(ShardedIndex::open(&root.join("fidx"), INDEX_POOL).unwrap());
    let mut follower = Follower::connect(&hp.addr.to_string(), Arc::clone(&local), opts()).unwrap();
    drain(&mut follower);
    let installs = follower.stats().snapshots.load(Ordering::Relaxed);
    assert_eq!(installs, 1, "the first poll re-synced from a snapshot");
    assert_eq!(local.shards()[0].read().heap_pool_pages(), INDEX_POOL);

    drop(follower);
    hp.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Writes `corpus` as a shard directory placed by `assignment` under a
/// named `partitioner` — what builds wrote before placement was always
/// the ordinal's hash; its `assignment` stays authoritative.
fn write_placed_group(dir: &Path, corpus: &Corpus, assignment: &[usize], policy: &str) {
    let shards = assignment.iter().max().unwrap() + 1;
    for s in 0..shards {
        let (names, series) = (0..corpus.len())
            .filter(|&g| assignment[g] == s)
            .map(|g| (corpus.names()[g].clone(), corpus.series()[g].clone()))
            .unzip();
        SeqIndex::build(&Corpus::from_parts(names, series), IndexConfig::default())
            .unwrap()
            .save(&dir.join(format!("shard-{s}")))
            .unwrap();
    }
    let assignment: Vec<String> = assignment.iter().map(usize::to_string).collect();
    let manifest = format!(
        "simshard v1\nshards {shards}\npartitioner {policy}\nseq_len {}\nepoch 1\n\
         assignment {}\n",
        corpus.series_len(),
        assignment.join(",")
    );
    std::fs::write(dir.join("sharding.txt"), manifest).unwrap();
}

/// A primary opened from a range-placed directory ships its placement: a
/// durable follower seeded with the hash placement takes the primary's
/// assignment at the snapshot install, checkpoints it into its own
/// directory, and later frames — inserts on hash-placed ordinals, deletes
/// on range-placed ones — apply without a `Gap` re-sync.
#[test]
fn range_placed_primary_replicates_its_placement() {
    let root = fresh_dir("range");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 16, SEQ_LEN, 0x4A9E);
    let assignment: Vec<usize> = (0..16).map(|g| g / 4).collect();
    write_placed_group(&root.join("idx"), &corpus, &assignment, "range");
    save_corpus(&corpus, 4, &root.join("fidx"));
    let (primary, _) = ShardedIndex::open_durable(
        &root.join("idx"),
        &root.join("wal"),
        POOL,
        FsyncPolicy::Always,
    )
    .unwrap();
    let primary = Arc::new(primary);
    let hp = serve(Arc::clone(&primary), &test_config(0)).unwrap();
    let mut pc = Client::connect(hp.addr).unwrap();

    let open_follower = || {
        common::retry_locked(|| {
            ShardedIndex::open_durable(
                &root.join("fidx"),
                &root.join("fwal"),
                POOL,
                FsyncPolicy::Always,
            )
        })
        .0
    };
    let local = Arc::new(open_follower());
    assert_ne!(local.map_snapshot().assignment(), assignment);
    let mut follower = Follower::connect(
        &hp.addr.to_string(),
        Arc::clone(&local),
        FollowerOpts {
            wait_ms: 0,
            state_dir: Some(root.join("fwal")),
            ..Default::default()
        },
    )
    .unwrap();
    drain(&mut follower);
    assert_eq!(local.map_snapshot().assignment(), assignment);

    let mut rng = SeededRng::seed_from_u64(0x4A9F);
    for _ in 0..6 {
        pc.insert(random_walk(&mut rng, SEQ_LEN, 50.0).values().to_vec())
            .unwrap()
            .unwrap();
    }
    assert!(pc.delete(2).unwrap().unwrap());
    assert!(pc.delete(13).unwrap().unwrap());
    assert!(pc.delete(17).unwrap().unwrap());
    drain(&mut follower);
    assert_eq!(follower.applied(), 9);
    assert_eq!(
        follower.stats().snapshots.load(Ordering::Relaxed),
        1,
        "every later frame applied without a Gap re-sync"
    );
    assert_eq!(
        local.map_snapshot().assignment(),
        primary.map_snapshot().assignment()
    );
    common::assert_state_identical(&primary, &local, "range-placed primary");

    // The install checkpointed the primary's placement into the
    // follower's own shard directory, and the log replays the frames.
    drop(follower);
    drop(local);
    let reopened = open_follower();
    common::assert_state_identical(&primary, &reopened, "reopened follower");
    drop(reopened);
    pc.quit().unwrap();
    hp.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A durable follower whose own directory holds another shard count than
/// the primary is refused with one typed error naming both counts, and
/// nothing is installed.
#[test]
fn follower_of_another_shard_count_is_refused() {
    for (primary_shards, local_shards) in [(4, 1), (1, 4)] {
        let root = fresh_dir(&format!("mismatch{primary_shards}"));
        let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 16, SEQ_LEN, 0x3157);
        let hp = serve(
            durable_primary(&root, &corpus, primary_shards),
            &test_config(0),
        )
        .unwrap();
        save_corpus(&corpus, local_shards, &root.join("fidx"));
        let (local, _) = ShardedIndex::open_durable(
            &root.join("fidx"),
            &root.join("fwal"),
            POOL,
            FsyncPolicy::Always,
        )
        .unwrap();
        let local = Arc::new(local);
        let state = |g: &ShardedIndex| {
            (
                g.len(),
                g.wal_epoch(),
                g.applied_lsn(),
                g.replica_epoch(),
                g.query_epoch(),
            )
        };
        let before = state(&local);
        let mut follower = Follower::connect(
            &hp.addr.to_string(),
            Arc::clone(&local),
            FollowerOpts {
                wait_ms: 0,
                state_dir: Some(root.join("fwal")),
                ..Default::default()
            },
        )
        .unwrap();
        let err = follower.poll_once().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(
            matches!(
                err.get_ref().and_then(|e| e.downcast_ref::<DurableError>()),
                Some(DurableError::ShardCount { local: l, primary: p })
                    if (*l, *p) == (local_shards, primary_shards)
            ),
            "{err}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("primary holds {primary_shards} shards"))
                && msg.contains(&format!("follower holds {local_shards}")),
            "{msg}"
        );
        assert_eq!(state(&local), before, "nothing was installed");
        assert!(!root.join("fwal").join("REPLICA").exists());
        drop(follower);
        hp.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// `simserved --replicate-from` over an `--index` of another shard count
/// fails start-up with the refusal naming both counts, instead of
/// serving the directory's stale state while the poll loop retries.
#[test]
fn serve_refuses_a_follower_index_of_another_shard_count() {
    for (primary_shards, local_shards) in [(4, 1), (1, 4)] {
        let root = fresh_dir(&format!("serve_mismatch{primary_shards}"));
        let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 16, SEQ_LEN, 0x3158);
        let hp = serve(
            durable_primary(&root, &corpus, primary_shards),
            &test_config(0),
        )
        .unwrap();
        save_corpus(&corpus, local_shards, &root.join("fidx"));
        let argv: Vec<String> = [
            "--replicate-from",
            &hp.addr.to_string(),
            "--index",
            root.join("fidx").to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
        ]
        .map(String::from)
        .to_vec();
        let (tx, rx) = std::sync::mpsc::channel();
        let started = std::thread::spawn(move || tx.send(simserve::cmd::serve(&argv)).unwrap());
        let err = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("start-up must fail, not serve")
            .unwrap_err();
        started.join().unwrap();
        assert!(
            err.contains(&format!("primary holds {primary_shards} shards"))
                && err.contains(&format!("follower holds {local_shards}")),
            "{err}"
        );
        hp.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}
