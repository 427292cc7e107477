//! Closed-loop failover under injected network faults: a
//! [`FailoverClient`] drives a primary+follower pair through a
//! [`ChaosProxy`] (seeded connection refusals, delays, and mid-stream
//! cuts), the primary is partitioned away mid-run, the follower is
//! promoted, and the client must finish the workload with **zero wrong
//! answers** — every response is either correct or a typed error, and
//! every acked `INSERT` survives on the new primary.
//!
//! Retries give `INSERT` at-least-once semantics (a response lost to a
//! cut is retried after the server applied it), so the assertions are
//! content-based — every acked series is present — never count-based.
//!
//! The story runs on a plain index and on a group of four shards
//! ([`common::SHARDS`]): the sharded run is `PROMOTE` of a shard group
//! under [`ChaosProxy`].

mod common;

use common::{fresh_dir, save_corpus, POOL, SEQ_LEN, SHARDS};
use simquery::prelude::*;
use simserve::chaos::{ChaosPlan, ChaosProxy};
use simserve::client::{Client, ClientConfig};
use simserve::failover::{FailoverClient, FailoverConfig};
use simserve::protocol::{EngineKind, QueryParams, Request, Response, WireThreshold};
use simserve::repl::{Follower, FollowerOpts};
use simserve::server::{serve, serve_with, ServerConfig};
use simshard::{gather, ShardedIndex};
use simwal::FsyncPolicy;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tseries::random_walk;
use tseries::rng::SeededRng;

const MA: (usize, usize) = (3, 9);
const RHO: f64 = 0.9;

/// The fixed seed matrix (mirrored by `scripts/ci.sh failover`): each
/// seed replays one deterministic fault schedule end to end.
const SEEDS: [u64; 3] = [0xC0FFEE1, 0xC0FFEE2, 0xC0FFEE3];

fn test_config() -> ServerConfig {
    ServerConfig {
        max_conns: 32,
        ..common::test_config()
    }
}

/// The oracle result set, computed locally through the plan layer on
/// the serving node's own state (the shape of `load::local_pairs`).
fn local_pairs(group: &ShardedIndex, ord: usize) -> Vec<(usize, usize)> {
    let family = Family::moving_averages(MA.0..=MA.1, group.seq_len());
    let q = group
        .fetch_series(ord)
        .unwrap()
        .expect("oracle ordinal is live");
    let spec = WireThreshold::Rho(RHO).to_spec();
    let lq = LogicalQuery::range(family, spec).with_engine(EnginePref::Force(EngineChoice::Mt));
    match gather::execute(group, &lq, Some(&q)) {
        Ok((_, PlanOutput::Range(r), _)) => r.sorted_pairs(),
        _ => Vec::new(),
    }
}

/// A durable group of `dir` with its log in `wal`.
fn open_durable(dir: &std::path::Path, wal: &std::path::Path) -> Arc<ShardedIndex> {
    Arc::new(
        ShardedIndex::open_durable(dir, wal, POOL, FsyncPolicy::Always)
            .unwrap()
            .0,
    )
}

/// One full failover story per shard count and seed: faulty
/// client→primary path, clean replication, partition, promotion, and a
/// client that chases the new primary without ever returning a wrong
/// answer.
#[test]
fn failover_client_survives_chaos_and_promotion() {
    for shards in SHARDS {
        for seed in SEEDS {
            failover_story(shards, seed);
        }
    }
}

fn failover_story(shards: usize, seed: u64) {
    let root = fresh_dir(&format!("s{seed:x}n{shards}"));
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 12, SEQ_LEN, seed);
    save_corpus(&corpus, shards, &root.join("idx"));
    save_corpus(&corpus, shards, &root.join("fidx"));

    let shared_p = open_durable(&root.join("idx"), &root.join("wal"));
    let hp = serve(shared_p.clone(), &test_config()).unwrap();

    // The follower replicates over a clean link (chaos is injected
    // on the client path only) and serves behind its own address.
    let shared_f = open_durable(&root.join("fidx"), &root.join("fwal"));
    let follower = Follower::connect(
        &hp.addr.to_string(),
        shared_f.clone(),
        FollowerOpts {
            wait_ms: 50,
            state_dir: Some(root.join("fwal")),
            ..Default::default()
        },
    )
    .unwrap();
    let stats = follower.stats();
    let stop = Arc::new(AtomicBool::new(false));
    let loop_handle = follower.spawn(Arc::clone(&stop));
    let hf = serve_with(shared_f.clone(), &test_config(), Some(stats)).unwrap();
    hf.repl().register_follower_loop(stop, loop_handle);

    // Chaos sits between the client and the primary: some
    // connections refused outright, some delayed, some cut
    // mid-stream after a seeded byte budget.
    let proxy = ChaosProxy::start(
        hp.addr.to_string(),
        seed,
        ChaosPlan {
            refuse_p: 0.2,
            delay_p: 0.5,
            delay_ms: (1, 3),
            cut_p: 0.2,
            cut_after: (64, 2048),
            ..ChaosPlan::default()
        },
    )
    .unwrap();

    // Endpoint order starts at the *follower*, so the very first
    // write proves the ERR READONLY redirect path.
    let mut fc = FailoverClient::new(
        vec![hf.addr.to_string(), proxy.addr().to_string()],
        FailoverConfig {
            client: ClientConfig::with_timeout_ms(2_000),
            max_attempts: 12,
            seed,
            ..FailoverConfig::default()
        },
    );
    let counters = fc.counters();

    // Phase 1: 8 inserts + 8 queries through the faulty path. Every
    // response must be the matching typed frame; acked insert
    // content is recorded for the survival check.
    let mut rng = SeededRng::seed_from_u64(seed ^ 0xACED);
    let mut acked: Vec<Vec<f64>> = Vec::new();
    let mut do_insert = |fc: &mut FailoverClient, acked: &mut Vec<Vec<f64>>, ctx: &str| {
        let ts = random_walk(&mut rng, SEQ_LEN, 50.0);
        match fc.call(&Request::Insert {
            values: ts.values().to_vec(),
        }) {
            Ok(Response::Inserted { .. }) => acked.push(ts.values().to_vec()),
            Ok(other) => panic!("seed {seed:x} {ctx}: INSERT answered {other:?}"),
            Err(e) => panic!("seed {seed:x} {ctx}: INSERT gave up: {e}"),
        }
    };
    for i in 0..8 {
        do_insert(&mut fc, &mut acked, &format!("phase1 op {i}"));
        let params = QueryParams {
            ord: i % 12,
            ma: MA,
            threshold: WireThreshold::Rho(RHO),
            engine: EngineKind::Mt,
            limit: 0,
        };
        match fc.call(&Request::Query(params)) {
            Ok(Response::Matches { .. }) => {}
            Ok(other) => panic!("seed {seed:x} phase1 op {i}: QUERY answered {other:?}"),
            Err(e) => panic!("seed {seed:x} phase1 op {i}: QUERY gave up: {e}"),
        }
    }
    let (_, redirects, _, giveups) = counters.snapshot();
    assert!(
        redirects >= 1,
        "seed {seed:x}: the follower-first endpoint order forces a READONLY redirect"
    );
    assert_eq!(giveups, 0, "seed {seed:x}: no call may exhaust its budget");

    // Let replication catch up to the full acked prefix, then
    // partition the primary and promote the follower.
    let deadline = Instant::now() + Duration::from_secs(10);
    while shared_f.applied_lsn() < acked.len() as u64 {
        assert!(
            Instant::now() < deadline,
            "seed {seed:x}: follower failed to catch up (applied {} of {})",
            shared_f.applied_lsn(),
            acked.len()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    proxy.set_partitioned(true);
    let mut admin = Client::connect(hf.addr).unwrap();
    let new_epoch = admin.promote().unwrap().unwrap();
    assert!(new_epoch >= 2, "seed {seed:x}");
    admin.quit().unwrap();

    // Phase 2: the same client finishes the workload; the partition
    // forces it off the dead endpoint onto the new primary.
    for i in 0..8 {
        do_insert(&mut fc, &mut acked, &format!("phase2 op {i}"));
    }
    let (retries, _, reconnects, giveups) = counters.snapshot();
    assert_eq!(
        giveups, 0,
        "seed {seed:x}: zero giveups across the failover"
    );
    assert!(
        retries >= 1 && reconnects >= 1,
        "seed {seed:x}: the partition must force at least one retry + re-dial \
         (retries {retries}, reconnects {reconnects})"
    );

    // Survival: every acked insert's content is present on the new
    // primary (at-least-once ⇒ content, not counts).
    {
        let live: Vec<Vec<f64>> = (0..shared_f.len())
            .filter_map(|ord| shared_f.fetch_series(ord).ok().flatten())
            .map(|ts| ts.values().to_vec())
            .collect();
        for (i, want) in acked.iter().enumerate() {
            assert!(
                live.iter().any(|got| got == want),
                "seed {seed:x}: acked insert {i} lost in the failover"
            );
        }
    }

    // Correctness: with the state settled, a query through the
    // chaos client must equal the local plan-layer execution on the
    // new primary, pair for pair.
    for ord in [0usize, 5, 11] {
        let params = QueryParams {
            ord,
            ma: MA,
            threshold: WireThreshold::Rho(RHO),
            engine: EngineKind::Mt,
            limit: 0,
        };
        match fc.call(&Request::Query(params)) {
            Ok(Response::Matches { matches, .. }) => {
                let mut got: Vec<(usize, usize)> =
                    matches.iter().map(|m| (m.seq, m.transform)).collect();
                got.sort_unstable();
                assert_eq!(
                    got,
                    local_pairs(&shared_f, ord),
                    "seed {seed:x}: ord {ord} answered wrongly after failover"
                );
            }
            Ok(other) => panic!("seed {seed:x}: settled QUERY answered {other:?}"),
            Err(e) => panic!("seed {seed:x}: settled QUERY gave up: {e}"),
        }
    }

    proxy.shutdown();
    hf.shutdown();
    hp.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
