//! End-to-end tests of the sharded backend over loopback TCP: wire
//! results identical to the single-index backend, per-shard STATS lines,
//! the JOIN restriction, and the mutation path.

mod common;

use common::{corpus, test_config};
use simquery::prelude::*;
use simserve::client::Client;
use simserve::protocol::{EngineKind, ErrCode, QueryParams, Response, WireThreshold};
use simserve::server::{serve, Backend, ServerHandle};
use simshard::{ShardConfig, ShardedIndex};

fn start_pair(n: usize, seed: u64, shards: usize) -> (ServerHandle, ServerHandle) {
    let c = corpus(n, seed);
    let single = SharedIndex::new(SeqIndex::build(&c, IndexConfig::default()).unwrap());
    let sharded = ShardedIndex::build(
        &c,
        ShardConfig::new(shards).unwrap(),
        IndexConfig::default(),
    )
    .unwrap();
    let h_single = serve(single, &test_config()).unwrap();
    let h_sharded = serve(Backend::from(sharded), &test_config()).unwrap();
    (h_single, h_sharded)
}

#[test]
fn wire_results_match_single_backend() {
    let (h_single, h_sharded) = start_pair(90, 17, 4);
    let mut a = Client::connect(h_single.addr).unwrap();
    let mut b = Client::connect(h_sharded.addr).unwrap();

    for engine in [EngineKind::Mt, EngineKind::St, EngineKind::Scan] {
        for ord in [0usize, 41, 89] {
            let params = QueryParams {
                ord,
                ma: (4, 12),
                threshold: WireThreshold::Rho(0.93),
                engine,
                limit: 0,
            };
            let (n1, m1) = a.query(params).unwrap().unwrap();
            let (n2, m2) = b.query(params).unwrap().unwrap();
            assert_eq!(n1, n2, "{engine:?} ord {ord}");
            let key = |m: &simserve::protocol::WireMatch| (m.seq, m.transform);
            let mut s1: Vec<_> = m1.iter().map(key).collect();
            let mut s2: Vec<_> = m2.iter().map(key).collect();
            s1.sort_unstable();
            s2.sort_unstable();
            assert_eq!(s1, s2, "{engine:?} ord {ord}");
        }
    }

    // kNN parity over the wire, including the deterministic ordering.
    for ord in [5usize, 60] {
        let n1 = a.knn(ord, 7, (4, 10)).unwrap().unwrap();
        let n2 = b.knn(ord, 7, (4, 10)).unwrap().unwrap();
        let key = |m: &simserve::protocol::WireMatch| (m.seq, m.transform);
        let mut s1: Vec<_> = n1.iter().map(key).collect();
        let mut s2: Vec<_> = n2.iter().map(key).collect();
        s1.sort_unstable();
        s2.sort_unstable();
        assert_eq!(s1, s2, "knn ord {ord}");
        assert_eq!(n2[0].seq, ord, "self is nearest");
    }

    // k = 0 is the empty answer on both layouts, with nothing searched.
    let empty = |c: &mut Client| match c.call_raw("KNN ord=0 k=0 ma=4..10").unwrap() {
        Response::Matches {
            n,
            matches,
            metrics,
        } => (n, matches, metrics.nodes, metrics.fetches, metrics.cmps),
        other => panic!("KNN k=0 answered {other:?}"),
    };
    assert_eq!(empty(&mut a), (0, Vec::new(), 0, 0, 0));
    assert_eq!(empty(&mut b), empty(&mut a));

    a.quit().unwrap();
    b.quit().unwrap();
    h_single.shutdown();
    h_sharded.shutdown();
}

#[test]
fn stats_carry_per_shard_breakdown() {
    let c = corpus(80, 29);
    let sharded =
        ShardedIndex::build(&c, ShardConfig::new(3).unwrap(), IndexConfig::default()).unwrap();
    let loads = sharded.shard_loads();
    let handle = serve(Backend::from(sharded), &test_config()).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();

    // Drive some traffic so counters move.
    for ord in 0..5usize {
        let params = QueryParams {
            ord,
            ma: (4, 10),
            threshold: WireThreshold::Rho(0.9),
            engine: EngineKind::Mt,
            limit: 0,
        };
        client.query(params).unwrap().unwrap();
    }

    let stats = client.stats(false).unwrap().unwrap();
    assert_eq!(stats.shards.len(), 3, "one SHARD line per shard");
    for (i, line) in stats.shards.iter().enumerate() {
        assert_eq!(line.id, i);
        assert_eq!(line.seqs, loads[i] as u64);
    }
    // The COUNTERS totals are exactly the sum of the SHARD lines.
    let sum_nodes: u64 = stats.shards.iter().map(|s| s.node_reads).sum();
    let sum_fetches: u64 = stats.shards.iter().map(|s| s.record_fetches).sum();
    assert_eq!(stats.counters_total.0, sum_nodes);
    assert_eq!(stats.counters_total.2, sum_fetches);
    assert!(sum_nodes > 0, "MT queries must touch shard trees");

    // INFO reports the sharding shape.
    let info = client.info().unwrap().unwrap();
    let get = |k: &str| -> String {
        info.iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("INFO missing key {k}"))
    };
    assert_eq!(get("shards"), "3");
    assert_eq!(get("sequences"), "80");

    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn join_is_rejected_and_mutations_work() {
    let c = corpus(40, 31);
    let sharded =
        ShardedIndex::build(&c, ShardConfig::new(2).unwrap(), IndexConfig::default()).unwrap();
    let handle = serve(Backend::from(sharded), &test_config()).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();

    match client.join((4, 10), WireThreshold::Rho(0.97)).unwrap() {
        Err(Response::Err { code, msg }) => {
            assert_eq!(code, ErrCode::Query);
            assert!(msg.contains("sharded"), "explains the restriction: {msg}");
        }
        other => panic!("JOIN on a sharded backend must fail: {other:?}"),
    }

    // Insert lands at the next global ordinal; the new series is queryable
    // and deletable by that ordinal.
    let extra = corpus(1, 97);
    let ord = client
        .insert(extra.series()[0].values().to_vec())
        .unwrap()
        .unwrap();
    assert_eq!(ord, 40);
    let neighbors = client.knn(ord, 1, (1, 4)).unwrap().unwrap();
    assert_eq!(neighbors[0].seq, ord, "fresh insert is its own nearest");
    assert!(client.delete(ord).unwrap().unwrap());
    assert!(!client.delete(ord).unwrap().unwrap(), "second delete false");

    client.quit().unwrap();
    handle.shutdown();
}
