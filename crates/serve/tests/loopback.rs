//! End-to-end tests over a loopback TCP connection: a real `simserved`
//! server instance, a real [`Client`], every protocol verb, error frames,
//! malformed input, and admission control.

mod common;

use common::{corpus, test_config};
use simquery::engine::mtindex;
use simquery::index::AccessCounters;
use simquery::plan;
use simquery::prelude::*;
use simserve::client::Client;
use simserve::protocol::{EngineKind, ErrCode, QueryParams, Response, WireMetrics, WireThreshold};
use simserve::server::{engine_pref, serve, ServerConfig, ServerHandle};
use std::io::{BufReader, Write};
use std::net::TcpStream;

fn start(n: usize, seed: u64) -> (SharedIndex, ServerHandle) {
    let index = SeqIndex::build(&corpus(n, seed), IndexConfig::default()).unwrap();
    let shared = SharedIndex::new(index);
    let handle = serve(shared.clone(), &test_config()).unwrap();
    (shared, handle)
}

#[test]
fn query_over_wire_matches_direct_engine() {
    let (shared, handle) = start(80, 7);
    let mut client = Client::connect(handle.addr).unwrap();
    for ord in [0usize, 13, 79] {
        let params = QueryParams {
            ord,
            ma: (4, 12),
            threshold: WireThreshold::Rho(0.95),
            engine: EngineKind::Mt,
            limit: 0,
        };
        let (n, matches) = client.query(params).unwrap().unwrap();
        assert_eq!(n, matches.len(), "no truncation with limit=0");
        let mut got: Vec<(usize, usize)> = matches.iter().map(|m| (m.seq, m.transform)).collect();
        got.sort_unstable();

        let index = shared.read();
        let family = Family::moving_averages(4..=12, index.seq_len());
        let spec = WireThreshold::Rho(0.95).to_spec();
        let q = index.fetch_series(ord).unwrap();
        let want = mtindex::range_query(&index, &q, &family, &spec)
            .unwrap()
            .sorted_pairs();
        assert_eq!(got, want, "ord {ord}");
    }
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn limit_truncates_but_reports_full_count() {
    let (_shared, handle) = start(80, 7);
    let mut client = Client::connect(handle.addr).unwrap();
    let full = QueryParams {
        ord: 0,
        ma: (4, 12),
        threshold: WireThreshold::Rho(0.9),
        engine: EngineKind::Mt,
        limit: 0,
    };
    let (n_full, matches_full) = client.query(full).unwrap().unwrap();
    assert!(n_full >= 2, "self-match across windows expected");
    let limited = QueryParams { limit: 1, ..full };
    let (n, matches) = client.query(limited).unwrap().unwrap();
    assert_eq!(n, n_full, "total count survives truncation");
    assert_eq!(matches.len(), 1);
    assert_eq!(matches[0].seq, matches_full[0].seq);
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn knn_and_join_round_trip() {
    let (_shared, handle) = start(40, 11);
    let mut client = Client::connect(handle.addr).unwrap();

    let neighbors = client.knn(3, 5, (4, 10)).unwrap().unwrap();
    assert_eq!(neighbors.len(), 5);
    // Nearest neighbor of a series in the corpus is itself at distance ~0.
    assert_eq!(neighbors[0].seq, 3);
    assert!(neighbors[0].dist < 1e-9);
    assert!(neighbors.windows(2).all(|w| w[0].dist <= w[1].dist));

    let (n, pairs) = client
        .join((4, 10), WireThreshold::Rho(0.97))
        .unwrap()
        .unwrap();
    assert_eq!(n, pairs.len());
    for p in &pairs {
        assert_ne!(p.a, p.b, "join excludes self-pairs");
    }
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn insert_delete_info_lifecycle() {
    let (shared, handle) = start(30, 13);
    let mut client = Client::connect(handle.addr).unwrap();

    let info = client.info().unwrap().unwrap();
    let get = |k: &str| -> String {
        info.iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("INFO missing key {k}"))
    };
    assert_eq!(get("sequences"), "30");
    assert_eq!(get("seq_len"), "64");

    // Insert a copy of series 0; it must land at the next ordinal and be
    // visible to both the server and the directly-held handle.
    let values = shared.read().fetch_series(0).unwrap().values().to_vec();
    let ord = client.insert(values).unwrap().unwrap();
    assert_eq!(ord, 30);
    assert_eq!(shared.read().len(), 31);

    // The duplicate is an exact match of the original. (ρ must stay below
    // Eq. 9's ceiling (n−1)/n ≈ 0.984 at n = 64, else ε = 0.)
    let (_, matches) = client
        .query(QueryParams {
            ord,
            ma: (2, 6),
            threshold: WireThreshold::Rho(0.97),
            engine: EngineKind::Mt,
            limit: 0,
        })
        .unwrap()
        .unwrap();
    let seqs: Vec<usize> = matches.iter().map(|m| m.seq).collect();
    assert!(seqs.contains(&0) && seqs.contains(&30), "got {seqs:?}");

    assert!(client.delete(ord).unwrap().unwrap(), "ordinal was live");
    assert!(!client.delete(ord).unwrap().unwrap(), "double delete");
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn error_frames_for_bad_input() {
    let (_shared, handle) = start(20, 17);
    let mut client = Client::connect(handle.addr).unwrap();

    // Out-of-range ordinal → RANGE, connection stays usable.
    let response = client
        .query(QueryParams {
            ord: 999,
            ma: (4, 10),
            threshold: WireThreshold::Rho(0.95),
            engine: EngineKind::Mt,
            limit: 0,
        })
        .unwrap()
        .unwrap_err();
    assert!(
        matches!(
            &response,
            Response::Err {
                code: ErrCode::Range,
                ..
            }
        ),
        "{response:?}"
    );

    // MA window wider than the sequences → QUERY error.
    let response = client
        .query(QueryParams {
            ord: 0,
            ma: (4, 1000),
            threshold: WireThreshold::Rho(0.95),
            engine: EngineKind::Mt,
            limit: 0,
        })
        .unwrap()
        .unwrap_err();
    assert!(
        matches!(
            &response,
            Response::Err {
                code: ErrCode::Query,
                ..
            }
        ),
        "{response:?}"
    );

    // Malformed lines → BADREQ, and the connection keeps working.
    for bad in [
        "FROB ord=1",
        "QUERY ord=notanumber",
        "QUERY rho=0.9", // missing ord
        "KNN ord=0 k=zero",
        "INSERT values=1;2;x",
        "QUERY ord=1 engine=warp",
        // Out-of-range thresholds must be rejected at parse time: a
        // worker executing RangeSpec::correlation(2.0) would panic.
        "QUERY ord=1 rho=2",
        "JOIN rho=-1.5",
        "QUERY ord=1 eps=-3",
        // Keys the verb does not read would silently change the request.
        "QUERY ord=1 rh0=0.99",
        "QUERY ord=1 ord=2",
        "STATS reset=true",
    ] {
        let response = client.call_raw(bad).unwrap();
        assert!(
            matches!(
                &response,
                Response::Err {
                    code: ErrCode::BadRequest,
                    ..
                }
            ),
            "{bad:?} → {response:?}"
        );
    }
    let info = client.info().unwrap();
    assert!(info.is_ok(), "connection survives malformed input");
    client.quit().unwrap();

    // A line that is not UTF-8 gets a typed error too, and the same
    // connection then serves INFO.
    let mut raw = TcpStream::connect(handle.addr).unwrap();
    raw.write_all(b"QUERY ord=\xff\nINFO\n").unwrap();
    let mut replies = BufReader::new(raw);
    match Response::read_from(&mut replies).unwrap() {
        Response::Err { code, .. } => assert_eq!(code, ErrCode::BadRequest),
        other => panic!("an undecodable line must answer BADREQ, got {other:?}"),
    }
    let info = Response::read_from(&mut replies).unwrap();
    assert!(matches!(&info, Response::Info(_)), "{info:?}");
    handle.shutdown();
}

#[test]
fn zero_depth_queue_rejects_with_busy() {
    // queue_depth 0 means admission control rejects every request before
    // it reaches a worker: the client must see ERR code=BUSY, not a hang.
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 10, 64, 19);
    let index = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
    let cfg = ServerConfig {
        queue_depth: 0,
        ..test_config()
    };
    let handle = serve(SharedIndex::new(index), &cfg).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    let response = client.call(&simserve::protocol::Request::Info).unwrap();
    assert!(
        matches!(
            &response,
            Response::Err {
                code: ErrCode::Busy,
                ..
            }
        ),
        "{response:?}"
    );
    assert!(handle.metrics.busy_rejected() >= 1);
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn connection_cap_rejects_with_busy() {
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 10, 64, 23);
    let index = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
    let cfg = ServerConfig {
        max_conns: 1,
        ..test_config()
    };
    let handle = serve(SharedIndex::new(index), &cfg).unwrap();
    let mut first = Client::connect(handle.addr).unwrap();
    assert!(first.info().unwrap().is_ok(), "first connection serves");

    // The second connection is greeted with an ERR BUSY frame and closed.
    let stream = TcpStream::connect(handle.addr).unwrap();
    let mut reader = BufReader::new(stream);
    let greeting = Response::read_from(&mut reader).unwrap();
    assert!(
        matches!(
            &greeting,
            Response::Err {
                code: ErrCode::Busy,
                ..
            }
        ),
        "{greeting:?}"
    );

    first.quit().unwrap();
    handle.shutdown();
}

#[test]
fn stats_report_counts_and_latencies() {
    let (_shared, handle) = start(60, 29);
    let mut client = Client::connect(handle.addr).unwrap();
    for ord in 0..10 {
        client
            .query(QueryParams {
                ord,
                ma: (4, 10),
                threshold: WireThreshold::Rho(0.96),
                engine: EngineKind::Mt,
                limit: 0,
            })
            .unwrap()
            .unwrap();
    }
    client.info().unwrap().unwrap();

    let stats = client.stats(true).unwrap().unwrap();
    let query_line = stats
        .ops
        .iter()
        .find(|o| o.op == "query")
        .expect("query op present");
    assert_eq!(query_line.count, 10);
    assert_eq!(query_line.errors, 0);
    assert!(query_line.p50_us > 0, "{query_line:?}");
    assert!(query_line.p50_us <= query_line.p95_us);
    assert!(query_line.p95_us <= query_line.p99_us);
    assert!(stats.ops.iter().any(|o| o.op == "info"));
    // Ten MT queries touched the tree: counters moved since server start.
    assert!(stats.counters_total.0 > 0, "node reads recorded");
    assert!(stats.counters_delta.0 > 0, "delta vs baseline");

    // reset=true zeroed the op stats; only the STATS calls themselves and
    // later ops accumulate from here.
    let stats2 = client.stats(false).unwrap().unwrap();
    assert!(
        !stats2.ops.iter().any(|o| o.op == "query"),
        "query stats were reset: {stats2:?}"
    );
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn explain_reports_the_chosen_plan() {
    let (_shared, handle) = start(60, 31);
    let mut client = Client::connect(handle.addr).unwrap();

    // Baseline: the real query's total count.
    let (n, _) = client
        .query(QueryParams {
            ord: 0,
            ma: (4, 10),
            threshold: WireThreshold::Rho(0.95),
            engine: EngineKind::Auto,
            limit: 0,
        })
        .unwrap()
        .unwrap();

    let response = client
        .call_raw("EXPLAIN QUERY ord=0 ma=4..10 rho=0.95 engine=auto")
        .unwrap();
    let Response::Plan(pairs) = response else {
        panic!("EXPLAIN did not return a plan: {response:?}");
    };
    let get = |k: &str| -> &str {
        pairs
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("PLAN missing key {k}: {pairs:?}"))
    };
    assert_eq!(get("verb"), "query");
    assert_eq!(get("chosen_by"), "cost-model");
    assert!(["mt", "st", "scan"].contains(&get("engine")), "{pairs:?}");
    assert_eq!(get("matches"), n.to_string(), "EXPLAIN executed the query");
    // Estimates and measurements are both present and well-formed.
    for k in ["est_nodes", "est_pages", "est_cmps", "est_cost"] {
        get(k)
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("{k} not a float"));
    }
    for k in ["partitions", "nodes", "pages", "cmps", "wall_us"] {
        get(k)
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("{k} not an integer"));
    }

    // A forced engine is reported as forced; kNN has only one strategy.
    let Response::Plan(forced) = client
        .call_raw("EXPLAIN QUERY ord=0 ma=4..10 rho=0.95 engine=scan")
        .unwrap()
    else {
        panic!("forced EXPLAIN failed");
    };
    let find = |pairs: &[(String, String)], k: &str| -> String {
        pairs.iter().find(|(key, _)| key == k).unwrap().1.clone()
    };
    assert_eq!(find(&forced, "engine"), "scan");
    assert_eq!(find(&forced, "chosen_by"), "forced");
    // ST executes as the singleton partitioning, but its plan carries no
    // rectangles: the wire keeps reporting none.
    let Response::Plan(st) = client
        .call_raw("EXPLAIN QUERY ord=0 ma=4..10 rho=0.95 engine=st")
        .unwrap()
    else {
        panic!("forced ST EXPLAIN failed");
    };
    assert_eq!(find(&st, "engine"), "st");
    assert_eq!(find(&st, "partitions"), "0");

    let Response::Plan(knn) = client.call_raw("EXPLAIN KNN ord=0 k=3 ma=4..10").unwrap() else {
        panic!("EXPLAIN KNN failed");
    };
    assert_eq!(find(&knn, "verb"), "knn");
    assert_eq!(find(&knn, "chosen_by"), "only-option");
    assert_eq!(find(&knn, "matches"), "3");

    client.quit().unwrap();
    handle.shutdown();
}

/// A server over a group of one answers what `plan::run` answers on the
/// same index, digit for digit: each `QUERY`/`KNN` its match list and
/// metrics, each `EXPLAIN` its plan and counts, and `STATS COUNTERS` the
/// index's own access counters — the server's fetch of the query sequence
/// included.
#[test]
fn group_of_one_serves_what_plan_run_answers() {
    let c = corpus(80, 7);
    let build = || SeqIndex::build(&c, IndexConfig::default()).unwrap();
    let reference = build();
    let stats = StatsRegistry::new();
    let handle = serve(SharedIndex::new(build()), &test_config()).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    let family = Family::moving_averages(4..=12, reference.seq_len());
    let totals = |c: AccessCounters| (c.node_reads, c.record_page_reads, c.record_fetches);
    let engines = [
        ("auto", EngineKind::Auto),
        ("mt", EngineKind::Mt),
        ("st", EngineKind::St),
        ("scan", EngineKind::Scan),
    ];
    for ord in [0usize, 13, 79] {
        let mut verbs = vec![(
            format!("KNN ord={ord} k=5 ma=4..12"),
            LogicalQuery::knn(family.clone(), 5),
        )];
        for (name, kind) in engines {
            for (key, threshold) in [
                ("rho=0.95", WireThreshold::Rho(0.95)),
                ("eps=2.5", WireThreshold::Eps(2.5)),
            ] {
                verbs.push((
                    format!("QUERY ord={ord} ma=4..12 {key} engine={name} limit=0"),
                    LogicalQuery::range(family.clone(), threshold.to_spec())
                        .with_engine(engine_pref(kind)),
                ));
            }
        }
        for (line, lq) in &verbs {
            for explain in [false, true] {
                // What the server does per request: fetch the query
                // sequence, then plan and execute.
                let q = reference.fetch_series(ord).unwrap();
                let (plan, out) = plan::run(&reference, &stats, lq, Some(&q)).unwrap();
                let (matches, metrics) = match &out {
                    PlanOutput::Range(r) => (&r.matches, r.metrics),
                    PlanOutput::Knn(matches, metrics) => (matches, *metrics),
                    PlanOutput::Join(_) => unreachable!("no join here"),
                };
                if explain {
                    let Response::Plan(pairs) =
                        client.call_raw(&format!("EXPLAIN {line}")).unwrap()
                    else {
                        panic!("EXPLAIN {line} failed");
                    };
                    for (key, want) in [
                        ("engine", plan.engine.as_str().to_string()),
                        ("chosen_by", plan.chosen_by.as_str().to_string()),
                        ("partitions", plan.partitions().to_string()),
                        ("fanout", plan.fanout.to_string()),
                        ("threads", plan.threads.to_string()),
                        ("est_nodes", format!("{:.1}", plan.est_nodes)),
                        ("est_pages", format!("{:.1}", plan.est_pages)),
                        ("est_cmps", format!("{:.1}", plan.est_comparisons)),
                        ("est_cost", format!("{:.1}", plan.est_cost)),
                        ("nodes", metrics.node_accesses.to_string()),
                        ("pages", metrics.record_page_accesses.to_string()),
                        ("cmps", metrics.comparisons.to_string()),
                        ("matches", matches.len().to_string()),
                    ] {
                        let got = pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                        assert_eq!(got, Some(&want), "EXPLAIN {line}: {key}");
                    }
                } else {
                    let Response::Matches {
                        n,
                        matches: got,
                        metrics: wire,
                    } = client.call_raw(line).unwrap()
                    else {
                        panic!("{line} failed");
                    };
                    assert_eq!(n, matches.len(), "{line}: count");
                    let bits = |seq, t, d: f64| (seq, t, d.to_bits());
                    let got: Vec<_> = got
                        .iter()
                        .map(|m| bits(m.seq, m.transform, m.dist))
                        .collect();
                    let want: Vec<_> = matches
                        .iter()
                        .map(|m| bits(m.seq, m.transform, m.dist))
                        .collect();
                    assert_eq!(got, want, "{line}: matches");
                    let want = WireMetrics {
                        wall_us: wire.wall_us,
                        ..WireMetrics::from(&metrics)
                    };
                    assert_eq!(wire, want, "{line}: metrics");
                }
                let report = client.stats(false).unwrap().unwrap();
                assert_eq!(
                    report.counters_total,
                    totals(reference.counters()),
                    "{line}: STATS COUNTERS"
                );
                assert!(report.shards.is_empty(), "a plain index has no SHARD lines");
            }
        }
    }
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn result_cache_hits_and_mutation_invalidates() {
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 50, 64, 37);
    let index = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
    let shared = SharedIndex::new(index);
    let cfg = ServerConfig {
        result_cache: 32,
        ..test_config()
    };
    let handle = serve(shared.clone(), &cfg).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();

    let params = QueryParams {
        ord: 0,
        ma: (2, 6),
        threshold: WireThreshold::Rho(0.95),
        engine: EngineKind::Mt,
        limit: 0,
    };
    let (n1, m1) = client.query(params).unwrap().unwrap();
    let (n2, m2) = client.query(params).unwrap().unwrap();
    assert_eq!(n1, n2, "cache hit must be byte-identical");
    assert_eq!(
        m1.iter().map(|m| (m.seq, m.transform)).collect::<Vec<_>>(),
        m2.iter().map(|m| (m.seq, m.transform)).collect::<Vec<_>>()
    );
    let stats = client.stats(false).unwrap().unwrap();
    let plan = stats.plan.expect("PLAN line present");
    assert!(plan.cache_hits >= 1, "{plan:?}");
    assert!(plan.cache_misses >= 1, "{plan:?}");
    assert!(plan.cache_entries >= 1, "{plan:?}");
    assert!(plan.built >= 1, "{plan:?}");
    assert!(plan.mt >= 1, "dispatch counter moved: {plan:?}");

    // INSERT between two identical queries: the epoch moves, the cache
    // entry dies, and the next response must include the new duplicate —
    // a stale cached answer would omit it.
    let values = shared.read().fetch_series(0).unwrap().values().to_vec();
    let inserted = client.insert(values).unwrap().unwrap();
    let (_, m3) = client.query(params).unwrap().unwrap();
    let seqs: Vec<usize> = m3.iter().map(|m| m.seq).collect();
    assert!(
        seqs.contains(&inserted),
        "post-insert query served a stale cached result: {seqs:?}"
    );

    // DELETE invalidates too: the duplicate disappears again.
    assert!(client.delete(inserted).unwrap().unwrap());
    let (_, m4) = client.query(params).unwrap().unwrap();
    assert!(
        m4.iter().all(|m| m.seq != inserted),
        "post-delete query served a stale cached result"
    );

    // The limit is applied after the cache: a truncated variant of the
    // same query still hits and still reports the full count.
    let before = client.stats(false).unwrap().unwrap().plan.unwrap();
    let (n5, m5) = client
        .query(QueryParams { limit: 1, ..params })
        .unwrap()
        .unwrap();
    assert_eq!(n5, m4.len(), "full count survives truncation");
    assert!(m5.len() <= 1);
    let after = client.stats(false).unwrap().unwrap().plan.unwrap();
    assert!(
        after.cache_hits > before.cache_hits,
        "limit variants share the cache entry: {before:?} -> {after:?}"
    );

    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn cache_disabled_by_default_never_hits() {
    let (_shared, handle) = start(30, 41);
    let mut client = Client::connect(handle.addr).unwrap();
    let params = QueryParams {
        ord: 1,
        ma: (4, 10),
        threshold: WireThreshold::Rho(0.95),
        engine: EngineKind::Mt,
        limit: 0,
    };
    client.query(params).unwrap().unwrap();
    client.query(params).unwrap().unwrap();
    let plan = client.stats(false).unwrap().unwrap().plan.unwrap();
    assert_eq!(plan.cache_hits, 0, "{plan:?}");
    assert_eq!(plan.cache_entries, 0, "{plan:?}");
    assert_eq!(plan.cache_misses, 2, "{plan:?}");
    client.quit().unwrap();
    handle.shutdown();
}

/// A reply over 8 KiB leaves the server's `BufWriter` in two writes; with
/// Nagle on, the second waits ~40 ms for the client's delayed ACK. The
/// acceptor sets `TCP_NODELAY`, so 20 such replies (served from the result
/// cache, so the clock sees the wire and not the engines) take nowhere
/// near 20 × 40 ms.
#[test]
fn large_replies_do_not_stall_on_nagle() {
    let index = SeqIndex::build(&corpus(120, 53), IndexConfig::default()).unwrap();
    let cfg = ServerConfig {
        result_cache: 32,
        ..test_config()
    };
    let handle = serve(SharedIndex::new(index), &cfg).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    let broad = |ord| QueryParams {
        ord,
        ma: (4, 12),
        threshold: WireThreshold::Rho(0.0),
        engine: EngineKind::Mt,
        limit: 0,
    };
    for ord in 0..20 {
        let (n, _) = client.query(broad(ord)).unwrap().unwrap();
        assert!(n >= 300, "ord {ord}: {n} matches is not a > 8 KiB reply");
    }
    let start = std::time::Instant::now();
    for ord in 0..20 {
        client.query(broad(ord)).unwrap().unwrap();
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(400),
        "20 cached large replies took {elapsed:?}"
    );
    client.quit().unwrap();
    handle.shutdown();
}
