//! Planner parity suite: the cost-based plan layer must be invisible in
//! the answers.
//!
//! A grid of queries runs against the same seeded corpus as a single
//! index and as 1/2/4/8-shard backends; for every query the
//! planner-chosen plan (`EnginePref::Auto`) must return the exact result
//! set of each forced engine, and all backends must agree with each
//! other. A second group proves the epoch-keyed result cache: a hit is
//! byte-identical to a fresh execution, and any mutation moves the
//! epoch so a stale entry can never be returned.
//!
//! Only lossless filter policies (`Safe`, `Adaptive`) are exercised —
//! the `Paper` policy's dismissals legitimately depend on tree layout.

mod common;

use common::{flat, sharded, specs};
use simquery::index::SeqIndex;
use simquery::plan::{self, EngineChoice, EnginePref, LogicalQuery, PlanCache, PlanOutput};
use simquery::query::{FilterPolicy, RangeSpec};
use simquery::report::EngineMetrics;
use simquery::shared::SharedIndex;
use simquery::stats::StatsRegistry;
use simquery::transform::Family;
use simshard::{gather, ShardedIndex};
use std::sync::Arc;
use std::time::Duration;
use tseries::{Corpus, CorpusKind, TimeSeries};

const N: usize = 120;
const LEN: usize = 64;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn corpus() -> Corpus {
    Corpus::generate(CorpusKind::SyntheticWalks, N, LEN, 9191)
}

const PREFS: [EnginePref; 4] = [
    EnginePref::Auto,
    EnginePref::Force(EngineChoice::Mt),
    EnginePref::Force(EngineChoice::St),
    EnginePref::Force(EngineChoice::Scan),
];

fn run_single(
    index: &SeqIndex,
    stats: &StatsRegistry,
    lq: &LogicalQuery,
    q: &TimeSeries,
) -> Vec<(usize, usize)> {
    let (_, out) = plan::run(index, stats, lq, Some(q)).unwrap();
    match out {
        PlanOutput::Range(r) => r.sorted_pairs(),
        other => panic!("range query produced {other:?}"),
    }
}

/// Planner-chosen ≡ every forced engine, on the single index and on
/// every shard count, over the whole query grid.
#[test]
fn auto_plan_matches_every_forced_engine_on_every_backend() {
    let c = corpus();
    let reference = flat(&c);
    let stats = StatsRegistry::new();
    let family = Family::moving_averages(2..=7, LEN);
    let shardeds: Vec<ShardedIndex> = SHARD_COUNTS.iter().map(|&s| sharded(&c, s)).collect();
    for spec in specs() {
        for qi in [3usize, 57, 111] {
            let q = &c.series()[qi];
            // The reference answer: forced MT on the single index.
            let lq_mt = LogicalQuery::range(family.clone(), spec)
                .with_engine(EnginePref::Force(EngineChoice::Mt));
            let want = run_single(&reference, &stats, &lq_mt, q);
            for pref in PREFS {
                let lq = LogicalQuery::range(family.clone(), spec).with_engine(pref);
                let got = run_single(&reference, &stats, &lq, q);
                assert_eq!(
                    got, want,
                    "single-index divergence: {pref:?}, {spec:?}, q{qi}"
                );
                for (s, count) in shardeds.iter().zip(SHARD_COUNTS) {
                    let (_, r, _) = gather::execute_range(s, &lq, q).unwrap();
                    assert_eq!(
                        r.sorted_pairs(),
                        want,
                        "sharded divergence: {count} shards, {pref:?}, {spec:?}, q{qi}"
                    );
                }
            }
        }
    }
}

/// Canonical kNN ordering for comparison: (distance, ordinal).
fn canon(matches: &[simquery::report::Match]) -> Vec<(usize, usize)> {
    let mut v: Vec<_> = matches.to_vec();
    v.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.seq.cmp(&b.seq)));
    v.iter().map(|m| (m.seq, m.transform)).collect()
}

/// Planned kNN agrees across the single index and every shard count.
#[test]
fn planned_knn_identical_across_backends() {
    let c = corpus();
    let reference = flat(&c);
    let stats = StatsRegistry::new();
    let family = Family::moving_averages(2..=7, LEN);
    for qi in [0usize, 44, 88] {
        for k in [1usize, 5, 12] {
            let q = &c.series()[qi];
            let lq = LogicalQuery::knn(family.clone(), k);
            let (_, out) = plan::run(&reference, &stats, &lq, Some(q)).unwrap();
            let PlanOutput::Knn(want, _) = out else {
                panic!("kNN query produced a non-kNN result");
            };
            for shards in SHARD_COUNTS {
                let s = sharded(&c, shards);
                let (_, got, _, _) = gather::execute_knn(&s, &lq, q).unwrap();
                assert_eq!(
                    canon(&got),
                    canon(&want),
                    "kNN divergence: {shards} shards, q{qi}, k={k}"
                );
            }
        }
    }
}

/// Planned joins: forced engines and the cost model all produce the
/// single exact pair set.
#[test]
fn planned_join_matches_every_forced_engine() {
    let c = corpus();
    let reference = flat(&c);
    let stats = StatsRegistry::new();
    let family = Family::moving_averages(2..=5, LEN);
    let spec = RangeSpec::correlation(0.95).with_policy(FilterPolicy::Adaptive);
    let mut want: Option<Vec<(usize, usize, usize)>> = None;
    for pref in PREFS {
        let lq = LogicalQuery::join(family.clone(), spec).with_engine(pref);
        let (_, out) = plan::run(&reference, &stats, &lq, None).unwrap();
        let PlanOutput::Join(r) = out else {
            panic!("join query produced a non-join result");
        };
        let got = r.sorted_triples();
        match &want {
            None => want = Some(got),
            Some(w) => assert_eq!(&got, w, "join divergence under {pref:?}"),
        }
    }
    assert!(
        want.map(|w| !w.is_empty()).unwrap_or(false),
        "join grid matched nothing — thresholds too tight to prove parity"
    );
}

/// A match list with every distance bit, and the metrics bar the wall
/// clock — what "digit for digit" compares.
fn digits(out: &PlanOutput) -> String {
    let (matches, metrics) = match out {
        PlanOutput::Range(r) => (&r.matches, &r.metrics),
        PlanOutput::Knn(matches, metrics) => (matches, metrics),
        PlanOutput::Join(_) => unreachable!("no join in this grid"),
    };
    let matches: Vec<_> = matches
        .iter()
        .map(|m| (m.seq, m.transform, m.dist.to_bits()))
        .collect();
    let metrics = EngineMetrics {
        wall: Duration::ZERO,
        ..*metrics
    };
    format!("{matches:?} {metrics:?}")
}

/// A group of one plans and executes inline under its one read guard:
/// `gather::execute` returns the plan, the match list and the access
/// counters `plan::run` returns on the same `SeqIndex`, digit for digit —
/// range queries under `safe` and `adaptive` with every engine
/// preference, and kNN — and no shard breakdown.
#[test]
fn group_of_one_is_plan_run_digit_for_digit() {
    let c = corpus();
    let reference = flat(&c);
    let stats = StatsRegistry::new();
    let group: Arc<ShardedIndex> = SharedIndex::new(flat(&c)).into();
    let family = Family::moving_averages(2..=8, LEN);
    let mut grid: Vec<LogicalQuery> = specs()
        .into_iter()
        .flat_map(|spec| {
            PREFS.map(|pref| LogicalQuery::range(family.clone(), spec).with_engine(pref))
        })
        .collect();
    grid.push(LogicalQuery::knn(family.clone(), 5));
    for ord in [0usize, 17, 63, 119] {
        let q = &c.series()[ord];
        for lq in &grid {
            reference.reset_counters().unwrap();
            group.reset_counters().unwrap();
            let (want_plan, want) = plan::run(&reference, &stats, lq, Some(q)).unwrap();
            let (got_plan, got, per_shard) = gather::execute(&group, lq, Some(q)).unwrap();
            let ctx = format!("ord {ord}, {:?} {:?}", lq.verb, lq.engine);
            assert_eq!(
                format!("{got_plan:?}"),
                format!("{want_plan:?}"),
                "{ctx}: plan"
            );
            assert_eq!(digits(&got), digits(&want), "{ctx}: matches and metrics");
            assert_eq!(
                group.counters(),
                reference.counters(),
                "{ctx}: access counters"
            );
            assert!(
                per_shard.is_empty(),
                "{ctx}: a group of one has no breakdown"
            );
        }
    }
}

/// The result cache: a hit returns exactly the fresh answer; an insert
/// or delete moves the epoch so the old entry can never satisfy a
/// lookup again (no stale reads, ever).
#[test]
fn cache_hits_are_exact_and_mutations_invalidate() {
    let c = corpus();
    let shared = SharedIndex::new(flat(&c));
    let cache = PlanCache::new(8);
    let family = Family::moving_averages(2..=6, LEN);
    let spec = RangeSpec::correlation(0.9).with_policy(FilterPolicy::Safe);
    let q = c.series()[7].clone();
    let lq = LogicalQuery::range(family.clone(), spec).with_engine(EnginePref::Auto);
    let fp = lq.fingerprint(Some(&q));

    // Miss, fill, hit: the cached output equals the fresh one.
    let epoch = shared.query_epoch();
    assert!(cache.get(fp, epoch).is_none());
    let (plan, out) = shared.execute(&lq, Some(&q)).unwrap();
    let fresh = match &out {
        PlanOutput::Range(r) => r.sorted_pairs(),
        other => panic!("range query produced {other:?}"),
    };
    cache.put(fp, epoch, plan, out);
    let (_, hit) = cache
        .get(fp, shared.query_epoch())
        .expect("unchanged index must hit");
    let PlanOutput::Range(r) = hit else {
        panic!("cache returned the wrong output kind");
    };
    assert_eq!(r.sorted_pairs(), fresh);

    // An insert bumps the epoch: the same fingerprint now misses, and a
    // fresh execution sees the new sequence — serving the old entry
    // would have been a stale read.
    let inserted = shared.insert_series(&q).unwrap();
    assert!(
        cache.get(fp, shared.query_epoch()).is_none(),
        "mutation must invalidate the cached result"
    );
    let (_, out) = shared.execute(&lq, Some(&q)).unwrap();
    let PlanOutput::Range(r) = out else {
        panic!("range query produced a non-range result");
    };
    let after: Vec<(usize, usize)> = r.sorted_pairs();
    assert!(
        after.iter().any(|&(seq, _)| seq == inserted),
        "the inserted duplicate must now qualify"
    );
    assert_ne!(after, fresh, "result set must reflect the mutation");

    // A delete moves the epoch again, even though it shrinks the set.
    let epoch_before_delete = shared.query_epoch();
    assert!(shared.delete_series(inserted).unwrap());
    assert_ne!(shared.query_epoch(), epoch_before_delete);

    // Counters saw one hit and the misses above.
    let counters = cache.counters();
    assert_eq!(counters.hits, 1);
    assert!(counters.misses >= 2);
}

/// The sharded backend exposes the same epoch semantics.
#[test]
fn sharded_epoch_moves_on_mutation() {
    let c = corpus();
    let s = sharded(&c, 4);
    let e0 = s.query_epoch();
    assert_eq!(e0, s.query_epoch(), "epoch reads are stable");
    let ord = s.insert_series(&c.series()[0]).unwrap();
    let e1 = s.query_epoch();
    assert_ne!(e0, e1, "insert must move the sharded epoch");
    assert!(s.delete_series(ord).unwrap());
    assert_ne!(s.query_epoch(), e1, "delete must move the sharded epoch");
}
