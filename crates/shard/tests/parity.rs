//! Sharded-vs-single parity suite (the exact-answer guarantee).
//!
//! The same seeded corpus is indexed once as a single [`SeqIndex`] and as
//! a [`ShardedIndex`] with N ∈ {1, 2, 4, 8}; every query class must
//! return the identical result set. Only lossless filter policies
//! (`Safe`, `Adaptive`) are exercised: the `Paper` policy's angle windows
//! may falsely dismiss, and those dismissals legitimately depend on tree
//! layout, which sharding changes.

mod common;

use common::{flat, knn, range_query, sharded, specs};
use pagestore::{Disk, FaultPlan, FaultyDisk, PageDevice};
use simquery::engine::{knn as knn_engine, mtindex, seqscan, stindex};
use simquery::index::{IndexConfig, SeqIndex};
use simquery::plan::EngineChoice;
use simquery::query::{FilterPolicy, RangeSpec};
use simquery::report::QueryError;
use simquery::transform::Family;
use simshard::{ShardConfig, ShardedIndex};
use std::sync::Arc;
use tseries::{Corpus, CorpusKind, TimeSeries};

const N: usize = 120;
const LEN: usize = 64;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn corpus() -> Corpus {
    Corpus::generate(CorpusKind::SyntheticWalks, N, LEN, 4242)
}

fn single_range(
    index: &SeqIndex,
    engine: EngineChoice,
    q: &TimeSeries,
    family: &Family,
    spec: &RangeSpec,
) -> Vec<(usize, usize)> {
    match engine {
        EngineChoice::Mt => mtindex::range_query(index, q, family, spec),
        EngineChoice::St => stindex::range_query(index, q, family, spec),
        EngineChoice::Scan => seqscan::range_query(index, q, family, spec),
    }
    .unwrap()
    .sorted_pairs()
}

#[test]
fn range_queries_identical_across_shard_counts() {
    let c = corpus();
    let reference = flat(&c);
    let family = Family::moving_averages(2..=7, LEN);
    for shards in SHARD_COUNTS {
        let s = sharded(&c, shards);
        for engine in [EngineChoice::Mt, EngineChoice::St, EngineChoice::Scan] {
            for spec in specs() {
                for qi in [3usize, 57, 111] {
                    let q = &c.series()[qi];
                    let want = single_range(&reference, engine, q, &family, &spec);
                    let got = range_query(&s, engine, q, &family, &spec)
                        .unwrap()
                        .sorted_pairs();
                    assert_eq!(
                        got, want,
                        "divergence: {shards} shards, {engine:?}, {spec:?}, query {qi}"
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

#[test]
fn knn_identical_across_shard_counts() {
    let c = corpus();
    let reference = flat(&c);
    let family = Family::moving_averages(2..=7, LEN);
    for shards in SHARD_COUNTS {
        let s = sharded(&c, shards);
        for qi in [0usize, 44, 88] {
            for k in [0usize, 1, 5, 12] {
                let q = &c.series()[qi];
                let (want, _) = knn_engine::knn(&reference, q, &family, k).unwrap();
                let (got, _) = knn(&s, q, &family, k).unwrap();
                assert_eq!(
                    canon(&got),
                    canon(&want),
                    "kNN divergence: {shards} shards, query {qi}, k={k}"
                );
                // Distances must agree exactly: both paths score the same
                // series with the same f64 operations.
                for (g, w) in canon(&got).iter().zip(canon(&want).iter()) {
                    assert_eq!(g, w);
                }
                let mut wd: Vec<f64> = want.iter().map(|m| m.dist).collect();
                let mut gd: Vec<f64> = got.iter().map(|m| m.dist).collect();
                wd.sort_by(f64::total_cmp);
                gd.sort_by(f64::total_cmp);
                assert_eq!(wd, gd);
            }
        }
    }
}

#[test]
fn parity_survives_mutations() {
    let c = corpus();
    let extra = Corpus::generate(CorpusKind::SyntheticWalks, 10, LEN, 777);
    let mut reference = flat(&c);
    let family = Family::moving_averages(2..=6, LEN);
    let spec = RangeSpec::correlation(0.9).with_policy(FilterPolicy::Safe);
    for shards in [2usize, 4] {
        let s = sharded(&c, shards);
        // Same mutation schedule on both sides.
        for ts in extra.series() {
            let g_single = reference.insert_series(ts).unwrap();
            let g_sharded = s.insert_series(ts).unwrap();
            assert_eq!(g_single, g_sharded, "global ordinals must stay aligned");
        }
        for victim in [5usize, 60, N + 3] {
            assert!(reference.delete_series(victim).unwrap());
            assert!(s.delete_series(victim).unwrap());
        }
        for qi in [8usize, 90] {
            let q = &c.series()[qi];
            for engine in [EngineChoice::Mt, EngineChoice::St, EngineChoice::Scan] {
                let want = single_range(&reference, engine, q, &family, &spec);
                let got = range_query(&s, engine, q, &family, &spec)
                    .unwrap()
                    .sorted_pairs();
                assert_eq!(got, want, "post-mutation divergence at {shards} shards");
            }
            let (want, _) = knn_engine::knn(&reference, q, &family, 6).unwrap();
            let (got, _) = knn(&s, q, &family, 6).unwrap();
            assert_eq!(canon(&got), canon(&want));
        }
        // Undo the reference mutations for the next shard count.
        reference = flat(&c);
    }
}

/// A sharded index whose shard 1 runs on faulty devices.
fn sharded_with_fault(
    c: &Corpus,
    shards: usize,
) -> (ShardedIndex, Arc<FaultyDisk>, Arc<FaultyDisk>) {
    let tree = Arc::new(FaultyDisk::new(Arc::new(Disk::new())));
    let heap = Arc::new(FaultyDisk::new(Arc::new(Disk::new())));
    let (t, h) = (Arc::clone(&tree), Arc::clone(&heap));
    let s = ShardedIndex::build_on(
        c,
        ShardConfig::new(shards).unwrap(),
        IndexConfig::default(),
        move |shard| {
            if shard == 1 {
                (
                    Arc::clone(&t) as Arc<dyn PageDevice>,
                    Arc::clone(&h) as Arc<dyn PageDevice>,
                )
            } else {
                (
                    Arc::new(Disk::new()) as Arc<dyn PageDevice>,
                    Arc::new(Disk::new()) as Arc<dyn PageDevice>,
                )
            }
        },
    )
    .unwrap();
    (s, tree, heap)
}

#[test]
fn faulted_shard_yields_typed_error_or_exact_result() {
    let c = corpus();
    let reference = flat(&c);
    let family = Family::moving_averages(2..=6, LEN);
    let spec = RangeSpec::correlation(0.9).with_policy(FilterPolicy::Safe);
    let (s, tree, heap) = sharded_with_fault(&c, 4);
    let q = &c.series()[12];
    let want = single_range(&reference, EngineChoice::Mt, q, &family, &spec);
    let (want_knn, _) = knn_engine::knn(&reference, q, &family, 5).unwrap();

    let mut errors = 0usize;
    let mut exact = 0usize;
    // Sweep the fault point across the access schedule: early faults hit,
    // late ones fall past the query's access count and leave it exact.
    for at in [1u64, 2, 3, 5, 8, 13, 21, 500] {
        tree.arm(FaultPlan::new().read_error_at(at));
        heap.arm(FaultPlan::new().read_error_at(at));
        s.reset_counters().unwrap();
        match range_query(&s, EngineChoice::Mt, q, &family, &spec) {
            Ok(r) => {
                assert_eq!(
                    r.sorted_pairs(),
                    want,
                    "armed fault produced a wrong answer"
                );
                exact += 1;
            }
            Err(QueryError::Io(_)) => errors += 1,
            Err(e) => panic!("unexpected error class under fault: {e}"),
        }
        match knn(&s, q, &family, 5) {
            Ok((got, _)) => assert_eq!(canon(&got), canon(&want_knn)),
            Err(QueryError::Io(_)) => errors += 1,
            Err(e) => panic!("unexpected error class under fault: {e}"),
        }
        tree.disarm();
        heap.disarm();
        // Disarmed, the same shard must answer exactly again.
        let healed = range_query(&s, EngineChoice::Mt, q, &family, &spec).unwrap();
        assert_eq!(healed.sorted_pairs(), want);
    }
    assert!(errors > 0, "no fault ever fired — schedule too late");
    assert!(exact > 0, "no fault ever missed — schedule too early");
}
