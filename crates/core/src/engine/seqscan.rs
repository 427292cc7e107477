//! The sequential-scan baseline: read the whole relation, try every
//! transformation on every sequence (`|S|·|T|` comparisons — §4's cost
//! description) — with the naive law-of-cosines distances, as the oracle
//! the index engines' verification kernel is checked against.

use crate::engine::check_family;
use crate::feature::SeqFeatures;
use crate::index::SeqIndex;
use crate::ordering::OrderedFamily;
use crate::query::{QueryMode, RangeSpec};
use crate::report::{EngineMetrics, Match, QueryError, QueryResult};
use crate::transform::{Family, Transform};
use pagestore::PageError;
use std::time::Instant;
use tseries::TimeSeries;

/// Query 1 by sequential scan.
pub fn range_query(
    index: &SeqIndex,
    query: &TimeSeries,
    family: &Family,
    spec: &RangeSpec,
) -> Result<QueryResult, QueryError> {
    run(index, query, family, spec, None, 1)
}

/// Sequential scan over an *ordered* family (§4.4): `|S|·log|T|`
/// comparisons instead of `|S|·|T|`.
pub fn range_query_ordered(
    index: &SeqIndex,
    query: &TimeSeries,
    ordered: &OrderedFamily,
    spec: &RangeSpec,
) -> Result<QueryResult, QueryError> {
    run(index, query, ordered.family(), spec, Some(ordered), 1)
}

/// A multi-threaded sequential scan: the relation is partitioned into
/// `threads` disjoint ordinal ranges scanned concurrently (std scoped
/// threads). Identical results to [`range_query`]; a modern baseline the
/// 1999 evaluation lacked, included so the index algorithms are compared
/// against the strongest scan available.
pub fn range_query_parallel(
    index: &SeqIndex,
    query: &TimeSeries,
    family: &Family,
    spec: &RangeSpec,
    threads: usize,
) -> Result<QueryResult, QueryError> {
    assert!(threads >= 1, "need at least one thread");
    run(index, query, family, spec, None, threads)
}

fn run(
    index: &SeqIndex,
    query: &TimeSeries,
    family: &Family,
    spec: &RangeSpec,
    ordered: Option<&OrderedFamily>,
    threads: usize,
) -> Result<QueryResult, QueryError> {
    let start = Instant::now();
    check_family(family, index.seq_len())?;
    let q = index.prepare_query(query)?;
    let eps = spec.epsilon(index.seq_len());
    let naive = match spec.mode {
        QueryMode::Symmetric => Transform::transformed_distance,
        QueryMode::DataOnly => Transform::distance_data_only,
    };
    // Orderings (Definition 1) are stated for symmetric application;
    // binary search is only sound there.
    assert!(
        ordered.is_none() || spec.mode == QueryMode::Symmetric,
        "ordered verification requires symmetric queries"
    );

    // One disjoint ordinal range: extract each row, try every member — or
    // (§4.4) the ranks at or below the maximal qualifying one, found in
    // log|T| counted comparisons.
    let scan_chunk = |lo: usize, hi: usize| -> Result<(Vec<Match>, u64), PageError> {
        let mut matches = Vec::new();
        let mut comparisons = 0;
        index.scan_range(lo, hi, |ordinal, ts| {
            let Some(x) = SeqFeatures::extract(&ts) else {
                return; // degenerate rows cannot match a normal-form query
            };
            let dist = |t: usize| naive(&family.transforms()[t], &x, &q);
            let members = match ordered {
                None => {
                    comparisons += family.len() as u64;
                    family.len()
                }
                Some(ordered) => ordered
                    .max_qualifying(dist, eps, &mut comparisons)
                    .map_or(0, |max_rank| max_rank + 1),
            };
            let matching = (0..members).map(|ti| Match {
                seq: ordinal,
                transform: ti,
                dist: dist(ti),
            });
            matches.extend(matching.filter(|m| m.dist < eps));
        })?;
        Ok((matches, comparisons))
    };

    let before = index.counters();
    let n = index.len();
    let results = if threads == 1 {
        vec![scan_chunk(0, n)]
    } else {
        let chunk = n.div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let scan_chunk = &scan_chunk;
                    scope.spawn(move || scan_chunk(t * chunk, ((t + 1) * chunk).min(n)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scan worker panicked"))
                .collect()
        })
    };

    let mut matches = Vec::new();
    let mut comparisons = 0;
    // Workers stop at their first failed page; the query reports the first
    // failure rather than a partial result. Chunks arrive in ordinal
    // order, so the concatenation is sorted by (seq, transform).
    for worker in results {
        let (m, c) = worker?;
        matches.extend(m);
        comparisons += c;
    }
    let after = index.counters();

    Ok(QueryResult {
        matches,
        metrics: EngineMetrics {
            node_accesses: 0,
            leaf_accesses: 0,
            record_page_accesses: after.record_page_reads - before.record_page_reads,
            record_fetches: after.record_fetches - before.record_fetches,
            comparisons,
            candidates: n as u64,
            wall: start.elapsed(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use tseries::{Corpus, CorpusKind};

    fn setup(n: usize) -> (Corpus, SeqIndex) {
        let c = Corpus::generate(CorpusKind::SyntheticWalks, n, 64, 17);
        let idx = SeqIndex::build(&c, IndexConfig::default()).unwrap();
        (c, idx)
    }

    #[test]
    fn finds_itself_under_identity_window() {
        let (c, idx) = setup(40);
        let family = Family::moving_averages(1..=8, 64);
        let spec = RangeSpec::euclidean(1e-6);
        let r = range_query(&idx, &c.series()[7], &family, &spec).unwrap();
        // mv1 = identity: the query matches itself at distance 0.
        assert!(r.matches.iter().any(|m| m.seq == 7 && m.transform == 0));
        assert_eq!(r.metrics.comparisons, 40 * 8);
    }

    #[test]
    fn record_pages_counted() {
        let (c, idx) = setup(100);
        idx.reset_counters().unwrap();
        let family = Family::moving_averages(5..=6, 64);
        let r = range_query(&idx, &c.series()[0], &family, &RangeSpec::correlation(0.96)).unwrap();
        // 100 sequences × 512 bytes = 6.4 per 8 KiB page → 7 pages.
        assert!(r.metrics.record_page_accesses >= 7, "{}", r.metrics);
        assert_eq!(r.metrics.node_accesses, 0);
    }

    #[test]
    fn ordered_scan_equals_exhaustive_scan() {
        let (c, idx) = setup(60);
        let factors: Vec<f64> = (1..=16).map(|k| k as f64 * 0.5).collect();
        let ordered = OrderedFamily::scalings(&factors, 64);
        let spec = RangeSpec::euclidean(8.0);
        let q = &c.series()[3];
        let a = range_query(&idx, q, ordered.family(), &spec).unwrap();
        let b = range_query_ordered(&idx, q, &ordered, &spec).unwrap();
        assert_eq!(a.sorted_pairs(), b.sorted_pairs());
        assert!(
            b.metrics.comparisons < a.metrics.comparisons / 2,
            "binary search should save comparisons: {} vs {}",
            b.metrics.comparisons,
            a.metrics.comparisons
        );
    }

    #[test]
    fn parallel_scan_equals_sequential_scan() {
        let (c, idx) = setup(200);
        let family = Family::moving_averages(3..=10, 64);
        let spec = RangeSpec::correlation(0.96);
        for threads in [1usize, 2, 4, 7] {
            let a = range_query(&idx, &c.series()[11], &family, &spec).unwrap();
            let b = range_query_parallel(&idx, &c.series()[11], &family, &spec, threads).unwrap();
            // Same matches in the same (seq, transform) order.
            let pairs = |r: &QueryResult| -> Vec<_> {
                r.matches.iter().map(|m| (m.seq, m.transform)).collect()
            };
            assert_eq!(pairs(&a), pairs(&b), "threads = {threads}");
            assert_eq!(a.metrics.comparisons, b.metrics.comparisons);
        }
    }

    #[test]
    fn rejects_mismatched_family() {
        let (c, idx) = setup(10);
        let family = Family::moving_averages(1..=4, 32); // wrong length
        let err =
            range_query(&idx, &c.series()[0], &family, &RangeSpec::euclidean(1.0)).unwrap_err();
        assert!(matches!(
            err,
            QueryError::FamilyLengthMismatch {
                family: 32,
                indexed: 64
            }
        ));
    }
}
