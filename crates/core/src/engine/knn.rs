//! Nearest-neighbour queries under multiple transformations (§4.1's last
//! paragraph): "as we walk down the tree, we apply the transformation MBR
//! to all entries of the node we visit", pruning with a MINDIST-style
//! metric (Roussopoulos et al.).
//!
//! Semantics: the distance of sequence `x` to the query is
//! `min_{t ∈ T} D(t(x̂), t(q̂))`; the k sequences minimising it are
//! returned, each with its best transformation, ties by ordinal.
//!
//! A leaf entry is queued under the kernel's leaf bound (see
//! [`crate::engine`]) — `√(min_t W_1·P̂_1 + W_2·P̂_2)`, each member's own
//! partial distance over coefficients 1 and 2, shrunk by the margin — so
//! the optimal multi-step search refines only the entries whose partial
//! distance is below the k-th neighbour's. `candidates` counts those
//! refinements.

use crate::engine::{check_family, VerifyKernel};
use crate::feature::{FRect, MAG_DIMS};
use crate::index::SeqIndex;
use crate::query::QueryMode;
use crate::report::{EngineMetrics, Match, QueryError};
use crate::tmbr::TransformMbr;
use crate::transform::Family;
use std::collections::HashMap;
use std::time::Instant;
use tseries::TimeSeries;

/// The k sequences nearest to `query` under the best member of `family`,
/// via best-first search with a transformed MINDIST bound.
pub fn knn(
    index: &SeqIndex,
    query: &TimeSeries,
    family: &Family,
    k: usize,
) -> Result<(Vec<Match>, EngineMetrics), QueryError> {
    knn_bounded(index, query, family, k, f64::INFINITY)
}

/// [`knn`] seeded with an external pruning bound: only sequences at
/// distance ≤ `init_bound` are considered (ties at the bound are kept so
/// a caller merging several indexes can break them deterministically).
/// The sharded gather executor passes the running global k-th distance
/// here to prune later per-shard searches; `init_bound = ∞` is plain kNN.
pub fn knn_bounded(
    index: &SeqIndex,
    query: &TimeSeries,
    family: &Family,
    k: usize,
    init_bound: f64,
) -> Result<(Vec<Match>, EngineMetrics), QueryError> {
    let start = Instant::now();
    check_family(family, index.seq_len())?;
    let q = index.prepare_query(query)?;
    let mbr = TransformMbr::of_family(family);
    let qregion = mbr.apply_to_point(&q.point);

    let before = index.counters();
    let mut comparisons = 0u64;
    // Best member and distance of every refined sequence; the neighbour
    // list reports a subset of them.
    let mut best_of: HashMap<usize, (usize, f64)> = HashMap::new();
    // The refine closure cannot return a Result; the first fetch failure is
    // parked here and re-raised after the traversal returns.
    let mut fetch_err: Option<pagestore::PageError> = None;
    let mut kernel = VerifyKernel::for_query(index, family, &q, QueryMode::Symmetric);
    let leaf = kernel
        .leaf_bound()
        .expect("a symmetric query has a leaf bound");

    // Optimal multi-step search: nodes carry the family rectangle's
    // magnitude bound, leaf entries each member's own partial distance
    // over coefficients 1 and 2; the expensive fetch-and-verify runs only
    // when an entry reaches the head of the queue.
    let (neighbors, stats) = index.nearest_by_refine_bounded(
        k,
        init_bound,
        |rect| mindist_bound(&mbr.apply_to_rect(rect), &qregion),
        |rect, _| leaf.nearest(&leaf.terms(&rect.lo)),
        |_, data| {
            let seq = data as usize;
            // The traversal refines a leaf entry once: no row to keep.
            match kernel.touch_once(seq) {
                Ok(row) => {
                    let best = best_member(family.len(), |ti, best| {
                        kernel.distance_below(row, ti, best)
                    });
                    comparisons += family.len() as u64;
                    best_of.insert(seq, best);
                    Some(best.1)
                }
                Err(e) => {
                    fetch_err.get_or_insert(e);
                    None
                }
            }
        },
    )?;
    if let Some(e) = fetch_err {
        return Err(e.into());
    }

    let after = index.counters();
    let matches: Vec<Match> = neighbors
        .iter()
        .map(|n| {
            let seq = n.data as usize;
            let (transform, dist) = *best_of.get(&seq).expect("scored before reported");
            debug_assert!((dist - n.dist).abs() < 1e-12);
            Match {
                seq,
                transform,
                dist,
            }
        })
        .collect();

    let metrics = EngineMetrics {
        node_accesses: stats.nodes_accessed,
        leaf_accesses: stats.leaf_nodes_accessed,
        record_page_accesses: after.record_page_reads - before.record_page_reads,
        record_fetches: after.record_fetches - before.record_fetches,
        comparisons,
        candidates: stats.candidates,
        wall: start.elapsed(),
    };
    Ok((matches, metrics))
}

/// Exact score of one sequence: the first member attaining the least
/// distance, with that distance. `below(t, best)` is member `t`'s
/// distance when it is below `best`, the least found so far — the
/// kernel's abandon bound, exact for the argmin: a member whose partial
/// sum already reaches `best` can never be strictly less.
fn best_member(members: usize, below: impl Fn(usize, f64) -> Option<f64>) -> (usize, f64) {
    let (mut best_t, mut best_d) = (0usize, f64::INFINITY);
    for ti in 0..members {
        if let Some(d) = below(ti, best_d) {
            best_d = d;
            best_t = ti;
        }
    }
    (best_t, best_d)
}

/// Lower bound on `min_t D(t(x), t(q))` for everything under a transformed
/// rectangle: √2 × the magnitude-dimension gap between the transformed data
/// rectangle and the transformed query region (the symmetry factor makes
/// each stored coefficient count twice; angle dimensions are not lower
/// bounds and are excluded).
fn mindist_bound(data: &FRect, qregion: &FRect) -> f64 {
    let mut acc = 0.0;
    for &d in &MAG_DIMS {
        let gap = if data.lo[d] > qregion.hi[d] {
            data.lo[d] - qregion.hi[d]
        } else if qregion.lo[d] > data.hi[d] {
            qregion.lo[d] - data.hi[d]
        } else {
            0.0
        };
        acc += gap * gap;
    }
    (2.0 * acc).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use tseries::{Corpus, CorpusKind};

    fn setup(n: usize) -> (Corpus, SeqIndex) {
        let c = Corpus::generate(CorpusKind::SyntheticWalks, n, 128, 37);
        let idx = SeqIndex::build(&c, IndexConfig::default()).unwrap();
        (c, idx)
    }

    fn brute_force(
        index: &SeqIndex,
        c: &Corpus,
        query: &TimeSeries,
        family: &Family,
        k: usize,
    ) -> Vec<(usize, f64)> {
        let q = index.prepare_query(query).unwrap();
        let mut scored: Vec<(usize, f64)> = c
            .series()
            .iter()
            .enumerate()
            .filter_map(|(i, ts)| {
                let x = crate::feature::SeqFeatures::extract(ts)?;
                let d = family
                    .transforms()
                    .iter()
                    .map(|t| t.transformed_distance(&x, &q))
                    .fold(f64::INFINITY, f64::min);
                Some((i, d))
            })
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1));
        scored.truncate(k);
        scored
    }

    #[test]
    fn knn_matches_brute_force() {
        let (c, idx) = setup(120);
        let family = Family::moving_averages(5..=14, 128);
        for qi in [0usize, 60] {
            let (got, _) = knn(&idx, &c.series()[qi], &family, 5).unwrap();
            let want = brute_force(&idx, &c, &c.series()[qi], &family, 5);
            assert_eq!(got.len(), 5);
            for (g, (ws, wd)) in got.iter().zip(&want) {
                // Distances must match the brute-force ranking (ties may
                // permute equal-distance sequences).
                assert!((g.dist - wd).abs() < 1e-9, "query {qi}: {} vs {wd}", g.dist);
                let _ = ws;
            }
        }
    }

    /// A family with a reversal (angles scaled by −1) is scored on the
    /// kernel like any other; same contract as `knn_matches_brute_force`.
    #[test]
    fn knn_with_a_reversal_matches_brute_force() {
        let (c, idx) = setup(120);
        let mut members = Family::moving_averages(5..=9, 128).transforms().to_vec();
        members.push(crate::transform::Transform::time_reverse(128));
        let family = Family::new("mv+reverse", members);
        let (got, metrics) = knn(&idx, &c.series()[17], &family, 5).unwrap();
        let want = brute_force(&idx, &c, &c.series()[17], &family, 5);
        assert_eq!(got.len(), 5);
        for (g, (_, wd)) in got.iter().zip(&want) {
            assert!((g.dist - wd).abs() < 1e-9, "{} vs {wd}", g.dist);
        }
        assert_eq!(
            metrics.comparisons,
            metrics.record_fetches * family.len() as u64
        );
    }

    #[test]
    fn nearest_to_itself_is_itself() {
        let (c, idx) = setup(80);
        let family = Family::moving_averages(1..=5, 128);
        let (got, metrics) = knn(&idx, &c.series()[42], &family, 1).unwrap();
        assert_eq!(got[0].seq, 42);
        assert!(got[0].dist < 1e-9);
        assert_eq!(got[0].transform, 0, "identity (mv1) achieves distance 0");
        assert!(metrics.comparisons > 0);
    }

    #[test]
    fn pruning_avoids_scoring_everything() {
        let (c, idx) = setup(600);
        let family = Family::moving_averages(3..=6, 128);
        let (_, metrics) = knn(&idx, &c.series()[10], &family, 3).unwrap();
        assert!(
            metrics.candidates < 600,
            "best-first should not score every sequence: {}",
            metrics.candidates
        );
    }
}
