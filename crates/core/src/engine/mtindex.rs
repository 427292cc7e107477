//! MT-index — *Multiple Transformations at a time* (Algorithm 1, the
//! paper's contribution).
//!
//! Build the MBR of the transformation set, split it into a mult-MBR and an
//! add-MBR, and descend the R*-tree **once**, applying the pair to every
//! index rectangle via Eq. 12 and testing the result against the
//! ε-expanded query region. Candidates are post-processed with every member
//! transformation (step 5).
//!
//! With `k > 1` transformation rectangles (§4.3) the tree is still
//! descended **once** per group of up to 64 rectangles: a node carries the
//! mask of the rectangles whose own descent would reach it, each entry is
//! tested once against the group's hull (window tests only — a sound
//! prefilter) and then against the rectangles in its node's mask, and a
//! child inherits the mask of those that hit. Each node is read once per
//! group, yet every rectangle gets its own candidates in its own descent's
//! order and its own `DA_all(q, rᵢ)`, `DA_leaf(q, rᵢ)` — a node is
//! attributed to every rectangle in its mask — so Eq. 19's per-rectangle
//! sum, the trade-off Figures 8–9 explore, is reported unchanged while
//! the device reads each node once. The test of an entry against a
//! group is one call of the filter bound to all its rectangles
//! ([`RectFilter::hits`]): a pass per constrained dimension over a table
//! with a row per rectangle, each row's Eq. 12 specialised for point
//! entries and single multipliers, returning the mask of rectangles hit —
//! the same bits, rectangle by rectangle, as `Filter::hit` on Eq. 12's
//! rectangle.
//!
//! Step 5 then fetches each distinct candidate once, in heap order — the
//! descent numbers a candidate's kernel row where it meets the entry, and
//! the kernel fills the rows in ordinal order — and verifies rectangle by
//! rectangle, each in its own descent's order, reading rows by index. So
//! matches, match order, distances and the paper's counters (`record
//! fetches` included: one per candidate of each rectangle) are those of
//! `k` descents, while the pool misses are one per heap page the
//! candidates lie on.
//!
//! Under the sound policies (`Safe`, `Adaptive`) a symmetric query puts
//! one more exact test between steps 4 and 5, the kernel's leaf bound
//! (see [`crate::engine`]): where the descent meets an entry, the bound
//! turns the entry's two terms into the bitset of members that may lie
//! within `ε` (one pass over the members, against a threshold computed
//! once per query), a rectangle keeps the entry only if its members meet
//! that bitset, an entry no rectangle keeps gets no row and no fetch, and
//! verification skips the members the bitset rules out. Ordered plans
//! take the entry's drop and binary-search the survivors as before.
//! `candidates` stays Eq. 12's count; `comparisons`, `record fetches` and
//! the pages read count what the gate lets through.

use crate::engine::{check_family, GroupMembers, LeafBound, VerifyKernel};
use crate::feature::{FRect, FeatureVec};
use crate::index::SeqIndex;
use crate::ordering::OrderedFamily;
use crate::partition::PartitionStrategy;
use crate::query::{mt_query_region, Filter, FilterPolicy, QueryMode, RangeSpec, RectFilter};
use crate::report::{EngineMetrics, Match, QueryError, QueryResult};
use crate::tmbr::TransformMbr;
use crate::transform::Family;
use rstartree::mask_bits;
use std::time::Instant;
use tseries::TimeSeries;

/// Per-rectangle cost counters — the `DA_all(q, rᵢ)`, `DA_leaf(q, rᵢ)` and
/// `NT(rᵢ)` of Eq. 19/20, reported so the cost model can be evaluated
/// against measurements (Fig. 8).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RectTraversal {
    /// Node accesses of this rectangle's traversal (all levels).
    pub da_all: u64,
    /// Leaf accesses of this rectangle's traversal.
    pub da_leaf: u64,
    /// Candidates retrieved.
    pub candidates: u64,
    /// Number of member transformations.
    pub nt: usize,
}

/// Query 1 by MT-index with all transformations in one rectangle (the §5.1
/// configuration).
pub fn range_query(
    index: &SeqIndex,
    query: &TimeSeries,
    family: &Family,
    spec: &RangeSpec,
) -> Result<QueryResult, QueryError> {
    let (result, _) =
        range_query_partitioned(index, query, family, spec, &PartitionStrategy::Single)?;
    Ok(result)
}

/// Query 1 by MT-index with an explicit partitioning strategy; also returns
/// the per-rectangle traversal counters for cost-model evaluation.
pub fn range_query_partitioned(
    index: &SeqIndex,
    query: &TimeSeries,
    family: &Family,
    spec: &RangeSpec,
    strategy: &PartitionStrategy,
) -> Result<(QueryResult, Vec<RectTraversal>), QueryError> {
    let mbrs = crate::partition::partition(family, strategy);
    range_query_with_mbrs(index, query, family, spec, &mbrs, None)
}

/// Query 1 by MT-index over an ordered family: candidate verification uses
/// binary search (§4.4 — "the number of comparisons for every candidate
/// sequence drops to log|T|").
pub fn range_query_ordered(
    index: &SeqIndex,
    query: &TimeSeries,
    ordered: &OrderedFamily,
    spec: &RangeSpec,
) -> Result<QueryResult, QueryError> {
    let mbrs = vec![TransformMbr::of_family(ordered.family())];
    let (result, _) =
        range_query_with_mbrs(index, query, ordered.family(), spec, &mbrs, Some(ordered))?;
    Ok(result)
}

/// The general driver: one descent per group of up to 64 transformation
/// rectangles, then step 5 rectangle by rectangle.
pub fn range_query_with_mbrs(
    index: &SeqIndex,
    query: &TimeSeries,
    family: &Family,
    spec: &RangeSpec,
    mbrs: &[TransformMbr],
    ordered: Option<&OrderedFamily>,
) -> Result<(QueryResult, Vec<RectTraversal>), QueryError> {
    let q = index.prepare_query(query)?;
    range_query_features(index, &q, family, spec, mbrs, ordered)
}

/// Like [`range_query_with_mbrs`] but with an already-prepared query target
/// — typically used with [`crate::query::QueryMode::DataOnly`] and a
/// transformed spectrum (e.g. "compare each candidate's shifted momentum
/// against the momentum of q").
pub fn range_query_features(
    index: &SeqIndex,
    q: &crate::feature::SeqFeatures,
    family: &Family,
    spec: &RangeSpec,
    mbrs: &[TransformMbr],
    ordered: Option<&OrderedFamily>,
) -> Result<(QueryResult, Vec<RectTraversal>), QueryError> {
    let start = Instant::now();
    check_family(family, index.seq_len())?;
    if q.len() != index.seq_len() {
        return Err(QueryError::LengthMismatch {
            query: q.len(),
            indexed: index.seq_len(),
        });
    }
    let eps = spec.epsilon(index.seq_len());
    let filter = Filter::new(eps, spec.policy);

    // Orderings (Definition 1) are stated for symmetric application;
    // binary search is only sound there.
    assert!(
        ordered.is_none() || spec.mode == QueryMode::Symmetric,
        "ordered verification requires symmetric queries"
    );

    let before = index.counters();
    let mut metrics = EngineMetrics::default();
    let mut matches = Vec::new();
    let mut kernel = VerifyKernel::for_query(index, family, q, spec.mode);
    // The leaf gate of the sound policies; `Paper` keeps the paper's
    // step 5, whose comparisons Figures 5–8 count.
    let gate = match spec.policy {
        FilterPolicy::Paper => None,
        FilterPolicy::Safe | FilterPolicy::Adaptive => kernel.leaf_bound(),
    };
    let (limit, words) = (
        LeafBound::limit(eps),
        gate.as_ref().map_or(0, LeafBound::words),
    );
    let groups: Vec<_> = (mbrs.chunks(MASK_WIDTH).enumerate())
        .map(|(g, group)| GroupMembers::of(group, g * MASK_WIDTH))
        .collect();

    // A group's descent meets each live leaf entry once. A rectangle keeps
    // the entry when one of its members passes the gate; a kept candidate
    // gets its kernel row there, with the bitset of the members the gate
    // admits, and every rectangle that kept it lists that row. A
    // candidate of several groups has a row in each, filled once.
    let (mut seqs, mut admitted, mut rows) = (Vec::new(), Vec::new(), vec![Vec::new(); mbrs.len()]);
    let mut entry = vec![0; words];
    let traversals = descend(
        index,
        mbrs,
        &q.point,
        spec.mode,
        &filter,
        |first, seq, mask, point| {
            let kept = match &gate {
                None => mask,
                Some(gate) => {
                    gate.admitted(&gate.terms(point), limit, &mut entry);
                    groups[first / MASK_WIDTH].kept(mask, &entry)
                }
            };
            if kept != 0 {
                for j in mask_bits(kept) {
                    rows[first + j].push(seqs.len());
                }
                seqs.push(seq);
                admitted.extend_from_slice(&entry);
            }
        },
    )?;
    let admits =
        |row: usize, t: usize| words == 0 || admitted[row * words + t / 64] >> (t % 64) & 1 != 0;
    // Step 5: retrieve the full records in heap order...
    kernel.fill_rows(&seqs)?;
    for ((mbr, traversal), rows) in mbrs.iter().zip(&traversals).zip(rows) {
        metrics.node_accesses += traversal.da_all;
        metrics.leaf_accesses += traversal.da_leaf;
        metrics.candidates += traversal.candidates;
        // The paper's record accesses: one per candidate of each rectangle
        // that the gate kept.
        metrics.record_fetches += rows.len() as u64;

        // ...then verify rectangle by rectangle, in each one's descent
        // order, every member the gate admits, each one comparison however
        // early it is abandoned — or, over an ordered family, whose
        // rectangle members are contiguous ranks, binary-search the maximal
        // qualifying rank and verify the members at or below it uncounted:
        // the decision took log|T| comparisons (§4.4's accounting).
        for row in rows {
            let seq = seqs[row];
            let members = match ordered {
                None => mbr.members.len(),
                Some(ordered) => {
                    let dist = |t: usize| kernel.distance(row, t);
                    let comparisons = &mut metrics.comparisons;
                    let max = ordered.max_qualifying_in(&mbr.members, dist, eps, comparisons);
                    mbr.members
                        .partition_point(|&t| max.is_some_and(|max| t <= max))
                }
            };
            for &ti in &mbr.members[..members] {
                if ordered.is_none() {
                    if !admits(row, ti) {
                        continue;
                    }
                    metrics.comparisons += 1;
                }
                if let Some(dist) = kernel.distance_below(row, ti, eps) {
                    matches.push(Match {
                        seq,
                        transform: ti,
                        dist,
                    });
                }
            }
        }
    }

    let after = index.counters();
    metrics.record_page_accesses = after.record_page_reads - before.record_page_reads;
    metrics.wall = start.elapsed();
    Ok((QueryResult { matches, metrics }, traversals))
}

/// A filter-only probe: runs the rectangles' descents, counting node and
/// candidate statistics **without** fetching or verifying candidates. This
/// is the measurement §4.3's optimizer needs to evaluate Eq. 20 for a
/// candidate partitioning at a fraction of a real query's cost.
pub fn probe(
    index: &SeqIndex,
    query: &TimeSeries,
    family: &Family,
    spec: &RangeSpec,
    mbrs: &[TransformMbr],
) -> Result<Vec<RectTraversal>, QueryError> {
    check_family(family, index.seq_len())?;
    let q = index.prepare_query(query)?;
    let eps = spec.epsilon(index.seq_len());
    let filter = Filter::new(eps, spec.policy);
    descend(index, mbrs, &q.point, spec.mode, &filter, |_, _, _, _| {})
}

/// Rectangles one descent serves: the bits of a `u64` mask.
pub(crate) const MASK_WIDTH: usize = RectFilter::MAX_RECTS;

/// Algorithm 1 steps 1–4 for every rectangle of a plan, in one descent per
/// group of up to [`MASK_WIDTH`]: the filter bound once to the group's
/// rectangles and their query regions ([`Filter::bind_all`]), then one
/// masked walk of the tree ([`SeqIndex::search_masked`]) that tests every
/// index rectangle through Eq. 12 — in the dimensions the filter looks at,
/// see [`RectFilter`] — against the rectangles whose own descent would
/// have reached it, and hands each surviving leaf entry to
/// `on_entry(first, seq, mask, point)` once per group: bit `j` of `mask`
/// set for each rectangle `first + j` it hit, `point` the entry's feature
/// point. So the entries with bit `j` set arrive in the order rectangle
/// `first + j`'s own descent yields its candidates, and its
/// [`RectTraversal`] counts that descent's nodes.
///
/// In a group of several rectangles an entry first meets the group's hull
/// ([`TransformMbr::hull`]), window tests only: the hull's bounds contain
/// every member's, so it never rejects what any of them accepts
/// ([`RectFilter::hit_windows`]), and most entries fail it once instead of
/// once per rectangle.
pub(crate) fn descend(
    index: &SeqIndex,
    mbrs: &[TransformMbr],
    q: &FeatureVec,
    mode: QueryMode,
    filter: &Filter,
    mut on_entry: impl FnMut(usize, usize, u64, &FeatureVec),
) -> Result<Vec<RectTraversal>, QueryError> {
    let bind = |rects: &[TransformMbr]| {
        filter.bind_all(rects.iter().map(|mbr| (mbr, mt_query_region(mbr, q, mode))))
    };
    let mut traversals = Vec::with_capacity(mbrs.len());
    for (g, group) in mbrs.chunks(MASK_WIDTH).enumerate() {
        let bound = bind(group);
        let hull =
            (group.len() > 1).then(|| bind(std::slice::from_ref(&TransformMbr::hull(group))));
        let pred = |rect: &FRect, live: u64| match &hull {
            Some(hull) if !hull.hit_windows(rect) => 0,
            _ => bound.hits(rect, live),
        };
        let on_data = |rect: &FRect, data: u64, mask: u64| {
            on_entry(g * MASK_WIDTH, data as usize, mask, &rect.lo)
        };
        let (per_rect, _) = index.search_masked(group.len(), pred, on_data)?;
        traversals.extend(
            group
                .iter()
                .zip(per_rect)
                .map(|(mbr, stats)| RectTraversal {
                    da_all: stats.nodes_accessed,
                    da_leaf: stats.leaf_nodes_accessed,
                    candidates: stats.candidates,
                    nt: mbr.nt(),
                }),
        );
    }
    Ok(traversals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{seqscan, stindex};
    use crate::feature::SeqFeatures;
    use crate::index::IndexConfig;
    use crate::query::FilterPolicy;
    use tseries::{Corpus, CorpusKind};

    fn setup(n: usize) -> (Corpus, SeqIndex) {
        let c = Corpus::generate(CorpusKind::SyntheticWalks, n, 128, 29);
        let idx = SeqIndex::build(&c, IndexConfig::default()).unwrap();
        (c, idx)
    }

    #[test]
    fn safe_policy_matches_scan_and_st() {
        let (c, idx) = setup(150);
        let family = Family::moving_averages(10..=25, 128);
        let spec = RangeSpec::correlation(0.96).with_policy(FilterPolicy::Safe);
        for qi in [0usize, 50, 149] {
            let q = &c.series()[qi];
            let scan = seqscan::range_query(&idx, q, &family, &spec).unwrap();
            let st = stindex::range_query(&idx, q, &family, &spec).unwrap();
            let mt = range_query(&idx, q, &family, &spec).unwrap();
            assert_eq!(scan.sorted_pairs(), st.sorted_pairs(), "ST query {qi}");
            assert_eq!(scan.sorted_pairs(), mt.sorted_pairs(), "MT query {qi}");
        }
    }

    #[test]
    fn single_traversal_beats_st_on_node_accesses() {
        let (c, idx) = setup(400);
        let family = Family::moving_averages(5..=34, 128);
        let spec = RangeSpec::correlation(0.96);
        let q = &c.series()[11];
        let st = stindex::range_query(&idx, q, &family, &spec).unwrap();
        let mt = range_query(&idx, q, &family, &spec).unwrap();
        assert!(
            mt.metrics.node_accesses * 5 < st.metrics.node_accesses,
            "MT {} vs ST {}",
            mt.metrics.node_accesses,
            st.metrics.node_accesses
        );
    }

    #[test]
    fn partitioned_equals_single_rectangle_results() {
        let (c, idx) = setup(120);
        let family = Family::moving_averages(6..=29, 128);
        let spec = RangeSpec::correlation(0.96).with_policy(FilterPolicy::Safe);
        let q = &c.series()[5];
        let (one, tr1) =
            range_query_partitioned(&idx, q, &family, &spec, &PartitionStrategy::Single).unwrap();
        let (four, tr4) = range_query_partitioned(
            &idx,
            q,
            &family,
            &spec,
            &PartitionStrategy::EqualWidth { per_mbr: 6 },
        )
        .unwrap();
        assert_eq!(one.sorted_pairs(), four.sorted_pairs());
        assert_eq!(tr1.len(), 1);
        assert_eq!(tr4.len(), 4);
        assert_eq!(tr4.iter().map(|t| t.nt).sum::<usize>(), 24);
    }

    #[test]
    fn traversal_counters_sum_to_metrics() {
        let (c, idx) = setup(200);
        let family = Family::moving_averages(6..=17, 128);
        let spec = RangeSpec::correlation(0.96);
        let (res, trav) = range_query_partitioned(
            &idx,
            &c.series()[2],
            &family,
            &spec,
            &PartitionStrategy::EqualWidth { per_mbr: 4 },
        )
        .unwrap();
        assert_eq!(
            trav.iter().map(|t| t.da_all).sum::<u64>(),
            res.metrics.node_accesses
        );
        assert_eq!(
            trav.iter().map(|t| t.candidates).sum::<u64>(),
            res.metrics.candidates
        );
    }

    /// The kernel's matches are the naive path's pair for pair, in the
    /// same order, at distances within `1e-12·max(1, d_naive)`. Data-only
    /// distances are compared squared, within `1e-12·max(1, d²_naive)`:
    /// there the law of cosines' rounding error is absolute in `d²`, and
    /// where a member barely moves a sequence matched against itself the
    /// naive `d ≈ 0` comes out as ~1e-8.
    fn assert_same_matches(got: &[Match], want: &[Match], mode: QueryMode) {
        let pairs = |v: &[Match]| -> Vec<(usize, usize)> {
            v.iter().map(|m| (m.seq, m.transform)).collect()
        };
        assert_eq!(pairs(got), pairs(want));
        for (g, w) in got.iter().zip(want) {
            let (gd, wd) = match mode {
                QueryMode::Symmetric => (g.dist, w.dist),
                QueryMode::DataOnly => (g.dist * g.dist, w.dist * w.dist),
            };
            assert!(
                (gd - wd).abs() <= 1e-12 * wd.max(1.0),
                "({}, {}): kernel {} vs naive {}",
                w.seq,
                w.transform,
                g.dist,
                w.dist
            );
        }
    }

    /// Step 5 on the kernel reports what the naive distance over full
    /// features would, and only the last bits of a distance may show: the
    /// same matches in the same order, the same counters — run after run.
    /// Under `Safe` the counters are the leaf gate's survivors, and every
    /// naive match survives it; under `Paper` there is no gate.
    #[test]
    fn kernel_path_reports_what_the_naive_distance_would_in_order() {
        let (c, idx) = setup(200);
        let family = Family::moving_averages(5..=20, 128);
        let spec = RangeSpec::correlation(0.8).with_policy(FilterPolicy::Safe);
        let query = &c.series()[9];
        let q = idx.prepare_query(query).unwrap();

        let eps = spec.epsilon(128);
        let filter = Filter::new(eps, spec.policy);
        let gate = VerifyKernel::for_query(&idx, &family, &q, spec.mode)
            .leaf_bound()
            .unwrap();
        let (mut want, mut comparisons, mut touches) = (Vec::new(), 0, 0);
        let mut candidates_total = 0;
        for mbr in TransformMbr::singletons(&family) {
            // Each rectangle's own descent, the oracle of the masked one.
            let bound = filter.bind(&mbr, mt_query_region(&mbr, &q.point, spec.mode));
            let mut candidates = Vec::new();
            idx.search(
                |r| bound.hit(r),
                |r, seq| candidates.push((seq as usize, gate.terms(&r.lo))),
            )
            .unwrap();
            candidates_total += candidates.len() as u64;
            for (seq, p) in candidates {
                let x = SeqFeatures::extract(&idx.fetch_series(seq).unwrap()).unwrap();
                let admitted: Vec<usize> = mbr
                    .members
                    .iter()
                    .copied()
                    .filter(|&t| gate.admits(t, &p, eps))
                    .collect();
                touches += u64::from(!admitted.is_empty());
                for &ti in &mbr.members {
                    let dist = family.transforms()[ti].transformed_distance(&x, &q);
                    assert!(
                        dist >= eps || admitted.contains(&ti),
                        "the gate dropped ({seq}, {ti}) at {dist} < {eps}"
                    );
                    if !admitted.contains(&ti) {
                        continue;
                    }
                    comparisons += 1;
                    if dist < eps {
                        want.push(Match {
                            seq,
                            transform: ti,
                            dist,
                        });
                    }
                }
            }
        }
        assert!(
            want.len() > 2 * family.len(),
            "more than the query matching itself: {} matches",
            want.len()
        );

        let first = stindex::range_query(&idx, query, &family, &spec).unwrap();
        let second = stindex::range_query(&idx, query, &family, &spec).unwrap();
        assert_same_matches(&first.matches, &want, spec.mode);
        assert_eq!(first.matches, second.matches);
        assert_eq!(first.metrics.comparisons, comparisons);
        assert_eq!(first.metrics.record_fetches, touches);
        // Eq. 12's count stands; the gate only thins what follows it.
        assert_eq!(first.metrics.candidates, candidates_total);
        assert!(comparisons < candidates_total, "{comparisons} comparisons");
        // And the one-rectangle MT plan finds the same pairs at the same
        // distances, member-major per candidate.
        let mt = range_query(&idx, query, &family, &spec).unwrap();
        assert_same_matches(&by_pair(&mt.matches), &by_pair(&want), spec.mode);

        // `Paper` has no gate: every candidate of every rectangle is one
        // record fetch and `NT = 1` comparison, as Figures 5–8 count.
        let paper = spec.with_policy(FilterPolicy::Paper);
        let m = stindex::range_query(&idx, query, &family, &paper)
            .unwrap()
            .metrics;
        assert!(m.candidates > comparisons);
        assert_eq!(
            (m.comparisons, m.record_fetches),
            (m.candidates, m.candidates)
        );
    }

    fn by_pair(v: &[Match]) -> Vec<Match> {
        let mut v = v.to_vec();
        v.sort_unstable_by_key(|m| (m.seq, m.transform));
        v
    }

    /// Every query shape step 5 serves beyond moving averages — data-only
    /// shifts, a time reversal (angles scaled by −1), the paper's
    /// approximate shift (not conjugate-symmetric), an odd length (the
    /// general FFT path) and ordered verification — is exact: ST ≡ MT ≡
    /// scan pair for pair, at the scan's distances to `1e-12·max(1, d)`
    /// (data-only: squared, see [`assert_same_matches`]).
    #[test]
    fn reversal_shift_odd_data_only_and_ordered_queries_equal_scan() {
        use crate::query::QueryMode;
        use crate::transform::Transform;
        let safe = RangeSpec::correlation(0.92).with_policy(FilterPolicy::Safe);
        let cases: Vec<(&str, usize, Family, RangeSpec)> = vec![
            (
                "data-only shifts",
                128,
                Family::circular_shifts(0..=6, 128),
                safe.with_mode(QueryMode::DataOnly),
            ),
            (
                "data-only reversal",
                128,
                Family::new(
                    "rev",
                    vec![Transform::identity(128), Transform::time_reverse(128)],
                ),
                safe.with_mode(QueryMode::DataOnly),
            ),
            (
                "time reversal scales angles by -1",
                128,
                Family::new(
                    "rev",
                    vec![
                        Transform::moving_average(5, 128),
                        Transform::time_reverse(128),
                        Transform::exponential_moving_average(0.4, 128),
                    ],
                ),
                safe,
            ),
            (
                "the paper's approximate shift is not conjugate-symmetric",
                128,
                Family::new(
                    "pshift",
                    vec![
                        Transform::paper_shift(1, 128),
                        Transform::paper_shift(3, 128),
                        Transform::moving_average(4, 128),
                    ],
                ),
                safe,
            ),
            (
                "odd length: the general FFT path",
                127,
                Family::moving_averages(3..=9, 127),
                safe,
            ),
            (
                "odd length, data-only",
                127,
                Family::circular_shifts(0..=4, 127),
                safe.with_mode(QueryMode::DataOnly),
            ),
        ];
        for (what, len, family, spec) in cases {
            let c = Corpus::generate(CorpusKind::SyntheticWalks, 150, len, 31);
            let idx = SeqIndex::build(&c, IndexConfig::default()).unwrap();
            for qi in [4usize, 77] {
                let query = &c.series()[qi];
                let scan = seqscan::range_query(&idx, query, &family, &spec).unwrap();
                let st = stindex::range_query(&idx, query, &family, &spec).unwrap();
                let mt = range_query(&idx, query, &family, &spec).unwrap();
                assert!(
                    !scan.matches.is_empty(),
                    "{what}: query {qi} matches itself"
                );
                assert_same_matches(&by_pair(&st.matches), &scan.matches, spec.mode);
                assert_same_matches(&by_pair(&mt.matches), &scan.matches, spec.mode);
            }
        }

        // Ordered verification binary-searches on the kernel too.
        let (c, idx) = setup(150);
        let factors: Vec<f64> = (1..=16).map(|k| 0.25 * k as f64).collect();
        let ordered = OrderedFamily::scalings(&factors, 128);
        let spec = RangeSpec::euclidean(9.0).with_policy(FilterPolicy::Safe);
        let query = &c.series()[8];
        let scan = seqscan::range_query(&idx, query, ordered.family(), &spec).unwrap();
        let mt = range_query_ordered(&idx, query, &ordered, &spec).unwrap();
        let st = stindex::range_query_ordered(&idx, query, &ordered, &spec).unwrap();
        assert!(!scan.matches.is_empty());
        assert_same_matches(&by_pair(&mt.matches), &scan.matches, spec.mode);
        assert_same_matches(&by_pair(&st.matches), &scan.matches, spec.mode);
    }

    /// §4.4 alone, so under `Paper`: the sound policies' leaf gate thins
    /// the general plan's comparisons too.
    #[test]
    fn ordered_verification_saves_comparisons() {
        let (c, idx) = setup(150);
        let factors: Vec<f64> = (1..=32).map(|k| 0.2 + 0.1 * k as f64).collect();
        let ordered = OrderedFamily::scalings(&factors, 128);
        let spec = RangeSpec::euclidean(10.0).with_policy(FilterPolicy::Paper);
        let q = &c.series()[8];
        let general = range_query(&idx, q, ordered.family(), &spec).unwrap();
        let fast = range_query_ordered(&idx, q, &ordered, &spec).unwrap();
        assert_eq!(general.sorted_pairs(), fast.sorted_pairs());
        assert!(
            fast.metrics.comparisons <= general.metrics.comparisons / 3,
            "{} vs {}",
            fast.metrics.comparisons,
            general.metrics.comparisons
        );
    }
}
