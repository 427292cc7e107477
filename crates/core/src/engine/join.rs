//! Query 2 — the spatial self-join: "find every pair `s₁, s₂` of stocks and
//! every `t ∈ T` such that the transformed sequences are similar" (§4, §5,
//! Fig. 7).
//!
//! Semantics: the join predicate is `D(t(x̂), t(ŷ)) < ε` with ε derived
//! from the correlation threshold through Eq. 9 — the paper's ρ ≥ 0.99
//! becomes ε = √(2(n−1−0.99n)). The MT variant applies the transformation
//! MBR to *both* rectangles of every node pair before testing overlap,
//! exactly as §4.1 describes for join queries. The ST variant is the same
//! loop over the family's singleton rectangles, one self-join per
//! transformation (see [`crate::engine::stindex`]).

use crate::engine::{check_family, VerifyKernel};
use crate::feature::SeqFeatures;
use crate::index::SeqIndex;
use crate::query::{Filter, RangeSpec};
use crate::report::{EngineMetrics, JoinMatch, JoinResult, QueryError};
use crate::tmbr::TransformMbr;
use crate::transform::{Family, Transform};
use pagestore::{PageError, PageId};
use std::time::Instant;

/// Query 2 by nested-loop scan: all `|S|·(|S|−1)/2` pairs × all
/// transformations.
pub fn scan_join(
    index: &SeqIndex,
    family: &Family,
    spec: &RangeSpec,
) -> Result<JoinResult, QueryError> {
    let start = Instant::now();
    check_family(family, index.seq_len())?;
    let eps = spec.epsilon(index.seq_len());

    let before = index.counters();
    // One pass over the relation materialises the features (the scan's page
    // accesses are counted); the pair loop is then CPU-bound, as in a real
    // block nested-loop join whose inner relation fits in memory.
    let mut feats: Vec<(usize, SeqFeatures)> = Vec::new();
    index.scan(|ordinal, ts| {
        if let Some(f) = SeqFeatures::extract(&ts) {
            feats.push((ordinal, f));
        }
    })?;

    let mut metrics = EngineMetrics::default();
    let mut matches = Vec::new();
    for i in 0..feats.len() {
        for j in (i + 1)..feats.len() {
            let (sa, fa) = &feats[i];
            let (sb, fb) = &feats[j];
            for (ti, t) in family.transforms().iter().enumerate() {
                let d = t.transformed_distance(fa, fb);
                metrics.comparisons += 1;
                if d < eps {
                    matches.push(JoinMatch {
                        seq_a: *sa,
                        seq_b: *sb,
                        transform: ti,
                        dist: d,
                    });
                }
            }
        }
    }
    let after = index.counters();
    metrics.record_page_accesses = after.record_page_reads - before.record_page_reads;
    metrics.record_fetches = after.record_fetches - before.record_fetches;
    metrics.candidates = (feats.len() * (feats.len() - 1) / 2) as u64;
    metrics.wall = start.elapsed();
    Ok(JoinResult { matches, metrics })
}

/// Query 2 by ST-index: one R*-tree self-join per transformation.
pub fn st_join(
    index: &SeqIndex,
    family: &Family,
    spec: &RangeSpec,
) -> Result<JoinResult, QueryError> {
    mt_join_with_mbrs(index, family, spec, &TransformMbr::singletons(family))
}

/// Query 2 by MT-index: one self-join per transformation rectangle, with
/// the rectangle applied to both sides of every pair (§4.1's join recipe).
pub fn mt_join(
    index: &SeqIndex,
    family: &Family,
    spec: &RangeSpec,
) -> Result<JoinResult, QueryError> {
    mt_join_with_mbrs(index, family, spec, &[TransformMbr::of_family(family)])
}

/// MT join with explicit transformation rectangles.
pub fn mt_join_with_mbrs(
    index: &SeqIndex,
    family: &Family,
    spec: &RangeSpec,
    mbrs: &[TransformMbr],
) -> Result<JoinResult, QueryError> {
    let start = Instant::now();
    check_family(family, index.seq_len())?;
    let eps = spec.epsilon(index.seq_len());
    let filter = Filter::new(eps, spec.policy);

    let before = index.counters();
    let mut metrics = EngineMetrics::default();
    let mut matches = Vec::new();
    let mut kernel = VerifyKernel::for_self_join(index, family);
    let mut row_of = vec![NO_ROW; index.len()];

    for mbr in mbrs {
        let mut pairs = Vec::new();
        let stats = index.self_join(
            |r1, r2| filter.hit(&mbr.apply_to_rect(r1), &mbr.apply_to_rect(r2)),
            |_, d1, _, d2| pairs.push((d1 as usize, d2 as usize)),
        )?;
        metrics.node_accesses += stats.nodes_accessed;
        metrics.leaf_accesses += stats.leaf_nodes_accessed;
        metrics.candidates += pairs.len() as u64;
        // The paper's record accesses: both members of every pair.
        metrics.record_fetches += 2 * pairs.len() as u64;
        fill_members(&mut kernel, &mut row_of, &pairs)?;
        for (sa, sb) in pairs {
            let row = kernel.pair(row_of[sa], row_of[sb]);
            for &ti in &mbr.members {
                metrics.comparisons += 1;
                if let Some(dist) = kernel.distance_below(row, ti, eps) {
                    let (seq_a, seq_b) = (sa.min(sb), sa.max(sb));
                    matches.push(JoinMatch {
                        seq_a,
                        seq_b,
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
    Ok(JoinResult { matches, metrics })
}

/// No kernel row yet, in a join's ordinal → row table.
const NO_ROW: usize = usize::MAX;

/// Gives each member of `pairs` that has no row in `row_of` — a dense
/// ordinal → row table, a join being whole-relation work — the next
/// kernel row, and fills those rows in heap order
/// ([`VerifyKernel::fill_rows`]). A member past the relation (a damaged
/// leaf payload) is a typed corrupt error.
fn fill_members(
    kernel: &mut VerifyKernel,
    row_of: &mut [usize],
    pairs: &[(usize, usize)],
) -> Result<(), PageError> {
    let (first, mut fresh) = (kernel.rows(), Vec::new());
    for seq in pairs.iter().flat_map(|&(a, b)| [a, b]) {
        let row = row_of
            .get_mut(seq)
            .ok_or(PageError::corrupt(PageId::INVALID))?;
        if *row == NO_ROW {
            *row = first + fresh.len();
            fresh.push(seq);
        }
    }
    kernel.fill_rows(&fresh)
}

/// Paired-family join: predicate `D(L_i(x), R_i(y)) < ε` for matching
/// member index `i` — transformations may differ per side. This is how
/// asymmetric relationships are expressed: hedging ("approximately the
/// opposite way", §1) pairs `L_i = invert ∘ mv_m` with `R_i = mv_m`, so a
/// match means the *inverted* smoothed left sequence tracks the smoothed
/// right sequence.
///
/// The MT filter applies the left family's MBR to one rectangle and the
/// right family's MBR to the other before the expanded-intersection test —
/// Lemma 1 applies per side, so `Safe`-policy recall is exact.
///
/// Note the predicate is not symmetric: each unordered pair `{x, y}` is
/// tested both ways and reported with `seq_a`/`seq_b` in predicate order
/// (`L` applies to `seq_a`).
pub fn mt_join_paired(
    index: &SeqIndex,
    left: &Family,
    right: &Family,
    spec: &RangeSpec,
) -> Result<JoinResult, QueryError> {
    assert_eq!(
        left.len(),
        right.len(),
        "paired families must have equal sizes"
    );
    let start = Instant::now();
    check_family(left, index.seq_len())?;
    check_family(right, index.seq_len())?;
    let eps = spec.epsilon(index.seq_len());
    let filter = Filter::new(eps, spec.policy);
    let lmbr = TransformMbr::of_family(left);
    let rmbr = TransformMbr::of_family(right);

    let before = index.counters();
    let mut metrics = EngineMetrics::default();
    let mut matches = Vec::new();
    let mut kernel = VerifyKernel::for_paired_join(index, left, right);

    let mut pairs = Vec::new();
    // The index pair filter must admit a pair when EITHER orientation can
    // qualify (the tree's self-join visits each unordered pair once).
    let stats = index.self_join(
        |r1, r2| {
            filter.hit(&lmbr.apply_to_rect(r1), &rmbr.apply_to_rect(r2))
                || filter.hit(&lmbr.apply_to_rect(r2), &rmbr.apply_to_rect(r1))
        },
        |_, d1, _, d2| pairs.push((d1 as usize, d2 as usize)),
    )?;
    metrics.node_accesses = stats.nodes_accessed;
    metrics.leaf_accesses = stats.leaf_nodes_accessed;
    metrics.candidates = pairs.len() as u64;
    metrics.record_fetches = 2 * pairs.len() as u64;

    let mut row_of = vec![NO_ROW; index.len()];
    fill_members(&mut kernel, &mut row_of, &pairs)?;
    for (sa, sb) in pairs {
        let (ra, rb) = (row_of[sa], row_of[sb]);
        for ti in 0..left.len() {
            for (seq_a, seq_b, x, y) in [(sa, sb, ra, rb), (sb, sa, rb, ra)] {
                metrics.comparisons += 1;
                if let Some(dist) = kernel.paired_below(x, y, ti, eps) {
                    matches.push(JoinMatch {
                        seq_a,
                        seq_b,
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
    Ok(JoinResult { matches, metrics })
}

/// Nested-loop ground truth for [`mt_join_paired`].
pub fn scan_join_paired(
    index: &SeqIndex,
    left: &Family,
    right: &Family,
    spec: &RangeSpec,
) -> Result<JoinResult, QueryError> {
    assert_eq!(
        left.len(),
        right.len(),
        "paired families must have equal sizes"
    );
    let start = Instant::now();
    check_family(left, index.seq_len())?;
    check_family(right, index.seq_len())?;
    let eps = spec.epsilon(index.seq_len());

    let before = index.counters();
    let mut feats: Vec<(usize, SeqFeatures)> = Vec::new();
    index.scan(|ordinal, ts| {
        if let Some(f) = SeqFeatures::extract(&ts) {
            feats.push((ordinal, f));
        }
    })?;
    let mut metrics = EngineMetrics::default();
    let mut matches = Vec::new();
    for i in 0..feats.len() {
        for j in 0..feats.len() {
            if i == j {
                continue;
            }
            let (sa, fa) = &feats[i];
            let (sb, fb) = &feats[j];
            for ti in 0..left.len() {
                let d =
                    pair_spectrum_distance(&left.transforms()[ti], &right.transforms()[ti], fa, fb);
                metrics.comparisons += 1;
                if d < eps {
                    matches.push(JoinMatch {
                        seq_a: *sa,
                        seq_b: *sb,
                        transform: ti,
                        dist: d,
                    });
                }
            }
        }
    }
    let after = index.counters();
    metrics.record_page_accesses = after.record_page_reads - before.record_page_reads;
    metrics.record_fetches = after.record_fetches - before.record_fetches;
    metrics.wall = start.elapsed();
    Ok(JoinResult { matches, metrics })
}

/// `D(L(x), R(y))` over full spectra — the paired join's naive oracle.
pub(crate) fn pair_spectrum_distance(
    lt: &Transform,
    rt: &Transform,
    x: &SeqFeatures,
    y: &SeqFeatures,
) -> f64 {
    let tx = lt.apply_spectrum(&x.spectrum);
    let ty = rt.apply_spectrum(&y.spectrum);
    tx.iter()
        .zip(&ty)
        .map(|(a, b)| (*a - *b).norm_sqr())
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use crate::query::FilterPolicy;
    use tseries::{Corpus, CorpusKind};

    fn setup(n: usize) -> SeqIndex {
        let c = Corpus::generate(CorpusKind::StockCloses, n, 128, 31);
        SeqIndex::build(&c, IndexConfig::default()).unwrap()
    }

    #[test]
    fn all_three_join_algorithms_agree_under_safe_policy() {
        let idx = setup(60);
        let family = Family::moving_averages(5..=12, 128);
        let spec = RangeSpec::correlation(0.90).with_policy(FilterPolicy::Safe);
        let scan = scan_join(&idx, &family, &spec).unwrap();
        let st = st_join(&idx, &family, &spec).unwrap();
        let mt = mt_join(&idx, &family, &spec).unwrap();
        assert_eq!(scan.sorted_triples(), st.sorted_triples());
        assert_eq!(scan.sorted_triples(), mt.sorted_triples());
        assert!(
            !scan.matches.is_empty(),
            "sector-correlated corpus should produce pairs"
        );
    }

    #[test]
    fn mt_join_uses_fewer_node_accesses_than_st() {
        let idx = setup(80);
        let family = Family::moving_averages(5..=24, 128);
        let spec = RangeSpec::correlation(0.99);
        let st = st_join(&idx, &family, &spec).unwrap();
        let mt = mt_join(&idx, &family, &spec).unwrap();
        assert!(
            mt.metrics.node_accesses < st.metrics.node_accesses / 2,
            "MT {} vs ST {}",
            mt.metrics.node_accesses,
            st.metrics.node_accesses
        );
    }

    #[test]
    fn paired_join_matches_nested_loop_and_finds_hedges() {
        let idx = setup(50);
        let base = Family::moving_averages(5..=9, 128);
        let inv = Transform::inversion(128);
        let left = Family::new(
            "inv∘mv",
            base.transforms().iter().map(|t| inv.compose(t)).collect(),
        );
        let spec = RangeSpec::correlation(0.90).with_policy(FilterPolicy::Safe);
        let mt = mt_join_paired(&idx, &left, &base, &spec).unwrap();
        let scan = scan_join_paired(&idx, &left, &base, &spec).unwrap();
        assert_eq!(mt.sorted_triples(), scan.sorted_triples());
        // Every reported pair is genuinely anti-correlated after smoothing.
        let features = |i| SeqFeatures::extract(&idx.fetch_series(i).unwrap()).unwrap();
        for m in mt.matches.iter().take(10) {
            let (a, b) = (features(m.seq_a), features(m.seq_b));
            // Symmetric smoothing distance should be LARGE (they move
            // oppositely), while the paired (inverted) distance is small.
            let t = &base.transforms()[m.transform];
            assert!(t.transformed_distance(&a, &b) > m.dist);
        }
    }

    #[test]
    fn pairs_are_canonical_and_unique() {
        let idx = setup(40);
        let family = Family::moving_averages(5..=9, 128);
        let spec = RangeSpec::correlation(0.95).with_policy(FilterPolicy::Safe);
        let r = mt_join(&idx, &family, &spec).unwrap();
        for m in &r.matches {
            assert!(m.seq_a < m.seq_b);
        }
        let mut t = r.sorted_triples();
        let before = t.len();
        t.dedup();
        assert_eq!(t.len(), before, "duplicate (pair, transform) triples");
    }
}
