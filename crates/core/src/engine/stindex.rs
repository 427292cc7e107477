//! ST-index — *a Single Transformation at a time* (§4).
//!
//! For every `t ∈ T`, apply `t` to the index (every rectangle met during
//! the descent is transformed through `a⊙x + b`) and run a range search
//! around `t(q)`; the union over `t` is the answer. Costs `|T|` traversals.
//!
//! That is MT-index over the *singleton* partitioning (`k = |T|`,
//! `NT(rᵢ) = 1`, the left end of Fig. 8's axis), so [`range_query`] runs
//! the one driver in [`mtindex`] — which reports the `|T|` traversals the
//! paper counts while reading each node once per 64 members. The identity is exact: a singleton has
//! `mult_lo = mult_hi = a` and `add_lo = add_hi = b`, so Eq. 12 yields
//! `b + min(a·lo, a·hi)` — `Transform::apply_rect`'s `min(a·lo + b,
//! a·hi + b)`, because rounding is monotone
//! (`proptests::singleton_mbr_is_the_transform` pins it bit for bit).

use crate::engine::mtindex;
use crate::index::SeqIndex;
use crate::ordering::OrderedFamily;
use crate::query::RangeSpec;
use crate::report::{QueryError, QueryResult};
use crate::tmbr::TransformMbr;
use crate::transform::Family;
use tseries::TimeSeries;

/// Query 1 by ST-index: one traversal per member transformation.
pub fn range_query(
    index: &SeqIndex,
    query: &TimeSeries,
    family: &Family,
    spec: &RangeSpec,
) -> Result<QueryResult, QueryError> {
    let singletons = TransformMbr::singletons(family);
    let (result, _) =
        mtindex::range_query_with_mbrs(index, query, family, spec, &singletons, None)?;
    Ok(result)
}

/// ST-index over an *ordered* family (§4.4, refined): since qualifying
/// members form a per-sequence prefix, a **single** traversal with the
/// minimal transformation retrieves a superset of every member's answers;
/// each candidate is then binary-searched for its maximal qualifying rank.
/// That is [`mtindex::range_query_with_mbrs`] over one rectangle with the
/// minimal member's bounds — Eq. 12 over it is `t0` itself, bit for bit
/// (see the module docs) — and every rank as its members.
pub fn range_query_ordered(
    index: &SeqIndex,
    query: &TimeSeries,
    ordered: &OrderedFamily,
    spec: &RangeSpec,
) -> Result<QueryResult, QueryError> {
    let family = ordered.family();
    let t0 = TransformMbr {
        members: (0..family.len()).collect(),
        ..TransformMbr::of(family, vec![0])
    };
    let (result, _) =
        mtindex::range_query_with_mbrs(index, query, family, spec, &[t0], Some(ordered))?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::seqscan;
    use crate::index::IndexConfig;
    use crate::query::FilterPolicy;
    use tseries::{Corpus, CorpusKind};

    fn setup(n: usize) -> (Corpus, SeqIndex) {
        let c = Corpus::generate(CorpusKind::SyntheticWalks, n, 128, 23);
        let idx = SeqIndex::build(&c, IndexConfig::default()).unwrap();
        (c, idx)
    }

    #[test]
    fn safe_policy_matches_sequential_scan() {
        let (c, idx) = setup(120);
        let family = Family::moving_averages(10..=17, 128);
        let spec = RangeSpec::correlation(0.96).with_policy(FilterPolicy::Safe);
        for qi in [0usize, 31, 77] {
            let a = seqscan::range_query(&idx, &c.series()[qi], &family, &spec).unwrap();
            let b = range_query(&idx, &c.series()[qi], &family, &spec).unwrap();
            assert_eq!(a.sorted_pairs(), b.sorted_pairs(), "query {qi}");
        }
    }

    #[test]
    fn traversal_count_scales_with_family() {
        let (c, idx) = setup(300);
        let spec = RangeSpec::correlation(0.96);
        let small = Family::moving_averages(10..=11, 128);
        let large = Family::moving_averages(10..=25, 128);
        let q = &c.series()[0];
        let a = range_query(&idx, q, &small, &spec).unwrap();
        let b = range_query(&idx, q, &large, &spec).unwrap();
        // 16 traversals vs 2: node accesses should grow accordingly.
        assert!(
            b.metrics.node_accesses >= 4 * a.metrics.node_accesses,
            "{} vs {}",
            b.metrics.node_accesses,
            a.metrics.node_accesses
        );
    }

    #[test]
    fn ordered_variant_equals_general_variant() {
        let (c, idx) = setup(100);
        let factors: Vec<f64> = (1..=8).map(|k| 0.5 + k as f64 * 0.25).collect();
        let ordered = OrderedFamily::scalings(&factors, 128);
        let spec = RangeSpec::euclidean(6.0).with_policy(FilterPolicy::Safe);
        let q = &c.series()[9];
        let a = range_query(&idx, q, ordered.family(), &spec).unwrap();
        let b = range_query_ordered(&idx, q, &ordered, &spec).unwrap();
        assert_eq!(a.sorted_pairs(), b.sorted_pairs());
        assert!(b.metrics.node_accesses < a.metrics.node_accesses);
    }
}
