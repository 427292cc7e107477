//! The three query-processing algorithms of §4–§5 plus joins and k-NN.
//!
//! | module | paper name | index traversals | comparisons |
//! |--------|-----------|------------------|-------------|
//! | [`seqscan`] | sequential-scan | 0 (full relation scan) | `|S|·|T|` |
//! | [`stindex`] | ST-index | `|T|` (one singleton rectangle each) | `Σ_t cands(t)` |
//! | [`mtindex`] | MT-index (Algorithm 1) | `k` (number of MBRs) | `Σ_r cands(r)·NT(r)` |
//!
//! The two index rows are one executor: ST-index is MT-index over the
//! singleton partitioning (`k = |T|`, `NT(rᵢ) = 1`), because Eq. 12 over a
//! one-member rectangle reduces to the member's own `apply_rect`. The
//! traverse → fetch → verify loop lives once, in
//! [`mtindex::range_query_features`] (and [`join::mt_join_with_mbrs`] for
//! Query 2); [`seqscan`] stays apart as the oracle the suites compare
//! against.
//!
//! All three return identical result sets (property-tested under
//! [`FilterPolicy::Safe`](crate::query::FilterPolicy)); they differ only in
//! cost, which is the paper's entire point.

pub mod join;
pub mod knn;
pub mod mtindex;
pub mod seqscan;
pub mod stindex;

use crate::feature::SeqFeatures;
use crate::ordering::OrderedFamily;
use crate::query::QueryMode;
use crate::report::{Match, QueryError};
use crate::transform::{Family, Transform};

/// Validates that a family targets the indexed sequence length.
pub(crate) fn check_family(family: &Family, indexed_len: usize) -> Result<(), QueryError> {
    let fam_len = family.transforms()[0].seq_len();
    if fam_len != indexed_len {
        return Err(QueryError::FamilyLengthMismatch {
            family: fam_len,
            indexed: indexed_len,
        });
    }
    Ok(())
}

/// How candidate verification walks the member transformations.
#[derive(Clone, Copy)]
pub(crate) enum VerifyMode<'a> {
    /// Try every member (the general case — moving averages are provably
    /// unordered, Lemmas 3–4).
    Exhaustive,
    /// Binary-search an ordered family (§4.4): `log|T|` comparisons find
    /// the maximal qualifying member; everything below it qualifies.
    Ordered(&'a OrderedFamily),
}

/// A per-query cache of fetched candidate features.
///
/// Within one query the same sequence may surface as a candidate many times
/// (once per ST traversal / per transformation rectangle / per join pair);
/// any real system's buffer manager serves the repeats from memory. The
/// cache fetches each distinct candidate once and counts every *touch* —
/// the logical access count the paper's figures report.
pub(crate) struct CandidateCache<'a> {
    index: &'a crate::index::SeqIndex,
    cache: std::collections::HashMap<usize, std::rc::Rc<SeqFeatures>>,
    /// Logical record touches (≥ distinct fetches).
    pub touches: u64,
}

impl<'a> CandidateCache<'a> {
    pub fn new(index: &'a crate::index::SeqIndex) -> Self {
        Self {
            index,
            cache: std::collections::HashMap::new(),
            touches: 0,
        }
    }

    pub fn get(&mut self, seq: usize) -> Result<std::rc::Rc<SeqFeatures>, pagestore::PageError> {
        self.touches += 1;
        if let Some(f) = self.cache.get(&seq) {
            return Ok(std::rc::Rc::clone(f));
        }
        let f = std::rc::Rc::new(self.index.fetch(seq)?);
        self.cache.insert(seq, std::rc::Rc::clone(&f));
        Ok(f)
    }
}

/// The distance of one candidate/query pair under one transformation,
/// respecting the query mode.
pub(crate) fn pair_distance(
    t: &Transform,
    x: &SeqFeatures,
    q: &SeqFeatures,
    mode: QueryMode,
) -> f64 {
    match mode {
        QueryMode::Symmetric => t.transformed_distance(x, q),
        QueryMode::DataOnly => t.distance_data_only(x, q),
    }
}

/// Algorithm 1 step 5: apply member transformations to a candidate and keep
/// those within ε. `members` are indices into `family`; every distance
/// computation increments `comparisons`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn verify_candidate(
    family: &Family,
    members: &[usize],
    mode: VerifyMode<'_>,
    query_mode: QueryMode,
    seq: usize,
    x: &SeqFeatures,
    q: &SeqFeatures,
    eps: f64,
    comparisons: &mut u64,
    out: &mut Vec<Match>,
) {
    match mode {
        VerifyMode::Exhaustive => {
            for &ti in members {
                let d = pair_distance(&family.transforms()[ti], x, q, query_mode);
                *comparisons += 1;
                if d < eps {
                    out.push(Match {
                        seq,
                        transform: ti,
                        dist: d,
                    });
                }
            }
        }
        VerifyMode::Ordered(ordered) => {
            // Orderings (Definition 1) are stated for symmetric
            // application; binary search is only sound there.
            assert_eq!(
                query_mode,
                QueryMode::Symmetric,
                "ordered verification requires symmetric queries"
            );
            // The members of an MBR over an ordered family are contiguous
            // ranks; binary-search the maximal qualifying rank, then emit
            // every member at or below it (their distances are computed for
            // the report but NOT counted — the decision needed only
            // log|T| comparisons, matching §4.4's accounting).
            let Some(max_rank) = ordered.max_qualifying_in(members, x, q, eps, comparisons) else {
                return;
            };
            for &ti in members {
                if ti <= max_rank {
                    let d = family.transforms()[ti].transformed_distance(x, q);
                    if d < eps {
                        out.push(Match {
                            seq,
                            transform: ti,
                            dist: d,
                        });
                    }
                }
            }
        }
    }
}
