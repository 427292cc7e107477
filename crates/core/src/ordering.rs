//! Transformation orderings (§4.4, Definition 1) and the binary-search
//! shortcut they enable.
//!
//! `⟨T, ⪯⟩` is an ordering when `t_l ⪯ t_k ⟹ D(t_l(v_i), t_l(v_j)) ≤
//! D(t_k(v_i), t_k(v_j))` for all values. Scale factors under `<` are
//! ordered (Lemma 2); moving averages are **not** (Lemmas 3–4 — their
//! counterexamples are reproduced in `tseries::ops::tests`). When an
//! ordering holds, the qualifying members for any pair form a prefix of the
//! family, so a binary search with `⌈log₂|T|⌉` distance computations
//! replaces the `|T|`-comparison exhaustive pass.

use crate::feature::SeqFeatures;
use crate::transform::{Family, Transform};

/// A family whose members are sorted ascending w.r.t. Definition 1.
#[derive(Clone, Debug)]
pub struct OrderedFamily {
    family: Family,
}

impl OrderedFamily {
    /// Scale factors sorted ascending — ordered by Lemma 2.
    ///
    /// # Panics
    ///
    /// Panics when the factors are not positive-ascending (negative factors
    /// break the lemma's proof).
    pub fn scalings(factors: &[f64], n: usize) -> Self {
        assert!(
            factors.windows(2).all(|w| w[0] < w[1]) && factors.first().is_some_and(|f| *f > 0.0),
            "scale factors must be positive and strictly ascending"
        );
        Self {
            family: Family::scalings(factors, n),
        }
    }

    /// Asserts (without proof) that `family` is ordered ascending. Use
    /// [`Self::check_on`] to spot-check the claim on sample data; a wrong
    /// assertion silently loses matches.
    pub fn assume_ordered(family: Family) -> Self {
        Self { family }
    }

    /// The underlying family.
    pub fn family(&self) -> &Family {
        &self.family
    }

    /// Empirically validates the ordering on sample pairs: returns the
    /// first violating `(pair, rank)` found, or `None` when consistent.
    pub fn check_on(&self, samples: &[(SeqFeatures, SeqFeatures)]) -> Option<(usize, usize)> {
        for (pi, (x, q)) in samples.iter().enumerate() {
            let mut prev = f64::NEG_INFINITY;
            for (rank, t) in self.family.transforms().iter().enumerate() {
                let d = t.transformed_distance(x, q);
                if d + 1e-9 < prev {
                    return Some((pi, rank));
                }
                prev = prev.max(d);
            }
        }
        None
    }

    /// Binary search over the whole family: the maximal rank whose
    /// transformation keeps `dist(rank) < ε`, or `None` when even the
    /// first member fails. `dist(rank)` is one pair's `D(t(x), t(q))` under
    /// member `rank`, however the caller computes it. Increments
    /// `comparisons` once per distance computed (`≤ ⌈log₂|T|⌉ + 1`).
    pub fn max_qualifying(
        &self,
        dist: impl FnMut(usize) -> f64,
        eps: f64,
        comparisons: &mut u64,
    ) -> Option<usize> {
        let ranks: Vec<usize> = (0..self.family.len()).collect();
        self.max_qualifying_in(&ranks, dist, eps, comparisons)
    }

    /// Binary search restricted to an ascending subset of ranks (an MBR's
    /// members).
    pub fn max_qualifying_in(
        &self,
        ranks: &[usize],
        mut dist: impl FnMut(usize) -> f64,
        eps: f64,
        comparisons: &mut u64,
    ) -> Option<usize> {
        debug_assert!(ranks.windows(2).all(|w| w[0] < w[1]), "ranks must ascend");
        // Invariant: everything below `lo` qualifies, everything at or
        // above `hi` fails.
        let (mut lo, mut hi) = (0usize, ranks.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            *comparisons += 1;
            if dist(ranks[mid]) < eps {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo.checked_sub(1).map(|i| ranks[i])
    }
}

/// Convenience: the distances of every member for a pair — used by tests
/// and by ordering diagnostics.
pub fn member_distances(family: &Family, x: &SeqFeatures, q: &SeqFeatures) -> Vec<f64> {
    family
        .transforms()
        .iter()
        .map(|t: &Transform| t.transformed_distance(x, q))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseries::TimeSeries;

    fn feats(seed: f64) -> SeqFeatures {
        let ts: TimeSeries = (0..64)
            .map(|t| (t as f64 * 0.3 + seed).sin() * 3.0 + seed * 0.1)
            .collect();
        SeqFeatures::extract(&ts).unwrap()
    }

    #[test]
    fn scalings_are_ordered_on_samples() {
        let fam = OrderedFamily::scalings(&[1.0, 2.0, 3.0, 5.0, 8.0, 13.0], 64);
        let samples = vec![(feats(0.0), feats(1.0)), (feats(0.3), feats(2.5))];
        assert_eq!(fam.check_on(&samples), None);
    }

    #[test]
    fn moving_averages_fail_the_check() {
        // Lemma 3: no ordering for moving averages. The Appendix
        // counterexample uses specific 4-point sequences; here a descending
        // arrangement (mv distances *decrease* with window for smooth
        // pairs) is caught by check_on against the ascending claim.
        let fam = OrderedFamily::assume_ordered(Family::moving_averages(1..=20, 64));
        let samples = vec![(feats(0.0), feats(0.7))];
        assert!(
            fam.check_on(&samples).is_some(),
            "smoothing shrinks distances, violating the ascending claim"
        );
    }

    #[test]
    fn binary_search_matches_linear_scan() {
        let factors: Vec<f64> = (1..=32).map(|k| k as f64 * 0.25).collect();
        let fam = OrderedFamily::scalings(&factors, 64);
        let (x, q) = (feats(0.1), feats(0.4));
        let base = fam.family().transforms()[0].transformed_distance(&x, &q) / 0.25;
        let dist = |t: usize| fam.family().transforms()[t].transformed_distance(&x, &q);
        for eps_mult in [0.1, 0.6, 1.7, 3.0, 9.0] {
            let eps = base * eps_mult;
            let mut cmp = 0;
            let got = fam.max_qualifying(dist, eps, &mut cmp);
            let want = fam
                .family()
                .transforms()
                .iter()
                .enumerate()
                .filter(|(_, t)| t.transformed_distance(&x, &q) < eps)
                .map(|(i, _)| i)
                .next_back();
            assert_eq!(got, want, "eps_mult = {eps_mult}");
            assert!(cmp <= 6, "log₂ 32 = 5 (+1 slack), used {cmp}");
        }
    }

    #[test]
    fn binary_search_on_subset() {
        let factors: Vec<f64> = (1..=16).map(|k| k as f64).collect();
        let fam = OrderedFamily::scalings(&factors, 64);
        let (x, q) = (feats(0.2), feats(0.9));
        let d1 = fam.family().transforms()[0].transformed_distance(&x, &q);
        let dist = |t: usize| fam.family().transforms()[t].transformed_distance(&x, &q);
        // Subset {4..8}: factors 5..9 → distances 5·d1..9·d1.
        let ranks: Vec<usize> = (4..=8).collect();
        let mut cmp = 0;
        let got = fam.max_qualifying_in(&ranks, dist, 7.5 * d1, &mut cmp);
        assert_eq!(
            got,
            Some(6),
            "factor 7 qualifies (7·d1 < 7.5·d1), factor 8 fails"
        );
        let none = fam.max_qualifying_in(&ranks, dist, d1, &mut cmp);
        assert_eq!(none, None, "even factor 5 exceeds 1·d1");
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_scalings_rejected() {
        OrderedFamily::scalings(&[2.0, 1.0], 16);
    }

    #[test]
    fn member_distances_shape() {
        let fam = Family::moving_averages(1..=5, 64);
        let d = member_distances(&fam, &feats(0.0), &feats(1.0));
        assert_eq!(d.len(), 5);
        assert!(d.iter().all(|v| *v >= 0.0));
    }
}
