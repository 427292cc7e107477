//! Transformation MBRs and the rectangle algebra of §4.1 (Eq. 12).
//!
//! A transformation `t = (a, b)` is a point in a `2·DIMS`-dimensional
//! space. A *set* of transformations is bounded by a rectangle there, which
//! decomposes into a `mult-MBR` (bounding the `a` parts) and an `add-MBR`
//! (bounding the `b` parts). Applying the pair to a data rectangle `X`
//! yields the rectangle `Y` of Eq. 12:
//!
//! ```text
//! Y_i^lo = A_i^lo + min(M_i^lo·X_i^lo, M_i^lo·X_i^hi, M_i^hi·X_i^lo, M_i^hi·X_i^hi)
//! Y_i^hi = A_i^hi + max(  …same four products… )
//! ```
//!
//! Lemma 1 (proved in §4.2 and property-tested here): for every `t` inside
//! the MBR and every point `x ∈ X`, `t(x) ∈ Y` — so intersection tests
//! against `Y` never dismiss a qualifying sequence.

use crate::feature::{FRect, FeatureVec, DIMS};
use crate::transform::Family;
use rstartree::Rect;

/// The MBR of a set of transformations, pre-split into its multiplicative
/// and additive halves.
#[derive(Clone, Debug, PartialEq)]
pub struct TransformMbr {
    /// Bounds on the multiplicative parts `a`.
    pub mult_lo: FeatureVec,
    /// Upper bounds on `a`.
    pub mult_hi: FeatureVec,
    /// Bounds on the additive parts `b`.
    pub add_lo: FeatureVec,
    /// Upper bounds on `b`.
    pub add_hi: FeatureVec,
    /// Indices (into the originating [`Family`]) of the member
    /// transformations — the `NT(r)` set of the cost model.
    pub members: Vec<usize>,
}

impl TransformMbr {
    /// Bounds the given members of a family.
    ///
    /// # Panics
    ///
    /// Panics when `members` is empty or out of range.
    pub fn of(family: &Family, members: Vec<usize>) -> Self {
        assert!(
            !members.is_empty(),
            "a transformation MBR needs at least one member"
        );
        let mut mult_lo = [f64::INFINITY; DIMS];
        let mut mult_hi = [f64::NEG_INFINITY; DIMS];
        let mut add_lo = [f64::INFINITY; DIMS];
        let mut add_hi = [f64::NEG_INFINITY; DIMS];
        for &idx in &members {
            let t = &family.transforms()[idx];
            for i in 0..DIMS {
                mult_lo[i] = mult_lo[i].min(t.feat_a()[i]);
                mult_hi[i] = mult_hi[i].max(t.feat_a()[i]);
                add_lo[i] = add_lo[i].min(t.feat_b()[i]);
                add_hi[i] = add_hi[i].max(t.feat_b()[i]);
            }
        }
        Self {
            mult_lo,
            mult_hi,
            add_lo,
            add_hi,
            members,
        }
    }

    /// Bounds the whole family in one rectangle (the default MT-index
    /// configuration of §5.1).
    pub fn of_family(family: &Family) -> Self {
        Self::of(family, (0..family.len()).collect())
    }

    /// One rectangle per member: the ST-index end of §4.3's partitioning
    /// axis (`k = |T|`, `NT(rᵢ) = 1`).
    pub fn singletons(family: &Family) -> Vec<Self> {
        (0..family.len())
            .map(|i| Self::of(family, vec![i]))
            .collect()
    }

    /// The smallest rectangle containing every one of `mbrs`, with their
    /// members in order — `Self::of` over those members, to the bit, for
    /// rectangles `Self::of` built, and a true bound for any others.
    ///
    /// # Panics
    ///
    /// Panics when `mbrs` is empty.
    pub fn hull(mbrs: &[Self]) -> Self {
        let (first, rest) = mbrs.split_first().expect("a hull of no rectangles");
        rest.iter().fold(first.clone(), |mut h, m| {
            for i in 0..DIMS {
                h.mult_lo[i] = h.mult_lo[i].min(m.mult_lo[i]);
                h.mult_hi[i] = h.mult_hi[i].max(m.mult_hi[i]);
                h.add_lo[i] = h.add_lo[i].min(m.add_lo[i]);
                h.add_hi[i] = h.add_hi[i].max(m.add_hi[i]);
            }
            h.members.extend_from_slice(&m.members);
            h
        })
    }

    /// `NT(r)` — the number of transformations inside this rectangle.
    pub fn nt(&self) -> usize {
        self.members.len()
    }

    /// Eq. 12 in dimension `i` alone: the interval `[x_lo, x_hi]` under
    /// every `(a, b)` of the rectangle's `i`-th side. [`Self::apply_to_rect`]
    /// is this in every dimension. The bound filter
    /// ([`crate::query::RectFilter`]) evaluates it only in the dimensions
    /// its tests look at, and drops the products that repeat another — the
    /// second and fourth for a point (`x_lo`, `x_hi` one `f64`), the third
    /// and fourth for one multiplier (`mult_lo`, `mult_hi` one `f64`) —
    /// which leaves both folds, and so the interval, unchanged to the bit.
    pub fn apply_to_dim(&self, i: usize, x_lo: f64, x_hi: f64) -> (f64, f64) {
        let products = [
            self.mult_lo[i] * x_lo,
            self.mult_lo[i] * x_hi,
            self.mult_hi[i] * x_lo,
            self.mult_hi[i] * x_hi,
        ];
        (
            self.add_lo[i] + products.iter().copied().fold(f64::INFINITY, f64::min),
            self.add_hi[i] + products.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    }

    /// Eq. 12 — applies the transformation rectangle to a data rectangle.
    pub fn apply_to_rect(&self, x: &FRect) -> FRect {
        let mut lo = [0.0; DIMS];
        let mut hi = [0.0; DIMS];
        for i in 0..DIMS {
            (lo[i], hi[i]) = self.apply_to_dim(i, x.lo[i], x.hi[i]);
        }
        Rect { lo, hi }
    }

    /// Applies the transformation rectangle to a point — the MBR of
    /// `{t(p) : t inside}` (used to bound the transformed query point).
    pub fn apply_to_point(&self, p: &FeatureVec) -> FRect {
        self.apply_to_rect(&Rect::point(*p))
    }

    /// The area of the mult-/add-rectangle pair, summed — a rough size
    /// proxy used by partitioning heuristics.
    pub fn extent(&self) -> f64 {
        (0..DIMS)
            .map(|i| (self.mult_hi[i] - self.mult_lo[i]) + (self.add_hi[i] - self.add_lo[i]))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mv_family(n: usize) -> Family {
        Family::moving_averages(1..=(40.min(n / 2)), n)
    }

    #[test]
    fn fig3_shape_mult_line_at_one_add_line_at_zero() {
        // Figure 3: for moving averages, the *angle* dimension has a ≡ 1
        // (mult-MBR is a horizontal line at 1) and the *magnitude*
        // dimension has b ≡ 0 (add-MBR is a vertical line at 0).
        let fam = mv_family(128);
        let mbr = TransformMbr::of_family(&fam);
        // dim 2 = |F1| (magnitude): additive part degenerate at 0.
        assert_eq!(mbr.add_lo[2], 0.0);
        assert_eq!(mbr.add_hi[2], 0.0);
        // dim 3 = ∠F1 (angle): multiplicative part degenerate at 1.
        assert_eq!(mbr.mult_lo[3], 1.0);
        assert_eq!(mbr.mult_hi[3], 1.0);
        // Magnitude multipliers span (0, 1]: mv1 is the identity (a = 1),
        // longer windows shrink the low-frequency magnitude.
        assert!(mbr.mult_hi[2] <= 1.0 + 1e-12);
        assert!(mbr.mult_lo[2] > 0.0);
        assert!(mbr.mult_lo[2] < mbr.mult_hi[2]);
        // Angle addends are ≤ 0 and spread (the phase lag of the window).
        assert!(mbr.add_lo[3] < 0.0);
        assert!(mbr.add_hi[3] <= 1e-12);
    }

    #[test]
    fn fig4_worked_example() {
        // A data rectangle transformed per Eq. 12, checked by hand:
        // dims 2 (magnitude): M = [0.85, 1], A = [0, 0], X = [7, 17]
        //   → Y = [0.85·7, 1·17] = [5.95, 17]
        // dims 3 (angle): M = [1, 1], A = [−0.96, 0], X = [1, 3]
        //   → Y = [1·1 − 0.96, 1·3 + 0] = [0.04, 3]
        let mut mbr = TransformMbr {
            mult_lo: [1.0; DIMS],
            mult_hi: [1.0; DIMS],
            add_lo: [0.0; DIMS],
            add_hi: [0.0; DIMS],
            members: vec![0],
        };
        mbr.mult_lo[2] = 0.85;
        mbr.mult_hi[2] = 1.0;
        mbr.add_lo[3] = -0.96;
        mbr.add_hi[3] = 0.0;
        let mut lo = [0.0; DIMS];
        let mut hi = [0.0; DIMS];
        lo[2] = 7.0;
        hi[2] = 17.0;
        lo[3] = 1.0;
        hi[3] = 3.0;
        let y = mbr.apply_to_rect(&Rect { lo, hi });
        assert!((y.lo[2] - 5.95).abs() < 1e-12);
        assert!((y.hi[2] - 17.0).abs() < 1e-12);
        assert!((y.lo[3] - 0.04).abs() < 1e-12);
        assert!((y.hi[3] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_member_mbr_is_exact_on_points() {
        let fam = mv_family(64);
        let mbr = TransformMbr::of(&fam, vec![8]);
        let t = &fam.transforms()[8];
        let p: FeatureVec = [3.0, 1.5, 0.8, -0.4, 0.3, 2.0];
        let rect = mbr.apply_to_point(&p);
        let tp = t.apply_point(&p);
        for (i, v) in tp.iter().enumerate() {
            assert!((rect.lo[i] - v).abs() < 1e-12);
            assert!((rect.hi[i] - v).abs() < 1e-12);
        }
    }

    #[test]
    fn lemma1_containment_for_mv_family() {
        // Every member's action on every corner/point of X lands inside Y.
        let fam = mv_family(32);
        let mbr = TransformMbr::of_family(&fam);
        let x = {
            let mut lo = [-2.0; DIMS];
            let mut hi = [3.0; DIMS];
            lo[1] = 0.5; // std is positive
            hi[1] = 2.0;
            Rect { lo, hi }
        };
        let y = mbr.apply_to_rect(&x);
        for t in fam.transforms() {
            for corner_mask in 0..(1 << DIMS) {
                let mut p = [0.0; DIMS];
                for (i, slot) in p.iter_mut().enumerate() {
                    *slot = if corner_mask & (1 << i) != 0 {
                        x.hi[i]
                    } else {
                        x.lo[i]
                    };
                }
                let tp = t.apply_point(&p);
                assert!(
                    y.contains_point(&tp),
                    "t = {} escapes: {tp:?} not in {y:?}",
                    t.label()
                );
            }
        }
    }

    #[test]
    fn extent_shrinks_with_fewer_members() {
        let fam = mv_family(64);
        let all = TransformMbr::of_family(&fam);
        let half = TransformMbr::of(&fam, (0..20).collect());
        let one = TransformMbr::of(&fam, vec![5]);
        assert!(one.extent() <= half.extent());
        assert!(half.extent() <= all.extent());
        assert_eq!(one.extent(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_members_rejected() {
        TransformMbr::of(&mv_family(16), vec![]);
    }

    /// Lemma 1, property form: random transforms in a random family
    /// subset, random data rectangles, random interior points — the
    /// transformed point is always inside the transformed rectangle.
    #[test]
    fn lemma1_random() {
        let mut rng = tseries::rng::SeededRng::seed_from_u64(0x7310);
        let fam = Family::moving_averages(1..=16, 32);
        for _case in 0..48 {
            let members: Vec<usize> = {
                let mut m: Vec<usize> = (0..rng.random_range(1usize..8))
                    .map(|_| rng.random_range(0usize..16))
                    .collect();
                m.sort_unstable();
                m.dedup();
                m
            };
            let mbr = TransformMbr::of(&fam, members.clone());
            let mut lo = [0.0; DIMS];
            let mut hi = [0.0; DIMS];
            let mut p = [0.0; DIMS];
            for i in 0..DIMS {
                lo[i] = rng.random_range(-10f64..10.0);
                let ext = rng.random_range(0f64..5.0);
                hi[i] = lo[i] + ext;
                p[i] = lo[i] + rng.random_range(0f64..=1.0) * ext;
            }
            let x = Rect { lo, hi };
            let y = mbr.apply_to_rect(&x);
            for &m in &members {
                let tp = fam.transforms()[m].apply_point(&p);
                for (i, v) in tp.iter().enumerate() {
                    assert!(
                        y.lo[i] - 1e-9 <= *v && *v <= y.hi[i] + 1e-9,
                        "dim {i}: {v} not in [{}, {}]",
                        y.lo[i],
                        y.hi[i]
                    );
                }
            }
        }
    }
}
