//! Query specifications and the index-filter geometry.
//!
//! A range query carries a similarity threshold — either a Euclidean ε or a
//! cross-correlation ρ converted through Eq. 9 — and a [`FilterPolicy`]
//! deciding how search rectangles are built:
//!
//! * **`Paper`** — the paper's setup: a window of half-width `ε/√2` on every
//!   DFT dimension (the √2 comes from the conjugate-symmetry bound, §2.1).
//!   On *angle* dimensions this window is a heuristic: phase differences do
//!   not Euclidean-bound the complex-domain distance when magnitudes are
//!   small. We improve on the original by making the angle comparison
//!   **circular** (wrap-aware), and the experiments verify empirically that
//!   recall stays 100 % on the paper's workloads.
//! * **`Safe`** — provably lossless: magnitude dimensions keep the `ε/√2`
//!   window (a true lower bound via `|r_x − r_q| ≤ |X_f − Q_f|` and the
//!   symmetry factor), angle dimensions are unconstrained. Property tests
//!   assert `MT(Safe) ≡ ST(Safe) ≡ seqscan` exactly.
//!
//! Mean/std dimensions (0, 1) are never constrained by Query 1 — the
//! distance is over *normal forms* — matching §5's setup where those
//! dimensions serve other query types.

use crate::feature::{FRect, FeatureVec, ANGLE_DIMS, DIMS, MAG_DIMS};
use crate::tmbr::TransformMbr;
use tseries::distance_threshold_for_correlation;

/// Which side(s) of the comparison a transformation applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Query 1 verbatim: `D(t(x), t(q)) < ε` — both sides transformed.
    #[default]
    Symmetric,
    /// `D(t(x), q) < ε` — the data side only. Required for alignment
    /// semantics (time shifts, Example 1.2) and hedging (inversion), where
    /// symmetric application is an isometry and changes nothing; also the
    /// literal reading of Algorithm 1's step 2 ("a search rectangle of
    /// width ε around q").
    DataOnly,
}

/// How index-filter rectangles treat the heuristic angle dimensions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FilterPolicy {
    /// The paper's ±ε/√2 window on all DFT dimensions (wrap-aware on
    /// angles). Fast; guaranteed only on magnitude dimensions.
    #[default]
    Paper,
    /// Angle dimensions unconstrained — provably no false dismissals.
    Safe,
    /// This library's extension: a *sound* angle filter. Per coefficient,
    /// `|A−B|² = (r_A−r_B)² + 4·r_A·r_B·sin²(Δθ/2)`, so
    /// `|A−B| ≥ 2·√(r_A·r_B)·|sin(Δθ/2)|`; with the magnitude lower bounds
    /// taken from the rectangles themselves, an angular gap δ prunes
    /// whenever `2·√(r_min·r'_min)·sin(δ/2) > ε/√2`. Never dismisses a
    /// qualifying sequence (unlike `Paper`), prunes wherever magnitudes
    /// are large (unlike `Safe`).
    Adaptive,
}

/// The similarity threshold of a range query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Threshold {
    /// Euclidean distance over transformed normal forms.
    Euclidean(f64),
    /// Cross-correlation over transformed normal forms; converted to a
    /// Euclidean ε through Eq. 9 per sequence length.
    Correlation(f64),
}

/// A range-query specification ("… within distance ε", Query 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RangeSpec {
    /// The similarity threshold.
    pub threshold: Threshold,
    /// The filter policy.
    pub policy: FilterPolicy,
    /// Which side(s) the transformations apply to.
    pub mode: QueryMode,
}

impl RangeSpec {
    /// A Euclidean threshold with the default ([`FilterPolicy::Paper`])
    /// policy.
    pub fn euclidean(eps: f64) -> Self {
        assert!(
            eps >= 0.0 && eps.is_finite(),
            "threshold must be a finite non-negative number"
        );
        Self {
            threshold: Threshold::Euclidean(eps),
            policy: FilterPolicy::default(),
            mode: QueryMode::default(),
        }
    }

    /// A correlation threshold (the experiments fix ρ = 0.96).
    ///
    /// ```
    /// use simquery::query::RangeSpec;
    /// // Eq. 9 at n = 128: ε² = 2(127 − 0.96·128) = 8.24.
    /// let spec = RangeSpec::correlation(0.96);
    /// assert!((spec.epsilon(128).powi(2) - 8.24).abs() < 1e-9);
    /// ```
    pub fn correlation(rho: f64) -> Self {
        assert!(
            (-1.0..=1.0).contains(&rho),
            "correlation must lie in [−1, 1]"
        );
        Self {
            threshold: Threshold::Correlation(rho),
            policy: FilterPolicy::default(),
            mode: QueryMode::default(),
        }
    }

    /// Overrides the filter policy.
    pub fn with_policy(mut self, policy: FilterPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the query mode.
    pub fn with_mode(mut self, mode: QueryMode) -> Self {
        self.mode = mode;
        self
    }

    /// Resolves the Euclidean ε for sequences of length `n`.
    pub fn epsilon(&self, n: usize) -> f64 {
        match self.threshold {
            Threshold::Euclidean(e) => e,
            Threshold::Correlation(rho) => distance_threshold_for_correlation(n, rho),
        }
    }
}

/// Why a `rho`/`eps` argument pair failed to parse — the one validation
/// of the Eq. 9 bridge shared by the CLI (`--rho`/`--eps`) and the wire
/// protocol (`rho=`/`eps=`). Consumers render it with `Display` (possibly
/// prefixed with their own flag spelling).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ThresholdParseError {
    /// Both a correlation and a Euclidean threshold were given.
    Both,
    /// The correlation did not parse as a number.
    BadRho(String),
    /// The correlation lies outside `[-1, 1]` (or is not finite).
    RhoRange,
    /// The distance did not parse as a number.
    BadEps(String),
    /// The distance is negative or not finite.
    EpsRange,
}

impl std::fmt::Display for ThresholdParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Both => write!(f, "give a correlation or a distance threshold, not both"),
            Self::BadRho(raw) => write!(f, "bad correlation threshold `{raw}`"),
            Self::RhoRange => write!(f, "correlation threshold must lie in [-1, 1]"),
            Self::BadEps(raw) => write!(f, "bad distance threshold `{raw}`"),
            Self::EpsRange => write!(f, "distance threshold must be a non-negative number"),
        }
    }
}

impl std::error::Error for ThresholdParseError {}

impl Threshold {
    /// Parses the raw `rho`/`eps` argument pair every front end accepts:
    /// at most one may be given; ρ must lie in `[-1, 1]` (Eq. 9's domain),
    /// ε must be a finite non-negative distance. `Ok(None)` when neither
    /// is present (the caller applies its default).
    pub fn parse_args(
        rho: Option<&str>,
        eps: Option<&str>,
    ) -> Result<Option<Threshold>, ThresholdParseError> {
        match (rho, eps) {
            (Some(_), Some(_)) => Err(ThresholdParseError::Both),
            (Some(raw), None) => {
                let rho: f64 = raw
                    .parse()
                    .map_err(|_| ThresholdParseError::BadRho(raw.to_string()))?;
                if !rho.is_finite() || !(-1.0..=1.0).contains(&rho) {
                    return Err(ThresholdParseError::RhoRange);
                }
                Ok(Some(Threshold::Correlation(rho)))
            }
            (None, Some(raw)) => {
                let eps: f64 = raw
                    .parse()
                    .map_err(|_| ThresholdParseError::BadEps(raw.to_string()))?;
                if !eps.is_finite() || eps < 0.0 {
                    return Err(ThresholdParseError::EpsRange);
                }
                Ok(Some(Threshold::Euclidean(eps)))
            }
            (None, None) => Ok(None),
        }
    }
}

impl RangeSpec {
    /// A spec from an already-validated [`Threshold`] with default policy
    /// and mode (the constructor [`Threshold::parse_args`] feeds).
    pub fn from_threshold(threshold: Threshold) -> Self {
        Self {
            threshold,
            policy: FilterPolicy::default(),
            mode: QueryMode::default(),
        }
    }
}

/// Per-dimension half-widths of the search window for threshold `eps`.
pub fn expansion(eps: f64, policy: FilterPolicy) -> [f64; DIMS] {
    let w = eps / std::f64::consts::SQRT_2; // conjugate-symmetry factor
    let mut e = [f64::INFINITY; DIMS]; // dims 0,1 unconstrained
    for &d in &MAG_DIMS {
        e[d] = w;
    }
    for &d in &ANGLE_DIMS {
        e[d] = match policy {
            FilterPolicy::Paper => w,
            // Adaptive handles angles in `Filter::hit`, not by window.
            FilterPolicy::Safe | FilterPolicy::Adaptive => f64::INFINITY,
        };
    }
    e
}

/// The complete index filter for one query: policy, threshold-derived
/// windows, and the adaptive angle test.
#[derive(Clone, Copy, Debug)]
pub struct Filter {
    expand: [f64; DIMS],
    policy: FilterPolicy,
    /// `ε/√2` — the per-coefficient bound.
    w: f64,
}

impl Filter {
    /// Builds the filter for threshold `eps`.
    pub fn new(eps: f64, policy: FilterPolicy) -> Self {
        Self {
            expand: expansion(eps, policy),
            policy,
            w: eps / std::f64::consts::SQRT_2,
        }
    }

    /// True when a (transformed) data rectangle `a` may contain a point
    /// within ε of some point of the (transformed) query region `b`.
    pub fn hit(&self, a: &FRect, b: &FRect) -> bool {
        if !within(a, b, &self.expand) {
            return false;
        }
        if self.policy != FilterPolicy::Adaptive {
            return true;
        }
        // Adaptive angle test per retained coefficient.
        MAG_DIMS.iter().zip(&ANGLE_DIMS).all(|(&md, &ad)| {
            chord_hit(
                self.w,
                (a.lo[md], a.lo[ad], a.hi[ad]),
                (b.lo[md], b.lo[ad], b.hi[ad]),
            )
        })
    }

    /// Binds the filter to one transformation rectangle and its query
    /// region (steps 1–2 of Algorithm 1), for the per-entry test of steps
    /// 3–4: `bound.hit(x)` is `self.hit(&mbr.apply_to_rect(x), &region)`.
    pub fn bind<'a>(&self, mbr: &'a TransformMbr, region: FRect) -> RectFilter<'a> {
        let windows = (0..DIMS)
            .filter(|&i| !self.expand[i].is_infinite())
            .map(|i| {
                (
                    i,
                    region.lo[i] - self.expand[i],
                    region.hi[i] + self.expand[i],
                )
            })
            .collect();
        RectFilter {
            mbr,
            region,
            windows,
            chord_w: (self.policy == FilterPolicy::Adaptive).then_some(self.w),
        }
    }
}

/// A [`Filter`] bound to one transformation rectangle and query region —
/// what a traversal evaluates on every index rectangle it meets.
///
/// [`Self::hit`] returns exactly `filter.hit(&mbr.apply_to_rect(x),
/// &region)`, computing less: that expression is a conjunction of
/// per-dimension tests, each reading only its own dimension of Eq. 12's
/// output, so the bound form evaluates Eq. 12 one dimension at a time
/// ([`TransformMbr::apply_to_dim`], the arithmetic `apply_to_rect` is
/// made of), in [`Filter::hit`]'s order, and stops at the first failing
/// test. The unconstrained dimensions (mean and std always, the angles
/// unless the policy looks at them) are never computed, and the window
/// ends `region.lo − e`, `region.hi + e` are computed once per rectangle
/// — the same `f64`s [`within`] computes per entry.
#[derive(Clone, Debug)]
pub struct RectFilter<'a> {
    mbr: &'a TransformMbr,
    region: FRect,
    /// `(dimension, region.lo − e, region.hi + e)` per constrained
    /// dimension, ascending.
    windows: Vec<(usize, f64, f64)>,
    /// `ε/√2` when the adaptive angle test applies.
    chord_w: Option<f64>,
}

impl RectFilter<'_> {
    /// True when the data rectangle `x`, transformed by the bound
    /// rectangle, may contain a point within ε of the bound region:
    /// [`Self::hit_windows`], then the adaptive chord test.
    #[inline]
    pub fn hit(&self, x: &FRect) -> bool {
        if !self.hit_windows(x) {
            return false;
        }
        let Some(w) = self.chord_w else {
            return true;
        };
        let dim = |i: usize| self.mbr.apply_to_dim(i, x.lo[i], x.hi[i]);
        let b = &self.region;
        MAG_DIMS.iter().zip(&ANGLE_DIMS).all(|(&md, &ad)| {
            let (angle_lo, angle_hi) = dim(ad);
            chord_hit(
                w,
                (dim(md).0, angle_lo, angle_hi),
                (b.lo[md], b.lo[ad], b.hi[ad]),
            )
        })
    }

    /// The window tests of [`Self::hit`] alone, first failing dimension
    /// first. Every window end and Eq. 12's interval are monotone in the
    /// rectangle's bounds under IEEE rounding, so a filter bound to a
    /// rectangle containing others' ([`TransformMbr::hull`]) passes every
    /// entry any of theirs [`Self::hit`]s — the prefilter of a masked
    /// descent.
    #[inline]
    pub fn hit_windows(&self, x: &FRect) -> bool {
        self.windows.iter().all(|&(i, w_lo, w_hi)| {
            let (lo, hi) = self.mbr.apply_to_dim(i, x.lo[i], x.hi[i]);
            window_hit(i, lo, hi, w_lo, w_hi)
        })
    }
}

/// The adaptive angle test of one coefficient (see
/// [`FilterPolicy::Adaptive`]): each side is `(magnitude lower bound,
/// angle lo, angle hi)`; false when the angular gap between the two angle
/// intervals forces a chord longer than `w = ε/√2` at those magnitudes.
fn chord_hit(w: f64, a: (f64, f64, f64), b: (f64, f64, f64)) -> bool {
    let delta = circular_gap(a.1, a.2, b.1, b.2);
    if delta <= 0.0 {
        return true;
    }
    let r_a = a.0.max(0.0);
    let r_b = b.0.max(0.0);
    let chord = 2.0 * (r_a * r_b).sqrt() * (delta / 2.0).sin();
    // Prune on `>` only: a NaN chord (an infinite magnitude bound against a
    // zero one) proves nothing and keeps the entry.
    let too_far = chord > w;
    !too_far
}

/// Minimal angular distance between two intervals on the 2π circle
/// (0 when they overlap), clamped to `[0, π]`.
pub fn circular_gap(alo: f64, ahi: f64, blo: f64, bhi: f64) -> f64 {
    const TAU: f64 = 2.0 * std::f64::consts::PI;
    debug_assert!(alo <= ahi && blo <= bhi);
    if !(alo.is_finite() && ahi.is_finite() && blo.is_finite() && bhi.is_finite()) {
        return 0.0;
    }
    if (ahi - alo) + (bhi - blo) >= TAU {
        return 0.0;
    }
    let k_min = ((alo - bhi) / TAU).floor() as i64 - 1;
    let k_max = ((ahi - blo) / TAU).ceil() as i64 + 1;
    let mut best = f64::INFINITY;
    for k in k_min..=k_max {
        let s = k as f64 * TAU;
        // Gap between [alo, ahi] and the shifted [blo+s, bhi+s].
        let gap = if alo > bhi + s {
            alo - (bhi + s)
        } else if blo + s > ahi {
            (blo + s) - ahi
        } else {
            0.0
        };
        best = best.min(gap);
    }
    best.min(std::f64::consts::PI)
}

/// True when rectangle `a` comes within `expand` of rectangle `b` in every
/// dimension — i.e. `a` intersects `b` grown by `expand`. Angle dimensions
/// compare circularly (period 2π).
pub fn within(a: &FRect, b: &FRect, expand: &[f64; DIMS]) -> bool {
    expand
        .iter()
        .enumerate()
        .all(|(i, &e)| e.is_infinite() || window_hit(i, a.lo[i], a.hi[i], b.lo[i] - e, b.hi[i] + e))
}

/// One dimension of [`within`]: does `[a_lo, a_hi]` meet the window
/// `[w_lo, w_hi]`? Circular on angle dimensions.
fn window_hit(dim: usize, a_lo: f64, a_hi: f64, w_lo: f64, w_hi: f64) -> bool {
    if ANGLE_DIMS.contains(&dim) {
        circular_overlap(a_lo, a_hi, w_lo, w_hi)
    } else {
        a_lo <= w_hi && w_lo <= a_hi
    }
}

/// Interval overlap on the circle of circumference 2π.
pub fn circular_overlap(alo: f64, ahi: f64, blo: f64, bhi: f64) -> bool {
    const TAU: f64 = 2.0 * std::f64::consts::PI;
    debug_assert!(alo <= ahi && blo <= bhi);
    if !(alo.is_finite() && ahi.is_finite() && blo.is_finite() && bhi.is_finite()) {
        return true;
    }
    if (ahi - alo) + (bhi - blo) >= TAU {
        return true;
    }
    let k_min = ((alo - bhi) / TAU).floor() as i64;
    let k_max = ((ahi - blo) / TAU).ceil() as i64;
    (k_min..=k_max).any(|k| {
        let s = k as f64 * TAU;
        alo <= bhi + s && blo + s <= ahi
    })
}

/// The MT-index query region: the MBR of `{r(q)}` for the transformation
/// rectangle `r` under [`QueryMode::Symmetric`], or `q` itself under
/// [`QueryMode::DataOnly`] (filters then test
/// `within(transformed-data-rect, region, expansion)`).
pub fn mt_query_region(mbr: &TransformMbr, q: &FeatureVec, mode: QueryMode) -> FRect {
    match mode {
        QueryMode::Symmetric => mbr.apply_to_point(q),
        QueryMode::DataOnly => rstartree::Rect::point(*q),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstartree::Rect;

    #[test]
    fn threshold_resolution() {
        let spec = RangeSpec::euclidean(2.5);
        assert_eq!(spec.epsilon(128), 2.5);
        let spec = RangeSpec::correlation(0.96);
        assert!((spec.epsilon(128).powi(2) - 8.24).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "correlation")]
    fn bad_correlation_rejected() {
        RangeSpec::correlation(1.5);
    }

    #[test]
    fn threshold_args_parse_and_validate() {
        use ThresholdParseError as E;
        assert_eq!(Threshold::parse_args(None, None), Ok(None));
        assert_eq!(
            Threshold::parse_args(Some("0.9"), None),
            Ok(Some(Threshold::Correlation(0.9)))
        );
        assert_eq!(
            Threshold::parse_args(None, Some("2.5")),
            Ok(Some(Threshold::Euclidean(2.5)))
        );
        assert_eq!(Threshold::parse_args(Some("0.9"), Some("1")), Err(E::Both));
        assert_eq!(
            Threshold::parse_args(Some("abc"), None),
            Err(E::BadRho("abc".into()))
        );
        assert_eq!(Threshold::parse_args(Some("1.5"), None), Err(E::RhoRange));
        assert_eq!(Threshold::parse_args(Some("-1.5"), None), Err(E::RhoRange));
        assert_eq!(Threshold::parse_args(Some("nan"), None), Err(E::RhoRange));
        assert_eq!(
            Threshold::parse_args(None, Some("x")),
            Err(E::BadEps("x".into()))
        );
        assert_eq!(Threshold::parse_args(None, Some("-3")), Err(E::EpsRange));
        assert_eq!(Threshold::parse_args(None, Some("inf")), Err(E::EpsRange));
        // The validated threshold builds a spec without re-asserting.
        let spec = RangeSpec::from_threshold(Threshold::Correlation(0.9));
        assert_eq!(spec.threshold, Threshold::Correlation(0.9));
        assert_eq!(spec.policy, FilterPolicy::default());
    }

    #[test]
    fn expansion_layout() {
        let e = expansion(2.0, FilterPolicy::Paper);
        assert!(e[0].is_infinite() && e[1].is_infinite());
        let w = 2.0 / std::f64::consts::SQRT_2;
        assert_eq!(e[2], w);
        assert_eq!(e[3], w);
        let e = expansion(2.0, FilterPolicy::Safe);
        assert_eq!(e[2], w);
        assert!(e[3].is_infinite() && e[5].is_infinite());
    }

    #[test]
    fn within_respects_expansion() {
        let mut alo = [0.0; DIMS];
        let mut ahi = [0.0; DIMS];
        alo[2] = 5.0;
        ahi[2] = 6.0;
        let a = Rect { lo: alo, hi: ahi };
        let b = Rect::point([0.0; DIMS]); // magnitude 0 at dim 2
        let mut e = [f64::INFINITY; DIMS];
        e[2] = 4.0;
        assert!(!within(&a, &b, &e), "gap 5 > 4");
        e[2] = 5.0;
        assert!(within(&a, &b, &e), "gap 5 ≤ 5");
    }

    #[test]
    fn circular_overlap_wraps() {
        use std::f64::consts::PI;
        // Intervals near +π and −π overlap through the wrap.
        assert!(circular_overlap(PI - 0.1, PI, -PI, -PI + 0.1 - 0.05));
        // Disjoint quarter-circle intervals do not.
        assert!(!circular_overlap(0.0, 0.5, 2.0, 2.5));
        // Wide intervals always overlap.
        assert!(circular_overlap(-PI, PI, 100.0, 100.1));
        // Offsets of 2π are identical angles.
        assert!(circular_overlap(0.0, 0.1, 2.0 * PI - 0.05, 2.0 * PI + 0.05));
    }

    #[test]
    fn within_is_circular_on_angle_dims() {
        use std::f64::consts::PI;
        let mut alo = [0.0; DIMS];
        let mut ahi = [0.0; DIMS];
        alo[3] = PI - 0.01;
        ahi[3] = PI - 0.005;
        let a = Rect { lo: alo, hi: ahi };
        let mut p = [0.0; DIMS];
        p[3] = -PI + 0.01;
        let b = Rect::point(p);
        let mut e = [f64::INFINITY; DIMS];
        e[3] = 0.05;
        assert!(within(&a, &b, &e), "angular gap ≈ 0.02 through the wrap");
        e[3] = 0.001;
        assert!(!within(&a, &b, &e));
    }

    #[test]
    fn circular_gap_basics() {
        use std::f64::consts::PI;
        // Overlapping intervals: no gap.
        assert_eq!(circular_gap(0.0, 1.0, 0.5, 2.0), 0.0);
        // Plain gap.
        assert!((circular_gap(0.0, 0.5, 1.0, 1.5) - 0.5).abs() < 1e-12);
        // Through the wrap: [π−0.1, π−0.05] to [−π+0.05, −π+0.1] is
        // 0.05 (to π) + 0.05 (past −π) = 0.1, not ~2π.
        assert!((circular_gap(PI - 0.1, PI - 0.05, -PI + 0.05, -PI + 0.1) - 0.1).abs() < 1e-12);
        // Clamped to π.
        assert!(circular_gap(0.0, 0.0, PI, PI) <= PI + 1e-12);
        // Infinite interval: no constraint.
        assert_eq!(
            circular_gap(f64::NEG_INFINITY, f64::INFINITY, 0.0, 0.0),
            0.0
        );
    }

    #[test]
    fn adaptive_filter_prunes_high_magnitude_angle_gaps_only() {
        let filter = Filter::new(1.0, FilterPolicy::Adaptive);
        let _w = 1.0 / std::f64::consts::SQRT_2;
        // Both coefficients at magnitude 10, angles 2 rad apart:
        // chord ≈ 2·10·sin(1) ≈ 16.8 ≫ w → pruned.
        let mut a = [0.0; DIMS];
        a[2] = 10.0;
        a[3] = 0.0;
        a[4] = 10.0;
        a[5] = 0.0;
        let mut b = a;
        b[3] = 2.0;
        assert!(!filter.hit(&Rect::point(a), &Rect::point(b)));
        // Same angles but tiny magnitudes: chord ≈ 2·0.01·sin(1) ≪ w → kept
        // (this is exactly the case where the Paper policy would *wrongly*
        // prune if the gap exceeded its window… here gap 2 > w ≈ 0.71).
        let mut a2 = a;
        a2[2] = 0.01;
        a2[4] = 0.01;
        let mut b2 = a2;
        b2[3] = 2.0;
        assert!(filter.hit(&Rect::point(a2), &Rect::point(b2)));
        let paper = Filter::new(1.0, FilterPolicy::Paper);
        assert!(
            !paper.hit(&Rect::point(a2), &Rect::point(b2)),
            "Paper policy prunes here"
        );
        // And the true distance: |0.01·(1 − e^{2j})| ≈ 0.017 < ε = 1 — the
        // pair genuinely qualifies, so Paper's pruning was a false dismissal.
        let d = (tsfft::Complex64::from_polar(0.01, 0.0) - tsfft::Complex64::from_polar(0.01, 2.0))
            .abs();
        assert!(d < 1.0);
    }

    #[test]
    fn adaptive_never_prunes_what_safe_keeps_wrongly() {
        // hit(Adaptive) ⊆ hit(Safe): anything Adaptive keeps, Safe keeps.
        let safe = Filter::new(2.0, FilterPolicy::Safe);
        let adaptive = Filter::new(2.0, FilterPolicy::Adaptive);
        for i in 0..200 {
            let f = i as f64;
            let mut a = [0.0; DIMS];
            a[2] = (f * 0.37) % 9.0;
            a[3] = (f * 0.91) % 6.0 - 3.0;
            a[4] = (f * 0.53) % 5.0;
            a[5] = (f * 1.7) % 6.0 - 3.0;
            let mut b = [0.0; DIMS];
            b[2] = (f * 0.11) % 9.0;
            b[3] = (f * 0.77) % 6.0 - 3.0;
            b[4] = (f * 0.29) % 5.0;
            b[5] = (f * 2.3) % 6.0 - 3.0;
            let (ra, rb) = (Rect::point(a), Rect::point(b));
            if adaptive.hit(&ra, &rb) {
                assert!(safe.hit(&ra, &rb));
            }
        }
    }

    /// ST-index's region is MT's over a one-member rectangle: the point
    /// `t(q)` itself — or `q` for data-only queries.
    #[test]
    fn st_region_is_transformed_point() {
        let family = crate::transform::Family::moving_averages(5..=5, 32);
        let mbr = TransformMbr::of(&family, vec![0]);
        let q: FeatureVec = [1.0, 2.0, 0.5, -0.3, 0.2, 1.0];
        let r = mt_query_region(&mbr, &q, QueryMode::Symmetric);
        assert_eq!(r, Rect::point(family.transforms()[0].apply_point(&q)));
        let r = mt_query_region(&mbr, &q, QueryMode::DataOnly);
        assert_eq!(r, Rect::point(q));
    }
}
