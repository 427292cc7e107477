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

use crate::feature::{FRect, FeatureVec, ANGLE_DIMS, COEFFS, DIMS, MAG_DIMS};
use crate::tmbr::TransformMbr;
use rstartree::mask_bits;
use std::cell::Cell;
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
    /// [`Self::bind_all`] over that one rectangle.
    pub fn bind(&self, mbr: &TransformMbr, region: FRect) -> RectFilter {
        self.bind_all([(mbr, region)])
    }

    /// Binds the filter to up to [`RectFilter::MAX_RECTS`] transformation
    /// rectangles, each with its query region: bit `j` of
    /// `bound.hits(x, live)` is `self.hit(&mbr_j.apply_to_rect(x),
    /// &region_j)` for every `j` in `live`.
    ///
    /// # Panics
    ///
    /// Panics unless there are 1 to [`RectFilter::MAX_RECTS`] rectangles.
    pub fn bind_all<'m>(
        &self,
        rects: impl IntoIterator<Item = (&'m TransformMbr, FRect)>,
    ) -> RectFilter {
        let (mbrs, regions): (Vec<_>, Vec<_>) = rects.into_iter().unzip();
        let n = mbrs.len();
        assert!(
            (1..=RectFilter::MAX_RECTS).contains(&n),
            "a bound filter takes 1 to {} rectangles, not {n}",
            RectFilter::MAX_RECTS
        );
        let one_mult = |i: usize| mbrs.iter().all(|m| Eq12::of(m, i).one_mult());
        // The chord test reads Eq. 12's magnitude lower bounds, which the
        // magnitude windows compute; with `ε/√2` infinite there are no
        // such windows, and no chord exceeds it.
        let chord = (self.policy == FilterPolicy::Adaptive && self.w.is_finite()).then(|| Chord {
            w: self.w,
            one_mult: ANGLE_DIMS.map(one_mult),
            rows: std::array::from_fn(|k| {
                let (md, ad) = (MAG_DIMS[k], ANGLE_DIMS[k]);
                (mbrs.iter().zip(&regions))
                    .map(|(m, r)| ChordRow {
                        eq12: Eq12::of(m, ad),
                        region: (r.lo[md], r.lo[ad], r.hi[ad]),
                    })
                    .collect()
            }),
            mag_lo: std::array::from_fn(|_| vec![Cell::new(0.0); n]),
        });
        let windows = (0..DIMS)
            .filter(|&i| !self.expand[i].is_infinite())
            .map(|i| Window {
                dim: i,
                angle: ANGLE_DIMS.contains(&i),
                one_mult: one_mult(i),
                rows: (mbrs.iter().zip(&regions))
                    .map(|(m, r)| Row {
                        eq12: Eq12::of(m, i),
                        lo: r.lo[i] - self.expand[i],
                        hi: r.hi[i] + self.expand[i],
                    })
                    .collect(),
                chord_slot: chord
                    .as_ref()
                    .and_then(|_| MAG_DIMS.iter().position(|&md| md == i)),
            })
            .collect();
        RectFilter {
            all: u64::MAX >> (RectFilter::MAX_RECTS - n),
            windows,
            chord,
        }
    }
}

/// A [`Filter`] bound to up to [`Self::MAX_RECTS`] transformation
/// rectangles and their query regions — the one test steps 3–4 evaluate
/// on every index rectangle a traversal meets, for all of a plan's
/// rectangles at once.
///
/// [`Self::hits`] returns, bit `j` per rectangle `j`, exactly
/// `filter.hit(&mbr_j.apply_to_rect(x), &region_j)`, computing less. That
/// expression is a conjunction of per-dimension tests, each reading only
/// its own dimension of Eq. 12's output. So the bound form keeps, per
/// constrained dimension, a table with a row per rectangle — Eq. 12's
/// factors and the window ends `region.lo − e`, `region.hi + e`, the same
/// `f64`s [`within`] computes per entry — and passes over the dimensions
/// one at a time, each keeping of the bits the passes before kept those
/// whose window the entry meets; a linear window tests every row without
/// a branch, a circular one (`Paper`'s angles) the rows still standing,
/// and the first pass that leaves no bit ends the test. The dimensions no test reads (mean and std
/// always, the angles unless the policy looks at them) are never
/// computed. The Adaptive chord test runs last, on the rectangles every
/// window kept, from the magnitude lower bounds the window passes left
/// behind.
///
/// Eq. 12 itself ([`TransformMbr::apply_to_dim`]: four products, a `min`
/// and a `max` fold, two addends) is specialised where two of its
/// products are the same `f64`: a point entry (`lo` and `hi` one `f64`,
/// every leaf entry) has two distinct products, a dimension in which
/// every rectangle's multiplier interval is one `f64` (every singleton;
/// the angle dimensions of a moving-average family) two, and both
/// together one — one multiply and an addend. A fold that meets a value
/// again returns what it did without it, so each specialisation returns
/// `apply_to_dim`'s interval to the bit.
#[derive(Clone, Debug)]
pub struct RectFilter {
    /// The bits of the bound rectangles.
    all: u64,
    /// One per constrained dimension, ascending.
    windows: Vec<Window>,
    /// The adaptive angle test, when it applies.
    chord: Option<Chord>,
}

/// Eq. 12's factors of one rectangle in one dimension.
#[derive(Clone, Copy, Debug)]
struct Eq12 {
    mult_lo: f64,
    mult_hi: f64,
    add_lo: f64,
    add_hi: f64,
}

impl Eq12 {
    fn of(mbr: &TransformMbr, i: usize) -> Self {
        Self {
            mult_lo: mbr.mult_lo[i],
            mult_hi: mbr.mult_hi[i],
            add_lo: mbr.add_lo[i],
            add_hi: mbr.add_hi[i],
        }
    }

    /// Whether the multiplier interval is one `f64`.
    fn one_mult(&self) -> bool {
        self.mult_lo.to_bits() == self.mult_hi.to_bits()
    }

    /// The addends plus the `min` and `max` folds of `products`, as
    /// [`TransformMbr::apply_to_dim`] forms them.
    #[inline(always)]
    fn fold(&self, products: &[f64]) -> (f64, f64) {
        let lo = products.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = products.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (self.add_lo + lo, self.add_hi + hi)
    }

    /// [`TransformMbr::apply_to_dim`] on `[lo, hi]`, bit for bit, where
    /// `POINT` holds when `lo` and `hi` are one `f64` and `ONE` when
    /// [`Self::one_mult`] does. Of its products `m_lo·lo`, `m_lo·hi`,
    /// `m_hi·lo`, `m_hi·hi`, the second equals the first at a point and the
    /// third at one multiplier, so those are dropped.
    #[inline(always)]
    fn apply<const POINT: bool, const ONE: bool>(&self, lo: f64, hi: f64) -> (f64, f64) {
        let (m_lo, m_hi) = (self.mult_lo, self.mult_hi);
        match (POINT, ONE) {
            (true, true) => self.fold(&[m_lo * lo]),
            (true, false) => self.fold(&[m_lo * lo, m_hi * lo]),
            (false, true) => self.fold(&[m_lo * lo, m_lo * hi]),
            (false, false) => self.fold(&[m_lo * lo, m_lo * hi, m_hi * lo, m_hi * hi]),
        }
    }

    /// [`Self::apply`] on `x` from [`side`], decided at run time.
    #[inline(always)]
    fn apply_to(&self, (lo, hi, point): (f64, f64, bool), one_mult: bool) -> (f64, f64) {
        match (point, one_mult) {
            (true, true) => self.apply::<true, true>(lo, hi),
            (true, false) => self.apply::<true, false>(lo, hi),
            (false, true) => self.apply::<false, true>(lo, hi),
            (false, false) => self.apply::<false, false>(lo, hi),
        }
    }
}

/// One rectangle's row of a [`Window`].
#[derive(Clone, Copy, Debug)]
struct Row {
    eq12: Eq12,
    /// `region.lo − e`.
    lo: f64,
    /// `region.hi + e`.
    hi: f64,
}

/// One constrained dimension of a [`RectFilter`].
#[derive(Clone, Debug)]
struct Window {
    dim: usize,
    /// Compared circularly ([`circular_overlap`]).
    angle: bool,
    /// Every rectangle's multiplier interval is one `f64` here.
    one_mult: bool,
    rows: Vec<Row>,
    /// The coefficient whose chord test reads this dimension's lower
    /// bound (a magnitude dimension under `Adaptive`).
    chord_slot: Option<usize>,
}

/// `x`'s interval in dimension `i`, and whether it is one `f64`.
#[inline(always)]
fn side(x: &FRect, i: usize) -> (f64, f64, bool) {
    let (lo, hi) = (x.lo[i], x.hi[i]);
    (lo, hi, lo.to_bits() == hi.to_bits())
}

impl Window {
    /// The rectangles of `mask` whose window `x` meets in this dimension,
    /// with Eq. 12's lower bound of each rectangle to `store` when given.
    /// A linear window tests every row and masks after; a circular one
    /// tests the rows of `mask`.
    #[inline(always)]
    fn pass(&self, x: &FRect, mask: u64, store: Option<&[Cell<f64>]>) -> u64 {
        let x = side(x, self.dim);
        if self.angle {
            let mut out = mask;
            for j in mask_bits(mask) {
                let row = &self.rows[j];
                let y = row.eq12.apply_to(x, self.one_mult);
                if !self.meets(row, y) {
                    out &= !(1 << j);
                } else if let Some(store) = store {
                    store[j].set(y.0);
                }
            }
            return out;
        }
        // One loop per specialisation, so each loop body is straight-line.
        let (lo, hi, point) = x;
        let bits = match (point, self.one_mult) {
            (true, true) => self.linear::<true, true>(lo, hi, store),
            (true, false) => self.linear::<true, false>(lo, hi, store),
            (false, true) => self.linear::<false, true>(lo, hi, store),
            (false, false) => self.linear::<false, false>(lo, hi, store),
        };
        mask & bits
    }

    /// Whether Eq. 12's interval `(y_lo, y_hi)` meets `row`'s window.
    #[inline(always)]
    fn meets(&self, row: &Row, (y_lo, y_hi): (f64, f64)) -> bool {
        if self.angle {
            circular_overlap(y_lo, y_hi, row.lo, row.hi)
        } else {
            (y_lo <= row.hi) & (row.lo <= y_hi)
        }
    }

    /// Every row's linear window test on `[lo, hi]` through
    /// [`Eq12::apply`], without a branch.
    #[inline(always)]
    fn linear<const POINT: bool, const ONE: bool>(
        &self,
        lo: f64,
        hi: f64,
        store: Option<&[Cell<f64>]>,
    ) -> u64 {
        let mut bits = 0;
        for (j, row) in self.rows.iter().enumerate() {
            let (y_lo, y_hi) = row.eq12.apply::<POINT, ONE>(lo, hi);
            if let Some(store) = store {
                store[j].set(y_lo);
            }
            bits |= u64::from((y_lo <= row.hi) & (row.lo <= y_hi)) << j;
        }
        bits
    }
}

/// The adaptive angle test of a [`RectFilter`]: per coefficient `k`, a
/// row per rectangle of Eq. 12's factors in angle dimension
/// `ANGLE_DIMS[k]` and the region's side of [`chord_hit`].
#[derive(Clone, Debug)]
struct Chord {
    /// `ε/√2`.
    w: f64,
    /// Per coefficient: every rectangle's angle multiplier is one `f64`.
    one_mult: [bool; COEFFS],
    /// Per coefficient, a row per rectangle.
    rows: [Vec<ChordRow>; COEFFS],
    /// Eq. 12's lower bound in `MAG_DIMS[k]` per rectangle, as the
    /// window pass of that dimension last computed it.
    mag_lo: [Vec<Cell<f64>>; COEFFS],
}

/// One rectangle's row of a [`Chord`] coefficient: Eq. 12 in the angle
/// dimension, and the region's `(magnitude lo, angle lo, angle hi)`.
#[derive(Clone, Copy, Debug)]
struct ChordRow {
    eq12: Eq12,
    region: (f64, f64, f64),
}

impl RectFilter {
    /// Rectangles one bound filter holds: the bits of a `u64` mask.
    pub const MAX_RECTS: usize = 64;

    /// The mask of the rectangles of `live` (bit `j` for the `j`-th bound)
    /// whose transformed `x` may contain a point within ε of their region:
    /// the window tests, then the adaptive chord test.
    #[inline]
    pub fn hits(&self, x: &FRect, live: u64) -> u64 {
        let mut mask = live & self.all;
        for win in &self.windows {
            if mask == 0 {
                return 0;
            }
            let store = win.chord_slot.zip(self.chord.as_ref());
            mask = win.pass(x, mask, store.map(|(k, chord)| &chord.mag_lo[k][..]));
        }
        match &self.chord {
            Some(chord) if mask != 0 => chord.hits(x, mask),
            _ => mask,
        }
    }

    /// [`Self::hits`] of the first rectangle bound — all there is of a
    /// filter from [`Filter::bind`].
    #[inline]
    pub fn hit(&self, x: &FRect) -> bool {
        self.hits(x, 1) != 0
    }

    /// The window tests of [`Self::hit`] alone. Every window end and Eq.
    /// 12's interval are monotone in the rectangle's bounds under IEEE
    /// rounding, so a filter bound to a rectangle containing others'
    /// ([`TransformMbr::hull`]) passes every entry any of theirs
    /// [`Self::hit`]s — the prefilter of a masked descent. Every window
    /// is tested, without a branch on the ones before: which one fails
    /// first is the coin flip a prefilter exists to take, and a
    /// mispredicted branch costs more than a second window.
    #[inline(always)]
    pub fn hit_windows(&self, x: &FRect) -> bool {
        self.windows.iter().fold(true, |hit, win| {
            let row = &win.rows[0];
            hit & win.meets(row, row.eq12.apply_to(side(x, win.dim), win.one_mult))
        })
    }
}

impl Chord {
    /// The rectangles of `mask` — each kept by every window — whose
    /// angular gaps do not force a chord longer than `w`.
    fn hits(&self, x: &FRect, mut mask: u64) -> u64 {
        for (k, &ad) in ANGLE_DIMS.iter().enumerate() {
            let x = side(x, ad);
            for j in mask_bits(mask) {
                let row = &self.rows[k][j];
                let (angle_lo, angle_hi) = row.eq12.apply_to(x, self.one_mult[k]);
                let a = (self.mag_lo[k][j].get(), angle_lo, angle_hi);
                if !chord_hit(self.w, a, row.region) {
                    mask &= !(1 << j);
                }
            }
        }
        mask
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

/// Largest angle magnitude the circular tests shift exactly: below it
/// the `i64` shift count and `k·2π` are exact, beyond it (only a damaged
/// page holds such an angle) an interval bounds nothing.
const ANGLE_LIMIT: f64 = 4_294_967_296.0; // 2³²

/// Whether every end lies within [`ANGLE_LIMIT`]; false on NaN or ±∞ —
/// Eq. 12 over a NaN coordinate is `(∞, −∞)`.
fn angles_in_range(ends: [f64; 4]) -> bool {
    ends.iter().all(|x| x.abs() < ANGLE_LIMIT)
}

/// Minimal angular distance between two intervals on the 2π circle
/// (0 when they overlap), clamped to `[0, π]`. 0 for an end of
/// magnitude 2³² or more, or a non-finite one: such an interval bounds
/// nothing.
pub fn circular_gap(alo: f64, ahi: f64, blo: f64, bhi: f64) -> f64 {
    const TAU: f64 = 2.0 * std::f64::consts::PI;
    if !angles_in_range([alo, ahi, blo, bhi]) {
        return 0.0;
    }
    debug_assert!(alo <= ahi && blo <= bhi);
    // Overlapping as they lie (the shift `k = 0` below), or wide enough to
    // overlap through some shift.
    if (alo <= bhi && blo <= ahi) || (ahi - alo) + (bhi - blo) >= TAU {
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

/// Interval overlap on the circle of circumference 2π; true for an end of
/// magnitude 2³² or more, or a non-finite one, which excludes nothing.
// Out of line: per entry only `Paper`'s angle windows call it, and
// inlined it keeps the window passes that can reach it from inlining.
#[inline(never)]
pub fn circular_overlap(alo: f64, ahi: f64, blo: f64, bhi: f64) -> bool {
    const TAU: f64 = 2.0 * std::f64::consts::PI;
    if !angles_in_range([alo, ahi, blo, bhi]) {
        return true;
    }
    debug_assert!(alo <= ahi && blo <= bhi);
    // Overlapping as they lie (the shift `k = 0` below), or wide enough to
    // overlap through some shift.
    if (alo <= bhi && blo <= ahi) || (ahi - alo) + (bhi - blo) >= TAU {
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

    /// The circular tests' shortcut for intervals that overlap as they lie
    /// answers what their loop over shifts answers, bit for bit: the loop
    /// below is theirs without it.
    #[test]
    fn circular_shortcut_answers_as_the_shift_loop() {
        use std::f64::consts::PI;
        const TAU: f64 = 2.0 * PI;
        let gap_loop = |alo: f64, ahi: f64, blo: f64, bhi: f64| {
            let k_min = ((alo - bhi) / TAU).floor() as i64 - 1;
            let k_max = ((ahi - blo) / TAU).ceil() as i64 + 1;
            let mut best = f64::INFINITY;
            for k in k_min..=k_max {
                let s = k as f64 * TAU;
                let gap = if alo > bhi + s {
                    alo - (bhi + s)
                } else if blo + s > ahi {
                    (blo + s) - ahi
                } else {
                    0.0
                };
                best = best.min(gap);
            }
            best.min(PI)
        };
        let overlap_loop = |alo: f64, ahi: f64, blo: f64, bhi: f64| {
            let k_min = ((alo - bhi) / TAU).floor() as i64;
            let k_max = ((ahi - blo) / TAU).ceil() as i64;
            (k_min..=k_max).any(|k| {
                let s = k as f64 * TAU;
                alo <= bhi + s && blo + s <= ahi
            })
        };
        let mut rng = tseries::rng::SeededRng::seed_from_u64(0xC1C);
        let mut overlapping = 0;
        for _ in 0..20_000 {
            let mut end = || match rng.random_range(0..4u32) {
                0 => [0.0, -0.0, PI, -PI][rng.random_range(0..4usize)],
                _ => rng.random_range(-9.0f64..9.0),
            };
            let (a, b, c, d) = (end(), end(), end(), end());
            let (alo, ahi, blo, bhi) = (a.min(b), a.max(b), c.min(d), c.max(d));
            if (ahi - alo) + (bhi - blo) >= TAU {
                continue;
            }
            overlapping += usize::from(alo <= bhi && blo <= ahi);
            let gap = circular_gap(alo, ahi, blo, bhi);
            assert_eq!(gap.to_bits(), gap_loop(alo, ahi, blo, bhi).to_bits());
            assert_eq!(
                circular_overlap(alo, ahi, blo, bhi),
                overlap_loop(alo, ahi, blo, bhi)
            );
        }
        assert!(overlapping > 1_000, "{overlapping}");
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

    /// Every specialisation of Eq. 12 is `apply_to_dim`'s interval to the
    /// bit, on signed zeros, infinities, NaN, subnormals and multipliers of
    /// both signs — what lets the bound filter drop a product.
    #[test]
    fn eq12_specialisations_are_apply_to_dim_bit_for_bit() {
        const V: [f64; 10] = [
            0.0,
            -0.0,
            1.5,
            -2.25,
            3.0,
            1e-310,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -7.0e200,
        ];
        let bits = |(lo, hi): (f64, f64)| (lo.to_bits(), hi.to_bits());
        let mut checked = [0usize; 4];
        for (&m_lo, &m_hi, &a_lo, &a_hi) in V
            .iter()
            .flat_map(|m| V.iter().map(move |n| (m, n)))
            .flat_map(|(m, n)| {
                [
                    (m, n, &V[2], &V[4]),
                    (m, n, &V[1], &V[0]),
                    (m, n, &V[6], &V[8]),
                ]
            })
        {
            let mut mbr = TransformMbr {
                mult_lo: [1.0; DIMS],
                mult_hi: [1.0; DIMS],
                add_lo: [0.0; DIMS],
                add_hi: [0.0; DIMS],
                members: vec![0],
            };
            (mbr.mult_lo[2], mbr.mult_hi[2], mbr.add_lo[2], mbr.add_hi[2]) =
                (m_lo, m_hi, a_lo, a_hi);
            let eq12 = Eq12::of(&mbr, 2);
            for &lo in &V {
                for &hi in &V {
                    let point = lo.to_bits() == hi.to_bits();
                    let want = bits(mbr.apply_to_dim(2, lo, hi));
                    assert_eq!(bits(eq12.apply::<false, false>(lo, hi)), want);
                    if point {
                        assert_eq!(bits(eq12.apply::<true, false>(lo, hi)), want);
                        checked[1] += 1;
                    }
                    if eq12.one_mult() {
                        assert_eq!(bits(eq12.apply::<false, true>(lo, hi)), want);
                        checked[2] += 1;
                        if point {
                            assert_eq!(bits(eq12.apply::<true, true>(lo, hi)), want);
                            checked[3] += 1;
                        }
                    }
                    assert_eq!(
                        bits(eq12.apply_to(
                            side(
                                &Rect {
                                    lo: [lo; DIMS],
                                    hi: [hi; DIMS]
                                },
                                2
                            ),
                            eq12.one_mult()
                        )),
                        want
                    );
                    checked[0] += 1;
                }
            }
        }
        assert!(checked.iter().all(|&c| c > 50), "{checked:?}");
    }

    /// A leaf point with a NaN angle — a damaged tree page — is kept by
    /// every policy, through the unbound oracle and the bound filter
    /// alike: Eq. 12 makes the angle `(∞, −∞)`, which the circular tests
    /// read as unconstrained (and must not assert on).
    #[test]
    fn nan_angle_entries_are_kept_not_asserted_on() {
        let family = crate::transform::Family::moving_averages(3..=9, 64);
        let q: FeatureVec = [1.0, 2.0, 4.0, 0.7, 2.5, -1.2];
        let mbrs = [
            TransformMbr::of(&family, vec![2]),
            TransformMbr::of_family(&family),
        ];
        assert_eq!(
            circular_gap(f64::INFINITY, f64::NEG_INFINITY, 0.0, 1.0),
            0.0
        );
        assert!(circular_overlap(f64::INFINITY, f64::NEG_INFINITY, 0.0, 1.0));
        for ad in ANGLE_DIMS {
            let mut p = q;
            p[ad] = f64::NAN;
            let x = Rect::point(p);
            for policy in [
                FilterPolicy::Paper,
                FilterPolicy::Safe,
                FilterPolicy::Adaptive,
            ] {
                let filter = Filter::new(1.0, policy);
                for mbr in &mbrs {
                    let region = mt_query_region(mbr, &q, QueryMode::Symmetric);
                    assert!(
                        filter.hit(&mbr.apply_to_rect(&x), &region),
                        "{policy:?} dim {ad}"
                    );
                    assert!(filter.bind(mbr, region).hit(&x), "{policy:?} dim {ad}");
                }
                let bound = filter.bind_all(
                    mbrs.iter()
                        .map(|m| (m, mt_query_region(m, &q, QueryMode::Symmetric))),
                );
                assert_eq!(bound.hits(&x, 0b11), 0b11, "{policy:?} dim {ad}");
            }
        }
    }

    /// A finite angle too large to shift exactly (only a damaged page can
    /// hold one) bounds nothing, as a NaN one does: gap 0 and overlap
    /// true — no shift-count overflow, and no wrapped-empty shift range
    /// whose gap of π would prune the entry.
    #[test]
    fn huge_finite_angles_bound_nothing() {
        for x in [6e19, -6e19, ANGLE_LIMIT, 1e300] {
            assert_eq!(circular_gap(x, x, 0.0, 0.5), 0.0, "{x}");
            assert_eq!(circular_gap(0.0, 0.5, x, x), 0.0, "{x}");
            assert!(circular_overlap(x, x, 0.0, 0.5), "{x}");
            assert!(circular_overlap(0.0, 0.5, x, x), "{x}");
        }
        // Below the limit the shift is exact and the answer is real.
        let x = 1e6 * 2.0 * std::f64::consts::PI;
        assert!((circular_gap(x, x + 0.5, 1.0, 1.5) - 0.5).abs() < 1e-6);
        assert!(!circular_overlap(x, x + 0.5, 1.0, 1.5));
        let family = crate::transform::Family::moving_averages(3..=9, 64);
        let q: FeatureVec = [1.0, 2.0, 4.0, 0.7, 2.5, -1.2];
        let mbr = TransformMbr::of_family(&family);
        let region = mt_query_region(&mbr, &q, QueryMode::Symmetric);
        for ad in ANGLE_DIMS {
            let mut p = q;
            p[ad] = 6e19;
            for policy in [FilterPolicy::Paper, FilterPolicy::Adaptive] {
                let filter = Filter::new(1.0, policy);
                let x = Rect::point(p);
                assert!(filter.bind(&mbr, region).hit(&x), "{policy:?} dim {ad}");
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
