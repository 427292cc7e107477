//! Linear transformations over the Fourier representation (§3).
//!
//! A transformation is a pair of real vectors `t = (a, b)` acting
//! componentwise, `x ↦ a ⊙ x + b`, on the *interleaved polar* encoding of a
//! spectrum (magnitudes at even slots, angles at odd slots — §3.1.1). Every
//! [`Transform`] here carries **two** consistent representations:
//!
//! * the action on the 6-dimensional index feature vector (what the search
//!   algorithms apply to index rectangles), and
//! * the action on the full `n`-coefficient spectrum (what the
//!   post-processing step uses to compute exact distances).
//!
//! Convolution-style operators (moving average, momentum, time shift) are
//! built from their masks via the convolution theorem (Eq. 5): the
//! transformation multiplies each coefficient's magnitude by `√n·|H_f|` and
//! adds `∠H_f` to its angle. (The `√n` compensates the unitary DFT
//! normalisation.)

use crate::feature::{FeatureVec, SeqFeatures, ANGLE_DIMS, COEFFS, DIMS, MAG_DIMS};
use std::ops::RangeInclusive;
use tsfft::{fft, Complex64};

/// A linear transformation with index-level and spectrum-level actions.
///
/// Every constructor leaves the magnitude addends at 0 and sets all angle
/// multipliers to 1 — or, for time reversal and what it composes into, all
/// to −1. So coefficient `f` maps to `m_f·X_f`, or `m_f·conj(X_f)`, with
/// `m_f = a_f·e^{iφ_f}`: the form step 5's verification kernel computes
/// with.
#[derive(Clone, Debug)]
pub struct Transform {
    label: String,
    /// Multiplicative part on the feature vector.
    feat_a: FeatureVec,
    /// Additive part on the feature vector.
    feat_b: FeatureVec,
    /// Multiplicative part on the interleaved-polar spectrum (length `2n`).
    spec_a: Vec<f64>,
    /// Additive part on the interleaved-polar spectrum (length `2n`).
    spec_b: Vec<f64>,
    /// Whether the action is conjugate-symmetric (coefficient `n−f`
    /// mirrors `f`), enabling the half-spectrum distance fast path.
    symmetric: bool,
}

impl Transform {
    /// The identity transformation for sequences of length `n`.
    pub fn identity(n: usize) -> Self {
        let mut t = Self {
            label: "id".into(),
            feat_a: [1.0; DIMS],
            feat_b: [0.0; DIMS],
            spec_a: vec![0.0; 2 * n],
            spec_b: vec![0.0; 2 * n],
            symmetric: true,
        };
        for f in 0..n {
            t.spec_a[2 * f] = 1.0; // magnitude × 1
            t.spec_a[2 * f + 1] = 1.0; // angle × 1
        }
        t
    }

    /// Detects conjugate symmetry of the action: magnitude parts and the
    /// angle multiplier mirror (`v[n−f] = v[f]`), the angle addend
    /// conjugates (`b_θ[n−f] ≡ −b_θ[f] (mod 2π)`). All convolution-derived
    /// transformations have it; §3.1.2's approximate shift does not.
    ///
    /// The angle of a coefficient the action zeroes is noise — a mask
    /// whose spectrum has an exact zero leaves ~1e-15 there at an
    /// arbitrary angle when its FFT is Bluestein's — and a zero has no
    /// angle to mirror, so angles are compared only where the magnitude
    /// multiplier is above `1e-12·max_f a_f` or a magnitude addend is set.
    fn detect_symmetry(&mut self) {
        let n = self.seq_len();
        // Every constructor ends here: one complex factor per coefficient.
        let s = self.spec_a[1];
        debug_assert!(
            s.abs() == 1.0
                && (0..n).all(|f| self.spec_a[2 * f + 1] == s && self.spec_b[2 * f] == 0.0),
            "{}: not one complex factor per coefficient",
            self.label
        );
        let noise = 1e-12 * (0..n).map(|f| self.spec_a[2 * f].abs()).fold(0.0, f64::max);
        let zeroed = |f: usize| self.spec_a[2 * f].abs() <= noise && self.spec_b[2 * f] == 0.0;
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs() + b.abs());
        let angle_conj = |a: f64, b: f64| {
            let d = Complex64::cis(a) - Complex64::cis(-b);
            d.abs() <= 1e-9
        };
        self.symmetric = (1..n).all(|f| {
            let m = n - f;
            close(self.spec_a[2 * f], self.spec_a[2 * m])
                && close(self.spec_b[2 * f], self.spec_b[2 * m])
                && close(self.spec_a[2 * f + 1], self.spec_a[2 * m + 1])
                && ((zeroed(f) && zeroed(m))
                    || angle_conj(self.spec_b[2 * m + 1], self.spec_b[2 * f + 1]))
        });
    }

    /// Builds the transformation equivalent to circular convolution with
    /// `mask` (§3.1.1's construction, generalised to any mask).
    pub fn from_mask(label: impl Into<String>, mask: &[f64]) -> Self {
        let n = mask.len();
        assert!(n > 2 * COEFFS, "mask too short for the feature space");
        let spectrum = fft(&mask
            .iter()
            .copied()
            .map(Complex64::from_real)
            .collect::<Vec<_>>());
        let scale = (n as f64).sqrt(); // unitary-DFT convolution factor
        let mut t = Self::identity(n);
        t.label = label.into();
        for (f, h) in spectrum.iter().enumerate() {
            let (r, theta) = h.to_polar();
            t.spec_a[2 * f] = scale * r; // magnitude multiplier
            t.spec_b[2 * f + 1] = theta; // angle addend
        }
        t.sync_feature_action();
        t.detect_symmetry();
        t
    }

    /// `m`-day circular moving average over length-`n` sequences.
    pub fn moving_average(m: usize, n: usize) -> Self {
        assert!(m >= 1 && m <= n, "window {m} out of range for length {n}");
        let mut mask = vec![0.0; n];
        for slot in mask.iter_mut().take(m) {
            *slot = 1.0 / m as f64;
        }
        Self::from_mask(format!("mv{m}"), &mask)
    }

    /// Circular momentum with `lag` (the mask `[1, −1, 0, …]` of §3.1.1 for
    /// `lag = 1`): `y_t = x_t − x_{t−lag}`.
    pub fn momentum(lag: usize, n: usize) -> Self {
        assert!(lag >= 1 && lag < n, "lag {lag} out of range for length {n}");
        let mut mask = vec![0.0; n];
        mask[0] = 1.0;
        mask[lag] = -1.0;
        Self::from_mask(format!("mom{lag}"), &mask)
    }

    /// Exact circular time shift right by `s` days (rotation): adds
    /// `−2πfs/n` to each angle.
    pub fn circular_shift(s: usize, n: usize) -> Self {
        let mut mask = vec![0.0; n];
        mask[s % n] = 1.0;
        let mut t = Self::from_mask(format!("shift{s}"), &mask);
        t.label = format!("shift{s}");
        t
    }

    /// The paper's §3.1.2 *approximate* shift for long sequences: angle
    /// addend `−2πfs/(n+1)`, magnitudes untouched. Kept for fidelity;
    /// [`Self::circular_shift`] is the exact counterpart.
    pub fn paper_shift(s: usize, n: usize) -> Self {
        let mut t = Self::identity(n);
        t.label = format!("pshift{s}");
        for f in 0..n {
            t.spec_b[2 * f + 1] = -2.0 * std::f64::consts::PI * (f * s) as f64 / (n + 1) as f64;
        }
        t.sync_feature_action();
        t.detect_symmetry();
        t
    }

    /// Scaling by `k` (Lemma 2's family): every coefficient magnitude ×|k|
    /// (angle +π when k < 0); the mean/std dimensions scale accordingly.
    pub fn scaling(k: f64, n: usize) -> Self {
        let mut t = Self::identity(n);
        t.label = format!("scale{k}");
        for f in 0..n {
            t.spec_a[2 * f] = k.abs();
            if k < 0.0 {
                t.spec_b[2 * f + 1] = std::f64::consts::PI;
            }
        }
        t.sync_feature_action();
        t.detect_symmetry();
        // Raw-statistics dimensions: mean scales by k, std by |k|.
        t.feat_a[0] = k;
        t.feat_a[1] = k.abs();
        t
    }

    /// Inversion (×−1) — the transformation Fig. 9 adds to create a second
    /// cluster.
    pub fn inversion(n: usize) -> Self {
        let mut t = Self::scaling(-1.0, n);
        t.label = "invert".into();
        t
    }

    /// Weighted circular moving average with arbitrary non-negative
    /// weights (most recent sample first); weights are normalised to sum
    /// to 1.
    ///
    /// # Panics
    ///
    /// Panics when weights are empty, longer than `n`, or sum to zero.
    pub fn weighted_moving_average(weights: &[f64], n: usize) -> Self {
        assert!(
            !weights.is_empty() && weights.len() <= n,
            "bad weight count"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut mask = vec![0.0; n];
        for (slot, w) in mask.iter_mut().zip(weights) {
            *slot = w / total;
        }
        Self::from_mask(format!("wma{}", weights.len()), &mask)
    }

    /// Exponential moving average with smoothing factor `alpha ∈ (0, 1]`,
    /// truncated once the tail weight drops below 10⁻¹² (then treated as a
    /// circular mask like every other convolution operator).
    pub fn exponential_moving_average(alpha: f64, n: usize) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must lie in (0, 1]");
        let mut weights = Vec::new();
        let mut w = alpha;
        while w > 1e-12 && weights.len() < n {
            weights.push(w);
            w *= 1.0 - alpha;
        }
        let mut t = Self::weighted_moving_average(&weights, n);
        t.label = format!("ema{alpha}");
        t
    }

    /// Time reversal `y_t = x_{(n−t) mod n}`: conjugates every coefficient —
    /// the angle *multiplier* becomes −1, exercising the general `a ⊙ x + b`
    /// form beyond multiplier-1 angles. Comparing `reverse(x)` against `q`
    /// (data-only mode) finds sequences whose mirror image matches.
    pub fn time_reverse(n: usize) -> Self {
        let mut t = Self::identity(n);
        t.label = "reverse".into();
        for f in 0..n {
            t.spec_a[2 * f + 1] = -1.0; // θ ↦ −θ
        }
        t.sync_feature_action();
        t.detect_symmetry();
        t
    }

    /// Ideal band-pass: keeps coefficients `lo..=hi` (and their conjugate
    /// mirrors), zeroing the rest. `lo = 1` with small `hi` is a detrending
    /// low-pass over the normal form; `lo > 1` removes slow trends too.
    ///
    /// # Panics
    ///
    /// Panics unless `lo ≤ hi < n`.
    pub fn band_pass(lo: usize, hi: usize, n: usize) -> Self {
        assert!(
            lo <= hi && hi < n,
            "band {lo}..={hi} out of range for length {n}"
        );
        let mut t = Self::identity(n);
        t.label = format!("band{lo}-{hi}");
        for f in 0..n {
            let mirrored = if f == 0 { 0 } else { n - f };
            let keep = (lo..=hi).contains(&f) || (lo..=hi).contains(&mirrored);
            if !keep {
                t.spec_a[2 * f] = 0.0;
            }
        }
        t.sync_feature_action();
        t.detect_symmetry();
        t
    }

    /// Functional composition `self ∘ inner` (Eq. 10): apply `inner` first,
    /// then `self`. `a₃ = a₂ ⊙ a₁`, `b₃ = a₂ ⊙ b₁ + b₂`.
    ///
    /// ```
    /// use simquery::transform::Transform;
    /// // "2-day shift, then 10-day moving average" as one operator.
    /// let t = Transform::moving_average(10, 128).compose(&Transform::circular_shift(2, 128));
    /// assert_eq!(t.label(), "mv10(shift2)");
    /// ```
    pub fn compose(&self, inner: &Self) -> Self {
        assert_eq!(
            self.spec_a.len(),
            inner.spec_a.len(),
            "length mismatch in composition"
        );
        let mut out = self.clone();
        out.label = format!("{}({})", self.label, inner.label);
        for i in 0..DIMS {
            out.feat_a[i] = self.feat_a[i] * inner.feat_a[i];
            out.feat_b[i] = self.feat_a[i] * inner.feat_b[i] + self.feat_b[i];
        }
        for i in 0..self.spec_a.len() {
            out.spec_a[i] = self.spec_a[i] * inner.spec_a[i];
            out.spec_b[i] = self.spec_a[i] * inner.spec_b[i] + self.spec_b[i];
        }
        out.detect_symmetry();
        out
    }

    /// Keeps the feature-space action in sync with the spectrum action
    /// (dims 2..6 mirror coefficients 1 and 2).
    fn sync_feature_action(&mut self) {
        for (k, (&md, &ad)) in MAG_DIMS.iter().zip(&ANGLE_DIMS).enumerate() {
            let f = k + 1;
            self.feat_a[md] = self.spec_a[2 * f];
            self.feat_b[md] = self.spec_b[2 * f];
            self.feat_a[ad] = self.spec_a[2 * f + 1];
            self.feat_b[ad] = self.spec_b[2 * f + 1];
        }
    }

    /// Display label (`mv9`, `shift2`, `scale3(mv5)`, …).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Sequence length this transform was built for.
    pub fn seq_len(&self) -> usize {
        self.spec_a.len() / 2
    }

    /// Whether the action is conjugate-symmetric: coefficient `n−f`
    /// mirrors `f` (Eq. 6), so a half spectrum stands for the whole.
    pub(crate) fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// The multiplier `a_f` of coefficient `f`'s magnitude.
    pub(crate) fn magnitude_multiplier(&self, f: usize) -> f64 {
        self.spec_a[2 * f]
    }

    /// Coefficient `f`'s action as one complex factor `m_f = a_f·e^{iφ_f}`:
    /// `t(X)_f = m_f·X_f`, or `m_f·conj(X_f)` when [`Self::conjugates`].
    pub(crate) fn factor(&self, f: usize) -> Complex64 {
        Complex64::from_polar(self.spec_a[2 * f], self.spec_b[2 * f + 1])
    }

    /// Whether the action conjugates each coefficient before scaling it —
    /// angle multipliers of −1 (time reversal and its compositions).
    pub(crate) fn conjugates(&self) -> bool {
        self.spec_a[1] < 0.0
    }

    /// The multiplicative feature-space part `a`.
    pub fn feat_a(&self) -> &FeatureVec {
        &self.feat_a
    }

    /// The additive feature-space part `b`.
    pub fn feat_b(&self) -> &FeatureVec {
        &self.feat_b
    }

    /// Applies the transformation to a feature point.
    pub fn apply_point(&self, p: &FeatureVec) -> FeatureVec {
        let mut out = [0.0; DIMS];
        for i in 0..DIMS {
            out[i] = self.feat_a[i] * p[i] + self.feat_b[i];
        }
        out
    }

    /// Applies the transformation to a feature rectangle (the ST-index
    /// per-entry operation): each dimension maps through `a·x + b`, which
    /// may swap the corner order when `a < 0`.
    pub fn apply_rect(&self, rect: &rstartree::Rect<DIMS>) -> rstartree::Rect<DIMS> {
        let mut lo = [0.0; DIMS];
        let mut hi = [0.0; DIMS];
        for i in 0..DIMS {
            let u = self.feat_a[i] * rect.lo[i] + self.feat_b[i];
            let v = self.feat_a[i] * rect.hi[i] + self.feat_b[i];
            lo[i] = u.min(v);
            hi[i] = u.max(v);
        }
        rstartree::Rect { lo, hi }
    }

    /// Applies the transformation to a full spectrum: per coefficient `f`,
    /// magnitude `r ↦ a_{2f}·r + b_{2f}` and angle `θ ↦ a_{2f+1}·θ +
    /// b_{2f+1}`.
    pub fn apply_spectrum(&self, spectrum: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(spectrum.len(), self.seq_len(), "spectrum length mismatch");
        spectrum
            .iter()
            .enumerate()
            .map(|(f, c)| {
                let (r, theta) = c.to_polar();
                Complex64::from_polar(
                    self.spec_a[2 * f] * r + self.spec_b[2 * f],
                    self.spec_a[2 * f + 1] * theta + self.spec_b[2 * f + 1],
                )
            })
            .collect()
    }

    /// Exact `D(t(x), t(q))` over the full transformed spectra — the
    /// post-processing distance of Algorithm 1, step 5, as the scan
    /// oracles compute it.
    ///
    /// Per coefficient the squared difference is evaluated in polar form
    /// (law of cosines, exact): `|A−B|² = r_A² + r_B² − 2·r_A·r_B·cos(θ_A
    /// − θ_B)`. The index engines verify on `engine::VerifyKernel`, the
    /// same distance in the paper's linear form.
    pub fn transformed_distance(&self, x: &SeqFeatures, q: &SeqFeatures) -> f64 {
        self.spectral_distance(x, q, |f| {
            let (rx, tx) = x.polar[f];
            let (rq, tq) = q.polar[f];
            let a_r = self.spec_a[2 * f];
            let b_r = self.spec_b[2 * f];
            let a_t = self.spec_a[2 * f + 1];
            let (ra, rb) = (a_r * rx + b_r, a_r * rq + b_r);
            let dth = a_t * (tx - tq); // the shared b_t cancels in the difference
            ra * ra + rb * rb - 2.0 * ra * rb * dth.cos()
        })
    }

    /// `D(t(x), q)` — the transformation applied to the **data side only**.
    ///
    /// Symmetric application (Query 1's `D(t(x), t(q))`) makes unitary
    /// transformations like time shifts and inversion useless — rotating or
    /// negating *both* sequences is an isometry. Alignment queries
    /// (Example 1.2's "shift the momentum of PCG two days") and hedging
    /// queries ("opposite way") compare the transformed data against the
    /// *untransformed* query; this is also the literal reading of
    /// Algorithm 1's step 2, which builds the search rectangle around `q`
    /// itself.
    pub fn distance_data_only(&self, x: &SeqFeatures, q: &SeqFeatures) -> f64 {
        self.spectral_distance(x, q, |f| {
            let (rx, tx) = x.polar[f];
            let (rq, tq) = q.polar[f];
            let ra = self.spec_a[2 * f] * rx + self.spec_b[2 * f];
            let ta = self.spec_a[2 * f + 1] * tx + self.spec_b[2 * f + 1];
            ra * ra + rq * rq - 2.0 * ra * rq * (ta - tq).cos()
        })
    }

    /// `sqrt(Σ_f term(f))` over the spectrum. When the transformation and
    /// both sides are conjugate-symmetric, coefficient `n−f` contributes
    /// the same as `f` (Eq. 6), so only half the spectrum is visited.
    fn spectral_distance(
        &self,
        x: &SeqFeatures,
        q: &SeqFeatures,
        term: impl Fn(usize) -> f64,
    ) -> f64 {
        let n = x.len();
        debug_assert!(q.len() == n && self.seq_len() == n);
        let acc = if self.symmetric && x.conj_symmetric && q.conj_symmetric {
            let mut acc = term(0);
            for f in 1..n.div_ceil(2) {
                acc += 2.0 * term(f);
            }
            if n.is_multiple_of(2) {
                acc += term(n / 2);
            }
            acc
        } else {
            (0..n).map(term).sum()
        };
        acc.max(0.0).sqrt()
    }
}

/// A named, ordered set of transformations — the `T` of Query 1.
#[derive(Clone, Debug)]
pub struct Family {
    name: String,
    transforms: Vec<Transform>,
}

impl Family {
    /// Wraps explicit transformations.
    pub fn new(name: impl Into<String>, transforms: Vec<Transform>) -> Self {
        assert!(
            !transforms.is_empty(),
            "a family needs at least one transformation"
        );
        let n = transforms[0].seq_len();
        assert!(
            transforms.iter().all(|t| t.seq_len() == n),
            "all transformations must target one sequence length"
        );
        Self {
            name: name.into(),
            transforms,
        }
    }

    /// `m`-day circular moving averages for `m ∈ range` (the workload of
    /// Figures 5–9).
    ///
    /// ```
    /// use simquery::transform::Family;
    /// let family = Family::moving_averages(10..=25, 128);
    /// assert_eq!(family.len(), 16);
    /// assert_eq!(family.transforms()[0].label(), "mv10");
    /// ```
    pub fn moving_averages(range: RangeInclusive<usize>, n: usize) -> Self {
        let transforms: Vec<Transform> = range
            .clone()
            .map(|m| Transform::moving_average(m, n))
            .collect();
        Self::new(format!("mv{}-{}", range.start(), range.end()), transforms)
    }

    /// Exact circular shifts for `s ∈ range`.
    pub fn circular_shifts(range: RangeInclusive<usize>, n: usize) -> Self {
        let transforms: Vec<Transform> = range
            .clone()
            .map(|s| Transform::circular_shift(s, n))
            .collect();
        Self::new(
            format!("shift{}-{}", range.start(), range.end()),
            transforms,
        )
    }

    /// Scalings by the given factors (Lemma 2's ordered family).
    pub fn scalings(factors: &[f64], n: usize) -> Self {
        let transforms: Vec<Transform> =
            factors.iter().map(|&k| Transform::scaling(k, n)).collect();
        Self::new("scalings", transforms)
    }

    /// Momentum transforms (circular) for the given lags.
    pub fn momenta(lags: RangeInclusive<usize>, n: usize) -> Self {
        let transforms: Vec<Transform> = lags.clone().map(|l| Transform::momentum(l, n)).collect();
        Self::new(format!("mom{}-{}", lags.start(), lags.end()), transforms)
    }

    /// Appends the inverted version of every member ("we later added the
    /// inverted version of each transformation", §5.2) — creates the
    /// two-cluster family of Fig. 9.
    pub fn with_inverted(&self) -> Self {
        let n = self.transforms[0].seq_len();
        let inv = Transform::inversion(n);
        let mut transforms = self.transforms.clone();
        transforms.extend(self.transforms.iter().map(|t| inv.compose(t)));
        Self {
            name: format!("{}±", self.name),
            transforms,
        }
    }

    /// The composed family `self ∘ inner` — every `t₂(t₁)` pair (Eq. 11).
    pub fn compose(&self, inner: &Family) -> Self {
        let transforms: Vec<Transform> = self
            .transforms
            .iter()
            .flat_map(|t2| inner.transforms.iter().map(move |t1| t2.compose(t1)))
            .collect();
        Self {
            name: format!("{}({})", self.name, inner.name),
            transforms,
        }
    }

    /// Family name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The transformations.
    pub fn transforms(&self) -> &[Transform] {
        &self.transforms
    }

    /// Number of member transformations (`|T|`).
    pub fn len(&self) -> usize {
        self.transforms.len()
    }

    /// Families are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// A sub-family of the first `k` members (experiment sweeps vary |T|).
    pub fn take(&self, k: usize) -> Self {
        assert!(k >= 1 && k <= self.len(), "take({k}) out of range");
        Self {
            name: self.name.clone(),
            transforms: self.transforms[..k].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::SeqFeatures;
    use tseries::{euclidean, momentum_circular, moving_average_circular, scale, TimeSeries};

    fn sample(seed: f64) -> TimeSeries {
        (0..128)
            .map(|t| (t as f64 * 0.19 + seed).sin() * 4.0 + (t as f64 * 0.031).cos() + seed)
            .collect()
    }

    /// D(t(x̂), t(q̂)) computed fully in the time domain.
    fn time_domain_distance(
        op: impl Fn(&TimeSeries) -> TimeSeries,
        x: &TimeSeries,
        q: &TimeSeries,
    ) -> f64 {
        let nx = x.normal_form().unwrap().series;
        let nq = q.normal_form().unwrap().series;
        euclidean(&op(&nx), &op(&nq))
    }

    #[test]
    fn moving_average_matches_time_domain() {
        let (x, q) = (sample(0.0), sample(1.3));
        let fx = SeqFeatures::extract(&x).unwrap();
        let fq = SeqFeatures::extract(&q).unwrap();
        for m in [1usize, 2, 5, 9, 19, 40] {
            let t = Transform::moving_average(m, 128);
            let got = t.transformed_distance(&fx, &fq);
            let want = time_domain_distance(|s| moving_average_circular(s, m), &x, &q);
            assert!((got - want).abs() < 1e-8, "mv{m}: {got} vs {want}");
        }
    }

    #[test]
    fn momentum_matches_time_domain() {
        let (x, q) = (sample(0.4), sample(2.0));
        let fx = SeqFeatures::extract(&x).unwrap();
        let fq = SeqFeatures::extract(&q).unwrap();
        for lag in [1usize, 2, 5] {
            let t = Transform::momentum(lag, 128);
            let got = t.transformed_distance(&fx, &fq);
            let want = time_domain_distance(|s| momentum_circular(s, lag), &x, &q);
            assert!((got - want).abs() < 1e-8, "mom{lag}: {got} vs {want}");
        }
    }

    #[test]
    fn circular_shift_preserves_pairwise_distance() {
        // A rotation is an isometry: distances between two spectra are
        // unchanged when *both* are rotated.
        let (x, q) = (sample(0.2), sample(1.7));
        let fx = SeqFeatures::extract(&x).unwrap();
        let fq = SeqFeatures::extract(&q).unwrap();
        let base = fx.distance(&fq);
        for s in [0usize, 1, 2, 7] {
            let t = Transform::circular_shift(s, 128);
            let got = t.transformed_distance(&fx, &fq);
            assert!((got - base).abs() < 1e-8, "shift{s}: {got} vs {base}");
        }
    }

    #[test]
    fn scaling_scales_distance_linearly() {
        let (x, q) = (sample(0.0), sample(0.9));
        let fx = SeqFeatures::extract(&x).unwrap();
        let fq = SeqFeatures::extract(&q).unwrap();
        let base = fx.distance(&fq);
        for k in [0.5, 2.0, 7.0] {
            let t = Transform::scaling(k, 128);
            assert!((t.transformed_distance(&fx, &fq) - k * base).abs() < 1e-8);
        }
        // Time-domain cross-check.
        let want = time_domain_distance(|s| scale(s, 3.0), &x, &q);
        let got = Transform::scaling(3.0, 128).transformed_distance(&fx, &fq);
        assert!((got - want).abs() < 1e-8);
    }

    #[test]
    fn inversion_is_isometric_on_pairs_and_flips_sign() {
        let (x, q) = (sample(0.1), sample(2.5));
        let fx = SeqFeatures::extract(&x).unwrap();
        let fq = SeqFeatures::extract(&q).unwrap();
        let t = Transform::inversion(128);
        // D(−x, −q) = D(x, q).
        assert!((t.transformed_distance(&fx, &fq) - fx.distance(&fq)).abs() < 1e-8);
        // Inverting only one side: spectrum of t(x) equals spectrum of −x̂.
        let tx = t.apply_spectrum(&fx.spectrum);
        let minus = SeqFeatures::extract(&x.map(|v| -v)).unwrap();
        // −x has mean −μ and the same σ; its normal form is −x̂.
        for (a, b) in tx.iter().zip(&minus.spectrum) {
            assert!((*a - *b).abs() < 1e-8);
        }
    }

    #[test]
    fn composition_matches_sequential_application() {
        // Eq. 10: t₂(t₁(X)) computed by the composed transform equals
        // applying the two in sequence.
        let x = sample(0.7);
        let fx = SeqFeatures::extract(&x).unwrap();
        let t1 = Transform::circular_shift(2, 128);
        let t2 = Transform::moving_average(10, 128);
        let composed = t2.compose(&t1);
        let seq = t2.apply_spectrum(&t1.apply_spectrum(&fx.spectrum));
        let direct = composed.apply_spectrum(&fx.spectrum);
        for (a, b) in seq.iter().zip(&direct) {
            assert!((*a - *b).abs() < 1e-8);
        }
    }

    #[test]
    fn composition_distance_matches_time_domain_pipeline() {
        let (x, q) = (sample(0.0), sample(1.1));
        let fx = SeqFeatures::extract(&x).unwrap();
        let fq = SeqFeatures::extract(&q).unwrap();
        let composed = Transform::moving_average(10, 128).compose(&Transform::momentum(1, 128));
        let got = composed.transformed_distance(&fx, &fq);
        let want = time_domain_distance(
            |s| moving_average_circular(&momentum_circular(s, 1), 10),
            &x,
            &q,
        );
        assert!((got - want).abs() < 1e-8, "{got} vs {want}");
    }

    #[test]
    fn feature_action_mirrors_spectrum_action() {
        let x = sample(0.3);
        let fx = SeqFeatures::extract(&x).unwrap();
        for t in [
            Transform::moving_average(7, 128),
            Transform::momentum(1, 128),
            Transform::circular_shift(3, 128),
            Transform::scaling(2.5, 128),
        ] {
            let p = t.apply_point(&fx.point);
            let spec = t.apply_spectrum(&fx.spectrum);
            // Magnitude dims: transformed point magnitude == |t(X)_f|
            // (angles may differ by 2π wraps; compare via cis).
            for (k, (&md, &ad)) in MAG_DIMS.iter().zip(&ANGLE_DIMS).enumerate() {
                let f = k + 1;
                assert!(
                    (p[md].abs() - spec[f].abs()).abs() < 1e-9,
                    "{} mag",
                    t.label()
                );
                let a = Complex64::cis(p[ad]);
                let b = Complex64::cis(spec[f].arg());
                assert!((a - b).abs() < 1e-9, "{} angle", t.label());
            }
        }
    }

    #[test]
    fn mv1_is_identity() {
        let x = sample(0.0);
        let fx = SeqFeatures::extract(&x).unwrap();
        let t = Transform::moving_average(1, 128);
        let spec = t.apply_spectrum(&fx.spectrum);
        for (a, b) in spec.iter().zip(&fx.spectrum) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn paper_shift_approximates_real_shift_for_long_sequences() {
        // §3.1.2's approximation: compare against the zero-pad shift in the
        // time domain. They should roughly agree (loose tolerance — it is
        // an approximation).
        let (x, q) = (sample(0.0), sample(0.05));
        let fx = SeqFeatures::extract(&x).unwrap();
        let fq = SeqFeatures::extract(&q).unwrap();
        let t = Transform::paper_shift(2, 128);
        let got = t.transformed_distance(&fx, &fq);
        // Shifting both sides by the same amount is near-isometric.
        let base = fx.distance(&fq);
        assert!((got - base).abs() / base < 0.05, "got {got}, base {base}");
    }

    #[test]
    fn family_builders() {
        let f = Family::moving_averages(10..=25, 128);
        assert_eq!(f.len(), 16);
        assert_eq!(f.transforms()[0].label(), "mv10");
        let f2 = f.with_inverted();
        assert_eq!(f2.len(), 32);
        let sub = f.take(4);
        assert_eq!(sub.len(), 4);
        let comp = Family::moving_averages(1..=3, 64).compose(&Family::circular_shifts(0..=1, 64));
        assert_eq!(comp.len(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_family_rejected() {
        Family::new("empty", vec![]);
    }

    #[test]
    fn weighted_ma_generalises_plain_ma() {
        // Equal weights == plain moving average.
        let (x, q) = (sample(0.0), sample(1.0));
        let fx = SeqFeatures::extract(&x).unwrap();
        let fq = SeqFeatures::extract(&q).unwrap();
        let plain = Transform::moving_average(7, 128);
        let weighted = Transform::weighted_moving_average(&[1.0; 7], 128);
        assert!(
            (plain.transformed_distance(&fx, &fq) - weighted.transformed_distance(&fx, &fq)).abs()
                < 1e-9
        );
        // Triangular weights: still a valid smoothing (distance between
        // smoothed versions is below the raw distance for smooth pairs).
        let tri = Transform::weighted_moving_average(&[3.0, 2.0, 1.0], 128);
        assert!(tri.transformed_distance(&fx, &fq).is_finite());
    }

    #[test]
    fn ema_matches_time_domain_filter() {
        let x = sample(0.3);
        let fx = SeqFeatures::extract(&x).unwrap();
        let alpha = 0.25;
        let t = Transform::exponential_moving_average(alpha, 128);
        let spec = t.apply_spectrum(&fx.spectrum);
        // Time-domain circular EMA via direct convolution with the
        // truncated geometric mask.
        let nx = x.normal_form().unwrap().series;
        let mut mask = vec![0.0; 128];
        let mut w = alpha;
        let mut i = 0;
        let mut total = 0.0;
        while w > 1e-12 && i < 128 {
            mask[i] = w;
            total += w;
            w *= 1.0 - alpha;
            i += 1;
        }
        for m in &mut mask {
            *m /= total;
        }
        let expect = tsfft::convolve_circular(nx.values(), &mask);
        let got: Vec<f64> = tsfft::ifft(&spec).iter().map(|c| c.re).collect();
        for (a, b) in got.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn time_reverse_matches_time_domain() {
        let x = sample(0.9);
        let fx = SeqFeatures::extract(&x).unwrap();
        let t = Transform::time_reverse(128);
        let got: Vec<f64> = tsfft::ifft(&t.apply_spectrum(&fx.spectrum))
            .iter()
            .map(|c| c.re)
            .collect();
        let nx = x.normal_form().unwrap().series;
        for (i, g) in got.iter().enumerate() {
            let want = nx[(128 - i) % 128];
            assert!((g - want).abs() < 1e-8, "t={i}: {g} vs {want}");
        }
        // A palindromic sequence is a fixed point (data-only distance 0).
        let pal: TimeSeries = (0..128)
            .map(|t| ((t as f64 - 64.0).abs() * 0.1).sin() * 3.0 + (t as f64 * 0.0))
            .collect();
        let fp = SeqFeatures::extract(&pal).unwrap();
        // pal[t] vs pal[(n−t) mod n]: pal is symmetric about 64 except the
        // wrap; check distance is small relative to the sequence energy.
        let d = t.distance_data_only(&fp, &fp);
        assert!(
            d < 2.0,
            "near-palindrome should nearly match its reverse: {d}"
        );
    }

    #[test]
    fn band_pass_zeroes_out_of_band_energy() {
        let x = sample(0.2);
        let fx = SeqFeatures::extract(&x).unwrap();
        let t = Transform::band_pass(1, 4, 128);
        let spec = t.apply_spectrum(&fx.spectrum);
        for (f, c) in spec.iter().enumerate() {
            let mirrored = if f == 0 { 0 } else { 128 - f };
            let in_band = (1..=4).contains(&f) || (1..=4).contains(&mirrored);
            if in_band {
                assert!((c.abs() - fx.spectrum[f].abs()).abs() < 1e-12);
            } else {
                assert!(c.abs() < 1e-12, "bin {f} should be zeroed");
            }
        }
        // Band-passed signals are real (mirrors kept symmetrically).
        let back = tsfft::ifft(&spec);
        assert!(back.iter().all(|c| c.im.abs() < 1e-9));
    }

    #[test]
    fn new_transforms_are_symmetric_and_safe_in_queries() {
        // All four participate in families and keep MT ≡ scan (Safe policy
        // equivalence is asserted at engine level; here: Lemma-1 style
        // containment of the composed MBR).
        let n = 64;
        let fam = Family::new(
            "mixed",
            vec![
                Transform::weighted_moving_average(&[2.0, 1.0], n),
                Transform::exponential_moving_average(0.5, n),
                Transform::time_reverse(n),
                Transform::band_pass(1, 6, n),
            ],
        );
        let mbr = crate::tmbr::TransformMbr::of_family(&fam);
        let p: crate::feature::FeatureVec = [1.0, 2.0, 0.7, -0.9, 0.4, 2.2];
        let rect = mbr.apply_to_point(&p);
        for t in fam.transforms() {
            let tp = t.apply_point(&p);
            for (i, v) in tp.iter().enumerate() {
                assert!(
                    rect.lo[i] - 1e-9 <= *v && *v <= rect.hi[i] + 1e-9,
                    "{}: dim {i}",
                    t.label()
                );
            }
        }
    }

    #[test]
    fn apply_rect_handles_negative_multipliers() {
        let t = Transform::scaling(-2.0, 16);
        // Feature dim 0 has a = −2: corners must swap.
        let rect = rstartree::Rect::<DIMS>::new([1.0; DIMS], [2.0; DIMS]);
        let out = t.apply_rect(&rect);
        assert!(out.lo[0] <= out.hi[0]);
        assert_eq!(out.lo[0], -4.0);
        assert_eq!(out.hi[0], -2.0);
    }
}
