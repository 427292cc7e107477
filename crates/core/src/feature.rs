//! The 6-dimensional feature space of §5.
//!
//! For every sequence the paper stores, in this order:
//!
//! | dim | content |
//! |-----|---------|
//! | 0 | mean of the original sequence |
//! | 1 | (sample) standard deviation of the original sequence |
//! | 2 | magnitude of DFT coefficient 1 of the **normal form** |
//! | 3 | phase angle of DFT coefficient 1 |
//! | 4 | magnitude of DFT coefficient 2 |
//! | 5 | phase angle of DFT coefficient 2 |
//!
//! Coefficient 0 of a normal form is identically zero ("the first Fourier
//! coefficient is always zero, so we can throw it away") and is not stored.
//! The conjugate-symmetry property (Eq. 6) makes the two retained
//! coefficients bound the true distance *twice over* — the √2 shrink
//! applied to every search rectangle (see [`crate::query`]).

use rstartree::Rect;
use tseries::TimeSeries;
use tsfft::{Complex64, RfftPlan};

/// Number of feature dimensions.
pub const DIMS: usize = 6;
/// Number of retained DFT coefficients (coefficients `1..=COEFFS`).
pub const COEFFS: usize = 2;
/// Feature-space dimensions holding magnitudes.
pub const MAG_DIMS: [usize; COEFFS] = [2, 4];
/// Feature-space dimensions holding phase angles.
pub const ANGLE_DIMS: [usize; COEFFS] = [3, 5];

/// A point in the feature space.
pub type FeatureVec = [f64; DIMS];
/// A rectangle in the feature space.
pub type FRect = Rect<DIMS>;

/// Everything extracted from one sequence: the index point plus the full
/// normal-form spectrum used for exact distance computation.
#[derive(Clone, Debug)]
pub struct SeqFeatures {
    /// The 6-dimensional index point.
    pub point: FeatureVec,
    /// Mean of the original sequence.
    pub mean: f64,
    /// Sample standard deviation of the original sequence.
    pub std: f64,
    /// Full unitary DFT of the normal form (length `n`).
    pub spectrum: Vec<Complex64>,
    /// Polar form of every coefficient, cached for the hot distance loop
    /// (transformations act on magnitude/angle — §3.1.1).
    pub polar: Vec<(f64, f64)>,
    /// Whether the spectrum is conjugate-symmetric (Eq. 6) — true for every
    /// real sequence; prepared targets built from asymmetric transforms may
    /// lose it, disabling the half-spectrum distance fast path.
    pub conj_symmetric: bool,
}

impl SeqFeatures {
    /// Extracts features; `None` for degenerate (constant or too-short)
    /// sequences, which have no normal form.
    ///
    /// For an even length the two-for-one [`tsfft::rfft`] mirrors
    /// `X[n−f] = conj(X[f])` by construction, so the polar form is taken
    /// for `f ∈ 0..=n/2` only and mirrored as `(r_f, −θ_f)` — exact,
    /// `hypot` being even and `atan2` odd in the imaginary part — and
    /// conjugate symmetry is known, not measured. The result is bit for
    /// bit [`Self::from_spectrum`] of that spectrum, which matters:
    /// [`crate::index::SeqIndex::delete_series`] finds a tree entry by
    /// recomputing its point.
    pub fn extract(ts: &TimeSeries) -> Option<Self> {
        let n = ts.len();
        if n <= 2 * COEFFS {
            return None;
        }
        let nf = ts.normal_form()?;
        let spectrum = tsfft::rfft(nf.series.values());
        if !n.is_multiple_of(2) {
            return Some(Self::from_spectrum(spectrum, nf.mean, nf.std));
        }
        let mut polar = vec![(0.0, 0.0); n];
        for f in 0..=n / 2 {
            polar[f] = spectrum[f].to_polar();
        }
        for f in 1..n / 2 {
            polar[n - f] = (polar[f].0, -polar[f].1);
        }
        Some(Self::assemble(spectrum, polar, true, nf.mean, nf.std))
    }

    /// Builds features directly from a spectrum — for *prepared* query
    /// targets, e.g. comparing candidates against a transformed version of
    /// a sequence (`mom(q̂)` in the Example 1.2 workflow). The index point
    /// is recomputed from the spectrum so filters and verification agree.
    /// Nobody vouches for such a spectrum, so its conjugate symmetry is
    /// checked coefficient by coefficient.
    pub fn from_spectrum(spectrum: Vec<Complex64>, mean: f64, std: f64) -> Self {
        assert!(
            spectrum.len() > 2 * COEFFS,
            "spectrum too short for the feature space"
        );
        let polar: Vec<(f64, f64)> = spectrum.iter().map(|c| c.to_polar()).collect();
        let n = spectrum.len();
        let scale: f64 = polar.iter().map(|(r, _)| r.abs()).fold(0.0, f64::max) + 1e-12;
        let conj_symmetric =
            (1..n).all(|f| (spectrum[f] - spectrum[n - f].conj()).abs() <= 1e-9 * scale);
        Self::assemble(spectrum, polar, conj_symmetric, mean, std)
    }

    fn assemble(
        spectrum: Vec<Complex64>,
        polar: Vec<(f64, f64)>,
        conj_symmetric: bool,
        mean: f64,
        std: f64,
    ) -> Self {
        Self {
            point: index_point(mean, std, |f| polar[f]),
            mean,
            std,
            spectrum,
            polar,
            conj_symmetric,
        }
    }

    /// Sequence length.
    pub fn len(&self) -> usize {
        self.spectrum.len()
    }

    /// True when the spectrum is empty (never produced by
    /// [`Self::extract`]).
    pub fn is_empty(&self) -> bool {
        self.spectrum.is_empty()
    }

    /// Exact Euclidean distance between the *normal forms* of the two
    /// underlying sequences (via Parseval, Eq. 8).
    pub fn distance(&self, other: &Self) -> f64 {
        debug_assert_eq!(self.len(), other.len());
        self.spectrum
            .iter()
            .zip(&other.spectrum)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            .sqrt()
    }
}

/// The index point of a sequence with mean `mean`, deviation `std` and
/// normal-form coefficients in polar form `polar(f)`.
fn index_point(mean: f64, std: f64, polar: impl Fn(usize) -> (f64, f64)) -> FeatureVec {
    let mut point = [0.0; DIMS];
    point[0] = mean;
    point[1] = std;
    for (k, (&md, &ad)) in MAG_DIMS.iter().zip(&ANGLE_DIMS).enumerate() {
        (point[md], point[ad]) = polar(k + 1);
    }
    point
}

/// The index point alone, for the build and mutation paths of
/// [`crate::index::SeqIndex`]: [`SeqFeatures::extract`]'s `point`, bit for
/// bit — the same normal form, the same first `n/2 + 1` coefficients
/// ([`RfftPlan::forward_half`] is [`tsfft::rfft`]'s there, any length)
/// and the same polar form of coefficients `1..=COEFFS` — with one plan
/// for every sequence of the length and no polar form of the rest.
/// `delete_series` finds a tree entry by this point, in an index built
/// with it or one an older build wrote through `extract`.
pub(crate) struct PointExtractor {
    plan: RfftPlan,
    samples: Vec<f64>,
    half: Vec<Complex64>,
}

impl PointExtractor {
    /// An extractor for sequences of length `n`.
    pub fn new(n: usize) -> Self {
        Self {
            plan: RfftPlan::new(n),
            samples: Vec::with_capacity(n),
            half: vec![Complex64::ZERO; n / 2 + 1],
        }
    }

    /// The index point of `ts`; `None` where [`SeqFeatures::extract`] is.
    ///
    /// # Panics
    ///
    /// Panics when `ts` is not of the extractor's length.
    pub fn point(&mut self, ts: &TimeSeries) -> Option<FeatureVec> {
        if ts.len() <= 2 * COEFFS {
            return None;
        }
        self.samples.clear();
        self.samples.extend_from_slice(ts.values());
        let (mean, std) = tseries::normalize_in_place(&mut self.samples)?;
        self.plan.forward_half(&self.samples, &mut self.half);
        Some(index_point(mean, std, |f| self.half[f].to_polar()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseries::euclidean;

    fn sample(seed: f64) -> TimeSeries {
        (0..128)
            .map(|t| (t as f64 * 0.13 + seed).sin() * 5.0 + seed + t as f64 * 0.02)
            .collect()
    }

    #[test]
    fn extract_layout_matches_paper() {
        let ts = sample(1.0);
        let f = SeqFeatures::extract(&ts).unwrap();
        assert!((f.point[0] - ts.mean()).abs() < 1e-12);
        assert!((f.point[1] - ts.std()).abs() < 1e-12);
        // Coefficient 0 of the normal form is ~0 (not stored).
        assert!(f.spectrum[0].abs() < 1e-9);
        // Stored polar coords match the spectrum.
        assert!((f.point[2] - f.spectrum[1].abs()).abs() < 1e-12);
        assert!((f.point[3] - f.spectrum[1].arg()).abs() < 1e-12);
        assert!((f.point[4] - f.spectrum[2].abs()).abs() < 1e-12);
        assert!((f.point[5] - f.spectrum[2].arg()).abs() < 1e-12);
    }

    /// `extract` takes the polar form of half the spectrum and mirrors
    /// it; the result must be the bits of the constructor that computes
    /// and checks everything — over even lengths (two of them not powers
    /// of two) and an odd one, which runs the general FFT path.
    #[test]
    fn extract_is_from_spectrum_bit_for_bit() {
        let mut rng = tseries::rng::SeededRng::seed_from_u64(0xB175);
        for len in [64usize, 100, 128, 130, 127] {
            for _ in 0..40 {
                let ts = tseries::random_walk(&mut rng, len, 500.0);
                let nf = ts.normal_form().unwrap();
                let want =
                    SeqFeatures::from_spectrum(tsfft::rfft(nf.series.values()), nf.mean, nf.std);
                let got = SeqFeatures::extract(&ts).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.point), bits(&want.point), "len {len}: point");
                assert_eq!(got.polar.len(), len);
                for (f, (g, w)) in got.polar.iter().zip(&want.polar).enumerate() {
                    assert_eq!(
                        (g.0.to_bits(), g.1.to_bits()),
                        (w.0.to_bits(), w.1.to_bits()),
                        "len {len}: polar[{f}]"
                    );
                }
                for (f, (g, w)) in got.spectrum.iter().zip(&want.spectrum).enumerate() {
                    assert_eq!(
                        (g.re.to_bits(), g.im.to_bits()),
                        (w.re.to_bits(), w.im.to_bits()),
                        "len {len}: spectrum[{f}]"
                    );
                }
                assert_eq!(
                    (got.mean.to_bits(), got.std.to_bits()),
                    (want.mean.to_bits(), want.std.to_bits())
                );
                assert!(got.conj_symmetric && want.conj_symmetric, "len {len}");
            }
        }
    }

    /// The build and mutation paths' point is `extract`'s, bit for bit,
    /// over one extractor per length — the tree entry `delete_series`
    /// looks for is the one the build stored.
    #[test]
    fn point_extractor_is_extract_bit_for_bit() {
        let mut rng = tseries::rng::SeededRng::seed_from_u64(0x9017);
        for len in [64usize, 100, 127, 128] {
            let mut points = PointExtractor::new(len);
            for _ in 0..40 {
                let ts = tseries::random_walk(&mut rng, len, 500.0);
                let want = SeqFeatures::extract(&ts).unwrap().point;
                let got = points.point(&ts).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "len {len}");
            }
            assert!(points.point(&TimeSeries::new(vec![7.0; len])).is_none());
        }
        assert!(PointExtractor::new(3)
            .point(&TimeSeries::new(vec![1.0, 2.0, 3.0]))
            .is_none());
    }

    #[test]
    fn degenerate_sequences_are_rejected() {
        assert!(SeqFeatures::extract(&TimeSeries::new(vec![7.0; 50])).is_none());
        assert!(SeqFeatures::extract(&TimeSeries::new(vec![1.0, 2.0, 3.0])).is_none());
        assert!(SeqFeatures::extract(&TimeSeries::default()).is_none());
    }

    #[test]
    fn distance_equals_time_domain_normal_form_distance() {
        let (a, b) = (sample(0.0), sample(2.0));
        let (fa, fb) = (
            SeqFeatures::extract(&a).unwrap(),
            SeqFeatures::extract(&b).unwrap(),
        );
        let want = euclidean(
            &a.normal_form().unwrap().series,
            &b.normal_form().unwrap().series,
        );
        assert!((fa.distance(&fb) - want).abs() < 1e-8);
    }

    #[test]
    fn feature_point_lower_bounds_distance() {
        // √2 · (truncated feature distance on DFT dims) ≤ true distance.
        let (a, b) = (sample(0.5), sample(3.0));
        let (fa, fb) = (
            SeqFeatures::extract(&a).unwrap(),
            SeqFeatures::extract(&b).unwrap(),
        );
        let partial: f64 = (1..=COEFFS)
            .map(|k| (fa.spectrum[k] - fb.spectrum[k]).norm_sqr())
            .sum();
        assert!((2.0 * partial).sqrt() <= fa.distance(&fb) + 1e-9);
    }
}
