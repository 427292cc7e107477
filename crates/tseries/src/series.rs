//! The sequence type, its statistics, and the normal form of §3.2.

use std::fmt;
use std::ops::Index;

/// A finite real-valued time sequence.
#[derive(Clone, PartialEq, Default)]
pub struct TimeSeries(Vec<f64>);

impl TimeSeries {
    /// Wraps a vector of samples.
    pub fn new(values: Vec<f64>) -> Self {
        Self(values)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The samples.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Consumes into the sample vector.
    pub fn into_values(self) -> Vec<f64> {
        self.0
    }

    /// Arithmetic mean; 0 for an empty series.
    pub fn mean(&self) -> f64 {
        mean_of(&self.0)
    }

    /// Sample variance (the `n − 1` denominator); 0 when `len < 2`.
    ///
    /// The paper's normal form and its cross-correlation bridge (Eq. 9)
    /// both use the *sample* standard deviation — see
    /// [`crate::cross_correlation`].
    pub fn variance(&self) -> f64 {
        variance_about(&self.0, self.mean())
    }

    /// Sample standard deviation.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The normal form: `(x − μ)/σ` (§3.2, the transformation
    /// `(1/σ, −μ/σ)`), together with the recorded `μ` and `σ`.
    ///
    /// Returns `None` for degenerate series (fewer than 2 samples, or
    /// constant): the normal form divides by σ.
    pub fn normal_form(&self) -> Option<NormalForm> {
        let mut values = self.0.clone();
        let (mean, std) = normalize_in_place(&mut values)?;
        Some(NormalForm {
            series: TimeSeries(values),
            mean,
            std,
        })
    }

    /// Element-wise map into a new series.
    pub fn map(&self, f: impl FnMut(&f64) -> f64) -> Self {
        Self(self.0.iter().map(f).collect())
    }
}

fn mean_of(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

fn variance_about(values: &[f64], mu: f64) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    values.iter().map(|v| (v - mu) * (v - mu)).sum::<f64>() / (n - 1) as f64
}

/// Overwrites `values` with their normal form `(x − μ)/σ` and returns
/// `(μ, σ)` — [`TimeSeries::normal_form`] for a caller that normalises
/// record after record in one buffer. `None`, with `values` untouched,
/// for a degenerate sequence.
pub fn normalize_in_place(values: &mut [f64]) -> Option<(f64, f64)> {
    let mu = mean_of(values);
    let sigma = variance_about(values, mu).sqrt();
    if sigma <= 0.0 || !sigma.is_finite() {
        return None;
    }
    for v in values.iter_mut() {
        *v = (*v - mu) / sigma;
    }
    Some((mu, sigma))
}

impl Index<usize> for TimeSeries {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl From<Vec<f64>> for TimeSeries {
    fn from(v: Vec<f64>) -> Self {
        Self(v)
    }
}

impl FromIterator<f64> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self(iter.into_iter().collect())
    }
}

impl fmt::Debug for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.len() <= 8 {
            write!(f, "TimeSeries({:?})", self.0)
        } else {
            write!(
                f,
                "TimeSeries(len={}, head={:?}…)",
                self.0.len(),
                &self.0[..4]
            )
        }
    }
}

/// A normalised sequence with the statistics needed to undo the
/// normalisation — the paper stores exactly this triple in the relation
/// ("its normal form along with its mean and standard deviation", §3.2).
#[derive(Clone, Debug, PartialEq)]
pub struct NormalForm {
    /// The zero-mean, unit-sample-std sequence.
    pub series: TimeSeries,
    /// Mean of the original sequence.
    pub mean: f64,
    /// Sample standard deviation of the original sequence.
    pub std: f64,
}

impl NormalForm {
    /// Reconstructs the original sequence.
    pub fn denormalize(&self) -> TimeSeries {
        self.series.map(|v| v * self.std + self.mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        let ts = TimeSeries::new(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((ts.mean() - 5.0).abs() < 1e-12);
        // Σ(x−5)² = 32 → sample var = 32/7
        assert!((ts.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_are_degenerate() {
        assert_eq!(TimeSeries::default().mean(), 0.0);
        assert_eq!(TimeSeries::new(vec![5.0]).variance(), 0.0);
        assert!(TimeSeries::new(vec![5.0]).normal_form().is_none());
        assert!(TimeSeries::new(vec![3.0; 10]).normal_form().is_none());
    }

    #[test]
    fn normal_form_has_zero_mean_unit_std() {
        let ts = TimeSeries::new(
            (0..128)
                .map(|t| (t as f64 * 0.1).sin() * 7.0 + 3.0)
                .collect(),
        );
        let nf = ts.normal_form().unwrap();
        assert!(nf.series.mean().abs() < 1e-12);
        assert!((nf.series.std() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn in_place_normal_form_is_the_normal_form() {
        let ts = TimeSeries::new(
            (0..100)
                .map(|t| (t as f64 * 0.37).cos() * 9.0 + t as f64)
                .collect(),
        );
        let mut values = ts.values().to_vec();
        let (mu, sigma) = normalize_in_place(&mut values).unwrap();
        assert_eq!(mu.to_bits(), ts.mean().to_bits());
        assert_eq!(sigma.to_bits(), ts.std().to_bits());
        assert_eq!(values, ts.normal_form().unwrap().series.values());
        let mut flat = [4.0; 9];
        assert!(normalize_in_place(&mut flat).is_none());
        assert_eq!(flat, [4.0; 9]);
    }

    #[test]
    fn denormalize_roundtrips() {
        let ts = TimeSeries::new(vec![10.0, 12.0, 10.0, 12.0, 9.0]);
        let back = ts.normal_form().unwrap().denormalize();
        for (a, b) in ts.values().iter().zip(back.values()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn normal_form_is_shift_scale_invariant() {
        // Goldin–Kanellakis: normal forms are invariant to shifts/scales.
        let base = TimeSeries::new((0..64).map(|t| ((t * t) % 13) as f64).collect());
        let shifted = base.map(|v| 3.0 * v - 17.0);
        let a = base.normal_form().unwrap();
        let b = shifted.normal_form().unwrap();
        for (x, y) in a.series.values().iter().zip(b.series.values()) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn debug_is_compact_for_long_series() {
        let ts = TimeSeries::new(vec![0.0; 100]);
        let s = format!("{ts:?}");
        assert!(s.contains("len=100"));
        assert!(s.len() < 100);
    }
}
