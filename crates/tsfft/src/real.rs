//! Helpers for real-valued sequences — the case the paper actually indexes.
//!
//! For a real sequence, the spectrum is conjugate-symmetric (Eq. 6):
//! `X[n−f] = conj(X[f])`, hence `|X[n−f]| = |X[f]|`. The paper's thesis-level
//! improvement (§2.1) is that the *last* few coefficients therefore carry the
//! same energy as the first few, so retaining `k` low-frequency coefficients
//! actually lower-bounds the distance with a factor √2:
//!
//! ```text
//! D²(x, y) ≥ 2 · Σ_{f=1..k} |X_f − Y_f|²      (for zero-mean sequences)
//! ```
//!
//! [`RealDft::distance_lower_bound_sq`] exposes exactly that bound and
//! `simquery` uses it to shrink every search rectangle by √2.

use crate::{ifft, rfft, Complex64};

/// Signal energy in the time domain — Eq. 2.
pub fn energy(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum()
}

/// Signal energy in the frequency domain.
pub fn energy_complex(x: &[Complex64]) -> f64 {
    x.iter().map(|v| v.norm_sqr()).sum()
}

/// The DFT of a real-valued sequence, with symmetry-aware accessors.
#[derive(Clone, Debug)]
pub struct RealDft {
    coeffs: Vec<Complex64>,
    n: usize,
}

impl RealDft {
    /// Transforms a real sequence into the frequency domain (via the
    /// two-for-one real-input FFT).
    pub fn forward(x: &[f64]) -> Self {
        Self {
            coeffs: rfft(x),
            n: x.len(),
        }
    }

    /// Wraps an already-computed full spectrum of a real sequence.
    pub fn from_spectrum(coeffs: Vec<Complex64>) -> Self {
        let n = coeffs.len();
        Self { coeffs, n }
    }

    /// Sequence length `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the zero-length transform.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// All `n` complex coefficients.
    pub fn coeffs(&self) -> &[Complex64] {
        &self.coeffs
    }

    /// Mutable access, for applying frequency-domain transformations.
    pub fn coeffs_mut(&mut self) -> &mut [Complex64] {
        &mut self.coeffs
    }

    /// Coefficient `f` (0-based; `f = 0` is the DC term).
    pub fn coeff(&self, f: usize) -> Complex64 {
        self.coeffs[f]
    }

    /// Inverse transform back to a real sequence.
    ///
    /// The imaginary residue (numerical noise, or evidence the spectrum was
    /// edited into something non-symmetric) is discarded.
    pub fn inverse(&self) -> Vec<f64> {
        ifft(&self.coeffs).into_iter().map(|c| c.re).collect()
    }

    /// Checks conjugate symmetry (Eq. 6) within `eps`. Always true for
    /// spectra produced by [`Self::forward`]; editing coefficients can
    /// break it.
    pub fn is_conjugate_symmetric(&self, eps: f64) -> bool {
        (1..self.n).all(|f| (self.coeffs[f] - self.coeffs[self.n - f].conj()).abs() <= eps)
    }

    /// Energy of the spectrum; by Parseval (Eq. 7) equals the time-domain
    /// energy.
    pub fn energy(&self) -> f64 {
        energy_complex(&self.coeffs)
    }

    /// Squared Euclidean distance to another spectrum over *all*
    /// coefficients; by Eq. 8 this equals the time-domain squared distance.
    pub fn distance_sq(&self, other: &Self) -> f64 {
        assert_eq!(self.n, other.n, "spectra must have equal length");
        self.coeffs
            .iter()
            .zip(&other.coeffs)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum()
    }

    /// Symmetry-boosted lower bound on the squared distance using only
    /// coefficients `1..=k` (the ones the index stores):
    /// every retained coefficient `f ∈ 1..=k` has a mirror `n−f` with the
    /// same difference magnitude, so the partial sum counts **twice**.
    ///
    /// Requires `2k < n` so a coefficient and its mirror are never both
    /// counted (the paper keeps k = 2 of n = 128).
    pub fn distance_lower_bound_sq(&self, other: &Self, k: usize) -> f64 {
        assert_eq!(self.n, other.n, "spectra must have equal length");
        assert!(
            2 * k < self.n,
            "k too large for symmetry bound: 2·{k} ≥ {}",
            self.n
        );
        let partial: f64 = (1..=k)
            .map(|f| (self.coeffs[f] - other.coeffs[f]).norm_sqr())
            .sum();
        2.0 * partial
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<f64> {
        (0..128)
            .map(|t| (t as f64 * 0.17).sin() * 3.0 + (t as f64 * 0.02).cos())
            .collect()
    }

    #[test]
    fn parseval_holds() {
        let x = sample();
        let d = RealDft::forward(&x);
        assert!((energy(&x) - d.energy()).abs() < 1e-8);
    }

    #[test]
    fn symmetry_holds_for_real_input() {
        let d = RealDft::forward(&sample());
        assert!(d.is_conjugate_symmetric(1e-9));
    }

    #[test]
    fn symmetry_detects_violation() {
        let mut d = RealDft::forward(&sample());
        d.coeffs_mut()[1] += Complex64::new(0.5, 0.5);
        assert!(!d.is_conjugate_symmetric(1e-3));
    }

    #[test]
    fn roundtrip_recovers_signal() {
        let x = sample();
        let back = RealDft::forward(&x).inverse();
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn distance_preserved_across_domains() {
        // Eq. 8: D(x, y) = D(X, Y).
        let x = sample();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(t, v)| v + (t as f64 * 0.4).sin())
            .collect();
        let dx = RealDft::forward(&x);
        let dy = RealDft::forward(&y);
        let dt: f64 = x.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum();
        assert!((dt - dx.distance_sq(&dy)).abs() < 1e-8);
    }

    #[test]
    fn lower_bound_is_a_lower_bound_and_doubles() {
        let x = sample();
        let y: Vec<f64> = x.iter().map(|v| v * 1.1 + 0.3).collect();
        let dx = RealDft::forward(&x);
        let dy = RealDft::forward(&y);
        let full = dx.distance_sq(&dy);
        for k in 1..8 {
            let lb = dx.distance_lower_bound_sq(&dy, k);
            assert!(lb <= full + 1e-9, "k={k}: {lb} > {full}");
            // And it is exactly twice the one-sided partial sum.
            let one_sided: f64 = (1..=k)
                .map(|f| (dx.coeff(f) - dy.coeff(f)).norm_sqr())
                .sum();
            assert!((lb - 2.0 * one_sided).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "k too large")]
    fn lower_bound_rejects_overlapping_mirror() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let d = RealDft::forward(&x);
        let _ = d.distance_lower_bound_sq(&d.clone(), 2); // 2k = 4 = n
    }

    #[test]
    fn energy_empty_is_zero() {
        assert_eq!(energy(&[]), 0.0);
        let d = RealDft::forward(&[]);
        assert!(d.is_empty());
        assert_eq!(d.energy(), 0.0);
    }
}
