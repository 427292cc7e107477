//! Real-input FFT: an `n`-point real transform computed via an
//! `n/2`-point complex FFT plus an O(n) untangling pass — the classic
//! two-for-one trick. Feature extraction transforms a real sequence on
//! every record fetch, so this roughly halves the engine's hottest
//! substrate cost.
//!
//! Everything that depends on the length alone — the untangle pass's
//! `n/2` twiddles, the butterfly stages' twiddles — lives in an
//! [`RfftPlan`]; a caller transforming many sequences of one length (a
//! query verifying its candidates) builds the plan once. [`rfft`] is a
//! plan used once, so the two cannot disagree.

use crate::fft::{fft, is_power_of_two, radix2_twiddles, radix2_with, Direction};
use crate::Complex64;

/// Forward unitary DFT of a real signal; returns the full `n`-coefficient
/// (conjugate-symmetric) spectrum. Even lengths use the two-for-one
/// algorithm; odd lengths fall back to the general complex path.
///
/// ```
/// let x: Vec<f64> = (0..8).map(|t| t as f64).collect();
/// let spectrum = tsfft::rfft(&x);
/// // Parseval: unitary transform preserves energy.
/// let e_time: f64 = x.iter().map(|v| v * v).sum();
/// let e_freq: f64 = spectrum.iter().map(|c| c.norm_sqr()).sum();
/// assert!((e_time - e_freq).abs() < 1e-9);
/// ```
pub fn rfft(x: &[f64]) -> Vec<Complex64> {
    RfftPlan::new(x.len()).forward(x)
}

/// The real-input FFT of one length `n`, with its tables and scratch.
pub struct RfftPlan {
    n: usize,
    /// `e^{−j2πk/n}` for `k ∈ 0..n/2`; empty when the two-for-one
    /// algorithm does not apply (`n` odd or below 2).
    untangle: Vec<Complex64>,
    /// Butterfly twiddles of the half-length transform; empty when `n/2`
    /// is not a power of two (that transform then goes through [`fft`]).
    stages: Vec<Complex64>,
    /// The packed half-length signal, reused from call to call.
    z: Vec<Complex64>,
}

impl RfftPlan {
    /// Tabulates the twiddles for signals of length `n`.
    pub fn new(n: usize) -> Self {
        let m = n / 2;
        let two_for_one = n >= 2 && n.is_multiple_of(2);
        let step = -2.0 * std::f64::consts::PI / n as f64;
        Self {
            n,
            untangle: (0..if two_for_one { m } else { 0 })
                .map(|k| Complex64::cis(step * k as f64))
                .collect(),
            stages: if two_for_one && is_power_of_two(m) {
                radix2_twiddles(m, Direction::Forward)
            } else {
                Vec::new()
            },
            z: Vec::new(),
        }
    }

    /// The full spectrum of `x` — what [`rfft`] returns.
    ///
    /// # Panics
    ///
    /// Panics when `x.len()` is not the plan's length.
    pub fn forward(&mut self, x: &[f64]) -> Vec<Complex64> {
        assert_eq!(x.len(), self.n, "signal length differs from the plan's");
        if self.untangle.is_empty() {
            return fft(&x
                .iter()
                .copied()
                .map(Complex64::from_real)
                .collect::<Vec<_>>());
        }
        let (n, m) = (self.n, self.n / 2);
        let mut out = vec![Complex64::ZERO; n];
        self.forward_half(x, &mut out[..=m]);
        for k in 1..m {
            out[n - k] = out[k].conj();
        }
        out
    }

    /// Coefficients `0..=n/2` of the spectrum of `x` into `out` — all a
    /// real signal has (Eq. 6: `X[n−f] = conj(X[f])`), bit for bit the
    /// first `n/2 + 1` entries of [`Self::forward`], for every `n ≥ 1`. An
    /// odd `n` (or `n = 1`) runs the general complex path, which has no
    /// half to stop at, and keeps the first `n/2 + 1` coefficients.
    ///
    /// # Panics
    ///
    /// Panics when `x` or `out` has the wrong length.
    pub fn forward_half(&mut self, x: &[f64], out: &mut [Complex64]) {
        let (n, m) = (self.n, self.n / 2);
        assert_eq!(x.len(), n, "signal length differs from the plan's");
        assert_eq!(out.len(), m + 1, "half spectrum holds n/2 + 1 bins");
        if self.untangle.is_empty() {
            out.copy_from_slice(&self.forward(x)[..=m]);
            return;
        }

        // Pack pairs into a complex signal z[k] = x[2k] + j·x[2k+1].
        self.z.clear();
        self.z
            .extend(x.chunks_exact(2).map(|p| Complex64::new(p[0], p[1])));

        // Unnormalised half-length transform.
        if is_power_of_two(m) {
            radix2_with(&mut self.z, &self.stages);
        } else {
            // `fft` is unitary; undo its 1/√m factor.
            self.z = fft(&self.z);
            let scale = (m as f64).sqrt();
            for v in &mut self.z {
                *v = v.scale(scale);
            }
        }
        let zhat = &self.z;

        // Untangle: for k = 0..m,
        //   E[k] = (Z[k] + conj(Z[m−k]))/2        (DFT of even samples)
        //   O[k] = (Z[k] − conj(Z[m−k]))/(2j)     (DFT of odd samples)
        //   X[k] = E[k] + e^{−j2πk/n}·O[k]
        // then X[m] = E[0] − O[0] and X[n−k] = conj(X[k]).
        let scale = 1.0 / (n as f64).sqrt(); // unitary output
        for k in 0..m {
            let zk = zhat[k];
            let zmk = zhat[(m - k) % m].conj();
            let e = (zk + zmk).scale(0.5);
            let o = (zk - zmk) * Complex64::new(0.0, -0.5); // divide by 2j
            let xk = e + self.untangle[k] * o;
            out[k] = xk.scale(scale);
        }
        // k = m (the Nyquist bin): E[0] − O[0].
        let e0 = (zhat[0] + zhat[0].conj()).scale(0.5);
        let o0 = (zhat[0] - zhat[0].conj()) * Complex64::new(0.0, -0.5);
        out[m] = (e0 - o0).scale(scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft_naive;

    fn check(x: &[f64], eps: f64) {
        let fast = rfft(x);
        let slow = dft_naive(
            &x.iter()
                .copied()
                .map(Complex64::from_real)
                .collect::<Vec<_>>(),
        );
        assert_eq!(fast.len(), slow.len());
        for (f, (a, b)) in fast.iter().zip(&slow).enumerate() {
            assert!((*a - *b).abs() < eps, "n={} bin={f}: {a} vs {b}", x.len());
        }
    }

    #[test]
    fn matches_naive_on_even_lengths() {
        for n in [2usize, 4, 6, 8, 10, 16, 64, 128, 130] {
            let x: Vec<f64> = (0..n)
                .map(|t| (t as f64 * 0.7).sin() * 3.0 + (t as f64 * 0.13).cos())
                .collect();
            check(&x, 1e-9);
        }
    }

    #[test]
    fn matches_naive_on_odd_lengths_fallback() {
        for n in [1usize, 3, 7, localize(), 127] {
            let x: Vec<f64> = (0..n).map(|t| ((t * t) % 11) as f64 - 5.0).collect();
            check(&x, 1e-8);
        }
    }

    // Keep an odd constant out of the array literal so clippy's
    // approx-constant lint never misfires on test data.
    fn localize() -> usize {
        31
    }

    #[test]
    fn spectrum_is_conjugate_symmetric() {
        let x: Vec<f64> = (0..128).map(|t| (t as f64 * 0.21).sin() * 5.0).collect();
        let y = rfft(&x);
        for f in 1..128 {
            assert!((y[f] - y[128 - f].conj()).abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_holds() {
        let x: Vec<f64> = (0..64).map(|t| (t as f64 - 31.5) * 0.4).collect();
        let time: f64 = x.iter().map(|v| v * v).sum();
        let freq: f64 = rfft(&x).iter().map(|c| c.norm_sqr()).sum();
        assert!((time - freq).abs() < 1e-7 * (1.0 + time));
    }

    /// A plan carries scratch from call to call; no bit of an earlier
    /// signal may leak into a later spectrum, whole or half.
    #[test]
    fn reused_plan_equals_one_shot_bit_for_bit() {
        let bits = |c: &Complex64| (c.re.to_bits(), c.im.to_bits());
        for n in [
            1usize,
            2,
            3,
            4,
            6,
            7,
            8,
            10,
            16,
            localize(),
            64,
            127,
            128,
            130,
        ] {
            let mut plan = RfftPlan::new(n);
            for round in 0..3 {
                let x: Vec<f64> = (0..n)
                    .map(|t| ((t + 1) as f64 * (0.37 + round as f64)).sin() * 40.0 - round as f64)
                    .collect();
                let want = rfft(&x);
                let got = plan.forward(&x);
                assert_eq!(
                    got.iter().map(bits).collect::<Vec<_>>(),
                    want.iter().map(bits).collect::<Vec<_>>(),
                    "n={n} round={round}"
                );
                // Odd lengths too: the general path, cut at n/2 + 1.
                let mut half = vec![Complex64::ZERO; n / 2 + 1];
                plan.forward_half(&x, &mut half);
                assert_eq!(
                    half.iter().map(bits).collect::<Vec<_>>(),
                    want[..=n / 2].iter().map(bits).collect::<Vec<_>>(),
                    "half, n={n} round={round}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "n/2 + 1 bins")]
    fn half_spectrum_needs_n_over_2_plus_1_bins() {
        RfftPlan::new(7).forward_half(&[0.0; 7], &mut [Complex64::ZERO; 7]);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(rfft(&[]).is_empty());
        let y = rfft(&[5.0]);
        assert_eq!(y.len(), 1);
        assert!((y[0] - Complex64::from_real(5.0)).abs() < 1e-12);
    }
}
