//! Iterative radix-2 Cooley–Tukey FFT with a Bluestein fallback.
//!
//! [`fft`]/[`ifft`] are the public entry points and accept any length;
//! power-of-two inputs take the in-place radix-2 path, everything else is
//! routed through [`crate::bluestein_fft`]. Both use the unitary (`1/√n`)
//! normalisation of the paper so Parseval's relation holds exactly.

use crate::bluestein::bluestein_fft_dir;
use crate::Complex64;

/// Returns true when `n` is a power of two (and nonzero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Forward unitary DFT of an arbitrary-length signal.
pub fn fft(x: &[Complex64]) -> Vec<Complex64> {
    transform(x, Direction::Forward)
}

/// Inverse unitary DFT of an arbitrary-length signal.
pub fn ifft(x: &[Complex64]) -> Vec<Complex64> {
    transform(x, Direction::Inverse)
}

/// Transform direction; controls the twiddle sign.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Direction {
    Forward,
    Inverse,
}

impl Direction {
    #[inline]
    pub(crate) fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }
}

fn transform(x: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let n = x.len();
    if n <= 1 {
        return x.to_vec();
    }
    if is_power_of_two(n) {
        let mut buf = x.to_vec();
        radix2_in_place(&mut buf, dir);
        let scale = 1.0 / (n as f64).sqrt();
        for v in &mut buf {
            *v = v.scale(scale);
        }
        buf
    } else {
        bluestein_fft_dir(x, dir)
    }
}

/// In-place unitary FFT for power-of-two lengths.
///
/// # Panics
///
/// Panics if `buf.len()` is not a power of two.
pub fn fft_in_place(buf: &mut [Complex64]) {
    assert!(
        is_power_of_two(buf.len()),
        "fft_in_place requires a power-of-two length, got {}",
        buf.len()
    );
    radix2_in_place(buf, Direction::Forward);
    let scale = 1.0 / (buf.len() as f64).sqrt();
    for v in buf.iter_mut() {
        *v = v.scale(scale);
    }
}

/// Unnormalised iterative radix-2 butterfly network.
pub(crate) fn radix2_in_place(buf: &mut [Complex64], dir: Direction) {
    radix2_with(buf, &radix2_twiddles(buf.len(), dir));
}

/// The twiddle factors of every butterfly stage of a length-`n` network,
/// stage after stage: for `len = 2, 4, …, n` the `len/2` powers `w⁰, w¹, …`
/// of `w = e^{sign·2πj/len}`. Each power is the previous one times `w` —
/// the recurrence the butterflies ran inline before the table existed —
/// so a transform over the table has the same bits as one without it.
pub(crate) fn radix2_twiddles(n: usize, dir: Direction) -> Vec<Complex64> {
    debug_assert!(n <= 1 || is_power_of_two(n));
    let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
    let sign = dir.sign();
    let mut len = 2;
    while len <= n {
        let wlen = Complex64::cis(sign * 2.0 * std::f64::consts::PI / len as f64);
        let mut w = Complex64::ONE;
        for _ in 0..len / 2 {
            twiddles.push(w);
            w *= wlen;
        }
        len <<= 1;
    }
    twiddles
}

/// [`radix2_in_place`] over twiddles tabulated by [`radix2_twiddles`] for
/// `buf.len()` — a caller transforming many signals of one length builds
/// the table once.
pub(crate) fn radix2_with(buf: &mut [Complex64], twiddles: &[Complex64]) {
    let n = buf.len();
    debug_assert!(is_power_of_two(n));
    if n <= 1 {
        return;
    }
    debug_assert_eq!(twiddles.len(), n - 1);

    bit_reverse_permute(buf);

    let mut len = 2;
    while len <= n {
        // Stage `len` owns twiddles[len/2 − 1 .. len − 1].
        let stage = &twiddles[len / 2 - 1..len - 1];
        for chunk in buf.chunks_exact_mut(len) {
            let (lo, hi) = chunk.split_at_mut(len / 2);
            for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                let u = *a;
                let v = *b * w;
                *a = u + v;
                *b = u - v;
            }
        }
        len <<= 1;
    }
}

/// Reorders `buf` so that element `i` moves to position `reverse_bits(i)`.
fn bit_reverse_permute(buf: &mut [Complex64]) {
    let n = buf.len();
    let shift = n.leading_zeros() + 1;
    for i in 0..n {
        let j = i.reverse_bits() >> shift;
        if i < j {
            buf.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft_naive;

    fn close(a: &[Complex64], b: &[Complex64], eps: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).abs() < eps, "bin {i}: {x} vs {y}");
        }
    }

    fn reals(v: &[f64]) -> Vec<Complex64> {
        v.iter().copied().map(Complex64::from_real).collect()
    }

    #[test]
    fn matches_naive_on_powers_of_two() {
        for &n in &[2usize, 4, 8, 16, 64, 128] {
            let x: Vec<Complex64> = (0..n)
                .map(|t| Complex64::new((t as f64).sin(), (t as f64 * 0.3).cos()))
                .collect();
            close(&fft(&x), &dft_naive(&x), 1e-9);
        }
    }

    #[test]
    fn matches_naive_on_odd_lengths() {
        for &n in &[3usize, 5, 7, 12, 100, 127] {
            let x: Vec<Complex64> = (0..n)
                .map(|t| Complex64::new((t as f64).cos(), -(t as f64) * 0.01))
                .collect();
            close(&fft(&x), &dft_naive(&x), 1e-8);
        }
    }

    #[test]
    fn roundtrip_all_small_lengths() {
        for n in 0..=33 {
            let x: Vec<Complex64> = (0..n)
                .map(|t| Complex64::new(t as f64 * 0.7 - 3.0, (t as f64).sqrt()))
                .collect();
            let back = ifft(&fft(&x));
            close(&x, &back, 1e-9);
        }
    }

    #[test]
    fn in_place_matches_out_of_place() {
        let x = reals(&[5.0, -1.0, 2.5, 0.0, 9.0, 9.0, -3.0, 1.0]);
        let mut buf = x.clone();
        fft_in_place(&mut buf);
        close(&buf, &fft(&x), 1e-12);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn in_place_rejects_non_power_of_two() {
        let mut buf = reals(&[1.0, 2.0, 3.0]);
        fft_in_place(&mut buf);
    }

    #[test]
    fn length_one_is_identity() {
        let x = reals(&[42.0]);
        assert_eq!(fft(&x), x);
        assert_eq!(ifft(&x), x);
    }

    #[test]
    fn power_of_two_predicate() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(128));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(96));
    }

    #[test]
    fn linearity_holds() {
        // Eq. 4: DFT(a·x + b·y) = a·X + b·Y
        let x = reals(&[1.0, 4.0, -2.0, 0.5, 3.0, 3.0, 0.0, -1.0]);
        let y = reals(&[2.0, -1.0, 0.0, 0.0, 5.0, 1.0, 1.0, 2.0]);
        let (a, b) = (2.5, -0.75);
        let combo: Vec<Complex64> = x
            .iter()
            .zip(&y)
            .map(|(xi, yi)| xi.scale(a) + yi.scale(b))
            .collect();
        let lhs = fft(&combo);
        let rx = fft(&x);
        let ry = fft(&y);
        let rhs: Vec<Complex64> = rx
            .iter()
            .zip(&ry)
            .map(|(xi, yi)| xi.scale(a) + yi.scale(b))
            .collect();
        close(&lhs, &rhs, 1e-10);
    }
}
