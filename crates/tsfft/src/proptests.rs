//! Property tests over the whole transform stack, run as seeded loops
//! over `tseries::rng`.
//!
//! These pin the DFT properties the paper's algorithms rely on (§2.2):
//! linearity (Eq. 4), convolution–multiplication (Eq. 5), conjugate symmetry
//! (Eq. 6), Parseval (Eq. 7) and distance preservation (Eq. 8), for *all*
//! lengths — not just the power-of-two fast path.

use crate::*;
use tseries::rng::SeededRng;

const CASES: usize = 64;

/// A real sequence of random length in `1..=max_len`.
fn real_seq(rng: &mut SeededRng, max_len: usize) -> Vec<f64> {
    let n = rng.random_range(1..=max_len);
    (0..n).map(|_| rng.random_range(-1e3f64..1e3)).collect()
}

fn complex_seq(rng: &mut SeededRng, max_len: usize) -> Vec<Complex64> {
    let n = rng.random_range(1..=max_len);
    (0..n)
        .map(|_| {
            Complex64::new(
                rng.random_range(-1e3f64..1e3),
                rng.random_range(-1e3f64..1e3),
            )
        })
        .collect()
}

/// `x` plus bounded noise — a neighbour at a moderate distance.
fn noisy(rng: &mut SeededRng, x: &[f64]) -> Vec<f64> {
    x.iter()
        .map(|a| a + rng.random_range(-10f64..10.0))
        .collect()
}

/// Relative-ish tolerance: absolute floor plus a term scaling with magnitude.
fn close(a: Complex64, b: Complex64, scale: f64) -> bool {
    (a - b).abs() <= 1e-7 + 1e-10 * scale
}

fn magnitude(x: &[Complex64]) -> f64 {
    x.iter().map(|c| c.abs()).sum()
}

#[test]
fn fft_matches_naive_dft() {
    let mut rng = SeededRng::seed_from_u64(0xF001);
    for _ in 0..CASES {
        let x = complex_seq(&mut rng, 64);
        let scale = magnitude(&x);
        for (a, b) in fft(&x).iter().zip(&dft_naive(&x)) {
            assert!(close(*a, *b, scale), "{a} vs {b}");
        }
    }
}

#[test]
fn fft_roundtrip_is_identity() {
    let mut rng = SeededRng::seed_from_u64(0xF002);
    for _ in 0..CASES {
        let x = complex_seq(&mut rng, 128);
        let scale = magnitude(&x);
        for (a, b) in x.iter().zip(&ifft(&fft(&x))) {
            assert!(close(*a, *b, scale));
        }
    }
}

#[test]
fn parseval_energy_preserved() {
    let mut rng = SeededRng::seed_from_u64(0xF003);
    for _ in 0..CASES {
        let x = real_seq(&mut rng, 128);
        let et = energy(&x);
        assert!((et - RealDft::forward(&x).energy()).abs() <= 1e-6 + 1e-9 * et);
    }
}

#[test]
fn conjugate_symmetry_for_real_input() {
    let mut rng = SeededRng::seed_from_u64(0xF004);
    for _ in 0..CASES {
        let x = real_seq(&mut rng, 96);
        assert!(RealDft::forward(&x).is_conjugate_symmetric(1e-6));
    }
}

#[test]
fn distance_preserved_between_domains() {
    let mut rng = SeededRng::seed_from_u64(0xF005);
    for _ in 0..CASES {
        let x = real_seq(&mut rng, 64);
        let y = noisy(&mut rng, &x);
        let dt: f64 = x.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum();
        let df = RealDft::forward(&x).distance_sq(&RealDft::forward(&y));
        assert!((dt - df).abs() <= 1e-6 + 1e-9 * dt);
    }
}

#[test]
fn symmetry_lower_bound_never_exceeds_distance() {
    let mut rng = SeededRng::seed_from_u64(0xF006);
    for _ in 0..CASES {
        let x = real_seq(&mut rng, 64);
        let y = noisy(&mut rng, &x);
        let (dx, dy) = (RealDft::forward(&x), RealDft::forward(&y));
        let full = dx.distance_sq(&dy);
        let kmax = (x.len() - 1) / 2;
        for k in 1..=kmax.min(4) {
            assert!(dx.distance_lower_bound_sq(&dy, k) <= full + 1e-6 + 1e-9 * full);
        }
    }
}

#[test]
fn linearity() {
    let mut rng = SeededRng::seed_from_u64(0xF007);
    for _ in 0..CASES {
        let x = complex_seq(&mut rng, 48);
        let (a, b) = (rng.random_range(-5f64..5.0), rng.random_range(-5f64..5.0));
        let y: Vec<Complex64> = x.iter().rev().copied().collect();
        let combo: Vec<Complex64> = x
            .iter()
            .zip(&y)
            .map(|(xi, yi)| xi.scale(a) + yi.scale(b))
            .collect();
        let (lhs, fx, fy) = (fft(&combo), fft(&x), fft(&y));
        let scale = magnitude(&x) * (a.abs() + b.abs() + 1.0);
        for (i, l) in lhs.iter().enumerate() {
            assert!(close(*l, fx[i].scale(a) + fy[i].scale(b), scale));
        }
    }
}

/// conv(x, y) computed via FFT must match the O(n²) definition.
#[test]
fn convolution_theorem() {
    let mut rng = SeededRng::seed_from_u64(0xF008);
    for _ in 0..CASES {
        let x = real_seq(&mut rng, 32);
        let n = x.len();
        let y: Vec<f64> = x.iter().map(|v| v * 0.5 - 1.0).collect();
        let via_fft = convolve_circular(&x, &y);
        let scale = energy(&x).sqrt() * energy(&y).sqrt() + 1.0;
        for i in 0..n {
            let direct: f64 = (0..n).map(|k| x[k] * y[(i + n - k) % n]).sum();
            assert!((via_fft[i] - direct).abs() <= 1e-6 + 1e-9 * scale);
        }
    }
}

#[test]
fn polar_roundtrip_through_spectrum() {
    let mut rng = SeededRng::seed_from_u64(0xF009);
    for _ in 0..CASES {
        let s = Spectrum::of(&real_seq(&mut rng, 64));
        let back = Spectrum::from_interleaved_polar(&s.to_interleaved_polar());
        for (a, b) in s.0.iter().zip(&back.0) {
            assert!((*a - *b).abs() < 1e-8);
        }
    }
}
