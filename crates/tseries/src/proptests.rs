//! Property tests for the paper's analytic claims about sequences, run
//! as seeded loops over [`crate::rng`].

use crate::rng::SeededRng;
use crate::*;

const CASES: usize = 64;

fn seq_of(rng: &mut SeededRng, n: usize) -> TimeSeries {
    (0..n).map(|_| rng.random_range(-1e3f64..1e3)).collect()
}

/// A series of random length in `4..=max_len`.
fn seq(rng: &mut SeededRng, max_len: usize) -> TimeSeries {
    let n = rng.random_range(4..=max_len);
    seq_of(rng, n)
}

/// Two equal-length series.
fn seq_pair(rng: &mut SeededRng, max_len: usize) -> (TimeSeries, TimeSeries) {
    let n = rng.random_range(4..=max_len);
    (seq_of(rng, n), seq_of(rng, n))
}

#[test]
fn normal_form_properties() {
    let mut rng = SeededRng::seed_from_u64(0x7501);
    for _ in 0..CASES {
        let ts = seq(&mut rng, 128);
        let nf = ts.normal_form().expect("random series are not constant");
        assert!(nf.series.mean().abs() < 1e-9);
        assert!((nf.series.std() - 1.0).abs() < 1e-9);
        let back = nf.denormalize();
        for (a, b) in ts.values().iter().zip(back.values()) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}

#[test]
fn eq9_bridge_for_random_pairs() {
    let mut rng = SeededRng::seed_from_u64(0x7502);
    for _ in 0..CASES {
        let (x, y) = seq_pair(&mut rng, 64);
        let (nx, ny) = (x.normal_form().unwrap(), y.normal_form().unwrap());
        let d2 = euclidean_sq(&nx.series, &ny.series);
        let rho = cross_correlation(&nx.series, &ny.series).unwrap();
        let n = x.len() as f64;
        let rhs = 2.0 * (n - 1.0 - n * rho);
        assert!((d2 - rhs).abs() < 1e-6 * (1.0 + d2), "D²={d2} rhs={rhs}");
    }
}

/// §3.2 property 1: subtracting the mean minimises the distance over
/// scalar shifts — any other shift can only increase it.
#[test]
fn normal_form_minimizes_shift_distance() {
    let mut rng = SeededRng::seed_from_u64(0x7503);
    for _ in 0..CASES {
        let x = seq(&mut rng, 48);
        let shift = rng.random_range(-100f64..100.0);
        let centered = x.map(|v| v - x.mean());
        let shifted = x.map(|v| v - (x.mean() + shift));
        let zero = TimeSeries::new(vec![0.0; x.len()]);
        assert!(euclidean_sq(&centered, &zero) <= euclidean_sq(&shifted, &zero) + 1e-9);
    }
}

/// Lemma 2: for scale factors a < b, D(a·x, a·y) ≤ D(b·x, b·y), and the
/// distance scales exactly linearly.
#[test]
fn lemma2_scaling_preserves_order() {
    let mut rng = SeededRng::seed_from_u64(0x7504);
    for _ in 0..CASES {
        let (x, y) = seq_pair(&mut rng, 32);
        let (a, b) = (
            rng.random_range(0.1f64..10.0),
            rng.random_range(0.1f64..10.0),
        );
        let (small, large) = (a.min(b), a.max(b));
        let d_small = euclidean(&scale(&x, small), &scale(&y, small));
        let d_large = euclidean(&scale(&x, large), &scale(&y, large));
        assert!(d_small <= d_large + 1e-9);
        let d1 = euclidean(&x, &y);
        assert!((d_small - small * d1).abs() < 1e-6 * (1.0 + d_small));
    }
}

/// Both are circular convolutions, so they commute.
#[test]
fn circular_mv_commutes_with_shift() {
    let mut rng = SeededRng::seed_from_u64(0x7505);
    for _ in 0..CASES {
        let x = seq(&mut rng, 64);
        let n = x.len();
        let m = rng.random_range(1..8usize).min(n);
        let rot = |s: &TimeSeries, k: usize| -> TimeSeries {
            (0..n).map(|i| s[(i + n - k) % n]).collect()
        };
        let a = moving_average_circular(&rot(&x, 3 % n), m);
        let b = rot(&moving_average_circular(&x, m), 3 % n);
        for (u, v) in a.values().iter().zip(b.values()) {
            assert!((u - v).abs() < 1e-9);
        }
    }
}

#[test]
fn momentum_of_constant_is_zero() {
    let mut rng = SeededRng::seed_from_u64(0x7506);
    for _ in 0..CASES {
        let c = rng.random_range(-100f64..100.0);
        let x = TimeSeries::new(vec![c; rng.random_range(4..64usize)]);
        assert!(momentum(&x, 1).values().iter().all(|v| v.abs() < 1e-12));
        assert!(momentum_circular(&x, 1)
            .values()
            .iter()
            .all(|v| v.abs() < 1e-12));
    }
}

/// Smoothing never increases energy around the mean (variance).
#[test]
fn mv_reduces_variance() {
    let mut rng = SeededRng::seed_from_u64(0x7507);
    for _ in 0..CASES {
        let x = seq(&mut rng, 96);
        let m = rng.random_range(2..12usize).min(x.len());
        assert!(moving_average_circular(&x, m).variance() <= x.variance() + 1e-9);
    }
}

#[test]
fn triangle_inequality() {
    let mut rng = SeededRng::seed_from_u64(0x7508);
    for _ in 0..CASES {
        let n = rng.random_range(4..=32usize);
        let (x, y, z) = (
            seq_of(&mut rng, n),
            seq_of(&mut rng, n),
            seq_of(&mut rng, n),
        );
        let (dxy, dyz, dxz) = (euclidean(&x, &y), euclidean(&y, &z), euclidean(&x, &z));
        assert!(dxz <= dxy + dyz + 1e-9);
    }
}

/// With sample-std denominators, |ρ| ≤ (n−1)/n < 1.
#[test]
fn correlation_bounds() {
    let mut rng = SeededRng::seed_from_u64(0x7509);
    for _ in 0..CASES {
        let (x, y) = seq_pair(&mut rng, 48);
        let rho = cross_correlation(&x, &y).unwrap();
        let n = x.len() as f64;
        assert!(rho.abs() <= (n - 1.0) / n + 1e-9, "rho = {rho}");
    }
}
