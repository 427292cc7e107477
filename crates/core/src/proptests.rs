#![allow(clippy::needless_range_loop)] // parallel-array loops over DIMS read clearer indexed
//! Crate-wide property tests of the core geometric/algebraic invariants,
//! run as seeded loops over [`tseries::rng`].

use crate::feature::{FeatureVec, DIMS};
use crate::query::{Filter, FilterPolicy};
use crate::tmbr::TransformMbr;
use crate::transform::{Family, Transform};
use rstartree::Rect;
use std::f64::consts::PI;
use tseries::rng::SeededRng;

const CASES: usize = 64;

/// Mean/std plain; magnitudes non-negative; angles within (−π, π].
fn fvec(rng: &mut SeededRng) -> FeatureVec {
    [
        rng.random_range(-100f64..100.0),
        rng.random_range(0.1f64..50.0),
        rng.random_range(0f64..12.0),
        rng.random_range(-PI..PI),
        rng.random_range(0f64..8.0),
        rng.random_range(-PI..PI),
    ]
}

fn frect(rng: &mut SeededRng) -> Rect<DIMS> {
    let lo = fvec(rng);
    let mut hi = lo;
    for h in &mut hi {
        *h += rng.random_range(0f64..3.0);
    }
    Rect { lo, hi }
}

fn grown(r: &Rect<DIMS>, rng: &mut SeededRng, max: f64) -> Rect<DIMS> {
    let mut big = *r;
    for i in 0..DIMS {
        let g = rng.random_range(0.0..max);
        big.lo[i] -= g;
        big.hi[i] += g;
    }
    big
}

/// The guard ST-index leans on: Eq. 12 over a one-member rectangle is the
/// member's own `apply_rect`, bit for bit — for smoothing, inverted,
/// shifting, differencing and negatively scaled members alike.
#[test]
fn singleton_mbr_is_the_transform() {
    let mut rng = SeededRng::seed_from_u64(0x51_7E);
    let families = [
        Family::moving_averages(1..=20, 64),
        Family::moving_averages(5..=12, 128).with_inverted(),
        Family::circular_shifts(0..=6, 64),
        Family::momenta(1..=5, 128),
        Family::scalings(&[-3.0, -0.5, 0.25, 1.0, 7.5], 32),
    ];
    for _ in 0..CASES {
        let fam = &families[rng.random_range(0..families.len())];
        let r = frect(&mut rng);
        for (i, (mbr, t)) in TransformMbr::singletons(fam)
            .iter()
            .zip(fam.transforms())
            .enumerate()
        {
            assert_eq!(mbr.members, [i]);
            let (got, want) = (mbr.apply_to_rect(&r), t.apply_rect(&r));
            for d in 0..DIMS {
                assert_eq!(
                    got.lo[d].to_bits(),
                    want.lo[d].to_bits(),
                    "{} lo",
                    t.label()
                );
                assert_eq!(
                    got.hi[d].to_bits(),
                    want.hi[d].to_bits(),
                    "{} hi",
                    t.label()
                );
            }
        }
    }
}

/// Eq. 12 is monotone: a bigger data rectangle yields a bigger
/// transformed rectangle (the property the index descent relies on).
#[test]
fn apply_to_rect_is_monotone() {
    let mut rng = SeededRng::seed_from_u64(0xE912);
    let mbr = TransformMbr::of_family(&Family::moving_averages(2..=9, 64).with_inverted());
    for _ in 0..CASES {
        let r = frect(&mut rng);
        let big = grown(&r, &mut rng, 2.0);
        let (small_t, big_t) = (mbr.apply_to_rect(&r), mbr.apply_to_rect(&big));
        assert!(
            big_t.contains_rect(&small_t),
            "{small_t:?} not within {big_t:?}"
        );
    }
}

/// Filter monotonicity: growing either rectangle can only turn a miss
/// into a hit, never the reverse — under every policy.
#[test]
fn filter_hit_is_monotone() {
    let mut rng = SeededRng::seed_from_u64(0xF117);
    let mut hits = 0;
    for case in 0..CASES {
        let a = frect(&mut rng);
        // Independent rectangles rarely meet; every other case puts `b`
        // beside `a` so the premise holds often.
        let b = if case % 2 == 0 {
            frect(&mut rng)
        } else {
            grown(&a, &mut rng, 1.0)
        };
        let bigger = grown(&a, &mut rng, 1.5);
        let eps = rng.random_range(0.1f64..5.0);
        for policy in [
            FilterPolicy::Paper,
            FilterPolicy::Safe,
            FilterPolicy::Adaptive,
        ] {
            let filter = Filter::new(eps, policy);
            if filter.hit(&a, &b) {
                hits += 1;
                assert!(filter.hit(&bigger, &b), "{policy:?} lost a hit when a grew");
            }
        }
    }
    assert!(hits > CASES, "premise held {hits} times");
}

/// Adaptive never dismisses a qualifying pair: any two points whose
/// *true* complex distance over the two stored coefficients is within
/// ε/√2 must hit.
#[test]
fn adaptive_is_sound_on_points() {
    use tsfft::Complex64;
    let mut rng = SeededRng::seed_from_u64(0xADA9);
    let mut qualifying = 0;
    for case in 0..4 * CASES {
        let x = fvec(&mut rng);
        // Half the cases perturb x slightly so the premise holds often.
        let q = if case % 2 == 0 {
            fvec(&mut rng)
        } else {
            let mut q = x;
            for v in &mut q {
                *v += rng.random_range(-0.3f64..0.3);
            }
            q[2] = q[2].abs();
            q[4] = q[4].abs();
            q
        };
        let eps = rng.random_range(0.2f64..6.0);
        let per_coeff: f64 = [(2usize, 3usize), (4, 5)]
            .iter()
            .map(|&(md, ad)| {
                (Complex64::from_polar(x[md], x[ad]) - Complex64::from_polar(q[md], q[ad]))
                    .norm_sqr()
            })
            .sum();
        // If the full distance could be ≤ ε then (symmetry) the two-coeff
        // part is ≤ ε²/2.
        if per_coeff.sqrt() <= eps / std::f64::consts::SQRT_2 {
            qualifying += 1;
            assert!(
                Filter::new(eps, FilterPolicy::Adaptive).hit(&Rect::point(x), &Rect::point(q)),
                "Adaptive dismissed a qualifying pair: coeff dist {} vs {}",
                per_coeff.sqrt(),
                eps / std::f64::consts::SQRT_2
            );
        }
    }
    assert!(qualifying > CASES / 2, "premise held {qualifying} times");
}

/// Composition is associative on the feature action.
#[test]
fn composition_associative_on_features() {
    let mut rng = SeededRng::seed_from_u64(0xA550C);
    let a = Transform::moving_average(3, 64);
    let b = Transform::circular_shift(2, 64);
    let c = Transform::scaling(1.5, 64);
    let left = a.compose(&b).compose(&c);
    let right = a.compose(&b.compose(&c));
    for _ in 0..CASES {
        let p = fvec(&mut rng);
        let (lp, rp) = (left.apply_point(&p), right.apply_point(&p));
        for i in 0..DIMS {
            assert!((lp[i] - rp[i]).abs() < 1e-9);
        }
    }
}

/// `apply_rect` of a degenerate rectangle equals `apply_point`, for
/// arbitrary (including negative-multiplier) transformations.
#[test]
fn apply_rect_point_consistency() {
    let mut rng = SeededRng::seed_from_u64(0x9017);
    for _ in 0..CASES {
        let p = fvec(&mut rng);
        let k = rng.random_range(-4f64..4.0);
        if k.abs() <= 1e-3 {
            continue;
        }
        let t = Transform::scaling(k, 64);
        let r = t.apply_rect(&Rect::point(p));
        let tp = t.apply_point(&p);
        for i in 0..DIMS {
            assert!((r.lo[i] - tp[i]).abs() < 1e-9);
            assert!((r.hi[i] - tp[i]).abs() < 1e-9);
        }
    }
}

/// The verification kernel is the naive formula: for random families —
/// moving averages, their inversions, momenta, circular shifts, scalings
/// (negative ones too), EMAs and composed pairs — over power-of-two and
/// other even lengths, every `(candidate, member)` distance has the bits
/// of [`Transform::transformed_distance`]. A family with a member the
/// kernel cannot serve is turned down, never served approximately.
#[test]
fn kernel_distance_is_the_naive_distance() {
    use crate::engine::VerifyKernel;
    use crate::index::{IndexConfig, SeqIndex};
    use crate::query::QueryMode;
    use tseries::{random_walk, Corpus};

    const LENGTHS: [usize; 3] = [64, 100, 128];
    let mut rng = SeededRng::seed_from_u64(0x4E12);
    let (mut served, mut turned_down, mut pairs) = ([0; 3], 0, 0);
    for case in 0..2 * CASES {
        let len = rng.random_range(0..LENGTHS.len());
        let n = LENGTHS[len];
        let mut family = match rng.random_range(0..7u32) {
            0 => Family::moving_averages(2..=rng.random_range(3..20usize), n),
            1 => Family::moving_averages(3..=rng.random_range(4..9usize), n).with_inverted(),
            2 => Family::momenta(1..=rng.random_range(1..6usize), n),
            3 => Family::circular_shifts(0..=rng.random_range(1..7usize), n),
            4 => Family::scalings(
                &[
                    rng.random_range(-4f64..-0.1),
                    rng.random_range(0.1f64..4.0),
                    1.0,
                ],
                n,
            ),
            5 => Family::new(
                "ema",
                vec![
                    Transform::exponential_moving_average(rng.random_range(0.05f64..1.0), n),
                    Transform::exponential_moving_average(rng.random_range(0.05f64..1.0), n),
                ],
            ),
            _ => Family::moving_averages(2..=4, n).compose(&Family::momenta(1..=2, n)),
        };
        // One case in four gets a member with an angle multiplier of −1.
        let reversed = case % 4 == 3;
        if reversed {
            let mut members = family.transforms().to_vec();
            members.push(Transform::time_reverse(n));
            family = Family::new("with reversal", members);
        }

        let series: Vec<_> = (0..12).map(|_| random_walk(&mut rng, n, 500.0)).collect();
        let names = (0..series.len()).map(|i| format!("s{i}")).collect();
        let index = SeqIndex::build(&Corpus::from_parts(names, series), IndexConfig::default())
            .expect("non-empty corpus");
        let q = index
            .prepare_query(&random_walk(&mut rng, n, 500.0))
            .unwrap();
        // Besides the reversal, a moving average whose spectrum has an
        // exact zero is turned down at length 100: Bluestein leaves 1e-15
        // there at an arbitrary angle, and `detect_symmetry` believes it.
        let covered = family
            .transforms()
            .iter()
            .all(Transform::half_spectrum_unit_angle);
        assert!(!(reversed && covered), "a reversal passed for unit-angle");
        let Some(mut kernel) = VerifyKernel::for_query(&index, &family, &q, QueryMode::Symmetric)
        else {
            assert!(!covered, "{} over length {n} turned down", family.name());
            turned_down += 1;
            continue;
        };
        assert!(covered, "{} over length {n} served", family.name());
        served[len] += 1;
        // Twice round, so that the second touch of a candidate reads the
        // row the first one filled.
        for seq in (0..index.len()).chain(0..index.len()) {
            let x = index.fetch(seq).unwrap();
            let row = kernel.touch(seq).unwrap();
            for (ti, t) in family.transforms().iter().enumerate() {
                assert_eq!(
                    kernel.distance(row, ti).to_bits(),
                    t.transformed_distance(&x, &q).to_bits(),
                    "{} on sequence {seq}, length {n}",
                    t.label()
                );
                pairs += 1;
            }
        }
        assert_eq!(kernel.touches, 2 * index.len() as u64);
        // k-NN's way in: one slot, refilled per candidate.
        for seq in [3usize, 0, 3] {
            let x = index.fetch(seq).unwrap();
            let row = kernel.touch_once(seq).unwrap();
            for (ti, t) in family.transforms().iter().enumerate() {
                assert_eq!(
                    kernel.distance(row, ti).to_bits(),
                    t.transformed_distance(&x, &q).to_bits(),
                    "{} on sequence {seq} alone, length {n}",
                    t.label()
                );
            }
        }
    }
    assert!(
        served.iter().all(|&s| s >= 8) && turned_down >= CASES / 2,
        "kernel served {served:?} cases per length, turned {turned_down} down"
    );
    assert!(pairs > 5000, "{pairs} pairs compared");
}
