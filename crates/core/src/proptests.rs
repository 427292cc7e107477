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

/// The bound filter is `hit ∘ apply_to_rect`: for families with negative
/// and mixed-sign multipliers, rectangles of one, two and all members,
/// every policy and mode, and data rectangles of every shape the tree can
/// hold — points, proper rectangles, angle intervals that wrap past π and
/// ones wider than the circle — `RectFilter::hit(x)` is the boolean
/// `Filter::hit(&mbr.apply_to_rect(x), &region)`, whichever test decides.
#[test]
fn bound_filter_is_hit_after_apply_to_rect() {
    use crate::query::{expansion, mt_query_region, within, QueryMode};
    const POLICIES: [FilterPolicy; 3] = [
        FilterPolicy::Paper,
        FilterPolicy::Safe,
        FilterPolicy::Adaptive,
    ];
    let mut rng = SeededRng::seed_from_u64(0xB0F1);
    let families = [
        Family::moving_averages(3..=9, 64).with_inverted(),
        Family::momenta(1..=5, 128),
        Family::scalings(&[-3.0, -0.5, 0.25, 1.0, 7.5], 32),
        Family::circular_shifts(0..=6, 64),
        Family::moving_averages(2..=4, 64).compose(&Family::momenta(1..=2, 64)),
        // Angle multipliers of both signs in one rectangle.
        Family::new(
            "mirror",
            vec![
                Transform::identity(64),
                Transform::time_reverse(64),
                Transform::scaling(-2.0, 64),
            ],
        ),
    ];
    // Per policy: decided by a window, by the chord test, passed.
    let mut exits = [[0usize; 3]; 3];
    for case in 0..4 * CASES {
        let fam = &families[case % families.len()];
        let members: Vec<usize> = match rng.random_range(0..3u32) {
            0 => vec![rng.random_range(0..fam.len())],
            1 => {
                let first = rng.random_range(0..fam.len() - 1);
                vec![first, first + 1]
            }
            _ => (0..fam.len()).collect(),
        };
        let mbr = TransformMbr::of(fam, members);
        let q = fvec(&mut rng);
        let eps = [0.3, 2.0, 8.0, 40.0][rng.random_range(0..4usize)];
        for mode in [QueryMode::Symmetric, QueryMode::DataOnly] {
            let region = mt_query_region(&mbr, &q, mode);
            for (pi, policy) in POLICIES.into_iter().enumerate() {
                let filter = Filter::new(eps, policy);
                let bound = filter.bind(&mbr, region);
                for shape in 0..4 {
                    // Beside q in magnitude, beside it or far from it in
                    // angle: every exit is taken often.
                    let mut lo = q;
                    for i in 0..DIMS {
                        let reach = if i % 2 == 1 && rng.random_bool(0.5) {
                            2.5
                        } else {
                            0.3
                        };
                        lo[i] += rng.random_range(-reach..reach);
                    }
                    lo[2] = lo[2].abs();
                    lo[4] = lo[4].abs();
                    let mut hi = lo;
                    match shape {
                        0 => {}
                        1 => hi
                            .iter_mut()
                            .for_each(|h| *h += rng.random_range(0f64..1.0)),
                        2 => {
                            for ad in [3, 5] {
                                lo[ad] = PI - rng.random_range(0f64..0.4);
                                hi[ad] = PI + rng.random_range(0f64..0.8);
                            }
                        }
                        _ => {
                            for ad in [3, 5] {
                                hi[ad] = lo[ad] + rng.random_range(6.3f64..9.0);
                            }
                        }
                    }
                    let x = Rect { lo, hi };
                    let y = mbr.apply_to_rect(&x);
                    let want = filter.hit(&y, &region);
                    assert_eq!(
                        bound.hit(&x),
                        want,
                        "{} {:?} {policy:?} {mode:?} eps {eps}: {x:?}",
                        fam.name(),
                        mbr.members
                    );
                    let exit = if !within(&y, &region, &expansion(eps, policy)) {
                        0
                    } else if !want {
                        1
                    } else {
                        2
                    };
                    exits[pi][exit] += 1;
                }
            }
        }
    }
    let [paper, safe, adaptive] = exits;
    assert!(
        paper[0] > 50 && paper[2] > 50 && safe[0] > 50 && safe[2] > 50,
        "window exits {exits:?}"
    );
    assert_eq!(
        (paper[1], safe[1]),
        (0, 0),
        "only Adaptive has a chord test"
    );
    assert!(adaptive.iter().all(|&n| n > 50), "adaptive exits {exits:?}");
}

/// Signed zeros, infinities and NaN: what a damaged tree page can put in
/// an entry's coordinates.
const ODD: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

/// A data rectangle near `q` — a point or a proper rectangle, beside `q`
/// in magnitude and beside it or far from it in angle — whose coordinates
/// are now and then an [`ODD`] value, at either end or both.
fn entry_near(rng: &mut SeededRng, q: &FeatureVec) -> Rect<DIMS> {
    let mut lo = *q;
    for i in 0..DIMS {
        let reach = if i % 2 == 1 && rng.random_bool(0.5) {
            2.5
        } else {
            0.3
        };
        lo[i] += rng.random_range(-reach..reach);
    }
    let mut hi = lo;
    if rng.random_bool(0.5) {
        hi.iter_mut()
            .for_each(|h| *h += rng.random_range(0f64..1.0));
    }
    for i in 0..DIMS {
        if rng.random_bool(0.06) {
            let v = ODD[rng.random_range(0..ODD.len())];
            match rng.random_range(0..3u32) {
                0 => (lo[i], hi[i]) = (v, v),
                1 => lo[i] = v,
                _ => hi[i] = v,
            }
        }
    }
    Rect { lo, hi }
}

/// The bound filter over a group of rectangles is the unbound oracle per
/// rectangle, bit for bit: for every kind of family — singletons,
/// multi-member moving-average groups, time reversal (angle multipliers
/// −1), the paper's approximate shift — in every partitioning, with the
/// group's hull as one more rectangle, every policy and mode, and entries
/// that are points or proper rectangles with signed zeros, infinities and
/// NaN among their coordinates, bit `j` of `hits(x, live)` is
/// `Filter::hit(&mbrs[j].apply_to_rect(x), &region_j)` for each `j` of
/// `live`, and the hull's `hit_windows(x)` is `within` on its Eq. 12
/// rectangle.
#[test]
fn bound_filter_masks_are_the_oracle_bit_for_bit() {
    use crate::partition::{partition, PartitionStrategy};
    use crate::query::{expansion, mt_query_region, within, QueryMode};
    let mut rng = SeededRng::seed_from_u64(0xB17B);
    let (mut entries, mut odd, mut hits, mut misses) = (0, 0, 0, 0);
    for case in 0..CASES {
        let n = [64, 127, 128][case % 3];
        let family = family_of_kind(case % 10, &mut rng, n);
        let strategy = match rng.random_range(0..4u32) {
            0 => PartitionStrategy::EqualWidth { per_mbr: 1 },
            1 => PartitionStrategy::EqualWidth {
                per_mbr: rng.random_range(2..5usize),
            },
            2 => PartitionStrategy::KMeans {
                k: rng.random_range(2..5usize),
            },
            _ => PartitionStrategy::Single,
        };
        let mut mbrs = partition(&family, &strategy);
        mbrs.truncate(63);
        mbrs.push(TransformMbr::hull(&mbrs));
        let all = u64::MAX >> (64 - mbrs.len());
        let q = fvec(&mut rng);
        let eps = [0.3, 2.0, 8.0, 40.0][rng.random_range(0..4usize)];
        let xs: Vec<_> = (0..24).map(|_| entry_near(&mut rng, &q)).collect();
        for mode in [QueryMode::Symmetric, QueryMode::DataOnly] {
            let regions: Vec<_> = mbrs.iter().map(|m| mt_query_region(m, &q, mode)).collect();
            for policy in [
                FilterPolicy::Paper,
                FilterPolicy::Safe,
                FilterPolicy::Adaptive,
            ] {
                let filter = Filter::new(eps, policy);
                let bound = filter.bind_all(mbrs.iter().zip(regions.iter().copied()));
                let hull = mbrs.last().unwrap();
                let (hull_region, hull_bound) = (
                    regions[mbrs.len() - 1],
                    filter.bind(hull, regions[mbrs.len() - 1]),
                );
                for x in &xs {
                    let want = (0..mbrs.len())
                        .filter(|&j| filter.hit(&mbrs[j].apply_to_rect(x), &regions[j]))
                        .fold(0, |mask, j| mask | 1 << j);
                    let live = [all, rng.next_u64() & all][rng.random_range(0..2usize)];
                    let what = format!(
                        "case {case} {} {strategy:?} {mode:?} {policy:?} eps {eps}: {x:?}",
                        family.name()
                    );
                    assert_eq!(bound.hits(x, live), want & live, "{what}");
                    assert_eq!(
                        hull_bound.hit_windows(x),
                        within(
                            &hull.apply_to_rect(x),
                            &hull_region,
                            &expansion(eps, policy)
                        ),
                        "{what}: hull"
                    );
                    entries += 1;
                    odd += usize::from(
                        x.lo.iter()
                            .chain(&x.hi)
                            .any(|v| !v.is_finite() || *v == 0.0),
                    );
                    hits += want.count_ones();
                    misses += (all & !want).count_ones();
                }
            }
        }
    }
    assert!(
        odd * 5 > entries && hits > 2000 && misses > 2000,
        "{odd} of {entries} odd, {hits} hits, {misses} misses"
    );
}

/// The engines that took the bound form report what the spelled-out
/// filter would: `mtindex` (per rectangle of a partitioning) and
/// `stindex::range_query_ordered` see the candidates of a hand-run
/// `index.search(|r| filter.hit(&mbr.apply_to_rect(r), &region), ..)` in
/// the same order for the same node and leaf accesses.
#[test]
fn engines_on_the_bound_filter_walk_the_spelled_out_walk() {
    use crate::engine::{mtindex, stindex};
    use crate::index::{IndexConfig, SeqIndex};
    use crate::ordering::OrderedFamily;
    use crate::partition::{partition, PartitionStrategy};
    use crate::query::{mt_query_region, QueryMode, RangeSpec};
    use tseries::{Corpus, CorpusKind};

    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 600, 64, 0xB0F2);
    let config = IndexConfig {
        fanout: Some(8),
        ..IndexConfig::default()
    };
    let index = SeqIndex::build(&corpus, config).unwrap();
    // What the spelled-out filter finds for one rectangle: candidates in
    // order, node accesses, leaf accesses.
    let by_hand = |mbr: &TransformMbr, q: &FeatureVec, spec: &RangeSpec| {
        let filter = Filter::new(spec.epsilon(64), spec.policy);
        let region = mt_query_region(mbr, q, spec.mode);
        let mut candidates = Vec::new();
        let stats = index
            .search(
                |r| filter.hit(&mbr.apply_to_rect(r), &region),
                |_, seq| candidates.push(seq as usize),
            )
            .unwrap();
        (candidates, stats.nodes_accessed, stats.leaf_nodes_accessed)
    };
    // The sequences of a result in first-match order.
    let seqs_in_order = |matches: &[crate::report::Match]| {
        let mut seqs: Vec<usize> = matches.iter().map(|m| m.seq).collect();
        seqs.dedup();
        seqs
    };

    let family = Family::moving_averages(3..=10, 64).with_inverted();
    let mut candidates_seen = 0;
    for (qi, policy, mode) in [
        (7usize, FilterPolicy::Adaptive, QueryMode::Symmetric),
        (91, FilterPolicy::Paper, QueryMode::Symmetric),
        (333, FilterPolicy::Safe, QueryMode::DataOnly),
    ] {
        let query = &corpus.series()[qi];
        let q = index.prepare_query(query).unwrap();
        let spec = RangeSpec::correlation(0.9)
            .with_policy(policy)
            .with_mode(mode);
        for strategy in [
            PartitionStrategy::Single,
            PartitionStrategy::EqualWidth { per_mbr: 2 },
            PartitionStrategy::EqualWidth { per_mbr: 1 },
        ] {
            let mbrs = partition(&family, &strategy);
            let (result, traversals) =
                mtindex::range_query_with_mbrs(&index, query, &family, &spec, &mbrs, None).unwrap();
            let mut matched = result.matches.as_slice();
            for (mbr, traversal) in mbrs.iter().zip(&traversals) {
                let (candidates, nodes, leaves) = by_hand(mbr, &q.point, &spec);
                assert_eq!(
                    (traversal.candidates, traversal.da_all, traversal.da_leaf),
                    (candidates.len() as u64, nodes, leaves),
                    "{policy:?} {strategy:?} {:?}",
                    mbr.members
                );
                // This rectangle's matches: its candidates that matched
                // under one of its members, in candidate order.
                let mine = matched
                    .iter()
                    .take_while(|m| mbr.members.contains(&m.transform))
                    .count();
                let (head, rest) = matched.split_at(mine);
                matched = rest;
                let hit: Vec<usize> = seqs_in_order(head);
                let expected: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|seq| hit.contains(seq))
                    .collect();
                assert_eq!(hit, expected, "{policy:?} {strategy:?}: candidate order");
                candidates_seen += candidates.len();
            }
            assert!(matched.is_empty());
        }
    }
    assert!(
        candidates_seen > 500,
        "{candidates_seen} candidates compared"
    );

    // §4.4's single traversal under the minimal member.
    let factors: Vec<f64> = (1..=8).map(|k| 0.5 + k as f64 * 0.25).collect();
    let ordered = OrderedFamily::scalings(&factors, 64);
    let t0 = TransformMbr::of(ordered.family(), vec![0]);
    for policy in [FilterPolicy::Paper, FilterPolicy::Adaptive] {
        let spec = RangeSpec::euclidean(6.0).with_policy(policy);
        let query = &corpus.series()[44];
        let q = index.prepare_query(query).unwrap();
        let (candidates, nodes, leaves) = by_hand(&t0, &q.point, &spec);
        let result = stindex::range_query_ordered(&index, query, &ordered, &spec).unwrap();
        let m = &result.metrics;
        assert_eq!(
            (m.candidates, m.node_accesses, m.leaf_accesses),
            (candidates.len() as u64, nodes, leaves),
            "ordered {policy:?}"
        );
        let hit = seqs_in_order(&result.matches);
        assert!(hit.len() > 3, "ordered {policy:?}: {} sequences", hit.len());
        let expected: Vec<usize> = candidates
            .into_iter()
            .filter(|seq| hit.contains(seq))
            .collect();
        assert_eq!(hit, expected, "ordered {policy:?}: candidate order");
    }
}

/// Steps 3–4 are one masked descent per group of up to 64 rectangles,
/// and restricted to one rectangle that descent is the rectangle's own:
/// over random corpora — bulk-loaded, then grown by inserts and thinned by
/// deletes — every partitioning (one rectangle, equal width, k-means,
/// singletons, and an ST family of 70 members, two mask groups), every
/// policy and both modes, each rectangle's candidates arrive in the order
/// `index.search(|r| bound.hit(r), ..)` yields them, with its node, leaf
/// and candidate counts, through `descend` and `mtindex::probe` alike.
/// And the hull prefilter is sound: on every entry a descent meets, any
/// member's `hit` implies the hull's `hit_windows`.
#[test]
fn one_descent_is_the_per_rectangle_descent() {
    use crate::engine::mtindex::{self, descend, MASK_WIDTH};
    use crate::index::{IndexConfig, SeqIndex};
    use crate::partition::{partition, PartitionStrategy};
    use crate::query::{mt_query_region, QueryMode, RangeSpec};
    use tseries::{Corpus, CorpusKind};

    const N: usize = 64;
    let mut rng = SeededRng::seed_from_u64(0x0DE5);
    let (mut groups, mut rects, mut candidates, mut hull_checks) = (0, 0, 0, 0);
    for case in 0..12 {
        let size = rng.random_range(150..500usize);
        let corpus = Corpus::generate(CorpusKind::SyntheticWalks, size, N, rng.next_u64());
        let fanout = [4, 8, 16, 78][rng.random_range(0..4usize)];
        let config = IndexConfig {
            fanout: Some(fanout),
            ..IndexConfig::default()
        };
        let mut index = SeqIndex::build(&corpus.truncated(size / 2), config).unwrap();
        if case % 2 == 1 {
            for ts in &corpus.series()[size / 2..] {
                index.insert_series(ts).unwrap();
            }
            for _ in 0..size / 10 {
                index
                    .delete_series(rng.random_range(0..index.len()))
                    .unwrap();
            }
        }
        let family = match case % 4 {
            0 => Family::moving_averages(1..=35, N).with_inverted(),
            1 => Family::moving_averages(3..=10, N).with_inverted(),
            2 => Family::momenta(1..=6, N),
            _ => Family::moving_averages(2..=4, N).compose(&Family::momenta(1..=3, N)),
        };
        let strategies = [
            PartitionStrategy::Single,
            PartitionStrategy::EqualWidth {
                per_mbr: rng.random_range(2..5usize),
            },
            PartitionStrategy::KMeans {
                k: rng.random_range(2..5usize),
            },
            PartitionStrategy::EqualWidth { per_mbr: 1 },
        ];
        let query = &corpus.series()[rng.random_range(0..size)];
        let q = index.prepare_query(query).unwrap();
        for policy in [
            FilterPolicy::Paper,
            FilterPolicy::Safe,
            FilterPolicy::Adaptive,
        ] {
            let mode = [QueryMode::Symmetric, QueryMode::DataOnly][rng.random_range(0..2usize)];
            let rho = [0.8, 0.9, 0.96][rng.random_range(0..3usize)];
            let spec = RangeSpec::correlation(rho)
                .with_policy(policy)
                .with_mode(mode);
            let filter = Filter::new(spec.epsilon(N), policy);
            for strategy in &strategies {
                let mbrs = partition(&family, strategy);
                let mut got = vec![Vec::new(); mbrs.len()];
                let traversals = descend(
                    &index,
                    &mbrs,
                    &q.point,
                    mode,
                    &filter,
                    |first, seq, mask, _| {
                        for j in rstartree::mask_bits(mask) {
                            got[first + j].push(seq);
                        }
                    },
                )
                .unwrap();
                let probed = mtindex::probe(&index, query, &family, &spec, &mbrs).unwrap();
                assert_eq!(probed, traversals);
                for (g, group) in mbrs.chunks(MASK_WIDTH).enumerate() {
                    let hull = TransformMbr::hull(group);
                    let hull = filter.bind(&hull, mt_query_region(&hull, &q.point, mode));
                    let bounds: Vec<_> = group
                        .iter()
                        .map(|mbr| filter.bind(mbr, mt_query_region(mbr, &q.point, mode)))
                        .collect();
                    for (j, bound) in bounds.iter().enumerate() {
                        let slot = g * MASK_WIDTH + j;
                        let mut want = Vec::new();
                        let stats = index
                            .search(
                                |r| {
                                    if bounds.iter().any(|b| b.hit(r)) {
                                        assert!(hull.hit_windows(r), "hull dismissed {r:?}");
                                        hull_checks += 1;
                                    }
                                    bound.hit(r)
                                },
                                |_, seq| want.push(seq as usize),
                            )
                            .unwrap();
                        let what = format!(
                            "case {case} {} {strategy:?} {policy:?} {mode:?} rect {slot}",
                            family.name(),
                        );
                        assert_eq!(got[slot], want, "{what}: candidates");
                        let t = traversals[slot];
                        let counts = (stats.nodes_accessed, stats.leaf_nodes_accessed);
                        assert_eq!((t.da_all, t.da_leaf), counts, "{what}: accesses");
                        assert_eq!(t.candidates, want.len() as u64, "{what}");
                        candidates += want.len();
                        rects += 1;
                    }
                    groups += 1;
                }
            }
        }
    }
    assert!(
        groups > 100 && rects > 1000 && candidates > 10_000 && hull_checks > 10_000,
        "{groups} groups, {rects} rectangles, {candidates} candidates, {hull_checks} hull checks"
    );
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

/// How many kinds of family [`family_of_kind`] builds.
const FAMILY_KINDS: usize = 10;

/// A random family over length `n` of one of [`FAMILY_KINDS`] kinds,
/// between them every builder: moving averages and their inversions,
/// momenta, circular and the paper's approximate shifts, scalings
/// (negative ones too), EMAs, weighted averages, band-passes, time reversal
/// and compositions — reversal and the approximate shift among them.
fn family_of_kind(kind: usize, rng: &mut SeededRng, n: usize) -> Family {
    let m = rng.random_range(2..9usize);
    let (mv, rev) = (Transform::moving_average(m, n), Transform::time_reverse(n));
    let pshift = Transform::paper_shift(m, n);
    let members = match kind {
        0 => return Family::moving_averages(2..=m + 10, n),
        1 => return Family::moving_averages(3..=m + 2, n).with_inverted(),
        2 => return Family::momenta(1..=m, n),
        3 => return Family::circular_shifts(0..=m, n),
        4 => vec![
            -rng.random_range(0.1f64..4.0),
            rng.random_range(0.1f64..4.0),
        ]
        .into_iter()
        .map(|k| Transform::scaling(k, n))
        .collect(),
        5 => return Family::moving_averages(2..=4, n).compose(&Family::momenta(1..=2, n)),
        6 => vec![
            Transform::exponential_moving_average(rng.random_range(0.05f64..1.0), n),
            Transform::weighted_moving_average(&[3.0, 2.0, 1.0], n),
            Transform::band_pass(1, m, n),
        ],
        7 => vec![
            rev.compose(&mv),
            Transform::scaling(-1.5, n).compose(&rev),
            rev,
        ],
        8 => vec![
            mv.compose(&pshift),
            pshift,
            Transform::band_pass(2, 6, n).compose(&mv),
        ],
        _ => {
            let mirror = Family::new("mirror", vec![Transform::identity(n), rev]);
            return Family::circular_shifts(0..=3, n).compose(&mirror);
        }
    };
    Family::new(format!("kind {kind}"), members)
}

/// An index over 12 random walks of length `n` and a prepared query.
fn walks_and_query(
    rng: &mut SeededRng,
    n: usize,
) -> (crate::index::SeqIndex, crate::feature::SeqFeatures) {
    use crate::index::{IndexConfig, SeqIndex};
    use tseries::{random_walk, Corpus};
    let series: Vec<_> = (0..12).map(|_| random_walk(rng, n, 500.0)).collect();
    let names = (0..series.len()).map(|i| format!("s{i}")).collect();
    let index = SeqIndex::build(&Corpus::from_parts(names, series), IndexConfig::default())
        .expect("non-empty corpus");
    let q = index.prepare_query(&random_walk(rng, n, 500.0)).unwrap();
    (index, q)
}

/// The verification kernel is the naive formula up to rounding, for every
/// kind of family at every length of 63, 64, 100 (whose mask FFTs are
/// Bluestein's, with exact spectral zeros at an arbitrary angle), 127 and
/// 128: each `(candidate, member)` distance of a range or k-NN row, in
/// both modes, against the query and against a prepared target that lost
/// conjugate symmetry, is [`Transform::transformed_distance`]'s or
/// [`Transform::distance_data_only`]'s within `1e-12·max(1, d)`; each
/// self-join pair distance is `transformed_distance`'s and each
/// paired-join one `join::pair_spectrum_distance`'s.
#[test]
fn kernel_distance_is_the_naive_distance() {
    use crate::engine::join::pair_spectrum_distance;
    use crate::engine::VerifyKernel;
    use crate::feature::SeqFeatures;
    use crate::query::QueryMode;

    const LENGTHS: [usize; 5] = [63, 64, 100, 127, 128];
    let mut rng = SeededRng::seed_from_u64(0x4E12);
    let (mut pairs, mut drift) = (0, 0.0f64);
    let mut check = |d: f64, naive: f64, what: &dyn Fn() -> String| {
        let err = (d - naive).abs() / naive.max(1.0);
        assert!(err <= 1e-12, "{}: kernel {d} vs naive {naive}", what());
        drift = drift.max(err);
        pairs += 1;
    };
    // Every (kind, length) pair, twice over.
    for case in 0..2 * FAMILY_KINDS * LENGTHS.len() {
        let (kind, n) = (
            case % FAMILY_KINDS,
            LENGTHS[case / FAMILY_KINDS % LENGTHS.len()],
        );
        let family = family_of_kind(kind, &mut rng, n);
        let (index, q) = walks_and_query(&mut rng, n);
        let features: Vec<SeqFeatures> = (0..index.len())
            .map(|i| SeqFeatures::extract(&index.fetch_series(i).unwrap()).unwrap())
            .collect();
        let shifted = Transform::paper_shift(2, n).apply_spectrum(&q.spectrum);
        let lopsided = SeqFeatures::from_spectrum(shifted, q.mean, q.std);
        assert!(!lopsided.conj_symmetric);

        for target in [&q, &lopsided] {
            for mode in [QueryMode::Symmetric, QueryMode::DataOnly] {
                let mut kernel = VerifyKernel::for_query(&index, &family, target, mode);
                // Every candidate listed twice, so that half the rows are
                // copies; then k-NN's way in, one row refilled per
                // candidate.
                let seqs: Vec<usize> = (0..12).rev().chain(0..12).collect();
                kernel.fill_rows(&seqs).unwrap();
                let rows = seqs.iter().copied().enumerate();
                for (i, (row, seq)) in rows.chain([3, 0, 3].map(|s| (0, s))).enumerate() {
                    if i >= seqs.len() {
                        kernel.touch_once(seq).unwrap();
                    }
                    for (ti, t) in family.transforms().iter().enumerate() {
                        let naive = match mode {
                            QueryMode::Symmetric => t.transformed_distance(&features[seq], target),
                            QueryMode::DataOnly => t.distance_data_only(&features[seq], target),
                        };
                        check(kernel.distance(row, ti), naive, &|| {
                            format!("{} {mode:?} on sequence {seq}, length {n}", t.label())
                        });
                    }
                }
            }
        }

        // Both joins, over the pairs of the first eight sequences; the
        // paired join's right side is each member inverted.
        let right = family.compose(&Family::new("inv", vec![Transform::inversion(n)]));
        let mut self_join = VerifyKernel::for_self_join(&index, &family);
        let mut paired = VerifyKernel::for_paired_join(&index, &family, &right);
        self_join.fill_rows(&[0, 1, 2, 3, 4, 5, 6, 7]).unwrap();
        paired.fill_rows(&[7, 6, 5, 4, 3, 2, 1, 0]).unwrap();
        for a in 0..8 {
            for b in a + 1..8 {
                let row = self_join.pair(a, b);
                let (ra, rb) = (7 - a, 7 - b);
                let (x, y) = (&features[a], &features[b]);
                for ti in 0..family.len() {
                    let (l, r) = (&family.transforms()[ti], &right.transforms()[ti]);
                    let what = || format!("{} on ({a}, {b}), length {n}", l.label());
                    check(
                        self_join.distance(row, ti),
                        l.transformed_distance(x, y),
                        &what,
                    );
                    let got = paired.paired_below(ra, rb, ti, f64::INFINITY).unwrap();
                    check(got, pair_spectrum_distance(l, r, x, y), &what);
                }
            }
        }
    }
    assert!(pairs > 50_000, "{pairs} pairs compared");
    println!("kernel vs naive: max relative drift {drift:e} over {pairs} pairs");
}

/// The early abandon is exact, on the linear arm and the complex one:
/// with ε set to a member's full-sum distance and to the floats either
/// side of it, `distance_below` reports a member exactly when its full-sum
/// distance is `< ε`, and reports that sum — symmetric and data-only
/// queries alike.
#[test]
fn early_abandon_decides_as_the_full_sum() {
    use crate::engine::VerifyKernel;
    use crate::query::QueryMode;

    let mut rng = SeededRng::seed_from_u64(0xAB4D);
    let (mut accepted, mut rejected) = ([0; 2], [0; 2]);
    for case in 0..CASES {
        let n = [64, 100, 127, 128][rng.random_range(0..4usize)];
        let family = family_of_kind(rng.random_range(0..FAMILY_KINDS), &mut rng, n);
        let (index, q) = walks_and_query(&mut rng, n);
        let (m, mode) = [(0, QueryMode::Symmetric), (1, QueryMode::DataOnly)][case % 2];
        let mut kernel = VerifyKernel::for_query(&index, &family, &q, mode);
        let seqs: Vec<usize> = (0..index.len()).collect();
        kernel.fill_rows(&seqs).unwrap();
        for (row, seq) in seqs.into_iter().enumerate() {
            let full: Vec<f64> = (0..family.len()).map(|t| kernel.distance(row, t)).collect();
            let d = full[rng.random_range(0..full.len())];
            for eps in [d.next_down(), d, d.next_up(), 0.5 * d] {
                for (t, &full) in full.iter().enumerate() {
                    let got = kernel.distance_below(row, t, eps).map(f64::to_bits);
                    let want = (full < eps).then_some(full.to_bits());
                    assert_eq!(got, want, "{} {mode:?}: {seq}, ε = {eps}", family.name());
                    let tally = if want.is_some() {
                        &mut accepted
                    } else {
                        &mut rejected
                    };
                    tally[m] += 1;
                }
            }
        }
    }
    assert!(
        accepted.iter().chain(&rejected).all(|&k| k > 500),
        "{accepted:?} accepted, {rejected:?} rejected (symmetric, data-only)"
    );
}

/// The paper's counters of a step-5 run, `(DA_all, DA_leaf, candidates,
/// comparisons, record fetches)` summed over its rectangles.
fn paper_counters(m: &crate::report::EngineMetrics) -> [u64; 5] {
    let (node, leaf) = (m.node_accesses, m.leaf_accesses);
    [node, leaf, m.candidates, m.comparisons, m.record_fetches]
}

/// Range step 5 the way the masked descent's executor replaced: each
/// rectangle's own descent, and each candidate filled where that descent
/// meets it, into the kernel's one row (`touch_once`) — nothing is found
/// again, so a candidate of several rectangles is fetched once per
/// rectangle. With `gated`, the sound policies' leaf gate decides per
/// candidate and member, from the entry's point, what is fetched and
/// compared; without, every Eq. 12 candidate is filled and verified.
fn descent_order_range(
    index: &crate::index::SeqIndex,
    q: &crate::feature::SeqFeatures,
    family: &Family,
    spec: &crate::query::RangeSpec,
    mbrs: &[TransformMbr],
    ordered: Option<&crate::ordering::OrderedFamily>,
    gated: bool,
) -> (Vec<crate::report::Match>, [u64; 5]) {
    use crate::engine::VerifyKernel;
    use crate::query::mt_query_region;
    use crate::report::Match;

    let eps = spec.epsilon(index.seq_len());
    let filter = Filter::new(eps, spec.policy);
    let mut kernel = VerifyKernel::for_query(index, family, q, spec.mode);
    let gate = match spec.policy {
        FilterPolicy::Safe | FilterPolicy::Adaptive if gated => kernel.leaf_bound(),
        _ => None,
    };
    let admits = |t: usize, point: &FeatureVec| {
        gate.as_ref()
            .is_none_or(|g| g.admits(t, &g.terms(point), eps))
    };
    let (mut matches, mut counts) = (Vec::new(), [0u64; 5]);
    for mbr in mbrs {
        let bound = filter.bind(mbr, mt_query_region(mbr, &q.point, spec.mode));
        let mut candidates = Vec::new();
        let stats = index
            .search(
                |r| bound.hit(r),
                |r, seq| candidates.push((seq as usize, r.lo)),
            )
            .unwrap();
        counts[0] += stats.nodes_accessed;
        counts[1] += stats.leaf_nodes_accessed;
        counts[2] += stats.candidates;
        for (seq, point) in candidates {
            if !mbr.members.iter().any(|&t| admits(t, &point)) {
                continue;
            }
            let row = kernel.touch_once(seq).unwrap();
            counts[4] += 1;
            let members = match ordered {
                None => mbr.members.len(),
                Some(ordered) => {
                    let dist = |t: usize| kernel.distance(row, t);
                    let max = ordered.max_qualifying_in(&mbr.members, dist, eps, &mut counts[3]);
                    mbr.members
                        .partition_point(|&t| max.is_some_and(|max| t <= max))
                }
            };
            for &transform in &mbr.members[..members] {
                if ordered.is_none() {
                    if !admits(transform, &point) {
                        continue;
                    }
                    counts[3] += 1;
                }
                if let Some(dist) = kernel.distance_below(row, transform, eps) {
                    matches.push(Match {
                        seq,
                        transform,
                        dist,
                    });
                }
            }
        }
    }
    (matches, counts)
}

/// Join step 5 one candidate at a time, in pair order: both members of
/// each pair filled afresh, nothing found again — with a `right` family
/// the paired join `D(L(x), R(y))` both ways, else a self-join of every
/// rectangle in `mbrs` under `left`.
fn pair_order_join(
    index: &crate::index::SeqIndex,
    left: &Family,
    right: Option<&Family>,
    spec: &crate::query::RangeSpec,
    mbrs: &[TransformMbr],
) -> (Vec<crate::report::JoinMatch>, [u64; 5]) {
    use crate::engine::VerifyKernel;
    use crate::report::JoinMatch;

    let eps = spec.epsilon(index.seq_len());
    let filter = Filter::new(eps, spec.policy);
    let mut kernel = match right {
        Some(right) => VerifyKernel::for_paired_join(index, left, right),
        None => VerifyKernel::for_self_join(index, left),
    };
    let rmbr = right.map(TransformMbr::of_family);
    let (mut matches, mut counts) = (Vec::new(), [0u64; 5]);
    for mbr in mbrs {
        let hit = |r1: &_, r2: &_| match &rmbr {
            Some(rmbr) => {
                filter.hit(&mbr.apply_to_rect(r1), &rmbr.apply_to_rect(r2))
                    || filter.hit(&mbr.apply_to_rect(r2), &rmbr.apply_to_rect(r1))
            }
            None => filter.hit(&mbr.apply_to_rect(r1), &mbr.apply_to_rect(r2)),
        };
        let mut pairs = Vec::new();
        let stats = index
            .self_join(hit, |_, a, _, b| pairs.push((a as usize, b as usize)))
            .unwrap();
        counts[0] += stats.nodes_accessed;
        counts[1] += stats.leaf_nodes_accessed;
        counts[2] += pairs.len() as u64;
        for (a, b) in pairs {
            let (x, y) = (kernel.rows(), kernel.rows() + 1);
            kernel.fill_rows(&[a]).unwrap();
            kernel.fill_rows(&[b]).unwrap();
            counts[4] += 2;
            let mut report = |seq_a, seq_b, transform, dist: Option<f64>| {
                counts[3] += 1;
                matches.extend(dist.map(|dist| JoinMatch {
                    seq_a,
                    seq_b,
                    transform,
                    dist,
                }));
            };
            if right.is_some() {
                for t in 0..left.len() {
                    report(a, b, t, kernel.paired_below(x, y, t, eps));
                    report(b, a, t, kernel.paired_below(y, x, t, eps));
                }
            } else {
                let row = kernel.pair(x, y);
                for &t in &mbr.members {
                    report(a.min(b), a.max(b), t, kernel.distance_below(row, t, eps));
                }
            }
        }
    }
    (matches, counts)
}

/// Step 5 in heap order answers as step 5 in descent order: over seeded
/// corpora — after inserts and deletes too, with pools of 2 to 64 pages —
/// every partitioning (an ST plan of 70 members is two mask groups), both
/// modes, ordered plans and both joins report the pairs, the match order,
/// the distance bits and the paper's counters of an oracle that fills one
/// candidate at a time where its descent or pair list meets it
/// ([`descent_order_range`], [`pair_order_join`]).
#[test]
fn heap_order_step_5_answers_as_descent_order() {
    use crate::engine::{join, mtindex};
    use crate::index::{IndexConfig, SeqIndex};
    use crate::ordering::OrderedFamily;
    use crate::partition::{partition, PartitionStrategy};
    use crate::query::{QueryMode, RangeSpec};
    use crate::report::{JoinMatch, Match};
    use tseries::{Corpus, CorpusKind};

    const N: usize = 64;
    let bits = |v: &[Match]| -> Vec<_> {
        v.iter()
            .map(|m| (m.seq, m.transform, m.dist.to_bits()))
            .collect()
    };
    let join_bits = |v: &[JoinMatch]| -> Vec<_> {
        v.iter()
            .map(|m| (m.seq_a, m.seq_b, m.transform, m.dist.to_bits()))
            .collect()
    };
    let mut rng = SeededRng::seed_from_u64(0x4EA9);
    let (mut matched, mut joined, mut two_groups) = (0, 0, 0);
    for case in 0..6 {
        let size = rng.random_range(100..200usize);
        let corpus = Corpus::generate(CorpusKind::SyntheticWalks, size, N, rng.next_u64());
        let config = IndexConfig {
            fanout: Some([8, 16, 78][case % 3]),
            heap_pool_pages: [2, 8, 64][rng.random_range(0..3usize)],
        };
        let mut index = SeqIndex::build(&corpus.truncated(size / 2), config).unwrap();
        if case % 2 == 1 {
            for ts in &corpus.series()[size / 2..] {
                index.insert_series(ts).unwrap();
            }
            for _ in 0..size / 10 {
                index
                    .delete_series(rng.random_range(0..index.len()))
                    .unwrap();
            }
        }
        let query = &corpus.series()[rng.random_range(0..size)];
        let q = index.prepare_query(query).unwrap();
        let mut check = |what: &str, spec: &RangeSpec, family, mbrs: &[_], ordered| {
            let (got, _) =
                mtindex::range_query_features(&index, &q, family, spec, mbrs, ordered).unwrap();
            let (want, counts) = descent_order_range(&index, &q, family, spec, mbrs, ordered, true);
            let what = format!("case {case}: {what}, {} rectangles", mbrs.len());
            assert_eq!(bits(&got.matches), bits(&want), "{what}");
            assert_eq!(paper_counters(&got.metrics), counts, "{what}");
            matched += want.len();
        };

        let family = match case % 3 {
            0 => Family::moving_averages(2..=36, N).with_inverted(),
            1 => Family::momenta(1..=6, N),
            _ => Family::moving_averages(3..=12, N).with_inverted(),
        };
        for policy in [FilterPolicy::Safe, FilterPolicy::Adaptive] {
            let mode = [QueryMode::Symmetric, QueryMode::DataOnly][rng.random_range(0..2usize)];
            let rho = [0.8, 0.9, 0.96][rng.random_range(0..3usize)];
            let spec = RangeSpec::correlation(rho)
                .with_policy(policy)
                .with_mode(mode);
            for strategy in [
                PartitionStrategy::Single,
                PartitionStrategy::EqualWidth {
                    per_mbr: rng.random_range(2..6usize),
                },
                PartitionStrategy::KMeans {
                    k: rng.random_range(2..5usize),
                },
                PartitionStrategy::EqualWidth { per_mbr: 1 },
            ] {
                let mbrs = partition(&family, &strategy);
                two_groups += usize::from(mbrs.len() > mtindex::MASK_WIDTH);
                let what = format!("{} {strategy:?} {policy:?} {mode:?}", family.name());
                check(&what, &spec, &family, &mbrs, None);
            }
        }

        // Ordered plans: MT over one rectangle and over runs of ranks, and
        // §4.4's single ST traversal with every rank as its members.
        let factors: Vec<f64> = (1..=16).map(|k| 0.25 * k as f64).collect();
        let ordered = OrderedFamily::scalings(&factors, N);
        let family = ordered.family();
        let spec =
            RangeSpec::euclidean(rng.random_range(4.0..10.0)).with_policy(FilterPolicy::Safe);
        let t0 = TransformMbr {
            members: (0..family.len()).collect(),
            ..TransformMbr::of(family, vec![0])
        };
        for mbrs in [
            partition(family, &PartitionStrategy::Single),
            partition(family, &PartitionStrategy::EqualWidth { per_mbr: 4 }),
            vec![t0],
        ] {
            check("ordered", &spec, family, &mbrs, Some(&ordered));
        }

        // Both joins.
        let spec = RangeSpec::correlation(0.95).with_policy(FilterPolicy::Safe);
        let family = Family::moving_averages(2..=5, N);
        let inverted = family.compose(&Family::new("inv", vec![Transform::inversion(N)]));
        for mbrs in [
            vec![TransformMbr::of_family(&family)],
            TransformMbr::singletons(&family),
        ] {
            let got = join::mt_join_with_mbrs(&index, &family, &spec, &mbrs).unwrap();
            let (want, counts) = pair_order_join(&index, &family, None, &spec, &mbrs);
            let what = format!("case {case}: self-join, {} rectangles", mbrs.len());
            assert_eq!(join_bits(&got.matches), join_bits(&want), "{what}");
            assert_eq!(paper_counters(&got.metrics), counts, "{what}");
            joined += want.len();
        }
        let got = join::mt_join_paired(&index, &inverted, &family, &spec).unwrap();
        let mbrs = [TransformMbr::of_family(&inverted)];
        let (want, counts) = pair_order_join(&index, &inverted, Some(&family), &spec, &mbrs);
        assert_eq!(
            join_bits(&got.matches),
            join_bits(&want),
            "case {case}: paired"
        );
        assert_eq!(paper_counters(&got.metrics), counts, "case {case}: paired");
        joined += want.len();
    }
    assert!(
        matched > 10_000 && joined > 300 && two_groups >= 2,
        "{matched} matches, {joined} join matches, {two_groups} two-group plans"
    );
}

/// A sequence of length `n` whose normal form has only coefficients 1 and
/// 2 (and their mirrors): between two of them the leaf bound is the whole
/// distance up to rounding, which is where its margin has to hold.
fn two_tone(rng: &mut SeededRng, n: usize) -> tseries::TimeSeries {
    let (a, b) = (rng.random_range(0.5f64..4.0), rng.random_range(0.0f64..3.0));
    let (p1, p2) = (rng.random_range(-PI..PI), rng.random_range(-PI..PI));
    let level = rng.random_range(-50f64..50.0);
    (0..n)
        .map(|t| {
            let w = 2.0 * PI * t as f64 / n as f64;
            level + a * (w + p1).sin() + b * (2.0 * w + p2).sin()
        })
        .collect()
}

/// An index of 40 to 80 sequences of length `n` — random walks and
/// two-tone sequences, ordinals 0–3 a walk, its copy, a two-tone sequence
/// and its copy — bulk-loaded from the first half, the rest inserted, then
/// about a tenth of ordinals 4 and up deleted; with the corpus and the
/// live ordinals.
fn gate_index(
    rng: &mut SeededRng,
    n: usize,
) -> (crate::index::SeqIndex, Vec<tseries::TimeSeries>, Vec<usize>) {
    use crate::index::{IndexConfig, SeqIndex};
    use tseries::{random_walk, Corpus};
    let size = rng.random_range(40..80usize);
    let (walk, tone) = (random_walk(rng, n, 500.0), two_tone(rng, n));
    let mut series = vec![walk.clone(), walk, tone.clone(), tone];
    while series.len() < size {
        series.push(if rng.random_bool(0.3) {
            two_tone(rng, n)
        } else {
            random_walk(rng, n, 500.0)
        });
    }
    let names: Vec<String> = (0..size).map(|i| format!("s{i}")).collect();
    let config = IndexConfig {
        fanout: Some([4, 8, 16][rng.random_range(0..3usize)]),
        ..IndexConfig::default()
    };
    let half = size / 2;
    let bulk = Corpus::from_parts(names[..half].to_vec(), series[..half].to_vec());
    let mut index = SeqIndex::build(&bulk, config).unwrap();
    for ts in &series[half..] {
        index.insert_series(ts).unwrap();
    }
    for _ in 0..size / 10 {
        index.delete_series(rng.random_range(4..size)).unwrap();
    }
    let deleted = index.deleted_ordinals();
    let live = (0..size)
        .filter(|i| !deleted.contains(i) && !index.skipped().contains(i))
        .collect();
    (index, series, live)
}

/// The families the leaf-bound suites draw from ([`family_of_kind`]):
/// moving averages, EMAs (with a weighted average and a band-pass), a
/// reversal, the paper's approximate shift, and compositions — of
/// momenta, and of shifts with a mirror.
const GATE_KINDS: [usize; 6] = [0, 6, 7, 8, 5, 9];

/// Matches as `(sequence, member, distance bits)`.
fn match_bits(v: &[crate::report::Match]) -> Vec<(usize, usize, u64)> {
    v.iter()
        .map(|m| (m.seq, m.transform, m.dist.to_bits()))
        .collect()
}

/// The leaf gate between steps 4 and 5 never changes an answer: over
/// corpora after inserts and deletes at lengths 64, 100, 127 and 128,
/// every family of [`GATE_KINDS`], both sound policies, every plan shape
/// — ST, one rectangle, equal width, k-means, an ST plan of 70 members
/// (two mask groups) and ordered MT / ST plans — and a prepared target
/// that is not conjugate-symmetric (`span = n`), with ε set to a kernel
/// distance and to the floats either side of it, the gated engine reports
/// the matches, match order and distance bits of an oracle that fills and
/// verifies every Eq. 12 candidate, and the same candidates.
#[test]
fn leaf_gate_answers_as_the_ungated_oracle() {
    use crate::engine::{mtindex, VerifyKernel};
    use crate::feature::SeqFeatures;
    use crate::ordering::OrderedFamily;
    use crate::partition::{partition, PartitionStrategy};
    use crate::query::{QueryMode, RangeSpec};

    let mut rng = SeededRng::seed_from_u64(0x6A7E);
    let (mut matched, mut compared, mut ungated, mut plans) = (0, 0, 0, 0);
    for case in 0..12 {
        let n = [64, 100, 127, 128][case % 4];
        let (index, series, live) = gate_index(&mut rng, n);
        let family = family_of_kind(GATE_KINDS[case % GATE_KINDS.len()], &mut rng, n);
        // A walk, a two-tone sequence (each with a copy), or a stranger.
        let query = match case % 3 {
            0 => series[0].clone(),
            1 => series[2].clone(),
            _ => two_tone(&mut rng, n),
        };
        let q = index.prepare_query(&query).unwrap();
        let shifted = Transform::paper_shift(2, n).apply_spectrum(&q.spectrum);
        let lopsided = SeqFeatures::from_spectrum(shifted, q.mean, q.std);
        assert!(!lopsided.conj_symmetric);
        let ordered = OrderedFamily::scalings(&[0.5, 1.0, 1.5, 2.5, 4.0], n);
        let wide = Family::moving_averages(2..=36, n).with_inverted();

        let mut pick = SeededRng::seed_from_u64(rng.next_u64());
        let mut check = |what: &str, target: &SeqFeatures, family: &Family, mbrs: &[_], ord| {
            // ε at the distance of a live sequence under one member, one
            // of the nearest third under it.
            let mut kernel = VerifyKernel::for_query(&index, family, target, QueryMode::Symmetric);
            kernel.fill_rows(&live).unwrap();
            let t = pick.random_range(0..family.len());
            let mut near: Vec<f64> = (0..live.len()).map(|row| kernel.distance(row, t)).collect();
            near.sort_by(f64::total_cmp);
            let d = near[pick.random_range(0..live.len() / 3)];
            for eps in [d.next_down(), d, d.next_up()] {
                if eps < 0.0 {
                    continue;
                }
                for policy in [FilterPolicy::Safe, FilterPolicy::Adaptive] {
                    let spec = RangeSpec::euclidean(eps).with_policy(policy);
                    let (got, _) =
                        mtindex::range_query_features(&index, target, family, &spec, mbrs, ord)
                            .unwrap();
                    let (want, counts) =
                        descent_order_range(&index, target, family, &spec, mbrs, ord, false);
                    let what = format!("case {case}, n = {n}: {what} {policy:?} at ε = {eps}");
                    assert_eq!(match_bits(&got.matches), match_bits(&want), "{what}");
                    assert_eq!(got.metrics.candidates, counts[2], "{what}");
                    matched += want.len();
                    compared += got.metrics.comparisons;
                    ungated += counts[3];
                    plans += 1;
                }
            }
        };

        for (name, target) in [("query", &q), ("asymmetric target", &lopsided)] {
            for strategy in [
                PartitionStrategy::EqualWidth { per_mbr: 1 },
                PartitionStrategy::Single,
                PartitionStrategy::EqualWidth {
                    per_mbr: rng.random_range(2..4usize),
                },
                PartitionStrategy::KMeans {
                    k: rng.random_range(2..4usize),
                },
            ] {
                let mbrs = partition(&family, &strategy);
                check(
                    &format!("{name} {strategy:?}"),
                    target,
                    &family,
                    &mbrs,
                    None,
                );
            }
        }
        if case % 4 == 0 {
            let mbrs = TransformMbr::singletons(&wide);
            check("70-member ST", &q, &wide, &mbrs, None);
        }
        let t0 = TransformMbr {
            members: (0..ordered.family().len()).collect(),
            ..TransformMbr::of(ordered.family(), vec![0])
        };
        for mbrs in [
            partition(ordered.family(), &PartitionStrategy::Single),
            partition(
                ordered.family(),
                &PartitionStrategy::EqualWidth { per_mbr: 2 },
            ),
            vec![t0],
        ] {
            let what = format!("ordered, {} rectangles", mbrs.len());
            check(&what, &q, ordered.family(), &mbrs, Some(&ordered));
        }
    }
    assert!(
        plans > 500 && matched > 20_000 && 4 * compared < 3 * ungated,
        "{plans} plans, {matched} matches, {compared} of {ungated} comparisons"
    );
}

/// The leaf gate's masks are its per-member test: for the entry terms of
/// points near the query (coordinates now and then signed zeros,
/// infinities or NaN) and thresholds on either side of the nearest
/// member's bound, bit `t` of `LeafBound::admitted` at `LeafBound::limit(ε)`
/// is `admits(t, terms, ε)`, and each mask group's kept rectangles are
/// those with a member that `admits` — for a 70-member family (an ST plan
/// of two mask groups, each `mask & admitted`) and for families of every
/// kind in partitioned plans.
#[test]
fn leaf_gate_masks_are_per_member_admits() {
    use crate::engine::mtindex::MASK_WIDTH;
    use crate::engine::{GroupMembers, LeafBound, VerifyKernel};
    use crate::partition::{partition, PartitionStrategy};
    use crate::query::QueryMode;

    let mut rng = SeededRng::seed_from_u64(0x6A75);
    let (mut admitted_bits, mut refused_bits, mut kept, mut dropped) = (0, 0, 0, 0);
    for case in 0..8 {
        let n = [64, 128, 100, 127][case % 4];
        let (index, q) = walks_and_query(&mut rng, n);
        let family = if case % 2 == 0 {
            Family::moving_averages(2..=36, n).with_inverted()
        } else {
            family_of_kind(GATE_KINDS[case % GATE_KINDS.len()], &mut rng, n)
        };
        let gate = VerifyKernel::for_query(&index, &family, &q, QueryMode::Symmetric)
            .leaf_bound()
            .unwrap();
        let plans: Vec<Vec<TransformMbr>> = [
            PartitionStrategy::EqualWidth { per_mbr: 1 },
            PartitionStrategy::Single,
            PartitionStrategy::EqualWidth {
                per_mbr: rng.random_range(2..7usize),
            },
            PartitionStrategy::KMeans {
                k: rng.random_range(2..6usize),
            },
        ]
        .iter()
        .map(|strategy| partition(&family, strategy))
        .collect();
        let groups: Vec<Vec<_>> = plans
            .iter()
            .map(|mbrs| {
                (mbrs.chunks(MASK_WIDTH).enumerate())
                    .map(|(g, group)| (group, GroupMembers::of(group, g * MASK_WIDTH)))
                    .collect()
            })
            .collect();
        // ST's singletons are the family in order: one word per group.
        assert!(groups[0]
            .iter()
            .all(|(_, members)| matches!(members, GroupMembers::Singletons(_))));
        assert_eq!(groups[0].len(), family.len().div_ceil(MASK_WIDTH));

        let mut admitted = vec![0; gate.words()];
        for _ in 0..CASES {
            let terms = gate.terms(&entry_near(&mut rng, &q.point).lo);
            let nearest = gate.nearest(&terms);
            let eps = nearest * [0.5, 1.0, 1.0 + 1e-12, 1.3, 3.0][rng.random_range(0..5usize)];
            gate.admitted(&terms, LeafBound::limit(eps), &mut admitted);
            for t in 0..64 * admitted.len() {
                let bit = admitted[t / 64] >> (t % 64) & 1 != 0;
                let want = t < family.len() && gate.admits(t, &terms, eps);
                assert_eq!(bit, want, "case {case} member {t} eps {eps}: {terms:?}");
                admitted_bits += usize::from(want);
                refused_bits += usize::from(t < family.len() && !want);
            }
            for (group, members) in groups.iter().flatten() {
                let all = u64::MAX >> (64 - group.len());
                let mask = [all, rng.next_u64() & all][rng.random_range(0..2usize)];
                let want = rstartree::mask_bits(mask)
                    .filter(|&j| {
                        group[j]
                            .members
                            .iter()
                            .any(|&t| gate.admits(t, &terms, eps))
                    })
                    .fold(0, |m, j| m | 1 << j);
                assert_eq!(members.kept(mask, &admitted), want, "case {case} eps {eps}");
                kept += want.count_ones();
                dropped += (mask & !want).count_ones();
            }
        }
    }
    assert!(
        admitted_bits > 1000 && refused_bits > 1000 && kept > 500 && dropped > 500,
        "{admitted_bits} admitted, {refused_bits} refused, {kept} kept, {dropped} dropped"
    );
}

/// k-NN on the leaf bound is the kernel's brute-force ranking: over the
/// corpora of [`leaf_gate_answers_as_the_ungated_oracle`] — after inserts
/// and deletes, with a walk and a two-tone sequence each held twice, so
/// that a query on either finds two neighbours at distance 0 — and every
/// family of [`GATE_KINDS`] (a reversal among them), for `k` from 1 past
/// the live count, the neighbours `(sequence, member, distance bits)` are
/// the first `k` of every live sequence's best member under the kernel,
/// ordered by `(distance, sequence)`.
#[test]
fn knn_on_the_leaf_bound_is_the_brute_force_ranking() {
    use crate::engine::{knn, VerifyKernel};
    use crate::query::QueryMode;

    let mut rng = SeededRng::seed_from_u64(0x6A7F);
    let (mut queries, mut refined, mut ties) = (0, 0, 0);
    for case in 0..12 {
        let n = [64, 100, 127, 128][case % 4];
        let (index, series, live) = gate_index(&mut rng, n);
        let family = family_of_kind(GATE_KINDS[case % GATE_KINDS.len()], &mut rng, n);
        for query in [series[0].clone(), series[2].clone(), two_tone(&mut rng, n)] {
            let q = index.prepare_query(&query).unwrap();
            let mut kernel = VerifyKernel::for_query(&index, &family, &q, QueryMode::Symmetric);
            kernel.fill_rows(&live).unwrap();
            let mut ranking: Vec<(usize, usize, f64)> = live
                .iter()
                .enumerate()
                .map(|(row, &seq)| {
                    let (mut best_t, mut best_d) = (0, f64::INFINITY);
                    for t in 0..family.len() {
                        let d = kernel.distance(row, t);
                        if d < best_d {
                            (best_t, best_d) = (t, d);
                        }
                    }
                    (seq, best_t, best_d)
                })
                .collect();
            ranking.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
            ties += ranking.windows(2).filter(|w| w[0].2 == w[1].2).count();
            let mut ks = vec![1, 2, 3, 7, live.len() / 2, live.len() - 1, live.len()];
            ks.push(live.len() + 2);
            for k in ks {
                let (got, metrics) = knn::knn(&index, &query, &family, k).unwrap();
                let got: Vec<_> = got
                    .iter()
                    .map(|m| (m.seq, m.transform, m.dist.to_bits()))
                    .collect();
                let want: Vec<_> = ranking
                    .iter()
                    .take(k)
                    .map(|&(seq, t, d)| (seq, t, d.to_bits()))
                    .collect();
                assert_eq!(
                    got,
                    want,
                    "case {case}, n = {n}, {}: k = {k}",
                    family.name()
                );
                if k <= 3 {
                    refined += metrics.candidates;
                    queries += 1;
                }
            }
        }
    }
    assert!(ties >= 12, "{ties} tied neighbours");
    assert!(
        refined < 8 * queries,
        "{refined} refinements over {queries} queries with k ≤ 3"
    );
}
