//! Deterministic and property-style tests of the whole tree: structural
//! invariants under seeded random insert/delete mixes, recall equivalence
//! against linear scans, nearest-neighbour exactness and join completeness.

use crate::*;

type Tree2 = RStarTree<2>;

/// A tiny SplitMix64 generator keeping this crate dependency-free; the
/// randomized tests below run a fixed number of seeded cases instead of
/// using an external property-testing framework.
struct MiniRng(u64);

impl MiniRng {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[lo, hi)`.
    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64))
    }
}

fn new_tree(max: usize) -> Tree2 {
    RStarTree::with_params(PagedStore::in_memory(), Params::with_max(max))
}

fn random_points(n: usize, seed: u64) -> Vec<(Rect<2>, u64)> {
    let mut rng = MiniRng::new(seed);
    (0..n)
        .map(|i| {
            let p = [
                rng.range_f64(-1000.0, 1000.0),
                rng.range_f64(-1000.0, 1000.0),
            ];
            (Rect::point(p), i as u64)
        })
        .collect()
}

#[test]
fn empty_tree_sane() {
    let tree = new_tree(8);
    assert!(tree.is_empty());
    assert_eq!(tree.height(), 1);
    let (hits, stats) = tree.range(&Rect::new([-1e9, -1e9], [1e9, 1e9])).unwrap();
    assert!(hits.is_empty());
    assert_eq!(stats.nodes_accessed, 1);
    tree.validate().unwrap();
}

#[test]
fn insert_then_find_everything() {
    let mut tree = new_tree(8);
    let items = random_points(500, 1);
    for (r, d) in &items {
        tree.insert(*r, *d).unwrap();
    }
    assert_eq!(tree.len(), 500);
    tree.validate().unwrap();
    let (hits, _) = tree.range(&Rect::new([-1e9, -1e9], [1e9, 1e9])).unwrap();
    assert_eq!(hits.len(), 500);
}

#[test]
fn range_query_matches_linear_scan() {
    let items = random_points(800, 2);
    let mut tree = new_tree(16);
    for (r, d) in &items {
        tree.insert(*r, *d).unwrap();
    }
    for (qi, query) in [
        Rect::new([-100.0, -100.0], [100.0, 100.0]),
        Rect::new([500.0, -1000.0], [1000.0, 0.0]),
        Rect::point([12345.0, 0.0]),
    ]
    .iter()
    .enumerate()
    {
        let (mut got, _) = tree.range(query).unwrap();
        got.sort_by_key(|(_, d)| *d);
        let mut want: Vec<u64> = items
            .iter()
            .filter(|(r, _)| r.intersects(query))
            .map(|(_, d)| *d)
            .collect();
        want.sort_unstable();
        assert_eq!(
            got.iter().map(|(_, d)| *d).collect::<Vec<_>>(),
            want,
            "query {qi}"
        );
    }
}

#[test]
fn delete_removes_and_preserves_invariants() {
    let items = random_points(300, 3);
    let mut tree = new_tree(8);
    for (r, d) in &items {
        tree.insert(*r, *d).unwrap();
    }
    // Delete every third item.
    for (r, d) in items.iter().step_by(3) {
        assert!(tree.delete(r, *d).unwrap(), "must find {d}");
    }
    tree.validate().unwrap();
    let survivors: Vec<u64> = items
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 0)
        .map(|(_, (_, d))| *d)
        .collect();
    let (mut got, _) = tree.range(&Rect::new([-1e9, -1e9], [1e9, 1e9])).unwrap();
    got.sort_by_key(|(_, d)| *d);
    assert_eq!(got.iter().map(|(_, d)| *d).collect::<Vec<_>>(), survivors);
}

#[test]
fn delete_everything_leaves_empty_tree() {
    let items = random_points(120, 4);
    let mut tree = new_tree(6);
    for (r, d) in &items {
        tree.insert(*r, *d).unwrap();
    }
    for (r, d) in &items {
        assert!(tree.delete(r, *d).unwrap());
    }
    assert!(tree.is_empty());
    tree.validate().unwrap();
    // The tree is reusable afterwards.
    tree.insert(Rect::point([1.0, 1.0]), 77).unwrap();
    assert_eq!(tree.len(), 1);
    tree.validate().unwrap();
}

#[test]
fn delete_missing_returns_false() {
    let mut tree = new_tree(8);
    tree.insert(Rect::point([1.0, 2.0]), 1).unwrap();
    assert!(
        !tree.delete(&Rect::point([1.0, 2.0]), 2).unwrap(),
        "wrong payload"
    );
    assert!(
        !tree.delete(&Rect::point([9.0, 9.0]), 1).unwrap(),
        "wrong rect"
    );
    assert_eq!(tree.len(), 1);
}

#[test]
fn duplicate_points_supported() {
    let mut tree = new_tree(8);
    for d in 0..50 {
        tree.insert(Rect::point([3.5, 2.25]), d).unwrap();
    }
    tree.validate().unwrap();
    let (hits, _) = tree.range(&Rect::point([3.5, 2.25])).unwrap();
    assert_eq!(hits.len(), 50);
    assert!(tree.delete(&Rect::point([3.5, 2.25]), 25).unwrap());
    let (hits, _) = tree.range(&Rect::point([3.5, 2.25])).unwrap();
    assert_eq!(hits.len(), 49);
}

#[test]
fn nearest_matches_brute_force() {
    let items = random_points(400, 5);
    let mut tree = new_tree(16);
    for (r, d) in &items {
        tree.insert(*r, *d).unwrap();
    }
    let queries = [[0.0, 0.0], [999.0, -999.0], [-512.0, 400.0]];
    for q in queries {
        let (got, _) = tree
            .nearest_by(
                5,
                |rect| rect.min_dist_sq(&q),
                |rect, _| Some(rect.min_dist_sq(&q)),
            )
            .unwrap();
        assert_eq!(got.len(), 5);
        let mut brute: Vec<(f64, u64)> =
            items.iter().map(|(r, d)| (r.min_dist_sq(&q), *d)).collect();
        brute.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (i, n) in got.iter().enumerate() {
            assert!(
                (n.dist - brute[i].0).abs() < 1e-9,
                "rank {i}: {} vs {}",
                n.dist,
                brute[i].0
            );
        }
    }
}

#[test]
fn nearest_leaf_score_filter_applies() {
    let mut tree = new_tree(8);
    for (r, d) in random_points(100, 6) {
        tree.insert(r, d).unwrap();
    }
    let q = [0.0, 0.0];
    // Disqualify even payloads.
    let (got, _) = tree
        .nearest_by(
            10,
            |rect| rect.min_dist_sq(&q),
            |rect, d| (d % 2 == 1).then(|| rect.min_dist_sq(&q)),
        )
        .unwrap();
    assert_eq!(got.len(), 10);
    assert!(got.iter().all(|n| n.data % 2 == 1));
}

#[test]
fn nearest_dfs_matches_best_first() {
    let items = random_points(600, 31);
    let mut tree = new_tree(16);
    for (r, d) in &items {
        tree.insert(*r, *d).unwrap();
    }
    for q in [[0.0, 0.0], [750.0, -320.0], [-999.0, 999.0]] {
        for k in [1usize, 3, 10] {
            let (bf, _) = tree
                .nearest_by(k, |r| r.min_dist_sq(&q), |r, _| Some(r.min_dist_sq(&q)))
                .unwrap();
            for use_mm in [false, true] {
                let (dfs, _) = tree.nearest_dfs(k, &q, use_mm).unwrap();
                assert_eq!(bf.len(), dfs.len(), "k={k}");
                for (a, b) in bf.iter().zip(&dfs) {
                    assert!(
                        (a.dist - b.dist).abs() < 1e-9,
                        "k={k} mm={use_mm}: {} vs {}",
                        a.dist,
                        b.dist
                    );
                }
            }
        }
    }
}

#[test]
fn nearest_dfs_prunes() {
    let items = random_points(3000, 33);
    let mut tree = new_tree(16);
    for (r, d) in &items {
        tree.insert(*r, *d).unwrap();
    }
    let total = tree.validate().unwrap() as u64;
    let (_, stats) = tree.nearest_dfs(1, &[10.0, 10.0], true).unwrap();
    assert!(
        stats.nodes_accessed < total / 3,
        "DFS NN should prune most of {total} nodes, visited {}",
        stats.nodes_accessed
    );
}

#[test]
fn nearest_by_refine_matches_plain_nearest() {
    let items = random_points(500, 21);
    let mut tree = new_tree(12);
    for (r, d) in &items {
        tree.insert(*r, *d).unwrap();
    }
    let q = [37.0, -12.0];
    // Exact distance is the point distance; the "cheap" leaf bound is a
    // deliberately slack half of it, forcing deferred refinement to do the
    // ordering work.
    let (plain, _) = tree
        .nearest_by(7, |r| r.min_dist_sq(&q), |r, _| Some(r.min_dist_sq(&q)))
        .unwrap();
    let mut refined_count = 0;
    let (refined, stats) = tree
        .nearest_by_refine(
            7,
            |r| 0.5 * r.min_dist_sq(&q),
            |r, _| 0.5 * r.min_dist_sq(&q),
            |r, _| {
                refined_count += 1;
                Some(r.min_dist_sq(&q))
            },
        )
        .unwrap();
    assert_eq!(plain.len(), refined.len());
    for (a, b) in plain.iter().zip(&refined) {
        assert!((a.dist - b.dist).abs() < 1e-12, "{} vs {}", a.dist, b.dist);
    }
    assert_eq!(stats.candidates, refined_count);
    assert!(
        refined_count < 500,
        "refinement should not touch every point: {refined_count}"
    );
}

#[test]
fn nearest_by_refine_filter_via_none() {
    let items = random_points(200, 22);
    let mut tree = new_tree(8);
    for (r, d) in &items {
        tree.insert(*r, *d).unwrap();
    }
    let q = [0.0, 0.0];
    let (got, _) = tree
        .nearest_by_refine(
            5,
            |r| r.min_dist_sq(&q),
            |r, _| r.min_dist_sq(&q),
            |r, d| (d % 3 == 0).then(|| r.min_dist_sq(&q)),
        )
        .unwrap();
    assert_eq!(got.len(), 5);
    assert!(got.iter().all(|n| n.data % 3 == 0));
    // Matches brute force over the filtered subset.
    let mut brute: Vec<f64> = items
        .iter()
        .filter(|(_, d)| d % 3 == 0)
        .map(|(r, _)| r.min_dist_sq(&q))
        .collect();
    brute.sort_by(f64::total_cmp);
    for (i, n) in got.iter().enumerate() {
        assert!((n.dist - brute[i]).abs() < 1e-12);
    }
}

#[test]
fn self_join_reports_each_pair_once() {
    let items = random_points(150, 7);
    let mut tree = new_tree(8);
    for (r, d) in &items {
        tree.insert(*r, *d).unwrap();
    }
    let thresh = 150.0;
    let pred = |a: &Rect<2>, b: &Rect<2>| {
        // Expand-by-threshold intersection — monotone under MBR union.
        (0..2).all(|i| a.lo[i] - thresh <= b.hi[i] && b.lo[i] - thresh <= a.hi[i])
    };
    let mut pairs = Vec::new();
    tree.self_join(pred, |_, d1, _, d2| {
        pairs.push((d1.min(d2), d1.max(d2)));
    })
    .unwrap();
    let mut sorted = pairs.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        pairs.len(),
        "self-join produced duplicate pairs"
    );

    // Completeness + soundness against brute force.
    let mut brute = Vec::new();
    for i in 0..items.len() {
        for j in (i + 1)..items.len() {
            if pred(&items[i].0, &items[j].0) {
                brute.push((items[i].1.min(items[j].1), items[i].1.max(items[j].1)));
            }
        }
    }
    brute.sort_unstable();
    pairs.sort_unstable();
    assert_eq!(pairs, brute);
}

#[test]
fn paged_tree_survives_disk_image_roundtrip() {
    use pagestore::Disk;
    use std::sync::Arc;
    let items = random_points(400, 55);
    let disk = Arc::new(Disk::new());
    let mut tree: Tree2 =
        RStarTree::with_params(PagedStore::new(disk.clone()), Params::with_max(16));
    for (r, d) in &items {
        tree.insert(*r, *d).unwrap();
    }
    let (root, level, len) = (tree.root_id(), tree.root_level(), tree.len());
    let params = tree.params().clone();

    let path = std::env::temp_dir().join("rstartree_image_test.pg");
    disk.save_to(&path).unwrap();
    let reopened_disk = Arc::new(Disk::load_from(&path).unwrap());
    let reopened: Tree2 = RStarTree::open(PagedStore::new(reopened_disk), root, level, len, params);
    reopened.validate().unwrap();

    let q = Rect::new([-400.0, -400.0], [400.0, 400.0]);
    let (mut a, _) = tree.range(&q).unwrap();
    let (mut b, _) = reopened.range(&q).unwrap();
    a.sort_by_key(|(_, d)| *d);
    b.sort_by_key(|(_, d)| *d);
    assert_eq!(a, b);
    std::fs::remove_file(&path).ok();
}

#[test]
fn node_access_counting_via_store() {
    let mut tree = new_tree(8);
    for (r, d) in random_points(200, 11) {
        tree.insert(r, d).unwrap();
    }
    tree.store().reset_stats();
    let (_, stats) = tree
        .range(&Rect::new([-50.0, -50.0], [50.0, 50.0]))
        .unwrap();
    assert_eq!(tree.store().stats().reads, stats.nodes_accessed);
}

#[test]
fn search_prunes_subtrees() {
    let mut tree = new_tree(8);
    for (r, d) in random_points(2000, 12) {
        tree.insert(r, d).unwrap();
    }
    let total_nodes = tree.validate().unwrap() as u64;
    let (_, stats) = tree.range(&Rect::new([0.0, 0.0], [10.0, 10.0])).unwrap();
    assert!(
        stats.nodes_accessed < total_nodes / 4,
        "tiny query should prune most of {total_nodes} nodes, accessed {}",
        stats.nodes_accessed
    );
}

#[test]
fn forced_reinsert_occurs_with_default_params() {
    // White-box-ish: a clustered insertion order triggers overflow and the
    // first overflow at a level reinserts instead of splitting; observable
    // as fewer nodes than a pure-split policy would produce. Just assert
    // structure is valid and utilisation is decent.
    let mut tree = new_tree(10);
    for i in 0..1000u64 {
        let x = (i % 100) as f64;
        let y = (i / 100) as f64;
        tree.insert(Rect::point([x, y]), i).unwrap();
    }
    let nodes = tree.validate().unwrap();
    // 1000 entries, fanout 10 → ≥ 100 leaves; decent packing keeps total
    // well under the no-reinsert worst case.
    assert!(nodes < 260, "too many nodes: {nodes}");
}

#[test]
fn invariants_under_random_insert_delete() {
    let mut rng = MiniRng::new(0xA11C_E501);
    for case in 0..24 {
        let max = 4 + rng.below(16) as usize;
        let n_ops = 1 + rng.below(299) as usize;
        let mut tree = new_tree(max);
        let mut shadow: Vec<(Rect<2>, u64)> = Vec::new();
        let mut next_id = 0u64;
        for _ in 0..n_ops {
            let op = rng.below(4) as u8;
            let x = rng.below(200) as i32 - 100;
            let y = rng.below(200) as i32 - 100;
            let p = Rect::point([x as f64, y as f64]);
            if op < 3 || shadow.is_empty() {
                tree.insert(p, next_id).unwrap();
                shadow.push((p, next_id));
                next_id += 1;
            } else {
                let victim = shadow.swap_remove((x.unsigned_abs() as usize) % shadow.len());
                assert!(tree.delete(&victim.0, victim.1).unwrap(), "case {case}");
            }
        }
        tree.validate().unwrap();
        assert_eq!(tree.len(), shadow.len(), "case {case}");

        // Full-recall check against the shadow copy.
        let q = Rect::new([-50.0, -50.0], [50.0, 50.0]);
        let (mut got, _) = tree.range(&q).unwrap();
        got.sort_by_key(|(_, d)| *d);
        let mut want: Vec<u64> = shadow
            .iter()
            .filter(|(r, _)| r.intersects(&q))
            .map(|(_, d)| *d)
            .collect();
        want.sort_unstable();
        assert_eq!(
            got.into_iter().map(|(_, d)| d).collect::<Vec<_>>(),
            want,
            "case {case}"
        );
    }
}

#[test]
fn bulk_load_equals_insertion_results() {
    let mut rng = MiniRng::new(0xB01D_FACE);
    for case in 0..24 {
        let n = 1 + rng.below(399) as usize;
        let max = 6 + rng.below(18) as usize;
        let items: Vec<(Rect<2>, u64)> = (0..n)
            .map(|i| {
                let x = rng.range_f64(-1000.0, 1000.0);
                let y = rng.range_f64(-1000.0, 1000.0);
                (Rect::point([x, y]), i as u64)
            })
            .collect();
        let bulk = bulk_load_str(
            PagedStore::in_memory(),
            Params::with_max(max),
            items.clone(),
        );
        bulk.validate().unwrap();
        let mut incr = new_tree(max);
        for (r, d) in &items {
            incr.insert(*r, *d).unwrap();
        }
        let q = Rect::new([-250.0, -250.0], [250.0, 250.0]);
        let (mut a, _) = bulk.range(&q).unwrap();
        let (mut b, _) = incr.range(&q).unwrap();
        a.sort_by_key(|(_, d)| *d);
        b.sort_by_key(|(_, d)| *d);
        assert_eq!(a, b, "case {case}");
    }
}

#[test]
fn nearest_one_is_global_minimum() {
    let mut rng = MiniRng::new(0x0CEA_4F10);
    for case in 0..24 {
        let n = 1 + rng.below(199) as usize;
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.range_f64(-100.0, 100.0), rng.range_f64(-100.0, 100.0)))
            .collect();
        let (qx, qy) = (rng.range_f64(-150.0, 150.0), rng.range_f64(-150.0, 150.0));
        let mut tree = new_tree(8);
        for (i, (x, y)) in pts.iter().enumerate() {
            tree.insert(Rect::point([*x, *y]), i as u64).unwrap();
        }
        let q = [qx, qy];
        let (got, _) = tree
            .nearest_by(1, |r| r.min_dist_sq(&q), |r, _| Some(r.min_dist_sq(&q)))
            .unwrap();
        let best = pts
            .iter()
            .map(|(x, y)| (x - qx) * (x - qx) + (y - qy) * (y - qy))
            .fold(f64::INFINITY, f64::min);
        assert!((got[0].dist - best).abs() < 1e-9, "case {case}");
    }
}

// ---------------------------------------------------------------------
// Fault-tolerance satellites: forced-reinsert exercise and containment
// invariants under mixed insert/delete workloads.
// ---------------------------------------------------------------------

/// Walks the whole tree checking that every parent entry rectangle
/// *contains* its entire subtree (a weaker cousin of `validate`'s exact-MBR
/// check, asserted explicitly because containment is what query soundness
/// rests on).
fn assert_containment(tree: &Tree2) {
    fn rec(tree: &Tree2, id: NodeId, bound: Option<&Rect<2>>) {
        let node = tree.store().get(id).unwrap();
        for e in &node.entries {
            if let Some(b) = bound {
                assert!(
                    b.contains_rect(&e.rect),
                    "entry rect {:?} escapes parent bound {:?}",
                    e.rect,
                    b
                );
            }
            if !node.is_leaf() {
                rec(tree, e.child(), Some(&e.rect));
            }
        }
    }
    rec(tree, tree.root_id(), None);
}

/// Forced reinsertion must actually run (not just split) and leave both the
/// exact-MBR invariants and containment intact, with full recall.
#[test]
fn forced_reinsert_preserves_invariants_and_recall() {
    for seed in [11u64, 47, 901] {
        let mut rng = MiniRng::new(seed);
        // Small fanout with a large reinsert fraction maximises the number
        // of forced-reinsert events; clustered input makes overflow common.
        let params = Params {
            max_entries: 8,
            min_entries: 3,
            reinsert_count: 3,
            axes: vec![0, 1],
        };
        let mut tree: Tree2 = RStarTree::with_params(PagedStore::in_memory(), params);
        let mut items = Vec::new();
        for i in 0..600u64 {
            // Clustered around a handful of centres so one subtree keeps
            // overflowing and the reinsert path fires repeatedly.
            let cx = (rng.below(5) as f64) * 400.0;
            let cy = (rng.below(5) as f64) * 400.0;
            let p = Rect::point([
                cx + rng.range_f64(-20.0, 20.0),
                cy + rng.range_f64(-20.0, 20.0),
            ]);
            tree.insert(p, i).unwrap();
            items.push((p, i));
            if i % 97 == 0 {
                assert_containment(&tree);
            }
        }
        let nodes = tree.validate().unwrap();
        assert_containment(&tree);
        // Reinsertion should pack better than the pure-split worst case.
        assert!(nodes < 220, "seed {seed}: too many nodes: {nodes}");
        let (hits, _) = tree.range(&Rect::new([-1e9, -1e9], [1e9, 1e9])).unwrap();
        assert_eq!(hits.len(), 600, "seed {seed}");
        // Point recall for a sample of items.
        for (r, d) in items.iter().step_by(37) {
            let (got, _) = tree.range(r).unwrap();
            assert!(got.iter().any(|(_, gd)| gd == d), "seed {seed}: lost {d}");
        }
    }
}

/// Mixed insert/delete workloads (with deletes aggressive enough to force
/// condensation and orphan reinsertion) keep MBR containment and exact
/// parent rectangles at every step.
#[test]
fn mbr_containment_under_mixed_insert_delete() {
    let mut rng = MiniRng::new(0xC0FF_EE00);
    for case in 0..12 {
        let max = 4 + rng.below(10) as usize;
        let mut tree = new_tree(max);
        let mut live: Vec<(Rect<2>, u64)> = Vec::new();
        let mut next = 0u64;
        for step in 0..400 {
            // Waves: mostly-insert phases then mostly-delete phases, so the
            // tree grows tall and then condenses hard.
            let deleting = (step / 50) % 2 == 1;
            let del = deleting && !live.is_empty() && rng.below(10) < 7;
            if del {
                let k = rng.below(live.len() as u64) as usize;
                let victim = live.swap_remove(k);
                assert!(
                    tree.delete(&victim.0, victim.1).unwrap(),
                    "case {case}: victim {} vanished",
                    victim.1
                );
            } else {
                let p = Rect::point([rng.range_f64(-500.0, 500.0), rng.range_f64(-500.0, 500.0)]);
                tree.insert(p, next).unwrap();
                live.push((p, next));
                next += 1;
            }
            if step % 23 == 0 {
                assert_containment(&tree);
            }
        }
        tree.validate().unwrap();
        assert_containment(&tree);
        assert_eq!(tree.len(), live.len(), "case {case}");
        let (mut got, _) = tree.range(&Rect::new([-1e9, -1e9], [1e9, 1e9])).unwrap();
        got.sort_by_key(|(_, d)| *d);
        let mut want: Vec<u64> = live.iter().map(|(_, d)| *d).collect();
        want.sort_unstable();
        assert_eq!(
            got.into_iter().map(|(_, d)| d).collect::<Vec<_>>(),
            want,
            "case {case}"
        );
    }
}

// ---------------------------------------------------------------------
// The borrowed node view: what read-only traversals see through
// `PagedStore::view` is the node `get` decodes, and walking it in place
// reports what a decode-every-node walk reports, in the same order, for
// the same counted accesses — on every kind of device.
// ---------------------------------------------------------------------

/// An entry, comparable to the bit: `(lo bits, hi bits, payload)`.
type EntryBits<const D: usize> = ([u64; D], [u64; D], u64);
/// What a traversal reported, in order.
type Reported<const D: usize> = Vec<EntryBits<D>>;
/// What a k-NN search returned, in order: `(distance bits, entry)`.
type Ranked<const D: usize> = Vec<(u64, EntryBits<D>)>;

/// A leaf scorer: the score of an entry, or `None` to disqualify it.
type Scorer<'a, const D: usize> = dyn Fn(&Rect<D>, u64) -> Option<f64> + 'a;

fn bits<const D: usize>(rect: &Rect<D>, payload: u64) -> EntryBits<D> {
    (
        rect.lo.map(f64::to_bits),
        rect.hi.map(f64::to_bits),
        payload,
    )
}

fn neighbor_bits<const D: usize>(found: &[Neighbor<D>]) -> Ranked<D> {
    found
        .iter()
        .map(|n| (n.dist.to_bits(), bits(&n.rect, n.data)))
        .collect()
}

/// Reference predicate search over owned nodes: test an entry, report it
/// or descend into it, then test the next — the walk `search` replaced.
fn ref_search<const D: usize>(
    tree: &RStarTree<D>,
    id: NodeId,
    pred: &impl Fn(&Rect<D>) -> bool,
    out: &mut Reported<D>,
    stats: &mut SearchStats,
) {
    let node = tree.store().get(id).unwrap();
    stats.nodes_accessed += 1;
    stats.leaf_nodes_accessed += u64::from(node.is_leaf());
    for e in &node.entries {
        stats.entries_tested += 1;
        if !pred(&e.rect) {
            continue;
        }
        if node.is_leaf() {
            stats.candidates += 1;
            out.push(bits(&e.rect, e.payload));
        } else {
            ref_search(tree, e.child(), pred, out, stats);
        }
    }
}

/// A best-first queue item of the reference k-NN walks: smallest key
/// first; at equal keys `nearest_by`'s scored entries (rank 0) before
/// candidates (1) before nodes (2, `payload` = node id) before refined
/// results (3), those by payload — the documented tie rules.
struct RefItem<const D: usize> {
    key: f64,
    rank: u8,
    rect: Rect<D>,
    payload: u64,
}

impl<const D: usize> PartialEq for RefItem<D> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl<const D: usize> Eq for RefItem<D> {}
impl<const D: usize> PartialOrd for RefItem<D> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize> Ord for RefItem<D> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: `BinaryHeap` pops the greatest.
        let refined = |item: &Self| (item.rank == 3).then_some(item.payload);
        other
            .key
            .total_cmp(&self.key)
            .then(other.rank.cmp(&self.rank))
            .then(refined(other).cmp(&refined(self)))
    }
}

/// Reference best-first k-NN over owned nodes. With `refine`, leaf entries
/// queue as candidates under `leaf_key` and are refined when they surface
/// (`nearest_by_refine`); without, `leaf_key` is the exact score
/// (`nearest_by`). `None` from either disqualifies the entry.
fn ref_nearest<const D: usize>(
    tree: &RStarTree<D>,
    k: usize,
    node_bound: impl Fn(&Rect<D>) -> f64,
    leaf_key: impl Fn(&Rect<D>, u64) -> Option<f64>,
    refine: Option<&Scorer<'_, D>>,
) -> (Ranked<D>, SearchStats) {
    use std::collections::BinaryHeap;
    let mut stats = SearchStats::default();
    let mut out = Vec::new();
    let mut heap = BinaryHeap::new();
    heap.push(RefItem {
        key: 0.0,
        rank: 2,
        rect: Rect::empty(),
        payload: u64::from(tree.root_id().0),
    });
    while let Some(item) = heap.pop() {
        let RefItem {
            key,
            rank,
            rect,
            payload,
        } = item;
        match rank {
            0 | 3 => {
                out.push((key.to_bits(), bits(&rect, payload)));
                if out.len() == k {
                    break;
                }
            }
            1 => {
                stats.candidates += 1;
                let refine = refine.expect("candidates are only queued when refining");
                if let Some(exact) = refine(&rect, payload) {
                    heap.push(RefItem {
                        key: exact,
                        rank: 3,
                        rect,
                        payload,
                    });
                }
            }
            _ => {
                let node = tree.store().get(NodeId(payload as u32)).unwrap();
                stats.nodes_accessed += 1;
                stats.leaf_nodes_accessed += u64::from(node.is_leaf());
                for e in &node.entries {
                    stats.entries_tested += 1;
                    let queued = if !node.is_leaf() {
                        Some((node_bound(&e.rect), 2))
                    } else if refine.is_some() {
                        leaf_key(&e.rect, e.payload).map(|key| (key, 1))
                    } else {
                        // Scored here and now: every scored entry counts.
                        let scored = leaf_key(&e.rect, e.payload);
                        stats.candidates += u64::from(scored.is_some());
                        scored.map(|key| (key, 0))
                    };
                    if let Some((key, rank)) = queued {
                        heap.push(RefItem {
                            key,
                            rank,
                            rect: e.rect,
                            payload: e.payload,
                        });
                    }
                }
            }
        }
    }
    (out, stats)
}

fn random_rect<const D: usize>(rng: &mut MiniRng, max_side: f64) -> Rect<D> {
    let lo: [f64; D] = std::array::from_fn(|_| rng.range_f64(-1000.0, 1000.0));
    // Every third rectangle is a point, like the engine's leaf entries.
    let side = if rng.below(3) == 0 { 0.0 } else { max_side };
    let hi = lo.map(|l| l + rng.range_f64(0.0, 1.0) * side);
    Rect { lo, hi }
}

/// One device, one fanout, one seed: random inserts and deletes, then the
/// view against `get` node by node, and every view-driven traversal
/// against its reference walk.
fn view_is_the_node_in_order<const D: usize>(
    what: &str,
    store: PagedStore<D>,
    fanout: usize,
    seed: u64,
) {
    let mut rng = MiniRng::new(seed);
    let mut tree = RStarTree::with_params(store, Params::with_max(fanout));
    let mut live: Vec<(Rect<D>, u64)> = Vec::new();
    let n = if fanout > 16 { 900 } else { 350 };
    for i in 0..n {
        let r = random_rect(&mut rng, 40.0);
        tree.insert(r, i).unwrap();
        live.push((r, i));
        if i % 4 == 3 {
            let (r, d) = live.swap_remove(rng.below(live.len() as u64) as usize);
            assert!(tree.delete(&r, d).unwrap(), "{what}: lost {d}");
        }
    }
    assert!(tree.height() >= 2, "{what}: the walk must cross levels");
    // The store's cumulative count of node reads.
    let accesses = || tree.store().stats().reads;

    // Node by node: the view is what `get` decodes, field for field.
    let mut per_level = vec![0u64; tree.height() as usize];
    let mut queue = vec![tree.root_id()];
    while let Some(id) = queue.pop() {
        let node = tree.store().get(id).unwrap();
        per_level[node.level as usize] += 1;
        let before = accesses();
        tree.store()
            .view(id, |view| {
                assert_eq!(view.level(), node.level, "{what} {id:?}");
                assert_eq!(view.len(), node.entries.len(), "{what} {id:?}");
                assert_eq!(view.is_leaf(), node.is_leaf(), "{what} {id:?}");
                assert_eq!(view.is_empty(), node.entries.is_empty(), "{what} {id:?}");
                let seen: Reported<D> = view.entries().map(|e| bits(&e.rect, e.payload)).collect();
                let want: Reported<D> = node
                    .entries
                    .iter()
                    .map(|e| bits(&e.rect, e.payload))
                    .collect();
                assert_eq!(seen, want, "{what} {id:?}");
                assert_eq!(bits(&view.mbr(), 0), bits(&node.mbr(), 0), "{what} {id:?}");
                assert_eq!(view.to_node(), node, "{what} {id:?}");
            })
            .unwrap();
        assert_eq!(accesses() - before, 1, "{what}: a view is one access");
        if !node.is_leaf() {
            queue.extend(node.entries.iter().map(|e| e.child()));
        }
    }

    // The whole-tree walks that moved onto the view.
    let total: u64 = per_level.iter().sum();
    assert_eq!(tree.validate().unwrap() as u64, total, "{what}");
    let summaries = tree.level_summaries().unwrap();
    let counted: Vec<u64> = summaries.iter().map(|s| s.nodes).collect();
    assert_eq!(counted, per_level, "{what}");
    let root = tree.store().get(tree.root_id()).unwrap();
    assert_eq!(
        bits(&tree.root_mbr().unwrap(), 0),
        bits(&root.mbr(), 0),
        "{what}"
    );

    for case in 0..6 {
        let what = format!("{what} case {case}");
        // Counts the accesses of one traversal and checks them against
        // the traversal's own `nodes_accessed`.
        let counted = |stats: &SearchStats, before: u64| {
            assert_eq!(
                accesses() - before,
                stats.nodes_accessed,
                "{what}: accesses"
            );
        };

        let query: Rect<D> = random_rect(&mut rng, 700.0);
        let pred = |r: &Rect<D>| r.intersects(&query);
        let (mut want, mut want_stats) = (Vec::new(), SearchStats::default());
        ref_search(&tree, tree.root_id(), &pred, &mut want, &mut want_stats);

        let before = accesses();
        let mut got = Vec::new();
        let stats = tree.search(pred, |r, d| got.push(bits(r, d))).unwrap();
        counted(&stats, before);
        assert_eq!((&got, stats), (&want, want_stats), "{what}: search");

        let before = accesses();
        let (hits, stats) = tree.range(&query).unwrap();
        counted(&stats, before);
        let got: Reported<D> = hits.iter().map(|(r, d)| bits(r, *d)).collect();
        assert_eq!((&got, stats), (&want, want_stats), "{what}: range");

        let q: [f64; D] = std::array::from_fn(|_| rng.range_f64(-1000.0, 1000.0));
        let k = 1 + rng.below(12) as usize;
        let node_bound = |r: &Rect<D>| r.min_dist_sq(&q);
        let score = |r: &Rect<D>, d: u64| (d % 5 < 4).then(|| r.min_dist_sq(&q));

        let before = accesses();
        let (found, stats) = tree.nearest_by(k, node_bound, score).unwrap();
        counted(&stats, before);
        let (want, want_stats) = ref_nearest(&tree, k, node_bound, score, None);
        assert_eq!(
            (neighbor_bits(&found), stats),
            (want, want_stats),
            "{what}: nearest_by"
        );

        // Halved MINDIST: a cheap bound that is not the exact score.
        let half_bound = |r: &Rect<D>| 0.5 * r.min_dist_sq(&q);
        let before = accesses();
        let (found, stats) = tree
            .nearest_by_refine(k, half_bound, |r, _| half_bound(r), score)
            .unwrap();
        counted(&stats, before);
        let (want, want_stats) = ref_nearest(
            &tree,
            k,
            half_bound,
            |r, _| Some(half_bound(r)),
            Some(&score),
        );
        assert_eq!(
            (neighbor_bits(&found), stats),
            (want, want_stats),
            "{what}: nearest_by_refine"
        );

        // Depth-first k-NN agrees on the distances (ties may differ).
        let before = accesses();
        let (dfs, stats) = tree.nearest_dfs(k, &q, false).unwrap();
        counted(&stats, before);
        let (best_first, _) = tree
            .nearest_by(k, node_bound, |r, _| Some(r.min_dist_sq(&q)))
            .unwrap();
        let dists =
            |found: &[Neighbor<D>]| found.iter().map(|n| n.dist.to_bits()).collect::<Vec<_>>();
        assert_eq!(dists(&dfs), dists(&best_first), "{what}: nearest_dfs");
    }
}

#[test]
fn node_view_is_the_node_on_every_store() {
    use pagestore::{Disk, FaultyDisk};
    use std::sync::Arc;
    for (fanout, seed) in [(4usize, 0x51E4u64), (8, 0x51E8), (78, 0x5178)] {
        view_is_the_node_in_order::<6>(
            &format!("paged/{fanout}"),
            PagedStore::in_memory(),
            fanout,
            seed,
        );
        view_is_the_node_in_order::<6>(
            &format!("unarmed-faulty/{fanout}"),
            PagedStore::new(Arc::new(FaultyDisk::new(Arc::new(Disk::new())))),
            fanout,
            seed,
        );
    }
}

/// Two readers inside the same unbuffered paged tree at once: A parks in
/// its predicate — that is, inside a view of the root, holding whatever
/// the device takes for a node read — until B has finished a whole
/// `search`. If node reads took the device lock exclusively, B would wait
/// for A's view and A for B's search. `mixed_rw` (two clients over the
/// wire on one index) is the benchmark workload that pays for that: with
/// views served under an exclusive device lock its readers serialise for
/// a whole node's worth of predicate calls per visit.
#[test]
fn a_reader_parked_in_its_predicate_does_not_block_another() {
    use std::sync::mpsc;
    use std::time::Duration;
    let mut tree = new_tree(8);
    for (r, d) in random_points(300, 77) {
        tree.insert(r, d).unwrap();
    }
    let tree = &tree;
    let (a_parked, a_is_parked) = mpsc::channel();
    let (b_done, b_is_done) = mpsc::channel();
    std::thread::scope(|s| {
        let a = s.spawn(move || {
            let mut parked = false;
            tree.search(
                |_| {
                    if !parked {
                        parked = true;
                        a_parked.send(()).unwrap();
                        // A watchdog, not a synchronisation: B's send is
                        // what ends the wait.
                        b_is_done
                            .recv_timeout(Duration::from_secs(30))
                            .expect("B cannot read while A holds a view: node reads are exclusive");
                    }
                    true
                },
                |_, _| {},
            )
            .unwrap()
        });
        let b = s.spawn(move || {
            a_is_parked.recv().unwrap();
            let stats = tree.search(|_| true, |_, _| {}).unwrap();
            b_done.send(()).unwrap();
            stats
        });
        let (a, b) = (a.join().unwrap(), b.join().unwrap());
        assert_eq!(a, b, "both readers walked the whole tree");
        assert_eq!(a.candidates, 300);
    });
}

/// The node ids down the leftmost path: root first, leaf last.
fn leftmost_path(tree: &Tree2) -> Vec<NodeId> {
    let mut path = vec![tree.root_id()];
    loop {
        let node = tree.store().get(path[path.len() - 1]).unwrap();
        if node.is_leaf() {
            return path;
        }
        path.push(node.entries[0].child());
    }
}

/// A tree page comes from a file (`Disk::load_from`); one whose stored
/// entry count exceeds the page capacity is not a node. Every reader
/// reports it as a typed corrupt-page error — never a panic, never a
/// clamped count.
#[test]
fn node_count_beyond_capacity_is_a_typed_error() {
    use pagestore::{Disk, PageError, PageId};
    use std::sync::Arc;
    let disk = Arc::new(Disk::new());
    let mut tree: Tree2 =
        RStarTree::with_params(PagedStore::new(disk.clone()), Params::with_max(8));
    for (r, d) in random_points(200, 78) {
        tree.insert(r, d).unwrap();
    }
    // The leftmost leaf, so the error comes from below the root.
    let id = *leftmost_path(&tree).last().unwrap();
    assert_ne!(id, tree.root_id());
    let pid = PageId(id.0);
    let mut page = disk.read(pid);
    page.put_u32(4, Node::<2>::page_capacity() as u32 + 1);
    disk.write(pid, &page);

    let corrupt = PageError::corrupt(pid);
    assert_eq!(tree.store().get(id).unwrap_err(), corrupt);
    assert_eq!(tree.store().view(id, |_| ()).unwrap_err(), corrupt);
    assert_eq!(tree.search(|_| true, |_, _| {}).unwrap_err(), corrupt);
    assert_eq!(
        tree.nearest_by(200, |_| 0.0, |_, _| Some(0.0)).unwrap_err(),
        corrupt
    );
    assert_eq!(tree.validate().unwrap_err(), corrupt);
    assert_eq!(tree.level_summaries().unwrap_err(), corrupt);
}

/// The stored *level* is outside input too. A traversal knows the level
/// its parent implies and branches on that; a page that says otherwise —
/// an inner node relabelled a leaf would hand its child ids out as
/// payloads and hide its subtree, a leaf relabelled inner would send the
/// walk to its payloads, a level past the height indexes the summaries out
/// of bounds — is a typed corrupt-page error from every view-based
/// traversal, at the root, at an inner node and at a leaf.
#[test]
fn node_level_other_than_its_parent_implies_is_a_typed_error() {
    use pagestore::{Disk, PageError, PageId};
    use std::sync::Arc;
    let disk = Arc::new(Disk::new());
    let mut tree: Tree2 =
        RStarTree::with_params(PagedStore::new(disk.clone()), Params::with_max(4));
    let items = random_points(200, 79);
    for (r, d) in &items {
        tree.insert(*r, *d).unwrap();
    }
    let path = leftmost_path(&tree);
    assert!(path.len() >= 3, "the walk needs an inner level");
    let (inner_id, leaf_id) = (path[1], path[path.len() - 1]);
    let inner_level = tree.root_level() - 1;
    let q = items[0].0.lo;
    for (id, wrong_level) in [
        (tree.root_id(), 0),
        (tree.root_id(), tree.root_level() + 7),
        (inner_id, 0),
        (inner_id, inner_level + 1),
        (leaf_id, 1),
        (leaf_id, u32::MAX),
    ] {
        let pid = PageId(id.0);
        let intact = disk.read(pid);
        let mut page = intact.clone();
        page.put_u32(0, wrong_level);
        disk.write(pid, &page);

        let errors = [
            tree.search(|_| true, |_, _| {}).unwrap_err(),
            tree.nearest_by(200, |_| 0.0, |_, _| Some(0.0)).unwrap_err(),
            tree.nearest_by_refine_bounded(200, 1.0, |_| 0.0, |_, _| 0.0, |_, _| Some(0.0))
                .unwrap_err(),
            tree.nearest_dfs(200, &q, false).unwrap_err(),
            tree.level_summaries().unwrap_err(),
        ];
        assert_eq!(
            errors,
            [PageError::corrupt(pid); 5],
            "{id:?} relabelled level {wrong_level}"
        );

        disk.write(pid, &intact);
    }
    // Put back, the tree is whole again.
    assert_eq!(tree.search(|_| true, |_, _| {}).unwrap().candidates, 200);
    tree.validate().unwrap();
}

/// What a linear scan of `live` answers for every query the tree offers —
/// range (sorted payloads), the 4 nearest (distances) and a self join
/// (sorted pairs) — beside what the tree answers.
fn axis_subset_matches_scan(tree: &RStarTree<3>, live: &[(Rect<3>, u64)], rng: &mut MiniRng) {
    let len = live.len();
    assert_eq!(tree.len(), len);
    // Rectangles constraining every axis, and ones bounding only axis 0,
    // which no tree below is shaped on.
    let unbounded = |r: Rect<3>| Rect::new([r.lo[0], -1e9, -1e9], [r.hi[0], 1e9, 1e9]);
    for q in [
        random_rect::<3>(rng, 800.0),
        unbounded(random_rect::<3>(rng, 150.0)),
    ] {
        let (hits, _) = tree.range(&q).unwrap();
        let mut got: Vec<u64> = hits.iter().map(|(_, d)| *d).collect();
        let mut expect: Vec<u64> = (live.iter())
            .filter(|(r, _)| r.intersects(&q))
            .map(|(_, d)| *d)
            .collect();
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect, "range {q:?}");
    }

    let p: [f64; 3] = std::array::from_fn(|_| rng.range_f64(-1000.0, 1000.0));
    let (near, _) = tree
        .nearest_by(4, |r| r.min_dist_sq(&p), |r, _| Some(r.min_dist_sq(&p)))
        .unwrap();
    let mut brute: Vec<f64> = live.iter().map(|(r, _)| r.min_dist_sq(&p)).collect();
    brute.sort_by(f64::total_cmp);
    let got: Vec<f64> = near.iter().map(|n| n.dist).collect();
    assert_eq!(got, brute[..4.min(len)], "nearest to {p:?}");

    // Pairs close on axis 0 alone — a predicate on an axis left out.
    let close = |a: &Rect<3>, b: &Rect<3>| a.lo[0] - 40.0 <= b.hi[0] && b.lo[0] - 40.0 <= a.hi[0];
    let mut pairs = Vec::new();
    tree.self_join(close, |_, a, _, b| pairs.push((a.min(b), a.max(b))))
        .unwrap();
    let mut expect = Vec::new();
    for (i, (ri, di)) in live.iter().enumerate() {
        for (rj, dj) in &live[i + 1..] {
            if close(ri, rj) {
                expect.push((*di.min(dj), *di.max(dj)));
            }
        }
    }
    pairs.sort_unstable();
    expect.sort_unstable();
    assert_eq!(pairs, expect, "self join");
}

/// Trees shaped on a strict subset of their axes stay valid and exact
/// through bulk loading, inserts with forced reinserts and splits, and
/// deletes with condensation.
#[test]
fn axis_subset_trees_stay_valid_and_exact() {
    for (case, axes) in [&[1usize][..], &[2, 1], &[1, 2]].into_iter().enumerate() {
        let mut rng = MiniRng::new(0xA1E5 + case as u64);
        let params = Params {
            max_entries: 8,
            min_entries: 3,
            reinsert_count: 3,
            axes: axes.to_vec(),
        };
        let mut live: Vec<(Rect<3>, u64)> = (0..300)
            .map(|i| (random_rect::<3>(&mut rng, 30.0), i))
            .collect();
        let mut tree = bulk_load_str(PagedStore::in_memory(), params, live.clone());
        tree.validate().unwrap();
        axis_subset_matches_scan(&tree, &live, &mut rng);

        for i in 300..700 {
            let rect = random_rect::<3>(&mut rng, 30.0);
            tree.insert(rect, i).unwrap();
            live.push((rect, i));
        }
        tree.validate().unwrap();
        axis_subset_matches_scan(&tree, &live, &mut rng);

        while live.len() > 40 {
            let (rect, data) = live.swap_remove(rng.below(live.len() as u64) as usize);
            assert!(
                tree.delete(&rect, data).unwrap(),
                "axes {axes:?}: lost {data}"
            );
        }
        tree.validate().unwrap();
        axis_subset_matches_scan(&tree, &live, &mut rng);
    }
}

/// An axis list that is empty, names an axis past `D` or names one twice
/// is an error from `check`, and a tree refuses it by name.
#[test]
#[should_panic(expected = "axes must not repeat")]
fn axis_subset_lists_are_checked() {
    for bad in [&[][..], &[0, 3], &[1, 1]] {
        assert!(
            Params::<3>::with_max(8).with_axes(bad).check().is_err(),
            "{bad:?}"
        );
    }
    let params = Params::<3>::with_max(8).with_axes(&[2, 0, 2]);
    RStarTree::with_params(PagedStore::in_memory(), params);
}
