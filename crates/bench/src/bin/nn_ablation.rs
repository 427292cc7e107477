//! Nearest-neighbour strategy ablation on the R*-tree substrate: the
//! paper's NN sketch says "use any kind of metric (such as MINDIST or
//! MINMAXDIST…) to prune the search". Three strategies compared:
//!
//! * best-first (priority queue on MINDIST — Hjaltason–Samet style),
//! * depth-first branch-and-bound on MINDIST (Roussopoulos et al.),
//! * the same DFS with MINMAXDIST seeding (k = 1).
//!
//! `cargo run -p bench --release --bin nn_ablation`

use bench::table::{f2, Table};
use rstartree::{bulk_load_str, PagedStore, Params, RStarTree, Rect};
use tseries::rng::SeededRng;

fn main() {
    let mut rng = SeededRng::seed_from_u64(512);
    let n = 100_000;
    let items: Vec<(Rect<2>, u64)> = (0..n)
        .map(|i| {
            (
                Rect::point([rng.random_range(-1e4..1e4), rng.random_range(-1e4..1e4)]),
                i as u64,
            )
        })
        .collect();
    let tree: RStarTree<2> = bulk_load_str(PagedStore::in_memory(), Params::with_max(32), items);
    let queries: Vec<[f64; 2]> = (0..200)
        .map(|_| {
            [
                rng.random_range(-1.2e4..1.2e4),
                rng.random_range(-1.2e4..1.2e4),
            ]
        })
        .collect();

    let mut t = Table::new(
        format!("NN strategy ablation ({n} uniform 2-d points, 200 queries)"),
        &[
            "k",
            "best-first nodes",
            "DFS nodes",
            "DFS+MINMAXDIST nodes",
            "best-first ms",
            "DFS ms",
        ],
    );
    for k in [1usize, 5, 20] {
        let mut bf_nodes = 0.0;
        let mut dfs_nodes = 0.0;
        let mut mm_nodes = 0.0;
        let mut bf_ms = 0.0;
        let mut dfs_ms = 0.0;
        for q in &queries {
            let start = std::time::Instant::now();
            let (bf, s1) = tree
                .nearest_by(k, |r| r.min_dist_sq(q), |r, _| Some(r.min_dist_sq(q)))
                .unwrap();
            bf_ms += start.elapsed().as_secs_f64() * 1e3;
            let start = std::time::Instant::now();
            let (dfs, s2) = tree.nearest_dfs(k, q, false).unwrap();
            dfs_ms += start.elapsed().as_secs_f64() * 1e3;
            let (mm, s3) = tree.nearest_dfs(k, q, true).unwrap();
            bf_nodes += s1.nodes_accessed as f64;
            dfs_nodes += s2.nodes_accessed as f64;
            mm_nodes += s3.nodes_accessed as f64;
            // All three agree, always.
            assert_eq!(bf.len(), dfs.len());
            for ((a, b), c) in bf.iter().zip(&dfs).zip(&mm) {
                assert!((a.dist - b.dist).abs() < 1e-9);
                assert!((a.dist - c.dist).abs() < 1e-9);
            }
        }
        let m = 1.0 / queries.len() as f64;
        t.push(vec![
            k.to_string(),
            f2(bf_nodes * m),
            f2(dfs_nodes * m),
            f2(mm_nodes * m),
            f2(bf_ms * m),
            f2(dfs_ms * m),
        ]);
    }
    t.print();
    t.save_tsv(&bench::results_dir().join("nn_ablation.tsv"))
        .expect("save");
}
