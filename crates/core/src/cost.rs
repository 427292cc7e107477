//! The cost model of §4.2–§4.3 (Eq. 18–20).
//!
//! For transformation rectangles `r₁ … r_k`:
//!
//! ```text
//! C_k = C_DA · Σᵢ DA_all(q, rᵢ)  +  CA_leaf · C_cmp · Σᵢ DA_leaf(q, rᵢ) · NT(rᵢ)
//! ```
//!
//! Fig. 8–9 evaluate this with `C_DA = 1` and `C_cmp = 0.4·C_DA` ("a
//! sequence comparison takes as much as 40 percent the time of a disk
//! access") and show the model tracks the measured running time, with its
//! minimum at the best rectangle count.

use crate::engine::mtindex::RectTraversal;

/// Relative costs of one disk access and one sequence comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// `C_DA`.
    pub cda: f64,
    /// `C_cmp`.
    pub ccmp: f64,
}

impl Default for CostModel {
    /// The paper's Fig. 8 calibration: `C_DA = 1`, `C_cmp = 0.4`.
    fn default() -> Self {
        Self {
            cda: 1.0,
            ccmp: 0.4,
        }
    }
}

impl CostModel {
    /// Eq. 18 — single rectangle.
    pub fn cost_single(&self, da_all: u64, da_leaf: u64, nt: usize, ca_leaf: usize) -> f64 {
        self.cda * da_all as f64 + da_leaf as f64 * ca_leaf as f64 * nt as f64 * self.ccmp
    }

    /// Eq. 20 — the general `k`-rectangle form, evaluated from measured
    /// per-rectangle traversal counters.
    pub fn cost(&self, traversals: &[RectTraversal], ca_leaf: usize) -> f64 {
        let da_term: f64 = traversals.iter().map(|t| t.da_all as f64).sum();
        let cmp_term: f64 = traversals
            .iter()
            .map(|t| t.da_leaf as f64 * t.nt as f64)
            .sum();
        self.cda * da_term + ca_leaf as f64 * self.ccmp * cmp_term
    }

    /// Eq. 20 with the *actual* candidate counts substituted for the
    /// `DA_leaf·CA_leaf` estimate — a tighter variant the experiments also
    /// report ("a good estimate of the number of candidate data items is
    /// DA_leaf(q,r)·CA_leaf").
    pub fn cost_with_candidates(&self, traversals: &[RectTraversal]) -> f64 {
        let da_term: f64 = traversals.iter().map(|t| t.da_all as f64).sum();
        let cmp_term: f64 = traversals
            .iter()
            .map(|t| t.candidates as f64 * t.nt as f64)
            .sum();
        self.cda * da_term + self.ccmp * cmp_term
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tr(da_all: u64, da_leaf: u64, candidates: u64, nt: usize) -> RectTraversal {
        RectTraversal {
            da_all,
            da_leaf,
            candidates,
            nt,
        }
    }

    #[test]
    fn single_rectangle_matches_eq18() {
        let m = CostModel::default();
        // C = 1·100 + 50·78·16·0.4
        let c = m.cost_single(100, 50, 16, 78);
        assert!((c - (100.0 + 50.0 * 78.0 * 16.0 * 0.4)).abs() < 1e-9);
    }

    #[test]
    fn multi_rectangle_sums_eq20() {
        let m = CostModel::default();
        let ts = [tr(60, 20, 0, 8), tr(40, 10, 0, 8)];
        let c = m.cost(&ts, 10);
        let want = 1.0 * (60.0 + 40.0) + 10.0 * 0.4 * (20.0 * 8.0 + 10.0 * 8.0);
        assert!((c - want).abs() < 1e-9);
    }

    #[test]
    fn candidates_variant_uses_actual_counts() {
        let m = CostModel {
            cda: 2.0,
            ccmp: 1.0,
        };
        let ts = [tr(10, 4, 30, 5)];
        assert!((m.cost_with_candidates(&ts) - (20.0 + 150.0)).abs() < 1e-9);
    }

    #[test]
    fn more_rectangles_raise_da_term_only() {
        let m = CostModel::default();
        let one = [tr(100, 30, 0, 16)];
        let two = [tr(80, 20, 0, 8), tr(80, 20, 0, 8)];
        // DA doubles-ish, comparison term halves per rectangle but sums to
        // the same product: the trade-off of §4.3.
        let c1 = m.cost(&one, 78);
        let c2 = m.cost(&two, 78);
        // Both finite and positive; the model differentiates them.
        assert!(c1 > 0.0 && c2 > 0.0 && (c1 - c2).abs() > 1.0);
    }
}

/// The analytical disk-access estimate §4.3 discusses (after Theodoridis &
/// Sellis, PODS '96): a window query of per-dimension widths `q` touches,
/// at every tree level, roughly
///
/// ```text
/// N_ℓ · Π_d min(1, (s_{ℓ,d} + q_d) / W_d)
/// ```
///
/// nodes, where `s_{ℓ,d}` is the mean node-MBR side, `N_ℓ` the node count,
/// and `W_d` the data-space extent. The paper's §4.3 point — reproduced in
/// the tests — is that this estimate depends only on the *window size*,
/// never on where the transformation rectangle puts it, so optimising the
/// rectangle count with it alone always (wrongly) favours a single
/// rectangle. [`crate::partition::optimize`] therefore probes the real
/// tree instead.
pub fn analytic_disk_accesses<const D: usize>(
    summaries: &[rstartree::LevelSummary<D>],
    data_extent: &[f64; D],
    query_widths: &[f64; D],
) -> f64 {
    summaries
        .iter()
        .map(|level| {
            let frac: f64 = (0..D)
                .map(|d| {
                    if data_extent[d] <= 0.0 {
                        1.0
                    } else {
                        ((level.avg_extent[d] + query_widths[d]) / data_extent[d]).min(1.0)
                    }
                })
                .product();
            level.nodes as f64 * frac
        })
        .sum()
}

#[cfg(test)]
mod analytic_tests {
    use super::*;
    use rstartree::{bulk_load_str, PagedStore, Params, Rect};

    fn uniform_tree(n: usize) -> rstartree::RStarTree<2> {
        let items: Vec<(Rect<2>, u64)> = (0..n)
            .map(|i| {
                let x = (i % 100) as f64 * 10.0;
                let y = (i / 100) as f64 * 10.0;
                (Rect::point([x, y]), i as u64)
            })
            .collect();
        bulk_load_str(PagedStore::in_memory(), Params::with_max(16), items)
    }

    #[test]
    fn estimate_tracks_measured_accesses_on_uniform_data() {
        let tree = uniform_tree(10_000);
        let summaries = tree.level_summaries().unwrap();
        let extent = [1000.0, 1000.0];
        for width in [50.0, 150.0, 400.0] {
            let q = Rect::new([300.0, 300.0], [300.0 + width, 300.0 + width]);
            let (_, stats) = tree.range(&q).unwrap();
            let est = analytic_disk_accesses(&summaries, &extent, &[width, width]);
            let measured = stats.nodes_accessed as f64;
            assert!(
                est > measured * 0.3 && est < measured * 3.0,
                "width {width}: estimate {est:.1} vs measured {measured}"
            );
        }
    }

    #[test]
    fn estimate_grows_with_window() {
        let tree = uniform_tree(5_000);
        let summaries = tree.level_summaries().unwrap();
        let extent = [1000.0, 500.0];
        let small = analytic_disk_accesses(&summaries, &extent, &[10.0, 10.0]);
        let large = analytic_disk_accesses(&summaries, &extent, &[300.0, 300.0]);
        assert!(small < large);
        // A window covering the space touches every node.
        let all = analytic_disk_accesses(&summaries, &extent, &[1e9, 1e9]);
        let total: u64 = summaries.iter().map(|l| l.nodes).sum();
        assert!((all - total as f64).abs() < 1e-9);
    }

    #[test]
    fn estimate_is_placement_blind_hence_misleads_partitioning() {
        // §4.3's argument, verbatim: by this model, k transformation
        // rectangles with the same window each cost k × the single-
        // rectangle estimate — the model can never justify splitting, yet
        // the paper's (and our) measurements show splitting often wins
        // because the *real* per-rectangle windows are smaller AND land in
        // sparser regions. Here we check the first half mechanically.
        let tree = uniform_tree(5_000);
        let summaries = tree.level_summaries().unwrap();
        let extent = [1000.0, 500.0];
        let q = [120.0, 120.0];
        let one = analytic_disk_accesses(&summaries, &extent, &q);
        let four_identical = 4.0 * analytic_disk_accesses(&summaries, &extent, &q);
        assert!(
            (four_identical - 4.0 * one).abs() < 1e-9,
            "placement-blind by construction"
        );
    }
}
