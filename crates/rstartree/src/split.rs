//! The R*-tree topological split (Beckmann et al., §4.2).
//!
//! Axis choice minimises the *margin sum* over all candidate distributions;
//! distribution choice on the winning axis minimises *overlap*, breaking
//! ties by total area. Candidate axes, margins, overlaps and areas are
//! those of [`Params::axes`]: an axis the tree is not shaped on is never
//! split on and never measured.

use crate::node::Entry;
use crate::params::Params;
use crate::rect::Rect;

/// Splits an overfull entry list (length `M + 1`) into two groups, each with
/// at least `params.min_entries` entries.
pub fn rstar_split<const D: usize>(
    mut entries: Vec<Entry<D>>,
    params: &Params<D>,
) -> (Vec<Entry<D>>, Vec<Entry<D>>) {
    let (m, axes) = (params.min_entries, &params.axes[..]);
    let total = entries.len();
    assert!(total >= 2 * m, "cannot split {total} entries with min {m}");

    // ChooseSplitAxis: for each axis, the margin sum over both sort orders
    // and every legal distribution.
    let mut best_axis = axes[0];
    let mut best_margin = f64::INFINITY;
    for &axis in axes {
        let mut margin_sum = 0.0;
        for sort_by_hi in [false, true] {
            sort_entries(&mut entries, axis, sort_by_hi);
            for (r1, r2) in distributions(&entries, m) {
                margin_sum += r1.margin(axes) + r2.margin(axes);
            }
        }
        if margin_sum < best_margin {
            best_margin = margin_sum;
            best_axis = axis;
        }
    }

    // ChooseSplitIndex on the winning axis: minimum overlap, ties by area.
    let mut best: Option<(bool, usize, f64, f64)> = None; // (sort_by_hi, split_at, overlap, area)
    for sort_by_hi in [false, true] {
        sort_entries(&mut entries, best_axis, sort_by_hi);
        for (k, (r1, r2)) in distributions(&entries, m).enumerate() {
            let overlap = r1.intersection_area(&r2, axes);
            let area = r1.area(axes) + r2.area(axes);
            let candidate = (sort_by_hi, m + k, overlap, area);
            best = Some(match best {
                None => candidate,
                Some(b) => {
                    if overlap < b.2 || (overlap == b.2 && area < b.3) {
                        candidate
                    } else {
                        b
                    }
                }
            });
        }
    }
    let (sort_by_hi, split_at, _, _) = best.expect("at least one distribution");
    sort_entries(&mut entries, best_axis, sort_by_hi);
    let right = entries.split_off(split_at);
    (entries, right)
}

fn sort_entries<const D: usize>(entries: &mut [Entry<D>], axis: usize, by_hi: bool) {
    if by_hi {
        entries.sort_by(|a, b| a.rect.hi[axis].total_cmp(&b.rect.hi[axis]));
    } else {
        entries.sort_by(|a, b| a.rect.lo[axis].total_cmp(&b.rect.lo[axis]));
    }
}

/// For sorted entries, yields the bounding boxes of each legal split
/// `(entries[..m+k], entries[m+k..])` for `k = 0 .. total − 2m`.
fn distributions<'a, const D: usize>(
    entries: &'a [Entry<D>],
    m: usize,
) -> impl Iterator<Item = (Rect<D>, Rect<D>)> + 'a {
    let total = entries.len();
    // Prefix MBRs and suffix MBRs so each distribution is O(1).
    let mut prefixes = Vec::with_capacity(total);
    let mut acc = Rect::empty();
    for e in entries {
        acc.enlarge(&e.rect);
        prefixes.push(acc);
    }
    let mut suffixes = vec![Rect::empty(); total];
    let mut acc = Rect::empty();
    for (i, e) in entries.iter().enumerate().rev() {
        acc.enlarge(&e.rect);
        suffixes[i] = acc;
    }
    (m..=total - m).map(move |split| (prefixes[split - 1], suffixes[split]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(p: [f64; 2], id: u64) -> Entry<2> {
        Entry::leaf(Rect::point(p), id)
    }

    #[test]
    fn split_separates_two_clusters() {
        // Two well-separated clusters should split cleanly along x.
        let mut entries = Vec::new();
        for i in 0..5u64 {
            entries.push(leaf([i as f64 * 0.1, 0.0], i));
            entries.push(leaf([100.0 + i as f64 * 0.1, 0.0], 100 + i));
        }
        let params = Params::with_max(9);
        let (a, b) = rstar_split(entries, &params);
        let (ra, rb) = (
            Rect::union_all(a.iter().map(|e| &e.rect)),
            Rect::union_all(b.iter().map(|e| &e.rect)),
        );
        assert_eq!(
            ra.intersection_area(&rb, &[0, 1]),
            0.0,
            "clusters must not overlap"
        );
        let ids_a: Vec<u64> = a.iter().map(|e| e.payload).collect();
        assert!(
            ids_a.iter().all(|i| *i < 100) || ids_a.iter().all(|i| *i >= 100),
            "each side must hold one cluster, got {ids_a:?}"
        );
    }

    #[test]
    fn split_respects_minimums() {
        let entries: Vec<Entry<2>> = (0..11)
            .map(|i| leaf([i as f64, (i % 3) as f64], i))
            .collect();
        let params = Params::with_max(10); // m = 4
        let (a, b) = rstar_split(entries, &params);
        assert!(a.len() >= 4 && b.len() >= 4);
        assert_eq!(a.len() + b.len(), 11);
    }

    #[test]
    fn split_preserves_all_entries() {
        let entries: Vec<Entry<2>> = (0..9)
            .map(|i| leaf([(i * 7 % 5) as f64, (i * 3 % 7) as f64], i))
            .collect();
        let params = Params::with_max(8);
        let (a, b) = rstar_split(entries.clone(), &params);
        let mut ids: Vec<u64> = a.iter().chain(&b).map(|e| e.payload).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..9).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn split_too_few_panics() {
        let entries: Vec<Entry<2>> = (0..3).map(|i| leaf([i as f64, 0.0], i)).collect();
        let params = Params {
            max_entries: 10,
            min_entries: 4,
            reinsert_count: 3,
            axes: vec![0, 1],
        };
        rstar_split(entries, &params);
    }

    #[test]
    fn split_never_cuts_an_axis_left_out() {
        // Clusters apart on x only, spread along y: every axis splits x,
        // but with y alone the split must sort on y.
        let mut entries = Vec::new();
        for i in 0..5u64 {
            entries.push(leaf([0.0, i as f64 * 10.0], i));
            entries.push(leaf([100.0, i as f64 * 10.0 + 5.0], 100 + i));
        }
        let y_only = Params::with_max(9).with_axes(&[1]);
        let (a, b) = rstar_split(entries.clone(), &y_only);
        let top = |g: &[Entry<2>]| g.iter().map(|e| e.rect.lo[1]).fold(f64::MIN, f64::max);
        let bottom = |g: &[Entry<2>]| g.iter().map(|e| e.rect.lo[1]).fold(f64::MAX, f64::min);
        assert!(top(&a) < bottom(&b), "the y-only split must cut y");
        let (a, _) = rstar_split(entries, &Params::with_max(9));
        assert!(
            a.iter().all(|e| e.rect.lo[0] == a[0].rect.lo[0]),
            "x splits"
        );
    }

    #[test]
    fn identical_points_still_split_legally() {
        let entries: Vec<Entry<2>> = (0..9).map(|i| leaf([1.0, 1.0], i)).collect();
        let params = Params::with_max(8); // m = 3
        let (a, b) = rstar_split(entries, &params);
        assert!(a.len() >= 3 && b.len() >= 3);
    }
}
