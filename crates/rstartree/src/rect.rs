//! Axis-aligned hyper-rectangles and the geometric predicates of the
//! R*-tree and of nearest-neighbour search.

/// An axis-aligned rectangle in `D` dimensions (`lo[i] ≤ hi[i]`).
///
/// Points are degenerate rectangles (`lo == hi`) — exactly how the paper
/// treats them when applying transformation MBRs ("a point can be seen as a
/// special kind of a rectangle", §4.1).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Rect<const D: usize> {
    /// Lower corner.
    pub lo: [f64; D],
    /// Upper corner.
    pub hi: [f64; D],
}

impl<const D: usize> Rect<D> {
    /// A degenerate rectangle at `p`.
    pub fn point(p: [f64; D]) -> Self {
        Self { lo: p, hi: p }
    }

    /// Builds from corners, debug-asserting `lo ≤ hi` per dimension.
    pub fn new(lo: [f64; D], hi: [f64; D]) -> Self {
        debug_assert!(
            lo.iter().zip(&hi).all(|(l, h)| l <= h),
            "invalid rect: lo {lo:?} > hi {hi:?}"
        );
        Self { lo, hi }
    }

    /// The "empty" rectangle — identity for [`Self::union`]. Its corners are
    /// inverted infinities, so any union with it yields the other operand.
    pub fn empty() -> Self {
        Self {
            lo: [f64::INFINITY; D],
            hi: [f64::NEG_INFINITY; D],
        }
    }

    /// True for the [`Self::empty`] identity.
    pub fn is_empty(&self) -> bool {
        self.lo.iter().zip(&self.hi).any(|(l, h)| l > h)
    }

    /// Smallest rectangle covering both.
    pub fn union(&self, other: &Self) -> Self {
        let mut lo = self.lo;
        let mut hi = self.hi;
        for i in 0..D {
            lo[i] = lo[i].min(other.lo[i]);
            hi[i] = hi[i].max(other.hi[i]);
        }
        Self { lo, hi }
    }

    /// Grows (in place) to cover `other`.
    pub fn enlarge(&mut self, other: &Self) {
        for i in 0..D {
            self.lo[i] = self.lo[i].min(other.lo[i]);
            self.hi[i] = self.hi[i].max(other.hi[i]);
        }
    }

    /// MBR of an iterator of rectangles.
    pub fn union_all<'a>(rects: impl IntoIterator<Item = &'a Self>) -> Self {
        rects.into_iter().fold(Self::empty(), |acc, r| acc.union(r))
    }

    /// Hyper-volume of the projection on `axes` (product of those
    /// extents); 0 for empty.
    pub fn area(&self, axes: &[usize]) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        axes.iter().map(|&i| self.hi[i] - self.lo[i]).product()
    }

    /// Margin — the sum of edge lengths on `axes` (the R*-tree split
    /// criterion).
    pub fn margin(&self, axes: &[usize]) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        axes.iter().map(|&i| self.hi[i] - self.lo[i]).sum()
    }

    /// How much `self.area(axes)` would grow to accommodate `other`.
    pub fn enlargement(&self, other: &Self, axes: &[usize]) -> f64 {
        self.union(other).area(axes) - self.area(axes)
    }

    /// True when the rectangles share any point (closed intervals).
    pub fn intersects(&self, other: &Self) -> bool {
        (0..D).all(|i| self.lo[i] <= other.hi[i] && other.lo[i] <= self.hi[i])
    }

    /// Volume of the intersection's projection on `axes` (0 when the
    /// projections are disjoint).
    pub fn intersection_area(&self, other: &Self, axes: &[usize]) -> f64 {
        let mut area = 1.0;
        for &i in axes {
            let lo = self.lo[i].max(other.lo[i]);
            let hi = self.hi[i].min(other.hi[i]);
            if lo >= hi {
                return 0.0;
            }
            area *= hi - lo;
        }
        area
    }

    /// True when `other` lies entirely inside `self`.
    pub fn contains_rect(&self, other: &Self) -> bool {
        (0..D).all(|i| self.lo[i] <= other.lo[i] && other.hi[i] <= self.hi[i])
    }

    /// True when point `p` lies inside (closed) `self`.
    pub fn contains_point(&self, p: &[f64; D]) -> bool {
        (0..D).all(|i| self.lo[i] <= p[i] && p[i] <= self.hi[i])
    }

    /// Centre point.
    pub fn center(&self) -> [f64; D] {
        let mut c = [0.0; D];
        for (i, slot) in c.iter_mut().enumerate() {
            *slot = 0.5 * (self.lo[i] + self.hi[i]);
        }
        c
    }

    /// Squared Euclidean distance between centres, over `axes`.
    pub fn center_dist_sq(&self, other: &Self, axes: &[usize]) -> f64 {
        let a = self.center();
        let b = other.center();
        axes.iter().map(|&i| (a[i] - b[i]) * (a[i] - b[i])).sum()
    }

    /// MINDIST — squared distance from `p` to the nearest point of the
    /// rectangle (0 if inside). Lower-bounds the distance to anything
    /// stored within (Roussopoulos et al., SIGMOD '95).
    pub fn min_dist_sq(&self, p: &[f64; D]) -> f64 {
        (0..D)
            .map(|i| {
                let d = if p[i] < self.lo[i] {
                    self.lo[i] - p[i]
                } else if p[i] > self.hi[i] {
                    p[i] - self.hi[i]
                } else {
                    0.0
                };
                d * d
            })
            .sum()
    }

    /// MINMAXDIST — the smallest upper bound on the distance from `p` to at
    /// least one object inside the rectangle (Roussopoulos et al.). Along
    /// one axis take the *nearer face*, along all others the *farther* one,
    /// minimised over the axis choice.
    pub fn min_max_dist_sq(&self, p: &[f64; D]) -> f64 {
        if self.is_empty() {
            return f64::INFINITY;
        }
        // Pre-compute per-axis near-face (rm) and far-face (rM) squared gaps.
        let mut near = [0.0; D];
        let mut far = [0.0; D];
        for i in 0..D {
            let mid = 0.5 * (self.lo[i] + self.hi[i]);
            let rm = if p[i] <= mid { self.lo[i] } else { self.hi[i] };
            let rm_d = p[i] - rm;
            near[i] = rm_d * rm_d;
            let r_m = if p[i] >= mid { self.lo[i] } else { self.hi[i] };
            let rm_far = p[i] - r_m;
            far[i] = rm_far * rm_far;
        }
        let total_far: f64 = far.iter().sum();
        (0..D)
            .map(|k| total_far - far[k] + near[k])
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type R2 = Rect<2>;
    const XY: &[usize] = &[0, 1];

    #[test]
    fn union_and_area() {
        let a = R2::new([0.0, 0.0], [2.0, 1.0]);
        let b = R2::new([1.0, -1.0], [3.0, 0.5]);
        let u = a.union(&b);
        assert_eq!(u, R2::new([0.0, -1.0], [3.0, 1.0]));
        assert_eq!(a.area(XY), 2.0);
        assert_eq!(u.area(XY), 6.0);
        assert_eq!(a.margin(XY), 3.0);
    }

    #[test]
    fn empty_is_union_identity() {
        let e = R2::empty();
        let a = R2::new([1.0, 1.0], [2.0, 2.0]);
        assert!(e.is_empty());
        assert_eq!(e.union(&a), a);
        assert_eq!(e.area(XY), 0.0);
        assert_eq!(e.margin(XY), 0.0);
        assert!(!e.intersects(&a));
    }

    #[test]
    fn union_all_covers_inputs() {
        let rects = [
            R2::new([0.0, 0.0], [1.0, 1.0]),
            R2::new([5.0, -2.0], [6.0, 0.0]),
            R2::point([3.0, 3.0]),
        ];
        let mbr = R2::union_all(&rects);
        for r in &rects {
            assert!(mbr.contains_rect(r));
        }
        assert_eq!(mbr, R2::new([0.0, -2.0], [6.0, 3.0]));
    }

    #[test]
    fn intersection_tests() {
        let a = R2::new([0.0, 0.0], [2.0, 2.0]);
        let b = R2::new([1.0, 1.0], [3.0, 3.0]);
        let c = R2::new([2.5, 2.5], [4.0, 4.0]);
        assert!(a.intersects(&b));
        assert!((a.intersection_area(&b, XY) - 1.0).abs() < 1e-12);
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection_area(&c, XY), 0.0);
        // Touching edges intersect but have zero area.
        let d = R2::new([2.0, 0.0], [3.0, 1.0]);
        assert!(a.intersects(&d));
        assert_eq!(a.intersection_area(&d, XY), 0.0);
    }

    #[test]
    fn containment() {
        let outer = R2::new([0.0, 0.0], [10.0, 10.0]);
        let inner = R2::new([1.0, 1.0], [2.0, 2.0]);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_point(&[0.0, 10.0]));
        assert!(!outer.contains_point(&[-0.1, 5.0]));
    }

    #[test]
    fn cost_functions_read_only_their_axes() {
        let a = R2::new([0.0, 0.0], [2.0, 3.0]);
        let b = R2::new([1.0, 10.0], [5.0, 11.0]);
        assert_eq!(a.area(&[1]), 3.0);
        assert_eq!(a.margin(&[0]), 2.0);
        assert_eq!(a.enlargement(&b, &[0]), 3.0);
        // Disjoint on y, overlapping on x: the x projection overlaps.
        assert_eq!(a.intersection_area(&b, XY), 0.0);
        assert_eq!(a.intersection_area(&b, &[0]), 1.0);
    }

    #[test]
    fn enlargement_measures_growth() {
        let a = R2::new([0.0, 0.0], [1.0, 1.0]);
        let inside = R2::point([0.5, 0.5]);
        let outside = R2::point([2.0, 0.5]);
        assert_eq!(a.enlargement(&inside, XY), 0.0);
        assert!((a.enlargement(&outside, XY) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mindist_zero_inside_positive_outside() {
        let a = R2::new([0.0, 0.0], [2.0, 2.0]);
        assert_eq!(a.min_dist_sq(&[1.0, 1.0]), 0.0);
        assert!((a.min_dist_sq(&[3.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((a.min_dist_sq(&[3.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn minmaxdist_bounds_mindist() {
        let a = R2::new([1.0, 1.0], [3.0, 4.0]);
        for p in [[0.0, 0.0], [2.0, 2.0], [10.0, -3.0], [1.5, 8.0]] {
            let mind = a.min_dist_sq(&p);
            let minmax = a.min_max_dist_sq(&p);
            assert!(
                mind <= minmax + 1e-12,
                "MINDIST {mind} > MINMAXDIST {minmax} at {p:?}"
            );
        }
    }

    #[test]
    fn minmaxdist_point_rect_is_exact() {
        // For a degenerate rectangle both metrics equal the point distance.
        let p = [3.0, -1.0];
        let r = R2::point([0.0, 3.0]);
        let exact = 9.0 + 16.0;
        assert!((r.min_dist_sq(&p) - exact).abs() < 1e-12);
        assert!((r.min_max_dist_sq(&p) - exact).abs() < 1e-12);
    }

    #[test]
    fn center_math() {
        let a = R2::new([0.0, 2.0], [4.0, 4.0]);
        assert_eq!(a.center(), [2.0, 3.0]);
        let b = R2::point([5.0, 7.0]);
        assert_eq!(a.center_dist_sq(&b, XY), 9.0 + 16.0);
        assert_eq!(a.center_dist_sq(&b, &[1]), 16.0);
    }
}
