//! Tree tuning parameters.

use crate::node::Node;

/// R*-tree parameters: fanout bounds, the forced-reinsert fraction and the
/// axes the tree's shape decisions read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Params<const D: usize> {
    /// Maximum entries per node (`M`).
    pub max_entries: usize,
    /// Minimum entries per node (`m`); the R*-tree paper recommends 40 % of
    /// `M`.
    pub min_entries: usize,
    /// Entries removed on forced reinsertion (`p`); recommended 30 % of `M`.
    pub reinsert_count: usize,
    /// The axes the tree is shaped on, in STR's tiling order: bulk loading
    /// tiles on them, and the split, ChooseSubtree and forced reinsertion
    /// measure margin, area, overlap and centre distance over them alone.
    /// Every MBR still covers all `D` axes, so a predicate on an axis left
    /// out stays exact — it only prunes less. Defaults to `0..D`.
    pub axes: Vec<usize>,
}

impl<const D: usize> Params<D> {
    /// Parameters derived from the page capacity for dimension `D`, using
    /// the R*-tree paper's recommended ratios (m = 40 % · M, p = 30 % · M).
    pub fn for_dimension() -> Self {
        Self::with_max(Node::<D>::page_capacity())
    }

    /// Parameters for an explicit fanout `max` (recommended ratios).
    ///
    /// # Panics
    ///
    /// Panics when `max < 4` (the algorithms need room to split).
    pub fn with_max(max: usize) -> Self {
        assert!(max >= 4, "fanout must be at least 4, got {max}");
        let min = (max * 2 / 5).max(1);
        let reinsert = (max * 3 / 10).max(1);
        Self {
            max_entries: max,
            min_entries: min,
            reinsert_count: reinsert,
            axes: (0..D).collect(),
        }
    }

    /// The same parameters shaped on `axes` (see [`Self::axes`]); checked by
    /// [`Self::check`].
    pub fn with_axes(self, axes: &[usize]) -> Self {
        Self {
            axes: axes.to_vec(),
            ..self
        }
    }

    /// Checks `M ≥ 4`, `1 ≤ m ≤ M/2`, `1 ≤ p < M` and that the axis list
    /// names each of at least one axis below `D` once, for parameters read
    /// from outside the program.
    pub fn check(&self) -> Result<(), String> {
        let (max, min, reinsert) = (self.max_entries, self.min_entries, self.reinsert_count);
        if max < 4 {
            Err(format!("max_entries must be ≥ 4, got {max}"))
        } else if min < 1 || min > max / 2 {
            Err(format!(
                "min_entries must be in [1, M/2], got m={min} M={max}"
            ))
        } else if reinsert < 1 || reinsert >= max {
            Err(format!("reinsert_count must be in [1, M), got {reinsert}"))
        } else if self.axes.is_empty() {
            Err("axes must name at least one axis".to_string())
        } else if let Some(a) = self.axes.iter().find(|&&a| a >= D) {
            Err(format!("axes must be below {D}, got {a}"))
        } else if let Some(i) =
            (1..self.axes.len()).find(|&i| self.axes[..i].contains(&self.axes[i]))
        {
            Err(format!("axes must not repeat, got {} twice", self.axes[i]))
        } else {
            Ok(())
        }
    }

    /// Asserts [`Self::check`]; called by the tree constructor.
    pub fn validate(&self) {
        self.check().unwrap_or_else(|e| panic!("{e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimension_defaults() {
        let p = Params::<6>::for_dimension();
        assert_eq!(p.max_entries, 78);
        assert_eq!(p.min_entries, 31); // 40 % of 78
        assert_eq!(p.reinsert_count, 23); // 30 % of 78
        assert_eq!(p.axes, [0, 1, 2, 3, 4, 5]);
        p.validate();
    }

    #[test]
    fn small_fanout_is_valid() {
        let p = Params::<2>::with_max(4);
        assert_eq!(p.min_entries, 1);
        assert_eq!(p.reinsert_count, 1);
        p.validate();
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_fanout_rejected() {
        Params::<2>::with_max(3);
    }

    #[test]
    #[should_panic(expected = "min_entries")]
    fn inconsistent_min_rejected() {
        let p = Params::<2> {
            max_entries: 8,
            min_entries: 5,
            reinsert_count: 2,
            axes: vec![0, 1],
        };
        p.validate();
    }

    #[test]
    fn axis_lists_are_checked_without_panicking() {
        let p = Params::<6>::with_max(8);
        assert_eq!(p.clone().with_axes(&[2, 4, 3, 5]).check(), Ok(()));
        assert_eq!(p.clone().with_axes(&[5]).check(), Ok(()));
        let refused = |axes: &[usize]| p.clone().with_axes(axes).check().unwrap_err();
        assert!(refused(&[]).contains("at least one"));
        assert!(refused(&[2, 6]).contains("below 6, got 6"));
        assert!(refused(&[2, 4, 2]).contains("got 2 twice"));
        assert!(refused(&[0, 1, 2, 3, 4, 5, 0]).contains("twice"));
    }
}
