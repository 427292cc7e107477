//! Tree tuning parameters.

use crate::node::Node;

/// R*-tree parameters: fanout bounds and the forced-reinsert fraction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Params {
    /// Maximum entries per node (`M`).
    pub max_entries: usize,
    /// Minimum entries per node (`m`); the R*-tree paper recommends 40 % of
    /// `M`.
    pub min_entries: usize,
    /// Entries removed on forced reinsertion (`p`); recommended 30 % of `M`.
    pub reinsert_count: usize,
}

impl Params {
    /// Parameters derived from the page capacity for dimension `D`, using
    /// the R*-tree paper's recommended ratios (m = 40 % · M, p = 30 % · M).
    pub fn for_dimension<const D: usize>() -> Self {
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
        }
    }

    /// Checks `M ≥ 4`, `1 ≤ m ≤ M/2` and `1 ≤ p < M`, for parameters read
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
        let p = Params::for_dimension::<6>();
        assert_eq!(p.max_entries, 78);
        assert_eq!(p.min_entries, 31); // 40 % of 78
        assert_eq!(p.reinsert_count, 23); // 30 % of 78
        p.validate();
    }

    #[test]
    fn small_fanout_is_valid() {
        let p = Params::with_max(4);
        assert_eq!(p.min_entries, 1);
        assert_eq!(p.reinsert_count, 1);
        p.validate();
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_fanout_rejected() {
        Params::with_max(3);
    }

    #[test]
    #[should_panic(expected = "min_entries")]
    fn inconsistent_min_rejected() {
        let p = Params {
            max_entries: 8,
            min_entries: 5,
            reinsert_count: 2,
        };
        p.validate();
    }
}
