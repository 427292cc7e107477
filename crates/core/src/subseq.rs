//! Subsequence matching under transformations — the Faloutsos–Ranganathan–
//! Manolopoulos (SIGMOD '94) extension the paper cites as related work \[7\],
//! carried over to the multiple-transformation framework.
//!
//! Long sequences are decomposed into sliding windows of a fixed length
//! `w`; each window's normal form maps to the usual 6-dimensional feature
//! point, and the *trail* of consecutive window points is packed, a few
//! windows at a time, into MBRs stored in the R*-tree (FRM's "ST-index"
//! idea: a sub-trail MBR is far cheaper than one point per window). A
//! pattern query then works exactly like Algorithm 1 — the transformation
//! MBR is applied to every index rectangle, including the sub-trail MBRs,
//! during a single traversal — and candidate trails are verified window by
//! window.
//!
//! Sequences here may be long and of heterogeneous lengths; they are kept
//! in memory and only index-node accesses are metered (the record-level
//! I/O accounting of [`crate::index::SeqIndex`] concerns the paper's own
//! experiments, which are whole-sequence).

use crate::feature::{FRect, SeqFeatures};
use crate::query::{mt_query_region, Filter, QueryMode, RangeSpec};
use crate::report::{EngineMetrics, QueryError};
use crate::tmbr::TransformMbr;
use crate::transform::{Family, Transform};
use rstartree::{bulk_load_str, PagedStore, Params, RStarTree, Rect};
use std::time::Instant;
use tseries::TimeSeries;

/// The distance of one window/pattern pair under one transformation,
/// respecting the query mode.
fn pair_distance(t: &Transform, x: &SeqFeatures, q: &SeqFeatures, mode: QueryMode) -> f64 {
    match mode {
        QueryMode::Symmetric => t.transformed_distance(x, q),
        QueryMode::DataOnly => t.distance_data_only(x, q),
    }
}

/// One qualifying subsequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubseqMatch {
    /// Which long sequence.
    pub seq: usize,
    /// Window start offset within it.
    pub offset: usize,
    /// Qualifying transformation (index into the family).
    pub transform: usize,
    /// Exact distance `D(t(window), t(pattern))`.
    pub dist: f64,
}

struct Trail {
    seq: usize,
    start: usize,
    len: usize,
}

/// A sliding-window subsequence index over long sequences.
pub struct SubseqIndex {
    tree: RStarTree<{ crate::feature::DIMS }>,
    trails: Vec<Trail>,
    seqs: Vec<TimeSeries>,
    window: usize,
}

impl SubseqIndex {
    /// Builds the index: windows of length `window`, `trail_len` consecutive
    /// windows per sub-trail MBR. Sequences shorter than the window
    /// contribute nothing; degenerate (constant) windows are skipped.
    ///
    /// Returns `None` when no window could be indexed.
    ///
    /// # Panics
    ///
    /// Panics for `window < 6` (the feature space needs ≥ 5 samples) or
    /// `trail_len = 0`.
    pub fn build(seqs: Vec<TimeSeries>, window: usize, trail_len: usize) -> Option<Self> {
        assert!(window >= 6, "window must be at least 6");
        assert!(trail_len >= 1, "trail_len must be positive");
        let mut trails: Vec<Trail> = Vec::new();
        let mut items: Vec<(FRect, u64)> = Vec::new();
        for (seq, ts) in seqs.iter().enumerate() {
            if ts.len() < window {
                continue;
            }
            let mut offset = 0;
            while offset + window <= ts.len() {
                // One sub-trail: up to `trail_len` consecutive windows.
                let mut mbr = Rect::empty();
                let mut covered = 0;
                while covered < trail_len && offset + covered + window <= ts.len() {
                    let win: TimeSeries = ts.values()[offset + covered..offset + covered + window]
                        .to_vec()
                        .into();
                    if let Some(f) = SeqFeatures::extract(&win) {
                        mbr.enlarge(&Rect::point(f.point));
                    }
                    covered += 1;
                }
                if !mbr.is_empty() {
                    let trail_id = trails.len() as u64;
                    trails.push(Trail {
                        seq,
                        start: offset,
                        len: covered,
                    });
                    items.push((mbr, trail_id));
                }
                offset += covered;
            }
        }
        if items.is_empty() {
            return None;
        }
        let tree = bulk_load_str(PagedStore::in_memory(), Params::with_max(32), items);
        Some(Self {
            tree,
            trails,
            seqs,
            window,
        })
    }

    /// Window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of sub-trail MBRs in the index.
    pub fn trail_count(&self) -> usize {
        self.trails.len()
    }

    /// The indexed sequences.
    pub fn sequences(&self) -> &[TimeSeries] {
        &self.seqs
    }

    /// Finds every `(sequence, offset, transformation)` whose window becomes
    /// within ε of the pattern — one MT-style index traversal (the
    /// transformation MBR is applied to sub-trail rectangles) plus
    /// window-level verification.
    pub fn query(
        &self,
        pattern: &TimeSeries,
        family: &Family,
        spec: &RangeSpec,
    ) -> Result<(Vec<SubseqMatch>, EngineMetrics), QueryError> {
        let start = Instant::now();
        let q = self.prepare(pattern, family)?;
        let eps = spec.epsilon(self.window);
        let filter = Filter::new(eps, spec.policy);
        let mbr = TransformMbr::of_family(family);
        let bound = filter.bind(&mbr, mt_query_region(&mbr, &q.point, spec.mode));

        let mut candidates = Vec::new();
        let stats = self.tree.search(
            |rect| bound.hit(rect),
            |_, trail_id| candidates.push(trail_id as usize),
        )?;

        let mut metrics = EngineMetrics {
            node_accesses: stats.nodes_accessed,
            leaf_accesses: stats.leaf_nodes_accessed,
            candidates: candidates.len() as u64,
            ..Default::default()
        };
        let mut matches = Vec::new();
        for trail_id in candidates {
            let trail = &self.trails[trail_id];
            let ts = &self.seqs[trail.seq];
            for k in 0..trail.len {
                let offset = trail.start + k;
                let win: TimeSeries = ts.values()[offset..offset + self.window].to_vec().into();
                let Some(x) = SeqFeatures::extract(&win) else {
                    continue;
                };
                for (ti, t) in family.transforms().iter().enumerate() {
                    let d = pair_distance(t, &x, &q, spec.mode);
                    metrics.comparisons += 1;
                    if d < eps {
                        matches.push(SubseqMatch {
                            seq: trail.seq,
                            offset,
                            transform: ti,
                            dist: d,
                        });
                    }
                }
            }
        }
        metrics.wall = start.elapsed();
        Ok((matches, metrics))
    }

    /// Ground truth: test every window of every sequence.
    pub fn query_scan(
        &self,
        pattern: &TimeSeries,
        family: &Family,
        spec: &RangeSpec,
    ) -> Result<(Vec<SubseqMatch>, EngineMetrics), QueryError> {
        let start = Instant::now();
        let q = self.prepare(pattern, family)?;
        let eps = spec.epsilon(self.window);
        let mut metrics = EngineMetrics::default();
        let mut matches = Vec::new();
        for (seq, ts) in self.seqs.iter().enumerate() {
            if ts.len() < self.window {
                continue;
            }
            for offset in 0..=(ts.len() - self.window) {
                let win: TimeSeries = ts.values()[offset..offset + self.window].to_vec().into();
                let Some(x) = SeqFeatures::extract(&win) else {
                    continue;
                };
                for (ti, t) in family.transforms().iter().enumerate() {
                    let d = pair_distance(t, &x, &q, spec.mode);
                    metrics.comparisons += 1;
                    if d < eps {
                        matches.push(SubseqMatch {
                            seq,
                            offset,
                            transform: ti,
                            dist: d,
                        });
                    }
                }
            }
        }
        metrics.wall = start.elapsed();
        Ok((matches, metrics))
    }

    fn prepare(&self, pattern: &TimeSeries, family: &Family) -> Result<SeqFeatures, QueryError> {
        if pattern.len() != self.window {
            return Err(QueryError::LengthMismatch {
                query: pattern.len(),
                indexed: self.window,
            });
        }
        let fam_len = family.transforms()[0].seq_len();
        if fam_len != self.window {
            return Err(QueryError::FamilyLengthMismatch {
                family: fam_len,
                indexed: self.window,
            });
        }
        SeqFeatures::extract(pattern).ok_or(QueryError::DegenerateQuery)
    }
}

/// Canonical ordering of subsequence matches for result comparisons.
pub fn sorted_subseq(matches: &[SubseqMatch]) -> Vec<(usize, usize, usize)> {
    let mut v: Vec<(usize, usize, usize)> = matches
        .iter()
        .map(|m| (m.seq, m.offset, m.transform))
        .collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::FilterPolicy;
    use tseries::random_walk;
    use tseries::rng::SeededRng;

    fn long_sequences(count: usize, len: usize, seed: u64) -> Vec<TimeSeries> {
        let mut rng = SeededRng::seed_from_u64(seed);
        (0..count)
            .map(|_| random_walk(&mut rng, len, 10.0))
            .collect()
    }

    #[test]
    fn index_equals_scan_under_safe_policy() {
        let seqs = long_sequences(12, 300, 3);
        let index = SubseqIndex::build(seqs.clone(), 32, 8).unwrap();
        let family = Family::moving_averages(2..=5, 32);
        // NB: ρ must stay below (n−1)/n ≈ 0.969 for window 32, else ε = 0.
        let spec = RangeSpec::correlation(0.9).with_policy(FilterPolicy::Safe);
        // Pattern: an actual window of sequence 4 — must be found at its
        // own offset with mv identity-ish distances near 0.
        let pattern: TimeSeries = seqs[4].values()[100..132].to_vec().into();
        let (got, gm) = index.query(&pattern, &family, &spec).unwrap();
        let (want, _) = index.query_scan(&pattern, &family, &spec).unwrap();
        assert_eq!(sorted_subseq(&got), sorted_subseq(&want));
        assert!(
            got.iter().any(|m| m.seq == 4 && m.offset == 100),
            "finds its own window"
        );
        assert!(gm.comparisons > 0);
    }

    #[test]
    fn adaptive_policy_also_lossless_on_subsequences() {
        let seqs = long_sequences(8, 256, 7);
        let index = SubseqIndex::build(seqs.clone(), 24, 6).unwrap();
        let family = Family::moving_averages(2..=4, 24);
        let safe = RangeSpec::correlation(0.95).with_policy(FilterPolicy::Safe);
        let adaptive = RangeSpec::correlation(0.95).with_policy(FilterPolicy::Adaptive);
        let pattern: TimeSeries = seqs[1].values()[50..74].to_vec().into();
        let (a, am) = index.query(&pattern, &family, &safe).unwrap();
        let (b, bm) = index.query(&pattern, &family, &adaptive).unwrap();
        assert_eq!(sorted_subseq(&a), sorted_subseq(&b));
        assert!(bm.candidates <= am.candidates);
    }

    /// The traversal runs on the bound filter; it must visit and report
    /// what the spelled-out `filter.hit(&mbr.apply_to_rect(r), &region)`
    /// does: the same trails in the same order for the same accesses.
    #[test]
    fn bound_filter_walks_the_spelled_out_walk() {
        let seqs = long_sequences(10, 300, 17);
        let index = SubseqIndex::build(seqs.clone(), 32, 4).unwrap();
        let family = Family::moving_averages(2..=6, 32).with_inverted();
        let pattern: TimeSeries = seqs[2].values()[40..72].to_vec().into();
        for policy in [
            FilterPolicy::Paper,
            FilterPolicy::Safe,
            FilterPolicy::Adaptive,
        ] {
            let spec = RangeSpec::correlation(0.9).with_policy(policy);
            let q = index.prepare(&pattern, &family).unwrap();
            let filter = Filter::new(spec.epsilon(32), policy);
            let mbr = TransformMbr::of_family(&family);
            let region = mt_query_region(&mbr, &q.point, spec.mode);
            let mut trails = Vec::new();
            let stats = index
                .tree
                .search(
                    |r| filter.hit(&mbr.apply_to_rect(r), &region),
                    |_, trail| trails.push(trail as usize),
                )
                .unwrap();

            let (matches, metrics) = index.query(&pattern, &family, &spec).unwrap();
            assert_eq!(
                (
                    metrics.candidates,
                    metrics.node_accesses,
                    metrics.leaf_accesses
                ),
                (
                    trails.len() as u64,
                    stats.nodes_accessed,
                    stats.leaf_nodes_accessed
                ),
                "{policy:?}"
            );
            // Matches come out trail by trail, window by window: their
            // (sequence, offset) order is that of the trails walked.
            let mut found: Vec<(usize, usize)> =
                matches.iter().map(|m| (m.seq, m.offset)).collect();
            found.dedup();
            let expected: Vec<(usize, usize)> = trails
                .iter()
                .flat_map(|&t| {
                    let trail = &index.trails[t];
                    (0..trail.len).map(move |k| (trail.seq, trail.start + k))
                })
                .filter(|window| found.contains(window))
                .collect();
            assert!(found.len() > 3, "{policy:?}: {} windows", found.len());
            assert_eq!(found, expected, "{policy:?}: trail order");
        }
    }

    /// The tree under the subsequence index, by its numbers: trail count,
    /// node and leaf accesses, candidates, comparisons and matches of one
    /// seeded query at trail lengths 1 and 8. A change to the node store,
    /// the STR packing or the traversal that moves any of them shows here.
    #[test]
    fn counters_are_pinned_at_trail_lengths_1_and_8() {
        let seqs = long_sequences(12, 300, 3);
        let family = Family::moving_averages(2..=5, 32);
        let spec = RangeSpec::correlation(0.9);
        let pattern: TimeSeries = seqs[4].values()[100..132].to_vec().into();
        for (trail_len, expected) in [
            (1, (3228, 89, 84, 1403, 5612, 287)),
            (8, (408, 14, 13, 267, 8448, 287)),
        ] {
            let index = SubseqIndex::build(seqs.clone(), 32, trail_len).unwrap();
            let (matches, m) = index.query(&pattern, &family, &spec).unwrap();
            let got = (
                index.trail_count(),
                m.node_accesses,
                m.leaf_accesses,
                m.candidates,
                m.comparisons,
                matches.len(),
            );
            assert_eq!(got, expected, "trail length {trail_len}");
        }
    }

    #[test]
    fn trail_packing_shrinks_the_index() {
        let seqs = long_sequences(6, 400, 9);
        let fine = SubseqIndex::build(seqs.clone(), 32, 1).unwrap();
        let coarse = SubseqIndex::build(seqs, 32, 16).unwrap();
        assert!(
            coarse.trail_count() * 8 < fine.trail_count(),
            "trail MBRs should cut entries ~16×: {} vs {}",
            coarse.trail_count(),
            fine.trail_count()
        );
    }

    #[test]
    fn trail_mbrs_filter_fewer_nodes_than_scan_comparisons() {
        let seqs = long_sequences(20, 400, 11);
        let index = SubseqIndex::build(seqs.clone(), 32, 8).unwrap();
        let family = Family::moving_averages(2..=5, 32);
        let spec = RangeSpec::correlation(0.93);
        let pattern: TimeSeries = seqs[0].values()[10..42].to_vec().into();
        let (_, im) = index.query(&pattern, &family, &spec).unwrap();
        let (_, sm) = index.query_scan(&pattern, &family, &spec).unwrap();
        assert!(
            im.comparisons < sm.comparisons,
            "index should verify fewer windows: {} vs {}",
            im.comparisons,
            sm.comparisons
        );
    }

    #[test]
    fn heterogeneous_and_short_sequences_are_handled() {
        let mut seqs = long_sequences(3, 100, 13);
        seqs.push(TimeSeries::new(vec![1.0; 10])); // shorter than window
        seqs.push(TimeSeries::new(vec![5.0; 200])); // constant: all windows degenerate
        let index = SubseqIndex::build(seqs.clone(), 32, 4).unwrap();
        let family = Family::moving_averages(1..=2, 32);
        let spec = RangeSpec::correlation(0.9).with_policy(FilterPolicy::Safe);
        let pattern: TimeSeries = seqs[0].values()[0..32].to_vec().into();
        let (got, _) = index.query(&pattern, &family, &spec).unwrap();
        assert!(got.iter().all(|m| m.seq < 3), "degenerate rows never match");
    }

    #[test]
    fn rejects_wrong_pattern_length() {
        let index = SubseqIndex::build(long_sequences(2, 100, 1), 32, 4).unwrap();
        let family = Family::moving_averages(1..=2, 32);
        let short = TimeSeries::new(vec![1.0; 16]);
        let err = index
            .query(&short, &family, &RangeSpec::euclidean(1.0))
            .unwrap_err();
        assert!(matches!(
            err,
            QueryError::LengthMismatch {
                query: 16,
                indexed: 32
            }
        ));
    }

    #[test]
    fn empty_when_everything_degenerate() {
        let seqs = vec![TimeSeries::new(vec![1.0; 64])];
        assert!(SubseqIndex::build(seqs, 32, 4).is_none());
    }
}
