//! Runtime statistics feeding the cost-based planner.
//!
//! The §4.2–§4.3 cost model (Eq. 18–20) needs two kinds of input the
//! engines can measure but a cold optimiser cannot: how *selective* a
//! transformation family actually is on this corpus (matches per
//! `(sequence, transformation)` pair examined), and how many node/page
//! accesses and comparisons its executions really cost. A
//! [`StatsRegistry`] hangs off every shared index and accumulates both,
//! per `(family, engine)` pair, as queries execute; the planner
//! ([`crate::plan::Planner`]) consults it before falling back to the
//! analytical estimate of [`crate::cost::analytic_disk_accesses`].
//!
//! The registry also memoises the structural inputs of the analytical
//! model — the R*-tree [`rstartree::LevelSummary`] walk and the data-space
//! extent — keyed on `(len, deleted, height)` so repeated planning does
//! not re-walk an unchanged tree, and the §4.3 multi-rectangle choice per
//! family so the optimizer's probe cost is paid once, not per query.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use pagestore::sync::Mutex;
use rstartree::LevelSummary;

use crate::feature::DIMS;
use crate::index::SeqIndex;
use crate::plan::EngineChoice;
use crate::report::EngineMetrics;
use crate::tmbr::TransformMbr;
use crate::transform::Family;

/// Accumulated per-`(family, engine)` execution statistics: what the
/// measured-stats override, the scatter's selectivity collapse and the
/// drift report read.
#[derive(Clone, Debug, Default)]
pub struct FamilyStats {
    /// Queries recorded.
    pub queries: u64,
    /// Qualifying `(sequence, transformation)` pairs summed.
    pub matches: u64,
    /// Index node accesses summed.
    pub node_accesses: u64,
    /// Record-page accesses summed.
    pub page_accesses: u64,
    /// Full-sequence distance computations summed.
    pub comparisons: u64,
    /// `|S|·|T|` pairs examined, summed — the selectivity denominator.
    pub pairs_examined: u64,
    /// Planner page estimates summed — the drift-gauge denominator.
    pub est_pages_sum: f64,
    /// Planner comparison estimates summed.
    pub est_comparisons_sum: f64,
}

impl FamilyStats {
    fn record(
        &mut self,
        metrics: &EngineMetrics,
        pairs: u64,
        matches: u64,
        est_pages: f64,
        est_comparisons: f64,
    ) {
        self.queries += 1;
        self.matches += matches;
        self.node_accesses += metrics.node_accesses;
        self.page_accesses += metrics.record_page_accesses;
        self.comparisons += metrics.comparisons;
        self.pairs_examined += pairs;
        self.est_pages_sum += est_pages.max(0.0);
        self.est_comparisons_sum += est_comparisons.max(0.0);
    }

    /// Mean node accesses per recorded query.
    pub fn avg_nodes(&self) -> f64 {
        self.node_accesses as f64 / self.queries.max(1) as f64
    }

    /// Mean record-page accesses per recorded query.
    pub fn avg_pages(&self) -> f64 {
        self.page_accesses as f64 / self.queries.max(1) as f64
    }

    /// Mean distance computations per recorded query.
    pub fn avg_comparisons(&self) -> f64 {
        self.comparisons as f64 / self.queries.max(1) as f64
    }

    /// Mean match selectivity `matches / (|S|·|T|)` over all recorded
    /// queries, or `None` before the first query.
    pub fn mean_selectivity(&self) -> Option<f64> {
        if self.pairs_examined == 0 {
            None
        } else {
            Some(self.matches as f64 / self.pairs_examined as f64)
        }
    }
}

/// One `(family, engine)` row of the est-vs-actual drift report.
#[derive(Clone, Debug)]
pub struct DriftLine {
    /// Family key (`name#len`).
    pub family: String,
    /// Engine name (`scan` / `st` / `mt`).
    pub engine: &'static str,
    /// Queries the row aggregates.
    pub queries: u64,
    /// Planner page estimates summed.
    pub est_pages: f64,
    /// Measured page accesses summed.
    pub actual_pages: u64,
    /// Planner comparison estimates summed.
    pub est_comparisons: f64,
    /// Measured comparisons summed.
    pub actual_comparisons: u64,
}

impl DriftLine {
    /// Measured-over-estimated page ratio (`None` when the estimate sum
    /// is zero).
    pub fn pages_ratio(&self) -> Option<f64> {
        (self.est_pages > 0.0).then(|| self.actual_pages as f64 / self.est_pages)
    }

    /// Measured-over-estimated comparison ratio.
    pub fn comparisons_ratio(&self) -> Option<f64> {
        (self.est_comparisons > 0.0).then(|| self.actual_comparisons as f64 / self.est_comparisons)
    }
}

/// Memoised structural inputs of the analytical cost model.
#[derive(Clone, Debug)]
pub struct TreeShape {
    /// Per-level node counts and mean MBR extents (level 0 = leaves).
    pub summaries: Vec<LevelSummary<DIMS>>,
    /// Data-space extent per dimension (the root MBR's side lengths).
    pub extent: [f64; DIMS],
}

/// The memo key a [`TreeShape`] stays valid for.
type ShapeKey = (usize, usize, u32);

/// A memoised §4.3 multi-rectangle choice.
type PartitionMemo = HashMap<(String, u64), Vec<TransformMbr>>;

/// Aggregate counters every shared index exposes through `METRICS`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Physical plans constructed by the planner.
    pub plans_built: u64,
    /// Executions dispatched to the MT-index engine.
    pub dispatch_mt: u64,
    /// Executions dispatched to the ST-index engine.
    pub dispatch_st: u64,
    /// Executions dispatched to the sequential-scan engine.
    pub dispatch_scan: u64,
}

/// Runtime statistics registry — one per shared index (and one per shard
/// group), shared by reference with every planner invocation.
#[derive(Debug, Default)]
pub struct StatsRegistry {
    plans_built: AtomicU64,
    dispatch_mt: AtomicU64,
    dispatch_st: AtomicU64,
    dispatch_scan: AtomicU64,
    families: Mutex<HashMap<(String, u8), FamilyStats>>,
    shape: Mutex<Option<(ShapeKey, TreeShape)>>,
    partitions: Mutex<PartitionMemo>,
}

/// The key family statistics are accumulated under.
fn family_key(family: &Family) -> String {
    format!("{}#{}", family.name(), family.len())
}

fn engine_tag(engine: EngineChoice) -> u8 {
    match engine {
        EngineChoice::Scan => 0,
        EngineChoice::St => 1,
        EngineChoice::Mt => 2,
    }
}

fn engine_name(tag: u8) -> &'static str {
    match tag {
        0 => "scan",
        1 => "st",
        _ => "mt",
    }
}

impl StatsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Notes one planner invocation.
    pub fn note_plan_built(&self) {
        self.plans_built.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes one execution dispatched to `engine`.
    pub fn note_dispatch(&self, engine: EngineChoice) {
        match engine {
            EngineChoice::Mt => &self.dispatch_mt,
            EngineChoice::St => &self.dispatch_st,
            EngineChoice::Scan => &self.dispatch_scan,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one executed query's measured cost into the family
    /// statistics. `pairs` is the `|S|·|T|` selectivity denominator;
    /// `est` is the plan's `(est_pages, est_comparisons)` pair, kept for
    /// the drift report.
    pub fn record_query(
        &self,
        engine: EngineChoice,
        family: &Family,
        pairs: u64,
        matches: u64,
        metrics: &EngineMetrics,
        est: (f64, f64),
    ) {
        let mut map = self.families.lock();
        map.entry((family_key(family), engine_tag(engine)))
            .or_default()
            .record(metrics, pairs, matches, est.0, est.1);
    }

    /// Statistics accumulated for `(family, engine)`, if any.
    pub fn family_stats(&self, engine: EngineChoice, family: &Family) -> Option<FamilyStats> {
        self.families
            .lock()
            .get(&(family_key(family), engine_tag(engine)))
            .cloned()
    }

    /// Est-vs-actual drift rows for every `(family, engine)` pair that has
    /// recorded at least one query, sorted for deterministic exposition.
    pub fn drift_report(&self) -> Vec<DriftLine> {
        let map = self.families.lock();
        let mut rows: Vec<DriftLine> = map
            .iter()
            .map(|((family, tag), fs)| DriftLine {
                family: family.clone(),
                engine: engine_name(*tag),
                queries: fs.queries,
                est_pages: fs.est_pages_sum,
                actual_pages: fs.page_accesses,
                est_comparisons: fs.est_comparisons_sum,
                actual_comparisons: fs.comparisons,
            })
            .collect();
        drop(map);
        rows.sort_by(|a, b| (&a.family, a.engine).cmp(&(&b.family, b.engine)));
        rows
    }

    /// Aggregate counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            plans_built: self.plans_built.load(Ordering::Relaxed),
            dispatch_mt: self.dispatch_mt.load(Ordering::Relaxed),
            dispatch_st: self.dispatch_st.load(Ordering::Relaxed),
            dispatch_scan: self.dispatch_scan.load(Ordering::Relaxed),
        }
    }

    /// The tree's structural summary, memoised until the index visibly
    /// changes (`len`/`deleted`/`height` key). One full tree walk on miss.
    pub fn tree_shape(&self, index: &SeqIndex) -> Result<TreeShape, pagestore::PageError> {
        let key: ShapeKey = (index.len(), index.deleted_count(), index.height());
        if let Some((k, shape)) = self.shape.lock().as_ref() {
            if *k == key {
                return Ok(shape.clone());
            }
        }
        let summaries = index.level_summaries()?;
        // The data-space extent is the root MBR's side lengths — the level
        // with a single node (absent only for an empty tree).
        let extent = summaries
            .iter()
            .find(|l| l.nodes == 1)
            .map(|l| l.avg_extent)
            .unwrap_or([0.0; DIMS]);
        let shape = TreeShape { summaries, extent };
        *self.shape.lock() = Some((key, shape.clone()));
        Ok(shape)
    }

    /// Looks up (or computes and memoises) the §4.3 rectangle choice for a
    /// family. `variant` distinguishes specs that change the geometry
    /// (policy/threshold); the memo lives as long as the registry.
    pub fn partition_for(
        &self,
        family: &Family,
        variant: u64,
        compute: impl FnOnce() -> Vec<TransformMbr>,
    ) -> Vec<TransformMbr> {
        let key = (family_key(family), variant);
        if let Some(mbrs) = self.partitions.lock().get(&key) {
            return mbrs.clone();
        }
        let mbrs = compute();
        self.partitions.lock().insert(key, mbrs.clone());
        mbrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_accumulates_per_family_and_engine() {
        let reg = StatsRegistry::new();
        let fam = Family::moving_averages(2..=5, 32);
        let m = EngineMetrics {
            node_accesses: 10,
            candidates: 4,
            comparisons: 16,
            ..Default::default()
        };
        reg.record_query(EngineChoice::Mt, &fam, 400, 2, &m, (8.0, 20.0));
        reg.record_query(EngineChoice::Mt, &fam, 400, 0, &m, (8.0, 20.0));
        let s = reg.family_stats(EngineChoice::Mt, &fam).unwrap();
        assert_eq!(s.queries, 2);
        assert_eq!(s.node_accesses, 20);
        assert!((s.mean_selectivity().unwrap() - 2.0 / 800.0).abs() < 1e-12);
        assert!(reg.family_stats(EngineChoice::Scan, &fam).is_none());
        // Drift: 0 measured pages over 16 estimated; 32 comparisons over 40.
        let drift = reg.drift_report();
        assert_eq!(drift.len(), 1);
        assert_eq!(drift[0].engine, "mt");
        assert_eq!(drift[0].queries, 2);
        assert!((drift[0].pages_ratio().unwrap() - 0.0).abs() < 1e-12);
        assert!((drift[0].comparisons_ratio().unwrap() - 0.8).abs() < 1e-12);
        reg.note_dispatch(EngineChoice::Mt);
        reg.note_dispatch(EngineChoice::Scan);
        let snap = reg.snapshot();
        assert_eq!(snap.dispatch_mt, 1);
        assert_eq!(snap.dispatch_scan, 1);
    }

    #[test]
    fn partition_memo_computes_once() {
        let reg = StatsRegistry::new();
        let fam = Family::moving_averages(2..=9, 32);
        let mut calls = 0;
        for _ in 0..3 {
            reg.partition_for(&fam, 7, || {
                calls += 1;
                vec![TransformMbr::of_family(&fam)]
            });
        }
        assert_eq!(calls, 1);
    }
}
