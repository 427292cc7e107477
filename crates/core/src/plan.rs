//! The query-planning layer: logical query → physical plan → execution.
//!
//! The paper's central question is not *whether* a similarity query can be
//! answered but *how cheaply*: sequential scan, one traversal per
//! transformation (ST), or one traversal per transformation *rectangle*
//! (MT), with Eq. 18–20 pricing the choice and §4.3 deciding how many
//! rectangles. (Execution shares one descent among a plan's rectangles —
//! see [`mtindex`] — but prices and reports each rectangle's own
//! traversal, as Eq. 19 counts them.) Historically each consumer of this crate (server, shard
//! gather, CLI) hard-coded that decision at its own call site. This module
//! makes it first-class:
//!
//! * [`LogicalQuery`] — the verb-level IR (range / kNN / join over a
//!   transformation family). Similarity *expressions* (§3's algebra,
//!   [`crate::expr::SimilarityExpr`]) enter the IR through
//!   [`LogicalQuery::range_expr`], which applies the Eq. 10–11 rewrite
//!   rules as a plan-level rewrite.
//! * [`Planner`] — lowers a logical query to a [`PhysicalPlan`]: an engine
//!   choice plus MBR partitioning, priced by [`CostModel`] (Eq. 18–20) from
//!   runtime statistics ([`StatsRegistry`]) when available, and from the
//!   analytical node-access estimate otherwise.
//! * [`execute_plan`] — the single dispatch point into the engines; every
//!   execution feeds its measured cost back into the registry.
//! * [`PlanCache`] — a bounded LRU result cache keyed on
//!   `(fingerprint, QueryEpoch)`; the epoch is the WAL checkpoint epoch
//!   plus a mutation counter, so any insert/delete invalidates cached
//!   results without explicit bookkeeping.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use pagestore::sync::Mutex;
use pagestore::PAGE_SIZE;
use tseries::TimeSeries;

use crate::cost::{analytic_disk_accesses, CostModel};
use crate::engine::{join, knn, mtindex, seqscan};
use crate::expr::SimilarityExpr;
use crate::feature::{SeqFeatures, DIMS};
use crate::index::SeqIndex;
use crate::partition::{partition, PartitionStrategy};
use crate::query::{expansion, FilterPolicy, QueryMode, RangeSpec, Threshold};
use crate::report::{EngineMetrics, JoinResult, Match, QueryError, QueryResult};
use crate::stats::StatsRegistry;
use crate::tmbr::TransformMbr;
use crate::transform::Family;

/// The three query-processing algorithms of §4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineChoice {
    /// Sequential scan (`|S|·|T|` comparisons).
    Scan,
    /// Single Transformation at a time — one traversal per transformation.
    St,
    /// Multiple Transformations at a time — Algorithm 1.
    Mt,
}

impl EngineChoice {
    /// Wire/CLI name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Scan => "scan",
            Self::St => "st",
            Self::Mt => "mt",
        }
    }
}

/// Whether the planner may choose the engine or must obey the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum EnginePref {
    /// Cost-based choice (Eq. 18–20).
    #[default]
    Auto,
    /// Forced engine (the paper's per-algorithm experiments; also what a
    /// parity test uses to pin each side of a comparison).
    Force(EngineChoice),
}

/// The verb of a logical query.
#[derive(Clone, Debug, PartialEq)]
pub enum LogicalVerb {
    /// Query 1 — all `(sequence, transformation)` pairs within ε.
    Range,
    /// Query 3 — the k nearest sequences under the best family member.
    Knn {
        /// Number of neighbours.
        k: usize,
    },
    /// Query 2 — the self-join within ε.
    Join,
}

/// The logical IR: verb × transformation family × threshold spec.
#[derive(Clone, Debug)]
pub struct LogicalQuery {
    /// The transformation family (post-rewrite, Eq. 10–11).
    pub family: Family,
    /// The verb.
    pub verb: LogicalVerb,
    /// Threshold, filter policy, and query mode. For kNN only the policy
    /// and mode matter (the threshold is found, not given).
    pub spec: RangeSpec,
    /// Engine preference.
    pub engine: EnginePref,
}

impl LogicalQuery {
    /// A range query over `family`.
    pub fn range(family: Family, spec: RangeSpec) -> Self {
        Self {
            family,
            verb: LogicalVerb::Range,
            spec,
            engine: EnginePref::Auto,
        }
    }

    /// A range query over a similarity expression: the Eq. 10–11 rewrite
    /// rules run here, as plan-level rewrites, producing the flat family
    /// the engines index against.
    pub fn range_expr(expr: &SimilarityExpr, spec: RangeSpec) -> Self {
        Self::range(expr.rewrite(), spec)
    }

    /// A k-nearest-neighbour query over `family`.
    pub fn knn(family: Family, k: usize) -> Self {
        Self {
            family,
            verb: LogicalVerb::Knn { k },
            spec: RangeSpec::euclidean(0.0),
            engine: EnginePref::Auto,
        }
    }

    /// A self-join over `family`.
    pub fn join(family: Family, spec: RangeSpec) -> Self {
        Self {
            family,
            verb: LogicalVerb::Join,
            spec,
            engine: EnginePref::Auto,
        }
    }

    /// Overrides the engine preference.
    pub fn with_engine(mut self, engine: EnginePref) -> Self {
        self.engine = engine;
        self
    }

    /// A stable fingerprint of this query (and, when given, the query
    /// sequence) — the result-cache key material. Two queries with equal
    /// fingerprints produce identical results against the same epoch.
    pub fn fingerprint(&self, query: Option<&TimeSeries>) -> u64 {
        let mut h = Fnv::new();
        match &self.verb {
            LogicalVerb::Range => h.byte(1),
            LogicalVerb::Knn { k } => {
                h.byte(2);
                h.u64(*k as u64);
            }
            LogicalVerb::Join => h.byte(3),
        }
        match self.spec.threshold {
            Threshold::Euclidean(e) => {
                h.byte(10);
                h.u64(e.to_bits());
            }
            Threshold::Correlation(r) => {
                h.byte(11);
                h.u64(r.to_bits());
            }
        }
        h.byte(match self.spec.policy {
            FilterPolicy::Paper => 20,
            FilterPolicy::Safe => 21,
            FilterPolicy::Adaptive => 22,
        });
        h.byte(match self.spec.mode {
            QueryMode::Symmetric => 30,
            QueryMode::DataOnly => 31,
        });
        match self.engine {
            EnginePref::Auto => h.byte(40),
            EnginePref::Force(e) => h.byte(match e {
                EngineChoice::Scan => 41,
                EngineChoice::St => 42,
                EngineChoice::Mt => 43,
            }),
        }
        h.bytes(self.family.name().as_bytes());
        h.u64(self.family.len() as u64);
        for t in self.family.transforms() {
            h.bytes(t.label().as_bytes());
            h.byte(0xfe);
        }
        if let Some(ts) = query {
            h.u64(ts.len() as u64);
            for &v in ts.values() {
                h.u64(v.to_bits());
            }
        }
        h.finish()
    }
}

/// FNV-1a, 64-bit — enough for a cache key, no dependencies.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x1_0000_01b3);
    }
    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// How the planner arrived at its engine choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChosenBy {
    /// The caller forced the engine.
    Forced,
    /// Eq. 18–20 over measured statistics and/or the analytical estimate.
    CostModel,
    /// The verb admits only one strategy (kNN's best-first search).
    OnlyOption,
}

impl ChosenBy {
    /// Stable label (CLI/`EXPLAIN` output).
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Forced => "forced",
            Self::CostModel => "cost-model",
            Self::OnlyOption => "only-option",
        }
    }
}

/// The physical plan: engine, partitioning, fan-out shape, estimates.
#[derive(Clone, Debug)]
pub struct PhysicalPlan {
    /// Chosen engine.
    pub engine: EngineChoice,
    /// Transformation rectangles for the MT engine (empty otherwise).
    pub mbrs: Vec<TransformMbr>,
    /// Shards this plan fans out over (1 = single index).
    pub fanout: usize,
    /// Scatter threads the distributed executor should use.
    pub threads: usize,
    /// Estimated index node accesses.
    pub est_nodes: f64,
    /// Estimated record/heap page accesses.
    pub est_pages: f64,
    /// Estimated distance computations.
    pub est_comparisons: f64,
    /// Eq. 18–20 cost of the chosen alternative.
    pub est_cost: f64,
    /// Provenance of the choice.
    pub chosen_by: ChosenBy,
}

impl PhysicalPlan {
    /// Number of transformation rectangles (0 for non-MT plans).
    pub fn partitions(&self) -> usize {
        self.mbrs.len()
    }
}

/// Per-engine cost estimate produced while planning.
#[derive(Clone, Debug)]
struct Estimate {
    nodes: f64,
    pages: f64,
    comparisons: f64,
    cost: f64,
    mbrs: Vec<TransformMbr>,
}

/// The cost-based planner. Stateless: it prices with the paper's Fig. 8
/// calibration ([`CostModel::default`]), and all memory lives in the
/// [`StatsRegistry`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Planner;

/// Minimum recorded queries before measured statistics override the
/// analytical estimate.
const STATS_MIN_QUERIES: u64 = 3;

impl Planner {
    /// A planner with the paper's Fig. 8 cost calibration.
    pub fn new() -> Self {
        Self
    }

    /// Lowers `lq` to a physical plan against `index`. The query sequence,
    /// when available, sharpens the MT estimate (per-rectangle window
    /// placement); planning never touches the record heap.
    pub fn plan(
        &self,
        index: &SeqIndex,
        stats: &StatsRegistry,
        lq: &LogicalQuery,
        query: Option<&TimeSeries>,
    ) -> Result<PhysicalPlan, QueryError> {
        let _span = simobs::trace::span("plan.build");
        stats.note_plan_built();
        if let LogicalVerb::Knn { .. } = lq.verb {
            // kNN is answered by best-first search over the one index
            // structure; there is no engine alternative to price.
            return Ok(PhysicalPlan {
                engine: EngineChoice::Mt,
                mbrs: vec![TransformMbr::of_family(&lq.family)],
                fanout: 1,
                threads: 1,
                est_nodes: 0.0,
                est_pages: 0.0,
                est_comparisons: 0.0,
                est_cost: 0.0,
                chosen_by: ChosenBy::OnlyOption,
            });
        }

        let q = match query {
            Some(ts) => Some(index.prepare_query(ts)?),
            None => None,
        };
        let (engines, chosen_by) = match lq.engine {
            EnginePref::Force(e) => (vec![e], ChosenBy::Forced),
            EnginePref::Auto => (
                vec![EngineChoice::Scan, EngineChoice::St, EngineChoice::Mt],
                ChosenBy::CostModel,
            ),
        };
        let mut best: Option<(EngineChoice, Estimate)> = None;
        for e in engines {
            let est = self.estimate(index, stats, lq, q.as_ref(), e)?;
            if best.as_ref().is_none_or(|(_, b)| est.cost < b.cost) {
                best = Some((e, est));
            }
        }
        let (engine, est) = best.expect("at least one engine priced");
        Ok(PhysicalPlan {
            engine,
            mbrs: est.mbrs,
            fanout: 1,
            threads: 1,
            est_nodes: est.nodes,
            est_pages: est.pages,
            est_comparisons: est.comparisons,
            est_cost: est.cost,
            chosen_by,
        })
    }

    /// Prices one engine alternative. Measured statistics win once the
    /// family has been queried enough; otherwise the analytical model of
    /// §4.3 (placement-blind, but free) supplies node estimates.
    fn estimate(
        &self,
        index: &SeqIndex,
        stats: &StatsRegistry,
        lq: &LogicalQuery,
        q: Option<&SeqFeatures>,
        engine: EngineChoice,
    ) -> Result<Estimate, QueryError> {
        let model = CostModel::default();
        let n_live = (index.len() - index.deleted_count()) as f64;
        let nt = lq.family.len() as f64;
        let mbrs = if engine == EngineChoice::Mt {
            self.choose_partitioning(index, stats, lq, q)?
        } else {
            Vec::new()
        };

        if let Some(fs) = stats.family_stats(engine, &lq.family) {
            if fs.queries >= STATS_MIN_QUERIES {
                let (nodes, pages, cmps) = (fs.avg_nodes(), fs.avg_pages(), fs.avg_comparisons());
                let cost = model.cda * (nodes + pages) + model.ccmp * cmps;
                return Ok(Estimate {
                    nodes,
                    pages,
                    comparisons: cmps,
                    cost,
                    mbrs,
                });
            }
        }

        if engine == EngineChoice::Scan {
            // One heap pass plus |S|·|T| comparisons (Eq. 17 in spirit):
            // records are seq_len f64s plus a small header.
            let rec = (index.seq_len() * 8 + 16) as f64;
            let per_page = (PAGE_SIZE as f64 / rec).floor().max(1.0);
            let pages = (n_live / per_page).ceil();
            let comparisons = n_live * nt;
            return Ok(Estimate {
                nodes: 0.0,
                pages,
                comparisons,
                cost: model.cda * pages + model.ccmp * comparisons,
                mbrs,
            });
        }
        // Eq. 20 over the plan's rectangles. ST's singletons have zero
        // span, so each prices at the bare filter window `2·e` — the
        // placement-blind per-transformation traversal of §4.3.
        let shape = stats.tree_shape(index).map_err(QueryError::Io)?;
        let e = expansion(lq.spec.epsilon(index.seq_len()), lq.spec.policy);
        let (nodes, comparisons) = price_rects(
            &shape,
            &index_rects(engine, &mbrs, &lq.family),
            q,
            &e,
            lq.spec.mode,
            index.leaf_capacity() as f64,
        );
        // ST fetches one candidate per comparison; an MT candidate is
        // fetched once for all the members it is verified against.
        let pages = match engine {
            EngineChoice::St => comparisons,
            _ => comparisons / nt.max(1.0),
        };
        Ok(Estimate {
            nodes,
            pages,
            comparisons,
            cost: model.cda * nodes + model.ccmp * comparisons,
            mbrs,
        })
    }

    /// The §4.3 choice: evaluate a few candidate partitionings under the
    /// analytical Eq. 20 and keep the cheapest. Memoised per family so
    /// repeated queries pay a hash lookup.
    fn choose_partitioning(
        &self,
        index: &SeqIndex,
        stats: &StatsRegistry,
        lq: &LogicalQuery,
        q: Option<&SeqFeatures>,
    ) -> Result<Vec<TransformMbr>, QueryError> {
        let nt = lq.family.len();
        if nt <= 2 {
            return Ok(vec![TransformMbr::of_family(&lq.family)]);
        }
        let shape = stats.tree_shape(index).map_err(QueryError::Io)?;
        let eps = lq.spec.epsilon(index.seq_len());
        let e = expansion(eps, lq.spec.policy);
        // The memo variant folds in everything the geometry depends on.
        let variant = {
            let mut h = Fnv::new();
            h.u64(eps.to_bits());
            h.byte(lq.spec.policy as u8);
            h.byte(lq.spec.mode as u8);
            h.u64(index.height() as u64);
            h.finish()
        };
        let model = CostModel::default();
        let ca_leaf = index.leaf_capacity() as f64;
        Ok(stats.partition_for(&lq.family, variant, || {
            let mut candidates = vec![PartitionStrategy::Single];
            for per in [2usize, 4, 8] {
                if per < nt {
                    candidates.push(PartitionStrategy::EqualWidth { per_mbr: per });
                }
            }
            for k in [2usize, 3, 4] {
                if k < nt {
                    candidates.push(PartitionStrategy::KMeans { k });
                }
            }
            let mut best: Option<(f64, Vec<TransformMbr>)> = None;
            for strat in &candidates {
                let mbrs = partition(&lq.family, strat);
                let (nodes, cmps) = price_rects(&shape, &mbrs, q, &e, lq.spec.mode, ca_leaf);
                let cost = model.cda * nodes + model.ccmp * cmps;
                if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                    best = Some((cost, mbrs));
                }
            }
            best.expect("at least Single was priced").1
        }))
    }
}

/// The rectangles an index-driven plan traverses: the planner's
/// partitioning when it chose one; otherwise ST is the singleton
/// partitioning (`k = |T|`, `NT(rᵢ) = 1`) and MT the whole family in one
/// rectangle (§5.1).
fn index_rects<'a>(
    engine: EngineChoice,
    mbrs: &'a [TransformMbr],
    family: &Family,
) -> Cow<'a, [TransformMbr]> {
    if !mbrs.is_empty() {
        Cow::Borrowed(mbrs)
    } else if engine == EngineChoice::St {
        Cow::Owned(TransformMbr::singletons(family))
    } else {
        Cow::Owned(vec![TransformMbr::of_family(family)])
    }
}

/// Eq. 20's analytical sums over a rectangle list: node accesses, and
/// comparisons as `DA_leaf · CA_leaf · NT(rᵢ)`.
fn price_rects(
    shape: &crate::stats::TreeShape,
    rects: &[TransformMbr],
    q: Option<&SeqFeatures>,
    e: &[f64; DIMS],
    mode: QueryMode,
    ca_leaf: f64,
) -> (f64, f64) {
    let (mut nodes, mut comparisons) = (0.0, 0.0);
    for mbr in rects {
        let widths = mbr_widths(mbr, q, e, &shape.extent, mode);
        nodes += analytic_disk_accesses(&shape.summaries, &shape.extent, &widths);
        // `summaries[0]` is the leaf level.
        let leaves = analytic_disk_accesses(&shape.summaries[..1], &shape.extent, &widths);
        comparisons += leaves * ca_leaf * mbr.nt() as f64;
    }
    (nodes, comparisons)
}

/// Window widths of one MT rectangle's traversal: the rectangle applied to
/// the query point (symmetric mode), expanded by the filter windows;
/// unconstrained dimensions count as the full data extent.
fn mbr_widths(
    mbr: &TransformMbr,
    q: Option<&SeqFeatures>,
    e: &[f64; DIMS],
    extent: &[f64; DIMS],
    mode: QueryMode,
) -> [f64; DIMS] {
    let mut widths = [0.0; DIMS];
    let region = match (mode, q) {
        (QueryMode::Symmetric, Some(q)) => Some(mbr.apply_to_point(&q.point)),
        _ => None,
    };
    for d in 0..DIMS {
        if e[d].is_finite() {
            let span = region.as_ref().map_or(0.0, |r| r.hi[d] - r.lo[d]);
            widths[d] = span + 2.0 * e[d];
        } else {
            widths[d] = extent[d];
        }
    }
    widths
}

/// The result of executing a physical plan.
#[derive(Clone, Debug)]
pub enum PlanOutput {
    /// Range-query result.
    Range(QueryResult),
    /// kNN result.
    Knn(Vec<Match>, EngineMetrics),
    /// Join result.
    Join(JoinResult),
}

impl PlanOutput {
    /// The metrics of whichever variant this is.
    pub fn metrics(&self) -> &EngineMetrics {
        match self {
            Self::Range(r) => &r.metrics,
            Self::Knn(_, m) => m,
            Self::Join(r) => &r.metrics,
        }
    }
}

/// Executes `plan` — the single dispatch point into the engines. Measured
/// cost feeds back into `stats` for the next planning round.
pub fn execute_plan(
    index: &SeqIndex,
    stats: &StatsRegistry,
    lq: &LogicalQuery,
    plan: &PhysicalPlan,
    query: Option<&TimeSeries>,
) -> Result<PlanOutput, QueryError> {
    let _span = simobs::trace::span("plan.execute");
    stats.note_dispatch(plan.engine);
    let rects = || index_rects(plan.engine, &plan.mbrs, &lq.family);
    let out = match &lq.verb {
        LogicalVerb::Range => {
            let q = query.ok_or(QueryError::DegenerateQuery)?;
            PlanOutput::Range(match plan.engine {
                EngineChoice::Scan => seqscan::range_query(index, q, &lq.family, &lq.spec)?,
                _ => {
                    mtindex::range_query_with_mbrs(index, q, &lq.family, &lq.spec, &rects(), None)?
                        .0
                }
            })
        }
        LogicalVerb::Knn { k } => {
            let q = query.ok_or(QueryError::DegenerateQuery)?;
            let (matches, metrics) = knn::knn(index, q, &lq.family, *k)?;
            PlanOutput::Knn(matches, metrics)
        }
        LogicalVerb::Join => PlanOutput::Join(match plan.engine {
            EngineChoice::Scan => join::scan_join(index, &lq.family, &lq.spec)?,
            _ => join::mt_join_with_mbrs(index, &lq.family, &lq.spec, &rects())?,
        }),
    };
    let live = (index.len() - index.deleted_count()) as u64;
    let pairs = live * lq.family.len() as u64;
    let matched = match &out {
        PlanOutput::Range(r) => r.matches.len() as u64,
        PlanOutput::Knn(m, _) => m.len() as u64,
        PlanOutput::Join(r) => r.matches.len() as u64,
    };
    stats.record_query(
        plan.engine,
        &lq.family,
        pairs,
        matched,
        out.metrics(),
        (plan.est_pages, plan.est_comparisons),
    );
    Ok(out)
}

/// Plans and executes in one call (the common single-index path).
pub fn run(
    index: &SeqIndex,
    stats: &StatsRegistry,
    lq: &LogicalQuery,
    query: Option<&TimeSeries>,
) -> Result<(PhysicalPlan, PlanOutput), QueryError> {
    let plan = Planner::new().plan(index, stats, lq, query)?;
    let out = execute_plan(index, stats, lq, &plan, query)?;
    Ok((plan, out))
}

/// The cache epoch a result is valid for: the WAL checkpoint epoch plus a
/// per-index mutation counter. Any insert or delete bumps `mutations`,
/// so equality of `QueryEpoch`s implies the index is byte-identical from
/// the query's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct QueryEpoch {
    /// WAL checkpoint epoch (0 when the index is not durable).
    pub epoch: u64,
    /// Mutations applied since process start (monotone).
    pub mutations: u64,
}

/// Cache observability counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that returned a cached result.
    pub hits: u64,
    /// Lookups that missed (absent or stale epoch).
    pub misses: u64,
    /// Entries evicted by the LRU bound or staleness.
    pub evictions: u64,
    /// Current entry count.
    pub entries: u64,
}

struct CacheEntry {
    epoch: QueryEpoch,
    plan: PhysicalPlan,
    output: PlanOutput,
    tick: u64,
}

struct CacheInner {
    map: HashMap<u64, CacheEntry>,
    tick: u64,
}

/// A bounded LRU result cache keyed on `(fingerprint, QueryEpoch)`.
///
/// Invalidation is structural: a lookup whose stored epoch differs from
/// the caller's current epoch is a miss (and the stale entry is dropped),
/// so WAL checkpoints *and* individual mutations invalidate without any
/// explicit flush call. Capacity 0 disables caching entirely.
pub struct PlanCache {
    cap: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `cap` results.
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Looks up `fingerprint` at `epoch`. A stored entry from another
    /// epoch is stale: it is removed and the lookup misses.
    pub fn get(&self, fingerprint: u64, epoch: QueryEpoch) -> Option<(PhysicalPlan, PlanOutput)> {
        if self.cap == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&fingerprint) {
            Some(entry) if entry.epoch == epoch => {
                entry.tick = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((entry.plan.clone(), entry.output.clone()))
            }
            Some(_) => {
                inner.map.remove(&fingerprint);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a result, evicting the least-recently-used entry when full.
    pub fn put(&self, fingerprint: u64, epoch: QueryEpoch, plan: PhysicalPlan, output: PlanOutput) {
        if self.cap == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= self.cap && !inner.map.contains_key(&fingerprint) {
            if let Some((&victim, _)) = inner.map.iter().min_by_key(|(_, e)| e.tick) {
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(
            fingerprint,
            CacheEntry {
                epoch,
                plan,
                output,
                tick,
            },
        );
    }

    /// Observability counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.inner.lock().map.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use tseries::{Corpus, CorpusKind};

    fn fixture() -> (SeqIndex, Corpus) {
        let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 80, 64, 7);
        let index = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
        (index, corpus)
    }

    #[test]
    fn fingerprints_distinguish_queries() {
        let fam = Family::moving_averages(2..=5, 64);
        let spec = RangeSpec::correlation(0.9);
        let a = LogicalQuery::range(fam.clone(), spec);
        let b = LogicalQuery::range(fam.clone(), RangeSpec::correlation(0.95));
        let c = LogicalQuery::knn(fam.clone(), 5);
        let d = LogicalQuery::range(fam, spec).with_engine(EnginePref::Force(EngineChoice::St));
        let fps: Vec<u64> = [&a, &b, &c, &d]
            .iter()
            .map(|q| q.fingerprint(None))
            .collect();
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j], "queries {i} and {j} collide");
            }
        }
        // Same logical query, same fingerprint.
        let a2 = LogicalQuery::range(Family::moving_averages(2..=5, 64), spec);
        assert_eq!(a.fingerprint(None), a2.fingerprint(None));
        // Different query series, different fingerprint.
        let (_, corpus) = fixture();
        let q0 = &corpus.series()[0];
        let q1 = &corpus.series()[1];
        assert_ne!(a.fingerprint(Some(q0)), a.fingerprint(Some(q1)));
    }

    #[test]
    fn rewrite_enters_ir() {
        let e = SimilarityExpr::any(Family::moving_averages(2..=4, 64)).or(SimilarityExpr::one(
            crate::transform::Transform::identity(64),
        ));
        let lq = LogicalQuery::range_expr(&e, RangeSpec::euclidean(1.0));
        assert_eq!(lq.family.len(), e.cardinality());
    }

    #[test]
    fn forced_engines_execute_and_agree() {
        let (index, corpus) = fixture();
        let stats = StatsRegistry::new();
        let fam = Family::moving_averages(2..=9, 64);
        let spec = RangeSpec::correlation(0.9).with_policy(FilterPolicy::Safe);
        let q = &corpus.series()[3];
        let mut pairs: Vec<Vec<(usize, usize)>> = Vec::new();
        for e in [EngineChoice::Scan, EngineChoice::St, EngineChoice::Mt] {
            let lq = LogicalQuery::range(fam.clone(), spec).with_engine(EnginePref::Force(e));
            let (plan, out) = run(&index, &stats, &lq, Some(q)).unwrap();
            assert_eq!(plan.engine, e);
            assert_eq!(plan.chosen_by, ChosenBy::Forced);
            match out {
                PlanOutput::Range(r) => pairs.push(r.sorted_pairs()),
                _ => panic!("range output expected"),
            }
        }
        assert_eq!(pairs[0], pairs[1]);
        assert_eq!(pairs[1], pairs[2]);
        let snap = stats.snapshot();
        assert_eq!(snap.plans_built, 3);
        assert_eq!(snap.dispatch_mt, 1);
        assert_eq!(snap.dispatch_scan, 1);
        assert_eq!(snap.dispatch_st, 1);
    }

    #[test]
    fn auto_choice_matches_forced_results() {
        let (index, corpus) = fixture();
        let stats = StatsRegistry::new();
        let fam = Family::moving_averages(2..=9, 64);
        let spec = RangeSpec::correlation(0.9).with_policy(FilterPolicy::Adaptive);
        let q = &corpus.series()[5];
        let lq = LogicalQuery::range(fam.clone(), spec);
        let (plan, out) = run(&index, &stats, &lq, Some(q)).unwrap();
        assert_eq!(plan.chosen_by, ChosenBy::CostModel);
        let forced =
            LogicalQuery::range(fam, spec).with_engine(EnginePref::Force(EngineChoice::Scan));
        let (_, fout) = run(&index, &stats, &forced, Some(q)).unwrap();
        match (out, fout) {
            (PlanOutput::Range(a), PlanOutput::Range(b)) => {
                assert_eq!(a.sorted_pairs(), b.sorted_pairs());
            }
            _ => panic!("range outputs expected"),
        }
    }

    #[test]
    fn stats_feed_back_into_estimates() {
        let (index, corpus) = fixture();
        let stats = StatsRegistry::new();
        let fam = Family::moving_averages(2..=5, 64);
        let spec = RangeSpec::correlation(0.9).with_policy(FilterPolicy::Safe);
        let lq =
            LogicalQuery::range(fam.clone(), spec).with_engine(EnginePref::Force(EngineChoice::Mt));
        for i in 0..4 {
            run(&index, &stats, &lq, Some(&corpus.series()[i])).unwrap();
        }
        let fs = stats.family_stats(EngineChoice::Mt, &fam).unwrap();
        assert!(fs.queries >= STATS_MIN_QUERIES);
        // A fresh plan is now priced from measurements: the estimate equals
        // the recorded averages.
        let planner = Planner::new();
        let plan = planner
            .plan(&index, &stats, &lq, Some(&corpus.series()[0]))
            .unwrap();
        assert!((plan.est_nodes - fs.avg_nodes()).abs() < 1e-9);
    }

    /// The analytical estimates, spelled as the closed forms the planner
    /// used when ST, MT and the §4.3 search each priced their own loop:
    /// `price_rects` must reproduce them, and `auto` must pick the same
    /// engine.
    #[test]
    fn analytic_estimates_match_the_per_engine_closed_forms() {
        // Large and selective enough that the index engines beat the scan
        // and price within 2 % of each other.
        let n = 600.0;
        let corpus = Corpus::generate(CorpusKind::SyntheticWalks, n as usize, 64, 7);
        let index = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
        let q = &corpus.series()[3];
        let qf = index.prepare_query(q).unwrap();
        let spec = RangeSpec::correlation(0.975).with_policy(FilterPolicy::Adaptive);
        let shape = StatsRegistry::new().tree_shape(&index).unwrap();
        let e = expansion(spec.epsilon(64), spec.policy);
        let model = CostModel::default();
        let ca_leaf = index.leaf_capacity() as f64;
        let leaves = |widths: &[f64; DIMS]| {
            let level0: Vec<_> = shape
                .summaries
                .iter()
                .filter(|l| l.level == 0)
                .cloned()
                .collect();
            analytic_disk_accesses(&level0, &shape.extent, widths)
        };
        // (nodes, pages, comparisons, cost) per engine.
        let st_form = |nt: f64| {
            let mut widths = shape.extent;
            for d in 0..DIMS {
                if e[d].is_finite() {
                    widths[d] = 2.0 * e[d];
                }
            }
            let nodes = nt * analytic_disk_accesses(&shape.summaries, &shape.extent, &widths);
            let cmps = nt * leaves(&widths) * ca_leaf;
            [nodes, cmps, cmps, model.cda * nodes + model.ccmp * cmps]
        };
        let mt_form = |mbrs: &[TransformMbr], nt: f64| {
            let (mut nodes, mut cmps) = (0.0, 0.0);
            for mbr in mbrs {
                let widths = mbr_widths(mbr, Some(&qf), &e, &shape.extent, spec.mode);
                nodes += analytic_disk_accesses(&shape.summaries, &shape.extent, &widths);
                cmps += leaves(&widths) * ca_leaf * mbr.nt() as f64;
            }
            [
                nodes,
                cmps / nt,
                cmps,
                model.cda * nodes + model.ccmp * cmps,
            ]
        };
        let scan_form = |nt: f64| {
            let pages = (n / (PAGE_SIZE as f64 / (64.0 * 8.0 + 16.0)).floor()).ceil();
            let cmps = n * nt;
            [0.0, pages, cmps, model.cda * pages + model.ccmp * cmps]
        };
        let plan_of = |fam: &Family, engine: EnginePref| {
            let lq = LogicalQuery::range(fam.clone(), spec).with_engine(engine);
            Planner::new()
                .plan(&index, &StatsRegistry::new(), &lq, Some(q))
                .unwrap()
        };
        let assert_pinned = |plan: &PhysicalPlan, want: [f64; 4], what: &str| {
            let got = [
                plan.est_nodes,
                plan.est_pages,
                plan.est_comparisons,
                plan.est_cost,
            ];
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g - w).abs() <= 1e-9 * w.abs(),
                    "{what}: {got:?} vs {want:?}"
                );
            }
        };

        let fam = Family::moving_averages(2..=9, 64);
        let st = plan_of(&fam, EnginePref::Force(EngineChoice::St));
        assert_eq!((st.engine, st.partitions()), (EngineChoice::St, 0));
        assert_pinned(&st, st_form(8.0), "forced ST");

        // Two members: §4.3 keeps the family in one rectangle.
        let pair = Family::moving_averages(2..=3, 64);
        let mt1 = plan_of(&pair, EnginePref::Force(EngineChoice::Mt));
        assert_eq!((mt1.engine, mt1.partitions()), (EngineChoice::Mt, 1));
        assert_pinned(&mt1, mt_form(&mt1.mbrs, 2.0), "forced single-rectangle MT");

        let mt = plan_of(&fam, EnginePref::Force(EngineChoice::Mt));
        let forms = [
            (EngineChoice::Scan, scan_form(8.0)),
            (EngineChoice::St, st_form(8.0)),
            (EngineChoice::Mt, mt_form(&mt.mbrs, 8.0)),
        ];
        let (cheapest, want) = forms
            .into_iter()
            .min_by(|a, b| a.1[3].total_cmp(&b.1[3]))
            .unwrap();
        assert_eq!(cheapest, EngineChoice::Mt);
        let auto = plan_of(&fam, EnginePref::Auto);
        assert_eq!(
            (auto.engine, auto.partitions()),
            (cheapest, mt.partitions())
        );
        assert_pinned(&auto, want, "auto");
    }

    #[test]
    fn knn_plans_execute() {
        let (index, corpus) = fixture();
        let stats = StatsRegistry::new();
        let lq = LogicalQuery::knn(Family::moving_averages(2..=5, 64), 3);
        let (plan, out) = run(&index, &stats, &lq, Some(&corpus.series()[2])).unwrap();
        assert_eq!(plan.chosen_by, ChosenBy::OnlyOption);
        match out {
            PlanOutput::Knn(matches, _) => assert_eq!(matches.len(), 3),
            _ => panic!("knn output expected"),
        }
    }

    #[test]
    fn join_plans_execute_and_agree() {
        let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 30, 64, 11);
        let index = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
        let stats = StatsRegistry::new();
        let fam = Family::moving_averages(2..=4, 64);
        let spec = RangeSpec::correlation(0.95).with_policy(FilterPolicy::Safe);
        let mut triples: Vec<Vec<(usize, usize, usize)>> = Vec::new();
        for e in [EngineChoice::Scan, EngineChoice::St, EngineChoice::Mt] {
            let lq = LogicalQuery::join(fam.clone(), spec).with_engine(EnginePref::Force(e));
            let (_, out) = run(&index, &stats, &lq, None).unwrap();
            match out {
                PlanOutput::Join(r) => triples.push(r.sorted_triples()),
                _ => panic!("join output expected"),
            }
        }
        assert_eq!(triples[0], triples[1]);
        assert_eq!(triples[1], triples[2]);
    }

    #[test]
    fn cache_hits_until_epoch_moves() {
        let cache = PlanCache::new(4);
        let plan = PhysicalPlan {
            engine: EngineChoice::Scan,
            mbrs: Vec::new(),
            fanout: 1,
            threads: 1,
            est_nodes: 0.0,
            est_pages: 0.0,
            est_comparisons: 0.0,
            est_cost: 0.0,
            chosen_by: ChosenBy::Forced,
        };
        let out = PlanOutput::Range(QueryResult::default());
        let e0 = QueryEpoch {
            epoch: 1,
            mutations: 0,
        };
        cache.put(42, e0, plan.clone(), out.clone());
        assert!(cache.get(42, e0).is_some());
        // A mutation bumps the epoch: the entry is stale.
        let e1 = QueryEpoch {
            epoch: 1,
            mutations: 1,
        };
        assert!(cache.get(42, e1).is_none());
        // And it was dropped, so even the old epoch misses now.
        assert!(cache.get(42, e0).is_none());
        let c = cache.counters();
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 2);
        assert_eq!(c.evictions, 1);
    }

    #[test]
    fn cache_lru_bounds_entries() {
        let cache = PlanCache::new(2);
        let plan = PhysicalPlan {
            engine: EngineChoice::Scan,
            mbrs: Vec::new(),
            fanout: 1,
            threads: 1,
            est_nodes: 0.0,
            est_pages: 0.0,
            est_comparisons: 0.0,
            est_cost: 0.0,
            chosen_by: ChosenBy::Forced,
        };
        let out = PlanOutput::Range(QueryResult::default());
        let e = QueryEpoch::default();
        cache.put(1, e, plan.clone(), out.clone());
        cache.put(2, e, plan.clone(), out.clone());
        // Touch 1 so 2 is the LRU victim.
        assert!(cache.get(1, e).is_some());
        cache.put(3, e, plan.clone(), out.clone());
        assert!(cache.get(2, e).is_none(), "LRU victim evicted");
        assert!(cache.get(1, e).is_some());
        assert!(cache.get(3, e).is_some());
        assert_eq!(cache.counters().entries, 2);
        // Capacity 0 disables caching.
        let off = PlanCache::new(0);
        off.put(9, e, plan, out);
        assert!(off.get(9, e).is_none());
        assert_eq!(off.counters().entries, 0);
    }
}
