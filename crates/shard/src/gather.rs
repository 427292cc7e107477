//! Scatter-gather query execution over a [`ShardedIndex`].
//!
//! Range queries (MT-index, ST-index, sequential scan) scatter to every
//! shard on scoped threads; each shard runs the ordinary single-index
//! engine under its own read guard, and the gather step translates local
//! ordinals to global ones and merges the result sets. Because each shard
//! indexes a disjoint subset of the corpus and every engine is exact over
//! its shard, the union is exactly the single-index answer.
//!
//! # Linearization against concurrent inserts
//!
//! A query linearizes at the moment it snapshots the global map
//! ([`ShardedIndex::map_snapshot`]). A concurrent `insert_series`
//! publishes to the shard index before the map, so a shard read acquired
//! after the insert can surface a local ordinal the snapshot has never
//! heard of. The gather translates through the snapshot defensively and
//! drops such matches: a sequence mapped after the query's linearization
//! point is not part of the queried corpus, so excluding it is the exact
//! answer, not an approximation.
//!
//! # Exact global kNN by bound propagation
//!
//! kNN cannot union per-shard answers naively — shard A's 5th-nearest may
//! be globally irrelevant while shard B holds all true top-k. Instead the
//! gather runs shards *sequentially*, threading the running global k-th
//! distance `τ` into each next shard as the initial pruning bound of
//! [`simquery::engine::knn::knn_bounded`] — the one engine the gather
//! calls directly, since range fragments go through
//! [`simquery::plan::execute_plan`]: a shard search abandons any subtree
//! (and skips any candidate refinement) whose lower bound exceeds `τ`.
//! The first shard runs unbounded (`τ = ∞`); each later shard can only
//! shrink `τ`. Bound comparisons keep ties (`≤ τ` survives), so
//! equal-distance candidates from later shards still surface and the
//! deterministic (distance, global-ordinal) tie-break decides the final
//! top-k. Any error from any shard aborts the query with a typed
//! [`QueryError`] — a partial merge is never returned.

use crate::index::ShardedIndex;
use simquery::engine::knn;
use simquery::plan::{self, LogicalQuery, LogicalVerb, PhysicalPlan, PlanOutput, Planner};
use simquery::report::{EngineMetrics, Match, QueryError, QueryResult};
use std::time::Instant;
use tseries::TimeSeries;

/// Minimum recorded fragment executions before measured selectivity may
/// reshape the scatter (mirrors the planner's own warm-up gate).
const SELECTIVE_MIN_QUERIES: u64 = 3;

/// Mean match selectivity below which a family counts as highly
/// selective: per-shard result sets are then so small that the scatter
/// threads cost more than the fragments they run.
const SELECTIVE_SCATTER_THRESHOLD: f64 = 0.02;

/// Lowers a logical range query to the fan-out physical plan: the
/// planner runs once (against shard 0 — every shard holds an i.i.d.
/// partition of the same corpus, so one shard's statistics price all of
/// them), then the plan is stamped with the scatter shape: fan-out =
/// shard count, threads capped at the hardware parallelism.
///
/// **Plan-aware scatter:** once the registry has seen enough queries to
/// trust the family's measured selectivity, a highly selective query
/// collapses to a single scatter lane (`fanout = threads = 1`). Every
/// shard still executes — the lanes only decide concurrency, so results
/// are bit-identical (the sharded-parity regression test pins this) —
/// but the per-query thread spawns are gone.
fn plan_fanout(
    sharded: &ShardedIndex,
    lq: &LogicalQuery,
    query: Option<&TimeSeries>,
) -> Result<PhysicalPlan, QueryError> {
    let shards = sharded.shards();
    let guard = shards[0].read();
    let mut plan = Planner::new().plan(&guard, sharded.stats(), lq, query)?;
    drop(guard);
    plan.fanout = shards.len();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    plan.threads = cores.min(shards.len());
    if shards.len() > 1 {
        if let Some(fs) = sharded.stats().family_stats(plan.engine, &lq.family) {
            if fs.queries >= SELECTIVE_MIN_QUERIES
                && fs
                    .mean_selectivity()
                    .is_some_and(|s| s < SELECTIVE_SCATTER_THRESHOLD)
            {
                plan.fanout = 1;
                plan.threads = 1;
            }
        }
    }
    Ok(plan)
}

fn run_fragment(
    index: &simquery::index::SeqIndex,
    sharded: &ShardedIndex,
    lq: &LogicalQuery,
    plan: &PhysicalPlan,
    query: &TimeSeries,
) -> Result<QueryResult, QueryError> {
    let _span = simobs::trace::span("shard.fragment");
    match plan::execute_plan(index, sharded.stats(), lq, plan, Some(query))? {
        PlanOutput::Range(r) => Ok(r),
        _ => unreachable!("range fragment produced a non-range output"),
    }
}

/// Sums per-shard metrics; wall clock is the caller's end-to-end time,
/// not the sum (shards run concurrently).
fn merge_metrics(parts: &[EngineMetrics], wall: std::time::Duration) -> EngineMetrics {
    let mut total = EngineMetrics {
        wall,
        ..EngineMetrics::default()
    };
    for m in parts {
        total.node_accesses += m.node_accesses;
        total.leaf_accesses += m.leaf_accesses;
        total.record_page_accesses += m.record_page_accesses;
        total.record_fetches += m.record_fetches;
        total.comparisons += m.comparisons;
        total.candidates += m.candidates;
    }
    total
}

/// The distributed executor for a planned range query: scatters the
/// plan's fragment to every shard and merges the exact union, returning
/// the plan alongside the result and each shard's own metrics.
pub fn execute_range(
    sharded: &ShardedIndex,
    lq: &LogicalQuery,
    query: &TimeSeries,
) -> Result<(PhysicalPlan, QueryResult, Vec<EngineMetrics>), QueryError> {
    debug_assert!(matches!(lq.verb, LogicalVerb::Range));
    let start = Instant::now();
    let plan = plan_fanout(sharded, lq, Some(query))?;
    let map = sharded.map_snapshot();
    let shards = sharded.shards();

    let mut outcomes: Vec<Option<Result<QueryResult, QueryError>>> = Vec::new();
    outcomes.resize_with(shards.len(), || None);
    // Scatter threads only pay off when cores exist to run them; the
    // planner capped the fan-out at the hardware thread count so a
    // 64-shard index on an 8-core box spawns 8 threads per query, each
    // draining a contiguous chunk of shards, rather than 64. On a single
    // hardware thread (or a single shard) the same loop runs inline with
    // no spawn at all.
    let threads = plan.threads.max(1);
    {
        let _scatter = simobs::trace::span("shard.scatter");
        if threads <= 1 {
            for (shard, slot) in outcomes.iter_mut().enumerate() {
                let index = shards[shard].read();
                *slot = Some(run_fragment(&index, sharded, lq, &plan, query));
            }
        } else {
            let chunk = shards.len().div_ceil(threads);
            let (planref, lqref) = (&plan, lq);
            std::thread::scope(|s| {
                for (t, slots) in outcomes.chunks_mut(chunk).enumerate() {
                    s.spawn(move || {
                        for (i, slot) in slots.iter_mut().enumerate() {
                            let index = shards[t * chunk + i].read();
                            *slot = Some(run_fragment(&index, sharded, lqref, planref, query));
                        }
                    });
                }
            });
        }
    }

    let _gather = simobs::trace::span("shard.gather");
    let mut matches: Vec<Match> = Vec::new();
    let mut per_shard = Vec::with_capacity(shards.len());
    for (shard, outcome) in outcomes.into_iter().enumerate() {
        // The first failing shard (by id, for determinism) aborts the query.
        let result = outcome.expect("scatter thread completed")?;
        per_shard.push(result.metrics);
        // Translate through the snapshot; locals mapped after the query's
        // linearization point are dropped (see the module docs).
        let globals = map.globals_of(shard);
        matches.extend(
            result
                .matches
                .iter()
                .filter_map(|m| globals.get(m.seq).map(|&g| Match { seq: g, ..*m })),
        );
    }
    matches.sort_by_key(|m| (m.seq, m.transform));

    let merged = QueryResult {
        matches,
        metrics: merge_metrics(&per_shard, start.elapsed()),
    };
    Ok((plan, merged, per_shard))
}

/// The distributed executor for a planned kNN query: the planner shapes
/// the fan-out, then the τ-threaded bounded merge of the module docs runs
/// the shards sequentially.
pub fn execute_knn(
    sharded: &ShardedIndex,
    lq: &LogicalQuery,
    query: &TimeSeries,
) -> Result<(PhysicalPlan, Vec<Match>, EngineMetrics, Vec<EngineMetrics>), QueryError> {
    let LogicalVerb::Knn { k } = lq.verb else {
        unreachable!("execute_knn takes a kNN logical query");
    };
    let _span = simobs::trace::span("shard.knn");
    let start = Instant::now();
    let mut plan = plan_fanout(sharded, lq, Some(query))?;
    // Bound propagation is inherently sequential; the plan records that.
    plan.threads = 1;
    if k == 0 {
        // Nothing to find: the empty answer a single index gives. The
        // merge below reads `top[k - 1]`, so it needs k ≥ 1.
        let per_shard = vec![EngineMetrics::default(); sharded.shards().len()];
        let total = merge_metrics(&per_shard, start.elapsed());
        return Ok((plan, Vec::new(), total, per_shard));
    }
    let map = sharded.map_snapshot();
    let shards = sharded.shards();

    let mut top: Vec<Match> = Vec::new();
    let mut per_shard = Vec::with_capacity(shards.len());
    let mut tau = f64::INFINITY;
    for (shard, handle) in shards.iter().enumerate() {
        let index = handle.read();
        sharded.stats().note_dispatch(plan.engine);
        let (found, metrics) = knn::knn_bounded(&index, query, &lq.family, k, tau)?;
        per_shard.push(metrics);
        // As in the range gather: snapshot translation drops sequences
        // inserted after this query linearized.
        let globals = map.globals_of(shard);
        top.extend(
            found
                .iter()
                .filter_map(|m| globals.get(m.seq).map(|&g| Match { seq: g, ..*m })),
        );
        top.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.seq.cmp(&b.seq)));
        top.truncate(k);
        if top.len() == k {
            tau = top[k - 1].dist;
        }
    }

    let total = merge_metrics(&per_shard, start.elapsed());
    Ok((plan, top, total, per_shard))
}

/// Executes a logical query over the group, returning the plan, the
/// output and each shard's own metrics. A group of one plans and executes
/// under its one read guard through [`plan::run`] — no map snapshot, no
/// ordinal translation, no shard breakdown — exactly as
/// [`simquery::shared::SharedIndex::execute`] does. A larger group
/// scatters range and kNN queries; `JOIN` never reaches it (its pairs
/// cross shards, so every caller refuses it first).
pub fn execute(
    sharded: &ShardedIndex,
    lq: &LogicalQuery,
    query: Option<&TimeSeries>,
) -> Result<(PhysicalPlan, PlanOutput, Vec<EngineMetrics>), QueryError> {
    if let [shard] = sharded.shards() {
        let (plan, out) = shard.execute(lq, query)?;
        return Ok((plan, out, Vec::new()));
    }
    match lq.verb {
        LogicalVerb::Range => {
            let query = query.expect("range queries carry a query sequence");
            let (plan, r, per_shard) = execute_range(sharded, lq, query)?;
            Ok((plan, PlanOutput::Range(r), per_shard))
        }
        LogicalVerb::Knn { .. } => {
            let query = query.expect("kNN queries carry a query sequence");
            let (plan, matches, merged, per_shard) = execute_knn(sharded, lq, query)?;
            Ok((plan, PlanOutput::Knn(matches, merged), per_shard))
        }
        LogicalVerb::Join => unreachable!("JOIN is refused on a group of more than one shard"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::ShardConfig;
    use simquery::index::IndexConfig;
    use simquery::plan::{EngineChoice, EnginePref};
    use simquery::query::RangeSpec;
    use simquery::transform::Family;
    use tseries::{Corpus, CorpusKind};

    fn forced(family: &Family, spec: RangeSpec, engine: EngineChoice) -> LogicalQuery {
        LogicalQuery::range(family.clone(), spec).with_engine(EnginePref::Force(engine))
    }

    fn fixtures(n: usize, shards: usize) -> (Corpus, ShardedIndex) {
        let c = Corpus::generate(CorpusKind::SyntheticWalks, n, 64, 23);
        let s = ShardedIndex::build(
            &c,
            ShardConfig::new(shards).unwrap(),
            IndexConfig::default(),
        )
        .unwrap();
        (c, s)
    }

    #[test]
    fn range_matches_report_global_ordinals() {
        let (c, s) = fixtures(90, 4);
        let family = Family::moving_averages(2..=6, 64);
        let spec = RangeSpec::correlation(0.9);
        let lq = forced(&family, spec, EngineChoice::Mt);
        let (_, result, per_shard) = execute_range(&s, &lq, &c.series()[7]).unwrap();
        assert_eq!(per_shard.len(), 4);
        // Ordinal 7 matches itself under the identity-like mv2 window.
        assert!(result.matched_sequences().contains(&7));
        for m in &result.matches {
            assert!(m.seq < 90, "global ordinal out of range: {}", m.seq);
        }
        let summed: u64 = per_shard.iter().map(|m| m.node_accesses).sum();
        assert_eq!(result.metrics.node_accesses, summed);
    }

    #[test]
    fn knn_finds_self_first() {
        let (c, s) = fixtures(60, 3);
        let family = Family::moving_averages(1..=4, 64);
        let lq = LogicalQuery::knn(family, 3);
        let (_, top, _, per_shard) = execute_knn(&s, &lq, &c.series()[31]).unwrap();
        assert_eq!(top[0].seq, 31);
        assert!(top[0].dist < 1e-9);
        assert_eq!(per_shard.len(), 3);
        for w in top.windows(2) {
            assert!(
                w[0].dist < w[1].dist || (w[0].dist == w[1].dist && w[0].seq < w[1].seq),
                "merge must be (dist, ordinal)-sorted"
            );
        }
    }

    #[test]
    fn concurrent_inserts_never_panic_the_gather() {
        // Regression: a query whose map snapshot predates an insert but
        // whose shard read postdates it used to panic translating the
        // not-yet-mapped local ordinal; now such matches are dropped.
        let (c, s) = fixtures(64, 4);
        let family = Family::moving_averages(2..=4, 64);
        let range = forced(&family, RangeSpec::correlation(0.8), EngineChoice::Scan);
        let knn = LogicalQuery::knn(family, 3);
        std::thread::scope(|scope| {
            let sref = &s;
            let extra = Corpus::generate(CorpusKind::SyntheticWalks, 64, 64, 99);
            scope.spawn(move || {
                for ts in extra.series() {
                    sref.insert_series(ts).unwrap();
                }
            });
            for _ in 0..20 {
                let (_, result, _) = execute_range(sref, &range, &c.series()[3]).unwrap();
                for m in &result.matches {
                    assert!(m.seq < sref.len(), "translated past the live corpus");
                }
                let (_, top, _, _) = execute_knn(sref, &knn, &c.series()[3]).unwrap();
                assert_eq!(top[0].seq, 3);
            }
        });
    }

    #[test]
    fn selective_queries_shrink_the_scatter_without_changing_results() {
        let (c, s) = fixtures(120, 4);
        // mv1 is the identity, so the query always matches itself exactly;
        // at correlation 0.95 on synthetic walks essentially nothing else
        // qualifies, so selectivity ≈ 5/600 — far below the scatter
        // threshold.
        let family = Family::moving_averages(1..=5, 64);
        let spec = RangeSpec::correlation(0.95);
        let lq = LogicalQuery::range(family.clone(), spec)
            .with_engine(EnginePref::Force(EngineChoice::Scan));
        let q = &c.series()[5];
        // Cold registry: the scatter is stamped at full width.
        let (plan_cold, cold, _) = execute_range(&s, &lq, q).unwrap();
        assert_eq!(plan_cold.fanout, 4, "no statistics yet, full fan-out");
        // Warm past the minimum (each scatter records one fragment per
        // shard, so one query already clears it — run a few regardless).
        for _ in 0..3 {
            execute_range(&s, &lq, q).unwrap();
        }
        let (plan_warm, warm, per_shard) = execute_range(&s, &lq, q).unwrap();
        assert!(
            plan_warm.fanout < 4,
            "measured selectivity must shrink the scatter width, got fanout={}",
            plan_warm.fanout
        );
        assert_eq!(plan_warm.threads, 1);
        assert_eq!(per_shard.len(), 4, "every shard still executes");
        // Parity: the shrunken scatter is a concurrency decision only.
        assert_eq!(
            cold.sorted_pairs(),
            warm.sorted_pairs(),
            "plan-aware scatter changed the result set"
        );
        assert!(!warm.matches.is_empty(), "self-match must survive");
    }

    #[test]
    fn later_shards_are_pruned_by_the_bound() {
        let (c, s) = fixtures(400, 4);
        let family = Family::moving_averages(3..=5, 64);
        let lq = LogicalQuery::knn(family, 2);
        let (_, _, _, per_shard) = execute_knn(&s, &lq, &c.series()[0]).unwrap();
        let first = per_shard[0].candidates;
        let later: u64 = per_shard[1..].iter().map(|m| m.candidates).sum();
        // The unbounded first shard refines more candidates than the three
        // bounded later shards combined on a 400-walk corpus.
        assert!(
            later < first * 3,
            "bound propagation should prune: first={first} later={later}"
        );
    }
}
