//! Builders shared by the shard suites. Each suite is its own crate and
//! uses a subset, hence the blanket `dead_code` allowance.
#![allow(dead_code)]

use simquery::index::{IndexConfig, SeqIndex};
use simquery::plan::{EngineChoice, EnginePref, LogicalQuery};
use simquery::query::{FilterPolicy, RangeSpec};
use simquery::report::{EngineMetrics, Match, QueryError, QueryResult};
use simquery::transform::Family;
use simshard::{gather, ShardConfig, ShardedIndex};
use tseries::{Corpus, TimeSeries};

pub fn flat(c: &Corpus) -> SeqIndex {
    SeqIndex::build(c, IndexConfig::default()).unwrap()
}

pub fn sharded(c: &Corpus, shards: usize) -> ShardedIndex {
    ShardedIndex::build(c, ShardConfig::new(shards).unwrap(), IndexConfig::default()).unwrap()
}

/// The lossless filter policies, under both threshold kinds.
pub fn specs() -> Vec<RangeSpec> {
    vec![
        RangeSpec::correlation(0.9).with_policy(FilterPolicy::Safe),
        RangeSpec::correlation(0.95).with_policy(FilterPolicy::Adaptive),
        RangeSpec::euclidean(3.0).with_policy(FilterPolicy::Safe),
        RangeSpec::euclidean(2.0).with_policy(FilterPolicy::Adaptive),
    ]
}

/// A scattered range query with the engine pinned on every shard.
pub fn range_query(
    s: &ShardedIndex,
    engine: EngineChoice,
    q: &TimeSeries,
    family: &Family,
    spec: &RangeSpec,
) -> Result<QueryResult, QueryError> {
    let lq = LogicalQuery::range(family.clone(), *spec).with_engine(EnginePref::Force(engine));
    gather::execute_range(s, &lq, q).map(|(_, r, _)| r)
}

/// Exact global kNN over the shard group.
pub fn knn(
    s: &ShardedIndex,
    q: &TimeSeries,
    family: &Family,
    k: usize,
) -> Result<(Vec<Match>, EngineMetrics), QueryError> {
    gather::execute_knn(s, &LogicalQuery::knn(family.clone(), k), q).map(|(_, m, t, _)| (m, t))
}
