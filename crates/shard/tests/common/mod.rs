//! Builders shared by the shard suites. Each suite is its own crate and
//! uses a subset, hence the blanket `dead_code` allowance.
#![allow(dead_code)]

use simquery::index::{IndexConfig, SeqIndex};
use simquery::query::{FilterPolicy, RangeSpec};
use simshard::{ShardConfig, ShardedIndex};
use tseries::Corpus;

pub fn single(c: &Corpus) -> SeqIndex {
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
