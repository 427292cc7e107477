#![warn(missing_docs)]
//! # simquery — similarity-based queries for time series data
//!
//! A faithful implementation of
//! *D. Rafiei, "On Similarity-Based Queries for Time Series Data", ICDE 1999*:
//! range queries, spatial joins and nearest-neighbour queries over time
//! sequences where similarity is defined up to a **set of linear
//! transformations** of the Fourier representation — "find every stock `s`
//! and transformation `t ∈ T` with `D(t(s), t(q)) < ε`" (Query 1).
//!
//! Three query-processing algorithms are provided, exactly as the paper
//! evaluates them:
//!
//! * [`engine::seqscan`] — scan the relation, try every transformation
//!   (`|S|·|T|` comparisons);
//! * [`engine::stindex`] — *Single Transformation at a time*: one R*-tree
//!   traversal per transformation;
//! * [`engine::mtindex`] — *Multiple Transformations at a time* (the
//!   paper's contribution, Algorithm 1): bound the whole transformation set
//!   by a rectangle, apply that rectangle to every index rectangle during a
//!   **single** traversal (Eq. 12), then post-process candidates.
//!
//! Supporting machinery: the 6-dimensional DFT feature space of §5
//! ([`feature`]), linear transformations with exact full-spectrum
//! counterparts ([`transform`]), transformation-MBR algebra with the
//! no-false-dismissal guarantee of Lemma 1 ([`tmbr`]), correlation ↔
//! distance threshold bridging via Eq. 9 ([`query`]), multi-rectangle
//! partitioning with clustering (§4.3, [`partition`], [`cluster`]),
//! transformation orderings and binary search (§4.4, [`ordering`]), and the
//! cost model of Eq. 18–20 ([`cost`]).
//!
//! ```
//! use simquery::prelude::*;
//!
//! // 200 random-walk sequences of length 128, as in §5.
//! let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 200, 128, 42);
//! let index = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
//!
//! // "similar under some m-day moving average, m = 10..=25"
//! let family = Family::moving_averages(10..=25, 128);
//! let spec = RangeSpec::correlation(0.96).with_policy(FilterPolicy::Safe);
//!
//! let query = corpus.series()[0].clone();
//! let result = engine::mtindex::range_query(&index, &query, &family, &spec).unwrap();
//! assert!(result.matches.iter().any(|m| m.seq == 0), "finds itself");
//! ```

pub mod cluster;
pub mod cost;
pub mod engine;
pub mod expr;
pub mod feature;
pub mod index;
pub mod journal;
pub mod ordering;
pub mod partition;
pub mod plan;
pub mod query;
pub mod report;
pub mod shared;
pub mod stats;
pub mod subseq;
pub mod tmbr;
pub mod transform;

#[cfg(test)]
mod proptests;

/// Everything a typical user needs.
pub mod prelude {
    pub use crate::cost::CostModel;
    pub use crate::engine;
    pub use crate::expr::SimilarityExpr;
    pub use crate::feature::{FeatureVec, SeqFeatures, DIMS};
    pub use crate::index::{IndexConfig, SeqIndex};
    pub use crate::ordering::OrderedFamily;
    pub use crate::partition::PartitionStrategy;
    pub use crate::plan::{
        EngineChoice, EnginePref, LogicalQuery, LogicalVerb, PhysicalPlan, PlanCache, PlanOutput,
        Planner, QueryEpoch,
    };
    pub use crate::query::{FilterPolicy, QueryMode, RangeSpec, Threshold, ThresholdParseError};
    pub use crate::report::{EngineMetrics, Match, QueryResult};
    pub use crate::shared::SharedIndex;
    pub use crate::stats::StatsRegistry;
    pub use crate::subseq::SubseqIndex;
    pub use crate::tmbr::TransformMbr;
    pub use crate::transform::{Family, Transform};
    pub use tseries::{Corpus, CorpusKind, TimeSeries};
}
