//! # simshard — scatter-gather over a shard group
//!
//! The index group itself — [`ShardedIndex`], N ≥ 1 [`SeqIndex`] shards
//! with one journal — lives in [`simquery::shard`]; this crate re-exports
//! it at its historical paths ([`cfg`](mod@cfg), [`partition`], [`index`])
//! and executes every query class over it:
//!
//! - **Execution** ([`gather`]): range/MT/ST/scan queries scatter to all
//!   shards on scoped threads and merge exactly; global kNN runs shards
//!   sequentially, propagating the running k-th distance bound so later
//!   shards prune — exact against the single-index answer, with a
//!   deterministic (distance, global-ordinal) tie-break. A group of one
//!   plans and executes inline under its one read guard.
//! - **Accounting**: per-shard [`simquery::index::AccessCounters`] and
//!   [`simquery::report::EngineMetrics`] aggregate across shards, so the
//!   paper's disk-access figures stay reproducible per fragment.
//!
//! [`SeqIndex`]: simquery::index::SeqIndex

pub mod cfg;
pub mod gather;
pub mod index;
pub mod partition;

pub use cfg::{PartitionerKind, ShardConfig, MAX_SHARDS};
pub use index::{ShardError, ShardedIndex};
pub use partition::{Partitioner, ShardMap};
