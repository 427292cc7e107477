//! # simshard — sharded index subsystem
//!
//! Partitions a corpus across N independent [`simquery::index::SeqIndex`]
//! shards, each behind its own [`simquery::shared::SharedIndex`] lock, and
//! executes every query class by scatter-gather:
//!
//! - **Partitioning** ([`cfg`], [`partition`]): a validated
//!   [`ShardConfig`] picks the shard count and a [`PartitionerKind`]
//!   (hash-by-ordinal default, round-robin, range); the [`ShardMap`]
//!   records the stable global-ordinal ↔ (shard, local-ordinal) mapping.
//! - **Storage** ([`index`]): [`ShardedIndex`] builds, persists, reopens,
//!   and mutates the shard set; an insert write-locks exactly one shard
//!   while the other N−1 keep serving reads.
//! - **Execution** ([`gather`]): range/MT/ST/scan queries scatter to all
//!   shards on scoped threads and merge exactly; global kNN runs shards
//!   sequentially, propagating the running k-th distance bound so later
//!   shards prune — exact against the single-index answer, with a
//!   deterministic (distance, global-ordinal) tie-break.
//! - **One handle** ([`store`]): [`Store`] wraps either a single index or
//!   a shard group and owns every layout-dependent operation, so the
//!   server and the CLI never branch on which one they hold.
//! - **Accounting**: per-shard [`simquery::index::AccessCounters`] and
//!   [`simquery::report::EngineMetrics`] aggregate across shards, so the
//!   paper's disk-access figures stay reproducible per fragment.

pub mod cfg;
pub mod gather;
pub mod index;
pub mod partition;
pub mod store;

pub use cfg::{PartitionerKind, ShardConfig, MAX_SHARDS};
pub use index::{ShardError, ShardedIndex};
pub use partition::{Partitioner, ShardMap};
pub use store::Store;
