//! [`Store`]: one handle over either directory layout.
//!
//! A persisted corpus is either one index (`meta.txt` + page images) or a
//! shard group (`sharding.txt` + `shard-N/`). Both answer every query
//! identically (the parity suites pin that), so everything above this
//! module — the server, the daemons, the CLI — holds a `Store` and calls
//! methods; the layout is decided once, in [`Store::open`] and friends.
//!
//! Durability is the same on both: one log per store, written and
//! replayed through [`simquery::journal::Journal`], with the same typed
//! errors and the same recovery report. Replication, `PROMOTE` and
//! fencing are still wired to a single index only — those verbs reach it
//! through [`Store::single`].

use crate::cfg::ShardConfig;
use crate::gather;
use crate::index::{sum_counters, ShardedIndex};
use pagestore::PageError;
use simquery::index::{AccessCounters, SeqIndex};
use simquery::plan::{LogicalQuery, PhysicalPlan, PlanOutput, QueryEpoch};
use simquery::query::FilterPolicy;
use simquery::report::{EngineMetrics, QueryError};
use simquery::shared::{DurableError, SharedIndex};
use simquery::stats::StatsRegistry;
use simwal::{FsyncPolicy, ReplayReport, WalStats};
use std::path::Path;
use std::sync::{Arc, RwLockReadGuard};
use tseries::TimeSeries;

/// The index behind a server or a CLI command: a single [`SharedIndex`]
/// (one lock), or a [`ShardedIndex`] (per-shard locks, scatter-gather
/// execution, per-shard counters).
#[derive(Clone)]
pub enum Store {
    /// One index behind one lock.
    Single(SharedIndex),
    /// N shards queried by scatter-gather.
    Sharded(Arc<ShardedIndex>),
}

impl From<SharedIndex> for Store {
    fn from(shared: SharedIndex) -> Self {
        Self::Single(shared)
    }
}

impl From<ShardedIndex> for Store {
    fn from(sharded: ShardedIndex) -> Self {
        Self::Sharded(Arc::new(sharded))
    }
}

impl From<Arc<ShardedIndex>> for Store {
    fn from(sharded: Arc<ShardedIndex>) -> Self {
        Self::Sharded(sharded)
    }
}

/// A read view of a [`Store`] pinned to one state: on a single index it
/// holds the read guard, so a bounds check and the fetch it protects
/// cannot straddle a replica snapshot install that shrinks the index.
pub enum Reader<'a> {
    /// The single index's read guard.
    Single(RwLockReadGuard<'a, SeqIndex>),
    /// The shard group (its ordinal map only ever grows).
    Sharded(&'a ShardedIndex),
}

impl Reader<'_> {
    /// Total sequences (tombstoned included).
    pub fn len(&self) -> usize {
        match self {
            Self::Single(g) => g.len(),
            Self::Sharded(s) => s.len(),
        }
    }

    /// True when no sequences are stored (never — builds reject that).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length of every sequence.
    pub fn seq_len(&self) -> usize {
        match self {
            Self::Single(g) => g.seq_len(),
            Self::Sharded(s) => s.seq_len(),
        }
    }

    /// Fetches a sequence's raw samples by ordinal (a counted access).
    /// Callers gate on [`Self::len`] first; an unmapped ordinal panics.
    pub fn fetch_series(&self, ordinal: usize) -> Result<TimeSeries, QueryError> {
        match self {
            Self::Single(g) => Ok(g.fetch_series(ordinal)?),
            Self::Sharded(s) => s.fetch_series(ordinal),
        }
    }
}

impl Store {
    /// Opens a persisted directory of either layout, taking its `LOCK`.
    pub fn open(dir: &Path, heap_pool_pages: usize) -> std::io::Result<Self> {
        Ok(if ShardedIndex::is_sharded_dir(dir) {
            ShardedIndex::open(dir, heap_pool_pages)?.into()
        } else {
            SharedIndex::open(dir, heap_pool_pages)?.into()
        })
    }

    /// [`Self::open`] without taking any `LOCK`, for read-only consumers
    /// that must coexist with a serving process.
    pub fn open_read_only(dir: &Path, heap_pool_pages: usize) -> std::io::Result<Self> {
        Ok(if ShardedIndex::is_sharded_dir(dir) {
            ShardedIndex::open_read_only(dir, heap_pool_pages)?.into()
        } else {
            SharedIndex::open_read_only(dir, heap_pool_pages)?.into()
        })
    }

    /// Opens a persisted directory with its write-ahead log in `wal_dir`
    /// and replays it (see [`SharedIndex::open_durable`] and
    /// [`ShardedIndex::open_durable`]).
    pub fn open_durable(
        dir: &Path,
        wal_dir: &Path,
        heap_pool_pages: usize,
        policy: FsyncPolicy,
    ) -> Result<(Self, ReplayReport), DurableError> {
        if ShardedIndex::is_sharded_dir(dir) {
            let (sharded, rep) = ShardedIndex::open_durable(dir, wal_dir, heap_pool_pages, policy)?;
            Ok((sharded.into(), rep))
        } else {
            let (shared, rep) = SharedIndex::open_durable(dir, wal_dir, heap_pool_pages, policy)?;
            Ok((shared.into(), rep))
        }
    }

    /// The single index, for the verbs that are single-index by contract:
    /// `JOIN` (its pairs would cross shards), `REPL`, `PROMOTE` and
    /// fencing (not yet wired to a shard group's log).
    pub fn single(&self) -> Option<&SharedIndex> {
        match self {
            Self::Single(shared) => Some(shared),
            Self::Sharded(_) => None,
        }
    }

    /// Shard count and partitioner of a shard group; `None` on a single
    /// index.
    pub fn sharding(&self) -> Option<ShardConfig> {
        match self {
            Self::Single(_) => None,
            Self::Sharded(s) => Some(ShardConfig {
                shards: s.shard_count(),
                partitioner: s.partitioner_kind(),
            }),
        }
    }

    /// A read view: sizes, and fetching an ordinal after bounds-checking
    /// it against them.
    pub fn read(&self) -> Reader<'_> {
        match self {
            Self::Single(s) => Reader::Single(s.read()),
            Self::Sharded(s) => Reader::Sharded(s),
        }
    }

    /// Appends a sequence, returning its ordinal — logged before it is
    /// acknowledged when the store is durable.
    pub fn insert_series(&self, ts: &TimeSeries) -> Result<usize, DurableError> {
        match self {
            Self::Single(s) => s.insert_series(ts),
            Self::Sharded(s) => s.insert_series(ts),
        }
    }

    /// Tombstones an ordinal; `Ok(false)` when out of range or already
    /// deleted.
    pub fn delete_series(&self, ordinal: usize) -> Result<bool, DurableError> {
        match self {
            Self::Single(s) => s.delete_series(ordinal),
            Self::Sharded(s) => s.delete_series(ordinal),
        }
    }

    /// Forces the log to stable storage; `Ok(false)` without a WAL.
    pub fn sync_wal(&self) -> Result<bool, DurableError> {
        match self {
            Self::Single(s) => s.sync_wal(),
            Self::Sharded(s) => s.sync_wal(),
        }
    }

    /// Folds the log into a fresh snapshot at the next epoch, which it
    /// returns; `Ok(None)` without a WAL.
    pub fn checkpoint(&self) -> Result<Option<u64>, DurableError> {
        match self {
            Self::Single(s) => s.checkpoint(),
            Self::Sharded(s) => s.checkpoint(),
        }
    }

    /// Total access counters, plus each shard's `(sequences, counters)` —
    /// empty on a single index. Both come from one snapshot, so the total
    /// always equals the sum of the shard lines.
    pub fn counters(&self) -> (AccessCounters, Vec<(usize, AccessCounters)>) {
        match self {
            Self::Single(s) => (s.read().counters(), Vec::new()),
            Self::Sharded(s) => {
                let loads = s.shard_loads();
                let per = s.per_shard_counters();
                let total = sum_counters(&per);
                let shards = per
                    .into_iter()
                    .enumerate()
                    .map(|(id, c)| (loads.get(id).copied().unwrap_or(0), c))
                    .collect();
                (total, shards)
            }
        }
    }

    /// Zeroes every access counter and record pool (cold per-query
    /// accounting).
    pub fn reset_counters(&self) -> Result<(), PageError> {
        match self {
            Self::Single(s) => s.read().reset_counters(),
            Self::Sharded(s) => s.reset_counters(),
        }
    }

    /// WAL counters and the checkpoint epoch, when durable.
    pub fn wal_stats(&self) -> Option<(WalStats, u64)> {
        match self {
            Self::Single(s) => s.wal_stats().map(|w| (w, s.wal_epoch().unwrap_or(0))),
            Self::Sharded(s) => s.wal_stats().map(|w| (w, s.epoch())),
        }
    }

    /// The planner-statistics registry.
    pub fn stats(&self) -> &Arc<StatsRegistry> {
        match self {
            Self::Single(s) => s.stats(),
            Self::Sharded(s) => s.stats(),
        }
    }

    /// The result-cache epoch of the current state.
    pub fn query_epoch(&self) -> QueryEpoch {
        match self {
            Self::Single(s) => s.query_epoch(),
            Self::Sharded(s) => s.query_epoch(),
        }
    }

    /// Whether answers under `policy` are independent of the layout.
    /// `paper` is a heuristic filter whose false dismissals depend on the
    /// tree shape, so on a shard group the answer would vary with the
    /// shard count.
    pub fn supports_policy(&self, policy: FilterPolicy) -> bool {
        self.single().is_some() || policy != FilterPolicy::Paper
    }

    /// Plans and executes a logical query, returning the plan, the output
    /// and each shard's own metrics (empty on a single index). `JOIN`
    /// needs [`Self::single`].
    pub fn execute(
        &self,
        lq: &LogicalQuery,
        query: Option<&TimeSeries>,
    ) -> Result<(PhysicalPlan, PlanOutput, Vec<EngineMetrics>), QueryError> {
        match self {
            Self::Single(s) => {
                let (plan, out) = s.execute(lq, query)?;
                Ok((plan, out, Vec::new()))
            }
            Self::Sharded(s) => gather::execute(s, lq, query),
        }
    }

    /// The store's `INFO` pairs, in wire order.
    pub fn describe(&self) -> Vec<(String, String)> {
        let pair = |k: &str, v: String| (k.to_string(), v);
        match self {
            Self::Single(shared) => {
                let index = shared.read();
                let mut info = vec![
                    pair("sequences", index.len().to_string()),
                    pair("seq_len", index.seq_len().to_string()),
                    pair("tree_height", index.height().to_string()),
                ];
                // How many nodes and leaves a traversal's `node_accesses`
                // and `leaf_accesses` are out of — from the planner's
                // memoised tree shape (a full walk only after a write).
                // Left out when the walk fails on a faulty device.
                if let Ok(shape) = shared.stats().tree_shape(&index) {
                    let nodes: u64 = shape.summaries.iter().map(|l| l.nodes).sum();
                    let leaves = shape.summaries.first().map_or(0, |l| l.nodes);
                    info.push(pair("tree_nodes", nodes.to_string()));
                    info.push(pair("tree_leaves", leaves.to_string()));
                }
                info.extend([
                    pair("leaf_capacity", index.leaf_capacity().to_string()),
                    pair("skipped", index.skipped().len().to_string()),
                    pair("deleted", index.deleted_count().to_string()),
                    pair("durable", shared.is_durable().to_string()),
                ]);
                if let Some(epoch) = shared.wal_epoch() {
                    info.push(pair("wal_epoch", epoch.to_string()));
                }
                info.push(pair("fenced", shared.is_fenced().to_string()));
                let fence = shared.fence();
                if fence > 0 {
                    info.push(pair("fence_epoch", fence.to_string()));
                }
                info
            }
            Self::Sharded(sharded) => {
                let loads: Vec<String> = sharded
                    .shard_loads()
                    .iter()
                    .map(|l| l.to_string())
                    .collect();
                let mut info = vec![
                    pair("sequences", sharded.len().to_string()),
                    pair("seq_len", sharded.seq_len().to_string()),
                    pair("shards", sharded.shard_count().to_string()),
                    pair("partitioner", sharded.partitioner_kind().to_string()),
                    pair("deleted", sharded.deleted_count().to_string()),
                    pair("shard_loads", loads.join(",")),
                    pair("durable", sharded.is_durable().to_string()),
                ];
                if sharded.is_durable() {
                    info.push(pair("wal_epoch", sharded.epoch().to_string()));
                }
                info
            }
        }
    }

    /// Tree height of each shard, in shard order (one entry on a single
    /// index).
    pub fn tree_heights(&self) -> Vec<u32> {
        match self {
            Self::Single(s) => vec![s.read().height()],
            Self::Sharded(s) => s.shards().iter().map(|h| h.read().height()).collect(),
        }
    }
}
