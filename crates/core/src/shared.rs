//! [`SharedIndex`]: the view of an index group
//! ([`crate::shard::ShardedIndex`]) that proves it holds exactly one shard
//! — one [`SeqIndex`] behind one lock, what Algorithm 1 runs on and what
//! replication ships.
//!
//! The read path of every query engine takes `&SeqIndex` and is already
//! interior-mutable where it must be (access counters are atomics, the
//! buffer pool and node stores lock internally), so any number of queries
//! may run concurrently under a shared read guard. Structural mutation —
//! [`SeqIndex::insert_series`] / [`SeqIndex::delete_series`] — takes
//! `&mut SeqIndex` and therefore the exclusive write guard. The lock
//! recovers from poisoning (see [`pagestore::sync`]), so a panicking query
//! thread cannot wedge a server.
//!
//! Everything durable — the journal, checkpoints, the epoch and mutation
//! counters, the fence, the replica position — belongs to the group, which
//! a `SharedIndex` derefs to. The view adds only the guards of its one
//! shard, the 2-tuple [`SharedIndex::execute`], and the replication
//! operations, which a snapshot transfer can only serve for one shard.
//!
//! # Write-guard starvation discipline
//!
//! The write guard is exclusive for the *entire* mutation: while one
//! `insert_series` runs (feature extraction, heap append, R*-tree insert
//! with possible forced reinserts and splits), every reader of the same
//! shard blocks. That is inherent to the single-lock design, so two rules
//! keep the stall bounded:
//!
//! 1. **Never hold the write guard across anything but the mutation
//!    itself.** Callers must prepare inputs (parse, validate, materialise
//!    the [`tseries::TimeSeries`]) *before* taking the guard and must drop
//!    it before serialising the response. Holding it across I/O to a
//!    client would convert one slow connection into a server-wide stall.
//! 2. **Shard to bound the blast radius.** A mutation can only starve
//!    readers of *its own* shard. A group of N shards puts each behind its
//!    own lock precisely so that an insert write-locks one shard while the
//!    other N−1 keep serving reads concurrently — a property `simshard`'s
//!    `reads_proceed_during_insert` regression test asserts by querying
//!    shard B while shard A's write guard is deliberately held.

use crate::index::SeqIndex;
use crate::plan::{LogicalQuery, PhysicalPlan, PlanOutput};
use crate::report::QueryError;
use crate::shard::ShardedIndex;
use simwal::{FsyncPolicy, ReplayReport, WalError, WalOp};
use std::ops::Deref;
use std::path::Path;
use std::sync::{Arc, RwLockReadGuard, RwLockWriteGuard};
use tseries::TimeSeries;

// The whole point of SharedIndex is crossing threads; fail the build, not
// a runtime, if it ever stops being thread-safe.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedIndex>();
};

/// Errors from the durable (logged) mutation and recovery paths: either
/// the underlying index operation failed, or the durability machinery
/// itself did. Both stay fully typed so servers can map them to protocol
/// error codes and tests can assert *which* failure fired.
#[derive(Debug)]
pub enum DurableError {
    /// The index mutation/replay failed (device fault, bad input).
    Query(QueryError),
    /// The write-ahead log failed (append, fsync, epoch install).
    Wal(WalError),
    /// A snapshot load/save failed.
    Io(std::io::Error),
    /// An earlier WAL append failed *after* its mutation had applied in
    /// memory, so the log no longer covers the live state; every further
    /// mutation (and checkpoint) is refused, because acknowledging one
    /// would make it unrecoverable. Reopen the index to resume from the
    /// acknowledged prefix.
    Poisoned,
    /// A replicated frame addressed state this replica does not hold —
    /// an insert for an ordinal beyond the current prefix. Applying it
    /// would tear a hole in the exact-prefix guarantee, so the frame is
    /// refused; the follower must re-handshake (the primary falls back
    /// to a snapshot transfer).
    Gap {
        /// LSN of the offending frame.
        lsn: u64,
        /// Global ordinal the frame addressed.
        global: u64,
        /// Sequences the replica actually holds.
        len: usize,
    },
    /// A peer was promoted past this node's timeline: the fencing token
    /// forbids writes until the node re-syncs onto the new timeline
    /// (which clears the fence). Accepting a write here would put it on
    /// a timeline the rest of the fleet has abandoned — split-brain.
    Fenced {
        /// The minimum epoch this node may accept writes at.
        fence: u64,
        /// The epoch the node is actually at.
        epoch: u64,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Query(e) => write!(f, "{e}"),
            Self::Wal(e) => write!(f, "{e}"),
            Self::Io(e) => write!(f, "snapshot i/o failed: {e}"),
            Self::Poisoned => write!(
                f,
                "index poisoned by an earlier wal append failure; \
                 mutations are rejected until the index is reopened"
            ),
            Self::Gap { lsn, global, len } => write!(
                f,
                "replication gap: frame lsn {lsn} addresses ordinal {global} \
                 but the replica holds only {len} sequences; re-handshake \
                 for a snapshot transfer"
            ),
            Self::Fenced { fence, epoch } => write!(
                f,
                "node is fenced at epoch {fence} (currently at epoch {epoch}): \
                 a peer was promoted onto a newer timeline; re-sync from the \
                 new primary before accepting writes"
            ),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Query(e) => Some(e),
            Self::Wal(e) => Some(e),
            Self::Io(e) => Some(e),
            Self::Poisoned | Self::Gap { .. } | Self::Fenced { .. } => None,
        }
    }
}

impl From<QueryError> for DurableError {
    fn from(e: QueryError) -> Self {
        Self::Query(e)
    }
}

impl From<WalError> for DurableError {
    fn from(e: WalError) -> Self {
        Self::Wal(e)
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// A cloneable, thread-safe handle to a group of exactly one shard.
#[derive(Clone, Debug)]
pub struct SharedIndex(pub(crate) Arc<ShardedIndex>);

impl Deref for SharedIndex {
    type Target = ShardedIndex;

    fn deref(&self) -> &ShardedIndex {
        &self.0
    }
}

impl TryFrom<Arc<ShardedIndex>> for SharedIndex {
    type Error = Arc<ShardedIndex>;

    /// Proves that `group` holds exactly one shard; a larger group is
    /// handed back unchanged.
    fn try_from(group: Arc<ShardedIndex>) -> Result<Self, Self::Error> {
        if group.shard_count() == 1 {
            Ok(Self(group))
        } else {
            Err(group)
        }
    }
}

impl SharedIndex {
    /// Wraps an index for shared use: a group of one that persists as a
    /// plain index directory.
    pub fn new(index: SeqIndex) -> Self {
        Self(Arc::new(ShardedIndex::of_one(index)))
    }

    /// The one-shard view of a freshly opened group; a directory of more
    /// shards is refused.
    fn one(group: ShardedIndex) -> std::io::Result<Self> {
        Self::try_from(Arc::new(group)).map_err(|group| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "the directory holds {} shards, not one index",
                    group.shard_count()
                ),
            )
        })
    }

    /// Opens a persisted index directory (see [`ShardedIndex::open`]) for
    /// shared use.
    pub fn open(dir: &Path, heap_pool_pages: usize) -> std::io::Result<Self> {
        Self::one(ShardedIndex::open(dir, heap_pool_pages)?)
    }

    /// Opens a persisted index *with a write-ahead log* (see
    /// [`ShardedIndex::open_durable`]): loads the snapshot in
    /// `index_dir`, opens (or creates) the WAL in `wal_dir` reconciled
    /// against the snapshot's epoch, and replays the log tail on top of
    /// the snapshot.
    pub fn open_durable(
        index_dir: &Path,
        wal_dir: &Path,
        heap_pool_pages: usize,
        policy: FsyncPolicy,
    ) -> Result<(Self, ReplayReport), DurableError> {
        let (group, report) =
            ShardedIndex::open_durable(index_dir, wal_dir, heap_pool_pages, policy)?;
        Ok((Self::one(group)?, report))
    }

    /// Acquires the shard's shared read guard: queries, scans, counter
    /// reads. Any number of readers proceed concurrently.
    pub fn read(&self) -> RwLockReadGuard<'_, SeqIndex> {
        self.0.shards()[0].read()
    }

    /// Acquires the shard's exclusive write guard.
    ///
    /// Mutating *directly* through this guard bypasses the group's map and
    /// WAL; mutate via [`ShardedIndex::insert_series`] /
    /// [`ShardedIndex::delete_series`] instead.
    pub fn write(&self) -> RwLockWriteGuard<'_, SeqIndex> {
        self.0.shards()[0].write()
    }

    /// Plans and executes a logical query under the shard's read guard —
    /// `plan::run` on the one index, with the group's statistics.
    pub fn execute(
        &self,
        lq: &LogicalQuery,
        query: Option<&TimeSeries>,
    ) -> Result<(PhysicalPlan, PlanOutput), QueryError> {
        self.0.shards()[0].execute(lq, query)
    }

    /// Applies one WAL frame shipped from a replication primary (see
    /// [`ShardedIndex`]'s replication docs): idempotent, gap-safe, logged
    /// locally under the primary's LSN when durable. Returns whether the
    /// frame changed state.
    pub fn apply_replicated(&self, op: &WalOp) -> Result<bool, DurableError> {
        self.0.apply_replicated(op)
    }

    /// Replaces the index with a snapshot transferred from a replication
    /// primary at `primary_epoch`, resuming the stream at `next_lsn`; a
    /// durable index checkpoints it locally and clears any fence.
    pub fn install_replica_snapshot(
        &self,
        index: SeqIndex,
        primary_epoch: u64,
        next_lsn: u64,
    ) -> Result<(), DurableError> {
        self.0
            .install_replica_snapshot(index, primary_epoch, next_lsn)
    }

    /// Promotes this node to primary on a new timeline strictly past every
    /// epoch it has seen; returns that epoch.
    pub fn promote(&self) -> Result<u64, DurableError> {
        self.0.promote()
    }

    /// Records the primary's checkpoint epoch learned at handshake time
    /// (the frame-streaming path, where no snapshot transfer happens).
    pub fn note_replica_epoch(&self, primary_epoch: u64) {
        self.0.note_replica_epoch(primary_epoch);
    }

    /// Restores a follower's replication position after a restart: adopts
    /// `primary_epoch` and raises the applied position to at least
    /// `applied`.
    pub fn note_replica_position(&self, primary_epoch: u64, applied: u64) {
        self.0.note_replica_position(primary_epoch, applied);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{mtindex, seqscan};
    use crate::index::IndexConfig;
    use crate::query::RangeSpec;
    use crate::transform::Family;
    use tseries::{Corpus, CorpusKind};

    fn shared(n: usize) -> (Corpus, SharedIndex) {
        let c = Corpus::generate(CorpusKind::SyntheticWalks, n, 64, 3);
        let idx = SeqIndex::build(&c, IndexConfig::default()).unwrap();
        (c, SharedIndex::new(idx))
    }

    #[test]
    fn concurrent_readers_agree_with_single_thread() {
        let (c, shared) = shared(120);
        let family = Family::moving_averages(4..=11, 64);
        let spec = RangeSpec::correlation(0.95);
        let want = {
            let idx = shared.read();
            mtindex::range_query(&idx, &c.series()[5], &family, &spec)
                .unwrap()
                .sorted_pairs()
        };
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (shared, c, family, spec, want) = (&shared, &c, &family, &spec, &want);
                s.spawn(move || {
                    for _ in 0..5 {
                        let idx = shared.read();
                        let got = mtindex::range_query(&idx, &c.series()[5], family, spec)
                            .unwrap()
                            .sorted_pairs();
                        assert_eq!(&got, want);
                    }
                });
            }
        });
    }

    #[test]
    fn wal_append_failure_poisons_the_handle() {
        let root = std::env::temp_dir()
            .join("simquery-shared-tests")
            .join(format!("poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let c = Corpus::generate(CorpusKind::SyntheticWalks, 10, 64, 7);
        SeqIndex::build(&c, IndexConfig::default())
            .unwrap()
            .save(&root.join("idx"))
            .unwrap();
        let extra = Corpus::generate(CorpusKind::SyntheticWalks, 3, 64, 8);
        let (shared, _) = SharedIndex::open_durable(
            &root.join("idx"),
            &root.join("wal"),
            16,
            FsyncPolicy::Always,
        )
        .unwrap();
        shared.insert_series(&extra.series()[0]).unwrap();
        shared.arm_wal_append_fault();
        let err = shared.insert_series(&extra.series()[1]).unwrap_err();
        assert!(matches!(err, DurableError::Wal(_)), "{err}");
        assert!(shared.is_poisoned());
        assert_eq!(
            shared.read().len(),
            12,
            "the failed insert stays applied in memory"
        );
        // Applied-but-unlogged: acknowledging anything after it would be
        // unrecoverable, so mutations and checkpoints are refused …
        assert!(matches!(
            shared.insert_series(&extra.series()[2]).unwrap_err(),
            DurableError::Poisoned
        ));
        assert!(matches!(
            shared.delete_series(0).unwrap_err(),
            DurableError::Poisoned
        ));
        assert!(matches!(
            shared.checkpoint().unwrap_err(),
            DurableError::Poisoned
        ));
        drop(shared);
        // … and a reopen recovers exactly the acknowledged prefix.
        let (shared, rep) = SharedIndex::open_durable(
            &root.join("idx"),
            &root.join("wal"),
            16,
            FsyncPolicy::Always,
        )
        .unwrap();
        assert_eq!(rep.frames, 1, "only the acknowledged insert replays");
        assert_eq!(shared.read().len(), 11);
        shared.insert_series(&extra.series()[2]).unwrap();
        drop(shared);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn writer_excludes_readers_but_not_correctness() {
        let (c, shared) = shared(60);
        let extra = Corpus::generate(CorpusKind::SyntheticWalks, 8, 64, 99);
        let family = Family::moving_averages(2..=6, 64);
        // Safe policy: scan ≡ mt is guaranteed on arbitrary workloads
        // (Paper's angle windows are heuristic and may falsely dismiss).
        let spec = RangeSpec::correlation(0.9).with_policy(crate::query::FilterPolicy::Safe);
        std::thread::scope(|s| {
            // One writer inserting, many readers querying throughout.
            let w = &shared;
            s.spawn(move || {
                for ts in extra.series() {
                    w.write().insert_series(ts).unwrap();
                }
            });
            for t in 0..4 {
                let (shared, c, family, spec) = (&shared, &c, &family, &spec);
                s.spawn(move || {
                    for i in 0..10 {
                        let idx = shared.read();
                        let q = &c.series()[(t * 10 + i) % 60];
                        let a = seqscan::range_query(&idx, q, family, spec).unwrap();
                        let b = mtindex::range_query(&idx, q, family, spec).unwrap();
                        assert_eq!(a.sorted_pairs(), b.sorted_pairs());
                    }
                });
            }
        });
        assert_eq!(shared.read().len(), 68);
    }

    #[test]
    fn apply_replicated_is_idempotent_and_gap_safe() {
        let (_, shared) = shared(4);
        let extra = Corpus::generate(CorpusKind::SyntheticWalks, 2, 64, 41);
        let ins = |lsn: u64, g: u64, ts: &TimeSeries| WalOp::Insert {
            lsn,
            global: g,
            shard: 0,
            values: ts.values().to_vec(),
        };
        let e0 = shared.query_epoch();
        assert!(shared
            .apply_replicated(&ins(1, 4, &extra.series()[0]))
            .unwrap());
        assert_eq!(shared.read().len(), 5);
        assert_eq!(shared.applied_lsn(), 1);
        assert_ne!(
            shared.query_epoch(),
            e0,
            "applied frame must move the epoch"
        );
        // Re-applying the same frame: no duplicate, position keeps.
        assert!(!shared
            .apply_replicated(&ins(1, 4, &extra.series()[0]))
            .unwrap());
        assert_eq!(shared.read().len(), 5);
        // A frame beyond the prefix is a typed gap, not an apply.
        let err = shared
            .apply_replicated(&ins(3, 6, &extra.series()[1]))
            .unwrap_err();
        assert!(
            matches!(
                err,
                DurableError::Gap {
                    lsn: 3,
                    global: 6,
                    len: 5
                }
            ),
            "{err}"
        );
        assert_eq!(shared.read().len(), 5);
        // Deletes: applied once, then a no-op — never an error.
        let del = WalOp::Delete {
            lsn: 2,
            global: 4,
            shard: 0,
        };
        assert!(shared.apply_replicated(&del).unwrap());
        assert!(!shared.apply_replicated(&del).unwrap());
        assert_eq!(shared.applied_lsn(), 2);
        // A no-change frame still advances the applied position.
        assert!(!shared
            .apply_replicated(&WalOp::Delete {
                lsn: 7,
                global: 4,
                shard: 0,
            })
            .unwrap());
        assert_eq!(shared.applied_lsn(), 7);
    }

    #[test]
    fn durable_follower_recovers_applied_position() {
        let root = std::env::temp_dir()
            .join("simquery-shared-tests")
            .join(format!("repl-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let c = Corpus::generate(CorpusKind::SyntheticWalks, 3, 64, 5);
        SeqIndex::build(&c, IndexConfig::default())
            .unwrap()
            .save(&root.join("idx"))
            .unwrap();
        let extra = Corpus::generate(CorpusKind::SyntheticWalks, 2, 64, 6);
        let (follower, _) = SharedIndex::open_durable(
            &root.join("idx"),
            &root.join("wal"),
            16,
            FsyncPolicy::Always,
        )
        .unwrap();
        // Ship two frames with the primary's (sparse) LSNs.
        for (i, ts) in extra.series().iter().enumerate() {
            follower
                .apply_replicated(&WalOp::Insert {
                    lsn: 10 + i as u64 * 10,
                    global: 3 + i as u64,
                    shard: 0,
                    values: ts.values().to_vec(),
                })
                .unwrap();
        }
        assert_eq!(follower.applied_lsn(), 20);
        assert!(follower.wal_next_lsn().unwrap() > 20);
        drop(follower);
        // Restart: state and applied position both come back.
        let (follower, rep) = SharedIndex::open_durable(
            &root.join("idx"),
            &root.join("wal"),
            16,
            FsyncPolicy::Always,
        )
        .unwrap();
        assert_eq!(rep.frames, 2);
        assert_eq!(follower.read().len(), 5);
        assert_eq!(follower.applied_lsn(), 20);
        drop(follower);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fence_blocks_writes_and_snapshot_install_clears_it() {
        let (_, shared) = shared(4);
        let extra = Corpus::generate(CorpusKind::SyntheticWalks, 2, 64, 42);
        assert!(!shared.is_fenced());
        // A promoted peer at epoch 5 fences this node.
        shared.fence_at(5).unwrap();
        assert!(shared.is_fenced());
        assert_eq!(shared.fence(), 5);
        let err = shared.insert_series(&extra.series()[0]).unwrap_err();
        assert!(
            matches!(err, DurableError::Fenced { fence: 5, epoch: 0 }),
            "{err}"
        );
        assert!(matches!(
            shared.delete_series(0).unwrap_err(),
            DurableError::Fenced { .. }
        ));
        // Fences only ratchet upward …
        shared.fence_at(3).unwrap();
        assert_eq!(shared.fence(), 5);
        // … and queries still serve while fenced.
        assert_eq!(shared.read().len(), 4);
        // Re-syncing onto the new timeline clears the fence.
        let c2 = Corpus::generate(CorpusKind::SyntheticWalks, 6, 64, 43);
        let snap = SeqIndex::build(&c2, IndexConfig::default()).unwrap();
        shared.install_replica_snapshot(snap, 5, 11).unwrap();
        assert!(!shared.is_fenced());
        assert_eq!(shared.fence(), 0);
        shared.write().insert_series(&extra.series()[1]).unwrap();
    }

    #[test]
    fn promotion_moves_past_the_old_timeline_and_survives_restart() {
        let root = std::env::temp_dir()
            .join("simquery-shared-tests")
            .join(format!("promote-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let c = Corpus::generate(CorpusKind::SyntheticWalks, 3, 64, 5);
        SeqIndex::build(&c, IndexConfig::default())
            .unwrap()
            .save(&root.join("idx"))
            .unwrap();
        let extra = Corpus::generate(CorpusKind::SyntheticWalks, 2, 64, 6);
        let (follower, _) = SharedIndex::open_durable(
            &root.join("idx"),
            &root.join("wal"),
            16,
            FsyncPolicy::Always,
        )
        .unwrap();
        // Catch up as a follower of a primary at epoch 7, then promote.
        follower
            .apply_replicated(&WalOp::Insert {
                lsn: 9,
                global: 3,
                shard: 0,
                values: extra.series()[0].values().to_vec(),
            })
            .unwrap();
        follower.note_replica_epoch(7);
        let new_epoch = follower.promote().unwrap();
        assert!(new_epoch > 7, "promotion must outrun the old timeline");
        assert_eq!(follower.wal_epoch(), Some(new_epoch));
        assert_eq!(follower.fence(), new_epoch);
        assert!(!follower.is_fenced(), "a promoted node is writable");
        // Writes resume from the acked prefix with fresh LSNs.
        let ord = follower.insert_series(&extra.series()[1]).unwrap();
        assert_eq!(ord, 4);
        assert!(follower.wal_next_lsn().unwrap() > 9);
        drop(follower);
        // The switch is durable: a restart comes back on the new
        // timeline with the full prefix.
        let (reopened, _) = SharedIndex::open_durable(
            &root.join("idx"),
            &root.join("wal"),
            16,
            FsyncPolicy::Always,
        )
        .unwrap();
        assert_eq!(reopened.wal_epoch(), Some(new_epoch));
        assert_eq!(reopened.read().len(), 5);
        assert!(!reopened.is_fenced());
        drop(reopened);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fenced_durable_node_stays_fenced_across_restart() {
        let root = std::env::temp_dir()
            .join("simquery-shared-tests")
            .join(format!("fence-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let c = Corpus::generate(CorpusKind::SyntheticWalks, 3, 64, 5);
        SeqIndex::build(&c, IndexConfig::default())
            .unwrap()
            .save(&root.join("idx"))
            .unwrap();
        let extra = Corpus::generate(CorpusKind::SyntheticWalks, 1, 64, 6);
        let (primary, _) = SharedIndex::open_durable(
            &root.join("idx"),
            &root.join("wal"),
            16,
            FsyncPolicy::Always,
        )
        .unwrap();
        let epoch = primary.wal_epoch().unwrap();
        primary.fence_at(epoch + 3).unwrap();
        assert!(primary.is_fenced());
        assert!(matches!(
            primary.insert_series(&extra.series()[0]).unwrap_err(),
            DurableError::Fenced { .. }
        ));
        // Checkpoints are refused too — they would walk the epoch up to
        // the fence and silently unfence a node that never re-synced.
        assert!(matches!(
            primary.checkpoint().unwrap_err(),
            DurableError::Fenced { .. }
        ));
        drop(primary);
        let (reopened, _) = SharedIndex::open_durable(
            &root.join("idx"),
            &root.join("wal"),
            16,
            FsyncPolicy::Always,
        )
        .unwrap();
        assert!(reopened.is_fenced(), "the fence survives a restart");
        drop(reopened);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn snapshot_install_replaces_state_and_epoch() {
        let (_, follower) = shared(3);
        let c2 = Corpus::generate(CorpusKind::SyntheticWalks, 6, 64, 9);
        let snap = SeqIndex::build(&c2, IndexConfig::default()).unwrap();
        let before = follower.query_epoch();
        follower.install_replica_snapshot(snap, 4, 31).unwrap();
        assert_eq!(follower.read().len(), 6);
        assert_eq!(follower.applied_lsn(), 30);
        let after = follower.query_epoch();
        assert_ne!(before, after);
        assert_eq!(
            after.epoch, 4,
            "non-durable follower adopts the primary epoch"
        );
    }
}
