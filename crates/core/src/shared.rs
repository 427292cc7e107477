//! A thread-safe handle to a [`SeqIndex`] for concurrent serving.
//!
//! The read path of every query engine takes `&SeqIndex` and is already
//! interior-mutable where it must be (access counters are atomics, the
//! buffer pool and node stores lock internally), so any number of queries
//! may run concurrently under a shared read guard. Structural mutation —
//! [`SeqIndex::insert_series`] / [`SeqIndex::delete_series`] — takes
//! `&mut SeqIndex` and therefore the exclusive write guard.
//!
//! [`SharedIndex`] packages that discipline: a cheap cloneable
//! `Arc<RwLock<SeqIndex>>` whose lock recovers from poisoning (see
//! [`pagestore::sync`]), so a panicking query thread cannot wedge a
//! server.
//!
//! # Write-guard starvation discipline
//!
//! The write guard is exclusive for the *entire* mutation: while one
//! `insert_series` runs (feature extraction, heap append, R*-tree insert
//! with possible forced reinserts and splits), every reader of the same
//! handle blocks. That is inherent to the single-lock design, so two rules
//! keep the stall bounded:
//!
//! 1. **Never hold the write guard across anything but the mutation
//!    itself.** Callers must prepare inputs (parse, validate, materialise
//!    the [`tseries::TimeSeries`]) *before* taking the guard and must drop
//!    it before serialising the response. Holding it across I/O to a
//!    client would convert one slow connection into a server-wide stall.
//! 2. **Shard to bound the blast radius.** A mutation can only starve
//!    readers of *its own* lock. The `simshard` crate partitions a corpus
//!    across N independent `SharedIndex` handles precisely so that an
//!    insert write-locks one shard while the other N−1 keep serving reads
//!    concurrently — a property its `reads_proceed_during_insert`
//!    regression test asserts by querying shard B while shard A's write
//!    guard is deliberately held.

use crate::index::{DeviceWrap, SeqIndex};
use crate::journal::Journal;
use crate::plan::{self, LogicalQuery, PhysicalPlan, PlanOutput, QueryEpoch};
use crate::report::QueryError;
use crate::stats::StatsRegistry;
use pagestore::sync::RwLock;
use simwal::{FsyncPolicy, ReplayReport, WalError, WalOp, WalStats};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLockReadGuard, RwLockWriteGuard};
use tseries::TimeSeries;

// The whole point of SharedIndex is crossing threads; fail the build, not
// a runtime, if an index component ever stops being thread-safe.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SeqIndex>();
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

/// The one idempotent frame apply of a single index — recovery replay
/// and [`SharedIndex::apply_replicated`] both run it. An insert lands only
/// when its ordinal extends the current prefix: a frame the snapshot (or
/// an earlier frame) already absorbed is skipped, a frame *beyond* the
/// prefix is a typed [`DurableError::Gap`]. A delete of a missing or
/// already-tombstoned ordinal is a no-op. Returns whether state changed.
fn apply(index: &mut SeqIndex, op: &WalOp) -> Result<bool, DurableError> {
    let len = index.len();
    match *op {
        WalOp::Insert {
            lsn,
            global,
            ref values,
            ..
        } => {
            if global as usize > len {
                return Err(DurableError::Gap { lsn, global, len });
            }
            let extends = global as usize == len;
            if extends {
                index.insert_series(&TimeSeries::new(values.clone()))?;
            }
            Ok(extends)
        }
        WalOp::Delete { global, .. } => {
            Ok((global as usize) < len && index.delete_series(global as usize)?)
        }
    }
}

/// A cloneable, thread-safe handle to one [`SeqIndex`].
#[derive(Clone)]
pub struct SharedIndex {
    inner: Arc<RwLock<SeqIndex>>,
    durable: Option<Arc<Journal>>,
    stats: Arc<StatsRegistry>,
    /// Mutations acknowledged through the typed paths since this handle
    /// (group) was created — the fine-grained half of [`QueryEpoch`].
    /// Replicated frames bump it too, so a follower's [`QueryEpoch`]
    /// (and therefore every plan-cache key) moves with every applied
    /// frame, not just local mutations.
    mutations: Arc<AtomicU64>,
    /// Highest primary LSN applied through [`Self::apply_replicated`].
    /// Zero until the first frame lands (primary LSNs start at 1).
    applied_lsn: Arc<AtomicU64>,
    /// The primary's checkpoint epoch as of the last snapshot install /
    /// handshake — the coarse half of a *follower's* [`QueryEpoch`] when
    /// the handle has no WAL of its own.
    repl_epoch: Arc<AtomicU64>,
    /// Fencing token for handles without a WAL (`0` = unfenced); durable
    /// handles persist theirs in the WAL manifest instead. See
    /// [`Self::fence_at`].
    mem_fence: Arc<AtomicU64>,
}

impl std::fmt::Debug for SharedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedIndex").finish_non_exhaustive()
    }
}

impl SharedIndex {
    /// Wraps an index for shared use.
    pub fn new(index: SeqIndex) -> Self {
        Self {
            inner: Arc::new(RwLock::new(index)),
            durable: None,
            stats: Arc::new(StatsRegistry::new()),
            mutations: Arc::new(AtomicU64::new(0)),
            applied_lsn: Arc::new(AtomicU64::new(0)),
            repl_epoch: Arc::new(AtomicU64::new(0)),
            mem_fence: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Opens a persisted index directory (see [`SeqIndex::open`]) for
    /// shared use.
    pub fn open(dir: &std::path::Path, heap_pool_pages: usize) -> std::io::Result<Self> {
        Ok(Self::new(SeqIndex::open(dir, heap_pool_pages)?))
    }

    /// Opens a persisted index directory without taking its `LOCK` (see
    /// [`SeqIndex::open_read_only`]), so a verification oracle can read
    /// the same directory a live server is serving.
    pub fn open_read_only(dir: &std::path::Path, heap_pool_pages: usize) -> std::io::Result<Self> {
        Ok(Self::new(SeqIndex::open_read_only(dir, heap_pool_pages)?))
    }

    /// Opens a persisted index *with a write-ahead log*: loads the
    /// snapshot in `index_dir`, opens (or creates) the WAL in `wal_dir`
    /// reconciled against the snapshot's epoch, and replays the log tail
    /// on top of the snapshot. After this returns, every mutation made
    /// through [`Self::insert_series`]/[`Self::delete_series`] is logged
    /// before it is acknowledged, and the recovered state is always an
    /// exact prefix of the acknowledged mutation schedule.
    pub fn open_durable(
        index_dir: &Path,
        wal_dir: &Path,
        heap_pool_pages: usize,
        policy: FsyncPolicy,
    ) -> Result<(Self, ReplayReport), DurableError> {
        Self::open_durable_impl(index_dir, wal_dir, heap_pool_pages, policy, None)
    }

    /// [`Self::open_durable`] with caller-wrapped page devices (see
    /// [`SeqIndex::open_with`]), so WAL replay itself runs against an
    /// armed [`pagestore::FaultyDisk`]. Replay faults surface as typed
    /// [`DurableError::Query`] — never a panic, never a partial ack —
    /// and leave the log as it was for the next (unfaulted) open.
    pub fn open_durable_with(
        index_dir: &Path,
        wal_dir: &Path,
        heap_pool_pages: usize,
        policy: FsyncPolicy,
        wrap: DeviceWrap,
    ) -> Result<(Self, ReplayReport), DurableError> {
        Self::open_durable_impl(index_dir, wal_dir, heap_pool_pages, policy, Some(wrap))
    }

    fn open_durable_impl(
        index_dir: &Path,
        wal_dir: &Path,
        heap_pool_pages: usize,
        policy: FsyncPolicy,
        wrap: Option<DeviceWrap>,
    ) -> Result<(Self, ReplayReport), DurableError> {
        let mut index = match wrap {
            None => SeqIndex::open(index_dir, heap_pool_pages)?,
            Some(wrap) => SeqIndex::open_with(index_dir, heap_pool_pages, wrap)?,
        };
        let epoch = index.wal_epoch();
        let (journal, report) = Journal::open(index_dir, wal_dir, policy, epoch, |op| {
            apply(&mut index, op).map(|_changed| ())
        })?;
        // On a durable follower the local log stores the primary's
        // LSNs, so the replayed maximum is the applied position.
        let applied = journal.next_lsn() - 1;
        let mut shared = Self::new(index);
        shared.durable = Some(Arc::new(journal));
        shared.applied_lsn.store(applied, Ordering::Release);
        Ok((shared, report))
    }

    /// Whether this handle logs mutations to a WAL.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// WAL counter snapshot, when durable.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.durable.as_ref().map(|j| j.stats())
    }

    /// Current checkpoint epoch, when durable.
    pub fn wal_epoch(&self) -> Option<u64> {
        self.durable.as_ref().map(|j| j.epoch())
    }

    /// The epoch of this node on the replication timeline: its own WAL
    /// checkpoint epoch when durable, otherwise the primary epoch
    /// learned over replication. Fencing comparisons happen in this
    /// timeline.
    pub fn timeline_epoch(&self) -> u64 {
        self.wal_epoch().unwrap_or_else(|| self.replica_epoch())
    }

    /// The fencing token: the minimum epoch this node may accept writes
    /// at (`0` = unfenced). Persisted in the WAL manifest when durable.
    pub fn fence(&self) -> u64 {
        match &self.durable {
            Some(j) => j.fence(),
            None => self.mem_fence.load(Ordering::Acquire),
        }
    }

    /// Whether the fencing token forbids writes at the current epoch — a
    /// peer was promoted onto a newer timeline and this node has not yet
    /// re-synced onto it. Queries still serve; mutations, checkpoints,
    /// and promotion-independent epoch bumps are refused (see
    /// [`DurableError::Fenced`]).
    pub fn is_fenced(&self) -> bool {
        self.fence() > self.timeline_epoch()
    }

    /// Raises the fencing token to at least `epoch` — the demotion half
    /// of failover. Called when a higher-epoch peer reveals itself (a
    /// `REPL` poll from a follower that already applied frames of a
    /// newer timeline). Durable before it returns on a durable handle,
    /// so a fenced ex-primary that crashes restarts fenced. Never
    /// lowers an existing fence; [`Self::install_replica_snapshot`]
    /// clears it once the node has re-synced.
    pub fn fence_at(&self, epoch: u64) -> Result<(), DurableError> {
        match &self.durable {
            Some(j) => {
                if epoch > j.fence() {
                    j.set_fence(epoch)?;
                }
            }
            None => {
                self.mem_fence.fetch_max(epoch, Ordering::AcqRel);
            }
        }
        Ok(())
    }

    /// Promotes this node to primary on a new timeline: under the write
    /// guard, picks an epoch strictly past everything the node has seen
    /// (its own checkpoint sequence, the old primary's epoch, and any
    /// fence), checkpoints the current state under it, installs it in
    /// the WAL, and persists the fencing token at the same epoch — so
    /// the switch survives a crash and the node begins accepting writes
    /// from exactly its acked prefix ([`Self::apply_replicated`] keeps
    /// the LSN allocator strictly ahead of every shipped frame). Returns
    /// the new timeline epoch.
    pub fn promote(&self) -> Result<u64, DurableError> {
        let guard = self.inner.write();
        let floor = self.replica_epoch().max(self.fence());
        let new_epoch = match &self.durable {
            Some(j) => {
                let epoch = j.checkpoint(floor, |dir, epoch| guard.save_with_epoch(dir, epoch))?;
                j.set_fence(epoch)?;
                epoch
            }
            None => {
                self.mem_fence.store(floor + 1, Ordering::Release);
                floor + 1
            }
        };
        self.repl_epoch.store(new_epoch, Ordering::Release);
        // Bump under the guard: cached results keyed on the follower-era
        // epoch must not survive the timeline switch.
        self.mutations.fetch_add(1, Ordering::Release);
        drop(guard);
        Ok(new_epoch)
    }

    /// Inserts a sequence through the logged-mutation path: the mutation
    /// is applied under the write guard, then (still under the guard, so
    /// log order is apply order) appended to the WAL — the op only
    /// reaches the caller as acknowledged once it is in the log. Without
    /// a WAL this is plain `write().insert_series`.
    pub fn insert_series(&self, ts: &TimeSeries) -> Result<usize, DurableError> {
        let mut guard = self.inner.write();
        self.check_writable()?;
        let ordinal = guard.insert_series(ts)?;
        if let Some(j) = &self.durable {
            j.log(|lsn| WalOp::Insert {
                lsn,
                global: ordinal as u64,
                shard: 0,
                values: ts.values().to_vec(),
            })?;
        }
        // Bump while still under the write guard so no reader can observe
        // the new state under the old epoch.
        self.mutations.fetch_add(1, Ordering::Release);
        Ok(ordinal)
    }

    /// Tombstones a sequence through the logged-mutation path (see
    /// [`Self::insert_series`]); no-op deletes are not logged.
    pub fn delete_series(&self, ordinal: usize) -> Result<bool, DurableError> {
        let mut guard = self.inner.write();
        self.check_writable()?;
        let deleted = guard.delete_series(ordinal)?;
        if deleted {
            if let Some(j) = &self.durable {
                j.log(|lsn| WalOp::Delete {
                    lsn,
                    global: ordinal as u64,
                    shard: 0,
                })?;
            }
            self.mutations.fetch_add(1, Ordering::Release);
        }
        Ok(deleted)
    }

    /// Applies one WAL frame shipped from a replication primary, under
    /// the write guard and through the very `apply` recovery replays
    /// with. Returns whether the frame changed state. Re-applying any
    /// shipped prefix is therefore always safe — no gaps, no duplicates.
    ///
    /// On a durable handle every state-changing frame is also appended
    /// to the *local* WAL carrying the primary's LSN, so a restarted
    /// follower recovers its applied position (`max` replayed LSN) along
    /// with its state; an append failure poisons the handle exactly like
    /// a local mutation would. The mutation counter bumps under the
    /// guard on every state change, so no cached plan result can outlive
    /// an applied frame (see [`Self::query_epoch`]).
    pub fn apply_replicated(&self, op: &WalOp) -> Result<bool, DurableError> {
        let mut guard = self.inner.write();
        self.check_poisoned()?;
        let changed = apply(&mut guard, op)?;
        if changed {
            if let Some(j) = &self.durable {
                j.log_shipped(op)?;
            }
            self.mutations.fetch_add(1, Ordering::Release);
        }
        // Still under the guard: a reader that observes this applied
        // position is guaranteed to see the state that includes it.
        self.applied_lsn.fetch_max(op.lsn(), Ordering::Release);
        drop(guard);
        Ok(changed)
    }

    /// Replaces the whole index with a snapshot transferred from a
    /// replication primary (the epoch-mismatch fallback of the `REPL`
    /// handshake). `primary_epoch` is the primary's checkpoint epoch the
    /// snapshot corresponds to and `next_lsn` the first LSN the stream
    /// will resume from; the replica's applied position becomes
    /// `next_lsn - 1`. On a durable handle the snapshot is checkpointed
    /// into the local index directory under the *local* next epoch (the
    /// local epoch sequence is independent of the primary's), so a
    /// restart recovers it without re-transferring.
    pub fn install_replica_snapshot(
        &self,
        index: SeqIndex,
        primary_epoch: u64,
        next_lsn: u64,
    ) -> Result<(), DurableError> {
        let mut guard = self.inner.write();
        self.check_poisoned()?;
        // Refuse a snapshot from a timeline older than the one this node
        // already follows: a poll that was in flight when the node was
        // promoted must not roll the new timeline back (and clear its
        // fence) by installing the deposed primary's state.
        let current = self.repl_epoch.load(Ordering::Acquire);
        if primary_epoch < current {
            return Err(DurableError::Fenced {
                fence: current,
                epoch: primary_epoch,
            });
        }
        *guard = index;
        if let Some(j) = &self.durable {
            j.checkpoint(0, |dir, epoch| guard.save_with_epoch(dir, epoch))?;
            j.set_next_lsn(next_lsn);
            // The node now holds the new timeline's state byte-for-byte;
            // a demotion fence (if any) has served its purpose. Clearing
            // it last means a crash anywhere above restarts fenced —
            // never writable with half-installed state.
            j.set_fence(0)?;
        }
        self.mem_fence.store(0, Ordering::Release);
        self.repl_epoch.store(primary_epoch, Ordering::Release);
        self.applied_lsn
            .store(next_lsn.saturating_sub(1), Ordering::Release);
        // Bump under the guard: the whole state changed, so every cached
        // result keyed on the old epoch must become unreachable.
        self.mutations.fetch_add(1, Ordering::Release);
        drop(guard);
        Ok(())
    }

    /// Records the primary's checkpoint epoch learned at handshake time
    /// (the frame-streaming path, where no snapshot transfer happens).
    pub fn note_replica_epoch(&self, primary_epoch: u64) {
        self.repl_epoch.store(primary_epoch, Ordering::Release);
    }

    /// Restores a follower's replication position after a restart:
    /// adopts `primary_epoch` and raises the applied position to at
    /// least `applied` (never lowers it). A durable follower's local
    /// log replays only frames appended since its last snapshot
    /// install, so the install-time floor is re-asserted from the
    /// persisted replica state.
    pub fn note_replica_position(&self, primary_epoch: u64, applied: u64) {
        self.repl_epoch.store(primary_epoch, Ordering::Release);
        self.applied_lsn.fetch_max(applied, Ordering::AcqRel);
    }

    /// Highest primary LSN applied through [`Self::apply_replicated`]
    /// (0 before any frame lands). On a restarted durable follower this
    /// is recovered from the local log's replayed maximum.
    pub fn applied_lsn(&self) -> u64 {
        self.applied_lsn.load(Ordering::Acquire)
    }

    /// The primary checkpoint epoch this replica last synchronised with
    /// (0 until a snapshot install or `note_replica_*` call records one).
    pub fn replica_epoch(&self) -> u64 {
        self.repl_epoch.load(Ordering::Acquire)
    }

    /// The next LSN this index would allocate, when durable — the
    /// exclusive upper bound of the log's coverage, which the `REPL`
    /// handshake checks a follower's resume position against.
    pub fn wal_next_lsn(&self) -> Option<u64> {
        self.durable.as_ref().map(|j| j.next_lsn())
    }

    /// Bytes of this index's WAL covered by the last fsync — the prefix
    /// a crash is guaranteed to keep, and the bound the replication
    /// feeder serves under. Crash-point tests truncate the log file to
    /// this length to simulate losing the page-cache tail.
    pub fn wal_durable_bytes(&self) -> Option<u64> {
        self.durable.as_ref().map(|j| j.durable_len())
    }

    /// Reads up to `max` frames with `lsn >= from_lsn` from the durable
    /// prefix of this index's own WAL — the catch-up half of the
    /// replication feeder; frames are fsynced before they are served, so
    /// a shipped frame always survives a crash. `max == 0` means no cap.
    /// `hint` is a `(lsn, byte offset)` resume cursor (see
    /// [`simwal::Wal::frames_since_hinted`]): a valid cursor makes
    /// tailing O(frames served); a stale one, or `None`, scans.
    pub fn wal_frames_since_hinted(
        &self,
        from_lsn: u64,
        max: usize,
        hint: Option<(u64, u64)>,
    ) -> Result<(Vec<WalOp>, (u64, u64)), DurableError> {
        match &self.durable {
            Some(j) => j.frames_since_hinted(from_lsn, max, hint),
            None => Err(DurableError::Io(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "index has no write-ahead log to stream from",
            ))),
        }
    }

    /// Whether an earlier WAL append failure poisoned this handle (see
    /// [`DurableError::Poisoned`]). Queries still serve; mutations and
    /// checkpoints are rejected until the index is reopened.
    pub fn is_poisoned(&self) -> bool {
        self.durable.as_ref().is_some_and(|j| j.is_poisoned())
    }

    fn check_poisoned(&self) -> Result<(), DurableError> {
        self.durable.as_ref().map_or(Ok(()), |j| j.check())
    }

    /// The gate of every mutation and checkpoint: neither poisoned nor
    /// fenced.
    fn check_writable(&self) -> Result<(), DurableError> {
        self.check_poisoned()?;
        let fence = self.fence();
        let epoch = self.timeline_epoch();
        if fence > epoch {
            return Err(DurableError::Fenced { fence, epoch });
        }
        Ok(())
    }

    /// Forces every appended frame to stable storage (the `SYNC` op).
    /// `Ok(false)` when the handle has no WAL.
    pub fn sync_wal(&self) -> Result<bool, DurableError> {
        match &self.durable {
            Some(j) => j.sync().map(|()| true),
            None => Ok(false),
        }
    }

    /// Checkpoints a durable index: under the exclusive write guard,
    /// syncs the log, writes an atomic snapshot stamped with the next
    /// epoch, then installs that epoch in the WAL (manifest bump + log
    /// reset). Returns the new epoch, or `None` for a non-durable
    /// handle. A crash at any point leaves a recoverable state — see the
    /// crash matrix in DESIGN.md §5.
    pub fn checkpoint(&self) -> Result<Option<u64>, DurableError> {
        let Some(j) = &self.durable else {
            return Ok(None);
        };
        let guard = self.inner.write();
        // A fenced node must not checkpoint: each checkpoint bumps the
        // epoch, and enough of them would walk it up to the fence and
        // silently unfence a node that never re-synced.
        self.check_writable()?;
        let epoch = j.checkpoint(0, |dir, epoch| guard.save_with_epoch(dir, epoch))?;
        Ok(Some(epoch))
    }

    /// The runtime-statistics registry the planner reads and the plan
    /// executor writes. Shared across clones of this handle.
    pub fn stats(&self) -> &Arc<StatsRegistry> {
        &self.stats
    }

    /// The cache epoch of the current state: WAL checkpoint epoch plus
    /// the typed-path mutation counter. Results cached under an equal
    /// epoch are exact for the current state; any acknowledged mutation
    /// makes older epochs unequal. On a non-durable *follower* the
    /// coarse half is the primary's epoch learned over replication, and
    /// [`Self::apply_replicated`] bumps the counter — so a cached result
    /// can never outlive an applied frame, local or shipped.
    pub fn query_epoch(&self) -> QueryEpoch {
        QueryEpoch {
            epoch: self
                .wal_epoch()
                .unwrap_or_else(|| self.repl_epoch.load(Ordering::Acquire)),
            mutations: self.mutations.load(Ordering::Acquire),
        }
    }

    /// Plans and executes a logical query against this index — the one
    /// query entry point every consumer (server, CLI, shard executor)
    /// routes through. Takes the shared read guard for the duration.
    pub fn execute(
        &self,
        lq: &LogicalQuery,
        query: Option<&TimeSeries>,
    ) -> Result<(PhysicalPlan, PlanOutput), QueryError> {
        let guard = self.inner.read();
        plan::run(&guard, &self.stats, lq, query)
    }

    /// Acquires a shared read guard: queries, scans, counter reads.
    /// Any number of readers proceed concurrently.
    pub fn read(&self) -> RwLockReadGuard<'_, SeqIndex> {
        self.inner.read()
    }

    /// Acquires the exclusive write guard: inserts and deletes.
    ///
    /// Mutating *directly* through this guard bypasses the WAL; durable
    /// handles must mutate via [`Self::insert_series`] /
    /// [`Self::delete_series`] instead.
    pub fn write(&self) -> RwLockWriteGuard<'_, SeqIndex> {
        self.inner.write()
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
        shared.durable.as_ref().unwrap().arm_append_fault();
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
