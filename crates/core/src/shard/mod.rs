//! [`ShardedIndex`]: the one index type — N ≥ 1 [`SeqIndex`] shards, each
//! behind its own lock, with a stable global-ordinal ↔ (shard, local)
//! mapping, and everything durable about them.
//!
//! # One index type
//!
//! A plain index directory (`meta.txt`, see [`SeqIndex::save`]) opens as a
//! group of one and saves and checkpoints back as that same plain
//! snapshot; a `sharding.txt` directory (see [`ShardedIndex::save`]) opens
//! as the N shards it names. Whatever N is, the group owns:
//!
//! - the one [`Journal`], and the idempotent frame `apply` that recovery
//!   replays it through and a follower applies shipped frames through;
//! - checkpoint, sync, and the epoch and mutation counters behind
//!   [`QueryEpoch`];
//! - the fence and the replica position (the applied LSN and the
//!   primary's epoch).
//!
//! [`SharedIndex`] is the view of a group that proves it has exactly one
//! shard. The replication operations — a snapshot does not carry a shard
//! assignment — exist only there.
//!
//! # Locking
//!
//! Each shard has its own `RwLock`, so a mutation write-locks exactly one
//! shard while the other N−1 keep serving reads (the starvation discipline
//! documented in [`crate::shared`]). Global-ordinal assignment is
//! serialised by a dedicated insert gate — never by locking every shard —
//! and the global map takes its own brief write lock only *after* the
//! shard-local insert has succeeded, so concurrent readers translate
//! ordinals against a map that always describes fully-inserted sequences.
//! The converse — a shard read observing a local ordinal the reader's map
//! snapshot predates — is handled by the gather's defensive snapshot
//! translation. Locks are taken in one order: the gate, then shards (in
//! id order), then the map.
//!
//! On a *durable* index the gate serves a second role: it is the guard
//! the group's one [`Journal`] logs under. Every mutation — deletes
//! included — applies on its shard and is appended while holding it, so
//! the log's order is the order the mutations were acknowledged in, and
//! recovery is a replay of that one log through `apply`.

pub mod cfg;
pub mod partition;

use crate::index::{AccessCounters, DeviceWrap, IndexConfig, SeqIndex};
use crate::journal::Journal;
use crate::plan::{self, LogicalQuery, PhysicalPlan, PlanOutput, QueryEpoch};
use crate::report::QueryError;
use crate::shared::{DurableError, SharedIndex};
use crate::stats::StatsRegistry;
use cfg::{PartitionerKind, ShardConfig, MAX_SHARDS};
use pagestore::sync::{Mutex, RwLock};
use pagestore::{PageDevice, PageError};
use partition::{Partitioner, ShardMap};
use simwal::{DirLock, FsyncPolicy, ReplayReport, WalError, WalOp, WalStats};
use std::fmt;
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLockReadGuard, RwLockWriteGuard};
use tseries::{Corpus, TimeSeries};

// The group crosses threads; fail the build, not a runtime, if a
// component ever stops being thread-safe.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SeqIndex>();
    assert_send_sync::<ShardedIndex>();
};

/// Errors raised while building a sharded index. The durable paths
/// (open with a log, mutate, sync, checkpoint) return [`DurableError`].
#[derive(Debug)]
pub enum ShardError {
    /// The corpus is empty or has zero-length sequences.
    EmptyCorpus,
    /// The partitioner assigned no sequences to this shard — with fewer
    /// sequences than shards (or a pathological hash on a tiny corpus) the
    /// split is meaningless; lower the shard count.
    EmptyShard(usize),
    /// Invalid configuration (shard count out of bounds, bad partitioner).
    Config(String),
    /// A page device failed during construction.
    Page(PageError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyCorpus => write!(f, "cannot shard an empty corpus"),
            Self::EmptyShard(s) => {
                write!(f, "shard {s} received no sequences; lower the shard count")
            }
            Self::Config(msg) => write!(f, "bad shard configuration: {msg}"),
            Self::Page(e) => write!(f, "page access failed building shard: {e}"),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Page(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PageError> for ShardError {
    fn from(e: PageError) -> Self {
        Self::Page(e)
    }
}

impl From<QueryError> for ShardError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::Io(p) => Self::Page(p),
            other => Self::Config(other.to_string()),
        }
    }
}

/// One shard of a group: its index behind its own lock, and the planner
/// statistics of the queries planned on it (shard 0's are the group's).
pub struct Shard {
    index: RwLock<SeqIndex>,
    stats: StatsRegistry,
}

impl Shard {
    fn new(index: SeqIndex) -> Self {
        Self {
            index: RwLock::new(index),
            stats: StatsRegistry::new(),
        }
    }

    /// Acquires a shared read guard: queries, scans, counter reads. Any
    /// number of readers proceed concurrently.
    pub fn read(&self) -> RwLockReadGuard<'_, SeqIndex> {
        self.index.read()
    }

    /// Acquires the exclusive write guard. Mutating directly through it
    /// bypasses the group's map and journal; mutate through
    /// [`ShardedIndex::insert_series`] / [`ShardedIndex::delete_series`].
    pub fn write(&self) -> RwLockWriteGuard<'_, SeqIndex> {
        self.index.write()
    }

    /// Plans and executes a logical query against this shard alone, under
    /// its read guard. Ordinals in the output are the shard's own.
    pub fn execute(
        &self,
        lq: &LogicalQuery,
        query: Option<&TimeSeries>,
    ) -> Result<(PhysicalPlan, PlanOutput), QueryError> {
        plan::run(&self.read(), &self.stats, lq, query)
    }
}

/// A corpus partitioned across N ≥ 1 independent [`SeqIndex`] shards.
pub struct ShardedIndex {
    shards: Vec<Shard>,
    map: RwLock<ShardMap>,
    insert_gate: Mutex<()>,
    partitioner: Partitioner,
    kind: PartitionerKind,
    // A group of one that persists as a plain index directory
    // (`meta.txt`), not as `sharding.txt` + `shard-0/`.
    plain: bool,
    // Length of every sequence, kept beside the shards so that reading it
    // waits on no shard's write guard; a replica install may change it.
    seq_len: AtomicUsize,
    // Checkpoint epoch of the snapshot the group was built or opened from
    // (1 for fresh builds). A durable group's live epoch is its journal's.
    snapshot_epoch: u64,
    // The group's one log when opened durably; frames are appended under
    // the insert gate and the owning shard's write guard, after the
    // mutation has applied.
    journal: Option<Journal>,
    // Advisory lock on a shard directory's root, held while open (a plain
    // directory's lock is held by its index).
    _dir_lock: Option<DirLock>,
    // Mutations acknowledged since open — the fine-grained half of
    // [`QueryEpoch`]. Applied replicated frames bump it too, so a
    // follower's cache keys move with every frame.
    mutations: AtomicU64,
    // Highest primary LSN applied (0 before the first frame; primary LSNs
    // start at 1). A durable open recovers it from the replayed log.
    applied_lsn: AtomicU64,
    // The primary's checkpoint epoch as of the last snapshot install or
    // handshake — the coarse half of [`QueryEpoch`] without a WAL.
    repl_epoch: AtomicU64,
    // Fencing token without a WAL (`0` = unfenced); a durable group
    // persists its token in the WAL manifest instead.
    mem_fence: AtomicU64,
}

impl fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("shards", &self.shards.len())
            .field("partitioner", &self.kind)
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

/// What a directory holds, opened but not yet assembled into a group.
struct Snapshot {
    plain: bool,
    kind: PartitionerKind,
    seq_len: usize,
    epoch: u64,
    map: ShardMap,
    indexes: Vec<SeqIndex>,
    lock: Option<DirLock>,
}

impl ShardedIndex {
    /// Partitions `corpus` and builds one index per shard on plain
    /// in-memory disks. Every shard must receive at least one sequence.
    pub fn build(
        corpus: &Corpus,
        cfg: ShardConfig,
        index_cfg: IndexConfig,
    ) -> Result<Self, ShardError> {
        Self::build_with(corpus, cfg, |_, sub| Ok(SeqIndex::build(sub, index_cfg)))
    }

    /// [`Self::build`] with caller-supplied page devices per shard — e.g.
    /// a [`pagestore::FaultyDisk`] on one shard for fault-injection tests.
    /// The factory receives the shard id and returns its
    /// `(tree, heap)` devices.
    pub fn build_on(
        corpus: &Corpus,
        cfg: ShardConfig,
        index_cfg: IndexConfig,
        mut devices: impl FnMut(usize) -> (Arc<dyn PageDevice>, Arc<dyn PageDevice>),
    ) -> Result<Self, ShardError> {
        Self::build_with(corpus, cfg, |shard, sub| {
            let (tree, heap) = devices(shard);
            SeqIndex::build_on(sub, index_cfg, tree, heap)
        })
    }

    fn build_with(
        corpus: &Corpus,
        cfg: ShardConfig,
        mut build: impl FnMut(usize, &Corpus) -> Result<Option<SeqIndex>, PageError>,
    ) -> Result<Self, ShardError> {
        let cfg = cfg.validated().map_err(ShardError::Config)?;
        if corpus.is_empty() || corpus.series_len() == 0 {
            return Err(ShardError::EmptyCorpus);
        }
        let partitioner = Partitioner::new(cfg.partitioner, cfg.shards);
        let assignment = partitioner.assign_bulk(corpus.len());
        let map = ShardMap::from_assignment(cfg.shards, &assignment);

        let mut indexes = Vec::with_capacity(cfg.shards);
        for shard in 0..cfg.shards {
            let globals = map.globals_of(shard);
            if globals.is_empty() {
                return Err(ShardError::EmptyShard(shard));
            }
            let names = globals.iter().map(|&g| corpus.names()[g].clone()).collect();
            let series = globals
                .iter()
                .map(|&g| corpus.series()[g].clone())
                .collect();
            let sub = Corpus::from_parts(names, series);
            indexes.push(build(shard, &sub)?.ok_or(ShardError::EmptyShard(shard))?);
        }
        Ok(Self::assemble(
            Snapshot {
                plain: false,
                kind: cfg.partitioner,
                seq_len: corpus.series_len(),
                epoch: 1,
                map,
                indexes,
                lock: None,
            },
            None,
        ))
    }

    /// A group of one over `index` that persists as a plain index
    /// directory — what [`SharedIndex::new`] wraps.
    pub(crate) fn of_one(index: SeqIndex) -> Self {
        Self::assemble(Snapshot::plain(index), None)
    }

    fn assemble(s: Snapshot, journal: Option<Journal>) -> Self {
        // On a durable follower the local log stores the primary's LSNs,
        // so the replayed maximum is the applied position.
        let applied = journal.as_ref().map_or(0, |j| j.next_lsn() - 1);
        Self {
            partitioner: Partitioner::new(s.kind, s.indexes.len()),
            shards: s.indexes.into_iter().map(Shard::new).collect(),
            map: RwLock::new(s.map),
            insert_gate: Mutex::new(()),
            kind: s.kind,
            plain: s.plain,
            seq_len: AtomicUsize::new(s.seq_len),
            snapshot_epoch: s.epoch,
            journal,
            _dir_lock: s.lock,
            mutations: AtomicU64::new(0),
            applied_lsn: AtomicU64::new(applied),
            repl_epoch: AtomicU64::new(0),
            mem_fence: AtomicU64::new(0),
        }
    }

    /// Repartitions an existing single index: fetches every record from
    /// its heap (tombstoned ordinals included — the heap is append-only),
    /// rebuilds N shards, and replays the tombstones. Global ordinals are
    /// preserved, so results match the source index exactly.
    pub fn from_index(
        index: &SeqIndex,
        cfg: ShardConfig,
        index_cfg: IndexConfig,
    ) -> Result<Self, ShardError> {
        let mut names = Vec::with_capacity(index.len());
        let mut series = Vec::with_capacity(index.len());
        for g in 0..index.len() {
            names.push(format!("s{g}"));
            series.push(index.fetch_series(g)?);
        }
        let sharded = Self::build(&Corpus::from_parts(names, series), cfg, index_cfg)?;
        for g in index.deleted_ordinals() {
            let (shard, local) = sharded.locate(g).expect("every source ordinal was mapped");
            sharded.shards[shard].write().delete_series(local)?;
        }
        Ok(sharded)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, for scatter execution and per-shard accounting.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The shard count and partitioner a `sharding.txt` directory records;
    /// `None` for a group of one that persists as a plain index directory.
    pub fn sharding(&self) -> Option<ShardConfig> {
        (!self.plain).then_some(ShardConfig {
            shards: self.shards.len(),
            partitioner: self.kind,
        })
    }

    /// The partitioner in effect.
    pub fn partitioner_kind(&self) -> PartitionerKind {
        self.kind
    }

    /// Length of every sequence.
    pub fn seq_len(&self) -> usize {
        self.seq_len.load(Ordering::Acquire)
    }

    /// Total sequences across all shards (tombstoned included).
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True when no sequences are mapped (never — builds reject that).
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// Tombstoned sequences across all shards.
    pub fn deleted_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().deleted_count()).sum()
    }

    /// Sequences per shard.
    pub fn shard_loads(&self) -> Vec<usize> {
        self.map.read().loads()
    }

    /// Snapshot of the global map (brief read lock; the copy stays valid
    /// because mapped ordinals never move).
    pub fn map_snapshot(&self) -> ShardMap {
        self.map.read().clone()
    }

    /// `(shard, local)` of a global ordinal.
    pub fn locate(&self, global: usize) -> Option<(usize, usize)> {
        self.map.read().locate(global)
    }

    /// The planner-statistics registry of the group: shard 0's, whose tree
    /// is the planning sample.
    pub fn stats(&self) -> &StatsRegistry {
        &self.shards[0].stats
    }

    /// Appends a sequence, returning its global ordinal. On a durable
    /// index the mutation is applied, then logged *before* this returns
    /// (still under the gate and the shard's write guard, so log order is
    /// apply order).
    ///
    /// Only the receiving shard is write-locked; reads on the other N−1
    /// shards proceed throughout (see the module docs on locking).
    pub fn insert_series(&self, ts: &TimeSeries) -> Result<usize, DurableError> {
        let _gate = self.insert_gate.lock();
        self.check_writable()?;
        let (global, shard) = {
            let map = self.map.read();
            let g = map.len();
            let mut loads = map.loads();
            // Least-loaded placement (the Range policy) counts *live*
            // sequences: a shard full of tombstones has capacity, not load.
            if self.kind == PartitionerKind::Range {
                for (s, load) in loads.iter_mut().enumerate() {
                    *load = load.saturating_sub(self.shards[s].read().deleted_count());
                }
            }
            (g, self.partitioner.assign_insert(g, &loads))
        };
        let mut guard = self.shards[shard].write();
        guard.insert_series(ts)?;
        let logged = self.journal.as_ref().map_or(Ok(()), |j| {
            j.log(|lsn| WalOp::Insert {
                lsn,
                global: global as u64,
                shard: shard as u64,
                values: ts.values().to_vec(),
            })
        });
        drop(guard);
        // The insert is applied in its shard, so it is mapped even when
        // the append failed and poisoned the journal: the shard and the
        // global map never diverge (reads and `save` stay coherent).
        let mapped = self.map.write().push(shard).0;
        debug_assert_eq!(mapped, global, "gate must serialise ordinals");
        logged?;
        // Bumped once the sequence is both applied and mapped, so no
        // reader can cache a result that misses it under the new epoch.
        self.mutations.fetch_add(1, Ordering::Release);
        Ok(global)
    }

    /// Tombstones a global ordinal. `Ok(false)` when out of range or
    /// already deleted. Write-locks only the owning shard; on a durable
    /// index an effective delete is logged before this returns, under the
    /// insert gate like every logged mutation.
    pub fn delete_series(&self, global: usize) -> Result<bool, DurableError> {
        let _gate = self.journal.is_some().then(|| self.insert_gate.lock());
        self.check_writable()?;
        let Some((shard, local)) = self.locate(global) else {
            return Ok(false);
        };
        let mut guard = self.shards[shard].write();
        let deleted = guard.delete_series(local)?;
        if deleted {
            if let Some(j) = &self.journal {
                j.log(|lsn| WalOp::Delete {
                    lsn,
                    global: global as u64,
                    shard: shard as u64,
                })?;
            }
            self.mutations.fetch_add(1, Ordering::Release);
        }
        Ok(deleted)
    }

    /// Fetches a sequence's raw samples by global ordinal (a counted
    /// access on its shard), or `None` when the group does not hold it.
    /// The bounds check and the fetch run under the owning shard's one
    /// read guard, so they cannot straddle a replica snapshot install that
    /// shrinks the group.
    pub fn fetch_series(&self, global: usize) -> Result<Option<TimeSeries>, QueryError> {
        let Some((shard, local)) = self.locate(global) else {
            return Ok(None);
        };
        let guard = self.shards[shard].read();
        if local >= guard.len() {
            return Ok(None);
        }
        Ok(Some(guard.fetch_series(local)?))
    }

    /// Access counters of each shard, in shard order — the per-fragment
    /// accounting the paper's cost model sums over.
    pub fn per_shard_counters(&self) -> Vec<AccessCounters> {
        self.shards.iter().map(|s| s.read().counters()).collect()
    }

    /// Aggregate access counters across all shards.
    pub fn counters(&self) -> AccessCounters {
        self.per_shard_counters().into_iter().sum()
    }

    /// Zeroes every shard's counters and record pool (cold per-query
    /// accounting, as [`SeqIndex::reset_counters`]).
    pub fn reset_counters(&self) -> Result<(), PageError> {
        for s in &self.shards {
            s.read().reset_counters()?;
        }
        Ok(())
    }

    /// Persists the group under `dir` in its own layout. A group of one
    /// from a plain directory writes that plain snapshot (see
    /// [`SeqIndex::save`]). A shard group writes `shard-N/` subdirectories
    /// plus a `sharding.txt` manifest recording the partitioner, the
    /// global assignment order, and the checkpoint epoch. The manifest —
    /// the only pointer to the shard snapshots — is replaced atomically
    /// (temp file + `rename`), and each shard's save is itself
    /// crash-atomic, so an interrupted save never destroys the previous
    /// good state.
    ///
    /// Mutations are quiesced for the duration (insert gate + every
    /// shard's read guard, taken up front): a concurrent insert landing
    /// between one shard's save and the manifest write would otherwise
    /// persist a snapshot whose assignment disagrees with the shard
    /// contents — a state [`Self::open`] rejects.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        let _gate = self.insert_gate.lock();
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let epoch = self.wal_epoch().unwrap_or(self.snapshot_epoch);
        self.save_quiesced(dir, &guards, epoch)
    }

    /// Shard snapshots first, then the manifest — the commit point. The
    /// caller holds the insert gate and a guard on every shard.
    fn save_quiesced(
        &self,
        dir: &Path,
        guards: &[impl Deref<Target = SeqIndex>],
        epoch: u64,
    ) -> std::io::Result<()> {
        if self.plain {
            return guards[0].save_with_epoch(dir, epoch);
        }
        std::fs::create_dir_all(dir)?;
        for (i, g) in guards.iter().enumerate() {
            g.save_with_epoch(&dir.join(format!("shard-{i}")), epoch)?;
        }
        let map = self.map.read();
        let mut meta = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(meta, "simshard v1");
        let _ = writeln!(meta, "shards {}", self.shards.len());
        let _ = writeln!(meta, "partitioner {}", self.kind);
        let _ = writeln!(meta, "seq_len {}", guards[0].seq_len());
        let _ = writeln!(meta, "epoch {epoch}");
        let _ = writeln!(
            meta,
            "assignment {}",
            map.assignment()
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        simwal::atomic_write(&dir.join("sharding.txt"), meta.as_bytes())
    }

    /// Reopens a directory of either layout: `sharding.txt` opens the
    /// shard group it names, anything else opens as a plain index — a
    /// group of one. `heap_pool_pages` sizes each shard's record buffer
    /// pool. Takes the directory's advisory `LOCK` (kind `WouldBlock`
    /// when another process holds it).
    pub fn open(dir: &Path, heap_pool_pages: usize) -> std::io::Result<Self> {
        Self::open_with(dir, heap_pool_pages, |_| None)
    }

    /// [`Self::open`] without taking any `LOCK` (see
    /// [`SeqIndex::open_read_only`]), for read-only consumers that must
    /// coexist with a serving process.
    pub fn open_read_only(dir: &Path, heap_pool_pages: usize) -> std::io::Result<Self> {
        let s = Snapshot::load(dir, heap_pool_pages, |_| None, false)?;
        s.opened(None)
    }

    /// [`Self::open`] with caller-wrapped page devices per shard (see
    /// [`SeqIndex::open_with`]): the hook receives each shard id (0 for a
    /// plain directory) and may return a device wrapper — e.g. arming a
    /// [`pagestore::FaultyDisk`] on one shard's heap — or `None` for a
    /// plain open of that shard.
    pub fn open_with(
        dir: &Path,
        heap_pool_pages: usize,
        wrap: impl FnMut(usize) -> Option<DeviceWrap>,
    ) -> std::io::Result<Self> {
        Snapshot::load(dir, heap_pool_pages, wrap, true)?.opened(None)
    }

    /// Opens a persisted directory of either layout *with its write-ahead
    /// log*: one log for the whole group, directly in `wal_root`,
    /// reconciled against the snapshot's epoch and replayed in order on
    /// top of it through `apply`. After this returns, every mutation made
    /// through [`Self::insert_series`] / [`Self::delete_series`] is logged
    /// before it is acknowledged, and the recovered state is always an
    /// exact prefix of the acknowledged mutation schedule — also from a
    /// half-finished checkpoint (shard snapshots ahead of the manifest).
    ///
    /// Earlier builds kept one log per shard under `wal_root/shard-N/`.
    /// Such a directory is refused, untouched, with a typed error: its
    /// frames cannot be replayed here, and starting a fresh log beside
    /// them would silently lose them.
    pub fn open_durable(
        dir: &Path,
        wal_root: &Path,
        heap_pool_pages: usize,
        policy: FsyncPolicy,
    ) -> Result<(Self, ReplayReport), DurableError> {
        Self::open_durable_with(dir, wal_root, heap_pool_pages, policy, |_| None)
    }

    /// [`Self::open_durable`] with caller-wrapped page devices per shard,
    /// so WAL replay itself runs against armed [`pagestore::FaultyDisk`]s.
    /// Replay faults surface as typed errors — never a panic — and leave
    /// the log as it was for the next unfaulted open.
    pub fn open_durable_with(
        dir: &Path,
        wal_root: &Path,
        heap_pool_pages: usize,
        policy: FsyncPolicy,
        wrap: impl FnMut(usize) -> Option<DeviceWrap>,
    ) -> Result<(Self, ReplayReport), DurableError> {
        let old = wal_root.join("shard-0");
        if old.is_dir() {
            return Err(WalError::Corrupt(format!(
                "{} is a per-shard log of an earlier build, which this build cannot replay: \
                 recover and checkpoint with that build (`simseq recover`), or remove the \
                 shard-N/ log directories if they are known to be empty",
                old.display()
            ))
            .into());
        }
        let mut s = Snapshot::load(dir, heap_pool_pages, wrap, true)?;
        let (journal, report) = Journal::open(dir, wal_root, policy, s.epoch, |op| {
            apply(&mut s.indexes, &mut s.map, op).map(|_changed| ())
        })?;
        Ok((s.opened(Some(journal))?, report))
    }

    /// Whether this index logs mutations to a WAL.
    pub fn is_durable(&self) -> bool {
        self.journal.is_some()
    }

    /// The cache epoch of the current state: the WAL checkpoint epoch (or,
    /// without a WAL, the primary epoch learned over replication) plus the
    /// mutation counter. Results cached under an equal epoch are exact for
    /// the current state; any acknowledged mutation or applied frame makes
    /// older epochs unequal.
    pub fn query_epoch(&self) -> QueryEpoch {
        QueryEpoch {
            epoch: self.timeline_epoch(),
            mutations: self.mutations.load(Ordering::Acquire),
        }
    }

    /// Whether an earlier WAL append failure poisoned this index (see
    /// [`DurableError::Poisoned`]). Queries still serve; mutations and
    /// checkpoints are rejected until the index is reopened.
    pub fn is_poisoned(&self) -> bool {
        self.journal.as_ref().is_some_and(|j| j.is_poisoned())
    }

    /// Current checkpoint epoch, when durable.
    pub fn wal_epoch(&self) -> Option<u64> {
        self.journal.as_ref().map(|j| j.epoch())
    }

    /// WAL counters, when durable.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.journal.as_ref().map(|j| j.stats())
    }

    /// The next LSN this index would allocate, when durable — the
    /// exclusive upper bound of the log's coverage, which the `REPL`
    /// handshake checks a follower's resume position against.
    pub fn wal_next_lsn(&self) -> Option<u64> {
        self.journal.as_ref().map(|j| j.next_lsn())
    }

    /// Bytes of the log covered by the last fsync, when durable — the
    /// prefix a crash is guaranteed to keep, and the bound the replication
    /// feeder serves under. Crash-point tests truncate the log file to
    /// this length to simulate losing the page-cache tail.
    pub fn wal_durable_bytes(&self) -> Option<u64> {
        self.journal.as_ref().map(|j| j.durable_len())
    }

    /// Reads up to `max` frames with `lsn >= from_lsn` from the durable
    /// prefix of the log — the catch-up half of the replication feeder;
    /// frames are fsynced before they are served, so a shipped frame
    /// always survives a crash. `max == 0` means no cap. `hint` is a
    /// `(lsn, byte offset)` resume cursor (see
    /// [`simwal::Wal::frames_since_hinted`]): a valid cursor makes tailing
    /// O(frames served); a stale one, or `None`, scans.
    pub fn wal_frames_since_hinted(
        &self,
        from_lsn: u64,
        max: usize,
        hint: Option<(u64, u64)>,
    ) -> Result<(Vec<WalOp>, (u64, u64)), DurableError> {
        match &self.journal {
            Some(j) => j.frames_since_hinted(from_lsn, max, hint),
            None => Err(DurableError::Io(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "index has no write-ahead log to stream from",
            ))),
        }
    }

    /// Forces the log to stable storage (the `SYNC` op). `Ok(false)`
    /// when the index has no WAL.
    pub fn sync_wal(&self) -> Result<bool, DurableError> {
        match &self.journal {
            Some(j) => j.sync().map(|()| true),
            None => Ok(false),
        }
    }

    /// Checkpoints a durable index: quiesces all mutations (insert gate +
    /// every shard's write guard), then — sequenced by the journal —
    /// syncs the log, saves the group in its layout stamped with the next
    /// epoch (for a shard group, committing it in `sharding.txt`, the
    /// atomic commit point), and resets the log. Returns the new epoch, or
    /// `None` for a non-durable index. A crash at any point leaves a
    /// recoverable state — see the crash matrix in DESIGN.md §5.
    ///
    /// A crash before a shard group's manifest commit leaves epoch-N
    /// snapshots plus the log (replayed idempotently); a crash after it
    /// leaves a stale epoch-N log under an epoch-N+1 manifest (discarded
    /// at open).
    pub fn checkpoint(&self) -> Result<Option<u64>, DurableError> {
        let Some(j) = &self.journal else {
            return Ok(None);
        };
        let _gate = self.insert_gate.lock();
        let guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        // A fenced node must not checkpoint: each checkpoint bumps the
        // epoch, and enough of them would walk it up to the fence and
        // silently unfence a node that never re-synced.
        self.check_writable()?;
        let epoch = j.checkpoint(0, |dir, epoch| self.save_quiesced(dir, &guards, epoch))?;
        Ok(Some(epoch))
    }

    /// The epoch of this node on the replication timeline: its own WAL
    /// checkpoint epoch when durable, otherwise the primary epoch learned
    /// over replication. Fencing comparisons happen in this timeline.
    pub fn timeline_epoch(&self) -> u64 {
        self.wal_epoch().unwrap_or_else(|| self.replica_epoch())
    }

    /// The fencing token: the minimum epoch this node may accept writes
    /// at (`0` = unfenced). Persisted in the WAL manifest when durable.
    pub fn fence(&self) -> u64 {
        match &self.journal {
            Some(j) => j.fence(),
            None => self.mem_fence.load(Ordering::Acquire),
        }
    }

    /// Whether the fencing token forbids writes at the current epoch — a
    /// peer was promoted onto a newer timeline and this node has not yet
    /// re-synced onto it. Queries still serve; mutations and checkpoints
    /// are refused (see [`DurableError::Fenced`]).
    pub fn is_fenced(&self) -> bool {
        self.fence() > self.timeline_epoch()
    }

    /// Raises the fencing token to at least `epoch` — the demotion half
    /// of failover. Called when a higher-epoch peer reveals itself (a
    /// `REPL` poll from a follower that already applied frames of a
    /// newer timeline). Durable before it returns on a durable index, so
    /// a fenced ex-primary that crashes restarts fenced. Never lowers an
    /// existing fence; [`SharedIndex::install_replica_snapshot`] clears it
    /// once the node has re-synced.
    pub fn fence_at(&self, epoch: u64) -> Result<(), DurableError> {
        match &self.journal {
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

    /// Highest primary LSN applied through
    /// [`SharedIndex::apply_replicated`] (0 before any frame lands). On a
    /// restarted durable follower this is recovered from the local log's
    /// replayed maximum.
    pub fn applied_lsn(&self) -> u64 {
        self.applied_lsn.load(Ordering::Acquire)
    }

    /// The primary checkpoint epoch this replica last synchronised with
    /// (0 until a snapshot install or `note_replica_*` call records one).
    pub fn replica_epoch(&self) -> u64 {
        self.repl_epoch.load(Ordering::Acquire)
    }

    /// Arms a one-shot append fault on the log (see
    /// [`Journal::arm_append_fault`]) for the suites that exercise the
    /// poison path; a no-op without a WAL.
    pub fn arm_wal_append_fault(&self) {
        if let Some(j) = &self.journal {
            j.arm_append_fault();
        }
    }

    fn check_poisoned(&self) -> Result<(), DurableError> {
        self.journal.as_ref().map_or(Ok(()), |j| j.check())
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

    /// Promotes this node to primary on a new timeline: with every
    /// mutation quiesced, picks an epoch strictly past everything the node
    /// has seen (its own checkpoint sequence, the old primary's epoch, and
    /// any fence), checkpoints the current state under it, installs it in
    /// the WAL, and persists the fencing token at the same epoch — so the
    /// switch survives a crash and the node begins accepting writes from
    /// exactly its acked prefix (applying a shipped frame keeps the LSN
    /// allocator strictly ahead of it). Returns the new timeline epoch.
    pub(crate) fn promote(&self) -> Result<u64, DurableError> {
        let _gate = self.insert_gate.lock();
        let guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        let floor = self.replica_epoch().max(self.fence());
        let new_epoch = match &self.journal {
            Some(j) => {
                let epoch =
                    j.checkpoint(floor, |dir, epoch| self.save_quiesced(dir, &guards, epoch))?;
                j.set_fence(epoch)?;
                epoch
            }
            None => {
                self.mem_fence.store(floor + 1, Ordering::Release);
                floor + 1
            }
        };
        self.repl_epoch.store(new_epoch, Ordering::Release);
        // Bump while quiesced: cached results keyed on the follower-era
        // epoch must not survive the timeline switch.
        self.mutations.fetch_add(1, Ordering::Release);
        drop(guards);
        Ok(new_epoch)
    }

    /// Applies one WAL frame shipped from a replication primary to a group
    /// of one, under its write guard and through the very `apply` recovery
    /// replays with. Returns whether the frame changed state; re-applying
    /// any shipped prefix is therefore safe — no gaps, no duplicates.
    ///
    /// On a durable group every state-changing frame is also appended to
    /// the *local* WAL carrying the primary's LSN, so a restarted follower
    /// recovers its applied position (`max` replayed LSN) along with its
    /// state; an append failure poisons the group exactly like a local
    /// mutation would. The mutation counter bumps on every state change,
    /// so no cached plan result can outlive an applied frame.
    pub(crate) fn apply_replicated(&self, op: &WalOp) -> Result<bool, DurableError> {
        debug_assert_eq!(self.shards.len(), 1, "replication is per group of one");
        let _gate = self.insert_gate.lock();
        let mut guard = self.shards[0].write();
        self.check_poisoned()?;
        let changed = apply(std::slice::from_mut(&mut *guard), &mut self.map.write(), op)?;
        if changed {
            if let Some(j) = &self.journal {
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

    /// Replaces a group of one's index with a snapshot transferred from a
    /// replication primary (the epoch-mismatch fallback of the `REPL`
    /// handshake). `primary_epoch` is the primary's checkpoint epoch the
    /// snapshot corresponds to and `next_lsn` the first LSN the stream
    /// will resume from; the replica's applied position becomes
    /// `next_lsn - 1`. On a durable group the snapshot is checkpointed
    /// into the local directory, in its layout, under the *local* next
    /// epoch (the local epoch sequence is independent of the primary's),
    /// so a restart recovers it without re-transferring.
    pub(crate) fn install_replica_snapshot(
        &self,
        index: SeqIndex,
        primary_epoch: u64,
        next_lsn: u64,
    ) -> Result<(), DurableError> {
        debug_assert_eq!(self.shards.len(), 1, "replication is per group of one");
        let _gate = self.insert_gate.lock();
        let mut guard = self.shards[0].write();
        self.check_poisoned()?;
        // Refuse a snapshot from a timeline older than the one this node
        // already follows: a poll that was in flight when the node was
        // promoted must not roll the new timeline back (and clear its
        // fence) by installing the deposed primary's state.
        let current = self.replica_epoch();
        if primary_epoch < current {
            return Err(DurableError::Fenced {
                fence: current,
                epoch: primary_epoch,
            });
        }
        *self.map.write() = ShardMap::from_assignment(1, &vec![0; index.len()]);
        self.seq_len.store(index.seq_len(), Ordering::Release);
        *guard = index;
        if let Some(j) = &self.journal {
            j.checkpoint(0, |dir, epoch| {
                self.save_quiesced(dir, std::slice::from_ref(&guard), epoch)
            })?;
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
    pub(crate) fn note_replica_epoch(&self, primary_epoch: u64) {
        self.repl_epoch.store(primary_epoch, Ordering::Release);
    }

    /// Restores a follower's replication position after a restart: adopts
    /// `primary_epoch` and raises the applied position to at least
    /// `applied` (never lowers it). A durable follower's local log replays
    /// only frames appended since its last snapshot install, so the
    /// install-time floor is re-asserted from the persisted replica state.
    pub(crate) fn note_replica_position(&self, primary_epoch: u64, applied: u64) {
        self.repl_epoch.store(primary_epoch, Ordering::Release);
        self.applied_lsn.fetch_max(applied, Ordering::AcqRel);
    }

    /// The group's `INFO` pairs, in wire order: sizes; the tree's shape on
    /// a group of one; the sharding of a shard directory; then the
    /// durability and fencing state.
    pub fn describe(&self) -> Vec<(String, String)> {
        let pair = |k: &str, v: String| (k.to_string(), v);
        let mut info = vec![
            pair("sequences", self.len().to_string()),
            pair("seq_len", self.seq_len().to_string()),
        ];
        if let [shard] = &self.shards[..] {
            let index = shard.read();
            info.push(pair("tree_height", index.height().to_string()));
            // How many nodes and leaves a traversal's `node_accesses` and
            // `leaf_accesses` are out of — from the planner's memoised
            // tree shape (a full walk only after a write). Left out when
            // the walk fails on a faulty device.
            if let Ok(shape) = self.stats().tree_shape(&index) {
                let nodes: u64 = shape.summaries.iter().map(|l| l.nodes).sum();
                let leaves = shape.summaries.first().map_or(0, |l| l.nodes);
                info.push(pair("tree_nodes", nodes.to_string()));
                info.push(pair("tree_leaves", leaves.to_string()));
            }
            info.push(pair("leaf_capacity", index.leaf_capacity().to_string()));
            info.push(pair("skipped", index.skipped().len().to_string()));
        }
        let sharding = self.sharding();
        if let Some(cfg) = sharding {
            info.push(pair("shards", cfg.shards.to_string()));
            info.push(pair("partitioner", cfg.partitioner.to_string()));
        }
        info.push(pair("deleted", self.deleted_count().to_string()));
        if sharding.is_some() {
            let loads: Vec<String> = self.shard_loads().iter().map(|l| l.to_string()).collect();
            info.push(pair("shard_loads", loads.join(",")));
        }
        info.push(pair("durable", self.is_durable().to_string()));
        if let Some(epoch) = self.wal_epoch() {
            info.push(pair("wal_epoch", epoch.to_string()));
        }
        info.push(pair("fenced", self.is_fenced().to_string()));
        let fence = self.fence();
        if fence > 0 {
            info.push(pair("fence_epoch", fence.to_string()));
        }
        info
    }
}

/// The one idempotent frame apply: recovery replays the log through it,
/// and a follower applies shipped frames through it. The frame names its
/// shard (placement is not re-derivable: Range reads live loads, and a
/// half-finished checkpoint leaves shard snapshots ahead of the
/// manifest); a group of one reads no shard slot, since single-index
/// builds once stored the ordinal there. An insert lands when it extends
/// its shard; one the snapshots already hold only re-extends the map; one
/// beyond the prefix, or on a shard or slot these snapshots lack, is a
/// typed [`DurableError::Gap`]. A delete of a missing or tombstoned
/// ordinal is a no-op. Returns whether state changed.
fn apply(indexes: &mut [SeqIndex], map: &mut ShardMap, op: &WalOp) -> Result<bool, DurableError> {
    match *op {
        WalOp::Insert {
            lsn,
            global,
            shard,
            ref values,
        } => {
            let g = global as usize;
            let s = if indexes.len() == 1 {
                0
            } else {
                shard as usize
            };
            // Where the frame landed: the next slot of its shard when it
            // extends the map; its mapped slot when the snapshots are
            // ahead of the manifest and replay revisits it.
            let slot = match map.locate(g) {
                Some((mapped, local)) if mapped == s => Some(local),
                None if g == map.len() && s < indexes.len() => Some(map.globals_of(s).len()),
                _ => None,
            };
            let Some(local) = slot.filter(|&l| l <= indexes[s].len()) else {
                return Err(DurableError::Gap {
                    lsn,
                    global,
                    len: map.len(),
                });
            };
            let inserted = local == indexes[s].len();
            if inserted {
                indexes[s].insert_series(&TimeSeries::new(values.clone()))?;
            }
            let extends = g == map.len();
            if extends {
                map.push(s);
            }
            Ok(inserted || extends)
        }
        WalOp::Delete { global, .. } => match map.locate(global as usize) {
            Some((s, local)) => Ok(indexes[s].delete_series(local)?),
            None => Ok(false),
        },
    }
}

impl Snapshot {
    /// A plain index directory's snapshot: one shard holding every
    /// ordinal, at the epoch the index was saved with.
    fn plain(index: SeqIndex) -> Self {
        Self {
            plain: true,
            kind: PartitionerKind::default(),
            seq_len: index.seq_len(),
            epoch: index.wal_epoch(),
            map: ShardMap::from_assignment(1, &vec![0; index.len()]),
            indexes: vec![index],
            lock: None,
        }
    }

    /// Opens whatever `dir` holds, through `wrap`'s device wrappers where
    /// it returns one; `locked` picks between the locking and the
    /// read-only open.
    fn load(
        dir: &Path,
        heap_pool_pages: usize,
        mut wrap: impl FnMut(usize) -> Option<DeviceWrap>,
        locked: bool,
    ) -> std::io::Result<Self> {
        let mut open = |dir: &Path, shard: usize| match (wrap(shard), locked) {
            (None, true) => SeqIndex::open(dir, heap_pool_pages),
            (None, false) => SeqIndex::open_read_only(dir, heap_pool_pages),
            (Some(w), _) => SeqIndex::open_with(dir, heap_pool_pages, w),
        };
        if !dir.join("sharding.txt").is_file() {
            return Ok(Self::plain(open(dir, 0)?));
        }
        let lock = if locked {
            Some(DirLock::acquire(dir).map_err(crate::index::wal_to_io)?)
        } else {
            None
        };
        let mut s = read_shard_manifest(dir)?;
        s.lock = lock;
        for i in 0..s.map.shards() {
            s.indexes.push(open(&dir.join(format!("shard-{i}")), i)?);
        }
        Ok(s)
    }

    /// The last step of every open: the shard snapshots (after replay, on
    /// a durable open) must hold exactly the sequences the map gives them.
    fn opened(self, journal: Option<Journal>) -> std::io::Result<ShardedIndex> {
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let map = &self.map;
        for (i, idx) in self.indexes.iter().enumerate() {
            if idx.len() != map.globals_of(i).len() {
                return Err(bad(format!(
                    "shard {i} holds {} sequences but the manifest (plus any log) maps {} — \
                     snapshot, manifest and log do not belong together",
                    idx.len(),
                    map.globals_of(i).len()
                )));
            }
        }
        // A missing or corrupt seq_len line must not silently poison every
        // future family validation; the shards know the true length.
        let disk_len = self.indexes[0].seq_len();
        if self.seq_len != disk_len {
            return Err(bad(format!(
                "manifest seq_len {} does not match the on-disk sequence length {disk_len}",
                self.seq_len
            )));
        }
        Ok(ShardedIndex::assemble(self, journal))
    }
}

/// Parses `sharding.txt` into a snapshot with no shard opened yet.
fn read_shard_manifest(dir: &Path) -> std::io::Result<Snapshot> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let meta = std::fs::read_to_string(dir.join("sharding.txt"))?;
    let mut lines = meta.lines();
    if lines.next() != Some("simshard v1") {
        return Err(bad("not a simshard directory".into()));
    }
    let mut shards = 0;
    let mut assignment: Vec<usize> = Vec::new();
    let mut m = Snapshot {
        plain: false,
        kind: PartitionerKind::Hash,
        seq_len: 0,
        // Pre-durability manifests carry no epoch line; they are at the
        // initial epoch. (A `next_lsn` line, which earlier builds wrote,
        // is skipped like any unknown key.)
        epoch: 1,
        map: ShardMap::default(),
        indexes: Vec::new(),
        lock: None,
    };
    for line in lines {
        match line.split_once(' ') {
            Some(("shards", v)) => {
                shards = v
                    .trim()
                    .parse()
                    .map_err(|e| bad(format!("bad shards: {e}")))?;
            }
            Some(("partitioner", v)) => {
                m.kind = v.trim().parse().map_err(bad)?;
            }
            Some(("seq_len", v)) => {
                m.seq_len = v
                    .trim()
                    .parse()
                    .map_err(|e| bad(format!("bad seq_len: {e}")))?;
            }
            Some(("epoch", v)) => {
                m.epoch = v
                    .trim()
                    .parse()
                    .map_err(|e| bad(format!("bad epoch: {e}")))?;
            }
            Some(("assignment", v)) if !v.trim().is_empty() => {
                assignment = v
                    .trim()
                    .split(',')
                    .map(|s| s.parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| bad(format!("bad assignment entry: {e}")))?;
            }
            _ => {}
        }
    }
    if shards == 0 || shards > MAX_SHARDS {
        return Err(bad(format!("shard count {shards} out of range")));
    }
    if assignment.iter().any(|&s| s >= shards) {
        return Err(bad("assignment references a missing shard".into()));
    }
    m.map = ShardMap::from_assignment(shards, &assignment);
    Ok(m)
}

impl From<SharedIndex> for Arc<ShardedIndex> {
    fn from(shared: SharedIndex) -> Self {
        shared.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseries::CorpusKind;

    fn corpus() -> Corpus {
        Corpus::generate(CorpusKind::SyntheticWalks, 60, 64, 0x5702E)
    }

    fn keys(group: &ShardedIndex) -> Vec<String> {
        group.describe().into_iter().map(|(k, _)| k).collect()
    }

    /// `INFO` keeps every key each layout printed before there was one
    /// index type, and a group without a WAL answers `SYNC`/`CHECKPOINT`
    /// as not durable.
    #[test]
    fn describe_keeps_every_info_key() {
        let c = corpus();
        let one = SharedIndex::new(SeqIndex::build(&c, IndexConfig::default()).unwrap());
        assert_eq!(
            keys(&one),
            [
                "sequences",
                "seq_len",
                "tree_height",
                "tree_nodes",
                "tree_leaves",
                "leaf_capacity",
                "skipped",
                "deleted",
                "durable",
                "fenced"
            ]
        );
        assert_eq!(one.sharding(), None);
        let three =
            ShardedIndex::build(&c, ShardConfig::new(3).unwrap(), IndexConfig::default()).unwrap();
        assert_eq!(
            keys(&three),
            [
                "sequences",
                "seq_len",
                "shards",
                "partitioner",
                "deleted",
                "shard_loads",
                "durable",
                "fenced"
            ]
        );
        assert_eq!(three.sharding(), Some(ShardConfig::new(3).unwrap()));
        for group in [&*one, &three] {
            assert!(!group.sync_wal().unwrap());
            assert_eq!(group.checkpoint().unwrap(), None);
            assert!(group.wal_stats().is_none());
        }
    }

    /// A fenced node must not checkpoint its way past the fence, the
    /// error stays `Fenced` (the server answers `READONLY` on it), and
    /// `INFO` names the fence.
    #[test]
    fn fenced_checkpoint_is_refused_and_described() {
        let root =
            std::env::temp_dir().join(format!("simquery-shard-fence-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        SeqIndex::build(&corpus(), IndexConfig::default())
            .unwrap()
            .save(&root.join("idx"))
            .unwrap();
        let (group, _) = ShardedIndex::open_durable(
            &root.join("idx"),
            &root.join("wal"),
            16,
            FsyncPolicy::Always,
        )
        .unwrap();
        group.fence_at(9).unwrap();
        match group.checkpoint() {
            Err(DurableError::Fenced { fence: 9, epoch: 1 }) => {}
            other => panic!("expected Fenced, got {other:?}"),
        }
        let info = group.describe();
        for (k, v) in [("wal_epoch", "1"), ("fenced", "true"), ("fence_epoch", "9")] {
            assert!(info.contains(&(k.into(), v.into())), "{k}={v} in {info:?}");
        }
        drop(group);
        let _ = std::fs::remove_dir_all(&root);
    }
}
