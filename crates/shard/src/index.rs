//! [`ShardedIndex`]: N independent [`SeqIndex`] shards behind per-shard
//! [`SharedIndex`] locks, with a stable global-ordinal ↔ (shard, local)
//! mapping.
//!
//! # Locking
//!
//! Each shard has its own `RwLock`, so a mutation write-locks exactly one
//! shard while the other N−1 keep serving reads (the starvation discipline
//! documented in [`simquery::shared`]). Global-ordinal assignment is
//! serialised by a dedicated insert gate — never by locking every shard —
//! and the global map takes its own brief write lock only *after* the
//! shard-local insert has succeeded, so concurrent readers translate
//! ordinals against a map that always describes fully-inserted sequences.
//! The converse — a shard read observing a local ordinal the reader's map
//! snapshot predates — is handled by the gather's defensive snapshot
//! translation (see [`crate::gather`]'s linearization docs).
//!
//! On a *durable* index the gate serves a second role: it serialises LSN
//! allocation with the append+fsync of every mutation — deletes included —
//! so that when a mutation is acknowledged, every lower LSN is already
//! durable. Without that, a crash could leave an LSN gap below an
//! acknowledged frame, and recovery (which stops at the first gap) would
//! drop the acknowledged mutation.

use crate::cfg::{PartitionerKind, ShardConfig};
use crate::partition::{Partitioner, ShardMap};
use pagestore::sync::{Mutex, RwLock};
use pagestore::{PageDevice, PageError};
use simquery::index::{AccessCounters, DeviceWrap, IndexConfig, SeqIndex};
use simquery::plan::QueryEpoch;
use simquery::report::QueryError;
use simquery::shared::{DurableError, SharedIndex};
use simquery::stats::StatsRegistry;
use simwal::{DirLock, FsyncPolicy, Wal, WalError, WalOp, WalStats};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tseries::{Corpus, TimeSeries};

/// Errors raised while building, opening, or durably mutating a sharded
/// index.
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
    /// The write-ahead log failed (lock, append, epoch reconciliation).
    Wal(WalError),
    /// A snapshot load/save failed.
    Io(std::io::Error),
    /// An earlier WAL append failed after its mutation applied; further
    /// mutations and checkpoints are refused (see
    /// [`DurableError::Poisoned`]). Reopen the index to recover.
    Poisoned,
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
            Self::Wal(e) => write!(f, "{e}"),
            Self::Io(e) => write!(f, "snapshot i/o failed: {e}"),
            Self::Poisoned => write!(f, "{}", DurableError::Poisoned),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Page(e) => Some(e),
            Self::Wal(e) => Some(e),
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PageError> for ShardError {
    fn from(e: PageError) -> Self {
        Self::Page(e)
    }
}

impl From<WalError> for ShardError {
    fn from(e: WalError) -> Self {
        Self::Wal(e)
    }
}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
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

impl From<DurableError> for ShardError {
    fn from(e: DurableError) -> Self {
        match e {
            DurableError::Query(q) => q.into(),
            DurableError::Wal(w) => Self::Wal(w),
            DurableError::Io(io) => Self::Io(io),
            DurableError::Poisoned => Self::Poisoned,
            gap @ DurableError::Gap { .. } => Self::Config(gap.to_string()),
            fenced @ DurableError::Fenced { .. } => Self::Config(fenced.to_string()),
        }
    }
}

/// The reverse lift, for [`crate::Store`]: a shard group's durable-path
/// failures (log, snapshot, poisoning, device) map onto the variant of
/// the same meaning; build-time rejections have none and travel as
/// invalid-data I/O errors.
impl From<ShardError> for DurableError {
    fn from(e: ShardError) -> Self {
        match e {
            ShardError::Page(p) => Self::Query(QueryError::Io(p)),
            ShardError::Wal(w) => Self::Wal(w),
            ShardError::Io(io) => Self::Io(io),
            ShardError::Poisoned => Self::Poisoned,
            other => Self::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                other.to_string(),
            )),
        }
    }
}

/// What sharded recovery did: aggregate of the per-shard WAL reports plus
/// the cross-shard merge outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardRecovery {
    /// Checkpoint epoch the index recovered at.
    pub epoch: u64,
    /// Frames replayed onto the snapshots, across all shards.
    pub replayed: usize,
    /// Frames dropped at an LSN gap (an unsynced sibling-shard tail) —
    /// everything after the first missing LSN is discarded to keep the
    /// recovered state an exact prefix of the mutation schedule.
    pub dropped: usize,
    /// Torn-tail bytes truncated, summed over the shard logs.
    pub truncated_bytes: u64,
    /// Frames discarded because a log's epoch predated its snapshot.
    pub stale_frames: usize,
}

/// A corpus partitioned across N independent [`SeqIndex`] shards.
pub struct ShardedIndex {
    shards: Vec<SharedIndex>,
    map: RwLock<ShardMap>,
    insert_gate: Mutex<()>,
    partitioner: Partitioner,
    kind: PartitionerKind,
    seq_len: usize,
    // Checkpoint epoch of `sharding.txt` (1 for fresh builds); the
    // authority every per-shard WAL is reconciled against.
    epoch: AtomicU64,
    // Next log sequence number. Globally monotone across shards; the
    // manifest records it at checkpoint so recovery knows where the
    // contiguous post-checkpoint LSN run must start.
    next_lsn: AtomicU64,
    // One WAL per shard when opened durably; frames are appended under
    // the owning shard's write guard, after the mutation has applied.
    wals: Option<Vec<Arc<Wal>>>,
    // Where checkpoints go (the directory the index was opened from).
    durable_dir: Option<PathBuf>,
    // Set when a WAL append failed after its shard mutation applied: the
    // LSN run has a hole, so acknowledging any later mutation would make
    // it unrecoverable (recovery stops at the gap). Mutations and
    // checkpoints are refused until the index is reopened.
    poisoned: AtomicBool,
    // Advisory lock on the index directory, held while open.
    _dir_lock: Option<DirLock>,
    // Planner statistics for the shard group (shard 0's tree shape is the
    // planning sample; dispatch and family statistics are group-wide).
    stats: Arc<StatsRegistry>,
    // Mutations acknowledged since open — the fine-grained half of
    // [`QueryEpoch`], bumped under the owning shard's write guard.
    mutations: AtomicU64,
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

        let mut shards = Vec::with_capacity(cfg.shards);
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
            let index = build(shard, &sub)?.ok_or(ShardError::EmptyShard(shard))?;
            shards.push(SharedIndex::new(index));
        }

        Ok(Self {
            shards,
            map: RwLock::new(map),
            insert_gate: Mutex::new(()),
            partitioner,
            kind: cfg.partitioner,
            seq_len: corpus.series_len(),
            epoch: AtomicU64::new(1),
            next_lsn: AtomicU64::new(1),
            wals: None,
            durable_dir: None,
            poisoned: AtomicBool::new(false),
            stats: Arc::new(StatsRegistry::new()),
            mutations: AtomicU64::new(0),
            _dir_lock: None,
        })
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
            sharded.delete_series(g)?;
        }
        Ok(sharded)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard handles, for scatter execution and serving.
    pub fn shards(&self) -> &[SharedIndex] {
        &self.shards
    }

    /// The partitioner in effect.
    pub fn partitioner_kind(&self) -> PartitionerKind {
        self.kind
    }

    /// Length of every sequence.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Total sequences across all shards (tombstoned included).
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True when no sequences are mapped (never — `build` rejects that).
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

    /// Appends a sequence, returning its global ordinal. On a durable
    /// index the mutation is applied, then logged to the owning shard's
    /// WAL *before* this returns (still under the shard's write guard, so
    /// log order is apply order).
    ///
    /// Only the receiving shard is write-locked; reads on the other N−1
    /// shards proceed throughout (see the module docs on locking).
    pub fn insert_series(&self, ts: &TimeSeries) -> Result<usize, DurableError> {
        let _gate = self.insert_gate.lock();
        if self.poisoned.load(Ordering::Acquire) {
            return Err(DurableError::Poisoned);
        }
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
        let local = guard.insert_series(ts).map_err(DurableError::Query)?;
        if let Some(wals) = &self.wals {
            let lsn = self.next_lsn.fetch_add(1, Ordering::Relaxed);
            let logged = wals[shard].append(&WalOp::Insert {
                lsn,
                global: global as u64,
                local: local as u64,
                values: ts.values().to_vec(),
            });
            if let Err(e) = logged {
                // The insert is applied in the shard but missing from the
                // log, and its LSN is burnt. Record the mapping anyway so
                // the shard and the global map never diverge (reads,
                // save() and the manifest stay coherent), and poison the
                // index: acknowledging any later LSN would lose it at the
                // gap during recovery.
                drop(guard);
                self.poisoned.store(true, Ordering::Release);
                let mut map = self.map.write();
                let (g, l) = map.push(shard);
                debug_assert_eq!((g, l), (global, local), "gate must serialise ordinals");
                return Err(DurableError::Wal(e));
            }
        }
        drop(guard);
        let mut map = self.map.write();
        let (g, l) = map.push(shard);
        debug_assert_eq!((g, l), (global, local), "gate must serialise ordinals");
        self.mutations.fetch_add(1, Ordering::Release);
        Ok(global)
    }

    /// Tombstones a global ordinal. `Ok(false)` when out of range or
    /// already deleted. Write-locks only the owning shard; on a durable
    /// index an effective delete is logged before this returns.
    ///
    /// On a durable index the delete also holds the insert gate: LSN
    /// allocation and append+fsync must be serialised *across shards* for
    /// every mutation kind, or a delete's LSN n+1 could be durable and
    /// acknowledged while an insert's LSN n on a sibling shard is not —
    /// after a crash, recovery stops at the gap and drops the
    /// acknowledged delete, violating the `FsyncPolicy::Always` contract.
    pub fn delete_series(&self, global: usize) -> Result<bool, DurableError> {
        let _gate = self.wals.is_some().then(|| self.insert_gate.lock());
        if self.poisoned.load(Ordering::Acquire) {
            return Err(DurableError::Poisoned);
        }
        let Some((shard, local)) = self.locate(global) else {
            return Ok(false);
        };
        let mut guard = self.shards[shard].write();
        let deleted = guard.delete_series(local).map_err(DurableError::Query)?;
        if deleted {
            if let Some(wals) = &self.wals {
                let lsn = self.next_lsn.fetch_add(1, Ordering::Relaxed);
                let logged = wals[shard].append(&WalOp::Delete {
                    lsn,
                    global: global as u64,
                    local: local as u64,
                });
                if let Err(e) = logged {
                    // Applied-but-unlogged, LSN burnt: same hole as a
                    // failed insert append (the map needs no repair —
                    // deletes are tombstones).
                    drop(guard);
                    self.poisoned.store(true, Ordering::Release);
                    return Err(DurableError::Wal(e));
                }
            }
        }
        if deleted {
            self.mutations.fetch_add(1, Ordering::Release);
        }
        Ok(deleted)
    }

    /// Fetches a sequence's raw samples by global ordinal (a counted
    /// access on its shard).
    ///
    /// # Panics
    ///
    /// Panics when `global` was never mapped — callers gate on
    /// [`Self::len`] or [`Self::locate`] first, as with
    /// [`SeqIndex::fetch_series`]'s own out-of-range behaviour.
    pub fn fetch_series(&self, global: usize) -> Result<TimeSeries, QueryError> {
        let (shard, local) = self.locate(global).expect("unmapped global ordinal");
        Ok(self.shards[shard].read().fetch_series(local)?)
    }

    /// Access counters of each shard, in shard order — the per-fragment
    /// accounting the paper's cost model sums over.
    pub fn per_shard_counters(&self) -> Vec<AccessCounters> {
        self.shards.iter().map(|s| s.read().counters()).collect()
    }

    /// Aggregate access counters across all shards.
    pub fn counters(&self) -> AccessCounters {
        sum_counters(&self.per_shard_counters())
    }

    /// Zeroes every shard's counters and record pool (cold per-query
    /// accounting, as [`SeqIndex::reset_counters`]).
    pub fn reset_counters(&self) -> Result<(), PageError> {
        for s in &self.shards {
            s.read().reset_counters()?;
        }
        Ok(())
    }

    /// Persists all shards under `dir`: `shard-N/` subdirectories (see
    /// [`SeqIndex::save`]) plus a `sharding.txt` manifest recording the
    /// partitioner, the global assignment order, and the checkpoint
    /// epoch. The manifest — the only pointer to the shard snapshots — is
    /// replaced atomically (temp file + `rename`), and each shard's save
    /// is itself crash-atomic, so an interrupted save never destroys the
    /// previous good state.
    ///
    /// Mutations are quiesced for the duration (insert gate + every
    /// shard's read guard, taken up front): a concurrent insert landing
    /// between one shard's save and the manifest write would otherwise
    /// persist a snapshot whose assignment/`next_lsn` disagree with the
    /// shard contents — a state [`Self::open`] rejects.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        let _gate = self.insert_gate.lock();
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let epoch = self.epoch.load(Ordering::Relaxed);
        std::fs::create_dir_all(dir)?;
        for (i, g) in guards.iter().enumerate() {
            g.save_with_epoch(&dir.join(format!("shard-{i}")), epoch)?;
        }
        self.write_manifest(dir, epoch)
    }

    fn write_manifest(&self, dir: &Path, epoch: u64) -> std::io::Result<()> {
        let map = self.map.read();
        let mut meta = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(meta, "simshard v1");
        let _ = writeln!(meta, "shards {}", self.shards.len());
        let _ = writeln!(meta, "partitioner {}", self.kind);
        let _ = writeln!(meta, "seq_len {}", self.seq_len);
        let _ = writeln!(meta, "epoch {epoch}");
        let _ = writeln!(meta, "next_lsn {}", self.next_lsn.load(Ordering::Relaxed));
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

    /// Whether `dir` holds a shard group (a [`Self::save`] manifest) rather
    /// than a single index.
    pub(crate) fn is_sharded_dir(dir: &Path) -> bool {
        dir.join("sharding.txt").is_file()
    }

    /// Reopens a directory written by [`Self::save`]. `heap_pool_pages`
    /// sizes each shard's record buffer pool. Takes the directory's
    /// advisory `LOCK` (kind `WouldBlock` when another process holds it).
    pub fn open(dir: &Path, heap_pool_pages: usize) -> std::io::Result<Self> {
        Self::open_impl(dir, heap_pool_pages, |_| None, true)
    }

    /// [`Self::open`] without taking the root or per-shard `LOCK`s (see
    /// [`SeqIndex::open_read_only`]), for read-only consumers that must
    /// coexist with a serving process.
    pub fn open_read_only(dir: &Path, heap_pool_pages: usize) -> std::io::Result<Self> {
        Self::open_impl(dir, heap_pool_pages, |_| None, false)
    }

    /// [`Self::open`] with caller-wrapped page devices per shard (see
    /// [`SeqIndex::open_with`]): the hook receives each shard id and may
    /// return a device wrapper — e.g. arming a [`pagestore::FaultyDisk`]
    /// on one shard's heap — or `None` for a plain open of that shard.
    pub fn open_with(
        dir: &Path,
        heap_pool_pages: usize,
        wrap: impl FnMut(usize) -> Option<DeviceWrap>,
    ) -> std::io::Result<Self> {
        Self::open_impl(dir, heap_pool_pages, wrap, true)
    }

    fn open_impl(
        dir: &Path,
        heap_pool_pages: usize,
        mut wrap: impl FnMut(usize) -> Option<DeviceWrap>,
        take_lock: bool,
    ) -> std::io::Result<Self> {
        let lock = if take_lock {
            Some(DirLock::acquire(dir).map_err(simquery::index::wal_to_io)?)
        } else {
            None
        };
        let m = read_shard_manifest(dir)?;
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let mut shards = Vec::with_capacity(m.shards);
        for i in 0..m.shards {
            let shard_dir = dir.join(format!("shard-{i}"));
            let index = match (wrap(i), take_lock) {
                (None, true) => SeqIndex::open(&shard_dir, heap_pool_pages)?,
                (None, false) => SeqIndex::open_read_only(&shard_dir, heap_pool_pages)?,
                (Some(w), _) => SeqIndex::open_with(&shard_dir, heap_pool_pages, w)?,
            };
            shards.push(SharedIndex::new(index));
        }
        let map = ShardMap::from_assignment(m.shards, &m.assignment);
        for (i, s) in shards.iter().enumerate() {
            if s.read().len() != map.globals_of(i).len() {
                return Err(bad(format!(
                    "shard {i} holds {} sequences but the manifest maps {}",
                    s.read().len(),
                    map.globals_of(i).len()
                )));
            }
        }
        // A missing or corrupt seq_len line must not silently poison every
        // future family validation; the shards know the true length.
        let disk_len = shards[0].read().seq_len();
        if m.seq_len != disk_len {
            return Err(bad(format!(
                "manifest seq_len {} does not match the on-disk sequence length {disk_len}",
                m.seq_len
            )));
        }
        Ok(Self {
            shards,
            map: RwLock::new(map),
            insert_gate: Mutex::new(()),
            partitioner: Partitioner::new(m.kind, m.shards),
            kind: m.kind,
            seq_len: m.seq_len,
            epoch: AtomicU64::new(m.epoch),
            next_lsn: AtomicU64::new(m.next_lsn),
            wals: None,
            durable_dir: None,
            poisoned: AtomicBool::new(false),
            stats: Arc::new(StatsRegistry::new()),
            mutations: AtomicU64::new(0),
            _dir_lock: lock,
        })
    }

    /// Opens a persisted sharded index *with one write-ahead log per
    /// shard* under `wal_root` (`wal_root/shard-N/`), each reconciled
    /// against the `sharding.txt` epoch, and replays the merged log tails
    /// on top of the shard snapshots.
    ///
    /// Frames from all shards are merged by LSN and replayed in that
    /// order; replay stops at the first missing LSN (a tail some shard
    /// never fsynced), so the recovered index is an exact prefix of the
    /// acknowledged mutation schedule. Replay is idempotent against
    /// half-checkpoint states: a frame whose effects a shard snapshot
    /// already holds re-extends the global map without re-applying.
    /// When frames were dropped at a gap the index is checkpointed
    /// immediately, folding the recovered prefix into a fresh epoch.
    pub fn open_durable(
        dir: &Path,
        wal_root: &Path,
        heap_pool_pages: usize,
        policy: FsyncPolicy,
    ) -> Result<(Self, ShardRecovery), ShardError> {
        Self::open_durable_impl(dir, wal_root, heap_pool_pages, policy, |_| None, false)
    }

    /// [`Self::open_durable`] with caller-wrapped page devices per shard,
    /// so WAL replay itself runs against armed [`pagestore::FaultyDisk`]s.
    /// Replay faults surface as typed errors ([`ShardError::Page`]) —
    /// never a panic. No auto-checkpoint happens on such an index (its
    /// devices are surrendered to the wrappers), so gap-dropped frames
    /// stay in the logs for the next unfaulted open.
    pub fn open_durable_with(
        dir: &Path,
        wal_root: &Path,
        heap_pool_pages: usize,
        policy: FsyncPolicy,
        wrap: impl FnMut(usize) -> Option<DeviceWrap>,
    ) -> Result<(Self, ShardRecovery), ShardError> {
        Self::open_durable_impl(dir, wal_root, heap_pool_pages, policy, wrap, true)
    }

    fn open_durable_impl(
        dir: &Path,
        wal_root: &Path,
        heap_pool_pages: usize,
        policy: FsyncPolicy,
        mut wrap: impl FnMut(usize) -> Option<DeviceWrap>,
        faulted: bool,
    ) -> Result<(Self, ShardRecovery), ShardError> {
        let lock = DirLock::acquire(dir)?;
        let m = read_shard_manifest(dir)?;
        let bad = |msg: String| ShardError::Config(msg);

        // Shard snapshots. During recovery a shard may legitimately hold
        // *more* sequences than the manifest maps (its snapshot comes
        // from a checkpoint the crash interrupted before the manifest
        // bump); the surplus must be covered by replayed frames, checked
        // after replay. Fewer is unrecoverable.
        let mut indexes = Vec::with_capacity(m.shards);
        for i in 0..m.shards {
            let shard_dir = dir.join(format!("shard-{i}"));
            let index = match wrap(i) {
                None => SeqIndex::open(&shard_dir, heap_pool_pages)?,
                Some(w) => SeqIndex::open_with(&shard_dir, heap_pool_pages, w)?,
            };
            indexes.push(index);
        }
        let mut map = ShardMap::from_assignment(m.shards, &m.assignment);
        for (i, idx) in indexes.iter().enumerate() {
            if idx.len() < map.globals_of(i).len() {
                return Err(bad(format!(
                    "shard {i} holds {} sequences but the manifest maps {}",
                    idx.len(),
                    map.globals_of(i).len()
                )));
            }
        }

        // Per-shard logs, all reconciled against the manifest's epoch —
        // the authority; a shard snapshot stamped epoch+1 is a
        // half-finished checkpoint whose WAL still holds the frames.
        let mut recovery = ShardRecovery {
            epoch: m.epoch,
            ..Default::default()
        };
        let mut wals = Vec::with_capacity(m.shards);
        let mut merged: Vec<(usize, WalOp)> = Vec::new();
        for i in 0..m.shards {
            let (wal, ops, report) =
                Wal::open(&wal_root.join(format!("shard-{i}")), policy, m.epoch)?;
            recovery.truncated_bytes += report.truncated_bytes;
            recovery.stale_frames += report.stale_frames;
            merged.extend(ops.into_iter().map(|op| (i, op)));
            wals.push(Arc::new(wal));
        }
        merged.sort_by_key(|(_, op)| op.lsn());

        // Replay in global LSN order, stopping at the first gap.
        let mut expected = m.next_lsn;
        let mut replayed = 0usize;
        'replay: for (shard, op) in &merged {
            if op.lsn() < expected {
                // Absorbed by a newer snapshot of this very directory.
                recovery.stale_frames += 1;
                continue;
            }
            if op.lsn() > expected {
                break; // gap: the prefix ends here
            }
            let s = *shard;
            match op {
                WalOp::Insert {
                    global,
                    local,
                    values,
                    ..
                } => {
                    let (g, l) = (*global as usize, *local as usize);
                    if g > map.len() || l > indexes[s].len() {
                        break 'replay;
                    }
                    if l == indexes[s].len() {
                        indexes[s]
                            .insert_series(&TimeSeries::new(values.clone()))
                            .map_err(ShardError::from)?;
                    }
                    if g == map.len() {
                        let (pg, pl) = map.push(s);
                        if (pg, pl) != (g, l) {
                            return Err(bad(format!(
                                "wal frame for global {g} (shard {s}, local {l}) does not \
                                 extend the manifest mapping (next is {pg}/{pl})"
                            )));
                        }
                    } else if map.locate(g) != Some((s, l)) {
                        return Err(bad(format!(
                            "wal frame for global {g} contradicts the manifest mapping"
                        )));
                    }
                }
                WalOp::Delete { global, local, .. } => {
                    let (g, l) = (*global as usize, *local as usize);
                    if g >= map.len() {
                        break 'replay;
                    }
                    // Idempotent: Ok(false) when the snapshot already
                    // carries the tombstone.
                    indexes[s].delete_series(l).map_err(ShardError::from)?;
                }
            }
            expected += 1;
            replayed += 1;
        }
        recovery.replayed = replayed;
        recovery.dropped = merged.iter().filter(|(_, op)| op.lsn() >= expected).count();

        // After replay every surplus snapshot sequence must be mapped.
        for (i, idx) in indexes.iter().enumerate() {
            if idx.len() != map.globals_of(i).len() {
                return Err(bad(format!(
                    "shard {i} holds {} sequences but manifest+wal map {} — \
                     the log does not belong to this index",
                    idx.len(),
                    map.globals_of(i).len()
                )));
            }
        }

        let sharded = Self {
            shards: indexes.into_iter().map(SharedIndex::new).collect(),
            map: RwLock::new(map),
            insert_gate: Mutex::new(()),
            partitioner: Partitioner::new(m.kind, m.shards),
            kind: m.kind,
            seq_len: m.seq_len,
            epoch: AtomicU64::new(m.epoch),
            next_lsn: AtomicU64::new(expected),
            wals: Some(wals),
            durable_dir: Some(dir.to_path_buf()),
            poisoned: AtomicBool::new(false),
            stats: Arc::new(StatsRegistry::new()),
            mutations: AtomicU64::new(0),
            _dir_lock: Some(lock),
        };
        if recovery.dropped > 0 && !faulted {
            // Dropped frames would collide with the LSNs of future
            // appends; fold the recovered prefix into a fresh epoch,
            // which resets every shard log.
            sharded.checkpoint()?;
        }
        Ok((sharded, recovery))
    }

    /// Whether this index logs mutations to per-shard WALs.
    pub fn is_durable(&self) -> bool {
        self.wals.is_some()
    }

    /// The planner-statistics registry of this shard group.
    pub fn stats(&self) -> &Arc<StatsRegistry> {
        &self.stats
    }

    /// The cache epoch of the current state: checkpoint epoch plus the
    /// mutation counter (see [`simquery::plan::QueryEpoch`]).
    pub fn query_epoch(&self) -> QueryEpoch {
        QueryEpoch {
            epoch: self.epoch.load(Ordering::Relaxed),
            mutations: self.mutations.load(Ordering::Acquire),
        }
    }

    /// Whether an earlier WAL append failure poisoned this index (see
    /// [`ShardError::Poisoned`]). Queries still serve; mutations and
    /// checkpoints are rejected until the index is reopened.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Current checkpoint epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Aggregate WAL counters across shards, when durable.
    pub fn wal_stats(&self) -> Option<WalStats> {
        let wals = self.wals.as_ref()?;
        Some(wals.iter().fold(WalStats::default(), |acc, w| {
            let s = w.stats();
            WalStats {
                appends: acc.appends + s.appends,
                fsyncs: acc.fsyncs + s.fsyncs,
                replayed: acc.replayed + s.replayed,
                truncated_bytes: acc.truncated_bytes + s.truncated_bytes,
            }
        }))
    }

    /// Forces every shard log to stable storage (the `SYNC` op).
    /// `Ok(false)` when the index has no WALs.
    pub fn sync_wal(&self) -> Result<bool, ShardError> {
        let Some(wals) = &self.wals else {
            return Ok(false);
        };
        for w in wals {
            w.sync()?;
        }
        Ok(true)
    }

    /// Checkpoints a durable index: quiesces all mutations (insert gate +
    /// every shard's write guard), syncs the logs, saves every shard
    /// atomically stamped with the next epoch, commits the epoch in
    /// `sharding.txt` (the atomic commit point), then resets every shard
    /// log. Returns the new epoch, or `None` for a non-durable index.
    ///
    /// A crash before the manifest commit leaves epoch-N snapshots-plus-
    /// logs (replayed idempotently); a crash after it leaves stale
    /// epoch-N logs under an epoch-N+1 manifest (discarded at open).
    pub fn checkpoint(&self) -> Result<Option<u64>, ShardError> {
        let (Some(wals), Some(dir)) = (&self.wals, &self.durable_dir) else {
            return Ok(None);
        };
        let _gate = self.insert_gate.lock();
        // A poisoned index holds an applied-but-unlogged mutation that
        // was never acknowledged; folding it into a snapshot would make
        // the recovered state more than the acknowledged prefix.
        if self.poisoned.load(Ordering::Acquire) {
            return Err(ShardError::Poisoned);
        }
        let guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        for w in wals {
            w.sync()?;
        }
        let new_epoch = self.epoch.load(Ordering::Relaxed) + 1;
        std::fs::create_dir_all(dir)?;
        for (i, g) in guards.iter().enumerate() {
            g.save_with_epoch(&dir.join(format!("shard-{i}")), new_epoch)?;
        }
        self.write_manifest(dir, new_epoch)?;
        for w in wals {
            w.install_epoch(new_epoch)?;
        }
        self.epoch.store(new_epoch, Ordering::Relaxed);
        Ok(Some(new_epoch))
    }
}

/// Sums per-shard access counters.
pub(crate) fn sum_counters(per: &[AccessCounters]) -> AccessCounters {
    per.iter()
        .fold(AccessCounters::default(), |acc, c| AccessCounters {
            node_reads: acc.node_reads + c.node_reads,
            record_page_reads: acc.record_page_reads + c.record_page_reads,
            record_fetches: acc.record_fetches + c.record_fetches,
        })
}

/// Parsed `sharding.txt`.
struct ShardManifest {
    shards: usize,
    kind: PartitionerKind,
    seq_len: usize,
    assignment: Vec<usize>,
    epoch: u64,
    next_lsn: u64,
}

fn read_shard_manifest(dir: &Path) -> std::io::Result<ShardManifest> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let meta = std::fs::read_to_string(dir.join("sharding.txt"))?;
    let mut lines = meta.lines();
    if lines.next() != Some("simshard v1") {
        return Err(bad("not a simshard directory".into()));
    }
    let mut m = ShardManifest {
        shards: 0,
        kind: PartitionerKind::Hash,
        seq_len: 0,
        assignment: Vec::new(),
        // Pre-durability manifests carry neither line; they are at the
        // initial epoch with no LSNs ever allocated.
        epoch: 1,
        next_lsn: 1,
    };
    for line in lines {
        match line.split_once(' ') {
            Some(("shards", v)) => {
                m.shards = v
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
            Some(("next_lsn", v)) => {
                m.next_lsn = v
                    .trim()
                    .parse()
                    .map_err(|e| bad(format!("bad next_lsn: {e}")))?;
            }
            Some(("assignment", v)) if !v.trim().is_empty() => {
                m.assignment = v
                    .trim()
                    .split(',')
                    .map(|s| s.parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| bad(format!("bad assignment entry: {e}")))?;
            }
            _ => {}
        }
    }
    if m.shards == 0 || m.shards > crate::cfg::MAX_SHARDS {
        return Err(bad(format!("shard count {} out of range", m.shards)));
    }
    if m.assignment.iter().any(|&s| s >= m.shards) {
        return Err(bad("assignment references a missing shard".into()));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseries::CorpusKind;

    fn corpus(n: usize) -> Corpus {
        Corpus::generate(CorpusKind::SyntheticWalks, n, 64, 11)
    }

    fn sharded(n: usize, shards: usize) -> ShardedIndex {
        ShardedIndex::build(
            &corpus(n),
            ShardConfig::new(shards).unwrap(),
            IndexConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn build_partitions_everything() {
        let s = sharded(100, 4);
        assert_eq!(s.len(), 100);
        assert_eq!(s.shard_count(), 4);
        assert_eq!(s.shard_loads().iter().sum::<usize>(), 100);
        for g in 0..100 {
            let (shard, local) = s.locate(g).unwrap();
            assert_eq!(s.map_snapshot().global_of(shard, local), g);
        }
    }

    #[test]
    fn too_many_shards_for_corpus_is_typed() {
        let c = corpus(3);
        let err = ShardedIndex::build(&c, ShardConfig::new(8).unwrap(), IndexConfig::default())
            .unwrap_err();
        assert!(matches!(err, ShardError::EmptyShard(_)), "{err}");
    }

    #[test]
    fn insert_and_delete_roundtrip() {
        let s = sharded(40, 4);
        let extra = corpus(200); // different globals, same seed family
        let g = s.insert_series(&extra.series()[150]).unwrap();
        assert_eq!(g, 40);
        assert_eq!(s.len(), 41);
        let got = s.fetch_series(g).unwrap();
        assert_eq!(got.values(), extra.series()[150].values());
        assert!(s.delete_series(g).unwrap());
        assert!(!s.delete_series(g).unwrap(), "double delete reports false");
        assert_eq!(s.deleted_count(), 1);
        assert!(!s.delete_series(10_000).unwrap());
    }

    #[test]
    fn range_inserts_refill_tombstoned_shards() {
        let s = ShardedIndex::build(
            &corpus(40),
            ShardConfig {
                shards: 4,
                partitioner: PartitionerKind::Range,
            },
            IndexConfig::default(),
        )
        .unwrap();
        // Range chunks put globals 30..40 on shard 3; tombstone them all.
        for g in 30..40 {
            assert_eq!(s.locate(g).unwrap().0, 3);
            assert!(s.delete_series(g).unwrap());
        }
        // Mapped loads are still equal, but shard 3 has no live sequences,
        // so the least-*live*-loaded placement picks it.
        let extra = corpus(41);
        let g = s.insert_series(&extra.series()[40]).unwrap();
        assert_eq!(
            s.locate(g).unwrap().0,
            3,
            "insert should refill the tombstoned shard"
        );
    }

    #[test]
    fn counters_aggregate_across_shards() {
        let s = sharded(60, 3);
        s.reset_counters().unwrap();
        for g in [0usize, 20, 40] {
            let _ = s.fetch_series(g).unwrap();
        }
        let total = s.counters();
        assert_eq!(total.record_fetches, 3);
        let per: u64 = s
            .per_shard_counters()
            .iter()
            .map(|c| c.record_fetches)
            .sum();
        assert_eq!(per, total.record_fetches);
    }

    #[test]
    fn save_open_preserves_mapping() {
        let dir = std::env::temp_dir()
            .join("simshard-tests")
            .join(format!("save-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = sharded(50, 4);
        s.delete_series(7).unwrap();
        s.save(&dir).unwrap();
        let reopened = ShardedIndex::open(&dir, 16).unwrap();
        assert_eq!(reopened.len(), 50);
        assert_eq!(reopened.shard_count(), 4);
        assert_eq!(reopened.deleted_count(), 1);
        for g in 0..50 {
            assert_eq!(reopened.locate(g), s.locate(g));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_manifest_seq_len_mismatch() {
        let dir = std::env::temp_dir()
            .join("simshard-tests")
            .join(format!("seq-len-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        sharded(20, 2).save(&dir).unwrap();
        let manifest = dir.join("sharding.txt");
        // Drop the seq_len line: the implicit 0 must not silently make
        // every query fail family validation against intact shard data.
        let stripped: String = std::fs::read_to_string(&manifest)
            .unwrap()
            .lines()
            .filter(|l| !l.starts_with("seq_len"))
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(&manifest, stripped).unwrap();
        let err = ShardedIndex::open(&dir, 16).unwrap_err();
        assert!(err.to_string().contains("seq_len"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_append_failure_poisons_but_keeps_map_consistent() {
        let root = std::env::temp_dir()
            .join("simshard-tests")
            .join(format!("poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let idx_dir = root.join("idx");
        let wal_dir = root.join("wal");
        sharded(20, 2).save(&idx_dir).unwrap();
        let (s, _) =
            ShardedIndex::open_durable(&idx_dir, &wal_dir, 16, FsyncPolicy::Always).unwrap();
        let extra = corpus(30);
        s.insert_series(&extra.series()[20]).unwrap();
        for w in s.wals.as_ref().unwrap() {
            w.arm_append_fault();
        }
        let err = s.insert_series(&extra.series()[21]).unwrap_err();
        assert!(matches!(err, DurableError::Wal(_)), "{err}");
        assert!(s.is_poisoned());
        // The failed insert stays applied *and mapped*, so every shard
        // still agrees with the global map …
        assert_eq!(s.len(), 22);
        let snapshot = s.map_snapshot();
        for (i, sh) in s.shards().iter().enumerate() {
            assert_eq!(sh.read().len(), snapshot.globals_of(i).len());
        }
        // … and every further mutation/checkpoint is refused, so no LSN
        // above the hole can ever be acknowledged.
        assert!(matches!(
            s.insert_series(&extra.series()[22]).unwrap_err(),
            DurableError::Poisoned
        ));
        assert!(matches!(
            s.delete_series(0).unwrap_err(),
            DurableError::Poisoned
        ));
        assert!(matches!(s.checkpoint().unwrap_err(), ShardError::Poisoned));
        drop(s);
        // A reopen recovers exactly the acknowledged prefix and resumes.
        let (s, rep) =
            ShardedIndex::open_durable(&idx_dir, &wal_dir, 16, FsyncPolicy::Always).unwrap();
        assert_eq!(rep.replayed, 1, "only the acknowledged insert replays");
        assert_eq!(
            rep.dropped, 0,
            "the torn frame was rewound, not left behind"
        );
        assert_eq!(s.len(), 21);
        s.insert_series(&extra.series()[21]).unwrap();
        drop(s);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn save_quiesces_concurrent_inserts() {
        let root = std::env::temp_dir()
            .join("simshard-tests")
            .join(format!("save-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let s = sharded(24, 4);
        let extra = corpus(64);
        std::thread::scope(|scope| {
            let (s, extra) = (&s, &extra);
            scope.spawn(move || {
                for i in 24..64 {
                    s.insert_series(&extra.series()[i]).unwrap();
                }
            });
            for round in 0..8 {
                let dir = root.join(format!("snap-{round}"));
                s.save(&dir).unwrap();
                // Every snapshot must be internally consistent: open
                // rejects a manifest that disagrees with shard contents,
                // which an insert racing the shard saves would produce.
                ShardedIndex::open(&dir, 16).unwrap();
            }
        });
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn from_index_replays_tombstones() {
        let c = corpus(30);
        let mut single = SeqIndex::build(&c, IndexConfig::default()).unwrap();
        single.delete_series(4).unwrap();
        single.delete_series(17).unwrap();
        let s = ShardedIndex::from_index(
            &single,
            ShardConfig::new(3).unwrap(),
            IndexConfig::default(),
        )
        .unwrap();
        assert_eq!(s.len(), 30);
        assert_eq!(s.deleted_count(), 2);
    }
}
