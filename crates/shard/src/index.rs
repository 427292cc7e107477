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
//! On a *durable* index the gate serves a second role: it is the guard
//! the group's one [`Journal`] logs under. Every mutation — deletes
//! included — applies on its shard and is appended while holding it, so
//! the log's order is the order the mutations were acknowledged in, and
//! recovery is a replay of that one log through `apply`.

use crate::cfg::{PartitionerKind, ShardConfig};
use crate::partition::{Partitioner, ShardMap};
use pagestore::sync::{Mutex, RwLock};
use pagestore::{PageDevice, PageError};
use simquery::index::{AccessCounters, DeviceWrap, IndexConfig, SeqIndex};
use simquery::journal::Journal;
use simquery::plan::QueryEpoch;
use simquery::report::QueryError;
use simquery::shared::{DurableError, SharedIndex};
use simquery::stats::StatsRegistry;
use simwal::{DirLock, FsyncPolicy, ReplayReport, WalError, WalOp, WalStats};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tseries::{Corpus, TimeSeries};

/// Errors raised while building a sharded index. The durable paths
/// (open with a log, mutate, sync, checkpoint) return [`DurableError`],
/// exactly like a single [`SharedIndex`].
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

/// A corpus partitioned across N independent [`SeqIndex`] shards.
pub struct ShardedIndex {
    shards: Vec<SharedIndex>,
    map: RwLock<ShardMap>,
    insert_gate: Mutex<()>,
    partitioner: Partitioner,
    kind: PartitionerKind,
    seq_len: usize,
    // Checkpoint epoch of `sharding.txt` (1 for fresh builds); the
    // authority the group's log is reconciled against.
    epoch: AtomicU64,
    // The group's one log when opened durably; frames are appended under
    // the insert gate and the owning shard's write guard, after the
    // mutation has applied.
    journal: Option<Journal>,
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
            shards.push(index);
        }
        let manifest = ShardManifest {
            shards: cfg.shards,
            kind: cfg.partitioner,
            seq_len: corpus.series_len(),
            assignment,
            epoch: 1,
        };
        Ok(Self::assemble(&manifest, shards, map, None, None))
    }

    fn assemble(
        m: &ShardManifest,
        shards: Vec<SeqIndex>,
        map: ShardMap,
        journal: Option<Journal>,
        lock: Option<DirLock>,
    ) -> Self {
        Self {
            shards: shards.into_iter().map(SharedIndex::new).collect(),
            map: RwLock::new(map),
            insert_gate: Mutex::new(()),
            partitioner: Partitioner::new(m.kind, m.shards),
            kind: m.kind,
            seq_len: m.seq_len,
            epoch: AtomicU64::new(m.epoch),
            journal,
            stats: Arc::new(StatsRegistry::new()),
            mutations: AtomicU64::new(0),
            _dir_lock: lock,
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
    /// index the mutation is applied, then logged *before* this returns
    /// (still under the gate and the shard's write guard, so log order is
    /// apply order).
    ///
    /// Only the receiving shard is write-locked; reads on the other N−1
    /// shards proceed throughout (see the module docs on locking).
    pub fn insert_series(&self, ts: &TimeSeries) -> Result<usize, DurableError> {
        let _gate = self.insert_gate.lock();
        self.check_journal()?;
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
        self.mutations.fetch_add(1, Ordering::Release);
        Ok(global)
    }

    /// Tombstones a global ordinal. `Ok(false)` when out of range or
    /// already deleted. Write-locks only the owning shard; on a durable
    /// index an effective delete is logged before this returns, under the
    /// insert gate like every logged mutation.
    pub fn delete_series(&self, global: usize) -> Result<bool, DurableError> {
        let _gate = self.journal.is_some().then(|| self.insert_gate.lock());
        self.check_journal()?;
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

    fn check_journal(&self) -> Result<(), DurableError> {
        self.journal.as_ref().map_or(Ok(()), |j| j.check())
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
    /// persist a snapshot whose assignment disagrees with the shard
    /// contents — a state [`Self::open`] rejects.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        let _gate = self.insert_gate.lock();
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        self.save_quiesced(dir, &guards, self.epoch.load(Ordering::Relaxed))
    }

    /// Shard snapshots first, then the manifest — the commit point. The
    /// caller holds the insert gate and a guard on every shard.
    fn save_quiesced(
        &self,
        dir: &Path,
        guards: &[impl std::ops::Deref<Target = SeqIndex>],
        epoch: u64,
    ) -> std::io::Result<()> {
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
        let _ = writeln!(meta, "seq_len {}", self.seq_len);
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
        wrap: impl FnMut(usize) -> Option<DeviceWrap>,
        take_lock: bool,
    ) -> std::io::Result<Self> {
        let lock = if take_lock {
            Some(DirLock::acquire(dir).map_err(simquery::index::wal_to_io)?)
        } else {
            None
        };
        let (m, indexes) = load_snapshots(dir, heap_pool_pages, wrap, take_lock)?;
        let map = ShardMap::from_assignment(m.shards, &m.assignment);
        Self::opened(&m, indexes, map, None, lock)
    }

    /// The last step of every open: the shard snapshots (after replay, on
    /// a durable open) must hold exactly the sequences the map gives them.
    fn opened(
        m: &ShardManifest,
        indexes: Vec<SeqIndex>,
        map: ShardMap,
        journal: Option<Journal>,
        lock: Option<DirLock>,
    ) -> std::io::Result<Self> {
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        for (i, idx) in indexes.iter().enumerate() {
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
        let disk_len = indexes[0].seq_len();
        if m.seq_len != disk_len {
            return Err(bad(format!(
                "manifest seq_len {} does not match the on-disk sequence length {disk_len}",
                m.seq_len
            )));
        }
        Ok(Self::assemble(m, indexes, map, journal, lock))
    }

    /// Opens a persisted sharded index *with its write-ahead log*: one
    /// log for the whole group, directly in `wal_root`, reconciled against
    /// the `sharding.txt` epoch and replayed in order on top of the shard
    /// snapshots through `apply`. The recovered index is an exact prefix
    /// of the acknowledged mutation schedule, also from a half-finished
    /// checkpoint (shard snapshots ahead of the manifest).
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
        let lock = DirLock::acquire(dir)?;
        let (m, mut indexes) = load_snapshots(dir, heap_pool_pages, wrap, true)?;
        let mut map = ShardMap::from_assignment(m.shards, &m.assignment);
        let (journal, report) = Journal::open(dir, wal_root, policy, m.epoch, |op| {
            apply(&mut indexes, &mut map, op)
        })?;
        let sharded = Self::opened(&m, indexes, map, Some(journal), Some(lock))?;
        Ok((sharded, report))
    }

    /// Whether this index logs mutations to a WAL.
    pub fn is_durable(&self) -> bool {
        self.journal.is_some()
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
    /// [`DurableError::Poisoned`]). Queries still serve; mutations and
    /// checkpoints are rejected until the index is reopened.
    pub fn is_poisoned(&self) -> bool {
        self.journal.as_ref().is_some_and(|j| j.is_poisoned())
    }

    /// Current checkpoint epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// WAL counters, when durable.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.journal.as_ref().map(|j| j.stats())
    }

    /// Bytes of the log covered by the last fsync, when durable — the
    /// prefix a crash keeps (see [`SharedIndex::wal_durable_bytes`]).
    pub fn wal_durable_bytes(&self) -> Option<u64> {
        self.journal.as_ref().map(|j| j.durable_len())
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
    /// syncs the log, saves every shard atomically stamped with the next
    /// epoch, commits the epoch in `sharding.txt` (the atomic commit
    /// point), and resets the log. Returns the new epoch, or `None` for a
    /// non-durable index.
    ///
    /// A crash before the manifest commit leaves epoch-N snapshots plus
    /// the log (replayed idempotently); a crash after it leaves a stale
    /// epoch-N log under an epoch-N+1 manifest (discarded at open).
    pub fn checkpoint(&self) -> Result<Option<u64>, DurableError> {
        let Some(j) = &self.journal else {
            return Ok(None);
        };
        let _gate = self.insert_gate.lock();
        let guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        let epoch = j.checkpoint(0, |dir, epoch| self.save_quiesced(dir, &guards, epoch))?;
        self.epoch.store(epoch, Ordering::Relaxed);
        Ok(Some(epoch))
    }
}

/// The idempotent frame apply of a shard group — what recovery replays
/// the log through. The frame names its shard (placement is not
/// re-derivable: Range reads live loads, and a half-finished checkpoint
/// leaves shard snapshots ahead of the manifest); the local ordinal
/// follows from the map. An insert whose shard snapshot already holds it
/// only re-extends the map; a delete of a missing or tombstoned ordinal
/// is a no-op.
fn apply(indexes: &mut [SeqIndex], map: &mut ShardMap, op: &WalOp) -> Result<(), DurableError> {
    match op {
        WalOp::Insert {
            lsn,
            global,
            shard,
            values,
        } => {
            let (g, s) = (*global as usize, *shard as usize);
            // Where the frame landed: the next slot of its shard when it
            // extends the map; its mapped slot when the snapshots are
            // ahead of the manifest and replay revisits it.
            let slot = match map.locate(g) {
                Some((mapped, local)) if mapped == s => Some(local),
                None if g == map.len() && s < indexes.len() => Some(map.globals_of(s).len()),
                _ => None,
            };
            // Beyond the prefix, on a shard the group lacks or the
            // manifest disagrees with, or past the end of its shard's
            // snapshot: this log was not written over these snapshots.
            let Some(local) = slot.filter(|&l| l <= indexes[s].len()) else {
                return Err(DurableError::Gap {
                    lsn: *lsn,
                    global: *global,
                    len: map.len(),
                });
            };
            if local == indexes[s].len() {
                indexes[s].insert_series(&TimeSeries::new(values.clone()))?;
            }
            if g == map.len() {
                map.push(s);
            }
        }
        WalOp::Delete { global, .. } => {
            if let Some((s, local)) = map.locate(*global as usize) {
                indexes[s].delete_series(local)?;
            }
        }
    }
    Ok(())
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
}

/// Reads the manifest and opens every shard snapshot it names, through
/// `wrap`'s device wrappers where it returns one; `locked` picks between
/// the locking and the read-only open of a plain shard.
fn load_snapshots(
    dir: &Path,
    heap_pool_pages: usize,
    mut wrap: impl FnMut(usize) -> Option<DeviceWrap>,
    locked: bool,
) -> std::io::Result<(ShardManifest, Vec<SeqIndex>)> {
    let m = read_shard_manifest(dir)?;
    let mut indexes = Vec::with_capacity(m.shards);
    for i in 0..m.shards {
        let shard_dir = dir.join(format!("shard-{i}"));
        indexes.push(match (wrap(i), locked) {
            (None, true) => SeqIndex::open(&shard_dir, heap_pool_pages)?,
            (None, false) => SeqIndex::open_read_only(&shard_dir, heap_pool_pages)?,
            (Some(w), _) => SeqIndex::open_with(&shard_dir, heap_pool_pages, w)?,
        });
    }
    Ok((m, indexes))
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
        // Pre-durability manifests carry no epoch line; they are at the
        // initial epoch. (A `next_lsn` line, which earlier builds wrote,
        // is skipped like any unknown key.)
        epoch: 1,
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
        s.journal.as_ref().unwrap().arm_append_fault();
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
        assert!(matches!(
            s.checkpoint().unwrap_err(),
            DurableError::Poisoned
        ));
        drop(s);
        // A reopen recovers exactly the acknowledged prefix and resumes.
        let (s, rep) =
            ShardedIndex::open_durable(&idx_dir, &wal_dir, 16, FsyncPolicy::Always).unwrap();
        assert_eq!(rep.frames, 1, "only the acknowledged insert replays");
        assert_eq!(
            rep.truncated_bytes, 0,
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
