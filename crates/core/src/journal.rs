//! [`Journal`]: the one durable write path of an index.
//!
//! An index group ([`crate::shard::ShardedIndex`], of one shard or many)
//! keeps one ordered log. The journal owns that log together with the
//! three things every durable mutation needs beside it: the LSN
//! allocator, the poison flag, and the directory checkpoints are saved
//! to. The group hands [`Journal::open`] its idempotent `apply(op)` and
//! calls [`Journal::log`] under its own mutation guard, after the
//! mutation has applied, so log order is apply order.

use crate::shared::DurableError;
use simwal::{FsyncPolicy, ReplayReport, Wal, WalOp, WalStats};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// An index's write-ahead log plus its LSN allocator, poison flag and
/// snapshot directory.
#[derive(Debug)]
pub struct Journal {
    wal: Wal,
    snapshot_dir: PathBuf,
    next_lsn: AtomicU64,
    /// Set when an append failed after its mutation applied: the live
    /// state holds an op the log does not, so no later mutation may be
    /// acknowledged (replay would surface it without its predecessor).
    poisoned: AtomicBool,
}

impl Journal {
    /// Opens (or creates) the log in `wal_dir`, reconciled against the
    /// `snapshot_epoch` of the snapshot in `snapshot_dir` (see
    /// [`Wal::open`]), and replays every intact frame, in log order,
    /// through `apply` — which must be idempotent, because a crash
    /// between a checkpoint's snapshot and its log reset leaves frames
    /// the snapshot already holds. The first `apply` error aborts the
    /// open with the log untouched.
    pub fn open(
        snapshot_dir: &Path,
        wal_dir: &Path,
        policy: FsyncPolicy,
        snapshot_epoch: u64,
        mut apply: impl FnMut(&WalOp) -> Result<(), DurableError>,
    ) -> Result<(Self, ReplayReport), DurableError> {
        let (wal, ops, report) = Wal::open(wal_dir, policy, snapshot_epoch)?;
        let mut max_lsn = 0;
        for op in &ops {
            apply(op)?;
            max_lsn = max_lsn.max(op.lsn());
        }
        let journal = Self {
            wal,
            snapshot_dir: snapshot_dir.to_path_buf(),
            next_lsn: AtomicU64::new(max_lsn + 1),
            poisoned: AtomicBool::new(false),
        };
        Ok((journal, report))
    }

    /// Refuses with [`DurableError::Poisoned`] once an append has failed.
    /// Mutations call this under their guard, before touching state.
    pub fn check(&self) -> Result<(), DurableError> {
        if self.is_poisoned() {
            return Err(DurableError::Poisoned);
        }
        Ok(())
    }

    /// Logs a locally originated mutation: allocates the next LSN, builds
    /// the frame with it and appends. The caller holds the guard that
    /// serialises its mutations and has already applied this one; on
    /// failure the journal is poisoned, because the live state is now
    /// ahead of the log.
    pub fn log(&self, op: impl FnOnce(u64) -> WalOp) -> Result<(), DurableError> {
        self.append(&op(self.next_lsn.fetch_add(1, Ordering::Relaxed)))
    }

    /// Logs a frame shipped from a replication primary under the
    /// primary's own LSN, and keeps the allocator strictly ahead of it so
    /// a promoted follower can never reuse a shipped LSN.
    pub fn log_shipped(&self, op: &WalOp) -> Result<(), DurableError> {
        self.append(op)?;
        self.next_lsn.fetch_max(op.lsn() + 1, Ordering::Relaxed);
        Ok(())
    }

    fn append(&self, op: &WalOp) -> Result<(), DurableError> {
        self.wal.append(op).map_err(|e| {
            self.poisoned.store(true, Ordering::Release);
            e.into()
        })
    }

    /// Checkpoints: syncs the log, has `save` write the snapshot stamped
    /// with the new epoch into the snapshot directory, then installs that
    /// epoch (manifest bump + log reset). The new epoch is one past the
    /// log's own and past `floor` (a promotion passes the epochs it must
    /// outrun; a plain checkpoint passes 0). The caller holds the guard
    /// that excludes every mutation. A crash at any point leaves a
    /// recoverable state — see the crash matrix in DESIGN.md §5.
    ///
    /// Refused on a poisoned journal: the applied-but-unlogged mutation
    /// was never acknowledged, and folding it into a snapshot would make
    /// the recovered state more than the acknowledged prefix.
    pub fn checkpoint(
        &self,
        floor: u64,
        save: impl FnOnce(&Path, u64) -> std::io::Result<()>,
    ) -> Result<u64, DurableError> {
        self.check()?;
        self.wal.sync()?;
        let new_epoch = self.wal.epoch().max(floor) + 1;
        save(&self.snapshot_dir, new_epoch)?;
        self.wal.install_epoch(new_epoch)?;
        Ok(new_epoch)
    }

    /// Whether an append failure poisoned the journal (see
    /// [`Self::check`]).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// The next LSN [`Self::log`] would allocate — the exclusive upper
    /// bound of the log's coverage.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn.load(Ordering::Relaxed)
    }

    /// Moves the allocator to `lsn`: an installed replica snapshot
    /// resumes the primary's stream there.
    pub fn set_next_lsn(&self, lsn: u64) {
        self.next_lsn.store(lsn, Ordering::Relaxed);
    }

    /// Forces every appended frame to stable storage (see [`Wal::sync`]).
    pub fn sync(&self) -> Result<(), DurableError> {
        Ok(self.wal.sync()?)
    }

    /// Counter snapshot of the log.
    pub fn stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// The checkpoint epoch the log is at.
    pub fn epoch(&self) -> u64 {
        self.wal.epoch()
    }

    /// The persisted fencing token (see [`Wal::fence`]).
    pub fn fence(&self) -> u64 {
        self.wal.fence()
    }

    /// Persists a new fencing token (see [`Wal::set_fence`]).
    pub fn set_fence(&self, fence: u64) -> Result<(), DurableError> {
        Ok(self.wal.set_fence(fence)?)
    }

    /// Bytes of the log covered by the last fsync (see
    /// [`Wal::durable_len`]).
    pub fn durable_len(&self) -> u64 {
        self.wal.durable_len()
    }

    /// Reads frames from the durable prefix (see
    /// [`Wal::frames_since_hinted`]).
    pub fn frames_since_hinted(
        &self,
        from_lsn: u64,
        max: usize,
        hint: Option<(u64, u64)>,
    ) -> Result<(Vec<WalOp>, (u64, u64)), DurableError> {
        Ok(self.wal.frames_since_hinted(from_lsn, max, hint)?)
    }

    /// Arms a one-shot append fault (see [`Wal::arm_append_fault`]) for
    /// the suites that exercise the poison path.
    pub fn arm_append_fault(&self) {
        self.wal.arm_append_fault();
    }
}
