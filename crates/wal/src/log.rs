//! The write-ahead log proper: an epoch-stamped append-only frame file
//! plus the `MANIFEST` that records which checkpoint epoch the log
//! belongs to. See the crate docs for the recovery/checkpoint protocol.

use crate::frame::{decode_frames, encode_frame, WalOp};
use crate::lock::DirLock;
use crate::{atomic_write, sync_dir, WalError};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Name of the frame file inside a WAL directory.
pub const LOG_FILE: &str = "wal.log";
/// Name of the epoch manifest inside a WAL directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

const MAGIC: &[u8; 8] = b"SIMWALOG";
/// Length of the log-file header (magic + epoch).
pub const HEADER_LEN: u64 = 16;

/// When appended frames are forced to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Every append fsyncs before returning — no acknowledged mutation is
    /// ever lost, at one `fdatasync` per mutation.
    Always,
    /// Fsync once every `n` appends. A crash loses at most the last
    /// `n - 1` acknowledged mutations (still recovering to an exact
    /// prefix — the window bounds *how much* tail, never correctness).
    EveryN(u32),
    /// Never fsync from the append path; durability rides on the OS page
    /// cache and explicit [`Wal::sync`] / checkpoint calls.
    Never,
}

impl FsyncPolicy {
    /// Parses `always`, `never`, or a decimal `n` (meaning `EveryN(n)`;
    /// `0` and `1` both mean `Always`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "always" => Some(Self::Always),
            "never" => Some(Self::Never),
            _ => match s.parse::<u32>() {
                Ok(0) | Ok(1) => Some(Self::Always),
                Ok(n) => Some(Self::EveryN(n)),
                Err(_) => None,
            },
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Always => write!(f, "always"),
            Self::EveryN(n) => write!(f, "every{n}"),
            Self::Never => write!(f, "never"),
        }
    }
}

/// What [`Wal::open`] did to bring the log to a clean state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Epoch the log is now at.
    pub epoch: u64,
    /// Intact frames handed back for replay.
    pub frames: usize,
    /// Bytes of torn tail truncated from the end of the log.
    pub truncated_bytes: u64,
    /// Frames discarded because the log's epoch predated the snapshot —
    /// their effects are already inside the checkpoint that superseded
    /// them.
    pub stale_frames: usize,
}

/// Monotone counters for the `STATS` surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Frames appended since open.
    pub appends: u64,
    /// Fsyncs issued (append-path, explicit, and epoch installs).
    pub fsyncs: u64,
    /// Frames replayed at open.
    pub replayed: u64,
    /// Torn-tail bytes truncated at open.
    pub truncated_bytes: u64,
}

struct Inner {
    file: File,
    epoch: u64,
    /// Fencing token from the manifest: the minimum epoch this node may
    /// accept writes at (`0` = unfenced). A node whose `epoch` is below
    /// its fence has been superseded by a promoted peer and must stay
    /// read-only until it re-syncs onto the new timeline.
    fence: u64,
    since_sync: u32,
    /// File length after the last fully-written frame (or the header).
    /// A failed append rewinds here so its torn bytes can never sit in
    /// front of later frames — replay truncates at the first bad frame,
    /// which would silently discard every acknowledged successor.
    good_len: u64,
    /// File length covered by the last successful fsync — the prefix a
    /// crash is guaranteed to keep. Everything in `durable_len..good_len`
    /// is written but rides on the page cache (`FsyncPolicy::EveryN` /
    /// `Never` between syncs) and may not survive. The replication
    /// catch-up reader serves only from this prefix (syncing first to
    /// extend it), so no follower can ever hold a frame a restarted
    /// primary lost.
    durable_len: u64,
    /// Set when the tail state became unknowable (a rewind failed, or an
    /// fsync error made the page cache untrustworthy). All further
    /// appends/syncs fail with [`WalError::Poisoned`].
    poisoned: bool,
}

/// An open write-ahead log: exclusive owner of its directory (advisory
/// lock held for the struct's lifetime), safe to share behind an `Arc`
/// and append from any thread.
pub struct Wal {
    dir: PathBuf,
    policy: FsyncPolicy,
    inner: Mutex<Inner>,
    appends: AtomicU64,
    fsyncs: AtomicU64,
    replayed: u64,
    truncated: u64,
    // One-shot injected faults (see `arm_append_fault`, `arm_sync_fault`).
    fail_next_append: AtomicBool,
    fail_next_sync: AtomicBool,
    _lock: DirLock,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

fn header_bytes(epoch: u64) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[..8].copy_from_slice(MAGIC);
    h[8..].copy_from_slice(&epoch.to_le_bytes());
    h
}

fn write_manifest(dir: &Path, epoch: u64, fence: u64) -> Result<(), WalError> {
    let mut text = format!("simwal v1\nepoch {epoch}\n");
    if fence > 0 {
        // The fencing token: the minimum epoch this node may accept
        // writes at. Omitted when unset, so pre-failover manifests and
        // unfenced nodes keep the two-line format older readers expect.
        text.push_str(&format!("fence {fence}\n"));
    }
    atomic_write(&dir.join(MANIFEST_FILE), text.as_bytes())?;
    Ok(())
}

fn read_manifest(dir: &Path) -> Result<Option<(u64, u64)>, WalError> {
    let text = match fs::read_to_string(dir.join(MANIFEST_FILE)) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut lines = text.lines();
    if lines.next() != Some("simwal v1") {
        return Err(WalError::Corrupt(
            "manifest header is not `simwal v1`".into(),
        ));
    }
    let epoch = match lines.next().and_then(|l| l.strip_prefix("epoch ")) {
        Some(n) => n
            .trim()
            .parse()
            .map_err(|_| WalError::Corrupt("manifest epoch is not a number".into()))?,
        None => return Err(WalError::Corrupt("manifest has no epoch line".into())),
    };
    let fence = match lines.next().and_then(|l| l.strip_prefix("fence ")) {
        Some(n) => n
            .trim()
            .parse()
            .map_err(|_| WalError::Corrupt("manifest fence is not a number".into()))?,
        None => 0,
    };
    Ok(Some((epoch, fence)))
}

impl Wal {
    /// Opens (or creates) the WAL in `dir`, reconciling it against the
    /// paired snapshot's `snapshot_epoch`, and returns the log handle plus
    /// every intact frame of the current epoch for the caller to replay.
    ///
    /// Reconciliation, in order:
    /// - manifest epoch **ahead of** the snapshot → [`WalError::EpochMismatch`]
    ///   (this log belongs to some other index);
    /// - manifest epoch **behind** the snapshot → the crash hit between
    ///   snapshot install and manifest bump; the manifest is re-bumped and
    ///   the old-epoch log discarded (the snapshot already contains it);
    /// - log header epoch behind the manifest → same discard;
    /// - otherwise the frame body is scanned, the torn tail (if any)
    ///   physically truncated, and the intact frames returned.
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        snapshot_epoch: u64,
    ) -> Result<(Self, Vec<WalOp>, ReplayReport), WalError> {
        let lock = DirLock::acquire(dir)?;
        let manifest = read_manifest(dir)?;
        let fence = manifest.map_or(0, |(_, f)| f);
        let epoch = match manifest {
            Some((m, _)) if m > snapshot_epoch => {
                return Err(WalError::EpochMismatch {
                    wal: m,
                    snapshot: snapshot_epoch,
                })
            }
            Some((m, _)) if m == snapshot_epoch => m,
            _ => {
                // Missing or behind: (re)install the snapshot's epoch
                // (keeping any fencing token — a crash can never unfence
                // a demoted node).
                write_manifest(dir, snapshot_epoch, fence)?;
                snapshot_epoch
            }
        };

        let log_path = dir.join(LOG_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&log_path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;

        let mut report = ReplayReport {
            epoch,
            ..Default::default()
        };
        let mut ops = Vec::new();
        let fresh = |file: &mut File| -> Result<(), WalError> {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&header_bytes(epoch))?;
            file.sync_all()?;
            Ok(())
        };
        if buf.len() >= 8 && &buf[..8] != MAGIC {
            return Err(WalError::Corrupt(format!(
                "{} does not start with the SIMWALOG magic",
                log_path.display()
            )));
        }
        if buf.len() < HEADER_LEN as usize {
            // Brand-new log, or a crash tore the very first header write.
            fresh(&mut file)?;
        } else {
            let log_epoch = u64::from_le_bytes(buf[8..16].try_into().unwrap());
            if log_epoch > epoch {
                return Err(WalError::EpochMismatch {
                    wal: log_epoch,
                    snapshot: epoch,
                });
            }
            let (frames, consumed) = decode_frames(&buf[HEADER_LEN as usize..]);
            if log_epoch < epoch {
                // Every frame predates the checkpoint that defined
                // `epoch`; the snapshot already holds their effects.
                report.stale_frames = frames.len();
                fresh(&mut file)?;
            } else {
                let keep = HEADER_LEN + consumed as u64;
                let total = buf.len() as u64;
                if keep < total {
                    report.truncated_bytes = total - keep;
                    file.set_len(keep)?;
                    file.sync_all()?;
                }
                report.frames = frames.len();
                ops = frames;
            }
        }
        let good_len = file.seek(SeekFrom::End(0))?;
        // The fresh/truncate paths synced above; sync the clean path too,
        // so everything `open` read (possibly written-but-unsynced by the
        // previous owner) is durable and `durable_len` may start at
        // `good_len`.
        file.sync_all()?;
        sync_dir(dir)?;

        let wal = Self {
            dir: dir.to_path_buf(),
            policy,
            inner: Mutex::new(Inner {
                file,
                epoch,
                fence,
                since_sync: 0,
                good_len,
                durable_len: good_len,
                poisoned: false,
            }),
            appends: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            replayed: report.frames as u64,
            truncated: report.truncated_bytes,
            fail_next_append: AtomicBool::new(false),
            fail_next_sync: AtomicBool::new(false),
            _lock: lock,
        };
        Ok((wal, ops, report))
    }

    /// Appends one frame, fsyncing according to the policy. The caller
    /// must have already *applied* the mutation — an op reaches the log
    /// only after it is true of the in-memory index, so replay order is
    /// apply order.
    pub fn append(&self, op: &WalOp) -> Result<(), WalError> {
        let _span = simobs::trace::span("wal.append");
        let frame = encode_frame(op);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.poisoned {
            return Err(WalError::Poisoned {
                dir: self.dir.clone(),
            });
        }
        let wrote = if self.fail_next_append.swap(false, Ordering::Relaxed) {
            // Injected torn write: half the frame reaches the file, then
            // the device "fails" — what a full disk mid-append does.
            let _ = inner.file.write_all(&frame[..frame.len() / 2]);
            Err(std::io::Error::other("injected wal append fault"))
        } else {
            inner.file.write_all(&frame)
        };
        if let Err(e) = wrote {
            // The file may now end in a torn prefix of this frame. Rewind
            // to the last good frame so the failed (never-acknowledged)
            // append cannot sit in front of frames appended later; if the
            // rewind itself fails, poison the log so later mutations fail
            // instead of being acked-but-unrecoverable.
            let good = inner.good_len;
            let rewound =
                inner.file.set_len(good).is_ok() && inner.file.seek(SeekFrom::Start(good)).is_ok();
            inner.poisoned = !rewound;
            return Err(e.into());
        }
        inner.since_sync += 1;
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => inner.since_sync >= n,
            FsyncPolicy::Never => false,
        };
        if due {
            let _fsync_span = simobs::trace::span("wal.fsync");
            if let Err(e) = self.fsync(&inner.file) {
                // After a failed fsync the kernel may have dropped the
                // dirty tail; nothing past durable_len can be trusted.
                inner.poisoned = true;
                return Err(e.into());
            }
            inner.since_sync = 0;
            inner.durable_len = inner.good_len + frame.len() as u64;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        inner.good_len += frame.len() as u64;
        self.appends.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Forces everything appended so far to stable storage, regardless of
    /// policy (the `SYNC` protocol op).
    pub fn sync(&self) -> Result<(), WalError> {
        let _span = simobs::trace::span("wal.fsync");
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.poisoned {
            return Err(WalError::Poisoned {
                dir: self.dir.clone(),
            });
        }
        if let Err(e) = self.fsync(&inner.file) {
            inner.poisoned = true;
            return Err(e.into());
        }
        inner.since_sync = 0;
        inner.durable_len = inner.good_len;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Whether an earlier append/fsync failure left the log unusable (see
    /// [`WalError::Poisoned`]). A poisoned log still holds every frame
    /// appended before the failure; reopening replays that prefix.
    pub fn is_poisoned(&self) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .poisoned
    }

    /// Arms a one-shot deterministic append fault (the `simwal` analogue
    /// of [`pagestore`'s `FaultyDisk::arm`]): the next [`Self::append`]
    /// writes only half its frame and then fails with an injected
    /// `Io` error, simulating a crash/full-disk mid-append. Used by the
    /// crash-consistency suites to exercise the rewind/poison path.
    pub fn arm_append_fault(&self) {
        self.fail_next_append.store(true, Ordering::Relaxed);
    }

    /// Arms a one-shot fsync fault: the next fsync of the log's tail — a
    /// [`Self::sync`], a policy-due sync inside [`Self::append`], or the
    /// catch-up reader's — fails with an injected `Io` error, which
    /// poisons the log as a real fsync failure does.
    pub fn arm_sync_fault(&self) {
        self.fail_next_sync.store(true, Ordering::Relaxed);
    }

    /// `sync_data` of the log file, unless an armed fsync fault fires.
    fn fsync(&self, file: &File) -> std::io::Result<()> {
        if self.fail_next_sync.swap(false, Ordering::Relaxed) {
            return Err(std::io::Error::other("injected wal fsync fault"));
        }
        file.sync_data()
    }

    /// Completes a checkpoint: records `new_epoch` in the manifest, then
    /// resets the log to an empty file headed by `new_epoch`. The caller
    /// must have already installed a snapshot stamped with `new_epoch` —
    /// a crash before this call leaves the old manifest and a log the new
    /// snapshot supersedes, which [`Wal::open`] discards; a crash between
    /// the manifest bump and the log reset leaves a stale-epoch log,
    /// discarded the same way.
    pub fn install_epoch(&self, new_epoch: u64) -> Result<(), WalError> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        assert!(
            new_epoch > inner.epoch,
            "epoch must advance: {} -> {new_epoch}",
            inner.epoch
        );
        if inner.poisoned {
            return Err(WalError::Poisoned {
                dir: self.dir.clone(),
            });
        }
        // A manifest failure leaves the log file untouched (atomic_write
        // either installs the new manifest or leaves the old), so the old
        // epoch simply stays in force. A failure during the reset leaves
        // the file in an unknown half-reset state: poison.
        write_manifest(&self.dir, new_epoch, inner.fence)?;
        let reset = (|| {
            inner.file.set_len(0)?;
            inner.file.seek(SeekFrom::Start(0))?;
            inner.file.write_all(&header_bytes(new_epoch))?;
            inner.file.sync_all()
        })();
        if let Err(e) = reset {
            inner.poisoned = true;
            return Err(e.into());
        }
        inner.epoch = new_epoch;
        inner.since_sync = 0;
        inner.good_len = HEADER_LEN;
        inner.durable_len = HEADER_LEN;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Reads back every durable-prefix frame with `lsn >= from_lsn`, up
    /// to `max` frames (`0` = unlimited) — the replication **catch-up
    /// reader**. A follower that reconnects mid-epoch names the next LSN
    /// it expects; this serves the already-on-disk tail without touching
    /// the append path's file handle (a fresh read handle, bounded by the
    /// `durable_len` snapshot, so a concurrent append can never expose a
    /// torn frame to the stream).
    ///
    /// Frames are made durable *before* they are served: a written but
    /// unsynced tail (`EveryN`/`Never` policies) is fsynced first, so a
    /// frame a follower holds can never be lost by a primary crash — the
    /// shipped prefix is always a prefix of what recovery replays. On a
    /// lazily-synced primary this amounts to group commit driven by
    /// follower polls.
    ///
    /// `hint` is a resume cursor: a `(lsn, byte offset)` pair from a
    /// previous call claiming the frame carrying `lsn` starts at
    /// `offset`. A valid hint for `from_lsn` makes the read O(frames
    /// served) instead of O(log) — the steady-state cost of one follower
    /// tailing one primary. A hint that is stale, out of bounds, or
    /// simply wrong (the bytes there don't decode to `from_lsn`) silently
    /// degrades to the full scan, as `None` does; it can never change
    /// which frames are returned. Returns the frames plus the cursor to
    /// pass next time.
    pub fn frames_since_hinted(
        &self,
        from_lsn: u64,
        max: usize,
        hint: Option<(u64, u64)>,
    ) -> Result<(Vec<WalOp>, (u64, u64)), WalError> {
        let durable_len = self.sync_for_read()?;
        if let Some((lsn, offset)) = hint {
            if lsn == from_lsn && (HEADER_LEN..=durable_len).contains(&offset) {
                let got = self.scan_frames(from_lsn, max, offset, durable_len)?;
                // Below `durable_len` every frame is intact, so an empty
                // or mis-LSN'd decode means the hint pointed at garbage
                // (e.g. the log was truncated and regrown) — rescan.
                match got.0.first() {
                    Some(op) if op.lsn() == from_lsn => return Ok(got),
                    None if offset == durable_len => return Ok(got),
                    _ => {}
                }
            }
        }
        self.scan_frames(from_lsn, max, HEADER_LEN, durable_len)
    }

    /// Extends the durable prefix over everything appended so far (the
    /// shipped-implies-durable half of the replication guarantee) and
    /// returns its length. A no-op holding the lock only briefly when
    /// the log is already fully synced (`FsyncPolicy::Always`, or no
    /// appends since the last poll).
    fn sync_for_read(&self) -> Result<u64, WalError> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.durable_len < inner.good_len {
            if inner.poisoned {
                // The tail past durable_len is unknowable; refusing the
                // read beats shipping frames that may not survive.
                return Err(WalError::Poisoned {
                    dir: self.dir.clone(),
                });
            }
            if let Err(e) = self.fsync(&inner.file) {
                inner.poisoned = true;
                return Err(e.into());
            }
            inner.since_sync = 0;
            inner.durable_len = inner.good_len;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(inner.durable_len)
    }

    /// Length of the fsynced log prefix — the bytes a crash is
    /// guaranteed to keep (and the bound the catch-up reader serves
    /// under). Crash simulations truncate the file to this length.
    pub fn durable_len(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .durable_len
    }

    /// Decodes frames with `lsn >= from_lsn` starting at byte `start`,
    /// bounded by the `durable_len` durable-prefix snapshot.
    fn scan_frames(
        &self,
        from_lsn: u64,
        max: usize,
        start: u64,
        durable_len: u64,
    ) -> Result<(Vec<WalOp>, (u64, u64)), WalError> {
        let mut file = File::open(self.dir.join(LOG_FILE))?;
        file.seek(SeekFrom::Start(start))?;
        let body = durable_len.saturating_sub(start);
        let mut out = Vec::new();
        let mut last_lsn = None;
        let mut iter = crate::frame::FrameIter::new(file.take(body));
        for frame in &mut iter {
            let op = frame?;
            last_lsn = Some(op.lsn());
            if op.lsn() >= from_lsn {
                out.push(op);
                if max != 0 && out.len() >= max {
                    break;
                }
            }
        }
        // LSNs are contiguous, so the frame after the last one decoded
        // (served or skipped) carries its LSN + 1 and starts right where
        // decoding stopped.
        let cursor = (
            last_lsn.map_or(from_lsn, |l| l + 1),
            start + iter.consumed(),
        );
        Ok((out, cursor))
    }

    /// The epoch the log is currently at.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).epoch
    }

    /// The fencing token: the minimum epoch this node may accept writes
    /// at (`0` = unfenced).
    pub fn fence(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).fence
    }

    /// Whether the fencing token forbids writes at the current epoch —
    /// a peer was promoted past this node's timeline and this node has
    /// not yet re-synced onto it.
    pub fn is_fenced(&self) -> bool {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.fence > inner.epoch
    }

    /// Persists a new fencing token (`0` clears it). Durable before it
    /// returns — a fenced node that crashes restarts fenced — and
    /// deliberately *not* gated on poisoning: fencing is a safety
    /// property, and refusing to fence a broken node would let it keep
    /// acknowledging writes the new timeline will never contain.
    pub fn set_fence(&self, fence: u64) -> Result<(), WalError> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.fence == fence {
            return Ok(());
        }
        write_manifest(&self.dir, inner.epoch, fence)?;
        inner.fence = fence;
        Ok(())
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The fsync policy the log was opened with.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Counter snapshot for the stats surface.
    pub fn stats(&self) -> WalStats {
        WalStats {
            appends: self.appends.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            replayed: self.replayed,
            truncated_bytes: self.truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simwal-log-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The frames of an unhinted catch-up read.
    fn since(wal: &Wal, from: u64, max: usize) -> Vec<WalOp> {
        wal.frames_since_hinted(from, max, None).unwrap().0
    }

    fn ins(lsn: u64) -> WalOp {
        WalOp::Insert {
            lsn,
            global: lsn,
            shard: 0,
            values: vec![lsn as f64, -1.0],
        }
    }

    #[test]
    fn append_reopen_replays() {
        let dir = tmp("roundtrip");
        let ops: Vec<WalOp> = (0..5).map(ins).collect();
        {
            let (wal, replay, report) = Wal::open(&dir, FsyncPolicy::Always, 1).unwrap();
            assert!(replay.is_empty());
            assert_eq!(
                report,
                ReplayReport {
                    epoch: 1,
                    ..Default::default()
                }
            );
            for op in &ops {
                wal.append(op).unwrap();
            }
            assert_eq!(wal.stats().appends, 5);
            assert_eq!(wal.stats().fsyncs, 5);
        }
        let (wal, replay, report) = Wal::open(&dir, FsyncPolicy::Never, 1).unwrap();
        assert_eq!(replay, ops);
        assert_eq!(report.frames, 5);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(wal.stats().replayed, 5);
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmp("torn");
        {
            let (wal, _, _) = Wal::open(&dir, FsyncPolicy::Always, 1).unwrap();
            wal.append(&ins(0)).unwrap();
            wal.append(&ins(1)).unwrap();
        }
        // Simulate a crash mid-append: chop 3 bytes off the last frame.
        let log = dir.join(LOG_FILE);
        let len = fs::metadata(&log).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&log)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let (_wal, replay, report) = Wal::open(&dir, FsyncPolicy::Always, 1).unwrap();
        assert_eq!(replay, vec![ins(0)]);
        assert_eq!(report.frames, 1);
        assert!(report.truncated_bytes > 0);
        // The truncation is physical: a third open sees a clean log.
        drop(_wal);
        let (_wal, replay, report) = Wal::open(&dir, FsyncPolicy::Always, 1).unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(report.truncated_bytes, 0);
        drop(_wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_rewinds_so_later_frames_survive_replay() {
        let dir = tmp("rewind");
        {
            let (wal, _, _) = Wal::open(&dir, FsyncPolicy::Always, 1).unwrap();
            wal.append(&ins(0)).unwrap();
            wal.arm_append_fault();
            assert!(wal.append(&ins(1)).is_err(), "armed append must fail");
            // The torn half-frame was rewound, so the log stays usable
            // and the next append lands directly after frame 0 …
            assert!(!wal.is_poisoned());
            wal.append(&ins(2)).unwrap();
        }
        // … and replay sees both acknowledged frames, with no torn bytes
        // in between (without the rewind, frame 2 would sit behind the
        // torn region and be silently discarded here).
        let (_wal, replay, report) = Wal::open(&dir, FsyncPolicy::Always, 1).unwrap();
        assert_eq!(replay, vec![ins(0), ins(2)]);
        assert_eq!(report.truncated_bytes, 0);
        drop(_wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_fsync_poisons_until_reopen() {
        let dir = tmp("fsync_fault");
        {
            let (wal, _, _) = Wal::open(&dir, FsyncPolicy::Never, 1).unwrap();
            wal.append(&ins(1)).unwrap();
            wal.sync().unwrap();
            wal.append(&ins(2)).unwrap();
            wal.arm_sync_fault();
            assert!(matches!(wal.sync(), Err(WalError::Io(_))));
            // After a failed fsync the page cache may have dropped the
            // tail: appends, syncs and the catch-up reader all refuse.
            assert!(wal.is_poisoned());
            for refused in [
                wal.append(&ins(3)),
                wal.sync(),
                wal.frames_since_hinted(1, 0, None).map(|_| ()),
            ] {
                assert!(matches!(refused, Err(WalError::Poisoned { .. })));
            }
        }
        // Nothing failed on disk here, so both written frames replay.
        let (wal, replay, _) = Wal::open(&dir, FsyncPolicy::Never, 1).unwrap();
        assert_eq!(replay, vec![ins(1), ins(2)]);
        assert!(!wal.is_poisoned());
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn frames_since_serves_the_durable_prefix() {
        let dir = tmp("since");
        let (wal, _, _) = Wal::open(&dir, FsyncPolicy::Never, 1).unwrap();
        for i in 1..=6 {
            wal.append(&ins(i)).unwrap();
        }
        // From the beginning, from mid-log, and from past the end.
        assert_eq!(since(&wal, 0, 0), (1..=6).map(ins).collect::<Vec<_>>());
        assert_eq!(since(&wal, 4, 0), (4..=6).map(ins).collect::<Vec<_>>());
        assert!(since(&wal, 7, 0).is_empty());
        // max caps the batch.
        assert_eq!(since(&wal, 2, 2), vec![ins(2), ins(3)]);
        // A failed (rewound) append never reaches the stream.
        wal.arm_append_fault();
        assert!(wal.append(&ins(7)).is_err());
        assert!(since(&wal, 7, 0).is_empty());
        wal.append(&ins(8)).unwrap();
        assert_eq!(since(&wal, 7, 0), vec![ins(8)]);
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn frames_are_forced_durable_before_being_served() {
        let dir = tmp("durable");
        let (wal, _, _) = Wal::open(&dir, FsyncPolicy::Never, 1).unwrap();
        let base = wal.durable_len();
        assert_eq!(base, HEADER_LEN);
        for i in 1..=3 {
            wal.append(&ins(i)).unwrap();
        }
        // Never policy: the appends ride the page cache, so the durable
        // prefix still ends at the header …
        assert_eq!(wal.stats().fsyncs, 0);
        assert_eq!(wal.durable_len(), HEADER_LEN);
        // … until the catch-up reader serves them: shipping a frame
        // fsyncs it first, so a follower can never hold a frame a
        // primary crash would lose.
        assert_eq!(since(&wal, 1, 0).len(), 3);
        assert_eq!(wal.stats().fsyncs, 1);
        let shipped = wal.durable_len();
        assert!(shipped > HEADER_LEN);
        // A further unpolled append lags again (and a caught-up re-read
        // does not re-sync) …
        let (none, _) = wal.frames_since_hinted(4, 0, None).unwrap();
        assert!(none.is_empty());
        assert_eq!(wal.stats().fsyncs, 1, "caught-up reads never re-sync");
        wal.append(&ins(4)).unwrap();
        assert_eq!(wal.durable_len(), shipped);
        // … and a crash losing everything past the durable prefix keeps
        // every served frame: truncate to durable_len and reopen.
        drop(wal);
        let log = dir.join(LOG_FILE);
        OpenOptions::new()
            .write(true)
            .open(&log)
            .unwrap()
            .set_len(shipped)
            .unwrap();
        let (_wal, replay, _) = Wal::open(&dir, FsyncPolicy::Never, 1).unwrap();
        assert_eq!(replay, (1..=3).map(ins).collect::<Vec<_>>());
        drop(_wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hinted_reads_resume_and_reject_bad_cursors() {
        let dir = tmp("hinted");
        let (wal, _, _) = Wal::open(&dir, FsyncPolicy::Never, 1).unwrap();
        for i in 1..=6 {
            wal.append(&ins(i)).unwrap();
        }
        // Walking the log cursor-to-cursor serves exactly the frames a
        // full scan would, one batch at a time.
        let mut cursor = None;
        let mut got = Vec::new();
        let mut from = 1;
        loop {
            let (frames, next) = wal.frames_since_hinted(from, 2, cursor).unwrap();
            if frames.is_empty() {
                break;
            }
            from = frames.last().unwrap().lsn() + 1;
            got.extend(frames);
            cursor = Some(next);
        }
        assert_eq!(got, (1..=6).map(ins).collect::<Vec<_>>());
        // A caught-up cursor stays caught up until the next append…
        let caught_up = cursor.unwrap();
        let (frames, again) = wal.frames_since_hinted(7, 0, Some(caught_up)).unwrap();
        assert!(frames.is_empty());
        assert_eq!(again, caught_up);
        wal.append(&ins(7)).unwrap();
        let (frames, _) = wal.frames_since_hinted(7, 0, Some(caught_up)).unwrap();
        assert_eq!(frames, vec![ins(7)]);
        // … and a cursor pointing at garbage (mid-frame, or claiming the
        // wrong LSN) degrades to the full scan, never to wrong frames.
        for bad in [
            (3, caught_up.1),           // right offset, wrong LSN claim
            (3, caught_up.1 + 1),       // mid-frame offset
            (3, u64::MAX),              // out of bounds
            (2, super::HEADER_LEN + 3), // mid-frame near the top
        ] {
            let (frames, _) = wal.frames_since_hinted(bad.0, 0, Some(bad)).unwrap();
            assert_eq!(
                frames,
                since(&wal, bad.0, 0),
                "bad cursor {bad:?} must fall back to the scan"
            );
        }
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_epoch_log_is_discarded() {
        let dir = tmp("stale");
        {
            let (wal, _, _) = Wal::open(&dir, FsyncPolicy::Always, 1).unwrap();
            wal.append(&ins(0)).unwrap();
        }
        // The snapshot has since checkpointed to epoch 2; the epoch-1
        // frames are inside it.
        let (wal, replay, report) = Wal::open(&dir, FsyncPolicy::Always, 2).unwrap();
        assert!(replay.is_empty());
        assert_eq!(report.stale_frames, 1);
        assert_eq!(wal.epoch(), 2);
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_from_the_future_is_rejected() {
        let dir = tmp("future");
        {
            let (wal, _, _) = Wal::open(&dir, FsyncPolicy::Always, 5).unwrap();
            wal.append(&ins(0)).unwrap();
        }
        match Wal::open(&dir, FsyncPolicy::Always, 3) {
            Err(WalError::EpochMismatch {
                wal: 5,
                snapshot: 3,
            }) => {}
            other => panic!("expected EpochMismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn install_epoch_resets_log() {
        let dir = tmp("install");
        {
            let (wal, _, _) = Wal::open(&dir, FsyncPolicy::Always, 1).unwrap();
            wal.append(&ins(0)).unwrap();
            wal.install_epoch(2).unwrap();
            assert_eq!(wal.epoch(), 2);
            wal.append(&ins(7)).unwrap();
        }
        let (wal, replay, report) = Wal::open(&dir, FsyncPolicy::Always, 2).unwrap();
        assert_eq!(replay, vec![ins(7)]);
        assert_eq!(report.epoch, 2);
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_between_snapshot_and_manifest_bump() {
        // The snapshot reached epoch 2 but the manifest still says 1 and
        // the log still holds epoch-1 frames: open must re-bump the
        // manifest and discard the absorbed frames.
        let dir = tmp("halfckpt");
        {
            let (wal, _, _) = Wal::open(&dir, FsyncPolicy::Always, 1).unwrap();
            wal.append(&ins(0)).unwrap();
            wal.append(&ins(1)).unwrap();
        }
        let (wal, replay, report) = Wal::open(&dir, FsyncPolicy::Always, 2).unwrap();
        assert!(replay.is_empty());
        assert_eq!(report.stale_frames, 2);
        assert_eq!(report.epoch, 2);
        drop(wal);
        // And the manifest was persisted at 2.
        let (_wal, replay, _) = Wal::open(&dir, FsyncPolicy::Always, 2).unwrap();
        assert!(replay.is_empty());
        drop(_wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_n_batches_fsyncs() {
        let dir = tmp("everyn");
        let (wal, _, _) = Wal::open(&dir, FsyncPolicy::EveryN(3), 1).unwrap();
        for i in 0..7 {
            wal.append(&ins(i)).unwrap();
        }
        assert_eq!(wal.stats().appends, 7);
        assert_eq!(wal.stats().fsyncs, 2); // after frames 3 and 6
        wal.sync().unwrap();
        assert_eq!(wal.stats().fsyncs, 3);
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_open_is_locked_out() {
        let dir = tmp("locked");
        let (wal, _, _) = Wal::open(&dir, FsyncPolicy::Never, 1).unwrap();
        match Wal::open(&dir, FsyncPolicy::Never, 1) {
            Err(WalError::Locked { .. }) => {}
            other => panic!("expected Locked, got {other:?}"),
        }
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fence_persists_across_reopen_and_epoch_installs() {
        let dir = tmp("fence");
        {
            let (wal, _, _) = Wal::open(&dir, FsyncPolicy::Always, 1).unwrap();
            assert_eq!(wal.fence(), 0);
            assert!(!wal.is_fenced());
            // A higher-epoch peer fences this node.
            wal.set_fence(3).unwrap();
            assert_eq!(wal.fence(), 3);
            assert!(wal.is_fenced());
        }
        // The token survives a restart …
        {
            let (wal, _, _) = Wal::open(&dir, FsyncPolicy::Always, 1).unwrap();
            assert!(wal.is_fenced());
            // … and an epoch install below the fence keeps the node
            // fenced, while reaching the fence epoch unfences it.
            wal.install_epoch(2).unwrap();
            assert!(wal.is_fenced());
            wal.install_epoch(3).unwrap();
            assert_eq!(wal.fence(), 3);
            assert!(!wal.is_fenced());
        }
        let (wal, _, _) = Wal::open(&dir, FsyncPolicy::Always, 3).unwrap();
        assert_eq!(wal.fence(), 3);
        assert!(!wal.is_fenced());
        // Clearing drops the manifest line entirely (back to the
        // two-line format).
        wal.set_fence(0).unwrap();
        assert_eq!(wal.fence(), 0);
        let text = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        assert_eq!(text, "simwal v1\nepoch 3\n");
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unfenced_manifest_reads_as_fence_zero() {
        let dir = tmp("nofence");
        {
            let (wal, _, _) = Wal::open(&dir, FsyncPolicy::Always, 1).unwrap();
            wal.append(&ins(0)).unwrap();
        }
        // Pre-failover manifests have no fence line at all.
        let text = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        assert_eq!(text, "simwal v1\nepoch 1\n");
        let (wal, replay, _) = Wal::open(&dir, FsyncPolicy::Always, 1).unwrap();
        assert_eq!(wal.fence(), 0);
        assert_eq!(replay.len(), 1);
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_parse() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("1"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("64"), Some(FsyncPolicy::EveryN(64)));
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }
}
