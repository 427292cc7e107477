//! WAL-shipping replication: the primary-side feeder and the follower
//! loop behind `simserved --replicate-from`.
//!
//! The design extends the WAL's exact-prefix guarantee over the network.
//! A follower's state is always `base(E) + frames[..k]` for some primary
//! checkpoint epoch `E` and some prefix of the frames logged since that
//! checkpoint — never a rearrangement, never a partial frame. The
//! protocol is pull-based: the follower sends `REPL epoch=E from=L
//! ack=A` and the primary answers with one of two payloads, decided by a
//! single handshake rule on its `(epoch, next LSN)`:
//!
//! * **frames** — when `E` equals the primary's current checkpoint epoch
//!   and `L` does not run past its next LSN, the epoch's log covers the
//!   follower's position exactly; the primary serves `lsn >= L` frames
//!   from its live log
//!   ([`simquery::shard::ShardedIndex::wal_frames_since_hinted`]).
//! * **snapshot** — otherwise (a checkpoint reset the log, the follower
//!   is behind a restarted primary's recovered log, or the follower is
//!   brand new, which it signals with the reserved `from=0`): the primary
//!   transfers its full state per ordinal, each ordinal's shard and
//!   tombstone included, so the follower reproduces the exact ordinal
//!   assignment and placement, then resumes streaming at the returned
//!   `next` LSN.
//!
//! Any shard count replicates: a follower's group has the primary's (an
//! `--index` follower of another count is refused with
//! [`DurableError::ShardCount`]), and frames and snapshots name shards.
//!
//! Nothing leaves the primary before it is durable: the catch-up reader
//! fsyncs the log's written tail before serving it (see
//! [`simwal::Wal::frames_since_hinted`]), and a snapshot cut syncs the log
//! under the insert gate that pins it
//! ([`simquery::shard::ShardedIndex::replica_cut`]). A primary crash therefore
//! only ever loses frames *no follower has seen* — with `--fsync
//! never`/`EveryN` the lost unsynced tail was by construction never
//! shipped, so the restarted primary may reuse those LSNs for new writes
//! and the same-epoch handshake still resumes every follower onto an
//! identical timeline, never a divergent one.
//!
//! Frames apply on the follower through
//! [`simquery::shard::ShardedIndex::apply_replicated`] — the same
//! idempotent semantics as crash-recovery replay, so re-shipping any
//! prefix after a crash on either side converges without gaps or
//! duplicates. Acked LSNs ride on every poll; the primary keeps a
//! per-peer ack table for the `simseq_repl_*` series of `METRICS` and
//! drops a peer's entry when its connection closes.

use crate::client::Client;
use crate::protocol::{ErrCode, Request, Response, SnapEntry};
use crate::server::Backend;
use simobs::Exposition;
use simquery::prelude::*;
use simquery::shard::{ReplicaCut, ShardedIndex};
use simquery::shared::DurableError;
use simshard::ShardConfig;
use simwal::encode_frame;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tseries::rng::SeededRng;

/// Default frames per `REPL` response when the request says `max=0`.
pub const DEFAULT_BATCH: usize = 256;

/// Counters a follower loop publishes for its server's `simseq_repl_*`
/// series.
#[derive(Debug, Default)]
pub struct FollowerStats {
    /// LSN last acked upstream.
    pub acked: AtomicU64,
    /// Primary's next LSN as of the last poll (exclusive stream end).
    pub end: AtomicU64,
    /// Frame bytes received (WAL frame encoding, not wire overhead).
    pub bytes: AtomicU64,
    /// Primary checkpoint epoch the follower is synced to.
    pub epoch: AtomicU64,
    /// Snapshot transfers installed (1 for a clean bootstrap; each
    /// further one means an epoch change forced a re-handshake).
    pub snapshots: AtomicU64,
}

/// Per-connection replication state a primary keeps about one follower.
#[derive(Clone, Copy, Debug, Default)]
struct PeerAck {
    acked: u64,
    bytes: u64,
    /// Catch-up resume cursor `(epoch, lsn, byte offset)`: where in the
    /// log the frame carrying `lsn` starts, valid only while the log is
    /// still at `epoch`. Purely an optimisation — a stale or missing
    /// cursor just costs a full log scan.
    cursor: Option<(u64, u64, u64)>,
    /// Set when the last response to this peer was a snapshot transfer:
    /// its real applied position may have *dropped* (a resync after an
    /// epoch change or an unrelated history), so the next ack overwrites
    /// the recorded one instead of `max`-ing it — otherwise the
    /// min-acked `REPL` lag line under-reports until the follower
    /// regrows past its stale ack.
    resync: bool,
}

/// Server-wide replication state: the primary-side feeder (append
/// notification + per-follower ack table) and, when this server is
/// itself a follower, the follower loop's published counters. The role
/// is runtime-mutable: `PROMOTE` flips a follower to primary in place
/// (see [`Self::promote_to_primary`]).
pub struct ReplState {
    follower: Mutex<Option<Arc<FollowerStats>>>,
    /// Cached role bit so the per-request write gate never takes the
    /// `follower` mutex. `true` while the server follows a primary.
    follower_role: AtomicBool,
    /// Stop flag + thread handle of the local follower poll loop,
    /// registered at startup so `PROMOTE` can halt the loop (and wait
    /// out any in-flight poll) before flipping the role.
    follower_stop: Mutex<Option<(Arc<AtomicBool>, std::thread::JoinHandle<()>)>>,
    /// Promotions served by this process (0 or 1 in practice; the
    /// counter shape matches the metrics surface).
    promotions: AtomicU64,
    /// Append generation counter; bumped after every acknowledged
    /// mutation so long-polling `REPL` handlers wake without spinning.
    appended: AtomicU64,
    /// Handlers currently parked in [`Self::wait_append`]. The mutation
    /// path only touches the condvar when this is non-zero, so with no
    /// follower lagging behind, `notify_append` is a single atomic add.
    waiters: AtomicU64,
    park: Mutex<()>,
    notify: Condvar,
    peers: Mutex<BTreeMap<String, PeerAck>>,
    bytes_shipped: AtomicU64,
}

impl ReplState {
    /// State for a standalone or primary server.
    pub fn primary() -> Self {
        Self {
            follower: Mutex::new(None),
            follower_role: AtomicBool::new(false),
            follower_stop: Mutex::new(None),
            promotions: AtomicU64::new(0),
            appended: AtomicU64::new(0),
            waiters: AtomicU64::new(0),
            park: Mutex::new(()),
            notify: Condvar::new(),
            peers: Mutex::new(BTreeMap::new()),
            bytes_shipped: AtomicU64::new(0),
        }
    }

    /// State for a follower server publishing `stats`.
    pub fn follower(stats: Arc<FollowerStats>) -> Self {
        let state = Self::primary();
        *state.follower.lock().unwrap_or_else(|e| e.into_inner()) = Some(stats);
        state.follower_role.store(true, Ordering::Release);
        state
    }

    /// Whether this server replicates from a primary (and must refuse
    /// writes).
    pub fn is_follower(&self) -> bool {
        self.follower_role.load(Ordering::Acquire)
    }

    /// Registers the stop flag and thread handle of the local follower
    /// poll loop so a later `PROMOTE` can halt it.
    pub fn register_follower_loop(
        &self,
        stop: Arc<AtomicBool>,
        handle: std::thread::JoinHandle<()>,
    ) {
        *self.follower_stop.lock().unwrap_or_else(|e| e.into_inner()) = Some((stop, handle));
    }

    /// Stops the registered follower poll loop and joins its thread, so
    /// no in-flight poll can land frames after the caller moves on.
    /// Idempotent; a no-op when no loop was registered (tests that step
    /// `poll_once` by hand manage their own loop). Bounded by one
    /// long-poll budget plus one reconnect backoff (a few seconds).
    pub fn halt_follower_loop(&self) {
        let taken = self
            .follower_stop
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some((stop, handle)) = taken {
            stop.store(true, Ordering::SeqCst);
            let _ = handle.join();
        }
    }

    /// Flips a follower server to primary: clears the follower role, so
    /// the write gate opens and `METRICS` reports the primary
    /// view. Returns `false` (and changes nothing) when the server
    /// already is a primary. The caller halts the poll loop and promotes
    /// the underlying index *before* calling this — the role flips only
    /// after the new timeline is durably installed.
    pub fn promote_to_primary(&self) -> bool {
        let mut follower = self.follower.lock().unwrap_or_else(|e| e.into_inner());
        if follower.is_none() {
            return false;
        }
        *follower = None;
        drop(follower);
        self.halt_follower_loop();
        self.follower_role.store(false, Ordering::Release);
        self.promotions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Promotions served by this process.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }

    /// Wakes long-polling `REPL` handlers after an acknowledged
    /// mutation. The generation bump is ordered before the waiter check,
    /// and `wait_append` registers before re-reading the
    /// generation (both under `park`), so a wakeup can't be lost: either
    /// the waiter sees the new generation and never sleeps, or this call
    /// sees the waiter and notifies.
    pub fn notify_append(&self) {
        self.appended.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _guard = self.park.lock().unwrap_or_else(|e| e.into_inner());
            self.notify.notify_all();
        }
    }

    /// The current append generation; capture before scanning for
    /// frames, then pass to [`Self::wait_append`].
    fn append_gen(&self) -> u64 {
        self.appended.load(Ordering::SeqCst)
    }

    /// Blocks until the append generation leaves `seen` or `timeout`
    /// passes.
    fn wait_append(&self, seen: u64, timeout: Duration) {
        let guard = self.park.lock().unwrap_or_else(|e| e.into_inner());
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let _ = self
            .notify
            .wait_timeout_while(guard, timeout, |_| {
                self.appended.load(Ordering::SeqCst) == seen
            })
            .map(|(g, _)| drop(g));
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    fn record_ack(&self, peer: &str, acked: u64, bytes: u64) {
        let mut peers = self.peers.lock().unwrap_or_else(|e| e.into_inner());
        let entry = peers.entry(peer.to_string()).or_default();
        if entry.resync {
            // First poll after a snapshot transfer: the ack is the
            // follower's true post-install position, which may be lower
            // than what it claimed before the resync.
            entry.acked = acked;
            entry.resync = false;
        } else {
            entry.acked = entry.acked.max(acked);
        }
        entry.bytes += bytes;
        self.bytes_shipped.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Marks that `peer` was just served a snapshot, so its next ack
    /// resets (rather than raises) the recorded position.
    fn mark_resync(&self, peer: &str) {
        let mut peers = self.peers.lock().unwrap_or_else(|e| e.into_inner());
        peers.entry(peer.to_string()).or_default().resync = true;
    }

    /// The peer's catch-up cursor, when it is still valid for `epoch`
    /// and resumes exactly at `from`.
    fn peer_cursor(&self, peer: &str, epoch: u64, from: u64) -> Option<(u64, u64)> {
        let peers = self.peers.lock().unwrap_or_else(|e| e.into_inner());
        peers
            .get(peer)?
            .cursor
            .filter(|&(e, lsn, _)| e == epoch && lsn == from)
            .map(|(_, lsn, offset)| (lsn, offset))
    }

    fn set_peer_cursor(&self, peer: &str, epoch: u64, lsn: u64, offset: u64) {
        let mut peers = self.peers.lock().unwrap_or_else(|e| e.into_inner());
        peers.entry(peer.to_string()).or_default().cursor = Some((epoch, lsn, offset));
    }

    /// Forgets a follower when its connection closes, so a dead peer
    /// cannot pin the reported lag forever.
    pub fn drop_peer(&self, peer: &str) {
        let mut peers = self.peers.lock().unwrap_or_else(|e| e.into_inner());
        peers.remove(peer);
    }

    /// Renders the replication position into `exp`, labelled with the
    /// role: a follower's own position, or a primary's view of its
    /// followers (the minimum acked LSN, so the worst follower). Nothing
    /// when the server neither follows a primary nor has followers.
    pub(crate) fn render_into(&self, backend: &Backend, exp: &mut Exposition) {
        let follower = self
            .follower
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let (role, followers, acked, applied, lag, bytes, epoch) = match follower {
            Some(f) => {
                let applied = backend.applied_lsn();
                let end = f.end.load(Ordering::Relaxed);
                (
                    "follower",
                    0,
                    f.acked.load(Ordering::Relaxed),
                    applied,
                    end.saturating_sub(1).saturating_sub(applied),
                    f.bytes.load(Ordering::Relaxed),
                    f.epoch.load(Ordering::Relaxed),
                )
            }
            None => {
                let peers = self.peers.lock().unwrap_or_else(|e| e.into_inner());
                if peers.is_empty() {
                    return;
                }
                let followers = peers.len();
                let min_acked = peers.values().map(|p| p.acked).min().unwrap_or(0);
                drop(peers);
                let next = backend.wal_next_lsn().unwrap_or(1);
                (
                    "primary",
                    followers,
                    min_acked,
                    0,
                    next.saturating_sub(1).saturating_sub(min_acked),
                    self.bytes_shipped.load(Ordering::Relaxed),
                    backend.wal_epoch().unwrap_or(0),
                )
            }
        };
        let labels = [("role", role)];
        exp.gauge("simseq_repl_followers", &labels, followers as f64);
        exp.gauge("simseq_repl_acked_lsn", &labels, acked as f64);
        exp.gauge("simseq_repl_applied_lsn", &labels, applied as f64);
        exp.gauge("simseq_repl_lag", &labels, lag as f64);
        exp.counter("simseq_repl_bytes_total", &labels, bytes);
        exp.gauge("simseq_repl_epoch", &labels, epoch as f64);
    }
}

/// One `REPL` request's parameters, as parsed off the wire.
#[derive(Clone, Copy, Debug)]
pub struct ReplPoll {
    /// Checkpoint epoch the follower's state corresponds to.
    pub epoch: u64,
    /// First LSN the follower still needs (`0` = fresh bootstrap).
    pub from: u64,
    /// Highest LSN the follower has durably applied.
    pub ack: u64,
    /// Frame budget for this response (`0` = [`DEFAULT_BATCH`]).
    pub max: usize,
    /// Long-poll budget when the primary is already caught up.
    pub wait_ms: u64,
}

/// Serves one `REPL` request on the primary. Runs outside the admission
/// gate (like `QUIT`): a long-poll parked in one of its bounded running
/// slots would starve query traffic.
pub fn serve_repl(backend: &Backend, repl: &ReplState, peer: &str, poll: ReplPoll) -> Response {
    let _span = simobs::trace::span("repl.feed");
    let ReplPoll {
        epoch,
        from,
        ack,
        max,
        wait_ms,
    } = poll;
    if !backend.is_durable() {
        return Response::Err {
            code: ErrCode::Query,
            msg: "replication requires a durable primary (start simserved with --wal DIR)".into(),
        };
    }
    repl.record_ack(peer, ack, 0);
    let max = if max == 0 { DEFAULT_BATCH } else { max };
    let deadline = Instant::now() + Duration::from_millis(wait_ms);
    let io_err = |msg: String| Response::Err {
        code: ErrCode::Io,
        msg,
    };
    loop {
        // Epoch first: a checkpoint between the two reads moves the
        // epoch, which every path below re-checks (or re-reads in the
        // cut) before it answers.
        let wal_epoch = backend.wal_epoch().unwrap_or(0);
        let next = backend.wal_next_lsn().unwrap_or(1);
        // A poll from a NEWER epoch means a peer was promoted onto a
        // timeline this server has never seen: this server is a deposed
        // primary. Serving the generic mismatch path below would hand the
        // caller a STALE snapshot and roll the new timeline back —
        // instead, fence ourselves at the caller's epoch (persisted in the
        // manifest, so a crash cannot unfence us) and answer read-only.
        // This in-band handshake is how an ex-primary learns of its own
        // demotion.
        if epoch > wal_epoch {
            if let Err(e) = backend.fence_at(epoch) {
                return io_err(format!("failed to persist fence at epoch {epoch}: {e}"));
            }
            return Response::Err {
                code: ErrCode::ReadOnly,
                msg: format!(
                    "fenced: peer {peer} is on newer epoch {epoch} (local {wal_epoch}); \
                     this ex-primary is read-only until it re-syncs from the new primary"
                ),
            };
        }
        // `from == 0` is the reserved bootstrap position: the follower
        // has no state at all, so no epoch's log can cover it.
        if epoch != wal_epoch || from == 0 || from > next {
            // The cut is pinned (and the log synced up to it) under the
            // gate; the rows are copied with it released.
            let resp = match backend.replica_cut() {
                Ok(cut) => snapshot_response(backend, &cut),
                Err(e) => return io_err(format!("snapshot cut failed: {e}")),
            };
            // A checkpoint may have landed while the copy ran; its epoch
            // bump invalidates the pinned cut, so rebuild at the new one.
            if let Response::ReplSnapshot { epoch: cut, .. } = resp {
                if backend.wal_epoch() != Some(cut) {
                    continue;
                }
                repl.mark_resync(peer);
            }
            return resp;
        }
        // Capture the append generation BEFORE scanning: a mutation that
        // lands mid-scan changes the generation, so the wait below
        // returns immediately instead of sleeping past it.
        let gen = repl.append_gen();
        // The file scan runs with the gate RELEASED so catch-up reads
        // never stall primary writes: the log bounds the read by its own
        // durable-prefix snapshot (a concurrent append can't tear a
        // frame), and the one mutation that can invalidate the bytes — a
        // checkpoint truncating the log — is detected by re-checking the
        // epoch afterwards and retrying (the next pass snapshots). The
        // peer cursor resumes the scan where the last served frame ended.
        let hint = repl.peer_cursor(peer, wal_epoch, from);
        let frames = backend.wal_frames_since_hinted(from, max, hint);
        if backend.wal_epoch() != Some(wal_epoch) {
            continue;
        }
        let (frames, cursor) = match frames {
            Ok(got) => got,
            Err(e) => return io_err(e.to_string()),
        };
        if !frames.is_empty() || Instant::now() >= deadline {
            let bytes: u64 = frames.iter().map(|op| encode_frame(op).len() as u64).sum();
            repl.record_ack(peer, ack, bytes);
            repl.set_peer_cursor(peer, wal_epoch, cursor.0, cursor.1);
            return Response::ReplFrames {
                epoch: wal_epoch,
                end: next,
                frames,
            };
        }
        repl.wait_append(gen, deadline.saturating_duration_since(Instant::now()));
    }
}

/// Copies the rows of a pinned cut, each under its shard's read guard
/// alone ([`ShardedIndex::fetch_series`]), so writers and checkpoints
/// interleave with a large transfer. Tombstoned rows ship too (`live=no`),
/// so the follower reproduces the exact ordinal assignment.
fn snapshot_response(backend: &ShardedIndex, cut: &ReplicaCut) -> Response {
    let mut entries = Vec::with_capacity(cut.assignment.len());
    for (ord, &shard) in cut.assignment.iter().enumerate() {
        let ts = match backend.fetch_series(ord) {
            Ok(Some(ts)) => ts,
            failed => {
                let why = failed.err().map_or("not held".into(), |e| e.to_string());
                return Response::Err {
                    code: ErrCode::Io,
                    msg: format!("snapshot transfer failed at ordinal {ord}: {why}"),
                };
            }
        };
        entries.push(SnapEntry {
            ord: ord as u64,
            shard,
            live: cut.dead.binary_search(&ord).is_err(),
            values: ts.values().to_vec(),
        });
    }
    Response::ReplSnapshot {
        epoch: cut.epoch,
        next: cut.next_lsn,
        seq_len: backend.seq_len(),
        shards: backend.shard_count(),
        entries,
    }
}

/// Persisted follower position: which primary epoch the local state
/// corresponds to (`epoch`) and the applied-LSN floor of the last snapshot
/// install (`floor`; frames applied after it are recovered from the local
/// WAL).
const REPLICA: simwal::Manifest = simwal::Manifest::new("REPLICA", "simrepl v1");

/// Tuning knobs of a follower loop.
#[derive(Clone, Debug)]
pub struct FollowerOpts {
    /// Max frames per poll (0 = server default).
    pub batch: usize,
    /// Long-poll budget per request, milliseconds.
    pub wait_ms: u64,
    /// Pause between polls in the [`Follower::run`] loop, milliseconds.
    /// `0` streams continuously (minimum lag); a nonzero pace bounds the
    /// CPU the apply loop takes from whatever shares its cores — a
    /// bounded-staleness follower that trades lag for isolation.
    pub pace_ms: u64,
    /// Directory holding the persisted replica position (the follower's
    /// WAL directory); `None` for an in-memory follower.
    pub state_dir: Option<PathBuf>,
    /// Seed for the reconnect-backoff jitter. Followers in a fleet should
    /// get distinct seeds so a primary restart does not make them all
    /// re-dial in lockstep; equal seeds reproduce the exact schedule.
    pub reconnect_seed: u64,
}

impl Default for FollowerOpts {
    fn default() -> Self {
        Self {
            batch: 0,
            wait_ms: 1000,
            pace_ms: 0,
            state_dir: None,
            reconnect_seed: 0,
        }
    }
}

/// The follower side of replication: polls a primary for WAL frames and
/// applies them to the local group — the same [`Backend`] the local
/// server serves read-only queries from.
pub struct Follower {
    backend: Backend,
    /// `None` between a connection failure and the next reconnect; the
    /// dead connection is dropped eagerly so a restarting primary's
    /// lingering handler thread sees EOF and releases its locks.
    client: Option<Client>,
    primary: String,
    opts: FollowerOpts,
    stats: Arc<FollowerStats>,
    /// Whether the local state corresponds to a known primary epoch; a
    /// fresh follower starts unsynced and requests a snapshot with the
    /// reserved `from=0`.
    synced: bool,
}

impl Follower {
    /// Connects to `primary` and prepares to replicate into `backend`,
    /// whose shard count must be the primary's. A durable follower (one
    /// opened with `open_durable` on its own directories) resumes from its
    /// persisted replica position instead of re-transferring the snapshot.
    pub fn connect(
        primary: &str,
        backend: impl Into<Backend>,
        opts: FollowerOpts,
    ) -> io::Result<Self> {
        let backend = backend.into();
        let client = Client::connect(primary)?;
        let stats = Arc::new(FollowerStats::default());
        let mut synced = false;
        // A missing or damaged state file reads as no replica position:
        // the follower re-bootstraps.
        let state = opts.state_dir.as_deref().and_then(|d| REPLICA.read(d).ok());
        if let Some((Ok(epoch), Ok(floor))) = state.map(|s| (s.get("epoch"), s.get("floor"))) {
            backend.note_replica_position(epoch, floor);
            synced = true;
        }
        // An in-memory handle with a nonzero applied position or replica
        // epoch can only have gotten it from replication (a prior
        // snapshot install or `note_replica_position`), so it may resume
        // streaming. A *durable* handle is different: local WAL replay
        // also raises `applied_lsn`, and a directory that used to be a
        // standalone primary holds LSNs unrelated to the new primary's
        // timeline — so a durable follower claims `synced` only via its
        // REPLICA state file (written on every snapshot install), and
        // without one it re-bootstraps with `from=0`.
        if synced
            || (!backend.is_durable() && (backend.applied_lsn() > 0 || backend.replica_epoch() > 0))
        {
            synced = true;
            stats
                .epoch
                .store(backend.replica_epoch(), Ordering::Relaxed);
            stats.acked.store(backend.applied_lsn(), Ordering::Relaxed);
        }
        Ok(Self {
            backend,
            client: Some(client),
            primary: primary.to_string(),
            opts,
            stats,
            synced,
        })
    }

    /// The counters this follower publishes (hand to
    /// [`crate::server::serve_with`]).
    pub fn stats(&self) -> Arc<FollowerStats> {
        Arc::clone(&self.stats)
    }

    /// Re-dials the primary — at `addr` if given (a restarted primary
    /// usually comes back on a new ephemeral port in tests), else at the
    /// address this follower was created with. The old connection is
    /// dropped *before* dialing, even on failure. Replication state is
    /// untouched: the next poll re-handshakes from the current position.
    pub fn reconnect(&mut self, addr: Option<&str>) -> io::Result<()> {
        self.client = None;
        if let Some(addr) = addr {
            self.primary = addr.to_string();
        }
        self.client = Some(Client::connect(&self.primary)?);
        Ok(())
    }

    /// Highest primary LSN applied locally.
    pub fn applied(&self) -> u64 {
        self.backend.applied_lsn()
    }

    /// Frames the primary holds beyond this follower's applied position.
    pub fn lag(&self) -> u64 {
        self.stats
            .end
            .load(Ordering::Relaxed)
            .saturating_sub(1)
            .saturating_sub(self.applied())
    }

    /// One poll/apply round-trip. Returns how many frames (or snapshot
    /// entries) were received; `Ok(0)` means the follower is drained to
    /// the primary's acked tip. Crash-point tests step this directly.
    pub fn poll_once(&mut self) -> io::Result<usize> {
        let _span = simobs::trace::span("repl.apply");
        let epoch = self.backend.replica_epoch();
        let from = if self.synced { self.applied() + 1 } else { 0 };
        let req = Request::Repl {
            epoch,
            from,
            ack: self.applied(),
            max: self.opts.batch,
            wait_ms: self.opts.wait_ms,
        };
        let client = self.client.as_mut().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotConnected, "not connected to the primary")
        })?;
        match client.call(&req)? {
            Response::ReplFrames {
                epoch, end, frames, ..
            } => {
                // A promotion can race an in-flight long poll: this node
                // may already be on a newer timeline than the primary
                // that answered. Applying the stale batch would graft
                // old-timeline writes onto the promoted state — drop it.
                if epoch < self.backend.replica_epoch() {
                    return Ok(0);
                }
                let n = frames.len();
                for op in &frames {
                    self.stats
                        .bytes
                        .fetch_add(encode_frame(op).len() as u64, Ordering::Relaxed);
                    match self.backend.apply_replicated(op) {
                        Ok(_) => {}
                        Err(DurableError::Gap { .. }) => {
                            // The log cannot cover our position after
                            // all; re-handshake for a snapshot.
                            self.synced = false;
                            return Ok(0);
                        }
                        Err(e) => {
                            // A frame that failed mid-apply (e.g. a
                            // device fault inside the tree insert) may
                            // have left partial entries behind; blindly
                            // re-applying it would stack duplicates on
                            // top. Mark the state suspect and re-sync
                            // via snapshot instead.
                            self.synced = false;
                            return Err(io::Error::other(format!(
                                "replicated frame failed to apply: {e}"
                            )));
                        }
                    }
                }
                self.backend.note_replica_epoch(epoch);
                self.stats.epoch.store(epoch, Ordering::Relaxed);
                self.stats.end.store(end, Ordering::Relaxed);
                self.stats.acked.store(self.applied(), Ordering::Relaxed);
                Ok(n)
            }
            Response::ReplSnapshot {
                epoch,
                next,
                seq_len,
                shards,
                entries,
            } => {
                // Same race as above, but worse: installing a stale
                // snapshot would roll a freshly promoted node back to
                // the deposed primary's state (and clear its fence).
                if epoch < self.backend.replica_epoch() {
                    return Ok(0);
                }
                let (n, local) = (entries.len(), self.backend.shard_count());
                if shards != local {
                    let primary = shards;
                    return Err(invalid(DurableError::ShardCount { local, primary }));
                }
                // The replica keeps the record pool of the index it replaces.
                let pool = self.backend.shards()[0].read().heap_pool_pages();
                let replica = build_replica(seq_len, shards, entries, pool)?;
                self.backend
                    .install_replica_snapshot(replica, epoch, next)
                    .map_err(|e| io::Error::other(format!("snapshot install: {e}")))?;
                if let Some(dir) = &self.opts.state_dir {
                    let floor = next.saturating_sub(1);
                    REPLICA
                        .with("epoch", epoch)
                        .with("floor", floor)
                        .write(dir)?;
                }
                self.synced = true;
                self.stats.snapshots.fetch_add(1, Ordering::Relaxed);
                self.stats.epoch.store(epoch, Ordering::Relaxed);
                self.stats.end.store(next, Ordering::Relaxed);
                self.stats.acked.store(self.applied(), Ordering::Relaxed);
                Ok(n)
            }
            Response::Err { code, msg } => Err(io::Error::other(format!(
                "primary refused REPL: {code:?}: {msg}"
            ))),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected REPL response: {other:?}"),
            )),
        }
    }

    /// The first poll, made at start-up with no long-poll wait. A primary
    /// of another shard count is returned as the
    /// [`DurableError::ShardCount`] error, which no retry heals; any other
    /// failure is left to [`Self::run`], which retries it.
    pub fn first_poll(&mut self) -> io::Result<()> {
        let wait_ms = std::mem::replace(&mut self.opts.wait_ms, 0);
        let polled = self.poll_once();
        self.opts.wait_ms = wait_ms;
        match polled
            .as_ref()
            .err()
            .and_then(|e| e.get_ref()?.downcast_ref())
        {
            Some(DurableError::ShardCount { .. }) => polled.map(drop),
            _ => Ok(()),
        }
    }

    /// Runs the poll/apply loop until `stop` is set, reconnecting with
    /// a bounded backoff when the primary goes away (it re-handshakes on
    /// the primary's new epoch after a restart). A failed poll is written
    /// to stderr when it differs from the last failure written, so a
    /// repeating one is said once.
    pub fn run(mut self, stop: Arc<AtomicBool>) {
        let mut rng = SeededRng::seed_from_u64(self.opts.reconnect_seed ^ 0x666f_6c6c_6f77_6572);
        let mut backoff = Duration::from_millis(50);
        let mut last_said = String::new();
        while !stop.load(Ordering::SeqCst) {
            match self.poll_once() {
                Ok(_) => {
                    backoff = Duration::from_millis(50);
                    if self.opts.pace_ms > 0 {
                        std::thread::sleep(Duration::from_millis(self.opts.pace_ms));
                    }
                }
                Err(e) => {
                    let said = format!("follower of {}: {e}", self.primary);
                    if said != last_said {
                        eprintln!("{said}");
                        last_said = said;
                    }
                    // Sever the dead connection before backing off, so a
                    // restarting primary is not kept waiting on it.
                    self.client = None;
                    // Equal-jitter sleep in [backoff/2, backoff]: the cap
                    // still bounds reconnect latency, but a fleet of
                    // followers spreads its re-dials instead of hammering
                    // a recovering primary in lockstep.
                    let half = (backoff.as_millis() as u64) / 2;
                    let jittered = rng.random_range(half..=half * 2);
                    std::thread::sleep(Duration::from_millis(jittered));
                    backoff = (backoff * 2).min(Duration::from_secs(2));
                    let _ = self.reconnect(None);
                }
            }
        }
    }

    /// Spawns [`Self::run`] on a named thread.
    pub fn spawn(self, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
        std::thread::Builder::new()
            .name("simserve-follower".into())
            .spawn(move || self.run(stop))
            .expect("spawning the follower thread cannot fail")
    }
}

fn invalid(e: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Builds the group a snapshot transfer describes, with a record pool of
/// `heap_pool_pages` frames per shard, after checking it: ordinals
/// `0..count` in order, every row `seq_len` values long, every shard
/// below `shards`, at least one row. Anything else is an
/// [`io::ErrorKind::InvalidData`] error and nothing is built.
fn build_replica(
    seq_len: usize,
    shards: usize,
    entries: Vec<SnapEntry>,
    heap_pool_pages: usize,
) -> io::Result<ShardedIndex> {
    let bad = |(g, e): &(usize, &SnapEntry)| e.ord != *g as u64 || e.values.len() != seq_len;
    if let Some((g, e)) = entries.iter().enumerate().find(bad) {
        return Err(invalid(format!(
            "snapshot row {g} carries ord={} and {} values; rows must run ord=0..count \
             in order, each seq_len={seq_len} values long",
            e.ord,
            e.values.len()
        )));
    }
    let assignment: Vec<usize> = entries.iter().map(|e| e.shard).collect();
    let rows = entries
        .into_iter()
        .map(|e| (TimeSeries::new(e.values), e.live))
        .collect();
    let index_cfg = IndexConfig {
        heap_pool_pages,
        ..IndexConfig::default()
    };
    ShardedIndex::from_rows(rows, &assignment, ShardConfig { shards }, index_cfg)
        .map_err(|e| invalid(format!("unbuildable snapshot: {e}")))
}

/// Bootstraps an in-memory follower that starts with no index at all:
/// fetches the primary's snapshot synchronously, builds the replica group
/// — the primary's shard count and placement — with a record pool of
/// `heap_pool_pages` frames per shard, and returns it (serve it with
/// [`crate::server::serve_with`]) plus the connected [`Follower`].
pub fn bootstrap(
    primary: &str,
    opts: FollowerOpts,
    heap_pool_pages: usize,
) -> io::Result<(Backend, Follower)> {
    let mut client = Client::connect(primary)?;
    let resp = client.call(&Request::Repl {
        epoch: 0,
        from: 0,
        ack: 0,
        max: 0,
        wait_ms: 0,
    })?;
    let Response::ReplSnapshot {
        epoch,
        next,
        seq_len,
        shards,
        entries,
    } = resp
    else {
        return Err(invalid(format!(
            "expected a snapshot transfer, got {resp:?}"
        )));
    };
    let backend = Arc::new(build_replica(seq_len, shards, entries, heap_pool_pages)?);
    backend.note_replica_position(epoch, next.saturating_sub(1));
    let stats = Arc::new(FollowerStats::default());
    stats.epoch.store(epoch, Ordering::Relaxed);
    stats.end.store(next, Ordering::Relaxed);
    stats.acked.store(backend.applied_lsn(), Ordering::Relaxed);
    stats.snapshots.store(1, Ordering::Relaxed);
    let follower = Follower {
        backend: Arc::clone(&backend),
        client: Some(client),
        primary: primary.to_string(),
        opts,
        stats,
        synced: true,
    };
    Ok((backend, follower))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    fn acked(repl: &ReplState, peer: &str) -> u64 {
        repl.peers.lock().unwrap_or_else(|e| e.into_inner())[peer].acked
    }

    #[test]
    fn resync_overwrites_the_recorded_ack_once() {
        let repl = ReplState::primary();
        repl.record_ack("f", 10, 0);
        // Acks are normally monotonic: a stale lower ack is ignored.
        repl.record_ack("f", 4, 0);
        assert_eq!(acked(&repl, "f"), 10);
        // But the first ack after a snapshot transfer is the follower's
        // true (possibly lower) post-install position, so it overwrites —
        // otherwise the min-acked lag line under-reports until the
        // follower regrows past its stale ack.
        repl.mark_resync("f");
        repl.record_ack("f", 4, 0);
        assert_eq!(acked(&repl, "f"), 4);
        // The overwrite is one-shot: monotonic again afterwards.
        repl.record_ack("f", 2, 0);
        assert_eq!(acked(&repl, "f"), 4);
    }

    /// A stub primary on a free loopback port that answers the first
    /// request of each of its first `conns` connections with `reply`, a
    /// whole response, one connection after another.
    fn stub_primary(reply: &str, conns: usize) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let reply = reply.to_string();
        let served = std::thread::spawn(move || {
            for _ in 0..conns {
                let (conn, _) = listener.accept().unwrap();
                let mut request = String::new();
                BufReader::new(conn.try_clone().unwrap())
                    .read_line(&mut request)
                    .unwrap();
                (&conn).write_all(reply.as_bytes()).unwrap();
            }
        });
        (addr, served)
    }

    /// A snapshot transfer `reply` must be refused as `InvalidData` both by
    /// `bootstrap` and by an existing follower's install, whose state must
    /// not move.
    fn assert_refused(reply: &str, shards: usize) {
        let (addr, served) = stub_primary(reply, 2);
        let err = bootstrap(&addr, FollowerOpts::default(), 16).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "bootstrap: {err}");

        let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 12, 16, 0x57B);
        let cfg = ShardConfig::new(shards).unwrap();
        let group = Arc::new(ShardedIndex::build(&corpus, cfg, IndexConfig::default()).unwrap());
        let state = |g: &ShardedIndex| {
            let rows: Vec<_> = (0..g.len())
                .map(|o| g.fetch_series(o).unwrap().unwrap())
                .collect();
            (
                rows,
                g.deleted_ordinals(),
                g.applied_lsn(),
                g.replica_epoch(),
                g.query_epoch(),
            )
        };
        let before = state(&group);
        let mut follower =
            Follower::connect(&addr, Arc::clone(&group), FollowerOpts::default()).unwrap();
        let err = follower.poll_once().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "install: {err}");
        assert_eq!(state(&group), before, "a refused snapshot installs nothing");
        served.join().unwrap();
    }

    /// A durable follower's `REPLICA` keeps its bytes, and a damaged one
    /// reads as no replica position, so the follower re-bootstraps.
    #[test]
    fn replica_bytes_are_pinned_and_a_damaged_file_rebootstraps() {
        let root =
            std::env::temp_dir().join(format!("simserve-replica-state-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (idx, wal) = (root.join("idx"), root.join("wal"));
        let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 12, 16, 0x57B);
        ShardedIndex::build(
            &corpus,
            ShardConfig::new(1).unwrap(),
            IndexConfig::default(),
        )
        .unwrap()
        .save(&idx)
        .unwrap();
        let (group, _) =
            ShardedIndex::open_durable(&idx, &wal, 16, simwal::FsyncPolicy::Always).unwrap();
        let group = Arc::new(group);
        let opts = || FollowerOpts {
            state_dir: Some(wal.clone()),
            ..FollowerOpts::default()
        };
        let (addr, served) = stub_primary(
            "OK repl=snapshot epoch=3 next=9 seq_len=4 count=2\n\
             SNAP ord=0 live=yes data=1,2,3,4\n\
             SNAP ord=1 live=no data=4,3,2,1\nEND\n",
            1,
        );
        let mut follower = Follower::connect(&addr, Arc::clone(&group), opts()).unwrap();
        assert!(!follower.synced);
        assert_eq!(follower.poll_once().unwrap(), 2);
        served.join().unwrap();
        drop(follower);
        let state = wal.join("REPLICA");
        assert_eq!(
            std::fs::read_to_string(&state).unwrap(),
            "simrepl v1\nepoch 3\nfloor 8\n"
        );

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let synced = || {
            Follower::connect(&addr, Arc::clone(&group), opts())
                .unwrap()
                .synced
        };
        assert!(synced(), "an intact state file resumes");
        for damaged in [
            "simrepl v1\nepoch 3\n",
            "simrepl v1\nepoch x\nfloor 8\n",
            "simrepl v1\nepoch 3\nfloor 8\nfloor 8\n",
            "simrepl v2\nepoch 3\nfloor 8\n",
            "",
        ] {
            std::fs::write(&state, damaged).unwrap();
            assert!(!synced(), "{damaged:?}");
        }
        drop(group);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn snapshot_rows_of_mixed_length_are_refused() {
        assert_refused(
            "OK repl=snapshot epoch=1 next=1 seq_len=4 count=2\n\
             SNAP ord=0 live=yes data=1,2,3,4\n\
             SNAP ord=1 live=yes data=1,2,3\nEND\n",
            1,
        );
    }

    #[test]
    fn snapshot_rows_with_empty_data_are_refused() {
        assert_refused(
            "OK repl=snapshot epoch=1 next=1 seq_len=4 count=2\n\
             SNAP ord=0 live=yes data=1,2,3,4\n\
             SNAP ord=1 live=yes data=\nEND\n",
            1,
        );
    }

    #[test]
    fn snapshot_ordinals_out_of_order_are_refused() {
        assert_refused(
            "OK repl=snapshot epoch=1 next=1 seq_len=4 count=2\n\
             SNAP ord=5 live=yes data=1,2,3,4\n\
             SNAP ord=0 live=no data=4,3,2,1\nEND\n",
            1,
        );
    }

    #[test]
    fn snapshot_rows_shorter_than_seq_len_are_refused() {
        assert_refused(
            "OK repl=snapshot epoch=1 next=1 seq_len=9 count=2\n\
             SNAP ord=0 live=yes data=1,2,3,4\n\
             SNAP ord=1 live=yes data=4,3,2,1\nEND\n",
            1,
        );
    }

    #[test]
    fn empty_snapshot_is_refused() {
        assert_refused(
            "OK repl=snapshot epoch=3 next=9 seq_len=4 count=0\nEND\n",
            1,
        );
    }

    #[test]
    fn snapshot_rows_on_a_missing_shard_are_refused() {
        assert_refused(
            "OK repl=snapshot epoch=1 next=1 seq_len=4 shards=2 count=2\n\
             SNAP ord=0 shard=0 live=yes data=1,2,3,4\n\
             SNAP ord=1 shard=2 live=yes data=4,3,2,1\nEND\n",
            2,
        );
    }
}
