//! Seeded crash-point recovery suite: cut the write-ahead log at **every
//! byte offset**, recover, and assert the index is an **exact prefix** of
//! the acknowledged mutation schedule — never a wrong answer, never a
//! panic. Covers a plain index directory and 1/2/4/8-shard directories
//! (one index type and one log either way), half-finished checkpoints,
//! the group fsync window, logs and shard placements of earlier builds,
//! a plain directory staying plain through the group, fault plans armed
//! while replay itself runs, and the advisory directory locks.

use pagestore::{Disk, FaultPlan, FaultyDisk, PageDevice, PlanParams};
use simquery::index::{DeviceWrap, IndexConfig, SeqIndex};
use simquery::prelude::*;
use simquery::report::QueryError;
use simquery::shared::{DurableError, SharedIndex};
use simshard::{gather, shard_of, ShardConfig, ShardedIndex};
use simwal::{decode_frames, FsyncPolicy, Wal, WalError, WalOp};
use simwal::{HEADER_LEN, LOG_FILE, MANIFEST_FILE};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use tseries::random_walk;
use tseries::rng::SeededRng;

const SEQ_LEN: usize = 16;
const POOL: usize = 32;

/// Channel for the faulted devices installed by a `DeviceWrap` hook.
type SmuggledDisks = Arc<Mutex<Option<(Arc<FaultyDisk>, Arc<FaultyDisk>)>>>;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simseq_recovery_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Recursive copy that skips advisory `LOCK` files — a copied lock would
/// name this very process as the live owner and block every reopen.
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else if entry.file_name() != "LOCK" {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

fn config(shards: usize) -> ShardConfig {
    ShardConfig::new(shards).unwrap()
}

/// Writes `corpus` as a shard directory in the layout of the builds that
/// let a user pick the placement: shard `assignment[g]` holds ordinal `g`,
/// and `sharding.txt` names the `policy` that placed them.
fn write_placed_group(dir: &Path, corpus: &Corpus, assignment: &[usize], policy: &str) {
    let shards = assignment.iter().max().unwrap() + 1;
    for s in 0..shards {
        let (names, series) = (0..corpus.len())
            .filter(|&g| assignment[g] == s)
            .map(|g| (corpus.names()[g].clone(), corpus.series()[g].clone()))
            .unzip();
        SeqIndex::build(&Corpus::from_parts(names, series), IndexConfig::default())
            .unwrap()
            .save(&dir.join(format!("shard-{s}")))
            .unwrap();
    }
    let assignment: Vec<String> = assignment.iter().map(usize::to_string).collect();
    let manifest = format!(
        "simshard v1\nshards {shards}\npartitioner {policy}\nseq_len {}\nepoch 1\n\
         assignment {}\n",
        corpus.series_len(),
        assignment.join(",")
    );
    std::fs::write(dir.join("sharding.txt"), manifest).unwrap();
}

/// One acknowledged mutation of the scripted schedule.
#[derive(Clone)]
enum Op {
    Insert(Vec<f64>),
    Delete(usize),
}

/// A seeded schedule that never deletes a dead ordinal, so every op logs
/// exactly one WAL frame: op `j` carries LSN `j + 1`.
fn schedule(seed: u64, initial: usize, n_ops: usize) -> Vec<Op> {
    let mut rng = SeededRng::seed_from_u64(seed);
    let mut live: Vec<usize> = (0..initial).collect();
    let mut next = initial;
    let mut ops = Vec::new();
    for _ in 0..n_ops {
        if rng.random_range(0u32..4) == 0 && live.len() > 1 {
            let pick = rng.random_range(0..live.len());
            ops.push(Op::Delete(live.swap_remove(pick)));
        } else {
            let ts = random_walk(&mut rng, SEQ_LEN, 100.0);
            ops.push(Op::Insert(ts.values().to_vec()));
            live.push(next);
            next += 1;
        }
    }
    ops
}

/// Ground truth after a prefix of the schedule: `(values, alive)` per
/// global ordinal.
fn shadow_after(corpus: &Corpus, ops: &[Op]) -> Vec<(Vec<f64>, bool)> {
    let mut state: Vec<(Vec<f64>, bool)> = corpus
        .series()
        .iter()
        .map(|ts| (ts.values().to_vec(), true))
        .collect();
    for op in ops {
        match op {
            Op::Insert(v) => state.push((v.clone(), true)),
            Op::Delete(g) => state[*g].1 = false,
        }
    }
    state
}

fn assert_single_state(index: &SeqIndex, want: &[(Vec<f64>, bool)], ctx: &str) {
    assert_eq!(index.len(), want.len(), "{ctx}: sequence count");
    let dead: HashSet<usize> = index.deleted_ordinals().into_iter().collect();
    for (g, (values, alive)) in want.iter().enumerate() {
        assert_eq!(!dead.contains(&g), *alive, "{ctx}: tombstone of {g}");
        if *alive {
            let got = index
                .fetch_series(g)
                .unwrap_or_else(|e| panic!("{ctx}: fetch {g}: {e}"));
            assert_eq!(got.values(), &values[..], "{ctx}: values of {g}");
        }
    }
}

fn assert_sharded_state(ix: &ShardedIndex, want: &[(Vec<f64>, bool)], ctx: &str) {
    assert_eq!(ix.len(), want.len(), "{ctx}: sequence count");
    let map = ix.map_snapshot();
    let mut dead = HashSet::new();
    for (s, shared) in ix.shards().iter().enumerate() {
        for l in shared.read().deleted_ordinals() {
            dead.insert(map.globals_of(s)[l]);
        }
    }
    for (g, (values, alive)) in want.iter().enumerate() {
        assert_eq!(!dead.contains(&g), *alive, "{ctx}: tombstone of {g}");
        if *alive {
            let got = ix
                .fetch_series(g)
                .unwrap_or_else(|e| panic!("{ctx}: fetch {g}: {e}"))
                .unwrap_or_else(|| panic!("{ctx}: {g} is not mapped"));
            assert_eq!(got.values(), &values[..], "{ctx}: values of {g}");
        }
    }
}

fn apply_single(shared: &SharedIndex, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Insert(v) => {
                shared.insert_series(&TimeSeries::new(v.clone())).unwrap();
            }
            Op::Delete(g) => assert!(shared.delete_series(*g).unwrap()),
        }
    }
}

fn apply_sharded(ix: &ShardedIndex, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Insert(v) => {
                ix.insert_series(&TimeSeries::new(v.clone())).unwrap();
            }
            Op::Delete(g) => assert!(ix.delete_series(*g).unwrap()),
        }
    }
}

/// Every file under `dir` with its bytes, `LOCK`s aside — what "left
/// untouched" is checked against.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(tree(&path));
        } else if path.file_name().unwrap() != "LOCK" {
            let bytes = std::fs::read(&path).unwrap();
            files.insert(path, bytes);
        }
    }
    files
}

fn assert_state(ix: ShardedIndex, want: &[(Vec<f64>, bool)], ctx: &str) {
    match SharedIndex::try_from(Arc::new(ix)) {
        Ok(shared) => assert_single_state(&shared.read(), want, ctx),
        Err(ix) => assert_sharded_state(&ix, want, ctx),
    }
}

/// Saves a snapshot with `save`, logs `ops` on it, then cuts the store's
/// one log at every byte offset: the recovered store must hold exactly
/// the frames that survive intact below the cut. Either layout.
fn recovers_exact_prefix_at_every_cut(
    name: &str,
    corpus: &Corpus,
    save: &dyn Fn(&Path),
    ops: &[Op],
) {
    let root = fresh_dir(name);
    let idx = root.join("idx");
    let wal = root.join("wal");
    save(&idx);
    {
        let (store, rep) =
            ShardedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Never).expect("clean open");
        assert_eq!(rep.frames, 0);
        assert_eq!(store.wal_epoch(), Some(1));
        apply_sharded(&store, ops);
        assert!(store.sync_wal().unwrap());
    }
    let on_disk: Vec<PathBuf> = tree(&wal).into_keys().collect();
    assert_eq!(
        on_disk,
        [wal.join(MANIFEST_FILE), wal.join(LOG_FILE)],
        "{name}: a store keeps one log, directly in its wal directory"
    );
    let log = std::fs::read(wal.join(LOG_FILE)).unwrap();
    assert!(log.len() as u64 > HEADER_LEN, "schedule produced no frames");

    for cut in 0..=log.len() {
        let case = root.join(format!("cut{cut}"));
        copy_dir(&idx, &case.join("idx"));
        std::fs::create_dir_all(case.join("wal")).unwrap();
        std::fs::write(case.join("wal").join(LOG_FILE), &log[..cut]).unwrap();
        std::fs::copy(
            wal.join(MANIFEST_FILE),
            case.join("wal").join(MANIFEST_FILE),
        )
        .unwrap();

        // A cut inside the 16-byte header reads as a fresh, empty log.
        let expect = if cut <= HEADER_LEN as usize {
            0
        } else {
            decode_frames(&log[HEADER_LEN as usize..cut]).0.len()
        };
        let ctx = format!("{name}: cut {cut}");
        let (store, rep) = ShardedIndex::open_durable(
            &case.join("idx"),
            &case.join("wal"),
            POOL,
            FsyncPolicy::Never,
        )
        .unwrap_or_else(|e| panic!("{ctx}: recovery errored: {e}"));
        assert_eq!(rep.frames, expect, "{ctx}: replayed frame count");
        assert_state(store, &shadow_after(corpus, &ops[..expect]), &ctx);
        std::fs::remove_dir_all(&case).unwrap();
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn single_index_recovers_exact_prefix_at_every_cut() {
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 6, SEQ_LEN, 0xD0C);
    let save = |dir: &Path| {
        SeqIndex::build(&corpus, IndexConfig::default())
            .expect("non-empty corpus")
            .save(dir)
            .unwrap()
    };
    recovers_exact_prefix_at_every_cut("single_cut", &corpus, &save, &schedule(0xBEEF, 6, 10));
}

/// The same cut for 1/2/4/8 shards: the group's frames interleave in one
/// log, so a lost tail can never sit *below* a surviving frame of a
/// sibling shard. (The hash fills 8 shards from 13 ordinals on.)
#[test]
fn sharded_recovers_exact_prefix_at_every_cut() {
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 13, SEQ_LEN, 0x5EED);
    for shards in [1usize, 2, 4, 8] {
        let save = |dir: &Path| {
            ShardedIndex::build(&corpus, config(shards), IndexConfig::default())
                .expect("buildable corpus")
                .save(dir)
                .unwrap()
        };
        let ops = schedule(0xAB0 + shards as u64, 13, 8);
        recovers_exact_prefix_at_every_cut(&format!("shard{shards}_cut"), &corpus, &save, &ops);
    }
}

/// `--fsync N` bounds the un-synced acknowledged mutations of the *group*
/// by N: a crash that keeps only the fsynced bytes recovers exactly the
/// first ⌊k/N⌋·N of k mutations, however they spread over the shards.
#[test]
fn sharded_fsync_window_bounds_the_group() {
    let root = fresh_dir("fsync_window");
    let idx = root.join("idx");
    let wal = root.join("wal");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 12, SEQ_LEN, 0xF5);
    ShardedIndex::build(&corpus, config(4), IndexConfig::default())
        .unwrap()
        .save(&idx)
        .unwrap();
    let ops = schedule(0xF5F5, 12, 10);
    let durable = {
        let (ix, _) = ShardedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::EveryN(3)).unwrap();
        apply_sharded(&ix, &ops);
        ix.wal_durable_bytes().unwrap()
    };
    // The crash: the page-cache tail past the last fsync is gone.
    let log = std::fs::read(wal.join(LOG_FILE)).unwrap();
    assert!(durable < log.len() as u64, "the tenth frame is unsynced");
    std::fs::write(wal.join(LOG_FILE), &log[..durable as usize]).unwrap();

    let (ix, rep) = ShardedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::EveryN(3)).unwrap();
    assert_eq!((rep.frames, rep.truncated_bytes), (9, 0));
    assert_sharded_state(&ix, &shadow_after(&corpus, &ops[..9]), "fsync window");
    drop(ix);
    let _ = std::fs::remove_dir_all(&root);
}

/// A crash after every shard snapshot was checkpointed but before the
/// manifest bump: an epoch-1 manifest and epoch-1 log over epoch-2 shard
/// snapshots. Replay must be idempotent — skip frames the snapshots
/// already hold, re-extend the global map — and land on exactly the
/// pre-crash state.
///
/// The second case starts from a directory whose placement the hash
/// does not give (contiguous chunks, as range placement wrote them) and
/// tombstones all of its shard 3 before inserting: replay trusts the
/// manifest's assignment and each frame's `shard` slot, never a
/// re-derived placement.
#[test]
fn sharded_half_checkpoint_replays_idempotently() {
    let mut rng = SeededRng::seed_from_u64(0x4A6E);
    let mut refill: Vec<Op> = (9..12).map(Op::Delete).collect();
    refill.extend(
        (0..5).map(|_| Op::Insert(random_walk(&mut rng, SEQ_LEN, 100.0).values().to_vec())),
    );
    let chunks: Vec<usize> = (0..12).map(|g| g / 3).collect();
    for (name, placed, initial, ops) in [
        ("half_ckpt", None, 10, schedule(0x51AB, 10, 12)),
        ("half_ckpt_range", Some(&chunks), 12, refill),
    ] {
        let root = fresh_dir(name);
        let idx = root.join("idx");
        let wal = root.join("wal");
        let corpus = Corpus::generate(CorpusKind::SyntheticWalks, initial, SEQ_LEN, 0xCAFE);
        match placed {
            Some(assignment) => write_placed_group(&idx, &corpus, assignment, "range"),
            None => ShardedIndex::build(&corpus, config(4), IndexConfig::default())
                .unwrap()
                .save(&idx)
                .unwrap(),
        }
        {
            let (ix, _) =
                ShardedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Always).unwrap();
            apply_sharded(&ix, &ops);
            for g in initial..ix.len() {
                assert_eq!(ix.locate(g).unwrap().0, shard_of(g, 4), "{name}: {g}");
            }
        }
        // Pre-checkpoint image: epoch-1 manifest + full log.
        let pre = root.join("pre");
        copy_dir(&idx, &pre.join("idx"));
        copy_dir(&wal, &pre.join("wal"));

        // Run the checkpoint for real, then compose the torn state: the
        // checkpointed (epoch 2) shard snapshots under the OLD (epoch 1)
        // manifest and log.
        {
            let (ix, _) =
                ShardedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Always).unwrap();
            assert_eq!(ix.checkpoint().unwrap(), Some(2));
        }
        let torn = root.join("torn");
        copy_dir(&idx, &torn.join("idx")); // epoch-2 shard snapshots
        copy_dir(&pre.join("wal"), &torn.join("wal")); // epoch-1 log
        std::fs::copy(
            pre.join("idx").join("sharding.txt"),
            torn.join("idx").join("sharding.txt"),
        )
        .unwrap();

        let (ix, rec) = ShardedIndex::open_durable(
            &torn.join("idx"),
            &torn.join("wal"),
            POOL,
            FsyncPolicy::Always,
        )
        .unwrap_or_else(|e| panic!("{name}: half-checkpoint state must recover: {e}"));
        assert_eq!(rec.epoch, 1, "{name}: the manifest is the epoch authority");
        assert_eq!(rec.frames, ops.len(), "{name}: every frame replays");
        assert_sharded_state(&ix, &shadow_after(&corpus, &ops), name);
        drop(ix);
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Every match of a range query as `(sequence, transform, distance bits)`,
/// sorted — exact equality, distances included.
fn exact_range(ix: &ShardedIndex, lq: &LogicalQuery, q: &TimeSeries) -> Vec<(usize, usize, u64)> {
    let (_, r, _) = gather::execute_range(ix, lq, q).unwrap();
    let mut v: Vec<_> = r
        .matches
        .iter()
        .map(|m| (m.seq, m.transform, m.dist.to_bits()))
        .collect();
    v.sort_unstable();
    v
}

/// kNN answers in rank order, `(sequence, transform, distance bits)`.
fn exact_knn(ix: &ShardedIndex, lq: &LogicalQuery, q: &TimeSeries) -> Vec<(usize, usize, u64)> {
    let (_, m, _, _) = gather::execute_knn(ix, lq, q).unwrap();
    m.iter()
        .map(|m| (m.seq, m.transform, m.dist.to_bits()))
        .collect()
}

/// Directories written while placement was a user's choice open
/// unchanged: the manifest's `assignment` places every ordinal they hold
/// (the policy key is read and ignored), range and kNN queries answer
/// exactly as the flat index does before and after an insert, the insert
/// lands on `shard_of`, and a save keeps the old placement.
#[test]
fn placed_groups_of_earlier_builds_answer_exactly() {
    let n = 40;
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, n, SEQ_LEN, 0x91AC);
    let family = Family::moving_averages(2..=6, SEQ_LEN);
    let mut rng = SeededRng::seed_from_u64(0x91AD);
    let extra = random_walk(&mut rng, SEQ_LEN, 100.0);
    let chunks: Vec<usize> = (0..n).map(|g| g / 10).collect();
    let stripes: Vec<usize> = (0..n).map(|g| g % 3).collect();
    for (policy, assignment) in [("range", &chunks), ("round-robin", &stripes)] {
        let root = fresh_dir(&format!("placed_{policy}"));
        write_placed_group(&root.join("idx"), &corpus, assignment, policy);
        let group = ShardedIndex::open(&root.join("idx"), POOL).unwrap();
        let shards = group.shard_count();
        let flat = SharedIndex::new(SeqIndex::build(&corpus, IndexConfig::default()).unwrap());
        let same_answers = |group: &ShardedIndex, ctx: &str| {
            for qi in [3usize, 17, 31] {
                let q = &corpus.series()[qi];
                for spec in [
                    RangeSpec::correlation(0.9).with_policy(FilterPolicy::Safe),
                    RangeSpec::correlation(0.9).with_policy(FilterPolicy::Adaptive),
                    RangeSpec::euclidean(4.0).with_policy(FilterPolicy::Adaptive),
                ] {
                    for engine in [EngineChoice::Mt, EngineChoice::St, EngineChoice::Scan] {
                        let lq = LogicalQuery::range(family.clone(), spec)
                            .with_engine(EnginePref::Force(engine));
                        let want = exact_range(&flat, &lq, q);
                        assert!(!want.is_empty(), "{ctx}: query {qi} finds itself");
                        assert_eq!(exact_range(group, &lq, q), want, "{ctx}: {engine:?} {qi}");
                    }
                }
                let lq = LogicalQuery::knn(family.clone(), 6);
                assert_eq!(
                    exact_knn(group, &lq, q),
                    exact_knn(&flat, &lq, q),
                    "{ctx}: kNN"
                );
            }
        };
        for (g, &s) in assignment.iter().enumerate() {
            assert_eq!(group.locate(g).unwrap().0, s, "{policy}: {g}");
        }
        same_answers(&group, policy);

        assert_eq!(group.insert_series(&extra).unwrap(), n);
        assert_eq!(flat.insert_series(&extra).unwrap(), n);
        assert_eq!(group.locate(n).unwrap().0, shard_of(n, shards), "{policy}");
        same_answers(&group, &format!("{policy} + insert"));

        group.save(&root.join("saved")).unwrap();
        let manifest = std::fs::read_to_string(root.join("saved/sharding.txt")).unwrap();
        let keys: Vec<&str> = manifest
            .lines()
            .filter_map(|l| l.split(' ').next())
            .collect();
        assert_eq!(
            keys,
            ["simshard", "shards", "seq_len", "epoch", "assignment"]
        );
        let saved = ShardedIndex::open(&root.join("saved"), POOL).unwrap();
        for g in 0..=n {
            assert_eq!(saved.locate(g), group.locate(g), "{policy}: {g} after save");
        }
        drop((group, saved));
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Earlier builds kept one log per shard under `wal_root/shard-N/`. Such
/// a directory is refused with a typed error naming it, and nothing in
/// either directory is created, changed or removed — above all no fresh
/// `wal.log` beside the un-replayed frames.
#[test]
fn per_shard_log_layout_is_refused_untouched() {
    let root = fresh_dir("old_layout");
    let idx = root.join("idx");
    let wal = root.join("wal");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 8, SEQ_LEN, 0x01D);
    ShardedIndex::build(&corpus, config(2), IndexConfig::default())
        .unwrap()
        .save(&idx)
        .unwrap();
    for shard in 0..2u64 {
        let (log, _, _) =
            Wal::open(&wal.join(format!("shard-{shard}")), FsyncPolicy::Always, 1).unwrap();
        log.append(&WalOp::Delete {
            lsn: shard + 1,
            global: shard,
            shard: 0,
        })
        .unwrap();
    }
    let before = (tree(&idx), tree(&wal));
    let refusals = [
        ShardedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Always).err(),
        SharedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Always).err(),
    ];
    for err in refusals {
        match err.expect("the old layout must be refused") {
            DurableError::Wal(WalError::Corrupt(msg)) => {
                assert!(msg.contains("shard-0") && msg.contains("recover"), "{msg}")
            }
            other => panic!("wrong error type: {other}"),
        }
    }
    assert!((tree(&idx), tree(&wal)) == before, "files changed");
    let _ = std::fs::remove_dir_all(&root);
}

/// A single index never reads a frame's third slot. Earlier builds stored
/// the ordinal there (this build writes 0); their logs replay to the same
/// state.
#[test]
fn single_index_replays_logs_with_a_nonzero_third_slot() {
    let root = fresh_dir("third_slot");
    let idx = root.join("idx");
    let wal = root.join("wal");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 6, SEQ_LEN, 0x3D);
    SeqIndex::build(&corpus, IndexConfig::default())
        .unwrap()
        .save(&idx)
        .unwrap();
    let values = corpus.series()[0].values().to_vec();
    let ops = [Op::Insert(values.clone()), Op::Delete(2), Op::Delete(6)];
    {
        let (log, _, _) = Wal::open(&wal, FsyncPolicy::Always, 1).unwrap();
        let (lsn, global, shard) = (1, 6, 6);
        let insert = WalOp::Insert {
            lsn,
            global,
            shard,
            values,
        };
        log.append(&insert).unwrap();
        for (lsn, global) in [(2, 2), (3, 6)] {
            let shard = global;
            log.append(&WalOp::Delete { lsn, global, shard }).unwrap();
        }
    }
    let (shared, rep) = SharedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Always).unwrap();
    assert_eq!(rep.frames, ops.len());
    assert_single_state(&shared.read(), &shadow_after(&corpus, &ops), "third slot");
    drop(shared);
    let _ = std::fs::remove_dir_all(&root);
}

/// A plain index directory opens as a group of one and stays what it
/// was: inserted into, deleted from, checkpointed and reopened through the
/// one index type, it never gains a `sharding.txt` or a `shard-0/`, and a
/// bare [`SeqIndex::open`] still reads it. A log of the frames single-index
/// builds wrote (`shard = 0`, `global` = the ordinal) replays through the
/// group's apply to the same state.
#[test]
fn plain_directory_stays_plain_through_the_group() {
    let root = fresh_dir("stays_plain");
    let idx = root.join("idx");
    let wal = root.join("wal");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 6, SEQ_LEN, 0x91A1);
    SeqIndex::build(&corpus, IndexConfig::default())
        .unwrap()
        .save(&idx)
        .unwrap();
    let ops = schedule(0x91A2, 6, 8);
    let want = shadow_after(&corpus, &ops);
    let assert_plain = |ctx: &str| {
        assert!(idx.join("meta.txt").is_file(), "{ctx}: meta.txt");
        assert!(!idx.join("sharding.txt").exists(), "{ctx}: sharding.txt");
        assert!(!idx.join("shard-0").exists(), "{ctx}: shard-0/");
    };
    {
        let (ix, _) = ShardedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Always).unwrap();
        assert_eq!((ix.shard_count(), ix.sharding()), (1, None));
        apply_sharded(&ix, &ops);
        assert_plain("before the checkpoint");
        assert_eq!(ix.checkpoint().unwrap(), Some(2));
        assert_plain("after the checkpoint");
    }
    let (ix, rep) = ShardedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Always).unwrap();
    assert_eq!(
        (rep.epoch, rep.frames),
        (2, 0),
        "the checkpoint folded the log"
    );
    assert_sharded_state(&ix, &want, "reopened group");
    drop(ix);
    assert_plain("after the reopen");
    assert_single_state(&SeqIndex::open(&idx, POOL).unwrap(), &want, "bare open");

    // The same schedule as a log of single-index frames, over the
    // original snapshot.
    let (idx, wal) = (root.join("idx2"), root.join("wal2"));
    SeqIndex::build(&corpus, IndexConfig::default())
        .unwrap()
        .save(&idx)
        .unwrap();
    {
        let (log, _, _) = Wal::open(&wal, FsyncPolicy::Always, 1).unwrap();
        let mut next = corpus.len() as u64;
        for (i, op) in ops.iter().enumerate() {
            let lsn = i as u64 + 1;
            let frame = match op {
                Op::Insert(values) => {
                    next += 1;
                    WalOp::Insert {
                        lsn,
                        global: next - 1,
                        shard: 0,
                        values: values.clone(),
                    }
                }
                Op::Delete(g) => WalOp::Delete {
                    lsn,
                    global: *g as u64,
                    shard: 0,
                },
            };
            log.append(&frame).unwrap();
        }
    }
    let (ix, rep) = ShardedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Always).unwrap();
    assert_eq!(rep.frames, ops.len());
    assert_sharded_state(&ix, &want, "single-index frames");
    drop(ix);
    let _ = std::fs::remove_dir_all(&root);
}

/// Seeded fault plans armed on the page devices **while replay runs**:
/// every open either recovers (state exact wherever the device is
/// un-torn) or fails with a typed error — never a panic, never a wrong
/// answer.
#[test]
fn faulted_replay_is_typed_error_or_exact_result() {
    let root = fresh_dir("faulted_replay");
    let idx = root.join("idx");
    let wal = root.join("wal");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 8, SEQ_LEN, 0xFA11);
    SeqIndex::build(&corpus, IndexConfig::default())
        .unwrap()
        .save(&idx)
        .unwrap();
    let ops = schedule(0xF00D, 8, 12);
    {
        let (shared, _) = SharedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Always).unwrap();
        apply_single(&shared, &ops);
    }
    let want = shadow_after(&corpus, &ops);
    let params = PlanParams {
        horizon: 150,
        max_page: 64,
        faults: 5,
    };

    let (mut oks, mut errs) = (0u64, 0u64);
    for seed in 0..60u64 {
        let case = root.join(format!("seed{seed}"));
        copy_dir(&idx, &case.join("idx"));
        copy_dir(&wal, &case.join("wal"));

        // Smuggle the device handles out of the one-shot wrap hook so a
        // successful open can be inspected with the plan disarmed.
        let handles: SmuggledDisks = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&handles);
        let wrap: DeviceWrap = Box::new(move |tree, heap| {
            let tree = Arc::new(FaultyDisk::new(tree));
            let heap = Arc::new(FaultyDisk::new(heap));
            tree.arm(FaultPlan::generate(seed, &params));
            heap.arm(FaultPlan::generate(seed ^ 0x9E37_79B9_7F4A_7C15, &params));
            *sink.lock().unwrap() = Some((Arc::clone(&tree), Arc::clone(&heap)));
            (tree as Arc<dyn PageDevice>, heap as Arc<dyn PageDevice>)
        });

        let mut wrap = Some(wrap);
        let opened = ShardedIndex::open_durable_with(
            &case.join("idx"),
            &case.join("wal"),
            POOL,
            FsyncPolicy::Never,
            |_| wrap.take(),
        )
        .map(|(ix, rep)| {
            let shared = SharedIndex::try_from(Arc::new(ix)).expect("a plain directory");
            (shared, rep)
        });
        match opened {
            Ok((shared, rep)) => {
                assert_eq!(rep.frames, ops.len(), "seed {seed}: full replay");
                let (tree, heap) = handles.lock().unwrap().take().expect("wrap hook ran");
                tree.disarm();
                heap.disarm();
                let torn = !tree.torn_pages().is_empty() || !heap.torn_pages().is_empty();
                if !torn {
                    // Every write landed intact: state must be exact.
                    assert_single_state(&shared.read(), &want, &format!("seed {seed}"));
                    oks += 1;
                } else {
                    // Torn pages surface as typed errors on read; pages
                    // that read back must still be exact.
                    let index = shared.read();
                    assert_eq!(index.len(), want.len(), "seed {seed}: sequence count");
                    for (g, (values, alive)) in want.iter().enumerate() {
                        if !alive {
                            continue;
                        }
                        if let Ok(got) = index.fetch_series(g) {
                            assert_eq!(
                                got.values(),
                                &values[..],
                                "seed {seed}: torn-device fetch of {g} returned a WRONG ANSWER"
                            );
                        }
                    }
                    oks += 1;
                }
            }
            Err(
                DurableError::Query(_)
                | DurableError::Wal(_)
                | DurableError::Io(_)
                | DurableError::Poisoned
                | DurableError::Fenced { .. }
                | DurableError::Gap { .. },
            ) => errs += 1,
        }
        std::fs::remove_dir_all(&case).unwrap();
    }
    assert!(
        oks > 0,
        "no fault schedule let replay finish ({errs} errors)"
    );
    assert!(errs > 0, "no fault schedule ever fired during replay");
    let _ = std::fs::remove_dir_all(&root);
}

/// The sharded variant: a fault plan armed on ONE shard's devices during
/// a durable open. A failed replay leaves the log as it was, so a later
/// clean open still recovers the full prefix.
#[test]
fn sharded_faulted_replay_keeps_logs_for_the_next_open() {
    let root = fresh_dir("sharded_faulted_replay");
    let idx = root.join("idx");
    let wal = root.join("wal");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 12, SEQ_LEN, 0x0DDB);
    ShardedIndex::build(&corpus, config(4), IndexConfig::default())
        .unwrap()
        .save(&idx)
        .unwrap();
    let ops = schedule(0x7EA5, 12, 10);
    {
        let (ix, _) = ShardedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Always).unwrap();
        apply_sharded(&ix, &ops);
    }
    let want = shadow_after(&corpus, &ops);
    let params = PlanParams {
        horizon: 150,
        max_page: 64,
        faults: 5,
    };

    let (mut oks, mut errs) = (0u64, 0u64);
    for seed in 0..40u64 {
        let case = root.join(format!("seed{seed}"));
        copy_dir(&idx, &case.join("idx"));
        copy_dir(&wal, &case.join("wal"));

        let torn_flag = Arc::new(Mutex::new(Vec::<Arc<FaultyDisk>>::new()));
        let sink = Arc::clone(&torn_flag);
        let result = ShardedIndex::open_durable_with(
            &case.join("idx"),
            &case.join("wal"),
            POOL,
            FsyncPolicy::Never,
            |shard| {
                if shard != 1 {
                    return None;
                }
                let sink = Arc::clone(&sink);
                Some(Box::new(move |tree: Arc<Disk>, heap: Arc<Disk>| {
                    let tree = Arc::new(FaultyDisk::new(tree));
                    let heap = Arc::new(FaultyDisk::new(heap));
                    tree.arm(FaultPlan::generate(seed, &params));
                    heap.arm(FaultPlan::generate(seed.rotate_left(17), &params));
                    sink.lock()
                        .unwrap()
                        .extend([Arc::clone(&tree), Arc::clone(&heap)]);
                    (tree as Arc<dyn PageDevice>, heap as Arc<dyn PageDevice>)
                }) as DeviceWrap)
            },
        );
        match result {
            Ok((ix, rec)) => {
                assert_eq!(rec.frames, ops.len(), "seed {seed}: full replay");
                let devices = std::mem::take(&mut *torn_flag.lock().unwrap());
                for d in &devices {
                    d.disarm();
                }
                if devices.iter().all(|d| d.torn_pages().is_empty()) {
                    assert_sharded_state(&ix, &want, &format!("seed {seed}"));
                }
                oks += 1;
            }
            Err(_) => {
                errs += 1;
                // The faulted open must not have touched the log: a clean
                // open right after still recovers the full schedule.
                let (ix, rec) = ShardedIndex::open_durable(
                    &case.join("idx"),
                    &case.join("wal"),
                    POOL,
                    FsyncPolicy::Never,
                )
                .unwrap_or_else(|e| panic!("seed {seed}: clean reopen errored: {e}"));
                assert_eq!(rec.frames, ops.len(), "seed {seed}: the log was preserved");
                assert_sharded_state(&ix, &want, &format!("seed {seed} reopen"));
            }
        }
        std::fs::remove_dir_all(&case).unwrap();
    }
    assert!(
        oks > 0,
        "no fault schedule let replay finish ({errs} errors)"
    );
    assert!(errs > 0, "no fault schedule ever fired during replay");
    let _ = std::fs::remove_dir_all(&root);
}

/// Parity satellite for the PR-2 chaos contract: a *saved sharded index*
/// reopened with a fault plan armed on one shard answers every scatter-
/// gather query with the exact result or a typed IO error.
#[test]
fn sharded_reopen_under_faults_is_typed_or_exact() {
    let root = fresh_dir("sharded_faulted_open");
    let idx = root.join("idx");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 24, SEQ_LEN, 0xFEED);
    ShardedIndex::build(&corpus, config(4), IndexConfig::default())
        .unwrap()
        .save(&idx)
        .unwrap();

    let family = Family::moving_averages(2..=6, SEQ_LEN);
    let spec = RangeSpec::correlation(0.9).with_policy(FilterPolicy::Safe);
    let q = corpus.series()[3].clone();
    let lq = LogicalQuery::range(family, spec).with_engine(EnginePref::Force(EngineChoice::Mt));
    let control = {
        let ix = ShardedIndex::open(&idx, POOL).unwrap();
        gather::execute_range(&ix, &lq, &q)
            .unwrap()
            .1
            .sorted_pairs()
    };

    // A two-frame pool keeps the queries reaching the device instead of
    // living in the cache, and the short horizon keeps the generated
    // triggers inside the handful of accesses one gather performs.
    let params = PlanParams {
        horizon: 12,
        max_page: 64,
        faults: 4,
    };
    let (mut oks, mut errs) = (0u64, 0u64);
    for seed in 0..40u64 {
        let ix = ShardedIndex::open_with(&idx, 2, |shard| {
            (shard == 1).then(|| -> DeviceWrap {
                Box::new(move |tree, heap| {
                    let tree = Arc::new(FaultyDisk::new(tree));
                    let heap = Arc::new(FaultyDisk::new(heap));
                    tree.arm(FaultPlan::generate(seed, &params));
                    heap.arm(FaultPlan::generate(seed.rotate_left(17), &params));
                    (tree as Arc<dyn PageDevice>, heap as Arc<dyn PageDevice>)
                })
            })
        })
        .expect("the open itself runs on the plain disks");
        match gather::execute_range(&ix, &lq, &q) {
            Ok((_, r, _)) => {
                assert_eq!(
                    r.sorted_pairs(),
                    control,
                    "seed {seed}: faulted shard corrupted the gather"
                );
                oks += 1;
            }
            Err(QueryError::Io(_)) => errs += 1,
            Err(e) => panic!("seed {seed}: non-IO error from faulted gather: {e}"),
        }
    }
    assert!(
        oks > 0 && errs > 0,
        "fault plans too weak or too harsh: {oks} exact, {errs} errors"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The advisory locks: a second open of a live directory fails with a
/// typed `WouldBlock` error instead of silently sharing state, and the
/// lock dies with its holder.
#[test]
fn live_directories_are_locked() {
    let root = fresh_dir("locks");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 6, SEQ_LEN, 0x10C);

    let single = root.join("single");
    SeqIndex::build(&corpus, IndexConfig::default())
        .unwrap()
        .save(&single)
        .unwrap();
    let held = SeqIndex::open(&single, POOL).unwrap();
    let err = match SeqIndex::open(&single, POOL) {
        Ok(_) => panic!("second open must fail"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock, "{err}");
    // Read-only opens bypass the lock (and never take it themselves):
    // a verification oracle must coexist with the serving process.
    let ro = SeqIndex::open_read_only(&single, POOL).expect("read-only open while locked");
    assert_eq!(ro.len(), 6);
    drop(ro);
    drop(held);
    drop(SeqIndex::open(&single, POOL).expect("reopen after release"));

    let sharded = root.join("sharded");
    ShardedIndex::build(&corpus, config(2), IndexConfig::default())
        .unwrap()
        .save(&sharded)
        .unwrap();
    let held = ShardedIndex::open(&sharded, POOL).unwrap();
    let err = match ShardedIndex::open(&sharded, POOL) {
        Ok(_) => panic!("second open must fail"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock, "{err}");
    let ro = ShardedIndex::open_read_only(&sharded, POOL).expect("read-only open while locked");
    assert_eq!(ro.len(), 6);
    drop(ro);
    drop(held);
    drop(ShardedIndex::open(&sharded, POOL).expect("reopen after release"));
    let _ = std::fs::remove_dir_all(&root);
}
