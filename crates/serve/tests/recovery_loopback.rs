//! End-to-end durability over loopback TCP: mutate a WAL-backed server,
//! kill it without a checkpoint, restart on the same directories, and the
//! wire-visible state comes back exactly. Also exercises `SYNC` and
//! `CHECKPOINT` as protocol verbs, the WAL keys in `INFO`/`STATS`, and
//! the error on a server that runs without durability.

mod common;

use common::{fresh_dir, retry_locked, test_config, POOL, SEQ_LEN};
use simquery::prelude::*;
use simquery::shared::SharedIndex;
use simserve::client::Client;
use simserve::protocol::{EngineKind, ErrCode, Response};
use simserve::server::{serve, Backend};
use simshard::{ShardConfig, ShardedIndex};
use simwal::FsyncPolicy;
use tseries::random_walk;
use tseries::rng::SeededRng;

fn info_value(pairs: &[(String, String)], key: &str) -> String {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("INFO is missing `{key}`"))
        .1
        .clone()
}

fn fingerprint(client: &mut Client, ord: usize) -> Vec<(usize, usize)> {
    common::query_key(client, ord, EngineKind::Mt).1
}

#[test]
fn single_backend_crash_recovery_over_the_wire() {
    let root = fresh_dir("single");
    let idx = root.join("idx");
    let wal = root.join("wal");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 20, SEQ_LEN, 0xD1E);
    SeqIndex::build(&corpus, IndexConfig::default())
        .unwrap()
        .save(&idx)
        .unwrap();

    let mut rng = SeededRng::seed_from_u64(0xACED);
    let inserts: Vec<TimeSeries> = (0..3)
        .map(|_| random_walk(&mut rng, SEQ_LEN, 50.0))
        .collect();

    // Generation 1: serve durable, mutate over the wire, sync, and
    // "crash" (shut down without a checkpoint).
    {
        let (shared, rep) =
            SharedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::EveryN(2)).unwrap();
        assert_eq!(rep.frames, 0);
        let h = serve(shared, &test_config()).unwrap();
        let mut c = Client::connect(h.addr).unwrap();

        for (i, ts) in inserts.iter().enumerate() {
            let ord = c.insert(ts.values().to_vec()).unwrap().unwrap();
            assert_eq!(ord, 20 + i);
        }
        assert!(c.delete(5).unwrap().unwrap());
        c.sync().unwrap().unwrap();

        let info = c.info().unwrap().unwrap();
        assert_eq!(info_value(&info, "durable"), "true");
        assert_eq!(info_value(&info, "wal_epoch"), "1");
        let stats = c.stats(false).unwrap().unwrap();
        let w = stats.wal.expect("durable server reports a WAL stats line");
        assert_eq!(w.appends, 4, "three inserts and one delete were logged");
        assert!(w.fsyncs > 0, "EveryN(2) plus SYNC must have fsynced");
        assert_eq!(w.replayed, 0);
        assert_eq!(w.epoch, 1);
        c.quit().unwrap();
        h.shutdown();
    }

    // Control: the same corpus with the same mutations applied directly.
    let control_ix = {
        let mut all = corpus.series().to_vec();
        all.extend(inserts.iter().cloned());
        let names = (0..all.len()).map(|i| format!("s{i}")).collect();
        let full = Corpus::from_parts(names, all);
        let mut ix = SeqIndex::build(&full, IndexConfig::default()).unwrap();
        assert!(ix.delete_series(5).unwrap());
        ix
    };
    let h_control = serve(SharedIndex::new(control_ix), &test_config()).unwrap();
    let mut control = Client::connect(h_control.addr).unwrap();

    // Generation 2: reopen the same directories — the log replays — and
    // the wire-visible state matches the control exactly.
    {
        let (shared, rep) =
            retry_locked(|| SharedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::EveryN(2)));
        assert_eq!(rep.frames, 4, "all acknowledged mutations replay");
        let h = serve(shared, &test_config()).unwrap();
        let mut c = Client::connect(h.addr).unwrap();

        let info = c.info().unwrap().unwrap();
        assert_eq!(info_value(&info, "sequences"), "23");
        for ord in [0usize, 8, 21] {
            assert_eq!(
                fingerprint(&mut c, ord),
                fingerprint(&mut control, ord),
                "recovered server diverged from control at ord {ord}"
            );
        }
        let stats = c.stats(false).unwrap().unwrap();
        assert_eq!(stats.wal.unwrap().replayed, 4);

        // CHECKPOINT folds the log into a fresh epoch-2 snapshot.
        assert_eq!(c.checkpoint().unwrap().unwrap(), 2);
        let stats = c.stats(false).unwrap().unwrap();
        assert_eq!(stats.wal.unwrap().epoch, 2);
        c.quit().unwrap();
        h.shutdown();
    }

    // Generation 3: after the checkpoint, nothing replays.
    {
        let (shared, rep) =
            retry_locked(|| SharedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Always));
        assert_eq!(rep.frames, 0, "the checkpoint absorbed the log");
        assert_eq!(rep.epoch, 2);
        let h = serve(shared, &test_config()).unwrap();
        let mut c = Client::connect(h.addr).unwrap();
        for ord in [0usize, 8, 21] {
            assert_eq!(fingerprint(&mut c, ord), fingerprint(&mut control, ord));
        }
        c.quit().unwrap();
        h.shutdown();
    }
    control.quit().unwrap();
    h_control.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sharded_backend_crash_recovery_over_the_wire() {
    let root = fresh_dir("sharded");
    let idx = root.join("idx");
    let wal = root.join("wal");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 32, SEQ_LEN, 0x5EA);
    ShardedIndex::build(
        &corpus,
        ShardConfig::new(4).unwrap(),
        IndexConfig::default(),
    )
    .unwrap()
    .save(&idx)
    .unwrap();

    let mut rng = SeededRng::seed_from_u64(0xB0A7);
    let inserts: Vec<TimeSeries> = (0..4)
        .map(|_| random_walk(&mut rng, SEQ_LEN, 50.0))
        .collect();

    {
        let (ix, rec) = ShardedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Always).unwrap();
        assert_eq!(rec.frames, 0);
        let h = serve(Backend::from(ix), &test_config()).unwrap();
        let mut c = Client::connect(h.addr).unwrap();
        for (i, ts) in inserts.iter().enumerate() {
            assert_eq!(c.insert(ts.values().to_vec()).unwrap().unwrap(), 32 + i);
        }
        assert!(c.delete(7).unwrap().unwrap());
        c.sync().unwrap().unwrap();
        let info = c.info().unwrap().unwrap();
        assert_eq!(info_value(&info, "durable"), "true");
        let stats = c.stats(false).unwrap().unwrap();
        assert_eq!(stats.wal.unwrap().appends, 5);
        c.quit().unwrap();
        h.shutdown();
    }

    {
        let (ix, rec) =
            retry_locked(|| ShardedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Always));
        assert_eq!(rec.frames, 5, "all acknowledged mutations replay");
        let h = serve(Backend::from(ix), &test_config()).unwrap();
        let mut c = Client::connect(h.addr).unwrap();
        let info = c.info().unwrap().unwrap();
        assert_eq!(info_value(&info, "sequences"), "36");
        assert_eq!(info_value(&info, "deleted"), "1");

        let epoch = c.checkpoint().unwrap().unwrap();
        assert_eq!(epoch, 2);
        c.quit().unwrap();
        h.shutdown();
    }

    {
        let (_, rec) =
            retry_locked(|| ShardedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Always));
        assert_eq!(rec.frames, 0, "the checkpoint absorbed the log");
        assert_eq!(rec.epoch, 2);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sync_and_checkpoint_error_without_durability() {
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 12, SEQ_LEN, 0x404);
    let shared = SharedIndex::new(SeqIndex::build(&corpus, IndexConfig::default()).unwrap());
    let h = serve(shared, &test_config()).unwrap();
    let mut c = Client::connect(h.addr).unwrap();

    let info = c.info().unwrap().unwrap();
    assert_eq!(info_value(&info, "durable"), "false");
    for resp in [
        c.sync().unwrap().unwrap_err(),
        c.checkpoint().unwrap().unwrap_err(),
    ] {
        match resp {
            Response::Err { code, msg } => {
                assert_eq!(code, ErrCode::Query);
                assert!(
                    msg.contains("--wal"),
                    "error should point at the flag: {msg}"
                );
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
    }
    let stats = c.stats(false).unwrap().unwrap();
    assert!(stats.wal.is_none(), "no WAL line on a non-durable server");
    c.quit().unwrap();
    h.shutdown();
}
