//! Fault injection on the *follower's* devices during replication
//! apply: a shipped frame that cannot be applied must surface as a
//! typed error — never a wrong answer — and because a mid-apply device
//! fault can leave partial tree entries behind, the follower marks its
//! state suspect and re-syncs through a snapshot transfer instead of
//! blindly re-applying the frame. After the device recovers, one poll
//! re-installs the exact primary state.

mod common;

use common::{fresh_dir, test_config, POOL, SEQ_LEN};
use pagestore::{Disk, FaultKind, FaultPlan, FaultSpec, FaultyDisk, PageDevice, Trigger};
use simquery::prelude::*;
use simquery::shared::SharedIndex;
use simserve::client::Client;
use simserve::protocol::{EngineKind, ErrCode, QueryParams, Response, WireThreshold};
use simserve::repl::{Follower, FollowerOpts};
use simserve::server::{serve, serve_with, ServerHandle};
use simwal::FsyncPolicy;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tseries::random_walk;
use tseries::rng::SeededRng;

const BASE: usize = 18;

fn query_key(client: &mut Client, ord: usize) -> (usize, Vec<(usize, usize)>) {
    common::query_key(client, ord, EngineKind::Mt)
}

/// Persistent write errors on every page.
fn break_writes() -> FaultPlan {
    FaultPlan::new().with(FaultSpec {
        kind: FaultKind::WriteError,
        trigger: Trigger::OnPageRange {
            lo: 0,
            hi: u32::MAX,
        },
    })
}

/// Persistent read *and* write errors on every page.
fn break_everything() -> FaultPlan {
    break_writes().read_error_on_pages(0, u32::MAX)
}

struct Rig {
    hp: ServerHandle,
    hf: ServerHandle,
    pc: Client,
    fc: Client,
    follower: Follower,
    devices: Vec<Arc<FaultyDisk>>,
    rng: SeededRng,
    root: PathBuf,
}

/// A durable primary over loopback plus an in-memory follower whose
/// index runs on fault-injecting devices. The follower's state equals
/// the primary's base, so its replication position is asserted directly
/// (epoch 1, nothing applied) instead of going through a snapshot — the
/// campaign must hit the *frame apply* path, not the bootstrap.
fn rig(name: &str, seed: u64) -> Rig {
    let root = fresh_dir(name);
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, BASE, SEQ_LEN, 0xC0C);
    SeqIndex::build(&corpus, IndexConfig::default())
        .unwrap()
        .save(&root.join("idx"))
        .unwrap();
    let (shared_p, _) = SharedIndex::open_durable(
        &root.join("idx"),
        &root.join("wal"),
        POOL,
        FsyncPolicy::Always,
    )
    .unwrap();
    let hp = serve(shared_p, &test_config()).unwrap();
    let pc = Client::connect(hp.addr).unwrap();

    let tree = Arc::new(FaultyDisk::new(Arc::new(Disk::new())));
    let heap = Arc::new(FaultyDisk::new(Arc::new(Disk::new())));
    let index = SeqIndex::build_on(
        &corpus,
        IndexConfig::default(),
        Arc::clone(&tree) as Arc<dyn PageDevice>,
        Arc::clone(&heap) as Arc<dyn PageDevice>,
    )
    .unwrap()
    .unwrap();
    let shared_f = SharedIndex::new(index);
    shared_f.note_replica_position(1, 0);
    let follower = Follower::connect(
        &hp.addr.to_string(),
        shared_f.clone(),
        FollowerOpts {
            batch: 1,
            wait_ms: 0,
            state_dir: None,
            ..Default::default()
        },
    )
    .unwrap();
    let hf = serve_with(shared_f, &test_config(), Some(follower.stats())).unwrap();
    let fc = Client::connect(hf.addr).unwrap();
    Rig {
        hp,
        hf,
        pc,
        fc,
        follower,
        devices: vec![tree, heap],
        rng: SeededRng::seed_from_u64(seed),
        root,
    }
}

impl Rig {
    fn insert_on_primary(&mut self) {
        let ts = random_walk(&mut self.rng, SEQ_LEN, 50.0);
        self.pc.insert(ts.values().to_vec()).unwrap().unwrap();
    }

    fn finish(self) {
        self.fc.quit().unwrap();
        self.pc.quit().unwrap();
        self.hf.shutdown();
        self.hp.shutdown();
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Write faults only: the apply fails typed, reads keep serving the
/// exact pre-frame prefix (failed device writes leave old contents),
/// and the recovery poll re-syncs to the exact primary state.
#[test]
fn write_faulted_apply_keeps_prefix_exact_then_resyncs() {
    let mut r = rig("writes", 0xFA7);

    // Clean baseline: one frame streams and applies.
    r.insert_on_primary();
    assert_eq!(r.follower.poll_once().unwrap(), 1);
    assert_eq!(r.follower.applied(), 1);
    let prefix = query_key(&mut r.fc, 0);
    assert_eq!(prefix, query_key(&mut r.pc, 0), "baseline parity");

    for d in &r.devices {
        d.arm(break_writes());
    }
    r.insert_on_primary();
    let apply_err = r.follower.poll_once().unwrap_err();
    assert!(
        apply_err.to_string().contains("apply"),
        "the typed error names the failing stage: {apply_err}"
    );
    assert_eq!(
        r.follower.applied(),
        1,
        "the failed frame must not advance the prefix"
    );
    // Reads during the campaign: writes are broken, reads are not — the
    // follower still serves the exact pre-frame prefix.
    assert_eq!(query_key(&mut r.fc, 0), prefix, "prefix answers stay exact");

    // Recovery: the state is suspect after a mid-apply fault, so the
    // next poll re-handshakes through a snapshot, not a frame retry.
    for d in &r.devices {
        d.disarm();
    }
    assert_eq!(
        r.follower.poll_once().unwrap(),
        BASE + 2,
        "recovery re-installs the full snapshot"
    );
    assert_eq!(r.follower.applied(), 2);
    assert_eq!(
        r.follower.stats().snapshots.load(Ordering::Relaxed),
        1,
        "exactly one re-sync snapshot"
    );
    for ord in [0usize, 7, BASE, BASE + 1] {
        assert_eq!(
            query_key(&mut r.fc, ord),
            query_key(&mut r.pc, ord),
            "post-recovery parity at ord {ord}"
        );
    }
    assert!(
        r.devices.iter().map(|d| d.injected_total()).sum::<u64>() > 0,
        "the fault campaign never fired"
    );
    r.finish();
}

/// Reads and writes both fail: the apply errors typed, queries degrade
/// to typed `ERR IO` frames on a live connection — a refusal, never a
/// wrong answer — and recovery still converges through the snapshot.
#[test]
fn fully_faulted_apply_degrades_to_typed_errors_then_resyncs() {
    let mut r = rig("everything", 0xFA8);

    r.insert_on_primary();
    assert_eq!(r.follower.poll_once().unwrap(), 1);

    for d in &r.devices {
        d.arm(break_everything());
    }
    r.insert_on_primary();
    assert!(r.follower.poll_once().is_err());
    assert_eq!(r.follower.applied(), 1);
    // Every read verb degrades to a typed frame while the device is
    // down; the connection survives.
    match r.fc.query(QueryParams {
        ord: 0,
        ma: (3, 10),
        threshold: WireThreshold::Rho(0.9),
        engine: EngineKind::Mt,
        limit: 0,
    }) {
        Ok(Err(Response::Err { code, .. })) => assert_eq!(code, ErrCode::Io),
        other => panic!("expected a typed ERR IO frame, got {other:?}"),
    }
    match r.fc.knn(0, 3, (3, 10)) {
        Ok(Err(Response::Err { code, .. })) => assert_eq!(code, ErrCode::Io),
        other => panic!("expected a typed ERR IO frame, got {other:?}"),
    }

    for d in &r.devices {
        d.disarm();
    }
    assert_eq!(r.follower.poll_once().unwrap(), BASE + 2);
    assert_eq!(r.follower.applied(), 2);
    for ord in [0usize, 7, BASE + 1] {
        assert_eq!(
            query_key(&mut r.fc, ord),
            query_key(&mut r.pc, ord),
            "post-recovery parity at ord {ord}"
        );
    }
    assert!(r.devices.iter().map(|d| d.injected_total()).sum::<u64>() > 0);
    r.finish();
}
