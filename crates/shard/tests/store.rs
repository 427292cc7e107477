//! [`Store`] is a pure dispatcher: it picks the variant a directory's
//! layout calls for, and every method returns what the direct
//! [`SharedIndex`] / [`ShardedIndex`] call returns on the same data.

mod common;

use common::{sharded, single};

use simquery::plan::{LogicalQuery, PlanOutput};
use simquery::query::{FilterPolicy, RangeSpec};
use simquery::shared::{DurableError, SharedIndex};
use simquery::transform::Family;
use simshard::{gather, ShardConfig, Store};
use simwal::FsyncPolicy;
use std::path::PathBuf;
use std::sync::Arc;
use tseries::{Corpus, CorpusKind};

const N: usize = 60;
const LEN: usize = 64;
const SHARDS: usize = 3;

fn corpus() -> Corpus {
    Corpus::generate(CorpusKind::SyntheticWalks, N, LEN, 0x5702E)
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simshard_store_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn range_lq() -> LogicalQuery {
    LogicalQuery::range(
        Family::moving_averages(3..=9, LEN),
        RangeSpec::correlation(0.9).with_policy(FilterPolicy::Safe),
    )
}

fn pairs(out: PlanOutput) -> Vec<(usize, usize)> {
    match out {
        PlanOutput::Range(r) => r.sorted_pairs(),
        PlanOutput::Knn(m, _) => m.iter().map(|m| (m.seq, m.transform)).collect(),
        PlanOutput::Join(_) => unreachable!("no join here"),
    }
}

fn info_keys(store: &Store) -> Vec<String> {
    store.describe().into_iter().map(|(k, _)| k).collect()
}

/// The checks that read the same on either variant: sizes, mutations
/// landing on the wrapped handle, and the no-WAL answers.
fn common_checks(store: &Store, c: &Corpus, direct_len: impl Fn() -> usize) {
    assert_eq!((store.read().len(), store.read().seq_len()), (N, LEN));
    assert_eq!(
        store.read().fetch_series(7).unwrap().values(),
        c.series()[7].values()
    );
    let before = store.query_epoch();
    assert_eq!(store.insert_series(&c.series()[1]).unwrap(), N);
    assert!(store.delete_series(N).unwrap());
    assert!(!store.delete_series(N).unwrap());
    assert_eq!(direct_len(), N + 1, "mutations land on the wrapped index");
    assert_ne!(store.query_epoch(), before);
    assert!(!store.sync_wal().unwrap());
    assert_eq!(store.checkpoint().unwrap(), None);
    assert!(store.wal_stats().is_none());
}

#[test]
fn open_picks_the_variant_the_layout_calls_for() {
    let root = fresh_dir("open");
    let c = corpus();
    single(&c).save(&root.join("one")).unwrap();
    sharded(&c, SHARDS).save(&root.join("many")).unwrap();
    let on_disk = Some(ShardConfig::new(SHARDS).unwrap());

    for (dir, want) in [("one", None), ("many", on_disk)] {
        let (dir, wal) = (root.join(dir), root.join(format!("{dir}-wal")));
        let store = Store::open(&dir, 16).unwrap();
        assert_eq!(store.sharding(), want);
        assert_eq!(store.single().is_some(), want.is_none());
        // Read-only opens skip the lock the first handle still holds.
        assert_eq!(Store::open_read_only(&dir, 16).unwrap().sharding(), want);
        drop(store);

        let (store, rec) = Store::open_durable(&dir, &wal, 16, FsyncPolicy::Always).unwrap();
        assert_eq!(store.sharding(), want);
        assert_eq!((rec.epoch, rec.frames), (1, 0));
        store.insert_series(&c.series()[0]).unwrap();
        assert!(store.sync_wal().unwrap());
        assert_eq!(store.wal_stats().map(|(w, e)| (w.appends, e)), Some((1, 1)));
        assert_eq!(store.checkpoint().unwrap(), Some(2));
        drop(store);
        let (store, rec) = Store::open_durable(&dir, &wal, 16, FsyncPolicy::Always).unwrap();
        assert_eq!((store.read().len(), rec.epoch, rec.frames), (N + 1, 2, 0));
        assert!(store.describe().contains(&("wal_epoch".into(), "2".into())));
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn single_store_agrees_with_the_shared_index() {
    let c = corpus();
    let shared = SharedIndex::new(single(&c));
    let store = Store::from(shared.clone());
    assert!(Arc::ptr_eq(store.stats(), shared.stats()));
    assert!(store.supports_policy(FilterPolicy::Paper));

    let (lq, q) = (range_lq(), &c.series()[5]);
    let (plan, out, _, per_shard) = store.execute_timed(&lq, Some(q)).unwrap();
    let (want_plan, want) = shared.execute(&lq, Some(q)).unwrap();
    assert_eq!(plan.engine, want_plan.engine);
    assert_eq!(pairs(out), pairs(want));
    assert!(per_shard.is_empty(), "no shard breakdown on a single index");

    assert_eq!(store.counters(), (shared.read().counters(), Vec::new()));
    store.reset_counters().unwrap();
    assert_eq!(store.counters().0, Default::default());
    assert_eq!(store.query_epoch(), shared.query_epoch());
    common_checks(&store, &c, || shared.read().len());
    assert_eq!(store.query_epoch(), shared.query_epoch());

    assert_eq!(
        info_keys(&store),
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
    assert_eq!(store.tree_heights(), [shared.read().height()]);
}

#[test]
fn sharded_store_agrees_with_the_sharded_index() {
    let c = corpus();
    let direct = Arc::new(sharded(&c, SHARDS));
    let store = Store::from(Arc::clone(&direct));
    assert!(Arc::ptr_eq(store.stats(), direct.stats()));
    assert!(store.single().is_none());
    assert!(!store.supports_policy(FilterPolicy::Paper));
    assert!(store.supports_policy(FilterPolicy::Safe));

    let (lq, q) = (range_lq(), &c.series()[5]);
    let (_, out, timings, per_shard) = store.execute_timed(&lq, Some(q)).unwrap();
    let (_, want, want_per_shard) = gather::execute_range(&direct, &lq, q).unwrap();
    assert_eq!(pairs(out), want.sorted_pairs());
    assert_eq!(per_shard.len(), want_per_shard.len());
    assert_eq!(timings.plan_us, 0, "the scatter plans inside its lanes");
    let knn = LogicalQuery::knn(Family::moving_averages(3..=9, LEN), 4);
    let (_, out, _, _) = store.execute_timed(&knn, Some(q)).unwrap();
    let (_, want, _, _) = gather::execute_knn(&direct, &knn, q).unwrap();
    let want: Vec<_> = want.iter().map(|m| (m.seq, m.transform)).collect();
    assert_eq!(pairs(out), want);

    let (total, shards) = store.counters();
    assert_eq!(total, direct.counters());
    let loads: Vec<usize> = shards.iter().map(|(load, _)| *load).collect();
    assert_eq!(loads, direct.shard_loads());
    let sum: u64 = shards.iter().map(|(_, c)| c.record_fetches).sum();
    assert_eq!(sum, total.record_fetches, "total is the sum of the shards");
    assert_eq!(store.query_epoch(), direct.query_epoch());
    common_checks(&store, &c, || direct.len());
    assert_eq!(store.query_epoch(), direct.query_epoch());

    assert_eq!(
        info_keys(&store),
        [
            "sequences",
            "seq_len",
            "shards",
            "partitioner",
            "deleted",
            "shard_loads",
            "durable"
        ]
    );
    assert_eq!(store.tree_heights().len(), SHARDS);
}

/// A fenced node must not checkpoint its way past the fence, and the
/// error must stay `Fenced` (the server answers `READONLY` on it).
#[test]
fn checkpoint_on_a_fenced_single_store_stays_fenced() {
    let root = fresh_dir("fenced");
    single(&corpus()).save(&root.join("one")).unwrap();
    let (store, _) = Store::open_durable(
        &root.join("one"),
        &root.join("wal"),
        16,
        FsyncPolicy::Always,
    )
    .unwrap();
    store.single().unwrap().fence_at(9).unwrap();
    match store.checkpoint() {
        Err(DurableError::Fenced { fence: 9, epoch: 1 }) => {}
        other => panic!("expected Fenced, got {other:?}"),
    }
    let info = store.describe();
    assert!(info.contains(&("fenced".into(), "true".into())));
    assert!(info.contains(&("fence_epoch".into(), "9".into())));
    drop(store);
    let _ = std::fs::remove_dir_all(&root);
}
