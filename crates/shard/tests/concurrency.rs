//! Regression tests for the per-shard locking discipline: a mutation
//! write-locks exactly one shard, and reads on the other shards proceed
//! while it is held (see the write-guard starvation notes in
//! `simquery::shared`).

mod common;

use simquery::engine::mtindex;
use simquery::index::IndexConfig;
use simquery::plan::EngineChoice;
use simquery::query::{FilterPolicy, RangeSpec};
use simquery::transform::Family;
use simshard::{PartitionerKind, ShardConfig, ShardedIndex};
use std::sync::mpsc;
use std::time::Duration;
use tseries::{Corpus, CorpusKind};

const LEN: usize = 64;

fn sharded(n: usize, shards: usize, partitioner: PartitionerKind) -> (Corpus, ShardedIndex) {
    let c = Corpus::generate(CorpusKind::SyntheticWalks, n, LEN, 99);
    let cfg = ShardConfig {
        shards,
        partitioner,
    };
    let s = ShardedIndex::build(&c, cfg, IndexConfig::default()).unwrap();
    (c, s)
}

/// Reads on shard 1 complete while shard 0's write guard is held — the
/// situation during a shard-local insert.
#[test]
fn reads_proceed_during_insert() {
    let (c, s) = sharded(60, 2, PartitionerKind::RoundRobin);
    let family = Family::moving_averages(2..=5, LEN);
    let spec = RangeSpec::correlation(0.9).with_policy(FilterPolicy::Safe);

    // Simulate an in-flight insert: hold shard 0's exclusive guard.
    let guard = s.shards()[0].write();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let (s, c, family, spec) = (&s, &c, &family, &spec);
        scope.spawn(move || {
            let idx = s.shards()[1].read();
            let r = mtindex::range_query(&idx, &c.series()[1], family, spec).unwrap();
            tx.send(r.matches.len()).unwrap();
        });
        // The read must finish even though shard 0 stays write-locked; a
        // global lock would deadlock here and the recv would time out.
        let n = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("read on shard 1 blocked behind shard 0's write guard");
        assert!(n >= 1, "ordinal 1 lives on shard 1 and matches itself");
    });
    drop(guard);
}

/// An insert routed to shard 0 completes while shard 1 is write-locked:
/// mutations touch only their own shard's lock.
#[test]
fn insert_does_not_need_other_shards() {
    let (_, s) = sharded(60, 2, PartitionerKind::RoundRobin);
    let extra = Corpus::generate(CorpusKind::SyntheticWalks, 1, LEN, 123);

    let guard = s.shards()[1].write();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let (s, extra) = (&s, &extra);
        scope.spawn(move || {
            // Global ordinal 60 → 60 % 2 = shard 0 under round-robin.
            let g = s.insert_series(&extra.series()[0]).unwrap();
            tx.send(g).unwrap();
        });
        let g = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("insert into shard 0 blocked behind shard 1's write guard");
        assert_eq!(g, 60);
    });
    drop(guard);
    assert_eq!(s.locate(60), Some((0, 30)));
}

/// Many concurrent readers and writers on different shards make progress
/// and leave the map and shards consistent.
#[test]
fn mixed_traffic_stays_consistent() {
    let (c, s) = sharded(80, 4, PartitionerKind::Hash);
    let extra = Corpus::generate(CorpusKind::SyntheticWalks, 12, LEN, 321);
    let family = Family::moving_averages(2..=5, LEN);
    let spec = RangeSpec::correlation(0.9).with_policy(FilterPolicy::Safe);

    std::thread::scope(|scope| {
        let (s, c, family, spec, extra) = (&s, &c, &family, &spec, &extra);
        scope.spawn(move || {
            for ts in extra.series() {
                s.insert_series(ts).unwrap();
            }
        });
        for t in 0..4 {
            scope.spawn(move || {
                for i in 0..6 {
                    let q = &c.series()[(t * 13 + i) % 80];
                    let r = common::range_query(s, EngineChoice::Mt, q, family, spec).unwrap();
                    assert!(r.matched_sequences().iter().all(|&g| g < s.len()));
                }
            });
        }
    });
    assert_eq!(s.len(), 92);
    let loads = s.shard_loads();
    assert_eq!(loads.iter().sum::<usize>(), 92);
    for g in 80..92 {
        let (shard, local) = s.locate(g).unwrap();
        assert!(local < loads[shard]);
    }
}
