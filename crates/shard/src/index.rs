//! The index group — re-exported from [`simquery::shard`], where the one
//! index type lives.

pub use simquery::shard::{Shard, ShardError, ShardedIndex};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{PartitionerKind, ShardConfig};
    use simquery::index::{IndexConfig, SeqIndex};
    use simquery::shared::DurableError;
    use simwal::FsyncPolicy;
    use tseries::{Corpus, CorpusKind};

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
        let got = s.fetch_series(g).unwrap().expect("mapped ordinal");
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
        s.arm_wal_append_fault();
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
