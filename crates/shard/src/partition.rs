//! Global-ordinal → (shard, local-ordinal) assignment — re-exported
//! from [`simquery::shard::partition`].

pub use simquery::shard::partition::*;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::PartitionerKind;

    #[test]
    fn round_robin_stripes() {
        let p = Partitioner::new(PartitionerKind::RoundRobin, 3);
        assert_eq!(p.assign_bulk(7), vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(p.assign_insert(7, &[3, 2, 2]), 1);
    }

    #[test]
    fn range_chunks_then_balances() {
        let p = Partitioner::new(PartitionerKind::Range, 4);
        let a = p.assign_bulk(10);
        assert_eq!(a, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
        // Live inserts fill the emptiest shard.
        assert_eq!(p.assign_insert(10, &[3, 3, 3, 1]), 3);
        assert_eq!(p.assign_insert(11, &[2, 3, 3, 2]), 0);
    }

    #[test]
    fn hash_is_stable_and_covers() {
        let p = Partitioner::new(PartitionerKind::Hash, 4);
        let a = p.assign_bulk(256);
        assert_eq!(a, p.assign_bulk(256), "assignment must be deterministic");
        for s in 0..4 {
            assert!(a.contains(&s), "shard {s} starved by hash on 256 ordinals");
        }
    }

    #[test]
    fn map_roundtrips() {
        let map = ShardMap::from_assignment(3, &[2, 0, 2, 1, 0]);
        assert_eq!(map.len(), 5);
        assert_eq!(map.locate(0), Some((2, 0)));
        assert_eq!(map.locate(2), Some((2, 1)));
        assert_eq!(map.locate(4), Some((0, 1)));
        assert_eq!(map.locate(5), None);
        assert_eq!(map.global_of(2, 1), 2);
        assert_eq!(map.loads(), vec![2, 1, 2]);
        assert_eq!(map.assignment(), vec![2, 0, 2, 1, 0]);
    }
}
