//! Global-ordinal → (shard, local-ordinal) assignment — re-exported
//! from [`simquery::shard::partition`].

pub use simquery::shard::partition::*;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_covers() {
        let a: Vec<usize> = (0..256).map(|g| shard_of(g, 4)).collect();
        // Pinned: a persisted group's new inserts must land where every
        // earlier build put them.
        assert_eq!(a[..8], [3, 1, 2, 1, 2, 2, 0, 3]);
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
        assert_eq!(map.globals_of(2)[1], 2);
        assert_eq!(map.loads(), vec![2, 1, 2]);
        assert_eq!(map.assignment(), vec![2, 0, 2, 1, 0]);
    }
}
