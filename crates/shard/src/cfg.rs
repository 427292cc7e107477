//! Shard configuration — re-exported from [`simquery::shard::cfg`].

pub use simquery::shard::cfg::*;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_bounds() {
        assert!(ShardConfig::new(0).is_err());
        assert!(ShardConfig::new(MAX_SHARDS + 1).is_err());
        assert_eq!(ShardConfig::new(8).unwrap().shards, 8);
        assert_eq!(ShardConfig::parse(" 4 ").unwrap().shards, 4);
        assert!(ShardConfig::parse("four").is_err());
        assert!(ShardConfig::parse("0").is_err());
    }
}
