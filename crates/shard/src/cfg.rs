//! Shard configuration — re-exported from [`simquery::shard::cfg`].

pub use simquery::shard::cfg::*;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_spellings() {
        for (s, want) in [
            ("hash", PartitionerKind::Hash),
            ("ROUND-ROBIN", PartitionerKind::RoundRobin),
            ("rr", PartitionerKind::RoundRobin),
            (" range ", PartitionerKind::Range),
        ] {
            assert_eq!(s.parse::<PartitionerKind>().unwrap(), want);
        }
        assert!("mod7".parse::<PartitionerKind>().is_err());
    }

    #[test]
    fn display_roundtrips() {
        for k in [
            PartitionerKind::Hash,
            PartitionerKind::RoundRobin,
            PartitionerKind::Range,
        ] {
            assert_eq!(k.to_string().parse::<PartitionerKind>().unwrap(), k);
        }
    }

    #[test]
    fn validates_bounds() {
        assert!(ShardConfig::new(0).is_err());
        assert!(ShardConfig::new(MAX_SHARDS + 1).is_err());
        assert_eq!(ShardConfig::new(8).unwrap().shards, 8);
        assert!(ShardConfig::parse("4", Some("range")).is_ok());
        assert!(ShardConfig::parse("four", None).is_err());
        assert!(ShardConfig::parse("4", Some("bogus")).is_err());
    }
}
