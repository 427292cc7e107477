//! Shard configuration: one place that parses and validates the shard
//! count, shared by `simseq build --shards`, a `sharding.txt` read and the
//! benches — so the accepted spellings and limits cannot drift between
//! entry points.

/// Hard ceiling on the shard count: each shard carries its own R*-tree,
/// buffer pool, and scatter thread, so values past this are configuration
/// mistakes, not scaling.
pub const MAX_SHARDS: usize = 64;

/// Validated sharding configuration. Placement is not configurable: every
/// group places global ordinal `g` on [`super::partition::shard_of`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shards, `1..=MAX_SHARDS`.
    pub shards: usize,
}

impl ShardConfig {
    /// A validated config of `shards` shards.
    pub fn new(shards: usize) -> Result<Self, String> {
        Self { shards }.validated()
    }

    /// Parses the raw `--shards` string as the CLI and server option
    /// parsers hand it over.
    pub fn parse(shards: &str) -> Result<Self, String> {
        let shards: usize = shards
            .trim()
            .parse()
            .map_err(|_| format!("invalid shard count '{shards}'"))?;
        Self::new(shards)
    }

    /// Bounds-checks the shard count.
    pub fn validated(self) -> Result<Self, String> {
        if self.shards == 0 {
            return Err("shard count must be at least 1".into());
        }
        if self.shards > MAX_SHARDS {
            return Err(format!(
                "shard count {} exceeds the maximum of {MAX_SHARDS}",
                self.shards
            ));
        }
        Ok(self)
    }
}
