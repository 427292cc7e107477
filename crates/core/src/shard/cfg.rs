//! Shard configuration: one place that parses and validates the shard
//! count and partitioner choice, shared by `simserved --shards`, the
//! `simseq shard` subcommands, and the benches — so the accepted spellings
//! and limits cannot drift between entry points.

use std::fmt;
use std::str::FromStr;

/// Hard ceiling on the shard count: each shard carries its own R*-tree,
/// buffer pool, and scatter thread, so values past this are configuration
/// mistakes, not scaling.
pub const MAX_SHARDS: usize = 64;

/// How global ordinals are assigned to shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PartitionerKind {
    /// `splitmix64(global) % shards` — spreads any insertion pattern
    /// uniformly; the default.
    #[default]
    Hash,
    /// `global % shards` — deterministic striping, useful when ordinals
    /// arrive in an order worth interleaving exactly.
    RoundRobin,
    /// Contiguous chunks at build time; live inserts go to the shard with
    /// the fewest live (non-tombstoned) sequences, ties to the lowest id.
    Range,
}

impl PartitionerKind {
    /// Every accepted spelling, for help text.
    pub const NAMES: [&'static str; 3] = ["hash", "round-robin", "range"];
}

impl FromStr for PartitionerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "hash" => Ok(Self::Hash),
            "round-robin" | "roundrobin" | "rr" => Ok(Self::RoundRobin),
            "range" => Ok(Self::Range),
            other => Err(format!(
                "unknown partitioner '{other}' (expected one of: {})",
                Self::NAMES.join(", ")
            )),
        }
    }
}

impl fmt::Display for PartitionerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Hash => "hash",
            Self::RoundRobin => "round-robin",
            Self::Range => "range",
        })
    }
}

/// Validated sharding configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shards, `1..=MAX_SHARDS`.
    pub shards: usize,
    /// Global-ordinal → shard assignment policy.
    pub partitioner: PartitionerKind,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            partitioner: PartitionerKind::default(),
        }
    }
}

impl ShardConfig {
    /// A validated config with the default partitioner.
    pub fn new(shards: usize) -> Result<Self, String> {
        Self {
            shards,
            partitioner: PartitionerKind::default(),
        }
        .validated()
    }

    /// Parses the raw `--shards` / `--partitioner` strings as the CLI and
    /// server option parsers hand them over.
    pub fn parse(shards: &str, partitioner: Option<&str>) -> Result<Self, String> {
        let shards: usize = shards
            .trim()
            .parse()
            .map_err(|_| format!("invalid shard count '{shards}'"))?;
        let partitioner = match partitioner {
            Some(p) => p.parse()?,
            None => PartitionerKind::default(),
        };
        Self {
            shards,
            partitioner,
        }
        .validated()
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
