//! Global-ordinal → (shard, local-ordinal) assignment.
//!
//! The [`Partitioner`] decides *which shard* a global ordinal lands on; the
//! [`ShardMap`] is the durable record of every decision ever made, and the
//! only thing queries consult. Once an ordinal is mapped it never moves:
//! the map is append-only, so a translation read concurrently with an
//! insert can never observe a relocation.

use super::cfg::PartitionerKind;

/// Stateless assignment policy over global ordinals.
#[derive(Clone, Copy, Debug)]
pub struct Partitioner {
    kind: PartitionerKind,
    shards: usize,
}

/// `splitmix64` — the 64-bit finalizer used as the ordinal hash. In-tree
/// (the workspace carries no external crates) and stable across runs, so a
/// persisted sharding stays valid when reopened.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl Partitioner {
    /// A partitioner for `shards` shards (must be ≥ 1).
    pub fn new(kind: PartitionerKind, shards: usize) -> Self {
        assert!(shards >= 1, "partitioner needs at least one shard");
        Self { kind, shards }
    }

    /// Shard assignment for every ordinal of an initial corpus of `total`
    /// sequences. `Range` produces contiguous chunks here (the layout the
    /// name promises); the other kinds are pointwise.
    pub fn assign_bulk(&self, total: usize) -> Vec<usize> {
        match self.kind {
            PartitionerKind::Range => {
                let chunk = total.div_ceil(self.shards).max(1);
                (0..total)
                    .map(|g| (g / chunk).min(self.shards - 1))
                    .collect()
            }
            _ => (0..total).map(|g| self.assign_pointwise(g)).collect(),
        }
    }

    /// Shard for one live-inserted ordinal, given current per-shard loads.
    /// `Range` cannot extend its build-time chunks without relocation, so
    /// live inserts go to the least-loaded shard (ties to the lowest id).
    /// Callers should pass *live* counts (mapped minus tombstoned, as
    /// [`super::ShardedIndex::insert_series`] does) — a shard full
    /// of deleted sequences has capacity, not load.
    pub fn assign_insert(&self, global: usize, loads: &[usize]) -> usize {
        match self.kind {
            PartitionerKind::Range => {
                let mut best = 0;
                for (s, &l) in loads.iter().enumerate() {
                    if l < loads[best] {
                        best = s;
                    }
                }
                best
            }
            _ => self.assign_pointwise(global),
        }
    }

    fn assign_pointwise(&self, global: usize) -> usize {
        match self.kind {
            PartitionerKind::Hash => (splitmix64(global as u64) % self.shards as u64) as usize,
            PartitionerKind::RoundRobin => global % self.shards,
            PartitionerKind::Range => unreachable!("range assigns in bulk or by load"),
        }
    }
}

/// The stable global-ordinal ↔ (shard, local-ordinal) mapping.
///
/// Append-only: `push` records assignments in global-ordinal order, and a
/// shard's local ordinals are exactly the order its globals were pushed —
/// which matches [`crate::index::SeqIndex`]'s own ordinal assignment
/// (build order, then `insert_series` return values).
#[derive(Clone, Debug, Default)]
pub struct ShardMap {
    /// Indexed by global ordinal.
    to_local: Vec<(u32, u32)>,
    /// Per shard, local ordinal → global ordinal.
    to_global: Vec<Vec<usize>>,
}

impl ShardMap {
    /// An empty map over `shards` shards.
    pub fn new(shards: usize) -> Self {
        Self {
            to_local: Vec::new(),
            to_global: vec![Vec::new(); shards],
        }
    }

    /// Builds a map from a bulk assignment (`assignment[g]` = shard of
    /// global ordinal `g`), assigning local ordinals in global order.
    pub fn from_assignment(shards: usize, assignment: &[usize]) -> Self {
        let mut map = Self::new(shards);
        for &s in assignment {
            map.push(s);
        }
        map
    }

    /// Records the next global ordinal as living on `shard`; returns
    /// `(global, local)`.
    pub fn push(&mut self, shard: usize) -> (usize, usize) {
        let global = self.to_local.len();
        let local = self.to_global[shard].len();
        self.to_local.push((shard as u32, local as u32));
        self.to_global[shard].push(global);
        (global, local)
    }

    /// Number of mapped global ordinals.
    pub fn len(&self) -> usize {
        self.to_local.len()
    }

    /// True when nothing has been mapped.
    pub fn is_empty(&self) -> bool {
        self.to_local.is_empty()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.to_global.len()
    }

    /// `(shard, local)` of a global ordinal, if mapped.
    pub fn locate(&self, global: usize) -> Option<(usize, usize)> {
        self.to_local
            .get(global)
            .map(|&(s, l)| (s as usize, l as usize))
    }

    /// Global ordinal of `(shard, local)`.
    ///
    /// # Panics
    ///
    /// Panics when the pair was never mapped — shards only report locals
    /// they were handed, so an unmapped pair is a bookkeeping bug.
    pub fn global_of(&self, shard: usize, local: usize) -> usize {
        self.to_global[shard][local]
    }

    /// Local → global table of one shard.
    pub fn globals_of(&self, shard: usize) -> &[usize] {
        &self.to_global[shard]
    }

    /// Sequences currently mapped to each shard, tombstoned included —
    /// the map never forgets an assignment. Subtract per-shard deleted
    /// counts to get live loads.
    pub fn loads(&self) -> Vec<usize> {
        self.to_global.iter().map(Vec::len).collect()
    }

    /// Shard of every global ordinal, in global order — the persisted form.
    pub fn assignment(&self) -> Vec<usize> {
        self.to_local.iter().map(|&(s, _)| s as usize).collect()
    }
}
