//! The sequence index: an R*-tree over feature points plus a heap file of
//! full sequence records, with unified access accounting.
//!
//! Mirrors the paper's storage layout (§5): for every sequence, its normal
//! form's DFT features go into the R*-tree (payload = sequence ordinal) and
//! the full record lives in a paged relation, fetched during Algorithm 1's
//! post-processing step. Both access streams are counted.

use crate::feature::{FRect, PointExtractor, SeqFeatures, DIMS, TREE_AXES};
use crate::report::QueryError;
use pagestore::{BufferPool, Disk, DynHeapFile, PageDevice, PageError};
use rstartree::{bulk_load_str, Neighbor, PagedStore, Params, RStarTree, SearchStats};
use std::sync::Arc;
use tseries::{Corpus, TimeSeries};

/// Index construction options.
#[derive(Clone, Copy, Debug)]
pub struct IndexConfig {
    /// Fanout override; defaults to the page capacity (78 at `D = 6`).
    pub fanout: Option<usize>,
    /// Buffer-pool frames for the record heap.
    pub heap_pool_pages: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            fanout: None,
            heap_pool_pages: 64,
        }
    }
}

/// Combined access counters of the index structures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessCounters {
    /// Tree node reads.
    pub node_reads: u64,
    /// Record-heap page reads that missed the pool (physical accesses).
    /// Step 5 reads a query's candidates in heap order, so from a cold
    /// pool a range query misses each page they lie on once.
    pub record_page_reads: u64,
    /// Records read (every step-5 fetch and `fetch_series`), regardless of
    /// buffering. A range query or join reads each distinct candidate
    /// once; the paper's count — a fetch per candidate of each rectangle,
    /// or per member of each pair, as Fig. 8–9 report it — is
    /// `EngineMetrics::record_fetches`.
    pub record_fetches: u64,
}

impl std::iter::Sum for AccessCounters {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |acc, c| Self {
            node_reads: acc.node_reads + c.node_reads,
            record_page_reads: acc.record_page_reads + c.record_page_reads,
            record_fetches: acc.record_fetches + c.record_fetches,
        })
    }
}

/// An indexed corpus of equal-length sequences. Step 5 of every index
/// engine reads a candidate's record where it lies in the buffer pool and
/// keeps no features for it; `fetch_series` and `scan` are for the
/// mutation paths and the sequential-scan oracle.
pub struct SeqIndex {
    // Nodes serialised to pages of a (simulated) disk: node reads are disk
    // accesses, the paper's cold-per-query accounting.
    tree: RStarTree<DIMS>,
    heap: DynHeapFile,
    heap_pool: Arc<BufferPool>,
    // Concrete disk handles, kept only when the index owns plain in-memory
    // disks (the `build`/`open` paths) — `save` needs `Disk::save_to`.
    // Indexes built over injected devices (`build_on`) cannot be saved.
    tree_disk: Option<Arc<Disk>>,
    heap_disk: Option<Arc<Disk>>,
    rids: Vec<pagestore::RecordId>,
    seq_len: usize,
    len: usize,
    skipped: Vec<usize>,
    deleted: Vec<bool>,
    // `deleted.iter().filter(|d| **d).count()`, kept beside the vector:
    // the planner reads it several times per query.
    deleted_count: usize,
    leaf_capacity: usize,
    fetches: std::sync::atomic::AtomicU64,
    // The feature points of inserted and deleted sequences.
    points: PointExtractor,
    // Checkpoint epoch recorded in the snapshot this index was opened
    // from (1 for fresh builds); `Wal::open` reconciles its log against
    // this value. Advanced by `save_with_epoch` on disk, not in memory —
    // the durability layer owns the live epoch.
    wal_epoch: u64,
    // Advisory lock on the directory the index was opened from, held for
    // the index's lifetime so a second process cannot replay or
    // checkpoint the same files concurrently. `None` for built indexes.
    _dir_lock: Option<simwal::DirLock>,
}

impl SeqIndex {
    /// Builds the index over a corpus. Degenerate sequences (no normal
    /// form) are stored in the relation but not indexed; their ordinals are
    /// reported by [`Self::skipped`].
    ///
    /// Returns `None` for an empty corpus or zero-length sequences.
    pub fn build(corpus: &Corpus, config: IndexConfig) -> Option<Self> {
        let tree_disk = Arc::new(Disk::new());
        let heap_disk = Arc::new(Disk::new());
        let mut index = Self::build_on(
            corpus,
            config,
            Arc::clone(&tree_disk) as Arc<dyn PageDevice>,
            Arc::clone(&heap_disk) as Arc<dyn PageDevice>,
        )
        .expect("building on a healthy in-memory disk cannot fail")?;
        index.tree_disk = Some(tree_disk);
        index.heap_disk = Some(heap_disk);
        Some(index)
    }

    /// Builds the index over a corpus with caller-supplied page devices —
    /// e.g. a [`pagestore::FaultyDisk`] for fault-injection testing. The
    /// caller keeps its device handles to arm fault plans later; an index
    /// built this way cannot be [`Self::save`]d.
    ///
    /// Returns `Ok(None)` for an empty corpus or zero-length sequences, and
    /// `Err` when a device access fails during construction.
    pub fn build_on(
        corpus: &Corpus,
        config: IndexConfig,
        tree_device: Arc<dyn PageDevice>,
        heap_device: Arc<dyn PageDevice>,
    ) -> Result<Option<Self>, PageError> {
        let seq_len = corpus.series_len();
        if corpus.is_empty() || seq_len == 0 {
            return Ok(None);
        }

        // Record heap: one page stream for the full sequences.
        let heap_pool = Arc::new(BufferPool::new_dyn(
            heap_device,
            config.heap_pool_pages.max(1),
        ));
        let heap = DynHeapFile::create(Arc::clone(&heap_pool), seq_len * 8);

        let mut rids = Vec::with_capacity(corpus.len());
        let mut skipped = Vec::new();
        let mut items: Vec<(FRect, u64)> = Vec::with_capacity(corpus.len());
        let mut buf = vec![0u8; seq_len * 8];
        let mut points = PointExtractor::new(seq_len);
        for (ordinal, ts) in corpus.series().iter().enumerate() {
            encode_record(ts, &mut buf);
            rids.push(heap.insert(&buf)?);
            match points.point(ts) {
                Some(point) => items.push((rstartree::Rect::point(point), ordinal as u64)),
                None => skipped.push(ordinal),
            }
        }

        let params = match config.fanout {
            Some(f) => Params::with_max(f),
            None => Params::for_dimension(),
        }
        .with_axes(&TREE_AXES);
        let leaf_capacity = params.max_entries;

        // Bulk-load with STR: fast and well-packed; later mutations go
        // through one-by-one R*-tree insertion.
        let tree = bulk_load_str(PagedStore::new(tree_device), params, items);

        Ok(Some(Self {
            tree,
            heap,
            heap_pool,
            tree_disk: None,
            heap_disk: None,
            rids,
            seq_len,
            len: corpus.len(),
            skipped,
            deleted: vec![false; corpus.len()],
            deleted_count: 0,
            leaf_capacity,
            fetches: std::sync::atomic::AtomicU64::new(0),
            points,
            wal_epoch: 1,
            _dir_lock: None,
        }))
    }

    /// Appends a new sequence to the live index, returning its ordinal.
    /// Degenerate sequences are stored but not indexed (reported by
    /// [`Self::skipped`]).
    pub fn insert_series(&mut self, ts: &TimeSeries) -> Result<usize, QueryError> {
        if ts.len() != self.seq_len {
            return Err(QueryError::LengthMismatch {
                query: ts.len(),
                indexed: self.seq_len,
            });
        }
        let ordinal = self.len;
        let mut buf = vec![0u8; self.seq_len * 8];
        encode_record(ts, &mut buf);
        self.rids.push(self.heap.insert(&buf)?);
        self.deleted.push(false);
        match self.points.point(ts) {
            Some(point) => self
                .tree
                .insert(rstartree::Rect::point(point), ordinal as u64)?,
            None => self.skipped.push(ordinal),
        }
        self.len += 1;
        Ok(ordinal)
    }

    /// Removes a sequence from the live index. The record stays in the heap
    /// (append-only) but the index entry is deleted and scans skip the
    /// tombstone. Returns `Ok(false)` when the ordinal is out of range or
    /// already deleted.
    pub fn delete_series(&mut self, ordinal: usize) -> Result<bool, QueryError> {
        if ordinal >= self.len || self.deleted[ordinal] {
            return Ok(false);
        }
        // Recompute the stored feature point to locate the tree entry.
        if !self.skipped.contains(&ordinal) {
            let ts = self.fetch_series(ordinal)?;
            let point = self.points.point(&ts);
            let rect = rstartree::Rect::point(point.expect("indexed entries are non-degenerate"));
            let removed = self.tree.delete(&rect, ordinal as u64)?;
            debug_assert!(removed, "tree entry for live ordinal {ordinal} must exist");
        }
        self.deleted[ordinal] = true;
        self.deleted_count += 1;
        Ok(true)
    }

    /// Number of ordinals currently tombstoned by [`Self::delete_series`].
    pub fn deleted_count(&self) -> usize {
        self.deleted_count
    }

    /// The tombstoned ordinals themselves, ascending.
    pub fn deleted_ordinals(&self) -> Vec<usize> {
        self.deleted
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.then_some(i))
            .collect()
    }

    /// Number of sequences in the relation (indexed or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the relation is empty (never — `build` rejects that).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Length of every sequence.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Frames of the record heap's buffer pool (see
    /// [`IndexConfig::heap_pool_pages`]).
    pub fn heap_pool_pages(&self) -> usize {
        self.heap_pool.capacity()
    }

    /// Ordinals of sequences that could not be indexed (degenerate).
    pub fn skipped(&self) -> &[usize] {
        &self.skipped
    }

    /// Average leaf capacity — the `CA_leaf` of the cost model.
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_capacity
    }

    /// Tree height.
    pub fn height(&self) -> u32 {
        self.tree.height()
    }

    /// Per-level node counts and mean MBR extents — the structural inputs
    /// of the analytical cost model (§4.3). One full tree walk.
    pub fn level_summaries(&self) -> Result<Vec<rstartree::LevelSummary<DIMS>>, PageError> {
        self.tree.level_summaries()
    }

    /// Prepares a query sequence: validates its length and extracts its
    /// features.
    pub fn prepare_query(&self, ts: &TimeSeries) -> Result<SeqFeatures, QueryError> {
        if ts.len() != self.seq_len {
            return Err(QueryError::LengthMismatch {
                query: ts.len(),
                indexed: self.seq_len,
            });
        }
        SeqFeatures::extract(ts).ok_or(QueryError::DegenerateQuery)
    }

    /// Fetches a sequence's raw samples (a counted page access).
    pub fn fetch_series(&self, ordinal: usize) -> Result<TimeSeries, PageError> {
        self.with_record(ordinal, decode_record)
    }

    /// Step 5's fetch of candidate `ordinal` (`engine::VerifyKernel`): its
    /// record decoded where it lies in the pool into `samples`, in normal
    /// form — a counted page access. The ordinal comes from a leaf and the
    /// record from the heap file, so a payload past the relation, a slot
    /// past its page's count and a record with no normal form are damage:
    /// a typed corrupt-page error, never a panic.
    pub(crate) fn normal_form_into(
        &self,
        ordinal: usize,
        samples: &mut Vec<f64>,
    ) -> Result<(), PageError> {
        self.with_record(ordinal, |bytes| {
            samples.clear();
            samples.extend(decode_samples(bytes));
        })?;
        match tseries::normalize_in_place(samples) {
            Some(_) => Ok(()),
            None => Err(PageError::corrupt(self.rids[ordinal].page)),
        }
    }

    /// Runs `f` over a sequence's record where it lies in the buffer pool
    /// — a counted page access that copies nothing.
    fn with_record<R>(&self, ordinal: usize, f: impl FnOnce(&[u8]) -> R) -> Result<R, PageError> {
        let rid = *self
            .rids
            .get(ordinal)
            .ok_or(PageError::corrupt(pagestore::PageId::INVALID))?;
        self.fetches
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.heap.with_record(rid, f)
    }

    /// Scans the whole relation (the sequential-scan baseline); one page
    /// access per heap page. Stops at the first failed page.
    pub fn scan(&self, f: impl FnMut(usize, TimeSeries)) -> Result<(), PageError> {
        self.scan_range(0, self.len, f)
    }

    /// Scans ordinals `[start, end)`; disjoint ranges can run on separate
    /// threads (the parallel scan baseline). Stops at the first failed page.
    pub fn scan_range(
        &self,
        start: usize,
        end: usize,
        mut f: impl FnMut(usize, TimeSeries),
    ) -> Result<(), PageError> {
        self.heap.scan_range(start, end, |ordinal, _rid, bytes| {
            if !self.deleted[ordinal] {
                f(ordinal, decode_record(bytes));
            }
        })
    }

    /// Predicate-driven index search (see [`RStarTree::search`]).
    pub fn search(
        &self,
        pred: impl FnMut(&FRect) -> bool,
        on_data: impl FnMut(&FRect, u64),
    ) -> Result<SearchStats, PageError> {
        self.tree.search(pred, on_data)
    }

    /// One descent for up to 64 predicates (see
    /// [`RStarTree::search_masked`]).
    #[allow(clippy::type_complexity)]
    pub fn search_masked(
        &self,
        preds: usize,
        pred: impl FnMut(&FRect, u64) -> u64,
        on_data: impl FnMut(&FRect, u64, u64),
    ) -> Result<(Vec<SearchStats>, SearchStats), PageError> {
        self.tree.search_masked(preds, pred, on_data)
    }

    /// Duplicate-free self join (see [`RStarTree::self_join`]).
    pub fn self_join(
        &self,
        pred: impl FnMut(&FRect, &FRect) -> bool,
        on_pair: impl FnMut(&FRect, u64, &FRect, u64),
    ) -> Result<SearchStats, PageError> {
        self.tree.self_join(pred, on_pair)
    }

    /// Best-first nearest-neighbour search (see [`RStarTree::nearest_by`]).
    #[allow(clippy::type_complexity)]
    pub fn nearest_by(
        &self,
        k: usize,
        node_bound: impl FnMut(&FRect) -> f64,
        leaf_score: impl FnMut(&FRect, u64) -> Option<f64>,
    ) -> Result<(Vec<Neighbor<DIMS>>, SearchStats), PageError> {
        self.tree.nearest_by(k, node_bound, leaf_score)
    }

    /// Optimal multi-step k-NN seeded with an external pruning bound
    /// (see [`RStarTree::nearest_by_refine_bounded`]; `bound = ∞` is the
    /// plain search). The sharded gather executor propagates the running
    /// global k-th distance into later per-shard searches through it.
    #[allow(clippy::type_complexity)]
    pub fn nearest_by_refine_bounded(
        &self,
        k: usize,
        bound: f64,
        node_bound: impl FnMut(&FRect) -> f64,
        leaf_bound: impl FnMut(&FRect, u64) -> f64,
        refine: impl FnMut(&FRect, u64) -> Option<f64>,
    ) -> Result<(Vec<Neighbor<DIMS>>, SearchStats), PageError> {
        self.tree
            .nearest_by_refine_bounded(k, bound, node_bound, leaf_bound, refine)
    }

    /// Zeroes all access counters and empties the record pool, so the next
    /// query is measured cold (the paper's per-query accounting). Fails when
    /// flushing a dirty record page back to a faulted device fails.
    pub fn reset_counters(&self) -> Result<(), PageError> {
        self.tree.store().reset_stats();
        self.heap_pool.clear()?;
        self.heap_pool.reset_stats();
        self.heap_pool.device().reset_stats();
        self.fetches.store(0, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    /// Snapshot of the access counters.
    pub fn counters(&self) -> AccessCounters {
        let node_reads = self.tree.store().stats().reads;
        AccessCounters {
            node_reads,
            record_page_reads: self.heap_pool.stats().misses,
            record_fetches: self.fetches.load(std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// Structural self-check (test support). `Err` means a device failure
    /// prevented the check, not an invariant violation (those panic).
    pub fn validate(&self) -> Result<usize, PageError> {
        assert_eq!(
            self.deleted_count,
            self.deleted.iter().filter(|d| **d).count(),
            "tombstone count out of step with the tombstones"
        );
        self.tree.validate()
    }

    /// True when a mutation aborted mid-way on a device error, leaving the
    /// tree structurally suspect (see [`RStarTree::is_poisoned`]).
    pub fn tree_poisoned(&self) -> bool {
        self.tree.is_poisoned()
    }
}

fn encode_record(ts: &TimeSeries, buf: &mut [u8]) {
    debug_assert_eq!(buf.len(), ts.len() * 8);
    for (chunk, v) in buf.chunks_exact_mut(8).zip(ts.values()) {
        chunk.copy_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// The samples of a heap record, in order.
fn decode_samples(bytes: &[u8]) -> impl Iterator<Item = f64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
}

fn decode_record(bytes: &[u8]) -> TimeSeries {
    decode_samples(bytes).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseries::CorpusKind;

    fn corpus(n: usize) -> Corpus {
        Corpus::generate(CorpusKind::SyntheticWalks, n, 64, 5)
    }

    #[test]
    fn build_and_fetch_roundtrip() {
        let c = corpus(50);
        let idx = SeqIndex::build(&c, IndexConfig::default()).unwrap();
        assert_eq!(idx.len(), 50);
        assert_eq!(idx.seq_len(), 64);
        assert!(idx.skipped().is_empty());
        idx.validate().unwrap();
        for i in [0usize, 17, 49] {
            let back = idx.fetch_series(i).unwrap();
            for (a, b) in back.values().iter().zip(c.series()[i].values()) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn empty_corpus_rejected() {
        let c = Corpus::default();
        assert!(SeqIndex::build(&c, IndexConfig::default()).is_none());
    }

    #[test]
    fn degenerate_sequences_skipped_but_stored() {
        let mut series = corpus(5).series().to_vec();
        series.push(TimeSeries::new(vec![3.0; 64]));
        let names = (0..6).map(|i| format!("s{i}")).collect();
        let c = Corpus::from_parts(names, series);
        let idx = SeqIndex::build(&c, IndexConfig::default()).unwrap();
        assert_eq!(idx.skipped(), &[5]);
        // The record is still fetchable.
        assert_eq!(idx.fetch_series(5).unwrap().values()[0], 3.0);
        // And the index only holds 5 points.
        let mut count = 0;
        idx.search(|_| true, |_, _| count += 1).unwrap();
        assert_eq!(count, 5);
    }

    #[test]
    fn counters_reset_and_track() {
        let idx = SeqIndex::build(&corpus(200), IndexConfig::default()).unwrap();
        idx.reset_counters().unwrap();
        assert_eq!(idx.counters(), AccessCounters::default());
        let stats = idx.search(|_| true, |_, _| {}).unwrap();
        let counters = idx.counters();
        assert_eq!(counters.node_reads, stats.nodes_accessed);
        let _ = idx.fetch_series(0).unwrap();
        assert!(idx.counters().record_page_reads >= 1);
        idx.reset_counters().unwrap();
        // Pool was cleared: refetching costs again.
        let _ = idx.fetch_series(0).unwrap();
        assert_eq!(idx.counters().record_page_reads, 1);
    }

    /// The two node counters. `EngineMetrics::node_accesses` is Eq. 19's
    /// sum of each rectangle's `DA_all`; the device's `node_reads` is what
    /// the query's one descent read — every node some rectangle's own
    /// descent reaches, once. So they are equal for one rectangle, and for
    /// `k` the device count is the union's size, at most the sum.
    #[test]
    fn device_reads_each_distinct_node_once_per_query() {
        use crate::engine::mtindex;
        use crate::partition::{partition, PartitionStrategy};
        use crate::query::{mt_query_region, Filter, FilterPolicy, RangeSpec};
        use crate::transform::Family;
        use rstartree::NodeId;
        use std::collections::BTreeSet;

        /// The nodes one rectangle's own descent reads (the oracle walk).
        fn reached(
            tree: &RStarTree<DIMS>,
            id: NodeId,
            level: u32,
            hit: &dyn Fn(&FRect) -> bool,
            out: &mut BTreeSet<NodeId>,
        ) {
            out.insert(id);
            if level == 0 {
                return;
            }
            let children: Vec<NodeId> = tree
                .store()
                .view(id, |n| {
                    n.entries()
                        .filter(|e| hit(&e.rect))
                        .map(|e| e.child())
                        .collect()
                })
                .unwrap();
            for child in children {
                reached(tree, child, level - 1, hit, out);
            }
        }

        let c = Corpus::generate(CorpusKind::SyntheticWalks, 600, 64, 17);
        let config = IndexConfig {
            fanout: Some(8),
            ..IndexConfig::default()
        };
        let idx = SeqIndex::build(&c, config).unwrap();
        let family = Family::moving_averages(2..=13, 64);
        let spec = RangeSpec::correlation(0.9).with_policy(FilterPolicy::Adaptive);
        let filter = Filter::new(spec.epsilon(64), spec.policy);
        for (qi, per_mbr) in [(3usize, 12usize), (3, 4), (3, 1), (250, 12), (250, 3)] {
            let query = &c.series()[qi];
            let mbrs = partition(&family, &PartitionStrategy::EqualWidth { per_mbr });
            idx.reset_counters().unwrap();
            let (result, _) =
                mtindex::range_query_with_mbrs(&idx, query, &family, &spec, &mbrs, None).unwrap();
            let reads = idx.counters().node_reads;
            let logical = result.metrics.node_accesses;

            let q = idx.prepare_query(query).unwrap();
            let mut distinct = BTreeSet::new();
            for mbr in &mbrs {
                let bound = filter.bind(mbr, mt_query_region(mbr, &q.point, spec.mode));
                let (root, level) = (idx.tree.root_id(), idx.tree.root_level());
                reached(&idx.tree, root, level, &|r| bound.hit(r), &mut distinct);
            }
            let k = mbrs.len();
            assert_eq!(reads, distinct.len() as u64, "query {qi}, k = {k}");
            if k == 1 {
                assert_eq!(reads, logical, "query {qi}");
            } else {
                assert!(reads < logical, "query {qi}, k = {k}: {reads} vs {logical}");
            }
        }
    }

    /// Step 5 fetches each distinct candidate once, in heap order. From a
    /// cold pool smaller than the heap, a query's record page reads are the
    /// heap pages its candidates lie on, each once, and its device record
    /// fetches are its distinct candidates (for a range query, the ones
    /// the leaf gate keeps) — for one rectangle, a
    /// partitioned plan, an ST plan of 70 members (two mask groups) and
    /// both joins. Fetching in descent order instead reads a page again
    /// each time the pool has evicted it.
    #[test]
    fn step_5_reads_each_candidate_page_once_per_query() {
        use crate::engine::{join, mtindex};
        use crate::partition::{partition, PartitionStrategy};
        use crate::query::{mt_query_region, Filter, FilterPolicy, RangeSpec};
        use crate::tmbr::TransformMbr;
        use crate::transform::{Family, Transform};
        use std::collections::BTreeSet;

        let c = Corpus::generate(CorpusKind::SyntheticWalks, 400, 64, 19);
        let config = IndexConfig {
            fanout: Some(8),
            heap_pool_pages: 4,
        };
        let idx = SeqIndex::build(&c, config).unwrap();
        let heap_pages = idx.rids.iter().map(|r| r.page).collect::<BTreeSet<_>>();
        assert!(heap_pages.len() > 5 * config.heap_pool_pages);
        let spec = RangeSpec::correlation(0.8).with_policy(FilterPolicy::Safe);
        let filter = Filter::new(spec.epsilon(64), spec.policy);

        // Runs `query` cold; its candidates are `seqs`.
        let check = |what: &str, seqs: BTreeSet<usize>, query: &dyn Fn() -> u64| {
            idx.reset_counters().unwrap();
            let record_fetches = query();
            let counters = idx.counters();
            let pages: BTreeSet<_> = seqs.iter().map(|&s| idx.rids[s].page).collect();
            assert!(pages.len() > 2 * config.heap_pool_pages, "{what}");
            assert_eq!(counters.record_page_reads, pages.len() as u64, "{what}");
            assert_eq!(counters.record_fetches, seqs.len() as u64, "{what}");
            assert!(
                record_fetches >= seqs.len() as u64,
                "{what}: the paper's count"
            );
        };

        let query = &c.series()[7];
        let q = idx.prepare_query(query).unwrap();
        let family = Family::moving_averages(2..=36, 64).with_inverted();
        assert_eq!(family.len(), 70);
        // A range query's candidates are the ones the leaf gate keeps.
        let eps = spec.epsilon(64);
        let gate = crate::engine::VerifyKernel::for_query(&idx, &family, &q, spec.mode)
            .leaf_bound()
            .unwrap();
        for strategy in [
            PartitionStrategy::Single,
            PartitionStrategy::EqualWidth { per_mbr: 6 },
            PartitionStrategy::EqualWidth { per_mbr: 1 },
        ] {
            let mbrs = partition(&family, &strategy);
            let mut seqs = BTreeSet::new();
            for mbr in &mbrs {
                let bound = filter.bind(mbr, mt_query_region(mbr, &q.point, spec.mode));
                idx.search(
                    |r| bound.hit(r),
                    |r, s| {
                        let p = gate.terms(&r.lo);
                        if mbr.members.iter().any(|&t| gate.admits(t, &p, eps)) {
                            seqs.insert(s as usize);
                        }
                    },
                )
                .unwrap();
            }
            check(&format!("{} rectangles", mbrs.len()), seqs, &|| {
                let run = mtindex::range_query_with_mbrs(&idx, query, &family, &spec, &mbrs, None);
                run.unwrap().0.metrics.record_fetches
            });
        }

        // The joins: a tighter threshold, or every pair is one.
        let spec = RangeSpec::correlation(0.96).with_policy(FilterPolicy::Safe);
        let filter = Filter::new(spec.epsilon(64), spec.policy);
        let family = Family::moving_averages(2..=6, 64);
        let inverted = family.compose(&Family::new("inv", vec![Transform::inversion(64)]));
        let (mbr, inv) = (
            TransformMbr::of_family(&family),
            TransformMbr::of_family(&inverted),
        );
        let members = |hit: &dyn Fn(&FRect, &FRect) -> bool| {
            let mut seqs = BTreeSet::new();
            idx.self_join(hit, |_, a, _, b| seqs.extend([a as usize, b as usize]))
                .unwrap();
            seqs
        };
        let seqs = members(&|r1, r2| filter.hit(&mbr.apply_to_rect(r1), &mbr.apply_to_rect(r2)));
        check("self-join", seqs, &|| {
            join::mt_join(&idx, &family, &spec)
                .unwrap()
                .metrics
                .record_fetches
        });
        let seqs = members(&|r1, r2| {
            filter.hit(&inv.apply_to_rect(r1), &mbr.apply_to_rect(r2))
                || filter.hit(&inv.apply_to_rect(r2), &mbr.apply_to_rect(r1))
        });
        check("paired join", seqs, &|| {
            let run = join::mt_join_paired(&idx, &inverted, &family, &spec);
            run.unwrap().metrics.record_fetches
        });
    }

    #[test]
    fn full_search_returns_every_ordinal() {
        let idx = SeqIndex::build(&corpus(150), IndexConfig::default()).unwrap();
        let mut got = Vec::new();
        idx.search(|_| true, |_, d| got.push(d)).unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..150).collect::<Vec<u64>>());
    }

    #[test]
    fn insert_built_tree_matches_bulk_tree() {
        let c = corpus(120);
        let bulk = SeqIndex::build(&c, IndexConfig::default()).unwrap();
        // STR needs one sequence to fix the length; the other 119 enter
        // through one-by-one R*-tree insertion.
        let mut incr = SeqIndex::build(&c.truncated(1), IndexConfig::default()).unwrap();
        for ts in &c.series()[1..] {
            incr.insert_series(ts).unwrap();
        }
        incr.validate().unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        bulk.search(|_| true, |_, d| a.push(d)).unwrap();
        incr.search(|_| true, |_, d| b.push(d)).unwrap();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn prepare_query_validates() {
        let idx = SeqIndex::build(&corpus(10), IndexConfig::default()).unwrap();
        let short = TimeSeries::new(vec![1.0; 32]);
        assert!(matches!(
            idx.prepare_query(&short),
            Err(QueryError::LengthMismatch {
                query: 32,
                indexed: 64
            })
        ));
        let flat = TimeSeries::new(vec![2.0; 64]);
        assert!(matches!(
            idx.prepare_query(&flat),
            Err(QueryError::DegenerateQuery)
        ));
        assert!(idx.prepare_query(&corpus(10).series()[3]).is_ok());
    }
}

// ---------------------------------------------------------------------
// Persistence: save a built index to a directory, reopen it later.
// ---------------------------------------------------------------------

/// Device-wrapping hook for [`SeqIndex::open_with`]: receives the plain
/// tree and heap disks loaded from the directory and returns the devices
/// the index should actually run on — e.g. each wrapped in a
/// [`pagestore::FaultyDisk`] so recovery paths can be fault-injected.
pub type DeviceWrap =
    Box<dyn FnOnce(Arc<Disk>, Arc<Disk>) -> (Arc<dyn PageDevice>, Arc<dyn PageDevice>)>;

/// Maps a lock/WAL error onto `std::io::Error` for the `io::Result` open
/// paths. `Locked` keeps its typed payload as the error source (kind
/// `WouldBlock`), so callers can both match on the kind and downcast.
pub fn wal_to_io(e: simwal::WalError) -> std::io::Error {
    match e {
        simwal::WalError::Io(io) => io,
        e @ simwal::WalError::Locked { .. } => {
            std::io::Error::new(std::io::ErrorKind::WouldBlock, e)
        }
        e => std::io::Error::other(e),
    }
}

/// An index directory's commit file: `meta.txt`, the only pointer to the
/// generation of page images it names.
const META: simwal::Manifest = simwal::Manifest::new("meta.txt", "simseq-index v1");

/// The snapshot file names of images without a `files` line.
const LEGACY_FILES: [&str; 2] = ["tree.pg", "records.pg"];

/// The page-image file names `meta` names.
fn snapshot_files(meta: &simwal::Manifest) -> std::io::Result<Vec<String>> {
    let files = meta.opt_list("files", ' ')?;
    Ok(files.unwrap_or_else(|| LEGACY_FILES.map(String::from).to_vec()))
}

impl SeqIndex {
    /// Checkpoint epoch recorded in the snapshot this index was opened
    /// from (1 for fresh builds). [`simwal::Wal::open`] reconciles a
    /// paired log against this value.
    pub fn wal_epoch(&self) -> u64 {
        self.wal_epoch
    }

    /// Persists the index to `dir` (created if needed), keeping the
    /// epoch the index was opened with. See [`Self::save_with_epoch`].
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<()> {
        self.save_with_epoch(dir, self.wal_epoch)
    }

    /// Persists the index to `dir`, stamping the snapshot with
    /// `wal_epoch`: the tree's page image, the record heap's page image,
    /// and a small metadata file.
    ///
    /// The save is crash-atomic. Page images go to *fresh*
    /// generation-numbered file names (`tree-<gen>.pg`), then `meta.txt` —
    /// the only pointer to them — is replaced via temp-file + `rename`.
    /// A crash at any step leaves the previous `meta.txt` naming the
    /// previous, untouched images; the orphaned half-written generation
    /// is deleted by the next successful save over the directory.
    pub fn save_with_epoch(&self, dir: &std::path::Path, wal_epoch: u64) -> std::io::Result<()> {
        let (Some(tree_disk), Some(heap_disk)) = (&self.tree_disk, &self.heap_disk) else {
            return Err(std::io::Error::other(
                "indexes built on custom devices cannot be saved",
            ));
        };
        std::fs::create_dir_all(dir)?;
        self.heap_pool.flush_all().map_err(std::io::Error::other)?;
        // The generation the directory holds, whose files this save
        // replaces; none yet in a new directory.
        let (old_gen, old_files) = match META.read(dir) {
            Ok(meta) => (meta.opt("gen")?.unwrap_or(0), snapshot_files(&meta)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (0, Vec::new()),
            Err(e) => return Err(e),
        };
        let gen = old_gen + 1;
        let tree_file = format!("tree-{gen}.pg");
        let records_file = format!("records-{gen}.pg");
        tree_disk.save_to(&dir.join(&tree_file))?;
        heap_disk.save_to(&dir.join(&records_file))?;

        let params = self.tree.params();
        let deleted = (0..self.len).filter(|&i| self.deleted[i]);
        let heap_pages = self.heap.page_ids();
        META.with("gen", gen)
            .with_list("files", [&tree_file, &records_file], ' ')
            .with("wal_epoch", wal_epoch)
            .with("seq_len", self.seq_len)
            .with("len", self.len)
            .with("tree_root", self.tree.root_id().0)
            .with("tree_root_level", self.tree.root_level())
            .with("tree_len", self.tree.len())
            .with_list(
                "params",
                [
                    params.max_entries,
                    params.min_entries,
                    params.reinsert_count,
                ],
                ' ',
            )
            .with_list("skipped", &self.skipped, ',')
            .with_list("deleted", deleted, ',')
            .with_list("heap_pages", heap_pages.iter().map(|p| p.0), ',')
            .write(dir)?;
        // The old generation is no longer referenced; reclaim it.
        for old in old_files {
            if old != tree_file && old != records_file {
                let _ = std::fs::remove_file(dir.join(old));
            }
        }
        Ok(())
    }

    /// Reopens an index saved by [`Self::save`]. `heap_pool_pages` sizes
    /// the record buffer pool, as in [`IndexConfig`].
    ///
    /// Takes the directory's advisory `LOCK` for the lifetime of the
    /// returned index; a second open while the first is live fails with
    /// kind [`std::io::ErrorKind::WouldBlock`] wrapping a typed
    /// [`simwal::WalError::Locked`].
    pub fn open(dir: &std::path::Path, heap_pool_pages: usize) -> std::io::Result<Self> {
        Self::open_impl(dir, heap_pool_pages, None, true)
    }

    /// [`Self::open`] without taking the directory `LOCK`, for read-only
    /// consumers (verification oracles, live inspection) that must coexist
    /// with a serving process. Safe because snapshots are only ever
    /// replaced whole via temp-file + `rename`: this open keeps reading
    /// the image it mapped even if a checkpoint publishes a newer one.
    /// Nothing stops the caller from mutating — doing so would race the
    /// lock holder, so don't.
    pub fn open_read_only(dir: &std::path::Path, heap_pool_pages: usize) -> std::io::Result<Self> {
        Self::open_impl(dir, heap_pool_pages, None, false)
    }

    /// [`Self::open`] with caller-wrapped page devices — e.g. a
    /// [`pagestore::FaultyDisk`] armed over the loaded disks, so
    /// post-reopen reads and WAL replay can be fault-injected. An index
    /// opened this way cannot be [`Self::save`]d (the concrete disk
    /// handles are surrendered to the wrapper).
    pub fn open_with(
        dir: &std::path::Path,
        heap_pool_pages: usize,
        wrap: DeviceWrap,
    ) -> std::io::Result<Self> {
        Self::open_impl(dir, heap_pool_pages, Some(wrap), true)
    }

    fn open_impl(
        dir: &std::path::Path,
        heap_pool_pages: usize,
        wrap: Option<DeviceWrap>,
        take_lock: bool,
    ) -> std::io::Result<Self> {
        let lock = if take_lock {
            Some(simwal::DirLock::acquire(dir).map_err(wal_to_io)?)
        } else {
            None
        };
        let meta = META.read(dir)?;
        let seq_len: usize = meta.get("seq_len")?;
        let len: usize = meta.get("len")?;
        let tree_root: u32 = meta.get("tree_root")?;
        let tree_root_level: u32 = meta.get("tree_root_level")?;
        let tree_len: usize = meta.get("tree_len")?;
        let params = match meta.list("params", ' ')?[..] {
            // The axis list is not stored: an image written before it
            // existed keeps its tiling until it is rebuilt.
            [max_entries, min_entries, reinsert_count] => Params {
                max_entries,
                min_entries,
                reinsert_count,
                axes: TREE_AXES.to_vec(),
            },
            _ => return Err(meta.invalid("params", "does not hold three numbers")),
        };
        params.check().map_err(|e| meta.invalid("params", e))?;
        let capacity = rstartree::Node::<DIMS>::page_capacity();
        if params.max_entries > capacity {
            let why = format!("exceed the {capacity} entries a node page holds");
            return Err(meta.invalid("params", why));
        }
        let record_size = seq_len
            .checked_mul(8)
            .ok_or_else(|| meta.invalid("seq_len", "overflows a record size"))?;
        let skipped: Vec<usize> = meta.list("skipped", ',')?;
        // Older images may lack the deleted line; treat absence as empty.
        let dead: Vec<usize> = meta.opt_list("deleted", ',')?.unwrap_or_default();
        for (key, ordinals) in [("skipped", &skipped), ("deleted", &dead)] {
            if let Some(i) = ordinals.iter().find(|&&i| i >= len) {
                return Err(meta.invalid(key, format_args!("names ordinal {i}, past len {len}")));
            }
        }
        let heap_pages: Vec<pagestore::PageId> = meta
            .list("heap_pages", ',')?
            .into_iter()
            .map(pagestore::PageId)
            .collect();
        let [tree_file, records_file] = &snapshot_files(&meta)?[..] else {
            return Err(meta.invalid("files", "does not name two files"));
        };
        let wal_epoch = meta.opt("wal_epoch")?.unwrap_or(1);

        let tree_disk = Arc::new(Disk::load_from(&dir.join(tree_file))?);
        let heap_disk = Arc::new(Disk::load_from(&dir.join(records_file))?);
        // Plain opens keep the concrete handles (so `save` works); a
        // device-wrapping open surrenders them to the wrapper.
        let (tree_store, heap_pool, tree_handle, heap_handle) = match wrap {
            None => (
                PagedStore::new(tree_disk.clone()),
                Arc::new(BufferPool::new(
                    Arc::clone(&heap_disk),
                    heap_pool_pages.max(1),
                )),
                Some(tree_disk),
                Some(heap_disk),
            ),
            Some(wrap) => {
                let (tree_dev, heap_dev) = wrap(tree_disk, heap_disk);
                (
                    PagedStore::new(tree_dev),
                    Arc::new(BufferPool::new_dyn(heap_dev, heap_pool_pages.max(1))),
                    None,
                    None,
                )
            }
        };
        let heap = DynHeapFile::reopen(Arc::clone(&heap_pool), record_size, len, heap_pages)
            .map_err(|e| {
                meta.invalid(
                    "seq_len",
                    format_args!("and `len` do not fit `heap_pages`: {e}"),
                )
            })?;
        let mut deleted = vec![false; len];
        for i in dead {
            deleted[i] = true;
        }
        let rids = (0..len).map(|i| heap.rid_of(i)).collect();
        let leaf_capacity = params.max_entries;
        let tree = RStarTree::open(
            tree_store,
            rstartree::NodeId(tree_root),
            tree_root_level,
            tree_len,
            params,
        );

        Ok(Self {
            tree,
            heap,
            heap_pool,
            tree_disk: tree_handle,
            heap_disk: heap_handle,
            rids,
            seq_len,
            len,
            skipped,
            deleted_count: deleted.iter().filter(|d| **d).count(),
            deleted,
            leaf_capacity,
            fetches: std::sync::atomic::AtomicU64::new(0),
            points: PointExtractor::new(seq_len),
            wal_epoch,
            _dir_lock: lock,
        })
    }
}

#[cfg(test)]
mod maintenance_tests {
    use super::*;
    use crate::engine::{mtindex, seqscan};
    use crate::query::{FilterPolicy, RangeSpec};
    use crate::transform::Family;
    use tseries::CorpusKind;

    #[test]
    fn incremental_index_matches_fresh_build() {
        let full = Corpus::generate(CorpusKind::SyntheticWalks, 120, 64, 61);
        // Build from the first 80, then insert the remaining 40 live.
        let mut index = SeqIndex::build(&full.truncated(80), IndexConfig::default()).unwrap();
        for ts in &full.series()[80..] {
            index.insert_series(ts).unwrap();
        }
        assert_eq!(index.len(), 120);
        index.validate().unwrap();

        let fresh = SeqIndex::build(&full, IndexConfig::default()).unwrap();
        let family = Family::moving_averages(3..=8, 64);
        let spec = RangeSpec::correlation(0.94).with_policy(FilterPolicy::Safe);
        for qi in [0usize, 79, 119] {
            let q = &full.series()[qi];
            let a = mtindex::range_query(&index, q, &family, &spec).unwrap();
            let b = mtindex::range_query(&fresh, q, &family, &spec).unwrap();
            assert_eq!(a.sorted_pairs(), b.sorted_pairs(), "query {qi}");
        }
    }

    #[test]
    fn deletions_remove_from_all_engines() {
        let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 90, 64, 67);
        let mut index = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
        for victim in [5usize, 30, 31, 89] {
            assert!(index.delete_series(victim).unwrap());
            assert!(
                !index.delete_series(victim).unwrap(),
                "double delete returns false"
            );
        }
        assert_eq!(index.deleted_count(), 4);
        index.validate().unwrap();

        let family = Family::moving_averages(2..=6, 64);
        let spec = RangeSpec::correlation(0.9).with_policy(FilterPolicy::Safe);
        let q = &corpus.series()[0];
        let mt = mtindex::range_query(&index, q, &family, &spec).unwrap();
        let scan = seqscan::range_query(&index, q, &family, &spec).unwrap();
        assert_eq!(mt.sorted_pairs(), scan.sorted_pairs());
        for victim in [5usize, 30, 31, 89] {
            assert!(
                mt.matches.iter().all(|m| m.seq != victim),
                "deleted {victim} resurfaced"
            );
        }
    }

    #[test]
    fn deleted_set_survives_persistence() {
        let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 40, 64, 71);
        let mut index = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
        index.delete_series(7).unwrap();
        index.delete_series(12).unwrap();
        let dir = std::env::temp_dir()
            .join("simquery_index_persistence")
            .join("tombstones");
        std::fs::create_dir_all(&dir).unwrap();
        index.save(&dir).unwrap();
        let mut reopened = SeqIndex::open(&dir, 16).unwrap();
        assert_eq!(reopened.deleted_count(), 2);
        // The count kept beside the tombstones follows them through a
        // reopen and later deletes (`validate` checks it against a scan).
        assert!(reopened.delete_series(3).unwrap());
        assert!(!reopened.delete_series(12).unwrap());
        assert_eq!(reopened.deleted_count(), reopened.deleted_ordinals().len());
        assert_eq!(reopened.deleted_ordinals(), [3, 7, 12]);
        reopened.validate().unwrap();
        let family = Family::moving_averages(1..=1, 64);
        let spec = RangeSpec::euclidean(1e-6).with_policy(FilterPolicy::Safe);
        // Deleted sequence no longer matches even itself.
        let r = mtindex::range_query(&reopened, &corpus.series()[7], &family, &spec).unwrap();
        assert!(r.matches.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `delete_series` finds a tree entry by recomputing the sequence's
    /// feature point and comparing rectangles with `==`; on a miss a
    /// release build tombstones the ordinal anyway and the index-driven
    /// engines, which never consult `deleted`, keep serving it. So the
    /// point extracted today must be, to the bit, the point that was
    /// stored — here by a build saved to disk and reopened. A point that
    /// moved by one ulp would leave its entry in the tree and a candidate
    /// in the query below.
    #[test]
    fn every_saved_entry_is_found_again_by_delete() {
        let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 150, 128, 83);
        let dir = std::env::temp_dir()
            .join("simquery_index_persistence")
            .join("delete_all");
        std::fs::create_dir_all(&dir).unwrap();
        SeqIndex::build(&corpus, IndexConfig::default())
            .unwrap()
            .save(&dir)
            .unwrap();
        let mut index = SeqIndex::open(&dir, 16).unwrap();
        for ordinal in 0..index.len() {
            assert!(index.delete_series(ordinal).unwrap());
        }
        index.validate().unwrap();
        let mut left = 0;
        index.search(|_| true, |_, _| left += 1).unwrap();
        assert_eq!(left, 0, "entries left in the tree");
        let family = Family::moving_averages(5..=20, 128);
        let spec = RangeSpec::euclidean(1e6).with_policy(FilterPolicy::Safe);
        let st = crate::engine::stindex::range_query(&index, &corpus.series()[0], &family, &spec)
            .unwrap();
        assert_eq!(st.metrics.candidates, 0);
        assert!(st.matches.is_empty());
        drop(index);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn insert_wrong_length_rejected() {
        let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 10, 64, 73);
        let mut index = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
        let short = TimeSeries::new(vec![1.0; 32]);
        assert!(matches!(
            index.insert_series(&short),
            Err(QueryError::LengthMismatch {
                query: 32,
                indexed: 64
            })
        ));
        // Degenerate inserts are stored but skipped.
        let flat = TimeSeries::new(vec![2.0; 64]);
        let ord = index.insert_series(&flat).unwrap();
        assert!(index.skipped().contains(&ord));
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use crate::engine::mtindex;
    use crate::query::{FilterPolicy, RangeSpec};
    use crate::transform::Family;
    use tseries::CorpusKind;

    fn corpus_of(n: usize) -> Corpus {
        Corpus::generate(CorpusKind::SyntheticWalks, n, 64, 5)
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("simquery_index_persistence")
            .join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_open_roundtrip_preserves_queries() {
        let corpus = Corpus::generate(CorpusKind::StockCloses, 150, 128, 21);
        let index = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
        let family = Family::moving_averages(5..=12, 128);
        let spec = RangeSpec::correlation(0.96).with_policy(FilterPolicy::Safe);
        let q = &corpus.series()[33];
        let want = mtindex::range_query(&index, q, &family, &spec).unwrap();

        let dir = tmpdir("roundtrip");
        index.save(&dir).unwrap();
        let reopened = SeqIndex::open(&dir, 64).unwrap();
        reopened.validate().unwrap();
        assert_eq!(reopened.len(), 150);
        assert_eq!(reopened.seq_len(), 128);
        let got = mtindex::range_query(&reopened, q, &family, &spec).unwrap();
        assert_eq!(want.sorted_pairs(), got.sorted_pairs());
        // Records survive bit-exactly.
        for i in [0usize, 77, 149] {
            let a = index.fetch_series(i).unwrap();
            let b = reopened.fetch_series(i).unwrap();
            assert_eq!(a.values(), b.values());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_garbage_dir() {
        let dir = tmpdir("garbage");
        std::fs::write(dir.join("meta.txt"), "something else").unwrap();
        assert!(SeqIndex::open(&dir, 8).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `meta.txt` keeps its bytes: the version line, then every field in
    /// this order, lists joined by commas (`params` and `files` by
    /// spaces) and an empty list written as `key `.
    #[test]
    fn meta_bytes_are_pinned() {
        let mut series = Corpus::generate(CorpusKind::SyntheticWalks, 5, 64, 2)
            .series()
            .to_vec();
        series.insert(2, tseries::TimeSeries::new(vec![1.0; 64]));
        let names = (0..6).map(|i| format!("s{i}")).collect();
        let mut index =
            SeqIndex::build(&Corpus::from_parts(names, series), IndexConfig::default()).unwrap();
        let dir = tmpdir("meta_bytes");
        let meta = || std::fs::read_to_string(dir.join("meta.txt")).unwrap();
        let fresh = SeqIndex::build(&corpus_of(3), IndexConfig::default()).unwrap();
        fresh.save(&dir).unwrap();
        assert_eq!(
            meta(),
            "simseq-index v1\ngen 1\nfiles tree-1.pg records-1.pg\nwal_epoch 1\n\
             seq_len 64\nlen 3\ntree_root 0\ntree_root_level 0\ntree_len 3\n\
             params 78 31 23\nskipped \ndeleted \nheap_pages 0\n"
        );
        index.delete_series(4).unwrap();
        index.delete_series(1).unwrap();
        index.save_with_epoch(&dir, 7).unwrap();
        assert_eq!(
            meta(),
            "simseq-index v1\ngen 2\nfiles tree-2.pg records-2.pg\nwal_epoch 7\n\
             seq_len 64\nlen 6\ntree_root 0\ntree_root_level 0\ntree_len 3\n\
             params 78 31 23\nskipped 2\ndeleted 1,4\nheap_pages 0\n"
        );
        assert!(
            !dir.join("tree-1.pg").exists(),
            "the old generation is reclaimed"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Images written before generation-numbered files, tombstones and
    /// the WAL have no `gen`, `files`, `deleted` or `wal_epoch` line: they
    /// open with the fixed file names, nothing deleted, at epoch 1, and
    /// the next save moves them to generation 1.
    #[test]
    fn legacy_meta_without_gen_files_deleted_or_wal_epoch_opens() {
        let dir = tmpdir("legacy_meta");
        let c = corpus_of(12);
        SeqIndex::build(&c, IndexConfig::default())
            .unwrap()
            .save(&dir)
            .unwrap();
        std::fs::rename(dir.join("tree-1.pg"), dir.join("tree.pg")).unwrap();
        std::fs::rename(dir.join("records-1.pg"), dir.join("records.pg")).unwrap();
        let legacy: String = std::fs::read_to_string(dir.join("meta.txt"))
            .unwrap()
            .lines()
            .filter(|l| {
                !["gen ", "files ", "deleted ", "wal_epoch "]
                    .iter()
                    .any(|k| l.starts_with(k))
            })
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(
            !legacy.contains("gen") && !legacy.contains("wal_epoch"),
            "{legacy}"
        );
        std::fs::write(dir.join("meta.txt"), legacy).unwrap();
        let reopened = SeqIndex::open(&dir, 8).unwrap();
        assert_eq!((reopened.len(), reopened.wal_epoch()), (12, 1));
        assert_eq!(reopened.deleted_count(), 0);
        assert_eq!(
            reopened.fetch_series(5).unwrap().values(),
            c.series()[5].values()
        );
        reopened.save(&dir).unwrap();
        drop(reopened);
        assert!(!dir.join("tree.pg").exists() && dir.join("tree-1.pg").exists());
        assert_eq!(SeqIndex::open(&dir, 8).unwrap().len(), 12);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn skipped_ordinals_survive() {
        let mut series = Corpus::generate(CorpusKind::SyntheticWalks, 5, 64, 2)
            .series()
            .to_vec();
        series.insert(2, tseries::TimeSeries::new(vec![1.0; 64]));
        let names = (0..6).map(|i| format!("s{i}")).collect();
        let corpus = Corpus::from_parts(names, series);
        let index = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
        assert_eq!(index.skipped(), &[2]);
        let dir = tmpdir("skipped");
        index.save(&dir).unwrap();
        let reopened = SeqIndex::open(&dir, 8).unwrap();
        assert_eq!(reopened.skipped(), &[2]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod open_robustness {
    use super::*;
    use tseries::rng::SeededRng;

    /// Up to `max` characters drawn from printable ASCII, newlines,
    /// digits-heavy runs and a few multi-byte code points.
    fn garbage(rng: &mut SeededRng, max: usize) -> String {
        const EXTRA: [char; 6] = ['\n', ' ', '-', 'é', '∞', '\u{1F4C8}'];
        (0..rng.random_range(0..=max))
            .map(|_| match rng.random_range(0..4u32) {
                0 => char::from(rng.random_range(b'0'..=b'9')),
                1 => EXTRA[rng.random_range(0..EXTRA.len())],
                _ => char::from(rng.random_range(b' '..=b'~')),
            })
            .collect()
    }

    /// Writes `meta` beside junk page files and opens the directory.
    fn open_with_meta(tag: &str, case: usize, meta: &str) -> std::io::Result<SeqIndex> {
        let dir = std::env::temp_dir()
            .join(format!("simquery_meta_fuzz_{}", std::process::id()))
            .join(format!("{tag}{case}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("meta.txt"), meta).unwrap();
        std::fs::write(dir.join("tree.pg"), b"junk").unwrap();
        std::fs::write(dir.join("records.pg"), b"junk").unwrap();
        let opened = SeqIndex::open(&dir, 8);
        std::fs::remove_dir_all(&dir).ok();
        opened
    }

    /// Arbitrary bytes in meta.txt must produce an error, never a panic.
    #[test]
    fn garbage_meta_is_an_error() {
        let mut rng = SeededRng::seed_from_u64(0x6A2B);
        for case in 0..24 {
            let meta = garbage(&mut rng, 400);
            assert!(open_with_meta("garbage", case, &meta).is_err(), "{meta:?}");
        }
    }

    /// A valid header with corrupted numeric fields errors cleanly too:
    /// either field parsing fails or the page images are rejected.
    #[test]
    fn corrupted_fields_are_errors() {
        let mut rng = SeededRng::seed_from_u64(0xC0FF);
        for case in 0..24 {
            let (seq_len, root) = (garbage(&mut rng, 8), garbage(&mut rng, 8));
            let meta = format!(
                "simseq-index v1\nseq_len {seq_len}\nlen 1\ntree_root {root}\n\
                 tree_root_level 0\ntree_len 1\nparams 8 3 2\nskipped \nheap_pages 0\n"
            );
            assert!(open_with_meta("fields", case, &meta).is_err(), "{meta:?}");
        }
    }

    /// One damaged `meta.txt` field beside intact page images is an
    /// `InvalidData` error at open that names the field — never a panic
    /// in the open, and never an open whose first INSERTs overfill a
    /// node page.
    #[test]
    fn damaged_meta_fields_are_invalid_data() {
        use tseries::CorpusKind;

        let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 300, 64, 0x3E7A);
        let dir = std::env::temp_dir().join(format!("simquery_meta_damage_{}", std::process::id()));
        SeqIndex::build(&corpus, IndexConfig::default())
            .unwrap()
            .save(&dir)
            .unwrap();
        let meta = std::fs::read_to_string(dir.join("meta.txt")).unwrap();
        let cases = [
            ("params", "78 0 23"),
            ("params", "78 x 23"),
            ("params", "200 80 60"),
            ("seq_len", "0"),
            ("seq_len", "5000"),
            ("len", "100000"),
            ("heap_pages", ""),
            ("deleted", "7,300"),
            ("skipped", "300"),
        ];
        for (key, value) in cases {
            let damaged: String = meta
                .lines()
                .map(|l| match l.split_once(' ') {
                    Some((k, _)) if k == key => format!("{key} {value}\n"),
                    _ => format!("{l}\n"),
                })
                .collect();
            assert_ne!(damaged, meta, "{key}");
            std::fs::write(dir.join("meta.txt"), damaged).unwrap();
            let err = SeqIndex::open(&dir, 8).err().unwrap_or_else(|| {
                panic!("{key} {value}: opened");
            });
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidData,
                "{key} {value}: {err}"
            );
            assert!(
                err.to_string().contains(&format!("`{key}`")),
                "{key} {value}: {err}"
            );
        }
        std::fs::write(dir.join("meta.txt"), &meta).unwrap();
        assert_eq!(SeqIndex::open(&dir, 8).unwrap().len(), 300);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Page ids in a saved index are outside input too: a branch entry's
    /// child id, or the meta line's `tree_root`, that names no page of the
    /// tree file makes a query on the reopened index a typed corrupt-page
    /// error — never a panic that takes the serving process down.
    #[test]
    fn page_ids_past_the_tree_file_are_typed_errors() {
        use crate::engine::mtindex;
        use crate::query::{FilterPolicy, RangeSpec};
        use crate::transform::Family;
        use pagestore::PageId;
        use tseries::CorpusKind;

        let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 120, 64, 91);
        let config = IndexConfig {
            fanout: Some(8),
            ..IndexConfig::default()
        };
        let family = Family::moving_averages(2..=5, 64);
        // Wide enough that the descent reads every node.
        let spec = RangeSpec::euclidean(1e6).with_policy(FilterPolicy::Safe);
        let query = &corpus.series()[3];
        let dir = std::env::temp_dir().join(format!("simquery_page_ids_{}", std::process::id()));
        let index = SeqIndex::build(&corpus, config).unwrap();
        assert!(index.height() >= 2, "the root must be a branch");
        index.save(&dir).unwrap();
        drop(index);

        let meta = std::fs::read_to_string(dir.join("meta.txt")).unwrap();
        let field = |key: &str| {
            let line = meta.lines().find(|l| l.starts_with(&format!("{key} ")));
            line.unwrap().split_once(' ').unwrap().1.to_string()
        };
        let tree_file = dir.join(field("files").split(' ').next().unwrap());
        let root: u32 = field("tree_root").parse().unwrap();
        let intact = std::fs::read(&tree_file).unwrap();
        let past = Disk::load_from(&tree_file).unwrap().stats().allocated as u32 + 3;

        let query_error = |what: &str| {
            let index = SeqIndex::open(&dir, 8).unwrap();
            let err = mtindex::range_query(&index, query, &family, &spec).unwrap_err();
            assert!(index.validate().is_err(), "{what}: validate");
            (err, what.to_string())
        };
        // The root's first entry points past the file, or past the id space.
        for (payload, pid) in [(u64::from(past), PageId(past)), (u64::MAX, PageId::INVALID)] {
            let disk = Disk::load_from(&tree_file).unwrap();
            let mut page = disk.read(PageId(root));
            page.put_u64(8 + 2 * DIMS * 8, payload);
            disk.write(PageId(root), &page);
            disk.save_to(&tree_file).unwrap();
            let (err, what) = query_error(&format!("child {payload}"));
            assert_eq!(err, QueryError::Io(PageError::corrupt(pid)), "{what}");
            std::fs::write(&tree_file, &intact).unwrap();
        }
        // The meta line's root points past the file.
        std::fs::write(
            dir.join("meta.txt"),
            meta.replace(
                &format!("tree_root {root}\n"),
                &format!("tree_root {past}\n"),
            ),
        )
        .unwrap();
        let (err, what) = query_error("tree_root");
        assert_eq!(
            err,
            QueryError::Io(PageError::corrupt(PageId(past))),
            "{what}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Leaf payloads and records come from files too. A candidate that
    /// names no record, sits past its page's stored record count, or
    /// decodes to a sequence with no normal form is a typed corrupt-page
    /// error from a range query, a k-NN query and a join alike — never a
    /// panic in step 5's fetch.
    #[test]
    fn damaged_candidates_are_typed_errors() {
        use crate::engine::{join, knn, mtindex};
        use crate::query::{FilterPolicy, RangeSpec};
        use crate::transform::Family;
        use pagestore::PageId;
        use tseries::CorpusKind;

        const LEN: usize = 64;
        let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 6, LEN, 93);
        let family = Family::moving_averages(2..=5, LEN);
        // Wide enough that every sequence is a candidate and every pair
        // joins.
        let spec = RangeSpec::euclidean(1e6).with_policy(FilterPolicy::Safe);
        let query = &corpus.series()[0];
        let dir = std::env::temp_dir().join(format!("simquery_damaged_{}", std::process::id()));
        let index = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
        assert_eq!(index.height(), 1, "the root is the one leaf");
        index.save(&dir).unwrap();
        drop(index);

        let meta = std::fs::read_to_string(dir.join("meta.txt")).unwrap();
        let field = |key: &str| {
            let prefix = format!("{key} ");
            meta.lines().find_map(|l| l.strip_prefix(&prefix)).unwrap()
        };
        let files: Vec<_> = field("files").split(' ').map(|f| dir.join(f)).collect();
        let leaf = PageId(field("tree_root").parse().unwrap());
        let records = PageId(field("heap_pages").parse().unwrap());
        // Record `slot`'s first byte on its heap page.
        let record = |slot: usize| 8 + slot * LEN * 8;

        for damage in 0..3 {
            let (what, file, pid, corrupt) = match damage {
                0 => ("a leaf payload past the relation", 0, leaf, PageId::INVALID),
                1 => ("a record count that leaves out slot 5", 1, records, records),
                _ => ("a constant record", 1, records, records),
            };
            let intact = std::fs::read(&files[file]).unwrap();
            let disk = Disk::load_from(&files[file]).unwrap();
            let mut page = disk.read(pid);
            match damage {
                0 => page.put_u64(8 + 2 * DIMS * 8, 1000),
                1 => page.put_u16(0, 5),
                _ => {
                    for i in 0..LEN {
                        page.put_u64(record(3) + 8 * i, 1.0f64.to_bits());
                    }
                }
            }
            disk.write(pid, &page);
            disk.save_to(&files[file]).unwrap();

            let index = SeqIndex::open(&dir, 8).unwrap();
            for (engine, result) in [
                (
                    "range",
                    mtindex::range_query(&index, query, &family, &spec).map(drop),
                ),
                ("k-NN", knn::knn(&index, query, &family, 6).map(drop)),
                ("join", join::mt_join(&index, &family, &spec).map(drop)),
            ] {
                let want = Err(QueryError::Io(PageError::corrupt(corrupt)));
                assert_eq!(result, want, "{what}: {engine}");
            }
            drop(index);
            std::fs::write(&files[file], &intact).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
