//! The R*-tree proper: insertion with forced reinsertion, deletion with
//! condensation, and the query machinery (predicate search, best-first
//! nearest neighbour, the synchronized-descent self join).

use crate::node::{Entry, Node, NodeId, NodeView};
use crate::params::Params;
use crate::rect::Rect;
use crate::split::rstar_split;
use crate::store::PagedStore;
use pagestore::{PageError, PageId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Counters produced by one tree traversal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes read during the traversal (all levels) — the paper's
    /// `DA_all(q, r)`.
    pub nodes_accessed: u64,
    /// Leaf nodes read — the paper's `DA_leaf(q, r)`.
    pub leaf_nodes_accessed: u64,
    /// Entry rectangles tested against the predicate.
    pub entries_tested: u64,
    /// Leaf entries that satisfied the predicate (candidates).
    pub candidates: u64,
}

/// The set bits of a [`RStarTree::search_masked`] mask, ascending.
pub fn mask_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let j = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            j
        })
    })
}

/// Per-level structure summary produced by
/// [`RStarTree::level_summaries`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LevelSummary<const D: usize> {
    /// The level (0 = leaves).
    pub level: u32,
    /// Number of nodes at this level.
    pub nodes: u64,
    /// Mean node-MBR side length per dimension.
    pub avg_extent: [f64; D],
}

/// One result of a nearest-neighbour query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor<const D: usize> {
    /// Distance reported by the caller's leaf scorer.
    pub dist: f64,
    /// The stored rectangle.
    pub rect: Rect<D>,
    /// The stored payload.
    pub data: u64,
}

/// An R*-tree over `D`-dimensional rectangles with `u64` payloads.
pub struct RStarTree<const D: usize> {
    store: PagedStore<D>,
    root: NodeId,
    root_level: u32,
    len: usize,
    params: Params,
    poisoned: bool,
}

enum Outcome<const D: usize> {
    /// Node absorbed the change; parent entry should be updated to this MBR.
    Fit(Rect<D>),
    /// Node split; parent must also add the sibling entry.
    Split(Rect<D>, Entry<D>),
}

impl<const D: usize> RStarTree<D> {
    /// Creates an empty tree with page-derived parameters.
    pub fn new(store: PagedStore<D>) -> Self {
        Self::with_params(store, Params::for_dimension::<D>())
    }

    /// Creates an empty tree with explicit parameters.
    pub fn with_params(store: PagedStore<D>, params: Params) -> Self {
        params.validate();
        assert!(
            params.max_entries <= Node::<D>::page_capacity(),
            "fanout {} exceeds page capacity {}",
            params.max_entries,
            Node::<D>::page_capacity()
        );
        let root = store
            .alloc(&Node::new(0))
            .expect("root allocation must succeed on a healthy device");
        Self {
            store,
            root,
            root_level: 0,
            len: 0,
            params,
            poisoned: false,
        }
    }

    /// (Internal to the crate) assembles a tree from pre-built parts; used
    /// by bulk loading.
    pub(crate) fn from_parts(
        store: PagedStore<D>,
        root: NodeId,
        root_level: u32,
        len: usize,
        params: Params,
    ) -> Self {
        Self {
            store,
            root,
            root_level,
            len,
            params,
            poisoned: false,
        }
    }

    /// Re-attaches a tree whose nodes already live in `store` — the
    /// persistence path: the caller supplies the root id, root level and
    /// entry count it recorded when the tree was saved. Call
    /// [`Self::validate`] afterwards to verify the structure if the
    /// provenance of the image is in doubt.
    pub fn open(
        store: PagedStore<D>,
        root: NodeId,
        root_level: u32,
        len: usize,
        params: Params,
    ) -> Self {
        params.validate();
        Self::from_parts(store, root, root_level, len, params)
    }

    /// The root node's id (needed to reopen a persisted tree).
    pub fn root_id(&self) -> NodeId {
        self.root
    }

    /// The root's level (= height − 1).
    pub fn root_level(&self) -> u32 {
        self.root_level
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (a single leaf root has height 1).
    pub fn height(&self) -> u32 {
        self.root_level + 1
    }

    /// The node store (for access statistics).
    pub fn store(&self) -> &PagedStore<D> {
        &self.store
    }

    /// The tree parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// True once an [`Self::insert`] or [`Self::delete`] failed midway with
    /// a device error: the structure may have lost entries or hold stale
    /// parent rectangles. Queries on a poisoned tree still never panic and
    /// never fabricate entries, but results reflect the damaged structure.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// MBR of the whole tree ([`Rect::empty`] when empty).
    pub fn root_mbr(&self) -> Result<Rect<D>, PageError> {
        self.store.view(self.root, |n| n.mbr())
    }

    // ------------------------------------------------------------------
    // Insertion (R*-tree: ChooseSubtree + OverflowTreatment)
    // ------------------------------------------------------------------

    /// Inserts a rectangle with its payload.
    ///
    /// On a device error the tree is marked [poisoned](Self::is_poisoned):
    /// a failure after the first node write may leave stale parent
    /// rectangles or drop entries queued for forced reinsertion.
    pub fn insert(&mut self, rect: Rect<D>, data: u64) -> Result<(), PageError> {
        // One forced reinsert per level per top-level insertion (R*-tree
        // OverflowTreatment); `true` means that level may still reinsert.
        let mut may_reinsert = vec![true; (self.root_level + 2) as usize];
        let mut pending: Vec<(Entry<D>, u32)> = vec![(Entry::leaf(rect, data), 0)];
        while let Some((entry, level)) = pending.pop() {
            if may_reinsert.len() <= self.root_level as usize + 1 {
                may_reinsert.resize(self.root_level as usize + 2, true);
            }
            if let Err(e) = self.insert_from_root(entry, level, &mut may_reinsert, &mut pending) {
                self.poisoned = true;
                return Err(e);
            }
        }
        self.len += 1;
        Ok(())
    }

    fn insert_from_root(
        &mut self,
        entry: Entry<D>,
        target_level: u32,
        may_reinsert: &mut [bool],
        pending: &mut Vec<(Entry<D>, u32)>,
    ) -> Result<(), PageError> {
        debug_assert!(target_level <= self.root_level);
        match self.insert_rec(self.root, entry, target_level, may_reinsert, pending)? {
            Outcome::Fit(_) => {}
            Outcome::Split(root_mbr, sibling) => {
                let new_root = Node {
                    level: self.root_level + 1,
                    entries: vec![Entry::branch(root_mbr, self.root), sibling],
                };
                self.root = self.store.alloc(&new_root)?;
                self.root_level += 1;
            }
        }
        Ok(())
    }

    fn insert_rec(
        &mut self,
        node_id: NodeId,
        entry: Entry<D>,
        target_level: u32,
        may_reinsert: &mut [bool],
        pending: &mut Vec<(Entry<D>, u32)>,
    ) -> Result<Outcome<D>, PageError> {
        let mut node = self.store.get(node_id)?;
        if node.level == target_level {
            node.entries.push(entry);
            return self.resolve_overflow(node_id, node, may_reinsert, pending);
        }

        let child_idx = Self::choose_subtree(&node, &entry.rect);
        let child_id = node.entries[child_idx].child();
        match self.insert_rec(child_id, entry, target_level, may_reinsert, pending)? {
            Outcome::Fit(child_mbr) => {
                node.entries[child_idx].rect = child_mbr;
                let mbr = node.mbr();
                self.store.write(node_id, &node)?;
                Ok(Outcome::Fit(mbr))
            }
            Outcome::Split(child_mbr, sibling) => {
                node.entries[child_idx].rect = child_mbr;
                node.entries.push(sibling);
                self.resolve_overflow(node_id, node, may_reinsert, pending)
            }
        }
    }

    /// R*-tree ChooseSubtree: minimum overlap enlargement when children are
    /// leaves, minimum area enlargement otherwise (ties: smaller area).
    fn choose_subtree(node: &Node<D>, rect: &Rect<D>) -> usize {
        debug_assert!(!node.entries.is_empty(), "choose_subtree on empty node");
        if node.level == 1 {
            // Children are leaves: minimise overlap enlargement.
            let mut best = 0;
            let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
            for (i, e) in node.entries.iter().enumerate() {
                let enlarged = e.rect.union(rect);
                let overlap_delta: f64 = node
                    .entries
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, other)| {
                        enlarged.intersection_area(&other.rect)
                            - e.rect.intersection_area(&other.rect)
                    })
                    .sum();
                let key = (overlap_delta, e.rect.enlargement(rect), e.rect.area());
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            best
        } else {
            let mut best = 0;
            let mut best_key = (f64::INFINITY, f64::INFINITY);
            for (i, e) in node.entries.iter().enumerate() {
                let key = (e.rect.enlargement(rect), e.rect.area());
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            best
        }
    }

    /// OverflowTreatment: write through if the node fits, otherwise force-
    /// reinsert (first time at this level) or split.
    fn resolve_overflow(
        &mut self,
        node_id: NodeId,
        mut node: Node<D>,
        may_reinsert: &mut [bool],
        pending: &mut Vec<(Entry<D>, u32)>,
    ) -> Result<Outcome<D>, PageError> {
        if node.entries.len() <= self.params.max_entries {
            let mbr = node.mbr();
            self.store.write(node_id, &node)?;
            return Ok(Outcome::Fit(mbr));
        }

        let level = node.level as usize;
        if node_id != self.root && may_reinsert[level] {
            may_reinsert[level] = false;
            // Forced reinsert: drop the `p` entries whose centres are
            // farthest from the node centre and re-insert them later.
            let center = node.mbr().center();
            node.entries.sort_by(|a, b| {
                let da = Rect::point(center).center_dist_sq(&a.rect);
                let db = Rect::point(center).center_dist_sq(&b.rect);
                da.total_cmp(&db)
            });
            let keep = node.entries.len() - self.params.reinsert_count;
            let removed = node.entries.split_off(keep);
            let mbr = node.mbr();
            self.store.write(node_id, &node)?;
            // "Close reinsert": nearest of the removed first. `pending` is a
            // LIFO stack, so push farthest-first.
            for entry in removed.into_iter().rev() {
                pending.push((entry, node.level));
            }
            Ok(Outcome::Fit(mbr))
        } else {
            let level = node.level;
            let (left, right) = rstar_split(std::mem::take(&mut node.entries), &self.params);
            node.entries = left;
            let mbr = node.mbr();
            self.store.write(node_id, &node)?;
            let sibling = Node {
                level,
                entries: right,
            };
            let sibling_mbr = sibling.mbr();
            let sibling_id = self.store.alloc(&sibling)?;
            Ok(Outcome::Split(mbr, Entry::branch(sibling_mbr, sibling_id)))
        }
    }

    // ------------------------------------------------------------------
    // Deletion with condensation
    // ------------------------------------------------------------------

    /// Removes the entry with exactly this rectangle and payload. Returns
    /// whether it was found.
    ///
    /// On a device error the tree is marked [poisoned](Self::is_poisoned):
    /// condensation orphans that were not reinserted yet are lost.
    pub fn delete(&mut self, rect: &Rect<D>, data: u64) -> Result<bool, PageError> {
        let mut orphans: Vec<(Entry<D>, u32)> = Vec::new();
        let found = match self.delete_rec(self.root, rect, data, &mut orphans) {
            Ok(found) => found,
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        };
        if found.is_none() {
            return Ok(false);
        }
        self.len -= 1;
        if let Err(e) = self.delete_condense(orphans) {
            self.poisoned = true;
            return Err(e);
        }
        Ok(true)
    }

    /// Post-removal cleanup: root reset, orphan reinsertion, root shrink.
    fn delete_condense(&mut self, mut orphans: Vec<(Entry<D>, u32)>) -> Result<(), PageError> {
        // A branch root emptied out entirely (everything moved to orphans
        // or deleted): restart from an empty leaf.
        let root_now = self.store.get(self.root)?;
        if root_now.level > 0 && root_now.entries.is_empty() {
            self.store.free(self.root);
            self.root = self.store.alloc(&Node::new(0))?;
            self.root_level = 0;
        }

        // Reinsert orphans, highest level first so branch entries find a
        // tall enough tree; if the tree shrank below an orphan's level,
        // dissolve that subtree into leaf entries.
        orphans.sort_by_key(|(_, lvl)| Reverse(*lvl));
        for (entry, level) in orphans {
            if level == 0 {
                self.reinsert_entry(entry, 0)?;
            } else if level <= self.root_level {
                self.reinsert_entry(entry, level)?;
            } else {
                let mut leaves = Vec::new();
                self.dissolve(entry.child(), &mut leaves)?;
                for leaf in leaves {
                    self.reinsert_entry(leaf, 0)?;
                }
            }
        }

        // Shrink a root chain of single-child branch nodes.
        loop {
            let root_node = self.store.get(self.root)?;
            if root_node.level > 0 && root_node.entries.len() == 1 {
                let only = root_node.entries[0].child();
                self.store.free(self.root);
                self.root = only;
                self.root_level -= 1;
            } else {
                break;
            }
        }
        Ok(())
    }

    fn reinsert_entry(&mut self, entry: Entry<D>, level: u32) -> Result<(), PageError> {
        let mut may_reinsert = vec![true; (self.root_level + 2) as usize];
        let mut pending = vec![(entry, level)];
        while let Some((e, lvl)) = pending.pop() {
            if may_reinsert.len() <= self.root_level as usize + 1 {
                may_reinsert.resize(self.root_level as usize + 2, true);
            }
            self.insert_from_root(e, lvl, &mut may_reinsert, &mut pending)?;
        }
        Ok(())
    }

    /// Collects all leaf entries under `node_id`, freeing the nodes.
    fn dissolve(&mut self, node_id: NodeId, out: &mut Vec<Entry<D>>) -> Result<(), PageError> {
        let node = self.store.get(node_id)?;
        if node.is_leaf() {
            out.extend(node.entries);
        } else {
            for e in &node.entries {
                self.dissolve(e.child(), out)?;
            }
        }
        self.store.free(node_id);
        Ok(())
    }

    /// Returns the node's new MBR when the entry was found and removed
    /// under `node_id`.
    fn delete_rec(
        &mut self,
        node_id: NodeId,
        rect: &Rect<D>,
        data: u64,
        orphans: &mut Vec<(Entry<D>, u32)>,
    ) -> Result<Option<Rect<D>>, PageError> {
        let mut node = self.store.get(node_id)?;
        if node.is_leaf() {
            let Some(idx) = node
                .entries
                .iter()
                .position(|e| e.payload == data && e.rect == *rect)
            else {
                return Ok(None);
            };
            node.entries.swap_remove(idx);
            let mbr = node.mbr();
            self.store.write(node_id, &node)?;
            return Ok(Some(mbr));
        }

        for i in 0..node.entries.len() {
            if !node.entries[i].rect.contains_rect(rect) {
                continue;
            }
            let child_id = node.entries[i].child();
            if let Some(child_mbr) = self.delete_rec(child_id, rect, data, orphans)? {
                let child = self.store.get(child_id)?;
                if child.entries.len() < self.params.min_entries {
                    // Condense: dissolve the underfull child, reinsert its
                    // entries at their level later.
                    let child_level = child.level;
                    for e in child.entries {
                        orphans.push((e, child_level));
                    }
                    self.store.free(child_id);
                    node.entries.swap_remove(i);
                } else {
                    node.entries[i].rect = child_mbr;
                }
                let mbr = node.mbr();
                self.store.write(node_id, &node)?;
                return Ok(Some(mbr));
            }
        }
        Ok(None)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Predicate-driven descent — the hook the MT-index algorithm uses.
    ///
    /// `pred` is evaluated on **every entry rectangle** met during the
    /// descent (branch and leaf alike); `true` on a branch entry descends
    /// into it, `true` on a leaf entry reports the entry via `on_data`.
    /// This mirrors steps 3–4 of Algorithm 1, where the transformation MBR
    /// is applied to each index rectangle before the intersection test.
    ///
    /// Evaluation order: a node's entries are tested in place, in slot
    /// order, through [`PagedStore::view`], and `pred` has seen **all** of
    /// them before the node is released and the first hit is reported or
    /// descended into (views never nest). Hits are reported, and children
    /// visited, in slot order — so for a `pred` whose answer depends on the
    /// rectangle alone, the reported sequence and every counter are those
    /// of a test-and-descend-as-you-go walk.
    ///
    /// This is [`Self::search_masked`] with one predicate.
    pub fn search(
        &self,
        mut pred: impl FnMut(&Rect<D>) -> bool,
        mut on_data: impl FnMut(&Rect<D>, u64),
    ) -> Result<SearchStats, PageError> {
        let (_, total) =
            self.search_masked(1, |r, _| u64::from(pred(r)), |r, data, _| on_data(r, data))?;
        Ok(total)
    }

    /// One descent for up to 64 predicates at once — Algorithm 1's steps
    /// 3–4 for every transformation rectangle of a plan, each node read
    /// once for all the rectangles that reach it.
    ///
    /// Predicate `j` is bit `j` of a `u64` mask. `pred(rect, live)` is
    /// called on every entry met, with `live` the mask of predicates whose
    /// descent reached the entry's node, and returns the mask of those
    /// that hit (bits outside `live` are ignored). A branch entry that
    /// hits any is descended into once, with its hit mask as the child's
    /// `live`; a leaf entry that hits any is reported once as
    /// `on_data(rect, payload, mask)`.
    ///
    /// Restricted to predicate `j`, this is [`Self::search`] with
    /// `|r| pred(r, 1 << j) != 0` for a `pred` whose bit `j` depends on the
    /// rectangle alone: the same nodes in the same slot-order DFS, so the
    /// same entries reported in the same order. The first value returned
    /// holds those per-predicate counters (`nodes_accessed` and
    /// `leaf_nodes_accessed` are the paper's `DA_all`, `DA_leaf` of that
    /// predicate's own descent; a node is attributed to every predicate in
    /// its `live` mask), the second what was physically read — every node
    /// once, every reported entry once.
    ///
    /// # Panics
    ///
    /// Panics unless `preds` is in `1..=64`.
    #[allow(clippy::type_complexity)]
    pub fn search_masked(
        &self,
        preds: usize,
        mut pred: impl FnMut(&Rect<D>, u64) -> u64,
        mut on_data: impl FnMut(&Rect<D>, u64, u64),
    ) -> Result<(Vec<SearchStats>, SearchStats), PageError> {
        assert!(
            (1..=64).contains(&preds),
            "a masked search takes 1 to 64 predicates, not {preds}"
        );
        let mut per = vec![SearchStats::default(); preds];
        let mut total = SearchStats::default();
        self.search_rec(
            self.root,
            self.root_level,
            u64::MAX >> (64 - preds),
            &mut pred,
            &mut on_data,
            &mut per,
            &mut total,
        )?;
        Ok((per, total))
    }

    /// Lends node `id` to `f` like [`PagedStore::view`], once its stored
    /// level is the one its parent implies (`root_level` at the root, the
    /// parent's − 1 below). Pages come from a file: an inner page
    /// relabelled a leaf would hand out child ids as payloads, a leaf
    /// relabelled inner payloads as child ids — either is
    /// [`PageError::corrupt`], not a wrong answer. The traversals branch on
    /// `level`, never on the stored one.
    fn view_at<R>(
        &self,
        id: NodeId,
        level: u32,
        f: impl FnOnce(NodeView<'_, D>) -> R,
    ) -> Result<R, PageError> {
        self.store
            .view(id, |node| (node.level() == level).then(|| f(node)))?
            .ok_or(PageError::corrupt(PageId(id.0)))
    }

    #[allow(clippy::too_many_arguments)]
    fn search_rec(
        &self,
        node_id: NodeId,
        level: u32,
        live: u64,
        pred: &mut impl FnMut(&Rect<D>, u64) -> u64,
        on_data: &mut impl FnMut(&Rect<D>, u64, u64),
        per: &mut [SearchStats],
        total: &mut SearchStats,
    ) -> Result<(), PageError> {
        let mut hits: Vec<(Entry<D>, u64)> = Vec::new();
        let len = self.view_at(node_id, level, |node| {
            for e in node.entries() {
                let mask = pred(&e.rect, live) & live;
                if mask != 0 {
                    hits.push((e, mask));
                }
            }
            node.len() as u64
        })?;
        let visit = |stats: &mut SearchStats| {
            stats.nodes_accessed += 1;
            stats.leaf_nodes_accessed += u64::from(level == 0);
            stats.entries_tested += len;
        };
        visit(total);
        for j in mask_bits(live) {
            visit(&mut per[j]);
        }
        if level == 0 {
            total.candidates += hits.len() as u64;
            if live.is_power_of_two() {
                // Every hit carries the one live bit.
                per[live.trailing_zeros() as usize].candidates += hits.len() as u64;
            } else {
                for (_, mask) in &hits {
                    for j in mask_bits(*mask) {
                        per[j].candidates += 1;
                    }
                }
            }
            for (e, mask) in &hits {
                on_data(&e.rect, e.payload, *mask);
            }
        } else {
            for (e, mask) in &hits {
                self.search_rec(e.child(), level - 1, *mask, pred, on_data, per, total)?;
            }
        }
        Ok(())
    }

    /// All entries whose rectangle intersects `query`.
    #[allow(clippy::type_complexity)]
    pub fn range(&self, query: &Rect<D>) -> Result<(Vec<(Rect<D>, u64)>, SearchStats), PageError> {
        let mut out = Vec::new();
        let stats = self.search(|r| r.intersects(query), |r, d| out.push((*r, d)))?;
        Ok((out, stats))
    }

    /// Best-first k-nearest-neighbour with caller-supplied scoring.
    ///
    /// `node_bound(rect)` must lower-bound `leaf_score` for everything
    /// stored under `rect` (MINDIST is such a bound for plain Euclidean
    /// queries; the MT engine passes a transformed MINDIST). `leaf_score`
    /// returns the exact distance of a leaf entry, or `None` to disqualify
    /// it. Results are the `k` smallest by exact score.
    pub fn nearest_by(
        &self,
        k: usize,
        mut node_bound: impl FnMut(&Rect<D>) -> f64,
        mut leaf_score: impl FnMut(&Rect<D>, u64) -> Option<f64>,
    ) -> Result<(Vec<Neighbor<D>>, SearchStats), PageError> {
        let mut stats = SearchStats::default();
        let mut heap: BinaryHeap<Reverse<HeapItem<D>>> = BinaryHeap::new();
        let mut out = Vec::new();
        if k == 0 {
            return Ok((out, stats));
        }
        heap.push(Reverse(HeapItem {
            key: 0.0,
            kind: ItemKind::Node(self.root, self.root_level),
        }));
        while let Some(Reverse(item)) = heap.pop() {
            match item.kind {
                ItemKind::Data(rect, data) => {
                    out.push(Neighbor {
                        dist: item.key,
                        rect,
                        data,
                    });
                    if out.len() == k {
                        break;
                    }
                }
                ItemKind::Node(id, level) => {
                    stats.nodes_accessed += 1;
                    self.view_at(id, level, |node| {
                        if level == 0 {
                            stats.leaf_nodes_accessed += 1;
                            for e in node.entries() {
                                stats.entries_tested += 1;
                                if let Some(d) = leaf_score(&e.rect, e.payload) {
                                    stats.candidates += 1;
                                    heap.push(Reverse(HeapItem {
                                        key: d,
                                        kind: ItemKind::Data(e.rect, e.payload),
                                    }));
                                }
                            }
                        } else {
                            for e in node.entries() {
                                stats.entries_tested += 1;
                                heap.push(Reverse(HeapItem {
                                    key: node_bound(&e.rect),
                                    kind: ItemKind::Node(e.child(), level - 1),
                                }));
                            }
                        }
                    })?;
                }
            }
        }
        Ok((out, stats))
    }

    /// Depth-first branch-and-bound k-nearest-neighbour — the original
    /// algorithm of Roussopoulos, Kelley & Vincent (SIGMOD '95), which the
    /// paper cites for its NN sketch ("use any kind of metric (such as
    /// MINDIST or MINMAXDIST…) to prune the search"). Subtrees are visited
    /// in MINDIST order and pruned against the current k-th best; when
    /// `use_minmaxdist` is set, MINMAXDIST additionally seeds the pruning
    /// bound before any leaf is reached (only sound for k = 1 — every
    /// rectangle is guaranteed to contain an object at most MINMAXDIST
    /// away, but only *one* such object).
    ///
    /// Exposed alongside [`Self::nearest_by`] so the two classic strategies
    /// can be compared; both return exactly the k nearest by `point_dist`.
    pub fn nearest_dfs(
        &self,
        k: usize,
        query: &[f64; D],
        use_minmaxdist: bool,
    ) -> Result<(Vec<Neighbor<D>>, SearchStats), PageError> {
        let mut stats = SearchStats::default();
        let mut best: BinaryHeap<HeapItem<D>> = BinaryHeap::new(); // max-heap of current k best
        if k > 0 {
            let mut prune = f64::INFINITY;
            self.nearest_dfs_rec(
                self.root,
                self.root_level,
                k,
                query,
                use_minmaxdist && k == 1,
                &mut best,
                &mut prune,
                &mut stats,
            )?;
        }
        let mut out: Vec<Neighbor<D>> = best
            .into_sorted_vec()
            .into_iter()
            .map(|item| match item.kind {
                ItemKind::Data(rect, data) => Neighbor {
                    dist: item.key,
                    rect,
                    data,
                },
                ItemKind::Node(..) => unreachable!("only data items are kept"),
            })
            .collect();
        out.sort_by(|a, b| a.dist.total_cmp(&b.dist));
        Ok((out, stats))
    }

    #[allow(clippy::too_many_arguments)]
    fn nearest_dfs_rec(
        &self,
        node_id: NodeId,
        level: u32,
        k: usize,
        query: &[f64; D],
        minmax: bool,
        best: &mut BinaryHeap<HeapItem<D>>,
        prune: &mut f64,
        stats: &mut SearchStats,
    ) -> Result<(), PageError> {
        stats.nodes_accessed += 1;
        // A leaf is scored in place; a branch hands out its children's
        // bounds and the recursion runs after the view is released.
        let mut children: Vec<(f64, f64, NodeId)> = Vec::new();
        self.view_at(node_id, level, |node| {
            if level == 0 {
                stats.leaf_nodes_accessed += 1;
                for e in node.entries() {
                    stats.entries_tested += 1;
                    let d = e.rect.min_dist_sq(query);
                    if best.len() < k {
                        best.push(HeapItem {
                            key: d,
                            kind: ItemKind::Data(e.rect, e.payload),
                        });
                    } else if d < best.peek().expect("k > 0").key {
                        best.pop();
                        best.push(HeapItem {
                            key: d,
                            kind: ItemKind::Data(e.rect, e.payload),
                        });
                    }
                    if best.len() == k {
                        *prune = prune.min(best.peek().expect("non-empty").key);
                    }
                }
            } else {
                children.extend(node.entries().map(|e| {
                    (
                        e.rect.min_dist_sq(query),
                        e.rect.min_max_dist_sq(query),
                        e.child(),
                    )
                }));
            }
        })?;

        // Order children by MINDIST; optionally tighten the bound with
        // MINMAXDIST (k = 1 only). (A leaf has none.)
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        if minmax {
            for &(_, mm, _) in &children {
                *prune = prune.min(mm);
            }
        }
        for (mind, _, child) in children {
            stats.entries_tested += 1;
            let bound = if best.len() == k {
                prune.min(best.peek().expect("non-empty").key)
            } else {
                *prune
            };
            if mind > bound {
                continue; // downward prune
            }
            self.nearest_dfs_rec(child, level - 1, k, query, minmax, best, prune, stats)?;
        }
        Ok(())
    }

    /// Optimal multi-step k-NN (Seidl–Kriegel style): leaf entries are
    /// enqueued with a *cheap* lower bound and only `refine`d to their exact
    /// (expensive) distance when they surface at the top of the priority
    /// queue. Guarantees the exact k results while refining as few entries
    /// as the bounds allow — `stats.candidates` counts refinements. Equal
    /// exact distances are reported in payload order: the k results are
    /// the first k by `(distance, payload)`.
    ///
    /// Requirements: `node_bound` lower-bounds `refine` for everything
    /// under the rectangle, and `leaf_bound(r, d) ≤ refine(r, d)`. A leaf
    /// bound below its node's is allowed: it only surfaces sooner.
    pub fn nearest_by_refine(
        &self,
        k: usize,
        node_bound: impl FnMut(&Rect<D>) -> f64,
        leaf_bound: impl FnMut(&Rect<D>, u64) -> f64,
        refine: impl FnMut(&Rect<D>, u64) -> Option<f64>,
    ) -> Result<(Vec<Neighbor<D>>, SearchStats), PageError> {
        self.nearest_by_refine_bounded(k, f64::INFINITY, node_bound, leaf_bound, refine)
    }

    /// [`Self::nearest_by_refine`] seeded with an external pruning bound:
    /// only entries with exact distance `≤ bound` are returned, and any
    /// subtree or candidate whose lower bound exceeds `bound` is never
    /// expanded or refined. A scatter-gather caller searching many trees
    /// passes the running global k-th distance here so later trees prune
    /// against what earlier trees already found; `bound = ∞` recovers the
    /// plain behaviour exactly. The `≤` (rather than `<`) keeps entries
    /// tied with the bound, so a deterministic cross-tree tie-break stays
    /// possible.
    pub fn nearest_by_refine_bounded(
        &self,
        k: usize,
        bound: f64,
        mut node_bound: impl FnMut(&Rect<D>) -> f64,
        mut leaf_bound: impl FnMut(&Rect<D>, u64) -> f64,
        mut refine: impl FnMut(&Rect<D>, u64) -> Option<f64>,
    ) -> Result<(Vec<Neighbor<D>>, SearchStats), PageError> {
        let mut stats = SearchStats::default();
        let mut heap: BinaryHeap<Reverse<RefineItem<D>>> = BinaryHeap::new();
        let mut out = Vec::new();
        if k == 0 {
            return Ok((out, stats));
        }
        heap.push(Reverse(RefineItem {
            key: 0.0,
            kind: RefineKind::Node(self.root, self.root_level),
        }));
        while let Some(Reverse(item)) = heap.pop() {
            // The heap is min-ordered: once the head's lower bound exceeds
            // the external bound, nothing better can ever surface.
            if item.key > bound {
                break;
            }
            match item.kind {
                RefineKind::Exact(rect, data) => {
                    out.push(Neighbor {
                        dist: item.key,
                        rect,
                        data,
                    });
                    if out.len() == k {
                        break;
                    }
                }
                RefineKind::Candidate(rect, data) => {
                    stats.candidates += 1;
                    if let Some(exact) = refine(&rect, data) {
                        heap.push(Reverse(RefineItem {
                            key: exact,
                            kind: RefineKind::Exact(rect, data),
                        }));
                    }
                }
                RefineKind::Node(id, level) => {
                    stats.nodes_accessed += 1;
                    self.view_at(id, level, |node| {
                        if level == 0 {
                            stats.leaf_nodes_accessed += 1;
                            for e in node.entries() {
                                stats.entries_tested += 1;
                                heap.push(Reverse(RefineItem {
                                    key: leaf_bound(&e.rect, e.payload),
                                    kind: RefineKind::Candidate(e.rect, e.payload),
                                }));
                            }
                        } else {
                            for e in node.entries() {
                                stats.entries_tested += 1;
                                heap.push(Reverse(RefineItem {
                                    key: node_bound(&e.rect),
                                    kind: RefineKind::Node(e.child(), level - 1),
                                }));
                            }
                        }
                    })?;
                }
            }
        }
        Ok((out, stats))
    }

    /// Duplicate-free self join: every unordered pair of distinct entries
    /// satisfying `pair_pred` is reported exactly once.
    pub fn self_join(
        &self,
        mut pair_pred: impl FnMut(&Rect<D>, &Rect<D>) -> bool,
        mut on_pair: impl FnMut(&Rect<D>, u64, &Rect<D>, u64),
    ) -> Result<SearchStats, PageError> {
        let mut stats = SearchStats::default();
        self.self_join_rec(
            self.root,
            self.root,
            &mut pair_pred,
            &mut on_pair,
            &mut stats,
        )?;
        Ok(stats)
    }

    fn self_join_rec(
        &self,
        id1: NodeId,
        id2: NodeId,
        pred: &mut impl FnMut(&Rect<D>, &Rect<D>) -> bool,
        on_pair: &mut impl FnMut(&Rect<D>, u64, &Rect<D>, u64),
        stats: &mut SearchStats,
    ) -> Result<(), PageError> {
        if id1 == id2 {
            let n = self.store.get(id1)?;
            stats.nodes_accessed += 1;
            if n.is_leaf() {
                stats.leaf_nodes_accessed += 1;
                for i in 0..n.entries.len() {
                    for j in (i + 1)..n.entries.len() {
                        stats.entries_tested += 1;
                        let (a, b) = (&n.entries[i], &n.entries[j]);
                        if pred(&a.rect, &b.rect) {
                            on_pair(&a.rect, a.payload, &b.rect, b.payload);
                        }
                    }
                }
            } else {
                for i in 0..n.entries.len() {
                    for j in i..n.entries.len() {
                        stats.entries_tested += 1;
                        let (a, b) = (&n.entries[i], &n.entries[j]);
                        if pred(&a.rect, &b.rect) {
                            self.self_join_rec(a.child(), b.child(), pred, on_pair, stats)?;
                        }
                    }
                }
            }
        } else {
            let n1 = self.store.get(id1)?;
            let n2 = self.store.get(id2)?;
            stats.nodes_accessed += 2;
            debug_assert_eq!(n1.level, n2.level, "self-join descends level-synchronously");
            if n1.is_leaf() {
                stats.leaf_nodes_accessed += 2;
                for a in &n1.entries {
                    for b in &n2.entries {
                        stats.entries_tested += 1;
                        if pred(&a.rect, &b.rect) {
                            on_pair(&a.rect, a.payload, &b.rect, b.payload);
                        }
                    }
                }
            } else {
                for a in &n1.entries {
                    for b in &n2.entries {
                        stats.entries_tested += 1;
                        if pred(&a.rect, &b.rect) {
                            self.self_join_rec(a.child(), b.child(), pred, on_pair, stats)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Structural summaries (cost estimation support)
    // ------------------------------------------------------------------

    /// Per-level structure summary: node counts and mean node-MBR extents,
    /// the inputs of analytical R-tree cost models (Theodoridis & Sellis,
    /// PODS '96 — the estimation techniques §4.3 of the ICDE '99 paper
    /// discusses). One full tree walk.
    pub fn level_summaries(&self) -> Result<Vec<LevelSummary<D>>, PageError> {
        let mut acc: Vec<(u64, [f64; D])> = vec![(0, [0.0; D]); self.height() as usize];
        self.summarize_rec(self.root, self.root_level, &mut acc)?;
        Ok(acc
            .into_iter()
            .enumerate()
            .map(|(level, (nodes, extent_sum))| {
                let mut avg_extent = [0.0; D];
                if nodes > 0 {
                    for (slot, total) in avg_extent.iter_mut().zip(&extent_sum) {
                        *slot = total / nodes as f64;
                    }
                }
                LevelSummary {
                    level: level as u32,
                    nodes,
                    avg_extent,
                }
            })
            .collect())
    }

    fn summarize_rec(
        &self,
        node_id: NodeId,
        level: u32,
        acc: &mut Vec<(u64, [f64; D])>,
    ) -> Result<(), PageError> {
        let children: Vec<NodeId> = self.view_at(node_id, level, |node| {
            let mbr = node.mbr();
            let slot = &mut acc[level as usize];
            slot.0 += 1;
            if !mbr.is_empty() {
                for (d, total) in slot.1.iter_mut().enumerate() {
                    *total += mbr.hi[d] - mbr.lo[d];
                }
            }
            if level == 0 {
                Vec::new()
            } else {
                node.entries().map(|e| e.child()).collect()
            }
        })?;
        for child in children {
            self.summarize_rec(child, level - 1, acc)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Structural validation (used heavily by tests)
    // ------------------------------------------------------------------

    /// Checks every structural invariant; panics with a description on the
    /// first violation, returns `Err` when a node cannot be read at all
    /// (possible only over a faulty device). Returns the number of nodes.
    pub fn validate(&self) -> Result<usize, PageError> {
        let mut node_count = 0;
        let mut entry_count = 0;
        self.validate_rec(
            self.root,
            self.root_level,
            true,
            &mut node_count,
            &mut entry_count,
        )?;
        assert_eq!(
            entry_count, self.len,
            "len {} != counted entries {entry_count}",
            self.len
        );
        Ok(node_count)
    }

    fn validate_rec(
        &self,
        node_id: NodeId,
        expected_level: u32,
        is_root: bool,
        node_count: &mut usize,
        entry_count: &mut usize,
    ) -> Result<Rect<D>, PageError> {
        *node_count += 1;
        // The node's own invariants are checked in place; a branch hands
        // out its entries and the children are checked after the release.
        let (mbr, branch_entries) = self.store.view(node_id, |node| {
            assert_eq!(
                node.level(),
                expected_level,
                "level mismatch at {node_id:?}"
            );
            assert!(
                node.len() <= self.params.max_entries,
                "node {node_id:?} overflows: {}",
                node.len()
            );
            if !is_root && self.len > 0 {
                assert!(
                    node.len() >= self.params.min_entries,
                    "node {node_id:?} underflows: {} < {}",
                    node.len(),
                    self.params.min_entries
                );
            }
            let branch_entries: Vec<Entry<D>> = if node.is_leaf() {
                *entry_count += node.len();
                Vec::new()
            } else {
                assert!(!node.is_empty() || is_root, "empty branch node {node_id:?}");
                node.entries().collect()
            };
            (node.mbr(), branch_entries)
        })?;
        for e in &branch_entries {
            let child_mbr = self.validate_rec(
                e.child(),
                expected_level - 1,
                false,
                node_count,
                entry_count,
            )?;
            assert_eq!(
                e.rect,
                child_mbr,
                "stale parent rect at {node_id:?} for child {:?}",
                e.child()
            );
        }
        Ok(mbr)
    }
}

struct RefineItem<const D: usize> {
    key: f64,
    kind: RefineKind<D>,
}

enum RefineKind<const D: usize> {
    /// A node and the level its parent implies.
    Node(NodeId, u32),
    Candidate(Rect<D>, u64),
    Exact(Rect<D>, u64),
}

impl<const D: usize> PartialEq for RefineItem<D> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<const D: usize> Eq for RefineItem<D> {}
impl<const D: usize> PartialOrd for RefineItem<D> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize> Ord for RefineItem<D> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Ties: candidates, then nodes, then exact results, those by
        // payload — so an exact result surfaces only once everything that
        // could tie with it has been refined, and equal distances come out
        // in payload order, whatever order the tree holds them in.
        self.key.total_cmp(&other.key).then_with(|| {
            let rank = |k: &RefineKind<D>| match k {
                RefineKind::Candidate(..) => (0u8, 0),
                RefineKind::Node(..) => (1, 0),
                RefineKind::Exact(_, data) => (2, *data),
            };
            rank(&self.kind).cmp(&rank(&other.kind))
        })
    }
}

struct HeapItem<const D: usize> {
    key: f64,
    kind: ItemKind<D>,
}

enum ItemKind<const D: usize> {
    /// A node and the level its parent implies.
    Node(NodeId, u32),
    Data(Rect<D>, u64),
}

impl<const D: usize> PartialEq for HeapItem<D> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<const D: usize> Eq for HeapItem<D> {}
impl<const D: usize> PartialOrd for HeapItem<D> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize> Ord for HeapItem<D> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Ties between data and node items: pop Data first so equal-distance
        // results surface before equal-bound subtrees are expanded.
        self.key.total_cmp(&other.key).then_with(|| {
            let rank = |k: &ItemKind<D>| match k {
                ItemKind::Data(..) => 0u8,
                ItemKind::Node(..) => 1,
            };
            rank(&self.kind).cmp(&rank(&other.kind))
        })
    }
}
