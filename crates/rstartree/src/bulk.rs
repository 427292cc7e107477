//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! Experiments rebuild indexes over corpora of up to 12 000 sequences many
//! times; STR packs leaves to ~100 % utilisation in O(n log n), which both
//! speeds the builds and gives every algorithm the same well-packed index
//! (insertion-built trees are also supported — see the equivalence tests).
//!
//! Each level is tiled on whole nodes: the node sizes come first
//! (`⌊n/k⌋` or `⌈n/k⌉` entries, so none is underfull), and every slab of
//! the recursion is a run of those nodes, so no node straddles two
//! independently sorted slabs. The axes tiled, in order, are
//! [`Params::axes`].

use crate::node::{Entry, Node};
use crate::params::Params;
use crate::rect::Rect;
use crate::store::PagedStore;
use crate::tree::RStarTree;

/// Builds a tree over `items` with STR packing.
pub fn bulk_load_str<const D: usize>(
    store: PagedStore<D>,
    params: Params<D>,
    items: Vec<(Rect<D>, u64)>,
) -> RStarTree<D> {
    params.validate();
    let len = items.len();
    if len == 0 {
        return RStarTree::with_params(store, params);
    }

    // Pack the leaf level.
    let mut entries: Vec<Entry<D>> = items
        .into_iter()
        .map(|(rect, data)| Entry::leaf(rect, data))
        .collect();
    let mut level = 0u32;
    loop {
        let nodes = tile_level(&mut entries, &params, level);
        if nodes.len() == 1 {
            let root = store
                .alloc(&nodes.into_iter().next().expect("one node"))
                .expect("bulk-load allocation must succeed on a healthy device");
            // The single node keeps its level so the tree height is right.
            let root_level = level;
            return RStarTree::from_parts(store, root, root_level, len, params);
        }
        // Store this level's nodes and build the parent entries.
        entries = nodes
            .into_iter()
            .map(|node| {
                let mbr = node.mbr();
                let id = store
                    .alloc(&node)
                    .expect("bulk-load allocation must succeed on a healthy device");
                Entry::branch(mbr, id)
            })
            .collect();
        level += 1;
    }
}

/// Tiles one level: sorts by the first axis, cuts it into slabs of whole
/// nodes, sorts each slab by the next axis, and so on recursively; then
/// packs each node's run of entries.
fn tile_level<const D: usize>(
    entries: &mut [Entry<D>],
    params: &Params<D>,
    level: u32,
) -> Vec<Node<D>> {
    let (n, k) = (entries.len(), entries.len().div_ceil(params.max_entries));
    // Node `j` holds entries `offset(j)..offset(j + 1)`: ⌊n/k⌋ or ⌈n/k⌉ of
    // them, the larger first, so none is underfull (⌊n/⌈n/M⌉⌋ ≥ ⌊M/2⌋ ≥ m).
    let offset = |j: usize| j * (n / k) + j.min(n % k);
    str_sort(entries, &offset, 0..k, &params.axes);
    (0..k)
        .map(|j| Node {
            level,
            entries: entries[offset(j)..offset(j + 1)].to_vec(),
        })
        .collect()
}

/// Sorts the entries of `nodes` by the centre on `axes[0]` and recurses
/// into `S` slabs of whole nodes on the remaining axes, where `S` is the
/// least integer with `S^r ≥` the node count for `r` axes left
/// (`⌈count^(1/r)⌉`), so the last axis cuts one node per slab.
fn str_sort<const D: usize>(
    entries: &mut [Entry<D>],
    offset: &dyn Fn(usize) -> usize,
    nodes: std::ops::Range<usize>,
    axes: &[usize],
) {
    let count = nodes.len();
    let Some((&axis, rest)) = axes.split_first() else {
        return;
    };
    if count <= 1 {
        return;
    }
    entries[offset(nodes.start)..offset(nodes.end)].sort_by(|a, b| {
        let ca = 0.5 * (a.rect.lo[axis] + a.rect.hi[axis]);
        let cb = 0.5 * (b.rect.lo[axis] + b.rect.hi[axis]);
        ca.total_cmp(&cb)
    });
    let remaining = axes.len() as u32;
    let slabs = (1..=count)
        .find(|s: &usize| s.checked_pow(remaining).is_none_or(|p| p >= count))
        .expect("count itself is enough slabs");
    let per_slab = count.div_ceil(slabs);
    for start in nodes.clone().step_by(per_slab) {
        let slab = start..(start + per_slab).min(nodes.end);
        str_sort(entries, offset, slab, rest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(n: usize) -> Vec<(Rect<2>, u64)> {
        (0..n)
            .map(|i| {
                let x = (i * 37 % 1000) as f64;
                let y = (i * 91 % 1000) as f64;
                (Rect::point([x, y]), i as u64)
            })
            .collect()
    }

    #[test]
    fn bulk_load_valid_and_complete() {
        for n in [0usize, 1, 5, 16, 100, 1234] {
            let tree = bulk_load_str(
                PagedStore::<2>::in_memory(),
                Params::with_max(16),
                points(n),
            );
            assert_eq!(tree.len(), n);
            tree.validate().unwrap();
            let mut seen = Vec::new();
            tree.search(|_| true, |_, d| seen.push(d)).unwrap();
            seen.sort_unstable();
            assert_eq!(seen, (0..n as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn bulk_load_matches_linear_scan_on_range_queries() {
        let items = points(500);
        let tree = bulk_load_str(
            PagedStore::<2>::in_memory(),
            Params::with_max(16),
            items.clone(),
        );
        let query = Rect::new([100.0, 200.0], [600.0, 800.0]);
        let (mut got, _) = tree.range(&query).unwrap();
        got.sort_by_key(|(_, d)| *d);
        let mut expect: Vec<u64> = items
            .iter()
            .filter(|(r, _)| r.intersects(&query))
            .map(|(_, d)| *d)
            .collect();
        expect.sort_unstable();
        assert_eq!(got.iter().map(|(_, d)| *d).collect::<Vec<_>>(), expect);
    }

    #[test]
    fn bulk_load_packs_tightly() {
        let tree = bulk_load_str(
            PagedStore::<2>::in_memory(),
            Params::with_max(10),
            points(1000),
        );
        // 1000 points at fanout 10 → exactly 100 leaves + 10 branches + root.
        let nodes = tree.validate().unwrap();
        assert_eq!(nodes, 111);
        assert_eq!(tree.height(), 3);
    }

    /// `n` points whose coordinate on axis `a` is `PRIMES[a]·i mod n`: a
    /// permutation of `0..n` per axis, so no two points share a coordinate.
    fn distinct_points<const D: usize>(n: u64) -> Vec<(Rect<D>, u64)> {
        const PRIMES: [u64; 6] = [1, 7919, 7927, 7933, 7937, 7949];
        let point = |i: u64| std::array::from_fn(|a| (PRIMES[a] * i % n) as f64);
        (0..n).map(|i| (Rect::point(point(i)), i)).collect()
    }

    /// Bulk-loads `items` and checks that every pair of leaves is apart on
    /// one of the tiled axes and that each level has `⌈entries / M⌉` nodes.
    fn assert_leaves_apart<const D: usize>(items: Vec<(Rect<D>, u64)>, params: Params<D>) {
        let (axes, cap) = (params.axes.clone(), params.max_entries);
        let mut per_level = vec![items.len().div_ceil(cap) as u64];
        while per_level[per_level.len() - 1] > 1 {
            per_level.push(per_level[per_level.len() - 1].div_ceil(cap as u64));
        }
        let tree = bulk_load_str(PagedStore::in_memory(), params, items);
        tree.validate().unwrap();
        let nodes: Vec<u64> = (tree.level_summaries().unwrap().iter())
            .map(|s| s.nodes)
            .collect();
        assert_eq!(nodes, per_level, "nodes per level, leaves first");

        let (mut leaves, mut stack) = (Vec::new(), vec![tree.root_id()]);
        while let Some(id) = stack.pop() {
            let node = tree.store().get(id).unwrap();
            match node.is_leaf() {
                true => leaves.push(node.mbr()),
                false => stack.extend(node.entries.iter().map(|e| e.child())),
            }
        }
        let apart = |a: &Rect<D>, b: &Rect<D>| {
            (axes.iter()).any(|&x| a.hi[x] < b.lo[x] || b.hi[x] < a.lo[x])
        };
        let overlapping = (0..leaves.len())
            .flat_map(|i| (i + 1..leaves.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| !apart(&leaves[i], &leaves[j]))
            .count();
        assert_eq!(overlapping, 0, "leaf pairs not apart on {axes:?}");
    }

    #[test]
    fn slabs_end_on_node_boundaries() {
        // 10 000 points at fanout 78: 129 leaves, 2 branches, a root. A
        // slab cut every ⌈n/S⌉ entries would leave leaves straddling two
        // independently sorted slabs; 226 pairs of them overlapped so.
        assert_leaves_apart(distinct_points::<2>(10_000), Params::with_max(78));
        // The paper's 6-D point on the axes the sequence index tiles.
        let index_axes = Params::with_max(78).with_axes(&[2, 4, 3, 5]);
        assert_leaves_apart(distinct_points::<6>(10_000), index_axes);
    }

    #[test]
    fn bulk_loaded_tree_accepts_inserts_and_deletes() {
        let mut tree = bulk_load_str(
            PagedStore::<2>::in_memory(),
            Params::with_max(8),
            points(200),
        );
        tree.insert(Rect::point([5000.0, 5000.0]), 9999).unwrap();
        assert_eq!(tree.len(), 201);
        tree.validate().unwrap();
        let victim = points(200)[17];
        assert!(tree.delete(&victim.0, victim.1).unwrap());
        assert_eq!(tree.len(), 200);
        tree.validate().unwrap();
    }
}
