//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! Experiments rebuild indexes over corpora of up to 12 000 sequences many
//! times; STR packs leaves to ~100 % utilisation in O(n log n), which both
//! speeds the builds and gives every algorithm the same well-packed index
//! (insertion-built trees are also supported — see the equivalence tests).

use crate::node::{Entry, Node};
use crate::params::Params;
use crate::rect::Rect;
use crate::store::PagedStore;
use crate::tree::RStarTree;

/// Builds a tree over `items` with STR packing.
pub fn bulk_load_str<const D: usize>(
    store: PagedStore<D>,
    params: Params,
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
        let nodes = tile_level(&mut entries, params.max_entries, level);
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

/// Tiles one level: sorts by the first axis, slices into vertical runs,
/// sorts each run by the next axis, and so on recursively; finally packs
/// consecutive entries into nodes of up to `cap` entries.
fn tile_level<const D: usize>(entries: &mut [Entry<D>], cap: usize, level: u32) -> Vec<Node<D>> {
    let node_count = entries.len().div_ceil(cap);
    str_sort(entries, cap, node_count, 0);
    // Distribute entries evenly across the nodes so no node is underfull:
    // sizes are ⌊n/k⌋ or ⌈n/k⌉, and ⌊n/⌈n/cap⌉⌋ ≥ ⌊cap/2⌋ ≥ min_entries.
    let base = entries.len() / node_count;
    let extra = entries.len() % node_count;
    let mut nodes = Vec::with_capacity(node_count);
    let mut off = 0;
    for i in 0..node_count {
        let size = base + usize::from(i < extra);
        nodes.push(Node {
            level,
            entries: entries[off..off + size].to_vec(),
        });
        off += size;
    }
    debug_assert_eq!(off, entries.len());
    nodes
}

fn str_sort<const D: usize>(entries: &mut [Entry<D>], cap: usize, node_count: usize, axis: usize) {
    if axis >= D || node_count <= 1 || entries.len() <= cap {
        return;
    }
    entries.sort_by(|a, b| {
        let ca = 0.5 * (a.rect.lo[axis] + a.rect.hi[axis]);
        let cb = 0.5 * (b.rect.lo[axis] + b.rect.hi[axis]);
        ca.total_cmp(&cb)
    });
    // Number of slabs along this axis: S = ceil(count^(1/(D−axis))).
    let remaining_axes = (D - axis) as f64;
    let slabs = (node_count as f64).powf(1.0 / remaining_axes).ceil() as usize;
    let slab_len = entries.len().div_ceil(slabs);
    if slab_len == 0 {
        return;
    }
    let per_slab_nodes = node_count.div_ceil(slabs);
    for slab in entries.chunks_mut(slab_len) {
        str_sort(slab, cap, per_slab_nodes, axis + 1);
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
