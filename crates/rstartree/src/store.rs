//! The node store: tree nodes are pages, and node accesses are counted.
//!
//! A [`PagedStore`] keeps every node serialised on one page of a
//! [`PageDevice`], so a node read is literally a page read on that device
//! and the device's counters are the paper's "number of disk accesses". A
//! tree that is never persisted sits on a fresh in-memory
//! [`pagestore::Disk`] ([`PagedStore::in_memory`]); the device is also the
//! seam a test substitutes a fake through ([`pagestore::FaultyDisk`]).
//!
//! A node is read in one of two ways, and either is **one** counted
//! access. [`PagedStore::view`] lends the node where it lies — its page's
//! bytes under the device's shared lock — to a closure; read-only
//! traversals (search, nearest-neighbour, summaries, validation) use it
//! and never build a [`Node`]. [`PagedStore::get`] hands out an owned copy;
//! insertion, deletion and the self join use it because they mutate the
//! node or hold two nodes across a recursion.
//!
//! **Never nest views.** A view holds the device's shared lock for as long
//! as its closure runs, and a second shared read taken inside the first can
//! deadlock behind a writer queued in between. Take what you need out of
//! the node, return from the closure, *then* visit the next node.

use crate::node::{Node, NodeId, NodeView};
use pagestore::{Disk, Page, PageDevice, PageError, PageId};
use std::sync::Arc;

/// Node-access counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Node reads.
    pub reads: u64,
    /// Node writes.
    pub writes: u64,
}

/// The node store: every node is one serialised page of a [`PageDevice`],
/// and every node read is a device read — the "cold" configuration the
/// paper's per-query access counts correspond to.
///
/// Accessors return [`PageError`] when the device fails or a page does not
/// hold a node (a faulty device, or an image from a file whose stored entry
/// count exceeds the page capacity — reported as [`PageError::corrupt`],
/// never clamped). A read of an id that names no page — a child id or a
/// root id from a damaged file — is [`PageError::corrupt`] too; writing
/// or freeing one is a caller bug and panics.
pub struct PagedStore<const D: usize> {
    device: Arc<dyn PageDevice>,
}

impl<const D: usize> PagedStore<D> {
    /// A store over `device`.
    pub fn new(device: Arc<dyn PageDevice>) -> Self {
        Self { device }
    }

    /// A store over a fresh in-memory [`Disk`], for a tree that is never
    /// persisted.
    pub fn in_memory() -> Self {
        Self::new(Arc::new(Disk::new()))
    }

    /// Allocates a page for a node and stores it.
    pub fn alloc(&self, node: &Node<D>) -> Result<NodeId, PageError> {
        let id = NodeId(self.device.alloc().0);
        self.write(id, node)?;
        Ok(id)
    }

    /// Lends the stored node to `f` where it lies, counting one read. `f`
    /// runs under the device's lock: it must not touch the store again
    /// (the module docs' never-nest rule).
    pub fn view<R>(
        &self,
        id: NodeId,
        f: impl FnOnce(NodeView<'_, D>) -> R,
    ) -> Result<R, PageError> {
        let pid = PageId(id.0);
        // The device lends its page to a `dyn FnMut`; `f` runs at most once.
        let mut f = Some(f);
        let mut out = None;
        self.device.with_page(pid, &mut |page: &Page| {
            let f = f.take().expect("a page is lent once per access");
            out = NodeView::of_page(page).map(f);
        })?;
        out.ok_or(PageError::corrupt(pid))
    }

    /// An owned copy of the stored node, counting one read.
    pub fn get(&self, id: NodeId) -> Result<Node<D>, PageError> {
        self.view(id, |n| n.to_node())
    }

    /// Replaces a stored node, counting one write.
    pub fn write(&self, id: NodeId, node: &Node<D>) -> Result<(), PageError> {
        let mut page = Page::zeroed();
        node.write_page(&mut page);
        self.device.write(PageId(id.0), &page)
    }

    /// Frees a node's page.
    pub fn free(&self, id: NodeId) {
        self.device.free(PageId(id.0));
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        let s = self.device.stats();
        StoreStats {
            reads: s.reads,
            writes: s.writes,
        }
    }

    /// Zeroes the counters.
    pub fn reset_stats(&self) {
        self.device.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Entry;
    use crate::rect::Rect;

    fn sample_node(level: u32, n: u64) -> Node<2> {
        let mut node = Node::new(level);
        for i in 0..n {
            node.entries
                .push(Entry::leaf(Rect::point([i as f64, -(i as f64)]), i));
        }
        node
    }

    #[test]
    fn paged_store_basics() {
        let store = PagedStore::<2>::in_memory();
        let a = store.alloc(&sample_node(0, 5)).unwrap();
        let b = store.alloc(&sample_node(1, 3)).unwrap();
        assert_ne!(a, b);
        assert_eq!(store.get(a).unwrap().entries.len(), 5);
        assert_eq!(store.get(b).unwrap().level, 1);

        store.write(a, &sample_node(0, 7)).unwrap();
        assert_eq!(store.get(a).unwrap().entries.len(), 7);

        store.free(b);
        let c = store.alloc(&sample_node(2, 1)).unwrap();
        assert_eq!(store.get(c).unwrap().level, 2);

        let s = store.stats();
        assert!(s.reads >= 3 && s.writes >= 4, "{s:?}");
        store.reset_stats();
        assert_eq!(store.stats(), StoreStats::default());
    }

    #[test]
    fn mem_store_double_free_panics() {
        let store = PagedStore::<2>::in_memory();
        let a = store.alloc(&sample_node(0, 1)).unwrap();
        store.free(a);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.free(a)));
        assert!(r.is_err());
    }
}
