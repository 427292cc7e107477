//! Node stores: where tree nodes live and where accesses are counted.
//!
//! Both stores count every node read/write. For [`PagedStore`] a node read
//! is literally a page read on the underlying [`pagestore::Disk`] (or a
//! buffer-pool lookup when a pool is attached); for [`MemStore`] the
//! counters model the same traffic without serialisation cost. Experiments
//! use the counters as the paper's "number of disk accesses".
//!
//! A node is read in one of two ways, and either is **one** counted
//! access. [`NodeStore::view`] lends the node where it lies — page bytes
//! under the device's shared lock (or a pinned pool frame), a slot under
//! the [`MemStore`] mutex — to a closure; read-only traversals (search,
//! nearest-neighbour, summaries, validation) use it and never build a
//! [`Node`]. [`NodeStore::get`] hands out an owned copy; insertion,
//! deletion and the joins use it because they mutate the node or hold two
//! nodes across a recursion.
//!
//! **Never nest views.** A view holds a lock for as long as its closure
//! runs: the `MemStore` mutex is not re-entrant, and a second shared read
//! of the device taken inside the first can deadlock behind a writer
//! queued in between. Take what you need out of the node, return from the
//! closure, *then* visit the next node.

use crate::node::{Node, NodeId, NodeView};
use pagestore::sync::Mutex;
use pagestore::{BufferPool, Page, PageDevice, PageError, PageId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Node-access counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Node reads.
    pub reads: u64,
    /// Node writes.
    pub writes: u64,
}

/// Storage abstraction for tree nodes.
///
/// Accessors return [`PageError`] when the backing device fails or a page
/// does not hold a node (only possible for paged stores: a faulty device,
/// or an image from a file whose stored entry count exceeds the page
/// capacity — reported as [`PageError::corrupt`], never clamped); passing
/// an id that was never allocated or already freed is a caller bug and
/// still panics.
pub trait NodeStore<const D: usize> {
    /// Allocates a slot for a node and stores it.
    fn alloc(&self, node: &Node<D>) -> Result<NodeId, PageError>;

    /// Lends the stored node to `f` where it lies, counting one read. `f`
    /// runs under the store's lock: it must not touch the store again
    /// (the module docs' never-nest rule).
    fn view<R>(&self, id: NodeId, f: impl FnOnce(NodeView<'_, D>) -> R) -> Result<R, PageError>;

    /// Replaces a stored node, counting one write.
    fn write(&self, id: NodeId, node: &Node<D>) -> Result<(), PageError>;

    /// Frees a node's slot.
    fn free(&self, id: NodeId);

    /// Counter snapshot.
    fn stats(&self) -> StoreStats;

    /// Zeroes the counters.
    fn reset_stats(&self);

    /// An owned copy of the stored node, counting one read.
    fn get(&self, id: NodeId) -> Result<Node<D>, PageError> {
        self.view(id, |n| n.to_node())
    }
}

/// In-memory node store. Fast, still counts accesses.
#[derive(Default)]
pub struct MemStore<const D: usize> {
    slots: Mutex<MemSlots<D>>,
    reads: AtomicU64,
    writes: AtomicU64,
}

#[derive(Default)]
struct MemSlots<const D: usize> {
    nodes: Vec<Option<Node<D>>>,
    free: Vec<NodeId>,
}

impl<const D: usize> MemStore<D> {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self {
            slots: Mutex::new(MemSlots {
                nodes: Vec::new(),
                free: Vec::new(),
            }),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        let slots = self.slots.lock();
        slots.nodes.iter().filter(|s| s.is_some()).count()
    }

    /// True when no nodes are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<const D: usize> NodeStore<D> for MemStore<D> {
    fn alloc(&self, node: &Node<D>) -> Result<NodeId, PageError> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        let mut slots = self.slots.lock();
        Ok(if let Some(id) = slots.free.pop() {
            slots.nodes[id.0 as usize] = Some(node.clone());
            id
        } else {
            let id = NodeId(u32::try_from(slots.nodes.len()).expect("store full"));
            slots.nodes.push(Some(node.clone()));
            id
        })
    }

    fn view<R>(&self, id: NodeId, f: impl FnOnce(NodeView<'_, D>) -> R) -> Result<R, PageError> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let slots = self.slots.lock();
        let node = slots
            .nodes
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("read of unallocated node {id:?}"));
        Ok(f(NodeView::of_node(node)))
    }

    fn write(&self, id: NodeId, node: &Node<D>) -> Result<(), PageError> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        let mut slots = self.slots.lock();
        let slot = slots
            .nodes
            .get_mut(id.0 as usize)
            .expect("write to unallocated node");
        assert!(slot.is_some(), "write to freed node {id:?}");
        *slot = Some(node.clone());
        Ok(())
    }

    fn free(&self, id: NodeId) {
        let mut slots = self.slots.lock();
        let slot = slots
            .nodes
            .get_mut(id.0 as usize)
            .expect("free of unallocated node");
        assert!(slot.take().is_some(), "double free of node {id:?}");
        slots.free.push(id);
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    fn reset_stats(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }
}

/// Paged node store: every node is one serialised page.
///
/// With a [`BufferPool`] attached, node reads go through the pool (hits are
/// free, misses hit the disk); without one, every read is a disk access —
/// the "cold" configuration the paper's per-query access counts correspond
/// to.
pub struct PagedStore<const D: usize> {
    device: Arc<dyn PageDevice>,
    pool: Option<Arc<BufferPool>>,
}

impl<const D: usize> PagedStore<D> {
    /// Unbuffered store: every node read is a device read.
    pub fn new<Dev: PageDevice + 'static>(device: Arc<Dev>) -> Self {
        Self::new_dyn(device)
    }

    /// Unbuffered store over an already-erased device handle.
    pub fn new_dyn(device: Arc<dyn PageDevice>) -> Self {
        Self { device, pool: None }
    }

    /// Buffered store: node reads go through `pool`.
    pub fn with_pool(pool: Arc<BufferPool>) -> Self {
        Self {
            device: Arc::clone(pool.device()),
            pool: Some(pool),
        }
    }

    /// The device underneath.
    pub fn device(&self) -> &Arc<dyn PageDevice> {
        &self.device
    }

    /// The attached buffer pool, when any.
    pub fn pool(&self) -> Option<&Arc<BufferPool>> {
        self.pool.as_ref()
    }
}

impl<const D: usize> NodeStore<D> for PagedStore<D> {
    fn alloc(&self, node: &Node<D>) -> Result<NodeId, PageError> {
        let pid = self.device.alloc();
        let id = NodeId(pid.0);
        self.write(id, node)?;
        Ok(id)
    }

    fn view<R>(&self, id: NodeId, f: impl FnOnce(NodeView<'_, D>) -> R) -> Result<R, PageError> {
        let pid = PageId(id.0);
        // The device lends its page to a `dyn FnMut`; `f` runs at most once.
        let mut f = Some(f);
        let mut out = None;
        let mut on_page = |page: &Page| {
            let f = f.take().expect("a page is lent once per access");
            out = NodeView::of_page(page).map(f);
        };
        match &self.pool {
            Some(pool) => pool.with_page(pid, on_page)?,
            None => self.device.with_page(pid, &mut on_page)?,
        }
        out.ok_or(PageError::corrupt(pid))
    }

    fn write(&self, id: NodeId, node: &Node<D>) -> Result<(), PageError> {
        let pid = PageId(id.0);
        match &self.pool {
            Some(pool) => pool.with_page_mut(pid, |p| node.write_page(p)),
            None => {
                let mut page = pagestore::Page::zeroed();
                node.write_page(&mut page);
                self.device.write(pid, &page)
            }
        }
    }

    fn free(&self, id: NodeId) {
        let pid = PageId(id.0);
        match &self.pool {
            Some(pool) => pool.free(pid),
            None => self.device.free(pid),
        }
    }

    fn stats(&self) -> StoreStats {
        match &self.pool {
            // With a pool, physical accesses are the pool misses.
            Some(pool) => {
                let s = pool.stats();
                StoreStats {
                    reads: s.misses,
                    writes: s.writebacks,
                }
            }
            None => {
                let s = self.device.stats();
                StoreStats {
                    reads: s.reads,
                    writes: s.writes,
                }
            }
        }
    }

    fn reset_stats(&self) {
        match &self.pool {
            Some(pool) => pool.reset_stats(),
            None => self.device.reset_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Entry;
    use crate::rect::Rect;
    use pagestore::Disk;

    fn sample_node(level: u32, n: u64) -> Node<2> {
        let mut node = Node::new(level);
        for i in 0..n {
            node.entries
                .push(Entry::leaf(Rect::point([i as f64, -(i as f64)]), i));
        }
        node
    }

    fn exercise<S: NodeStore<2>>(store: &S) {
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
    }

    #[test]
    fn mem_store_basics() {
        let store = MemStore::<2>::new();
        exercise(&store);
        let s = store.stats();
        assert!(s.reads >= 3 && s.writes >= 4, "{s:?}");
        store.reset_stats();
        assert_eq!(store.stats(), StoreStats::default());
    }

    #[test]
    fn paged_store_basics() {
        let store = PagedStore::<2>::new(Arc::new(Disk::new()));
        exercise(&store);
        assert!(store.stats().reads >= 3);
    }

    #[test]
    fn paged_store_with_pool_counts_misses_not_hits() {
        let disk = Arc::new(Disk::new());
        let pool = Arc::new(BufferPool::new(disk, 8));
        let store = PagedStore::<2>::with_pool(pool);
        let a = store.alloc(&sample_node(0, 4)).unwrap();
        store.reset_stats();
        // The alloc left the page cached; repeated reads are hits.
        for _ in 0..5 {
            let _ = store.get(a);
        }
        assert_eq!(
            store.stats().reads,
            0,
            "cached reads must not count as disk accesses"
        );
    }

    #[test]
    fn mem_store_double_free_panics() {
        let store = MemStore::<2>::new();
        let a = store.alloc(&sample_node(0, 1)).unwrap();
        store.free(a);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.free(a)));
        assert!(r.is_err());
    }
}
