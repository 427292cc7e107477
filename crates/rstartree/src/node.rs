//! Tree nodes and their page serialisation.

use crate::rect::Rect;
use pagestore::{Page, PAGE_SIZE};

/// Identifier of a node in a [`crate::PagedStore`]: its page number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Sentinel meaning "no node".
    pub const INVALID: NodeId = NodeId(u32::MAX);
}

/// One slot of a node: a rectangle plus either a child node id (branch
/// levels) or an opaque data payload (leaf level).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Entry<const D: usize> {
    /// The entry's bounding rectangle (a point for leaf data in this
    /// library's typical use, but general rectangles are supported).
    pub rect: Rect<D>,
    /// Child [`NodeId`] (encoded as u64) on branch levels, data payload on
    /// the leaf level.
    pub payload: u64,
}

impl<const D: usize> Entry<D> {
    /// Branch entry pointing at `child`.
    pub fn branch(rect: Rect<D>, child: NodeId) -> Self {
        Self {
            rect,
            payload: u64::from(child.0),
        }
    }

    /// Leaf entry carrying `data`.
    pub fn leaf(rect: Rect<D>, data: u64) -> Self {
        Self {
            rect,
            payload: data,
        }
    }

    /// The child id of a branch entry. A payload past the id space — only
    /// a damaged page holds one — is [`NodeId::INVALID`], which no device
    /// allocates, so reading it is a corrupt-page error like any other
    /// child id that names no node.
    pub fn child(&self) -> NodeId {
        u32::try_from(self.payload).map_or(NodeId::INVALID, NodeId)
    }
}

/// A tree node: `level == 0` is a leaf.
#[derive(Clone, Debug, PartialEq)]
pub struct Node<const D: usize> {
    /// Distance from the leaf level (leaves are level 0).
    pub level: u32,
    /// The node's slots.
    pub entries: Vec<Entry<D>>,
}

impl<const D: usize> Node<D> {
    /// An empty node at `level`.
    pub fn new(level: u32) -> Self {
        Self {
            level,
            entries: Vec::new(),
        }
    }

    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// The MBR covering all entries.
    pub fn mbr(&self) -> Rect<D> {
        Rect::union_all(self.entries.iter().map(|e| &e.rect))
    }

    // --- page serialisation -------------------------------------------
    //
    // Layout: [level: u32][count: u32][entries...]
    // entry:  D lo f64s, D hi f64s, payload u64  → (2·D + 1) · 8 bytes

    /// Bytes one serialised entry occupies.
    pub const ENTRY_BYTES: usize = (2 * D + 1) * 8;
    const HEADER_BYTES: usize = 8;

    /// The maximum number of entries a node of dimension `D` can hold on
    /// one page — the tree's fanout `M`.
    pub const fn page_capacity() -> usize {
        (PAGE_SIZE - Self::HEADER_BYTES) / Self::ENTRY_BYTES
    }

    /// Serialises into a page.
    ///
    /// # Panics
    ///
    /// Panics when the node exceeds [`Self::page_capacity`].
    pub fn write_page(&self, page: &mut Page) {
        assert!(
            self.entries.len() <= Self::page_capacity(),
            "node with {} entries exceeds page capacity {}",
            self.entries.len(),
            Self::page_capacity()
        );
        page.put_u32(0, self.level);
        page.put_u32(4, u32::try_from(self.entries.len()).expect("count fits"));
        let mut off = Self::HEADER_BYTES;
        for e in &self.entries {
            for d in 0..D {
                page.put_f64(off, e.rect.lo[d]);
                off += 8;
            }
            for d in 0..D {
                page.put_f64(off, e.rect.hi[d]);
                off += 8;
            }
            page.put_u64(off, e.payload);
            off += 8;
        }
    }
}

/// A read-only view of a node where it lies — the bytes of its page —
/// lent by [`crate::PagedStore::view`] for the duration of one closure.
/// Nothing is decoded up front and no `Vec` is built: [`Self::entries`]
/// yields the slots by value, one at a time, in slot order, so a traversal
/// tests a node's rectangles in place and keeps only the few that pass.
#[derive(Clone, Copy, Debug)]
pub struct NodeView<'a, const D: usize> {
    level: u32,
    // The page's entry region: `count · ENTRY_BYTES` bytes.
    page: &'a [u8],
}

impl<'a, const D: usize> NodeView<'a, D> {
    /// The view of a serialised node; `None` when the stored count exceeds
    /// [`Node::page_capacity`] — no node this crate wrote, so the page is
    /// corrupt and must surface as a typed error, not as a clamped count
    /// or an out-of-bounds slice.
    pub fn of_page(page: &'a Page) -> Option<Self> {
        let count = page.get_u32(4) as usize;
        (count <= Node::<D>::page_capacity()).then(|| Self {
            level: page.get_u32(0),
            page: page.get_bytes(Node::<D>::HEADER_BYTES, count * Node::<D>::ENTRY_BYTES),
        })
    }

    /// Distance from the leaf level (leaves are level 0).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.page.len() / Node::<D>::ENTRY_BYTES
    }

    /// True when the node has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slots in order, each decoded as it is reached.
    pub fn entries(&self) -> impl Iterator<Item = Entry<D>> + 'a {
        self.page
            .chunks_exact(Node::<D>::ENTRY_BYTES)
            .map(decode_entry)
    }

    /// The MBR covering all entries.
    pub fn mbr(&self) -> Rect<D> {
        let mut mbr = Rect::empty();
        for e in self.entries() {
            mbr.enlarge(&e.rect);
        }
        mbr
    }

    /// An owned copy of the node.
    pub fn to_node(&self) -> Node<D> {
        Node {
            level: self.level,
            entries: self.entries().collect(),
        }
    }
}

/// Decodes one serialised entry (`ENTRY_BYTES` bytes, the layout
/// [`Node::write_page`] writes).
fn decode_entry<const D: usize>(bytes: &[u8]) -> Entry<D> {
    // Sliced once to the constant width, so the reads below are in bounds
    // by construction.
    let bytes = &bytes[..Node::<D>::ENTRY_BYTES];
    let word = |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"));
    Entry {
        rect: Rect {
            lo: std::array::from_fn(|d| f64::from_bits(word(d))),
            hi: std::array::from_fn(|d| f64::from_bits(word(D + d))),
        },
        payload: word(2 * D),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_sane_for_paper_dimension() {
        // D = 6 → entry = 104 bytes → 78 entries per 8 KiB page.
        assert_eq!(Node::<6>::page_capacity(), 78);
        assert!(Node::<2>::page_capacity() > 200);
    }

    #[test]
    fn serialisation_roundtrip() {
        let mut node = Node::<3>::new(2);
        for i in 0..10u64 {
            let f = i as f64;
            node.entries.push(Entry {
                rect: Rect::new([f, -f, 0.5 * f], [f + 1.0, -f + 2.0, f]),
                payload: i * 17,
            });
        }
        let mut page = Page::zeroed();
        node.write_page(&mut page);
        let view = NodeView::<3>::of_page(&page).unwrap();
        assert_eq!((view.level(), view.len(), view.is_leaf()), (2, 10, false));
        assert_eq!(view.mbr(), node.mbr());
        assert_eq!(view.to_node(), node);
    }

    #[test]
    fn full_node_roundtrip() {
        let cap = Node::<6>::page_capacity();
        let mut node = Node::<6>::new(0);
        for i in 0..cap as u64 {
            let p = [i as f64; 6];
            node.entries.push(Entry::leaf(Rect::point(p), i));
        }
        let mut page = Page::zeroed();
        node.write_page(&mut page);
        assert_eq!(NodeView::<6>::of_page(&page).unwrap().to_node(), node);
    }

    #[test]
    fn count_beyond_capacity_is_not_a_node() {
        let mut page = Page::zeroed();
        Node::<6>::new(0).write_page(&mut page);
        assert!(NodeView::<6>::of_page(&page).unwrap().is_empty());
        page.put_u32(4, Node::<6>::page_capacity() as u32 + 1);
        assert!(NodeView::<6>::of_page(&page).is_none());
        page.put_u32(4, u32::MAX);
        assert!(NodeView::<6>::of_page(&page).is_none());
    }

    #[test]
    #[should_panic(expected = "exceeds page capacity")]
    fn over_capacity_panics() {
        let cap = Node::<6>::page_capacity();
        let mut node = Node::<6>::new(0);
        for i in 0..=cap as u64 {
            node.entries.push(Entry::leaf(Rect::point([0.0; 6]), i));
        }
        node.write_page(&mut Page::zeroed());
    }

    #[test]
    fn entry_constructors() {
        let r = Rect::point([1.0, 2.0]);
        let b = Entry::branch(r, NodeId(5));
        assert_eq!(b.child(), NodeId(5));
        let l = Entry::<2>::leaf(r, 12345);
        assert_eq!(l.payload, 12345);
    }

    #[test]
    fn mbr_covers_entries() {
        let mut node = Node::<2>::new(0);
        node.entries.push(Entry::leaf(Rect::point([0.0, 5.0]), 0));
        node.entries.push(Entry::leaf(Rect::point([3.0, -1.0]), 1));
        assert_eq!(node.mbr(), Rect::new([0.0, -1.0], [3.0, 5.0]));
    }
}
