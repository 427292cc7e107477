#![warn(missing_docs)]
//! # rstartree — the R*-tree of Beckmann, Kriegel, Schneider & Seeger
//!
//! The ICDE '99 paper runs its experiments "on top of Norbert Beckmann's
//! Version 2 implementation of the R*-tree" (§5). This crate is a from-
//! scratch Rust implementation of the published R*-tree algorithms
//! (SIGMOD '90), instrumented the way the paper's evaluation needs:
//!
//! * **ChooseSubtree** — minimum *overlap* enlargement when the children are
//!   leaves, minimum *area* enlargement above;
//! * **Split** — choose the split axis by minimum margin sum, then the
//!   distribution by minimum overlap (ties: minimum area);
//! * **Forced reinsertion** — on the first overflow of each level per
//!   insertion, the 30 % of entries farthest from the node centre are
//!   reinserted instead of splitting;
//! * **Deletion** with tree condensation (underfull nodes dissolved and
//!   their entries reinserted at their original level);
//! * **STR bulk loading** for building large indexes quickly;
//! * **Query machinery** — predicate-driven descent ([`RStarTree::search`],
//!   the hook the MT-index algorithm plugs its transformed-rectangle test
//!   into, and [`RStarTree::search_masked`], its form for up to 64
//!   predicates at once: each node read once for every predicate that
//!   reaches it, counters attributed per predicate), plain range queries,
//!   best-first nearest neighbour with
//!   caller-supplied lower bounds (MINDIST-style, after Roussopoulos et
//!   al.), and the synchronized-descent, duplicate-free self join;
//! * **One node store** — [`PagedStore`] serialises every node onto one
//!   page of a [`pagestore::PageDevice`] (a fresh in-memory
//!   [`pagestore::Disk`] for a tree that is never persisted:
//!   [`PagedStore::in_memory`]) and counts node accesses there, which is
//!   the "number of disk accesses" of the paper's Figures 8–9.
//!
//! **Reading a node.** Read-only traversals — [`RStarTree::search`], the
//! nearest-neighbour searches, [`RStarTree::level_summaries`],
//! [`RStarTree::validate`] — never build a [`Node`]: [`PagedStore::view`]
//! lends them a [`NodeView`] of the node where it lies (the page's bytes
//! under the device's *shared* lock), they test its entries in place and
//! keep the few they need. Insertion, deletion and the self join take an
//! owned copy through [`PagedStore::get`]. Either way a visit is one
//! counted access, and the searches and summaries check a node's stored
//! level against the one its parent implies (pages come from a file; a
//! mismatch is a corrupt-page error, not a wrong answer). Two rules
//! follow from the view holding a lock while its closure runs: **views
//! never nest** — take what you need, let go, then visit the next node —
//! and therefore `search` evaluates its predicate on *all* entries of a
//! node before it reports or descends into the first hit (hits are then
//! handled in slot order, so for a predicate that depends on the rectangle
//! alone nothing observable differs from testing and descending entry by
//! entry).
//!
//! Dimensions are a compile-time constant (`const D: usize`); the paper's
//! feature space is `D = 6` (mean, std, and two DFT coefficients in polar
//! form).
//!
//! ```
//! use rstartree::{PagedStore, Params, RStarTree, Rect};
//! let mut tree: RStarTree<2> =
//!     RStarTree::with_params(PagedStore::in_memory(), Params::with_max(8));
//! for i in 0..100u64 {
//!     tree.insert(Rect::point([i as f64, (i * 7 % 13) as f64]), i).unwrap();
//! }
//! let (hits, stats) = tree.range(&Rect::new([10.0, 0.0], [20.0, 20.0])).unwrap();
//! assert_eq!(hits.len(), 11);
//! assert!(stats.nodes_accessed < 40, "the tree prunes");
//! tree.validate().unwrap();
//! ```
//!
//! Tree accessors return `Result<_, pagestore::PageError>`: over a plain
//! in-memory disk only a page that does not hold the node its parent
//! promised fails (an image from a damaged file), but a [`PagedStore`] over
//! a [`pagestore::FaultyDisk`] surfaces injected device errors instead of
//! panicking — the fault-injection test harness relies on this.

mod bulk;
mod node;
mod params;
mod rect;
mod split;
mod store;
mod tree;

pub use bulk::bulk_load_str;
pub use node::{Node, NodeId, NodeView};
pub use params::Params;
pub use rect::Rect;
pub use store::{PagedStore, StoreStats};
pub use tree::{mask_bits, LevelSummary, Neighbor, RStarTree, SearchStats};

#[cfg(test)]
mod proptests;
