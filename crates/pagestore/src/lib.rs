#![warn(missing_docs)]
//! # pagestore — paged storage substrate
//!
//! The ICDE '99 paper's cost unit is the **disk access** (Eq. 18–20 and the
//! access counts of Figures 8–9), so the reproduction needs storage whose
//! page I/O is observable. This crate provides:
//!
//! * [`Page`] / [`PageId`] — fixed 8 KiB pages with little-endian codec
//!   helpers;
//! * [`Disk`] — an in-memory simulated disk with atomic read/write counters
//!   and a free list (the "device" under both the R*-tree and the sequence
//!   relation);
//! * [`BufferPool`] — a latch-protected LRU pool with pin counts; its *miss*
//!   counter is the number of physical accesses the experiments report;
//! * [`DynHeapFile`] — an append-only heap of fixed-size byte records (the
//!   size is chosen at creation, from the corpus' sequence length) that
//!   stores the full sequence records retrieved in the post-processing
//!   step 5 of Algorithm 1;
//! * [`FaultyDisk`] / [`FaultPlan`] — deterministic, seeded fault
//!   injection over the [`PageDevice`] trait, with typed [`PageError`]s
//!   that every layer above propagates instead of panicking.
//!
//! All structures are thread-safe ([`sync`] wrappers over `std::sync`
//! locks) so parallel scans and the query server can share them.

mod buffer;
mod disk;
mod dynheap;
mod error;
mod fault;
mod filedisk;
mod page;
pub mod sync;

pub use buffer::{BufferPool, BufferStats, TRANSIENT_RETRIES};
pub use disk::{Disk, DiskStats, PageDevice};
pub use dynheap::{DynHeapFile, RecordId};
pub use error::{PageError, PageErrorKind, PageOp};
pub use fault::{FaultCounters, FaultKind, FaultPlan, FaultSpec, FaultyDisk, PlanParams, Trigger};
pub use page::{Page, PageId, PAGE_SIZE};
