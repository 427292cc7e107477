//! An in-memory simulated disk with access counters.
//!
//! The experiments report disk accesses the way the paper does: every page
//! read from the device increments a counter. We simulate the device in RAM
//! (see DESIGN.md §2.3 — the 1999 testbed's spindle is not the point; the
//! *counts* drive the cost model of Eq. 18–20, which the paper itself uses
//! to normalise Figures 8–9).
//!
//! Reads are **shared**: the page table sits behind a reader–writer lock
//! that `read`, `with_page`, `stats` and the persistence snapshot take
//! shared and only `alloc`, `free` and `write` take exclusively, so
//! concurrent traversals of one index never wait on each other — only on a
//! writer. [`Disk::with_page`] lends the page where it lies instead of
//! copying it out, which is what the R*-tree's in-place node view stands
//! on; the price is that its reader runs *under* the shared lock, so it
//! must not call back into the same device: an `alloc`/`free`/`write`
//! would wait for a lock its own thread holds, and a nested `read` or
//! `with_page` can deadlock behind a writer queued between the two
//! acquisitions. Take what you need from the page, return, then go on.

use crate::error::PageError;
use crate::page::{Page, PageId};
use crate::sync::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters of physical page traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Pages read from the device.
    pub reads: u64,
    /// Pages written to the device.
    pub writes: u64,
    /// Pages currently allocated.
    pub allocated: u64,
}

/// A page device the buffer pool can sit on: the plain in-memory [`Disk`]
/// or a fault-injecting wrapper ([`crate::FaultyDisk`]).
///
/// `read`/`write` are fallible — a device is allowed to fail an access —
/// while `alloc`/`free` are not (allocation is a metadata operation in this
/// model, and the fault layer targets page I/O). A page id that reaches
/// `read` or `with_page` may come from a file — a tree's child id, a meta
/// line's root — so one that was never allocated, or was freed, is
/// [`PageError::corrupt`] there, on every device. `write` and `free` only
/// see ids the program allocated, so an unallocated one there is a caller
/// bug and panics.
pub trait PageDevice: Send + Sync {
    /// Allocates a zeroed page.
    fn alloc(&self) -> PageId;
    /// Returns a page to the free list.
    fn free(&self, pid: PageId);
    /// Reads a page, counting one disk access.
    fn read(&self, pid: PageId) -> Result<Page, PageError>;
    /// Lends the page to `f` where it lies — the same one counted access
    /// and the same failures as [`Self::read`], without the copy. `f` runs
    /// at most once, and not at all on `Err`. It may run under the
    /// device's shared lock and must not call back into the device.
    fn with_page(&self, pid: PageId, f: &mut dyn FnMut(&Page)) -> Result<(), PageError>;
    /// Writes a page, counting one disk access.
    fn write(&self, pid: PageId, page: &Page) -> Result<(), PageError>;
    /// Snapshot of the access counters.
    fn stats(&self) -> DiskStats;
    /// Zeroes the access counters.
    fn reset_stats(&self);
}

impl PageDevice for Disk {
    fn alloc(&self) -> PageId {
        Disk::alloc(self)
    }

    fn free(&self, pid: PageId) {
        Disk::free(self, pid)
    }

    fn read(&self, pid: PageId) -> Result<Page, PageError> {
        self.lend(pid, Page::clone)
    }

    fn with_page(&self, pid: PageId, f: &mut dyn FnMut(&Page)) -> Result<(), PageError> {
        self.lend(pid, f)
    }

    fn write(&self, pid: PageId, page: &Page) -> Result<(), PageError> {
        Disk::write(self, pid, page);
        Ok(())
    }

    fn stats(&self) -> DiskStats {
        Disk::stats(self)
    }

    fn reset_stats(&self) {
        Disk::reset_stats(self)
    }
}

/// A thread-safe in-memory page device with a free list.
#[derive(Default)]
pub struct Disk {
    inner: RwLock<DiskInner>,
    reads: AtomicU64,
    writes: AtomicU64,
}

#[derive(Default)]
struct DiskInner {
    pages: Vec<Option<Page>>,
    free: Vec<PageId>,
}

impl Disk {
    /// Creates an empty disk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a zeroed page and returns its id.
    pub fn alloc(&self) -> PageId {
        let mut inner = self.inner.write();
        if let Some(pid) = inner.free.pop() {
            inner.pages[pid.0 as usize] = Some(Page::zeroed());
            pid
        } else {
            let pid = PageId(u32::try_from(inner.pages.len()).expect("disk full"));
            assert!(pid.is_valid(), "page id space exhausted");
            inner.pages.push(Some(Page::zeroed()));
            pid
        }
    }

    /// Returns a page to the free list.
    ///
    /// # Panics
    ///
    /// Panics if the page was never allocated or was already freed — a
    /// double free is a bug in the caller, not a recoverable condition.
    pub fn free(&self, pid: PageId) {
        let mut inner = self.inner.write();
        let slot = inner
            .pages
            .get_mut(pid.0 as usize)
            .expect("free of unallocated page");
        assert!(slot.take().is_some(), "double free of {pid}");
        inner.free.push(pid);
    }

    /// Reads a page, counting one disk access.
    pub fn read(&self, pid: PageId) -> Page {
        self.with_page(pid, Page::clone)
    }

    /// Writes a page, counting one disk access.
    pub fn write(&self, pid: PageId, page: &Page) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.write();
        let slot = inner
            .pages
            .get_mut(pid.0 as usize)
            .expect("write to unallocated page");
        assert!(slot.is_some(), "write to freed {pid}");
        *slot = Some(page.clone());
    }

    /// Runs `f` against a page without copying it out, still counting one
    /// read access — the hot path of index node scans. `f` runs under the
    /// shared lock: other readers proceed beside it, writers wait for it,
    /// and it must not call back into this device (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics when the page was never allocated or was freed; the
    /// [`PageDevice`] methods report that as [`PageError::corrupt`].
    pub fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&Page) -> R) -> R {
        self.lend(pid, f)
            .unwrap_or_else(|_| panic!("read of unallocated {pid}"))
    }

    /// [`Self::with_page`] for an id that may come from a file: one never
    /// allocated, or freed, is [`PageError::corrupt`] and counts no read.
    fn lend<R>(&self, pid: PageId, f: impl FnOnce(&Page) -> R) -> Result<R, PageError> {
        let inner = self.inner.read();
        let page = inner
            .pages
            .get(pid.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(PageError::corrupt(pid))?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        Ok(f(page))
    }

    /// Snapshot of the access counters.
    pub fn stats(&self) -> DiskStats {
        let inner = self.inner.read();
        DiskStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            allocated: (inner.pages.len() - inner.free.len()) as u64,
        }
    }

    /// Zeroes the read/write counters (page contents are untouched).
    /// Experiments call this between queries so each query's accesses are
    /// measured cold.
    pub fn reset_stats(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }

    /// Copies the device state out (persistence support).
    pub(crate) fn snapshot(&self) -> DiskSnapshot {
        let inner = self.inner.read();
        DiskSnapshot {
            pages: inner.pages.clone(),
            free: inner.free.clone(),
        }
    }

    /// Rebuilds a device from a snapshot (persistence support).
    pub(crate) fn from_snapshot(pages: Vec<Option<Page>>, free: Vec<PageId>) -> Self {
        Self {
            inner: RwLock::new(DiskInner { pages, free }),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }
}

/// An owned copy of the device state.
pub(crate) struct DiskSnapshot {
    pub(crate) pages: Vec<Option<Page>>,
    pub(crate) free: Vec<PageId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let d = Disk::new();
        let a = d.alloc();
        let b = d.alloc();
        assert_ne!(a, b);

        let mut p = Page::zeroed();
        p.put_u64(0, 42);
        d.write(a, &p);
        assert_eq!(d.read(a).get_u64(0), 42);
        assert_eq!(d.read(b).get_u64(0), 0);
    }

    #[test]
    fn counters_track_traffic() {
        let d = Disk::new();
        let a = d.alloc();
        let p = Page::zeroed();
        d.write(a, &p);
        d.read(a);
        d.read(a);
        d.with_page(a, |_| ());
        let s = d.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 3);
        assert_eq!(s.allocated, 1);
        d.reset_stats();
        let s = d.stats();
        assert_eq!((s.reads, s.writes), (0, 0));
        assert_eq!(s.allocated, 1);
    }

    #[test]
    fn trait_with_page_lends_what_read_copies() {
        let d = Disk::new();
        let a = d.alloc();
        let mut p = Page::zeroed();
        p.put_u64(8, 7);
        d.write(a, &p);
        let dev: &dyn PageDevice = &d;
        let mut lent = None;
        dev.with_page(a, &mut |page| lent = Some(*page.bytes()))
            .unwrap();
        assert_eq!(lent.unwrap(), *dev.read(a).unwrap().bytes());
        assert_eq!(d.stats().reads, 2, "one counted access each");
    }

    #[test]
    fn free_list_reuses_ids() {
        let d = Disk::new();
        let a = d.alloc();
        let _b = d.alloc();
        d.free(a);
        let c = d.alloc();
        assert_eq!(a, c, "freed id should be recycled");
        // Reused page must come back zeroed.
        assert_eq!(d.read(c).get_u64(0), 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let d = Disk::new();
        let a = d.alloc();
        d.free(a);
        d.free(a);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn read_of_freed_page_panics() {
        let d = Disk::new();
        let a = d.alloc();
        d.free(a);
        let _ = d.read(a);
    }

    #[test]
    fn concurrent_allocation_is_disjoint() {
        use std::sync::Arc;
        let d = Arc::new(Disk::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let d = Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                (0..100).map(|_| d.alloc()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<PageId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 400, "ids must be unique across threads");
    }
}
