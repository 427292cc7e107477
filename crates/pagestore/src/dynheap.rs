//! Heap files with a record size fixed at *creation* time rather than at
//! compile time — sequence records whose length depends on the corpus.

use crate::buffer::BufferPool;
use crate::error::PageError;
use crate::page::{PageId, PAGE_SIZE};
use crate::sync::Mutex;
use std::sync::Arc;

/// Address of a record: page plus slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct RecordId {
    /// The page holding the record.
    pub page: PageId,
    /// Slot index within the page.
    pub slot: u16,
}

const HEADER: usize = 8; // [count: u16][pad: 6]

/// An append-only heap of byte records, all of one (runtime-chosen) size.
pub struct DynHeapFile {
    pool: Arc<BufferPool>,
    record_size: usize,
    per_page: usize,
    state: Mutex<DynHeapState>,
}

struct DynHeapState {
    pages: Vec<PageId>,
    len: usize,
}

impl DynHeapFile {
    /// Creates an empty heap of `record_size`-byte records.
    ///
    /// # Panics
    ///
    /// Panics when a record cannot fit on one page.
    pub fn create(pool: Arc<BufferPool>, record_size: usize) -> Self {
        assert!(record_size > 0, "zero-size records are not addressable");
        assert!(
            record_size <= PAGE_SIZE - HEADER,
            "record of {record_size} bytes exceeds page payload {}",
            PAGE_SIZE - HEADER
        );
        let per_page = (PAGE_SIZE - HEADER) / record_size;
        Self {
            pool,
            record_size,
            per_page,
            state: Mutex::new(DynHeapState {
                pages: Vec::new(),
                len: 0,
            }),
        }
    }

    /// Re-attaches a heap whose pages already live on the pool's device —
    /// the persistence path. `pages` must be the page list of the saved
    /// heap, in order, and `len` its record count.
    ///
    /// # Panics
    ///
    /// Panics when `len` needs more pages than provided.
    pub fn reopen(
        pool: Arc<BufferPool>,
        record_size: usize,
        len: usize,
        pages: Vec<PageId>,
    ) -> Self {
        assert!(
            record_size > 0 && record_size <= PAGE_SIZE - HEADER,
            "bad record size"
        );
        let per_page = (PAGE_SIZE - HEADER) / record_size;
        assert!(
            len.div_ceil(per_page) <= pages.len(),
            "{len} records do not fit in {} pages",
            pages.len()
        );
        Self {
            pool,
            record_size,
            per_page,
            state: Mutex::new(DynHeapState { pages, len }),
        }
    }

    /// The page list, in order (needed to reopen a persisted heap).
    pub fn page_ids(&self) -> Vec<PageId> {
        self.state.lock().pages.clone()
    }

    /// Record size in bytes.
    pub fn record_size(&self) -> usize {
        self.record_size
    }

    /// Records per page.
    pub fn per_page(&self) -> usize {
        self.per_page
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.state.lock().len
    }

    /// True when no records were inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pages occupied.
    pub fn page_count(&self) -> usize {
        self.state.lock().pages.len()
    }

    /// Appends a record.
    ///
    /// # Panics
    ///
    /// Panics when `bytes.len() != record_size`.
    pub fn insert(&self, bytes: &[u8]) -> Result<RecordId, PageError> {
        assert_eq!(bytes.len(), self.record_size, "record size mismatch");
        let mut st = self.state.lock();
        let slot_in_page = st.len % self.per_page;
        if slot_in_page == 0 {
            let pid = self.pool.alloc();
            st.pages.push(pid);
        }
        let pid = *st.pages.last().expect("page just ensured");
        let slot = u16::try_from(slot_in_page).expect("slot fits u16");
        st.len += 1;
        drop(st);

        self.pool.with_page_mut(pid, |p| {
            let off = HEADER + slot as usize * self.record_size;
            p.put_bytes(off, bytes);
            let count = p.get_u16(0);
            p.put_u16(0, count.max(slot + 1));
        })?;
        Ok(RecordId { page: pid, slot })
    }

    /// Reads the record at `rid` into a fresh buffer.
    pub fn get(&self, rid: RecordId) -> Result<Vec<u8>, PageError> {
        self.with_record(rid, <[u8]>::to_vec)
    }

    /// Runs `f` over the record at `rid` where it lies in the pool — one
    /// page access, no copy. The page stays pinned while `f` runs.
    ///
    /// A slot at or past the page's stored record count — a page damaged
    /// on disk, since `rid` came from this heap — is a corrupt-page error.
    pub fn with_record<R>(
        &self,
        rid: RecordId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, PageError> {
        self.pool.with_page(rid.page, |p| {
            if rid.slot >= p.get_u16(0) {
                return Err(PageError::corrupt(rid.page));
            }
            let off = HEADER + rid.slot as usize * self.record_size;
            Ok(f(p.get_bytes(off, self.record_size)))
        })?
    }

    /// The record id for the `ordinal`-th inserted record.
    pub fn rid_of(&self, ordinal: usize) -> RecordId {
        let st = self.state.lock();
        assert!(
            ordinal < st.len,
            "ordinal {ordinal} out of bounds (len {})",
            st.len
        );
        RecordId {
            page: st.pages[ordinal / self.per_page],
            slot: (ordinal % self.per_page) as u16,
        }
    }

    /// Visits every record in insertion order; one page access per page.
    /// Stops at the first failed page.
    pub fn scan(&self, mut f: impl FnMut(RecordId, &[u8])) -> Result<(), PageError> {
        let len = self.len();
        self.scan_range(0, len, |_, rid, bytes| f(rid, bytes))
    }

    /// Visits records with ordinals in `[start, end)` in order, passing the
    /// ordinal along; one page access per touched page. Partitioning a scan
    /// into disjoint ranges lets callers parallelise it. Stops at the first
    /// failed page.
    pub fn scan_range(
        &self,
        start: usize,
        end: usize,
        mut f: impl FnMut(usize, RecordId, &[u8]),
    ) -> Result<(), PageError> {
        let (pages, len) = {
            let st = self.state.lock();
            (st.pages.clone(), st.len)
        };
        let end = end.min(len);
        if start >= end {
            return Ok(());
        }
        let first_page = start / self.per_page;
        let last_page = (end - 1) / self.per_page;
        for (pi, &pid) in pages
            .iter()
            .enumerate()
            .take(last_page + 1)
            .skip(first_page)
        {
            self.pool.with_page(pid, |p| {
                let count = p.get_u16(0) as usize;
                for slot in 0..count {
                    let ordinal = pi * self.per_page + slot;
                    if ordinal < start || ordinal >= end {
                        continue;
                    }
                    let off = HEADER + slot * self.record_size;
                    f(
                        ordinal,
                        RecordId {
                            page: pid,
                            slot: slot as u16,
                        },
                        p.get_bytes(off, self.record_size),
                    );
                }
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::Disk;

    fn heap(record_size: usize) -> (Arc<Disk>, DynHeapFile) {
        let disk = Arc::new(Disk::new());
        let pool = Arc::new(BufferPool::new(Arc::clone(&disk), 8));
        (disk, DynHeapFile::create(pool, record_size))
    }

    fn record(i: u8, size: usize) -> Vec<u8> {
        (0..size).map(|k| i.wrapping_add(k as u8)).collect()
    }

    #[test]
    fn insert_get_scan_roundtrip() {
        let (_d, h) = heap(100);
        let rids: Vec<RecordId> = (0..250u8)
            .map(|i| h.insert(&record(i, 100)).unwrap())
            .collect();
        assert_eq!(h.len(), 250);
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(h.get(*rid).unwrap(), record(i as u8, 100));
            assert_eq!(h.rid_of(i), *rid);
        }
        let mut seen = 0;
        h.scan(|rid, bytes| {
            assert_eq!(rid, rids[seen]);
            assert_eq!(bytes, record(seen as u8, 100));
            seen += 1;
        })
        .unwrap();
        assert_eq!(seen, 250);
    }

    #[test]
    fn per_page_math() {
        let (_d, h) = heap(1024);
        assert_eq!(h.per_page(), (PAGE_SIZE - 8) / 1024);
        for i in 0..h.per_page() + 1 {
            h.insert(&record(i as u8, 1024)).unwrap();
        }
        assert_eq!(h.page_count(), 2);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_size_rejected() {
        let (_d, h) = heap(16);
        let _ = h.insert(&[0u8; 15]);
    }

    #[test]
    #[should_panic(expected = "exceeds page payload")]
    fn oversized_record_rejected() {
        let (_d, _h) = heap(PAGE_SIZE);
    }
}

#[cfg(test)]
mod range_proptests {
    use super::*;
    use crate::disk::Disk;
    use tseries::rng::SeededRng;

    /// Any `[start, end)` range visits exactly the full scan's records
    /// restricted to that range, in order.
    #[test]
    fn scan_range_equals_filtered_scan() {
        let mut rng = SeededRng::seed_from_u64(0x5CA9);
        for _ in 0..32 {
            let count = rng.random_range(0..120usize);
            let (start, end) = (rng.random_range(0..140usize), rng.random_range(0..140usize));
            let disk = Arc::new(Disk::new());
            let pool = Arc::new(BufferPool::new(disk, 4));
            let heap = DynHeapFile::create(pool, 48);
            for i in 0..count {
                let rec: Vec<u8> = (0..48).map(|k| (i + k) as u8).collect();
                heap.insert(&rec).unwrap();
            }
            let mut via_range = Vec::new();
            heap.scan_range(start, end, |ordinal, _, bytes| {
                via_range.push((ordinal, bytes.to_vec()));
            })
            .unwrap();
            let mut via_full = Vec::new();
            let mut ordinal = 0;
            heap.scan(|_, bytes| {
                if ordinal >= start && ordinal < end {
                    via_full.push((ordinal, bytes.to_vec()));
                }
                ordinal += 1;
            })
            .unwrap();
            assert_eq!(via_range, via_full, "count {count}, range {start}..{end}");
        }
    }
}
