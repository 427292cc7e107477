//! A pin-counted LRU buffer pool over a [`PageDevice`].
//!
//! The pool's **miss** count is the experiment-visible "number of disk
//! accesses": a page served from the pool costs nothing, a miss reads the
//! device (and possibly evicts the least-recently-used unpinned frame,
//! writing it back if dirty).
//!
//! The device underneath may fail (see [`crate::FaultyDisk`]), so every
//! access returns `Result<_, PageError>`. *Transient* device errors are
//! retried here — up to [`TRANSIENT_RETRIES`] attempts with doubling
//! backoff — so a fault that recovers within the retry budget is invisible
//! to callers (except in the `transient_retries` counter). Persistent
//! errors propagate; the pool is left consistent: a failed page load frees
//! the frame, a failed writeback keeps the frame dirty and resident so no
//! update is lost.
//!
//! Concurrency design: one mutex guards the *metadata* (page table, pin
//! counts, LRU clock); page *contents* live in per-frame `RwLock`s, so
//! readers on different frames proceed in parallel and the caller's closure
//! never runs under the pool-wide lock. The invariant making this sound:
//! a frame's page lock is only ever held while the frame is pinned, and
//! eviction skips pinned frames.
//!
//! Access is closure-based (`with_page` / `with_page_mut`) rather than
//! guard-based: frames are pinned for exactly the closure's duration, which
//! makes pin leaks impossible by construction.

use crate::disk::PageDevice;
use crate::error::PageError;
use crate::page::{Page, PageId};
use crate::sync::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Max retry attempts for a transient device error (per access).
pub const TRANSIENT_RETRIES: u32 = 4;
/// Initial retry backoff; doubles per attempt (10 → 20 → 40 → 80 µs).
const BACKOFF_START_US: u64 = 10;

/// Buffer pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Lookups served from the pool.
    pub hits: u64,
    /// Lookups that had to read the device.
    pub misses: u64,
    /// Dirty pages written back during eviction or flush.
    pub writebacks: u64,
    /// Device accesses retried after a transient fault.
    pub transient_retries: u64,
}

#[derive(Clone, Copy)]
struct FrameMeta {
    pid: PageId,
    dirty: bool,
    pins: u32,
    /// Logical clock of last use, for LRU victim selection.
    last_used: u64,
}

const EMPTY_FRAME: FrameMeta = FrameMeta {
    pid: PageId::INVALID,
    dirty: false,
    pins: 0,
    last_used: 0,
};

struct PoolMeta {
    frames: Vec<FrameMeta>,
    map: HashMap<PageId, usize>,
    clock: u64,
    stats: BufferStats,
}

/// A fixed-capacity LRU buffer pool.
pub struct BufferPool {
    device: Arc<dyn PageDevice>,
    meta: Mutex<PoolMeta>,
    /// Page contents; the vector never grows, so `&pages[idx]` is stable.
    pages: Vec<RwLock<Page>>,
    transient_retries: AtomicU64,
}

impl BufferPool {
    /// Creates a pool of `capacity` frames over `device` (a plain
    /// [`crate::Disk`], a [`crate::FaultyDisk`], or any other device).
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new<D: PageDevice + 'static>(device: Arc<D>, capacity: usize) -> Self {
        Self::new_dyn(device, capacity)
    }

    /// Like [`Self::new`] for an already type-erased device handle.
    pub fn new_dyn(device: Arc<dyn PageDevice>, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let pages = (0..capacity).map(|_| RwLock::new(Page::zeroed())).collect();
        Self {
            device,
            meta: Mutex::new(PoolMeta {
                frames: (0..capacity).map(|_| EMPTY_FRAME).collect(),
                map: HashMap::new(),
                clock: 0,
                stats: BufferStats::default(),
            }),
            pages,
            transient_retries: AtomicU64::new(0),
        }
    }

    /// Number of frames the pool holds.
    pub fn capacity(&self) -> usize {
        self.pages.len()
    }

    /// The device underneath.
    pub fn device(&self) -> &Arc<dyn PageDevice> {
        &self.device
    }

    /// Allocates a fresh page on the device (not yet cached).
    pub fn alloc(&self) -> PageId {
        self.device.alloc()
    }

    /// Runs `f` over the page, fetching it on a miss. The frame stays pinned
    /// only while `f` runs; concurrent readers of different pages (and of
    /// the same page) proceed in parallel.
    pub fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&Page) -> R) -> Result<R, PageError> {
        let idx = self.pin(pid)?;
        let result = {
            let page = self.pages[idx].read();
            f(&page)
        };
        self.unpin(idx, false);
        Ok(result)
    }

    /// Like [`Self::with_page`] but mutable; marks the frame dirty.
    pub fn with_page_mut<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R, PageError> {
        let idx = self.pin(pid)?;
        let result = {
            let mut page = self.pages[idx].write();
            f(&mut page)
        };
        self.unpin(idx, true);
        Ok(result)
    }

    /// Drops the page from the pool (discarding any cached dirty copy —
    /// the page is being destroyed) and frees it on the device.
    ///
    /// # Panics
    ///
    /// Panics if the page is currently pinned.
    pub fn free(&self, pid: PageId) {
        let mut meta = self.meta.lock();
        if let Some(idx) = meta.map.remove(&pid) {
            assert_eq!(meta.frames[idx].pins, 0, "freeing pinned {pid}");
            meta.frames[idx] = EMPTY_FRAME;
        }
        drop(meta);
        self.device.free(pid);
    }

    /// Writes every dirty frame back to the device. On writeback failure
    /// the frame stays dirty (no update is lost); the first error is
    /// returned after every dirty frame has been attempted.
    pub fn flush_all(&self) -> Result<(), PageError> {
        // Pin every dirty frame under the metadata lock, then write back
        // without it (a dirty frame may be page-write-locked by an active
        // user; pinning first keeps it resident while we wait our turn).
        let mut pinned: Vec<(usize, PageId)> = Vec::new();
        {
            let mut meta = self.meta.lock();
            meta.clock += 1;
            let now = meta.clock;
            for (idx, frame) in meta.frames.iter_mut().enumerate() {
                if frame.pid.is_valid() && frame.dirty {
                    frame.dirty = false;
                    frame.pins += 1;
                    frame.last_used = now;
                    pinned.push((idx, frame.pid));
                }
            }
        }
        let mut first_err = None;
        let mut failed = vec![false; pinned.len()];
        for (k, &(idx, pid)) in pinned.iter().enumerate() {
            let res = {
                let page = self.pages[idx].read();
                self.write_retry(pid, &page)
            };
            if let Err(e) = res {
                failed[k] = true;
                first_err.get_or_insert(e);
            }
        }
        let mut meta = self.meta.lock();
        for (k, &(idx, _)) in pinned.iter().enumerate() {
            let frame = &mut meta.frames[idx];
            debug_assert!(frame.pins > 0);
            frame.pins -= 1;
            if failed[k] {
                frame.dirty = true;
            } else {
                meta.stats.writebacks += 1;
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Flushes and empties the pool; the next access of any page is a miss.
    /// Experiments use this to measure queries cold, like the paper's
    /// per-query access counts. Fails (without emptying) when a dirty
    /// frame cannot be written back.
    pub fn clear(&self) -> Result<(), PageError> {
        self.flush_all()?;
        let mut meta = self.meta.lock();
        assert!(
            meta.frames.iter().all(|fr| fr.pins == 0),
            "clear() while frames are pinned"
        );
        meta.map.clear();
        for frame in meta.frames.iter_mut() {
            *frame = EMPTY_FRAME;
        }
        Ok(())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BufferStats {
        let mut s = self.meta.lock().stats;
        s.transient_retries = self.transient_retries.load(Ordering::Relaxed);
        s
    }

    /// Zeroes the counters.
    pub fn reset_stats(&self) {
        self.meta.lock().stats = BufferStats::default();
        self.transient_retries.store(0, Ordering::Relaxed);
    }

    /// Reads `pid` from the device, retrying transient faults with bounded
    /// doubling backoff.
    fn read_retry(&self, pid: PageId) -> Result<Page, PageError> {
        let mut delay = BACKOFF_START_US;
        let mut attempts = 0;
        loop {
            match self.device.read(pid) {
                Ok(p) => return Ok(p),
                Err(e) if e.transient && attempts < TRANSIENT_RETRIES => {
                    attempts += 1;
                    self.transient_retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_micros(delay));
                    delay *= 2;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes `pid` to the device, retrying transient faults with bounded
    /// doubling backoff.
    fn write_retry(&self, pid: PageId, page: &Page) -> Result<(), PageError> {
        let mut delay = BACKOFF_START_US;
        let mut attempts = 0;
        loop {
            match self.device.write(pid, page) {
                Ok(()) => return Ok(()),
                Err(e) if e.transient && attempts < TRANSIENT_RETRIES => {
                    attempts += 1;
                    self.transient_retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_micros(delay));
                    delay *= 2;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn pin(&self, pid: PageId) -> Result<usize, PageError> {
        let mut meta = self.meta.lock();
        meta.clock += 1;
        let now = meta.clock;
        if let Some(&idx) = meta.map.get(&pid) {
            meta.stats.hits += 1;
            let frame = &mut meta.frames[idx];
            frame.pins += 1;
            frame.last_used = now;
            return Ok(idx);
        }
        meta.stats.misses += 1;

        // The victim: among unpinned frames an empty one, else the least
        // recently used; the lowest index wins a tie. A dirty victim whose
        // writeback fails is passed over (it stays dirty and resident — no
        // update lost) and the next-best frame is tried.
        let mut passed_over: Vec<usize> = Vec::new();
        let mut last_err = None;
        let idx = loop {
            let victim = (0..meta.frames.len())
                .filter(|i| meta.frames[*i].pins == 0 && !passed_over.contains(i))
                .min_by_key(|&i| (meta.frames[i].pid.is_valid(), meta.frames[i].last_used));
            let Some(idx) = victim else {
                assert!(
                    !passed_over.is_empty(),
                    "buffer pool exhausted: every frame is pinned"
                );
                return Err(last_err.expect("a frame is passed over on a writeback error"));
            };
            let old = meta.frames[idx];
            if old.pid.is_valid() && old.dirty {
                // Unpinned frame ⇒ no one holds its page lock; this cannot
                // block. Holding the metadata lock keeps eviction atomic.
                let res = {
                    let page = self.pages[idx].read();
                    self.write_retry(old.pid, &page)
                };
                if let Err(e) = res {
                    last_err = Some(e);
                    passed_over.push(idx);
                    continue;
                }
                meta.stats.writebacks += 1;
            }
            if old.pid.is_valid() {
                meta.map.remove(&old.pid);
            }
            break idx;
        };

        // Mark the frame pinned *before* loading so no concurrent pin()
        // can evict it while we fill the page contents.
        meta.frames[idx] = FrameMeta {
            pid,
            dirty: false,
            pins: 1,
            last_used: now,
        };
        meta.map.insert(pid, idx);
        // Load the contents while still under the metadata lock: a
        // concurrent pin() of the same pid must not read stale bytes. The
        // in-memory device makes this cheap.
        match self.read_retry(pid) {
            Ok(fresh) => {
                *self.pages[idx].write() = fresh;
                Ok(idx)
            }
            Err(e) => {
                // Undo: release the frame so the pool stays consistent.
                meta.map.remove(&pid);
                meta.frames[idx] = EMPTY_FRAME;
                Err(e)
            }
        }
    }

    fn unpin(&self, idx: usize, dirty: bool) {
        let mut meta = self.meta.lock();
        let frame = &mut meta.frames[idx];
        debug_assert!(frame.pins > 0);
        frame.pins -= 1;
        frame.dirty |= dirty;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::Disk;
    use crate::fault::{FaultPlan, FaultyDisk};

    fn setup(cap: usize, pages: usize) -> (Arc<Disk>, BufferPool, Vec<PageId>) {
        let disk = Arc::new(Disk::new());
        let ids: Vec<PageId> = (0..pages)
            .map(|i| {
                let pid = disk.alloc();
                let mut p = Page::zeroed();
                p.put_u64(0, i as u64);
                disk.write(pid, &p);
                pid
            })
            .collect();
        disk.reset_stats();
        let pool = BufferPool::new(Arc::clone(&disk), cap);
        (disk, pool, ids)
    }

    #[test]
    fn hits_after_first_miss() {
        let (_disk, pool, ids) = setup(4, 2);
        assert_eq!(pool.with_page(ids[1], |p| p.get_u64(0)).unwrap(), 1);
        assert_eq!(pool.with_page(ids[1], |p| p.get_u64(0)).unwrap(), 1);
        let s = pool.stats();
        assert_eq!((s.misses, s.hits), (1, 1));
    }

    #[test]
    fn lru_evicts_oldest() {
        let (disk, pool, ids) = setup(2, 3);
        pool.with_page(ids[0], |_| ()).unwrap();
        pool.with_page(ids[1], |_| ()).unwrap();
        pool.with_page(ids[2], |_| ()).unwrap(); // evicts ids[0]
        disk.reset_stats();
        pool.with_page(ids[1], |_| ()).unwrap(); // hit
        assert_eq!(disk.stats().reads, 0);
        pool.with_page(ids[0], |_| ()).unwrap(); // miss again
        assert_eq!(disk.stats().reads, 1);
    }

    #[test]
    fn dirty_pages_written_back_on_eviction() {
        let (disk, pool, ids) = setup(1, 2);
        pool.with_page_mut(ids[0], |p| p.put_u64(0, 777)).unwrap();
        pool.with_page(ids[1], |_| ()).unwrap(); // forces eviction + writeback
        assert_eq!(disk.read(ids[0]).get_u64(0), 777);
        assert_eq!(pool.stats().writebacks, 1);
    }

    #[test]
    fn flush_and_clear_round_trip() {
        let (disk, pool, ids) = setup(4, 2);
        pool.with_page_mut(ids[0], |p| p.put_u64(8, 5)).unwrap();
        pool.flush_all().unwrap();
        assert_eq!(disk.read(ids[0]).get_u64(8), 5);
        disk.reset_stats();
        pool.clear().unwrap();
        pool.with_page(ids[0], |_| ()).unwrap();
        assert_eq!(disk.stats().reads, 1, "post-clear access must be a miss");
    }

    #[test]
    fn flush_is_idempotent() {
        let (disk, pool, ids) = setup(4, 1);
        pool.with_page_mut(ids[0], |p| p.put_u64(0, 9)).unwrap();
        pool.flush_all().unwrap();
        pool.flush_all().unwrap(); // nothing dirty left
        assert_eq!(pool.stats().writebacks, 1);
        assert_eq!(disk.read(ids[0]).get_u64(0), 9);
    }

    #[test]
    fn miss_count_equals_device_reads() {
        let (disk, pool, ids) = setup(2, 5);
        for _round in 0..3 {
            for &pid in &ids {
                pool.with_page(pid, |p| p.get_u64(0)).unwrap();
            }
        }
        assert_eq!(pool.stats().misses, disk.stats().reads);
    }

    #[test]
    fn free_removes_from_pool_and_device() {
        let (disk, pool, ids) = setup(4, 2);
        pool.with_page_mut(ids[0], |p| p.put_u64(0, 1)).unwrap();
        pool.free(ids[0]);
        let replacement = disk.alloc();
        assert_eq!(replacement, ids[0], "device should recycle the freed id");
    }

    #[test]
    fn hit_ratio_reporting() {
        let (_d, pool, ids) = setup(4, 1);
        assert_eq!(pool.stats(), BufferStats::default());
        pool.with_page(ids[0], |_| ()).unwrap();
        pool.with_page(ids[0], |_| ()).unwrap();
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.writebacks), (1, 1, 0));
    }

    #[test]
    fn concurrent_readers_share_frames() {
        let (_d, pool, ids) = setup(8, 4);
        let pool = Arc::new(pool);
        let mut handles = Vec::new();
        for t in 0..4 {
            let pool = Arc::clone(&pool);
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                let mut acc = 0u64;
                for i in 0..200 {
                    let pid = ids[(t + i) % ids.len()];
                    acc += pool.with_page(pid, |p| p.get_u64(0)).unwrap();
                }
                acc
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // All four pages fit: after warmup everything is a hit.
        let s = pool.stats();
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits, 800 - 4);
    }

    #[test]
    fn concurrent_writers_do_not_lose_updates() {
        let (disk, pool, ids) = setup(4, 2);
        let pool = Arc::new(pool);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let pool = Arc::clone(&pool);
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let pid = ids[(t % 2) as usize];
                    pool.with_page_mut(pid, |p| {
                        let v = p.get_u64(8);
                        p.put_u64(8, v + 1);
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        pool.flush_all().unwrap();
        let total = disk.read(ids[0]).get_u64(8) + disk.read(ids[1]).get_u64(8);
        assert_eq!(total, 2000, "every increment must survive");
    }

    #[test]
    fn readers_of_different_pages_overlap() {
        // Two threads each hold a long read of a different page; if the
        // closure ran under a pool-wide lock this would take ≥ 2×50 ms.
        let (_d, pool, ids) = setup(4, 2);
        let pool = Arc::new(pool);
        let start = std::time::Instant::now();
        let mut handles = Vec::new();
        for t in 0..2 {
            let pool = Arc::clone(&pool);
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                pool.with_page(ids[t], |_| {
                    std::thread::sleep(std::time::Duration::from_millis(50))
                })
                .unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            start.elapsed() < std::time::Duration::from_millis(90),
            "closures must not serialise: {:?}",
            start.elapsed()
        );
    }

    fn faulty_setup(cap: usize, pages: usize) -> (Arc<FaultyDisk>, BufferPool, Vec<PageId>) {
        let disk = Arc::new(Disk::new());
        let ids: Vec<PageId> = (0..pages)
            .map(|i| {
                let pid = disk.alloc();
                let mut p = Page::zeroed();
                p.put_u64(0, i as u64);
                disk.write(pid, &p);
                pid
            })
            .collect();
        let faulty = Arc::new(FaultyDisk::new(disk));
        let pool = BufferPool::new(Arc::clone(&faulty), cap);
        (faulty, pool, ids)
    }

    #[test]
    fn transient_read_fault_is_retried_away() {
        let (faulty, pool, ids) = faulty_setup(2, 1);
        faulty.arm(FaultPlan::new().transient_at(1, 2));
        // The miss hits a transient fault twice; bounded retry absorbs it.
        assert_eq!(pool.with_page(ids[0], |p| p.get_u64(0)).unwrap(), 0);
        assert_eq!(pool.stats().transient_retries, 2);
        assert_eq!(faulty.injected().transient_errors, 2);
    }

    #[test]
    fn persistent_read_fault_propagates_and_pool_recovers() {
        let (faulty, pool, ids) = faulty_setup(2, 2);
        faulty.arm(FaultPlan::new().read_error_at(1));
        let err = pool.with_page(ids[0], |p| p.get_u64(0)).unwrap_err();
        assert_eq!(err, PageError::read_io(ids[0]));
        // The failed load released its frame; the next access succeeds.
        assert_eq!(pool.with_page(ids[0], |p| p.get_u64(0)).unwrap(), 0);
        assert_eq!(pool.with_page(ids[1], |p| p.get_u64(0)).unwrap(), 1);
    }

    #[test]
    fn failed_writeback_keeps_update_and_skips_victim() {
        let (faulty, pool, ids) = faulty_setup(2, 3);
        // Warm two frames, dirty the first.
        pool.with_page_mut(ids[0], |p| p.put_u64(0, 111)).unwrap();
        pool.with_page(ids[1], |_| ()).unwrap();
        // First write attempt fails persistently: eviction must skip the
        // dirty frame (keeping the update) and evict the clean one.
        faulty.arm(FaultPlan::new().write_error_at(1));
        pool.with_page(ids[2], |_| ()).unwrap();
        faulty.disarm();
        // The update must still be visible through the pool and must reach
        // the device on flush.
        assert_eq!(pool.with_page(ids[0], |p| p.get_u64(0)).unwrap(), 111);
        pool.flush_all().unwrap();
        assert_eq!(faulty.inner().read(ids[0]).get_u64(0), 111);
    }

    /// Victim order is observable (it decides every later hit and miss):
    /// empties before residents, the lowest index among equals, and after
    /// a failed writeback the next least recently used — never just any
    /// other frame.
    #[test]
    fn victim_is_first_empty_then_lru_then_next_best_after_failed_writeback() {
        let (faulty, pool, ids) = faulty_setup(3, 5);
        let frame_of = |pid: PageId| pool.meta.lock().map.get(&pid).copied();
        // Three empties tie on `last_used`: frames fill in index order.
        pool.with_page_mut(ids[0], |p| p.put_u64(0, 7)).unwrap();
        pool.with_page(ids[1], |_| ()).unwrap();
        pool.with_page(ids[2], |_| ()).unwrap();
        assert_eq!(
            [frame_of(ids[0]), frame_of(ids[1]), frame_of(ids[2])],
            [Some(0), Some(1), Some(2)]
        );
        // The LRU frame 0 is dirty and its writeback fails: the victim is
        // frame 1, the next oldest, and frames 0 and 2 keep their pages.
        faulty.arm(FaultPlan::new().write_error_at(1));
        pool.with_page(ids[3], |_| ()).unwrap();
        faulty.disarm();
        assert_eq!(
            [
                frame_of(ids[0]),
                frame_of(ids[1]),
                frame_of(ids[2]),
                frame_of(ids[3])
            ],
            [Some(0), None, Some(2), Some(1)]
        );
        assert_eq!(pool.stats().writebacks, 0);
        // A freed frame is empty again and goes before any resident one,
        // however recently that was used.
        pool.free(ids[2]);
        pool.with_page(ids[4], |_| ()).unwrap();
        assert_eq!(frame_of(ids[4]), Some(2));
        assert_eq!(pool.with_page(ids[0], |p| p.get_u64(0)).unwrap(), 7);
        assert_eq!(pool.stats().misses, 5);
    }

    #[test]
    fn failed_flush_keeps_frames_dirty_for_retry() {
        let (faulty, pool, ids) = faulty_setup(4, 1);
        pool.with_page_mut(ids[0], |p| p.put_u64(0, 55)).unwrap();
        faulty.arm(FaultPlan::new().write_error_at(1));
        assert!(pool.flush_all().is_err());
        faulty.disarm();
        // The frame stayed dirty; a later flush lands the update.
        pool.flush_all().unwrap();
        assert_eq!(faulty.inner().read(ids[0]).get_u64(0), 55);
        assert_eq!(pool.stats().writebacks, 1, "only the success is counted");
    }
}

#[cfg(test)]
mod shadow_model {
    use super::*;
    use crate::disk::Disk;
    use tseries::rng::SeededRng;

    /// Randomized ops against a shadow map: whatever sequence of writes,
    /// reads, flushes and clears runs against the pool, reads must always
    /// see the latest written value, and after a flush the device must too.
    #[test]
    fn pool_is_a_transparent_cache() {
        let mut rng = SeededRng::seed_from_u64(0xB0FF);
        for _ in 0..48 {
            let disk = Arc::new(Disk::new());
            let ids: Vec<PageId> = (0..8).map(|_| disk.alloc()).collect();
            let pool = BufferPool::new(Arc::clone(&disk), rng.random_range(1..6usize));
            let mut shadow = [0u64; 8];
            let device_matches = |shadow: &[u64; 8]| {
                for (i, want) in shadow.iter().enumerate() {
                    assert_eq!(disk.read(ids[i]).get_u64(0), *want);
                }
            };
            for _ in 0..rng.random_range(1..120usize) {
                let page = rng.random_range(0..8usize);
                match rng.random_range(0..4u32) {
                    0 => {
                        let value = rng.next_u64();
                        pool.with_page_mut(ids[page], |p| p.put_u64(0, value))
                            .unwrap();
                        shadow[page] = value;
                    }
                    1 => {
                        let got = pool.with_page(ids[page], |p| p.get_u64(0)).unwrap();
                        assert_eq!(got, shadow[page], "read through the pool");
                    }
                    2 => {
                        pool.flush_all().unwrap();
                        device_matches(&shadow);
                    }
                    _ => pool.clear().unwrap(),
                }
            }
            // Final flush: the device reflects every write.
            pool.flush_all().unwrap();
            device_matches(&shadow);
        }
    }
}
