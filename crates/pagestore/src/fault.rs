//! Deterministic fault injection: seeded fault schedules and a faulty
//! page device.
//!
//! A [`FaultPlan`] is a schedule of faults — read errors, write errors,
//! torn writes, transient-then-recovered faults — triggered by access
//! counts or page ranges. [`FaultyDisk`] wraps the in-memory [`Disk`] and
//! applies a plan on every access, implementing the same [`PageDevice`]
//! trait, so the whole stack (buffer pool → heap files → R*-tree →
//! engines) runs unmodified over a failing device.
//!
//! Everything is deterministic: a plan is either built explicitly or
//! generated from a `u64` seed via the in-tree xoshiro PRNG
//! ([`tseries::rng::SeededRng`]), and triggers fire on exact access
//! counts. A failing chaos seed therefore replays bit-for-bit.
//!
//! Torn-write model: the device *silently drops* the write (the old page
//! contents stay) and remembers the page as torn; any later read of a torn
//! page fails with a [`PageErrorKind::Corrupt`](crate::PageErrorKind)
//! error, as a checksum-verifying device would report it. A later
//! *successful* full-page write repairs the tear. Corrupted bytes are thus
//! never observable as data — only as typed errors — which is what lets
//! the chaos harness assert "never a wrong answer".

use crate::disk::{Disk, DiskStats, PageDevice};
use crate::error::PageError;
use crate::page::{Page, PageId};
use crate::sync::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tseries::rng::SeededRng;

/// What a fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The read fails with a persistent I/O error (writes unaffected).
    ReadError,
    /// The write fails with a persistent I/O error; nothing is written.
    WriteError,
    /// The write is silently dropped and the page marked torn; later reads
    /// of the page fail as corrupt until a successful write repairs it.
    TornWrite,
    /// The access fails with a *transient* I/O error; after firing
    /// `recover_after` times the fault is spent and accesses succeed.
    Transient {
        /// How many times the fault fires before recovering.
        recover_after: u32,
    },
}

/// When a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fires when the armed device's access counter (reads + writes,
    /// counted from [`FaultyDisk::arm`]) reaches exactly `n` (1-based).
    /// One-shot for persistent kinds; a [`FaultKind::Transient`] keeps
    /// firing on subsequent accesses until its budget is spent.
    OnAccess(u64),
    /// Fires on every access to a page in `[lo, hi]` (inclusive).
    /// Persistent kinds model a damaged region of the device; a
    /// [`FaultKind::Transient`] fires until its budget is spent.
    OnPageRange {
        /// First affected page id.
        lo: u32,
        /// Last affected page id (inclusive).
        hi: u32,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What happens.
    pub kind: FaultKind,
    /// When it happens.
    pub trigger: Trigger,
}

/// A deterministic schedule of faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

/// Shape parameters for [`FaultPlan::generate`].
#[derive(Debug, Clone, Copy)]
pub struct PlanParams {
    /// Access-count horizon the schedule targets — `OnAccess` triggers are
    /// drawn uniformly from `1..=horizon`.
    pub horizon: u64,
    /// Page-id space — `OnPageRange` triggers are drawn from `0..max_page`.
    pub max_page: u32,
    /// Number of fault specs to draw.
    pub faults: usize,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a spec; builder-style.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// A one-shot read error on access `n`.
    pub fn read_error_at(self, n: u64) -> Self {
        self.with(FaultSpec {
            kind: FaultKind::ReadError,
            trigger: Trigger::OnAccess(n),
        })
    }

    /// A one-shot write error on access `n`.
    pub fn write_error_at(self, n: u64) -> Self {
        self.with(FaultSpec {
            kind: FaultKind::WriteError,
            trigger: Trigger::OnAccess(n),
        })
    }

    /// A one-shot torn write on access `n`.
    pub fn torn_write_at(self, n: u64) -> Self {
        self.with(FaultSpec {
            kind: FaultKind::TornWrite,
            trigger: Trigger::OnAccess(n),
        })
    }

    /// A transient fault starting at access `n`, recovering after firing
    /// `recover_after` times.
    pub fn transient_at(self, n: u64, recover_after: u32) -> Self {
        self.with(FaultSpec {
            kind: FaultKind::Transient { recover_after },
            trigger: Trigger::OnAccess(n),
        })
    }

    /// Persistent read errors on every page in `[lo, hi]`.
    pub fn read_error_on_pages(self, lo: u32, hi: u32) -> Self {
        self.with(FaultSpec {
            kind: FaultKind::ReadError,
            trigger: Trigger::OnPageRange { lo, hi },
        })
    }

    /// The scheduled specs.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Generates a schedule fully determined by `seed` — the chaos
    /// harness's source of "hundreds of fault schedules". Kind mix:
    /// ~40 % read errors, ~20 % write errors, ~20 % torn writes, ~20 %
    /// transient; ~70 % of triggers are access counts, the rest page
    /// ranges.
    pub fn generate(seed: u64, params: &PlanParams) -> Self {
        let mut rng = SeededRng::seed_from_u64(seed);
        let horizon = params.horizon.max(1);
        let max_page = params.max_page.max(1);
        let mut plan = Self::new();
        for _ in 0..params.faults {
            let kind = match rng.random_range(0u32..10) {
                0..=3 => FaultKind::ReadError,
                4 | 5 => FaultKind::WriteError,
                6 | 7 => FaultKind::TornWrite,
                _ => FaultKind::Transient {
                    recover_after: rng.random_range(1u32..=3),
                },
            };
            let trigger = if rng.random_bool(0.7) {
                Trigger::OnAccess(rng.random_range(1u64..=horizon))
            } else {
                let lo = rng.random_range(0u32..max_page);
                let width = rng.random_range(0u32..=(max_page / 8).max(1));
                Trigger::OnPageRange {
                    lo,
                    hi: lo.saturating_add(width),
                }
            };
            plan = plan.with(FaultSpec { kind, trigger });
        }
        plan
    }
}

/// Counts of faults actually injected (not merely scheduled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Reads failed with a persistent error.
    pub read_errors: u64,
    /// Writes failed with a persistent error.
    pub write_errors: u64,
    /// Writes silently torn.
    pub torn_writes: u64,
    /// Accesses failed with a transient error.
    pub transient_errors: u64,
    /// Reads failed because the page was torn.
    pub corrupt_reads: u64,
}

/// Per-spec runtime state: transient budget left, one-shot consumption.
#[derive(Debug, Clone)]
struct SpecState {
    spec: FaultSpec,
    /// Remaining fires for transient faults; `u32::MAX` ⇒ not transient.
    remaining: u32,
    consumed: bool,
}

#[derive(Debug, Default)]
struct FaultState {
    specs: Vec<SpecState>,
    /// Accesses since the plan was armed (1-based at check time).
    accesses: u64,
    /// Pages whose last write was torn; reads fail until rewritten.
    torn: HashSet<PageId>,
}

/// A fault-injecting wrapper around [`Disk`], implementing [`PageDevice`].
///
/// Unarmed (no plan), it behaves exactly like the inner disk. Arm a
/// [`FaultPlan`] with [`arm`](Self::arm) and every subsequent access is
/// checked against the schedule. [`disarm`](Self::disarm) drops whatever
/// remains of the plan; torn pages stay torn until successfully rewritten
/// (or [`heal`](Self::heal)ed), because device damage outlives the fault
/// campaign.
pub struct FaultyDisk {
    inner: Arc<Disk>,
    state: Mutex<FaultState>,
    read_errors: AtomicU64,
    write_errors: AtomicU64,
    torn_writes: AtomicU64,
    transient_errors: AtomicU64,
    corrupt_reads: AtomicU64,
}

impl FaultyDisk {
    /// Wraps `inner` with no plan armed.
    pub fn new(inner: Arc<Disk>) -> Self {
        Self {
            inner,
            state: Mutex::new(FaultState::default()),
            read_errors: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            torn_writes: AtomicU64::new(0),
            transient_errors: AtomicU64::new(0),
            corrupt_reads: AtomicU64::new(0),
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &Arc<Disk> {
        &self.inner
    }

    /// Arms `plan`, resetting the access counter to zero. Torn marks from
    /// a previous campaign persist (the damage is on the device, not in
    /// the plan).
    pub fn arm(&self, plan: FaultPlan) {
        let mut st = self.state.lock();
        st.specs = plan
            .specs
            .into_iter()
            .map(|spec| SpecState {
                remaining: match spec.kind {
                    FaultKind::Transient { recover_after } => recover_after,
                    _ => u32::MAX,
                },
                spec,
                consumed: false,
            })
            .collect();
        st.accesses = 0;
    }

    /// Drops whatever remains of the armed plan. Torn pages stay torn.
    pub fn disarm(&self) {
        let mut st = self.state.lock();
        st.specs.clear();
        st.accesses = 0;
    }

    /// Repairs every torn page (as a scrubber restoring replicas would).
    pub fn heal(&self) {
        self.state.lock().torn.clear();
    }

    /// Pages currently marked torn.
    pub fn torn_pages(&self) -> Vec<PageId> {
        let mut v: Vec<PageId> = self.state.lock().torn.iter().copied().collect();
        v.sort();
        v
    }

    /// Counts of faults injected so far.
    pub fn injected(&self) -> FaultCounters {
        FaultCounters {
            read_errors: self.read_errors.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            torn_writes: self.torn_writes.load(Ordering::Relaxed),
            transient_errors: self.transient_errors.load(Ordering::Relaxed),
            corrupt_reads: self.corrupt_reads.load(Ordering::Relaxed),
        }
    }

    /// Total faults injected (shorthand for summing [`Self::injected`]).
    pub fn injected_total(&self) -> u64 {
        let c = self.injected();
        c.read_errors + c.write_errors + c.torn_writes + c.transient_errors + c.corrupt_reads
    }

    /// Checks the plan for a fault firing on this access; must be called
    /// with the state locked, once per device access.
    fn firing(st: &mut FaultState, is_read: bool, pid: PageId) -> Option<FaultKind> {
        st.accesses += 1;
        let now = st.accesses;
        for s in st.specs.iter_mut() {
            if s.consumed {
                continue;
            }
            let applies = match s.spec.kind {
                FaultKind::ReadError => is_read,
                FaultKind::WriteError | FaultKind::TornWrite => !is_read,
                FaultKind::Transient { .. } => true,
            };
            if !applies {
                continue;
            }
            let transient = matches!(s.spec.kind, FaultKind::Transient { .. });
            let hit = match s.spec.trigger {
                // One-shot kinds fire at exactly n; transients keep firing
                // from n until their budget runs out.
                Trigger::OnAccess(n) => {
                    if transient {
                        now >= n
                    } else {
                        now == n
                    }
                }
                Trigger::OnPageRange { lo, hi } => (lo..=hi).contains(&pid.0),
            };
            if !hit {
                continue;
            }
            if transient {
                s.remaining -= 1;
                if s.remaining == 0 {
                    s.consumed = true;
                }
            } else if matches!(s.spec.trigger, Trigger::OnAccess(_)) {
                s.consumed = true;
            }
            return Some(s.spec.kind);
        }
        None
    }

    /// The fault gate every read access passes — [`PageDevice::read`] and
    /// [`PageDevice::with_page`] alike, so a borrowed read is one `firing`
    /// and fails exactly where a copied one would. The state lock is held
    /// for the gate only, never while the page is being read.
    fn read_gate(&self, pid: PageId) -> Result<(), PageError> {
        let mut st = self.state.lock();
        match Self::firing(&mut st, true, pid) {
            Some(FaultKind::ReadError) => {
                drop(st);
                self.read_errors.fetch_add(1, Ordering::Relaxed);
                return Err(PageError::read_io(pid));
            }
            Some(FaultKind::Transient { .. }) => {
                drop(st);
                self.transient_errors.fetch_add(1, Ordering::Relaxed);
                return Err(PageError::read_io(pid).transient());
            }
            _ => {}
        }
        if st.torn.contains(&pid) {
            drop(st);
            self.corrupt_reads.fetch_add(1, Ordering::Relaxed);
            return Err(PageError::corrupt(pid));
        }
        Ok(())
    }
}

impl PageDevice for FaultyDisk {
    fn alloc(&self) -> PageId {
        self.inner.alloc()
    }

    fn free(&self, pid: PageId) {
        self.state.lock().torn.remove(&pid);
        self.inner.free(pid)
    }

    fn read(&self, pid: PageId) -> Result<Page, PageError> {
        self.read_gate(pid)?;
        PageDevice::read(&*self.inner, pid)
    }

    fn with_page(&self, pid: PageId, f: &mut dyn FnMut(&Page)) -> Result<(), PageError> {
        self.read_gate(pid)?;
        PageDevice::with_page(&*self.inner, pid, f)
    }

    fn write(&self, pid: PageId, page: &Page) -> Result<(), PageError> {
        let mut st = self.state.lock();
        match Self::firing(&mut st, false, pid) {
            Some(FaultKind::WriteError) => {
                drop(st);
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                return Err(PageError::write_io(pid));
            }
            Some(FaultKind::TornWrite) => {
                // Silently dropped: old contents stay, page marked torn.
                st.torn.insert(pid);
                drop(st);
                self.torn_writes.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            Some(FaultKind::Transient { .. }) => {
                drop(st);
                self.transient_errors.fetch_add(1, Ordering::Relaxed);
                return Err(PageError::write_io(pid).transient());
            }
            _ => {}
        }
        // A successful full-page write repairs an earlier tear.
        st.torn.remove(&pid);
        drop(st);
        self.inner.write(pid, page);
        Ok(())
    }

    fn stats(&self) -> DiskStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> (Arc<Disk>, FaultyDisk, PageId) {
        let disk = Arc::new(Disk::new());
        let pid = disk.alloc();
        let mut p = Page::zeroed();
        p.put_u64(0, 99);
        disk.write(pid, &p);
        (Arc::clone(&disk), FaultyDisk::new(disk), pid)
    }

    #[test]
    fn unarmed_is_transparent() {
        let (_d, fd, pid) = device();
        assert_eq!(fd.read(pid).unwrap().get_u64(0), 99);
        let mut p = Page::zeroed();
        p.put_u64(0, 7);
        fd.write(pid, &p).unwrap();
        assert_eq!(fd.read(pid).unwrap().get_u64(0), 7);
        assert_eq!(fd.injected_total(), 0);
    }

    #[test]
    fn read_error_fires_once_on_exact_access() {
        let (_d, fd, pid) = device();
        fd.arm(FaultPlan::new().read_error_at(2));
        assert!(fd.read(pid).is_ok(), "access 1 clean");
        let err = fd.read(pid).unwrap_err();
        assert_eq!(err, PageError::read_io(pid));
        assert!(fd.read(pid).is_ok(), "one-shot: access 3 clean");
        assert_eq!(fd.injected().read_errors, 1);
    }

    /// A borrowed read is one access through the same gate as a copied
    /// one: `OnAccess` numbers do not shift, the reader does not run on a
    /// fault, and a torn page is a typed error, never bytes.
    #[test]
    fn with_page_passes_the_same_gate_as_read() {
        let (_d, fd, pid) = device();
        let peek = |fd: &FaultyDisk| {
            let mut seen = None;
            fd.with_page(pid, &mut |p| seen = Some(p.get_u64(0)))
                .map(|()| seen.expect("reader ran"))
        };
        fd.arm(FaultPlan::new().read_error_at(2).torn_write_at(4));
        assert_eq!(peek(&fd), Ok(99), "access 1 clean");
        let mut ran = false;
        let err = fd.with_page(pid, &mut |_| ran = true).unwrap_err();
        assert_eq!(err, PageError::read_io(pid));
        assert!(!ran, "the reader must not run on a failed access");
        assert_eq!(peek(&fd), Ok(99), "one-shot: access 3 clean");
        fd.write(pid, &Page::zeroed()).unwrap(); // access 4, silently torn
        assert_eq!(peek(&fd), Err(PageError::corrupt(pid)));
        let c = fd.injected();
        assert_eq!((c.read_errors, c.torn_writes, c.corrupt_reads), (1, 1, 1));
        assert_eq!(fd.stats().reads, 2, "failed accesses never reach the disk");
    }

    /// A page id read from a file can name a page that was never
    /// allocated, or was freed: a typed corrupt-page error from both
    /// devices' fallible reads, never a panic, and the reader never runs.
    #[test]
    fn reads_of_unallocated_pages_are_corrupt() {
        let (d, fd, pid) = device();
        let freed = d.alloc();
        d.free(freed);
        for dev in [&*d as &dyn PageDevice, &fd] {
            for bad in [freed, PageId(pid.0 + 40), PageId::INVALID] {
                assert_eq!(dev.read(bad).unwrap_err(), PageError::corrupt(bad));
                let mut ran = false;
                let err = dev.with_page(bad, &mut |_| ran = true).unwrap_err();
                assert_eq!((err, ran), (PageError::corrupt(bad), false));
            }
            assert_eq!(dev.read(pid).unwrap().get_u64(0), 99);
        }
    }

    #[test]
    fn write_error_leaves_old_contents() {
        let (_d, fd, pid) = device();
        fd.arm(FaultPlan::new().write_error_at(1));
        let mut p = Page::zeroed();
        p.put_u64(0, 1234);
        assert_eq!(fd.write(pid, &p).unwrap_err(), PageError::write_io(pid));
        assert_eq!(fd.read(pid).unwrap().get_u64(0), 99, "old data intact");
    }

    #[test]
    fn torn_write_detected_on_read_and_repaired_by_rewrite() {
        let (_d, fd, pid) = device();
        fd.arm(FaultPlan::new().torn_write_at(1));
        let mut p = Page::zeroed();
        p.put_u64(0, 1234);
        fd.write(pid, &p).unwrap(); // silently torn
        assert_eq!(fd.injected().torn_writes, 1);
        assert_eq!(fd.read(pid).unwrap_err(), PageError::corrupt(pid));
        assert_eq!(fd.torn_pages(), vec![pid]);
        // Rewriting repairs the tear.
        fd.write(pid, &p).unwrap();
        assert_eq!(fd.read(pid).unwrap().get_u64(0), 1234);
        assert!(fd.torn_pages().is_empty());
    }

    #[test]
    fn transient_fault_recovers_after_budget() {
        let (_d, fd, pid) = device();
        fd.arm(FaultPlan::new().transient_at(1, 2));
        let e1 = fd.read(pid).unwrap_err();
        assert!(e1.transient);
        let e2 = fd.read(pid).unwrap_err();
        assert!(e2.transient);
        assert_eq!(fd.read(pid).unwrap().get_u64(0), 99, "recovered");
        assert_eq!(fd.injected().transient_errors, 2);
    }

    #[test]
    fn page_range_faults_are_persistent() {
        let (d, fd, pid) = device();
        let other = d.alloc();
        fd.arm(FaultPlan::new().read_error_on_pages(pid.0, pid.0));
        assert!(fd.read(pid).is_err());
        assert!(fd.read(pid).is_err(), "range faults keep firing");
        assert!(fd.read(other).is_ok(), "outside the range is clean");
    }

    #[test]
    fn disarm_stops_injection_heal_clears_tears() {
        let (_d, fd, pid) = device();
        fd.arm(
            FaultPlan::new()
                .torn_write_at(1)
                .read_error_on_pages(0, 1000),
        );
        let p = Page::zeroed();
        fd.write(pid, &p).unwrap(); // torn
        assert!(fd.read(pid).is_err());
        fd.disarm();
        // Plan gone, but the tear persists...
        assert_eq!(fd.read(pid).unwrap_err(), PageError::corrupt(pid));
        // ...until healed.
        fd.heal();
        assert_eq!(fd.read(pid).unwrap().get_u64(0), 99);
    }

    #[test]
    fn generated_plans_are_deterministic_and_vary_by_seed() {
        let params = PlanParams {
            horizon: 500,
            max_page: 64,
            faults: 8,
        };
        let a = FaultPlan::generate(42, &params);
        let b = FaultPlan::generate(42, &params);
        assert_eq!(a, b, "same seed, same plan");
        assert_eq!(a.specs().len(), 8);
        let c = FaultPlan::generate(43, &params);
        assert_ne!(a, c, "different seed, different plan");
    }

    #[test]
    fn generated_plans_respect_bounds() {
        let params = PlanParams {
            horizon: 100,
            max_page: 32,
            faults: 64,
        };
        for seed in 0..20u64 {
            for spec in FaultPlan::generate(seed, &params).specs() {
                match spec.trigger {
                    Trigger::OnAccess(n) => assert!((1..=100).contains(&n)),
                    Trigger::OnPageRange { lo, hi } => {
                        assert!(lo < 32);
                        assert!(hi >= lo);
                    }
                }
                if let FaultKind::Transient { recover_after } = spec.kind {
                    assert!((1..=3).contains(&recover_after));
                }
            }
        }
    }
}
