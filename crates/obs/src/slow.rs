//! The slow-query log: a threshold and a count of the queries that met it.
//!
//! The check is a single atomic load against the measured total latency,
//! so the fast path pays nothing beyond the comparison. A query fires the
//! log **iff** `total_us >= threshold_us` — the boundary is inclusive, and
//! the exactness test in `crates/serve` pins it there. What a slow query
//! did is not kept here: per-query detail lives in the trace ring (the
//! `plan.build` / `plan.execute` spans) and in `EXPLAIN`.

use std::sync::atomic::{AtomicU64, Ordering};

/// A firing threshold and the number of queries that met it.
pub struct SlowLog {
    threshold_us: AtomicU64,
    fired: AtomicU64,
}

impl Default for SlowLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SlowLog {
    /// A disabled log (threshold `u64::MAX`).
    pub fn new() -> Self {
        Self {
            threshold_us: AtomicU64::new(u64::MAX),
            fired: AtomicU64::new(0),
        }
    }

    /// Sets the inclusive firing threshold (µs). 0 counts every query,
    /// `u64::MAX` disables the log.
    pub fn set_threshold_us(&self, us: u64) {
        self.threshold_us.store(us, Ordering::Relaxed);
    }

    /// Gates `total_us` against the threshold and counts a fire. Returns
    /// whether it fired.
    pub fn observe(&self, total_us: u64) -> bool {
        if total_us < self.threshold_us.load(Ordering::Relaxed) {
            return false;
        }
        self.fired.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Queries that met the threshold so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_at_the_threshold() {
        let log = SlowLog::new();
        log.set_threshold_us(1000);
        assert!(!log.observe(999), "below: no fire");
        assert!(log.observe(1000), "inclusive boundary");
        assert!(log.observe(1001));
        assert_eq!(log.fired(), 2);
    }

    #[test]
    fn disabled_by_default() {
        let log = SlowLog::new();
        assert!(
            !log.observe(u64::MAX - 1),
            "u64::MAX threshold never fires short of MAX"
        );
        assert_eq!(log.fired(), 0);
        log.set_threshold_us(0);
        assert!(log.observe(0), "threshold 0 counts everything");
        assert_eq!(log.fired(), 1);
    }
}
