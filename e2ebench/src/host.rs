//! How fast the machine is right now, by a reference kernel of fixed work.
//!
//! The sandbox gives the benchmark two virtual cores of a shared host.
//! Whenever the neighbours are busy the same code runs up to 1.7 times
//! slower, in bursts of a few hundredths of a second and in states that
//! last minutes: runs of one commit then differ by more than any bound the
//! contract allows, and no percentile taken inside a run helps when the
//! whole run was slow. So every client of the closed loop runs this kernel
//! between two of its ops, 1 % of the time, and what a segment of the loop
//! measured is divided by how much slower than on a quiet host the kernel
//! ran meanwhile. The kernel is part of the benchmark, not of the program:
//! a change to the program moves the program's time and leaves the
//! kernel's alone.
//!
//! The kernel is one part memory latency (a pointer chase through a table
//! larger than what a core keeps to itself) and three parts arithmetic
//! throughput (sums over an array that fits the first-level cache). Both
//! parts were timed every 10 ms inside 30 s runs of `range_broad` and
//! `range_selective` while the host went through its states: the op rate
//! of either workload followed this mix more closely than it followed
//! either part alone (quartile spread of the corrected rate over eight
//! runs of one seed 2–3 %, against 5–28 % uncorrected).

use std::time::Instant;

/// 8 MiB of `u32`, twice what a core of the sandbox keeps to itself, so
/// that a step misses that cache whatever the program left in it: a
/// single cycle through every entry, in seeded random order, each step a
/// load that depends on the one before it.
const CHASE_ENTRIES: usize = 1 << 21;
const CHASE_STEPS: usize = 1024;
const SUM_VALUES: usize = 1024;
const SUM_ROUNDS: usize = 480;
const BRACKET_REPEATS: usize = 15;

/// What the two parts take on a quiet host of the kind the benchmark was
/// written on (the 5th percentile of some thousand samples), in ns. On
/// another machine they only fix the scale of the corrected metrics; what
/// two runs on one machine compare by does not depend on them.
const QUIET_CHASE_NS: f64 = 150_000.0;
const QUIET_SUM_NS: f64 = 92_000.0;
const CHASE_SHARE: f64 = 0.25;

/// What the kernel's table adds to the resident memory of the process.
pub const TABLE_MIB: f64 = (CHASE_ENTRIES * 4) as f64 / (1024.0 * 1024.0);

pub struct Reference {
    table: Vec<u32>,
    values: Vec<f64>,
}

/// One thread's place in the reference kernel.
pub struct Probe<'a> {
    reference: &'a Reference,
    at: u32,
}

impl Default for Reference {
    fn default() -> Self {
        // Sattolo's shuffle of the identity leaves one cycle through all
        // entries; xorshift64 keeps the order the same on every run.
        let mut table: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        for i in (1..CHASE_ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            table.swap(i, (x % i as u64) as usize);
        }
        Self {
            table,
            values: (0..SUM_VALUES).map(|i| i as f64 * 0.5).collect(),
        }
    }
}

impl Reference {
    /// The probe of the `nth` thread.
    pub fn probe(&self, nth: usize) -> Probe<'_> {
        // The cycle visits entries in no order, so any distinct starts
        // keep threads off each other's cache lines.
        Probe {
            reference: self,
            at: (nth % CHASE_ENTRIES) as u32,
        }
    }
}

impl Probe<'_> {
    fn chase_ns(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..CHASE_STEPS {
            self.at = self.reference.table[self.at as usize];
        }
        std::hint::black_box(self.at);
        t.elapsed().as_nanos() as f64
    }

    fn sum_ns(&self) -> f64 {
        let t = Instant::now();
        let mut sums = [0f64; 8];
        let mut mixed = [1u64; 4];
        for _ in 0..SUM_ROUNDS {
            for (i, chunk) in self.reference.values.chunks_exact(8).enumerate() {
                for (k, sum) in sums.iter_mut().enumerate() {
                    *sum += chunk[k] * 1.000_001 + k as f64;
                }
                mixed[i & 3] = mixed[i & 3]
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .rotate_left(13)
                    ^ i as u64;
            }
        }
        std::hint::black_box((sums, mixed));
        t.elapsed().as_nanos() as f64
    }

    /// Runs the kernel once, a quarter of a millisecond: how many times
    /// its quiet-host time it took.
    pub fn slowdown(&mut self) -> f64 {
        let (chase, sum) = (self.chase_ns(), self.sum_ns());
        CHASE_SHARE * chase / QUIET_CHASE_NS + (1.0 - CHASE_SHARE) * sum / QUIET_SUM_NS
    }

    /// The median of `BRACKET_REPEATS` runs of the kernel.
    fn settled(&mut self) -> f64 {
        let mut runs: Vec<f64> = (0..BRACKET_REPEATS).map(|_| self.slowdown()).collect();
        crate::report::median(&mut runs)
    }

    /// Runs `work`, which cannot be interrupted for samples, between two.
    /// Returns what it returned, how long it took in seconds, and how
    /// many times slower than a quiet host the machine was around it.
    pub fn bracket<R>(&mut self, work: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = self.settled();
        let t = Instant::now();
        let result = work();
        let seconds = t.elapsed().as_secs_f64();
        let after = self.settled();
        (result, seconds, (before + after) / 2.0)
    }
}
