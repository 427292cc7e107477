//! Admission control: the one gate a request passes before it executes.
//!
//! A request runs on its connection's own thread between
//! [`Gate::enter`] and the drop of the [`Permit`] it returns. At most
//! `workers` permits are out at once; at most `queue_depth` callers wait
//! for one, and the next is refused ([`Refused::Full`] → `ERR code=BUSY`)
//! instead of letting latency grow without bound;
//! [`Gate::close_and_drain`] outlasts every caller admitted before it.

use std::sync::{Condvar, Mutex, MutexGuard};

/// Why [`Gate::enter`] turned a caller away.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refused {
    /// `queue_depth` callers are already waiting — shed load.
    Full,
    /// The gate was closed for shutdown.
    Closed,
}

#[derive(Default)]
struct State {
    /// Tickets handed out; a caller's ticket is its place in line.
    issued: u64,
    /// Tickets that got a running slot. `issued - started` callers wait.
    started: u64,
    running: usize,
    closed: bool,
}

/// The admission gate: `workers` running slots behind a FIFO line of at
/// most `queue_depth` waiters.
pub struct Gate {
    state: Mutex<State>,
    changed: Condvar,
    workers: usize,
    queue_depth: usize,
}

/// A running slot, given back on drop — also when the holder unwinds.
pub struct Permit<'a>(&'a Gate);

impl Gate {
    /// A gate letting `workers` callers run while `queue_depth` wait.
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        assert!(workers >= 1, "need at least one running slot");
        Self {
            state: Mutex::default(),
            changed: Condvar::new(),
            workers,
            queue_depth,
        }
    }

    // Every update below leaves `State` valid at each step, so a guard
    // from a poisoned lock is as good as any other.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes a place in line — refused when `queue_depth` callers already
    /// wait, so a depth of 0 admits nothing — then blocks until every
    /// earlier ticket has started and a running slot is free.
    pub fn enter(&self) -> Result<Permit<'_>, Refused> {
        let mut s = self.lock();
        if s.closed {
            return Err(Refused::Closed);
        }
        if s.issued - s.started >= self.queue_depth as u64 {
            return Err(Refused::Full);
        }
        let ticket = s.issued;
        s.issued += 1;
        while s.started != ticket || s.running >= self.workers {
            s = self.changed.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        s.started += 1;
        s.running += 1;
        drop(s);
        // The next ticket may have a free slot too.
        self.changed.notify_all();
        Ok(Permit(self))
    }

    /// Callers currently waiting in line.
    pub fn waiting(&self) -> usize {
        let s = self.lock();
        (s.issued - s.started) as usize
    }

    /// Closes the gate — later [`Gate::enter`] calls get
    /// [`Refused::Closed`] — and blocks until every caller admitted
    /// before that, running or waiting, has dropped its permit.
    pub fn close_and_drain(&self) {
        let mut s = self.lock();
        s.closed = true;
        while s.running > 0 || s.issued != s.started {
            s = self.changed.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.lock().running -= 1;
        self.0.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    /// Spins until `n` callers wait in line — the tests' only way to know
    /// a thread is parked inside `enter`.
    fn await_waiting(gate: &Gate, n: usize) {
        while gate.waiting() != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn running_never_exceeds_workers() {
        let gate = Gate::new(3, 16);
        let (now, high) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let barrier = Barrier::new(16);
        std::thread::scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    barrier.wait();
                    for _ in 0..50 {
                        let _permit = gate.enter().expect("16 callers fit a line of 16");
                        high.fetch_max(now.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                        std::thread::yield_now();
                        now.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert!((1..=3).contains(&high.load(Ordering::SeqCst)));
    }

    #[test]
    fn full_line_refuses_immediately() {
        // One slot, held; two callers fill the line → the third is refused.
        let gate = Gate::new(1, 2);
        let held = gate.enter().unwrap();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| drop(gate.enter().unwrap()));
            }
            await_waiting(&gate, 2);
            assert_eq!(gate.enter().err(), Some(Refused::Full));
            drop(held);
        });
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn zero_depth_admits_nothing() {
        assert_eq!(Gate::new(4, 0).enter().err(), Some(Refused::Full));
    }

    #[test]
    fn close_and_drain_waits_for_admitted_holders() {
        let gate = Gate::new(1, 1);
        let finished = AtomicUsize::new(0);
        let held = gate.enter().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _permit = gate.enter().unwrap();
                finished.fetch_add(1, Ordering::SeqCst);
            });
            await_waiting(&gate, 1);
            let drainer = s.spawn(|| {
                gate.close_and_drain();
                finished.load(Ordering::SeqCst)
            });
            // The line is full until the drainer closes the gate.
            while gate.enter().err() != Some(Refused::Closed) {
                std::thread::yield_now();
            }
            finished.fetch_add(1, Ordering::SeqCst);
            drop(held);
            assert_eq!(drainer.join().unwrap(), 2, "drain outlasted both holders");
        });
        assert_eq!(gate.enter().err(), Some(Refused::Closed));
    }

    #[test]
    fn panicking_holder_returns_its_permit() {
        // If the unwinding holder kept the only slot, the second `enter`
        // would never return and this test would time out on recv.
        let gate = Gate::new(1, 1);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            let panicked = s.spawn(|| {
                let _permit = gate.enter().unwrap();
                panic!("holder blew up");
            });
            assert!(panicked.join().is_err());
            s.spawn(|| tx.send(gate.enter().is_ok()).unwrap());
            assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(true));
        });
    }

    #[test]
    fn waiters_start_in_arrival_order() {
        let gate = Gate::new(1, 3);
        let order = Mutex::new(Vec::new());
        let held = gate.enter().unwrap();
        std::thread::scope(|s| {
            for id in 0..3 {
                let (gate, order) = (&gate, &order);
                s.spawn(move || {
                    let _permit = gate.enter().unwrap();
                    order.lock().unwrap().push(id);
                });
                await_waiting(gate, id + 1);
            }
            drop(held);
        });
        assert_eq!(*order.lock().unwrap(), [0, 1, 2]);
    }
}
