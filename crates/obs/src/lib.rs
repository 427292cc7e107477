//! Observability substrate for the workspace: a metrics registry of named
//! counters and log₂ histograms, a lightweight span tracer, and a
//! slow-query counter.
//!
//! Like `simwal`, this crate is deliberately dependency-free (std only) so
//! every other crate — including the WAL underneath the storage layer — can
//! instrument its hot paths without cycles or registry access. The design
//! constraints, in order:
//!
//! 1. **Never block a hot path.** Instruments are plain atomics; the trace
//!    ring uses `try_lock` and counts a drop instead of waiting; the slow
//!    log is one comparison and, when it fires, one increment.
//! 2. **Bounded memory.** The trace ring is a fixed-capacity ring; an idle
//!    reader cannot make a busy writer accumulate.
//! 3. **One source of truth.** The same atomic a `STATS` report reads is
//!    the one the Prometheus-style exposition renders, so the two views
//!    agree exactly by construction rather than by reconciliation. Gauges
//!    are not kept at all: [`Exposition::gauge`] renders each one from its
//!    source at exposition time.
//!
//! Span tracing ([`trace`]) is sampled per *root* span with a seeded
//! deterministic PRNG: a root decides once whether its whole tree is
//! recorded, children inherit the decision through a thread-local, and an
//! unsampled span costs two thread-local reads and no clock call.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod metrics;
pub mod slow;
pub mod trace;

pub use metrics::{Counter, Exposition, Histogram, MetricsRegistry};
pub use slow::SlowLog;
pub use trace::{span, Span, TraceEvent, Tracer};
