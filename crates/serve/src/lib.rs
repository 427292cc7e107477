#![warn(missing_docs)]
//! # simserve — serving similarity queries over TCP
//!
//! Turns a persisted [`simquery::index::SeqIndex`] into a network service.
//! Everything is `std`-only (`std::net`, `std::thread`, `std::sync`):
//!
//! * [`protocol`] — the line-oriented request/response protocol (one typed
//!   parser/serializer shared by server and client; see `PROTOCOL.md`);
//! * [`server`] — the `simserved` core: an acceptor and one thread per
//!   connection, which reads, executes and answers its own requests;
//! * [`admission`] — the gate every request passes before it executes:
//!   a **bounded** number run at once, a bounded number wait in arrival
//!   order, and the rest are rejected with `ERR code=BUSY` instead of
//!   piling up (explicit admission control);
//! * [`metrics`] — per-operation counters and log₂-bucketed latency
//!   histograms (p50/p95/p99);
//! * [`expose`] — the `METRICS` exposition, the server's one counter
//!   report (those instruments plus index, WAL, planner, cache and
//!   replication counters), and its decoder for [`client::Client::stats`];
//! * [`client`] — a typed blocking client with connect/read/write
//!   timeouts;
//! * [`failover`] — a multi-endpoint client that chases `ERR READONLY`
//!   and connection failures to the current primary with bounded,
//!   seeded-jitter retries;
//! * [`repl`] — WAL-shipping replication: the primary-side `REPL` feeder
//!   and the follower loop behind `simserved --replicate-from`, plus
//!   `PROMOTE`/fencing failover state;
//! * [`chaos`] — a deterministic fault-injecting TCP proxy for failover
//!   and partition tests;
//! * [`cmd`] — the `serve` and `load` entry points behind `simserved`,
//!   `simload` and the `simseq serve` / `simseq load` subcommands;
//! * [`load`] — the `simload` closed-loop load generator: N concurrent
//!   connections replaying seeded workloads, with optional result-parity
//!   verification against a directly-opened copy of the index.
//!
//! The index is shared across connection threads as one
//! [`simquery::shard::ShardedIndex`] — a group of one shard or many:
//! queries run under read guards (the engines' access counters are
//! atomics, so concurrent queries stay consistent), `INSERT`/`DELETE`
//! take the owning shard's write guard.

pub mod admission;
pub mod chaos;
pub mod client;
pub mod cmd;
pub mod expose;
pub mod failover;
pub mod load;
pub mod metrics;
pub mod opts;
pub mod protocol;
pub mod repl;
pub mod server;
