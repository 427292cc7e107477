//! Graceful-shutdown drain: `ServerHandle::shutdown` must stop
//! accepting, let every in-flight (and already-queued) request finish
//! and answer its client, and reject late submissions with the typed
//! shutting-down error.
//! Admission control stays intact right up to the close: a full queue
//! still answers `ERR code=BUSY`.

use simquery::prelude::*;
use simquery::shared::SharedIndex;
use simserve::client::Client;
use simserve::protocol::{EngineKind, ErrCode, QueryParams, Request, Response, WireThreshold};
use simserve::server::{serve, ServerConfig};
use std::net::TcpStream;
use std::time::Duration;

const SEQ_LEN: usize = 64;

/// One worker, queue depth 1: a slow JOIN occupies the worker, one
/// QUERY sits in the queue, and the rest is deterministic admission.
fn drain_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 1,
        max_conns: 16,
        result_cache: 0,
        ..ServerConfig::default()
    }
}

fn query_params(ord: usize) -> QueryParams {
    QueryParams {
        ord,
        ma: (3, 9),
        threshold: WireThreshold::Rho(0.9),
        engine: EngineKind::Mt,
        limit: 0,
    }
}

/// A JOIN heavy enough (scan engine, wide window family, permissive
/// threshold, ~20k candidate pairs) to keep the single worker busy for
/// the whole choreography below — hundreds of milliseconds in a debug
/// build.
fn slow_join() -> Request {
    Request::Join {
        ma: (2, 32),
        threshold: WireThreshold::Rho(0.0),
        engine: EngineKind::Scan,
        limit: 0,
    }
}

#[test]
fn shutdown_drains_in_flight_and_queued_requests() {
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 200, SEQ_LEN, 0xD8A1);
    let shared = SharedIndex::new(SeqIndex::build(&corpus, IndexConfig::default()).unwrap());
    let handle = serve(shared, &drain_config()).unwrap();
    let addr = handle.addr;
    let metrics = std::sync::Arc::clone(&handle.metrics);

    // A: the in-flight request — a slow JOIN the single worker picks up.
    let a = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let join = c.call(&slow_join()).unwrap();
        // After the drain the connection is still alive, but the queue
        // is closed: a late request gets the typed shutdown error.
        let late = c.call(&Request::Query(query_params(0))).unwrap();
        (join, late)
    });
    std::thread::sleep(Duration::from_millis(150)); // worker now owns the JOIN

    // B: the queued request — admitted (depth 1), waiting for the worker.
    let b = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.call(&Request::Query(query_params(1))).unwrap()
    });
    std::thread::sleep(Duration::from_millis(50)); // B is sitting in the queue

    // C: admission control right before the drain — the queue is full.
    let mut c = Client::connect(addr).unwrap();
    match c.call(&Request::Query(query_params(2))).unwrap() {
        Response::Err {
            code: ErrCode::Busy,
            ..
        } => {}
        other => panic!("a full queue must answer BUSY, got {other:?}"),
    }

    // The drain: returns only after the acceptor AND every worker have
    // been joined — which forces the JOIN and the queued QUERY to have
    // completed and answered their clients.
    handle.shutdown();

    let (join, late) = a.join().unwrap();
    match join {
        Response::Pairs { n, .. } => assert!(n > 0, "the slow JOIN finished with results"),
        other => panic!("the in-flight JOIN must complete, got {other:?}"),
    }
    match late {
        Response::Err {
            code: ErrCode::Server,
            msg,
        } => assert!(
            msg.contains("shutting down"),
            "late requests get the typed shutdown error, got `{msg}`"
        ),
        other => panic!("a post-drain request must be refused, got {other:?}"),
    }
    match b.join().unwrap() {
        Response::Matches { .. } => {}
        other => panic!("the queued QUERY must complete through the drain, got {other:?}"),
    }

    // The admission gate timed it: A and B were both admitted, and B
    // sat behind the JOIN from before C's BUSY until the JOIN finished.
    let wait = metrics.admission_wait();
    assert!(wait.count() >= 2, "A and B passed the gate");
    assert!(
        wait.max_us() >= 50_000,
        "B waited behind the JOIN, max {} µs",
        wait.max_us()
    );

    // Stopped accepting: the listener is gone.
    assert!(
        TcpStream::connect(addr).is_err(),
        "a drained server must refuse new connections"
    );
}

/// An idle server shuts down promptly and refuses connections after.
#[test]
fn idle_shutdown_is_clean() {
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 8, SEQ_LEN, 0x1D7E);
    let shared = SharedIndex::new(SeqIndex::build(&corpus, IndexConfig::default()).unwrap());
    let handle = serve(shared, &drain_config()).unwrap();
    let addr = handle.addr;
    let mut c = Client::connect(addr).unwrap();
    match c.call(&Request::Query(query_params(0))).unwrap() {
        Response::Matches { .. } => {}
        other => panic!("warm-up query failed: {other:?}"),
    }
    c.quit().unwrap();
    handle.shutdown();
    assert!(TcpStream::connect(addr).is_err());
}
