//! Fault injection over a live loopback connection: a `simserved` instance
//! serving an index built on fault-injecting devices. Device errors must
//! surface as `ERR IO` frames — the connection stays open, later
//! fault-free requests succeed — and the per-op STATS counters must
//! account for every request and every error exactly.

mod common;

use common::test_config;
use pagestore::{Disk, FaultPlan, FaultyDisk, PageDevice};
use simquery::prelude::*;
use simserve::client::Client;
use simserve::protocol::{EngineKind, ErrCode, QueryParams, Response, WireThreshold};
use simserve::server::{serve, ServerHandle};
use std::sync::Arc;

/// A served index whose devices the test can arm and disarm.
struct FaultedServer {
    tree: Arc<FaultyDisk>,
    heap: Arc<FaultyDisk>,
    handle: ServerHandle,
}

impl FaultedServer {
    fn start(n: usize, seed: u64) -> Self {
        let corpus = Corpus::generate(CorpusKind::SyntheticWalks, n, 64, seed);
        let tree = Arc::new(FaultyDisk::new(Arc::new(Disk::new())));
        let heap = Arc::new(FaultyDisk::new(Arc::new(Disk::new())));
        let index = SeqIndex::build_on(
            &corpus,
            IndexConfig::default(),
            Arc::clone(&tree) as Arc<dyn PageDevice>,
            Arc::clone(&heap) as Arc<dyn PageDevice>,
        )
        .expect("unarmed faulty devices are healthy")
        .expect("corpus is non-empty");
        let handle = serve(SharedIndex::new(index), &test_config()).unwrap();
        Self { tree, heap, handle }
    }

    /// Persistent read errors on every page of both devices. Page-range
    /// triggers (not access counts) keep the behaviour independent of how
    /// many pages the buffer pool happens to have cached.
    fn break_reads(&self) {
        self.tree
            .arm(FaultPlan::new().read_error_on_pages(0, u32::MAX));
        self.heap
            .arm(FaultPlan::new().read_error_on_pages(0, u32::MAX));
    }

    fn repair(&self) {
        self.tree.disarm();
        self.heap.disarm();
    }
}

fn query_params(ord: usize) -> QueryParams {
    QueryParams {
        ord,
        ma: (4, 10),
        threshold: WireThreshold::Rho(0.95),
        engine: EngineKind::Mt,
        limit: 0,
    }
}

fn assert_io_err(response: &Response) {
    assert!(
        matches!(
            response,
            Response::Err {
                code: ErrCode::Io,
                ..
            }
        ),
        "expected ERR IO, got {response:?}"
    );
}

/// The acceptance scenario: device faults yield `ERR IO` frames, the
/// connection survives, and once the device recovers the *same connection*
/// serves the exact pre-fault results again.
#[test]
fn faulted_requests_return_err_io_then_recover_on_same_connection() {
    let fs = FaultedServer::start(40, 31);
    let mut client = Client::connect(fs.handle.addr).unwrap();

    // Fault-free baseline.
    let (n_base, matches_base) = client.query(query_params(5)).unwrap().unwrap();

    // Break the devices: every query verb now degrades to a typed frame.
    fs.break_reads();
    assert_io_err(&client.query(query_params(5)).unwrap().unwrap_err());
    assert_io_err(&client.knn(5, 3, (4, 10)).unwrap().unwrap_err());
    assert_io_err(
        &client
            .join((4, 10), WireThreshold::Rho(0.97))
            .unwrap()
            .unwrap_err(),
    );
    // INFO reads no pages; the connection is demonstrably still healthy
    // even while the device is down.
    assert!(client.info().unwrap().is_ok());

    // Repair and replay: same connection, exact pre-fault answer.
    fs.repair();
    let (n, matches) = client.query(query_params(5)).unwrap().unwrap();
    assert_eq!(n, n_base);
    assert_eq!(
        matches
            .iter()
            .map(|m| (m.seq, m.transform))
            .collect::<Vec<_>>(),
        matches_base
            .iter()
            .map(|m| (m.seq, m.transform))
            .collect::<Vec<_>>(),
        "post-recovery result must equal the pre-fault result"
    );
    assert!(
        fs.tree.injected_total() + fs.heap.injected_total() > 0,
        "the fault campaign never fired"
    );
    client.quit().unwrap();
    fs.handle.shutdown();
}

/// STATS accounting is exact: every request of a scripted workload lands in
/// its op's `count`, every `ERR` (including the `ERR IO` path) in its
/// `errors`, with nothing double-counted and nothing dropped.
#[test]
fn stats_deltas_are_exact_for_scripted_workload_including_io_errors() {
    let fs = FaultedServer::start(30, 37);
    let mut client = Client::connect(fs.handle.addr).unwrap();

    // 5 clean queries, 2 faulted (ERR IO), 2 clean again: query 9/2.
    for ord in 0..5 {
        client.query(query_params(ord)).unwrap().unwrap();
    }
    fs.break_reads();
    for ord in 0..2 {
        assert_io_err(&client.query(query_params(ord)).unwrap().unwrap_err());
    }
    fs.repair();
    for ord in 5..7 {
        client.query(query_params(ord)).unwrap().unwrap();
    }
    // One of each remaining verb, all clean.
    client.knn(3, 4, (4, 10)).unwrap().unwrap();
    client
        .join((4, 10), WireThreshold::Rho(0.97))
        .unwrap()
        .unwrap();
    let values = {
        // Round-trip an existing series back in as a fresh row.
        let (_, m) = client.query(query_params(0)).unwrap().unwrap();
        assert!(!m.is_empty());
        client.info().unwrap().unwrap(); // info #1
        Corpus::generate(CorpusKind::SyntheticWalks, 1, 64, 99).series()[0]
            .values()
            .to_vec()
    };
    let ord = client.insert(values).unwrap().unwrap();
    assert!(client.delete(ord).unwrap().unwrap());
    client.info().unwrap().unwrap(); // info #2

    let stats = client.stats(false).unwrap().unwrap();
    let line = |op: &str| {
        stats
            .ops
            .iter()
            .find(|o| o.op == op)
            .unwrap_or_else(|| panic!("missing {op} line in {stats:?}"))
    };
    // 9 scripted + 1 extra query used to source the insert values.
    assert_eq!((line("query").count, line("query").errors), (10, 2));
    assert_eq!((line("knn").count, line("knn").errors), (1, 0));
    assert_eq!((line("join").count, line("join").errors), (1, 0));
    assert_eq!((line("insert").count, line("insert").errors), (1, 0));
    assert_eq!((line("delete").count, line("delete").errors), (1, 0));
    assert_eq!((line("info").count, line("info").errors), (2, 0));
    // The in-flight STATS itself is recorded only after its report is
    // built, so it must not appear yet.
    assert!(!stats.ops.iter().any(|o| o.op == "stats"), "{stats:?}");
    assert_eq!(stats.busy_rejected, 0);
    assert!(stats.counters_total.0 > 0, "tree reads recorded");
    assert!(stats.counters_delta.0 > 0, "delta since server start");

    // A second STATS now sees the first one, all other counts unchanged.
    let stats2 = client.stats(false).unwrap().unwrap();
    let sline = stats2.ops.iter().find(|o| o.op == "stats").unwrap();
    assert_eq!((sline.count, sline.errors), (1, 0));
    let qline = stats2.ops.iter().find(|o| o.op == "query").unwrap();
    assert_eq!((qline.count, qline.errors), (10, 2));

    client.quit().unwrap();
    fs.handle.shutdown();
}
