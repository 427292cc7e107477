//! The traced run: spans recorded from outside, around the calls into
//! each layer's public functions, and the per-layer metrics they give.
//!
//! Every probe replays the first reads of client 0 with one client, so
//! counts repeat exactly. The program itself is not instrumented: a
//! layer below a public entry point (the tree under `execute_plan`, say)
//! is timed by calling it again on its own right after the parent call,
//! and recorded as that parent's child. Self time is therefore computed
//! on durations — parent minus children — not on interval overlap.

use crate::backend::{
    build_sharded, dir_bytes, server_config, wire_request, Backend, Bench, Scratch,
};
use crate::metrics::Rows;
use crate::report::{median, Json};
use crate::workload::{Op, Read, FSYNC, POOL_PAGES};
use simquery::engine::mtindex;
use simquery::feature::{FRect, SeqFeatures, MAG_DIMS};
use simquery::index::SeqIndex;
use simquery::plan::{
    self, EngineChoice, EnginePref, LogicalVerb, PhysicalPlan, PlanCache, PlanOutput, Planner,
    QueryEpoch,
};
use simquery::shared::SharedIndex;
use simquery::stats::StatsRegistry;
use simquery::tmbr::TransformMbr;
use simserve::client::Client;
use simserve::protocol::{Request, Response};
use simserve::server::serve;
use simshard::{gather, ShardedIndex};
use std::sync::Arc;
use std::time::Instant;
use tseries::rng::SeededRng;
use tseries::{random_walk, TimeSeries};

/// Ops the planner-regret probe runs under every engine; ST on a broad
/// query costs several times the op itself.
const REGRET_OPS: usize = 10;
const MICRO_SAMPLES: usize = 2000;
const WAL_INSERTS: usize = 64;

pub struct Span {
    op_id: usize,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory and written out when the run ends. A span's id
/// is its position.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Records `f` as a span and returns its id with `f`'s result.
    pub fn span<R>(
        &mut self,
        op_id: usize,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            op_id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1, out)
    }

    fn ms(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e6
    }

    /// Median duration of the spans called `name`.
    fn median_ms(&self, name: &str) -> f64 {
        let mut ms: Vec<f64> = (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| self.ms(id))
            .collect();
        median(&mut ms)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("op_id", Json::Num(s.op_id as f64)),
                        ("span_id", Json::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// The ops every probe replays, and the id of each op's root span.
pub struct Replay {
    pub ords: Vec<usize>,
    pub roots: Vec<usize>,
}

/// Replays `ords` through the backend with client 0, each op once
/// untraced and once under a root span. Which of the two goes first
/// alternates from op to op, so that whatever the first run of an op
/// leaves behind for the second (a cached result, warm pages) helps both
/// sides equally. Returns the replay, how many ops failed, and the
/// tracing overhead in percent of the untraced time.
pub fn replay(bench: &mut Bench, tracer: &mut Tracer, ords: Vec<usize>) -> (Replay, usize, f64) {
    let ctx = &bench.ctx;
    let mut conns = bench.backend.conns();
    let conn = &mut conns[0];
    let (mut failed, mut untraced_s) = (0, 0.0);
    let mut roots = Vec::with_capacity(ords.len());
    for (i, &ord) in ords.iter().enumerate() {
        let op = Op::Read { ord };
        for traced in [i % 2 == 0, i % 2 != 0] {
            if traced {
                let (id, answer) = tracer.span(i, None, "bench.op", || conn.run(ctx, &op));
                failed += answer.is_err() as usize;
                roots.push(id);
            } else {
                let t = Instant::now();
                failed += conn.run(ctx, &op).is_err() as usize;
                untraced_s += t.elapsed().as_secs_f64();
            }
        }
    }
    let traced_s: f64 = roots.iter().map(|&id| tracer.ms(id) / 1e3).sum();
    (
        Replay { ords, roots },
        failed,
        (traced_s / untraced_s - 1.0) * 100.0,
    )
}

/// `knn::knn`'s node bound, which the crate keeps private: √2 × the gap
/// on the magnitude dimensions.
fn mindist_bound(data: &FRect, qregion: &FRect) -> f64 {
    let acc: f64 = MAG_DIMS
        .iter()
        .map(|&d| {
            let gap = (data.lo[d] - qregion.hi[d])
                .max(qregion.lo[d] - data.hi[d])
                .max(0.0);
            gap * gap
        })
        .sum();
    (2.0 * acc).sqrt()
}

/// Best-first descent for the 10 nearest feature points — the tree's
/// share of a kNN, with no record fetched.
fn nearest_probe(flat: &SeqIndex, bench: &Bench, q: &TimeSeries) {
    let mbr = TransformMbr::of_family(&bench.ctx.lq.family);
    let qf = flat.prepare_query(q).expect("query has the indexed length");
    let qregion = mbr.apply_to_point(&qf.point);
    let k = match bench.ctx.spec.read {
        Read::Knn { k } => k,
        Read::Range { .. } => 10,
    };
    let found = flat
        .nearest_by(
            k,
            |rect| mindist_bound(&mbr.apply_to_rect(rect), &qregion),
            |rect, _| Some(mindist_bound(&mbr.apply_to_rect(rect), &qregion)),
        )
        .expect("in-memory pages");
    std::hint::black_box(found);
}

/// Plan and output of each replayed op, for the probes that need a
/// reply to encode or cache.
pub type Outputs = Vec<(PhysicalPlan, PlanOutput)>;

/// The query path, decomposed on a flat index: prepare, plan, execute,
/// and under execute the tree's share on its own.
pub fn probe_query_path(
    bench: &Bench,
    flat: &SeqIndex,
    tracer: &mut Tracer,
    replay: &Replay,
    rows: &mut Rows,
) -> Outputs {
    let ctx = &bench.ctx;
    let lq = &ctx.lq;
    let n = replay.ords.len();
    let stats = StatsRegistry::new();
    let is_knn = matches!(lq.verb, LogicalVerb::Knn { .. });
    let mut outs = Outputs::new();
    let (mut nodes, mut leaves, mut cands, mut cmps, mut fetches, mut matches) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut matched_seqs, mut fetch_verify) = (0usize, Vec::new());
    let before = flat.counters();
    for (i, (&ord, &root)) in replay.ords.iter().zip(&replay.roots).enumerate() {
        let q = &ctx.corpus.series()[ord];
        let parent = Some(root);
        tracer.span(i, parent, "core.index.prepare_query", || {
            std::hint::black_box(flat.prepare_query(q).expect("query length"))
        });
        let (_, plan) = tracer.span(i, parent, "core.plan.plan", || {
            Planner::new()
                .plan(flat, &stats, lq, Some(q))
                .expect("plan")
        });
        let (exec, out) = tracer.span(i, parent, "core.plan.execute", || {
            plan::execute_plan(flat, &stats, lq, &plan, Some(q)).expect("execute")
        });
        let tree = if is_knn {
            tracer
                .span(i, Some(exec), "rstartree.nearest", || {
                    nearest_probe(flat, bench, q)
                })
                .0
        } else {
            let whole = [TransformMbr::of_family(&lq.family)];
            let mbrs = if plan.engine == EngineChoice::Mt && !plan.mbrs.is_empty() {
                &plan.mbrs[..]
            } else {
                &whole[..]
            };
            let (search, _) = tracer.span(i, Some(exec), "rstartree.search", || {
                std::hint::black_box(
                    mtindex::probe(flat, q, &lq.family, &lq.spec, mbrs).expect("probe"),
                )
            });
            tracer.span(i, parent, "rstartree.nearest", || {
                nearest_probe(flat, bench, q)
            });
            search
        };
        // ST and scan plans do not run the MT filter step, so there is
        // nothing of the tree to take out of their execute time.
        let in_execute = is_knn || plan.engine == EngineChoice::Mt;
        fetch_verify.push(tracer.ms(exec) - if in_execute { tracer.ms(tree) } else { 0.0 });
        let m = *out.metrics();
        nodes += m.node_accesses;
        leaves += m.leaf_accesses;
        cands += m.candidates;
        cmps += m.comparisons;
        fetches += m.record_fetches;
        let found = match &out {
            PlanOutput::Range(r) => &r.matches[..],
            PlanOutput::Knn(m, _) => &m[..],
            PlanOutput::Join(_) => &[],
        };
        matches += found.len() as u64;
        matched_seqs += found
            .iter()
            .map(|m| m.seq)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        outs.push((plan, out));
    }
    // The tree-only probes fetch no record, so the heap counters moved
    // only under `execute_plan`.
    let page_reads = flat.counters().record_page_reads - before.record_page_reads;

    let per_op = |total: u64| total as f64 / n as f64;
    let execute = tracer.median_ms("core.plan.execute");
    let search = tracer.median_ms(if is_knn {
        "rstartree.nearest"
    } else {
        "rstartree.search"
    });
    rows.put(
        "core.index.prepare_query_us",
        tracer.median_ms("core.index.prepare_query") * 1e3,
        n,
    );
    rows.put(
        "core.plan.plan_us",
        tracer.median_ms("core.plan.plan") * 1e3,
        n,
    );
    rows.put("core.plan.execute_ms", execute, n);
    rows.put("rstartree.search_ms", search, n);
    rows.put(
        "rstartree.nearest_ms",
        tracer.median_ms("rstartree.nearest"),
        n,
    );
    rows.put("core.engine.fetch_verify_ms", median(&mut fetch_verify), n);
    rows.put("rstartree.node_reads_per_op", per_op(nodes), n);
    rows.put("rstartree.leaf_reads_per_op", per_op(leaves), n);
    rows.put("core.engine.candidates_per_op", per_op(cands), n);
    rows.put("core.engine.comparisons_per_op", per_op(cmps), n);
    rows.put("core.engine.matches_per_op", per_op(matches), n);
    rows.put("core.engine.record_fetches_per_op", per_op(fetches), n);
    // Sequences with at least one match ÷ sequences the filter let
    // through (a sequence passed by two rectangles counts twice).
    rows.put(
        "core.engine.filter_precision",
        matched_seqs as f64 / cands.max(1) as f64,
        n,
    );
    rows.put("pagestore.page_reads_per_op", per_op(page_reads), n);

    // How far the planner's page estimate is from what execution read,
    // as a factor ≥ 1 whichever side is larger.
    let drift = stats
        .drift_report()
        .iter()
        .filter_map(|line| line.pages_ratio())
        .filter(|r| *r > 0.0)
        .map(|r| r.max(1.0 / r))
        .fold(1.0, f64::max);
    rows.put("core.plan.cost_drift", drift, n);
    outs
}

/// Time under the planner's own choice ÷ time under the better of forced
/// MT and ST. kNN has one plan, so its regret is 1 by definition.
pub fn probe_regret(bench: &Bench, flat: &SeqIndex, replay: &Replay, rows: &mut Rows) {
    let ctx = &bench.ctx;
    let ords = &replay.ords[..REGRET_OPS.min(replay.ords.len())];
    if matches!(ctx.lq.verb, LogicalVerb::Knn { .. }) {
        rows.put("core.plan.auto_regret", 1.0, ords.len());
        return;
    }
    let stats = StatsRegistry::new();
    let run = |pref: EnginePref, q: &TimeSeries| {
        let lq = ctx.lq.clone().with_engine(pref);
        let plan = Planner::new()
            .plan(flat, &stats, &lq, Some(q))
            .expect("plan");
        let t = Instant::now();
        std::hint::black_box(plan::execute_plan(flat, &stats, &lq, &plan, Some(q)).expect("run"));
        t.elapsed().as_secs_f64()
    };
    let (mut auto, mut best) = (0.0, 0.0);
    for &ord in ords {
        let q = &ctx.corpus.series()[ord];
        let mt = run(EnginePref::Force(EngineChoice::Mt), q);
        let st = run(EnginePref::Force(EngineChoice::St), q);
        auto += run(EnginePref::Auto, q);
        best += mt.min(st);
    }
    rows.put("core.plan.auto_regret", auto / best, ords.len());
}

fn median_us<T>(mut f: impl FnMut(usize) -> T, n: usize) -> f64 {
    let mut us: Vec<f64> = (0..n)
        .map(|i| {
            let t = Instant::now();
            std::hint::black_box(f(i));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut us)
}

/// The per-candidate costs of post-processing, one call at a time.
pub fn probe_micro(bench: &Bench, flat: &SeqIndex, rows: &mut Rows) {
    let mut rng = SeededRng::seed_from_u64(bench.ctx.seed ^ 0xFE7C);
    let n = bench.ctx.spec.sequences;
    let ords: Vec<usize> = (0..MICRO_SAMPLES).map(|_| rng.random_range(0..n)).collect();
    let before = flat.counters().record_page_reads;
    let fetch = median_us(|i| flat.fetch_series(ords[i]).expect("fetch"), ords.len());
    let missed = flat.counters().record_page_reads - before;
    rows.put("core.index.fetch_series_us", fetch, ords.len());
    rows.put(
        "pagestore.pool_hit_rate",
        1.0 - missed as f64 / ords.len() as f64,
        ords.len(),
    );
    let series = bench.ctx.corpus.series();
    let extract = median_us(|i| SeqFeatures::extract(&series[ords[i]]), ords.len());
    rows.put("core.feature.extract_us", extract, ords.len());
    let walk = random_walk(&mut rng, 128, 500.0);
    let rfft = median_us(|_| tsfft::rfft(walk.values()), MICRO_SAMPLES);
    rows.put("tsfft.rfft128_us", rfft, MICRO_SAMPLES);
}

/// Scatter/gather against the same op run on each shard in turn.
pub fn probe_shard(bench: &Bench, tracer: &mut Tracer, replay: &Replay, rows: &mut Rows) {
    let ctx = &bench.ctx;
    let built;
    let sharded: &ShardedIndex = match &bench.backend {
        Backend::Sharded(s) => s,
        _ => {
            built = build_sharded(&ctx.corpus);
            &built
        }
    };
    let is_knn = matches!(ctx.lq.verb, LogicalVerb::Knn { .. });
    let (mut sums, mut maxes, mut overheads) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sum_total, mut gather_total) = (0.0, 0.0);
    for (i, (&ord, &root)) in replay.ords.iter().zip(&replay.roots).enumerate() {
        let q = &ctx.corpus.series()[ord];
        let (gather_id, _) = tracer.span(i, Some(root), "shard.gather", || {
            if is_knn {
                std::hint::black_box(gather::execute_knn(sharded, &ctx.lq, q).expect("knn"));
            } else {
                std::hint::black_box(gather::execute_range(sharded, &ctx.lq, q).expect("range"));
            }
        });
        let fragments: Vec<f64> = sharded
            .shards()
            .iter()
            .map(|shard| {
                let (id, _) = tracer.span(i, Some(gather_id), "shard.fragment", || {
                    std::hint::black_box(shard.execute(&ctx.lq, Some(q)).expect("fragment"))
                });
                tracer.ms(id)
            })
            .collect();
        let sum: f64 = fragments.iter().sum();
        let max = fragments.iter().copied().fold(0.0, f64::max);
        let gather_ms = tracer.ms(gather_id);
        sums.push(sum);
        maxes.push(max);
        overheads.push(gather_ms - max);
        sum_total += sum;
        gather_total += gather_ms;
    }
    let n = replay.ords.len();
    let lanes = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(sharded.shard_count());
    rows.put("shard.fragment_sum_ms", median(&mut sums), n);
    rows.put("shard.fragment_max_ms", median(&mut maxes), n);
    rows.put("shard.gather_overhead_ms", median(&mut overheads), n);
    rows.put(
        "shard.parallel_efficiency",
        sum_total / (gather_total * lanes as f64),
        n,
    );
}

/// A cached round trip over loopback against its parts measured alone.
/// Each op is sent twice to a server over this workload's backend; the
/// second reply comes from the result cache, so execution is out of the
/// picture and what is left after parse, cache lookup, encode and decode
/// is the transport and queue self time: syscalls, worker hand-off,
/// socket stalls, and the server fetching the query sequence.
pub fn probe_serve(
    bench: &Bench,
    tracer: &mut Tracer,
    replay: &Replay,
    outs: Outputs,
    rows: &mut Rows,
) {
    let ctx = &bench.ctx;
    let served: simserve::server::Backend = match &bench.backend {
        Backend::InProc(shared) | Backend::Wire { shared, .. } => shared.clone().into(),
        Backend::Sharded(sharded) => Arc::clone(sharded).into(),
    };
    let server = serve(served, &server_config()).expect("bind loopback");
    let mut client = Client::connect(server.addr).expect("connect to probe server");
    let cache = PlanCache::new(replay.ords.len());
    let epoch = QueryEpoch::default();
    let (mut parse, mut lookup, mut encode, mut decode) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for (i, (plan, out)) in outs.into_iter().enumerate() {
        let (ord, root) = (replay.ords[i], replay.roots[i]);
        let request = wire_request(ctx.spec.read, ord);
        client.call(&request).expect("first call fills the cache");
        let (_, reply) = tracer.span(i, Some(root), "serve.call", || {
            client.call(&request).expect("second call")
        });
        assert!(
            matches!(reply, Response::Matches { .. }),
            "probe server answered {reply:?}"
        );

        let line = request.to_line();
        let t = Instant::now();
        std::hint::black_box(Request::parse(&line).expect("own request parses"));
        parse.push(us(t));

        let q = &ctx.corpus.series()[ord];
        cache.put(ctx.lq.fingerprint(Some(q)), epoch, plan, out);
        let t = Instant::now();
        std::hint::black_box(cache.get(ctx.lq.fingerprint(Some(q)), epoch));
        lookup.push(us(t));

        let mut bytes = Vec::new();
        let t = Instant::now();
        reply.write_to(&mut bytes).expect("encode into memory");
        encode.push(us(t));
        let t = Instant::now();
        std::hint::black_box(Response::read_from(&mut &bytes[..]).expect("decode own bytes"));
        decode.push(us(t));
    }
    drop(client);
    server.shutdown();

    let n = replay.ords.len();
    let call_us = tracer.median_ms("serve.call") * 1e3;
    let (parse, lookup) = (median(&mut parse), median(&mut lookup));
    let (encode, decode) = (median(&mut encode), median(&mut decode));
    rows.put("serve.parse_us", parse, n);
    rows.put("serve.encode_us", encode, n);
    rows.put("serve.decode_us", decode, n);
    rows.put(
        "serve.transport_queue_us",
        call_us - parse - lookup - encode - decode,
        n,
    );
}

/// What durability adds to an insert, what a checkpoint and a restart
/// cost, on a snapshot of the flat index and a twin without a WAL.
pub fn probe_wal(bench: &Bench, flat: &SeqIndex, tracer: &mut Tracer, rows: &mut Rows) {
    let scratch = Scratch::new("wal_probe");
    let (durable_dir, twin_dir, wal_dir) = (
        scratch.path("durable"),
        scratch.path("twin"),
        scratch.path("wal"),
    );
    flat.save(&durable_dir).expect("save snapshot");
    flat.save(&twin_dir).expect("save twin snapshot");
    let open = || {
        SharedIndex::open_durable(&durable_dir, &wal_dir, POOL_PAGES, FSYNC)
            .expect("open durable")
            .0
    };
    let durable = open();
    let twin = SharedIndex::open(&twin_dir, POOL_PAGES).expect("open twin");
    let mut rng = SeededRng::seed_from_u64(bench.ctx.seed ^ 0x3A1);
    let mut walk = || random_walk(&mut rng, bench.ctx.spec.len, 500.0);

    let (wal_before, bytes_before) = (durable.wal_stats().expect("durable"), dir_bytes(&wal_dir));
    let (mut logged, mut plain) = (Vec::new(), Vec::new());
    for _ in 0..WAL_INSERTS {
        let ts = walk();
        let t = Instant::now();
        durable.insert_series(&ts).expect("durable insert");
        logged.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        twin.insert_series(&ts).expect("twin insert");
        plain.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let wal_after = durable.wal_stats().expect("durable");
    rows.put(
        "wal.append_overhead_us",
        median(&mut logged) - median(&mut plain),
        WAL_INSERTS,
    );
    rows.put(
        "wal.fsyncs_per_write",
        (wal_after.fsyncs - wal_before.fsyncs) as f64 / WAL_INSERTS as f64,
        WAL_INSERTS,
    );
    rows.put(
        "wal.bytes_per_insert",
        (dir_bytes(&wal_dir) - bytes_before) as f64 / WAL_INSERTS as f64,
        WAL_INSERTS,
    );

    let (id, _) = tracer.span(0, None, "wal.checkpoint", || {
        durable.checkpoint().expect("checkpoint")
    });
    rows.put("wal.checkpoint_ms", tracer.ms(id), 1);
    // A tail for the reopen to replay.
    for _ in 0..WAL_INSERTS / 4 {
        durable.insert_series(&walk()).expect("durable insert");
    }
    drop(durable);
    let (id, reopened) = tracer.span(0, None, "wal.replay", open);
    assert_eq!(
        reopened.read().len(),
        flat.len() + WAL_INSERTS + WAL_INSERTS / 4,
        "replay restores every acknowledged insert"
    );
    rows.put("wal.replay_ms", tracer.ms(id), 1);
}
