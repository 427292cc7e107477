//! Where a range op's time goes on the benchmark's two index workloads.
//! Per op: Algorithm 1's steps 1–4 alone (`mtindex::probe` over the
//! plan's rectangles: query regions, the bound filter, the masked
//! descent), the whole `execute_plan`, and their difference — the leaf
//! gate, the kernel's row fill and step 5's verification — beside the
//! engine counters of one pass.
//!
//! The corpora, family, thresholds, policies, engines and op pools are
//! those of e2ebench's `range_broad` (ST, `Safe`, ρ = 0.9, 1000 × 128) and
//! `range_selective` (planner's choice, `Adaptive`, ρ = 0.992,
//! 10 000 × 128), rebuilt in process from the seed, so the split can be
//! measured on any commit without touching the benchmark.
//!
//! `cargo run -p bench --release --bin descent -- [--seed N] [--passes N]`
//! (env: `REPRO_FAST=1` — both workloads on 200 × 64 at ρ ≤ 0.98, two
//! passes).

use bench::table::{f2, Table};
use simquery::engine::mtindex;
use simquery::index::{IndexConfig, SeqIndex};
use simquery::plan::{execute_plan, EngineChoice, EnginePref, LogicalQuery, Planner};
use simquery::query::{FilterPolicy, RangeSpec};
use simquery::stats::StatsRegistry;
use simquery::tmbr::TransformMbr;
use simquery::transform::Family;
use std::time::Instant;
use tseries::rng::SeededRng;
use tseries::{Corpus, CorpusKind};

/// One of the two workloads, as e2ebench declares it.
struct Workload {
    name: &'static str,
    sequences: usize,
    rho: f64,
    policy: FilterPolicy,
    engine: EnginePref,
    /// Seeded ordinals the reads walk round.
    pool: usize,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "range_broad",
        sequences: 1_000,
        rho: 0.9,
        policy: FilterPolicy::Safe,
        engine: EnginePref::Force(EngineChoice::St),
        pool: 32,
    },
    Workload {
        name: "range_selective",
        sequences: 10_000,
        rho: 0.992,
        policy: FilterPolicy::Adaptive,
        engine: EnginePref::Auto,
        pool: 512,
    },
];

/// e2ebench's default seed.
const DEFAULT_SEED: u64 = 0x51A5;
/// Record-heap pool of the benchmark's indexes: 64 frames.
const POOL_PAGES: usize = 64;

fn main() {
    let fast = bench::fast_mode();
    let (mut seed, mut passes) = (DEFAULT_SEED, if fast { 2 } else { 20 });
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().and_then(|v| v.parse().ok());
        match (flag.as_str(), value) {
            ("--seed", Some(v)) => seed = v,
            ("--passes", Some(v)) if v > 0 => passes = v as usize,
            _ => {
                eprintln!("usage: descent [--seed N] [--passes N]");
                std::process::exit(2);
            }
        }
    }
    let len = if fast { 64 } else { 128 };
    let mut table = Table::new(
        format!("steps 1–4 vs the whole op, µs per op (seed {seed}, median of {passes} passes)"),
        &[
            "workload",
            "plan",
            "descent",
            "execute",
            "gate+fill+verify",
            "nodes",
            "node reads",
            "leaves",
            "candidates",
            "comparisons",
            "fetches",
            "record pages",
            "matches",
        ],
    );
    for w in &WORKLOADS {
        let sequences = if fast { 200 } else { w.sequences };
        let rho = if fast { w.rho.min(0.98) } else { w.rho };
        table.push(run(w, sequences, len, rho, seed, passes));
    }
    table.print();
}

/// Times `passes` passes over the workload's op pool and returns its row.
fn run(
    w: &Workload,
    sequences: usize,
    len: usize,
    rho: f64,
    seed: u64,
    passes: usize,
) -> Vec<String> {
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, sequences, len, seed);
    let config = IndexConfig {
        heap_pool_pages: POOL_PAGES,
        ..IndexConfig::default()
    };
    let index = SeqIndex::build(&corpus, config).expect("non-empty corpus");
    let family = Family::moving_averages(5..=20, len);
    let spec = RangeSpec::correlation(rho).with_policy(w.policy);
    let lq = LogicalQuery::range(family.clone(), spec).with_engine(w.engine);
    // e2ebench's pool: the first draws of its shared op stream.
    let mut pool: Vec<usize> = (0..sequences).collect();
    SeededRng::seed_from_u64(seed ^ 0x0DD5).shuffle(&mut pool);
    pool.truncate(w.pool.min(sequences));

    let stats = StatsRegistry::new();
    let (mut descent, mut execute) = (Vec::new(), Vec::new());
    let mut counts = [0u64; 8];
    let mut shape = String::new();
    // One untimed pass first: it fixes the planner's partitioning and
    // warms the record pool.
    for pass in 0..=passes {
        let (mut d_us, mut e_us) = (0.0, 0.0);
        for &ord in &pool {
            let query = &corpus.series()[ord];
            let plan = Planner::new()
                .plan(&index, &stats, &lq, Some(query))
                .expect("plan");
            // The rectangles execution descends with; a scan has none.
            let mbrs = match plan.engine {
                EngineChoice::Scan => Vec::new(),
                EngineChoice::St => TransformMbr::singletons(&family),
                EngineChoice::Mt if plan.mbrs.is_empty() => vec![TransformMbr::of_family(&family)],
                EngineChoice::Mt => plan.mbrs.clone(),
            };
            shape = format!("{} {}", plan.engine.as_str(), mbrs.len());
            let start = Instant::now();
            let probed = if mbrs.is_empty() {
                Vec::new()
            } else {
                mtindex::probe(&index, query, &family, &spec, &mbrs).expect("probe")
            };
            d_us += start.elapsed().as_secs_f64() * 1e6;
            let before = index.counters();
            let start = Instant::now();
            let out = execute_plan(&index, &stats, &lq, &plan, Some(query)).expect("execute");
            e_us += start.elapsed().as_secs_f64() * 1e6;
            let m = *out.metrics();
            // The probe is the execution's steps 1–4: the same descents.
            if !mbrs.is_empty() {
                assert_eq!(
                    probed
                        .iter()
                        .map(|t| (t.da_all, t.candidates))
                        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1)),
                    (m.node_accesses, m.candidates),
                    "{}: ord {ord}",
                    w.name
                );
            }
            if pass == 1 {
                let matches = match &out {
                    simquery::plan::PlanOutput::Range(r) => r.matches.len() as u64,
                    _ => unreachable!("a range query"),
                };
                let node_reads = index.counters().node_reads - before.node_reads;
                let row = [
                    m.node_accesses,
                    node_reads,
                    m.leaf_accesses,
                    m.candidates,
                    m.comparisons,
                    m.record_fetches,
                    m.record_page_accesses,
                    matches,
                ];
                for (c, v) in counts.iter_mut().zip(row) {
                    *c += v;
                }
            }
        }
        if pass > 0 {
            descent.push(d_us / pool.len() as f64);
            execute.push(e_us / pool.len() as f64);
        }
    }
    let (d, e) = (median(&mut descent), median(&mut execute));
    let per_op = |c: u64| f2(c as f64 / pool.len() as f64);
    let mut row = vec![w.name.to_string(), shape, f2(d), f2(e), f2(e - d)];
    row.extend(counts.map(per_op));
    row
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}
