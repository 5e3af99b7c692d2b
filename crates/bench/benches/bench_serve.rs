//! CCBench-style latency/throughput harness for the `ufim-serve` query
//! server: mixed sweep/top-k/probe traffic against a resident dataset,
//! driven by 1/4/8 closed-loop clients, with the cross-query memo
//! contract asserted in-binary.
//!
//! The run splits into a **counted pass** and a **timed phase**, like
//! `bench_streaming`. The counted pass replays the whole workload once on
//! a dedicated `ServeCore` and derives every deterministic counter: the
//! priming mines' tid-list intersections and record counts (strict fields
//! — bit-identical across machines and pool sizes), and the memo
//! hit/miss/extend tallies of the warm replay (advisory). It also
//! enforces the serve-layer acceptance contract in-binary:
//!
//! * every warm sweep answer is **bit-identical** to a cold
//!   `MatrixMiner` mine at the same parameters, for every primed
//!   measure × engine cell and every sweep threshold;
//! * the warm replay charges **zero** intersections and zero scans — a
//!   memo-covered query never touches the engines;
//! * the memo-hit ratio of the mixed workload is ≥ 0.5.
//!
//! The timed phase then measures what CI actually gates on advisorily:
//! per-request latency percentiles (p50/p95/p99) and sustained
//! queries-per-second under 1, 4 and 8 concurrent closed-loop clients,
//! each replaying the same mixed workload against a shared primed server.
//! Timing never feeds the strict fields, so `--smoke` (fewer timing
//! rounds) emits the same counters as a full run and the checked-in
//! `BENCH_serve.json` baseline stays comparable either way.
//!
//! Besides the harness flags (`--smoke` shrinks the timing rounds,
//! counters unchanged), `--log FILE` appends the counted pass's
//! per-request server log (the CI artifact).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use ufim_bench::harness::{dense_db, Harness};
use ufim_bench::json::JsonRun;
use ufim_core::prelude::*;
use ufim_core::{EngineKind, MeasureKind, TraversalKind};
use ufim_miners::MatrixMiner;
use ufim_serve::{Json, ServeCore};

const SEED: u64 = 23;
/// Resident dataset size (transactions).
const N: usize = 2_048;
const ITEMS: u32 = 12;
/// The basis threshold the server is primed at — every workload query
/// sits at or above it, so the whole mixed replay is memo-answerable,
/// and low enough (pair esup on the fixture is ≈ 0.069·N) that the
/// pair probes hit retained records instead of the index fallback.
const BASIS: f64 = 0.05;
const BASIS_PFT: f64 = 0.3;

/// The primed measure × engine cells the workload exercises.
const CELLS: [(MeasureKind, EngineKind); 3] = [
    (MeasureKind::ExpectedSupport, EngineKind::Vertical),
    (MeasureKind::ExpectedSupport, EngineKind::Diffset),
    (MeasureKind::Normal, EngineKind::Vertical),
];

/// Priming requests: one lowest-threshold sweep per cell. These are the
/// only queries in the run that mine.
fn prime_lines() -> Vec<String> {
    CELLS
        .iter()
        .map(|(measure, engine)| {
            format!(
                r#"{{"op":"sweep","dataset":"bench","measure":"{}","engine":"{}","pft":{BASIS_PFT},"thresholds":[{BASIS}]}}"#,
                measure.name(),
                engine.name()
            )
        })
        .collect()
}

/// One round of the mixed closed-loop workload: threshold sweeps, top-k
/// and itemset probes over every primed cell, all covered by the basis.
fn workload_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (measure, engine) in CELLS {
        lines.push(format!(
            r#"{{"op":"sweep","dataset":"bench","measure":"{}","engine":"{}","pft":0.5,"thresholds":[0.2,0.3,0.5]}}"#,
            measure.name(),
            engine.name()
        ));
        lines.push(format!(
            r#"{{"op":"topk","dataset":"bench","measure":"{}","engine":"{}","min_sup":0.25,"pft":0.5,"k":8,"min_len":1}}"#,
            measure.name(),
            engine.name()
        ));
        lines.push(format!(
            r#"{{"op":"probe","dataset":"bench","measure":"{}","engine":"{}","min_sup":0.25,"pft":0.5,"itemset":[0]}}"#,
            measure.name(),
            engine.name()
        ));
        lines.push(format!(
            r#"{{"op":"probe","dataset":"bench","measure":"{}","engine":"{}","min_sup":0.25,"pft":0.5,"itemset":[0,1]}}"#,
            measure.name(),
            engine.name()
        ));
    }
    lines
}

/// A fresh server with the fixture resident but the memo cold.
fn fresh_core(db: &UncertainDatabase) -> Arc<ServeCore> {
    let core = Arc::new(ServeCore::new(64 << 20));
    core.load_db("bench", db.clone());
    core
}

/// A required numeric field of a line-JSON response.
fn field_u64(response: &str, name: &str) -> u64 {
    Json::parse(response)
        .unwrap_or_else(|e| panic!("unparseable response {response:?}: {e}"))
        .get(name)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("response lacks {name:?}: {response}"))
}

/// Deterministic counters of the counted pass.
struct Counted {
    cold_intersections: u64,
    num_itemsets: u64,
    warm_intersections: u64,
    memo_hits: u64,
    memo_misses: u64,
    memo_extends: u64,
    resident_bytes: u64,
}

/// The counted pass: prime, verify the warm-vs-cold contract cell by
/// cell, replay the workload once, read the memo counters.
fn counted_pass(db: &UncertainDatabase, log: Option<&std::path::Path>) -> Counted {
    let core = fresh_core(db);
    if let Some(path) = log {
        if let Err(e) = core.log_to(path) {
            eprintln!("warning: cannot open log {}: {e}", path.display());
        }
    }
    let mut cold_intersections = 0;
    let mut num_itemsets = 0;
    for line in prime_lines() {
        let response = core.handle_line(&line);
        assert!(
            response.contains("\"ok\": true") || response.contains("\"ok\":true"),
            "priming failed: {response}"
        );
        cold_intersections += field_u64(&response, "intersections");
        let parsed = Json::parse(&response).unwrap();
        for entry in parsed.get("results").and_then(Json::as_arr).unwrap() {
            num_itemsets += entry.get("count").and_then(Json::as_u64).unwrap();
        }
    }

    // The acceptance contract: every warm answer the workload can ask for
    // is bit-identical to a cold MatrixMiner mine, and computes nothing.
    for (measure, engine) in CELLS {
        for threshold in [0.2, 0.3, 0.5] {
            let params = MiningParams::new(threshold, 0.5).unwrap();
            let (warm, outcome) = core.answer("bench", measure, engine, &params).unwrap();
            assert_eq!(
                outcome.name(),
                "memo",
                "{measure}x{engine}@{threshold}: expected a warm answer"
            );
            assert_eq!(
                warm.stats.intersections, 0,
                "{measure}x{engine}@{threshold}"
            );
            assert_eq!(warm.stats.scans, 0, "{measure}x{engine}@{threshold}");
            let mut cold = MatrixMiner::new(measure, TraversalKind::LevelWise)
                .mine_probabilistic(db, params.with_engine(engine))
                .unwrap();
            cold.canonicalize();
            assert_eq!(
                warm.itemsets, cold.itemsets,
                "{measure}x{engine}@{threshold}: warm records diverge from the cold mine"
            );
        }
    }

    // One serial replay of the mixed workload: all warm, zero engine work.
    let mut warm_intersections = 0;
    for line in workload_lines() {
        let response = core.handle_line(&line);
        assert!(
            response.contains("\"ok\": true") || response.contains("\"ok\":true"),
            "workload query failed: {response}"
        );
        warm_intersections += field_u64(&response, "intersections");
    }
    assert_eq!(
        warm_intersections, 0,
        "warm workload charged tid-list intersections — memo reuse collapsed"
    );

    let c = core.memo().counters();
    let hit_ratio = c.hits as f64 / (c.hits + c.misses) as f64;
    assert!(
        hit_ratio >= 0.5,
        "memo-hit ratio {hit_ratio:.2} below the 0.5 floor (hits {}, misses {})",
        c.hits,
        c.misses
    );
    Counted {
        cold_intersections,
        num_itemsets,
        warm_intersections,
        memo_hits: c.hits,
        memo_misses: c.misses,
        memo_extends: c.extends,
        resident_bytes: core.memo().resident_bytes(),
    }
}

/// Sorted-latency percentile (nearest-rank), in milliseconds.
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

/// The timed phase for one pool size: `clients` closed-loop threads each
/// replay the workload `rounds` times against a shared primed server.
/// Returns `(p50, p95, p99, qps, wall_ms)`.
fn timed_phase(db: &UncertainDatabase, clients: usize, rounds: usize) -> (f64, f64, f64, f64, f64) {
    let core = fresh_core(db);
    for line in prime_lines() {
        core.handle_line(&line);
    }
    let lines = Arc::new(workload_lines());
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let core = Arc::clone(&core);
            let lines = Arc::clone(&lines);
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(rounds * lines.len());
                for r in 0..rounds {
                    // Stagger starting offsets so the pools interleave
                    // different request kinds, not marching in lockstep.
                    for i in 0..lines.len() {
                        let q = (i + c + r) % lines.len();
                        let t = Instant::now();
                        std::hint::black_box(core.handle_line(&lines[q]));
                        latencies.push(t.elapsed().as_secs_f64() * 1000.0);
                    }
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread panicked"))
        .collect();
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    latencies.sort_by(f64::total_cmp);
    let qps = latencies.len() as f64 / (wall_ms / 1000.0);
    (
        percentile(&latencies, 50.0),
        percentile(&latencies, 95.0),
        percentile(&latencies, 99.0),
        qps,
        wall_ms,
    )
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let log = args.iter().position(|a| a == "--log").map(|i| {
        let file = PathBuf::from(args.get(i + 1).expect("--log needs a file"));
        args.drain(i..i + 2);
        file
    });
    let mut h = Harness::parse(args);

    // The resident dataset: dense synthetic fixture, confident readings —
    // singletons and most pairs stay frequent at the basis threshold, so
    // the retained lattice is non-trivial at every level the probes touch.
    let db = dense_db(N, ITEMS, 0.35, SEED);
    let counted = counted_pass(&db, log.as_deref());
    println!(
        "counted pass: priming {} intersections, {} records; warm replay {} intersections, \
         memo {} hits / {} misses / {} extends, {} resident bytes",
        counted.cold_intersections,
        counted.num_itemsets,
        counted.warm_intersections,
        counted.memo_hits,
        counted.memo_misses,
        counted.memo_extends,
        counted.resident_bytes
    );

    let rounds = if h.smoke() { 2 } else { 16 };
    for clients in [1usize, 4, 8] {
        let mut run = JsonRun::new(
            format!("N={N},clients={clients}"),
            "mixed sweep/topk/probe",
            "memo",
        );
        if !h.selects(&format!("serve/{}", run.workload)) {
            continue;
        }
        run.stats.peak_memo_bytes = counted.resident_bytes;
        run.stats.intersections = counted.cold_intersections;
        let (p50, p95, p99, qps, wall_ms) = timed_phase(&db, clients, rounds);
        println!(
            "clients={clients:<2} p50 {p50:>7.3} ms  p95 {p95:>7.3} ms  p99 {p99:>7.3} ms  \
             {qps:>8.0} q/s  ({wall_ms:.1} ms total)"
        );
        h.record(JsonRun {
            wall_ms,
            num_itemsets: counted.num_itemsets,
            memo_hits: Some(counted.memo_hits),
            memo_extends: Some(counted.memo_extends),
            latency_p50_ms: Some(p50),
            latency_p95_ms: Some(p95),
            latency_p99_ms: Some(p99),
            qps: Some(qps),
            ..run
        });
    }

    h.finish("serve", 1.0, SEED);
}
