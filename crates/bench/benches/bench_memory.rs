//! Peak-memory head-to-head of the columnar support backends on a dense
//! fig4-style workload — the memory counterpart of `bench_engines.rs`.
//!
//! The vertical backend's prefix memo keeps whole prob-vectors for an
//! entire level of frequent prefixes; the diffset backend keeps per-node
//! deltas (plus one transient reconstructed prefix vector per group).
//! Dense data is exactly where the difference shows: almost every tid
//! survives every extension, so the deltas are tiny while the whole
//! vectors stay ~N long. Two instruments are recorded per backend:
//!
//! * the allocator-level peak (`ufim_metrics::alloc::measure_peak`, the
//!   paper's "Memory Cost" metric) of the full mining run, and
//! * the engine-level memo peak (`SupportEngine::peak_memo_bytes`,
//!   surfaced as `MinerStats::peak_memo_bytes`), which isolates the
//!   structure the backends actually disagree about.
//!
//! The `memory_guard` guards assert that the diffset backend's memo peak
//! undercuts the vertical backend's on this workload with identical
//! results, that the exact B miners (DPB, DCB) keep a vertical memo within
//! 2x of UApriori's on the same lattice, and that the streaming memo peak
//! never falls across refreshes.

use std::time::Instant;
use ufim_bench::harness::{dense_db, Harness};
use ufim_bench::json::JsonRun;
use ufim_bench::NO_PFT;
use ufim_core::prelude::*;
use ufim_miners::Algorithm;

/// The paper's memory metric needs a counting allocator installed in the
/// process that runs the miners; each bench is its own binary, so this
/// one installs its own.
#[global_allocator]
static ALLOC: ufim_metrics::CountingAllocator = ufim_metrics::CountingAllocator::new();

/// One measured run of `algo` per backend: the allocator peak, memo peak
/// and counters in a snapshot row, and the wall-clock of that one run.
/// Every backend must find the same number of itemsets.
fn measure(
    db: &UncertainDatabase,
    workload: &str,
    algo: Algorithm,
    params: MiningParams,
) -> Vec<(EngineKind, JsonRun)> {
    let runs: Vec<(EngineKind, JsonRun)> = EngineKind::ALL
        .into_iter()
        .map(|engine| {
            let params = params.with_engine(engine);
            let start = Instant::now();
            let (result, alloc_peak) =
                ufim_metrics::alloc::measure_peak(|| algo.mine_probabilistic(db, params).unwrap());
            let run = JsonRun {
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
                peak_bytes: alloc_peak as u64,
                peak_memo_bytes: result.stats.peak_memo_bytes,
                intersections: result.stats.intersections,
                num_itemsets: result.len() as u64,
                ..JsonRun::new(workload, algo.name(), engine.name())
            };
            (engine, run)
        })
        .collect();
    let reference = runs[0].1.num_itemsets;
    for (engine, run) in &runs {
        assert_eq!(
            run.num_itemsets,
            reference,
            "{} on {engine} diverges on the result size",
            algo.name()
        );
    }
    runs
}

/// The engine-level memo peak of `kind` among `runs`.
fn memo(runs: &[(EngineKind, JsonRun)], kind: EngineKind) -> u64 {
    runs.iter()
        .find(|(e, _)| *e == kind)
        .expect("every backend is measured")
        .1
        .peak_memo_bytes
}

fn main() {
    let mut h = Harness::from_env();

    if h.selects("memory_report") {
        let min_esup = 0.02;
        println!("bench_memory: UApriori dense N=20k, I=24, d=0.4, min_esup={min_esup}");
        let db = dense_db(20_000, 24, 0.4, 7);
        let params = MiningParams::new(min_esup, NO_PFT).unwrap();
        for (engine, run) in measure(&db, "N=20k,I=24,d=0.4", Algorithm::UApriori, params) {
            println!(
                "  {:<10}  alloc peak {:>9.2} MB   engine memo peak {:>9.2} MB   #freq {}",
                engine.name(),
                run.peak_bytes as f64 / 1048576.0,
                run.peak_memo_bytes as f64 / 1048576.0,
                run.num_itemsets
            );
            h.record(run);
        }
    }

    // The diffset memo must strictly undercut the vertical memo on the
    // dense workload, with identical results.
    h.guard("memory_guard/memo_undercuts", || {
        let db = dense_db(4_000, 16, 0.4, 11);
        let params = MiningParams::new(0.05, NO_PFT).unwrap();
        let runs = measure(&db, "N=4k,I=16,d=0.4", Algorithm::UApriori, params);
        let (vertical, diffset) = (
            memo(&runs, EngineKind::Vertical),
            memo(&runs, EngineKind::Diffset),
        );
        assert!(
            diffset < vertical,
            "diffset memo peak ({diffset} B) must undercut vertical ({vertical} B) on dense data"
        );
        println!(
            "memory_guard: diffset memo {diffset} B < vertical memo {vertical} B ({:.1}x smaller)",
            vertical as f64 / diffset as f64
        );
    });

    // The exact B miners' Chernoff screen implies an esup cut, and the
    // engines drop every candidate below it before exporting a vector, so
    // on the same dense lattice their vertical memo stays within 2x of
    // UApriori's at min_esup = min_sup. Here most triples clear the count
    // floor but not the cut: exporting them breaks the bound (3x).
    h.guard("memory_guard/exact_memo_bounded", || {
        let db = dense_db(4_000, 16, 0.4, 11);
        let (min_sup, pft) = (0.05, 0.9);
        let workload = "N=4k,I=16,d=0.4";
        let esup = MiningParams::new(min_sup, NO_PFT).unwrap();
        let esup = memo(
            &measure(&db, workload, Algorithm::UApriori, esup),
            EngineKind::Vertical,
        );
        for algo in [Algorithm::DPB, Algorithm::DCB] {
            let params = MiningParams::new(min_sup, pft).unwrap();
            let exact = memo(&measure(&db, workload, algo, params), EngineKind::Vertical);
            assert!(
                exact <= 2 * esup,
                "{} vertical memo peak ({exact} B) exceeds 2x UApriori's ({esup} B)",
                algo.name()
            );
            println!(
                "memory_guard: {} vertical memo {exact} B vs UApriori {esup} B ({:.2}x)",
                algo.name(),
                exact as f64 / esup as f64
            );
        }
    });

    // Streaming guard: with memo-preserving delta evaluation the engine
    // retains its memo across refreshes, so the per-refresh
    // `peak_memo_bytes` must be a *monotone non-decreasing* cross-refresh
    // peak (it used to reset with the memo clear on every window step)
    // and every warm refresh must report at least the cold mine's peak —
    // the retained lattice plus its block-moment partials never leaves
    // the engine's accounting.
    h.guard("memory_guard/streaming_peak_monotone", || {
        use ufim_miners::common::{ExpectedSupport, IncrementalMiner};
        let db = dense_db(2_048, 16, 0.4, 11);
        let threshold = 0.05 * 1_024.0;
        for engine in [EngineKind::Vertical, EngineKind::Diffset] {
            let window = WindowedDatabase::new(1_024, 16);
            let mut miner =
                IncrementalMiner::new(window, ExpectedSupport::with_variance(threshold), engine);
            let mut stream = db.transactions().iter().cloned();
            for t in stream.by_ref().take(1_024) {
                miner.append(t).unwrap();
            }
            let cold = miner.refresh().stats.peak_memo_bytes;
            assert!(cold > 0, "{engine:?}: cold mine must charge the memo peak");
            let mut peaks = vec![cold];
            for _ in 0..8 {
                miner.expire_oldest(128);
                for t in stream.by_ref().take(128) {
                    miner.append(t).unwrap();
                }
                peaks.push(miner.refresh().stats.peak_memo_bytes);
            }
            for (i, pair) in peaks.windows(2).enumerate() {
                assert!(
                    pair[1] >= pair[0],
                    "{engine:?}: peak_memo_bytes fell {} -> {} at refresh {} — \
                     the cross-refresh peak reset with a memo clear",
                    pair[0],
                    pair[1],
                    i + 1
                );
            }
            println!(
                "memory_guard (streaming): {engine:?} memo peak {} B cold -> {} B after 8 \
                 refreshes (monotone)",
                cold,
                peaks[peaks.len() - 1]
            );
        }
    });

    h.finish("memory", 1.0, 7);
}
