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
//! results, and that the streaming memo peak never falls across refreshes.

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

/// One measured `UApriori` run per backend: the allocator peak, memo peak
/// and counters in a snapshot row, and the wall-clock of that one run.
fn measure(db: &UncertainDatabase, workload: &str, min_esup: f64) -> Vec<(EngineKind, JsonRun)> {
    EngineKind::ALL
        .into_iter()
        .map(|engine| {
            let params = MiningParams::new(min_esup, NO_PFT)
                .unwrap()
                .with_engine(engine);
            let start = Instant::now();
            let (result, alloc_peak) = ufim_metrics::alloc::measure_peak(|| {
                Algorithm::UApriori.mine_probabilistic(db, params).unwrap()
            });
            let run = JsonRun {
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
                peak_bytes: alloc_peak as u64,
                peak_memo_bytes: result.stats.peak_memo_bytes,
                intersections: result.stats.intersections,
                num_itemsets: result.len() as u64,
                ..JsonRun::new(workload, "UApriori", engine.name())
            };
            (engine, run)
        })
        .collect()
}

fn main() {
    let mut h = Harness::from_env();

    if h.selects("memory_report") {
        let min_esup = 0.02;
        println!("bench_memory: UApriori dense N=20k, I=24, d=0.4, min_esup={min_esup}");
        let db = dense_db(20_000, 24, 0.4, 7);
        for (engine, run) in measure(&db, "N=20k,I=24,d=0.4", min_esup) {
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
        let runs = measure(&db, "N=4k,I=16,d=0.4", 0.05);
        let reference = runs[0].1.num_itemsets;
        for (engine, run) in &runs {
            assert_eq!(
                run.num_itemsets, reference,
                "{engine} diverges on the result size"
            );
        }
        let memo = |kind| {
            runs.iter()
                .find(|(e, _)| *e == kind)
                .unwrap()
                .1
                .peak_memo_bytes
        };
        let (vertical, diffset) = (memo(EngineKind::Vertical), memo(EngineKind::Diffset));
        assert!(
            diffset < vertical,
            "diffset memo peak ({diffset} B) must undercut vertical ({vertical} B) on dense data"
        );
        println!(
            "memory_guard: diffset memo {diffset} B < vertical memo {vertical} B ({:.1}x smaller)",
            vertical as f64 / diffset as f64
        );
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
