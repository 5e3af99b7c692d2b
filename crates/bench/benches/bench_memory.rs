//! Peak-memory head-to-head of the columnar support backends on a dense
//! fig4-style workload — the memory counterpart of `bench_engines.rs`.
//!
//! The vertical backend's prefix memo keeps whole prob-vectors for an
//! entire level of frequent prefixes; the diffset backend keeps per-node
//! deltas (plus one transient reconstructed prefix vector per group).
//! Dense data is exactly where the difference shows: almost every tid
//! survives every extension, so the deltas are tiny while the whole
//! vectors stay ~N long. Two instruments are reported per backend:
//!
//! * the allocator-level peak (`ufim_metrics::alloc::measure_peak`, the
//!   paper's "Memory Cost" metric) of the full mining run, and
//! * the engine-level memo peak (`SupportEngine::peak_memo_bytes`,
//!   surfaced as `MinerStats::peak_memo_bytes`), which isolates the
//!   structure the backends actually disagree about.
//!
//! The `memory_guard` group asserts — outside timing — that the diffset
//! backend's memo peak undercuts the vertical backend's on this workload,
//! and that all backends return identical results.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;
use ufim_core::prelude::*;
use ufim_miners::UApriori;

/// The paper's memory metric needs a counting allocator installed in the
/// process that runs the miners; criterion benches are separate binaries,
/// so each memory bench installs its own.
#[global_allocator]
static ALLOC: ufim_metrics::CountingAllocator = ufim_metrics::CountingAllocator::new();

/// Same dense generator as `bench_engines.rs`: every item appears in
/// `density` of the transactions with a high existence probability.
fn dense_db(transactions: usize, items: u32, density: f64, seed: u64) -> UncertainDatabase {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = (0..transactions)
        .map(|_| {
            let units: Vec<(u32, f64)> = (0..items)
                .filter_map(|i| {
                    if rng.gen_bool(density) {
                        Some((i, rng.gen_range(0.5..=1.0)))
                    } else {
                        None
                    }
                })
                .collect();
            Transaction::new(units).unwrap()
        })
        .collect();
    UncertainDatabase::with_num_items(t, items)
}

/// One measured `UApriori` run per backend: `(engine, allocator peak,
/// engine memo peak bytes, #frequent)`.
fn measure(db: &UncertainDatabase, min_esup: f64) -> Vec<(EngineKind, usize, u64, usize)> {
    EngineKind::ALL
        .into_iter()
        .map(|engine| {
            let miner = UApriori::with_engine(engine);
            let (result, alloc_peak) = ufim_metrics::alloc::measure_peak(|| {
                miner.mine_expected_ratio(db, min_esup).unwrap()
            });
            (
                engine,
                alloc_peak,
                result.stats.peak_memo_bytes,
                result.len(),
            )
        })
        .collect()
}

fn bench_memory_backends(c: &mut Criterion) {
    // All work happens inside the bench closure so a `-- memory_guard`
    // filter (as CI passes) skips the three full 20k-transaction runs.
    let mut group = c.benchmark_group("memory_report");
    group
        .sample_size(2)
        .warm_up_time(Duration::from_millis(10))
        .measurement_time(Duration::from_millis(50));
    group.bench_function("printed", |b| {
        let db = dense_db(20_000, 24, 0.4, 7);
        let min_esup = 0.02;
        println!("\nbench_memory: UApriori dense N=20k, I=24, d=0.4, min_esup={min_esup}");
        let runs = measure(&db, min_esup);
        for (engine, alloc_peak, memo, found) in &runs {
            println!(
                "  {:<10}  alloc peak {:>9.2} MB   engine memo peak {:>9.2} MB   #freq {}",
                engine.name(),
                *alloc_peak as f64 / 1048576.0,
                *memo as f64 / 1048576.0,
                found
            );
        }
        // The cheap timed body keeps criterion's harness satisfied; the
        // numbers above are the artifact.
        b.iter(|| runs.len())
    });
    group.finish();
}

/// Guard asserted outside timing: the diffset memo must strictly undercut
/// the vertical memo on the dense workload, with identical results.
fn bench_memory_guard(c: &mut Criterion) {
    let mut group = c.benchmark_group("memory_guard");
    group
        .sample_size(2)
        .warm_up_time(Duration::from_millis(10))
        .measurement_time(Duration::from_millis(50));
    group.bench_function("memo_undercuts", |b| {
        let db = dense_db(4_000, 16, 0.4, 11);
        let min_esup = 0.05;
        let runs = measure(&db, min_esup);
        let (_, _, _, reference) = runs[0];
        for (engine, _, _, found) in &runs {
            assert_eq!(*found, reference, "{engine} diverges on the result size");
        }
        let vertical = runs
            .iter()
            .find(|(e, ..)| *e == EngineKind::Vertical)
            .unwrap()
            .2;
        let diffset = runs
            .iter()
            .find(|(e, ..)| *e == EngineKind::Diffset)
            .unwrap()
            .2;
        assert!(
            diffset < vertical,
            "diffset memo peak ({diffset} B) must undercut vertical ({vertical} B) on dense data"
        );
        println!(
            "memory_guard: diffset memo {diffset} B < vertical memo {vertical} B ({:.1}x smaller)",
            vertical as f64 / diffset as f64
        );
        b.iter(|| vertical + diffset)
    });
    // Streaming guard: with memo-preserving delta evaluation the engine
    // retains its memo across refreshes, so the per-refresh
    // `peak_memo_bytes` must be a *monotone non-decreasing* cross-refresh
    // peak (it used to reset with the memo clear on every window step)
    // and every warm refresh must report at least the cold mine's peak —
    // the retained lattice plus its block-moment partials never leaves
    // the engine's accounting.
    group.bench_function("streaming_peak_monotone", |b| {
        use ufim_miners::common::{ExpectedSupport, IncrementalMiner};
        let db = dense_db(2_048, 16, 0.4, 11);
        let threshold = 0.05 * 1_024.0;
        let mut last = 0u64;
        for engine in [EngineKind::Vertical, EngineKind::Diffset] {
            let window = WindowedDatabase::new(1_024, 16);
            let mut miner =
                IncrementalMiner::new(window, ExpectedSupport::with_variance(threshold), engine);
            let mut stream = db.transactions().iter().cloned();
            for t in stream.by_ref().take(1_024) {
                miner.append(t);
            }
            let cold = miner.refresh().stats.peak_memo_bytes;
            assert!(cold > 0, "{engine:?}: cold mine must charge the memo peak");
            let mut peaks = vec![cold];
            for _ in 0..8 {
                miner.expire_oldest(128);
                for t in stream.by_ref().take(128) {
                    miner.append(t);
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
            last = peaks[peaks.len() - 1];
        }
        b.iter(|| last)
    });
    group.finish();
}

criterion_group!(benches, bench_memory_backends, bench_memory_guard);
criterion_main!(benches);
