//! Sensor-network monitoring — the paper's opening motivation: "due to the
//! inherent uncertainty of sensors, the collected data are often inaccurate".
//!
//! A field of sensors reports discrete events (high temperature, vibration,
//! voltage sag, …). Each reading carries a confidence derived from the
//! sensor's noise model, so telemetry is an uncertain transaction stream:
//! one transaction per time window, one `(event, confidence)` unit per
//! report. This example runs the full *streaming* pipeline: readings are
//! ingested into a sliding [`WindowedDatabase`], and an [`IncrementalMiner`]
//! keeps the probabilistic frequent itemsets of the last `CAPACITY` windows
//! fresh by re-judging only the itemsets each batch of arrivals/expiries
//! could have moved across the frequentness border — instead of re-mining
//! the whole window from scratch.
//!
//! The final refresh is checked bit-for-bit against a from-scratch batch
//! mine of the same window (the incremental contract), and the planted
//! co-occurrence groups must be recovered.
//!
//! Run with: `cargo run --release --example sensor_network`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use uncertain_fim::miners::common::{
    mine_level_wise, ExactKernel, ExactMeasure, ExpectedSupport, IncrementalMiner,
};
use uncertain_fim::prelude::*;

/// Sliding window: the most recent `CAPACITY` time windows of telemetry.
const CAPACITY: usize = 2_048;
/// Event vocabulary (sensor report types).
const SENSORS: u32 = 24;
/// Arrivals per refresh: the monitor re-mines once per batch of windows.
const BATCH: usize = 256;
/// Stream length beyond the initial fill.
const STREAM: usize = 4_096;

/// One synthesized time window of telemetry. Three correlated event groups
/// are planted (e.g. overheating: {0: high-temp, 1: fan-stall, 2:
/// voltage-sag}); the mining should recover them despite per-reading noise.
fn reading(rng: &mut StdRng) -> Transaction {
    let groups: &[&[u32]] = &[&[0, 1, 2], &[7, 8], &[12, 13, 14]];
    let mut units: Vec<(u32, f64)> = Vec::new();
    // Each group fires as a unit in 30% of windows; readings carry
    // confidence 0.75–0.99 (sensor SNR).
    for g in groups {
        if rng.gen_bool(0.3) {
            for &event in *g {
                units.push((event, rng.gen_range(0.75..0.99)));
            }
        }
    }
    // Background noise: spurious low-confidence reports.
    for event in 0..SENSORS {
        if units.iter().all(|&(e, _)| e != event) && rng.gen_bool(0.05) {
            units.push((event, rng.gen_range(0.1..0.5)));
        }
    }
    Transaction::new(units).expect("valid units")
}

fn main() {
    // Sparse data (density ~0.1). 0.15 sits below the planted triple mass
    // (0.3 firing rate × ~0.66 three-reading confidence ≈ 0.2) with
    // headroom for sampling noise; Pr{sup ≥ msup} must clear 0.95.
    let params = MiningParams::new(0.15, 0.95).expect("valid parameters");
    // Exact frequent probability via divide-and-conquer + Chernoff screen —
    // the DCB configuration, as a pluggable measure over the window size.
    let measure = ExactMeasure::new(ExactKernel::DivideConquer, true, CAPACITY, &params);

    let mut rng = StdRng::seed_from_u64(7);
    let window = WindowedDatabase::new(CAPACITY, SENSORS);
    let mut miner = IncrementalMiner::new(window, measure, EngineKind::Vertical);

    // Phase 1 — fill the window, then mine it once from cold.
    for _ in 0..CAPACITY {
        miner
            .append(reading(&mut rng))
            .expect("readings use only the SENSORS event ids");
    }
    let t0 = Instant::now();
    miner.refresh();
    let cold = miner.result().stats.clone();
    println!(
        "cold start: {} windows, {} event types → {} frequent itemsets \
         ({} candidates evaluated, {:.1?})",
        CAPACITY,
        SENSORS,
        miner.result().len(),
        cold.candidates_evaluated,
        t0.elapsed()
    );

    // Phase 2 — slide: each batch expires the oldest windows, appends fresh
    // telemetry, and refreshes incrementally. The border tracker re-judges
    // only itemsets the batch could have moved across the threshold.
    let mut slid = MinerStats::default();
    let t1 = Instant::now();
    for _ in 0..STREAM / BATCH {
        miner.expire_oldest(BATCH);
        for _ in 0..BATCH {
            miner
                .append(reading(&mut rng))
                .expect("readings use only the SENSORS event ids");
        }
        slid.absorb(&miner.refresh().stats);
    }
    let elapsed = t1.elapsed();
    println!(
        "streamed  : {STREAM} windows in {} batches of {BATCH} → \
         {:.0} windows/sec sustained",
        STREAM / BATCH,
        STREAM as f64 / elapsed.as_secs_f64()
    );
    println!(
        "freshness : {} candidates re-evaluated across all refreshes \
         (cold mine: {}), border re-judged {} / reused {}",
        slid.candidates_evaluated,
        cold.candidates_evaluated,
        slid.border_rejudged,
        slid.border_skipped
    );

    // The incremental contract: the live result is bit-identical to mining
    // the current window from scratch.
    let batch = mine_level_wise(&miner.window().snapshot(), measure, miner.engine_kind());
    assert_eq!(
        miner.result().itemsets,
        batch.itemsets,
        "incremental result diverged from the batch oracle"
    );
    println!("oracle    : incremental ≡ from-scratch batch mine ✓");

    println!("\nLive co-occurring event groups (maximal itemsets, exact Pr):");
    let mut maximal = uncertain_fim::miners::postprocess::maximal(miner.result());
    maximal.sort_by_key(|fi| std::cmp::Reverse(fi.itemset.len()));
    for fi in maximal.iter().take(8) {
        println!(
            "  {}  esup/N = {:.3}  Pr{{sup ≥ {}}} = {:.4}",
            fi.itemset,
            fi.expected_support / CAPACITY as f64,
            params.msup(CAPACITY),
            fi.frequent_prob.unwrap()
        );
    }

    // The planted groups must be among the live frequent itemsets.
    let planted = Itemset::from_items([0, 1, 2]);
    assert!(
        miner.result().get(&planted).is_some(),
        "planted overheating group was not recovered"
    );
    println!("\nplanted group {planted} recovered ✓");

    // Cheap-measure variant: the same telemetry stream monitored with
    // expected support + variance instead of the exact kernel. Judging a
    // candidate here is nearly free, so this regime only beats batch
    // re-mining because window steps point-patch the retained memos
    // (memo-preserving delta evaluation) — both throughput regimes are
    // reported so CI logs show the exact-kernel *and* the cheap-moment
    // windows/sec side by side.
    let cheap = ExpectedSupport::with_variance(0.15 * CAPACITY as f64);
    let mut rng = StdRng::seed_from_u64(7);
    let mut monitor = IncrementalMiner::new(
        WindowedDatabase::new(CAPACITY, SENSORS),
        cheap,
        EngineKind::Vertical,
    );
    for _ in 0..CAPACITY {
        monitor
            .append(reading(&mut rng))
            .expect("readings use only the SENSORS event ids");
    }
    monitor.refresh();
    let mut cheap_stats = MinerStats::default();
    let t2 = Instant::now();
    for _ in 0..STREAM / BATCH {
        monitor.expire_oldest(BATCH);
        for _ in 0..BATCH {
            monitor
                .append(reading(&mut rng))
                .expect("readings use only the SENSORS event ids");
        }
        cheap_stats.absorb(&monitor.refresh().stats);
    }
    let cheap_elapsed = t2.elapsed();
    println!(
        "\ncheap measure (esup+var): {STREAM} windows → {:.0} windows/sec sustained \
         (memo nodes patched {}, rebuilt {})",
        STREAM as f64 / cheap_elapsed.as_secs_f64(),
        cheap_stats.memo_patched,
        cheap_stats.memo_rebuilt
    );
    let cheap_batch = mine_level_wise(&monitor.window().snapshot(), cheap, monitor.engine_kind());
    assert_eq!(
        monitor.result().itemsets,
        cheap_batch.itemsets,
        "cheap-measure incremental result diverged from the batch oracle"
    );
    println!("cheap measure (esup+var): incremental ≡ from-scratch batch mine ✓");
}
