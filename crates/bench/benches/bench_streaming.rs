//! Sliding-window streaming benchmark: sustained ingest through the
//! incremental miner versus re-mining the window from scratch at every
//! checkpoint.
//!
//! A fixed synthetic stream slides through a 4,096-slot window in eight
//! expire/append rounds of 256 transactions each. For every support
//! backend, one counted pass drives the [`IncrementalMiner`] and the batch
//! oracle side by side, asserting at *every* checkpoint that the
//! incremental records are identical to the from-scratch mine — the
//! incremental contract, enforced in-binary. The same pass accumulates the
//! deterministic work counters, and the binary asserts the acceptance
//! floor: across the stream phase, the incremental path must evaluate
//! **strictly fewer** candidates than the batch oracle, at no more than
//! 90% of the batch count (measured ratios sit far below; the bound only
//! catches a collapse of the border reuse).
//!
//! The bench emits a `BENCH_streaming.json` snapshot (`--json-out DIR`).
//! Each side's [`MinerStats`], summed over the counted pass, and the final
//! result size are bit-identical across machines and pool sizes, so the
//! work counters (border and memo tallies included) are strict in the
//! gate; the throughput (`wall_ms`, from which tx/sec derives) and the
//! memo peak ride along as advisory fields.
//!
//! With `--gate` (this bench's own flag) the binary additionally asserts
//! the **wall-clock contract** of memo-preserving delta evaluation: on the
//! columnar backends (vertical and diffset), the incremental pass must
//! finish in ≤ 1.0× the batch re-mine's wall-clock on this cheap esup+var
//! fixture at 6% churn — the memo patch walk plus warm-memo short-circuit
//! has to *pay for itself*, not just shrink candidate counts. The gate
//! compares the two sides' best samples, so a single scheduler hiccup
//! cannot flip the verdict.

use ufim_bench::harness::{dense_db, Harness};
use ufim_bench::json::JsonRun;
use ufim_core::prelude::*;
use ufim_miners::common::{mine_level_wise, ExpectedSupport, IncrementalMiner};

const SEED: u64 = 17;
/// Window capacity (slots — the snapshot's constant transaction count).
const CAPACITY: usize = 4_096;
const ITEMS: u32 = 12;
/// Expire/append burst per round.
const BATCH: usize = 256;
/// Stream-phase rounds after the initial fill.
const ROUNDS: usize = 8;
/// Expected-support threshold ratio: singletons and most pairs stay
/// frequent on the dense fixture, triples fall below — a live border.
const MIN_ESUP_RATIO: f64 = 0.05;

/// One counted pass: incremental and batch side by side, record-equality
/// asserted at every checkpoint. Returns `(incremental, batch, final
/// result size)`, each side's counters merged over every checkpoint.
fn counted_pass(
    txs: &[Transaction],
    engine: EngineKind,
    threshold: f64,
) -> (MinerStats, MinerStats, u64) {
    let window = WindowedDatabase::new(CAPACITY, ITEMS);
    let mut miner =
        IncrementalMiner::new(window, ExpectedSupport::with_variance(threshold), engine);
    let (mut inc, mut batch) = (MinerStats::default(), MinerStats::default());
    let mut stream = txs.iter().cloned();
    for t in stream.by_ref().take(CAPACITY) {
        miner.append(t).unwrap();
    }
    let check = |miner: &mut IncrementalMiner<ExpectedSupport>,
                 inc: &mut MinerStats,
                 batch: &mut MinerStats| {
        let result = miner.refresh();
        inc.absorb(&result.stats);
        let oracle = mine_level_wise(
            &miner.window().snapshot(),
            ExpectedSupport::with_variance(threshold),
            engine,
        );
        batch.absorb(&oracle.stats);
        assert_eq!(
            miner.result().itemsets,
            oracle.itemsets,
            "{engine}: incremental diverged from the batch oracle"
        );
        oracle.len() as u64
    };
    // Cold mine — identical work on both sides by construction.
    check(&mut miner, &mut inc, &mut batch);
    let mut final_size = 0;
    for _ in 0..ROUNDS {
        miner.expire_oldest(BATCH);
        for t in stream.by_ref().take(BATCH) {
            miner.append(t).unwrap();
        }
        final_size = check(&mut miner, &mut inc, &mut batch);
    }
    (inc, batch, final_size)
}

/// One timed replay of one side. `incremental == false` re-mines the
/// snapshot at every checkpoint instead of refreshing.
fn timed_pass(txs: &[Transaction], engine: EngineKind, threshold: f64, incremental: bool) {
    let window = WindowedDatabase::new(CAPACITY, ITEMS);
    let mut miner =
        IncrementalMiner::new(window, ExpectedSupport::with_variance(threshold), engine);
    let mut stream = txs.iter().cloned();
    for t in stream.by_ref().take(CAPACITY) {
        miner.append(t).unwrap();
    }
    let mine = |miner: &mut IncrementalMiner<ExpectedSupport>| {
        if incremental {
            miner.refresh();
        } else {
            std::hint::black_box(mine_level_wise(
                &miner.window().snapshot(),
                ExpectedSupport::with_variance(threshold),
                engine,
            ));
        }
    };
    mine(&mut miner);
    for _ in 0..ROUNDS {
        miner.expire_oldest(BATCH);
        for t in stream.by_ref().take(BATCH) {
            miner.append(t).unwrap();
        }
        mine(&mut miner);
    }
}

fn main() {
    let mut h = Harness::from_env();
    let gate = std::env::args().any(|a| a == "--gate");

    // The whole stream, synthesized once: the initial fill plus every
    // round's arrivals (dense fixture, ~35% density, confident readings).
    let stream = dense_db(CAPACITY + ROUNDS * BATCH, ITEMS, 0.35, SEED);
    let txs = stream.transactions();
    let threshold = MIN_ESUP_RATIO * CAPACITY as f64;
    let streamed = (ROUNDS * BATCH) as f64;

    for engine in EngineKind::ALL {
        let workload = format!("N={CAPACITY},rounds={ROUNDS},batch={BATCH}");
        let (inc, batch, num_itemsets) = counted_pass(txs, engine, threshold);
        // The acceptance floor: border reuse must keep the incremental
        // path strictly under the batch oracle's candidate workload.
        let ratio = inc.candidates_evaluated as f64 / batch.candidates_evaluated as f64;
        assert!(
            inc.candidates_evaluated < batch.candidates_evaluated && ratio <= 0.90,
            "{workload} {engine}: incremental evaluated {} candidates vs batch {} \
             (ratio {ratio:.2} > 0.90) — border reuse collapsed",
            inc.candidates_evaluated,
            batch.candidates_evaluated
        );
        let mut best = [None; 2];
        for (side, (algorithm, stats, incremental)) in [
            ("incremental", &inc, true),
            ("batch re-mine", &batch, false),
        ]
        .into_iter()
        .enumerate()
        {
            let run = JsonRun {
                num_itemsets,
                stats: stats.clone(),
                ..JsonRun::new(&workload, algorithm, engine.name())
            };
            let Some(timing) = h.bench("streaming", run, || {
                timed_pass(txs, engine, threshold, incremental)
            }) else {
                continue;
            };
            best[side] = Some(timing.best_ms);
            println!(
                "{workload:<34} {:<10} {algorithm:<14} {:.0} tx/sec, candidates {:>5}, \
                 intersections {:>6}, itemsets {num_itemsets}",
                engine.name(),
                streamed / (timing.median_ms / 1000.0),
                stats.candidates_evaluated,
                stats.intersections,
            );
        }
        println!(
            "{workload:<34} {:<10} candidate ratio {ratio:.2} (border re-judged {}, reused {}; \
             memo patched {}, rebuilt {})",
            engine.name(),
            inc.border_rejudged,
            inc.border_skipped,
            inc.memo_patched,
            inc.memo_rebuilt
        );
        // The wall-clock contract (--gate): on the columnar backends the
        // warm-memo path must actually be faster, not merely do less
        // counted work. Horizontal keeps no engine memo, so it only ever
        // rides the candidate-ratio floor above.
        let columnar = matches!(engine, EngineKind::Vertical | EngineKind::Diffset);
        if gate && columnar {
            let [Some(incremental), Some(batch)] = best else {
                panic!("--gate needs both sides timed; drop the filter");
            };
            let speedup = incremental / batch;
            println!(
                "{workload:<34} {:<10} wall-clock gate: incremental {incremental:.2} ms vs \
                 batch {batch:.2} ms ({speedup:.2}x, limit 1.00x)",
                engine.name(),
            );
            assert!(
                speedup <= 1.0,
                "{workload} {engine}: incremental best sample {incremental:.2} ms exceeded the \
                 batch re-mine's {batch:.2} ms ({speedup:.2}x > 1.00x) — memo patching stopped \
                 paying off"
            );
        }
    }

    h.finish("streaming", 1.0, SEED);
}
