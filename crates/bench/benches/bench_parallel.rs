//! The parallel pattern-growth benchmark: the headline workloads —
//! UApriori on a dense database (level-wise, scratch-space intersection
//! kernels), NDUH-Mine (hyper-structure traversal), UFP-growth
//! (tree-growth traversal), and the **deep-skew** pair (UH-Mine and
//! UFP-growth on a Zipf-concentrated database whose one dominant
//! first-level subtree a one-level fan-out provably cannot balance: with
//! ~90% of the transactions in one subtree, one-level decomposition caps
//! the parallel fraction at ~10%, so nested re-spawning is the only way
//! past ~1.1× speedup) — swept over worker pool sizes through
//! `ufim_core::parallel::with_thread_override`.
//!
//! Every workload runs at a fixed `threads=1` and `threads=2`, so the
//! snapshot has the same rows on every host: on a multi-core host the
//! ratio of the two rows' `wall_ms` is the work-stealing speedup; on a
//! single core it bounds the scheduling overhead instead. The rows'
//! counters are the same at both pool sizes (results and stats are
//! bit-identical by construction, pinned by `tests/thread_determinism.rs`)
//! and join the strict regression gate through the checked-in
//! `BENCH_parallel.json`. The `parallel_guard` guard asserts
//! cross-pool-size result identity on the benchmarked workloads,
//! including the deep-skew fixture's nested-spawn path.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ufim_bench::harness::{dense_db, Harness};
use ufim_bench::json::JsonRun;
use ufim_core::parallel::with_thread_override;
use ufim_core::prelude::*;
use ufim_miners::{NDUHMine, UApriori, UFPGrowth, UHMine};

/// Sparser mixed database — the depth-first miners' home regime.
fn sparse_db(transactions: usize, items: u32, seed: u64) -> UncertainDatabase {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = (0..transactions)
        .map(|_| {
            let units: Vec<(u32, f64)> = (0..items)
                .filter_map(|i| {
                    // Zipf-flavored inclusion: low ids common, tail rare.
                    let p_incl = 0.6 / (1.0 + i as f64 * 0.35);
                    if rng.gen_bool(p_incl) {
                        Some((i, rng.gen_range(0.3..=1.0)))
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

/// Deeply skewed database — the single shared definition in
/// `ufim_data::benchmarks::deep_skew` (also the determinism suite's
/// fixture, so this guard and that suite can never drift apart): item
/// inclusion decays geometrically from a near-ubiquitous item 0, so one
/// first-level subtree holds almost all the work and only nested
/// re-spawning can spread it across a pool.
use ufim_data::benchmarks::deep_skew as deep_skew_db;

/// The pool sizes every workload runs at: fixed, so the snapshot's rows
/// do not depend on the host's core count.
const POOLS: [usize; 2] = [1, 2];

/// Times `mine` at each pool size as one row per size.
fn sweep(
    h: &mut Harness,
    group: &str,
    workload: &str,
    algorithm: &str,
    engine: &str,
    mine: impl Fn() -> MiningResult,
) {
    for threads in POOLS {
        let run = JsonRun::new(format!("{workload},threads={threads}"), algorithm, engine);
        h.mine(group, run, || with_thread_override(threads, &mine));
    }
}

fn main() {
    let mut h = Harness::from_env();

    let dense = dense_db(20_000, 24, 0.4, 7);
    let miner = UApriori::with_engine(EngineKind::Vertical);
    sweep(
        &mut h,
        "parallel_uapriori_dense",
        "N=20k,I=24,d=0.4",
        "UApriori",
        "vertical",
        || {
            miner
                .mine_expected_ratio(std::hint::black_box(&dense), 0.02)
                .unwrap()
        },
    );

    let sparse = sparse_db(30_000, 24, 13);
    sweep(
        &mut h,
        "parallel_nduh_mine",
        "N=30k,I=24,zipfish",
        "NDUH-Mine",
        "n/a",
        || {
            NDUHMine::new()
                .mine_probabilistic_raw(std::hint::black_box(&sparse), 0.05, 0.5)
                .unwrap()
        },
    );

    let dense = dense_db(4_000, 20, 0.3, 21);
    sweep(
        &mut h,
        "parallel_ufp_growth",
        "N=4k,I=20,d=0.3",
        "UFP-growth",
        "n/a",
        || {
            UFPGrowth::new()
                .mine_expected_ratio(std::hint::black_box(&dense), 0.05)
                .unwrap()
        },
    );

    // The deep-skew workload: UH-Mine and UFP-growth on the
    // dominant-subtree database. The interesting comparison is `threads=1`
    // vs `threads=2` here specifically — a one-level fan-out gains almost
    // nothing on this shape, nested spawning is what moves it.
    let skewed = deep_skew_db(12_000, 16, 4242);
    sweep(
        &mut h,
        "parallel_deep_skew",
        "N=12k,I=16,skewed",
        "UH-Mine",
        "n/a",
        || {
            UHMine::new()
                .mine_expected_ratio(std::hint::black_box(&skewed), 0.05)
                .unwrap()
        },
    );
    sweep(
        &mut h,
        "parallel_deep_skew",
        "N=12k,I=16,skewed",
        "UFP-growth",
        "n/a",
        || {
            UFPGrowth::new()
                .mine_expected_ratio(std::hint::black_box(&skewed), 0.05)
                .unwrap()
        },
    );

    // The benchmarked miners must produce identical results and stats at
    // every pool size.
    h.guard("parallel_guard/pool_sizes_identical", || {
        let dense = dense_db(4_000, 16, 0.4, 7);
        let sparse = sparse_db(4_000, 16, 13);
        // Full-size deep-skew fixture: the nested-spawn path only triggers
        // above the size cutoffs, and pinning that path is the point.
        let skewed = deep_skew_db(12_000, 16, 4242);
        let mines: [(&str, &dyn Fn() -> MiningResult); 5] = [
            ("UApriori", &|| {
                UApriori::with_engine(EngineKind::Vertical)
                    .mine_expected_ratio(&dense, 0.02)
                    .unwrap()
            }),
            ("NDUH-Mine", &|| {
                NDUHMine::new()
                    .mine_probabilistic_raw(&sparse, 0.05, 0.5)
                    .unwrap()
            }),
            ("UFP-growth", &|| {
                UFPGrowth::new().mine_expected_ratio(&dense, 0.05).unwrap()
            }),
            // Deep skew: these runs take the nested-spawn path, so the
            // guard pins nested bit-identity in CI, not just locally.
            ("deep-skew UH-Mine", &|| {
                UHMine::new().mine_expected_ratio(&skewed, 0.05).unwrap()
            }),
            ("deep-skew UFP-growth", &|| {
                UFPGrowth::new().mine_expected_ratio(&skewed, 0.05).unwrap()
            }),
        ];
        for (name, mine) in mines {
            let reference = with_thread_override(1, mine);
            for threads in [2usize, 8] {
                let got = with_thread_override(threads, mine);
                assert_eq!(got.sorted_itemsets(), reference.sorted_itemsets());
                assert_eq!(got.stats, reference.stats, "{name} stats @ {threads}");
            }
        }
    });

    h.finish("parallel", 1.0, 7);
}
