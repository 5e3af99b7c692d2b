//! Micro-benchmarks backing Figure 4: the three expected-support miners
//! across a dense and a sparse dataset, plus the decremental-pruning
//! ablation called out in DESIGN.md.
//!
//! These complement (not replace) the `ufim-bench fig4` harness: here the
//! time comparisons are best-of-N at a fixed small scale, while the
//! harness sweeps full parameter axes and measures memory.

use ufim_bench::harness::Harness;
use ufim_bench::json::JsonRun;
use ufim_core::prelude::*;
use ufim_data::Benchmark;
use ufim_miners::{Algorithm, UApriori};

const SCALE: f64 = 0.002;
const SEED: u64 = 42;

fn main() {
    let mut h = Harness::from_env();

    for bench in [
        Benchmark::Connect,
        Benchmark::Accident,
        Benchmark::Kosarak,
        Benchmark::Gazelle,
    ] {
        let db = bench.generate(SCALE, SEED);
        // A mid-axis threshold: hard enough to exercise level ≥ 2.
        let min_esup = match bench {
            Benchmark::Connect => 0.5,
            Benchmark::Accident => 0.3,
            Benchmark::Kosarak => 0.005,
            Benchmark::Gazelle => 0.01,
            Benchmark::T25I15D320k => 0.1,
        };
        for algo in Algorithm::EXPECTED_SUPPORT {
            let miner = algo.expected_support_miner().unwrap();
            let engine = if algo.supports_engine_selection() {
                "horizontal"
            } else {
                "n/a"
            };
            let run = JsonRun::new(bench.name(), algo.name(), engine);
            h.mine("fig4_esup_miners", run, || {
                miner
                    .mine_expected_ratio(std::hint::black_box(&db), min_esup)
                    .unwrap()
            });
        }
    }

    // Ablation A-2 (DESIGN.md): UApriori's decremental pruning on/off.
    let db = Benchmark::Connect.generate(SCALE, SEED);
    for (label, miner) in [
        ("plain", UApriori::new()),
        ("decremental", UApriori::with_decremental_pruning()),
    ] {
        let run = JsonRun::new(
            "Connect,min_esup=0.45",
            format!("UApriori-{label}"),
            "horizontal",
        );
        h.mine("fig4_ablation_decremental", run, || {
            miner
                .mine_expected_ratio(std::hint::black_box(&db), 0.45)
                .unwrap()
        });
    }

    h.finish("fig4_esup_miners", SCALE, SEED);
}
