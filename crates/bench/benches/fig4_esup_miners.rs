//! Micro-benchmarks backing Figure 4: the three expected-support miners
//! across dense and sparse datasets.
//!
//! These complement (not replace) the `ufim-bench fig4` harness: here the
//! time comparisons are best-of-N at a fixed small scale, while the
//! harness sweeps full parameter axes and measures memory.

use ufim_bench::harness::Harness;
use ufim_bench::json::JsonRun;
use ufim_core::prelude::*;
use ufim_data::Benchmark;
use ufim_miners::Algorithm;

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
            let engine = if algo.supports_engine_selection() {
                "horizontal"
            } else {
                "n/a"
            };
            let run = JsonRun::new(bench.name(), algo.name(), engine);
            h.mine("fig4_esup_miners", run, || {
                algo.mine_expected_ratio(std::hint::black_box(&db), min_esup)
                    .unwrap()
            });
        }
    }

    h.finish("fig4_esup_miners", SCALE, SEED);
}
