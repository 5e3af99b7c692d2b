//! Micro-benchmarks backing Figure 6: the approximate probabilistic miners
//! against the exact DCB reference, on a dense and a sparse dataset.

use ufim_bench::harness::Harness;
use ufim_bench::json::JsonRun;
use ufim_data::Benchmark;
use ufim_miners::Algorithm;

const SCALE: f64 = 0.002;
const SEED: u64 = 42;

fn main() {
    let mut h = Harness::from_env();
    for bench in [Benchmark::Accident, Benchmark::Kosarak] {
        let db = bench.generate(SCALE, SEED);
        let (min_sup, pft) = match bench {
            Benchmark::Accident => (0.2, 0.9),
            _ => (0.0025, 0.9),
        };
        for algo in Algorithm::APPROXIMATE {
            let miner = algo.probabilistic_miner().unwrap();
            let engine = if algo.supports_engine_selection() {
                "horizontal"
            } else {
                "n/a"
            };
            let run = JsonRun::new(bench.name(), algo.name(), engine);
            h.mine("fig6_approx_prob", run, || {
                miner
                    .mine_probabilistic_raw(std::hint::black_box(&db), min_sup, pft)
                    .unwrap()
            });
        }
    }
    h.finish("fig6_approx_prob", SCALE, SEED);
}
