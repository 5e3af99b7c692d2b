//! Micro-benchmarks backing Figure 5: the exact probabilistic miners,
//! isolating the two paper-claimed effects — DC vs DP kernel cost and the
//! Chernoff-bound pruning benefit.

use ufim_bench::harness::Harness;
use ufim_bench::json::JsonRun;
use ufim_core::ProbabilisticMiner;
use ufim_data::Benchmark;
use ufim_miners::Algorithm;

const SCALE: f64 = 0.002;
const SEED: u64 = 42;

fn main() {
    let mut h = Harness::from_env();
    for bench in [Benchmark::Accident, Benchmark::Kosarak] {
        let db = bench.generate(SCALE, SEED);
        let (min_sup, pft) = match bench {
            Benchmark::Accident => (0.4, 0.9),
            _ => (0.005, 0.9),
        };
        for algo in Algorithm::EXACT_PROBABILISTIC {
            let engine = if algo.supports_engine_selection() {
                "horizontal"
            } else {
                "n/a"
            };
            let run = JsonRun::new(bench.name(), algo.name(), engine);
            h.mine("fig5_exact_prob", run, || {
                algo.mine_probabilistic_raw(std::hint::black_box(&db), min_sup, pft)
                    .unwrap()
            });
        }
    }
    h.finish("fig5_exact_prob", SCALE, SEED);
}
