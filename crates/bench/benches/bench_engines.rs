//! Head-to-head of the support backends on a fig4-style dense workload
//! and on a deep Quest workload: the same miner, the same database, the
//! same thresholds — only the support-computation layer swapped. This is
//! the microbenchmark behind the vertical engine's headline claim; the
//! `ufim-bench --engine both` harness sweeps the full figure axes.
//!
//! `--smoke --json-out DIR` writes `BENCH_engines.json`, whose
//! `intersections` and `num_itemsets` join the strict regression gate.

use ufim_bench::harness::{dense_db, Harness};
use ufim_bench::json::JsonRun;
use ufim_bench::NO_PFT;
use ufim_core::prelude::*;
use ufim_data::Benchmark;
use ufim_miners::Algorithm;

fn main() {
    let mut h = Harness::from_env();

    // esup(singleton) ≈ 20k·0.4·0.75 = 6000; pairs ≈ 1800; triples ≈ 540.
    // min_esup = 0.02 (threshold 400) keeps 3–4 levels alive.
    let db = dense_db(20_000, 24, 0.4, 7);
    for engine in EngineKind::ALL {
        let params = MiningParams::new(0.02, NO_PFT).unwrap().with_engine(engine);
        let run = JsonRun::new("N=20k,I=24,d=0.4", "UApriori", engine.name());
        h.mine("engines_uapriori_dense", run, || {
            Algorithm::UApriori
                .mine_probabilistic(std::hint::black_box(&db), params)
                .unwrap()
        });
    }

    // The T25I15D320k shape at N = 3,200 and min_esup = 0.01: hundreds of
    // frequent items but few frequent pairs, so almost every pair is
    // dropped on its co-occurrence count before level 2 is evaluated.
    let db = Benchmark::T25I15D320k.generate(0.01, 7);
    for engine in EngineKind::ALL {
        let params = MiningParams::new(0.01, NO_PFT).unwrap().with_engine(engine);
        let run = JsonRun::new("T25I15,N=3.2k", "UApriori", engine.name());
        h.mine("engines_uapriori_deep", run, || {
            Algorithm::UApriori
                .mine_probabilistic(std::hint::black_box(&db), params)
                .unwrap()
        });
    }

    let db = dense_db(4_000, 16, 0.4, 11);
    let params = MiningParams::new(0.05, 0.5).unwrap();
    for engine in EngineKind::ALL {
        let params = params.with_engine(engine);
        let run = JsonRun::new("N=4k,I=16,d=0.4", "DCB", engine.name());
        h.mine("engines_dcb_dense", run, || {
            Algorithm::DCB
                .mine_probabilistic(std::hint::black_box(&db), params)
                .unwrap()
        });
    }

    // All backends must return identical results on the benchmarked
    // workloads.
    h.guard("engines_guard/results_identical", || {
        let db = dense_db(2_000, 16, 0.4, 7);
        let mine = |engine| {
            let params = MiningParams::new(0.02, NO_PFT).unwrap().with_engine(engine);
            Algorithm::UApriori
                .mine_probabilistic(&db, params)
                .unwrap()
                .sorted_itemsets()
        };
        let horizontal = mine(EngineKind::Horizontal);
        assert_eq!(horizontal, mine(EngineKind::Vertical));
        assert_eq!(horizontal, mine(EngineKind::Diffset));
    });

    h.finish("engines", 1.0, 7);
}
