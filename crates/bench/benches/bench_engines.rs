//! Head-to-head of the two support backends on a fig4-style dense
//! workload: the same miner, the same database, the same thresholds — only
//! the support-computation layer swapped. This is the microbenchmark behind
//! the vertical engine's headline claim; the `ufim-bench --engine both`
//! harness sweeps the full figure axes.

use ufim_bench::harness::{dense_db, Harness};
use ufim_bench::json::JsonRun;
use ufim_core::prelude::*;
use ufim_miners::{DcMiner, UApriori};

fn main() {
    let mut h = Harness::from_env();

    // esup(singleton) ≈ 20k·0.4·0.75 = 6000; pairs ≈ 1800; triples ≈ 540.
    // min_esup = 0.02 (threshold 400) keeps 3–4 levels alive.
    let db = dense_db(20_000, 24, 0.4, 7);
    for engine in EngineKind::ALL {
        let miner = UApriori::with_engine(engine);
        let run = JsonRun::new("N=20k,I=24,d=0.4", "UApriori", engine.name());
        h.mine("engines_uapriori_dense", run, || {
            miner
                .mine_expected_ratio(std::hint::black_box(&db), 0.02)
                .unwrap()
        });
    }

    let db = dense_db(4_000, 16, 0.4, 11);
    let params = MiningParams::new(0.05, 0.5).unwrap();
    for engine in EngineKind::ALL {
        let miner = DcMiner::with_pruning();
        let params = params.with_engine(engine);
        let run = JsonRun::new("N=4k,I=16,d=0.4", "DCB", engine.name());
        h.mine("engines_dcb_dense", run, || {
            miner
                .mine_probabilistic(std::hint::black_box(&db), params)
                .unwrap()
        });
    }

    // All backends must return identical results on the benchmarked
    // workloads.
    h.guard("engines_guard/results_identical", || {
        let db = dense_db(2_000, 16, 0.4, 7);
        let mine = |engine| {
            UApriori::with_engine(engine)
                .mine_expected_ratio(&db, 0.02)
                .unwrap()
                .sorted_itemsets()
        };
        let horizontal = mine(EngineKind::Horizontal);
        assert_eq!(horizontal, mine(EngineKind::Vertical));
        assert_eq!(horizontal, mine(EngineKind::Diffset));
    });

    h.finish("engines", 1.0, 7);
}
