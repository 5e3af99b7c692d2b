//! The measure × traversal matrix: the same frequentness judgment on every
//! traversal that can carry it, plus the previously unbuildable cells
//! head-to-head with their named level-wise counterparts. `ufim-bench
//! matrix` sweeps the grid on the paper-shaped datasets; this
//! microbenchmark isolates the traversal cost.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ufim_bench::harness::Harness;
use ufim_bench::json::JsonRun;
use ufim_core::prelude::*;
use ufim_core::{MeasureKind, TraversalKind};
use ufim_miners::MatrixMiner;

/// A mixed-density synthetic database: a handful of hot items plus a sparse
/// tail, so neither traversal family gets a free win.
fn mixed_db(transactions: usize, items: u32, seed: u64) -> UncertainDatabase {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = (0..transactions)
        .map(|_| {
            let units: Vec<(u32, f64)> = (0..items)
                .filter_map(|i| {
                    let density = if i < 6 { 0.5 } else { 0.1 };
                    if rng.gen_bool(density) {
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

fn main() {
    let mut h = Harness::from_env();

    let db = mixed_db(4_000, 20, 13);
    let params = MiningParams::new(0.05, 0.7).unwrap();
    for measure in [MeasureKind::Normal, MeasureKind::ExactDp] {
        for traversal in TraversalKind::ALL {
            if !MatrixMiner::supported(measure, traversal) {
                continue;
            }
            let cell = MatrixMiner::new(measure, traversal);
            let run = JsonRun::new(
                "N=4k,I=20",
                format!("{measure}×{traversal}"),
                params.engine.name(),
            );
            h.mine(&format!("matrix_{measure}"), run, || {
                cell.mine_probabilistic(std::hint::black_box(&db), params)
                    .unwrap()
            });
        }
    }

    // Every traversal of a measure must find the same itemsets on the
    // benchmarked workload.
    h.guard("matrix_guard/traversals_identical", || {
        let db = mixed_db(1_000, 16, 13);
        for measure in MeasureKind::ALL {
            let reference = MatrixMiner::new(measure, TraversalKind::LevelWise)
                .mine_probabilistic(&db, params)
                .unwrap();
            for traversal in [TraversalKind::HyperStructure, TraversalKind::TreeGrowth] {
                if !MatrixMiner::supported(measure, traversal) {
                    continue;
                }
                let got = MatrixMiner::new(measure, traversal)
                    .mine_probabilistic(&db, params)
                    .unwrap();
                assert_eq!(
                    got.sorted_itemsets(),
                    reference.sorted_itemsets(),
                    "{measure}×{traversal} diverged on the bench workload"
                );
            }
        }
    });

    h.finish("matrix", 1.0, 13);
}
