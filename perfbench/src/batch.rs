//! The batch phase: the paper's eight miners, level-wise ones on the
//! Vertical engine.

use ufim_core::prelude::*;
use ufim_miners::Algorithm;

use crate::workload::Workload;

/// The eight miners, in report order.
pub const MINERS: [Algorithm; 8] = [
    Algorithm::UApriori,
    Algorithm::UHMine,
    Algorithm::UFPGrowth,
    Algorithm::DPB,
    Algorithm::DCB,
    Algorithm::PDUApriori,
    Algorithm::NDUApriori,
    Algorithm::NDUHMine,
];

/// Miners that share a frequentness definition and must therefore return
/// the same itemsets.
pub const AGREE: [(Algorithm, Algorithm); 4] = [
    (Algorithm::UApriori, Algorithm::UHMine),
    (Algorithm::UApriori, Algorithm::UFPGrowth),
    (Algorithm::DPB, Algorithm::DCB),
    (Algorithm::NDUApriori, Algorithm::NDUHMine),
];

/// One mine of `algo` over `db` at the workload's thresholds.
pub fn mine(db: &UncertainDatabase, algo: Algorithm, w: &Workload) -> MiningResult {
    let params = MiningParams::new(w.min_sup, w.pft)
        .expect("workload thresholds lie in (0, 1]")
        .with_engine(EngineKind::Vertical);
    algo.matrix_cell()
        .expect("the eight paper miners occupy matrix cells")
        .mine_probabilistic(db, params)
        .expect("paper cells are supported")
}

/// For each pair of [`AGREE`], whether its canonicalised itemsets are
/// equal, and what a mismatch means; `results` holds one result per miner
/// in [`MINERS`] order.
pub fn agreement(results: &[MiningResult]) -> Vec<(bool, String)> {
    let index = |a: Algorithm| {
        MINERS
            .iter()
            .position(|&m| m == a)
            .expect("AGREE names listed miners")
    };
    AGREE
        .iter()
        .map(|&(a, b)| {
            (
                results[index(a)].sorted_itemsets() == results[index(b)].sorted_itemsets(),
                format!("{} and {} returned different itemsets", a.name(), b.name()),
            )
        })
        .collect()
}
