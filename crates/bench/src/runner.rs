//! Measured execution of one mining run: wall time, peak heap, result size.

use ufim_core::traits::ProbabilisticMiner;
use ufim_core::{EngineKind, MinerStats, MiningParams, UncertainDatabase};
use ufim_metrics::alloc::measure_peak;
use ufim_metrics::time::Stopwatch;

/// The measurements of a single `(algorithm, database, parameters)` run —
/// one point of one curve in the paper's figures.
#[derive(Clone, Debug)]
pub struct MeasuredRun {
    /// Algorithm name as printed in the paper.
    pub algorithm: &'static str,
    /// Wall-clock seconds.
    pub time_secs: f64,
    /// Peak heap growth during the run, in bytes (0 unless the counting
    /// allocator is installed, as it is in the `ufim-bench` binary).
    pub peak_bytes: usize,
    /// Number of frequent itemsets found.
    pub num_itemsets: usize,
    /// The miner's work counters.
    pub stats: MinerStats,
    /// Largest itemset cardinality.
    pub max_len: usize,
}

/// The `pft` of an expected-support run: Definition 2 has no probability
/// threshold, and the expected-support measure never reads it.
pub const NO_PFT: f64 = 1.0;

/// Runs `miner` once, measured — a registry
/// [`Algorithm`](ufim_miners::Algorithm) or any
/// [`MatrixMiner`](ufim_miners::MatrixMiner) cell. The expected-support
/// miners read `min_sup` as Definition 2's `min_esup` and ignore `pft`;
/// `engine` reaches the level-wise traversal only.
///
/// # Panics
/// Panics on an unsupported matrix cell (exact × tree) or invalid
/// parameters — the harness builds both from trusted tables and filters
/// cells through
/// [`MatrixMiner::supported`](ufim_miners::MatrixMiner::supported).
pub fn run(
    miner: impl ProbabilisticMiner,
    db: &UncertainDatabase,
    min_sup: f64,
    pft: f64,
    engine: EngineKind,
) -> MeasuredRun {
    let params = MiningParams::new(min_sup, pft)
        .expect("valid parameters")
        .with_engine(engine);
    let sw = Stopwatch::start();
    let (result, peak) = measure_peak(|| {
        miner
            .mine_probabilistic(db, params)
            .expect("valid parameters and a supported cell")
    });
    MeasuredRun {
        algorithm: miner.name(),
        time_secs: sw.elapsed_secs(),
        peak_bytes: peak,
        num_itemsets: result.len(),
        max_len: result.max_len(),
        stats: result.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufim_core::examples::paper_table1;
    use ufim_miners::{Algorithm, MatrixMiner};

    #[test]
    fn expected_run_measures() {
        let db = paper_table1();
        let run = run(Algorithm::UApriori, &db, 0.5, NO_PFT, EngineKind::default());
        assert_eq!(run.algorithm, "UApriori");
        assert_eq!(run.num_itemsets, 2);
        assert_eq!(run.max_len, 1);
        assert!(run.time_secs >= 0.0);
    }

    #[test]
    fn probabilistic_run_measures() {
        let db = paper_table1();
        let run = run(Algorithm::DCB, &db, 0.5, 0.7, EngineKind::Vertical);
        assert_eq!(run.algorithm, "DCB");
        assert!(run.num_itemsets >= 1);
    }

    #[test]
    fn matrix_run_measures() {
        use ufim_core::{MeasureKind, TraversalKind};
        let db = paper_table1();
        let cell = MatrixMiner::new(MeasureKind::ExactDp, TraversalKind::HyperStructure);
        let run = run(cell, &db, 0.5, 0.7, EngineKind::default());
        assert_eq!(run.algorithm, "exact-dp×hyper");
        assert!(run.num_itemsets >= 1);
        assert!(run.time_secs >= 0.0);
    }
}
