//! The measure × traversal × engine **matrix**: every frequentness measure
//! crossed with every lattice traversal, one entry point.
//!
//! The paper studies eight named algorithms; under the
//! [`FrequentnessMeasure`] decomposition they are just the named cells of a
//! larger grid:
//!
//! | measure \ traversal | `level-wise` | `hyper` | `tree` |
//! |---|---|---|---|
//! | `esup` | UApriori | UH-Mine | UFP-growth |
//! | `poisson` | PDUApriori | *new* | *new* |
//! | `normal` | NDUApriori | NDUH-Mine | *new* |
//! | `exact-dp` | DP(B/NB) | *new* | — |
//! | `exact-dc` | DC(B/NB) | *new* | — |
//!
//! The two `—` cells are the matrix's principled hole: UFP-tree nodes
//! aggregate transactions, which destroys the per-transaction probability
//! vectors the exact kernels consume (see the [`crate::ufp_growth`] module
//! docs). Every other cell runs — including the five the seed codebase
//! could not build — and the level-wise column additionally runs on either
//! [`ufim_core::EngineKind`] support backend.
//!
//! [`MatrixMiner`] is the uniform entry point: a [`ProbabilisticMiner`]
//! whose measure is built from the run's [`MiningParams`]. The
//! [`MeasureKind::ExpectedSupport`] row reads `min_sup` as Definition 2's
//! `min_esup` (and ignores `pft`), so one interface sweeps the whole grid.

use crate::common::measure::{
    ExactKernel, ExactMeasure, ExpectedSupport, FrequentnessMeasure, NormalApprox, PoissonApprox,
};
use crate::{ufp_growth, uh_mine};
use ufim_core::prelude::*;

/// One cell of the measure × traversal matrix, runnable on any database
/// through the standard [`ProbabilisticMiner`] interface.
///
/// ```
/// use ufim_core::{MeasureKind, MiningParams, TraversalKind};
/// use ufim_miners::matrix::MatrixMiner;
/// use ufim_miners::prelude::*;
///
/// let db = ufim_core::examples::paper_table1();
/// // Exact DP judgment on the UH-Mine traversal — a cell no paper
/// // algorithm occupies.
/// let miner = MatrixMiner::new(MeasureKind::ExactDp, TraversalKind::HyperStructure);
/// let r = miner.mine_probabilistic_raw(&db, 0.5, 0.7).unwrap();
/// assert!(!r.is_empty());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatrixMiner {
    /// The frequentness judgment.
    pub measure: MeasureKind,
    /// The lattice exploration strategy.
    pub traversal: TraversalKind,
    /// Chernoff + count screening for the exact measures (the paper's `B`
    /// variants; ignored by the others). Defaults to on.
    pub chernoff: bool,
}

impl MatrixMiner {
    /// The cell `(measure, traversal)`, with Chernoff screening on for
    /// exact measures (the `B` variants — the paper's recommended default).
    pub fn new(measure: MeasureKind, traversal: TraversalKind) -> Self {
        MatrixMiner {
            measure,
            traversal,
            chernoff: true,
        }
    }

    /// Disables the Chernoff/count screen (the `NB` variants).
    pub fn without_chernoff(mut self) -> Self {
        self.chernoff = false;
        self
    }

    /// The cell selected by a parameter bundle's
    /// [`measure`](MiningParams::measure) /
    /// [`traversal`](MiningParams::traversal) overrides; unset axes default
    /// to the classical UApriori cell (expected support, level-wise).
    pub fn from_params(params: &MiningParams) -> Self {
        MatrixMiner::new(
            params.measure.unwrap_or_default(),
            params.traversal.unwrap_or_default(),
        )
    }

    /// Whether a cell exists: every measure runs on every traversal except
    /// the exact measures on tree growth, whose node aggregation cannot
    /// serve per-transaction probability vectors.
    pub fn supported(measure: MeasureKind, traversal: TraversalKind) -> bool {
        !(measure.is_exact() && traversal == TraversalKind::TreeGrowth)
    }

    /// Every buildable cell, row-major (measure-major) order.
    pub fn all_supported() -> Vec<MatrixMiner> {
        let mut cells = Vec::new();
        for measure in MeasureKind::ALL {
            for traversal in TraversalKind::ALL {
                if Self::supported(measure, traversal) {
                    cells.push(MatrixMiner::new(measure, traversal));
                }
            }
        }
        cells
    }

    fn dispatch<M: FrequentnessMeasure>(
        &self,
        db: &UncertainDatabase,
        measure: M,
        engine: EngineKind,
    ) -> MiningResult {
        match self.traversal {
            TraversalKind::LevelWise => {
                crate::common::measure::mine_level_wise(db, measure, engine)
            }
            TraversalKind::HyperStructure => uh_mine::mine_hyper(db, &measure),
            TraversalKind::TreeGrowth => ufp_growth::mine_tree(db, &measure),
        }
    }
}

impl MinerInfo for MatrixMiner {
    fn name(&self) -> &'static str {
        // A static table so the name stays `&'static str` across all 15
        // cells (including the unsupported ones, which error at mine time).
        match (self.measure, self.traversal) {
            (MeasureKind::ExpectedSupport, TraversalKind::LevelWise) => "esup×level-wise",
            (MeasureKind::ExpectedSupport, TraversalKind::HyperStructure) => "esup×hyper",
            (MeasureKind::ExpectedSupport, TraversalKind::TreeGrowth) => "esup×tree",
            (MeasureKind::Poisson, TraversalKind::LevelWise) => "poisson×level-wise",
            (MeasureKind::Poisson, TraversalKind::HyperStructure) => "poisson×hyper",
            (MeasureKind::Poisson, TraversalKind::TreeGrowth) => "poisson×tree",
            (MeasureKind::Normal, TraversalKind::LevelWise) => "normal×level-wise",
            (MeasureKind::Normal, TraversalKind::HyperStructure) => "normal×hyper",
            (MeasureKind::Normal, TraversalKind::TreeGrowth) => "normal×tree",
            (MeasureKind::ExactDp, TraversalKind::LevelWise) => "exact-dp×level-wise",
            (MeasureKind::ExactDp, TraversalKind::HyperStructure) => "exact-dp×hyper",
            (MeasureKind::ExactDp, TraversalKind::TreeGrowth) => "exact-dp×tree",
            (MeasureKind::ExactDc, TraversalKind::LevelWise) => "exact-dc×level-wise",
            (MeasureKind::ExactDc, TraversalKind::HyperStructure) => "exact-dc×hyper",
            (MeasureKind::ExactDc, TraversalKind::TreeGrowth) => "exact-dc×tree",
        }
    }

    fn description(&self) -> &'static str {
        "one measure × traversal cell of the mining matrix"
    }
}

impl ProbabilisticMiner for MatrixMiner {
    /// Mines the cell. [`MeasureKind::ExpectedSupport`] reads
    /// `params.min_sup` as Definition 2's `min_esup` ratio and ignores
    /// `pft`; the level-wise traversal honors `params.engine`.
    ///
    /// # Errors
    /// [`CoreError::UnsupportedCombination`] for the exact × tree cells;
    /// otherwise propagates parameter validation.
    fn mine_probabilistic(
        &self,
        db: &UncertainDatabase,
        params: MiningParams,
    ) -> Result<MiningResult, CoreError> {
        if !Self::supported(self.measure, self.traversal) {
            return Err(CoreError::UnsupportedCombination {
                measure: self.measure.name(),
                traversal: self.traversal.name(),
            });
        }
        if db.is_empty() {
            return Ok(MiningResult::default());
        }
        let mine = Mine {
            cell: self,
            db,
            engine: params.engine,
        };
        Ok(self
            .with_measure(db.num_transactions(), &params, mine)?
            .unwrap_or_default())
    }
}

/// What to do with the measure a cell builds from its parameters (see
/// [`MatrixMiner::with_measure`]): called once, monomorphised per measure.
pub(crate) trait MeasureUse {
    /// What the use produces.
    type Output;
    /// Consumes the built measure.
    fn apply<M: FrequentnessMeasure + Send + Sync + 'static>(self, measure: M) -> Self::Output;
}

/// Mines a cell with its measure.
struct Mine<'a> {
    cell: &'a MatrixMiner,
    db: &'a UncertainDatabase,
    engine: EngineKind,
}

impl MeasureUse for Mine<'_> {
    type Output = MiningResult;
    fn apply<M: FrequentnessMeasure + Send + Sync + 'static>(self, measure: M) -> MiningResult {
        self.cell.dispatch(self.db, measure, self.engine)
    }
}

impl MatrixMiner {
    /// Builds the cell's measure for a database of `n` transactions at
    /// `params` — the one place parameters become a measure — and hands it
    /// to `f`. [`MeasureKind::ExpectedSupport`] reads `params.min_sup` as
    /// `min_esup`. `Ok(None)` is the Poisson-infeasible case: `λ* > n`, so
    /// nothing can qualify and there is nothing to judge with.
    ///
    /// # Errors
    /// Propagates parameter validation from the measure constructors.
    pub(crate) fn with_measure<U: MeasureUse>(
        &self,
        n: usize,
        params: &MiningParams,
        f: U,
    ) -> Result<Option<U::Output>, CoreError> {
        Ok(Some(match self.measure {
            MeasureKind::ExpectedSupport => {
                f.apply(ExpectedSupport::new(params.min_sup.threshold_real(n)))
            }
            MeasureKind::Poisson => match PoissonApprox::from_params(n, params)? {
                None => return Ok(None),
                Some(measure) => f.apply(measure),
            },
            MeasureKind::Normal => f.apply(NormalApprox::new(params.msup(n), params.pft.get())),
            MeasureKind::ExactDp => f.apply(ExactMeasure::new(
                ExactKernel::DynamicProgramming,
                self.chernoff,
                n,
                params,
            )),
            MeasureKind::ExactDc => f.apply(ExactMeasure::new(
                ExactKernel::DivideConquer,
                self.chernoff,
                n,
                params,
            )),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use ufim_core::examples::paper_table1;

    #[test]
    fn the_matrix_has_thirteen_cells() {
        let cells = MatrixMiner::all_supported();
        assert_eq!(cells.len(), 13);
        assert!(!MatrixMiner::supported(
            MeasureKind::ExactDp,
            TraversalKind::TreeGrowth
        ));
        assert!(!MatrixMiner::supported(
            MeasureKind::ExactDc,
            TraversalKind::TreeGrowth
        ));
        // Names are unique across the grid.
        let mut names: Vec<&str> = cells.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn unsupported_cells_error_cleanly() {
        let db = paper_table1();
        let miner = MatrixMiner::new(MeasureKind::ExactDp, TraversalKind::TreeGrowth);
        let err = miner.mine_probabilistic_raw(&db, 0.5, 0.7).unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedCombination { .. }));
    }

    #[test]
    fn every_supported_cell_runs_on_table1() {
        let db = paper_table1();
        for cell in MatrixMiner::all_supported() {
            let r = cell.mine_probabilistic_raw(&db, 0.5, 0.7).unwrap();
            assert!(!r.is_empty(), "{} found nothing", cell.name());
        }
    }

    #[test]
    fn paper_cells_match_their_named_miners_exactly() {
        let db = paper_table1();
        let params = MiningParams::new(0.5, 0.7).unwrap();

        // Expected support row ↔ UApriori / UH-Mine / UFP-growth through
        // Definition 2's interface at the matching min_esup.
        for (traversal, algo) in [
            (TraversalKind::LevelWise, Algorithm::UApriori),
            (TraversalKind::HyperStructure, Algorithm::UHMine),
            (TraversalKind::TreeGrowth, Algorithm::UFPGrowth),
        ] {
            let cell = MatrixMiner::new(MeasureKind::ExpectedSupport, traversal)
                .mine_probabilistic(&db, params)
                .unwrap();
            let named = algo.mine_expected_ratio(&db, 0.5).unwrap();
            assert_eq!(cell.itemsets, named.itemsets, "{}", algo.name());
            assert_eq!(cell.stats, named.stats, "{}", algo.name());
        }

        // Every named cell sits where the registry says it does.
        for cell in MatrixMiner::all_supported() {
            if let Some(algo) = Algorithm::from_cell(cell.measure, cell.traversal) {
                assert_eq!(algo.matrix_cell(), Some(cell), "{}", algo.name());
            }
        }
    }

    #[test]
    fn new_cells_agree_with_their_level_wise_reference() {
        // The previously unbuildable cells, judged against the same
        // measure's level-wise instantiation: same semantics ⇒ same sets.
        let db = paper_table1();
        for (min_sup, pft) in [(0.5, 0.7), (0.25, 0.5), (0.25, 0.9)] {
            for measure in MeasureKind::ALL {
                let reference = MatrixMiner::new(measure, TraversalKind::LevelWise)
                    .mine_probabilistic_raw(&db, min_sup, pft)
                    .unwrap();
                for traversal in [TraversalKind::HyperStructure, TraversalKind::TreeGrowth] {
                    if !MatrixMiner::supported(measure, traversal) {
                        continue;
                    }
                    let got = MatrixMiner::new(measure, traversal)
                        .mine_probabilistic_raw(&db, min_sup, pft)
                        .unwrap();
                    assert_eq!(
                        got.sorted_itemsets(),
                        reference.sorted_itemsets(),
                        "{measure}×{traversal} at ({min_sup}, {pft})"
                    );
                    for fi in &got.itemsets {
                        let w = reference.get(&fi.itemset).unwrap();
                        assert!(
                            (fi.expected_support - w.expected_support).abs() < 1e-9,
                            "{measure}×{traversal}: esup of {}",
                            fi.itemset
                        );
                        match (fi.frequent_prob, w.frequent_prob) {
                            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9),
                            (None, None) => {}
                            other => panic!("{measure}×{traversal}: Pr presence {other:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn from_params_reads_the_overrides() {
        let params = MiningParams::new(0.5, 0.7)
            .unwrap()
            .with_measure(MeasureKind::ExactDc)
            .with_traversal(TraversalKind::HyperStructure);
        let m = MatrixMiner::from_params(&params);
        assert_eq!(m.measure, MeasureKind::ExactDc);
        assert_eq!(m.traversal, TraversalKind::HyperStructure);
        let defaults = MatrixMiner::from_params(&MiningParams::new(0.5, 0.7).unwrap());
        assert_eq!(defaults.measure, MeasureKind::ExpectedSupport);
        assert_eq!(defaults.traversal, TraversalKind::LevelWise);
        // And the selected cell actually mines.
        let db = paper_table1();
        let r = m.mine_probabilistic(&db, params).unwrap();
        assert!(!r.is_empty());
    }
}
