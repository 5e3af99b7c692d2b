//! The two mining interfaces corresponding to the paper's two definitions of
//! "frequent itemset over an uncertain database".

use crate::database::UncertainDatabase;
use crate::error::CoreError;
use crate::params::{MiningParams, Ratio};
use crate::result::MiningResult;

/// Descriptive metadata every miner exposes, used by the harness and the
/// algorithm registry.
pub trait MinerInfo {
    /// Short stable identifier, e.g. `"UApriori"`, `"DCB"`.
    fn name(&self) -> &'static str;
    /// One-line description (search strategy / data structure, as in the
    /// paper's Table 3 and Table 5).
    fn description(&self) -> &'static str {
        ""
    }
}

/// An algorithm mining **expected-support-based frequent itemsets**
/// (Definition 2): all `X` with `esup(X) ≥ N · min_esup`.
///
/// Implementors in this workspace: the miners crate's `Algorithm` for
/// UApriori, UFP-growth and UH-Mine (paper §3.1), and the brute-force
/// oracle.
pub trait ExpectedSupportMiner: MinerInfo {
    /// Mines all expected-support-based frequent itemsets.
    ///
    /// # Errors
    /// Propagates parameter validation failures; an empty database is not an
    /// error and yields an empty result.
    fn mine_expected(
        &self,
        db: &UncertainDatabase,
        min_esup: Ratio,
    ) -> Result<MiningResult, CoreError>;

    /// Convenience wrapper validating the raw ratio.
    fn mine_expected_ratio(
        &self,
        db: &UncertainDatabase,
        min_esup: f64,
    ) -> Result<MiningResult, CoreError> {
        self.mine_expected(db, Ratio::new("min_esup", min_esup)?)
    }
}

/// An algorithm mining **probabilistic frequent itemsets** (Definition 4):
/// all `X` with `Pr{sup(X) ≥ ⌈N·min_sup⌉} > pft`.
///
/// Implementors: the miners crate's `Algorithm` — the exact miners DP/DC
/// (±Chernoff pruning, §3.2) and the approximate miners PDUApriori,
/// NDUApriori and NDUH-Mine (§3.3) — its `MatrixMiner` cells, and the
/// brute-force oracle.
pub trait ProbabilisticMiner: MinerInfo {
    /// Mines all probabilistic frequent itemsets under `params`.
    ///
    /// # Errors
    /// Propagates parameter validation failures; an empty database yields an
    /// empty result.
    fn mine_probabilistic(
        &self,
        db: &UncertainDatabase,
        params: MiningParams,
    ) -> Result<MiningResult, CoreError>;

    /// Convenience wrapper validating raw ratios.
    fn mine_probabilistic_raw(
        &self,
        db: &UncertainDatabase,
        min_sup: f64,
        pft: f64,
    ) -> Result<MiningResult, CoreError> {
        self.mine_probabilistic(db, MiningParams::new(min_sup, pft)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemset::Itemset;
    use crate::result::FrequentItemset;

    /// A trivial miner returning singletons above the threshold, used only to
    /// exercise the trait plumbing and default methods.
    struct NaiveSingletons;

    impl MinerInfo for NaiveSingletons {
        fn name(&self) -> &'static str {
            "NaiveSingletons"
        }
    }

    impl ExpectedSupportMiner for NaiveSingletons {
        fn mine_expected(
            &self,
            db: &UncertainDatabase,
            min_esup: Ratio,
        ) -> Result<MiningResult, CoreError> {
            let threshold = min_esup.threshold_real(db.num_transactions());
            let mut out = MiningResult::default();
            for (item, esup) in db.item_expected_supports().into_iter().enumerate() {
                if esup >= threshold {
                    out.itemsets.push(FrequentItemset::with_esup(
                        Itemset::singleton(item as u32),
                        esup,
                    ));
                }
            }
            Ok(out)
        }
    }

    #[test]
    fn trait_plumbing_works_on_paper_example() {
        let db = crate::examples::paper_table1();
        let r = NaiveSingletons.mine_expected_ratio(&db, 0.5).unwrap();
        assert_eq!(
            r.sorted_itemsets(),
            vec![Itemset::singleton(0), Itemset::singleton(2)]
        );
        assert_eq!(NaiveSingletons.name(), "NaiveSingletons");
        assert_eq!(NaiveSingletons.description(), "");
    }

    #[test]
    fn invalid_ratio_is_rejected_by_wrapper() {
        let db = crate::examples::paper_table1();
        assert!(NaiveSingletons.mine_expected_ratio(&db, 0.0).is_err());
        assert!(NaiveSingletons.mine_expected_ratio(&db, 1.1).is_err());
    }
}
