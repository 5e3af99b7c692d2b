//! Algorithm registry: every miner in the study, addressable by name.
//!
//! The experiment harness and examples iterate over this enum to run "all
//! expected-support miners" or "all approximate miners" exactly as the
//! paper's Section 4 groups them.

use crate::brute::BruteForce;
use crate::matrix::MatrixMiner;
use ufim_core::prelude::*;

/// The paper's three algorithm groups (§3), plus the testing oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlgorithmGroup {
    /// Definition 2 miners (§3.1).
    ExpectedSupport,
    /// Exact Definition 4 miners (§3.2).
    ExactProbabilistic,
    /// Approximate Definition 4 miners (§3.3).
    ApproximateProbabilistic,
    /// Not a paper algorithm: ground truth for tests.
    Oracle,
}

impl AlgorithmGroup {
    /// Human-readable group name (paper's section titles).
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmGroup::ExpectedSupport => "Expected Support-based Frequent Algorithms",
            AlgorithmGroup::ExactProbabilistic => "Exact Probabilistic Frequent Algorithms",
            AlgorithmGroup::ApproximateProbabilistic => {
                "Approximate Probabilistic Frequent Algorithms"
            }
            AlgorithmGroup::Oracle => "Oracle",
        }
    }

    /// The group a frequentness measure belongs to — the paper's §3
    /// classification is a function of the measure alone, never of the
    /// traversal.
    pub fn of_measure(measure: MeasureKind) -> Self {
        match measure {
            MeasureKind::ExpectedSupport => AlgorithmGroup::ExpectedSupport,
            MeasureKind::ExactDp | MeasureKind::ExactDc => AlgorithmGroup::ExactProbabilistic,
            MeasureKind::Poisson | MeasureKind::Normal => AlgorithmGroup::ApproximateProbabilistic,
        }
    }
}

/// Every algorithm in the study (the eight of Table 10, the un-pruned exact
/// variants, and the oracle). Each paper algorithm is one named cell of the
/// measure × traversal × engine matrix: it implements [`ProbabilisticMiner`]
/// (and, for the expected-support group, [`ExpectedSupportMiner`]) by
/// forwarding to its [`matrix_cell`](Algorithm::matrix_cell), with the
/// support backend riding in [`MiningParams::engine`].
///
/// ```
/// use ufim_miners::prelude::*;
///
/// let db = ufim_core::examples::paper_table1();
/// let r = Algorithm::UApriori.mine_expected_ratio(&db, 0.5).unwrap();
/// assert_eq!(r.len(), 2); // Example 1: {A} and {C}
/// let r = Algorithm::DCB.mine_probabilistic_raw(&db, 0.5, 0.7).unwrap();
/// assert!(!r.is_empty());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Expected support, level-wise (Chui et al. 2007; §3.1.1): the
    /// uncertain Apriori. A level's candidates are counted in one pass and
    /// an itemset is frequent iff `esup ≥ N · min_esup`; downward closure
    /// carries over, so classical join + subset pruning applies unchanged.
    UApriori,
    /// Expected support over a UFP-tree (Leung et al. 2008; §3.1.2): nodes
    /// are shared only on equal item *and* probability (see
    /// [`crate::ufp_growth`]).
    UFPGrowth,
    /// Expected support over the UH-Struct hyper-structure (Aggarwal et al.
    /// 2009; §3.1.3; see [`crate::uh_mine`]).
    UHMine,
    /// Exact frequent probability by `O(N·msup)` dynamic programming
    /// (§3.2.1), level-wise, with the Chernoff + count screen (§3.2.3).
    /// Frequent probability is anti-monotone (Bernecker et al. 2009), so
    /// downward closure justifies level-wise candidate generation.
    DPB,
    /// [`Algorithm::DPB`] without the screen: every candidate pays the
    /// exact kernel.
    DPNB,
    /// Exact frequent probability by divide-and-conquer PMF construction
    /// with FFT convolution, `O(N log N)` per itemset (§3.2.2), with the
    /// screen: a cheap pass (expected support + nonzero count) drops a
    /// candidate whose Chernoff bound (Lemma 1) already fails `pft`, or with
    /// fewer nonzero transactions than `msup`, before any kernel runs.
    DCB,
    /// [`Algorithm::DCB`] without the screen.
    DCNB,
    /// Poisson approximation (Wang et al. 2010; §3.3.1). The Poisson
    /// survival function increases in `λ`, so `Pr{Poisson(esup) ≥ msup} >
    /// pft` collapses to one expected-support threshold `esup > λ*`
    /// ([`PoissonApprox`](crate::common::measure::PoissonApprox)); it runs
    /// at expected-support speed and reports membership only, no frequent
    /// probabilities.
    PDUApriori,
    /// Normal (CLT) approximation, level-wise (Calders et al. 2010; §3.3.2):
    /// one pass accumulates `(esup, Var)` and `Pr(X) ≈ 1 − Φ((msup − 0.5 −
    /// esup)/√Var)`, at expected-support cost and with per-itemset
    /// frequent probabilities.
    NDUApriori,
    /// The paper's own algorithm (§3.3.3): UH-Mine's hyper-structure judged
    /// by the Normal approximation — "a win-win partnership in sparse
    /// uncertain databases".
    NDUHMine,
    /// The definition-level oracle ([`BruteForce`]): test ground truth, not
    /// a paper algorithm, and the one variant outside the matrix.
    BruteForce,
}

impl Algorithm {
    /// The algorithms of the paper's Figure 4 (expected-support study).
    pub const EXPECTED_SUPPORT: [Algorithm; 3] =
        [Algorithm::UApriori, Algorithm::UHMine, Algorithm::UFPGrowth];

    /// The algorithms of the paper's Figure 5 (exact probabilistic study).
    pub const EXACT_PROBABILISTIC: [Algorithm; 4] = [
        Algorithm::DPNB,
        Algorithm::DPB,
        Algorithm::DCNB,
        Algorithm::DCB,
    ];

    /// The algorithms of the paper's Figure 6 (approximate study; DCB is the
    /// exact reference line in those plots).
    pub const APPROXIMATE: [Algorithm; 4] = [
        Algorithm::DCB,
        Algorithm::PDUApriori,
        Algorithm::NDUApriori,
        Algorithm::NDUHMine,
    ];

    /// Canonical name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::UApriori => "UApriori",
            Algorithm::UFPGrowth => "UFP-growth",
            Algorithm::UHMine => "UH-Mine",
            Algorithm::DPB => "DPB",
            Algorithm::DPNB => "DPNB",
            Algorithm::DCB => "DCB",
            Algorithm::DCNB => "DCNB",
            Algorithm::PDUApriori => "PDUApriori",
            Algorithm::NDUApriori => "NDUApriori",
            Algorithm::NDUHMine => "NDUH-Mine",
            Algorithm::BruteForce => "BruteForce",
        }
    }

    /// The frequentness measure the algorithm judges by (`None` for the
    /// oracle, which evaluates both definitions directly).
    pub fn measure(self) -> Option<MeasureKind> {
        Some(match self {
            Algorithm::UApriori | Algorithm::UFPGrowth | Algorithm::UHMine => {
                MeasureKind::ExpectedSupport
            }
            Algorithm::DPB | Algorithm::DPNB => MeasureKind::ExactDp,
            Algorithm::DCB | Algorithm::DCNB => MeasureKind::ExactDc,
            Algorithm::PDUApriori => MeasureKind::Poisson,
            Algorithm::NDUApriori | Algorithm::NDUHMine => MeasureKind::Normal,
            Algorithm::BruteForce => return None,
        })
    }

    /// The traversal strategy the algorithm explores the lattice with
    /// (`None` for the oracle, which enumerates the lattice directly).
    pub fn traversal(self) -> Option<TraversalKind> {
        Some(match self {
            Algorithm::UApriori
            | Algorithm::DPB
            | Algorithm::DPNB
            | Algorithm::DCB
            | Algorithm::DCNB
            | Algorithm::PDUApriori
            | Algorithm::NDUApriori => TraversalKind::LevelWise,
            Algorithm::UHMine | Algorithm::NDUHMine => TraversalKind::HyperStructure,
            Algorithm::UFPGrowth => TraversalKind::TreeGrowth,
            Algorithm::BruteForce => return None,
        })
    }

    /// Whether the algorithm runs the Chernoff/count screen (`None` when
    /// the knob does not apply — only the exact miners have `B`/`NB`
    /// variants).
    pub fn chernoff(self) -> Option<bool> {
        match self {
            Algorithm::DPB | Algorithm::DCB => Some(true),
            Algorithm::DPNB | Algorithm::DCNB => Some(false),
            _ => None,
        }
    }

    /// The algorithm's cell in the measure × traversal matrix (`None` for
    /// the oracle) — what every mining call on the algorithm runs.
    pub fn matrix_cell(self) -> Option<MatrixMiner> {
        let mut cell = MatrixMiner::new(self.measure()?, self.traversal()?);
        if self.chernoff() == Some(false) {
            cell = cell.without_chernoff();
        }
        Some(cell)
    }

    /// The named paper algorithm occupying a matrix cell, if any (with the
    /// Chernoff screen on for exact measures — the `B` variants).
    pub fn from_cell(measure: MeasureKind, traversal: TraversalKind) -> Option<Algorithm> {
        use MeasureKind as M;
        use TraversalKind as T;
        Some(match (measure, traversal) {
            (M::ExpectedSupport, T::LevelWise) => Algorithm::UApriori,
            (M::ExpectedSupport, T::HyperStructure) => Algorithm::UHMine,
            (M::ExpectedSupport, T::TreeGrowth) => Algorithm::UFPGrowth,
            (M::Poisson, T::LevelWise) => Algorithm::PDUApriori,
            (M::Normal, T::LevelWise) => Algorithm::NDUApriori,
            (M::Normal, T::HyperStructure) => Algorithm::NDUHMine,
            (M::ExactDp, T::LevelWise) => Algorithm::DPB,
            (M::ExactDc, T::LevelWise) => Algorithm::DCB,
            _ => return None,
        })
    }

    /// The group the algorithm belongs to — derived from its measure, never
    /// hand-maintained per variant.
    pub fn group(self) -> AlgorithmGroup {
        match self.measure() {
            Some(m) => AlgorithmGroup::of_measure(m),
            None => AlgorithmGroup::Oracle,
        }
    }

    /// True when the algorithm's support computation runs over the
    /// pluggable [`EngineKind`] seam — exactly the
    /// level-wise traversal's algorithms. The backend travels in
    /// [`MiningParams::engine`]; every other algorithm ignores it.
    pub fn supports_engine_selection(self) -> bool {
        self.traversal() == Some(TraversalKind::LevelWise)
    }

    /// Parses a paper-style name (case-insensitive, dashes optional).
    pub fn parse(s: &str) -> Option<Algorithm> {
        let norm: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        Some(match norm.as_str() {
            "uapriori" => Algorithm::UApriori,
            "ufpgrowth" => Algorithm::UFPGrowth,
            "uhmine" => Algorithm::UHMine,
            "dpb" => Algorithm::DPB,
            "dpnb" => Algorithm::DPNB,
            "dcb" => Algorithm::DCB,
            "dcnb" => Algorithm::DCNB,
            "pduapriori" => Algorithm::PDUApriori,
            "nduapriori" => Algorithm::NDUApriori,
            "nduhmine" => Algorithm::NDUHMine,
            "bruteforce" => Algorithm::BruteForce,
            _ => return None,
        })
    }
}

impl MinerInfo for Algorithm {
    fn name(&self) -> &'static str {
        Algorithm::name(*self)
    }

    fn description(&self) -> &'static str {
        match self {
            Algorithm::UApriori => {
                "breadth-first generate-and-test on expected support (Table 3: no auxiliary structure)"
            }
            Algorithm::UFPGrowth => {
                "depth-first divide-and-conquer over a UFP-tree (nodes shared only on equal item AND probability)"
            }
            Algorithm::UHMine => {
                "depth-first search over the UH-Struct (head tables + pointer arena)"
            }
            Algorithm::DPB | Algorithm::DPNB => {
                "exact frequent probability via O(N·msup) dynamic programming (Apriori framework)"
            }
            Algorithm::DCB | Algorithm::DCNB => {
                "exact frequent probability via divide-and-conquer + FFT convolution (Apriori framework)"
            }
            Algorithm::PDUApriori => {
                "Poisson approximation folded into an expected-support threshold; UApriori framework"
            }
            Algorithm::NDUApriori => {
                "Normal (CLT) approximation of the frequent probability; Apriori framework"
            }
            Algorithm::NDUHMine => {
                "UH-Mine hyper-structure + Normal (CLT) frequent-probability judgment (the paper's novel algorithm)"
            }
            Algorithm::BruteForce => {
                "definition-level oracle (test ground truth, not a paper algorithm)"
            }
        }
    }
}

impl ProbabilisticMiner for Algorithm {
    /// Mines the algorithm's matrix cell (the oracle mines Definition 4
    /// directly). The expected-support group reads `params.min_sup` as
    /// Definition 2's `min_esup` and ignores `pft`, as every
    /// [`MatrixMiner`] expected-support cell does.
    fn mine_probabilistic(
        &self,
        db: &UncertainDatabase,
        params: MiningParams,
    ) -> Result<MiningResult, CoreError> {
        match self.matrix_cell() {
            Some(cell) => cell.mine_probabilistic(db, params),
            None => BruteForce::new().mine_probabilistic(db, params),
        }
    }
}

impl ExpectedSupportMiner for Algorithm {
    /// Mines Definition 2 on the default support backend.
    ///
    /// # Errors
    /// [`CoreError::NotExpectedSupport`] for an algorithm outside the
    /// expected-support group (the oracle speaks both definitions).
    fn mine_expected(
        &self,
        db: &UncertainDatabase,
        min_esup: Ratio,
    ) -> Result<MiningResult, CoreError> {
        match self.group() {
            // `min_sup` carries `min_esup`; the measure never reads `pft`.
            AlgorithmGroup::ExpectedSupport => {
                self.mine_probabilistic(db, MiningParams::new(min_esup.get(), 1.0)?)
            }
            AlgorithmGroup::Oracle => BruteForce::new().mine_expected(db, min_esup),
            _ => Err(CoreError::NotExpectedSupport {
                algorithm: self.name(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufim_core::examples::paper_table1;

    #[test]
    fn groups_partition_the_algorithms() {
        let db = paper_table1();
        for a in Algorithm::EXPECTED_SUPPORT {
            assert_eq!(a.group(), AlgorithmGroup::ExpectedSupport);
            assert!(a.mine_expected_ratio(&db, 0.5).is_ok());
        }
        for a in Algorithm::EXACT_PROBABILISTIC {
            assert_eq!(a.group(), AlgorithmGroup::ExactProbabilistic);
            assert_eq!(
                a.mine_expected_ratio(&db, 0.5).unwrap_err(),
                CoreError::NotExpectedSupport {
                    algorithm: a.name()
                }
            );
        }
        for a in [
            Algorithm::PDUApriori,
            Algorithm::NDUApriori,
            Algorithm::NDUHMine,
        ] {
            assert_eq!(a.group(), AlgorithmGroup::ApproximateProbabilistic);
            assert!(a.mine_expected_ratio(&db, 0.5).is_err());
        }
        // The oracle speaks both interfaces.
        assert!(Algorithm::BruteForce.mine_expected_ratio(&db, 0.5).is_ok());
        assert!(Algorithm::BruteForce
            .mine_probabilistic_raw(&db, 0.5, 0.7)
            .is_ok());
    }

    #[test]
    fn parse_roundtrip() {
        for a in ALL {
            assert_eq!(Algorithm::parse(a.name()), Some(a), "{}", a.name());
        }
        assert_eq!(Algorithm::parse("ufp-GROWTH"), Some(Algorithm::UFPGrowth));
        assert_eq!(Algorithm::parse("nonsense"), None);
    }

    #[test]
    fn engine_selection_reaches_apriori_framework_miners() {
        let db = paper_table1();
        let params = MiningParams::new(0.25, 0.7).unwrap();
        for algo in [Algorithm::UApriori, Algorithm::UFPGrowth, Algorithm::UHMine] {
            let h = algo.mine_probabilistic(&db, params).unwrap();
            for engine in [EngineKind::Vertical, EngineKind::Diffset] {
                let v = algo
                    .mine_probabilistic(&db, params.with_engine(engine))
                    .unwrap();
                assert_eq!(
                    h.sorted_itemsets(),
                    v.sorted_itemsets(),
                    "{} ({engine})",
                    algo.name()
                );
            }
        }
        assert!(Algorithm::UApriori.supports_engine_selection());
        assert!(Algorithm::DCB.supports_engine_selection());
        assert!(!Algorithm::UHMine.supports_engine_selection());
        assert!(!Algorithm::BruteForce.supports_engine_selection());
    }

    #[test]
    fn boxed_miners_run() {
        let db = paper_table1();
        for a in Algorithm::EXPECTED_SUPPORT {
            let m: Box<dyn ExpectedSupportMiner> = Box::new(a);
            let r = m.mine_expected_ratio(&db, 0.5).unwrap();
            assert_eq!(r.len(), 2, "{}", a.name());
            assert_eq!(m.name(), a.name());
        }
        for a in Algorithm::EXACT_PROBABILISTIC {
            let m: Box<dyn ProbabilisticMiner> = Box::new(a);
            let r = m.mine_probabilistic_raw(&db, 0.5, 0.7).unwrap();
            assert!(!r.is_empty(), "{}", a.name());
            assert!(!m.description().is_empty());
        }
    }

    #[test]
    fn group_names() {
        assert!(AlgorithmGroup::ExpectedSupport.name().contains("Expected"));
        assert!(AlgorithmGroup::Oracle.name().contains("Oracle"));
    }

    const ALL: [Algorithm; 11] = [
        Algorithm::UApriori,
        Algorithm::UFPGrowth,
        Algorithm::UHMine,
        Algorithm::DPB,
        Algorithm::DPNB,
        Algorithm::DCB,
        Algorithm::DCNB,
        Algorithm::PDUApriori,
        Algorithm::NDUApriori,
        Algorithm::NDUHMine,
        Algorithm::BruteForce,
    ];

    #[test]
    fn groups_derive_from_measures() {
        for a in ALL {
            match a.measure() {
                Some(m) => assert_eq!(a.group(), AlgorithmGroup::of_measure(m), "{}", a.name()),
                None => assert_eq!(a.group(), AlgorithmGroup::Oracle),
            }
        }
        // Exactly the oracle lacks a matrix position.
        assert!(Algorithm::BruteForce.measure().is_none());
        assert!(Algorithm::BruteForce.traversal().is_none());
        assert!(Algorithm::BruteForce.matrix_cell().is_none());
        // The Chernoff knob exists only on the exact miners.
        assert_eq!(Algorithm::DPB.chernoff(), Some(true));
        assert_eq!(Algorithm::DCNB.chernoff(), Some(false));
        assert_eq!(Algorithm::UApriori.chernoff(), None);
    }

    #[test]
    fn from_cell_inverts_matrix_cell_for_the_paper_eight() {
        let mut named = 0;
        for m in MeasureKind::ALL {
            for t in TraversalKind::ALL {
                if let Some(a) = Algorithm::from_cell(m, t) {
                    named += 1;
                    assert_eq!(a.measure(), Some(m), "{}", a.name());
                    assert_eq!(a.traversal(), Some(t), "{}", a.name());
                }
            }
        }
        assert_eq!(named, 8, "the paper's Table 10 names eight cells");
        // NB variants map onto the same cells with the screen off.
        let dpnb = Algorithm::DPNB.matrix_cell().unwrap();
        assert!(!dpnb.chernoff);
        assert_eq!(
            Algorithm::from_cell(dpnb.measure, dpnb.traversal),
            Some(Algorithm::DPB)
        );
    }

    #[test]
    fn matrix_cells_reproduce_named_probabilistic_miners() {
        // Every named algorithm is its cell: the same records and counters
        // through either entry point.
        let db = paper_table1();
        let params = MiningParams::new(0.5, 0.7).unwrap();
        for a in ALL {
            let Some(cell) = a.matrix_cell() else {
                continue;
            };
            let got = cell.mine_probabilistic(&db, params).unwrap();
            let want = a.mine_probabilistic(&db, params).unwrap();
            assert_eq!(got.itemsets, want.itemsets, "{}", a.name());
            assert_eq!(got.stats, want.stats, "{}", a.name());
        }
    }
}
