//! # ufim-miners
//!
//! The eight representative frequent-itemset mining algorithms over
//! uncertain databases studied by Tong et al. (VLDB 2012), plus a
//! brute-force oracle, all built on one shared implementation framework —
//! exactly the paper's methodological point ("uniform baseline
//! implementations … adopt common basic operations").
//!
//! Every algorithm is a variant of [`Algorithm`], one *named cell* of the
//! measure × traversal × engine matrix:
//!
//! | group | miner | paper § | cell (measure × traversal) |
//! |---|---|---|---|
//! | expected-support | [`Algorithm::UApriori`] | 3.1.1 | esup × level-wise (candidate trie) |
//! | expected-support | [`Algorithm::UFPGrowth`] | 3.1.2 | esup × tree ([UFP-tree](ufp_growth)) |
//! | expected-support | [`Algorithm::UHMine`] | 3.1.3 | esup × hyper ([UH-Struct](uh_mine)) |
//! | exact probabilistic | [`Algorithm::DPB`] / [`DPNB`](Algorithm::DPNB) | 3.2.1 | exact-dp × level-wise, `O(N·msup)` DP |
//! | exact probabilistic | [`Algorithm::DCB`] / [`DCNB`](Algorithm::DCNB) | 3.2.2 | exact-dc × level-wise, divide-&-conquer/FFT |
//! | approximate | [`Algorithm::PDUApriori`] | 3.3.1 | poisson × level-wise (λ* inversion) |
//! | approximate | [`Algorithm::NDUApriori`] | 3.3.2 | normal × level-wise |
//! | approximate | [`Algorithm::NDUHMine`] | 3.3.3 | normal × hyper |
//!
//! The `B`/`NB` suffixes select Chernoff-bound pruning (§3.2.3) on the exact
//! miners. [`BruteForce`] evaluates every itemset directly from the
//! definitions and anchors the test suites.
//!
//! The shared substrate lives in [`common`]: the
//! [`FrequentnessMeasure`](common::measure::FrequentnessMeasure) trait that
//! factors the judgment axis out of every miner, frequency ordering, the
//! candidate prefix-trie used by every Apriori-framework miner, and the
//! level-wise scaffold. [`matrix::MatrixMiner`] runs any cell of the matrix
//! (an [`Algorithm`] forwards every call to its own), including the five
//! the paper never built (exact DP/DC on UH-Mine, Poisson on
//! UH-Mine/UFP-growth, Normal on UFP-growth).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
pub mod common;
pub mod matrix;
pub mod postprocess;
pub mod registry;
pub mod resident;
pub mod ufp_growth;
pub mod uh_mine;

// Behaviour tests of the paper's named cells, one module per algorithm
// family.
#[cfg(test)]
#[path = "cell_tests/exact.rs"]
mod exact;
#[cfg(test)]
#[path = "cell_tests/ndu_apriori.rs"]
mod ndu_apriori;
#[cfg(test)]
#[path = "cell_tests/nduh_mine.rs"]
mod nduh_mine;
#[cfg(test)]
#[path = "cell_tests/pdu_apriori.rs"]
mod pdu_apriori;
#[cfg(test)]
#[path = "cell_tests/uapriori.rs"]
mod uapriori;

pub use brute::BruteForce;
pub use matrix::MatrixMiner;
pub use postprocess::{closed, containing, maximal, top_k_by_expected_support};
pub use registry::{Algorithm, AlgorithmGroup};
pub use resident::{boxed_measure, ResidentLattice};

/// Convenient glob-import: `use ufim_miners::prelude::*;`
pub mod prelude {
    pub use crate::brute::BruteForce;
    pub use crate::matrix::MatrixMiner;
    pub use crate::registry::{Algorithm, AlgorithmGroup};
    pub use crate::resident::ResidentLattice;
    pub use ufim_core::traits::{ExpectedSupportMiner, MinerInfo, ProbabilisticMiner};
}
