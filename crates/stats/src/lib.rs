//! # ufim-stats
//!
//! Statistical substrate for mining frequent itemsets over uncertain
//! databases (Tong et al., VLDB 2012).
//!
//! The support `sup(X)` of an itemset over an uncertain database is a
//! **Poisson-Binomial** random variable — a sum of independent, non-identical
//! Bernoulli trials, one per transaction. Every algorithm in the paper
//! reduces to questions about this variable:
//!
//! * the **exact** miners need its probability mass function or its survival
//!   function `Pr{sup ≥ msup}` — computed here by dynamic programming
//!   ([`pb::survival_dp`], `O(N·msup − msup²)`) or divide-and-conquer with FFT
//!   convolution ([`pb::pmf_divide_conquer`], `O(N log N)`);
//! * the **approximate** miners need only its first two moments plus the
//!   [Normal](normal) or [Poisson](poisson) approximation to the survival
//!   function (§3.3);
//! * the exact miners' **pruning** uses the [Chernoff tail bound](chernoff)
//!   (Lemma 1), and the expected-support cut it implies
//!   ([`chernoff::chernoff_min_esup`]) lets the support engines skip the
//!   vectors of candidates the bound rules out.
//!
//! Everything is implemented from scratch on `std`: the [`fft`] module
//! provides the iterative radix-2 transform used for PMF convolution, and
//! [`normal`]/[`gamma`] provide the special functions (`erf`, regularized
//! incomplete gamma) behind the approximations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binomial;
pub mod chernoff;
pub mod complex;
pub mod conv;
pub mod dft_cf;
pub mod fft;
pub mod gamma;
pub mod normal;
pub mod pb;
pub mod poisson;

pub use binomial::{binomial_survival, detect_constant};
pub use chernoff::{chernoff_min_esup, chernoff_prunable, chernoff_upper_bound};
pub use complex::Complex64;
pub use dft_cf::{pmf_dft_cf, survival_dft_cf};
pub use normal::{normal_cdf, normal_survival_with_continuity};
pub use pb::{
    pmf_divide_conquer, pmf_exact, support_moments, survival_dp, survival_from_pmf,
    SupportDistribution,
};
pub use poisson::{poisson_lambda_for_survival, poisson_survival};
