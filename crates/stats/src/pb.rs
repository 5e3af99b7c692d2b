//! The Poisson-Binomial distribution of an itemset's support.
//!
//! Given the per-transaction containment probabilities
//! `q = (q_1, …, q_M)` (zero entries removed), `sup(X) = Σ Bernoulli(q_t)`.
//! This module computes its distribution three ways, mirroring the paper's
//! Table 4:
//!
//! | method | complexity | used by |
//! |---|---|---|
//! | [`survival_dp`] (threshold-truncated, live-band DP) | `O(M · msup − msup²)` | DP algorithm (§3.2.1) |
//! | [`pmf_divide_conquer`] (+ FFT convolution) | `O(M log M)` | DC algorithm (§3.2.2) |
//! | [`pmf_exact`] (dense DP) | `O(M²)` | brute-force oracle, tests |
//!
//! plus the two-moment summary [`support_moments`] feeding the Normal
//! approximation.

use crate::conv::{convolve, convolve_saturating, fold_tail};

/// Mean and variance of the Poisson-Binomial variable:
/// `μ = Σ q_t`, `σ² = Σ q_t (1 − q_t)`.
pub fn support_moments(probs: &[f64]) -> (f64, f64) {
    let mut mean = 0.0;
    let mut var = 0.0;
    for &q in probs {
        mean += q;
        var += q * (1.0 - q);
    }
    (mean, var)
}

/// Exact support PMF by dense dynamic programming, `O(M²)`.
///
/// `out[k] = Pr{sup = k}` for `k = 0..=M`. The recurrence processes one
/// Bernoulli at a time: `d'[k] = d[k]·(1−q) + d[k−1]·q`.
pub fn pmf_exact(probs: &[f64]) -> Vec<f64> {
    let mut d = Vec::with_capacity(probs.len() + 1);
    d.push(1.0);
    for (t, &q) in probs.iter().enumerate() {
        d.push(0.0);
        // Backwards so d[k-1] is still the previous round's value.
        for k in (1..=t + 1).rev() {
            d[k] = d[k] * (1.0 - q) + d[k - 1] * q;
        }
        d[0] *= 1.0 - q;
    }
    d
}

/// `Pr{sup ≥ msup}` by threshold-truncated dynamic programming,
/// `O(M · msup − msup²)` time, `O(msup)` space — the kernel of the paper's
/// DP algorithm.
///
/// The state vector keeps `Pr{sup = k}` for `k < msup` and a saturating
/// bucket `Pr{sup ≥ msup}` at index `msup`; mass that crosses the threshold
/// never needs to be resolved further.
///
/// Only the *live band* of states is updated. Before Bernoulli `t`
/// (0-based) every state above `t` is still exactly `+0.0`, so the update
/// stops at `k = t + 1`; and with `r` Bernoullis left after it, a state
/// below `msup − r` can no longer reach the saturating bucket, so the
/// update starts there (state 0 stops once `r < msup`). Live states only
/// ever read live states, so every live value — the bucket included — is
/// computed by the same operations in the same order as the full-width
/// recurrence, and the result is bit-identical to it. The middle steps,
/// whose band is the full width, run a fixed-width loop with no per-step
/// bounds.
///
/// (The recurrence as printed in the paper has a typo — its first term reads
/// `Pr≥i,j`; the correct term, implemented here, is `Pr≥i-1,j-1`.)
pub fn survival_dp(probs: &[f64], msup: usize) -> f64 {
    if msup == 0 {
        return 1.0;
    }
    if probs.len() < msup {
        // Fewer Bernoulli trials than the threshold: impossible.
        return 0.0;
    }
    let (m, cap) = (probs.len(), msup);
    let mut d = vec![0.0f64; cap + 1];
    d[0] = 1.0;
    // One Bernoulli over the live band `lo..=hi` (see the docs above).
    let band_step = |d: &mut [f64], t: usize, q: f64| {
        let rest = m - t - 1;
        let lo = cap.saturating_sub(rest).max(1);
        let hi = (cap - 1).min(t + 1);
        // Saturating bucket first: mass entering from d[cap-1] stays forever.
        d[cap] += q * d[cap - 1];
        if lo <= hi {
            shift_step(&mut d[lo - 1..=hi], q);
        }
        if rest >= cap {
            d[0] *= 1.0 - q;
        }
    };
    // Steps `full_from..full_to` span the full width `1..cap`.
    let full_from = cap.saturating_sub(2).min(m);
    let full_to = (m + 1 - cap).max(full_from);
    for (t, &q) in probs.iter().enumerate().take(full_from) {
        band_step(&mut d, t, q);
    }
    for (t, &q) in probs.iter().enumerate().take(full_to).skip(full_from) {
        d[cap] += q * d[cap - 1];
        shift_step(&mut d[..cap], q);
        if m - t > cap {
            d[0] *= 1.0 - q;
        }
    }
    for (t, &q) in probs.iter().enumerate().skip(full_to) {
        band_step(&mut d, t, q);
    }
    d[cap].clamp(0.0, 1.0)
}

/// One Bernoulli `q` over the states `w[1..]`:
/// `w[k] ← w[k]·(1−q) + w[k−1]·q`, backwards so `w[k−1]` is still the
/// previous round's value (`w[0]` is read, not written).
#[inline(always)]
fn shift_step(w: &mut [f64], q: f64) {
    for k in (1..w.len()).rev() {
        w[k] = w[k] * (1.0 - q) + w[k - 1] * q;
    }
}

/// Support PMF by divide-and-conquer with size-dispatched (naive/FFT)
/// convolution — the kernel of the paper's DC algorithm.
///
/// With `cap = Some(c)` the result is truncated to length `c + 1` and index
/// `c` holds `Pr{sup ≥ c}` (saturation composes across the recursion, see
/// [`crate::conv::convolve_saturating`]); with `cap = None` the full PMF of
/// length `M + 1` is returned.
pub fn pmf_divide_conquer(probs: &[f64], cap: Option<usize>) -> Vec<f64> {
    /// Below this many Bernoullis, dense DP beats recursion + convolution.
    const LEAF: usize = 32;

    fn rec(probs: &[f64], cap: Option<usize>) -> Vec<f64> {
        if probs.len() <= LEAF {
            let pmf = pmf_exact(probs);
            return match cap {
                Some(c) => fold_tail(pmf, c),
                None => pmf,
            };
        }
        let mid = probs.len() / 2;
        let left = rec(&probs[..mid], cap);
        let right = rec(&probs[mid..], cap);
        match cap {
            Some(c) => convolve_saturating(&left, &right, c),
            None => convolve(&left, &right),
        }
    }

    if probs.is_empty() {
        return vec![1.0];
    }
    let mut pmf = rec(probs, cap);
    // FFT round-off can leave the total a hair off 1; renormalize the
    // distribution (the error is ~1e-12, far below mining thresholds, but
    // normalized PMFs keep invariants exact for downstream assertions).
    let total: f64 = pmf.iter().sum();
    if total > 0.0 && (total - 1.0).abs() < 1e-6 {
        for x in pmf.iter_mut() {
            *x /= total;
        }
    }
    pmf
}

/// `Pr{sup ≥ msup}` from a PMF produced by [`pmf_exact`] or
/// [`pmf_divide_conquer`]. Correctly handles PMFs saturated at any
/// `cap ≥ msup`.
pub fn survival_from_pmf(pmf: &[f64], msup: usize) -> f64 {
    if msup >= pmf.len() {
        // A PMF saturated at cap == msup has length msup+1, so this branch
        // only triggers when the support genuinely cannot reach msup.
        return 0.0;
    }
    pmf[msup..].iter().sum::<f64>().clamp(0.0, 1.0)
}

/// A computed support distribution bundling the PMF with its provenance,
/// convenient for the oracle and the DC miner.
#[derive(Clone, Debug)]
pub struct SupportDistribution {
    pmf: Vec<f64>,
    /// `Some(c)` when index `c` is a "`≥ c`" bucket.
    saturated_at: Option<usize>,
}

impl SupportDistribution {
    /// Exact distribution via dense DP.
    pub fn exact(probs: &[f64]) -> Self {
        SupportDistribution {
            pmf: pmf_exact(probs),
            saturated_at: None,
        }
    }

    /// Distribution via divide-and-conquer, optionally saturated.
    pub fn divide_conquer(probs: &[f64], cap: Option<usize>) -> Self {
        SupportDistribution {
            pmf: pmf_divide_conquer(probs, cap),
            saturated_at: cap.filter(|&c| c < probs.len()),
        }
    }

    /// The PMF values (`index c` is `Pr{sup ≥ c}` when saturated at `c`).
    pub fn pmf(&self) -> &[f64] {
        &self.pmf
    }

    /// Saturation point, if any.
    pub fn saturated_at(&self) -> Option<usize> {
        self.saturated_at
    }

    /// `Pr{sup ≥ msup}`.
    ///
    /// # Panics
    /// Panics if the distribution is saturated below `msup` (the tail beyond
    /// the saturation point is not resolvable).
    pub fn survival(&self, msup: usize) -> f64 {
        if let Some(c) = self.saturated_at {
            assert!(
                msup <= c,
                "distribution saturated at {c} cannot answer survival at {msup}"
            );
        }
        survival_from_pmf(&self.pmf, msup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-10;

    #[test]
    fn moments_basic() {
        let (m, v) = support_moments(&[0.5, 0.5]);
        assert!((m - 1.0).abs() < EPS);
        assert!((v - 0.5).abs() < EPS);
        let (m, v) = support_moments(&[]);
        assert_eq!((m, v), (0.0, 0.0));
        // Certain events contribute no variance.
        let (m, v) = support_moments(&[1.0, 1.0, 1.0]);
        assert!((m - 3.0).abs() < EPS && v.abs() < EPS);
    }

    #[test]
    fn pmf_exact_two_bernoullis() {
        let pmf = pmf_exact(&[0.3, 0.6]);
        assert!((pmf[0] - 0.7 * 0.4).abs() < EPS);
        assert!((pmf[1] - (0.3 * 0.4 + 0.7 * 0.6)).abs() < EPS);
        assert!((pmf[2] - 0.18).abs() < EPS);
        assert!((pmf.iter().sum::<f64>() - 1.0).abs() < EPS);
    }

    #[test]
    fn pmf_exact_empty() {
        assert_eq!(pmf_exact(&[]), vec![1.0]);
    }

    #[test]
    fn paper_table2_semantics() {
        // Any PMF equal to the paper's Table 2 yields Pr{sup >= 2} = 0.72
        // (Example 2's headline computation).
        let pmf = [0.1, 0.18, 0.4, 0.32];
        assert!((survival_from_pmf(&pmf, 2) - 0.72).abs() < EPS);
    }

    #[test]
    fn survival_dp_matches_exact_pmf() {
        let probs = [0.9, 0.1, 0.5, 0.75, 0.33, 0.6];
        let pmf = pmf_exact(&probs);
        for msup in 0..=probs.len() + 1 {
            let dp = survival_dp(&probs, msup);
            let reference = survival_from_pmf(&pmf, msup);
            assert!(
                (dp - reference).abs() < EPS,
                "msup={msup}: dp={dp} ref={reference}"
            );
        }
    }

    /// The full-width recurrence `survival_dp` trims to its live band:
    /// every state `1..msup` updated at every step.
    fn survival_dp_full_width(probs: &[f64], msup: usize) -> f64 {
        if msup == 0 {
            return 1.0;
        }
        if probs.len() < msup {
            return 0.0;
        }
        let cap = msup;
        let mut d = vec![0.0f64; cap + 1];
        d[0] = 1.0;
        for &q in probs {
            d[cap] += q * d[cap - 1];
            for k in (1..cap).rev() {
                d[k] = d[k] * (1.0 - q) + d[k - 1] * q;
            }
            d[0] *= 1.0 - q;
        }
        d[cap].clamp(0.0, 1.0)
    }

    /// Seeded probabilities in `(0, 1]` (splitmix64), with every
    /// `ones_every`-th entry exactly `1.0` when nonzero.
    fn seeded_probs(seed: u64, len: usize, ones_every: usize) -> Vec<f64> {
        let mut state = seed;
        (0..len)
            .map(|i| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                if ones_every > 0 && i % ones_every == 0 {
                    1.0
                } else {
                    ((z >> 11) as f64 + 1.0) / (1u64 << 53) as f64
                }
            })
            .collect()
    }

    #[test]
    fn survival_dp_band_is_bit_identical_to_full_width() {
        for seed in 0..4u64 {
            for msup in [0usize, 1, 2, 3, 17, 64] {
                // L < msup, L = msup, msup < L < 2·msup, L ≫ msup.
                let lens = [
                    msup.saturating_sub(1),
                    msup,
                    msup + 1,
                    msup + msup / 2,
                    (2 * msup).saturating_sub(1),
                    2 * msup,
                    20 * msup + 7,
                ];
                for len in lens {
                    for ones_every in [0usize, 1, 3] {
                        let probs = seeded_probs(seed * 1_000 + len as u64, len, ones_every);
                        let band = survival_dp(&probs, msup);
                        let full = survival_dp_full_width(&probs, msup);
                        assert_eq!(
                            band.to_bits(),
                            full.to_bits(),
                            "seed={seed} msup={msup} len={len} ones_every={ones_every}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn survival_dp_edge_cases() {
        assert_eq!(survival_dp(&[], 0), 1.0);
        assert_eq!(survival_dp(&[], 1), 0.0);
        assert_eq!(survival_dp(&[0.4], 2), 0.0); // more than trials
        assert!((survival_dp(&[0.4], 1) - 0.4).abs() < EPS);
        // All-certain trials: survival is a step function.
        assert!((survival_dp(&[1.0; 5], 5) - 1.0).abs() < EPS);
        assert_eq!(survival_dp(&[1.0; 5], 6), 0.0);
    }

    #[test]
    fn divide_conquer_matches_exact_small() {
        let probs: Vec<f64> = (1..=10).map(|i| i as f64 / 11.0).collect();
        let dc = pmf_divide_conquer(&probs, None);
        let exact = pmf_exact(&probs);
        assert_eq!(dc.len(), exact.len());
        for (a, b) in dc.iter().zip(&exact) {
            assert!((a - b).abs() < EPS);
        }
    }

    #[test]
    fn divide_conquer_matches_exact_large() {
        // Big enough to force recursion and the FFT convolution path.
        let probs: Vec<f64> = (0..700)
            .map(|i| ((i * 37 % 100) as f64 + 1.0) / 101.0)
            .collect();
        let dc = pmf_divide_conquer(&probs, None);
        let exact = pmf_exact(&probs);
        for (k, (a, b)) in dc.iter().zip(&exact).enumerate() {
            assert!((a - b).abs() < 1e-9, "k={k}: {a} vs {b}");
        }
    }

    #[test]
    fn divide_conquer_saturated_matches_survival() {
        let probs: Vec<f64> = (0..300)
            .map(|i| ((i * 13 % 37) as f64 + 1.0) / 38.0)
            .collect();
        for &msup in &[1usize, 5, 50, 150] {
            let capped = pmf_divide_conquer(&probs, Some(msup));
            assert_eq!(capped.len(), msup + 1);
            let want = survival_dp(&probs, msup);
            assert!(
                (capped[msup] - want).abs() < 1e-9,
                "msup={msup}: {} vs {want}",
                capped[msup]
            );
        }
    }

    #[test]
    fn divide_conquer_empty_input() {
        assert_eq!(pmf_divide_conquer(&[], None), vec![1.0]);
        assert_eq!(pmf_divide_conquer(&[], Some(3)), vec![1.0]);
    }

    #[test]
    fn survival_from_pmf_bounds() {
        let pmf = [0.25, 0.5, 0.25];
        assert!((survival_from_pmf(&pmf, 0) - 1.0).abs() < EPS);
        assert!((survival_from_pmf(&pmf, 1) - 0.75).abs() < EPS);
        assert!((survival_from_pmf(&pmf, 2) - 0.25).abs() < EPS);
        assert_eq!(survival_from_pmf(&pmf, 3), 0.0);
        assert_eq!(survival_from_pmf(&pmf, 99), 0.0);
    }

    #[test]
    fn distribution_wrapper_exact() {
        let probs = [0.2, 0.8, 0.5];
        let d = SupportDistribution::exact(&probs);
        assert_eq!(d.pmf().len(), 4);
        assert_eq!(d.saturated_at(), None);
        assert!((d.survival(0) - 1.0).abs() < EPS);
        assert!((d.survival(1) - survival_dp(&probs, 1)).abs() < EPS);
    }

    #[test]
    fn distribution_wrapper_saturated() {
        let probs: Vec<f64> = vec![0.5; 100];
        let d = SupportDistribution::divide_conquer(&probs, Some(10));
        assert_eq!(d.saturated_at(), Some(10));
        assert!((d.survival(10) - survival_dp(&probs, 10)).abs() < 1e-9);
        assert!((d.survival(3) - survival_dp(&probs, 3)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "saturated at")]
    fn distribution_wrapper_rejects_beyond_cap() {
        let d = SupportDistribution::divide_conquer(&vec![0.5; 100], Some(10));
        d.survival(11);
    }

    #[test]
    fn binomial_special_case() {
        // 20 iid Bernoulli(0.5): Pr{sup >= 10} computable from symmetry:
        // = 0.5 + C(20,10)/2^21.
        let probs = vec![0.5; 20];
        let want = 0.5 + 184_756.0 / 2f64.powi(21);
        assert!((survival_dp(&probs, 10) - want).abs() < 1e-12);
        let d = SupportDistribution::divide_conquer(&probs, None);
        assert!((d.survival(10) - want).abs() < 1e-12);
    }
}
