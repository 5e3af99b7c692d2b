//! Chernoff-bound pruning for probabilistic frequent itemset mining
//! (paper Lemma 1, §3.2.3).
//!
//! The support of an itemset is Poisson-Binomial with mean `μ = esup(X)`,
//! so the frequent probability `Pr{sup ≥ msup}` admits a closed-form upper
//! bound computable from `μ` alone in `O(1)` (after the `O(N)` expected
//! support computation). Whenever that bound already fails the `pft`
//! threshold, the expensive exact evaluation (DP or DC) is skipped — this is
//! the single most important optimization for the exact miners and is
//! quantified by the Fig 5 experiments (B vs NB variants).
//!
//! With `δ = (msup − μ − 1)/μ` (so `(1+δ)μ = msup − 1 ≤ msup`):
//!
//! * `Pr{sup ≥ msup} ≤ 2^{−δμ}` for `δ > 2e − 1`,
//! * `Pr{sup ≥ msup} ≤ e^{−δ²μ/4}` for `0 < δ < 2e − 1`,
//!
//! and no pruning is possible for `δ ≤ 0` (the mean is already at the
//! threshold).
//!
//! The bound is **not monotone** in either argument. With `a = msup − 1`,
//! `δ > 2e − 1` means `μ < a/2e`, and at that seam the `e^{−δ²μ/4}` form is
//! far below the `2^{−δμ}` one. So raising `μ` across `a/2e` makes the
//! bound jump down, and raising `msup` across `μ(2e) + 1` makes it jump
//! up. Inside each regime it rises with `μ` and falls with `msup`.
//! [`chernoff_min_esup`] turns the screen into an expected-support cut,
//! and takes the smaller root of the two regimes because of the jump.

/// The boundary `2e − 1` between the two bound regimes.
const TWO_E_MINUS_ONE: f64 = 2.0 * std::f64::consts::E - 1.0;

/// How many floats on each side of the regime seam [`chernoff_min_esup`]
/// checks: the rounded regime test moves the seam by a few of them.
const SEAM_ULPS: usize = 16;

/// Upper bound on `Pr{sup ≥ msup}` for a Poisson-Binomial variable with
/// mean `mu`, per Lemma 1. Returns a value in `[0, 1]`.
///
/// `msup` is the real-valued threshold `N · min_sup`, as the paper applies
/// the lemma before rounding. Either `msup` gives a valid upper bound on
/// its own tail, but the two bounds are not ordered: the bound is not
/// monotone in `msup` (see the [module docs](self)).
pub fn chernoff_upper_bound(mu: f64, msup: f64) -> f64 {
    debug_assert!(mu >= 0.0, "mean must be non-negative");
    if mu == 0.0 {
        // No transaction can contain the itemset.
        return if msup > 0.0 { 0.0 } else { 1.0 };
    }
    let delta = (msup - mu - 1.0) / mu;
    if delta <= 0.0 {
        return 1.0;
    }
    let bound = if delta > TWO_E_MINUS_ONE {
        2f64.powf(-delta * mu)
    } else {
        (-delta * delta * mu / 4.0).exp()
    };
    bound.clamp(0.0, 1.0)
}

/// True when Lemma 1 proves the itemset probabilistically infrequent, i.e.
/// the upper bound on `Pr{sup ≥ msup}` is `≤ pft` (Definition 4 requires a
/// *strictly greater* frequent probability, so a bound equal to `pft`
/// already rules the itemset out).
pub fn chernoff_prunable(mu: f64, msup: f64, pft: f64) -> bool {
    chernoff_upper_bound(mu, msup) <= pft
}

/// The expected-support cut that Lemma 1's screen implies: the infimum of
/// the means `μ` at which [`chernoff_prunable`]`(μ, msup, pft)` is false.
/// Every `μ` strictly below the returned value is prunable, so an engine
/// may drop a candidate's vector as soon as its `esup` falls below it.
///
/// With `a = msup − 1` and `L = −ln pft`, the bound rises with `μ` inside
/// each regime, so each regime has one closed-form root:
///
/// * `2^{−δμ} ≤ pft` iff `μ ≤ a + log2 pft`, valid below the seam `a/2e`;
/// * `e^{−δ²μ/4} ≤ pft` iff `μ ≤ (√(a+L) − √L)² = a + 2L − 2√(L(a+L))`,
///   valid from the seam up.
///
/// Because the bound falls across the seam, the cut is the first root if it
/// lies below the seam, and otherwise the second one clamped up to the
/// seam. The regime test rounds, so a mean a few floats from the seam may
/// take either form; the first root is also taken when such a mean is
/// kept. The value is then lowered past the rounding noise of
/// [`chernoff_upper_bound`] and checked with [`chernoff_prunable`] itself.
///
/// Returns `None` when `pft ≥ 1` (every bound is prunable, so there is no
/// finite cut) or `msup ≤ 1` (nothing with `μ > 0` is prunable).
pub fn chernoff_min_esup(msup: f64, pft: f64) -> Option<f64> {
    if msup.is_nan() || msup <= 1.0 || pft >= 1.0 {
        return None;
    }
    if pft.is_nan() || pft <= 0.0 {
        // No bound is ≤ pft, so nothing with μ > 0 is prunable.
        return Some(0.0);
    }
    let a = msup - 1.0;
    let seam = a / (TWO_E_MINUS_ONE + 1.0);
    let l = -pft.ln();
    let steep = a - l / std::f64::consts::LN_2;
    // `chernoff_upper_bound` picks its form from the rounded `δ`, so the
    // means that take the steep form end a few floats off the seam. If one
    // of those is kept, the gentle root is not the cut: the steep root is.
    let kept_at_seam = || {
        let mut mu = (0..SEAM_ULPS).fold(seam, |mu, _| mu.next_down());
        (0..=2 * SEAM_ULPS).any(|_| {
            let kept = !chernoff_prunable(mu, msup, pft);
            mu = mu.next_up();
            kept
        })
    };
    // The root, and the slope of ln(bound) in μ there, which sets how far
    // the rounding of `exp` / `powf` can move the verdict.
    let (root, slope) = if steep < seam || kept_at_seam() {
        (steep, std::f64::consts::LN_2)
    } else {
        // (√(a+L) − √L)², written without the cancelling subtraction. It
        // is at least the seam whenever the steep root is, so the clamp
        // only absorbs rounding.
        let r = (a / ((a + l).sqrt() + l.sqrt())).powi(2).max(seam);
        (r, (l / r).sqrt() + l / r)
    };
    if root <= 0.0 {
        return Some(0.0);
    }
    // δ's numerator `msup − μ − 1` rounds by about ε·msup; the bound's own
    // rounding moves the verdict by about ε/slope in μ.
    let mut margin = 16.0 * f64::EPSILON * (msup + 1.0 / slope);
    let mut bound = (root - margin).max(0.0);
    while bound > 0.0 && !chernoff_prunable(bound.next_down(), msup, pft) {
        margin *= 2.0;
        bound = (bound - margin).max(0.0);
    }
    Some(bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pb::survival_dp;

    #[test]
    fn no_pruning_when_mean_reaches_threshold() {
        assert_eq!(chernoff_upper_bound(10.0, 10.0), 1.0);
        assert_eq!(chernoff_upper_bound(10.0, 5.0), 1.0);
        // δ = 0 exactly: msup = mu + 1.
        assert_eq!(chernoff_upper_bound(10.0, 11.0), 1.0);
    }

    #[test]
    fn zero_mean_is_always_prunable() {
        assert_eq!(chernoff_upper_bound(0.0, 3.0), 0.0);
        assert!(chernoff_prunable(0.0, 3.0, 0.1));
        assert_eq!(chernoff_upper_bound(0.0, 0.0), 1.0);
    }

    #[test]
    fn bound_decreases_in_threshold() {
        let mu = 20.0;
        let mut prev = 1.0;
        for msup in 21..200 {
            let b = chernoff_upper_bound(mu, msup as f64);
            assert!(b <= prev + 1e-15, "bound increased at msup={msup}");
            prev = b;
        }
        assert!(prev < 1e-6, "far tail should be tiny, got {prev}");
    }

    #[test]
    fn regime_boundary_is_continuousish() {
        // The two formulas differ at δ = 2e−1, but both stay valid bounds;
        // check they are each within [0,1] around the seam.
        let mu = 10.0;
        let msup_at_seam = (TWO_E_MINUS_ONE * mu) + mu + 1.0;
        for offset in [-0.5, -0.1, 0.0, 0.1, 0.5] {
            let b = chernoff_upper_bound(mu, msup_at_seam + offset);
            assert!((0.0..=1.0).contains(&b));
        }
    }

    #[test]
    fn bound_dominates_exact_survival_uniform() {
        // Deterministic grid of Poisson-Binomial instances: the bound must
        // never fall below the exact survival probability.
        for &n in &[5usize, 20, 60] {
            for &p in &[0.05, 0.3, 0.7, 0.95] {
                let probs = vec![p; n];
                let mu = p * n as f64;
                for msup in 1..=n {
                    let exact = survival_dp(&probs, msup);
                    let bound = chernoff_upper_bound(mu, msup as f64);
                    assert!(
                        bound >= exact - 1e-12,
                        "n={n} p={p} msup={msup}: bound {bound} < exact {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn bound_dominates_exact_survival_mixed() {
        let probs: Vec<f64> = (0..40)
            .map(|i| ((i * 17 % 29) as f64 + 1.0) / 30.0)
            .collect();
        let mu: f64 = probs.iter().sum();
        for msup in 1..=probs.len() {
            let exact = survival_dp(&probs, msup);
            let bound = chernoff_upper_bound(mu, msup as f64);
            assert!(
                bound >= exact - 1e-12,
                "msup={msup}: bound {bound} < exact {exact}"
            );
        }
    }

    #[test]
    fn bound_jumps_across_the_regime_seam_in_both_arguments() {
        // Raising μ across a/2e drops the bound from 2^{−δμ} to e^{−δ²μ/4}.
        let msup = 50.0;
        let seam = (msup - 1.0) / (TWO_E_MINUS_ONE + 1.0);
        let below = chernoff_upper_bound(seam * (1.0 - 1e-9), msup);
        let above = chernoff_upper_bound(seam * (1.0 + 1e-9), msup);
        assert!(above < below * 1e-6, "μ: {below} → {above}");
        // Raising msup across 2eμ + 1 lifts it the other way.
        let mu = 10.0;
        let seam = (TWO_E_MINUS_ONE + 1.0) * mu + 1.0;
        let below = chernoff_upper_bound(mu, seam * (1.0 - 1e-9));
        let above = chernoff_upper_bound(mu, seam * (1.0 + 1e-9));
        assert!(above > below * 1e6, "msup: {below} → {above}");
        // So a pft between the two sides makes the screen's verdict
        // non-monotone in μ: the infimum of the keepers lies below the seam.
        let pft = 1e-14;
        let cut = chernoff_min_esup(msup, pft).unwrap();
        let seam = (msup - 1.0) / (TWO_E_MINUS_ONE + 1.0);
        assert!(!chernoff_prunable(seam * (1.0 - 1e-9), msup, pft));
        assert!(chernoff_prunable(seam * (1.0 + 1e-9), msup, pft));
        assert!(cut < seam && (cut - (msup - 1.0 + pft.log2())).abs() < 1e-9);
    }

    #[test]
    fn min_esup_has_no_cut_without_a_screen() {
        for pft in [1.0, 1.5, f64::INFINITY] {
            assert_eq!(chernoff_min_esup(100.0, pft), None, "pft={pft}");
        }
        for msup in [1.0, 0.5, 0.0, -3.0, f64::NAN] {
            assert_eq!(chernoff_min_esup(msup, 0.5), None, "msup={msup}");
        }
        // A tiny msup at a strict pft: every positive mean is kept.
        assert_eq!(chernoff_min_esup(2.0, 0.1), Some(0.0));
        assert!(!chernoff_prunable(f64::MIN_POSITIVE, 2.0, 0.1));
    }

    /// `next_down` stepped `k` times.
    fn below(x: f64, k: usize) -> f64 {
        (0..k).fold(x, |x, _| x.next_down())
    }

    /// `next_up` stepped `k` times.
    fn above(x: f64, k: usize) -> f64 {
        (0..k).fold(x, |x, _| x.next_up())
    }

    #[test]
    fn min_esup_when_the_steep_root_lands_on_the_seam() {
        // pft = 2^{−a(1 − 1/2e)} puts a + log2 pft exactly on a/2e.
        let msup = 41.0;
        let a = msup - 1.0;
        let seam = a / (TWO_E_MINUS_ONE + 1.0);
        let edge = 2f64.powf(-(a - seam));
        for pft in [edge * (1.0 - 1e-6), edge, edge * (1.0 + 1e-6)] {
            let cut = chernoff_min_esup(msup, pft).unwrap();
            for mu in [
                0.0,
                cut * 0.5,
                below(cut, 1),
                below(cut, 64),
                below(seam, 1),
                seam,
                above(seam, 1),
                above(seam, 4),
                above(seam, 64),
            ] {
                if mu < cut {
                    assert!(chernoff_prunable(mu, msup, pft), "pft={pft} μ={mu}");
                }
            }
            assert!(
                !chernoff_prunable(cut * (1.0 + 1e-9), msup, pft),
                "pft={pft}"
            );
        }
        // Just below the edge pft, the steep regime keeps a sliver under the
        // seam; just above it, the cut moves up to the gentle root.
        let low = chernoff_min_esup(msup, edge * (1.0 - 1e-6)).unwrap();
        let high = chernoff_min_esup(msup, edge * (1.0 + 1e-6)).unwrap();
        assert!(low < seam && seam - low < 1e-5, "{low} vs {seam}");
        assert!(high > seam + 1.0, "{high} vs {seam}");
        for mu in [seam, (seam + high) / 2.0, below(high, 1)] {
            assert!(chernoff_prunable(mu, msup, edge * (1.0 + 1e-6)), "μ={mu}");
        }
        // Within a few ULPs of the edge pft the rounded regime test decides
        // which form a mean at the seam takes; no float near the seam and
        // below the cut may be kept.
        for msup in [3.0, 41.0, 1_000.0, 77_777.0] {
            let a = msup - 1.0;
            let seam = a / (TWO_E_MINUS_ONE + 1.0);
            let edge = 2f64.powf(-(a - seam));
            let mut pft = below(edge, 32);
            for _ in 0..64 {
                let cut = chernoff_min_esup(msup, pft).unwrap();
                for mu in (0..=64).map(|k| above(below(seam, 32), k)) {
                    if mu < cut {
                        assert!(chernoff_prunable(mu, msup, pft), "{msup} {pft} μ={mu}");
                    }
                }
                pft = pft.next_up();
            }
        }
    }

    #[test]
    fn min_esup_matches_the_paper_screen_on_a_grid() {
        for msup in [2.0, 3.5, 10.0, 270.4, 4_000.0, 99_999.0] {
            for pft in [1e-12, 0.01, 0.1, 0.5, 0.7, 0.9, 0.999_999] {
                let cut = chernoff_min_esup(msup, pft).unwrap();
                for k in 0..=64 {
                    let mu = cut * f64::from(k) / 64.0;
                    if mu < cut {
                        assert!(chernoff_prunable(mu, msup, pft), "{msup} {pft} μ={mu}");
                    }
                }
                assert!(cut == 0.0 || chernoff_prunable(below(cut, 1), msup, pft));
                let over = if cut > 0.0 { cut * (1.0 + 1e-9) } else { 1e-9 };
                assert!(!chernoff_prunable(over, msup, pft), "{msup} {pft}");
            }
        }
    }

    #[test]
    fn prunable_respects_strictness() {
        // Construct a case with a tiny bound.
        let mu = 1.0;
        let msup = 50.0;
        let b = chernoff_upper_bound(mu, msup);
        assert!(b < 1e-9);
        assert!(chernoff_prunable(mu, msup, 0.5));
        assert!(!chernoff_prunable(mu, msup, 0.0)); // pft=0 disallowed upstream anyway
    }
}
