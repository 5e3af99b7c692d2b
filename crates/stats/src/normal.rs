//! The standard Normal distribution: `erf`/`erfc`, CDF `Φ`, and the
//! continuity-corrected survival approximation used by NDUApriori and
//! NDUH-Mine (paper §3.3.2–3.3.3).
//!
//! By the Lyapunov central limit theorem the Poisson-Binomial support
//! converges to `N(esup, Var)`; the miners approximate
//! `Pr{sup(X) ≥ msup} ≈ 1 − Φ((msup − 0.5 − esup)/√Var)`.
//!
//! (The paper prints the formula as `Φ((N·min_sup − 0.5 − esup)/√Var)`,
//! which *decreases* in `esup` — an orientation typo. The corrected form
//! above is what [`normal_survival_with_continuity`] computes.)
//!
//! `erf`/`erfc` follow W. J. Cody's SPECFUN rational approximations
//! (three regimes split at 0.46875 and 4.0), accurate to ~1 ulp over the
//! full double range — so the only error in the miners' probability
//! estimates is the CLT approximation itself, never the special function.

#![allow(clippy::excessive_precision)] // published coefficient sets, kept verbatim

/// `1/√π`.
const FRAC_1_SQRT_PI: f64 = 0.564_189_583_547_756_286_95;

// Cody's coefficient sets (SPECFUN `CALERF`).
const A: [f64; 5] = [
    3.161_123_743_870_565_6e0,
    1.138_641_541_510_501_56e2,
    3.774_852_376_853_020_2e2,
    3.209_377_589_138_469_47e3,
    1.857_777_061_846_031_53e-1,
];
const B: [f64; 4] = [
    2.360_129_095_234_412_09e1,
    2.440_246_379_344_441_73e2,
    1.282_616_526_077_372_28e3,
    2.844_236_833_439_170_62e3,
];
const C: [f64; 9] = [
    5.641_884_969_886_700_89e-1,
    8.883_149_794_388_375_94e0,
    6.611_919_063_714_162_95e1,
    2.986_351_381_974_001_31e2,
    8.819_522_212_417_690_9e2,
    1.712_047_612_634_070_58e3,
    2.051_078_377_826_071_47e3,
    1.230_339_354_797_997_25e3,
    2.153_115_354_744_038_46e-8,
];
const D: [f64; 8] = [
    1.574_492_611_070_983_47e1,
    1.176_939_508_913_124_99e2,
    5.371_811_018_620_098_58e2,
    1.621_389_574_566_690_19e3,
    3.290_799_235_733_459_63e3,
    4.362_619_090_143_247_16e3,
    3.439_367_674_143_721_64e3,
    1.230_339_354_803_749_42e3,
];
const P: [f64; 6] = [
    3.053_266_349_612_323_44e-1,
    3.603_448_999_498_044_39e-1,
    1.257_817_261_112_292_46e-1,
    1.608_378_514_874_227_66e-2,
    6.587_491_615_298_378_03e-4,
    1.631_538_713_730_209_78e-2,
];
const Q: [f64; 5] = [
    2.568_520_192_289_822_42e0,
    1.872_952_849_923_460_47e0,
    5.279_051_029_514_284_12e-1,
    6.051_834_131_244_131_91e-2,
    2.335_204_976_268_691_85e-3,
];

/// Core of Cody's algorithm: `erfc(y)` for `y > 0.46875`.
fn erfc_positive_tail(y: f64) -> f64 {
    if y > 26.543 {
        // erfc underflows double precision past ~26.5.
        return 0.0;
    }
    let result = if y <= 4.0 {
        let mut xnum = C[8] * y;
        let mut xden = y;
        for i in 0..7 {
            xnum = (xnum + C[i]) * y;
            xden = (xden + D[i]) * y;
        }
        (xnum + C[7]) / (xden + D[7])
    } else {
        let ysq = 1.0 / (y * y);
        let mut xnum = P[5] * ysq;
        let mut xden = ysq;
        for i in 0..4 {
            xnum = (xnum + P[i]) * ysq;
            xden = (xden + Q[i]) * ysq;
        }
        let r = ysq * (xnum + P[4]) / (xden + Q[4]);
        (FRAC_1_SQRT_PI - r) / y
    };
    // exp(-y²) computed as exp(-ysq²)·exp(-del) with ysq = y rounded to
    // 1/16ths — Cody's trick to avoid cancellation in y² for large y.
    let ysq16 = (y * 16.0).trunc() / 16.0;
    let del = (y - ysq16) * (y + ysq16);
    (-ysq16 * ysq16).exp() * (-del).exp() * result
}

/// `erf(x)`, the error function, to near machine precision.
pub fn erf(x: f64) -> f64 {
    let y = x.abs();
    if y <= 0.46875 {
        // Small-argument rational approximation, odd in x.
        let ysq = if y > 1.11e-16 { y * y } else { 0.0 };
        let mut xnum = A[4] * ysq;
        let mut xden = ysq;
        for i in 0..3 {
            xnum = (xnum + A[i]) * ysq;
            xden = (xden + B[i]) * ysq;
        }
        x * (xnum + A[3]) / (xden + B[3])
    } else {
        let ec = erfc_positive_tail(y);
        if x >= 0.0 {
            1.0 - ec
        } else {
            ec - 1.0
        }
    }
}

/// `erfc(x) = 1 − erf(x)`, accurate in both tails (no cancellation for
/// large positive `x`).
pub fn erfc(x: f64) -> f64 {
    let y = x.abs();
    if y <= 0.46875 {
        1.0 - erf(x)
    } else if x >= 0.0 {
        erfc_positive_tail(y)
    } else {
        2.0 - erfc_positive_tail(y)
    }
}

/// Standard Normal CDF `Φ(x) = erfc(−x/√2)/2`, computed through `erfc` for
/// tail accuracy.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard Normal survival `1 − Φ(x) = erfc(x/√2)/2`.
pub fn normal_sf(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Continuity-corrected Normal approximation to the Poisson-Binomial
/// survival function:
///
/// `Pr{sup ≥ msup} ≈ 1 − Φ((msup − 0.5 − mean)/σ)`.
///
/// Degenerate case: when `var` is (numerically) zero the support is the
/// deterministic value `mean`, so the survival is a step function at the
/// corrected threshold.
pub fn normal_survival_with_continuity(mean: f64, var: f64, msup: usize) -> f64 {
    let threshold = msup as f64 - 0.5;
    if var <= f64::EPSILON {
        return if mean >= threshold { 1.0 } else { 0.0 };
    }
    normal_sf((threshold - mean) / var.sqrt())
}

/// The largest expected support `μ*` such that **every** itemset with
/// `esup(X) < μ*` is judged infrequent by the continuity-corrected Normal
/// approximation at `(msup, pft)`, whatever its variance.
///
/// Soundness: the support variance of an itemset is `Σ q_t(1 − q_t) ≤
/// Σ q_t = esup(X)`, and for `esup < msup − 0.5` the approximated survival
/// `1 − Φ((msup − 0.5 − esup)/σ)` is increasing in `σ`, so
/// `σ² = esup` maximizes it. That envelope
/// `f(μ) = 1 − Φ((msup − 0.5 − μ)/√μ)` is strictly increasing on
/// `(0, msup − 0.5)` from 0 to ½; `μ*` is its crossing with `pft`
/// (bisection), or the whole interval when `pft ≥ ½`. The degenerate
/// zero-variance case is a step at `msup − 0.5` and never exceeds the
/// envelope's verdict below it.
///
/// This is the bound NDUApriori pushes into the support engine
/// (`StatRequest::min_esup`): candidates below it can never clear `pft`, so
/// a memoizing engine need not retain their intersection state. It never
/// changes which itemsets are reported.
pub fn normal_esup_lower_bound(msup: usize, pft: f64) -> f64 {
    let threshold = msup as f64 - 0.5;
    if threshold <= 0.0 {
        return 0.0;
    }
    // The envelope tops out just below ½ as μ → threshold.
    if pft >= 0.5 {
        return threshold;
    }
    let envelope = |mu: f64| normal_sf((threshold - mu) / mu.sqrt());
    let (mut lo, mut hi) = (0.0f64, threshold);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if envelope(mid) <= pft {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // `lo` still satisfies envelope(lo) ≤ pft: strictly below it the
    // envelope (and hence the true approximate survival) stays ≤ pft.
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    // High-precision reference values (Wolfram/Abramowitz-Stegun).
    const ERF_TABLE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.112_462_916_018_284_9),
        (0.4, 0.428_392_355_046_668_45),
        (0.5, 0.520_499_877_813_046_5),
        (1.0, 0.842_700_792_949_714_9),
        (1.5, 0.966_105_146_475_310_7),
        (2.0, 0.995_322_265_018_952_7),
        (3.0, 0.999_977_909_503_001_4),
        (4.5, 0.999_999_999_803_383_9),
    ];

    #[test]
    fn erf_matches_tables_tightly() {
        for &(x, want) in ERF_TABLE {
            let got = erf(x);
            assert!(
                (got - want).abs() < 1e-14,
                "erf({x}) = {got:.17} want {want:.17}"
            );
            assert!((erf(-x) + want).abs() < 1e-14, "odd symmetry at {x}");
        }
    }

    #[test]
    fn erfc_complements_erf() {
        for x in [-4.0, -1.0, -0.2, 0.0, 0.4, 1.7, 3.9, 6.0] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-13, "x={x}");
        }
    }

    #[test]
    fn erfc_tail_relative_accuracy() {
        // erfc(3), erfc(5), erfc(10) to published precision.
        let refs = [
            (3.0, 2.209_049_699_858_544e-5),
            (5.0, 1.537_459_794_428_035e-12),
            (10.0, 2.088_487_583_762_545e-45),
        ];
        for (x, want) in refs {
            let got = erfc(x);
            assert!(
                (got / want - 1.0).abs() < 1e-12,
                "erfc({x}) = {got:e} want {want:e}"
            );
        }
        assert_eq!(erfc(30.0), 0.0); // underflow guard
    }

    #[test]
    fn normal_cdf_reference_points() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-15);
        assert!((normal_cdf(1.0) - 0.841_344_746_068_542_9).abs() < 1e-13);
        assert!((normal_cdf(-1.0) - 0.158_655_253_931_457_05).abs() < 1e-13);
        assert!((normal_cdf(1.96) - 0.975_002_104_851_780_2).abs() < 1e-13);
        assert!((normal_cdf(-3.0) - 1.349_898_031_630_094_5e-3).abs() < 1e-15);
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let mut prev = 0.0;
        let mut x = -8.0;
        while x <= 8.0 {
            let c = normal_cdf(x);
            assert!(c >= prev - 1e-15, "CDF decreased at {x}");
            assert!((0.0..=1.0).contains(&c));
            prev = c;
            x += 0.05;
        }
    }

    #[test]
    fn sf_complements_cdf() {
        for x in [-2.5, 0.0, 0.7, 3.1] {
            assert!((normal_cdf(x) + normal_sf(x) - 1.0).abs() < 1e-14);
        }
        // And in the deep tail, SF keeps relative accuracy.
        assert!((normal_sf(6.0) / 9.865_876_450_376_946e-10 - 1.0).abs() < 1e-10);
    }

    #[test]
    fn survival_with_continuity_basic() {
        // Symmetric case: mean exactly at the corrected threshold → 0.5.
        let s = normal_survival_with_continuity(1.5, 1.0, 2);
        assert!((s - 0.5).abs() < 1e-12);
        // Mean far above the threshold → near 1.
        assert!(normal_survival_with_continuity(100.0, 10.0, 10) > 0.999_999);
        // Mean far below → near 0.
        assert!(normal_survival_with_continuity(1.0, 1.0, 50) < 1e-9);
    }

    #[test]
    fn survival_degenerate_variance() {
        assert_eq!(normal_survival_with_continuity(5.0, 0.0, 5), 1.0);
        assert_eq!(normal_survival_with_continuity(4.0, 0.0, 5), 0.0);
    }

    #[test]
    fn survival_increases_with_mean() {
        let mut prev = 0.0;
        for mean10 in 0..100 {
            let s = normal_survival_with_continuity(mean10 as f64 * 0.1, 2.0, 5);
            assert!(s >= prev - 1e-14);
            prev = s;
        }
    }

    #[test]
    fn esup_lower_bound_is_sound_for_every_variance() {
        // Any (mean, var) with mean below the bound and var ≤ mean must be
        // judged infrequent; grid-check the whole admissible region.
        for msup in [1usize, 3, 10, 50, 200] {
            for pft in [0.01, 0.1, 0.3, 0.49, 0.5, 0.9] {
                let bound = normal_esup_lower_bound(msup, pft);
                assert!(bound >= 0.0 && bound <= msup as f64 - 0.5 + 1e-12);
                for frac_mu in [0.01, 0.3, 0.7, 0.99, 0.999999] {
                    let mean = bound * frac_mu;
                    for frac_var in [0.0, 0.2, 0.9, 1.0] {
                        let var = mean * frac_var;
                        let pr = normal_survival_with_continuity(mean, var, msup);
                        assert!(
                            pr <= pft + 1e-12,
                            "msup={msup} pft={pft}: mean={mean} var={var} → Pr={pr} > pft"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn esup_lower_bound_is_tight_at_the_envelope() {
        // Just above the bound, the maximal-variance survival must exceed
        // pft — otherwise the bound is leaving pruning power on the table.
        for (msup, pft) in [(10usize, 0.1), (50, 0.3), (200, 0.05)] {
            let bound = normal_esup_lower_bound(msup, pft);
            let mean = bound * 1.001;
            let pr = normal_survival_with_continuity(mean, mean, msup);
            assert!(
                pr > pft,
                "msup={msup} pft={pft}: bound {bound} not tight (Pr={pr})"
            );
        }
    }

    #[test]
    fn esup_lower_bound_saturates_at_half() {
        // pft ≥ ½ dominates the whole sub-threshold range.
        assert_eq!(normal_esup_lower_bound(10, 0.5), 9.5);
        assert_eq!(normal_esup_lower_bound(10, 0.9), 9.5);
        assert_eq!(normal_esup_lower_bound(1, 0.7), 0.5);
    }

    #[test]
    fn clt_tracks_exact_binomial() {
        // For Binomial(400, 0.5) the CLT error is O(1/√n); check the Normal
        // approximation lands within 1e-3 of the exact survival at the mean.
        let probs = vec![0.5; 400];
        let exact = crate::pb::survival_dp(&probs, 200);
        let approx = normal_survival_with_continuity(200.0, 100.0, 200);
        assert!(
            (exact - approx).abs() < 1e-3,
            "exact {exact} vs normal {approx}"
        );
    }
}
