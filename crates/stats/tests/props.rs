//! Property-based tests for the statistics substrate: FFT identities,
//! convolution algebra, special-function identities, and the soundness and
//! tightness of the Chernoff screen's expected-support cut.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use ufim_stats::chernoff::{chernoff_min_esup, chernoff_prunable};
use ufim_stats::complex::Complex64;
use ufim_stats::conv::{convolve, convolve_fft, convolve_naive, fold_tail};
use ufim_stats::fft::{dft_naive, fft, fft_in_place, ifft_in_place, Direction};
use ufim_stats::gamma::{gamma_p, gamma_q};
use ufim_stats::normal::{erf, erfc, normal_cdf};
use ufim_stats::poisson::{poisson_cdf, poisson_pmf, poisson_survival};

fn small_f64() -> impl Strategy<Value = f64> {
    (-1000i32..=1000).prop_map(|k| k as f64 / 100.0)
}

fn prob() -> impl Strategy<Value = f64> {
    (0u32..=1000).prop_map(|k| k as f64 / 1000.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fft_roundtrip_random(values in vec((small_f64(), small_f64()), 1..64)) {
        let input: Vec<Complex64> = values.iter().map(|&(re, im)| Complex64::new(re, im)).collect();
        let n = input.len().next_power_of_two();
        let mut buf = vec![Complex64::ZERO; n];
        buf[..input.len()].copy_from_slice(&input);
        let original = buf.clone();
        fft_in_place(&mut buf, Direction::Forward);
        ifft_in_place(&mut buf);
        for (a, b) in buf.iter().zip(&original) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_linearity(xs in vec(small_f64(), 1..32), ys_scale in small_f64()) {
        // FFT(a + c·b) = FFT(a) + c·FFT(b); use b = reversed a for variety.
        let a: Vec<Complex64> = xs.iter().map(|&v| Complex64::real(v)).collect();
        let b: Vec<Complex64> = xs.iter().rev().map(|&v| Complex64::real(v)).collect();
        let combo: Vec<Complex64> = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| x + y.scale(ys_scale))
            .collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fc = fft(&combo);
        for ((x, y), z) in fa.iter().zip(&fb).zip(&fc) {
            prop_assert!((*x + y.scale(ys_scale) - *z).abs() < 1e-7);
        }
    }

    #[test]
    fn fft_matches_dft_on_pow2(values in vec(small_f64(), 1..6)) {
        // Pad to a power of two so both agree on the length.
        let mut input: Vec<Complex64> = values.iter().map(|&v| Complex64::real(v)).collect();
        let n = input.len().next_power_of_two();
        input.resize(n, Complex64::ZERO);
        let fast = fft(&input);
        let slow = dft_naive(&input);
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((*a - *b).abs() < 1e-8);
        }
    }

    #[test]
    fn convolution_commutative_and_sums_factor(a in vec(prob(), 1..40), b in vec(prob(), 1..40)) {
        let ab = convolve(&a, &b);
        let ba = convolve(&b, &a);
        for (x, y) in ab.iter().zip(&ba) {
            prop_assert!((x - y).abs() < 1e-9);
        }
        // Σ (a*b) = Σa · Σb.
        let sa: f64 = a.iter().sum();
        let sb: f64 = b.iter().sum();
        let sab: f64 = ab.iter().sum();
        prop_assert!((sab - sa * sb).abs() < 1e-7 * (1.0 + sa * sb));
    }

    #[test]
    fn convolution_engines_agree(a in vec(prob(), 1..50), b in vec(prob(), 1..50)) {
        let naive = convolve_naive(&a, &b);
        let fftc = convolve_fft(&a, &b);
        prop_assert_eq!(naive.len(), fftc.len());
        for (x, y) in naive.iter().zip(&fftc) {
            prop_assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn fold_tail_preserves_mass(pmf in vec(prob(), 1..30), cap in 0usize..35) {
        let total: f64 = pmf.iter().sum();
        let folded = fold_tail(pmf, cap);
        let total2: f64 = folded.iter().sum();
        prop_assert!((total - total2).abs() < 1e-12);
        prop_assert!(folded.len() <= cap + 1 || total2 == total);
    }

    #[test]
    fn erf_is_odd_and_bounded(x in small_f64()) {
        prop_assert!((erf(x) + erf(-x)).abs() < 1e-14);
        prop_assert!(erf(x).abs() <= 1.0);
        prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-13);
    }

    #[test]
    fn normal_cdf_symmetry(x in small_f64()) {
        prop_assert!((normal_cdf(x) + normal_cdf(-x) - 1.0).abs() < 1e-13);
    }

    #[test]
    fn gamma_p_q_partition(a in (1u32..200).prop_map(|k| k as f64 / 10.0),
                           x in (0u32..500).prop_map(|k| k as f64 / 10.0)) {
        let p = gamma_p(a, x);
        let q = gamma_q(a, x);
        prop_assert!((p + q - 1.0).abs() < 1e-11);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn poisson_identities(k in 0usize..40, lambda in (0u32..400).prop_map(|v| v as f64 / 10.0)) {
        // CDF(k) + survival(k+1) = 1.
        let c = poisson_cdf(k, lambda);
        let s = poisson_survival(k + 1, lambda);
        prop_assert!((c + s - 1.0).abs() < 1e-10, "k={} λ={}", k, lambda);
        // CDF is the pmf partial sum.
        let direct: f64 = (0..=k).map(|i| poisson_pmf(i, lambda)).sum();
        prop_assert!((c - direct).abs() < 1e-9);
    }
}

/// Checks `chernoff_min_esup(msup, pft)` against the screen it is derived
/// from: every sampled mean below the cut is prunable (the largest float
/// below it, fractions of it, and the floats around the regime seam
/// `(msup − 1)/2e`), and a mean 1e−9 above it is not.
fn check_min_esup(msup: f64, pft: f64) -> Result<(), TestCaseError> {
    let Some(cut) = chernoff_min_esup(msup, pft) else {
        prop_assert!(msup <= 1.0, "no cut for msup={} pft={}", msup, pft);
        return Ok(());
    };
    let seam = (msup - 1.0) / (2.0 * std::f64::consts::E);
    let mut probes = vec![cut.next_down(), seam * (1.0 - 1e-12)];
    // Every float within 8 of the seam on either side.
    let first = (0..8).fold(seam, |mu, _| mu.next_down());
    probes.extend((0..=16).scan(first, |mu, _| {
        let here = *mu;
        *mu = mu.next_up();
        Some(here)
    }));
    probes.extend((0..32).map(|k| cut * f64::from(k) / 32.0));
    probes.extend((1..=8).map(|k| cut * (1.0 - 10f64.powi(-k))));
    for mu in probes {
        if (0.0..cut).contains(&mu) {
            prop_assert!(
                chernoff_prunable(mu, msup, pft),
                "μ={} below cut {} kept (msup={} pft={})",
                mu,
                cut,
                msup,
                pft
            );
        }
    }
    let over = if cut > 0.0 { cut * (1.0 + 1e-9) } else { 1e-9 };
    prop_assert!(
        !chernoff_prunable(over, msup, pft),
        "cut {} not tight (msup={} pft={})",
        cut,
        msup,
        pft
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn chernoff_min_esup_is_sound_and_tight(msup in 1.0f64..=1e5, pft in 1e-12f64..1.0) {
        check_min_esup(msup, pft)?;
    }

    #[test]
    fn chernoff_min_esup_at_extreme_pft(msup in 1.0f64..=1e5, k in 0.01f64..12.0) {
        // Log-uniform pft in (1e−12, 1): both ends of the unit interval.
        check_min_esup(msup, 10f64.powf(-k))?;
        check_min_esup(msup, 1.0 - 10f64.powf(-k))?;
    }
}
