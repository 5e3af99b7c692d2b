//! Convolution of probability mass functions.
//!
//! If `sup₁` and `sup₂` are the supports of an itemset over two disjoint
//! halves of the database, the PMF of `sup₁ + sup₂` is the convolution of
//! the halves' PMFs — the "conquer" step of the DC algorithm (paper §3.2.2).
//!
//! Two engines are provided: a naive `O(n·m)` product-sum and an FFT-based
//! `O((n+m) log (n+m))` path. [`convolve`] picks one by size; the crossover
//! constant was chosen by the `conv_crossover` group of the `stats_pb`
//! bench (ablation A-1). Both support a *saturating* mode where index `cap` is a
//! "`≥ cap`" bucket, which lets the exact miners truncate PMFs at the support
//! threshold without losing tail mass.

use crate::complex::Complex64;
use crate::fft::{fft_in_place, ifft_in_place, next_pow2, Direction};

/// Below this output size the naive convolution wins; above it, FFT.
/// Tuned with `cargo bench --bench stats_pb` (conv_crossover group,
/// ablation A-1): measured on this implementation, naive
/// still wins at 511-point outputs (15 µs vs 23 µs) and the curves cross
/// right around 1023 points (51.0 µs vs 51.3 µs).
pub const FFT_CROSSOVER: usize = 1024;

/// Naive convolution: `out[k] = Σ_{i+j=k} a[i]·b[j]`.
pub fn convolve_naive(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        if x == 0.0 {
            continue;
        }
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

/// FFT-based convolution. Small negative round-off values are clamped to 0
/// so downstream probability code never sees `-1e-17`-style noise.
pub fn convolve_fft(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let out_len = a.len() + b.len() - 1;
    let n = next_pow2(out_len);
    let mut fa = vec![Complex64::ZERO; n];
    let mut fb = vec![Complex64::ZERO; n];
    for (slot, &x) in fa.iter_mut().zip(a) {
        *slot = Complex64::real(x);
    }
    for (slot, &x) in fb.iter_mut().zip(b) {
        *slot = Complex64::real(x);
    }
    fft_in_place(&mut fa, Direction::Forward);
    fft_in_place(&mut fb, Direction::Forward);
    for (za, zb) in fa.iter_mut().zip(&fb) {
        *za *= *zb;
    }
    ifft_in_place(&mut fa);
    fa.truncate(out_len);
    fa.into_iter().map(|z| z.re.max(0.0)).collect()
}

/// Size-dispatching convolution: naive below [`FFT_CROSSOVER`], FFT above.
pub fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    if a.len() + b.len() - 1 <= FFT_CROSSOVER {
        convolve_naive(a, b)
    } else {
        convolve_fft(a, b)
    }
}

/// Convolution with saturation at `cap`: the result has length
/// `min(a.len()+b.len()-1, cap+1)` and index `cap` accumulates all mass that
/// would land at `≥ cap`.
///
/// Saturation composes: if index `cap` of an *input* already means "`≥ cap`",
/// the output's `cap` bucket is still exactly "`≥ cap`", because any product
/// involving a saturated index lands at a combined index `≥ cap`.
pub fn convolve_saturating(a: &[f64], b: &[f64], cap: usize) -> Vec<f64> {
    let full = convolve(a, b);
    fold_tail(full, cap)
}

/// Folds all mass at indexes `> cap` into index `cap` ("`≥ cap`" bucket).
pub fn fold_tail(mut pmf: Vec<f64>, cap: usize) -> Vec<f64> {
    if pmf.len() > cap + 1 {
        let tail: f64 = pmf[cap + 1..].iter().sum();
        pmf.truncate(cap + 1);
        pmf[cap] += tail;
    }
    pmf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], eps: f64) {
        assert_eq!(a.len(), b.len(), "length mismatch: {a:?} vs {b:?}");
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < eps, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn naive_small_cases() {
        assert_close(&convolve_naive(&[1.0], &[1.0]), &[1.0], 1e-15);
        // (1 + 2x)(3 + 4x) = 3 + 10x + 8x²
        assert_close(
            &convolve_naive(&[1.0, 2.0], &[3.0, 4.0]),
            &[3.0, 10.0, 8.0],
            1e-15,
        );
        assert!(convolve_naive(&[], &[1.0]).is_empty());
    }

    #[test]
    fn fft_matches_naive() {
        let a: Vec<f64> = (0..37).map(|i| ((i * 7 % 5) as f64) / 5.0).collect();
        let b: Vec<f64> = (0..53).map(|i| ((i * 3 % 11) as f64) / 11.0).collect();
        assert_close(&convolve_fft(&a, &b), &convolve_naive(&a, &b), 1e-9);
    }

    #[test]
    fn dispatch_matches_both_paths() {
        let a = vec![0.25; 10];
        let b = vec![0.5; 8];
        assert_close(&convolve(&a, &b), &convolve_naive(&a, &b), 1e-12);
        let big_a = vec![0.01; 300];
        let big_b = vec![0.02; 200];
        assert_close(
            &convolve(&big_a, &big_b),
            &convolve_naive(&big_a, &big_b),
            1e-8,
        );
    }

    #[test]
    fn pmf_convolution_preserves_mass() {
        // Bernoulli(0.3) + Bernoulli(0.6)
        let a = [0.7, 0.3];
        let b = [0.4, 0.6];
        let c = convolve(&a, &b);
        assert!((c.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_close(&c, &[0.28, 0.54, 0.18], 1e-12);
    }

    #[test]
    fn saturating_folds_tail() {
        let a = [0.5, 0.5];
        let b = [0.5, 0.5];
        // Full: [0.25, 0.5, 0.25]; capped at 1 → [0.25, 0.75]
        assert_close(&convolve_saturating(&a, &b, 1), &[0.25, 0.75], 1e-12);
        // Cap larger than the result leaves it untouched.
        assert_close(&convolve_saturating(&a, &b, 5), &[0.25, 0.5, 0.25], 1e-12);
    }

    #[test]
    fn saturation_composes() {
        // Three Bernoulli(0.5): exact Pr[sup >= 1] = 1 - 0.125 = 0.875.
        let bern = [0.5, 0.5];
        let capped_pair = convolve_saturating(&bern, &bern, 1); // [0.25, 0.75]
        let final_pmf = convolve_saturating(&capped_pair, &bern, 1);
        assert!((final_pmf[1] - 0.875).abs() < 1e-12);
        assert!((final_pmf[0] - 0.125).abs() < 1e-12);
    }

    #[test]
    fn fold_tail_noop_when_short() {
        assert_close(&fold_tail(vec![0.2, 0.8], 5), &[0.2, 0.8], 1e-15);
        assert_close(&fold_tail(vec![0.1, 0.2, 0.3, 0.4], 1), &[0.1, 0.9], 1e-15);
    }

    #[test]
    fn fft_output_non_negative() {
        let a = vec![1e-9; 500];
        let b = vec![1e-9; 400];
        assert!(convolve_fft(&a, &b).iter().all(|&x| x >= 0.0));
    }
}
