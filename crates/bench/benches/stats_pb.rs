//! Substrate benchmarks: the Poisson-Binomial kernels that differentiate
//! the exact miners, and the two ablations DESIGN.md calls out:
//!
//! * **A-1 (FFT crossover)** — naive vs FFT convolution across output sizes,
//!   justifying `ufim_stats::conv::FFT_CROSSOVER`;
//! * **kernel scaling** — `survival_dp` (`O(N·msup)`) vs
//!   `pmf_divide_conquer` (`O(N log N)`) vs the `O(1)`-after-moments
//!   approximations — the complexity hierarchy the paper prints as Table 4.

use std::hint::black_box;
use ufim_bench::harness::Harness;
use ufim_bench::json::JsonRun;
use ufim_stats::chernoff::chernoff_upper_bound;
use ufim_stats::conv::{convolve_fft, convolve_naive};
use ufim_stats::normal::normal_survival_with_continuity;
use ufim_stats::pb::{pmf_divide_conquer, support_moments, survival_dp};
use ufim_stats::poisson::poisson_survival;

fn probs(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 37 % 100) as f64 + 1.0) / 101.0)
        .collect()
}

fn main() {
    let mut h = Harness::from_env();

    for n in [256usize, 1024, 4096] {
        let q = probs(n);
        let msup = n / 2;
        let run = |kernel| JsonRun::new(format!("n={n}"), kernel, "pb");
        h.bench("pb_kernels", run("survival_dp"), || {
            survival_dp(black_box(&q), msup)
        });
        h.bench("pb_kernels", run("pmf_dc_fft"), || {
            pmf_divide_conquer(black_box(&q), Some(msup))
        });
        h.bench("pb_kernels", run("normal_approx"), || {
            let (mu, var) = support_moments(black_box(&q));
            normal_survival_with_continuity(mu, var, msup)
        });
        h.bench("pb_kernels", run("poisson_approx"), || {
            let (mu, _) = support_moments(black_box(&q));
            poisson_survival(msup, mu)
        });
        h.bench("pb_kernels", run("chernoff_bound"), || {
            let (mu, _) = support_moments(black_box(&q));
            chernoff_upper_bound(mu, msup as f64)
        });
    }

    // Ablation A-1: where does FFT convolution overtake the naive
    // product-sum?
    for n in [32usize, 128, 256, 512, 2048] {
        let (a, b) = (probs(n), probs(n));
        let run = |method| JsonRun::new(format!("n={n}"), method, "conv");
        h.bench("conv_crossover", run("naive"), || {
            convolve_naive(black_box(&a), black_box(&b))
        });
        h.bench("conv_crossover", run("fft"), || {
            convolve_fft(black_box(&a), black_box(&b))
        });
    }

    h.finish("stats_pb", 1.0, 0);
}
