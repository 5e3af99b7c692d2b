//! **Figure 4** — performance of the expected-support-based algorithms
//! (UApriori, UH-Mine, UFP-growth).
//!
//! Sub-figures regenerated:
//! * (a)–(d) running time vs `min_esup` on Connect/Accident/Kosarak/Gazelle,
//! * (e)–(h) memory vs `min_esup` (same runs, memory column),
//! * (i)–(j) scalability on T25I15D320k, 20k → 320k transactions,
//! * (k)–(l) Zipf probability model, skew 0.8 → 2.0 (dense dataset, as in
//!   the paper: sparse data under Zipf yields no meaningful itemsets).

use super::{engine_algos, engine_tag, fmt_x, Sweep};
use crate::config::HarnessConfig;
use crate::runner::run_expected_with;
use ufim_data::{Benchmark, ProbabilityModel};
use ufim_miners::Algorithm;

/// `min_esup` sweep values per dataset, mirroring the x axes of Fig 4(a)–(d).
pub fn min_esup_axis(b: Benchmark) -> Vec<f64> {
    match b {
        Benchmark::Connect => vec![0.9, 0.8, 0.7, 0.6, 0.5, 0.4],
        Benchmark::Accident => vec![0.5, 0.4, 0.3, 0.2, 0.1],
        Benchmark::Kosarak => vec![0.1, 0.05, 0.01, 0.005, 0.0025, 0.001],
        Benchmark::Gazelle => vec![0.1, 0.01, 0.001, 1e-4],
        Benchmark::T25I15D320k => vec![0.5, 0.3, 0.1],
    }
}

/// The scalability x axis: thousands of transactions, as in Fig 4(i).
pub const SCALE_AXIS_K: [usize; 6] = [20, 40, 80, 100, 160, 320];

/// The Zipf skew axis of Fig 4(k)–(l).
pub const ZIPF_SKEW_AXIS: [f64; 4] = [0.8, 1.2, 1.6, 2.0];

/// `min_esup` used in the Zipf panels. Zipf-level probabilities are much
/// smaller on average than the Gaussian defaults, so the paper-style dense
/// threshold (0.5) would find nothing; 0.05 keeps one to two mining levels
/// alive across the whole skew axis.
pub const ZIPF_MIN_ESUP: f64 = 0.05;

/// Panels of Figure 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig4Panel {
    /// (a)–(h): per-dataset `min_esup` sweeps.
    MinEsup,
    /// (i)–(j): scalability.
    Scalability,
    /// (k)–(l): Zipf skew.
    Zipf,
    /// Everything.
    All,
}

/// Runs the requested panel(s). Datasets are generated once per panel and
/// shared across the configured support backends (generation is seeded, so
/// every backend sees the identical database).
pub fn run(cfg: &HarnessConfig, panel: Fig4Panel) {
    if matches!(panel, Fig4Panel::MinEsup | Fig4Panel::All) {
        for (sub, b) in [
            ("(a)+(e)", Benchmark::Connect),
            ("(b)+(f)", Benchmark::Accident),
            ("(c)+(g)", Benchmark::Kosarak),
            ("(d)+(h)", Benchmark::Gazelle),
        ] {
            let db = b.generate(cfg.scale, cfg.seed);
            let xs = min_esup_axis(b);
            let labels: Vec<String> = xs.iter().map(|&x| fmt_x(x)).collect();
            for &engine in &cfg.engines {
                let (ttag, ftag) = engine_tag(cfg, engine);
                let algos = engine_algos(&Algorithm::EXPECTED_SUPPORT, engine);
                let sweep = Sweep::execute(
                    format!(
                        "Fig 4{sub}  {}: min_esup vs time/memory (N={}, scale={}{ttag})",
                        b.name(),
                        db.num_transactions(),
                        cfg.scale
                    ),
                    "min_esup",
                    &algos,
                    &labels,
                    cfg,
                    |algo, xi| run_expected_with(algo, &db, xs[xi], engine),
                );
                sweep.report(
                    cfg,
                    &format!("fig4_minesup_{}{ftag}", b.name().to_lowercase()),
                    engine,
                );
            }
        }
    }

    if matches!(panel, Fig4Panel::Scalability | Fig4Panel::All) {
        let b = Benchmark::T25I15D320k;
        let min_esup = b.defaults().min_sup;
        // Generate once at the largest size, truncate downward.
        let full = b.generate(cfg.scale, cfg.seed);
        let xs: Vec<usize> = SCALE_AXIS_K
            .iter()
            .map(|&k| ((k * 1000) as f64 * cfg.scale).round() as usize)
            .collect();
        let labels: Vec<String> = xs.iter().map(|&n| format!("{n}")).collect();
        for &engine in &cfg.engines {
            let (ttag, ftag) = engine_tag(cfg, engine);
            let algos = engine_algos(&Algorithm::EXPECTED_SUPPORT, engine);
            let sweep = Sweep::execute(
                format!(
                    "Fig 4(i)+(j)  T25I15D320k scalability (min_esup={min_esup}, scale={}{ttag})",
                    cfg.scale
                ),
                "#trans",
                &algos,
                &labels,
                cfg,
                |algo, xi| {
                    let db = full.truncated(xs[xi]);
                    run_expected_with(algo, &db, min_esup, engine)
                },
            );
            sweep.report(cfg, &format!("fig4_scalability{ftag}"), engine);
        }
    }

    if matches!(panel, Fig4Panel::Zipf | Fig4Panel::All) {
        let b = Benchmark::Connect;
        let det_seed = cfg.seed;
        let labels: Vec<String> = ZIPF_SKEW_AXIS.iter().map(|&s| format!("{s}")).collect();
        // Regenerating the probability assignment per skew, structure fixed.
        let dbs: Vec<_> = ZIPF_SKEW_AXIS
            .iter()
            .map(|&skew| b.generate_with_model(cfg.scale, det_seed, &ProbabilityModel::zipf(skew)))
            .collect();
        for &engine in &cfg.engines {
            let (ttag, ftag) = engine_tag(cfg, engine);
            let algos = engine_algos(&Algorithm::EXPECTED_SUPPORT, engine);
            let sweep = Sweep::execute(
                format!(
                    "Fig 4(k)+(l)  Zipf skew vs time/memory ({}, min_esup={ZIPF_MIN_ESUP}, scale={}{ttag})",
                    b.name(),
                    cfg.scale
                ),
                "skew",
                &algos,
                &labels,
                cfg,
                |algo, xi| run_expected_with(algo, &dbs[xi], ZIPF_MIN_ESUP, engine),
            );
            sweep.report(cfg, &format!("fig4_zipf{ftag}"), engine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axes_match_paper_shapes() {
        assert_eq!(min_esup_axis(Benchmark::Connect).len(), 6);
        assert_eq!(min_esup_axis(Benchmark::Gazelle).len(), 4);
        assert_eq!(SCALE_AXIS_K.len(), 6);
        // Axes are monotone in difficulty (descending threshold).
        let ax = min_esup_axis(Benchmark::Accident);
        assert!(ax.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn zipf_panel_runs_at_tiny_scale() {
        let cfg = HarnessConfig {
            scale: 0.001,
            ..Default::default()
        };
        // Smoke test: must complete quickly and not panic.
        run(&cfg, Fig4Panel::Zipf);
    }
}
