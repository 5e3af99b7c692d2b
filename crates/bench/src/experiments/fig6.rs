//! **Figure 6** — approximate probabilistic algorithms (PDUApriori,
//! NDUApriori, NDUH-Mine) against the exact reference DCB.
//!
//! Sub-figures regenerated:
//! * (a)–(d) time and memory vs `min_sup` on Accident and Kosarak
//!   (all four algorithms, DCB as the exact baseline),
//! * (e)–(h) time and memory vs `pft`,
//! * (i)–(j) scalability (approximate algorithms only, as in the paper),
//! * (k)–(l) Zipf skew (approximate algorithms only).

use super::{engine_algos, engine_tag, fmt_x, Sweep};
use crate::config::HarnessConfig;
use crate::runner;
use ufim_data::{Benchmark, ProbabilityModel};
use ufim_miners::Algorithm;

/// `min_sup` sweeps of Fig 6(a)/(c).
pub fn min_sup_axis(b: Benchmark) -> Vec<f64> {
    match b {
        // Fig 6(a): 0.5 → 0.01.
        Benchmark::Accident => vec![0.5, 0.4, 0.3, 0.2, 0.1, 0.01],
        // Fig 6(c): 0.01 → 0.001.
        Benchmark::Kosarak => vec![0.01, 0.005, 0.0025, 0.0015, 0.001],
        _ => vec![0.5, 0.3, 0.1],
    }
}

/// `pft` sweep of Fig 6(e)–(h).
pub const PFT_AXIS: [f64; 5] = [0.9, 0.7, 0.5, 0.3, 0.1];

/// Zipf skew axis.
pub const ZIPF_SKEW_AXIS: [f64; 4] = [0.8, 1.2, 1.6, 2.0];

/// `min_sup` for the Zipf panels.
pub const ZIPF_MIN_SUP: f64 = 0.05;

/// The three approximate algorithms (scalability/Zipf panels).
pub const APPROX_ONLY: [Algorithm; 3] = [
    Algorithm::PDUApriori,
    Algorithm::NDUApriori,
    Algorithm::NDUHMine,
];

/// Panels of Figure 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig6Panel {
    /// (a)–(d): `min_sup` sweeps.
    MinSup,
    /// (e)–(h): `pft` sweeps.
    Pft,
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
pub fn run(cfg: &HarnessConfig, panel: Fig6Panel) {
    if matches!(panel, Fig6Panel::MinSup | Fig6Panel::All) {
        for (sub, b) in [
            ("(a)+(b)", Benchmark::Accident),
            ("(c)+(d)", Benchmark::Kosarak),
        ] {
            let db = b.generate(cfg.scale, cfg.seed);
            let pft = b.defaults().pft;
            let xs = min_sup_axis(b);
            let labels: Vec<String> = xs.iter().map(|&x| fmt_x(x)).collect();
            for &engine in &cfg.engines {
                let (ttag, ftag) = engine_tag(cfg, engine);
                let algos = engine_algos(&Algorithm::APPROXIMATE, engine);
                let sweep = Sweep::execute(
                    format!(
                        "Fig 6{sub}  {}: min_sup vs time/memory (pft={pft}, N={}, scale={}{ttag})",
                        b.name(),
                        db.num_transactions(),
                        cfg.scale
                    ),
                    "min_sup",
                    &algos,
                    &labels,
                    cfg,
                    |algo, xi| runner::run(algo, &db, xs[xi], pft, engine),
                );
                sweep.report(
                    cfg,
                    &format!("fig6_minsup_{}{ftag}", b.name().to_lowercase()),
                    engine,
                );
            }
        }
    }

    if matches!(panel, Fig6Panel::Pft | Fig6Panel::All) {
        for (sub, b) in [
            ("(e)+(f)", Benchmark::Accident),
            ("(g)+(h)", Benchmark::Kosarak),
        ] {
            let db = b.generate(cfg.scale, cfg.seed);
            let min_sup = b.defaults().min_sup;
            let labels: Vec<String> = PFT_AXIS.iter().map(|&x| fmt_x(x)).collect();
            for &engine in &cfg.engines {
                let (ttag, ftag) = engine_tag(cfg, engine);
                let algos = engine_algos(&Algorithm::APPROXIMATE, engine);
                let sweep = Sweep::execute(
                    format!(
                        "Fig 6{sub}  {}: pft vs time/memory (min_sup={min_sup}, scale={}{ttag})",
                        b.name(),
                        cfg.scale
                    ),
                    "pft",
                    &algos,
                    &labels,
                    cfg,
                    |algo, xi| runner::run(algo, &db, min_sup, PFT_AXIS[xi], engine),
                );
                sweep.report(
                    cfg,
                    &format!("fig6_pft_{}{ftag}", b.name().to_lowercase()),
                    engine,
                );
            }
        }
    }

    if matches!(panel, Fig6Panel::Scalability | Fig6Panel::All) {
        let b = Benchmark::T25I15D320k;
        let d = b.defaults();
        let full = b.generate(cfg.scale, cfg.seed);
        let xs: Vec<usize> = super::fig4::SCALE_AXIS_K
            .iter()
            .map(|&k| ((k * 1000) as f64 * cfg.scale).round() as usize)
            .collect();
        let labels: Vec<String> = xs.iter().map(|&n| format!("{n}")).collect();
        for &engine in &cfg.engines {
            let (ttag, ftag) = engine_tag(cfg, engine);
            let algos = engine_algos(&APPROX_ONLY, engine);
            let sweep = Sweep::execute(
                format!(
                    "Fig 6(i)+(j)  T25I15D320k scalability (min_sup={}, pft={}, scale={}{ttag})",
                    d.min_sup, d.pft, cfg.scale
                ),
                "#trans",
                &algos,
                &labels,
                cfg,
                |algo, xi| {
                    let db = full.truncated(xs[xi]);
                    runner::run(algo, &db, d.min_sup, d.pft, engine)
                },
            );
            sweep.report(cfg, &format!("fig6_scalability{ftag}"), engine);
        }
    }

    if matches!(panel, Fig6Panel::Zipf | Fig6Panel::All) {
        let b = Benchmark::Connect;
        let pft = b.defaults().pft;
        let labels: Vec<String> = ZIPF_SKEW_AXIS.iter().map(|&s| format!("{s}")).collect();
        let dbs: Vec<_> = ZIPF_SKEW_AXIS
            .iter()
            .map(|&skew| b.generate_with_model(cfg.scale, cfg.seed, &ProbabilityModel::zipf(skew)))
            .collect();
        for &engine in &cfg.engines {
            let (ttag, ftag) = engine_tag(cfg, engine);
            let algos = engine_algos(&APPROX_ONLY, engine);
            let sweep = Sweep::execute(
            format!(
                "Fig 6(k)+(l)  Zipf skew vs time/memory ({}, min_sup={ZIPF_MIN_SUP}, pft={pft}, scale={}{ttag})",
                b.name(),
                cfg.scale
            ),
            "skew",
            &algos,
            &labels,
            cfg,
            |algo, xi| runner::run(algo, &dbs[xi], ZIPF_MIN_SUP, pft, engine),
        );
            sweep.report(cfg, &format!("fig6_zipf{ftag}"), engine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axes_shapes() {
        assert_eq!(min_sup_axis(Benchmark::Accident).len(), 6);
        assert_eq!(min_sup_axis(Benchmark::Kosarak).len(), 5);
        assert_eq!(Algorithm::APPROXIMATE[0], Algorithm::DCB);
        assert_eq!(APPROX_ONLY.len(), 3);
    }
}
