//! **Figure 5** — performance of the exact probabilistic algorithms
//! (DPNB, DPB, DCNB, DCB).
//!
//! Sub-figures regenerated:
//! * (a)–(d) time and memory vs `min_sup` on Accident and Kosarak,
//! * (e)–(h) time and memory vs `pft`,
//! * (i)–(j) scalability on T25I15D320k,
//! * (k)–(l) Zipf skew.

use super::{engine_tag, fmt_x, Sweep};
use crate::config::HarnessConfig;
use crate::runner;
use ufim_data::{Benchmark, ProbabilityModel};
use ufim_miners::Algorithm;

/// `min_sup` sweeps of Fig 5(a)/(c).
pub fn min_sup_axis(b: Benchmark) -> Vec<f64> {
    match b {
        // Fig 5(a): 0.9 → 0.4.
        Benchmark::Accident => vec![0.9, 0.8, 0.7, 0.6, 0.5, 0.4],
        // Fig 5(c): 0.9 → 0.1.
        Benchmark::Kosarak => vec![0.9, 0.7, 0.5, 0.3, 0.2, 0.1],
        _ => vec![0.9, 0.7, 0.5],
    }
}

/// `pft` sweep of Fig 5(e)–(h): 0.9 → 0.1.
pub const PFT_AXIS: [f64; 5] = [0.9, 0.7, 0.5, 0.3, 0.1];

/// Zipf skew axis (same as Figure 4).
pub const ZIPF_SKEW_AXIS: [f64; 4] = [0.8, 1.2, 1.6, 2.0];

/// `min_sup` for the Zipf panels (see `fig4::ZIPF_MIN_ESUP` rationale).
pub const ZIPF_MIN_SUP: f64 = 0.05;

/// Panels of Figure 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig5Panel {
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
pub fn run(cfg: &HarnessConfig, panel: Fig5Panel) {
    let algos = Algorithm::EXACT_PROBABILISTIC;

    if matches!(panel, Fig5Panel::MinSup | Fig5Panel::All) {
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
                let sweep = Sweep::execute(
                    format!(
                        "Fig 5{sub}  {}: min_sup vs time/memory (pft={pft}, N={}, scale={}{ttag})",
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
                    &format!("fig5_minsup_{}{ftag}", b.name().to_lowercase()),
                    engine,
                );
            }
        }
    }

    if matches!(panel, Fig5Panel::Pft | Fig5Panel::All) {
        for (sub, b) in [
            ("(e)+(f)", Benchmark::Accident),
            ("(g)+(h)", Benchmark::Kosarak),
        ] {
            let db = b.generate(cfg.scale, cfg.seed);
            let min_sup = b.defaults().min_sup;
            let labels: Vec<String> = PFT_AXIS.iter().map(|&x| fmt_x(x)).collect();
            for &engine in &cfg.engines {
                let (ttag, ftag) = engine_tag(cfg, engine);
                let sweep = Sweep::execute(
                    format!(
                        "Fig 5{sub}  {}: pft vs time/memory (min_sup={min_sup}, scale={}{ttag})",
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
                    &format!("fig5_pft_{}{ftag}", b.name().to_lowercase()),
                    engine,
                );
            }
        }
    }

    if matches!(panel, Fig5Panel::Scalability | Fig5Panel::All) {
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
            let sweep = Sweep::execute(
                format!(
                    "Fig 5(i)+(j)  T25I15D320k scalability (min_sup={}, pft={}, scale={}{ttag})",
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
            sweep.report(cfg, &format!("fig5_scalability{ftag}"), engine);
        }
    }

    if matches!(panel, Fig5Panel::Zipf | Fig5Panel::All) {
        let b = Benchmark::Connect;
        let pft = b.defaults().pft;
        let labels: Vec<String> = ZIPF_SKEW_AXIS.iter().map(|&s| format!("{s}")).collect();
        let dbs: Vec<_> = ZIPF_SKEW_AXIS
            .iter()
            .map(|&skew| b.generate_with_model(cfg.scale, cfg.seed, &ProbabilityModel::zipf(skew)))
            .collect();
        for &engine in &cfg.engines {
            let (ttag, ftag) = engine_tag(cfg, engine);
            let sweep = Sweep::execute(
            format!(
                "Fig 5(k)+(l)  Zipf skew vs time/memory ({}, min_sup={ZIPF_MIN_SUP}, pft={pft}, scale={}{ttag})",
                b.name(),
                cfg.scale
            ),
            "skew",
            &algos,
            &labels,
            cfg,
            |algo, xi| runner::run(algo, &dbs[xi], ZIPF_MIN_SUP, pft, engine),
        );
            sweep.report(cfg, &format!("fig5_zipf{ftag}"), engine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axes_are_monotone_harder() {
        for b in [Benchmark::Accident, Benchmark::Kosarak] {
            let ax = min_sup_axis(b);
            assert!(ax.windows(2).all(|w| w[0] > w[1]), "{}", b.name());
        }
        assert!(PFT_AXIS.windows(2).all(|w| w[0] > w[1]));
    }
}
