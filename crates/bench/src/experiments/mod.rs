//! The experiment implementations, one module per paper artifact family.

pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod matrix;
pub mod tables;

use crate::config::HarnessConfig;
use crate::runner::MeasuredRun;
use ufim_core::{EngineKind, FxHashSet};
use ufim_metrics::table::{fmt_mb, fmt_secs, Table};
use ufim_miners::Algorithm;

/// Title and CSV-name suffixes naming the support backend, as
/// `(title_tag, file_tag)`. Both empty for a plain default run so
/// single-engine output keeps its historical names; always present when
/// sweeping `--engine both` or a non-default backend.
pub(crate) fn engine_tag(cfg: &HarnessConfig, engine: EngineKind) -> (String, String) {
    if cfg.engines.len() == 1 && engine == EngineKind::default() {
        (String::new(), String::new())
    } else {
        (
            format!(", engine={}", engine.name()),
            format!("_{}", engine.name()),
        )
    }
}

/// The subset of `all` to run on `engine`. On the default backend every
/// miner runs (that is the paper's configuration); on any other backend
/// only miners whose support computation actually goes through the engine
/// seam are included — rerunning an engine-agnostic miner (UH-Mine,
/// UFP-growth, NDUH-Mine) and labeling its unchanged run `engine=vertical`
/// would corrupt the backend comparison.
pub(crate) fn engine_algos(all: &[Algorithm], engine: EngineKind) -> Vec<Algorithm> {
    if engine == EngineKind::default() {
        all.to_vec()
    } else {
        all.iter()
            .copied()
            .filter(|a| a.supports_engine_selection())
            .collect()
    }
}

/// One measured curve family: for each x value, one optional run per
/// algorithm (`None` = skipped after exceeding the time budget).
pub struct Sweep {
    /// Table caption, e.g. `"Fig 4(a)+(e)  Connect: min_esup vs time/memory"`.
    pub title: String,
    /// Name of the x axis (`min_esup`, `pft`, `#trans`, `skew`).
    pub x_name: String,
    /// The algorithms, in plot-legend order.
    pub algorithms: Vec<Algorithm>,
    /// `(x label, per-algorithm runs)`.
    pub points: Vec<(String, Vec<Option<MeasuredRun>>)>,
}

impl Sweep {
    /// Executes a sweep: `run(algo, x_index)` for every point × algorithm,
    /// skipping an algorithm's remaining (harder) points once one run
    /// exceeds the configured budget — the paper's cutoff rule.
    pub fn execute(
        title: impl Into<String>,
        x_name: impl Into<String>,
        algorithms: &[Algorithm],
        x_labels: &[String],
        cfg: &HarnessConfig,
        mut run: impl FnMut(Algorithm, usize) -> MeasuredRun,
    ) -> Sweep {
        let mut given_up: FxHashSet<Algorithm> = FxHashSet::default();
        let mut points = Vec::with_capacity(x_labels.len());
        for (xi, xl) in x_labels.iter().enumerate() {
            let mut runs = Vec::with_capacity(algorithms.len());
            for &algo in algorithms {
                if given_up.contains(&algo) {
                    runs.push(None);
                    continue;
                }
                let r = run(algo, xi);
                if r.time_secs > cfg.timeout.as_secs_f64() {
                    given_up.insert(algo);
                }
                runs.push(Some(r));
            }
            points.push((xl.clone(), runs));
        }
        Sweep {
            title: title.into(),
            x_name: x_name.into(),
            algorithms: algorithms.to_vec(),
            points,
        }
    }

    /// Renders the paper-figure-shaped tables (one row per x, one column
    /// pair per algorithm) and dumps CSV/JSON when configured. `engine` is
    /// the support backend this sweep ran on — recorded per run in the
    /// JSON snapshot (as `n/a` for miners outside the engine seam, which
    /// ignore the selector).
    pub fn report(&self, cfg: &HarnessConfig, csv_name: &str, engine: EngineKind) {
        println!("\n=== {} ===", self.title);
        let mut header = vec![self.x_name.clone()];
        for a in &self.algorithms {
            header.push(format!("{} time", a.name()));
            header.push(format!("{} mem", a.name()));
            if cfg.mem {
                // The auxiliary-structure peak (support-engine memo, UFP
                // tree, UH-Struct) in its own units, plus the byte-accurate
                // engine memo peak (cross-backend comparable), next to the
                // allocator-level `mem` column measure_peak always fills.
                header.push(format!("{} struct", a.name()));
                header.push(format!("{} memo", a.name()));
            }
            header.push(format!("{} #freq", a.name()));
        }
        let mut table = Table::new(header);
        for (x, runs) in &self.points {
            let mut row = vec![x.clone()];
            for r in runs {
                match r {
                    Some(m) => {
                        row.push(fmt_secs(m.time_secs));
                        row.push(fmt_mb(m.peak_bytes));
                        if cfg.mem {
                            row.push(m.stats.peak_structure_nodes.to_string());
                            row.push(fmt_mb(m.stats.peak_memo_bytes as usize));
                        }
                        row.push(m.num_itemsets.to_string());
                    }
                    None => {
                        row.push(">budget".into());
                        row.push("-".into());
                        if cfg.mem {
                            row.push("-".into());
                            row.push("-".into());
                        }
                        row.push("-".into());
                    }
                }
            }
            table.row(row);
        }
        print!("{table}");

        // The paper's figures are log-scale line plots; render the running
        // time curves in that shape (the memory curves read fine from the
        // table).
        let mut chart = ufim_metrics::AsciiChart::new(
            format!("running time (s), log scale — {}", self.title),
            self.points.iter().map(|(x, _)| x.clone()).collect(),
        );
        for (ai, a) in self.algorithms.iter().enumerate() {
            chart.add_series(
                a.name(),
                self.points
                    .iter()
                    .map(|(_, runs)| runs[ai].as_ref().map(|m| m.time_secs))
                    .collect(),
            );
        }
        print!("{chart}");

        let mut rows = Vec::new();
        for (x, runs) in &self.points {
            for (a, r) in self.algorithms.iter().zip(runs) {
                match r {
                    Some(m) => rows.push(format!(
                        "{x},{},{:.6},{},{},{},{}",
                        a.name(),
                        m.time_secs,
                        m.peak_bytes,
                        m.stats.peak_structure_nodes,
                        m.stats.peak_memo_bytes,
                        m.num_itemsets
                    )),
                    None => rows.push(format!("{x},{},timeout,,,,", a.name())),
                }
            }
        }
        cfg.write_csv(
            csv_name,
            &format!(
                "{},algorithm,time_secs,peak_bytes,peak_structure_nodes,peak_memo_bytes,num_itemsets",
                self.x_name
            ),
            &rows,
        );

        // The machine-readable performance snapshot (`--json`): every run
        // that finished, skipped points omitted.
        let mut snapshot = crate::json::JsonSnapshot::new(csv_name, cfg.scale, cfg.seed);
        for (x, runs) in &self.points {
            for (a, r) in self.algorithms.iter().zip(runs) {
                let Some(m) = r else { continue };
                let engine_label = if a.supports_engine_selection() {
                    engine.name()
                } else {
                    "n/a" // owns its structures; the selector is ignored
                };
                snapshot.runs.push(crate::json::JsonRun {
                    workload: format!("{}={x}", self.x_name),
                    algorithm: a.name().to_string(),
                    engine: engine_label.to_string(),
                    wall_ms: m.time_secs * 1e3,
                    peak_bytes: m.peak_bytes as u64,
                    peak_memo_bytes: m.stats.peak_memo_bytes,
                    intersections: m.stats.intersections,
                    num_itemsets: m.num_itemsets as u64,
                    ..Default::default()
                });
            }
        }
        cfg.write_json(&snapshot);
    }

    /// The fastest algorithm at a given point (by index), if any ran.
    pub fn winner_at(&self, point: usize) -> Option<Algorithm> {
        let (_, runs) = self.points.get(point)?;
        self.algorithms
            .iter()
            .zip(runs)
            .filter_map(|(a, r)| r.as_ref().map(|m| (*a, m.time_secs)))
            .min_by(|x, y| x.1.partial_cmp(&y.1).expect("finite"))
            .map(|(a, _)| a)
    }

    /// The most memory-frugal algorithm at a given point, if any ran.
    pub fn memory_winner_at(&self, point: usize) -> Option<Algorithm> {
        let (_, runs) = self.points.get(point)?;
        self.algorithms
            .iter()
            .zip(runs)
            .filter_map(|(a, r)| r.as_ref().map(|m| (*a, m.peak_bytes)))
            .min_by_key(|&(_, m)| m)
            .map(|(a, _)| a)
    }
}

/// Formats f64 x-axis values the way the paper labels them (trailing zeros
/// trimmed).
pub fn fmt_x(v: f64) -> String {
    if v >= 0.01 {
        format!("{v}")
    } else {
        format!("{v:e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, NO_PFT};
    use ufim_core::examples::paper_table1;

    #[test]
    fn sweep_executes_and_reports_winners() {
        let db = paper_table1();
        let cfg = HarnessConfig::default();
        let xs = vec!["0.5".to_string(), "0.25".to_string()];
        let sweep = Sweep::execute(
            "test",
            "min_esup",
            &Algorithm::EXPECTED_SUPPORT,
            &xs,
            &cfg,
            |algo, xi| {
                let x = if xi == 0 { 0.5 } else { 0.25 };
                run(algo, &db, x, NO_PFT, EngineKind::default())
            },
        );
        assert_eq!(sweep.points.len(), 2);
        assert!(sweep.winner_at(0).is_some());
        assert!(sweep.memory_winner_at(1).is_some());
        assert!(sweep.winner_at(99).is_none());
    }

    #[test]
    fn timeout_skips_later_points() {
        let db = paper_table1();
        let cfg = HarnessConfig {
            timeout: std::time::Duration::from_secs(0),
            ..Default::default()
        };
        let xs: Vec<String> = ["a", "b"].iter().map(|s| s.to_string()).collect();
        let sweep = Sweep::execute("t", "x", &[Algorithm::UApriori], &xs, &cfg, |algo, _| {
            run(algo, &db, 0.5, NO_PFT, EngineKind::default())
        });
        // First point ran (then tripped the 0-second budget), second skipped.
        assert!(sweep.points[0].1[0].is_some());
        assert!(sweep.points[1].1[0].is_none());
    }

    #[test]
    fn fmt_x_trims() {
        assert_eq!(fmt_x(0.5), "0.5");
        assert_eq!(fmt_x(0.0005), "5e-4");
    }
}
