//! **Matrix** — the measure × traversal × engine grid that the paper's
//! Table 10 only samples eight cells of.
//!
//! Runs every buildable [`MatrixMiner`] cell on one benchmark database and
//! prints a grid of running time / peak memory / result size, one row per
//! measure and one column group per traversal. The level-wise column
//! honours `--engine` (including `both`); the depth-first traversals own
//! their structures and run once. Cells occupied by a named paper
//! algorithm are annotated with its name; the rest are the combinations
//! this codebase newly unlocks (exact-DP/DC on UH-Mine, Poisson/Normal on
//! UFP-growth, Poisson on UH-Mine).
//!
//! Because every cell of a row judges by the *same* measure, their result
//! counts must agree — the report flags any row where they do not, which
//! makes this experiment double as a cheap cross-traversal consistency
//! check on real generated data.

use crate::config::HarnessConfig;
use crate::runner;
use ufim_core::{MeasureKind, TraversalKind};
use ufim_data::Benchmark;
use ufim_metrics::table::{fmt_mb, fmt_secs, Table};
use ufim_miners::{Algorithm, MatrixMiner};

/// Runs the matrix experiment, restricted to the selected axes (`None`
/// means "all of them").
pub fn run(
    cfg: &HarnessConfig,
    measure_filter: Option<MeasureKind>,
    traversal_filter: Option<TraversalKind>,
) {
    let b = Benchmark::Accident;
    let d = b.defaults();
    let db = b.generate(cfg.scale, cfg.seed);
    let measures: Vec<MeasureKind> = MeasureKind::ALL
        .into_iter()
        .filter(|m| measure_filter.is_none_or(|f| f == *m))
        .collect();
    let traversals: Vec<TraversalKind> = TraversalKind::ALL
        .into_iter()
        .filter(|t| traversal_filter.is_none_or(|f| f == *t))
        .collect();

    for &engine in &cfg.engines {
        println!(
            "\n=== Matrix  {}: measure × traversal grid (min_sup={}, pft={}, N={}, scale={}, engine={}) ===",
            b.name(),
            d.min_sup,
            d.pft,
            db.num_transactions(),
            cfg.scale,
            engine.name(),
        );
        let mut header = vec!["measure".to_string()];
        for t in &traversals {
            header.push(format!("{t} time"));
            header.push(format!("{t} mem"));
            if cfg.mem {
                header.push(format!("{t} struct"));
                header.push(format!("{t} memo"));
            }
            header.push(format!("{t} #freq"));
        }
        let mut table = Table::new(header);
        let mut csv_rows = Vec::new();
        let mut inconsistent = Vec::new();
        let mut snapshot = crate::json::JsonSnapshot::new(
            format!("matrix_{}", engine.name()),
            cfg.scale,
            cfg.seed,
        );

        for &measure in &measures {
            let mut row = vec![measure.name().to_string()];
            let mut counts: Vec<usize> = Vec::new();
            for &traversal in &traversals {
                if !MatrixMiner::supported(measure, traversal) {
                    row.extend(["—".into(), "—".into(), "—".into()]);
                    if cfg.mem {
                        row.extend(["—".into(), "—".into()]);
                    }
                    continue;
                }
                // Depth-first traversals own their structures and ignore
                // the engine selector; measure them once (under the first
                // configured engine) and mark the repeats, so an
                // `--engine both` sweep never mislabels identical runs.
                if traversal != TraversalKind::LevelWise && engine != cfg.engines[0] {
                    row.extend(["(=)".into(), "(=)".into(), "(=)".into()]);
                    if cfg.mem {
                        row.extend(["(=)".into(), "(=)".into()]);
                    }
                    continue;
                }
                let cell = MatrixMiner::new(measure, traversal);
                let m = runner::run(cell, &db, d.min_sup, d.pft, engine);
                counts.push(m.num_itemsets);
                let tag = match Algorithm::from_cell(measure, traversal) {
                    Some(a) => format!(" [{}]", a.name()),
                    None => " [new]".to_string(),
                };
                row.push(format!("{}{tag}", fmt_secs(m.time_secs)));
                row.push(fmt_mb(m.peak_bytes));
                if cfg.mem {
                    // Structure units (within-backend) and engine memo
                    // bytes (cross-backend comparable): memo units on
                    // level-wise cells, UFP-tree nodes / UH-Struct cells
                    // on the depth-first traversals (memo reads 0 there).
                    row.push(m.stats.peak_structure_nodes.to_string());
                    row.push(fmt_mb(m.stats.peak_memo_bytes as usize));
                }
                row.push(m.num_itemsets.to_string());
                // Depth-first rows carry "n/a" — they never touch the
                // engine seam, whatever the sweep configuration.
                let engine_label = if traversal == TraversalKind::LevelWise {
                    engine.name()
                } else {
                    "n/a"
                };
                csv_rows.push(format!(
                    "{},{},{engine_label},{:.6},{},{},{},{}",
                    measure.name(),
                    traversal.name(),
                    m.time_secs,
                    m.peak_bytes,
                    m.stats.peak_structure_nodes,
                    m.stats.peak_memo_bytes,
                    m.num_itemsets
                ));
                snapshot.runs.push(crate::json::JsonRun {
                    workload: format!("{}@scale={}", b.name(), cfg.scale),
                    algorithm: format!("{}×{}", measure.name(), traversal.name()),
                    engine: engine_label.to_string(),
                    wall_ms: m.time_secs * 1e3,
                    peak_bytes: m.peak_bytes as u64,
                    peak_memo_bytes: m.stats.peak_memo_bytes,
                    intersections: m.stats.intersections,
                    num_itemsets: m.num_itemsets as u64,
                    ..Default::default()
                });
            }
            counts.dedup();
            if counts.len() > 1 {
                inconsistent.push(measure);
            }
            table.row(row);
        }
        print!("{table}");
        if inconsistent.is_empty() {
            println!("every traversal of a measure found the same number of itemsets ✓");
        } else {
            for m in inconsistent {
                println!("WARNING: traversals of measure {m} disagree on the result size");
            }
        }
        cfg.write_csv(
            &format!("matrix_{}", engine.name()),
            "measure,traversal,engine,time_secs,peak_bytes,peak_structure_nodes,peak_memo_bytes,num_itemsets",
            &csv_rows,
        );
        cfg.write_json(&snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_experiment_runs_at_tiny_scale() {
        let cfg = HarnessConfig {
            scale: 0.001,
            ..Default::default()
        };
        // Smoke: the full grid on a tiny Accident analog must not panic.
        run(&cfg, None, None);
        // And a filtered slice.
        run(
            &cfg,
            Some(MeasureKind::Poisson),
            Some(TraversalKind::TreeGrowth),
        );
        // The diffset backend with the structure-memory column engaged.
        let cfg = HarnessConfig {
            scale: 0.001,
            mem: true,
            engines: vec![ufim_core::EngineKind::Diffset],
            ..Default::default()
        };
        run(&cfg, Some(MeasureKind::ExpectedSupport), None);
    }
}
