//! The paper's tables: the worked example (Tables 1–2), dataset
//! characteristics (Table 6), default parameters (Table 7), approximation
//! accuracy (Tables 8–9), and the winner summary (Table 10).

use crate::config::HarnessConfig;
use crate::runner;
use ufim_core::prelude::*;
use ufim_data::Benchmark;
use ufim_metrics::accuracy::precision_recall;
use ufim_metrics::table::Table;
use ufim_miners::Algorithm;

/// Prints the worked micro-example: Table 1's database, Example 1's
/// expected-support mining, and the Example 2-style probabilistic run.
pub fn table1_example() {
    let db = ufim_core::examples::paper_table1();
    println!("=== Table 1: the paper's example uncertain database ===");
    let names = ["A", "B", "C", "D", "E", "F"];
    for (i, t) in db.transactions().iter().enumerate() {
        let units: Vec<String> = t
            .units()
            .map(|(item, p)| format!("{} ({p})", names[item as usize]))
            .collect();
        println!("T{}: {}", i + 1, units.join("  "));
    }

    println!("\n=== Example 1: expected-support-based frequent itemsets (min_esup = 0.5) ===");
    let r = Algorithm::UApriori.mine_expected_ratio(&db, 0.5).unwrap();
    for fi in &r.itemsets {
        let label: Vec<&str> = fi
            .itemset
            .items()
            .iter()
            .map(|&i| names[i as usize])
            .collect();
        println!("{{{}}}  esup = {:.1}", label.join(","), fi.expected_support);
    }

    println!(
        "\n=== Example 2 style: probabilistic frequent itemsets (min_sup = 0.5, pft = 0.7) ==="
    );
    let r = Algorithm::DCB
        .mine_probabilistic_raw(&db, 0.5, 0.7)
        .unwrap();
    for fi in &r.itemsets {
        let label: Vec<&str> = fi
            .itemset
            .items()
            .iter()
            .map(|&i| names[i as usize])
            .collect();
        println!(
            "{{{}}}  esup = {:.2}  Pr{{sup ≥ 2}} = {:.4}",
            label.join(","),
            fi.expected_support,
            fi.frequent_prob.unwrap()
        );
    }
}

/// Prints Table 6 — paper-published shapes next to the measured shapes of
/// the generated analogs at the configured scale.
pub fn table6(cfg: &HarnessConfig) {
    println!(
        "=== Table 6: characteristics of datasets (paper vs generated at scale {}) ===",
        cfg.scale
    );
    let mut t = Table::new([
        "Dataset",
        "paper #Trans",
        "gen #Trans",
        "paper #Items",
        "gen #Items",
        "paper AveLen",
        "gen AveLen",
        "paper Density",
        "gen Density",
    ]);
    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        let shape = b.paper_shape();
        let det = b.generate_deterministic(cfg.scale, cfg.seed);
        t.row([
            b.name().to_string(),
            shape.num_transactions.to_string(),
            det.num_transactions().to_string(),
            shape.num_items.to_string(),
            det.num_items().to_string(),
            format!("{}", shape.avg_len),
            format!("{:.2}", det.avg_transaction_len()),
            format!("{}", shape.density),
            format!("{:.5}", det.density()),
        ]);
        rows.push(format!(
            "{},{},{},{},{},{},{:.3},{},{:.5}",
            b.name(),
            shape.num_transactions,
            det.num_transactions(),
            shape.num_items,
            det.num_items(),
            shape.avg_len,
            det.avg_transaction_len(),
            shape.density,
            det.density()
        ));
    }
    print!("{t}");
    cfg.write_csv(
        "table6",
        "dataset,paper_trans,gen_trans,paper_items,gen_items,paper_avelen,gen_avelen,paper_density,gen_density",
        &rows,
    );
}

/// Prints Table 7 — the default parameters of each dataset.
pub fn table7() {
    println!("=== Table 7: default parameters of datasets ===");
    let mut t = Table::new(["Dataset", "Mean", "Var.", "min_sup", "pft"]);
    for b in Benchmark::ALL {
        let d = b.defaults();
        t.row([
            b.name().to_string(),
            format!("{}", d.mean),
            format!("{}", d.variance),
            format!("{}", d.min_sup),
            format!("{}", d.pft),
        ]);
    }
    print!("{t}");
}

/// `min_sup` values of Table 8 (Accident).
pub const TABLE8_MIN_SUPS: [f64; 5] = [0.2, 0.3, 0.4, 0.5, 0.6];
/// `min_sup` values of Table 9 (Kosarak).
pub const TABLE9_MIN_SUPS: [f64; 5] = [0.0025, 0.005, 0.01, 0.05, 0.1];

/// Shared implementation of Tables 8 and 9: precision/recall of the three
/// approximate miners against the exact result (DCB).
pub fn accuracy_table(cfg: &HarnessConfig, b: Benchmark, min_sups: &[f64], csv: &str) {
    let db = b.generate(cfg.scale, cfg.seed);
    let pft = b.defaults().pft;
    println!(
        "=== {}: accuracy in {} (pft={pft}, N={}, scale={}) ===",
        csv,
        b.name(),
        db.num_transactions(),
        cfg.scale
    );
    let mut t = Table::new([
        "Min Sup",
        "PDUApriori P",
        "PDUApriori R",
        "NDUApriori P",
        "NDUApriori R",
        "NDUH-Mine P",
        "NDUH-Mine R",
    ]);
    let mut rows = Vec::new();
    for &ms in min_sups {
        let exact = Algorithm::DCB
            .mine_probabilistic_raw(&db, ms, pft)
            .expect("valid params");
        let mut row = vec![super::fmt_x(ms)];
        let mut csvrow = vec![format!("{ms}")];
        for algo in [
            Algorithm::PDUApriori,
            Algorithm::NDUApriori,
            Algorithm::NDUHMine,
        ] {
            let approx = algo
                .mine_probabilistic_raw(&db, ms, pft)
                .expect("valid params");
            let acc = precision_recall(&approx, &exact);
            row.push(format!("{:.2}", acc.precision));
            row.push(format!("{:.2}", acc.recall));
            csvrow.push(format!("{:.4}", acc.precision));
            csvrow.push(format!("{:.4}", acc.recall));
        }
        t.row(row);
        rows.push(csvrow.join(","));
    }
    print!("{t}");
    cfg.write_csv(
        csv,
        "min_sup,pdu_precision,pdu_recall,ndu_precision,ndu_recall,nduh_precision,nduh_recall",
        &rows,
    );
}

/// Table 8: accuracy in Accident.
pub fn table8(cfg: &HarnessConfig) {
    accuracy_table(cfg, Benchmark::Accident, &TABLE8_MIN_SUPS, "table8");
}

/// Table 9: accuracy in Kosarak.
pub fn table9(cfg: &HarnessConfig) {
    accuracy_table(cfg, Benchmark::Kosarak, &TABLE9_MIN_SUPS, "table9");
}

/// Table 10 — the winner-summary grid, derived from fresh measurements on a
/// dense (Accident) and a sparse (Kosarak) dataset at high and low
/// thresholds.
pub fn table10(cfg: &HarnessConfig) {
    println!(
        "=== Table 10: winners by time and memory (measured, scale={}) ===",
        cfg.scale
    );
    let dense = Benchmark::Accident.generate(cfg.scale, cfg.seed);
    let sparse = Benchmark::Kosarak.generate(cfg.scale, cfg.seed);
    let pft = 0.9;

    let mut t = Table::new(["Case", "fastest", "least memory"]);
    // Millisecond-scale runs are noisy; each cell is the best of three
    // repetitions (standard min-of-k de-noising for wall-clock winners).
    const REPS: usize = 3;
    let mut report = |case: &str, runs: Vec<crate::runner::MeasuredRun>| {
        let fastest = runs
            .iter()
            .min_by(|a, b| a.time_secs.partial_cmp(&b.time_secs).expect("finite"))
            .map(|r| r.algorithm)
            .unwrap_or("-");
        let frugal = runs
            .iter()
            .min_by_key(|r| r.peak_bytes)
            .map(|r| r.algorithm)
            .unwrap_or("-");
        t.row([case.to_string(), fastest.to_string(), frugal.to_string()]);
    };
    fn best_of<F: FnMut() -> crate::runner::MeasuredRun>(
        reps: usize,
        mut f: F,
    ) -> crate::runner::MeasuredRun {
        let mut best = f();
        for _ in 1..reps {
            let r = f();
            if r.time_secs < best.time_secs {
                best = r;
            }
        }
        best
    }

    // Expected-support group, dense high/low threshold and sparse.
    for (case, db, min_esup) in [
        ("esup: dense, high min_esup", &dense, 0.4),
        ("esup: dense, low min_esup", &dense, 0.1),
        ("esup: sparse", &sparse, 0.0025),
    ] {
        let runs = Algorithm::EXPECTED_SUPPORT
            .iter()
            .map(|&a| {
                best_of(REPS, || {
                    runner::run(a, db, min_esup, runner::NO_PFT, EngineKind::default())
                })
            })
            .collect();
        report(case, runs);
    }

    // Exact probabilistic group.
    for (case, db, min_sup) in [
        ("exact: dense", &dense, 0.5),
        ("exact: sparse", &sparse, 0.0025),
    ] {
        let runs = Algorithm::EXACT_PROBABILISTIC
            .iter()
            .map(|&a| {
                best_of(REPS, || {
                    runner::run(a, db, min_sup, pft, EngineKind::default())
                })
            })
            .collect();
        report(case, runs);
    }

    // Approximate group.
    for (case, db, min_sup) in [
        ("approx: dense, high min_sup", &dense, 0.4),
        ("approx: dense, low min_sup", &dense, 0.1),
        ("approx: sparse", &sparse, 0.0025),
    ] {
        let runs = super::fig6::APPROX_ONLY
            .iter()
            .map(|&a| {
                best_of(REPS, || {
                    runner::run(a, db, min_sup, pft, EngineKind::default())
                })
            })
            .collect();
        report(case, runs);
    }

    print!("{t}");
    println!(
        "\nPaper's Table 10 expectations: UApriori wins dense+high-threshold, UH-Mine wins \
         sparse/low-threshold, UFP-growth never wins; DC beats DP in time, DP beats DC in \
         memory; PDU/NDUApriori win dense, NDUH-Mine wins sparse."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_prints() {
        table7(); // smoke: must not panic
    }

    #[test]
    fn table1_example_prints() {
        table1_example();
    }

    #[test]
    fn accuracy_table_smoke() {
        let cfg = HarnessConfig {
            scale: 0.002,
            ..Default::default()
        };
        accuracy_table(&cfg, Benchmark::Gazelle, &[0.05], "test_accuracy");
    }
}
