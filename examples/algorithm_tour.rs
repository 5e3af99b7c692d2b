//! A tour of all eight algorithms (plus the oracle) on one dataset — a
//! miniature of the paper's Table 10 comparison, printed live — followed by
//! the measure × traversal cells the paper never built.
//!
//! Run with: `cargo run --release --example algorithm_tour`
//! Optional args: `<dataset> <scale>`, e.g.
//! `cargo run --release --example algorithm_tour -- kosarak 0.02`

use uncertain_fim::core::traits::{ExpectedSupportMiner, MinerInfo, ProbabilisticMiner};
use uncertain_fim::core::{MeasureKind, TraversalKind};
use uncertain_fim::data::Benchmark;
use uncertain_fim::metrics::table::{fmt_secs, Table};
use uncertain_fim::metrics::time::measure;
use uncertain_fim::miners::{Algorithm, AlgorithmGroup, MatrixMiner};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench = match args.first().map(String::as_str) {
        Some("connect") => Benchmark::Connect,
        Some("accident") => Benchmark::Accident,
        Some("kosarak") => Benchmark::Kosarak,
        Some("gazelle") | None => Benchmark::Gazelle,
        Some("t25") => Benchmark::T25I15D320k,
        Some(other) => {
            eprintln!("unknown dataset {other:?} (connect|accident|kosarak|gazelle|t25)");
            std::process::exit(2);
        }
    };
    let scale: f64 = args
        .get(1)
        .map(|s| s.parse().expect("scale must be a float"))
        .unwrap_or(0.05);

    let db = bench.generate(scale, 42);
    let d = bench.defaults();
    let stats = db.stats();
    println!(
        "dataset={} (analog)  N={}  items={}  avg_len={:.1}  density={:.4}",
        bench.name(),
        stats.num_transactions,
        stats.num_items,
        stats.avg_transaction_len,
        stats.density
    );
    println!(
        "defaults: Gaussian(mean={}, var={}), min_sup={}, pft={}\n",
        d.mean, d.variance, d.min_sup, d.pft
    );

    let mut table = Table::new(["algorithm", "group", "time", "#frequent", "max |X|"]);

    // Definition 2 miners at min_esup = min_sup.
    for algo in Algorithm::EXPECTED_SUPPORT {
        let (r, t) = measure(|| algo.mine_expected_ratio(&db, d.min_sup).unwrap());
        table.row([
            algo.name().to_string(),
            "expected-support".into(),
            fmt_secs(t.as_secs_f64()),
            r.len().to_string(),
            r.max_len().to_string(),
        ]);
    }

    // Definition 4 miners (exact + approximate) at (min_sup, pft).
    for algo in Algorithm::EXACT_PROBABILISTIC.into_iter().chain([
        Algorithm::PDUApriori,
        Algorithm::NDUApriori,
        Algorithm::NDUHMine,
    ]) {
        let (r, t) = measure(|| algo.mine_probabilistic_raw(&db, d.min_sup, d.pft).unwrap());
        let group = match algo.group() {
            AlgorithmGroup::ExactProbabilistic => "exact probabilistic",
            AlgorithmGroup::ApproximateProbabilistic => "approximate",
            _ => "?",
        };
        table.row([
            algo.name().to_string(),
            group.into(),
            fmt_secs(t.as_secs_f64()),
            r.len().to_string(),
            r.max_len().to_string(),
        ]);
    }

    print!("{table}");
    println!(
        "\nExpect (paper Table 10): UApriori leads on dense data at high thresholds; \
         UH-Mine/NDUH-Mine lead on sparse data; UFP-growth trails; B-variants beat \
         NB-variants; approximate miners beat exact ones."
    );

    // Beyond Table 10: the matrix cells no paper algorithm occupies — the
    // same judgments, rehosted on the other traversal.
    println!("\nunnamed matrix cells (same measures, different traversals):");
    let mut extra = Table::new(["cell", "group", "time", "#frequent", "max |X|"]);
    for (measure, traversal) in [
        (MeasureKind::Poisson, TraversalKind::HyperStructure),
        (MeasureKind::Poisson, TraversalKind::TreeGrowth),
        (MeasureKind::Normal, TraversalKind::TreeGrowth),
        (MeasureKind::ExactDp, TraversalKind::HyperStructure),
        (MeasureKind::ExactDc, TraversalKind::HyperStructure),
    ] {
        assert!(Algorithm::from_cell(measure, traversal).is_none());
        let cell = MatrixMiner::new(measure, traversal);
        let (r, t) = measure_run(|| cell.mine_probabilistic_raw(&db, d.min_sup, d.pft).unwrap());
        extra.row([
            cell.name().to_string(),
            AlgorithmGroup::of_measure(measure).name().to_string(),
            fmt_secs(t),
            r.len().to_string(),
            r.max_len().to_string(),
        ]);
    }
    print!("{extra}");
}

/// [`measure`] with the duration already converted to seconds.
fn measure_run<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (r, t) = measure(f);
    (r, t.as_secs_f64())
}
