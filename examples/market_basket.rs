//! Market-basket analysis over uncertain purchase data, demonstrating the
//! paper's central claim: **the two frequent-itemset definitions can be
//! unified when the database is large enough** (§1, §4.4).
//!
//! Scenario: a retailer models *purchase intent* from browsing telemetry —
//! each session is a basket of `(product, probability-of-purchase)` units.
//! We mine the same database under Definition 2 (expected support) and
//! Definition 4 (probabilistic, exact via DCB), then show how the
//! Normal-approximation bridge reproduces the exact probabilistic answer at
//! expected-support cost, with precision/recall → 1 as N grows.
//!
//! Run with: `cargo run --release --example market_basket`

use uncertain_fim::data::{assign_probabilities, Benchmark, ProbabilityModel};
use uncertain_fim::metrics::accuracy::precision_recall;
use uncertain_fim::prelude::*;

fn main() {
    // Gazelle is the paper's e-commerce clickstream benchmark; its analog
    // plays the browsing log, and a high-mean Gaussian models purchase
    // intent inferred from strong signals (cart adds, wishlists).
    let det = Benchmark::Gazelle.generate_deterministic(0.2, 2024);
    let (min_sup, pft) = (0.01, 0.9);

    println!(
        "sessions={}  products={}",
        det.num_transactions(),
        det.num_items()
    );
    println!("min_sup={min_sup}, pft={pft}\n");
    println!(
        "{:>8}  {:>6} {:>6} {:>9} {:>9}  {:>9}",
        "N", "|ER|", "|AR|", "precision", "recall", "esup-vs-ER"
    );

    // Grow the database: the CLT bridge tightens as N rises.
    for frac in [0.05f64, 0.1, 0.25, 0.5, 1.0] {
        let n = ((det.num_transactions() as f64) * frac) as usize;
        let slice = det.truncated(n);
        let db = assign_probabilities(
            &slice,
            &ProbabilityModel::Gaussian {
                mean: 0.95,
                variance: 0.05,
            },
            99,
        );

        // Definition 4, exact (ER in the paper's Tables 8-9 notation).
        let exact = Algorithm::DCB
            .mine_probabilistic_raw(&db, min_sup, pft)
            .expect("valid parameters");

        // Definition 4, approximate (AR): NDUApriori.
        let approx = Algorithm::NDUApriori
            .mine_probabilistic_raw(&db, min_sup, pft)
            .expect("valid parameters");
        let acc = precision_recall(&approx, &exact);

        // Definition 2 at the same ratio: how far apart are the *worlds*?
        let esup_world = Algorithm::UApriori
            .mine_expected_ratio(&db, min_sup)
            .expect("valid parameters");
        let esup_acc = precision_recall(&esup_world, &exact);

        println!(
            "{:>8}  {:>6} {:>6} {:>9.3} {:>9.3}  {:>9.3}",
            db.num_transactions(),
            exact.len(),
            approx.len(),
            acc.precision,
            acc.recall,
            esup_acc.f1(),
        );
    }

    println!(
        "\nReading: precision/recall of the Normal bridge against the exact \
         probabilistic result approach 1.0 as N grows (the paper's Tables 8-9), \
         and even the raw expected-support result converges to the probabilistic \
         one — the two definitions unify at scale."
    );

    // Show a few of the strongest associations at full size.
    let db = assign_probabilities(
        &det,
        &ProbabilityModel::Gaussian {
            mean: 0.95,
            variance: 0.05,
        },
        99,
    );
    let exact = Algorithm::DCB
        .mine_probabilistic_raw(&db, min_sup, pft)
        .expect("valid parameters");
    let mut pairs: Vec<&FrequentItemset> = exact
        .itemsets
        .iter()
        .filter(|fi| fi.itemset.len() >= 2)
        .collect();
    pairs.sort_by(|a, b| b.expected_support.partial_cmp(&a.expected_support).unwrap());
    println!("\nstrongest product associations (|X| ≥ 2):");
    for fi in pairs.iter().take(5) {
        println!(
            "  {}  esup = {:.1}  Pr = {:.4}",
            fi.itemset,
            fi.expected_support,
            fi.frequent_prob.unwrap()
        );
    }
}
