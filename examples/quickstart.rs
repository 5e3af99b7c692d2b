//! Quickstart: both definitions of "frequent itemset over an uncertain
//! database" on the paper's own worked example (Table 1).
//!
//! Run with: `cargo run --release --example quickstart`

use uncertain_fim::prelude::*;

fn main() {
    // The paper's Table 1 database:
    //   T1: A(0.8) B(0.2) C(0.9) D(0.7) F(0.8)
    //   T2: A(0.8) B(0.7) C(0.9) E(0.5)
    //   T3: A(0.5) C(0.8) E(0.8) F(0.3)
    //   T4: B(0.5) D(0.5) F(0.7)
    // Built here by hand to show the API; the same database also ships as
    // `uncertain_fim::core::examples::paper_table1()`.
    let (a, b, c, d, e, f) = (0u32, 1, 2, 3, 4, 5);
    let db = UncertainDatabase::with_num_items(
        vec![
            Transaction::new([(a, 0.8), (b, 0.2), (c, 0.9), (d, 0.7), (f, 0.8)]).unwrap(),
            Transaction::new([(a, 0.8), (b, 0.7), (c, 0.9), (e, 0.5)]).unwrap(),
            Transaction::new([(a, 0.5), (c, 0.8), (e, 0.8), (f, 0.3)]).unwrap(),
            Transaction::new([(b, 0.5), (d, 0.5), (f, 0.7)]).unwrap(),
        ],
        6,
    );
    let names = ["A", "B", "C", "D", "E", "F"];
    let label = |itemset: &Itemset| -> String {
        itemset
            .items()
            .iter()
            .map(|&i| names[i as usize])
            .collect::<Vec<_>>()
            .join("")
    };

    // ── Definition 2: expected-support-based frequent itemsets ────────────
    // An itemset is frequent iff esup(X) = Σ_t Π_{x∈X} p_t(x) ≥ N·min_esup.
    println!("Expected-support mining (UApriori, min_esup = 0.5):");
    let result = Algorithm::UApriori
        .mine_expected_ratio(&db, 0.5)
        .expect("valid parameters");
    for fi in &result.itemsets {
        println!(
            "  {{{}}}  esup = {:.1}",
            label(&fi.itemset),
            fi.expected_support
        );
    }
    assert_eq!(result.len(), 2); // {A}: 2.1 and {C}: 2.6 — the paper's Example 1

    // ── Definition 4: probabilistic frequent itemsets ──────────────────────
    // An itemset is frequent iff Pr{sup(X) ≥ ⌈N·min_sup⌉} > pft, with the
    // support's full Poisson-Binomial distribution evaluated exactly.
    println!("\nExact probabilistic mining (DCB, min_sup = 0.5, pft = 0.7):");
    let result = Algorithm::DCB
        .mine_probabilistic_raw(&db, 0.5, 0.7)
        .expect("valid parameters");
    for fi in &result.itemsets {
        println!(
            "  {{{}}}  esup = {:.2}  Pr{{sup ≥ 2}} = {:.4}",
            label(&fi.itemset),
            fi.expected_support,
            fi.frequent_prob.expect("exact miner reports probabilities"),
        );
    }

    // ── The bridge: approximate probabilistic mining at esup cost ─────────
    println!("\nNormal-approximation mining (NDUH-Mine, same parameters):");
    let approx = Algorithm::NDUHMine
        .mine_probabilistic_raw(&db, 0.5, 0.7)
        .expect("valid parameters");
    for fi in &approx.itemsets {
        println!(
            "  {{{}}}  esup = {:.2}  Var = {:.2}  Pr ≈ {:.4}",
            label(&fi.itemset),
            fi.expected_support,
            fi.variance.expect("computed alongside esup"),
            fi.frequent_prob.unwrap(),
        );
    }
    println!(
        "\n(4 transactions is far below CLT territory — see the sensor_network \
         example for the approximation at realistic scale.)"
    );
}
