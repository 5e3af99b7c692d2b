//! Integration test: all algorithms agree with the brute-force oracle on
//! randomized databases — the workspace's strongest correctness guarantee,
//! mirroring the paper's "uniform baseline implementations" requirement
//! (inconsistent results between implementations were its core complaint).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_fim::miners::Algorithm;
use uncertain_fim::prelude::*;

/// A random small database: up to `n_items` items, `n_trans` transactions,
/// item inclusion probability `density`, unit probabilities uniform (0,1].
fn random_db(seed: u64, n_trans: usize, n_items: u32, density: f64) -> UncertainDatabase {
    let mut rng = StdRng::seed_from_u64(seed);
    let transactions: Vec<Transaction> = (0..n_trans)
        .map(|_| {
            let units: Vec<(u32, f64)> = (0..n_items)
                .filter_map(|i| {
                    if rng.gen_bool(density) {
                        Some((i, (rng.gen_range(0.0f64..1.0) + 1e-3).min(1.0)))
                    } else {
                        None
                    }
                })
                .collect();
            Transaction::new(units).unwrap()
        })
        .collect();
    UncertainDatabase::with_num_items(transactions, n_items)
}

#[test]
fn expected_support_miners_match_oracle_on_many_random_dbs() {
    for seed in 0..12u64 {
        let db = random_db(seed, 40, 7, 0.45);
        for &min_esup in &[0.05, 0.15, 0.3, 0.6] {
            let oracle = BruteForce::new()
                .mine_expected_ratio(&db, min_esup)
                .unwrap();
            for algo in Algorithm::EXPECTED_SUPPORT {
                let r = algo.mine_expected_ratio(&db, min_esup).unwrap();
                assert_eq!(
                    r.sorted_itemsets(),
                    oracle.sorted_itemsets(),
                    "{} diverged at seed={seed}, min_esup={min_esup}",
                    algo.name()
                );
                // Per-itemset expected supports must match the definition.
                for fi in &r.itemsets {
                    let want = db.expected_support(fi.itemset.items());
                    assert!(
                        (fi.expected_support - want).abs() < 1e-9,
                        "{} wrong esup for {} at seed={seed}",
                        algo.name(),
                        fi.itemset
                    );
                }
            }
        }
    }
}

#[test]
fn exact_probabilistic_miners_match_oracle_on_many_random_dbs() {
    for seed in 0..8u64 {
        let db = random_db(100 + seed, 30, 6, 0.5);
        for &(min_sup, pft) in &[(0.1, 0.9), (0.25, 0.5), (0.5, 0.7), (0.7, 0.2)] {
            let oracle = BruteForce::new()
                .mine_probabilistic_raw(&db, min_sup, pft)
                .unwrap();
            for algo in Algorithm::EXACT_PROBABILISTIC {
                let r = algo.mine_probabilistic_raw(&db, min_sup, pft).unwrap();
                assert_eq!(
                    r.sorted_itemsets(),
                    oracle.sorted_itemsets(),
                    "{} diverged at seed={seed}, min_sup={min_sup}, pft={pft}",
                    algo.name()
                );
                for fi in &r.itemsets {
                    let want = oracle.get(&fi.itemset).unwrap().frequent_prob.unwrap();
                    assert!(
                        (fi.frequent_prob.unwrap() - want).abs() < 1e-9,
                        "{} wrong Pr for {} at seed={seed}",
                        algo.name(),
                        fi.itemset
                    );
                }
            }
        }
    }
}

#[test]
fn downward_closure_holds_in_every_result() {
    // Both frequency measures are anti-monotone, so every result set must be
    // subset-closed — for each reported itemset, all its subsets appear too.
    let db = random_db(77, 50, 6, 0.5);
    let mut results: Vec<(String, MiningResult)> = Vec::new();
    for algo in Algorithm::EXPECTED_SUPPORT {
        let r = algo.mine_expected_ratio(&db, 0.15).unwrap();
        results.push((algo.name().to_string(), r));
    }
    for algo in Algorithm::EXACT_PROBABILISTIC.into_iter().chain([
        Algorithm::NDUApriori,
        Algorithm::NDUHMine,
        Algorithm::PDUApriori,
    ]) {
        let r = algo.mine_probabilistic_raw(&db, 0.15, 0.6).unwrap();
        results.push((algo.name().to_string(), r));
    }
    for (name, r) in &results {
        let have: std::collections::BTreeSet<Itemset> = r.sorted_itemsets().into_iter().collect();
        for fi in &r.itemsets {
            for sub in fi.itemset.subsets_dropping_one() {
                if sub.is_empty() {
                    continue;
                }
                assert!(
                    have.contains(&sub),
                    "{name}: {} frequent but subset {} missing",
                    fi.itemset,
                    sub
                );
            }
        }
    }
}

#[test]
fn approximate_miners_converge_to_exact_at_scale() {
    // 1200 transactions: CLT territory. Both Normal-based miners must agree
    // with the exact result except on pft-boundary itemsets; membership
    // mismatches are only tolerated where the exact probability is within
    // ±0.05 of pft.
    let db = random_db(2025, 1200, 6, 0.5);
    let (min_sup, pft) = (0.2, 0.9);
    let exact = BruteForce::new()
        .mine_probabilistic_raw(&db, min_sup, pft)
        .unwrap();
    let exact_probs = |itemset: &Itemset| -> f64 {
        let q = db.itemset_prob_vector(itemset.items());
        uncertain_fim::stats::pb::survival_dp(&q, (min_sup * 1200f64).ceil() as usize)
    };
    for algo in [Algorithm::NDUApriori, Algorithm::NDUHMine] {
        let approx = algo.mine_probabilistic_raw(&db, min_sup, pft).unwrap();
        // False positives must be boundary cases.
        for itemset in approx.sorted_itemsets() {
            if exact.get(&itemset).is_none() {
                let p = exact_probs(&itemset);
                assert!(
                    (p - pft).abs() < 0.05,
                    "{}: false positive {} with exact Pr {p}",
                    algo.name(),
                    itemset
                );
            }
        }
        // False negatives must be boundary cases.
        for itemset in exact.sorted_itemsets() {
            if approx.get(&itemset).is_none() {
                let p = exact_probs(&itemset);
                assert!(
                    (p - pft).abs() < 0.05,
                    "{}: false negative {} with exact Pr {p}",
                    algo.name(),
                    itemset
                );
            }
        }
    }
}

#[test]
fn chernoff_variants_never_change_answers() {
    for seed in 0..6u64 {
        let db = random_db(500 + seed, 60, 6, 0.4);
        for &(min_sup, pft) in &[(0.3, 0.9), (0.5, 0.5)] {
            let dpb = Algorithm::DPB
                .mine_probabilistic_raw(&db, min_sup, pft)
                .unwrap();
            let dpnb = Algorithm::DPNB
                .mine_probabilistic_raw(&db, min_sup, pft)
                .unwrap();
            assert_eq!(dpb.sorted_itemsets(), dpnb.sorted_itemsets());
            let dcb = Algorithm::DCB
                .mine_probabilistic_raw(&db, min_sup, pft)
                .unwrap();
            let dcnb = Algorithm::DCNB
                .mine_probabilistic_raw(&db, min_sup, pft)
                .unwrap();
            assert_eq!(dcb.sorted_itemsets(), dcnb.sorted_itemsets());
        }
    }
}
