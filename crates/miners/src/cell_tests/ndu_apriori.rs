//! NDUApriori — Normal (CLT) approximation × level-wise (paper §3.3.2).

mod tests {
    use crate::brute::BruteForce;
    use crate::registry::Algorithm;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ufim_core::examples::paper_table1;
    use ufim_core::prelude::*;

    #[test]
    fn reports_probabilities_and_moments() {
        let db = paper_table1();
        let r = Algorithm::NDUApriori
            .mine_probabilistic_raw(&db, 0.25, 0.5)
            .unwrap();
        assert!(!r.is_empty());
        for fi in &r.itemsets {
            let (we, wv) = db.support_moments(fi.itemset.items());
            assert!((fi.expected_support - we).abs() < 1e-12);
            assert!((fi.variance.unwrap() - wv).abs() < 1e-12);
            let pr = fi.frequent_prob.unwrap();
            assert!(pr > 0.5 && pr <= 1.0);
        }
    }

    #[test]
    fn matches_exact_mining_on_large_database() {
        // CLT quality test: 500 transactions of 4 items with random
        // probabilities. The approximate and exact result sets should agree
        // except possibly on itemsets whose exact Pr sits within the CLT
        // error of pft.
        let mut rng = StdRng::seed_from_u64(7);
        let transactions: Vec<Transaction> = (0..500)
            .map(|_| {
                let units: Vec<(u32, f64)> = (0..4u32)
                    .filter_map(|i| {
                        if rng.gen_bool(0.7) {
                            Some((i, rng.gen_range(0.2..=1.0)))
                        } else {
                            None
                        }
                    })
                    .collect();
                Transaction::new(units).unwrap()
            })
            .collect();
        let db = UncertainDatabase::with_num_items(transactions, 4);
        let approx = Algorithm::NDUApriori
            .mine_probabilistic_raw(&db, 0.4, 0.9)
            .unwrap();
        let exact = BruteForce::new()
            .mine_probabilistic_raw(&db, 0.4, 0.9)
            .unwrap();
        // Compare membership, tolerating only boundary itemsets.
        let exact_loose = BruteForce::new()
            .mine_probabilistic_raw(&db, 0.4, 0.85)
            .unwrap();
        for itemset in approx.sorted_itemsets() {
            assert!(
                exact_loose.get(&itemset).is_some(),
                "{itemset}: accepted by NDUApriori but exact Pr ≤ 0.85"
            );
        }
        for itemset in exact.sorted_itemsets() {
            let found = approx.get(&itemset);
            let pr = exact.get(&itemset).unwrap().frequent_prob.unwrap();
            assert!(
                found.is_some() || pr < 0.95,
                "{itemset}: exact Pr = {pr} but NDUApriori missed it"
            );
        }
    }

    #[test]
    fn probability_error_is_small_at_scale() {
        // Direct numeric comparison of reported Pr vs exact Pr.
        let mut rng = StdRng::seed_from_u64(11);
        let transactions: Vec<Transaction> = (0..400)
            .map(|_| Transaction::new([(0u32, rng.gen_range(0.3..0.9))]).unwrap())
            .collect();
        let db = UncertainDatabase::with_num_items(transactions, 1);
        let approx = Algorithm::NDUApriori
            .mine_probabilistic_raw(&db, 0.55, 0.1)
            .unwrap();
        if let Some(fi) = approx.get(&Itemset::singleton(0)) {
            let probs = db.itemset_prob_vector(&[0]);
            let exact = ufim_stats::pb::survival_dp(&probs, 220);
            let got = fi.frequent_prob.unwrap();
            assert!(
                (got - exact).abs() < 0.02,
                "CLT error too large: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn empty_db() {
        let db = UncertainDatabase::from_transactions(vec![]);
        assert!(Algorithm::NDUApriori
            .mine_probabilistic_raw(&db, 0.5, 0.9)
            .unwrap()
            .is_empty());
    }
}
