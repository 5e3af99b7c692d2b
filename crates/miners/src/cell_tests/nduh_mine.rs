//! NDUH-Mine — Normal (CLT) approximation × hyper-structure, the paper's
//! own algorithm (§3.3.3).

mod tests {
    use crate::brute::BruteForce;
    use crate::registry::Algorithm;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ufim_core::examples::paper_table1;
    use ufim_core::prelude::*;

    #[test]
    fn reports_probabilities() {
        let db = paper_table1();
        let r = Algorithm::NDUHMine
            .mine_probabilistic_raw(&db, 0.25, 0.5)
            .unwrap();
        assert!(!r.is_empty());
        for fi in &r.itemsets {
            assert!(fi.frequent_prob.is_some());
            assert!(fi.variance.is_some());
        }
    }

    #[test]
    fn agrees_with_nduapriori_everywhere() {
        // Same approximation, different search strategy ⇒ identical answer
        // sets and probabilities (up to float noise).
        let mut rng = StdRng::seed_from_u64(42);
        let transactions: Vec<Transaction> = (0..200)
            .map(|_| {
                let units: Vec<(u32, f64)> = (0..5u32)
                    .filter_map(|i| {
                        if rng.gen_bool(0.6) {
                            Some((i, rng.gen_range(0.1..=1.0)))
                        } else {
                            None
                        }
                    })
                    .collect();
                Transaction::new(units).unwrap()
            })
            .collect();
        let db = UncertainDatabase::with_num_items(transactions, 5);
        for (min_sup, pft) in [(0.3, 0.9), (0.2, 0.5), (0.45, 0.7)] {
            let a = Algorithm::NDUHMine
                .mine_probabilistic_raw(&db, min_sup, pft)
                .unwrap();
            let b = Algorithm::NDUApriori
                .mine_probabilistic_raw(&db, min_sup, pft)
                .unwrap();
            assert_eq!(
                a.sorted_itemsets(),
                b.sorted_itemsets(),
                "min_sup={min_sup} pft={pft}"
            );
            for fi in &a.itemsets {
                let other = b.get(&fi.itemset).unwrap();
                assert!(
                    (fi.frequent_prob.unwrap() - other.frequent_prob.unwrap()).abs() < 1e-9,
                    "{}",
                    fi.itemset
                );
            }
        }
    }

    #[test]
    fn tracks_exact_mining_at_scale() {
        let mut rng = StdRng::seed_from_u64(13);
        let transactions: Vec<Transaction> = (0..400)
            .map(|_| {
                let units: Vec<(u32, f64)> = (0..4u32)
                    .filter_map(|i| {
                        if rng.gen_bool(0.65) {
                            Some((i, rng.gen_range(0.3..=1.0)))
                        } else {
                            None
                        }
                    })
                    .collect();
                Transaction::new(units).unwrap()
            })
            .collect();
        let db = UncertainDatabase::with_num_items(transactions, 4);
        let approx = Algorithm::NDUHMine
            .mine_probabilistic_raw(&db, 0.4, 0.9)
            .unwrap();
        let exact_loose = BruteForce::new()
            .mine_probabilistic_raw(&db, 0.4, 0.85)
            .unwrap();
        for itemset in approx.sorted_itemsets() {
            assert!(
                exact_loose.get(&itemset).is_some(),
                "{itemset}: accepted but exact Pr ≤ 0.85"
            );
        }
    }

    #[test]
    fn empty_db() {
        let db = UncertainDatabase::from_transactions(vec![]);
        assert!(Algorithm::NDUHMine
            .mine_probabilistic_raw(&db, 0.5, 0.9)
            .unwrap()
            .is_empty());
    }
}
