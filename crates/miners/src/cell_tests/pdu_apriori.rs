//! PDUApriori — Poisson approximation × level-wise (paper §3.3.1).

mod tests {
    use crate::brute::BruteForce;
    use crate::common::measure::PoissonApprox;
    use crate::registry::Algorithm;
    use ufim_core::examples::paper_table1;
    use ufim_core::prelude::*;
    use ufim_stats::poisson::poisson_survival;

    #[test]
    fn lambda_star_solves_the_survival_equation() {
        let params = MiningParams::new(0.5, 0.9).unwrap();
        let lambda = PoissonApprox::from_params(100, &params)
            .unwrap()
            .unwrap()
            .threshold();
        assert!((poisson_survival(50, lambda) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn reports_membership_without_probabilities() {
        let db = paper_table1();
        let r = Algorithm::PDUApriori
            .mine_probabilistic_raw(&db, 0.25, 0.5)
            .unwrap();
        assert!(!r.is_empty());
        for fi in &r.itemsets {
            assert!(fi.frequent_prob.is_none(), "{}", fi.itemset);
        }
    }

    #[test]
    fn equivalent_to_uapriori_at_lambda_star() {
        let db = paper_table1();
        let n = db.num_transactions();
        let params = MiningParams::new(0.5, 0.7).unwrap();
        let lambda = PoissonApprox::from_params(n, &params)
            .unwrap()
            .unwrap()
            .threshold();
        let direct = Algorithm::PDUApriori
            .mine_probabilistic(&db, params)
            .unwrap();
        let manual = Algorithm::UApriori
            .mine_expected_ratio(&db, lambda / n as f64)
            .unwrap();
        assert_eq!(direct.sorted_itemsets(), manual.sorted_itemsets());
    }

    #[test]
    fn approximates_oracle_reasonably_on_small_db() {
        // The Poisson approximation is coarse at N=4, but the *direction*
        // must hold: anything PDUApriori accepts at a high pft has
        // substantial exact frequent probability.
        let db = paper_table1();
        let approx = Algorithm::PDUApriori
            .mine_probabilistic_raw(&db, 0.25, 0.6)
            .unwrap();
        let exact = BruteForce::new()
            .mine_probabilistic_raw(&db, 0.25, 0.2)
            .unwrap();
        for itemset in approx.sorted_itemsets() {
            assert!(
                exact.get(&itemset).is_some(),
                "{itemset} accepted by PDUApriori but has exact Pr ≤ 0.2"
            );
        }
    }

    #[test]
    fn infeasible_lambda_yields_empty() {
        // min_sup = 1.0 and pft = 0.99 on a tiny DB: λ* exceeds N.
        let db = paper_table1();
        let r = Algorithm::PDUApriori
            .mine_probabilistic_raw(&db, 1.0, 0.99)
            .unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn empty_db() {
        let db = UncertainDatabase::from_transactions(vec![]);
        assert!(Algorithm::PDUApriori
            .mine_probabilistic_raw(&db, 0.5, 0.9)
            .unwrap()
            .is_empty());
    }
}
