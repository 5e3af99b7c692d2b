//! The exact DP/DC family — DPB, DPNB, DCB, DCNB: exact frequent
//! probability × level-wise (paper §3.2).

mod engine {
    mod tests {
        use crate::brute::BruteForce;
        use crate::registry::Algorithm;
        use ufim_core::examples::{deterministic_small, paper_table1};
        use ufim_core::prelude::*;

        fn all_four() -> [(&'static str, Algorithm); 4] {
            [
                ("DPB", Algorithm::DPB),
                ("DPNB", Algorithm::DPNB),
                ("DCB", Algorithm::DCB),
                ("DCNB", Algorithm::DCNB),
            ]
        }

        #[test]
        fn names() {
            for (name, algo) in all_four() {
                assert_eq!(MinerInfo::name(&algo), name);
            }
        }

        #[test]
        fn all_variants_agree_with_oracle_on_paper_db() {
            let db = paper_table1();
            for (min_sup, pft) in [
                (0.5, 0.7),
                (0.5, 0.85),
                (0.25, 0.5),
                (0.75, 0.3),
                (0.25, 0.9),
            ] {
                let oracle = BruteForce::new()
                    .mine_probabilistic_raw(&db, min_sup, pft)
                    .unwrap();
                for (name, miner) in all_four() {
                    let r = miner.mine_probabilistic_raw(&db, min_sup, pft).unwrap();
                    assert_eq!(
                        r.sorted_itemsets(),
                        oracle.sorted_itemsets(),
                        "{name} at min_sup={min_sup}, pft={pft}"
                    );
                }
            }
        }

        #[test]
        fn frequent_probabilities_are_exact() {
            let db = paper_table1();
            let oracle = BruteForce::new()
                .mine_probabilistic_raw(&db, 0.25, 0.5)
                .unwrap();
            for (name, miner) in all_four() {
                let r = miner.mine_probabilistic_raw(&db, 0.25, 0.5).unwrap();
                for fi in &r.itemsets {
                    let want = oracle.get(&fi.itemset).expect("same sets").frequent_prob;
                    let got = fi.frequent_prob.expect("exact miners report Pr");
                    assert!(
                        (got - want.unwrap()).abs() < 1e-9,
                        "{name} {}: {got} vs {want:?}",
                        fi.itemset
                    );
                }
            }
        }

        #[test]
        fn chernoff_pruning_fires_but_preserves_results() {
            // Deterministic-ish DB where many candidates are hopeless: pruning
            // counters must move, answers must not.
            let db = deterministic_small();
            let with = Algorithm::DPB
                .mine_probabilistic_raw(&db, 0.8, 0.9)
                .unwrap();
            let without = Algorithm::DPNB
                .mine_probabilistic_raw(&db, 0.8, 0.9)
                .unwrap();
            assert_eq!(with.sorted_itemsets(), without.sorted_itemsets());
            assert!(
                with.stats.candidates_pruned_chernoff + with.stats.candidates_pruned_count > 0,
                "pruning should fire on hopeless candidates: {:?}",
                with.stats
            );
            assert!(
                with.stats.exact_evaluations <= without.stats.exact_evaluations,
                "pruning must not increase exact evaluations"
            );
        }

        #[test]
        fn deterministic_db_matches_classical_support() {
            // With certainty, Pr{sup ≥ msup} ∈ {0,1}: probabilistic mining at
            // any pft equals classical mining at min_sup.
            let db = deterministic_small();
            let r = Algorithm::DCB
                .mine_probabilistic_raw(&db, 0.6, 0.5)
                .unwrap();
            let classical = BruteForce::new().mine_expected_ratio(&db, 0.6).unwrap();
            assert_eq!(r.sorted_itemsets(), classical.sorted_itemsets());
            for fi in &r.itemsets {
                assert_eq!(fi.frequent_prob, Some(1.0), "{}", fi.itemset);
            }
        }

        #[test]
        fn empty_db() {
            let db = UncertainDatabase::from_transactions(vec![]);
            for (_, miner) in all_four() {
                assert!(miner
                    .mine_probabilistic_raw(&db, 0.5, 0.9)
                    .unwrap()
                    .is_empty());
            }
        }

        #[test]
        fn dc_and_dp_kernels_agree_on_larger_random_db() {
            // 60 transactions of up to 6 items — large enough for multi-level
            // recursion, small enough for the oracle.
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(2024);
            let transactions: Vec<Transaction> = (0..60)
                .map(|_| {
                    let units: Vec<(u32, f64)> = (0..6u32)
                        .filter_map(|i| {
                            if rng.gen_bool(0.5) {
                                Some((i, rng.gen_range(0.05..=1.0)))
                            } else {
                                None
                            }
                        })
                        .collect();
                    Transaction::new(units).unwrap()
                })
                .collect();
            let db = UncertainDatabase::with_num_items(transactions, 6);
            let oracle = BruteForce::new()
                .mine_probabilistic_raw(&db, 0.3, 0.6)
                .unwrap();
            for (name, miner) in all_four() {
                let r = miner.mine_probabilistic_raw(&db, 0.3, 0.6).unwrap();
                assert_eq!(
                    r.sorted_itemsets(),
                    oracle.sorted_itemsets(),
                    "{name} diverged from oracle"
                );
            }
        }
    }
}
