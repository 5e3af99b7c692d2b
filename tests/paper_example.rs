//! Integration test: the paper's worked example (Table 1, Examples 1–2,
//! Figure 1) holds across every algorithm in the workspace.

use uncertain_fim::core::examples::paper_table1;
use uncertain_fim::miners::Algorithm;
use uncertain_fim::prelude::*;

#[test]
fn example1_every_expected_support_miner() {
    let db = paper_table1();
    let want = vec![Itemset::singleton(0), Itemset::singleton(2)];
    for algo in Algorithm::EXPECTED_SUPPORT
        .into_iter()
        .chain([Algorithm::BruteForce])
    {
        let r = algo.mine_expected_ratio(&db, 0.5).unwrap();
        assert_eq!(r.sorted_itemsets(), want, "{}", algo.name());
        let a = r.get(&Itemset::singleton(0)).unwrap();
        let c = r.get(&Itemset::singleton(2)).unwrap();
        assert!((a.expected_support - 2.1).abs() < 1e-9, "{}", algo.name());
        assert!((c.expected_support - 2.6).abs() < 1e-9, "{}", algo.name());
    }
}

#[test]
fn exact_probabilistic_miners_report_identical_probabilities() {
    let db = paper_table1();
    // Ground truth from first principles: Pr{sup(A) >= 2} over {.8,.8,.5}
    // = 1 - 0.02 - 0.18 = 0.80; Pr{sup(C) >= 2} over {.9,.9,.8}
    // = 1 - (0.1·0.1·0.2) - (0.9·0.1·0.2 + 0.1·0.9·0.2 + 0.1·0.1·0.8)
    // = 1 - 0.002 - 0.044 = 0.954.
    for algo in Algorithm::EXACT_PROBABILISTIC {
        let r = algo.mine_probabilistic_raw(&db, 0.5, 0.7).unwrap();
        let a = r.get(&Itemset::singleton(0)).expect("A frequent");
        let c = r.get(&Itemset::singleton(2)).expect("C frequent");
        assert!(
            (a.frequent_prob.unwrap() - 0.80).abs() < 1e-9,
            "{}: {:?}",
            algo.name(),
            a.frequent_prob
        );
        assert!(
            (c.frequent_prob.unwrap() - 0.954).abs() < 1e-9,
            "{}: {:?}",
            algo.name(),
            c.frequent_prob
        );
        // At pft = 0.85 only C survives.
        let r2 = algo.mine_probabilistic_raw(&db, 0.5, 0.85).unwrap();
        assert_eq!(
            r2.sorted_itemsets(),
            vec![Itemset::singleton(2)],
            "{}",
            algo.name()
        );
    }
}

#[test]
fn figure1_frequency_order_is_respected_by_depth_first_miners() {
    // min_esup = 0.25: all six items frequent, ordered C,A,F,B,E,D. Both
    // depth-first miners must find the same complete result set as the
    // breadth-first one.
    let db = paper_table1();
    let reference = Algorithm::UApriori.mine_expected_ratio(&db, 0.25).unwrap();
    for algo in [Algorithm::UFPGrowth, Algorithm::UHMine] {
        let r = algo.mine_expected_ratio(&db, 0.25).unwrap();
        assert_eq!(
            r.sorted_itemsets(),
            reference.sorted_itemsets(),
            "{}",
            algo.name()
        );
    }
    assert_eq!(reference.len(), 8); // 6 singletons + {A,C} + {C,E}
}

#[test]
fn table2_semantics() {
    // Any support PMF equal to Table 2 yields Example 2's 0.72.
    let pmf = uncertain_fim::core::examples::table2_distribution();
    let pr = uncertain_fim::stats::pb::survival_from_pmf(&pmf, 2);
    assert!((pr - 0.72).abs() < 1e-12);
    assert!(pr > 0.7, "Example 2: qualifies at pft = 0.7");
}

#[test]
fn approximate_miners_run_on_the_micro_example() {
    // N = 4 is far below CLT territory; the contract here is only that the
    // approximate miners run, report sane probabilities, and include every
    // itemset whose exact probability is overwhelming.
    let db = paper_table1();
    for algo in [
        Algorithm::PDUApriori,
        Algorithm::NDUApriori,
        Algorithm::NDUHMine,
    ] {
        let r = algo.mine_probabilistic_raw(&db, 0.25, 0.5).unwrap();
        for fi in &r.itemsets {
            if let Some(p) = fi.frequent_prob {
                assert!((0.0..=1.0).contains(&p), "{}", algo.name());
            }
        }
        // {C} has Pr{sup >= 1} = 1 - 0.1·0.1·0.2 = 0.998: must be found.
        assert!(
            r.get(&Itemset::singleton(2)).is_some(),
            "{} missed the overwhelming itemset",
            algo.name()
        );
    }
}
