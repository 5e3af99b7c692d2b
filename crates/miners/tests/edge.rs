//! Edge-case and failure-injection tests for the miners: degenerate
//! databases, boundary thresholds, vocabulary gaps, and parameter abuse.

use ufim_core::prelude::*;
use ufim_miners::{Algorithm, BruteForce};

fn all_expected() -> [Algorithm; 3] {
    Algorithm::EXPECTED_SUPPORT
}

fn all_probabilistic() -> impl Iterator<Item = Algorithm> {
    Algorithm::EXACT_PROBABILISTIC.into_iter().chain([
        Algorithm::PDUApriori,
        Algorithm::NDUApriori,
        Algorithm::NDUHMine,
    ])
}

#[test]
fn database_of_empty_transactions() {
    // Transactions exist (N > 0) but contain nothing: thresholds are
    // positive, results must be empty, and nothing may panic or divide by
    // zero.
    let db = UncertainDatabase::with_num_items(
        vec![Transaction::new::<[(u32, f64); 0]>([]).unwrap(); 10],
        4,
    );
    for m in all_expected() {
        assert!(
            m.mine_expected_ratio(&db, 0.5).unwrap().is_empty(),
            "{}",
            m.name()
        );
    }
    for m in all_probabilistic() {
        assert!(
            m.mine_probabilistic_raw(&db, 0.5, 0.9).unwrap().is_empty(),
            "{}",
            m.name()
        );
    }
}

#[test]
fn single_transaction_database() {
    let db =
        UncertainDatabase::from_transactions(vec![Transaction::new([(0, 0.9), (1, 0.4)]).unwrap()]);
    // min_esup = 0.5 over N = 1 ⇒ threshold 0.5: only item 0 qualifies.
    for m in all_expected() {
        let r = m.mine_expected_ratio(&db, 0.5).unwrap();
        assert_eq!(
            r.sorted_itemsets(),
            vec![Itemset::singleton(0)],
            "{}",
            m.name()
        );
    }
    // Probabilistic with msup = 1: Pr{sup(0) ≥ 1} = 0.9 > 0.8.
    //
    // PDUApriori is excused from the inclusion check: the Poisson
    // approximation demands esup ≥ λ* = ln 5 ≈ 1.61 here (N = 1 is the
    // approximation's worst case), a legitimate false negative the paper's
    // accuracy tables account for. It must still not hallucinate item 1.
    for m in all_probabilistic() {
        let r = m.mine_probabilistic_raw(&db, 1.0, 0.8).unwrap();
        if m.name() != "PDUApriori" {
            assert!(
                r.get(&Itemset::singleton(0)).is_some(),
                "{} missed the singleton",
                m.name()
            );
        }
        assert!(r.get(&Itemset::singleton(1)).is_none(), "{}", m.name());
    }
}

#[test]
fn certainty_reduces_every_miner_to_classical_mining() {
    // All probabilities 1.0: expected support == classical support and
    // every frequent probability is a 0/1 step. ALL ten miners must give
    // the classical answer.
    let db = UncertainDatabase::from_transactions(vec![
        Transaction::certain([0, 1, 2]),
        Transaction::certain([0, 1]),
        Transaction::certain([0, 2]),
        Transaction::certain([1, 2]),
    ]);
    let classical = BruteForce::new().mine_expected_ratio(&db, 0.5).unwrap();
    for m in all_expected() {
        let r = m.mine_expected_ratio(&db, 0.5).unwrap();
        assert_eq!(
            r.sorted_itemsets(),
            classical.sorted_itemsets(),
            "{}",
            m.name()
        );
    }
    for m in all_probabilistic() {
        let r = m.mine_probabilistic_raw(&db, 0.5, 0.5).unwrap();
        assert_eq!(
            r.sorted_itemsets(),
            classical.sorted_itemsets(),
            "{} under certainty",
            m.name()
        );
    }
}

#[test]
fn threshold_one_requires_presence_everywhere() {
    let db = UncertainDatabase::from_transactions(vec![
        Transaction::new([(0, 1.0), (1, 0.99)]).unwrap(),
        Transaction::new([(0, 1.0)]).unwrap(),
    ]);
    // min_esup = 1.0 ⇒ threshold = N: only items with probability 1 in
    // every transaction qualify.
    for m in all_expected() {
        let r = m.mine_expected_ratio(&db, 1.0).unwrap();
        assert_eq!(
            r.sorted_itemsets(),
            vec![Itemset::singleton(0)],
            "{}",
            m.name()
        );
    }
}

#[test]
fn vocabulary_gaps_are_harmless() {
    // Item ids 0 and 900 used, vocabulary declared as 1000: dense
    // per-item arrays must not misbehave, and no phantom items may appear.
    let db = UncertainDatabase::with_num_items(
        vec![
            Transaction::new([(0, 0.9), (900, 0.9)]).unwrap(),
            Transaction::new([(0, 0.8), (900, 0.7)]).unwrap(),
        ],
        1000,
    );
    for m in all_expected() {
        let r = m.mine_expected_ratio(&db, 0.5).unwrap();
        assert_eq!(
            r.sorted_itemsets(),
            vec![
                Itemset::singleton(0),
                Itemset::from_items([0, 900]),
                Itemset::singleton(900),
            ],
            "{}",
            m.name()
        );
    }
}

#[test]
fn extreme_pft_values() {
    let db = ufim_core::examples::paper_table1();
    // pft near 1: only certainty-level itemsets survive. Pr{sup(C) >= 1}
    // = 0.998 > 0.99.
    let r = Algorithm::DCB
        .mine_probabilistic_raw(&db, 0.25, 0.99)
        .unwrap();
    assert!(r.get(&Itemset::singleton(2)).is_some());
    // Everything reported must clear the bar.
    for fi in &r.itemsets {
        assert!(fi.frequent_prob.unwrap() > 0.99);
    }
    // Tiny pft: membership widens monotonically.
    let loose = Algorithm::DCB
        .mine_probabilistic_raw(&db, 0.25, 0.01)
        .unwrap();
    assert!(loose.len() >= r.len());
    for itemset in r.sorted_itemsets() {
        assert!(
            loose.get(&itemset).is_some(),
            "{itemset} lost at looser pft"
        );
    }
}

#[test]
fn parameter_validation_at_the_boundary() {
    let db = ufim_core::examples::paper_table1();
    let m = Algorithm::UApriori;
    assert!(m.mine_expected_ratio(&db, 0.0).is_err());
    assert!(m.mine_expected_ratio(&db, -1.0).is_err());
    assert!(m.mine_expected_ratio(&db, 1.0 + 1e-9).is_err());
    assert!(m.mine_expected_ratio(&db, f64::NAN).is_err());
    let p = Algorithm::DCB;
    assert!(p.mine_probabilistic_raw(&db, 0.5, 0.0).is_err());
    assert!(p.mine_probabilistic_raw(&db, 0.5, f64::INFINITY).is_err());
    assert!(p.mine_probabilistic_raw(&db, f64::NAN, 0.9).is_err());
}

#[test]
fn probability_epsilon_units_do_not_break_counting() {
    // Probabilities at the representable floor: products underflow toward
    // zero gracefully, no NaN, no panic, monotone thresholds still hold.
    let tiny = f64::MIN_POSITIVE;
    let db = UncertainDatabase::from_transactions(vec![
        Transaction::new([(0, tiny), (1, 1.0)]).unwrap(),
        Transaction::new([(0, tiny), (1, 1.0)]).unwrap(),
    ]);
    for m in all_expected() {
        let r = m.mine_expected_ratio(&db, 0.9).unwrap();
        assert_eq!(
            r.sorted_itemsets(),
            vec![Itemset::singleton(1)],
            "{}",
            m.name()
        );
    }
    let r = Algorithm::DCB
        .mine_probabilistic_raw(&db, 1.0, 0.5)
        .unwrap();
    assert_eq!(r.sorted_itemsets(), vec![Itemset::singleton(1)]);
}

#[test]
fn duplicate_probability_nodes_share_in_ufp_tree() {
    // Regression guard for the UFP-tree sharing rule: same item, identical
    // bit-pattern probabilities must share; the structure statistic is the
    // observable.
    let same = UncertainDatabase::from_transactions(vec![Transaction::new([(0, 0.5)]).unwrap(); 8]);
    let r = Algorithm::UFPGrowth
        .mine_expected_ratio(&same, 0.1)
        .unwrap();
    assert_eq!(r.stats.peak_structure_nodes, 2); // root + one shared node

    let differ = UncertainDatabase::from_transactions(
        (0..8)
            .map(|i| Transaction::new([(0, 0.5 + i as f64 * 0.01)]).unwrap())
            .collect(),
    );
    let r = Algorithm::UFPGrowth
        .mine_expected_ratio(&differ, 0.1)
        .unwrap();
    assert_eq!(r.stats.peak_structure_nodes, 9); // root + 8 distinct nodes
}
