//! Property-based tests for the core data structures: itemset algebra,
//! transaction invariants, and database reference computations.

use proptest::collection::vec;
use proptest::prelude::*;
use ufim_core::{Itemset, Transaction, UncertainDatabase};

fn items() -> impl Strategy<Value = Vec<u32>> {
    vec(0u32..20, 0..10)
}

fn prob() -> impl Strategy<Value = f64> {
    (1u32..=1000).prop_map(|k| k as f64 / 1000.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn itemset_is_sorted_and_deduped(raw in items()) {
        let x = Itemset::from_items(raw.clone());
        prop_assert!(x.items().windows(2).all(|w| w[0] < w[1]));
        for &i in &raw {
            prop_assert!(x.contains(i));
        }
        prop_assert!(x.len() <= raw.len());
    }

    #[test]
    fn union_is_commutative_and_idempotent(a in items(), b in items()) {
        let x = Itemset::from_items(a);
        let y = Itemset::from_items(b);
        prop_assert_eq!(x.union(&y), y.union(&x));
        prop_assert_eq!(x.union(&x), x.clone());
        // Union contains both operands.
        let u = x.union(&y);
        prop_assert!(x.is_subset_of_sorted(u.items()));
        prop_assert!(y.is_subset_of_sorted(u.items()));
    }

    #[test]
    fn with_item_adds_exactly_one(raw in items(), extra in 0u32..25) {
        let x = Itemset::from_items(raw);
        let y = x.with_item(extra);
        prop_assert!(y.contains(extra));
        prop_assert_eq!(y.len(), x.len() + usize::from(!x.contains(extra)));
    }

    #[test]
    fn subset_relation_matches_naive(a in items(), b in items()) {
        let x = Itemset::from_items(a);
        let y = Itemset::from_items(b);
        let naive = x.items().iter().all(|i| y.items().contains(i));
        prop_assert_eq!(x.is_subset_of_sorted(y.items()), naive);
    }

    #[test]
    fn drop_one_subsets_are_all_contained(raw in vec(0u32..20, 1..8)) {
        let x = Itemset::from_items(raw);
        let subs: Vec<Itemset> = x.subsets_dropping_one().collect();
        prop_assert_eq!(subs.len(), x.len());
        for s in &subs {
            prop_assert_eq!(s.len(), x.len() - 1);
            prop_assert!(s.is_subset_of_sorted(x.items()));
        }
    }

    #[test]
    fn transaction_itemset_prob_is_product_of_members(
        units in vec((0u32..10, prob()), 0..8),
        query in vec(0u32..10, 0..4),
    ) {
        let mut dedup = std::collections::BTreeMap::new();
        for (i, p) in units { dedup.entry(i).or_insert(p); }
        let t = Transaction::new(dedup.clone().into_iter().collect::<Vec<_>>()).unwrap();
        let q = Itemset::from_items(query);
        let expect: f64 = if q.items().iter().all(|i| dedup.contains_key(i)) {
            q.items().iter().map(|i| dedup[i]).product()
        } else {
            0.0
        };
        prop_assert!((t.itemset_prob(q.items()) - expect).abs() < 1e-12);
    }

    #[test]
    fn database_moments_are_consistent(
        rows in vec(vec((0u32..6, prob()), 0..5), 1..15),
        query in vec(0u32..6, 1..3),
    ) {
        let transactions: Vec<Transaction> = rows
            .into_iter()
            .map(|units| {
                let mut dedup = std::collections::BTreeMap::new();
                for (i, p) in units { dedup.entry(i).or_insert(p); }
                Transaction::new(dedup.into_iter().collect::<Vec<_>>()).unwrap()
            })
            .collect();
        let db = UncertainDatabase::with_num_items(transactions, 6);
        let q = Itemset::from_items(query);
        let (esup, var) = db.support_moments(q.items());
        // esup equals the prob-vector sum; var equals Σ q(1-q).
        let qv = db.itemset_prob_vector(q.items());
        let sum: f64 = qv.iter().sum();
        let v: f64 = qv.iter().map(|&p| p * (1.0 - p)).sum();
        prop_assert!((esup - sum).abs() < 1e-12);
        prop_assert!((var - v).abs() < 1e-12);
        prop_assert!((db.expected_support(q.items()) - esup).abs() < 1e-12);
        // Bounds: 0 ≤ esup ≤ N; 0 ≤ var ≤ N/4.
        let n = db.num_transactions() as f64;
        prop_assert!((0.0..=n).contains(&esup));
        prop_assert!((0.0..=n / 4.0 + 1e-12).contains(&var));
    }

    #[test]
    fn truncation_is_prefix(rows in vec(vec((0u32..4, prob()), 0..3), 1..10), cut in 0usize..12) {
        let transactions: Vec<Transaction> = rows
            .into_iter()
            .map(|units| {
                let mut dedup = std::collections::BTreeMap::new();
                for (i, p) in units { dedup.entry(i).or_insert(p); }
                Transaction::new(dedup.into_iter().collect::<Vec<_>>()).unwrap()
            })
            .collect();
        let db = UncertainDatabase::with_num_items(transactions, 4);
        let t = db.truncated(cut);
        prop_assert_eq!(t.num_transactions(), cut.min(db.num_transactions()));
        prop_assert_eq!(t.num_items(), db.num_items());
        for (a, b) in t.transactions().iter().zip(db.transactions()) {
            prop_assert_eq!(a, b);
        }
    }
}
