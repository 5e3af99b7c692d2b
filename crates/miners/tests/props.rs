//! Property-based tests for the mining substrate: the candidate trie, the
//! frequency order, result post-processing, and miner agreement (a leaner
//! in-crate version of the cross-crate suite in the workspace root).

use proptest::collection::vec;
use proptest::prelude::*;
use ufim_core::prelude::*;
use ufim_miners::common::trie::CandidateTrie;
use ufim_miners::common::FrequencyOrder;
use ufim_miners::{postprocess, Algorithm, BruteForce};

fn prob() -> impl Strategy<Value = f64> {
    (1u32..=100).prop_map(|k| k as f64 / 100.0)
}

fn small_db() -> impl Strategy<Value = UncertainDatabase> {
    vec(vec((0u32..6, prob()), 0..6), 1..20).prop_map(|raw| {
        let transactions = raw
            .into_iter()
            .map(|units| {
                let mut dedup = std::collections::BTreeMap::new();
                for (i, p) in units {
                    dedup.entry(i).or_insert(p);
                }
                Transaction::new(dedup.into_iter().collect::<Vec<_>>()).unwrap()
            })
            .collect();
        UncertainDatabase::with_num_items(transactions, 6)
    })
}

fn candidate_sets() -> impl Strategy<Value = Vec<Itemset>> {
    vec(vec(0u32..6, 1..4), 1..12).prop_map(|raw| {
        let mut sets: Vec<Itemset> = raw.into_iter().map(Itemset::from_items).collect();
        sets.sort();
        sets.dedup();
        sets
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trie_counts_match_reference(db in small_db(), candidates in candidate_sets()) {
        let trie = CandidateTrie::build(&candidates);
        let mut esup = vec![0.0f64; candidates.len()];
        for t in db.transactions() {
            trie.for_each_contained(t.items(), t.probs(), &mut |idx, q| {
                esup[idx as usize] += q;
            });
        }
        for (c, got) in candidates.iter().zip(&esup) {
            let want = db.expected_support(c.items());
            prop_assert!((got - want).abs() < 1e-10, "{}: {} vs {}", c, got, want);
        }
    }

    #[test]
    fn frequency_order_is_total_and_sorted(db in small_db(), threshold in 0u32..30) {
        let t = threshold as f64 / 10.0;
        let order = FrequencyOrder::build(&db, t);
        let esups = db.item_expected_supports();
        // Every frequent item has a rank; ranks sort by decreasing esup.
        for item in 0..db.num_items() {
            let frequent = esups[item as usize] >= t;
            prop_assert_eq!(order.rank(item).is_some(), frequent);
        }
        for rank in 1..order.len() as u32 {
            prop_assert!(order.esup(rank - 1) >= order.esup(rank) - 1e-12);
        }
    }

    #[test]
    fn projection_is_sorted_filtered_and_complete(db in small_db()) {
        let order = FrequencyOrder::build(&db, 0.5);
        for t in db.transactions() {
            let proj = order.project(t.items(), t.probs());
            prop_assert!(proj.windows(2).all(|w| w[0].0 < w[1].0));
            let expected = t
                .units()
                .filter(|&(i, _)| order.rank(i).is_some())
                .count();
            prop_assert_eq!(proj.len(), expected);
        }
    }

    #[test]
    fn depth_first_miners_match_breadth_first(db in small_db(), te in 1u32..=9) {
        let ratio = te as f64 / 10.0;
        let a = Algorithm::UApriori.mine_expected_ratio(&db, ratio).unwrap();
        let b = Algorithm::UHMine.mine_expected_ratio(&db, ratio).unwrap();
        let c = Algorithm::UFPGrowth.mine_expected_ratio(&db, ratio).unwrap();
        prop_assert_eq!(a.sorted_itemsets(), b.sorted_itemsets());
        prop_assert_eq!(b.sorted_itemsets(), c.sorted_itemsets());
    }

    #[test]
    fn maximal_covers_and_closed_contains_maximal(db in small_db()) {
        let r = BruteForce::new().mine_expected_ratio(&db, 0.2).unwrap();
        let max = postprocess::maximal(&r);
        // Coverage: every frequent itemset sits under some maximal one.
        for fi in &r.itemsets {
            prop_assert!(
                max.iter().any(|m| fi.itemset.is_subset_of_sorted(m.itemset.items())),
                "{} uncovered", fi.itemset
            );
        }
        // Maximal ⊆ closed.
        let cls = postprocess::closed(&r, 1e-9);
        for m in &max {
            prop_assert!(
                cls.iter().any(|c| c.itemset == m.itemset),
                "maximal {} not closed", m.itemset
            );
        }
        // Closed preserves esup reconstruction: each frequent itemset's
        // esup equals the max esup among its closed supersets.
        for fi in &r.itemsets {
            let best = cls
                .iter()
                .filter(|c| fi.itemset.is_subset_of_sorted(c.itemset.items()))
                .map(|c| c.expected_support)
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert!((best - fi.expected_support).abs() < 1e-9,
                "esup of {} not reconstructible: {} vs {}", fi.itemset, best, fi.expected_support);
        }
    }

    #[test]
    fn top_k_is_sorted_prefix(db in small_db(), k in 0usize..12) {
        let r = BruteForce::new().mine_expected_ratio(&db, 0.1).unwrap();
        let top = postprocess::top_k_by_expected_support(&r, k, 1);
        prop_assert!(top.len() <= k);
        for w in top.windows(2) {
            prop_assert!(w[0].expected_support >= w[1].expected_support - 1e-12);
        }
        // Nothing outside the top-k beats anything inside it.
        if let Some(last) = top.last() {
            for fi in &r.itemsets {
                if !top.iter().any(|t| t.itemset == fi.itemset) {
                    prop_assert!(fi.expected_support <= last.expected_support + 1e-12);
                }
            }
        }
    }
}
