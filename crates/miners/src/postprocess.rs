//! Result post-processing: maximal / closed condensation and top-k
//! selection.
//!
//! Frequent itemset result sets are subset-closed (downward closure), so
//! they grow combinatorially on dense data; applications usually want a
//! condensed view. The paper's own follow-on line of work mines
//! *threshold-based frequent closed itemsets over probabilistic data*
//! (Tong, Chen, Ding, ICDE 2012 — its reference \[30\]); these utilities
//! provide the corresponding condensations as post-passes over any
//! [`MiningResult`] produced by the miners in this crate:
//!
//! * [`maximal`] — itemsets with no frequent proper superset;
//! * [`closed`] — itemsets with no frequent proper superset of (nearly)
//!   equal expected support;
//! * [`top_k_by_expected_support`] — the k strongest itemsets, optionally
//!   restricted to a minimum size.

use ufim_core::{FrequentItemset, FxHashMap, ItemId, MiningResult};

/// Indexes result itemsets by length for superset queries.
fn by_len(result: &MiningResult) -> FxHashMap<usize, Vec<&FrequentItemset>> {
    let mut map: FxHashMap<usize, Vec<&FrequentItemset>> = FxHashMap::default();
    for fi in &result.itemsets {
        map.entry(fi.itemset.len()).or_default().push(fi);
    }
    map
}

/// True iff some *proper* superset of `fi` in `index` satisfies `pred`.
fn has_superset<'a>(
    fi: &FrequentItemset,
    index: &FxHashMap<usize, Vec<&'a FrequentItemset>>,
    mut pred: impl FnMut(&'a FrequentItemset) -> bool,
) -> bool {
    let len = fi.itemset.len();
    for (&other_len, group) in index.iter() {
        if other_len <= len {
            continue;
        }
        for other in group {
            if fi.itemset.is_subset_of_sorted(other.itemset.items()) && pred(other) {
                return true;
            }
        }
    }
    false
}

/// The **maximal** frequent itemsets: those with no frequent proper
/// superset. The smallest lossless-for-membership condensation ("X is
/// frequent ⇔ X ⊆ some maximal itemset").
pub fn maximal(result: &MiningResult) -> Vec<&FrequentItemset> {
    let index = by_len(result);
    result
        .itemsets
        .iter()
        .filter(|fi| !has_superset(fi, &index, |_| true))
        .collect()
}

/// The **closed** frequent itemsets under expected support: itemsets with
/// no frequent proper superset whose expected support matches within
/// `tolerance`. With `tolerance = 0.0` this is the classical definition
/// transplanted to `esup` (a strict-equality closure is fragile under
/// floating point, hence the knob; `1e-9` is a good default).
///
/// Closedness is lossless for (membership, esup): every frequent itemset's
/// expected support equals that of its smallest closed superset.
pub fn closed(result: &MiningResult, tolerance: f64) -> Vec<&FrequentItemset> {
    let index = by_len(result);
    result
        .itemsets
        .iter()
        .filter(|fi| {
            !has_superset(fi, &index, |other| {
                (other.expected_support - fi.expected_support).abs() <= tolerance
            })
        })
        .collect()
}

/// The `k` itemsets of largest expected support among those with at least
/// `min_len` items. Ties break lexicographically for determinism.
pub fn top_k_by_expected_support(
    result: &MiningResult,
    k: usize,
    min_len: usize,
) -> Vec<&FrequentItemset> {
    let mut v: Vec<&FrequentItemset> = result
        .itemsets
        .iter()
        .filter(|fi| fi.itemset.len() >= min_len)
        .collect();
    v.sort_by(|a, b| {
        b.expected_support
            .partial_cmp(&a.expected_support)
            .expect("esup is finite")
            .then_with(|| a.itemset.cmp(&b.itemset))
    });
    v.truncate(k);
    v
}

/// Restricts a result to itemsets containing all of `anchor` — "what
/// co-occurs with these items?", the interactive drill-down query.
pub fn containing<'a>(result: &'a MiningResult, anchor: &[ItemId]) -> Vec<&'a FrequentItemset> {
    let mut sorted = anchor.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    result
        .itemsets
        .iter()
        .filter(|fi| {
            sorted
                .iter()
                .all(|&a| fi.itemset.items().binary_search(&a).is_ok())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Algorithm;
    use ufim_core::examples::paper_table1;
    use ufim_core::prelude::*;

    fn result() -> MiningResult {
        // min_esup = 0.25 on Table 1: six singletons + {A,C} + {C,E}.
        Algorithm::UApriori
            .mine_expected_ratio(&paper_table1(), 0.25)
            .unwrap()
    }

    #[test]
    fn maximal_drops_dominated_singletons() {
        let r = result();
        let max: Vec<_> = maximal(&r).iter().map(|f| f.itemset.clone()).collect();
        // {A}, {C}, {E} are dominated by pairs; B, D, F have no superset.
        assert!(max.contains(&Itemset::from_items([0, 2])));
        assert!(max.contains(&Itemset::from_items([2, 4])));
        assert!(max.contains(&Itemset::singleton(1)));
        assert!(max.contains(&Itemset::singleton(3)));
        assert!(max.contains(&Itemset::singleton(5)));
        assert!(!max.contains(&Itemset::singleton(0)));
        assert!(!max.contains(&Itemset::singleton(2)));
        assert_eq!(max.len(), 5);
    }

    #[test]
    fn membership_reconstructs_from_maximal() {
        let r = result();
        let max = maximal(&r);
        for fi in &r.itemsets {
            assert!(
                max.iter()
                    .any(|m| fi.itemset.is_subset_of_sorted(m.itemset.items())),
                "{} not covered",
                fi.itemset
            );
        }
    }

    #[test]
    fn closed_keeps_distinct_supports() {
        let r = result();
        let closed_sets: Vec<_> = closed(&r, 1e-9).iter().map(|f| f.itemset.clone()).collect();
        // All supports in Table 1 are distinct across subset chains, so
        // every itemset is closed here…
        assert_eq!(closed_sets.len(), r.len());

        // …whereas a constructed plateau collapses: {x} and {x,y} with the
        // same esup ⇒ {x} is not closed.
        let db = UncertainDatabase::from_transactions(vec![
            Transaction::new([(0, 0.5), (1, 1.0)])
                .unwrap();
            4
        ]);
        let r2 = Algorithm::UApriori.mine_expected_ratio(&db, 0.25).unwrap();
        let c2: Vec<_> = closed(&r2, 1e-9)
            .iter()
            .map(|f| f.itemset.clone())
            .collect();
        assert!(c2.contains(&Itemset::from_items([0, 1])));
        assert!(
            !c2.contains(&Itemset::singleton(0)),
            "esup({{0}}) == esup({{0,1}})"
        );
        assert!(c2.contains(&Itemset::singleton(1)), "esup({{1}}) = 4 > 2");
    }

    #[test]
    fn closed_is_superset_of_maximal() {
        let r = result();
        let max: Vec<_> = maximal(&r).iter().map(|f| f.itemset.clone()).collect();
        let cls: Vec<_> = closed(&r, 1e-9).iter().map(|f| f.itemset.clone()).collect();
        for m in &max {
            assert!(cls.contains(m), "maximal {m} must be closed");
        }
    }

    #[test]
    fn top_k_orders_by_esup() {
        let r = result();
        let top = top_k_by_expected_support(&r, 3, 1);
        assert_eq!(top[0].itemset, Itemset::singleton(2)); // C: 2.6
        assert_eq!(top[1].itemset, Itemset::singleton(0)); // A: 2.1
        assert_eq!(top[2].itemset, Itemset::from_items([0, 2])); // {A,C}: 1.84
                                                                 // Size restriction.
        let pairs = top_k_by_expected_support(&r, 10, 2);
        assert_eq!(pairs.len(), 2);
        // k larger than the result is fine.
        assert_eq!(top_k_by_expected_support(&r, 100, 1).len(), r.len());
    }

    #[test]
    fn containing_filters_by_anchor() {
        let r = result();
        let with_c: Vec<_> = containing(&r, &[2])
            .iter()
            .map(|f| f.itemset.clone())
            .collect();
        assert_eq!(with_c.len(), 3); // {C}, {A,C}, {C,E}
        let with_ac: Vec<_> = containing(&r, &[0, 2])
            .iter()
            .map(|f| f.itemset.clone())
            .collect();
        assert_eq!(with_ac, vec![Itemset::from_items([0, 2])]);
        assert!(containing(&r, &[0, 3]).is_empty());
    }
}
