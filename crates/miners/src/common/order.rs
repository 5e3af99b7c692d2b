//! Frequency-based item ordering.
//!
//! Both depth-first miners (UFP-growth, UH-Mine) reorder items by
//! *decreasing expected support* before building their structures — the
//! paper's §3.1.2: "finds all expected support-based frequent items and
//! orders these items by their expected supports". This module computes that
//! order once and provides the id↔rank remapping both miners share.

use ufim_core::{ItemId, UncertainDatabase};

/// A frequency ordering over the frequent items of a database.
///
/// Rank 0 is the most frequent item; infrequent items have no rank and are
/// dropped by the depth-first miners before any structure is built.
#[derive(Clone, Debug)]
pub struct FrequencyOrder {
    /// `rank_of[item] = Some(rank)` for frequent items.
    rank_of: Vec<Option<u32>>,
    /// `item_of[rank] = item`, decreasing expected support.
    item_of: Vec<ItemId>,
    /// `esup_of[rank]` = the item's expected support.
    esup_of: Vec<f64>,
}

impl FrequencyOrder {
    /// Scans the database once and orders items with
    /// `esup(item) ≥ threshold` by decreasing expected support.
    /// Ties break on item id so the order is total and deterministic.
    pub fn build(db: &UncertainDatabase, threshold: f64) -> Self {
        let esup = db.item_expected_supports();
        let mut frequent: Vec<ItemId> = (0..db.num_items())
            .filter(|&i| esup[i as usize] >= threshold)
            .collect();
        frequent.sort_by(|&a, &b| {
            esup[b as usize]
                .partial_cmp(&esup[a as usize])
                .expect("esup is finite")
                .then(a.cmp(&b))
        });
        let mut rank_of = vec![None; db.num_items() as usize];
        let mut esup_of = Vec::with_capacity(frequent.len());
        for (rank, &item) in frequent.iter().enumerate() {
            rank_of[item as usize] = Some(rank as u32);
            esup_of.push(esup[item as usize]);
        }
        FrequencyOrder {
            rank_of,
            item_of: frequent,
            esup_of,
        }
    }

    /// Builds the order over an explicit `(item, esup)` selection — for
    /// miners whose item-level acceptance test is not a plain expected
    /// support threshold (NDUH-Mine judges items by the Normal-approximated
    /// frequent probability). Ordering is still by decreasing expected
    /// support with id tie-break.
    pub fn from_selection(num_items: u32, mut selection: Vec<(ItemId, f64)>) -> Self {
        selection.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("esup is finite")
                .then(a.0.cmp(&b.0))
        });
        let mut rank_of = vec![None; num_items as usize];
        let mut item_of = Vec::with_capacity(selection.len());
        let mut esup_of = Vec::with_capacity(selection.len());
        for (rank, &(item, esup)) in selection.iter().enumerate() {
            rank_of[item as usize] = Some(rank as u32);
            item_of.push(item);
            esup_of.push(esup);
        }
        FrequencyOrder {
            rank_of,
            item_of,
            esup_of,
        }
    }

    /// Number of frequent items.
    pub fn len(&self) -> usize {
        self.item_of.len()
    }

    /// True when no item is frequent.
    pub fn is_empty(&self) -> bool {
        self.item_of.is_empty()
    }

    /// The rank of an item, if frequent.
    #[inline]
    pub fn rank(&self, item: ItemId) -> Option<u32> {
        self.rank_of.get(item as usize).copied().flatten()
    }

    /// The item at a rank.
    #[inline]
    pub fn item(&self, rank: u32) -> ItemId {
        self.item_of[rank as usize]
    }

    /// Expected support of the item at a rank.
    #[inline]
    pub fn esup(&self, rank: u32) -> f64 {
        self.esup_of[rank as usize]
    }

    /// Projects a transaction onto the frequent items, returning
    /// `(rank, prob)` units sorted by rank (i.e. decreasing global
    /// frequency) — the canonical insertion order for UFP-trees and
    /// UH-Struct rows.
    pub fn project(&self, items: &[ItemId], probs: &[f64]) -> Vec<(u32, f64)> {
        let mut v = Vec::new();
        self.project_into(items, probs, &mut v);
        v
    }

    /// [`FrequencyOrder::project`] into a caller-owned buffer (cleared
    /// first), so a scan over many transactions reuses one allocation.
    pub fn project_into(&self, items: &[ItemId], probs: &[f64], out: &mut Vec<(u32, f64)>) {
        out.clear();
        out.extend(
            items
                .iter()
                .zip(probs)
                .filter_map(|(&i, &p)| self.rank(i).map(|r| (r, p))),
        );
        out.sort_unstable_by_key(|&(r, _)| r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufim_core::examples::paper_table1;

    #[test]
    fn paper_figure1_order() {
        // §3.1.2: with min_esup = 0.25 (threshold 1.0) the ordered list is
        // C:2.6, A:2.1, F:1.8, B:1.4, E:1.3, D:1.2.
        let db = paper_table1();
        let order = FrequencyOrder::build(&db, 1.0);
        assert_eq!(order.len(), 6);
        let ranked: Vec<ItemId> = (0..6).map(|r| order.item(r)).collect();
        assert_eq!(ranked, vec![2, 0, 5, 1, 4, 3]); // C A F B E D
        assert!((order.esup(0) - 2.6).abs() < 1e-12);
        assert!((order.esup(5) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn threshold_filters() {
        let db = paper_table1();
        let order = FrequencyOrder::build(&db, 2.0);
        assert_eq!(order.len(), 2); // C and A only
        assert_eq!(order.rank(2), Some(0));
        assert_eq!(order.rank(0), Some(1));
        assert_eq!(order.rank(1), None); // B infrequent
        assert_eq!(order.rank(99), None); // out of vocabulary
    }

    #[test]
    fn project_reorders_and_filters() {
        let db = paper_table1();
        let order = FrequencyOrder::build(&db, 2.0);
        let t1 = &db.transactions()[0]; // A B C D F
        let proj = order.project(t1.items(), t1.probs());
        // Only C (rank 0, p=0.9) and A (rank 1, p=0.8) survive, in rank order.
        assert_eq!(proj, vec![(0, 0.9), (1, 0.8)]);
    }

    #[test]
    fn empty_when_threshold_too_high() {
        let db = paper_table1();
        let order = FrequencyOrder::build(&db, 100.0);
        assert!(order.is_empty());
    }
}
