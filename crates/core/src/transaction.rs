//! Uncertain transactions: items paired with existence probabilities.

use crate::error::CoreError;
use crate::itemset::{ItemId, MAX_ITEM_ID};

/// One uncertain transaction `<tid, {y₁(p₁), …, y_m(p_m)}>` (paper §2).
///
/// Items are stored sorted ascending by id in one array with a parallel
/// probability array — struct-of-arrays keeps the common "walk the items"
/// loops cache-friendly and lets miners binary-search items without touching
/// probability bytes.
///
/// Invariants (enforced by the constructors):
/// * items strictly ascending (no duplicates),
/// * every probability in `(0, 1]` — a zero-probability unit is the same as
///   absence and is rejected rather than stored,
/// * every item id at most [`MAX_ITEM_ID`].
#[derive(Clone, Debug, PartialEq)]
pub struct Transaction {
    items: Vec<ItemId>,
    probs: Vec<f64>,
}

impl Transaction {
    /// Builds a transaction from `(item, probability)` units in any order.
    ///
    /// # Errors
    /// [`CoreError::DuplicateItem`] if an item occurs twice,
    /// [`CoreError::InvalidProbability`] if a probability is outside `(0,1]`,
    /// [`CoreError::ItemIdTooLarge`] if an item id is above [`MAX_ITEM_ID`].
    pub fn new<I: IntoIterator<Item = (ItemId, f64)>>(units: I) -> Result<Self, CoreError> {
        let mut pairs: Vec<(ItemId, f64)> = units.into_iter().collect();
        for &(item, p) in &pairs {
            if !(p > 0.0 && p <= 1.0) {
                return Err(CoreError::InvalidProbability { value: p });
            }
            if item > MAX_ITEM_ID {
                return Err(CoreError::ItemIdTooLarge { item });
            }
        }
        pairs.sort_unstable_by_key(|&(i, _)| i);
        for w in pairs.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(CoreError::DuplicateItem { item: w[0].0 });
            }
        }
        let mut items = Vec::with_capacity(pairs.len());
        let mut probs = Vec::with_capacity(pairs.len());
        for (i, p) in pairs {
            items.push(i);
            probs.push(p);
        }
        Ok(Transaction { items, probs })
    }

    /// Builds from pre-sorted parallel arrays the caller has validated.
    /// Invariants are checked in debug builds only; use [`Transaction::new`]
    /// for untrusted input.
    pub fn from_sorted_unchecked(items: Vec<ItemId>, probs: Vec<f64>) -> Self {
        debug_assert_eq!(items.len(), probs.len());
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(items.last().is_none_or(|&i| i <= MAX_ITEM_ID));
        debug_assert!(probs.iter().all(|&p| p > 0.0 && p <= 1.0));
        Transaction { items, probs }
    }

    /// A certain (deterministic) transaction: every probability is 1. Item
    /// ids must be at most [`MAX_ITEM_ID`] (checked in debug builds).
    pub fn certain<I: IntoIterator<Item = ItemId>>(items: I) -> Self {
        let mut v: Vec<ItemId> = items.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        debug_assert!(v.last().is_none_or(|&i| i <= MAX_ITEM_ID));
        let probs = vec![1.0; v.len()];
        Transaction { items: v, probs }
    }

    /// Item ids, sorted ascending.
    #[inline]
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// Existence probabilities, parallel to [`Transaction::items`].
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Number of units in the transaction.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the transaction holds no units.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Probability that `item` appears in this transaction
    /// (0 when the item is not listed).
    #[inline]
    pub fn prob_of(&self, item: ItemId) -> f64 {
        match self.items.binary_search(&item) {
            Ok(pos) => self.probs[pos],
            Err(_) => 0.0,
        }
    }

    /// `P_t(X) = Π_{x ∈ X} p_t(x)` — the probability this transaction
    /// contains the whole (sorted) itemset; 0 if any member is absent.
    /// Under the paper's independence assumption this is the Bernoulli
    /// parameter contributed to `sup(X)`.
    pub fn itemset_prob(&self, itemset: &[ItemId]) -> f64 {
        let mut prod = 1.0;
        let mut j = 0usize;
        'outer: for &x in itemset {
            while j < self.items.len() {
                match self.items[j].cmp(&x) {
                    std::cmp::Ordering::Less => j += 1,
                    std::cmp::Ordering::Equal => {
                        prod *= self.probs[j];
                        j += 1;
                        continue 'outer;
                    }
                    std::cmp::Ordering::Greater => return 0.0,
                }
            }
            return 0.0;
        }
        prod
    }

    /// Iterates over `(item, probability)` units in item order.
    pub fn units(&self) -> impl Iterator<Item = (ItemId, f64)> + '_ {
        self.items.iter().copied().zip(self.probs.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_units() {
        let t = Transaction::new([(3, 0.5), (1, 0.9)]).unwrap();
        assert_eq!(t.items(), &[1, 3]);
        assert_eq!(t.probs(), &[0.9, 0.5]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn rejects_bad_probabilities() {
        assert_eq!(
            Transaction::new([(1, 0.0)]),
            Err(CoreError::InvalidProbability { value: 0.0 })
        );
        assert_eq!(
            Transaction::new([(1, 1.5)]),
            Err(CoreError::InvalidProbability { value: 1.5 })
        );
        assert!(Transaction::new([(1, f64::NAN)]).is_err());
        assert!(Transaction::new([(1, -0.1)]).is_err());
    }

    #[test]
    fn rejects_duplicates() {
        assert_eq!(
            Transaction::new([(2, 0.5), (2, 0.7)]),
            Err(CoreError::DuplicateItem { item: 2 })
        );
    }

    #[test]
    fn certain_transaction() {
        let t = Transaction::certain([4, 2, 4]);
        assert_eq!(t.items(), &[2, 4]);
        assert_eq!(t.probs(), &[1.0, 1.0]);
    }

    #[test]
    fn prob_of_lookup() {
        let t = Transaction::new([(1, 0.8), (5, 0.2)]).unwrap();
        assert_eq!(t.prob_of(1), 0.8);
        assert_eq!(t.prob_of(5), 0.2);
        assert_eq!(t.prob_of(3), 0.0);
    }

    #[test]
    fn itemset_prob_is_product() {
        // T1 of the paper's Table 1.
        let t1 = Transaction::new([(0, 0.8), (1, 0.2), (2, 0.9), (3, 0.7), (5, 0.8)]).unwrap();
        assert!((t1.itemset_prob(&[0]) - 0.8).abs() < 1e-12);
        assert!((t1.itemset_prob(&[0, 2]) - 0.72).abs() < 1e-12);
        assert_eq!(t1.itemset_prob(&[0, 4]), 0.0); // E absent from T1
        assert_eq!(t1.itemset_prob(&[]), 1.0); // empty product
    }

    #[test]
    fn units_iterate_in_order() {
        let t = Transaction::new([(9, 0.1), (3, 0.4)]).unwrap();
        let units: Vec<_> = t.units().collect();
        assert_eq!(units, vec![(3, 0.4), (9, 0.1)]);
    }

    #[test]
    fn item_ids_above_the_cap_are_rejected() {
        assert!(Transaction::new([(MAX_ITEM_ID, 0.5)]).is_ok());
        for item in [MAX_ITEM_ID + 1, u32::MAX - 1, u32::MAX] {
            assert_eq!(
                Transaction::new([(1, 0.5), (item, 0.5)]),
                Err(CoreError::ItemIdTooLarge { item })
            );
        }
    }
}
