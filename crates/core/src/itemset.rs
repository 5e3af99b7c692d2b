//! Itemsets: sorted, duplicate-free sets of item identifiers.

use std::fmt;

/// Item identifier. Items are dense small integers assigned by the dataset
/// layer; `u32` comfortably covers the largest benchmark vocabulary in the
/// paper (Kosarak, 41 270 items) while keeping candidate structures compact.
pub type ItemId = u32;

/// The largest item id a [`Transaction`](crate::Transaction) accepts:
/// 2^24. Every per-item array is sized by the largest id, so the cap bounds
/// them at 2^24 + 1 entries while covering every benchmark vocabulary in
/// the paper many times over.
pub const MAX_ITEM_ID: ItemId = 1 << 24;

/// A non-empty-or-empty set of items, stored sorted ascending without
/// duplicates.
///
/// The sorted representation makes subset tests, joins and prefix comparisons
/// (the work-horses of Apriori-style candidate generation) linear merges, and
/// gives a canonical form suitable for hashing.
///
/// ```
/// use ufim_core::Itemset;
/// let x = Itemset::from_items([3, 1, 2]);
/// assert_eq!(x.items(), &[1, 2, 3]);
/// assert!(x.is_subset_of_sorted(&[0, 1, 2, 3, 9]));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Itemset {
    items: Vec<ItemId>,
}

impl Itemset {
    /// The empty itemset.
    pub fn empty() -> Self {
        Itemset { items: Vec::new() }
    }

    /// A singleton itemset.
    pub fn singleton(item: ItemId) -> Self {
        Itemset { items: vec![item] }
    }

    /// Builds an itemset from arbitrary items; sorts and deduplicates.
    pub fn from_items<I: IntoIterator<Item = ItemId>>(items: I) -> Self {
        let mut v: Vec<ItemId> = items.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Itemset { items: v }
    }

    /// Builds from a vector the caller guarantees is sorted ascending and
    /// duplicate-free. Checked in debug builds only.
    pub fn from_sorted_vec(items: Vec<ItemId>) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "not strictly sorted");
        Itemset { items }
    }

    /// The items, sorted ascending.
    #[inline]
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// Number of items (the paper's `l` of an `l-itemset`).
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True for the empty itemset.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, item: ItemId) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// Returns a new itemset with `item` added (no-op if already present).
    pub fn with_item(&self, item: ItemId) -> Self {
        match self.items.binary_search(&item) {
            Ok(_) => self.clone(),
            Err(pos) => {
                let mut v = Vec::with_capacity(self.items.len() + 1);
                v.extend_from_slice(&self.items[..pos]);
                v.push(item);
                v.extend_from_slice(&self.items[pos..]);
                Itemset { items: v }
            }
        }
    }

    /// Set union.
    pub fn union(&self, other: &Itemset) -> Self {
        let mut v = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() && j < other.items.len() {
            match self.items[i].cmp(&other.items[j]) {
                std::cmp::Ordering::Less => {
                    v.push(self.items[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    v.push(other.items[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    v.push(self.items[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        v.extend_from_slice(&self.items[i..]);
        v.extend_from_slice(&other.items[j..]);
        Itemset { items: v }
    }

    /// True iff `self ⊆ other` where `other` is any sorted ascending slice
    /// (for example a transaction's item array). Linear merge.
    pub fn is_subset_of_sorted(&self, other: &[ItemId]) -> bool {
        let mut j = 0;
        'outer: for &x in &self.items {
            while j < other.len() {
                match other[j].cmp(&x) {
                    std::cmp::Ordering::Less => j += 1,
                    std::cmp::Ordering::Equal => {
                        j += 1;
                        continue 'outer;
                    }
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Iterates over all subsets of size `len - 1` (the "prune" step of
    /// Apriori candidate generation checks each of these).
    pub fn subsets_dropping_one(&self) -> impl Iterator<Item = Itemset> + '_ {
        (0..self.items.len()).map(move |skip| {
            let mut v = Vec::with_capacity(self.items.len() - 1);
            for (i, &it) in self.items.iter().enumerate() {
                if i != skip {
                    v.push(it);
                }
            }
            Itemset { items: v }
        })
    }
}

fn fmt_itemset(items: &[ItemId], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "{{")?;
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{item}")?;
    }
    write!(f, "}}")
}

impl fmt::Debug for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_itemset(&self.items, f)
    }
}

impl fmt::Display for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_itemset(&self.items, f)
    }
}

impl From<Vec<ItemId>> for Itemset {
    fn from(v: Vec<ItemId>) -> Self {
        Itemset::from_items(v)
    }
}

impl<const N: usize> From<[ItemId; N]> for Itemset {
    fn from(v: [ItemId; N]) -> Self {
        Itemset::from_items(v)
    }
}

impl FromIterator<ItemId> for Itemset {
    fn from_iter<T: IntoIterator<Item = ItemId>>(iter: T) -> Self {
        Itemset::from_items(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_and_dedups() {
        let x = Itemset::from_items([5, 1, 5, 3]);
        assert_eq!(x.items(), &[1, 3, 5]);
        assert_eq!(x.len(), 3);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(Itemset::empty().is_empty());
        let s = Itemset::singleton(4);
        assert_eq!(s.items(), &[4]);
        assert!(!s.is_empty());
    }

    #[test]
    fn contains_and_with_item() {
        let x = Itemset::from_items([1, 3]);
        assert!(x.contains(3));
        assert!(!x.contains(2));
        assert_eq!(x.with_item(2).items(), &[1, 2, 3]);
        assert_eq!(x.with_item(3).items(), &[1, 3]);
    }

    #[test]
    fn union_merges() {
        let a = Itemset::from_items([1, 3, 5]);
        let b = Itemset::from_items([2, 3, 6]);
        assert_eq!(a.union(&b).items(), &[1, 2, 3, 5, 6]);
        assert_eq!(a.union(&Itemset::empty()).items(), a.items());
    }

    #[test]
    fn subset_of_sorted() {
        let x = Itemset::from_items([2, 4]);
        assert!(x.is_subset_of_sorted(&[1, 2, 3, 4]));
        assert!(!x.is_subset_of_sorted(&[1, 2, 3]));
        assert!(Itemset::empty().is_subset_of_sorted(&[]));
        assert!(!x.is_subset_of_sorted(&[]));
    }

    #[test]
    fn drop_one_subsets() {
        let x = Itemset::from_items([1, 2, 3]);
        let subs: Vec<_> = x.subsets_dropping_one().collect();
        assert_eq!(subs.len(), 3);
        assert!(subs.contains(&Itemset::from_items([2, 3])));
        assert!(subs.contains(&Itemset::from_items([1, 3])));
        assert!(subs.contains(&Itemset::from_items([1, 2])));
    }

    #[test]
    fn display_format() {
        assert_eq!(Itemset::from_items([2, 1]).to_string(), "{1, 2}");
        assert_eq!(Itemset::empty().to_string(), "{}");
    }
}
