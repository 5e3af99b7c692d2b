//! Deterministic (probability-free) transaction databases.
//!
//! The paper's methodology — "assign a probability generated from a
//! distribution to each item of a deterministic benchmark" — makes the
//! deterministic database an explicit intermediate artifact. This module is
//! that artifact; [`crate::prob`] turns it into an
//! [`ufim_core::UncertainDatabase`].

use ufim_core::ItemId;

/// A deterministic transaction database: items only, no probabilities.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeterministicDatabase {
    transactions: Vec<Vec<ItemId>>,
    num_items: u32,
}

impl DeterministicDatabase {
    /// Builds from raw transactions; each transaction is sorted and
    /// deduplicated, and the vocabulary is inferred from the max item id.
    ///
    /// # Panics
    /// If an item id is `u32::MAX`, which no vocabulary size can cover
    /// ([`read_fimi`](crate::fimi::read_fimi) rejects every id above
    /// [`MAX_ITEM_ID`](ufim_core::MAX_ITEM_ID)).
    pub fn new(mut transactions: Vec<Vec<ItemId>>) -> Self {
        let mut num_items = 0;
        for t in &mut transactions {
            t.sort_unstable();
            t.dedup();
            if let Some(&max) = t.last() {
                let size = max
                    .checked_add(1)
                    .expect("item ids are at most MAX_ITEM_ID");
                num_items = num_items.max(size);
            }
        }
        DeterministicDatabase {
            transactions,
            num_items,
        }
    }

    /// Builds with an explicit vocabulary size covering every item.
    pub fn with_num_items(mut transactions: Vec<Vec<ItemId>>, num_items: u32) -> Self {
        for t in &mut transactions {
            t.sort_unstable();
            t.dedup();
            debug_assert!(t.last().is_none_or(|&m| m < num_items));
        }
        DeterministicDatabase {
            transactions,
            num_items,
        }
    }

    /// The transactions (each sorted ascending, duplicate-free).
    pub fn transactions(&self) -> &[Vec<ItemId>] {
        &self.transactions
    }

    /// Number of transactions.
    pub fn num_transactions(&self) -> usize {
        self.transactions.len()
    }

    /// Vocabulary size.
    pub fn num_items(&self) -> u32 {
        self.num_items
    }

    /// Average transaction length (`Ave. Len.` of Table 6).
    pub fn avg_transaction_len(&self) -> f64 {
        if self.transactions.is_empty() {
            return 0.0;
        }
        let total: usize = self.transactions.iter().map(Vec::len).sum();
        total as f64 / self.transactions.len() as f64
    }

    /// `avg_len / num_items` (`Density` of Table 6).
    pub fn density(&self) -> f64 {
        if self.num_items == 0 {
            0.0
        } else {
            self.avg_transaction_len() / self.num_items as f64
        }
    }

    /// Keeps only the first `n` transactions (scalability sweeps).
    pub fn truncated(&self, n: usize) -> DeterministicDatabase {
        DeterministicDatabase {
            transactions: self.transactions[..n.min(self.transactions.len())].to_vec(),
            num_items: self.num_items,
        }
    }

    /// Per-item occurrence counts (classical support of singletons).
    pub fn item_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_items as usize];
        for t in &self.transactions {
            for &i in t {
                counts[i as usize] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_dedups_and_infers_vocab() {
        let db = DeterministicDatabase::new(vec![vec![3, 1, 3], vec![0]]);
        assert_eq!(db.transactions()[0], vec![1, 3]);
        assert_eq!(db.num_items(), 4);
        assert_eq!(db.num_transactions(), 2);
    }

    #[test]
    fn stats() {
        let db = DeterministicDatabase::with_num_items(vec![vec![0, 1], vec![2], vec![0, 1, 2]], 4);
        assert!((db.avg_transaction_len() - 2.0).abs() < 1e-12);
        assert!((db.density() - 0.5).abs() < 1e-12);
        assert_eq!(db.item_counts(), vec![2, 2, 2, 0]);
    }

    #[test]
    fn empty_database_stats() {
        let db = DeterministicDatabase::new(vec![]);
        assert_eq!(db.avg_transaction_len(), 0.0);
        assert_eq!(db.density(), 0.0);
        assert_eq!(db.num_items(), 0);
    }

    #[test]
    fn truncate() {
        let db = DeterministicDatabase::new(vec![vec![0], vec![1], vec![2]]);
        let t = db.truncated(2);
        assert_eq!(t.num_transactions(), 2);
        assert_eq!(t.num_items(), 3); // vocabulary preserved
        assert_eq!(db.truncated(10).num_transactions(), 3);
    }
}
