//! The uncertain transaction database `UDB` and its summary statistics.

use crate::error::CoreError;
use crate::itemset::ItemId;
use crate::transaction::Transaction;

/// An uncertain transaction database: an ordered collection of
/// [`Transaction`]s over a dense item vocabulary `0..num_items`.
///
/// The database is immutable once built (miners never mutate their input);
/// use [`UncertainDatabaseBuilder`] or [`UncertainDatabase::from_transactions`]
/// to construct one.
#[derive(Clone, Debug, PartialEq)]
pub struct UncertainDatabase {
    transactions: Vec<Transaction>,
    num_items: u32,
}

impl UncertainDatabase {
    /// Builds a database from transactions. The item vocabulary size is
    /// inferred as `max item id + 1`.
    ///
    /// # Panics
    /// If an item id is `u32::MAX`, which no vocabulary size can cover.
    /// [`Transaction::new`] rejects every id above
    /// [`MAX_ITEM_ID`](crate::MAX_ITEM_ID), so only the unchecked
    /// transaction constructors can get here.
    pub fn from_transactions(transactions: Vec<Transaction>) -> Self {
        let num_items = transactions
            .iter()
            .filter_map(|t| t.items().last().copied())
            .max()
            .map_or(0, |m| {
                m.checked_add(1).expect("item ids are at most MAX_ITEM_ID")
            });
        UncertainDatabase {
            transactions,
            num_items,
        }
    }

    /// Builds with an explicit vocabulary size (must cover every item used).
    pub fn with_num_items(transactions: Vec<Transaction>, num_items: u32) -> Self {
        debug_assert!(transactions
            .iter()
            .flat_map(|t| t.items().iter())
            .all(|&i| i < num_items));
        UncertainDatabase {
            transactions,
            num_items,
        }
    }

    /// Number of transactions `N`.
    #[inline]
    pub fn num_transactions(&self) -> usize {
        self.transactions.len()
    }

    /// Size of the item vocabulary (item ids are `0..num_items`).
    #[inline]
    pub fn num_items(&self) -> u32 {
        self.num_items
    }

    /// The transactions, in insertion order.
    #[inline]
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// True when the database holds no transactions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Expected support of an itemset: `esup(X) = Σ_t P_t(X)` (Definition 1).
    ///
    /// This is the O(N·|X|) reference implementation; miners compute the same
    /// quantity incrementally through their own data structures, and tests
    /// compare against this one.
    pub fn expected_support(&self, itemset: &[ItemId]) -> f64 {
        self.transactions
            .iter()
            .map(|t| t.itemset_prob(itemset))
            .sum()
    }

    /// Expected support and variance of `sup(X)` in one pass.
    ///
    /// `sup(X)` is a sum of independent Bernoulli(`q_t`) variables, so
    /// `Var[sup(X)] = Σ_t q_t (1 − q_t)`. The pair `(esup, var)` is exactly
    /// what the Normal-approximation miners (§3.3.2–3.3.3) need.
    pub fn support_moments(&self, itemset: &[ItemId]) -> (f64, f64) {
        let mut esup = 0.0;
        let mut var = 0.0;
        for t in &self.transactions {
            let q = t.itemset_prob(itemset);
            esup += q;
            var += q * (1.0 - q);
        }
        (esup, var)
    }

    /// The nonzero per-transaction containment probabilities of `X`, in
    /// transaction order. This is the input to the exact frequent-probability
    /// computations (DP and divide-and-conquer): zero-probability
    /// transactions cannot change `sup(X)`'s distribution and are skipped.
    pub fn itemset_prob_vector(&self, itemset: &[ItemId]) -> Vec<f64> {
        self.transactions
            .iter()
            .filter_map(|t| {
                let q = t.itemset_prob(itemset);
                (q > 0.0).then_some(q)
            })
            .collect()
    }

    /// Per-item expected supports in one database scan: entry `i` is
    /// `esup({i})`. The first step of every miner in the paper.
    pub fn item_expected_supports(&self) -> Vec<f64> {
        let mut esup = vec![0.0f64; self.num_items as usize];
        for t in &self.transactions {
            for (item, p) in t.units() {
                esup[item as usize] += p;
            }
        }
        esup
    }

    /// Summary statistics in the shape of the paper's Table 6.
    pub fn stats(&self) -> DatabaseStats {
        let n = self.transactions.len();
        let total_units: usize = self.transactions.iter().map(Transaction::len).sum();
        let avg_len = if n == 0 {
            0.0
        } else {
            total_units as f64 / n as f64
        };
        let density = if self.num_items == 0 {
            0.0
        } else {
            avg_len / self.num_items as f64
        };
        DatabaseStats {
            num_transactions: n,
            num_items: self.num_items,
            avg_transaction_len: avg_len,
            density,
            total_units,
        }
    }

    /// A database containing only the first `n` transactions (vocabulary is
    /// preserved). Used by the scalability experiments, which grow the
    /// transaction count while keeping the generating process fixed.
    pub fn truncated(&self, n: usize) -> UncertainDatabase {
        UncertainDatabase {
            transactions: self.transactions[..n.min(self.transactions.len())].to_vec(),
            num_items: self.num_items,
        }
    }
}

/// Builder collecting transactions, with error accumulation semantics suited
/// to parsing external files.
#[derive(Default)]
pub struct UncertainDatabaseBuilder {
    transactions: Vec<Transaction>,
    num_items: Option<u32>,
}

impl UncertainDatabaseBuilder {
    /// Fresh empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fixes the vocabulary size up-front (otherwise inferred at build time).
    pub fn num_items(mut self, n: u32) -> Self {
        self.num_items = Some(n);
        self
    }

    /// Appends an already-validated transaction.
    pub fn push(&mut self, t: Transaction) -> &mut Self {
        self.transactions.push(t);
        self
    }

    /// Validates and appends a transaction given as `(item, prob)` units.
    pub fn push_units<I: IntoIterator<Item = (ItemId, f64)>>(
        &mut self,
        units: I,
    ) -> Result<&mut Self, CoreError> {
        self.transactions.push(Transaction::new(units)?);
        Ok(self)
    }

    /// Finishes the build.
    pub fn build(self) -> UncertainDatabase {
        match self.num_items {
            Some(n) => UncertainDatabase::with_num_items(self.transactions, n),
            None => UncertainDatabase::from_transactions(self.transactions),
        }
    }
}

/// Summary statistics of a database (the columns of the paper's Table 6).
#[derive(Clone, Debug, PartialEq)]
pub struct DatabaseStats {
    /// Number of transactions (`# of Trans.`).
    pub num_transactions: usize,
    /// Vocabulary size (`# of Items`).
    pub num_items: u32,
    /// Average units per transaction (`Ave. Len.`).
    pub avg_transaction_len: f64,
    /// `avg_transaction_len / num_items` (`Density`).
    pub density: f64,
    /// Total units across all transactions.
    pub total_units: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::paper_table1;

    #[test]
    fn from_transactions_infers_vocab() {
        let db = UncertainDatabase::from_transactions(vec![
            Transaction::certain([0, 7]),
            Transaction::certain([2]),
        ]);
        assert_eq!(db.num_items(), 8);
        assert_eq!(db.num_transactions(), 2);
        assert!(!db.is_empty());
    }

    #[test]
    fn empty_database() {
        let db = UncertainDatabase::from_transactions(vec![]);
        assert!(db.is_empty());
        assert_eq!(db.num_items(), 0);
        let s = db.stats();
        assert_eq!(s.avg_transaction_len, 0.0);
        assert_eq!(s.density, 0.0);
    }

    #[test]
    fn paper_table1_expected_supports() {
        // Example 1 of the paper: esup(A) = 2.1 and esup(C) = 2.6, and with
        // min_esup = 0.5 (threshold 2.0) only {A} and {C} are frequent.
        let db = paper_table1();
        let esup = db.item_expected_supports();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(esup[0], 2.1)); // A
        assert!(close(esup[1], 1.4)); // B
        assert!(close(esup[2], 2.6)); // C
        assert!(close(esup[3], 1.2)); // D
        assert!(close(esup[4], 1.3)); // E
        assert!(close(esup[5], 1.8)); // F
        assert!(close(db.expected_support(&[0, 2]), 0.72 + 0.72 + 0.4));
    }

    #[test]
    fn support_moments_match_definition() {
        let db = paper_table1();
        let (esup, var) = db.support_moments(&[0]);
        assert!((esup - 2.1).abs() < 1e-12);
        // Var = Σ p(1-p) over p ∈ {0.8, 0.8, 0.5}
        let expect = 0.8 * 0.2 + 0.8 * 0.2 + 0.5 * 0.5;
        assert!((var - expect).abs() < 1e-12);
    }

    #[test]
    fn prob_vector_skips_zero_transactions() {
        let db = paper_table1();
        // D appears only in T1 (0.7) and T4 (0.5).
        assert_eq!(db.itemset_prob_vector(&[3]), vec![0.7, 0.5]);
    }

    #[test]
    fn stats_shape() {
        let db = paper_table1();
        let s = db.stats();
        assert_eq!(s.num_transactions, 4);
        assert_eq!(s.num_items, 6);
        assert_eq!(s.total_units, 5 + 4 + 4 + 3);
        assert!((s.avg_transaction_len - 4.0).abs() < 1e-12);
        assert!((s.density - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn truncated_keeps_prefix() {
        let db = paper_table1();
        let t = db.truncated(2);
        assert_eq!(t.num_transactions(), 2);
        assert_eq!(t.num_items(), 6);
        assert_eq!(db.truncated(99).num_transactions(), 4);
    }

    #[test]
    fn builder_roundtrip() {
        let mut b = UncertainDatabaseBuilder::new().num_items(10);
        b.push(Transaction::certain([1]));
        b.push_units([(2, 0.5)]).unwrap();
        assert!(b.push_units([(2, 0.0)]).is_err());
        let db = b.build();
        assert_eq!(db.num_transactions(), 2);
        assert_eq!(db.num_items(), 10);
    }
}
