//! Mining outputs: discovered itemsets with their support statistics, plus
//! per-run algorithm counters.

use crate::itemset::Itemset;
use std::fmt;

/// One discovered frequent itemset with the statistics the discovering
/// algorithm computed for it.
///
/// Not every algorithm fills every field: expected-support miners leave
/// `frequent_prob` as `None`; PDUApriori (paper §3.3.1) decides membership
/// through the Poisson CDF but "cannot return the frequent probability
/// values", so it too reports `None`.
#[derive(Clone, Debug, PartialEq)]
pub struct FrequentItemset {
    /// The itemset.
    pub itemset: Itemset,
    /// Expected support `esup(X) = Σ_t P_t(X)`.
    pub expected_support: f64,
    /// Variance of `sup(X)` when the algorithm computed it
    /// (Normal-approximation miners always do).
    pub variance: Option<f64>,
    /// Frequent probability `Pr{sup(X) ≥ msup}` when computed — exact for
    /// DP/DC, approximate for the Normal-based miners.
    pub frequent_prob: Option<f64>,
}

impl FrequentItemset {
    /// An expected-support-only record.
    pub fn with_esup(itemset: Itemset, esup: f64) -> Self {
        FrequentItemset {
            itemset,
            expected_support: esup,
            variance: None,
            frequent_prob: None,
        }
    }
}

/// Counters describing the work an algorithm performed. These power the
/// paper's qualitative analyses (e.g. "most infrequent itemsets are filtered
/// by the Chernoff bound"), and the ablation benches.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MinerStats {
    /// Candidates whose support statistics were evaluated.
    pub candidates_evaluated: u64,
    /// Candidates rejected by structural pruning (Apriori subset pruning,
    /// lookahead, etc.) before any support evaluation.
    pub candidates_pruned_structural: u64,
    /// Candidates rejected by the Chernoff bound (exact probabilistic miners
    /// only, §3.2.3).
    pub candidates_pruned_chernoff: u64,
    /// Candidates rejected by a count floor: fewer transactions with
    /// nonzero containment probability than any frequent itemset needs.
    /// Counts both the exact miners' screen (fewer than `msup`) and the
    /// level-wise pairs that the co-occurrence pass drops before level 2
    /// (those are never counted in `candidates_evaluated`).
    pub candidates_pruned_count: u64,
    /// Exact frequent-probability evaluations performed (DP or DC runs).
    pub exact_evaluations: u64,
    /// Number of database or projection scans. The level-wise scaffold's
    /// level-2 co-occurrence pass charges one.
    pub scans: u64,
    /// Tid-list intersections performed (vertical backend only — the
    /// vertical analog of `scans`).
    pub intersections: u64,
    /// Peak size of the algorithm's auxiliary structure, in that
    /// structure's own units: UFP-tree nodes, UH-Struct cells, or — on the
    /// columnar support engines — memoized `(tid, prob)` units (vertical)
    /// or dropped tids (diffset). Comparable within one algorithm/backend,
    /// not across them.
    pub peak_structure_nodes: u64,
    /// Peak **bytes** of a memoizing support engine's prefix memo
    /// (level-wise runs only; 0 elsewhere). Unlike
    /// [`MinerStats::peak_structure_nodes`], this is byte-accurate and
    /// directly comparable across backends — the vertical-vs-diffset
    /// memory axis.
    pub peak_memo_bytes: u64,
    /// Always 0. Kept only for the `perfbench` benchmark, its only
    /// reader.
    #[doc(hidden)]
    pub shards_evaluated: u64,
    /// Always 0. Kept only for the `perfbench` benchmark, its only
    /// reader.
    #[doc(hidden)]
    pub shards_pruned: u64,
    /// Border itemsets fully re-judged during an incremental window step:
    /// tracked itemsets a dirty transaction touched whose support bounds
    /// could not rule out a threshold crossing (0 on batch runs).
    pub border_rejudged: u64,
    /// Border itemsets skipped during an incremental window step — either
    /// untouched by every dirty transaction or ruled out by their
    /// maintained support bounds without re-evaluation (0 on batch runs).
    pub border_skipped: u64,
    /// Retained memo nodes a window step point-updated in place (touched
    /// chunks rewritten, cached block partials re-folded; 0 on batch runs).
    pub memo_patched: u64,
    /// Retained memo nodes a window step evicted instead of patching —
    /// the step changed too much of the node, or the node carried no
    /// patchable block partials; the next use re-folds it cold (0 on
    /// batch runs).
    pub memo_rebuilt: u64,
}

impl MinerStats {
    /// Merges counters from a sub-phase into `self`.
    pub fn absorb(&mut self, other: &MinerStats) {
        self.candidates_evaluated += other.candidates_evaluated;
        self.candidates_pruned_structural += other.candidates_pruned_structural;
        self.candidates_pruned_chernoff += other.candidates_pruned_chernoff;
        self.candidates_pruned_count += other.candidates_pruned_count;
        self.exact_evaluations += other.exact_evaluations;
        self.scans += other.scans;
        self.intersections += other.intersections;
        self.peak_structure_nodes = self.peak_structure_nodes.max(other.peak_structure_nodes);
        self.peak_memo_bytes = self.peak_memo_bytes.max(other.peak_memo_bytes);
        self.border_rejudged += other.border_rejudged;
        self.border_skipped += other.border_skipped;
        self.memo_patched += other.memo_patched;
        self.memo_rebuilt += other.memo_rebuilt;
    }
}

/// The complete result of one mining run.
#[derive(Clone, Debug, Default)]
pub struct MiningResult {
    /// All frequent itemsets found, in no particular order.
    pub itemsets: Vec<FrequentItemset>,
    /// Work counters.
    pub stats: MinerStats,
}

impl MiningResult {
    /// Number of frequent itemsets found.
    pub fn len(&self) -> usize {
        self.itemsets.len()
    }

    /// True when nothing was frequent.
    pub fn is_empty(&self) -> bool {
        self.itemsets.is_empty()
    }

    /// The discovered itemsets as a sorted list (canonical order for
    /// comparisons between algorithms).
    pub fn sorted_itemsets(&self) -> Vec<Itemset> {
        let mut v: Vec<Itemset> = self.itemsets.iter().map(|f| f.itemset.clone()).collect();
        v.sort();
        v
    }

    /// Looks up the record for a specific itemset.
    pub fn get(&self, itemset: &Itemset) -> Option<&FrequentItemset> {
        self.itemsets.iter().find(|f| &f.itemset == itemset)
    }

    /// Largest cardinality among discovered itemsets (0 when empty).
    pub fn max_len(&self) -> usize {
        self.itemsets
            .iter()
            .map(|f| f.itemset.len())
            .max()
            .unwrap_or(0)
    }

    /// Sorts records in place by itemset (stable canonical presentation).
    pub fn canonicalize(&mut self) {
        self.itemsets.sort_by(|a, b| a.itemset.cmp(&b.itemset));
    }
}

impl fmt::Display for MiningResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} frequent itemsets", self.itemsets.len())?;
        let mut sorted = self.itemsets.clone();
        sorted.sort_by(|a, b| a.itemset.cmp(&b.itemset));
        for fi in &sorted {
            write!(f, "  {}  esup={:.4}", fi.itemset, fi.expected_support)?;
            if let Some(v) = fi.variance {
                write!(f, "  var={v:.4}")?;
            }
            if let Some(p) = fi.frequent_prob {
                write!(f, "  Pr={p:.4}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MiningResult {
        MiningResult {
            itemsets: vec![
                FrequentItemset::with_esup(Itemset::from_items([2]), 2.6),
                FrequentItemset {
                    itemset: Itemset::from_items([0]),
                    expected_support: 2.1,
                    variance: Some(0.57),
                    frequent_prob: Some(0.72),
                },
            ],
            stats: MinerStats::default(),
        }
    }

    #[test]
    fn sorted_itemsets_are_canonical() {
        let r = sample();
        assert_eq!(
            r.sorted_itemsets(),
            vec![Itemset::from_items([0]), Itemset::from_items([2])]
        );
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.max_len(), 1);
    }

    #[test]
    fn get_finds_record() {
        let r = sample();
        let a = r.get(&Itemset::from_items([0])).unwrap();
        assert_eq!(a.frequent_prob, Some(0.72));
        assert!(r.get(&Itemset::from_items([9])).is_none());
    }

    #[test]
    fn canonicalize_sorts_in_place() {
        let mut r = sample();
        r.canonicalize();
        assert_eq!(r.itemsets[0].itemset, Itemset::from_items([0]));
    }

    #[test]
    fn display_lists_itemsets() {
        let s = sample().to_string();
        assert!(s.contains("2 frequent itemsets"));
        assert!(s.contains("{0}"));
        assert!(s.contains("Pr=0.7200"));
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = MinerStats {
            candidates_evaluated: 3,
            peak_structure_nodes: 10,
            ..Default::default()
        };
        let b = MinerStats {
            candidates_evaluated: 2,
            candidates_pruned_chernoff: 5,
            peak_structure_nodes: 7,
            border_rejudged: 4,
            border_skipped: 9,
            memo_patched: 6,
            memo_rebuilt: 2,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.candidates_evaluated, 5);
        assert_eq!(a.candidates_pruned_chernoff, 5);
        assert_eq!(a.peak_structure_nodes, 10);
        assert_eq!(a.border_rejudged, 4);
        assert_eq!(a.border_skipped, 9);
        assert_eq!(a.memo_patched, 6);
        assert_eq!(a.memo_rebuilt, 2);
    }
}
