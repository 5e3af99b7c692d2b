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

/// How [`MinerStats::absorb`] merges one counter, and so how the bench
/// regression gate treats it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// Sub-phases add up: a deterministic work count, strict in the gate.
    Sum,
    /// Sub-phases take the maximum: a memory peak, advisory in the gate.
    Max,
}

/// One entry of [`MinerStats::COUNTERS`]: a counter's field name, its
/// merge rule and accessors to the field.
#[derive(Clone, Copy, Debug)]
pub struct Counter {
    /// The field name, also the counter's key in bench snapshots.
    pub name: &'static str,
    /// How [`MinerStats::absorb`] merges it.
    pub merge: Merge,
    /// Reads the field.
    pub get: fn(&MinerStats) -> u64,
    /// The field, for writing.
    pub get_mut: fn(&mut MinerStats) -> &mut u64,
}

/// Declares every live counter once: the [`MinerStats`] field, its entry
/// in [`MinerStats::COUNTERS`] and its line in [`MinerStats::absorb`].
macro_rules! miner_stats {
    (@merge Sum, $acc:expr, $other:expr) => { $acc += $other };
    (@merge Max, $acc:expr, $other:expr) => { $acc = $acc.max($other) };
    ($($(#[doc = $doc:literal])* $name:ident: $merge:ident,)*) => {
        /// Counters describing the work an algorithm performed. These power
        /// the paper's qualitative analyses (e.g. "most infrequent itemsets
        /// are filtered by the Chernoff bound"), and the ablation benches.
        #[derive(Clone, Debug, Default, PartialEq)]
        pub struct MinerStats {
            $($(#[doc = $doc])* pub $name: u64,)*
            /// Always 0. Kept only for the `perfbench` benchmark, its only
            /// reader.
            #[doc(hidden)]
            pub shards_evaluated: u64,
            /// Always 0. Kept only for the `perfbench` benchmark, its only
            /// reader.
            #[doc(hidden)]
            pub shards_pruned: u64,
        }

        impl MinerStats {
            /// Every live counter, in declaration order.
            pub const COUNTERS: &'static [Counter] = &[$(Counter {
                name: stringify!($name),
                merge: Merge::$merge,
                get: |s| s.$name,
                get_mut: |s| &mut s.$name,
            },)*];

            /// Merges counters from a sub-phase into `self`, each by its
            /// [`Merge`] rule.
            pub fn absorb(&mut self, other: &MinerStats) {
                $(miner_stats!(@merge $merge, self.$name, other.$name);)*
            }
        }
    };
}

miner_stats! {
    /// Candidates whose support statistics were evaluated.
    candidates_evaluated: Sum,
    /// Candidates rejected by structural pruning (Apriori subset pruning,
    /// lookahead, etc.) before any support evaluation.
    candidates_pruned_structural: Sum,
    /// Candidates rejected by the Chernoff bound (exact probabilistic miners
    /// only, §3.2.3).
    candidates_pruned_chernoff: Sum,
    /// Candidates rejected by a count floor: fewer transactions with
    /// nonzero containment probability than any frequent itemset needs.
    /// Counts both the exact miners' screen (fewer than `msup`) and the
    /// level-wise pairs that the co-occurrence pass drops before level 2
    /// (those are never counted in `candidates_evaluated`).
    candidates_pruned_count: Sum,
    /// Exact frequent-probability evaluations performed (DP or DC runs).
    exact_evaluations: Sum,
    /// Number of database or projection scans. The level-wise scaffold's
    /// level-2 co-occurrence pass charges one.
    scans: Sum,
    /// Tid-list intersections performed (vertical backend only — the
    /// vertical analog of `scans`).
    intersections: Sum,
    /// Peak size of the algorithm's auxiliary structure, in that
    /// structure's own units: UFP-tree nodes, UH-Struct cells, or — on the
    /// columnar support engines — memoized `(tid, prob)` units (vertical)
    /// or dropped tids (diffset). Comparable within one algorithm/backend,
    /// not across them.
    peak_structure_nodes: Max,
    /// Peak **bytes** of a memoizing support engine's prefix memo
    /// (level-wise runs only; 0 elsewhere). Unlike
    /// [`MinerStats::peak_structure_nodes`], this is byte-accurate and
    /// directly comparable across backends — the vertical-vs-diffset
    /// memory axis.
    peak_memo_bytes: Max,
    /// Border itemsets fully re-judged during an incremental window step:
    /// tracked itemsets a dirty transaction touched whose support bounds
    /// could not rule out a threshold crossing (0 on batch runs).
    border_rejudged: Sum,
    /// Border itemsets skipped during an incremental window step — either
    /// untouched by every dirty transaction or ruled out by their
    /// maintained support bounds without re-evaluation (0 on batch runs).
    border_skipped: Sum,
    /// Retained memo nodes a window step point-updated in place (touched
    /// chunks rewritten, cached block partials re-folded; 0 on batch runs).
    memo_patched: Sum,
    /// Retained memo nodes a window step evicted instead of patching —
    /// the step changed too much of the node, or the node carried no
    /// patchable block partials; the next use re-folds it cold (0 on
    /// batch runs).
    memo_rebuilt: Sum,
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
        // Every table counter merges by its rule.
        let (mut acc, mut other) = (MinerStats::default(), MinerStats::default());
        for (i, counter) in MinerStats::COUNTERS.iter().enumerate() {
            *(counter.get_mut)(&mut acc) = 10 + i as u64;
            *(counter.get_mut)(&mut other) = 3 * i as u64;
        }
        acc.absorb(&other);
        for (i, counter) in MinerStats::COUNTERS.iter().enumerate() {
            let (a, b) = (10 + i as u64, 3 * i as u64);
            let want = match counter.merge {
                Merge::Sum => a + b,
                Merge::Max => a.max(b),
            };
            assert_eq!((counter.get)(&acc), want, "{}", counter.name);
        }
    }

    #[test]
    fn counter_table_lists_every_live_field_once() {
        // The field names `Debug` prints, in declaration order.
        let debug = format!("{:?}", MinerStats::default());
        let fields: Vec<&str> = debug
            .strip_prefix("MinerStats { ")
            .and_then(|t| t.strip_suffix(" }"))
            .expect("a braced struct")
            .split(", ")
            .map(|field| field.split(':').next().unwrap())
            .filter(|f| !f.starts_with("shards_"))
            .collect();
        let names: Vec<&str> = MinerStats::COUNTERS.iter().map(|c| c.name).collect();
        assert_eq!(fields, names);
        assert_eq!(names.len(), 13);
        let peaks: Vec<&str> = MinerStats::COUNTERS
            .iter()
            .filter(|c| c.merge == Merge::Max)
            .map(|c| c.name)
            .collect();
        assert_eq!(peaks, ["peak_structure_nodes", "peak_memo_bytes"]);
        // Each accessor reaches its own field and no other.
        for (i, counter) in MinerStats::COUNTERS.iter().enumerate() {
            let mut stats = MinerStats::default();
            *(counter.get_mut)(&mut stats) = 7;
            assert_eq!((counter.get)(&stats), 7, "{}", counter.name);
            for (j, other) in MinerStats::COUNTERS.iter().enumerate() {
                assert_eq!((other.get)(&stats), if i == j { 7 } else { 0 });
            }
            assert!(
                format!("{stats:?}").contains(&format!("{}: 7", counter.name)),
                "{}",
                counter.name
            );
        }
    }
}
