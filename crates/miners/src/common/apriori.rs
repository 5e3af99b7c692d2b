//! The level-wise (breadth-first) Apriori scaffold shared by UApriori,
//! PDUApriori, NDUApriori and the exact probabilistic miners.
//!
//! The scaffold owns what is common to all of them — candidate generation,
//! subset-based structural pruning, and the loop over levels — and
//! delegates the *judgment* (which candidates of a level are frequent, and
//! with what statistics) to a [`LevelEvaluator`]. That split is exactly the
//! paper's observation that the four Apriori-framework algorithms differ
//! only in how they evaluate a candidate's support random variable.
//!
//! Level 2 comes from [`pair_candidates`]: one pass over the transactions
//! counts every pair of frequent items into a triangular array, and only
//! the pairs that reach the evaluator's [`count_floor`](LevelEvaluator::count_floor)
//! are built and evaluated. Levels ≥ 3 (and the incremental refresh) use
//! the prefix join of [`generate_candidates`].

use ufim_core::{
    FrequentItemset, FxHashSet, ItemId, Itemset, MinerStats, MiningResult, UncertainDatabase,
};

/// Judges one level of candidates. Implementations scan the database however
/// they need (once for expectation-based miners, twice for Chernoff-pruned
/// exact miners) and return the surviving itemsets with their records.
pub trait LevelEvaluator {
    /// Evaluates `candidates` (all of size `level`), pushing survivors into
    /// the result and updating `stats`.
    fn evaluate_level(
        &mut self,
        db: &UncertainDatabase,
        level: usize,
        candidates: &[Itemset],
        stats: &mut MinerStats,
    ) -> Vec<FrequentItemset>;

    /// A sound nonzero-count floor: an itemset contained in fewer than this
    /// many transactions is never judged frequent. The scaffold drops the
    /// pairs below it before they reach [`evaluate_level`](Self::evaluate_level).
    /// `None` (the default) means the judgment has no such floor, and every
    /// pair of frequent items is evaluated.
    fn count_floor(&self) -> Option<u64> {
        None
    }
}

/// Runs the level-wise loop: singletons, then pairs from the co-occurrence
/// pass, then join/prune/evaluate until a level produces nothing.
pub fn run_apriori<E: LevelEvaluator>(db: &UncertainDatabase, evaluator: &mut E) -> MiningResult {
    let mut result = MiningResult::default();
    if db.is_empty() {
        return result;
    }

    // Level 1: every item in the vocabulary is a candidate.
    let mut candidates: Vec<Itemset> = (0..db.num_items()).map(Itemset::singleton).collect();
    let mut level = 1usize;

    while !candidates.is_empty() {
        let frequent = evaluator.evaluate_level(db, level, &candidates, &mut result.stats);
        if frequent.is_empty() {
            break;
        }
        candidates = if level == 1 {
            pair_candidates(db, &frequent, evaluator.count_floor(), &mut result.stats)
        } else {
            generate_candidates(&frequent, &mut result.stats)
        };
        result.itemsets.extend(frequent);
        level += 1;
    }
    result
}

/// Level-2 candidates: every pair of the frequent `singletons`, in the
/// order [`generate_candidates`] would produce them, except the pairs that
/// co-occur in fewer than `floor` transactions.
///
/// With a nonzero `floor` this charges one scan. A first sweep counts each
/// frequent item's transactions. If the two smallest counts `c_a`, `c_b`
/// satisfy `c_a + c_b − N ≥ floor`, every pair clears the floor by
/// inclusion–exclusion and no pair is counted. Otherwise a second sweep
/// counts each transaction's pairs of frequent items into a `u32`
/// triangular array. Dropped pairs are charged to
/// [`MinerStats::candidates_pruned_count`]. The counts are integers, so the
/// output is the same at any pool size.
pub fn pair_candidates(
    db: &UncertainDatabase,
    singletons: &[FrequentItemset],
    floor: Option<u64>,
    stats: &mut MinerStats,
) -> Vec<Itemset> {
    let mut items: Vec<ItemId> = singletons.iter().map(|f| f.itemset.items()[0]).collect();
    items.sort_unstable();
    let floor = floor.unwrap_or(0);
    let counts = if floor > 0 && items.len() >= 2 {
        co_occurrences(db, &items, floor, stats)
    } else {
        None
    };
    let mut out = Vec::new();
    let mut k = 0;
    for (a, &x) in items.iter().enumerate() {
        for &y in &items[a + 1..] {
            if counts.as_ref().is_none_or(|c| u64::from(c[k]) >= floor) {
                out.push(Itemset::from_sorted_vec(vec![x, y]));
            } else {
                stats.candidates_pruned_count += 1;
            }
            k += 1;
        }
    }
    out
}

/// The co-occurrence count of every pair of `items` (sorted ascending), as
/// a row-major upper triangle over their ranks — or `None` when the item
/// counts alone prove that every pair reaches `floor`.
fn co_occurrences(
    db: &UncertainDatabase,
    items: &[ItemId],
    floor: u64,
    stats: &mut MinerStats,
) -> Option<Vec<u32>> {
    stats.scans += 1;
    let f = items.len();
    let mut rank = vec![u32::MAX; db.num_items() as usize];
    for (r, &item) in items.iter().enumerate() {
        rank[item as usize] = r as u32;
    }
    let mut counts = vec![0u32; f];
    for t in db.transactions() {
        for &item in t.items() {
            if let Some(c) = counts.get_mut(rank[item as usize] as usize) {
                *c += 1;
            }
        }
    }
    if every_pair_clears(&counts, db.num_transactions(), floor) {
        return None;
    }

    // Row `a` of the triangle holds the pairs (a, a+1..f).
    let row_start: Vec<usize> = (0..f).map(|a| a * (2 * f - a - 1) / 2).collect();
    let mut pairs = vec![0u32; f * (f - 1) / 2];
    let mut ranks: Vec<usize> = Vec::new();
    for t in db.transactions() {
        ranks.clear();
        ranks.extend(
            t.items()
                .iter()
                .map(|&item| rank[item as usize] as usize)
                .filter(|&r| r < f),
        );
        // Items are sorted, so ranks ascend along the transaction.
        for (x, &a) in ranks.iter().enumerate() {
            let row = &mut pairs[row_start[a]..row_start[a] + (f - 1 - a)];
            for &b in &ranks[x + 1..] {
                row[b - a - 1] += 1;
            }
        }
    }
    Some(pairs)
}

/// Inclusion–exclusion: a pair of items with `c_a` and `c_b` transactions
/// among `n` co-occurs in at least `c_a + c_b − n` of them, so when the two
/// smallest counts already reach `floor + n` no pair can fall below `floor`.
fn every_pair_clears(counts: &[u32], n: usize, floor: u64) -> bool {
    let (mut lo, mut hi) = (u64::MAX, u64::MAX);
    for &c in counts {
        let c = u64::from(c);
        if c < lo {
            (lo, hi) = (c, lo);
        } else if c < hi {
            hi = c;
        }
    }
    lo.saturating_add(hi) >= floor.saturating_add(n as u64)
}

/// Apriori candidate generation: join frequent k-itemsets sharing a
/// (k−1)-prefix, then prune candidates with any infrequent k-subset
/// (downward closure, which holds for both frequency definitions).
pub fn generate_candidates(frequent: &[FrequentItemset], stats: &mut MinerStats) -> Vec<Itemset> {
    let mut sorted: Vec<&[ItemId]> = frequent.iter().map(|f| f.itemset.items()).collect();
    sorted.sort_unstable();
    let mut out = Vec::new();
    join_candidates(&sorted, stats, |items| {
        out.push(Itemset::from_sorted_vec(items.to_vec()));
    });
    out
}

/// The prefix join behind [`generate_candidates`], over the item slices of
/// the frequent k-itemsets in ascending order: calls `emit` with the items
/// of every (k+1)-candidate that passes the subset prune, in ascending
/// order, from one reused buffer, and charges the others to
/// [`MinerStats::candidates_pruned_structural`]. A caller that already
/// holds some candidates can keep them and allocate only the new ones.
pub(crate) fn join_candidates(
    sorted: &[&[ItemId]],
    stats: &mut MinerStats,
    mut emit: impl FnMut(&[ItemId]),
) {
    // Keyed by item slices so the subset probes below can test membership
    // from a reused buffer without building an `Itemset` per probe.
    let frequent_set: FxHashSet<&[ItemId]> = sorted.iter().copied().collect();
    // One scratch buffer serves every subset probe of every candidate,
    // and one more every emitted candidate: candidate generation runs once
    // per level on the hot path.
    let mut probe: Vec<ItemId> = Vec::new();
    let mut candidate: Vec<ItemId> = Vec::new();
    for (i, &a) in sorted.iter().enumerate() {
        let Some((&a_last, prefix)) = a.split_last() else {
            continue;
        };
        for &b in &sorted[i + 1..] {
            // Sorted order groups equal prefixes together: once the prefix
            // differs, no later itemset can join with `a`.
            let Some((&last, b_prefix)) = b.split_last() else {
                break;
            };
            if b_prefix != prefix || last <= a_last {
                break;
            }
            // Subset prune: every k-subset of the (k+1)-candidate `a ∪
            // {last}` must be frequent. The two join parents are; probe the
            // subsets that drop one prefix item, without building the
            // candidate first.
            let ok = (0..prefix.len()).all(|skip| {
                probe.clear();
                probe.extend_from_slice(&a[..skip]);
                probe.extend_from_slice(&a[skip + 1..]);
                probe.push(last);
                frequent_set.contains(probe.as_slice())
            });
            if ok {
                candidate.clear();
                candidate.extend_from_slice(a);
                candidate.push(last);
                emit(&candidate);
            } else {
                stats.candidates_pruned_structural += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufim_core::examples::paper_table1;
    use ufim_core::Ratio;

    /// Minimal evaluator: plain expected-support counting via the reference
    /// database scan (quadratic, test-only).
    struct NaiveEsup {
        threshold: f64,
    }

    impl LevelEvaluator for NaiveEsup {
        fn evaluate_level(
            &mut self,
            db: &UncertainDatabase,
            _level: usize,
            candidates: &[Itemset],
            stats: &mut MinerStats,
        ) -> Vec<FrequentItemset> {
            stats.scans += 1;
            candidates
                .iter()
                .filter_map(|c| {
                    stats.candidates_evaluated += 1;
                    let esup = db.expected_support(c.items());
                    (esup >= self.threshold).then(|| FrequentItemset::with_esup(c.clone(), esup))
                })
                .collect()
        }
    }

    #[test]
    fn scaffold_reproduces_example1() {
        let db = paper_table1();
        let threshold = Ratio::new("min_esup", 0.5).unwrap().threshold_real(4);
        let mut eval = NaiveEsup { threshold };
        let result = run_apriori(&db, &mut eval);
        assert_eq!(
            result.sorted_itemsets(),
            vec![Itemset::singleton(0), Itemset::singleton(2)]
        );
        // {A,C} was generated as a candidate (both parents frequent) but
        // fails the threshold, so level 2 is evaluated and empty.
        assert!(result.stats.scans >= 2);
    }

    #[test]
    fn scaffold_finds_multilevel_itemsets() {
        let db = paper_table1();
        let mut eval = NaiveEsup { threshold: 1.0 }; // min_esup = 0.25
        let result = run_apriori(&db, &mut eval);
        // All six items are frequent; {A,C} has esup 1.84 ≥ 1.0 and more.
        assert!(result.get(&Itemset::from_items([0, 2])).is_some());
        let ac = result.get(&Itemset::from_items([0, 2])).unwrap();
        assert!((ac.expected_support - 1.84).abs() < 1e-12);
        // Triple {A,C,E}: T2 0.8·0.9·0.5 + T3 0.5·0.8·0.8 = 0.36+0.32 = 0.68.
        let ace = result.get(&Itemset::from_items([0, 2, 4]));
        assert!(ace.is_none(), "esup 0.68 < 1.0 must be excluded");
    }

    #[test]
    fn empty_db_short_circuits() {
        let db = UncertainDatabase::from_transactions(vec![]);
        let mut eval = NaiveEsup { threshold: 1.0 };
        let result = run_apriori(&db, &mut eval);
        assert!(result.is_empty());
        assert_eq!(result.stats.scans, 0);
    }

    #[test]
    fn candidate_generation_joins_and_prunes() {
        let mut stats = MinerStats::default();
        let freq: Vec<FrequentItemset> = [[1u32, 2], [1, 3], [2, 3], [2, 4]]
            .iter()
            .map(|pair| FrequentItemset::with_esup(Itemset::from_items(*pair), 1.0))
            .collect();
        let cands = generate_candidates(&freq, &mut stats);
        // {1,2}+{1,3} → {1,2,3}: all subsets frequent ✓
        // {2,3}+{2,4} → {2,3,4}: subset {3,4} missing ✗ (structural prune)
        assert_eq!(cands, vec![Itemset::from_items([1, 2, 3])]);
        assert_eq!(stats.candidates_pruned_structural, 1);
    }

    /// 400 transactions over 30 items; item `i` is present with
    /// probability `0.05 + i/60`, so counts spread from rare to common.
    fn random_db(seed: u64) -> UncertainDatabase {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let transactions = (0..400)
            .map(|_| {
                let units: Vec<(ItemId, f64)> = (0..30u32)
                    .filter_map(|i| {
                        let present = rng.gen_bool(0.05 + f64::from(i) / 60.0);
                        present.then(|| (i, rng.gen_range(0.1..=1.0)))
                    })
                    .collect();
                ufim_core::Transaction::new(units).unwrap()
            })
            .collect();
        UncertainDatabase::with_num_items(transactions, 30)
    }

    fn singletons(items: &[ItemId]) -> Vec<FrequentItemset> {
        items
            .iter()
            .map(|&i| FrequentItemset::with_esup(Itemset::singleton(i), 1.0))
            .collect()
    }

    /// Transactions containing every item of `set`.
    fn co_count(db: &UncertainDatabase, set: &Itemset) -> u64 {
        db.transactions()
            .iter()
            .filter(|t| set.is_subset_of_sorted(t.items()))
            .count() as u64
    }

    #[test]
    fn pair_pass_without_floor_is_the_prefix_join() {
        let db = random_db(7);
        // Level 1 emits in item order; the join sorts, the pass must too.
        let single = singletons(&[29, 3, 4, 11, 0, 17, 25]);
        let mut join_stats = MinerStats::default();
        let joined = generate_candidates(&single, &mut join_stats);
        for floor in [None, Some(0)] {
            let mut stats = MinerStats::default();
            assert_eq!(pair_candidates(&db, &single, floor, &mut stats), joined);
            assert_eq!(stats, MinerStats::default(), "no floor: no scan, no prune");
        }
    }

    #[test]
    fn pair_pass_drops_exactly_the_pairs_below_the_floor() {
        let db = random_db(11);
        let single = singletons(&(0..30).collect::<Vec<_>>());
        let all = generate_candidates(&single, &mut MinerStats::default());
        for floor in [1u64, 20, 45, 80, 150, 401] {
            let want: Vec<Itemset> = all
                .iter()
                .filter(|c| co_count(&db, c) >= floor)
                .cloned()
                .collect();
            let mut stats = MinerStats::default();
            let got = pair_candidates(&db, &single, Some(floor), &mut stats);
            assert_eq!(got, want, "floor {floor}");
            assert_eq!(stats.scans, 1);
            assert_eq!(
                stats.candidates_pruned_count,
                (all.len() - want.len()) as u64
            );
        }
    }

    #[test]
    fn skip_test_fires_exactly_at_the_inclusion_exclusion_bound() {
        // Two smallest counts 5 and 6 over N = 8: every pair co-occurs in
        // at least 5 + 6 − 8 = 3 transactions.
        let counts = [9, 6, 8, 5];
        assert!(every_pair_clears(&counts, 8, 2));
        assert!(every_pair_clears(&counts, 8, 3));
        assert!(!every_pair_clears(&counts, 8, 4));
        // Counts whose sum falls short of N prove nothing.
        assert!(!every_pair_clears(&[1, 2], 8, 1));

        // Items 0 and 1 in 5 and 6 of 8 transactions, co-occurring in 3.
        let tx = |items: &[ItemId]| ufim_core::Transaction::certain(items.iter().copied());
        let db = UncertainDatabase::from_transactions(vec![
            tx(&[0, 1]),
            tx(&[0, 1]),
            tx(&[0, 1]),
            tx(&[0]),
            tx(&[0]),
            tx(&[1]),
            tx(&[1]),
            tx(&[1]),
        ]);
        let single = singletons(&[0, 1]);
        for (floor, kept) in [(3, 1), (4, 0)] {
            let mut stats = MinerStats::default();
            let got = pair_candidates(&db, &single, Some(floor), &mut stats);
            assert_eq!(got.len(), kept, "floor {floor}");
            assert_eq!(stats.candidates_pruned_count, 1 - kept as u64);
        }
    }

    #[test]
    fn zero_or_one_frequent_item_emits_no_pair() {
        let db = random_db(3);
        for items in [&[][..], &[4][..]] {
            for floor in [None, Some(1), Some(1_000)] {
                let mut stats = MinerStats::default();
                assert!(pair_candidates(&db, &singletons(items), floor, &mut stats).is_empty());
                assert_eq!(stats, MinerStats::default());
            }
        }
    }

    #[test]
    fn pair_at_exactly_the_threshold_survives_every_floor() {
        use crate::common::measure::{
            mine_level_wise, ExactKernel, ExactMeasure, ExpectedSupport, FrequentnessMeasure,
            MeasureEvaluator, NormalApprox, PoissonApprox,
        };
        use ufim_core::{EngineKind, MiningParams};

        // Certain data over N = 10: items 0, 1, 3 in 7, 8 and 5
        // transactions, item 2 in 3. Pairs {0,1} and {1,3} co-occur in
        // exactly 5 transactions — esup = count = the threshold — and
        // {0,3} in 2.
        let tx = |items: &[ItemId]| ufim_core::Transaction::certain(items.iter().copied());
        let db = UncertainDatabase::from_transactions(vec![
            tx(&[0, 2]),
            tx(&[0, 2]),
            tx(&[0, 1, 2]),
            tx(&[0, 1]),
            tx(&[0, 1]),
            tx(&[0, 1, 3]),
            tx(&[0, 1, 3]),
            tx(&[1, 3]),
            tx(&[1, 3]),
            tx(&[1, 3]),
        ]);
        let params = MiningParams::new(0.5, 0.5).unwrap();
        let (n, msup) = (db.num_transactions(), params.msup(db.num_transactions()));
        assert_eq!(msup, 5);

        // `pruned`: {0,3} at level 2, plus item 2 where a count screen
        // runs at level 1.
        fn check<M: FrequentnessMeasure + Clone>(db: &UncertainDatabase, m: M, pruned: u64) {
            let evaluator = MeasureEvaluator {
                measure: m.clone(),
                engine: crate::common::engine::build_engine(EngineKind::Vertical, db),
                capture: None,
            };
            assert_eq!(evaluator.count_floor(), Some(5), "{}", m.name());
            for engine in EngineKind::ALL {
                let r = mine_level_wise(db, m.clone(), engine);
                let at = format!("{}/{engine}", m.name());
                assert!(r.get(&Itemset::from_items([0, 1])).is_some(), "{at}");
                assert!(r.get(&Itemset::from_items([1, 3])).is_some(), "{at}");
                assert!(r.get(&Itemset::from_items([0, 3])).is_none(), "{at}");
                assert_eq!(r.stats.candidates_pruned_count, pruned, "{at}");
            }
        }
        check(
            &db,
            ExpectedSupport::new(params.min_sup.threshold_real(n)),
            1,
        );
        let poisson = PoissonApprox::from_params(n, &params).unwrap().unwrap();
        assert!(poisson.threshold() > 4.0 && poisson.threshold() <= 5.0);
        check(&db, poisson, 1);
        check(&db, NormalApprox::new(msup, 0.5), 1);
        let exact = ExactMeasure::new(ExactKernel::DynamicProgramming, true, n, &params);
        check(&db, exact, 2);
    }

    #[test]
    fn candidate_generation_from_singletons() {
        let mut stats = MinerStats::default();
        let freq: Vec<FrequentItemset> = [5u32, 2, 9]
            .iter()
            .map(|&i| FrequentItemset::with_esup(Itemset::singleton(i), 1.0))
            .collect();
        let mut cands = generate_candidates(&freq, &mut stats);
        cands.sort();
        assert_eq!(
            cands,
            vec![
                Itemset::from_items([2, 5]),
                Itemset::from_items([2, 9]),
                Itemset::from_items([5, 9]),
            ]
        );
    }
}
