//! Sliding-window incremental mining: the miners' end of the tid-delta
//! seam.
//!
//! [`IncrementalMiner`] owns a [`WindowedDatabase`] and keeps its mining
//! result *fresh* across window steps without re-mining from scratch. Each
//! [`IncrementalMiner::refresh`] drains the window's pending mutations into
//! one [`WindowStep`] and loads it into the miner's [`StepProbe`], the only
//! form in which the step reaches the support engine
//! ([`SupportEngine::apply_window_step`] — postings point updates and memo
//! patches on the columnar backends; the horizontal fall-back scans a new
//! snapshot instead). It then replays the level-wise candidate stream,
//! re-judging **only** the itemsets the step could actually move across
//! the frequent/infrequent border.
//!
//! # The border argument
//!
//! [`BorderTracker`] caches, for every itemset of the last refresh's
//! candidate stream, which side of the border it landed on:
//!
//! * **Frequent** entries keep the exact statistics of the record they
//!   reported. An entry is *touched* by a step iff some dirty slot changes
//!   the itemset's containment probability (`old.itemset_prob(X) !=
//!   new.itemset_prob(X)`). An untouched itemset's per-transaction
//!   probability vector is unchanged, so every statistic derived from it —
//!   and therefore the measure's verdict and record — is bit-identical to
//!   what a from-scratch evaluation would produce; the cached record is
//!   reused verbatim.
//! * **Infrequent** entries keep maintained *upper bounds* on the
//!   statistics that could promote them. A touched entry first grows its
//!   bounds by what the step could have added (`Σ max(new − old, 0)` mass,
//!   newly nonzero slots for the count); if the grown bound still sits
//!   below the measure's own sound cut
//!   ([`FrequentnessMeasure::min_esup_bound`] /
//!   [`FrequentnessMeasure::min_count_bound`]), the itemset provably
//!   cannot have crossed the border and is skipped without evaluation.
//!   The esup cut is the threshold for Definition 2 and the Poisson
//!   measure, the derived Normal-tail bound for the Normal measure, and
//!   the Chernoff screen's esup cut for the exact B measures, which also
//!   cut on the count `msup`. The exact NB measures have no cut, so every
//!   touched infrequent entry of theirs is re-judged.
//!
//! Everything else — new candidates, touched frequent itemsets, touched
//! infrequent itemsets whose bounds could cross — goes through the engine
//! exactly as the batch [`MeasureEvaluator`](super::measure::MeasureEvaluator)
//! would evaluate it. By induction over levels, each refresh therefore
//! reproduces the records of batch-mining the window snapshot **bit for
//! bit** (the same candidate stream, the same statistics per candidate, the
//! same measure object), while the *work counters* differ by design: the
//! whole point is that [`MinerStats::candidates_evaluated`] shrinks to the
//! border traffic, with [`MinerStats::border_skipped`] and
//! [`MinerStats::border_rejudged`] accounting for the rest.
//!
//! # Work per step
//!
//! Only an itemset holding a *moved* item ([`StepProbe::moved_items`]) can
//! be touched, so a refresh never looks at the others. The tracker keeps
//! one candidate list per level, in the stream's lexicographic order:
//!
//! * level 1 is indexed by item id, and a refresh visits only the moved
//!   items;
//! * level k ≥ 2 is reused as it stands while level k − 1's frequent *set*
//!   is unchanged (a record whose statistics moved but that stayed frequent
//!   changes nothing), because the prefix join would regenerate exactly
//!   the stored list; a refresh then visits only the candidates that hold
//!   a moved item and charges the list's recorded structural prunes again.
//!   When the set did change, the join is merge-walked against the stored
//!   list: carried candidates keep their entries, new ones start unjudged,
//!   and those that left the stream are dropped.
//!
//! A level that ends the stream (no frequent itemset) drops every level
//! above it, so the tracker never holds more than one candidate stream.
//!
//! Fresh candidates are evaluated with the batch evaluator's
//! [`StatRequest`], the measure's cuts included. The cuts only decide
//! which candidates' vectors an engine exports for the level: every
//! engine returns exact moments whatever the thresholds, so the tracker
//! caches an infrequent candidate's evaluated moments as sound upper
//! bounds, and a candidate below the cut costs no vector.

use super::apriori::join_candidates;
use super::engine::{DiffsetEngine, HorizontalScan, StatRequest, SupportEngine, VerticalEngine};
use super::measure::{judge_level, FrequentnessMeasure, Judgment, ShardPlan};
use ufim_core::{
    CoreError, EngineKind, FrequentItemset, ItemId, Itemset, MinerStats, MiningResult, StepProbe,
    Transaction, UncertainDatabase, WindowStep, WindowedDatabase,
};

/// Cached verdict of one tracked candidate (see [`BorderTracker`]).
#[derive(Clone, Copy, Debug)]
enum Verdict {
    /// New to the candidate stream: not judged yet.
    New,
    /// Judged frequent at the last refresh that evaluated it: the exact
    /// record it reported, reused verbatim while untouched.
    Frequent(Judgment),
    /// Judged (or bound-proven) infrequent, with maintained **upper
    /// bounds** on the statistics that could promote it across the border.
    Infrequent {
        /// Sound upper bound on the itemset's expected support.
        esup_ub: f64,
        /// Sound upper bound on its nonzero-transaction count (`Some` only
        /// when the active measure requests counts).
        count_ub: Option<u64>,
    },
}

/// One tracked candidate: its itemset and cached verdict.
#[derive(Clone, Debug)]
struct Entry {
    itemset: Itemset,
    verdict: Verdict,
}

impl Entry {
    fn new(itemset: Itemset) -> Self {
        Entry {
            itemset,
            verdict: Verdict::New,
        }
    }

    fn is_frequent(&self) -> bool {
        matches!(self.verdict, Verdict::Frequent(_))
    }

    /// The cached record of a frequent entry.
    fn record(&self) -> Option<FrequentItemset> {
        match self.verdict {
            Verdict::Frequent(j) => Some(FrequentItemset {
                itemset: self.itemset.clone(),
                expected_support: j.expected_support,
                variance: j.variance,
                frequent_prob: j.frequent_prob,
            }),
            _ => None,
        }
    }

    /// Dispatches the entry against the step (read through its
    /// [`StepProbe`]): `None` when its cached verdict provably still holds,
    /// else `Some(rejudge)`, where `rejudge` marks an invalidated judged
    /// entry as opposed to a new one.
    fn classify(
        &mut self,
        probe: &StepProbe,
        min_esup: Option<f64>,
        min_count: Option<u64>,
    ) -> Option<bool> {
        let items = self.itemset.items();
        match &mut self.verdict {
            Verdict::New => Some(false),
            // A touched frequent itemset's record (its exact esup at the
            // least) changed, so it must be re-evaluated regardless of
            // whether it stays frequent. An untouched one has identical
            // containment probability in every dirty slot: its vector —
            // hence every derived statistic and the measure's verdict — is
            // unchanged.
            Verdict::Frequent(_) => probe.touches(items).then_some(true),
            Verdict::Infrequent { esup_ub, count_ub } => {
                let (touched, added_mass, added_count) = probe.growth(items);
                if !touched {
                    return None;
                }
                *esup_ub += added_mass;
                if let Some(c) = count_ub.as_mut() {
                    *c += added_count;
                }
                let below_esup = min_esup.is_some_and(|b| *esup_ub < b);
                let below_count = matches!((min_count, *count_ub), (Some(b), Some(c)) if c < b);
                (!(below_esup || below_count)).then_some(true)
            }
        }
    }
}

/// One level of the tracked candidate stream.
#[derive(Debug, Default)]
struct Level {
    /// The level's candidates in ascending order (level 1: every item of
    /// the vocabulary, indexed by id).
    entries: Vec<Entry>,
    /// Positions of the frequent entries, ascending.
    frequent: Vec<u32>,
    /// Structural prunes the join charged when it generated `entries`;
    /// charged again at every refresh that reuses them.
    pruned_structural: u64,
}

impl Level {
    /// The frequent records, in candidate order.
    fn records(&self) -> Vec<FrequentItemset> {
        self.frequent
            .iter()
            .filter_map(|&p| self.entries[p as usize].record())
            .collect()
    }
}

/// The frequent/infrequent border of the last refresh, per measure.
///
/// One entry per itemset of the last candidate stream, kept as one
/// ascending candidate list per level: frequent itemsets carry their exact
/// cached record, infrequent ones maintained upper bounds (see the
/// [module docs](self) for the reuse argument and for which entries a
/// refresh visits). Candidates that fall out of the stream — descendants
/// of an itemset that went infrequent — are dropped when their level is
/// regenerated or cut off, so the tracker's footprint is bounded by one
/// candidate stream.
#[derive(Debug, Default)]
pub struct BorderTracker {
    levels: Vec<Level>,
    /// Per item id: whether the step being refreshed moved it. Sized once
    /// to the vocabulary; a refresh sets and clears only the moved items.
    moved: Vec<bool>,
}

impl BorderTracker {
    /// Number of tracked itemsets (the last candidate stream's length).
    pub fn len(&self) -> usize {
        self.levels.iter().map(|l| l.entries.len()).sum()
    }

    /// True before the first refresh evaluates anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Level 1 for this refresh: every item on the first one, afterwards
    /// only the moved items (positions are item ids).
    fn visit_singletons(&mut self, probe: &StepProbe, num_items: u32) -> Vec<u32> {
        if self.levels.is_empty() {
            self.levels.push(Level {
                entries: (0..num_items)
                    .map(|i| Entry::new(Itemset::singleton(i)))
                    .collect(),
                ..Level::default()
            });
            return (0..num_items).collect();
        }
        probe.moved_items().to_vec()
    }

    /// Level `k` (0-based, `k ≥ 1`) while level `k − 1`'s frequent set is
    /// unchanged: the stored list, and the positions that hold a moved item.
    fn visit_reused(&self, k: usize, stats: &mut MinerStats) -> Vec<u32> {
        let level = &self.levels[k];
        stats.candidates_pruned_structural += level.pruned_structural;
        (0..level.entries.len() as u32)
            .filter(|&p| holds_moved(&self.moved, level.entries[p as usize].itemset.items()))
            .collect()
    }

    /// Regenerates level `k` (0-based, `k ≥ 1`) from level `k − 1`'s
    /// frequent itemsets: the prefix join, merge-walked against the stored
    /// list. Returns the positions to visit — new candidates and carried
    /// ones that hold a moved item — and whether a frequent entry dropped
    /// out of the stream.
    fn visit_regenerated(&mut self, k: usize, stats: &mut MinerStats) -> (Vec<u32>, bool) {
        if self.levels.len() == k {
            self.levels.push(Level::default());
        }
        let (below, above) = self.levels.split_at_mut(k);
        let parent = &below[k - 1];
        let level = &mut above[0];
        let moved = &self.moved;
        let sorted: Vec<&[ItemId]> = parent
            .frequent
            .iter()
            .map(|&p| parent.entries[p as usize].itemset.items())
            .collect();
        let mut old = std::mem::take(&mut level.entries).into_iter().peekable();
        level.frequent.clear();
        let (entries, frequent) = (&mut level.entries, &mut level.frequent);
        let mut visit = Vec::new();
        let mut dropped_frequent = false;
        let pruned_before = stats.candidates_pruned_structural;
        join_candidates(&sorted, stats, |items| {
            while let Some(e) = old.next_if(|e| e.itemset.items() < items) {
                dropped_frequent |= e.is_frequent();
            }
            let p = entries.len() as u32;
            let entry = match old.next_if(|e| e.itemset.items() == items) {
                Some(e) => {
                    if e.is_frequent() {
                        frequent.push(p);
                    }
                    if holds_moved(moved, items) {
                        visit.push(p);
                    }
                    e
                }
                None => {
                    visit.push(p);
                    Entry::new(Itemset::from_sorted_vec(items.to_vec()))
                }
            };
            entries.push(entry);
        });
        dropped_frequent |= old.any(|e| e.is_frequent());
        level.pruned_structural = stats.candidates_pruned_structural - pruned_before;
        (visit, dropped_frequent)
    }
}

/// Whether `items` holds an item the step moved (`moved` is indexed by
/// item id).
fn holds_moved(moved: &[bool], items: &[ItemId]) -> bool {
    items.iter().any(|&i| moved[i as usize])
}

/// One incremental level: classify the visited candidates against the
/// border, evaluate the ones that need it exactly like the batch evaluator,
/// and hand the level's frequent records, in candidate order, to the
/// engine and to `out`. Returns whether the level's frequent set changed.
fn evaluate_level<M: FrequentnessMeasure>(
    engine: &mut dyn SupportEngine,
    measure: &M,
    level: &mut Level,
    visit: &[u32],
    probe: &StepProbe,
    stats: &mut MinerStats,
    out: &mut Vec<FrequentItemset>,
) -> bool {
    let needs = measure.needs();
    let (min_esup, min_count) = (measure.min_esup_bound(), measure.min_count_bound());
    // The batch evaluator's request, cuts included (see the module docs).
    let want = StatRequest {
        variance: needs.variance,
        count: needs.count,
        min_esup,
        min_count,
    };

    let mut fresh_at: Vec<u32> = Vec::new();
    for &p in visit {
        if let Some(rejudge) = level.entries[p as usize].classify(probe, min_esup, min_count) {
            stats.border_rejudged += u64::from(rejudge);
            fresh_at.push(p);
        }
    }
    stats.border_skipped += (level.entries.len() - fresh_at.len()) as u64;

    let mut changed = false;
    if !fresh_at.is_empty() {
        // The fresh subset runs through `judge_level`, the batch evaluator's
        // judge, exactly as a batch mine would run the whole level. Its
        // itemsets are lent to the engine and put back afterwards. Reused
        // prefixes may be absent from the engine's memo; every backend
        // falls back to a bit-identical from-scratch fold for cold prefixes.
        let fresh: Vec<Itemset> = fresh_at
            .iter()
            .map(|&p| std::mem::take(&mut level.entries[p as usize].itemset))
            .collect();
        stats.candidates_evaluated += fresh.len() as u64;
        let sup = engine.evaluate(&fresh, want, stats);
        let mut judged: Vec<Option<Judgment>> = vec![None; fresh.len()];
        judge_level(measure, engine, &fresh, &sup, false, stats, |i, j, _| {
            judged[i] = Some(j);
        });
        for (i, ((itemset, j), &p)) in fresh.into_iter().zip(judged).zip(&fresh_at).enumerate() {
            let entry = &mut level.entries[p as usize];
            let was_frequent = entry.is_frequent();
            entry.itemset = itemset;
            entry.verdict = match j {
                Some(j) => Verdict::Frequent(j),
                // Exact statistics, so these are sound upper bounds to
                // grow across future steps.
                None => Verdict::Infrequent {
                    esup_ub: sup.esup[i],
                    count_ub: sup.count.as_ref().map(|c| c[i]),
                },
            };
            changed |= was_frequent != entry.is_frequent();
        }
        if changed {
            let entries = &level.entries;
            level.frequent.extend_from_slice(&fresh_at);
            level.frequent.sort_unstable();
            level.frequent.dedup();
            level
                .frequent
                .retain(|&p| entries[p as usize].is_frequent());
        }
    }

    let records = level.records();
    engine.finish_level(&records);
    out.extend(records);
    changed
}

/// Replays the level-wise candidate stream through the border tracker —
/// the incremental counterpart of [`run_apriori`](super::apriori::run_apriori).
fn refresh_levels<M: FrequentnessMeasure>(
    engine: &mut dyn SupportEngine,
    measure: &M,
    tracker: &mut BorderTracker,
    probe: &StepProbe,
    num_items: u32,
) -> MiningResult {
    let mut result = MiningResult::default();
    tracker.moved.resize(num_items as usize, false);
    for &i in probe.moved_items() {
        tracker.moved[i as usize] = true;
    }
    let mut visit = tracker.visit_singletons(probe, num_items);
    // Whether regenerating level `k` dropped a frequent entry, which
    // changes its frequent set as much as a flipped verdict does.
    let mut dropped_frequent = false;
    let mut k = 0;
    loop {
        let level = &mut tracker.levels[k];
        if level.entries.is_empty() {
            break;
        }
        let flipped = evaluate_level(
            engine,
            measure,
            level,
            &visit,
            probe,
            &mut result.stats,
            &mut result.itemsets,
        );
        if level.frequent.is_empty() {
            break;
        }
        k += 1;
        if !flipped && !dropped_frequent && k < tracker.levels.len() {
            visit = tracker.visit_reused(k, &mut result.stats);
            dropped_frequent = false;
        } else {
            (visit, dropped_frequent) = tracker.visit_regenerated(k, &mut result.stats);
        }
    }
    tracker.levels.truncate(k + 1);
    for &i in probe.moved_items() {
        tracker.moved[i as usize] = false;
    }
    result
}

/// A delta-maintainable engine for `kind`, or `None` for backends that
/// borrow the database and must be rebuilt per refresh (horizontal).
fn owned_engine(kind: EngineKind, db: &UncertainDatabase) -> Option<Box<dyn SupportEngine>> {
    match kind {
        EngineKind::Horizontal => None,
        EngineKind::Vertical => Some(Box::new(VerticalEngine::new(db))),
        EngineKind::Diffset => Some(Box::new(DiffsetEngine::new(db))),
    }
}

/// A sliding-window miner that keeps its result fresh across window steps
/// by re-judging only the border traffic (see the [module docs](self)).
///
/// Results are **bit-identical** to batch-mining the window snapshot with
/// the same measure and engine:
///
/// ```
/// use ufim_core::prelude::*;
/// use ufim_miners::common::{mine_level_wise, ExpectedSupport, IncrementalMiner};
///
/// let window = WindowedDatabase::new(8, 4);
/// let mut miner =
///     IncrementalMiner::new(window, ExpectedSupport::new(1.0), EngineKind::Vertical);
/// for i in 0..6u32 {
///     miner
///         .append(Transaction::new([(i % 4, 0.9), ((i + 1) % 4, 0.6)]).unwrap())
///         .unwrap();
/// }
/// miner.refresh();
/// let batch = mine_level_wise(
///     &miner.window().snapshot(),
///     ExpectedSupport::new(1.0),
///     EngineKind::Vertical,
/// );
/// assert_eq!(miner.result().itemsets, batch.itemsets);
/// ```
pub struct IncrementalMiner<M: FrequentnessMeasure> {
    window: WindowedDatabase,
    measure: M,
    kind: EngineKind,
    /// Delta-maintainable backend, kept across refreshes; `None` for the
    /// horizontal fall-back, rebuilt over the snapshot inside `refresh`.
    engine: Option<Box<dyn SupportEngine>>,
    tracker: BorderTracker,
    /// The step being refreshed; its buffers are kept across steps.
    probe: StepProbe,
    result: MiningResult,
    /// True once the first refresh has run (before that, `result` is the
    /// empty placeholder, not a mined result).
    primed: bool,
}

impl<M: FrequentnessMeasure> IncrementalMiner<M> {
    /// Takes ownership of `window` and prepares incremental mining.
    /// Mutations already pending in `window` are folded into the engine's
    /// baseline (the first refresh starts from the window's current
    /// contents).
    pub fn new(mut window: WindowedDatabase, measure: M, kind: EngineKind) -> Self {
        // Drain pending mutations first: the engine is built from the
        // current snapshot, so replaying them on the first refresh would
        // double-apply.
        let _ = window.take_step();
        let engine = owned_engine(kind, &window.snapshot());
        IncrementalMiner {
            window,
            measure,
            kind,
            engine,
            tracker: BorderTracker::default(),
            probe: StepProbe::default(),
            result: MiningResult::default(),
            primed: false,
        }
    }

    /// The sliding window (read access).
    pub fn window(&self) -> &WindowedDatabase {
        &self.window
    }

    /// The sliding window (mutations accumulate until the next refresh).
    pub fn window_mut(&mut self) -> &mut WindowedDatabase {
        &mut self.window
    }

    /// Appends a transaction ([`WindowedDatabase::append`]); the change
    /// takes effect at the next [`IncrementalMiner::refresh`].
    ///
    /// # Errors
    /// [`CoreError::ItemOutOfVocabulary`] if the transaction references an
    /// item outside the window's vocabulary; the window is left untouched,
    /// so the next refresh is exactly as if the call never happened.
    pub fn append(&mut self, t: Transaction) -> Result<u32, CoreError> {
        self.window.append(t)
    }

    /// Expires up to `n` oldest transactions
    /// ([`WindowedDatabase::expire_oldest`]).
    pub fn expire_oldest(&mut self, n: usize) -> usize {
        self.window.expire_oldest(n)
    }

    /// A [`ShardPlan`] that selects nothing. Kept only for the
    /// `perfbench` benchmark, its only caller.
    #[doc(hidden)]
    pub fn shard_plan(&self) -> ShardPlan {
        ShardPlan
    }

    /// The support backend in use.
    pub fn engine_kind(&self) -> EngineKind {
        self.kind
    }

    /// The border tracker (introspection: how many itemsets are tracked).
    pub fn tracker(&self) -> &BorderTracker {
        &self.tracker
    }

    /// The result of the last [`IncrementalMiner::refresh`] (empty before
    /// the first). `stats` are the counters of that refresh only.
    pub fn result(&self) -> &MiningResult {
        &self.result
    }

    /// Brings the result up to date with every window mutation since the
    /// last refresh and returns it.
    ///
    /// Records are bit-identical to batch-mining the current snapshot;
    /// `result.stats` counts this refresh's work only (an empty step after
    /// the first refresh short-circuits to the cached result with zeroed
    /// counters).
    pub fn refresh(&mut self) -> &MiningResult {
        let step = self.window.take_step();
        if self.primed && step.is_empty() {
            self.result.stats = MinerStats::default();
            return &self.result;
        }
        let num_items = self.window.num_items();
        // One probe per step, the only form in which the step reaches the
        // engine (index update and memo patch walk) and every border
        // classification below: per-item presence records of the dirty
        // slots, so touch detection costs a few multiplies per changed
        // slot instead of transaction walks. On the first refresh only
        // the index reads it: the engine's memo is still empty and the
        // tracker holds only new entries.
        self.probe.load(&step);
        let probe = &self.probe;
        // Counters of the step application itself (memo_patched /
        // memo_rebuilt), merged into the refresh's stats below.
        let mut step_stats = MinerStats::default();
        let mut result = match self.engine.as_mut() {
            Some(engine) => {
                engine.apply_window_step(probe, &mut step_stats);
                refresh_levels(
                    engine.as_mut(),
                    &self.measure,
                    &mut self.tracker,
                    probe,
                    num_items,
                )
            }
            None => {
                // Borrowing backend (horizontal): a per-refresh engine over
                // the snapshot — the honest re-scan fall-back. Border reuse
                // still applies; only the fresh subset pays the scans.
                let snapshot = self.window.snapshot();
                let mut engine = HorizontalScan::new(&snapshot);
                refresh_levels(
                    &mut engine,
                    &self.measure,
                    &mut self.tracker,
                    probe,
                    num_items,
                )
            }
        };
        result.stats.absorb(&step_stats);
        // Empty the probe between refreshes: this keeps its small buffers
        // and gives back what a large step (a whole-window turnover) grew.
        self.probe.load(&WindowStep::default());
        self.result = result;
        self.primed = true;
        &self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::measure::{
        mine_level_wise, CandidateStats, ExactKernel, ExactMeasure, ExpectedSupport, NormalApprox,
        Screen, StatNeeds,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ufim_core::MiningParams;

    fn tx(rng: &mut StdRng, num_items: u32, density: f64) -> Transaction {
        let units: Vec<(u32, f64)> = (0..num_items)
            .filter_map(|i| {
                if rng.gen_bool(density) {
                    Some((i, rng.gen_range(0.05..=1.0)))
                } else {
                    None
                }
            })
            .collect();
        Transaction::new(units).unwrap()
    }

    /// Drives `ops` scripted window mutations, refreshing after each batch
    /// and asserting the incremental records equal the batch oracle's, bit
    /// for bit and in the same order.
    fn assert_tracks_batch<M: FrequentnessMeasure + Copy>(
        measure: M,
        kind: EngineKind,
        seed: u64,
    ) -> MinerStats {
        let mut rng = StdRng::seed_from_u64(seed);
        let window = WindowedDatabase::new(16, 6);
        let mut miner = IncrementalMiner::new(window, measure, kind);
        let mut last = MinerStats::default();
        for round in 0..12 {
            match round % 4 {
                0 | 1 => {
                    for _ in 0..3 {
                        miner.append(tx(&mut rng, 6, 0.6)).unwrap();
                    }
                }
                2 => {
                    miner.expire_oldest(2);
                    miner.append(tx(&mut rng, 6, 0.6)).unwrap();
                }
                _ => {
                    miner.expire_oldest(1);
                }
            }
            miner.refresh();
            let batch = mine_level_wise(&miner.window().snapshot(), measure, kind);
            assert_eq!(
                miner.result().itemsets,
                batch.itemsets,
                "{kind} diverged from the batch oracle at round {round}"
            );
            last = miner.result().stats.clone();
        }
        last
    }

    #[test]
    fn incremental_matches_batch_for_every_engine() {
        for kind in EngineKind::ALL {
            let stats = assert_tracks_batch(ExpectedSupport::with_variance(2.0), kind, 7);
            // Warm refreshes reuse most of the border.
            assert!(stats.border_skipped > 0, "{kind}: no border reuse");
        }
    }

    #[test]
    fn incremental_matches_batch_with_deep_delta_chains() {
        // A low threshold over a 16-slot window keeps deep lattices
        // frequent, so the columnar memos patch long prefix chains.
        for kind in [EngineKind::Vertical, EngineKind::Diffset] {
            assert_tracks_batch(ExpectedSupport::new(1.5), kind, 11);
        }
    }

    #[test]
    fn incremental_matches_batch_for_probabilistic_measures() {
        let normal = NormalApprox::new(3, 0.6);
        let params = MiningParams::new(0.2, 0.6).unwrap();
        let exact = ExactMeasure::new(ExactKernel::DynamicProgramming, true, 16, &params);
        for kind in EngineKind::ALL {
            assert_tracks_batch(normal, kind, 13);
            assert_tracks_batch(exact, kind, 17);
        }
    }

    #[test]
    fn bound_gate_skips_rejudging_deep_below_the_border() {
        // Item 5 trickles in at tiny probability: its singleton is touched
        // by every step, but the maintained esup bound keeps it provably
        // infrequent, so it is skipped rather than re-judged.
        let window = WindowedDatabase::new(32, 6);
        let mut miner =
            IncrementalMiner::new(window, ExpectedSupport::new(4.0), EngineKind::Vertical);
        for _ in 0..4 {
            miner
                .append(Transaction::new([(0, 0.9), (1, 0.8), (5, 0.01)]).unwrap())
                .unwrap();
            miner.refresh();
        }
        let stats = &miner.result().stats;
        assert!(
            stats.border_skipped > 0,
            "touched-but-bounded itemsets must be skipped"
        );
        // {5} was never re-judged after its first evaluation: the singleton
        // stays tracked as infrequent with a growing-but-tiny bound.
        let batch = mine_level_wise(
            &miner.window().snapshot(),
            ExpectedSupport::new(4.0),
            EngineKind::Vertical,
        );
        assert_eq!(miner.result().itemsets, batch.itemsets);
    }

    #[test]
    fn chernoff_cut_skips_touched_exact_entries_below_it() {
        // Item 5 trickles in at tiny probability beside a frequent pair.
        // Once its count reaches msup = 4, only the Chernoff screen's esup
        // cut (≈ 1.19 here) still proves it infrequent: the touched entry
        // is skipped instead of re-judged, and the records stay batch-exact.
        let params = MiningParams::new(0.125, 0.5).unwrap();
        let exact = ExactMeasure::new(ExactKernel::DynamicProgramming, true, 32, &params);
        let cut = exact.min_esup_bound().expect("the B variant exports a cut");
        assert!(cut > 1.0 && cut < 4.0, "{cut}");
        for kind in [EngineKind::Vertical, EngineKind::Diffset] {
            let window = WindowedDatabase::new(32, 6);
            let mut miner = IncrementalMiner::new(window, exact, kind);
            for _ in 0..8 {
                miner
                    .append(Transaction::new([(0, 0.9), (1, 0.8), (5, 0.01)]).unwrap())
                    .unwrap();
                miner.refresh();
            }
            let stats = &miner.result().stats;
            // {0}, {1} and {0, 1} are touched frequent entries and are
            // re-judged. {2}, {3} and {4} are untouched, and {5} is touched
            // but cut: all four are skipped.
            assert_eq!(
                (stats.border_rejudged, stats.border_skipped),
                (3, 4),
                "{kind}"
            );
            let batch = mine_level_wise(&miner.window().snapshot(), exact, kind);
            assert_eq!(miner.result().itemsets, batch.itemsets, "{kind}");
        }
    }

    #[test]
    fn empty_step_short_circuits_to_cached_result() {
        let window = WindowedDatabase::new(8, 4);
        let mut miner =
            IncrementalMiner::new(window, ExpectedSupport::new(1.0), EngineKind::Diffset);
        miner
            .append(Transaction::new([(0, 0.9), (1, 0.8)]).unwrap())
            .unwrap();
        miner
            .append(Transaction::new([(0, 0.7), (2, 0.6)]).unwrap())
            .unwrap();
        miner.refresh();
        let first = miner.result().itemsets.clone();
        assert!(miner.result().stats.candidates_evaluated > 0);
        miner.refresh();
        assert_eq!(miner.result().itemsets, first);
        assert_eq!(miner.result().stats, MinerStats::default());
    }

    #[test]
    fn pending_mutations_at_construction_are_not_double_applied() {
        let mut window = WindowedDatabase::new(4, 3);
        window
            .append(Transaction::new([(0, 0.9), (1, 0.9)]).unwrap())
            .unwrap();
        // `window` has a pending step; the miner must fold it into the
        // engine baseline instead of replaying it.
        let mut miner =
            IncrementalMiner::new(window, ExpectedSupport::new(0.5), EngineKind::Vertical);
        miner.refresh();
        let batch = mine_level_wise(
            &miner.window().snapshot(),
            ExpectedSupport::new(0.5),
            EngineKind::Vertical,
        );
        assert_eq!(miner.result().itemsets, batch.itemsets);
    }

    #[test]
    fn full_window_expiry_empties_the_result() {
        let window = WindowedDatabase::new(8, 4);
        let mut miner =
            IncrementalMiner::new(window, ExpectedSupport::new(0.5), EngineKind::Vertical);
        for _ in 0..8 {
            miner
                .append(Transaction::new([(0, 0.9), (1, 0.8)]).unwrap())
                .unwrap();
        }
        miner.refresh();
        assert!(!miner.result().is_empty());
        miner.expire_oldest(8);
        miner.refresh();
        assert!(miner.result().is_empty());
        assert!(miner.window().is_empty());
        let batch = mine_level_wise(
            &miner.window().snapshot(),
            ExpectedSupport::new(0.5),
            EngineKind::Vertical,
        );
        assert_eq!(miner.result().itemsets, batch.itemsets);
    }

    /// Warm-refreshes two miners over the same stream; between refreshes
    /// one of them is also offered an out-of-vocabulary transaction. The
    /// append must be refused with a typed error before it touches the
    /// window, so the next refresh equals the clean miner's — records,
    /// counters and window alike.
    fn assert_rejected_append_is_invisible(kind: EngineKind) {
        let measure = ExpectedSupport::with_variance(1.0);
        let mut rng = StdRng::seed_from_u64(23);
        let mut miner = IncrementalMiner::new(WindowedDatabase::new(8, 4), measure, kind);
        let mut clean = IncrementalMiner::new(WindowedDatabase::new(8, 4), measure, kind);
        for round in 0..3 {
            for _ in 0..5 {
                let t = tx(&mut rng, 4, 0.7);
                miner.append(t.clone()).unwrap();
                clean.append(t).unwrap();
            }
            if round > 0 {
                let stray = Transaction::new([(1, 0.9), (4, 0.5)]).unwrap();
                assert_eq!(
                    miner.append(stray),
                    Err(CoreError::ItemOutOfVocabulary {
                        item: 4,
                        num_items: 4
                    }),
                    "{kind}"
                );
            }
            miner.refresh();
            clean.refresh();
            assert_eq!(miner.result().itemsets, clean.result().itemsets, "{kind}");
            assert_eq!(miner.result().stats, clean.result().stats, "{kind}");
            assert_eq!(
                miner.window().snapshot().transactions(),
                clean.window().snapshot().transactions(),
                "{kind}"
            );
        }
    }

    #[test]
    fn out_of_vocabulary_append_is_rejected_horizontal() {
        assert_rejected_append_is_invisible(EngineKind::Horizontal);
    }

    #[test]
    fn out_of_vocabulary_append_is_rejected_vertical() {
        assert_rejected_append_is_invisible(EngineKind::Vertical);
    }

    #[test]
    fn out_of_vocabulary_append_is_rejected_diffset() {
        assert_rejected_append_is_invisible(EngineKind::Diffset);
    }

    /// A measure with its cuts hidden from the engines and the tracker.
    struct WithoutCuts<M>(M);

    impl<M: FrequentnessMeasure> FrequentnessMeasure for WithoutCuts<M> {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn needs(&self) -> StatNeeds {
            self.0.needs()
        }
        fn screen(&self, esup: f64, count: u64) -> Screen {
            self.0.screen(esup, count)
        }
        fn judge(&self, c: &CandidateStats<'_>, stats: &mut MinerStats) -> Option<Judgment> {
            self.0.judge(c, stats)
        }
    }

    #[test]
    fn fresh_candidates_below_the_cut_export_no_vector() {
        // Ten items, two of them common: most pairs are fresh candidates
        // far below the esup cut.
        let measure = ExpectedSupport::new(12.0);
        for kind in [EngineKind::Vertical, EngineKind::Diffset] {
            let mut rng = StdRng::seed_from_u64(31);
            let mut with = IncrementalMiner::new(WindowedDatabase::new(96, 10), measure, kind);
            let mut without =
                IncrementalMiner::new(WindowedDatabase::new(96, 10), WithoutCuts(measure), kind);
            for round in 0..6 {
                for _ in 0..if round == 0 { 96 } else { 8 } {
                    let t = tx(&mut rng, 10, 0.3);
                    with.append(t.clone()).unwrap();
                    without.append(t).unwrap();
                }
                let (a, b) = (with.refresh().clone(), without.refresh().clone());
                assert_eq!(a.itemsets, b.itemsets, "{kind} round {round}");
                if round == 0 {
                    // Nothing is tracked yet: both evaluate every candidate,
                    // and only the cut keeps the hopeless ones' vectors out.
                    assert!(!a.is_empty(), "{kind}");
                    assert_eq!(a.stats.candidates_evaluated, b.stats.candidates_evaluated);
                    assert!(
                        a.stats.peak_memo_bytes < b.stats.peak_memo_bytes,
                        "{kind}: {} vs {}",
                        a.stats.peak_memo_bytes,
                        b.stats.peak_memo_bytes
                    );
                    assert!(a.stats.intersections <= b.stats.intersections, "{kind}");
                }
            }
        }
    }

    #[test]
    fn tracker_retires_entries_that_leave_the_stream() {
        let window = WindowedDatabase::new(8, 4);
        let mut miner =
            IncrementalMiner::new(window, ExpectedSupport::new(1.5), EngineKind::Vertical);
        for _ in 0..4 {
            miner
                .append(Transaction::new([(0, 0.9), (1, 0.9), (2, 0.9)]).unwrap())
                .unwrap();
        }
        miner.refresh();
        let deep = miner.tracker().len();
        // Kill the deep lattice: everything expires, only singletons remain
        // as candidates.
        miner.expire_oldest(4);
        miner.refresh();
        assert!(miner.tracker().len() < deep);
        assert_eq!(
            miner.tracker().len(),
            4,
            "only the singleton stream remains"
        );
    }
}
