//! Sliding-window incremental mining: the miners' end of the tid-delta
//! seam.
//!
//! [`IncrementalMiner`] owns a [`WindowedDatabase`] and keeps its mining
//! result *fresh* across window steps without re-mining from scratch. Each
//! [`IncrementalMiner::refresh`] drains the window's pending mutations into
//! one [`WindowStep`], forwards it to the support engine
//! ([`SupportEngine::apply_window_step`] — postings append/tombstone on the
//! columnar backends, a snapshot rebuild on the horizontal fall-back), and
//! then replays the level-wise candidate stream, re-judging **only** the
//! itemsets the step could actually move across the frequent/infrequent
//! border.
//!
//! # The border argument
//!
//! [`BorderTracker`] caches, for every itemset of the last refresh's
//! candidate stream, which side of the border it landed on:
//!
//! * **Frequent** entries keep the exact [`FrequentItemset`] record they
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
//! One deliberate deviation from the batch evaluator: the incremental
//! [`StatRequest`] carries **no pushdown thresholds**. The engines'
//! threshold pushdown reports decision-equivalent (not value-equivalent)
//! partial sums for candidates it rules out, which would poison the
//! tracker's maintained upper bounds; exact moments keep every cached
//! bound sound. Kept records are bit-identical either way.

use super::apriori::generate_candidates;
use super::engine::{DiffsetEngine, HorizontalScan, StatRequest, SupportEngine, VerticalEngine};
use super::measure::{CandidateStats, FrequentnessMeasure, Screen, ShardPlan};
use ufim_core::{
    EngineKind, FrequentItemset, FxHashMap, ItemId, Itemset, MinerStats, MiningResult, StepProbe,
    Transaction, UncertainDatabase, WindowStep, WindowedDatabase,
};

/// Cached verdict of one tracked itemset (see [`BorderTracker`]).
#[derive(Clone, Debug)]
enum Tracked {
    /// Judged frequent at the last refresh that evaluated it; the exact
    /// record it reported, reused verbatim while untouched.
    Frequent(FrequentItemset),
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

/// One tracked itemset: its cached verdict plus the refresh stamp of the
/// last candidate stream that contained it.
#[derive(Clone, Debug)]
struct Entry {
    verdict: Tracked,
    stamp: u64,
}

/// How one candidate of an incremental level is dispatched.
enum Action {
    /// Untouched frequent entry: the cached record is exact — reuse it.
    ReuseFrequent(FrequentItemset),
    /// Provably still infrequent (untouched, or touched with bounds that
    /// cannot cross the border): skip without evaluation.
    ReuseInfrequent,
    /// Must go through the engine. `rejudge` marks invalidated tracked
    /// entries, as opposed to brand-new candidates.
    Evaluate {
        /// True when a tracked entry was invalidated by the step.
        rejudge: bool,
    },
}

/// Per-candidate disposition of one incremental level, in candidate order.
enum Slot {
    /// Reused from the tracker: `Some` = cached frequent record, `None` =
    /// provably still infrequent.
    Reuse(Option<FrequentItemset>),
    /// Index into the freshly evaluated candidate list.
    Fresh(u32),
}

/// The frequent/infrequent border of the last refresh, per measure.
///
/// One entry per itemset of the last candidate stream: frequent itemsets
/// carry their exact cached record, infrequent ones maintained upper
/// bounds (see the [module docs](self) for the reuse argument). Entries
/// that fall out of the candidate stream — descendants of an itemset that
/// went infrequent — are garbage-collected at the end of each refresh, so
/// the tracker's footprint is bounded by one candidate stream.
#[derive(Debug, Default)]
pub struct BorderTracker {
    entries: FxHashMap<Vec<ItemId>, Entry>,
    stamp: u64,
}

impl BorderTracker {
    /// Number of tracked itemsets (the last candidate stream's length).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True before the first refresh evaluates anything.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Opens a refresh: entries the new candidate stream fails to touch
    /// keep the old stamp and are collected by [`BorderTracker::retire`].
    fn begin_refresh(&mut self) {
        self.stamp += 1;
    }

    /// Dispatches one candidate against the cached border and the step
    /// (read through its [`StepProbe`] — bit-identical to walking the
    /// dirty transactions, at a fraction of the cost).
    fn classify(
        &mut self,
        items: &[ItemId],
        probe: &StepProbe,
        min_esup: Option<f64>,
        min_count: Option<u64>,
    ) -> Action {
        let stamp = self.stamp;
        let Some(entry) = self.entries.get_mut(items) else {
            return Action::Evaluate { rejudge: false };
        };
        entry.stamp = stamp;

        let (touched, added_mass, added_count) = probe.growth(items);
        if !touched {
            // Identical containment probability in every dirty slot: the
            // itemset's vector — hence every derived statistic and the
            // measure's verdict — is unchanged.
            return match &entry.verdict {
                Tracked::Frequent(rec) => Action::ReuseFrequent(rec.clone()),
                Tracked::Infrequent { .. } => Action::ReuseInfrequent,
            };
        }
        match &mut entry.verdict {
            // A touched frequent itemset's record (its exact esup at the
            // least) changed, so it must be re-evaluated regardless of
            // whether it stays frequent.
            Tracked::Frequent(_) => Action::Evaluate { rejudge: true },
            Tracked::Infrequent { esup_ub, count_ub } => {
                *esup_ub += added_mass;
                if let Some(c) = count_ub.as_mut() {
                    *c += added_count;
                }
                let below_esup = min_esup.is_some_and(|b| *esup_ub < b);
                let below_count = matches!((min_count, *count_ub), (Some(b), Some(c)) if c < b);
                if below_esup || below_count {
                    Action::ReuseInfrequent
                } else {
                    Action::Evaluate { rejudge: true }
                }
            }
        }
    }

    /// Records the fresh verdict of an evaluated candidate.
    fn record(&mut self, items: &[ItemId], verdict: Tracked) {
        let stamp = self.stamp;
        self.entries
            .insert(items.to_vec(), Entry { verdict, stamp });
    }

    /// Closes a refresh: drops every entry the candidate stream no longer
    /// contains.
    fn retire(&mut self) {
        let stamp = self.stamp;
        self.entries.retain(|_, e| e.stamp == stamp);
    }
}

/// One incremental level: classify every candidate against the border,
/// evaluate the fresh ones exactly like the batch evaluator, and assemble
/// the level's survivors in candidate order.
fn evaluate_level<M: FrequentnessMeasure>(
    engine: &mut dyn SupportEngine,
    measure: &M,
    tracker: &mut BorderTracker,
    probe: &StepProbe,
    candidates: &[Itemset],
    stats: &mut MinerStats,
) -> Vec<FrequentItemset> {
    let needs = measure.needs();
    // Exact moments only — no pushdown thresholds (see the module docs):
    // the cached infrequent bounds below must be sound upper bounds.
    let want = StatRequest {
        variance: needs.variance,
        count: needs.count,
        min_esup: None,
        min_count: None,
    };
    let (min_esup, min_count) = (measure.min_esup_bound(), measure.min_count_bound());

    let mut plan: Vec<Slot> = Vec::with_capacity(candidates.len());
    let mut fresh: Vec<Itemset> = Vec::new();
    for c in candidates {
        match tracker.classify(c.items(), probe, min_esup, min_count) {
            Action::ReuseFrequent(rec) => {
                stats.border_skipped += 1;
                plan.push(Slot::Reuse(Some(rec)));
            }
            Action::ReuseInfrequent => {
                stats.border_skipped += 1;
                plan.push(Slot::Reuse(None));
            }
            Action::Evaluate { rejudge } => {
                stats.border_rejudged += u64::from(rejudge);
                plan.push(Slot::Fresh(fresh.len() as u32));
                fresh.push(c.clone());
            }
        }
    }

    // The fresh subset runs through the measure exactly as the batch
    // evaluator would run the whole level (screen → prob-vectors → judge).
    // Reused prefixes may be absent from the engine's memo; every backend
    // falls back to a bit-identical from-scratch fold for cold prefixes.
    let mut fresh_records: Vec<Option<FrequentItemset>> = vec![None; fresh.len()];
    if !fresh.is_empty() {
        stats.candidates_evaluated += fresh.len() as u64;
        let sup = engine.evaluate(&fresh, want, stats);

        let mut survivors: Vec<u32> = Vec::with_capacity(fresh.len());
        for idx in 0..fresh.len() {
            let count = sup.count.as_ref().map_or(0, |c| c[idx]);
            match measure.screen(sup.esup[idx], count) {
                Screen::Keep => survivors.push(idx as u32),
                Screen::PruneCount => stats.candidates_pruned_count += 1,
                Screen::PruneBound => stats.candidates_pruned_chernoff += 1,
            }
        }

        let qvecs: Option<Vec<Vec<f64>>> = if needs.prob_vector && !survivors.is_empty() {
            let sets: Vec<Itemset> = survivors
                .iter()
                .map(|&i| fresh[i as usize].clone())
                .collect();
            Some(engine.prob_vectors(&sets, stats))
        } else {
            None
        };

        for (slot, &idx) in survivors.iter().enumerate() {
            let i = idx as usize;
            let c = CandidateStats {
                esup: sup.esup[i],
                variance: sup.variance.as_ref().map_or(0.0, |v| v[i]),
                count: sup.count.as_ref().map_or(0, |c| c[i]),
                probs: qvecs.as_ref().map(|q| q[slot].as_slice()),
            };
            if let Some(j) = measure.judge(&c, stats) {
                fresh_records[i] = Some(FrequentItemset {
                    itemset: fresh[i].clone(),
                    expected_support: j.expected_support,
                    variance: j.variance,
                    frequent_prob: j.frequent_prob,
                });
            }
        }

        for (i, set) in fresh.iter().enumerate() {
            let verdict = match &fresh_records[i] {
                Some(rec) => Tracked::Frequent(rec.clone()),
                // Exact statistics (no pushdown above), so these are sound
                // upper bounds to grow across future steps.
                None => Tracked::Infrequent {
                    esup_ub: sup.esup[i],
                    count_ub: sup.count.as_ref().map(|c| c[i]),
                },
            };
            tracker.record(set.items(), verdict);
        }
    }

    let mut out = Vec::new();
    for slot in plan {
        match slot {
            Slot::Reuse(Some(rec)) => out.push(rec),
            Slot::Reuse(None) => {}
            Slot::Fresh(i) => {
                if let Some(rec) = fresh_records[i as usize].take() {
                    out.push(rec);
                }
            }
        }
    }
    engine.finish_level(&out);
    out
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
    let mut candidates: Vec<Itemset> = (0..num_items).map(Itemset::singleton).collect();
    while !candidates.is_empty() {
        let frequent = evaluate_level(
            engine,
            measure,
            tracker,
            probe,
            &candidates,
            &mut result.stats,
        );
        if frequent.is_empty() {
            break;
        }
        candidates = generate_candidates(&frequent, &mut result.stats);
        result.itemsets.extend(frequent);
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
///     miner.append(Transaction::new([(i % 4, 0.9), ((i + 1) % 4, 0.6)]).unwrap());
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
    pub fn append(&mut self, t: Transaction) -> u32 {
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
        self.tracker.begin_refresh();
        let num_items = self.window.num_items();
        // One probe per step, shared by the engine's patch walk and every
        // border classification below: dense old/new probability rows plus
        // per-item changed-slot bitsets, so touch detection costs a few
        // multiplies per changed slot instead of transaction walks. The
        // unprimed first refresh provably never reads it — the tracker has
        // no entries to classify against and the engine holds no stamped
        // memo to patch — so the (large, whole-window) initial-fill step
        // gets a trivial probe instead of a dense-matrix build.
        let probe = if self.primed {
            StepProbe::new(&step, num_items)
        } else {
            StepProbe::new(&WindowStep::default(), num_items)
        };
        // Counters of the step application itself (memo_patched /
        // memo_rebuilt), merged into the refresh's stats below.
        let mut step_stats = MinerStats::default();
        if let Some(engine) = self.engine.as_mut() {
            if !engine.apply_window_step(&step, &probe, &mut step_stats) {
                // The backend declined delta maintenance: rebuild it over
                // the stepped snapshot (still cheaper than re-mining — the
                // tracker's reuse survives a rebuild).
                *engine = owned_engine(self.kind, &self.window.snapshot())
                    .expect("owned backends accept window steps");
            }
        }
        let mut result = match self.engine.as_mut() {
            Some(engine) => refresh_levels(
                engine.as_mut(),
                &self.measure,
                &mut self.tracker,
                &probe,
                num_items,
            ),
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
                    &probe,
                    num_items,
                )
            }
        };
        self.tracker.retire();
        result.stats.absorb(&step_stats);
        self.result = result;
        self.primed = true;
        &self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::measure::{
        mine_level_wise, ExactKernel, ExactMeasure, ExpectedSupport, NormalApprox,
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
                        miner.append(tx(&mut rng, 6, 0.6));
                    }
                }
                2 => {
                    miner.expire_oldest(2);
                    miner.append(tx(&mut rng, 6, 0.6));
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
            miner.append(Transaction::new([(0, 0.9), (1, 0.8), (5, 0.01)]).unwrap());
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
    fn empty_step_short_circuits_to_cached_result() {
        let window = WindowedDatabase::new(8, 4);
        let mut miner =
            IncrementalMiner::new(window, ExpectedSupport::new(1.0), EngineKind::Diffset);
        miner.append(Transaction::new([(0, 0.9), (1, 0.8)]).unwrap());
        miner.append(Transaction::new([(0, 0.7), (2, 0.6)]).unwrap());
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
        window.append(Transaction::new([(0, 0.9), (1, 0.9)]).unwrap());
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
            miner.append(Transaction::new([(0, 0.9), (1, 0.8)]).unwrap());
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

    #[test]
    fn tracker_retires_entries_that_leave_the_stream() {
        let window = WindowedDatabase::new(8, 4);
        let mut miner =
            IncrementalMiner::new(window, ExpectedSupport::new(1.5), EngineKind::Vertical);
        for _ in 0..4 {
            miner.append(Transaction::new([(0, 0.9), (1, 0.9), (2, 0.9)]).unwrap());
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
