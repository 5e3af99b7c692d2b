//! The pluggable *frequentness measure* layer — the judgment axis of the
//! paper's two-dimensional taxonomy.
//!
//! The paper classifies uncertain frequent-itemset mining along two
//! independent axes: **what "frequent" means** (expected support, exact
//! probabilistic, or an approximation of the latter) and **how the lattice
//! is explored** (level-wise Apriori vs. depth-first pattern growth). The
//! seed codebase welded each judgment to one traversal; this module factors
//! the judgment out as [`FrequentnessMeasure`], so every traversal framework
//! — the Apriori scaffold ([`run_apriori`](super::apriori::run_apriori) via
//! [`MeasureEvaluator`]), the UH-Struct depth-first walk, and the UFP-tree
//! growth — runs *any* compatible measure. The eight paper miners become
//! named cells of a measure × traversal × engine matrix, and previously
//! unbuildable cells (exact DP on UH-Mine, Poisson on UFP-growth) come for
//! free.
//!
//! A measure consumes per-candidate statistics — expected support, support
//! variance, nonzero-transaction count, and (for exact measures) the
//! candidate's per-transaction containment-probability vector — and renders
//! a keep/prune verdict plus the record to report. It also exports the
//! cheap *bounds* that make the pruning pipeline work: engine-level
//! threshold pushdown ([`FrequentnessMeasure::min_esup_bound`] /
//! [`min_count_bound`](FrequentnessMeasure::min_count_bound)) and the
//! Chernoff / count screen ([`FrequentnessMeasure::screen`]) that exact
//! miners run before paying for a kernel evaluation.

use super::apriori::LevelEvaluator;
use super::engine::{LevelSupport, StatRequest, SupportEngine, VectorScratch};
use ufim_core::parallel::{par_map_min_len_with, DEFAULT_MIN_WORK};
use ufim_core::prelude::*;
use ufim_stats::chernoff::{chernoff_min_esup, chernoff_prunable};
use ufim_stats::normal::{normal_esup_lower_bound, normal_survival_with_continuity};
use ufim_stats::pb::{pmf_divide_conquer, survival_dp};
use ufim_stats::poisson::poisson_lambda_for_survival;

/// Which per-candidate statistics a measure judges on. Traversals use this
/// to skip work (variance accumulation, probability-vector gathering) the
/// active measure will never read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatNeeds {
    /// The support variance `Σ q_t(1 − q_t)`.
    pub variance: bool,
    /// The number of transactions with nonzero containment probability.
    pub count: bool,
    /// The full nonzero containment-probability vector (transaction order).
    pub prob_vector: bool,
}

/// The statistics of one candidate itemset, as accumulated by a traversal.
///
/// Fields the measure did not request through [`StatNeeds`] carry
/// unspecified values (`probs` is `None`).
#[derive(Clone, Copy, Debug)]
pub struct CandidateStats<'a> {
    /// Expected support `esup(X) = Σ_t q_t`.
    pub esup: f64,
    /// Support variance (meaningful iff [`StatNeeds::variance`]).
    pub variance: f64,
    /// Nonzero-transaction count (meaningful iff [`StatNeeds::count`]).
    pub count: u64,
    /// Nonzero containment probabilities in ascending transaction order
    /// (`Some` iff [`StatNeeds::prob_vector`]).
    pub probs: Option<&'a [f64]>,
}

/// Outcome of the cheap pre-kernel screen ([`FrequentnessMeasure::screen`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Screen {
    /// Not provably infrequent: proceed to [`FrequentnessMeasure::judge`].
    Keep,
    /// Fewer nonzero transactions than the support threshold — counted in
    /// [`MinerStats::candidates_pruned_count`]. At level 2 of the
    /// level-wise traversal the scaffold's co-occurrence pass applies the
    /// same floor first to the pairs' co-occurrence counts
    /// ([`pair_candidates`](super::apriori::pair_candidates)).
    PruneCount,
    /// Ruled out by a closed-form tail bound (Chernoff) — counted in
    /// [`MinerStats::candidates_pruned_chernoff`].
    PruneBound,
}

/// The record a measure reports for a kept candidate. The traversal copies
/// these fields into the output [`FrequentItemset`] verbatim, so each
/// measure controls exactly which statistics its miners expose (PDUApriori
/// famously "cannot return the frequent probability values").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Judgment {
    /// Expected support to report.
    pub expected_support: f64,
    /// Support variance to report, if the measure exposes it.
    pub variance: Option<f64>,
    /// Frequent probability to report, if the measure computes one.
    pub frequent_prob: Option<f64>,
}

/// A frequentness definition, decoupled from lattice traversal.
///
/// Implementors map a candidate's support statistics to a keep/prune
/// verdict plus the reported score, and export the prune bounds the
/// traversal and engine layers exploit. All five measures in this module
/// are **anti-monotone** under their own semantics (the approximations by
/// construction, as the paper argues for NDUH-Mine), which is what lets
/// depth-first traversals stop expanding a prefix the moment it fails.
///
/// # Worked example
///
/// Judging the paper's Table 1 itemset `{A}` (esup 2.1, variance 0.69) by
/// two different measures — the same statistics, two different verdicts:
///
/// ```
/// use ufim_miners::common::measure::{
///     CandidateStats, ExpectedSupport, FrequentnessMeasure, NormalApprox,
/// };
/// use ufim_core::MinerStats;
///
/// let stats_of_a = CandidateStats {
///     esup: 2.1,
///     variance: 0.69,
///     count: 3,
///     probs: None,
/// };
/// let mut counters = MinerStats::default();
///
/// // Definition 2 at min_esup = 0.5 over N = 4 transactions: threshold 2.0.
/// let esup = ExpectedSupport::new(2.0);
/// let kept = esup.judge(&stats_of_a, &mut counters).expect("2.1 ≥ 2.0");
/// assert_eq!(kept.expected_support, 2.1);
/// assert_eq!(kept.frequent_prob, None); // Definition 2 has no probability
///
/// // Normal-approximated Definition 4 at msup = 3, pft = 0.9: the CLT tail
/// // 1 − Φ((3 − 0.5 − 2.1)/√0.69) ≈ 0.685 does not clear 0.9 → pruned.
/// let normal = NormalApprox::new(3, 0.9);
/// assert!(normal.needs().variance);
/// assert!(normal.judge(&stats_of_a, &mut counters).is_none());
/// ```
/// (`Sync` is a supertrait: the depth-first traversals share the measure
/// across the worker threads of their first-level fan-out. Measures are
/// plain parameter bundles, so this costs implementors nothing.)
pub trait FrequentnessMeasure: Sync {
    /// Stable lower-case measure name (matches [`MeasureKind::name`]).
    fn name(&self) -> &'static str;

    /// Which statistics [`judge`](Self::judge) reads.
    fn needs(&self) -> StatNeeds;

    /// A sound engine-pushdown threshold: candidates with `esup` strictly
    /// below it are never kept — [`screen`](Self::screen) prunes them, or
    /// [`judge`](Self::judge) rejects them. Engines use it to drop a
    /// candidate's vector before it is exported ([`StatRequest::min_esup`]),
    /// and the incremental border tracker to skip infrequent itemsets; it
    /// never changes reported results. Definition 2 and the Poisson measure
    /// return their threshold, the Normal measure its derived esup bound,
    /// and the exact measures with the Chernoff screen the esup cut that
    /// screen implies ([`chernoff_min_esup`]).
    fn min_esup_bound(&self) -> Option<f64> {
        None
    }

    /// A sound nonzero-count pushdown threshold, like
    /// [`min_esup_bound`](Self::min_esup_bound).
    fn min_count_bound(&self) -> Option<u64> {
        None
    }

    /// Cheap screen from the moments alone, run *before* probability
    /// vectors are gathered. A prune verdict must be consistent with
    /// [`judge`](Self::judge) (the judged probability could not have
    /// cleared the threshold).
    fn screen(&self, _esup: f64, _count: u64) -> Screen {
        Screen::Keep
    }

    /// The full verdict: `Some(record)` keeps the candidate (and, in
    /// depth-first traversals, expands it), `None` prunes it. Measures that
    /// run an exact kernel charge [`MinerStats::exact_evaluations`].
    fn judge(&self, c: &CandidateStats<'_>, stats: &mut MinerStats) -> Option<Judgment>;

    /// `Some(t)` when the measure is *equivalent* to the plain expected
    /// support cut `esup ≥ t` (true for [`ExpectedSupport`] and the
    /// λ\*-folded [`PoissonApprox`]). Lets reporting layers treat such
    /// measures as Definition 2 runs.
    fn as_esup_threshold(&self) -> Option<f64> {
        None
    }
}

/// Definition 2: `esup(X) ≥ threshold` (threshold in transactions, i.e.
/// `N · min_esup`).
#[derive(Clone, Copy, Debug)]
pub struct ExpectedSupport {
    threshold: f64,
    record_variance: bool,
}

impl ExpectedSupport {
    /// Plain expected-support judgment.
    pub fn new(threshold: f64) -> Self {
        ExpectedSupport {
            threshold,
            record_variance: false,
        }
    }

    /// Expected-support judgment that also records each kept itemset's
    /// support variance.
    pub fn with_variance(threshold: f64) -> Self {
        ExpectedSupport {
            threshold,
            record_variance: true,
        }
    }
}

impl FrequentnessMeasure for ExpectedSupport {
    fn name(&self) -> &'static str {
        MeasureKind::ExpectedSupport.name()
    }

    fn needs(&self) -> StatNeeds {
        StatNeeds {
            variance: self.record_variance,
            ..StatNeeds::default()
        }
    }

    fn min_esup_bound(&self) -> Option<f64> {
        Some(self.threshold)
    }

    fn judge(&self, c: &CandidateStats<'_>, _stats: &mut MinerStats) -> Option<Judgment> {
        (c.esup >= self.threshold).then(|| Judgment {
            expected_support: c.esup,
            variance: self.record_variance.then_some(c.variance),
            frequent_prob: None,
        })
    }

    fn as_esup_threshold(&self) -> Option<f64> {
        Some(self.threshold)
    }
}

/// Poisson (Le Cam) approximation of Definition 4, folded into the derived
/// expected-support threshold `λ*` (paper §3.3.1). Membership only.
#[derive(Clone, Copy, Debug)]
pub struct PoissonApprox {
    threshold: f64,
}

impl PoissonApprox {
    /// Solves `Pr{Poisson(λ*) ≥ msup} = pft` for the database size and
    /// parameters — PDUApriori's one-time threshold inversion. Returns
    /// `Ok(None)` when `λ*` exceeds the transaction count — no itemset can
    /// qualify.
    ///
    /// # Errors
    /// Propagates ratio validation of the derived `λ*/N` (unreachable for
    /// in-range parameters).
    pub fn from_params(n: usize, params: &MiningParams) -> Result<Option<Self>, CoreError> {
        let msup = params.msup(n);
        let pft = params.pft.get();
        let lambda = if pft >= 1.0 {
            // Survival can never strictly exceed 1.
            f64::INFINITY
        } else {
            poisson_lambda_for_survival(msup, pft)
        };
        if lambda > n as f64 {
            // esup(X) ≤ N for every itemset: nothing can qualify.
            return Ok(None);
        }
        // Round-trip through Ratio so the threshold is bit-identical to an
        // expected-support mine at min_esup = λ*/N.
        let min_esup = Ratio::new("min_esup(λ*/N)", lambda / n as f64)?;
        Ok(Some(PoissonApprox {
            threshold: min_esup.threshold_real(n),
        }))
    }

    /// The derived threshold in transactions (`≈ λ*`).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl FrequentnessMeasure for PoissonApprox {
    fn name(&self) -> &'static str {
        MeasureKind::Poisson.name()
    }

    fn needs(&self) -> StatNeeds {
        StatNeeds::default()
    }

    fn min_esup_bound(&self) -> Option<f64> {
        Some(self.threshold)
    }

    fn judge(&self, c: &CandidateStats<'_>, _stats: &mut MinerStats) -> Option<Judgment> {
        // Membership-only semantics: no variance, no probability.
        (c.esup >= self.threshold).then_some(Judgment {
            expected_support: c.esup,
            variance: None,
            frequent_prob: None,
        })
    }

    fn as_esup_threshold(&self) -> Option<f64> {
        Some(self.threshold)
    }
}

/// Normal (CLT) approximation of Definition 4 from `(esup, Var)` (paper
/// §3.3.2–3.3.3), with a sound `min_esup` pushdown bound derived from the
/// Normal tail at `pft` ([`normal_esup_lower_bound`]).
#[derive(Clone, Copy, Debug)]
pub struct NormalApprox {
    msup: usize,
    pft: f64,
    min_esup: f64,
}

impl NormalApprox {
    /// Creates the measure for an integer support threshold and `pft`.
    pub fn new(msup: usize, pft: f64) -> Self {
        NormalApprox {
            msup,
            pft,
            min_esup: normal_esup_lower_bound(msup, pft),
        }
    }
}

impl FrequentnessMeasure for NormalApprox {
    fn name(&self) -> &'static str {
        MeasureKind::Normal.name()
    }

    fn needs(&self) -> StatNeeds {
        StatNeeds {
            variance: true,
            ..StatNeeds::default()
        }
    }

    fn min_esup_bound(&self) -> Option<f64> {
        // Var ≤ esup for any Poisson-Binomial support, so below this mean
        // the approximated survival cannot clear pft whatever the variance.
        Some(self.min_esup)
    }

    fn judge(&self, c: &CandidateStats<'_>, _stats: &mut MinerStats) -> Option<Judgment> {
        let pr = normal_survival_with_continuity(c.esup, c.variance, self.msup);
        (pr > self.pft).then_some(Judgment {
            expected_support: c.esup,
            variance: Some(c.variance),
            frequent_prob: Some(pr),
        })
    }
}

/// Which exact frequent-probability kernel an [`ExactMeasure`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExactKernel {
    /// Threshold-truncated dynamic programming, `O(N·msup)` per itemset.
    DynamicProgramming,
    /// Divide-and-conquer PMF with FFT convolution, `O(N log N)` per
    /// itemset.
    DivideConquer,
}

/// Exact Definition 4: `Pr{sup(X) ≥ msup} > pft` evaluated by a DP or DC
/// kernel over the candidate's probability vector (paper §3.2), with the
/// optional Chernoff + count screen of §3.2.3.
#[derive(Clone, Copy, Debug)]
pub struct ExactMeasure {
    kernel: ExactKernel,
    chernoff: bool,
    msup: usize,
    msup_real: f64,
    pft: f64,
}

impl ExactMeasure {
    /// Creates the measure for a database of `n` transactions.
    pub fn new(kernel: ExactKernel, chernoff: bool, n: usize, params: &MiningParams) -> Self {
        ExactMeasure {
            kernel,
            chernoff,
            msup: params.msup(n),
            msup_real: params.min_sup.threshold_real(n),
            pft: params.pft.get(),
        }
    }
}

impl FrequentnessMeasure for ExactMeasure {
    fn name(&self) -> &'static str {
        match self.kernel {
            ExactKernel::DynamicProgramming => MeasureKind::ExactDp.name(),
            ExactKernel::DivideConquer => MeasureKind::ExactDc.name(),
        }
    }

    fn needs(&self) -> StatNeeds {
        StatNeeds {
            variance: false,
            count: true,
            prob_vector: true,
        }
    }

    /// The cut [`chernoff_min_esup`] derives from the Chernoff screen:
    /// every `esup` below it is [`Screen::PruneBound`] or
    /// [`Screen::PruneCount`], so engines drop those candidates' vectors
    /// before the screen runs. The screen's verdicts do not change.
    fn min_esup_bound(&self) -> Option<f64> {
        self.chernoff
            .then(|| chernoff_min_esup(self.msup_real, self.pft))
            .flatten()
    }

    /// The count screen's own threshold. `⌈min_esup_bound⌉ ≤ msup`, so the
    /// level-2 count floor stays `msup`. NB variants evaluate every
    /// candidate exactly and export neither bound, so their engines keep
    /// every vector.
    fn min_count_bound(&self) -> Option<u64> {
        self.chernoff.then_some(self.msup as u64)
    }

    fn screen(&self, esup: f64, count: u64) -> Screen {
        if !self.chernoff {
            Screen::Keep
        } else if (count as usize) < self.msup {
            Screen::PruneCount
        } else if chernoff_prunable(esup, self.msup_real, self.pft) {
            Screen::PruneBound
        } else {
            Screen::Keep
        }
    }

    fn judge(&self, c: &CandidateStats<'_>, stats: &mut MinerStats) -> Option<Judgment> {
        let probs = c.probs.expect("exact measures require probability vectors");
        stats.exact_evaluations += 1;
        let pr = match self.kernel {
            ExactKernel::DynamicProgramming => survival_dp(probs, self.msup),
            ExactKernel::DivideConquer => {
                // Saturated PMF: index msup is Pr{sup ≥ msup}.
                let pmf = pmf_divide_conquer(probs, Some(self.msup));
                if self.msup < pmf.len() {
                    pmf[self.msup]
                } else {
                    0.0
                }
            }
        };
        (pr > self.pft).then_some(Judgment {
            expected_support: c.esup,
            variance: None,
            frequent_prob: Some(pr),
        })
    }
}

/// One kept candidate's raw engine statistics, retained for later
/// re-judgment at a different threshold of the *same* measure kind.
///
/// These are the exact [`CandidateStats`] fields the basis run's judge saw
/// (bit-exact f64s, cloned probability vectors), which is what makes warm
/// answers provably bit-identical to a cold re-mine: the engine statistics
/// of a candidate do not depend on the threshold (pushdown bounds only drop
/// memo state, never change values), so re-running `judge` on a retained
/// record at a covered query threshold reproduces the cold record exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct RetainedRecord {
    /// The itemset.
    pub itemset: Itemset,
    /// Engine-computed expected support.
    pub esup: f64,
    /// Engine-computed support variance (0.0 when the measure never reads
    /// it — [`StatNeeds::variance`] is a constant per measure kind).
    pub variance: f64,
    /// Engine-computed nonzero-transaction count (0 likewise).
    pub count: u64,
    /// The nonzero containment-probability vector, retained only for exact
    /// measures ([`StatNeeds::prob_vector`]).
    pub probs: Option<Vec<f64>>,
}

impl RetainedRecord {
    /// Approximate heap + inline weight in bytes, for residency budgeting.
    pub fn mem_bytes(&self) -> u64 {
        let probs = self.probs.as_ref().map_or(0, |p| p.len() * 8);
        (std::mem::size_of::<RetainedRecord>() + self.itemset.len() * 4 + probs) as u64
    }

    /// Re-judges this record's retained statistics under `measure`,
    /// producing the same [`FrequentItemset`] a cold mine at that measure's
    /// parameters would emit (or `None` if the record does not qualify).
    pub fn rejudge<M: FrequentnessMeasure + ?Sized>(
        &self,
        measure: &M,
        stats: &mut MinerStats,
    ) -> Option<FrequentItemset> {
        let c = CandidateStats {
            esup: self.esup,
            variance: self.variance,
            count: self.count,
            probs: self.probs.as_deref(),
        };
        measure.judge(&c, stats).map(|j| FrequentItemset {
            itemset: self.itemset.clone(),
            expected_support: j.expected_support,
            variance: j.variance,
            frequent_prob: j.frequent_prob,
        })
    }
}

/// The generic level evaluator: any [`FrequentnessMeasure`] over any
/// [`SupportEngine`]. This is the whole Apriori half of the matrix — the
/// per-miner evaluators (expected-support, Normal, Poisson, exact two-phase)
/// that the seed duplicated across five modules collapse into this one type.
pub struct MeasureEvaluator<'e, M: FrequentnessMeasure> {
    /// The judgment.
    pub measure: M,
    /// The support backend.
    pub engine: Box<dyn SupportEngine + 'e>,
    /// When `Some`, every kept candidate's raw statistics are also pushed
    /// here (the resident-memo capture seam; see [`mine_level_wise_captured`]).
    pub capture: Option<Vec<RetainedRecord>>,
}

impl<M: FrequentnessMeasure> LevelEvaluator for MeasureEvaluator<'_, M> {
    fn evaluate_level(
        &mut self,
        _db: &UncertainDatabase,
        _level: usize,
        candidates: &[Itemset],
        stats: &mut MinerStats,
    ) -> Vec<FrequentItemset> {
        stats.candidates_evaluated += candidates.len() as u64;
        let needs = self.measure.needs();
        let want = StatRequest {
            variance: needs.variance,
            count: needs.count,
            min_esup: self.measure.min_esup_bound(),
            min_count: self.measure.min_count_bound(),
        };
        let sup = self.engine.evaluate(candidates, want, stats);
        let mut out = Vec::with_capacity(candidates.len());
        let capture = &mut self.capture;
        judge_level(
            &self.measure,
            self.engine.as_mut(),
            candidates,
            &sup,
            capture.is_some(),
            stats,
            |i, j, probs| {
                if let Some(capture) = capture.as_mut() {
                    capture.push(RetainedRecord {
                        itemset: candidates[i].clone(),
                        esup: sup.esup[i],
                        variance: sup.variance.as_ref().map_or(0.0, |v| v[i]),
                        count: sup.count.as_ref().map_or(0, |c| c[i]),
                        probs,
                    });
                }
                out.push(FrequentItemset {
                    itemset: candidates[i].clone(),
                    expected_support: j.expected_support,
                    variance: j.variance,
                    frequent_prob: j.frequent_prob,
                });
            },
        );
        self.engine.finish_level(&out);
        out
    }

    /// `max(min_count_bound, ⌈min_esup_bound⌉)`. The esup bound converts
    /// because `esup ≤ count`: every containment probability is at most 1,
    /// and a round-to-nearest sum of `count` terms ≤ 1 cannot exceed
    /// `count`. For the exact B measures the count bound `msup` is the
    /// larger one. The exact NB measures export neither bound and get no
    /// floor.
    fn count_floor(&self) -> Option<u64> {
        let esup = self.measure.min_esup_bound().map(|t| t.ceil() as u64);
        self.measure.min_count_bound().into_iter().chain(esup).max()
    }
}

/// Screens and judges one evaluated level: calls `emit(index, judgment,
/// probs)` for every kept candidate, in candidate order — the one judge
/// path of the batch evaluator and the incremental refresh.
///
/// Measures that judge on moments alone run screen and judge in one
/// sequential pass. Measures that judge exact distributions screen first,
/// then judge the survivors on the worker pool: each task reads one
/// survivor's vector through [`SupportEngine::read_vector`] into its
/// worker's scratch, runs the kernel and keeps only the judgment (plus a
/// copy of the vector when `retain_probs`). No level-wide list of vectors
/// is built. Survivors are scheduled longest vector first, and the map
/// stays sequential below [`DEFAULT_MIN_WORK`] vector entries. Every
/// kernel runs in exactly one task and results merge in survivor order, so
/// records and counters are identical at every pool size.
pub(crate) fn judge_level<M: FrequentnessMeasure>(
    measure: &M,
    engine: &mut dyn SupportEngine,
    candidates: &[Itemset],
    sup: &LevelSupport,
    retain_probs: bool,
    stats: &mut MinerStats,
    mut emit: impl FnMut(usize, Judgment, Option<Vec<f64>>),
) {
    let moments = |i: usize| CandidateStats {
        esup: sup.esup[i],
        variance: sup.variance.as_ref().map_or(0.0, |v| v[i]),
        count: sup.count.as_ref().map_or(0, |c| c[i]),
        probs: None,
    };
    let vectors = measure.needs().prob_vector;
    let mut survivors: Vec<u32> = Vec::new();
    for i in 0..candidates.len() {
        let c = moments(i);
        match measure.screen(c.esup, c.count) {
            Screen::Keep if vectors => survivors.push(i as u32),
            Screen::Keep => {
                if let Some(j) = measure.judge(&c, stats) {
                    emit(i, j, None);
                }
            }
            Screen::PruneCount => stats.candidates_pruned_count += 1,
            Screen::PruneBound => stats.candidates_pruned_chernoff += 1,
        }
    }
    if survivors.is_empty() {
        return;
    }

    engine.gather_vectors(candidates, &survivors, stats);
    let engine: &dyn SupportEngine = engine;
    // A kernel's cost grows with its vector's length (the count).
    let len = |slot: u32| moments(survivors[slot as usize] as usize).count;
    let mut order: Vec<u32> = (0..survivors.len() as u32).collect();
    order.sort_by_key(|&slot| std::cmp::Reverse(len(slot)));
    let total: u64 = order.iter().map(|&slot| len(slot)).sum();
    let mean_len = usize::try_from(total.div_ceil(order.len() as u64)).unwrap_or(usize::MAX);
    let judged = par_map_min_len_with(
        &order,
        mean_len,
        DEFAULT_MIN_WORK,
        VectorScratch::new,
        |scratch, &slot| {
            let i = survivors[slot as usize] as usize;
            let mut local = MinerStats {
                intersections: engine.read_vector(slot as usize, &candidates[i], scratch),
                ..MinerStats::default()
            };
            let c = CandidateStats {
                probs: Some(scratch.probs()),
                ..moments(i)
            };
            let kept = measure.judge(&c, &mut local).map(|j| {
                let probs = retain_probs.then(|| scratch.probs().to_vec());
                (j, probs)
            });
            (local, kept)
        },
    );
    let mut by_slot: Vec<Option<(Judgment, Option<Vec<f64>>)>> = vec![None; survivors.len()];
    for (&slot, (local, kept)) in order.iter().zip(judged) {
        stats.absorb(&local);
        by_slot[slot as usize] = kept;
    }
    for (&i, kept) in survivors.iter().zip(by_slot) {
        if let Some((j, probs)) = kept {
            emit(i as usize, j, probs);
        }
    }
}

/// Runs the level-wise (Apriori) traversal of `measure` on the `engine`
/// backend — the `LevelWise` column of the matrix as one function.
pub fn mine_level_wise<M: FrequentnessMeasure>(
    db: &UncertainDatabase,
    measure: M,
    engine: EngineKind,
) -> MiningResult {
    let mut evaluator = MeasureEvaluator {
        measure,
        engine: super::engine::build_engine(engine, db),
        capture: None,
    };
    super::apriori::run_apriori(db, &mut evaluator)
}

/// A tid-range shard plan that selects nothing. Kept only for the
/// `perfbench` benchmark, its only caller.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardPlan;

/// [`mine_level_wise`] under a [`ShardPlan`] that selects nothing. Kept
/// only for the `perfbench` benchmark, its only caller.
#[doc(hidden)]
pub fn mine_level_wise_with_plan<M: FrequentnessMeasure>(
    db: &UncertainDatabase,
    measure: M,
    engine: EngineKind,
    _plan: ShardPlan,
) -> MiningResult {
    mine_level_wise(db, measure, engine)
}

/// [`mine_level_wise`], additionally retaining every kept candidate's raw
/// engine statistics — the mine-*into*-a-resident-memo entry point.
///
/// The returned records are in judgment order (level-major), one per output
/// itemset, carrying the bit-exact [`CandidateStats`] the judge consumed.
/// [`RetainedRecord::rejudge`] replays them under any same-kind measure
/// whose answer set is a subset (anti-monotonicity in the threshold), which
/// is how the serving layer answers covered queries with zero intersections.
pub fn mine_level_wise_captured<M: FrequentnessMeasure>(
    db: &UncertainDatabase,
    measure: M,
    engine: EngineKind,
) -> (MiningResult, Vec<RetainedRecord>) {
    let mut evaluator = MeasureEvaluator {
        measure,
        engine: super::engine::build_engine(engine, db),
        capture: Some(Vec::new()),
    };
    let result = super::apriori::run_apriori(db, &mut evaluator);
    let retained = evaluator.capture.take().unwrap_or_default();
    (result, retained)
}

/// One-scan item-level selection for the depth-first traversals: judges
/// every item of the vocabulary by `measure` and returns the survivors with
/// their expected supports (the input of
/// [`FrequencyOrder::from_selection`](super::order::FrequencyOrder::from_selection)).
///
/// Charges one scan; item-level screens feed the prune counters, and exact
/// measures charge their kernel runs, but items are not counted as
/// candidates — matching how the seed's depth-first miners accounted for
/// their level-1 filtering.
///
/// For exact measures the surviving items' kernels run again when the walk
/// judges the same singletons (the walk needs the judgment's probability
/// for the output record). That one-time `O(F)` duplication is the price
/// of filtering the structure down to the frequent item mass before it is
/// built, which is what keeps the arena small on sparse data.
pub fn select_items<M: FrequentnessMeasure>(
    db: &UncertainDatabase,
    measure: &M,
    stats: &mut MinerStats,
) -> Vec<(ItemId, f64)> {
    let needs = measure.needs();
    let ni = db.num_items() as usize;
    let mut esup = vec![0.0f64; ni];
    let mut var = vec![0.0f64; ni];
    let mut count = vec![0u64; ni];
    let mut qs: Option<Vec<Vec<f64>>> = needs.prob_vector.then(|| vec![Vec::new(); ni]);
    for t in db.transactions() {
        for (item, p) in t.units() {
            let i = item as usize;
            esup[i] += p;
            if needs.variance {
                var[i] += p * (1.0 - p);
            }
            count[i] += 1;
            if let Some(qs) = &mut qs {
                qs[i].push(p);
            }
        }
    }
    stats.scans += 1;

    let mut selection = Vec::new();
    for i in 0..ni {
        match measure.screen(esup[i], count[i]) {
            Screen::Keep => {}
            Screen::PruneCount => {
                stats.candidates_pruned_count += 1;
                continue;
            }
            Screen::PruneBound => {
                stats.candidates_pruned_chernoff += 1;
                continue;
            }
        }
        let c = CandidateStats {
            esup: esup[i],
            variance: var[i],
            count: count[i],
            probs: qs.as_ref().map(|q| q[i].as_slice()),
        };
        if measure.judge(&c, stats).is_some() {
            selection.push((i as ItemId, esup[i]));
        }
    }
    selection
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufim_core::examples::paper_table1;

    #[test]
    fn expected_support_measure_judges_by_threshold() {
        let mut stats = MinerStats::default();
        let m = ExpectedSupport::new(2.0);
        assert_eq!(m.name(), "esup");
        assert_eq!(m.min_esup_bound(), Some(2.0));
        assert_eq!(m.as_esup_threshold(), Some(2.0));
        assert!(!m.needs().variance && !m.needs().prob_vector);
        let keep = CandidateStats {
            esup: 2.1,
            variance: 0.0,
            count: 3,
            probs: None,
        };
        let j = m.judge(&keep, &mut stats).unwrap();
        assert_eq!(j.expected_support, 2.1);
        assert_eq!(j.variance, None);
        assert_eq!(j.frequent_prob, None);
        let drop = CandidateStats { esup: 1.9, ..keep };
        assert!(m.judge(&drop, &mut stats).is_none());
        // Variance mode records it.
        let mv = ExpectedSupport::with_variance(2.0);
        assert!(mv.needs().variance);
        let j = mv
            .judge(
                &CandidateStats {
                    variance: 0.57,
                    ..keep
                },
                &mut stats,
            )
            .unwrap();
        assert_eq!(j.variance, Some(0.57));
    }

    #[test]
    fn poisson_measure_folds_into_a_threshold() {
        let params = MiningParams::new(0.5, 0.7).unwrap();
        let m = PoissonApprox::from_params(100, &params).unwrap().unwrap();
        assert_eq!(m.name(), "poisson");
        assert!(m.threshold() > 0.0 && m.threshold() <= 100.0);
        assert_eq!(m.as_esup_threshold(), Some(m.threshold()));
        let mut stats = MinerStats::default();
        let j = m
            .judge(
                &CandidateStats {
                    esup: m.threshold() + 1.0,
                    variance: 0.0,
                    count: 60,
                    probs: None,
                },
                &mut stats,
            )
            .unwrap();
        // Membership-only: never a probability, never a variance.
        assert_eq!(j.frequent_prob, None);
        assert_eq!(j.variance, None);
        // Infeasible λ*: min_sup = 1.0, pft = 0.99 on a tiny database.
        let params = MiningParams::new(1.0, 0.99).unwrap();
        assert!(PoissonApprox::from_params(4, &params).unwrap().is_none());
    }

    #[test]
    fn normal_measure_reports_probability_and_bound() {
        let m = NormalApprox::new(3, 0.5);
        assert_eq!(m.name(), "normal");
        assert!(m.needs().variance);
        let bound = m.min_esup_bound().unwrap();
        assert!(bound > 0.0 && bound <= 2.5);
        let mut stats = MinerStats::default();
        // esup 2.6, var 0.86 (paper's {C}): Pr ≈ 0.543 > 0.5 → kept.
        let j = m
            .judge(
                &CandidateStats {
                    esup: 2.6,
                    variance: 0.86,
                    count: 4,
                    probs: None,
                },
                &mut stats,
            )
            .unwrap();
        let pr = j.frequent_prob.unwrap();
        assert!((pr - normal_survival_with_continuity(2.6, 0.86, 3)).abs() < 1e-15);
        assert_eq!(j.variance, Some(0.86));
        // Below the pushdown bound, the verdict must be prune whatever the
        // variance (soundness of the bound at the measure level).
        for frac in [0.1, 0.5, 0.99] {
            let esup = bound * frac;
            for var in [0.0, esup * 0.5, esup] {
                let c = CandidateStats {
                    esup,
                    variance: var,
                    count: 4,
                    probs: None,
                };
                assert!(m.judge(&c, &mut stats).is_none(), "esup={esup} var={var}");
            }
        }
    }

    #[test]
    fn exact_measure_screens_then_judges() {
        let params = MiningParams::new(0.5, 0.7).unwrap();
        let m = ExactMeasure::new(ExactKernel::DynamicProgramming, true, 4, &params);
        assert_eq!(m.name(), "exact-dp");
        assert!(m.needs().prob_vector && m.needs().count);
        assert_eq!(m.min_count_bound(), Some(2));
        // Count screen: one nonzero transaction < msup = 2.
        assert_eq!(m.screen(0.9, 1), Screen::PruneCount);
        // Chernoff screen: tiny mean far below the threshold.
        let m100 = ExactMeasure::new(
            ExactKernel::DynamicProgramming,
            true,
            100,
            &MiningParams::new(0.5, 0.7).unwrap(),
        );
        assert_eq!(m100.screen(1.0, 80), Screen::PruneBound);
        // NB variant never screens.
        let nb = ExactMeasure::new(ExactKernel::DivideConquer, false, 100, &params);
        assert_eq!(nb.screen(1.0, 1), Screen::Keep);
        assert_eq!(nb.min_count_bound(), None);
        assert_eq!(nb.name(), "exact-dc");

        // Kernels agree and charge exact_evaluations.
        let probs = [0.9, 0.8, 0.7, 0.4];
        let mut stats = MinerStats::default();
        let c = CandidateStats {
            esup: probs.iter().sum(),
            variance: 0.0,
            count: probs.len() as u64,
            probs: Some(&probs),
        };
        let dp = m.judge(&c, &mut stats).unwrap();
        let dc = ExactMeasure::new(ExactKernel::DivideConquer, true, 4, &params)
            .judge(&c, &mut stats)
            .unwrap();
        assert_eq!(stats.exact_evaluations, 2);
        assert!((dp.frequent_prob.unwrap() - dc.frequent_prob.unwrap()).abs() < 1e-12);
        assert!((dp.frequent_prob.unwrap() - survival_dp(&probs, 2)).abs() < 1e-15);
    }

    /// An exact measure with its esup cut hidden from the engines.
    struct WithoutEsupCut(ExactMeasure);

    impl FrequentnessMeasure for WithoutEsupCut {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn needs(&self) -> StatNeeds {
            self.0.needs()
        }
        fn min_count_bound(&self) -> Option<u64> {
            self.0.min_count_bound()
        }
        fn screen(&self, esup: f64, count: u64) -> Screen {
            self.0.screen(esup, count)
        }
        fn judge(&self, c: &CandidateStats<'_>, stats: &mut MinerStats) -> Option<Judgment> {
            self.0.judge(c, stats)
        }
    }

    #[test]
    fn chernoff_esup_cut_changes_only_the_memo() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Dense enough that many triples clear the count floor while their
        // expected support sits under the Chernoff cut.
        let mut rng = StdRng::seed_from_u64(22);
        let transactions: Vec<Transaction> = (0..1_500)
            .map(|_| {
                let units: Vec<(u32, f64)> = (0..12u32)
                    .filter_map(|i| {
                        if rng.gen_bool(0.45) {
                            Some((i, rng.gen_range(0.5..=1.0)))
                        } else {
                            None
                        }
                    })
                    .collect();
                Transaction::new(units).unwrap()
            })
            .collect();
        let db = UncertainDatabase::with_num_items(transactions, 12);
        let params = MiningParams::new(0.08, 0.9).unwrap();
        for kernel in [ExactKernel::DynamicProgramming, ExactKernel::DivideConquer] {
            let m = ExactMeasure::new(kernel, true, db.num_transactions(), &params);
            let cut = m.min_esup_bound().expect("the B variants export a cut");
            assert!(cut > 0.0 && cut < params.msup(db.num_transactions()) as f64);
            for engine in [EngineKind::Vertical, EngineKind::Diffset] {
                let with = mine_level_wise(&db, m, engine);
                let without = mine_level_wise(&db, WithoutEsupCut(m), engine);
                let at = format!("{} on {engine}", m.name());
                assert!(!with.is_empty(), "{at}");
                assert_eq!(with.itemsets, without.itemsets, "{at}");
                let decisions = |s: &MinerStats| {
                    (
                        s.candidates_evaluated,
                        s.candidates_pruned_structural,
                        s.candidates_pruned_chernoff,
                        s.candidates_pruned_count,
                        s.exact_evaluations,
                        s.scans,
                    )
                };
                assert_eq!(decisions(&with.stats), decisions(&without.stats), "{at}");
                assert!(with.stats.candidates_pruned_chernoff > 0, "{at}");
                // The diffset engine charges one intersection for each
                // tidset node it materializes, and a cut candidate has none.
                assert!(
                    with.stats.intersections <= without.stats.intersections,
                    "{at}"
                );
                if engine == EngineKind::Vertical {
                    assert_eq!(
                        with.stats.intersections, without.stats.intersections,
                        "{at}"
                    );
                }
                assert!(
                    with.stats.peak_memo_bytes < without.stats.peak_memo_bytes,
                    "{at}: {} vs {}",
                    with.stats.peak_memo_bytes,
                    without.stats.peak_memo_bytes
                );
            }
        }
        // The NB variants export no cut.
        let nb = ExactMeasure::new(
            ExactKernel::DynamicProgramming,
            false,
            db.num_transactions(),
            &params,
        );
        assert_eq!(nb.min_esup_bound(), None);
    }

    #[test]
    fn level_wise_runner_reproduces_example1_on_both_engines() {
        let db = paper_table1();
        for engine in EngineKind::ALL {
            let r = mine_level_wise(&db, ExpectedSupport::new(2.0), engine);
            assert_eq!(
                r.sorted_itemsets(),
                vec![Itemset::singleton(0), Itemset::singleton(2)],
                "{engine}"
            );
        }
    }

    #[test]
    fn select_items_matches_frequency_order_inputs() {
        use crate::common::order::FrequencyOrder;
        let db = paper_table1();
        let mut stats = MinerStats::default();
        let sel = select_items(&db, &ExpectedSupport::new(2.0), &mut stats);
        assert_eq!(stats.scans, 1);
        // Same survivors and esups as the esup-threshold FrequencyOrder.
        let order = FrequencyOrder::from_selection(db.num_items(), sel);
        let reference = FrequencyOrder::build(&db, 2.0);
        assert_eq!(order.len(), reference.len());
        for rank in 0..order.len() as u32 {
            assert_eq!(order.item(rank), reference.item(rank));
            assert_eq!(order.esup(rank), reference.esup(rank));
        }
    }
}
