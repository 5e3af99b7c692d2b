//! The pluggable support-computation layer under the Apriori-framework
//! miners.
//!
//! Every Apriori-framework miner (UApriori, PDUApriori, NDUApriori, and the
//! exact DP/DC family) consumes per-candidate support statistics and — for
//! the exact miners — the candidates' nonzero containment-probability
//! vectors. [`SupportEngine`] abstracts *how* those are computed, so the
//! algorithms above the seam stay byte-identical while the data layout and
//! execution strategy below it swap freely:
//!
//! * [`HorizontalScan`] — the paper's layout: one trie-guided pass over the
//!   transaction list per level ([`LevelScan`]), parallelized over
//!   transaction chunks. The reference backend.
//! * [`VerticalEngine`] — columnar tid-lists ([`VerticalIndex`]): one
//!   database pass builds per-item postings; afterwards a `k`-candidate's
//!   vector is the merge-intersection of its `(k−1)`-prefix's **memoized**
//!   vector with the last item's postings (U-Eclat), parallelized over
//!   candidates. `esup`, variance, count and the exact miners' DP/DC input
//!   are all byproducts of that single intersection.
//! * [`DiffsetEngine`] — the dEclat analog of the vertical backend,
//!   optimized for **memory** rather than time: the prefix memo stores
//!   each frequent itemset as a [`DiffVector`] *delta* against its own
//!   prefix (only the tids the extension dropped; survivors gather the
//!   appended item's postings along the prefix chain), with the node's
//!   `(esup, var, count)` cached so `evaluate` under pushdown never
//!   materializes a vector. Each memo node adaptively keeps whichever of
//!   tidset/diffset is smaller — exactly dEclat's per-node choice — so on
//!   dense data, where almost every tid survives every extension, the memo
//!   shrinks from O(level width × N) to the sum of the (small) deltas.
//!
//! All backends produce **bit-identical** results: per-transaction
//! containment probabilities are multiplied in ascending item order and
//! summed in ascending transaction order in every layout, and every
//! statistics accumulation — the columnar kernels' and [`LevelScan`]'s
//! chunk reduction, sequential or parallel — uses the same fixed summation
//! shape (`ufim_core::vertical::SUM_STRIPES` striped partial sums per
//! `ufim_core::vertical::SUM_BLOCK_TIDS` = 4096-transaction block, a
//! transaction landing in stripe `tid % 8`, stripes folded in ascending
//! stripe order and blocks in ascending block order). Results are
//! therefore deterministic for a given database regardless of
//! `UFIM_THREADS` *and* identical across backends at every database size;
//! the cross-backend proptest suite and the large-database scan test pin
//! this bit for bit.
//!
//! Select a backend through [`EngineKind`] (on `MiningParams` or the miner
//! builders) and instantiate per run with [`build_engine`]. Future backends
//! (async, out-of-core, approximate-sketch) implement the same trait.
//!
//! Each columnar backend keeps **one** memo over whole tid-lists: there is
//! no tid-range partitioning. Parallelism runs across candidates (vertical)
//! or prefix groups (diffset) on the shared pool, and the fixed summation
//! shape above keeps records *and* counters bit-identical for every
//! `UFIM_THREADS`.
//!
//! ## Scratch spaces
//!
//! Both columnar backends run their per-candidate kernels through the
//! zero-allocation `*_into` variants ([`ProbVector::intersect_into`],
//! [`ProbVector::diff_extend_into`]), each worker loop on the persistent
//! work-stealing pool owning one reusable [`ScratchSpace`]
//! (`par_map_min_len_with` builds one state per worker loop — at most the
//! thread budget — whichever pool threads end up running those loops; the
//! sequential path builds exactly one). Steady-state evaluation
//! therefore allocates nothing per candidate: a candidate only pays an
//! exactly-sized export when it survives pruning and enters the memo.
//! Scratch never affects results — the kernels are bit-identical to their
//! allocating twins, which the core test suite pins.

use super::scan::LevelScan;
use ufim_core::parallel::par_map_min_len_with;
use ufim_core::{
    BlockMoments, DiffVector, EngineKind, FrequentItemset, FxHashMap, ItemId, Itemset, MinerStats,
    ProbVector, ScratchSpace, StepProbe, UncertainDatabase, VerticalIndex, WindowStep,
};

/// Which optional statistics [`SupportEngine::evaluate`] must produce, plus
/// optional *memoization pushdown* predicates.
///
/// The pushdown thresholds never change any reported statistic — they tell
/// a memoizing engine which candidates provably cannot be frequent (esup or
/// nonzero count below the miner's own cutoff) so their intersection state
/// need not be retained. On candidate-heavy final levels, where nothing
/// survives, this eliminates the memo entirely.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StatRequest {
    /// Also accumulate the support variance `Σ q(1−q)` per candidate.
    pub variance: bool,
    /// Also count transactions with nonzero containment per candidate.
    pub count: bool,
    /// Candidates with `esup` below this can never be frequent.
    pub min_esup: Option<f64>,
    /// Candidates with fewer nonzero transactions can never be frequent.
    pub min_count: Option<u64>,
}

impl StatRequest {
    /// Expected support only.
    pub const ESUP: StatRequest = StatRequest {
        variance: false,
        count: false,
        min_esup: None,
        min_count: None,
    };
    /// Expected support + variance (Normal-approximation miners).
    pub const WITH_VARIANCE: StatRequest = StatRequest {
        variance: true,
        count: false,
        min_esup: None,
        min_count: None,
    };
    /// Expected support + nonzero count (exact miners' pruning phase).
    pub const WITH_COUNT: StatRequest = StatRequest {
        variance: false,
        count: true,
        min_esup: None,
        min_count: None,
    };

    /// Adds an esup memoization-pushdown threshold.
    pub fn with_min_esup(mut self, threshold: f64) -> Self {
        self.min_esup = Some(threshold);
        self
    }

    /// Adds a nonzero-count memoization-pushdown threshold.
    pub fn with_min_count(mut self, threshold: u64) -> Self {
        self.min_count = Some(threshold);
        self
    }
}

/// Per-candidate support statistics for one level.
#[derive(Clone, Debug, Default)]
pub struct LevelSupport {
    /// Expected support per candidate.
    pub esup: Vec<f64>,
    /// Support variance per candidate (iff requested).
    pub variance: Option<Vec<f64>>,
    /// Nonzero-transaction count per candidate (iff requested).
    pub count: Option<Vec<u64>>,
}

/// Per-worker buffers for [`SupportEngine::read_vector`]: the vector just
/// read, plus the diffset backend's reconstruction buffer. Contents never
/// influence results.
#[derive(Default)]
pub struct VectorScratch {
    probs: Vec<f64>,
    child: ProbVector,
}

impl VectorScratch {
    /// Empty buffers (they grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The nonzero probabilities of the last [`SupportEngine::read_vector`],
    /// in transaction order.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }
}

/// A support-computation backend, instantiated once per mining run.
///
/// The level-wise protocol is: `evaluate` once per level with all the
/// level's candidates; for measures that judge exact distributions,
/// `gather_vectors` over the screen survivors and then `read_vector` per
/// survivor (through `&self`, so reads can run on the worker pool); then
/// `finish_level` with the frequent itemsets so memoizing backends can
/// retain exactly the state the next level will extend.
pub trait SupportEngine: Sync {
    /// Backend name (matches [`EngineKind::name`]).
    fn name(&self) -> &'static str;

    /// Computes all requested statistics for every candidate in one logical
    /// pass.
    fn evaluate(
        &mut self,
        candidates: &[Itemset],
        want: StatRequest,
        stats: &mut MinerStats,
    ) -> LevelSupport;

    /// Readies [`read_vector`](Self::read_vector) for the survivors
    /// `candidates[survivors[slot]]` of the current level's `evaluate`
    /// call. The horizontal backend gathers their vectors here in one scan;
    /// the diffset backend resolves each delta node's prefix once; the
    /// vertical backend reads straight from its memo and does nothing.
    fn gather_vectors(
        &mut self,
        candidates: &[Itemset],
        survivors: &[u32],
        stats: &mut MinerStats,
    ) {
        let _ = (candidates, survivors, stats);
    }

    /// Writes the nonzero containment-probability vector (transaction
    /// order) of survivor `slot` of the last
    /// [`gather_vectors`](Self::gather_vectors) call — whose itemset is
    /// `candidate` — into `scratch`: the exact DP/DC kernels' input.
    /// Returns the intersection-equivalent work the read performed (cold
    /// folds, delta steps), which the caller charges to
    /// [`MinerStats::intersections`]. Reads are independent of each other,
    /// so they may run on any worker in any order.
    fn read_vector(&self, slot: usize, candidate: &Itemset, scratch: &mut VectorScratch) -> u64;

    /// Declares which itemsets of the current level are frequent. Memoizing
    /// backends keep exactly these as prefixes for the next level.
    fn finish_level(&mut self, frequent: &[FrequentItemset]);

    /// Peak bytes of memoized prefix state held so far (0 for backends
    /// that memoize nothing, like the horizontal scan, whose per-level
    /// trie is transient). The memory-accounting axis of the backend
    /// comparison; the allocator-level `ufim_metrics::alloc::measure_peak`
    /// number additionally includes transient buffers.
    fn peak_memo_bytes(&self) -> u64 {
        0
    }

    /// Applies one sliding-window step to the backend's own copy of the
    /// data (postings point updates) and brings any
    /// retained memo state along: the columnar backends switch into
    /// *streaming* mode on the first step and thereafter keep their
    /// prefix memos across refreshes, point-patching each retained node
    /// — touched vector chunks rewritten in place, cached `(esup, var,
    /// count)` moments re-folded from retained per-4096-tid-block partial
    /// sums — to exactly the state a freshly built engine would
    /// recompute. Nodes the step moved too much (or that fell out of the
    /// last refresh's frequent stream) are evicted instead; evictions are
    /// safe because every backend falls back to a bit-identical cold fold
    /// for prefixes absent from its memo. After a `true` return,
    /// evaluations are bit-identical to a rebuilt engine's.
    ///
    /// `probe` must be [`StepProbe::new`] over the same `step` (the caller
    /// builds it once per step and shares it with the border tracker); the
    /// patch walks use it to detect touched nodes and read new containment
    /// probabilities without re-walking transactions. `stats` receives
    /// [`MinerStats::memo_patched`] / [`MinerStats::memo_rebuilt`] counts
    /// for the patch walk.
    ///
    /// Returns `false` when the backend holds no mutable copy of the data
    /// (the horizontal scan borrows the caller's database) — the caller
    /// must then rebuild the engine over the new window snapshot.
    fn apply_window_step(
        &mut self,
        step: &WindowStep,
        probe: &StepProbe,
        stats: &mut MinerStats,
    ) -> bool {
        let _ = (step, probe, stats);
        false
    }
}

/// Builds the backend selected by `kind` over `db`.
pub fn build_engine(kind: EngineKind, db: &UncertainDatabase) -> Box<dyn SupportEngine + '_> {
    match kind {
        EngineKind::Horizontal => Box::new(HorizontalScan::new(db)),
        EngineKind::Vertical => Box::new(VerticalEngine::new(db)),
        EngineKind::Diffset => Box::new(DiffsetEngine::new(db)),
    }
}

/// The reference backend: trie-guided horizontal scans (see [`LevelScan`]).
pub struct HorizontalScan<'a> {
    db: &'a UncertainDatabase,
    /// The current level's scan state, so `gather_vectors` on the same
    /// candidate list reuses the already-built trie.
    current: Option<(Vec<Itemset>, LevelScan<'a>)>,
    /// The survivors' vectors from the last `gather_vectors` scan, by slot.
    gathered: Vec<Vec<f64>>,
}

impl<'a> HorizontalScan<'a> {
    /// New backend over `db`.
    pub fn new(db: &'a UncertainDatabase) -> Self {
        HorizontalScan {
            db,
            current: None,
            gathered: Vec::new(),
        }
    }

    fn scan_for(&mut self, candidates: &[Itemset]) -> &LevelScan<'a> {
        // The cache key is a full clone of the candidate list: O(level) per
        // level, small next to the scan it guards, and immune to the
        // address-reuse hazards a pointer-based key would have for direct
        // trait users who skip `finish_level`. The comparison short-circuits
        // on length, so the Chernoff miners' survivor-subset gather costs
        // O(1) before rebuilding.
        let reusable = matches!(&self.current, Some((c, _)) if c.as_slice() == candidates);
        if !reusable {
            self.current = Some((candidates.to_vec(), LevelScan::new(self.db, candidates)));
        }
        &self.current.as_ref().expect("just set").1
    }
}

impl SupportEngine for HorizontalScan<'_> {
    fn name(&self) -> &'static str {
        EngineKind::Horizontal.name()
    }

    fn evaluate(
        &mut self,
        candidates: &[Itemset],
        want: StatRequest,
        stats: &mut MinerStats,
    ) -> LevelSupport {
        let acc = self
            .scan_for(candidates)
            .accumulate(want.variance, want.count, stats);
        LevelSupport {
            esup: acc.esup,
            variance: acc.var,
            count: acc.count,
        }
    }

    fn gather_vectors(
        &mut self,
        candidates: &[Itemset],
        survivors: &[u32],
        stats: &mut MinerStats,
    ) {
        // One scan gathers every survivor's vector: this layout has no memo
        // to read them from.
        self.gathered = if survivors.len() == candidates.len() {
            self.scan_for(candidates).prob_vectors(stats)
        } else {
            let sets: Vec<Itemset> = survivors
                .iter()
                .map(|&i| candidates[i as usize].clone())
                .collect();
            self.scan_for(&sets).prob_vectors(stats)
        };
    }

    fn read_vector(&self, slot: usize, _candidate: &Itemset, scratch: &mut VectorScratch) -> u64 {
        scratch.probs.clear();
        scratch.probs.extend_from_slice(&self.gathered[slot]);
        0
    }

    fn finish_level(&mut self, _frequent: &[FrequentItemset]) {
        self.current = None;
        self.gathered = Vec::new();
    }
}

/// Work-size threshold (candidates × mean tid-list length) below which the
/// vertical backend stays sequential (shared with the horizontal scans).
const PAR_MIN_WORK: usize = ufim_core::parallel::DEFAULT_MIN_WORK;

/// The point updates one window step implies for a retained node of
/// `items`: `(tid, new containment probability)` for every dirty slot
/// whose probability actually changed, ascending by tid. The memoized
/// vector's value at a tid equals the probe's old-row product bit for bit
/// (both are the same ascending left-fold), so the bitwise filter detects
/// untouched nodes exactly like the border tracker does — an empty return
/// means the node is already byte-identical to a rebuild.
fn itemset_updates(probe: &StepProbe, items: &[ItemId]) -> Vec<(u32, f64)> {
    probe.updates(items)
}

/// The ascending, deduplicated summation-block keys a batch of point
/// updates touches — the blocks [`BlockMoments::refresh`] must recompute.
fn touched_block_keys(updates: &[(u32, f64)]) -> Vec<u32> {
    let mut blocks: Vec<u32> = updates
        .iter()
        .map(|&(tid, _)| BlockMoments::block_of_tid(tid))
        .collect();
    blocks.dedup();
    blocks
}

/// Deterministic patch-vs-evict rule for a retained node: patching
/// rewrites only touched chunks, but a step that moves half the node's
/// tids costs as much as the cold re-fold it replaces — evict then and
/// let the next use rebuild. A pure function of the update count and the
/// node's nonzero size, so `memo_patched` / `memo_rebuilt` are identical
/// across thread counts.
fn patch_beats_rebuild(changed: usize, nnz: usize) -> bool {
    changed * 2 <= nnz.max(1)
}

/// One retained prefix of the vertical memo: its prob-vector. In
/// streaming mode the node additionally keeps the vector's
/// per-4096-tid-block striped partial sums, so a window step can re-fold
/// only the touched blocks and land bit-identical cached moments, plus the
/// stamp of the last refresh whose frequent stream contained it.
struct PrevNode {
    vector: ProbVector,
    /// Block partials of `vector` (`Some` in streaming mode only).
    moments: Option<BlockMoments>,
    /// Cross-refresh GC stamp (streaming mode; 0 in batch mode).
    stamp: u64,
}

/// The columnar backend: per-item postings + memoized prefix intersection.
pub struct VerticalEngine {
    index: VerticalIndex,
    /// Prob-vectors of the previous levels' *frequent* itemsets, keyed by
    /// their item arrays: the prefixes the current level's candidates
    /// extend. Singleton prefixes are served by the index itself. In
    /// batch mode this holds exactly the previous level; in streaming
    /// mode it is the retained cross-refresh memo (the live frequent
    /// lattice), point-patched by each window step.
    prev: FxHashMap<Vec<ItemId>, PrevNode>,
    /// Prob-vectors of every candidate evaluated in the current level.
    current: FxHashMap<Vec<ItemId>, ProbVector>,
    /// Whether the one-time index build has been charged to `stats.scans`.
    scan_charged: bool,
    /// Peak `(tid, prob)` units held in memo state (diagnostic).
    peak_memo_units: u64,
    /// Peak bytes of the same memo state ([`SupportEngine::peak_memo_bytes`]).
    peak_memo_bytes: u64,
    /// True once the first window step was applied: the memo is retained
    /// across refreshes from then on and point-patched per step.
    streaming: bool,
    /// Streaming refresh stamp: bumped per applied step; `finish_level`
    /// stamps every frequent itemset of the refresh with the current
    /// value, and the next step's GC drops nodes that missed it.
    stamp: u64,
}

impl VerticalEngine {
    /// Builds the index (the run's single database pass) and an empty memo.
    pub fn new(db: &UncertainDatabase) -> Self {
        VerticalEngine {
            index: VerticalIndex::build(db),
            prev: FxHashMap::default(),
            current: FxHashMap::default(),
            scan_charged: false,
            peak_memo_units: 0,
            peak_memo_bytes: 0,
            streaming: false,
            stamp: 0,
        }
    }

    fn note_memo_peak(&mut self) {
        let (mut units, mut bytes) = (0usize, 0usize);
        for node in self.prev.values() {
            units += node.vector.mem_units();
            bytes += node.vector.mem_bytes();
            bytes += node.moments.as_ref().map_or(0, BlockMoments::mem_bytes);
        }
        for v in self.current.values() {
            units += v.mem_units();
            bytes += v.mem_bytes();
        }
        self.peak_memo_units = self.peak_memo_units.max(units as u64);
        self.peak_memo_bytes = self.peak_memo_bytes.max(bytes as u64);
    }
}

impl SupportEngine for VerticalEngine {
    fn name(&self) -> &'static str {
        EngineKind::Vertical.name()
    }

    fn evaluate(
        &mut self,
        candidates: &[Itemset],
        want: StatRequest,
        stats: &mut MinerStats,
    ) -> LevelSupport {
        if !self.scan_charged {
            // The engine's only database pass is the index build.
            stats.scans += 1;
            self.scan_charged = true;
        }
        let mut out = LevelSupport {
            esup: Vec::with_capacity(candidates.len()),
            variance: want.variance.then(|| Vec::with_capacity(candidates.len())),
            count: want.count.then(|| Vec::with_capacity(candidates.len())),
        };
        let record = |out: &mut LevelSupport, esup: f64, var: f64, count: usize| {
            out.esup.push(esup);
            if let Some(vs) = out.variance.as_mut() {
                vs.push(var);
            }
            if let Some(cs) = out.count.as_mut() {
                cs.push(count as u64);
            }
        };

        // Singleton candidates read their postings in place — no
        // intersection, no clone, no memo entry (pair prefixes resolve
        // straight from the index).
        if candidates.iter().all(|c| c.len() == 1) {
            for c in candidates {
                let postings = self.index.postings(c.items()[0]);
                let (esup, var) = postings.moments();
                record(&mut out, esup, var, postings.len());
            }
            return out;
        }

        // Parallel across candidates: each intersection reads only the
        // index and the previous level's memo, through a per-worker
        // scratch (see the module docs — evaluation allocates only for
        // candidates whose vector enters the memo).
        let mean_units = self.index.mean_posting_units();
        let (index, prev) = (&self.index, &self.prev);

        // In streaming mode (whose refreshes carry no pushdown thresholds),
        // candidates the patch walk kept current in the retained memo are
        // answered straight from their per-block partials — the payoff of
        // memo-preserving delta evaluation: the fold combines the
        // already-maintained block sums, bit-identical to the cold re-fold
        // a fresh intersection would feed the same accumulator shape. Every
        // other candidate is walked once by `evaluate_pushdown`, and only
        // those walks are charged an intersection.
        let streaming = self.streaming;
        let mut moments: Vec<Option<(f64, f64, usize)>> = candidates
            .iter()
            .map(|c| {
                if !streaming {
                    return None;
                }
                prev.get(c.items())
                    .and_then(|n| n.moments.as_ref())
                    .map(BlockMoments::fold)
            })
            .collect();
        let mut misses: Vec<u32> = (0..candidates.len() as u32)
            .filter(|&i| moments[i as usize].is_none())
            .collect();
        stats.intersections += misses
            .iter()
            .filter(|&&i| candidates[i as usize].len() > 1)
            .count() as u64;
        // Evaluate tiled by last item, not in candidate order: all
        // candidates whose last items fall in one tile of `LAST_ITEM_TILE`
        // consecutive ids are evaluated together, sorted by prefix within
        // the tile. The tile's postings vectors — the fattest operands — fit
        // in cache and stay resident, while each prefix vector's reads land
        // back-to-back (one DRAM stream-in, then hits) instead of once per
        // last-item group. (Raw candidate order interleaves last items,
        // which re-streams a different postings vector per candidate; on
        // the dense anchor that traffic costs more than the arithmetic.)
        // Results are scattered back to candidate order — per-candidate
        // sums don't depend on evaluation order.
        const LAST_ITEM_TILE: u32 = 8;
        misses.sort_by_key(|&i| {
            let items = candidates[i as usize].items();
            let (last, prefix) = items.split_last().expect("candidates are non-empty");
            (last / LAST_ITEM_TILE, prefix, *last)
        });
        let results = par_map_min_len_with(
            &misses,
            mean_units.max(1),
            PAR_MIN_WORK,
            ScratchSpace::new,
            |scratch, &i| {
                evaluate_pushdown(
                    index,
                    prev,
                    &candidates[i as usize],
                    scratch,
                    want.min_esup,
                    want.min_count,
                )
            },
        );
        for (&i, (m, vector)) in misses.iter().zip(results) {
            moments[i as usize] = Some(m);
            if let Some(vector) = vector {
                self.current
                    .insert(candidates[i as usize].items().to_vec(), vector);
            }
        }
        for m in moments {
            let (esup, var, count) = m.expect("every candidate is folded or walked");
            record(&mut out, esup, var, count);
        }
        self.note_memo_peak();
        stats.peak_structure_nodes = stats.peak_structure_nodes.max(self.peak_memo_units);
        stats.peak_memo_bytes = stats.peak_memo_bytes.max(self.peak_memo_bytes);
        out
    }

    fn read_vector(&self, _slot: usize, candidate: &Itemset, scratch: &mut VectorScratch) -> u64 {
        match self.current.get(candidate.items()) {
            Some(v) => {
                v.nonzero_probs_into(&mut scratch.probs);
                0
            }
            None => {
                // Cold path (direct trait users): a from-scratch fold
                // costs `len − 1` intersections; charge them.
                vector_for(&self.index, &self.prev, candidate)
                    .nonzero_probs_into(&mut scratch.probs);
                candidate.len().saturating_sub(1) as u64
            }
        }
    }

    fn finish_level(&mut self, frequent: &[FrequentItemset]) {
        if self.streaming {
            // Streaming mode: survivors accumulate into the retained
            // cross-refresh memo with fresh block partials; reused
            // frequent itemsets (never re-evaluated this refresh) keep
            // their patched node and just renew the GC stamp.
            for f in frequent {
                if let Some(v) = self.current.remove(f.itemset.items()) {
                    let moments = BlockMoments::of(&v);
                    self.prev.insert(
                        f.itemset.items().to_vec(),
                        PrevNode {
                            vector: v,
                            moments: Some(moments),
                            stamp: self.stamp,
                        },
                    );
                } else if let Some(node) = self.prev.get_mut(f.itemset.items()) {
                    node.stamp = self.stamp;
                }
            }
            self.current = FxHashMap::default();
            self.note_memo_peak();
            return;
        }
        let mut next = FxHashMap::default();
        for f in frequent {
            if let Some(v) = self.current.remove(f.itemset.items()) {
                next.insert(
                    f.itemset.items().to_vec(),
                    PrevNode {
                        vector: v,
                        moments: None,
                        stamp: 0,
                    },
                );
            }
        }
        self.prev = next;
        self.current = FxHashMap::default();
    }

    fn peak_memo_bytes(&self) -> u64 {
        self.peak_memo_bytes
    }

    fn apply_window_step(
        &mut self,
        step: &WindowStep,
        probe: &StepProbe,
        stats: &mut MinerStats,
    ) -> bool {
        // The index maintains itself byte-identically to a rebuild over
        // the stepped window. The retained prefix memo is *patched*, not
        // dropped: each live node whose itemset probability changed at a
        // dirty tid gets its touched chunks rewritten in place and its
        // cached block partials re-folded — bit-identical to the cold
        // fold the next refresh would otherwise pay. Peak memory counters
        // deliberately survive: they track the engine lifetime.
        self.index.apply_step(step);
        let keep = self.stamp;
        self.stamp += 1;
        let first = !self.streaming;
        self.streaming = true;
        if first {
            // Batch-era memo: nodes carry no block partials (and stamp 0)
            // — drop them without charging the patch counters.
            self.prev = FxHashMap::default();
            self.current = FxHashMap::default();
        } else {
            self.prev.retain(|items, node| {
                if node.stamp != keep {
                    // Fell out of the last refresh's frequent stream.
                    return false;
                }
                let updates = itemset_updates(probe, items);
                if updates.is_empty() {
                    return true;
                }
                let Some(moments) = node.moments.as_mut() else {
                    stats.memo_rebuilt += 1;
                    return false;
                };
                if !patch_beats_rebuild(updates.len(), node.vector.len()) {
                    stats.memo_rebuilt += 1;
                    return false;
                }
                node.vector.apply_tid_delta(&updates);
                moments.refresh(&node.vector, &touched_block_keys(&updates));
                stats.memo_patched += 1;
                true
            });
        }
        true
    }
}

/// One entry of the [`DiffsetEngine`] memo: a frequent itemset's cached
/// statistics plus whichever representation of its prob-vector is smaller —
/// the full tidset, or the delta against its own prefix.
struct MemoNode {
    repr: NodeRepr,
    esup: f64,
    var: f64,
    count: usize,
    /// Per-4096-tid-block partials of the node's *resolved* vector
    /// (`Some` in streaming mode only): the fixed summation shape that
    /// lets a window step re-fold only the touched blocks and land
    /// cached `(esup, var, count)` bit-identical to a cold re-fold.
    moments: Option<BlockMoments>,
    /// Cross-refresh GC stamp (streaming mode; 0 in batch mode).
    stamp: u64,
}

enum NodeRepr {
    /// Materialized vector (chosen when it is smaller than the delta —
    /// the sparse-child regime, and the chain terminator for resolution).
    Tidset(ProbVector),
    /// Delta against the prefix node (`items[..k-1]`); survivors gather
    /// `postings(items[k-1])` through [`ProbVector::apply_diff`].
    Diff(DiffVector),
}

impl MemoNode {
    fn mem_bytes(&self) -> usize {
        let repr = match &self.repr {
            NodeRepr::Tidset(v) => v.mem_bytes(),
            NodeRepr::Diff(d) => d.mem_bytes(),
        };
        repr + self.moments.as_ref().map_or(0, BlockMoments::mem_bytes)
    }
}

/// The memory-optimized columnar backend: per-item postings + a delta-chain
/// prefix memo (dEclat for uncertain data). See the module docs.
///
/// Unlike [`VerticalEngine`], which keeps whole prob-vectors for one full
/// level of frequent prefixes, this memo retains **every** frequent itemset
/// seen so far — but (on dense data) each as a small [`DiffVector`]. The
/// chain bottoms out at the index's own postings (or at a node that chose
/// the tidset representation), so reconstruction never rescans the
/// database. Reconstruction is amortized per *prefix group*: candidates of
/// a level share `(k−1)`-prefixes, and each group resolves its prefix
/// vector once, transiently.
pub struct DiffsetEngine {
    index: VerticalIndex,
    /// Every retained frequent itemset, keyed by its item array. Ancestors
    /// of any retained delta node are themselves retained (Apriori
    /// closure: every prefix of a frequent itemset is frequent).
    memo: FxHashMap<Vec<ItemId>, MemoNode>,
    /// Nodes for the current level's candidates, pending `finish_level`.
    current: FxHashMap<Vec<ItemId>, MemoNode>,
    /// Delta-chain prefixes `gather_vectors` reconstructed for the current
    /// level's reads, pending `finish_level`.
    resolved: FxHashMap<Vec<ItemId>, ProbVector>,
    /// Whether the one-time index build has been charged to `stats.scans`.
    scan_charged: bool,
    /// Peak memo bytes ([`SupportEngine::peak_memo_bytes`]).
    peak_memo_bytes: u64,
    /// Peak memo units (a dropped tid or a `(tid, prob)` entry each count
    /// one), reported through `MinerStats::peak_structure_nodes`.
    peak_memo_units: u64,
    /// True once the first window step was applied: the delta-chain memo
    /// is retained across refreshes from then on and point-patched per
    /// step.
    streaming: bool,
    /// Streaming refresh stamp — same protocol as [`VerticalEngine`].
    stamp: u64,
}

/// A resolved prefix vector: borrowed straight from the index or a tidset
/// node when possible, owned when reconstructed through a delta chain.
enum Resolved<'a> {
    Borrowed(&'a ProbVector),
    Owned(ProbVector),
}

impl Resolved<'_> {
    fn get(&self) -> &ProbVector {
        match self {
            Resolved::Borrowed(v) => v,
            Resolved::Owned(v) => v,
        }
    }
}

/// Reconstructs the prob-vector of `items` from the delta-chain memo,
/// counting each `apply_diff` step into `applies` (they are
/// intersection-equivalent work). Falls back to a from-scratch postings
/// fold for itemsets the memo never saw (direct trait users).
fn resolve<'a>(
    index: &'a VerticalIndex,
    memo: &'a FxHashMap<Vec<ItemId>, MemoNode>,
    items: &[ItemId],
    applies: &mut u64,
) -> Resolved<'a> {
    match items.len() {
        0 => Resolved::Owned(ProbVector::new()),
        1 => Resolved::Borrowed(index.postings(items[0])),
        k => match memo.get(items) {
            Some(node) => match &node.repr {
                NodeRepr::Tidset(v) => Resolved::Borrowed(v),
                NodeRepr::Diff(d) => {
                    let parent = resolve(index, memo, &items[..k - 1], applies);
                    *applies += 1;
                    Resolved::Owned(parent.get().apply_diff(d, index.postings(items[k - 1])))
                }
            },
            None => {
                // Cold fallback (direct trait users): a from-scratch fold
                // costs `len − 1` intersections; charge them.
                *applies += items.len().saturating_sub(1) as u64;
                Resolved::Owned(index.prob_vector(items))
            }
        },
    }
}

/// Per-candidate output of one prefix group's evaluation.
struct DiffEval {
    esup: f64,
    var: f64,
    count: usize,
    /// `None` when pushdown ruled the candidate out (nothing memoized).
    node: Option<MemoNode>,
}

impl DiffsetEngine {
    /// Builds the index (the run's single database pass) and empty memos.
    pub fn new(db: &UncertainDatabase) -> Self {
        DiffsetEngine {
            index: VerticalIndex::build(db),
            memo: FxHashMap::default(),
            current: FxHashMap::default(),
            resolved: FxHashMap::default(),
            scan_charged: false,
            peak_memo_bytes: 0,
            peak_memo_units: 0,
            streaming: false,
            stamp: 0,
        }
    }

    /// Longest run a single group may span. Longer same-prefix runs are
    /// split so one giant group (a candidate-heavy final level with few
    /// prefixes) cannot serialize the parallel map; each extra split only
    /// re-resolves the shared prefix once.
    const MAX_GROUP: usize = 64;

    /// Splits `candidates` into runs (of at most [`Self::MAX_GROUP`])
    /// sharing length and `(k−1)`-prefix. Apriori's join emits same-prefix
    /// candidates contiguously, so this is a single linear pass;
    /// non-contiguous repeats merely resolve their prefix more than once.
    fn prefix_groups(candidates: &[Itemset]) -> Vec<(usize, usize)> {
        let mut groups = Vec::new();
        let mut start = 0usize;
        for i in 1..=candidates.len() {
            let split = i == candidates.len() || i - start >= Self::MAX_GROUP || {
                let (a, b) = (&candidates[i - 1], &candidates[i]);
                a.len() != b.len()
                    || a.len() <= 1
                    || a.items()[..a.len() - 1] != b.items()[..b.len() - 1]
            };
            if split {
                groups.push((start, i));
                start = i;
            }
        }
        groups
    }

    /// Evaluates one prefix group: resolves the shared prefix vector once,
    /// then runs `diff_extend_into` per candidate through the worker's
    /// scratch — a candidate the pushdown rules out costs **no**
    /// allocation; survivors export whichever memo representation is
    /// smaller, exactly sized. Returns the per-candidate results plus the
    /// intersection-equivalent work performed (one per `diff_extend` or
    /// `apply_diff`; cached hits cost none).
    fn evaluate_group(
        &self,
        candidates: &[Itemset],
        want: StatRequest,
        scratch: &mut ScratchSpace,
    ) -> (Vec<DiffEval>, u64) {
        let mut work = 0u64;
        let n = self.index.num_transactions();
        let mut out = Vec::with_capacity(candidates.len());
        // All group members share a length and (for k > 1) a prefix.
        let k = candidates[0].len();
        if k <= 1 {
            for c in candidates {
                let (esup, var, count, node) = match c.items().first() {
                    Some(&item) => {
                        let postings = self.index.postings(item);
                        let (esup, var) = postings.moments();
                        // Singletons live in the index; no memo entry.
                        (esup, var, postings.len(), None)
                    }
                    None => (0.0, 0.0, 0, None),
                };
                out.push(DiffEval {
                    esup,
                    var,
                    count,
                    node,
                });
            }
            return (out, work);
        }
        // Re-evaluated itemsets (direct trait users, repeated runs) are
        // served wholly from the cached per-node statistics.
        if let Some(cached) = candidates
            .iter()
            .map(|c| {
                self.current
                    .get(c.items())
                    .or_else(|| self.memo.get(c.items()))
            })
            .collect::<Option<Vec<&MemoNode>>>()
        {
            for node in cached {
                out.push(DiffEval {
                    esup: node.esup,
                    var: node.var,
                    count: node.count,
                    node: None,
                });
            }
            return (out, work);
        }
        let prefix = resolve(
            &self.index,
            &self.memo,
            &candidates[0].items()[..k - 1],
            &mut work,
        );
        let prefix = prefix.get();
        for c in candidates {
            let last = c.items()[k - 1];
            let postings = self.index.postings(last);
            work += 1;
            // Streaming runs fold through the block-partial kernel so the
            // retained node carries the fixed summation shape a window
            // step patches; both kernels land bit-identical moments.
            let (blocks, esup, var, count) = if self.streaming {
                let (b, esup, var, count) = prefix.diff_extend_blocks_into(postings, scratch);
                (Some(b), esup, var, count)
            } else {
                let (esup, var, count) = prefix.diff_extend_into(postings, scratch);
                (None, esup, var, count)
            };
            let hopeless = want.min_esup.is_some_and(|t| esup < t)
                || want.min_count.is_some_and(|t| (count as u64) < t);
            let node = if hopeless {
                None // nothing exported: the ruled-out candidate cost no allocation
            } else {
                // dEclat's per-node choice: keep whichever representation
                // is smaller. The tidset costs lanes + chunk directory
                // (estimated from the survivor count); the diffset 4 bytes
                // per dropped tid.
                let tidset_bytes = ProbVector::estimate_mem_bytes(count, n);
                let diff_bytes = std::mem::size_of_val(scratch.dropped());
                if diff_bytes <= tidset_bytes {
                    Some(MemoNode {
                        repr: NodeRepr::Diff(scratch.export_diff()),
                        esup,
                        var,
                        count,
                        moments: blocks,
                        stamp: 0,
                    })
                } else {
                    work += 1;
                    let mut v = prefix.apply_dropped(scratch.dropped(), postings);
                    v.shrink_to_fit();
                    Some(MemoNode {
                        repr: NodeRepr::Tidset(v),
                        esup,
                        var,
                        count,
                        moments: blocks,
                        stamp: 0,
                    })
                }
            };
            out.push(DiffEval {
                esup,
                var,
                count,
                node,
            });
        }
        (out, work)
    }

    fn note_memo_peak(&mut self) {
        let (mut units, mut bytes) = (0usize, 0usize);
        for node in self.memo.values().chain(self.current.values()) {
            bytes += node.mem_bytes();
            units += match &node.repr {
                NodeRepr::Tidset(v) => v.mem_units(),
                NodeRepr::Diff(d) => d.len(),
            };
        }
        self.peak_memo_bytes = self.peak_memo_bytes.max(bytes as u64);
        self.peak_memo_units = self.peak_memo_units.max(units as u64);
    }
}

impl SupportEngine for DiffsetEngine {
    fn name(&self) -> &'static str {
        EngineKind::Diffset.name()
    }

    fn evaluate(
        &mut self,
        candidates: &[Itemset],
        want: StatRequest,
        stats: &mut MinerStats,
    ) -> LevelSupport {
        if !self.scan_charged {
            // The engine's only database pass is the index build.
            stats.scans += 1;
            self.scan_charged = true;
        }
        // Intersection-equivalent work (one diff_extend per non-singleton
        // candidate — stats + delta in a single pass, so pushdown never
        // pays a second intersection — plus apply_diff chain resolution
        // and tidset materialization) is counted per group below.

        let n = candidates.len();
        let mut out = LevelSupport {
            esup: vec![0.0; n],
            variance: want.variance.then(|| vec![0.0; n]),
            count: want.count.then(|| vec![0u64; n]),
        };

        let groups = Self::prefix_groups(candidates);
        // Gate and balance on *candidates*, not groups: the weight folds
        // the mean group size back in so this backend fans out at the same
        // scale as the vertical engine, and `prefix_groups` splits long
        // runs so one giant final-level group cannot serialize the map.
        let mean_units = self.index.mean_posting_units();
        let mean_group = candidates.len().div_ceil(groups.len().max(1));
        let weight = mean_units.max(1).saturating_mul(mean_group.max(1));
        let results = par_map_min_len_with(
            &groups,
            weight,
            PAR_MIN_WORK,
            ScratchSpace::new,
            |scratch, &(s, e)| self.evaluate_group(&candidates[s..e], want, scratch),
        );

        for (&(s, _), (evals, work)) in groups.iter().zip(results) {
            stats.intersections += work;
            for (offset, eval) in evals.into_iter().enumerate() {
                let i = s + offset;
                out.esup[i] = eval.esup;
                if let Some(vs) = out.variance.as_mut() {
                    vs[i] = eval.var;
                }
                if let Some(cs) = out.count.as_mut() {
                    cs[i] = eval.count as u64;
                }
                if let Some(node) = eval.node {
                    self.current.insert(candidates[i].items().to_vec(), node);
                }
            }
        }
        self.note_memo_peak();
        stats.peak_structure_nodes = stats.peak_structure_nodes.max(self.peak_memo_units);
        stats.peak_memo_bytes = stats.peak_memo_bytes.max(self.peak_memo_bytes);
        out
    }

    fn gather_vectors(
        &mut self,
        candidates: &[Itemset],
        survivors: &[u32],
        stats: &mut MinerStats,
    ) {
        // Reconstruct each delta survivor's prefix once, ahead of the
        // reads. Survivors arrive sorted, so same-prefix runs are
        // contiguous and each chain is walked (and charged) once per run.
        // Prefixes held whole — postings or tidset nodes — are borrowed at
        // read time instead.
        self.resolved = FxHashMap::default();
        let mut work = 0u64;
        let mut last: Option<&[ItemId]> = None;
        for &i in survivors {
            let items = candidates[i as usize].items();
            let Some(MemoNode {
                repr: NodeRepr::Diff(_),
                ..
            }) = self.current.get(items)
            else {
                continue;
            };
            let prefix = &items[..items.len() - 1];
            if last == Some(prefix) {
                continue;
            }
            last = Some(prefix);
            if let Resolved::Owned(v) = resolve(&self.index, &self.memo, prefix, &mut work) {
                self.resolved.insert(prefix.to_vec(), v);
            }
        }
        stats.intersections += work;
    }

    fn read_vector(&self, _slot: usize, candidate: &Itemset, scratch: &mut VectorScratch) -> u64 {
        let Some(node) = self.current.get(candidate.items()) else {
            // Cold path (singletons, direct trait users): a from-scratch
            // fold costs `len − 1` intersections; charge them.
            self.index
                .prob_vector(candidate.items())
                .nonzero_probs_into(&mut scratch.probs);
            return candidate.len().saturating_sub(1) as u64;
        };
        match &node.repr {
            NodeRepr::Tidset(v) => {
                v.nonzero_probs_into(&mut scratch.probs);
                0
            }
            NodeRepr::Diff(d) => {
                // The prefix comes from `gather_vectors` when its chain
                // needed reconstructing; otherwise it is borrowed for free.
                let mut work = 0u64;
                let k = candidate.len();
                let prefix_items = &candidate.items()[..k - 1];
                let resolved;
                let prefix = match self.resolved.get(prefix_items) {
                    Some(v) => v,
                    None => {
                        resolved = resolve(&self.index, &self.memo, prefix_items, &mut work);
                        resolved.get()
                    }
                };
                work += 1;
                prefix.apply_diff_into(
                    d,
                    self.index.postings(candidate.items()[k - 1]),
                    &mut scratch.child,
                );
                scratch.child.nonzero_probs_into(&mut scratch.probs);
                work
            }
        }
    }

    fn finish_level(&mut self, frequent: &[FrequentItemset]) {
        // Frequent nodes join the persistent delta-chain memo; the rest of
        // the level is dropped. Every ancestor a retained delta needs is
        // already in the memo (each prefix of a frequent itemset was itself
        // frequent on an earlier level). In streaming mode every frequent
        // itemset of the refresh — freshly evaluated or served from the
        // retained memo — renews the GC stamp.
        for f in frequent {
            if let Some(mut node) = self.current.remove(f.itemset.items()) {
                node.stamp = self.stamp;
                self.memo.insert(f.itemset.items().to_vec(), node);
            } else if self.streaming {
                if let Some(node) = self.memo.get_mut(f.itemset.items()) {
                    node.stamp = self.stamp;
                }
            }
        }
        self.current = FxHashMap::default();
        self.resolved = FxHashMap::default();
        if self.streaming {
            self.note_memo_peak();
        }
    }

    fn peak_memo_bytes(&self) -> u64 {
        self.peak_memo_bytes
    }

    fn apply_window_step(
        &mut self,
        step: &WindowStep,
        probe: &StepProbe,
        stats: &mut MinerStats,
    ) -> bool {
        // Same contract as the vertical engine: the index self-maintains
        // byte-identically to a rebuild, and the retained delta-chain
        // memo is *patched* — each live node re-decides the dirty tids'
        // membership in its delta (or rewrites the dirty chunks of its
        // tidset) and re-folds only the touched summation blocks, so the
        // cached `(esup, var, count)` stay bit-identical to a cold
        // re-fold over the stepped window.
        self.index.apply_step(step);
        let keep = self.stamp;
        self.stamp += 1;
        let first = !self.streaming;
        self.streaming = true;
        if first {
            // Batch-era memo: nodes carry no block partials (and stamp 0)
            // — drop them without charging the patch counters.
            self.memo = FxHashMap::default();
            self.current = FxHashMap::default();
        } else {
            patch_diff_nodes(&self.index, &mut self.memo, probe, keep, stats);
        }
        true
    }
}

/// Reconstructs the fragment of `items` restricted to the listed summation
/// blocks (ascending block keys) from the delta-chain memo: the
/// block-restricted analog of [`resolve`]. Restriction commutes with every
/// chain step — `restrict(parent ∖ dropped) = restrict(parent) ∖
/// restrict(dropped)` — and [`ProbVector::apply_dropped`]'s lockstep
/// membership walk requires its dropped list to contain only tids present
/// in `self`, which is exactly why each chain step filters the dropped
/// tids to the requested blocks. Falls back to a block-restricted postings
/// fold for itemsets the memo does not hold.
fn resolve_restricted(
    index: &VerticalIndex,
    memo: &FxHashMap<Vec<ItemId>, MemoNode>,
    items: &[ItemId],
    blocks: &[u32],
) -> ProbVector {
    match items.len() {
        0 => ProbVector::new(),
        1 => index.postings(items[0]).restrict_to_blocks(blocks),
        k => match memo.get(items) {
            Some(node) => match &node.repr {
                NodeRepr::Tidset(v) => v.restrict_to_blocks(blocks),
                NodeRepr::Diff(d) => {
                    let parent = resolve_restricted(index, memo, &items[..k - 1], blocks);
                    let dropped: Vec<u32> = d
                        .dropped()
                        .iter()
                        .copied()
                        .filter(|&t| blocks.binary_search(&BlockMoments::block_of_tid(t)).is_ok())
                        .collect();
                    parent.apply_dropped(&dropped, index.postings(items[k - 1]))
                }
            },
            None => {
                let mut acc = index.postings(items[0]).restrict_to_blocks(blocks);
                for &item in &items[1..] {
                    if acc.is_empty() {
                        break;
                    }
                    acc = acc.intersect(index.postings(item));
                }
                acc
            }
        },
    }
}

/// The diffset backend's patch walk. Keys are visited parents
/// before children (ascending length, then lexicographic), each node
/// temporarily removed so its delta can re-resolve through its
/// *already-patched* ancestors, then reinserted. A `Diff` node first
/// re-decides its delta membership at every dirty tid where a member
/// item's probability moved — `t` is dropped iff the new prefix keeps it
/// while the new child zeroes it; membership can flip even when the child
/// value does not move, but never at a tid whose member probabilities all
/// held still — and then, only when some child value actually changed,
/// re-materializes the touched blocks' fragment through
/// [`resolve_restricted`] and re-folds exactly those blocks of its
/// retained partials; a `Tidset` node rewrites the dirty chunks in place.
/// Either way the cached `(esup, var, count)` come out of
/// [`BlockMoments::fold`], bit-identical to a cold re-fold.
fn patch_diff_nodes(
    index: &VerticalIndex,
    memo: &mut FxHashMap<Vec<ItemId>, MemoNode>,
    probe: &StepProbe,
    keep: u64,
    stats: &mut MinerStats,
) {
    let mut keys: Vec<Vec<ItemId>> = memo.keys().cloned().collect();
    keys.sort_unstable_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    for items in keys {
        let Some(mut node) = memo.remove(&items) else {
            continue;
        };
        if node.stamp != keep {
            // Fell out of the last refresh's frequent stream.
            continue;
        }
        let updates = itemset_updates(probe, &items);
        let is_diff = matches!(node.repr, NodeRepr::Diff(_));
        if updates.is_empty() && !is_diff {
            memo.insert(items, node);
            continue;
        }
        if !updates.is_empty() {
            let hopeless =
                node.moments.is_none() || !patch_beats_rebuild(updates.len(), node.count);
            if hopeless {
                stats.memo_rebuilt += 1;
                continue;
            }
        }
        let k = items.len();
        let (prefix_items, last) = (&items[..k - 1], items[k - 1]);
        match &mut node.repr {
            NodeRepr::Tidset(v) => {
                v.apply_tid_delta(&updates);
                let blocks = touched_block_keys(&updates);
                let moments = node.moments.as_mut().expect("checked above");
                moments.refresh(v, &blocks);
                (node.esup, node.var, node.count) = moments.fold();
                stats.memo_patched += 1;
            }
            NodeRepr::Diff(d) => {
                let membership: Vec<(u32, bool)> = probe
                    .candidate_slots(&items)
                    .iter()
                    .map(|&s| {
                        let drop = probe.new_prob(s, prefix_items) > 0.0
                            && probe.new_prob(s, &items) == 0.0;
                        (probe.tid(s), drop)
                    })
                    .collect();
                d.apply_tid_delta(&membership);
                if !updates.is_empty() {
                    let blocks = touched_block_keys(&updates);
                    let parent = resolve_restricted(index, memo, prefix_items, &blocks);
                    let dropped: Vec<u32> = d
                        .dropped()
                        .iter()
                        .copied()
                        .filter(|&t| blocks.binary_search(&BlockMoments::block_of_tid(t)).is_ok())
                        .collect();
                    let frag = parent.apply_dropped(&dropped, index.postings(last));
                    let moments = node.moments.as_mut().expect("checked above");
                    moments.refresh(&frag, &blocks);
                    (node.esup, node.var, node.count) = moments.fold();
                    stats.memo_patched += 1;
                }
            }
        }
        memo.insert(items, node);
    }
}

/// The U-Eclat recurrence as a free function, so the parallel candidate map
/// can borrow the index and memo without aliasing `&mut VerticalEngine`.
fn vector_for(
    index: &VerticalIndex,
    prev: &FxHashMap<Vec<ItemId>, PrevNode>,
    candidate: &Itemset,
) -> ProbVector {
    let items = candidate.items();
    match items.len() {
        0 => ProbVector::new(),
        1 => index.postings(items[0]).clone(),
        k => {
            let (prefix, last) = (&items[..k - 1], items[k - 1]);
            let last_postings = index.postings(last);
            if prefix.len() == 1 {
                index.postings(prefix[0]).intersect(last_postings)
            } else if let Some(node) = prev.get(prefix) {
                node.vector.intersect(last_postings)
            } else {
                index.prob_vector(items)
            }
        }
    }
}

/// One visit of a candidate — the hot path of
/// [`VerticalEngine::evaluate`]: a single fused
/// [`ProbVector::intersect_into`] walk through the per-worker scratch
/// yields its moments and, in the scratch, its vector. Returns the moments
/// plus the exported (exactly-sized) memo vector when every pushdown
/// threshold keeps the candidate alive — with no thresholds, always.
/// Pruned candidates pay no allocation. Falls back to the allocating fold
/// for cold prefixes (direct trait users), like [`vector_for`].
fn evaluate_pushdown(
    index: &VerticalIndex,
    prev: &FxHashMap<Vec<ItemId>, PrevNode>,
    candidate: &Itemset,
    scratch: &mut ScratchSpace,
    min_esup: Option<f64>,
    min_count: Option<u64>,
) -> ((f64, f64, usize), Option<ProbVector>) {
    let survives = |m: &(f64, f64, usize)| {
        !(min_esup.is_some_and(|t| m.0 < t) || min_count.is_some_and(|t| (m.2 as u64) < t))
    };
    let items = candidate.items();
    match items.len() {
        0 => ((0.0, 0.0, 0), None),
        1 => {
            let postings = index.postings(items[0]);
            let (esup, var) = postings.moments();
            let m = (esup, var, postings.len());
            let vector = survives(&m).then(|| postings.clone());
            (m, vector)
        }
        k => {
            let (prefix, last) = (&items[..k - 1], items[k - 1]);
            let last_postings = index.postings(last);
            let base = if prefix.len() == 1 {
                Some(index.postings(prefix[0]))
            } else {
                prev.get(prefix).map(|n| &n.vector)
            };
            match base {
                Some(v) => {
                    let m = v.intersect_into(last_postings, scratch);
                    let vector = survives(&m).then(|| scratch.export());
                    (m, vector)
                }
                None => {
                    let mut v = index.prob_vector(items);
                    v.shrink_to_fit(); // it enters the memo; drop fold slack
                    let (esup, var) = v.moments();
                    let m = (esup, var, v.len());
                    let vector = survives(&m).then_some(v);
                    (m, vector)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufim_core::examples::paper_table1;

    fn pairs() -> Vec<Itemset> {
        let mut v = Vec::new();
        for a in 0..6u32 {
            for b in a + 1..6u32 {
                v.push(Itemset::from_items([a, b]));
            }
        }
        v
    }

    /// Wraps itemsets as frequent records for `finish_level`.
    fn as_frequent(sets: &[Itemset]) -> Vec<FrequentItemset> {
        sets.iter()
            .map(|s| FrequentItemset::with_esup(s.clone(), 0.0))
            .collect()
    }

    /// Every candidate's vector through `gather_vectors` + `read_vector`,
    /// with the reads' work charged to `stats.intersections`.
    fn read_all(
        engine: &mut dyn SupportEngine,
        candidates: &[Itemset],
        stats: &mut MinerStats,
    ) -> Vec<Vec<f64>> {
        let survivors: Vec<u32> = (0..candidates.len() as u32).collect();
        engine.gather_vectors(candidates, &survivors, stats);
        let mut scratch = VectorScratch::new();
        candidates
            .iter()
            .enumerate()
            .map(|(slot, c)| {
                stats.intersections += engine.read_vector(slot, c, &mut scratch);
                scratch.probs().to_vec()
            })
            .collect()
    }

    #[test]
    fn backends_agree_on_every_statistic() {
        let db = paper_table1();
        let singletons: Vec<Itemset> = (0..6).map(Itemset::singleton).collect();
        for kind in EngineKind::ALL {
            let mut engine = build_engine(kind, &db);
            assert_eq!(engine.name(), kind.name());
            let mut stats = MinerStats::default();
            let l1 = engine.evaluate(
                &singletons,
                StatRequest {
                    variance: true,
                    count: true,
                    ..StatRequest::ESUP
                },
                &mut stats,
            );
            engine.finish_level(&as_frequent(&singletons));
            let l2 = engine.evaluate(&pairs(), StatRequest::WITH_COUNT, &mut stats);
            let qvecs = read_all(engine.as_mut(), &pairs(), &mut stats);
            for (i, c) in singletons.iter().enumerate() {
                let (we, wv) = db.support_moments(c.items());
                assert!((l1.esup[i] - we).abs() < 1e-12, "{kind:?} {c}");
                assert!((l1.variance.as_ref().unwrap()[i] - wv).abs() < 1e-12);
            }
            for (i, c) in pairs().iter().enumerate() {
                let want = db.itemset_prob_vector(c.items());
                assert!((l2.esup[i] - db.expected_support(c.items())).abs() < 1e-12);
                assert_eq!(l2.count.as_ref().unwrap()[i] as usize, want.len());
                assert_eq!(qvecs[i], want, "{kind:?} {c}");
            }
        }
    }

    #[test]
    fn vertical_uses_one_scan_and_counts_intersections() {
        let db = paper_table1();
        let mut engine = VerticalEngine::new(&db);
        let mut stats = MinerStats::default();
        let singletons: Vec<Itemset> = (0..6).map(Itemset::singleton).collect();
        engine.evaluate(&singletons, StatRequest::ESUP, &mut stats);
        engine.finish_level(&as_frequent(&singletons));
        engine.evaluate(&pairs(), StatRequest::ESUP, &mut stats);
        assert_eq!(stats.scans, 1, "vertical pays exactly one database pass");
        assert_eq!(stats.intersections, pairs().len() as u64);
    }

    #[test]
    fn vertical_prefix_memo_survives_level_transition() {
        let db = paper_table1();
        let mut engine = VerticalEngine::new(&db);
        let mut stats = MinerStats::default();
        let singletons: Vec<Itemset> = (0..6).map(Itemset::singleton).collect();
        engine.evaluate(&singletons, StatRequest::ESUP, &mut stats);
        engine.finish_level(&as_frequent(&singletons));
        let p = pairs();
        engine.evaluate(&p, StatRequest::ESUP, &mut stats);
        engine.finish_level(&as_frequent(&p));
        // {A,C,E} extends prefix {A,C} from memo.
        let triple = vec![Itemset::from_items([0, 2, 4])];
        let sup = engine.evaluate(&triple, StatRequest::ESUP, &mut stats);
        assert!((sup.esup[0] - db.expected_support(&[0, 2, 4])).abs() < 1e-12);
    }

    #[test]
    fn vertical_cold_lookup_falls_back_to_scratch_fold() {
        let db = paper_table1();
        let mut engine = VerticalEngine::new(&db);
        let mut stats = MinerStats::default();
        // No prior levels evaluated: a 3-itemset must still be correct.
        let triple = vec![Itemset::from_items([0, 2, 4])];
        let sup = engine.evaluate(&triple, StatRequest::WITH_COUNT, &mut stats);
        assert!((sup.esup[0] - db.expected_support(&[0, 2, 4])).abs() < 1e-12);
        assert_eq!(
            sup.count.as_ref().unwrap()[0] as usize,
            db.itemset_prob_vector(&[0, 2, 4]).len()
        );
    }

    #[test]
    fn vertical_pushdown_charges_one_walk_per_candidate() {
        let db = paper_table1();
        let mut engine = VerticalEngine::new(&db);
        let mut stats = MinerStats::default();
        let singletons: Vec<Itemset> = (0..6).map(Itemset::singleton).collect();
        engine.evaluate(&singletons, StatRequest::ESUP, &mut stats);
        engine.finish_level(&as_frequent(&singletons));
        // Pushdown evaluation is one fused walk per candidate — moments
        // and (for survivors) the memo vector from the same intersection —
        // so the charge is one per candidate whether everything survives…
        let p = pairs();
        engine.evaluate(&p, StatRequest::ESUP.with_min_esup(0.0), &mut stats);
        assert_eq!(stats.intersections, p.len() as u64);
        assert_eq!(engine.current.len(), p.len());

        // …or nothing does (the walk exports nothing).
        let mut engine = VerticalEngine::new(&db);
        let mut stats = MinerStats::default();
        engine.evaluate(&singletons, StatRequest::ESUP, &mut stats);
        engine.finish_level(&as_frequent(&singletons));
        engine.evaluate(&p, StatRequest::ESUP.with_min_esup(1e9), &mut stats);
        assert_eq!(stats.intersections, p.len() as u64);
        assert!(engine.current.is_empty());
    }

    /// A level past the pairs — memoized multi-item prefixes — under an
    /// esup threshold that keeps some candidates and prunes the rest: every
    /// multi-item candidate costs exactly one walk, survivors included.
    #[test]
    fn vertical_threshold_level_walks_each_candidate_once() {
        let db = paper_table1();
        let mut engine = VerticalEngine::new(&db);
        let mut stats = MinerStats::default();
        let singletons: Vec<Itemset> = (0..6).map(Itemset::singleton).collect();
        engine.evaluate(&singletons, StatRequest::ESUP, &mut stats);
        engine.finish_level(&as_frequent(&singletons));
        let p = pairs();
        engine.evaluate(&p, StatRequest::ESUP, &mut stats);
        engine.finish_level(&as_frequent(&p));
        let mut triples = Vec::new();
        for a in 0..6u32 {
            for b in a + 1..6u32 {
                for c in b + 1..6u32 {
                    triples.push(Itemset::from_items([a, b, c]));
                }
            }
        }
        // The largest triple esup: only the maximal triples survive it.
        let threshold = triples
            .iter()
            .map(|t| db.expected_support(t.items()))
            .fold(0.0f64, f64::max);
        let mut stats = MinerStats::default();
        let sup = engine.evaluate(
            &triples,
            StatRequest::ESUP.with_min_esup(threshold),
            &mut stats,
        );
        let survivors = sup.esup.iter().filter(|&&e| e >= threshold).count();
        assert!(survivors > 0 && survivors < triples.len(), "mixed level");
        assert_eq!(engine.current.len(), survivors);
        assert_eq!(stats.intersections, triples.len() as u64);
    }

    #[test]
    fn diffset_agrees_with_vertical_across_levels() {
        let db = paper_table1();
        let mut v = VerticalEngine::new(&db);
        let mut d = DiffsetEngine::new(&db);
        let mut vs = MinerStats::default();
        let mut ds = MinerStats::default();
        let singletons: Vec<Itemset> = (0..6).map(Itemset::singleton).collect();
        let want = StatRequest {
            variance: true,
            count: true,
            ..StatRequest::ESUP
        };
        for level in [singletons, pairs()] {
            let lv = v.evaluate(&level, want, &mut vs);
            let ld = d.evaluate(&level, want, &mut ds);
            for (i, c) in level.iter().enumerate() {
                assert_eq!(lv.esup[i].to_bits(), ld.esup[i].to_bits(), "{c}");
                assert_eq!(
                    lv.variance.as_ref().unwrap()[i].to_bits(),
                    ld.variance.as_ref().unwrap()[i].to_bits()
                );
                assert_eq!(lv.count.as_ref().unwrap()[i], ld.count.as_ref().unwrap()[i]);
            }
            assert_eq!(
                read_all(&mut v, &level, &mut vs),
                read_all(&mut d, &level, &mut ds)
            );
            v.finish_level(&as_frequent(&level));
            d.finish_level(&as_frequent(&level));
        }
        // Level 3 extends memoized pair prefixes through the delta chain.
        let triple = vec![Itemset::from_items([0, 2, 4])];
        let lv = v.evaluate(&triple, want, &mut vs);
        let ld = d.evaluate(&triple, want, &mut ds);
        assert_eq!(lv.esup[0].to_bits(), ld.esup[0].to_bits());
        assert!((ld.esup[0] - db.expected_support(&[0, 2, 4])).abs() < 1e-12);
        assert_eq!(
            read_all(&mut v, &triple, &mut vs),
            read_all(&mut d, &triple, &mut ds)
        );
    }

    #[test]
    fn diffset_pushdown_skips_memoization_but_reports_stats() {
        let db = paper_table1();
        let mut engine = DiffsetEngine::new(&db);
        let mut stats = MinerStats::default();
        let singletons: Vec<Itemset> = (0..6).map(Itemset::singleton).collect();
        engine.evaluate(&singletons, StatRequest::ESUP, &mut stats);
        engine.finish_level(&as_frequent(&singletons));
        let p = pairs();
        let sup = engine.evaluate(&p, StatRequest::ESUP.with_min_esup(1e9), &mut stats);
        // Statistics are still exact for every candidate…
        for (i, c) in p.iter().enumerate() {
            assert!((sup.esup[i] - db.expected_support(c.items())).abs() < 1e-12);
        }
        // …but nothing was memoized (and nothing materialized: one
        // diff_extend per pair, no apply_diff).
        assert!(engine.current.is_empty());
        assert_eq!(stats.intersections, p.len() as u64);
    }

    #[test]
    fn diffset_cold_lookup_falls_back_to_scratch_fold() {
        let db = paper_table1();
        let mut engine = DiffsetEngine::new(&db);
        let mut stats = MinerStats::default();
        let triple = vec![Itemset::from_items([0, 2, 4])];
        let sup = engine.evaluate(&triple, StatRequest::WITH_COUNT, &mut stats);
        assert!((sup.esup[0] - db.expected_support(&[0, 2, 4])).abs() < 1e-12);
        assert_eq!(
            sup.count.as_ref().unwrap()[0] as usize,
            db.itemset_prob_vector(&[0, 2, 4]).len()
        );
    }

    /// A dense fixture on which the delta memo must be strictly smaller
    /// than the vertical backend's whole-vector memo — the tentpole's
    /// reason to exist.
    #[test]
    fn diffset_memo_is_smaller_on_dense_data() {
        use ufim_core::Transaction;
        // 400 transactions, 8 items, ~every item in every transaction with
        // high probability: every extension keeps almost every tid, so
        // deltas are tiny while whole vectors stay ~N long.
        let transactions: Vec<Transaction> = (0..400)
            .map(|t| {
                let units: Vec<(u32, f64)> = (0..8u32)
                    .filter(|i| !(t + *i as usize).is_multiple_of(11))
                    .map(|i| (i, 0.6 + 0.05 * (i as f64)))
                    .collect();
                Transaction::new(units).unwrap()
            })
            .collect();
        let db = UncertainDatabase::with_num_items(transactions, 8);
        let singletons: Vec<Itemset> = (0..8).map(Itemset::singleton).collect();
        let mut all_pairs = Vec::new();
        for a in 0..8u32 {
            for b in a + 1..8u32 {
                all_pairs.push(Itemset::from_items([a, b]));
            }
        }

        let mut v = VerticalEngine::new(&db);
        let mut d = DiffsetEngine::new(&db);
        let mut stats = MinerStats::default();
        for engine in [&mut v as &mut dyn SupportEngine, &mut d] {
            let l1 = engine.evaluate(&singletons, StatRequest::ESUP, &mut stats);
            assert!(l1.esup.iter().all(|&e| e > 0.0));
            engine.finish_level(&as_frequent(&singletons));
            engine.evaluate(&all_pairs, StatRequest::ESUP, &mut stats);
            engine.finish_level(&as_frequent(&all_pairs));
        }
        let (vb, db_) = (v.peak_memo_bytes(), d.peak_memo_bytes());
        assert!(vb > 0 && db_ > 0);
        assert!(
            db_ < vb,
            "diffset memo ({db_} B) must undercut tidset memo ({vb} B) on dense data"
        );
    }

    #[test]
    fn horizontal_reuses_trie_between_evaluate_and_prob_vectors() {
        let db = paper_table1();
        let mut engine = HorizontalScan::new(&db);
        let mut stats = MinerStats::default();
        let p = pairs();
        engine.evaluate(&p, StatRequest::WITH_COUNT, &mut stats);
        let qvecs = read_all(&mut engine, &p, &mut stats);
        // Two passes (stats + vectors), one trie build.
        assert_eq!(stats.scans, 2);
        for (i, c) in p.iter().enumerate() {
            assert_eq!(qvecs[i], db.itemset_prob_vector(c.items()));
        }
    }
}
