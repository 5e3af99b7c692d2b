//! **UH-Mine** — expected-support mining over the UH-Struct hyper-structure
//! (Aggarwal et al. 2009, extending H-Mine; paper §3.1.3).
//!
//! All frequent-item-filtered transactions are materialized once into a flat
//! arena of `(item, probability)` cells, sorted per transaction by global
//! frequency rank (the paper's Figure 2). Mining is depth-first: a *head
//! table* for prefix `P` holds, per extension item `y`, the running
//! expected support `Σ_t m_t · p_t(y)` over the projected rows — pointers
//! into the arena plus the accumulated prefix multiplier
//! `m_t = Π_{x∈P} p_t(x)` — and, for the extensions that are expanded, those
//! rows themselves (Figure 3). Recursing on `y` just advances each row's
//! pointer and multiplies in `p_t(y)`; no structure is ever copied, which is
//! why UH-Mine shines exactly where UFP-growth drowns (sparse data, low
//! thresholds).
//!
//! The walker accumulates whatever statistics the active
//! [`FrequentnessMeasure`] requests — expected support always, the variance
//! `Σ q_t(1 − q_t)` for Normal-approximation measures, and (because each
//! head-table row's multiplier *is* the prefix's containment probability in
//! that transaction) the full per-transaction probability vector for the
//! exact measures. Swapping the measure is the entire difference between
//! UH-Mine, the paper's novel NDUH-Mine (§3.3.3), and the previously
//! unbuildable exact-DP/DC-on-UH-Mine cells of the matrix.
//!
//! ## Head tables in two passes
//!
//! A head table is built in two passes over the projected rows, into a
//! per-task `HeadScratch`. **Pass 1** folds each extension's moments
//! (expected support, variance, nonzero count) into dense per-rank arrays,
//! in row order — the order in which a per-extension row list would be
//! summed. Ranks cover only the selected frequent items, so the arrays
//! stay small; they are reset through the list of ranks the pass touched.
//! The level's screen and judgment then run on those moments, and
//! **pass 2** fills row buffers only for the extensions that will be
//! expanded: an infrequent extension never gets rows. The exact measures
//! are the one exception, since they judge the multipliers themselves:
//! their screen survivors get rows first, and a rejected extension's
//! buffer goes straight back. Row buffers come from the scratch's free
//! list and return there once the subtree below them is mined, so a head
//! table allocates nothing in steady state; what a mine still allocates
//! grows with the itemsets it emits.
//!
//! ## Parallelism
//!
//! The walk decomposes **recursively**: at every level of the depth-first
//! expansion, a kept extension whose projected rows clear
//! `SPAWN_MIN_ROWS` (and whose prefix is shorter than
//! `SPAWN_MAX_DEPTH`) is re-spawned as a nested task on the
//! work-stealing pool ([`ufim_core::parallel::scope`]); smaller subtrees
//! recurse inline. The arena is shared read-only — subtrees never touch
//! each other's rows — so a single dominant first-level subtree (deep
//! skew) splits again below the root instead of serializing on one
//! worker. A spawned task takes over the scratch of a finished one. Each
//! task mines into its own [`MiningResult`] and pushes it into an
//! [`OrderedSink`] under a spawn-order key; the sink merges in key order.
//! Because the spawn decisions are a pure function of the input (sizes and
//! depths — identical for every pool size > 1, and pool size 1 runs
//! everything inline), every float is computed within exactly one task
//! and merged counters are integer sums/maxes, output records *and*
//! [`MinerStats`] are bit-identical for every `UFIM_THREADS`.

use crate::common::measure::{select_items, CandidateStats, FrequentnessMeasure, Judgment, Screen};
use crate::common::order::FrequencyOrder;
use std::sync::{Mutex, MutexGuard, PoisonError};
use ufim_core::parallel::{child_key, scope, OrderedSink, Scope};
use ufim_core::prelude::*;

/// Projected-row count above which a kept extension's whole subtree is
/// spawned as a nested pool task instead of recursing inline. Chosen so
/// task overhead (~a queue push and an allocation) is noise against the
/// head-table pass it buys, and so tiny databases never spawn at all.
const SPAWN_MIN_ROWS: usize = 1 << 10;

/// Prefix length beyond which subtrees always recurse inline — a
/// backstop bounding task bookkeeping on pathologically deep lattices
/// (row counts shrink monotonically, so this is rarely the binding cut).
const SPAWN_MAX_DEPTH: usize = 24;

/// "No row buffer": the slot of a rank that pass 2 skips.
const NO_SLOT: u32 = u32::MAX;

/// One arena cell: item (as frequency rank) and its probability.
#[derive(Clone, Copy)]
struct Cell {
    rank: u32,
    prob: f64,
}

/// A projected transaction row: the cells still ahead of the prefix, plus
/// the prefix containment probability.
#[derive(Clone, Copy)]
struct Row {
    /// Arena index of the first remaining cell.
    next: u32,
    /// Arena index one past the transaction's last cell.
    end: u32,
    /// `Π p_t(x)` over the prefix items.
    mult: f64,
}

/// One task's reusable head-table buffers (see the module docs). Between
/// head tables the moment arrays are zero and every slot is [`NO_SLOT`];
/// every buffer keeps its capacity. Scratch contents never influence
/// results.
struct HeadScratch {
    /// Per-rank expected support, variance and nonzero count of the head
    /// table being built.
    esup: Vec<f64>,
    var: Vec<f64>,
    count: Vec<u32>,
    /// The ranks pass 1 touched; sorted ascending before judging.
    touched: Vec<u32>,
    /// Rank → index into `kept` of the buffer pass 2 fills.
    slot: Vec<u32>,
    /// Kept extensions and their rows, for every head table on the task's
    /// recursion path: each level appends its own and truncates them when
    /// it has expanded them.
    kept: Vec<(u32, Vec<Row>)>,
    /// Emptied row buffers.
    free: Vec<Vec<Row>>,
    /// The multipliers an exact measure judges, gathered from the rows.
    probs: Vec<f64>,
}

impl HeadScratch {
    fn new(num_ranks: usize) -> Self {
        HeadScratch {
            esup: vec![0.0; num_ranks],
            var: vec![0.0; num_ranks],
            count: vec![0; num_ranks],
            touched: Vec::new(),
            slot: vec![NO_SLOT; num_ranks],
            kept: Vec::new(),
            free: Vec::new(),
            probs: Vec::new(),
        }
    }

    /// Appends an empty row buffer for `rank` to `kept`, sized for `rows`
    /// rows, and points `rank`'s slot at it.
    fn give_rows(&mut self, rank: u32, rows: u32) {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.reserve(rows as usize);
        self.slot[rank as usize] = self.kept.len() as u32;
        self.kept.push((rank, buf));
    }

    /// Returns a row buffer to the free list.
    fn recycle(&mut self, mut rows: Vec<Row>) {
        rows.clear();
        self.free.push(rows);
    }
}

/// The shared mining engine. The measure decides whether an extension is
/// output *and* expanded — every measure in the matrix is anti-monotone
/// under its own semantics (the approximations by construction), so a
/// failing prefix never hides a passing extension.
struct UhEngine<'a, M: FrequentnessMeasure> {
    arena: Vec<Cell>,
    order: &'a FrequencyOrder,
    measure: &'a M,
    /// Scratch spaces of finished spawned tasks, taken over by the next.
    scratch: Mutex<Vec<HeadScratch>>,
}

impl<'a, M: FrequentnessMeasure> UhEngine<'a, M> {
    /// Builds the UH-Struct and returns the engine plus the initial rows.
    fn build(
        db: &UncertainDatabase,
        order: &'a FrequencyOrder,
        measure: &'a M,
        stats: &mut MinerStats,
    ) -> (Self, Vec<Row>) {
        let mut arena = Vec::new();
        let mut rows = Vec::new();
        let mut proj = Vec::new();
        for t in db.transactions() {
            order.project_into(t.items(), t.probs(), &mut proj);
            if proj.is_empty() {
                continue;
            }
            let start = arena.len() as u32;
            arena.extend(proj.iter().map(|&(rank, prob)| Cell { rank, prob }));
            rows.push(Row {
                next: start,
                end: arena.len() as u32,
                mult: 1.0,
            });
        }
        stats.scans += 1;
        stats.peak_structure_nodes = stats.peak_structure_nodes.max(arena.len() as u64);
        (
            UhEngine {
                arena,
                order,
                measure,
                scratch: Mutex::new(Vec::new()),
            },
            rows,
        )
    }

    /// Takes a finished task's scratch, or makes a fresh one.
    fn take_scratch(&self) -> HeadScratch {
        self.scratch_pool()
            .pop()
            .unwrap_or_else(|| HeadScratch::new(self.order.len()))
    }

    fn scratch_pool(&self) -> MutexGuard<'_, Vec<HeadScratch>> {
        self.scratch.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Builds, judges and charges (one projection scan) the head table of
    /// `prefix` over `rows`, in the two passes of the module docs. Emits
    /// the record of every kept extension and appends the kept extensions,
    /// in ascending rank (descending global esup) with their projected
    /// rows, to `scratch.kept`; returns the index of the first.
    fn head_table(
        &self,
        rows: &[Row],
        prefix: &mut Vec<ItemId>,
        scratch: &mut HeadScratch,
        out: &mut MiningResult,
    ) -> usize {
        let needs = self.measure.needs();
        // Pass 1: moments per rank, each folded in row order.
        for row in rows {
            for cell in &self.arena[row.next as usize..row.end as usize] {
                let r = cell.rank as usize;
                let q = row.mult * cell.prob;
                if scratch.count[r] == 0 {
                    scratch.touched.push(cell.rank);
                }
                scratch.count[r] += 1;
                scratch.esup[r] += q;
                if needs.variance {
                    scratch.var[r] += q * (1.0 - q);
                }
            }
        }
        out.stats.scans += 1;

        // Screen every extension; judge the moment measures outright.
        scratch.touched.sort_unstable();
        let start = scratch.kept.len();
        for i in 0..scratch.touched.len() {
            let rank = scratch.touched[i];
            let r = rank as usize;
            let count = scratch.count[r];
            out.stats.candidates_evaluated += 1;
            match self.measure.screen(scratch.esup[r], u64::from(count)) {
                Screen::Keep => {}
                Screen::PruneCount => {
                    out.stats.candidates_pruned_count += 1;
                    continue;
                }
                Screen::PruneBound => {
                    out.stats.candidates_pruned_chernoff += 1;
                    continue;
                }
            }
            if !needs.prob_vector {
                let c = CandidateStats {
                    esup: scratch.esup[r],
                    variance: scratch.var[r],
                    count: u64::from(count),
                    probs: None,
                };
                let Some(j) = self.measure.judge(&c, &mut out.stats) else {
                    continue;
                };
                self.emit(prefix, rank, j, out);
            }
            scratch.give_rows(rank, count);
        }

        // Pass 2: rows for the extensions given a buffer, in row order.
        if scratch.kept.len() > start {
            for row in rows {
                let cells = &self.arena[row.next as usize..row.end as usize];
                for (pos, cell) in (row.next..).zip(cells) {
                    let slot = scratch.slot[cell.rank as usize];
                    if slot != NO_SLOT {
                        scratch.kept[slot as usize].1.push(Row {
                            next: pos + 1,
                            end: row.end,
                            mult: row.mult * cell.prob,
                        });
                    }
                }
            }
        }
        for (rank, _) in &scratch.kept[start..] {
            scratch.slot[*rank as usize] = NO_SLOT;
        }

        // Exact measures: each projected row's multiplier is exactly the
        // candidate's containment probability in that transaction, in
        // transaction order — the exact kernels' input.
        if needs.prob_vector {
            let mut kept = start;
            for i in start..scratch.kept.len() {
                let rank = scratch.kept[i].0;
                let r = rank as usize;
                let rows = &scratch.kept[i].1;
                scratch.probs.clear();
                scratch.probs.extend(rows.iter().map(|row| row.mult));
                let c = CandidateStats {
                    esup: scratch.esup[r],
                    variance: scratch.var[r],
                    count: rows.len() as u64,
                    probs: Some(&scratch.probs),
                };
                if let Some(j) = self.measure.judge(&c, &mut out.stats) {
                    self.emit(prefix, rank, j, out);
                    scratch.kept.swap(kept, i);
                    kept += 1;
                }
            }
            for (_, mut rows) in scratch.kept.drain(kept..) {
                rows.clear();
                scratch.free.push(rows);
            }
        }

        for &rank in &scratch.touched {
            let r = rank as usize;
            scratch.esup[r] = 0.0;
            scratch.var[r] = 0.0;
            scratch.count[r] = 0;
        }
        scratch.touched.clear();
        start
    }

    /// Emits the record of kept extension `prefix ∪ {item(rank)}`.
    fn emit(&self, prefix: &mut Vec<ItemId>, rank: u32, j: Judgment, out: &mut MiningResult) {
        prefix.push(self.order.item(rank));
        out.itemsets.push(FrequentItemset {
            itemset: Itemset::from_items(prefix.iter().copied()),
            expected_support: j.expected_support,
            variance: j.variance,
            frequent_prob: j.frequent_prob,
        });
        prefix.pop();
    }

    /// Depth-first expansion of `prefix` over `rows` — one head table,
    /// then [`UhEngine::expand`] over its kept extensions.
    #[allow(clippy::too_many_arguments)] // one recursion context, kept flat like the sequential original
    fn mine_scoped<'env>(
        &'env self,
        s: &Scope<'env>,
        sink: &'env OrderedSink<MiningResult>,
        task_key: &[u32],
        spawn_seq: &mut u32,
        prefix: &mut Vec<ItemId>,
        rows: &[Row],
        scratch: &mut HeadScratch,
        out: &mut MiningResult,
    ) {
        let start = self.head_table(rows, prefix, scratch, out);
        self.expand(s, sink, task_key, spawn_seq, prefix, start, scratch, out);
    }

    /// Expands the kept extensions `scratch.kept[start..]` of one head
    /// table in ascending rank, re-spawning large subtrees as nested pool
    /// tasks (see the module docs on the cutoffs and the determinism
    /// argument), and truncates them off `scratch.kept`. Split from
    /// [`UhEngine::mine_scoped`] so the root level can free its row
    /// projection between the head table and the expansion.
    ///
    /// `task_key`/`spawn_seq` identify the enclosing task and its running
    /// spawn ordinal: a spawned child gets `child_key(task_key,
    /// spawn_seq)`, mines into a fresh local result, and pushes it into
    /// `sink` under that key; inline recursion keeps extending the same
    /// `out` under the same key/counter. Results merged in key order
    /// reproduce the sequential spawn order exactly.
    #[allow(clippy::too_many_arguments)] // one recursion context, kept flat like the sequential original
    fn expand<'env>(
        &'env self,
        s: &Scope<'env>,
        sink: &'env OrderedSink<MiningResult>,
        task_key: &[u32],
        spawn_seq: &mut u32,
        prefix: &mut Vec<ItemId>,
        start: usize,
        scratch: &mut HeadScratch,
        out: &mut MiningResult,
    ) {
        for i in start..scratch.kept.len() {
            let rank = scratch.kept[i].0;
            let rows = std::mem::take(&mut scratch.kept[i].1);
            prefix.push(self.order.item(rank));
            if s.threads() > 1 && prefix.len() < SPAWN_MAX_DEPTH && rows.len() >= SPAWN_MIN_ROWS {
                let key = child_key(task_key, spawn_seq);
                let child_prefix = prefix.clone();
                s.spawn(move |s| {
                    let mut local = MiningResult::default();
                    let mut child_prefix = child_prefix;
                    let mut child_seq = 0;
                    let mut scratch = self.take_scratch();
                    self.mine_scoped(
                        s,
                        sink,
                        &key,
                        &mut child_seq,
                        &mut child_prefix,
                        &rows,
                        &mut scratch,
                        &mut local,
                    );
                    scratch.recycle(rows);
                    self.scratch_pool().push(scratch);
                    sink.push(key, local);
                });
            } else {
                self.mine_scoped(s, sink, task_key, spawn_seq, prefix, &rows, scratch, out);
                scratch.recycle(rows);
            }
            prefix.pop();
        }
        scratch.kept.truncate(start);
    }
}

/// Runs the depth-first hyper-structure traversal of `measure` — the
/// `HyperStructure` column of the matrix as one function. Item-level
/// selection, the UH-Struct build, and the recursive walk all consult the
/// same measure, exactly as UH-Mine (expected support) and NDUH-Mine
/// (Normal approximation) always did.
///
/// The walk re-spawns large subtrees at every level (see the module docs
/// on the cutoffs and the determinism of the merge).
pub(crate) fn mine_hyper<M: FrequentnessMeasure>(
    db: &UncertainDatabase,
    measure: &M,
) -> MiningResult {
    let mut result = MiningResult::default();
    if db.is_empty() {
        return result;
    }
    // Level-1 filtering: one scan judges every item; only survivors enter
    // the structure, which keeps it proportional to the frequent item mass
    // (the whole point of UH-Mine on sparse data). Sound because every
    // measure is anti-monotone under its own semantics.
    let selection = select_items(db, measure, &mut result.stats);
    let order = FrequencyOrder::from_selection(db.num_items(), selection);
    if order.is_empty() {
        return result;
    }
    let (engine, rows) = UhEngine::build(db, &order, measure, &mut result.stats);

    // The whole walk runs inside one work-stealing scope: the root call
    // mines into `result` directly (key ε), spawned subtrees push their
    // local results into the sink, and the sink merges in spawn-key order
    // once the scope has drained — bit-identical for every pool size.
    // The root projection is freed right after the root head table (the
    // kept extensions own their projected rows), so it never overlaps the
    // subtree mining — peak_bytes is a tracked, baselined metric.
    let sink = OrderedSink::new();
    scope(|s| {
        let mut scratch = HeadScratch::new(order.len());
        let mut prefix = Vec::new();
        let start = engine.head_table(&rows, &mut prefix, &mut scratch, &mut result);
        drop(rows);
        engine.expand(
            s,
            &sink,
            &[],
            &mut 0,
            &mut prefix,
            start,
            &mut scratch,
            &mut result,
        );
    });
    for sub in sink.into_sorted_values() {
        result.stats.absorb(&sub.stats);
        result.itemsets.extend(sub.itemsets);
    }
    result.canonicalize();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForce;
    use crate::common::measure::ExpectedSupport;
    use crate::registry::Algorithm;
    use ufim_core::examples::{deterministic_small, paper_table1};

    #[test]
    fn example1_matches_paper() {
        let db = paper_table1();
        let r = Algorithm::UHMine.mine_expected_ratio(&db, 0.5).unwrap();
        assert_eq!(
            r.sorted_itemsets(),
            vec![Itemset::singleton(0), Itemset::singleton(2)]
        );
        assert!((r.get(&Itemset::singleton(2)).unwrap().expected_support - 2.6).abs() < 1e-12);
    }

    #[test]
    fn agrees_with_oracle_across_thresholds() {
        let db = paper_table1();
        for min_esup in [0.1, 0.2, 0.25, 0.3, 0.45, 0.6, 0.9] {
            let fast = Algorithm::UHMine
                .mine_expected_ratio(&db, min_esup)
                .unwrap();
            let slow = BruteForce::new()
                .mine_expected_ratio(&db, min_esup)
                .unwrap();
            assert_eq!(
                fast.sorted_itemsets(),
                slow.sorted_itemsets(),
                "min_esup={min_esup}"
            );
        }
    }

    #[test]
    fn esup_values_match_definition() {
        let db = paper_table1();
        let r = Algorithm::UHMine.mine_expected_ratio(&db, 0.25).unwrap();
        for fi in &r.itemsets {
            let want = db.expected_support(fi.itemset.items());
            assert!(
                (fi.expected_support - want).abs() < 1e-9,
                "{}: {} vs {}",
                fi.itemset,
                fi.expected_support,
                want
            );
        }
    }

    #[test]
    fn variance_mode_matches_definition() {
        let db = paper_table1();
        let r = mine_hyper(&db, &ExpectedSupport::with_variance(1.0));
        assert!(!r.is_empty());
        for fi in &r.itemsets {
            let (we, wv) = db.support_moments(fi.itemset.items());
            assert!((fi.expected_support - we).abs() < 1e-9);
            assert!(
                (fi.variance.unwrap() - wv).abs() < 1e-9,
                "{}: {} vs {}",
                fi.itemset,
                fi.variance.unwrap(),
                wv
            );
        }
    }

    #[test]
    fn deterministic_db_matches_oracle() {
        let db = deterministic_small();
        for min_esup in [0.2, 0.4, 0.6, 0.8, 1.0] {
            let fast = Algorithm::UHMine
                .mine_expected_ratio(&db, min_esup)
                .unwrap();
            let slow = BruteForce::new()
                .mine_expected_ratio(&db, min_esup)
                .unwrap();
            assert_eq!(fast.sorted_itemsets(), slow.sorted_itemsets());
        }
    }

    #[test]
    fn arena_size_tracks_filtered_units() {
        let db = paper_table1();
        // At threshold 2.0 only C and A are frequent: the arena holds only
        // their cells (C in T1..T3, A in T1..T3 → 6 cells).
        let r = Algorithm::UHMine.mine_expected_ratio(&db, 0.5).unwrap();
        assert_eq!(r.stats.peak_structure_nodes, 6);
    }

    #[test]
    fn empty_db_and_high_threshold() {
        let db = UncertainDatabase::from_transactions(vec![]);
        assert!(Algorithm::UHMine
            .mine_expected_ratio(&db, 0.5)
            .unwrap()
            .is_empty());
        let db = paper_table1();
        assert!(Algorithm::UHMine
            .mine_expected_ratio(&db, 1.0)
            .unwrap()
            .is_empty());
    }
}
