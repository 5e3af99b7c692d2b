//! **UFP-growth** — depth-first tree-growth mining over a UFP-tree
//! (Leung et al. 2008; paper §3.1.2), generalized over the frequentness
//! measure.
//!
//! The uncertain analog of FP-growth. The UFP-tree stores each node as the
//! triple the paper describes — *(item label, appearance probability, shared
//! count)* — and, crucially, two transactions may share a node **only when
//! both the label and the probability match exactly**. Under continuous
//! probability assignments that almost never happens, so the tree barely
//! compresses; the recursive conditional-tree construction then touches many
//! near-singleton paths. This implementation is deliberately faithful to
//! that design (it is *the point* of the paper's comparison that UFP-growth
//! pays for it; see Fig. 4), only generalizing the per-node count to
//! accumulated weights so conditional trees can carry path multipliers.
//!
//! Mining follows FP-growth: process header items bottom-up (least frequent
//! first); for each item `y`, the statistics of `suffix ∪ {y}` are weighted
//! sums over `y`'s node list; then a conditional tree is built from the
//! prefix paths of those nodes, each path re-weighted by the node's own
//! contribution, and the procedure recurses.
//!
//! **The measure axis.** Because node sharing requires *exact* probability
//! equality along the whole path, every transaction through a node carries
//! the same per-node probability — so the node can accumulate not just
//! `w = Σ_t m_t` (the paper's count, generalized) but also `w₂ = Σ_t m_t²`
//! and the plain transaction count. That is enough to reconstruct, exactly,
//! the expected support `Σ q_t`, the support variance
//! `Σ q_t(1 − q_t) = esup − Σ q_t²`, and the nonzero count of every
//! extension — i.e. everything a moment-based [`FrequentnessMeasure`]
//! (expected support, Poisson, Normal) judges on. What aggregation *does*
//! destroy is the per-transaction probability vector, which is why the
//! exact DP/DC measures cannot run on this traversal (the matrix's one
//! principled hole).

//! **Layout and allocation.** A UFP-tree is one flat arena of nodes
//! `(rank, parent, next, count, prob, weight, weight_sq)`. `next` is the
//! paper's horizontal item link: per-rank `head`/`tail` indices thread
//! every node of a rank in creation order, and that order is also the
//! order in which a rank's weights are summed. Child lookup during a build
//! goes through one `(parent, rank, probability bits)` hash index per task,
//! so nodes are shared on exact `(rank, probability)` equality only, as the
//! paper prescribes; a built tree keeps no child index at all. Prefix paths
//! are walked into a per-task buffer and conditional trees come from a
//! per-task free list, emptied with their capacity kept, so **conditional
//! builds allocate nothing in steady state; the tree, and so the paper's
//! compression result, is unchanged** — the same nodes in the same order,
//! every weight summed in the same path order, bit-identical records and
//! counters. What a mine still allocates grows with the itemsets it emits,
//! not with the nodes it builds.
//!
//! **Parallelism.** Mining decomposes **recursively** over the
//! work-stealing pool ([`ufim_core::parallel::scope`]). Every tree is
//! judged the moment it is built, while it is hot in cache: the global
//! UFP-tree once, and each conditional tree by the task that built it.
//! Each kept root rank then becomes a root task over the shared read-only
//! global tree when that tree clears
//! [`ufim_core::parallel::DEFAULT_MIN_WORK`], and — the nested part — every
//! judged conditional tree that clears `SPAWN_MIN_NODES` and kept at least
//! one extension is handed to a child task (the conditional tree is
//! *owned* by the child, so nothing is shared downward). A tree with
//! nothing frequent below it is never handed off, since the child would
//! only re-read it from a cold cache. A deep-skewed database, whose one
//! dominant rank used to serialize its entire recursion on one worker,
//! splits again at every heavy conditional level. Spawned tasks take over
//! the scratch spaces of finished ones. Per-task results and
//! [`MinerStats`] merge in spawn-key order through an [`OrderedSink`]
//! (sums and maxes only; every float is computed inside exactly one task),
//! and spawn decisions are a pure function of the input — so records and
//! stats are bit-identical for every `UFIM_THREADS`, pool size 1 running
//! fully inline.

use crate::common::measure::{select_items, CandidateStats, FrequentnessMeasure, Screen};
use crate::common::order::FrequencyOrder;
use std::sync::{Mutex, MutexGuard, PoisonError};
use ufim_core::parallel::{child_key, scope, OrderedSink, Scope, SpawnKey, DEFAULT_MIN_WORK};
use ufim_core::prelude::*;
use ufim_core::FxHashMap;

/// Conditional-tree node count above which the recursion below a judged
/// conditional tree with kept extensions is spawned as a nested pool task
/// (the child task takes ownership of the tree). Small enough that a
/// skewed rank's heavy conditionals split; large enough that task overhead
/// stays noise against the conditional build that precedes it.
const SPAWN_MIN_NODES: usize = 1 << 9;

/// Suffix length beyond which recursion always stays inline — a backstop
/// against unbounded task bookkeeping on pathological lattices.
const SPAWN_MAX_DEPTH: usize = 24;

/// Emptied conditional trees a task scratch keeps for reuse: one per
/// recursion level in use, plus trees handed back by finished child tasks.
/// Beyond the cap a tree is freed, so recycling cannot hoard memory.
const FREE_TREES_MAX: usize = 8;

/// One UFP-tree node: `(item-rank, probability)` plus the accumulated path
/// weights and tree links. `weight` generalizes the paper's count: at build
/// time it is the number of transactions through the node; in conditional
/// trees it carries the accumulated path multiplier mass `Σ_t m_t`.
/// `weight_sq` (`Σ_t m_t²`) and `count` ride along so moment-based measures
/// can reconstruct variance and nonzero counts exactly (see module docs).
struct UfpNode {
    rank: u32,
    parent: u32,
    /// The next node of the same rank, in creation order: the paper's
    /// horizontal item link.
    next: u32,
    count: u64,
    prob: f64,
    weight: f64,
    weight_sq: f64,
}

/// A UFP-tree over rank-encoded items, as one flat arena. `head[rank]` and
/// `tail[rank]` bound the node-link list of every node of that rank, kept
/// in creation order. The tree holds no child index: lookup during a build
/// goes through the building task's [`TaskScratch::children`], so a built
/// tree is only the arena and its links.
#[derive(Default)]
struct UfpTree {
    nodes: Vec<UfpNode>,
    head: Vec<u32>,
    tail: Vec<u32>,
    /// The ranks whose extension of the tree's suffix was judged frequent,
    /// bottom-up — filled by [`judge_tree`] while the tree is still hot.
    kept: Vec<u32>,
}

/// The root's arena index.
const ROOT: u32 = 0;

/// "No node": the root's parent and the end of every node-link list.
const NIL: u32 = u32::MAX;

/// Child lookup of the tree under construction: `(parent, rank,
/// probability bits)` → node. Nodes are shared only on exact equality.
type ChildIndex = FxHashMap<(u32, u32, u64), u32>;

/// One task's reusable buffers: the child index of the tree it is building,
/// a prefix-path buffer and a free list of conditional trees. All of them
/// keep their capacity, so once they have grown a conditional build
/// allocates nothing. Scratch contents never influence results.
#[derive(Default)]
struct TaskScratch {
    children: ChildIndex,
    path: Vec<(u32, f64)>,
    free: Vec<UfpTree>,
}

impl TaskScratch {
    /// Returns a finished conditional tree to the free list.
    fn recycle(&mut self, tree: UfpTree) {
        if self.free.len() < FREE_TREES_MAX {
            self.free.push(tree);
        }
    }
}

/// One pool task's state, threaded through its inline recursion: its
/// spawn-order key and running spawn ordinal (see [`child_key`]), its local
/// results, its scratch and its recursion budget. The (ample) budget guards
/// pathological conditional explosions, turning a hypothetical runaway
/// into truncated-but-sound output; it is never reached in practice. It is
/// **per task** — a spawned child starts a fresh one — so exhaustion could
/// never depend on task scheduling.
struct Task {
    key: SpawnKey,
    spawn_seq: u32,
    out: MiningResult,
    scratch: TaskScratch,
    depth_budget: u64,
}

impl Task {
    fn new(key: SpawnKey, scratch: TaskScratch) -> Self {
        Task {
            key,
            spawn_seq: 0,
            out: MiningResult::default(),
            scratch,
            depth_budget: u64::MAX,
        }
    }
}

/// What every task of one mine shares: the item order, the measure, the
/// sink collecting spawned tasks' results, and the scratch spaces of
/// finished tasks, which the next spawned task takes over — so at any
/// pool size a steady-state task allocates only its results and its
/// spawn bookkeeping, never a tree buffer it could have reused.
struct Shared<'env, M> {
    order: &'env FrequencyOrder,
    measure: &'env M,
    sink: OrderedSink<MiningResult>,
    scratch: Mutex<Vec<TaskScratch>>,
}

impl<'env, M: FrequentnessMeasure> Shared<'env, M> {
    /// Spawns `body` as a pool task keyed `key`, on a recycled scratch;
    /// its results go to the sink and its scratch back to the pool.
    fn spawn(
        &'env self,
        s: &Scope<'env>,
        key: SpawnKey,
        body: impl FnOnce(&Scope<'env>, &mut Task) + Send + 'env,
    ) {
        s.spawn(move |s| {
            let scratch = self.scratch_pool().pop().unwrap_or_default();
            let mut task = Task::new(key, scratch);
            body(s, &mut task);
            self.scratch_pool().push(task.scratch);
            self.sink.push(task.key, task.out);
        });
    }

    fn scratch_pool(&self) -> MutexGuard<'_, Vec<TaskScratch>> {
        self.scratch.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl UfpTree {
    /// Empties the tree for `num_ranks` ranks, keeping every buffer's
    /// capacity, and clears `children` for the build that follows.
    fn reset(&mut self, num_ranks: usize, children: &mut ChildIndex) {
        self.nodes.clear();
        self.nodes.push(UfpNode {
            rank: NIL,
            parent: NIL,
            next: NIL,
            count: 0,
            prob: 0.0,
            weight: 0.0,
            weight_sq: 0.0,
        });
        self.head.clear();
        self.head.resize(num_ranks, NIL);
        self.tail.clear();
        self.tail.resize(num_ranks, NIL);
        self.kept.clear();
        children.clear();
    }

    /// Inserts one (rank-sorted) weighted path, sharing nodes only on exact
    /// `(rank, probability)` matches — the defining UFP-tree rule. New
    /// nodes are appended to the arena and to their rank's node-link list.
    fn insert(
        &mut self,
        children: &mut ChildIndex,
        path: &[(u32, f64)],
        weight: f64,
        weight_sq: f64,
        count: u64,
    ) {
        let mut node = ROOT;
        for &(rank, prob) in path {
            let fresh = self.nodes.len() as u32;
            let child = *children
                .entry((node, rank, prob.to_bits()))
                .or_insert(fresh);
            if child == fresh {
                self.nodes.push(UfpNode {
                    rank,
                    parent: node,
                    next: NIL,
                    count,
                    prob,
                    weight,
                    weight_sq,
                });
                match self.tail[rank as usize] {
                    NIL => self.head[rank as usize] = fresh,
                    last => self.nodes[last as usize].next = fresh,
                }
                self.tail[rank as usize] = fresh;
            } else {
                let n = &mut self.nodes[child as usize];
                n.weight += weight;
                n.weight_sq += weight_sq;
                n.count += count;
            }
            node = child;
        }
    }

    /// Writes the prefix path of `node` (exclusive) into `path`,
    /// root-to-parent order.
    fn prefix_path_into(&self, node: &UfpNode, path: &mut Vec<(u32, f64)>) {
        path.clear();
        let mut n = node.parent;
        while n != ROOT {
            let p = &self.nodes[n as usize];
            path.push((p.rank, p.prob));
            n = p.parent;
        }
        path.reverse();
    }

    /// The nodes of `rank`, in creation order along the node-links.
    fn rank_nodes(&self, rank: u32) -> impl Iterator<Item = &UfpNode> + '_ {
        let mut n = self.head[rank as usize];
        std::iter::from_fn(move || {
            if n == NIL {
                return None;
            }
            let node = &self.nodes[n as usize];
            n = node.next;
            Some(node)
        })
    }

    /// The occupied ranks, bottom-up (least frequent first).
    fn occupied_ranks(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.head.len() as u32)
            .rev()
            .filter(|&r| self.head[r as usize] != NIL)
    }

    fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// Judges `suffix ∪ {item(r)}` for every occupied rank `r` of `tree`,
/// bottom-up, from the moments its node list reconstructs; emits each kept
/// itemset and records its rank in `tree.kept`. Runs right after the tree
/// is built, while it is hot in cache, so a tree with nothing frequent
/// below it is never handed to another task.
fn judge_tree<M: FrequentnessMeasure>(
    env: &Shared<'_, M>,
    out: &mut MiningResult,
    tree: &mut UfpTree,
    suffix: &[ItemId],
) {
    let measure = env.measure;
    let needs = measure.needs();
    out.stats.peak_structure_nodes = out.stats.peak_structure_nodes.max(tree.num_nodes() as u64);
    let mut kept = std::mem::take(&mut tree.kept);
    for rank in tree.occupied_ranks() {
        out.stats.candidates_evaluated += 1;
        let mut esup = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut count = 0u64;
        for node in tree.rank_nodes(rank) {
            esup += node.weight * node.prob;
            if needs.variance {
                sum_sq += node.weight_sq * node.prob * node.prob;
            }
            count += node.count;
        }
        match measure.screen(esup, count) {
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
        let c = CandidateStats {
            esup,
            // Σ q_t(1 − q_t) = esup − Σ q_t², reconstructed exactly from
            // the per-node second-moment weights.
            variance: esup - sum_sq,
            count,
            probs: None,
        };
        let Some(j) = measure.judge(&c, &mut out.stats) else {
            continue;
        };
        let item = env.order.item(rank);
        out.itemsets.push(FrequentItemset {
            itemset: Itemset::from_items(std::iter::once(item).chain(suffix.iter().copied())),
            expected_support: j.expected_support,
            variance: j.variance,
            frequent_prob: j.frequent_prob,
        });
        kept.push(rank);
    }
    tree.kept = kept;
}

/// Grows kept `suffix ∪ {item(rank)}`: builds its conditional tree from the
/// prefix paths of `rank`'s nodes, judges that tree's ranks, and recurses
/// into whatever it kept — as a nested pool task when the conditional tree
/// clears `SPAWN_MIN_NODES` (the task takes ownership of the tree; see the
/// module docs). Shared by the in-task recursion ([`mine_tree_rec`]) and
/// the root fan-out in [`mine_tree`].
///
/// The conditional tree comes from the task's free list and returns there
/// once the recursion below it is done; a tree handed to a spawned child
/// goes to the child's free list instead.
fn expand_rank<'env, M: FrequentnessMeasure>(
    s: &Scope<'env>,
    env: &'env Shared<'env, M>,
    task: &mut Task,
    tree: &UfpTree,
    rank: u32,
    suffix: &[ItemId],
) {
    let mut new_suffix = Vec::with_capacity(suffix.len() + 1);
    new_suffix.push(env.order.item(rank));
    new_suffix.extend_from_slice(suffix);
    task.out.stats.scans += 1; // each conditional build re-reads node lists

    // Conditional pattern base: prefix paths re-weighted by the node's
    // own contribution (w·p, w₂·p², count carried through).
    let scratch = &mut task.scratch;
    let mut cond = scratch.free.pop().unwrap_or_default();
    cond.reset(rank as usize, &mut scratch.children);
    for node in tree.rank_nodes(rank) {
        tree.prefix_path_into(node, &mut scratch.path);
        if !scratch.path.is_empty() {
            cond.insert(
                &mut scratch.children,
                &scratch.path,
                node.weight * node.prob,
                node.weight_sq * node.prob * node.prob,
                node.count,
            );
        }
    }
    task.depth_budget = task.depth_budget.saturating_sub(1);
    if cond.num_nodes() > 1 && task.depth_budget > 0 {
        judge_tree(env, &mut task.out, &mut cond, &new_suffix);
        if s.threads() > 1
            && !cond.kept.is_empty()
            && new_suffix.len() < SPAWN_MAX_DEPTH
            && cond.num_nodes() >= SPAWN_MIN_NODES
        {
            // Heavy conditional with frequent extensions: hand the owned
            // tree to a nested task so the recursion below it runs
            // concurrently with our remaining ranks (and can itself split
            // again).
            let key = child_key(&task.key, &mut task.spawn_seq);
            env.spawn(s, key, move |s, child| {
                mine_tree_rec(s, env, child, &cond, &new_suffix);
                child.scratch.recycle(cond);
            });
            return;
        }
        mine_tree_rec(s, env, task, &cond, &new_suffix);
    }
    task.scratch.recycle(cond);
}

/// FP-growth-style mining below a judged tree: one [`expand_rank`] per
/// kept rank, bottom-up (each of which may spawn its own recursion — the
/// nesting happens there).
fn mine_tree_rec<'env, M: FrequentnessMeasure>(
    s: &Scope<'env>,
    env: &'env Shared<'env, M>,
    task: &mut Task,
    tree: &UfpTree,
    suffix: &[ItemId],
) {
    for &rank in &tree.kept {
        expand_rank(s, env, task, tree, rank, suffix);
    }
}

/// Runs the depth-first tree-growth traversal of `measure` — the
/// `TreeGrowth` column of the matrix as one function.
///
/// The caller guarantees the measure judges from moments only
/// (`!needs().prob_vector`); the UFP-tree's node aggregation cannot serve
/// per-transaction probability vectors.
pub(crate) fn mine_tree<M: FrequentnessMeasure>(
    db: &UncertainDatabase,
    measure: &M,
) -> MiningResult {
    debug_assert!(
        !measure.needs().prob_vector,
        "tree growth cannot serve probability vectors"
    );
    let mut result = MiningResult::default();
    if db.is_empty() {
        return result;
    }
    // Level-1 filtering (one scan), then transactions are projected onto
    // the surviving items sorted by decreasing global expected support
    // (the paper's Figure 1).
    let selection = select_items(db, measure, &mut result.stats);
    let order = FrequencyOrder::from_selection(db.num_items(), selection);
    if order.is_empty() {
        return result;
    }

    // The global build's child index is as large as the tree; it is
    // dropped here rather than kept in a task scratch that clears it
    // before every conditional build.
    let mut scratch = TaskScratch::default();
    let mut tree = UfpTree::default();
    let mut children = ChildIndex::default();
    tree.reset(order.len(), &mut children);
    for t in db.transactions() {
        order.project_into(t.items(), t.probs(), &mut scratch.path);
        if !scratch.path.is_empty() {
            tree.insert(&mut children, &scratch.path, 1.0, 1.0, 1);
        }
    }
    drop(children);
    result.stats.scans += 1;

    // Top level: the global tree is judged once; then, when it is heavy
    // enough, each kept rank — conditional build, its judgment and the
    // recursion below it — becomes one root task over the shared read-only
    // tree (and the recursion re-spawns below it; see the module docs).
    // Light trees run the ranks inline, where the same size cutoffs keep
    // everything sequential. The sink merges per-task results in spawn-key
    // order, so every pool size produces bit-identical output.
    let shared = Shared {
        order: &order,
        measure,
        sink: OrderedSink::new(),
        scratch: Mutex::new(Vec::new()),
    };
    let mut root = Task::new(SpawnKey::new(), scratch);
    root.out = result;
    judge_tree(&shared, &mut root.out, &mut tree, &[]);
    let (env, tree) = (&shared, &tree);
    scope(|s| {
        let spawn_roots = s.threads() > 1 && tree.num_nodes() >= DEFAULT_MIN_WORK;
        for &rank in &tree.kept {
            if spawn_roots {
                let key = child_key(&root.key, &mut root.spawn_seq);
                env.spawn(s, key, move |s, task| {
                    expand_rank(s, env, task, tree, rank, &[]);
                });
            } else {
                expand_rank(s, env, &mut root, tree, rank, &[]);
            }
        }
    });
    let mut result = root.out;
    for sub in shared.sink.into_sorted_values() {
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
    use crate::registry::Algorithm;
    use ufim_core::examples::{deterministic_small, paper_table1};

    #[test]
    fn example1_matches_paper() {
        let db = paper_table1();
        let r = Algorithm::UFPGrowth.mine_expected_ratio(&db, 0.5).unwrap();
        assert_eq!(
            r.sorted_itemsets(),
            vec![Itemset::singleton(0), Itemset::singleton(2)]
        );
    }

    #[test]
    fn figure1_tree_threshold() {
        // min_esup = 0.25 is the Figure 1 setting: all 6 items frequent.
        let db = paper_table1();
        let r = Algorithm::UFPGrowth.mine_expected_ratio(&db, 0.25).unwrap();
        let oracle = BruteForce::new().mine_expected_ratio(&db, 0.25).unwrap();
        assert_eq!(r.sorted_itemsets(), oracle.sorted_itemsets());
        // esup values carried through the tree must match the definition.
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
    fn agrees_with_oracle_across_thresholds() {
        let db = paper_table1();
        for min_esup in [0.1, 0.2, 0.3, 0.45, 0.6, 0.9] {
            let fast = Algorithm::UFPGrowth
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
    fn node_sharing_requires_equal_probability() {
        // Two transactions, same item, different probabilities → two nodes.
        let db = UncertainDatabase::from_transactions(vec![
            Transaction::new([(0, 0.5)]).unwrap(),
            Transaction::new([(0, 0.6)]).unwrap(),
            Transaction::new([(0, 0.5)]).unwrap(), // shares with the first
        ]);
        let r = Algorithm::UFPGrowth.mine_expected_ratio(&db, 0.1).unwrap();
        // esup(0) = 1.6; structure had root + 2 distinct (item,prob) nodes.
        assert!((r.get(&Itemset::singleton(0)).unwrap().expected_support - 1.6).abs() < 1e-12);
        assert_eq!(r.stats.peak_structure_nodes, 3);
    }

    #[test]
    fn deterministic_compresses_like_fp_tree() {
        // With all probabilities 1.0 sharing works, so identical
        // transactions collapse into one path.
        let db = UncertainDatabase::from_transactions(vec![Transaction::certain([0, 1, 2]); 50]);
        let r = Algorithm::UFPGrowth.mine_expected_ratio(&db, 0.5).unwrap();
        assert_eq!(r.stats.peak_structure_nodes, 4); // root + one 3-node path
        assert_eq!(r.len(), 7); // 2^3 - 1 itemsets all frequent
    }

    #[test]
    fn deterministic_db_matches_oracle() {
        let db = deterministic_small();
        for min_esup in [0.2, 0.4, 0.6, 0.8, 1.0] {
            let fast = Algorithm::UFPGrowth
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
    fn tree_reconstructs_variance_and_count_exactly() {
        // The (w, w₂, count) accumulation must reproduce the reference
        // moments for every frequent itemset — the property that makes the
        // Normal measure runnable on this traversal.
        use crate::common::measure::ExpectedSupport;
        let db = paper_table1();
        let measure = ExpectedSupport::with_variance(1.0);
        let r = mine_tree(&db, &measure);
        assert!(!r.is_empty());
        for fi in &r.itemsets {
            let (we, wv) = db.support_moments(fi.itemset.items());
            assert!((fi.expected_support - we).abs() < 1e-9, "{}", fi.itemset);
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
    fn empty_db_and_nothing_frequent() {
        let db = UncertainDatabase::from_transactions(vec![]);
        assert!(Algorithm::UFPGrowth
            .mine_expected_ratio(&db, 0.5)
            .unwrap()
            .is_empty());
        let db = paper_table1();
        assert!(Algorithm::UFPGrowth
            .mine_expected_ratio(&db, 1.0)
            .unwrap()
            .is_empty());
    }
}
