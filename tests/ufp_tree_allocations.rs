//! Allocation contract of the UFP-tree traversal: a mine allocates per
//! emitted itemset, not per tree node.
//!
//! This binary installs [`CountingAllocator`] as its global allocator and
//! holds a single test, so nothing else allocates while it counts. The
//! global tree and every conditional tree live in flat arenas; conditional
//! trees are recycled through a per-task free list and prefix paths are
//! walked into a per-task buffer, so once the buffers have grown a
//! conditional build allocates nothing. What remains is a fixed setup
//! (item selection, the global tree's arrays) plus each emitted record.
//!
//! The arena layout makes 366 allocations on this fixture, about 3 per
//! itemset. The original layout (one child vector per node, one header
//! vector per rank, a fresh vector per prefix path) made 200,408, 1,789
//! per itemset; on the benchmark's dense workload it made ~4,800 per
//! itemset. Building every conditional tree fresh instead of recycling it
//! makes 1,225, about 11 per itemset, so the bound below catches that too.

use uncertain_fim::core::parallel::with_thread_override;
use uncertain_fim::metrics::{alloc, CountingAllocator};
use uncertain_fim::prelude::*;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Allocations allowed per emitted itemset (and once more for the setup).
const PER_ITEMSET: u64 = 8;

#[test]
fn ufp_growth_allocations_scale_with_itemsets_not_tree_nodes() {
    // The golden fixture of `ufp_tree_golden.rs`: a 45,981-node global
    // tree and heavy conditional trees several levels deep.
    let db = uncertain_fim::data::benchmarks::deep_skew(12_000, 16, 4242);
    let mine = || Algorithm::UFPGrowth.mine_expected_ratio(&db, 0.01).unwrap();
    let before = alloc::total_allocations();
    let result = with_thread_override(1, mine);
    let allocations = alloc::total_allocations() - before;
    let itemsets = result.len() as u64;
    assert!(itemsets > 100, "fixture found only {itemsets} itemsets");
    assert!(
        result.stats.peak_structure_nodes > 400 * itemsets,
        "fixture tree is too small to tell nodes from itemsets"
    );
    assert!(
        allocations <= PER_ITEMSET * (itemsets + 1),
        "{allocations} allocations for {itemsets} itemsets \
         ({} nodes in the global tree)",
        result.stats.peak_structure_nodes
    );
}
