//! Allocation contract of the hyper-structure (UH-Mine) traversal: a mine
//! allocates per emitted itemset, not per projected row or per extension.
//!
//! This binary installs [`CountingAllocator`] as its global allocator and
//! holds a single test, so nothing else allocates while it counts. The
//! UH-Struct is built through one reused projection buffer, each head table
//! folds its moments into dense per-rank arrays of a per-task scratch, and
//! only the extensions that will be expanded get row buffers, taken from
//! the scratch's free list. Once the buffers have grown, a head table
//! allocates nothing; what remains is a fixed setup (item selection, the
//! arena, the scratch) plus each emitted record.
//!
//! The two-pass head table makes 262 allocations on this fixture, about 2
//! per itemset. The one-pass head table it replaced (a fresh hash map and
//! one growing row vector per extension rank at every prefix, frequent or
//! not) made 21,615, about 193 per itemset. With the two-pass head table
//! but a fresh projection vector per transaction in the build it makes
//! 15,851, so the bound below catches that too.

use uncertain_fim::core::parallel::with_thread_override;
use uncertain_fim::metrics::{alloc, CountingAllocator};
use uncertain_fim::prelude::*;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Allocations allowed per emitted itemset (and once more for the setup).
const PER_ITEMSET: u64 = 8;

#[test]
fn uh_mine_allocations_scale_with_itemsets_not_rows() {
    // The golden fixture of `uh_mine_golden.rs`: a 45,980-cell arena and
    // ~970 judged extensions for ~110 emitted itemsets.
    let db = uncertain_fim::data::benchmarks::deep_skew(12_000, 16, 4242);
    let mine = || Algorithm::UHMine.mine_expected_ratio(&db, 0.01).unwrap();
    let before = alloc::total_allocations();
    let result = with_thread_override(1, mine);
    let allocations = alloc::total_allocations() - before;
    let itemsets = result.len() as u64;
    assert!(itemsets > 100, "fixture found only {itemsets} itemsets");
    assert!(
        result.stats.peak_structure_nodes > 400 * itemsets,
        "fixture arena is too small to tell rows from itemsets"
    );
    assert!(
        allocations <= PER_ITEMSET * (itemsets + 1),
        "{allocations} allocations for {itemsets} itemsets \
         ({} cells in the arena)",
        result.stats.peak_structure_nodes
    );
}
