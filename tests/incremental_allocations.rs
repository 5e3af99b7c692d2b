//! Allocation contract of the sliding-window refresh: a warm step costs
//! the same whatever the size of the vocabulary.
//!
//! This binary installs [`CountingAllocator`] as its global allocator and
//! holds a single test, so nothing else allocates while it counts. The
//! same stream, over items below 200, is driven through two windows whose
//! vocabularies hold 1,000 and 100,000 items; the extra items never occur.
//! After a warm-up, one 8-transaction refresh of each must grow the heap by
//! about the same number of bytes and make the same number of
//! allocations. A refresh that builds a dense per-item probe (2 × 8 slots ×
//! 100,000 items × 8 bytes = 12.8 MB) or visits every singleton of the
//! vocabulary fails the bound by orders of magnitude.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use uncertain_fim::core::parallel::with_thread_override;
use uncertain_fim::metrics::{alloc, CountingAllocator};
use uncertain_fim::miners::common::{ExpectedSupport, IncrementalMiner};
use uncertain_fim::prelude::*;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Window slots, and transactions per step.
const CAPACITY: usize = 512;
const STEP: usize = 8;
/// How far one refresh's heap growth may differ between the vocabularies.
const SLACK_BYTES: usize = 64 * 1024;

/// Zipf-like draws over items `0..200`.
fn arrival(rng: &mut StdRng) -> Transaction {
    let mut units = BTreeMap::new();
    for _ in 0..rng.gen_range(2..=8usize) {
        let u: f64 = rng.gen_range(0.0..1.0);
        units
            .entry((u.powi(2) * 200.0) as u32)
            .or_insert_with(|| rng.gen_range(0.3..=1.0));
    }
    Transaction::new(units).unwrap()
}

/// Heap growth (bytes) and allocation count of one warm refresh.
fn warm_refresh(num_items: u32, engine: EngineKind) -> (usize, u64) {
    let mut rng = StdRng::seed_from_u64(99);
    let window = WindowedDatabase::new(CAPACITY, num_items);
    let mut miner = IncrementalMiner::new(window, ExpectedSupport::new(8.0), engine);
    for _ in 0..CAPACITY {
        miner.append(arrival(&mut rng)).unwrap();
    }
    miner.refresh();
    let mut step = |miner: &mut IncrementalMiner<ExpectedSupport>| {
        for _ in 0..STEP {
            miner.append(arrival(&mut rng)).unwrap();
        }
    };
    for _ in 0..4 {
        step(&mut miner);
        miner.refresh();
    }
    step(&mut miner);
    let before = alloc::total_allocations();
    let (records, peak) = alloc::measure_peak(|| miner.refresh().len());
    let allocations = alloc::total_allocations() - before;
    assert!(records > 20, "fixture found only {records} itemsets");
    (peak, allocations)
}

#[test]
fn warm_refresh_allocations_do_not_scale_with_the_vocabulary() {
    for engine in EngineKind::ALL {
        let (small, large) = with_thread_override(1, || {
            (warm_refresh(1_000, engine), warm_refresh(100_000, engine))
        });
        assert!(
            large.0 <= small.0 + SLACK_BYTES && large.1 == small.1,
            "{engine}: a warm refresh grew the heap by {} bytes in {} allocations over \
             100,000 items, but by {} bytes in {} allocations over 1,000",
            large.0,
            large.1,
            small.0,
            small.1
        );
    }
}
