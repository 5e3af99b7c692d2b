//! Cross-`UFIM_THREADS` bit-identity suite: every parallelized traversal
//! must produce byte-identical records **and** [`MinerStats`] whatever the
//! worker pool size.
//!
//! The parallel decompositions (level-wise candidate maps, the UH-Struct
//! and UFP-tree first-level fan-outs) all merge per-task results in a
//! fixed item order, and every float is computed within exactly one task —
//! so nothing observable may change between `UFIM_THREADS=1` and any other
//! value. This suite pins that with the scoped
//! [`ufim_core::parallel::with_thread_override`] (thread-local, so tests
//! can sweep pool sizes without env races), mirroring the level-wise
//! determinism test in `ufim_core::parallel` one layer up, at the level of
//! whole mining runs.
//!
//! The large databases are sized to clear the
//! [`ufim_core::parallel::DEFAULT_MIN_WORK`] gate and the miners' spawn
//! cutoffs, so pool sizes > 1 genuinely exercise the work-stealing pool
//! (worker threads spawn fine on single-core hosts; only the
//! interleaving changes). The **deep-skew** fixture additionally pins the
//! *nested* spawn path: its Zipf-style item distribution concentrates
//! almost every transaction in one first-level subtree, so the recursion
//! must re-spawn below the root — the exact shape the one-level fan-out
//! of PR 4 could not balance — and the results must still be
//! bit-identical at every pool size.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_fim::core::parallel::with_thread_override;
use uncertain_fim::core::{EngineKind, MeasureKind, TraversalKind};
use uncertain_fim::miners::{MatrixMiner, NDUHMine, UFPGrowth, UHMine};
use uncertain_fim::prelude::*;

/// Pool sizes to sweep, per the issue: sequential, small, oversubscribed.
const POOLS: [usize; 3] = [1, 2, 8];

/// A database big enough that the depth-first fan-outs and the level-wise
/// candidate maps all clear the parallelism gate (~40k projected units).
fn big_db() -> UncertainDatabase {
    let mut rng = StdRng::seed_from_u64(99);
    let transactions: Vec<Transaction> = (0..8_000)
        .map(|_| {
            let units: Vec<(u32, f64)> = (0..10u32)
                .filter_map(|i| {
                    if rng.gen_bool(0.5) {
                        Some((i, rng.gen_range(0.2..=1.0)))
                    } else {
                        None
                    }
                })
                .collect();
            Transaction::new(units).unwrap()
        })
        .collect();
    UncertainDatabase::with_num_items(transactions, 10)
}

/// A smaller database for the expensive exact-kernel cells (their
/// per-candidate cost is quadratic-ish in the transaction count). These
/// runs mostly stay under the gate — the point is that the merge layer is
/// identical either way, and cheap runs keep the sweep fast.
fn medium_db() -> UncertainDatabase {
    let mut rng = StdRng::seed_from_u64(7);
    let transactions: Vec<Transaction> = (0..600)
        .map(|_| {
            let units: Vec<(u32, f64)> = (0..8u32)
                .filter_map(|i| {
                    if rng.gen_bool(0.55) {
                        Some((i, rng.gen_range(0.3..=1.0)))
                    } else {
                        None
                    }
                })
                .collect();
            Transaction::new(units).unwrap()
        })
        .collect();
    UncertainDatabase::with_num_items(transactions, 8)
}

/// The shared deep-skew fixture (`ufim_data::benchmarks::deep_skew`, also
/// used by `bench_parallel`'s guard so the two suites cannot drift): item
/// inclusion decays geometrically from a near-ubiquitous item 0, so the
/// rank-0 subtree dominates every depth-first decomposition (UH-Mine's
/// projected rows, UFP-growth's heavy conditionals) several levels deep —
/// the deep-skew shape that serializes a one-level fan-out. Sized so the
/// dominant chain stays far above the miners' nested-spawn cutoffs for
/// multiple levels.
fn deep_skew_db() -> UncertainDatabase {
    let db = uncertain_fim::data::benchmarks::deep_skew(12_000, 16, 4242);
    // Non-vacuity: the dominant chain must clear the nested-spawn size
    // cutoffs (1024 projected rows / 512 conditional nodes) for at least
    // three levels, otherwise this fixture would never take the nested
    // path it exists to pin.
    let chain3 = db
        .transactions()
        .iter()
        .filter(|t| [0u32, 1, 2].iter().all(|i| t.items().contains(i)))
        .count();
    assert!(chain3 > 2048, "deep-skew fixture lost its skew: {chain3}");
    db
}

/// Byte-level equality of two results: same itemsets in the same
/// canonical order, every statistic bit-identical, same counters.
fn assert_bit_identical(reference: &MiningResult, got: &MiningResult, label: &str) {
    assert_records_bit_identical(reference, got, label);
    assert_eq!(reference.stats, got.stats, "{label}: stats differ");
}

/// Record-level half of [`assert_bit_identical`]: used on its own for
/// cross-engine comparisons, where the counters are legitimately
/// backend-specific but the mined records must not move a bit.
fn assert_records_bit_identical(reference: &MiningResult, got: &MiningResult, label: &str) {
    assert_eq!(reference.len(), got.len(), "{label}: result sizes differ");
    for (a, b) in reference.itemsets.iter().zip(&got.itemsets) {
        assert_eq!(a.itemset, b.itemset, "{label}");
        assert_eq!(
            a.expected_support.to_bits(),
            b.expected_support.to_bits(),
            "{label}: esup of {}",
            a.itemset
        );
        assert_eq!(
            a.variance.map(f64::to_bits),
            b.variance.map(f64::to_bits),
            "{label}: variance of {}",
            a.itemset
        );
        assert_eq!(
            a.frequent_prob.map(f64::to_bits),
            b.frequent_prob.map(f64::to_bits),
            "{label}: Pr of {}",
            a.itemset
        );
    }
}

/// Runs `mine` under each pool size and pins every run against the
/// sequential reference.
fn sweep_pools(label: &str, mine: impl Fn() -> MiningResult) {
    let reference = with_thread_override(1, &mine);
    assert!(
        !reference.is_empty(),
        "{label}: fixture found nothing — the sweep would be vacuous"
    );
    for threads in POOLS {
        let got = with_thread_override(threads, &mine);
        assert_bit_identical(&reference, &got, &format!("{label} @ threads={threads}"));
    }
}

#[test]
fn uh_mine_is_bit_identical_across_pool_sizes() {
    let db = big_db();
    sweep_pools("UH-Mine", || {
        UHMine::with_variance()
            .mine_expected_ratio(&db, 0.05)
            .unwrap()
    });
}

#[test]
fn ufp_growth_is_bit_identical_across_pool_sizes() {
    let db = big_db();
    sweep_pools("UFP-growth", || {
        UFPGrowth::new().mine_expected_ratio(&db, 0.05).unwrap()
    });
}

#[test]
fn nduh_mine_is_bit_identical_across_pool_sizes() {
    let db = big_db();
    sweep_pools("NDUH-Mine", || {
        NDUHMine::new()
            .mine_probabilistic_raw(&db, 0.08, 0.5)
            .unwrap()
    });
}

/// Deep skew through UH-Mine: the dominant subtree forces nested
/// re-spawning (every pool size > 1 spawns the same task tree; pool size
/// 1 runs inline) and the merge must stay bit-identical.
#[test]
fn uh_mine_deep_skew_nested_spawns_are_bit_identical() {
    let db = deep_skew_db();
    sweep_pools("UH-Mine deep-skew", || {
        UHMine::with_variance()
            .mine_expected_ratio(&db, 0.05)
            .unwrap()
    });
}

/// Deep skew through UFP-growth: the heavy conditional trees under the
/// dominant ranks re-spawn from inside their tasks.
#[test]
fn ufp_growth_deep_skew_nested_spawns_are_bit_identical() {
    let db = deep_skew_db();
    sweep_pools("UFP-growth deep-skew", || {
        UFPGrowth::new().mine_expected_ratio(&db, 0.05).unwrap()
    });
}

/// Deep skew through NDUH-Mine (hyper traversal + Normal measure): the
/// approximate measure's extra statistics ride the same nested tasks.
#[test]
fn nduh_mine_deep_skew_nested_spawns_are_bit_identical() {
    let db = deep_skew_db();
    sweep_pools("NDUH-Mine deep-skew", || {
        NDUHMine::new()
            .mine_probabilistic_raw(&db, 0.08, 0.5)
            .unwrap()
    });
}

/// Every hyper and tree matrix cell (the traversals this PR parallelized),
/// on the database sized for its measure's cost.
#[test]
fn hyper_and_tree_matrix_cells_are_bit_identical_across_pool_sizes() {
    let big = big_db();
    let medium = medium_db();
    for traversal in [TraversalKind::HyperStructure, TraversalKind::TreeGrowth] {
        for measure in MeasureKind::ALL {
            if !MatrixMiner::supported(measure, traversal) {
                continue;
            }
            let (db, min_sup) = if measure.is_exact() {
                (&medium, 0.3)
            } else {
                (&big, 0.08)
            };
            let cell = MatrixMiner::new(measure, traversal);
            sweep_pools(&format!("{measure}×{traversal}"), || {
                cell.mine_probabilistic_raw(db, min_sup, 0.3).unwrap()
            });
        }
    }
}

/// A database wider than 65,536 tids over a few items. Every backend must
/// return the same records with bit-equal expected supports, and each
/// backend's records and [`MinerStats`] must not depend on the pool size.
#[test]
fn wide_level_wise_is_bit_identical_across_engines_and_pool_sizes() {
    use uncertain_fim::miners::common::{mine_level_wise, ExpectedSupport};

    let mut rng = StdRng::seed_from_u64(65_537);
    let transactions: Vec<Transaction> = (0..70_000)
        .map(|_| {
            let units: Vec<(u32, f64)> = (0..4u32)
                .filter_map(|i| {
                    if rng.gen_bool(0.5) {
                        Some((i, rng.gen_range(0.2..=1.0)))
                    } else {
                        None
                    }
                })
                .collect();
            Transaction::new(units).unwrap()
        })
        .collect();
    let db = UncertainDatabase::with_num_items(transactions, 4);
    assert!(db.num_transactions() > 65_536);
    let threshold = 0.02 * db.num_transactions() as f64;
    let mine = |engine| mine_level_wise(&db, ExpectedSupport::with_variance(threshold), engine);

    let reference = with_thread_override(1, || mine(EngineKind::Horizontal));
    assert!(
        reference.itemsets.iter().any(|f| f.itemset.len() >= 3),
        "wide fixture is too shallow"
    );
    for engine in EngineKind::ALL {
        let one = with_thread_override(1, || mine(engine));
        let two = with_thread_override(2, || mine(engine));
        assert_bit_identical(&one, &two, &format!("wide level-wise/{engine} @ threads=2"));
        assert_records_bit_identical(&reference, &one, &format!("wide level-wise/{engine}"));
    }
}

/// The incremental sliding-window miner (PR 8): each pool size replays the
/// same ingest script from scratch — an initial fill, then three
/// append/expire rounds — and *every* refresh along the way must be
/// bit-identical, records **and** [`MinerStats`], across pool sizes. The
/// incremental layer adds no thread-dependent state of its own (the border
/// tracker's classify/record loop is sequential), so the invariance it
/// inherits from the already-pinned engines must survive intact.
#[test]
fn incremental_refresh_is_bit_identical_across_pool_sizes() {
    use uncertain_fim::miners::common::{ExpectedSupport, IncrementalMiner};

    // One fixed script: big_db-shaped arrivals, enough for the fill plus
    // three incremental rounds.
    let mut rng = StdRng::seed_from_u64(21);
    let script: Vec<Transaction> = (0..8_600)
        .map(|_| {
            let units: Vec<(u32, f64)> = (0..10u32)
                .filter_map(|i| {
                    if rng.gen_bool(0.5) {
                        Some((i, rng.gen_range(0.2..=1.0)))
                    } else {
                        None
                    }
                })
                .collect();
            Transaction::new(units).unwrap()
        })
        .collect();
    let capacity = 8_192usize;
    let threshold = 0.05 * capacity as f64;

    for engine in EngineKind::ALL {
        let run = || -> Vec<MiningResult> {
            let window = WindowedDatabase::new(capacity, 10);
            let mut miner =
                IncrementalMiner::new(window, ExpectedSupport::with_variance(threshold), engine);
            let mut stream = script.iter().cloned();
            for t in stream.by_ref().take(8_000) {
                miner.append(t);
            }
            let mut refreshes = vec![miner.refresh().clone()];
            for _ in 0..3 {
                for t in stream.by_ref().take(200) {
                    miner.append(t);
                }
                miner.expire_oldest(100);
                refreshes.push(miner.refresh().clone());
            }
            refreshes
        };
        let reference = with_thread_override(1, run);
        assert!(
            !reference.iter().all(|r| r.is_empty()),
            "incremental/{engine}: fixture is vacuous"
        );
        for threads in POOLS {
            let got = with_thread_override(threads, run);
            assert_eq!(reference.len(), got.len());
            for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
                assert_bit_identical(
                    a,
                    b,
                    &format!("incremental/{engine} refresh {i} @ threads={threads}"),
                );
            }
        }
    }
}

/// The level-wise column on every backend rides the same merge machinery;
/// sweep it too so the whole matrix is pinned (the issue's "every
/// hyper/tree cell" plus the engine seam the scratch spaces changed).
#[test]
fn level_wise_backends_are_bit_identical_across_pool_sizes() {
    let db = big_db();
    for engine in EngineKind::ALL {
        let cell = MatrixMiner::new(MeasureKind::ExpectedSupport, TraversalKind::LevelWise);
        sweep_pools(&format!("esup×level-wise/{engine}"), || {
            let params = MiningParams::new(0.05, 0.5).unwrap().with_engine(engine);
            cell.mine_probabilistic(&db, params).unwrap()
        });
    }
}
