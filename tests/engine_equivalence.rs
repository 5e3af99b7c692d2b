//! Cross-backend equivalence suite: every support engine — horizontal
//! scan, vertical tid-list, and diffset delta-memo — must be
//! observationally identical under **all eight** of the paper's miners
//! (plus the unpruned exact variants), on random uncertain databases and
//! on the paper's Table 1 example.
//!
//! For the Apriori-framework miners (UApriori, PDUApriori, NDUApriori,
//! DP/DC ± Chernoff) the backend is actually swapped and compared head to
//! head. The depth-first miners (UFP-growth, UH-Mine, NDUH-Mine) own their
//! data structures and ignore the selector; they are held to the same
//! standard by comparing their output against every backend of their
//! Apriori-framework counterpart.

use proptest::collection::vec;
use proptest::prelude::*;
use uncertain_fim::core::{EngineKind, MeasureKind, TraversalKind};
use uncertain_fim::miners::{Algorithm, MatrixMiner};
use uncertain_fim::prelude::*;

/// Strategy: a probability strictly in (0, 1].
fn prob() -> impl Strategy<Value = f64> {
    (1u32..=1000).prop_map(|k| k as f64 / 1000.0)
}

/// Strategy: a small uncertain database (≤ 24 transactions over ≤ 6 items).
fn small_db() -> impl Strategy<Value = UncertainDatabase> {
    vec(vec((0u32..6, prob()), 0..6), 1..24).prop_map(|raw| {
        let transactions = raw
            .into_iter()
            .map(|units| {
                let mut dedup = std::collections::BTreeMap::new();
                for (i, p) in units {
                    dedup.entry(i).or_insert(p);
                }
                Transaction::new(dedup.into_iter().collect::<Vec<_>>()).unwrap()
            })
            .collect();
        UncertainDatabase::with_num_items(transactions, 6)
    })
}

/// Asserts two results carry the same itemsets with esup within 1e-9.
/// UApriori at `min_esup` on one support backend (the expected-support
/// measure never reads `pft`).
fn uapriori(db: &UncertainDatabase, min_esup: f64, engine: EngineKind) -> MiningResult {
    let params = MiningParams::new(min_esup, 1.0)
        .unwrap()
        .with_engine(engine);
    Algorithm::UApriori.mine_probabilistic(db, params).unwrap()
}

fn assert_equivalent(
    h: &MiningResult,
    v: &MiningResult,
    label: &str,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(
        h.sorted_itemsets(),
        v.sorted_itemsets(),
        "{}: itemset sets diverge",
        label
    );
    for fi in &v.itemsets {
        let want = h.get(&fi.itemset).expect("same sets");
        prop_assert!(
            (fi.expected_support - want.expected_support).abs() < 1e-9,
            "{}: esup of {} diverges: {} vs {}",
            label,
            fi.itemset,
            fi.expected_support,
            want.expected_support
        );
        match (fi.frequent_prob, want.frequent_prob) {
            (Some(a), Some(b)) => prop_assert!(
                (a - b).abs() < 1e-9,
                "{}: Pr of {} diverges: {} vs {}",
                label,
                fi.itemset,
                a,
                b
            ),
            (None, None) => {}
            (a, b) => prop_assert!(false, "{}: Pr presence diverges: {:?} vs {:?}", label, a, b),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // UApriori across backends, plus the depth-first expected-support
    // miners (UFP-growth, UH-Mine) against both.
    #[test]
    fn expected_support_miners_agree_across_backends(
        db in small_db(),
        min_esup in 1u32..=9,
    ) {
        let ratio = min_esup as f64 / 10.0;
        let h = uapriori(&db, ratio, EngineKind::Horizontal);
        let v = uapriori(&db, ratio, EngineKind::Vertical);
        assert_equivalent(&h, &v, "UApriori")?;
        let d = uapriori(&db, ratio, EngineKind::Diffset);
        assert_equivalent(&h, &d, "UApriori-diffset")?;
        for algo in [Algorithm::UFPGrowth, Algorithm::UHMine] {
            let r = algo
                .mine_expected_ratio(&db, ratio)
                .unwrap();
            prop_assert_eq!(
                r.sorted_itemsets(),
                v.sorted_itemsets(),
                "{} vs vertical UApriori",
                algo.name()
            );
        }
    }

    // The four exact miners (DPB, DPNB, DCB, DCNB) across backends.
    #[test]
    fn exact_miners_agree_across_backends(
        db in small_db(),
        min_sup in 1u32..=9,
        pft in 1u32..=9,
    ) {
        let params = MiningParams::new(min_sup as f64 / 10.0, pft as f64 / 10.0).unwrap();
        for algo in Algorithm::EXACT_PROBABILISTIC {
            let h = algo
                .mine_probabilistic(&db, params.with_engine(EngineKind::Horizontal))
                .unwrap();
            for engine in [EngineKind::Vertical, EngineKind::Diffset] {
                let v = algo
                    .mine_probabilistic(&db, params.with_engine(engine))
                    .unwrap();
                assert_equivalent(&h, &v, &format!("{}-{}", algo.name(), engine))?;
            }
        }
    }

    // The approximate miners: PDUApriori and NDUApriori across backends,
    // NDUH-Mine (depth-first) against NDUApriori on both.
    #[test]
    fn approximate_miners_agree_across_backends(
        db in small_db(),
        min_sup in 1u32..=9,
        pft in 1u32..=8,
    ) {
        let params = MiningParams::new(min_sup as f64 / 10.0, pft as f64 / 10.0).unwrap();
        for algo in [Algorithm::PDUApriori, Algorithm::NDUApriori] {
            let h = algo
                .mine_probabilistic(&db, params.with_engine(EngineKind::Horizontal))
                .unwrap();
            for engine in [EngineKind::Vertical, EngineKind::Diffset] {
                let v = algo
                    .mine_probabilistic(&db, params.with_engine(engine))
                    .unwrap();
                assert_equivalent(&h, &v, &format!("{}-{}", algo.name(), engine))?;
            }
        }
        let ndua = Algorithm::NDUApriori
            .mine_probabilistic(&db, params.with_engine(EngineKind::Vertical))
            .unwrap();
        let nduh = Algorithm::NDUHMine.mine_probabilistic(&db, params).unwrap();
        prop_assert_eq!(
            nduh.sorted_itemsets(),
            ndua.sorted_itemsets(),
            "NDUH-Mine vs vertical NDUApriori"
        );
    }

    // Every measure × traversal × engine matrix cell, pinned against the
    // BruteForce oracle. The exact and expected-support rows compare to the
    // oracle *directly* (same semantics); the approximate rows are pinned
    // cell-to-cell against their own level-wise×horizontal instantiation —
    // a measure is one semantics, so every traversal and engine must
    // produce the same itemsets, esups and probabilities — while the
    // fidelity of that instantiation to the oracle is covered by the seeded
    // CLT/Poisson tests (tiny random databases are exactly where those
    // approximations are *supposed* to deviate).
    #[test]
    fn exact_matrix_cells_agree_with_the_oracle(
        db in small_db(),
        min_sup in 1u32..=9,
        pft in 1u32..=9,
    ) {
        let params = MiningParams::new(min_sup as f64 / 10.0, pft as f64 / 10.0).unwrap();
        let oracle = BruteForce::new().mine_probabilistic(&db, params).unwrap();
        for measure in [MeasureKind::ExactDp, MeasureKind::ExactDc] {
            for traversal in [TraversalKind::LevelWise, TraversalKind::HyperStructure] {
                for engine in EngineKind::ALL {
                    let r = MatrixMiner::new(measure, traversal)
                        .mine_probabilistic(&db, params.with_engine(engine))
                        .unwrap();
                    let label = format!("{measure}×{traversal}×{engine}");
                    prop_assert_eq!(
                        r.sorted_itemsets(),
                        oracle.sorted_itemsets(),
                        "{} diverges from the oracle",
                        &label
                    );
                    for fi in &r.itemsets {
                        let want = oracle.get(&fi.itemset).expect("same sets");
                        prop_assert!(
                            (fi.expected_support - want.expected_support).abs() < 1e-9,
                            "{}: esup of {}", &label, fi.itemset
                        );
                        prop_assert!(
                            (fi.frequent_prob.unwrap() - want.frequent_prob.unwrap()).abs() < 1e-9,
                            "{}: Pr of {}", &label, fi.itemset
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn expected_support_matrix_cells_agree_with_the_oracle(
        db in small_db(),
        min_esup in 1u32..=9,
    ) {
        let ratio = min_esup as f64 / 10.0;
        // pft is ignored by the expected-support row.
        let params = MiningParams::new(ratio, 0.5).unwrap();
        let oracle = BruteForce::new().mine_expected_ratio(&db, ratio).unwrap();
        for traversal in TraversalKind::ALL {
            for engine in EngineKind::ALL {
                let r = MatrixMiner::new(MeasureKind::ExpectedSupport, traversal)
                    .mine_probabilistic(&db, params.with_engine(engine))
                    .unwrap();
                let label = format!("esup×{traversal}×{engine}");
                prop_assert_eq!(
                    r.sorted_itemsets(),
                    oracle.sorted_itemsets(),
                    "{} diverges from the oracle",
                    &label
                );
                for fi in &r.itemsets {
                    let want = oracle.get(&fi.itemset).expect("same sets");
                    prop_assert!(
                        (fi.expected_support - want.expected_support).abs() < 1e-9,
                        "{}: esup of {}", &label, fi.itemset
                    );
                }
            }
        }
    }

    #[test]
    fn approximate_matrix_cells_agree_with_their_level_wise_reference(
        db in small_db(),
        min_sup in 1u32..=9,
        pft in 1u32..=8,
    ) {
        let params = MiningParams::new(min_sup as f64 / 10.0, pft as f64 / 10.0).unwrap();
        for measure in [MeasureKind::Poisson, MeasureKind::Normal] {
            let reference = MatrixMiner::new(measure, TraversalKind::LevelWise)
                .mine_probabilistic(&db, params)
                .unwrap();
            for traversal in TraversalKind::ALL {
                for engine in EngineKind::ALL {
                    if !MatrixMiner::supported(measure, traversal) {
                        continue;
                    }
                    let r = MatrixMiner::new(measure, traversal)
                        .mine_probabilistic(&db, params.with_engine(engine))
                        .unwrap();
                    let label = format!("{measure}×{traversal}×{engine}");
                    prop_assert_eq!(
                        r.sorted_itemsets(),
                        reference.sorted_itemsets(),
                        "{} diverges from the level-wise reference",
                        &label
                    );
                    for fi in &r.itemsets {
                        let want = reference.get(&fi.itemset).expect("same sets");
                        prop_assert!(
                            (fi.expected_support - want.expected_support).abs() < 1e-9,
                            "{}: esup of {}", &label, fi.itemset
                        );
                        match (fi.frequent_prob, want.frequent_prob) {
                            (Some(a), Some(b)) => prop_assert!(
                                (a - b).abs() < 1e-9,
                                "{}: Pr of {}", &label, fi.itemset
                            ),
                            (None, None) => {}
                            (a, b) => prop_assert!(
                                false,
                                "{}: Pr presence diverges: {:?} vs {:?}", &label, a, b
                            ),
                        }
                    }
                }
            }
        }
    }

    // The vertical backend's statistics (esup, variance, prob-vectors)
    // match the horizontal reference database implementation directly.
    #[test]
    fn vertical_index_matches_reference_statistics(db in small_db()) {
        use uncertain_fim::core::VerticalIndex;
        let idx = VerticalIndex::build(&db);
        for a in 0..6u32 {
            for b in a..6u32 {
                let items: Vec<u32> = if a == b { vec![a] } else { vec![a, b] };
                let vec_v = idx.prob_vector(&items);
                let vec_h = db.itemset_prob_vector(&items);
                prop_assert_eq!(vec_v.nonzero_probs(), vec_h);
                let (esup, var) = vec_v.moments();
                let (we, wv) = db.support_moments(&items);
                prop_assert!((esup - we).abs() < 1e-9);
                prop_assert!((var - wv).abs() < 1e-9);
            }
        }
    }
}

/// The paper's worked example must come out identically on every backend,
/// for every miner in the study.
#[test]
fn paper_table1_identical_across_backends() {
    let db = uncertain_fim::core::examples::paper_table1();

    // Example 1 (Definition 2): min_esup = 0.5 → {A} and {C}.
    for engine in EngineKind::ALL {
        let r = uapriori(&db, 0.5, engine);
        assert_eq!(
            r.sorted_itemsets(),
            vec![Itemset::singleton(0), Itemset::singleton(2)],
            "{}",
            engine.name()
        );
        let a = r.get(&Itemset::singleton(0)).unwrap();
        assert!((a.expected_support - 2.1).abs() < 1e-12);
    }

    // Definition 4 on every probabilistic miner, every backend.
    let params = MiningParams::new(0.5, 0.7).unwrap();
    for algo in [
        Algorithm::DPB,
        Algorithm::DPNB,
        Algorithm::DCB,
        Algorithm::DCNB,
        Algorithm::PDUApriori,
        Algorithm::NDUApriori,
        Algorithm::NDUHMine,
    ] {
        let h = algo
            .mine_probabilistic(&db, params.with_engine(EngineKind::Horizontal))
            .unwrap();
        for engine in [EngineKind::Vertical, EngineKind::Diffset] {
            let v = algo
                .mine_probabilistic(&db, params.with_engine(engine))
                .unwrap();
            assert_eq!(
                h.sorted_itemsets(),
                v.sorted_itemsets(),
                "{} diverges on Table 1 ({engine})",
                algo.name()
            );
            for fi in &v.itemsets {
                let want = h.get(&fi.itemset).unwrap();
                assert!((fi.expected_support - want.expected_support).abs() < 1e-9);
            }
        }
    }
}

/// The vertical backend on a database large enough to engage the parallel
/// candidate fan-out still matches the horizontal backend exactly.
#[test]
fn backends_agree_on_large_parallel_workload() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(99);
    let transactions: Vec<Transaction> = (0..6000)
        .map(|_| {
            let units: Vec<(u32, f64)> = (0..12u32)
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
    let db = UncertainDatabase::with_num_items(transactions, 12);

    let h = uapriori(&db, 0.02, EngineKind::Horizontal);
    assert!(
        h.len() > 50,
        "workload should mine several levels: {}",
        h.len()
    );
    for engine in [EngineKind::Vertical, EngineKind::Diffset] {
        let v = uapriori(&db, 0.02, engine);
        assert_eq!(h.sorted_itemsets(), v.sorted_itemsets(), "{engine}");
        for fi in &v.itemsets {
            let want = h.get(&fi.itemset).unwrap().expected_support;
            assert!(
                (fi.expected_support - want).abs() < 1e-9,
                "{engine} {}: {} vs {}",
                fi.itemset,
                fi.expected_support,
                want
            );
        }
    }
}
