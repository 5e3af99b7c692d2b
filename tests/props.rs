//! Cross-crate property-based tests (proptest): randomized invariants
//! spanning the statistics substrate and the miners.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use uncertain_fim::miners::common::{
    mine_level_wise, ExactKernel, ExactMeasure, ExpectedSupport, FrequentnessMeasure,
    IncrementalMiner, NormalApprox, PoissonApprox,
};
use uncertain_fim::miners::Algorithm;
use uncertain_fim::prelude::*;
use uncertain_fim::stats::chernoff::chernoff_upper_bound;
use uncertain_fim::stats::pb::{
    pmf_divide_conquer, pmf_exact, support_moments, survival_dp, survival_from_pmf,
};

/// Strategy: a probability strictly in (0, 1].
fn prob() -> impl Strategy<Value = f64> {
    (1u32..=1000).prop_map(|k| k as f64 / 1000.0)
}

/// Strategy: a small uncertain database (≤ 24 transactions over ≤ 5 items).
fn small_db() -> impl Strategy<Value = UncertainDatabase> {
    vec(vec((0u32..5, prob()), 0..5), 1..24).prop_map(|raw| {
        let transactions = raw
            .into_iter()
            .map(|units| {
                // Dedup items, keeping the first probability.
                let mut seen = std::collections::BTreeMap::new();
                for (i, p) in units {
                    seen.entry(i).or_insert(p);
                }
                Transaction::new(seen.into_iter().collect::<Vec<_>>()).unwrap()
            })
            .collect();
        UncertainDatabase::with_num_items(transactions, 5)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pmf_is_a_distribution(q in vec(prob(), 0..60)) {
        let pmf = pmf_exact(&q);
        prop_assert_eq!(pmf.len(), q.len() + 1);
        let total: f64 = pmf.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(pmf.iter().all(|&p| (-1e-12..=1.0 + 1e-12).contains(&p)));
    }

    #[test]
    fn three_exact_kernels_triangulate(q in vec(prob(), 0..80)) {
        // Dense DP, divide-and-conquer + FFT, and characteristic-function
        // DFT are independently derived; all three must agree everywhere.
        let a = pmf_exact(&q);
        let b = pmf_divide_conquer(&q, None);
        let c = uncertain_fim::stats::dft_cf::pmf_dft_cf(&q);
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(a.len(), c.len());
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            prop_assert!((x - y).abs() < 1e-9, "dp {} vs dc {}", x, y);
            prop_assert!((x - z).abs() < 1e-8, "dp {} vs cf {}", x, z);
        }
    }

    #[test]
    fn binomial_fast_path_matches_general_kernel(
        p in (1u32..=99).prop_map(|k| k as f64 / 100.0),
        n in 1usize..60,
        msup in 0usize..65,
    ) {
        let q = vec![p; n];
        let general = survival_dp(&q, msup);
        let fast = uncertain_fim::stats::binomial::binomial_survival(
            n as u64, msup as u64, p,
        );
        prop_assert!((general - fast).abs() < 1e-9, "{} vs {}", general, fast);
        prop_assert_eq!(
            uncertain_fim::stats::binomial::detect_constant(&q, 0.0),
            Some(p)
        );
    }

    #[test]
    fn truncated_dp_matches_pmf_tail(q in vec(prob(), 0..50), msup in 0usize..55) {
        let direct = survival_dp(&q, msup);
        let via_pmf = survival_from_pmf(&pmf_exact(&q), msup);
        prop_assert!((direct - via_pmf).abs() < 1e-9);
        // And the saturated divide-and-conquer agrees too.
        if msup >= 1 {
            let capped = pmf_divide_conquer(&q, Some(msup));
            let dc = if msup < capped.len() { capped[msup] } else { 0.0 };
            prop_assert!((direct - dc).abs() < 1e-9);
        }
    }

    #[test]
    fn survival_is_monotone_in_threshold(q in vec(prob(), 0..40)) {
        let mut prev = 1.0f64;
        for msup in 0..=q.len() + 1 {
            let s = survival_dp(&q, msup);
            prop_assert!(s <= prev + 1e-12);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
            prev = s;
        }
    }

    #[test]
    fn chernoff_dominates_exact_survival(q in vec(prob(), 1..50), msup in 1usize..55) {
        let (mu, _) = support_moments(&q);
        let exact = survival_dp(&q, msup);
        let bound = chernoff_upper_bound(mu, msup as f64);
        prop_assert!(bound >= exact - 1e-9, "bound {} < exact {}", bound, exact);
    }

    #[test]
    fn moments_match_distribution(q in vec(prob(), 0..40)) {
        let (mu, var) = support_moments(&q);
        let pmf = pmf_exact(&q);
        let mean: f64 = pmf.iter().enumerate().map(|(k, &p)| k as f64 * p).sum();
        let ex2: f64 = pmf.iter().enumerate().map(|(k, &p)| (k * k) as f64 * p).sum();
        prop_assert!((mu - mean).abs() < 1e-8);
        prop_assert!((var - (ex2 - mean * mean)).abs() < 1e-7);
    }

    #[test]
    fn all_esup_miners_agree_with_oracle(db in small_db(), min_esup in 1u32..=9) {
        let ratio = min_esup as f64 / 10.0;
        let oracle = BruteForce::new().mine_expected_ratio(&db, ratio).unwrap();
        for algo in Algorithm::EXPECTED_SUPPORT {
            let r = algo
                .expected_support_miner()
                .unwrap()
                .mine_expected_ratio(&db, ratio)
                .unwrap();
            prop_assert_eq!(
                r.sorted_itemsets(),
                oracle.sorted_itemsets(),
                "{} diverged",
                algo.name()
            );
        }
    }

    #[test]
    fn all_exact_prob_miners_agree_with_oracle(
        db in small_db(),
        min_sup in 1u32..=9,
        pft in 1u32..=9,
    ) {
        let (ms, pf) = (min_sup as f64 / 10.0, pft as f64 / 10.0);
        let oracle = BruteForce::new().mine_probabilistic_raw(&db, ms, pf).unwrap();
        for algo in Algorithm::EXACT_PROBABILISTIC {
            let r = algo
                .probabilistic_miner()
                .unwrap()
                .mine_probabilistic_raw(&db, ms, pf)
                .unwrap();
            prop_assert_eq!(
                r.sorted_itemsets(),
                oracle.sorted_itemsets(),
                "{} diverged",
                algo.name()
            );
        }
    }

    #[test]
    fn frequent_probability_is_antimonotone(db in small_db()) {
        // Direct check of the theorem every miner's pruning rests on:
        // X ⊆ Y ⇒ Pr{sup(X) ≥ k} ≥ Pr{sup(Y) ≥ k}.
        let msup = (db.num_transactions() / 2).max(1);
        for a in 0..5u32 {
            for b in 0..5u32 {
                if a == b { continue; }
                let qa = db.itemset_prob_vector(&[a.min(b), a.max(b)][..1]);
                let qab = db.itemset_prob_vector(&[a.min(b), a.max(b)]);
                let pa = survival_dp(&qa, msup);
                let pab = survival_dp(&qab, msup);
                prop_assert!(pab <= pa + 1e-12);
            }
        }
    }
}

/// Bitwise record equality across mining modes (stats are mode-specific).
fn records_bits(result: &MiningResult) -> Vec<(Itemset, u64, Option<u64>, Option<u64>)> {
    result
        .itemsets
        .iter()
        .map(|f| {
            (
                f.itemset.clone(),
                f.expected_support.to_bits(),
                f.variance.map(f64::to_bits),
                f.frequent_prob.map(f64::to_bits),
            )
        })
        .collect()
}

/// One mutation of a randomized ingest script (see
/// [`incremental_random_step_sequences_match_batch`]).
#[derive(Clone, Debug)]
enum StreamOp {
    /// Append one transaction (possibly empty — a legal no-op arrival).
    Append(Vec<(u32, f64)>),
    /// Expire a burst of oldest transactions.
    Expire(usize),
}

/// Strategy: the unit list of one streamed transaction over 6 items.
fn stream_tx() -> impl Strategy<Value = Vec<(u32, f64)>> {
    vec((0u32..6, prob()), 0..6).prop_map(|units| {
        let mut seen = std::collections::BTreeMap::new();
        for (i, p) in units {
            seen.entry(i).or_insert(p);
        }
        seen.into_iter().collect()
    })
}

/// Strategy: one stream op, biased 4:1 toward arrivals so windows fill up
/// (the shim has no `prop_oneof!`; a selector tuple plays its role).
fn stream_op() -> impl Strategy<Value = StreamOp> {
    (0u32..5, stream_tx(), 1usize..20).prop_map(|(sel, tx, n)| {
        if sel < 4 {
            StreamOp::Append(tx)
        } else {
            StreamOp::Expire(n)
        }
    })
}

/// The deterministic work counters a *cold* incremental refresh must share
/// bit-for-bit with the batch oracle: an unprimed refresh takes the same
/// evaluation path as a from-scratch mine, so any drift here means the
/// streaming machinery leaked into the cold path.
fn cold_work_bits(stats: &MinerStats) -> (u64, u64, u64) {
    (
        stats.candidates_evaluated,
        stats.intersections,
        stats.exact_evaluations,
    )
}

/// Drives one `IncrementalMiner` through the script, refreshing every
/// `refresh_every` ops (and at the end). Each refresh is pinned two ways:
/// against batch-mining the window snapshot (records bit for bit), and
/// against a *cold re-mine* — the same snapshot replayed into a fresh
/// `IncrementalMiner` — diffing records **and** the deterministic work
/// stats. The warm miner runs on memos point-patched across the whole
/// script; the fresh miner folds everything from scratch; the batch
/// oracle never sees the window machinery at all. All three must agree on
/// records, and the cold miner must additionally match the oracle's work
/// counters (its unprimed refresh *is* a batch mine).
fn drive_incremental<M: FrequentnessMeasure + Copy>(
    measure: M,
    kind: EngineKind,
    capacity: usize,
    ops: &[StreamOp],
    refresh_every: usize,
) -> Result<(), TestCaseError> {
    let window = WindowedDatabase::new(capacity, 6);
    let mut miner = IncrementalMiner::new(window, measure, kind);
    // Edge case first: refreshing a fully vacant window.
    miner.refresh();
    let batch = mine_level_wise(&miner.window().snapshot(), measure, kind);
    prop_assert_eq!(
        records_bits(miner.result()),
        records_bits(&batch),
        "{}×{}: empty-window refresh diverged",
        kind,
        measure.name()
    );
    for (i, op) in ops.iter().enumerate() {
        match op {
            StreamOp::Append(units) => {
                miner.append(Transaction::new(units.iter().copied()).unwrap());
            }
            StreamOp::Expire(n) => {
                miner.expire_oldest(*n);
            }
        }
        if (i + 1) % refresh_every == 0 || i + 1 == ops.len() {
            let warm = miner.refresh().stats.clone();
            let snapshot = miner.window().snapshot();
            let batch = mine_level_wise(&snapshot, measure, kind);
            prop_assert_eq!(
                records_bits(miner.result()),
                records_bits(&batch),
                "{}×{} diverged from the batch oracle after op {}",
                kind,
                measure.name(),
                i
            );
            // Memo counters engage only on the patched path, never cold.
            prop_assert_eq!(batch.stats.memo_patched, 0);
            prop_assert_eq!(batch.stats.memo_rebuilt, 0);
            prop_assert!(
                warm.memo_patched == 0 || kind != EngineKind::Horizontal,
                "horizontal keeps no engine memo to patch"
            );
            // Cold re-mine: same window contents through a fresh miner.
            let mut cold = IncrementalMiner::new(WindowedDatabase::new(capacity, 6), measure, kind);
            for t in snapshot.transactions() {
                cold.append(t.clone());
            }
            let cold_stats = cold.refresh().stats.clone();
            prop_assert_eq!(
                records_bits(miner.result()),
                records_bits(cold.result()),
                "{}×{}: memo-patched records diverged from a cold re-mine after op {}",
                kind,
                measure.name(),
                i
            );
            prop_assert_eq!(
                cold_work_bits(&cold_stats),
                cold_work_bits(&batch.stats),
                "{}×{}: cold refresh work differs from the batch oracle after op {}",
                kind,
                measure.name(),
                i
            );
            prop_assert_eq!(cold_stats.memo_patched, 0);
            prop_assert_eq!(cold_stats.memo_rebuilt, 0);
        }
    }
    Ok(())
}

proptest! {
    // Per case: 3 engines × ~6 measures, each driven through the
    // whole script with a batch re-mine at every refresh — the sweep is
    // heavy, so few cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The incremental miner, driven by a random append/expire script, must
    // stay record-bit-identical to batch-mining each window snapshot from
    // scratch — for every engine and measure. Capacity 130 spans three
    // 64-tid chunks, so the random scripts routinely produce steps whose
    // dirty slots straddle chunk boundaries.
    #[test]
    fn incremental_random_step_sequences_match_batch(
        ops in vec(stream_op(), 10..28),
        refresh_every in 2usize..6,
        min_sup in 1u32..=4,
    ) {
        let capacity = 130usize;
        let ratio = min_sup as f64 / 10.0;
        let params = MiningParams::new(ratio, 0.4).unwrap();
        let esup_threshold = params.min_sup.threshold_real(capacity);
        for kind in EngineKind::ALL {
            drive_incremental(
                ExpectedSupport::new(esup_threshold),
                kind, capacity, &ops, refresh_every,
            )?;
            drive_incremental(
                ExpectedSupport::with_variance(esup_threshold),
                kind, capacity, &ops, refresh_every,
            )?;
            drive_incremental(
                NormalApprox::new(params.msup(capacity), 0.4),
                kind, capacity, &ops, refresh_every,
            )?;
            drive_incremental(
                ExactMeasure::new(ExactKernel::DynamicProgramming, true, capacity, &params),
                kind, capacity, &ops, refresh_every,
            )?;
            drive_incremental(
                ExactMeasure::new(ExactKernel::DivideConquer, true, capacity, &params),
                kind, capacity, &ops, refresh_every,
            )?;
            if let Some(poisson) = PoissonApprox::from_params(capacity, &params).unwrap() {
                drive_incremental(poisson, kind, capacity, &ops, refresh_every)?;
            }
        }
    }
}

/// The window-delta edge cases, deterministic: an untouched (all-vacant)
/// window, a fill that crosses a chunk boundary, a warm churn step patching a *retained* memo (the memo
/// counters must engage on the columnar backends), a transaction that
/// arrives and expires within one step (its slot nets back to vacant)
/// landing on that retained memo, full-window expiry, and a refill after
/// total expiry — each refresh pinned bit-for-bit against the batch
/// oracle on every engine.
#[test]
fn window_delta_edge_cases_match_batch() {
    let capacity = 130usize; // three 64-tid chunks
    let measure = ExpectedSupport::with_variance(3.0);
    for kind in EngineKind::ALL {
        let window = WindowedDatabase::new(capacity, 6);
        let mut miner = IncrementalMiner::new(window, measure, kind);
        let check = |miner: &mut IncrementalMiner<ExpectedSupport>, label: &str| {
            let stats = miner.refresh().stats.clone();
            let batch = mine_level_wise(&miner.window().snapshot(), measure, kind);
            assert_eq!(
                records_bits(miner.result()),
                records_bits(&batch),
                "{kind}: {label} diverged from the batch oracle"
            );
            stats
        };
        // 1. Refreshing the untouched, fully vacant window.
        check(&mut miner, "empty window");
        // 2. Fill past the first chunk boundary: dirty slots of one step
        //    land in different chunks.
        for i in 0..100u32 {
            miner.append(Transaction::new([(i % 6, 0.9), ((i + 1) % 6, 0.7)]).unwrap());
        }
        check(&mut miner, "fill across chunk boundary");
        // 3. Warm churn on the now-retained memo: a second refresh whose
        //    step must point-patch the survivors of step 2's mine rather
        //    than rebuild them — on the columnar backends the patch
        //    counter has to actually engage here.
        miner.expire_oldest(5);
        for i in 0..5u32 {
            miner.append(Transaction::new([(i % 6, 0.85), ((i + 3) % 6, 0.65)]).unwrap());
        }
        let warm = check(&mut miner, "churn on a retained memo");
        if kind != EngineKind::Horizontal {
            assert!(
                warm.memo_patched > 0,
                "{kind}: warm churn step never patched a retained memo node \
                 (patched {}, rebuilt {})",
                warm.memo_patched,
                warm.memo_rebuilt
            );
        }
        // 4. A transaction that arrives and expires within the same
        //    step — against the memo retained across two refreshes —
        //    its freshly-filled slot nets back to vacant, and the step
        //    also empties the whole window (full-window expiry).
        let live = miner.window().len();
        miner.append(Transaction::new([(2, 0.8), (3, 0.8)]).unwrap());
        assert_eq!(miner.expire_oldest(live + 1), live + 1);
        check(
            &mut miner,
            "arrive-and-expire same step + full-window expiry on a retained memo",
        );
        assert!(miner.window().is_empty());
        // 5. Refill after total expiry: the tracker must not resurrect
        //    verdicts from the expired generation.
        for i in 0..40u32 {
            miner.append(Transaction::new([(i % 6, 0.6), ((i + 2) % 6, 0.95)]).unwrap());
        }
        check(&mut miner, "refill after empty");
    }
}
