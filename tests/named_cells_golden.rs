//! Golden pin for the named algorithms: the work each one does and the
//! bits it emits.
//!
//! Every [`Algorithm`] — the paper's eight, the un-screened DPNB/DCNB and
//! the brute-force oracle — is mined from three seeded fixtures at pool
//! sizes 1 and 2; the level-wise ones run on all three support engines.
//! Each run must reproduce a fixed [`MinerStats`] (every field) and a fixed
//! FNV-1a hash over its canonical records. The record counts and hashes
//! were taken from the per-algorithm wrapper types that each rebuilt their
//! measure from the parameters by hand, so the registry's cells must judge
//! the same candidates and land bit-identical statistics. The level-wise
//! rows' `scans`, and on `sparse_pairs` their candidate, count-prune and
//! intersection counters, were recaptured when level 2 moved onto the
//! co-occurrence pass, which charges one scan and drops the pairs below
//! the count floor before they are evaluated.
//!
//! * `continuous` — continuous probabilities; frequent pairs and triples,
//!   some of each screened out.
//! * `quantized` — the same generator with probabilities rounded up to
//!   eighths, so many multipliers and moments coincide exactly.
//! * `sparse_pairs` — every item frequent but few pairs, so the pass drops
//!   most pairs on their co-occurrence count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_fim::core::parallel::with_thread_override;
use uncertain_fim::core::{EngineKind, TraversalKind};
use uncertain_fim::miners::{Algorithm, AlgorithmGroup};
use uncertain_fim::prelude::*;

/// Minimum support (ratio — Definition 2's `min_esup` for the
/// expected-support group) and frequentness threshold of every run.
const MIN_SUP: f64 = 0.12;
const PFT: f64 = 0.7;

/// Expected `(algorithm, engine, candidates_evaluated,
/// candidates_pruned_structural, candidates_pruned_chernoff,
/// candidates_pruned_count, exact_evaluations, scans, intersections,
/// peak_structure_nodes, peak_memo_bytes, record count, record hash)`.
/// Every other [`MinerStats`] field must be zero on a batch run. Rows of
/// algorithms that do not run on a support engine carry the default one.
type Golden = (
    Algorithm,
    EngineKind,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    usize,
    u64,
);

#[rustfmt::skip]
const CONTINUOUS: [Golden; 25] = [
    (Algorithm::UApriori,   EngineKind::Horizontal,  77, 12,  0,   0,   0,  4,   0,      0,       0, 34,  9_940_235_564_180_863_049),
    (Algorithm::UApriori,   EngineKind::Vertical,    77, 12,  0,   0,   0,  2,  69, 30_919, 255_256, 34,  9_940_235_564_180_863_049),
    (Algorithm::UApriori,   EngineKind::Diffset,     77, 12,  0,   0,   0,  2,  84,  9_846,  39_384, 34,  9_940_235_564_180_863_049),
    (Algorithm::UFPGrowth,  EngineKind::Horizontal,  77,  0,  0,   0,   0, 36,   0,  6_163,       0, 34, 16_911_437_164_918_179_726),
    (Algorithm::UHMine,     EngineKind::Horizontal,  97,  0,  0,   0,   0, 37,   0,  6_162,       0, 34, 16_911_437_164_918_179_726),
    (Algorithm::DPB,        EngineKind::Horizontal,  69, 17, 30,   0,  39,  7,   0,      0,       0, 32,  6_659_443_303_615_011_967),
    (Algorithm::DPB,        EngineKind::Vertical,    69, 17, 30,   0,  39,  2,  61, 59_212, 490_720, 32,  6_659_443_303_615_011_967),
    (Algorithm::DPB,        EngineKind::Diffset,     69, 17, 30,   0,  39,  2, 104, 18_724,  74_896, 32,  6_659_443_303_615_011_967),
    (Algorithm::DPNB,       EngineKind::Horizontal,  69, 17,  0,   0,  69,  6,   0,      0,       0, 32,  6_659_443_303_615_011_967),
    (Algorithm::DPNB,       EngineKind::Vertical,    69, 17,  0,   0,  69,  1,  61, 59_212, 490_720, 32,  6_659_443_303_615_011_967),
    (Algorithm::DPNB,       EngineKind::Diffset,     69, 17,  0,   0,  69,  1, 142, 18_724,  74_896, 32,  6_659_443_303_615_011_967),
    (Algorithm::DCB,        EngineKind::Horizontal,  69, 17, 30,   0,  39,  7,   0,      0,       0, 32,  3_352_715_002_830_157_423),
    (Algorithm::DCB,        EngineKind::Vertical,    69, 17, 30,   0,  39,  2,  61, 59_212, 490_720, 32,  3_352_715_002_830_157_423),
    (Algorithm::DCB,        EngineKind::Diffset,     69, 17, 30,   0,  39,  2, 104, 18_724,  74_896, 32,  3_352_715_002_830_157_423),
    (Algorithm::DCNB,       EngineKind::Horizontal,  69, 17,  0,   0,  69,  6,   0,      0,       0, 32,  3_352_715_002_830_157_423),
    (Algorithm::DCNB,       EngineKind::Vertical,    69, 17,  0,   0,  69,  1,  61, 59_212, 490_720, 32,  3_352_715_002_830_157_423),
    (Algorithm::DCNB,       EngineKind::Diffset,     69, 17,  0,   0,  69,  1, 142, 18_724,  74_896, 32,  3_352_715_002_830_157_423),
    (Algorithm::PDUApriori, EngineKind::Horizontal,  69, 17,  0,   0,   0,  4,   0,      0,       0, 32, 17_210_817_860_104_346_789),
    (Algorithm::PDUApriori, EngineKind::Vertical,    69, 17,  0,   0,   0,  2,  61, 28_837, 237_992, 32, 17_210_817_860_104_346_789),
    (Algorithm::PDUApriori, EngineKind::Diffset,     69, 17,  0,   0,   0,  2,  71,  9_060,  36_240, 32, 17_210_817_860_104_346_789),
    (Algorithm::NDUApriori, EngineKind::Horizontal,  69, 17,  0,   0,   0,  4,   0,      0,       0, 32, 11_702_037_274_684_441_053),
    (Algorithm::NDUApriori, EngineKind::Vertical,    69, 17,  0,   0,   0,  2,  61, 29_703, 245_224, 32, 11_702_037_274_684_441_053),
    (Algorithm::NDUApriori, EngineKind::Diffset,     69, 17,  0,   0,   0,  2,  71,  9_627,  38_508, 32, 11_702_037_274_684_441_053),
    (Algorithm::NDUHMine,   EngineKind::Horizontal,  96,  0,  0,   0,   0, 35,   0,  6_162,       0, 32, 17_258_956_488_953_720_100),
    (Algorithm::BruteForce, EngineKind::Horizontal,  96,  0,  0,   0,  96,  0,   0,      0,       0, 32, 15_459_947_581_910_919_503),
];

#[rustfmt::skip]
const QUANTIZED: [Golden; 25] = [
    (Algorithm::UApriori,   EngineKind::Horizontal,  84, 17,  0,   0,   0,  5,   0,      0,       0, 45,  2_570_046_621_439_245_935),
    (Algorithm::UApriori,   EngineKind::Vertical,    84, 17,  0,   0,   0,  2,  76, 43_639, 360_360, 45,  2_570_046_621_439_245_935),
    (Algorithm::UApriori,   EngineKind::Diffset,     84, 17,  0,   0,   0,  2,  95, 12_970,  51_880, 45,  2_570_046_621_439_245_935),
    (Algorithm::UFPGrowth,  EngineKind::Horizontal,  84,  0,  0,   0,   0, 47,   0,  3_432,       0, 45, 16_613_027_842_188_446_015),
    (Algorithm::UHMine,     EngineKind::Horizontal, 128,  0,  0,   0,   0, 48,   0,  6_162,       0, 45, 16_613_027_842_188_446_015),
    (Algorithm::DPB,        EngineKind::Horizontal,  83, 16, 32,   0,  51,  8,   0,      0,       0, 43, 15_872_339_034_204_881_997),
    (Algorithm::DPB,        EngineKind::Vertical,    83, 16, 32,   0,  51,  2,  75, 67_304, 560_016, 43, 15_872_339_034_204_881_997),
    (Algorithm::DPB,        EngineKind::Diffset,     83, 16, 32,   0,  51,  2, 140, 23_537,  94_148, 43, 15_872_339_034_204_881_997),
    (Algorithm::DPNB,       EngineKind::Horizontal,  83, 16,  0,   0,  83,  8,   0,      0,       0, 43, 15_872_339_034_204_881_997),
    (Algorithm::DPNB,       EngineKind::Vertical,    83, 16,  0,   0,  83,  1,  75, 67_304, 560_016, 43, 15_872_339_034_204_881_997),
    (Algorithm::DPNB,       EngineKind::Diffset,     83, 16,  0,   0,  83,  1, 184, 23_537,  94_148, 43, 15_872_339_034_204_881_997),
    (Algorithm::DCB,        EngineKind::Horizontal,  83, 16, 32,   0,  51,  8,   0,      0,       0, 43,  4_454_012_322_603_389_182),
    (Algorithm::DCB,        EngineKind::Vertical,    83, 16, 32,   0,  51,  2,  75, 67_304, 560_016, 43,  4_454_012_322_603_389_182),
    (Algorithm::DCB,        EngineKind::Diffset,     83, 16, 32,   0,  51,  2, 140, 23_537,  94_148, 43,  4_454_012_322_603_389_182),
    (Algorithm::DCNB,       EngineKind::Horizontal,  83, 16,  0,   0,  83,  8,   0,      0,       0, 43,  4_454_012_322_603_389_182),
    (Algorithm::DCNB,       EngineKind::Vertical,    83, 16,  0,   0,  83,  1,  75, 67_304, 560_016, 43,  4_454_012_322_603_389_182),
    (Algorithm::DCNB,       EngineKind::Diffset,     83, 16,  0,   0,  83,  1, 184, 23_537,  94_148, 43,  4_454_012_322_603_389_182),
    (Algorithm::PDUApriori, EngineKind::Horizontal,  83, 16,  0,   0,   0,  5,   0,      0,       0, 43, 12_872_620_606_394_786_595),
    (Algorithm::PDUApriori, EngineKind::Vertical,    83, 16,  0,   0,   0,  2,  75, 41_257, 340_696, 43, 12_872_620_606_394_786_595),
    (Algorithm::PDUApriori, EngineKind::Diffset,     83, 16,  0,   0,   0,  2,  92, 12_411,  49_644, 43, 12_872_620_606_394_786_595),
    (Algorithm::NDUApriori, EngineKind::Horizontal,  83, 16,  0,   0,   0,  5,   0,      0,       0, 43,    477_070_425_524_002_330),
    (Algorithm::NDUApriori, EngineKind::Vertical,    83, 16,  0,   0,   0,  2,  75, 43_639, 360_360, 43,    477_070_425_524_002_330),
    (Algorithm::NDUApriori, EngineKind::Diffset,     83, 16,  0,   0,   0,  2,  92, 12_970,  51_880, 43,    477_070_425_524_002_330),
    (Algorithm::NDUHMine,   EngineKind::Horizontal, 123,  0,  0,   0,   0, 46,   0,  6_162,       0, 43,  8_490_027_792_247_223_338),
    (Algorithm::BruteForce, EngineKind::Horizontal, 123,  0,  0,   0, 123,  0,   0,      0,       0, 43, 10_261_061_013_691_722_267),
];

#[rustfmt::skip]
const SPARSE_PAIRS: [Golden; 25] = [
    (Algorithm::UApriori,   EngineKind::Horizontal,  32,  0,  0, 269,   0,  4,   0,      0,       0, 28, 18_097_573_356_105_605_197),
    (Algorithm::UApriori,   EngineKind::Vertical,    32,  0,  0, 269,   0,  2,   8,  3_484,  28_896, 28, 18_097_573_356_105_605_197),
    (Algorithm::UApriori,   EngineKind::Diffset,     32,  0,  0, 269,   0,  2,   9,    448,   1_792, 28, 18_097_573_356_105_605_197),
    (Algorithm::UFPGrowth,  EngineKind::Horizontal, 303,  0,  0,   0,   0, 30,   0,  5_803,       0, 28, 15_794_282_968_558_517_599),
    (Algorithm::UHMine,     EngineKind::Horizontal, 381,  0,  0,   0,   0, 31,   0,  5_802,       0, 28, 15_794_282_968_558_517_599),
    (Algorithm::DPB,        EngineKind::Horizontal,  32,  0,  3, 269,  29,  7,   0,      0,       0, 28, 16_032_949_738_528_650_304),
    (Algorithm::DPB,        EngineKind::Vertical,    32,  0,  3, 269,  29,  2,   8,  4_304,  35_712, 28, 16_032_949_738_528_650_304),
    (Algorithm::DPB,        EngineKind::Diffset,     32,  0,  3, 269,  29,  2,  16,  1_148,   5_332, 28, 16_032_949_738_528_650_304),
    (Algorithm::DPNB,       EngineKind::Horizontal, 301,  0,  0,   0, 301,  6,   0,      0,       0, 28, 16_032_949_738_528_650_304),
    (Algorithm::DPNB,       EngineKind::Vertical,   301,  0,  0,   0, 301,  1, 277, 18_507, 215_096, 28, 16_032_949_738_528_650_304),
    (Algorithm::DPNB,       EngineKind::Diffset,    301,  0,  0,   0, 301,  1, 556, 18_811, 186_912, 28, 16_032_949_738_528_650_304),
    (Algorithm::DCB,        EngineKind::Horizontal,  32,  0,  3, 269,  29,  7,   0,      0,       0, 28,  7_568_306_930_007_051_898),
    (Algorithm::DCB,        EngineKind::Vertical,    32,  0,  3, 269,  29,  2,   8,  4_304,  35_712, 28,  7_568_306_930_007_051_898),
    (Algorithm::DCB,        EngineKind::Diffset,     32,  0,  3, 269,  29,  2,  16,  1_148,   5_332, 28,  7_568_306_930_007_051_898),
    (Algorithm::DCNB,       EngineKind::Horizontal, 301,  0,  0,   0, 301,  6,   0,      0,       0, 28,  7_568_306_930_007_051_898),
    (Algorithm::DCNB,       EngineKind::Vertical,   301,  0,  0,   0, 301,  1, 277, 18_507, 215_096, 28,  7_568_306_930_007_051_898),
    (Algorithm::DCNB,       EngineKind::Diffset,    301,  0,  0,   0, 301,  1, 556, 18_811, 186_912, 28,  7_568_306_930_007_051_898),
    (Algorithm::PDUApriori, EngineKind::Horizontal,  31,  0,  0, 270,   0,  4,   0,      0,       0, 28, 18_097_573_356_105_605_197),
    (Algorithm::PDUApriori, EngineKind::Vertical,    31,  0,  0, 270,   0,  2,   7,  3_484,  28_896, 28, 18_097_573_356_105_605_197),
    (Algorithm::PDUApriori, EngineKind::Diffset,     31,  0,  0, 270,   0,  2,   8,    448,   1_792, 28, 18_097_573_356_105_605_197),
    (Algorithm::NDUApriori, EngineKind::Horizontal,  32,  0,  0, 269,   0,  4,   0,      0,       0, 28,  4_646_610_332_593_462_066),
    (Algorithm::NDUApriori, EngineKind::Vertical,    32,  0,  0, 269,   0,  2,   8,  3_484,  28_896, 28,  4_646_610_332_593_462_066),
    (Algorithm::NDUApriori, EngineKind::Diffset,     32,  0,  0, 269,   0,  2,   9,    448,   1_792, 28,  4_646_610_332_593_462_066),
    (Algorithm::NDUHMine,   EngineKind::Horizontal, 381,  0,  0,   0,   0, 31,   0,  5_802,       0, 28,  5_141_114_259_130_846_127),
    (Algorithm::BruteForce, EngineKind::Horizontal, 383,  0,  0,   0, 383,  0,   0,      0,       0, 28,  5_557_369_647_605_598_653),
];

/// Every algorithm in registry order.
const ALL: [Algorithm; 11] = [
    Algorithm::UApriori,
    Algorithm::UFPGrowth,
    Algorithm::UHMine,
    Algorithm::DPB,
    Algorithm::DPNB,
    Algorithm::DCB,
    Algorithm::DCNB,
    Algorithm::PDUApriori,
    Algorithm::NDUApriori,
    Algorithm::NDUHMine,
    Algorithm::BruteForce,
];

/// 1,200 transactions over 8 items, item `i` present with probability
/// `0.85 − 0.06·i` at a containment probability drawn from `[0.3, 1.0]`.
fn continuous_db() -> UncertainDatabase {
    let mut rng = StdRng::seed_from_u64(2020);
    let transactions: Vec<Transaction> = (0..1_200)
        .map(|_| {
            let units: Vec<(u32, f64)> = (0..8u32)
                .filter_map(|i| {
                    if rng.gen_bool(0.85 - 0.06 * f64::from(i)) {
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

/// `continuous_db` with every probability rounded up to a multiple of 1/8.
fn quantized_db() -> UncertainDatabase {
    let db = continuous_db();
    let transactions = db
        .transactions()
        .iter()
        .map(|t| {
            let units = t
                .items()
                .iter()
                .zip(t.probs())
                .map(|(&i, &p)| (i, (p * 8.0).ceil() / 8.0));
            Transaction::new(units).unwrap()
        })
        .collect();
    UncertainDatabase::with_num_items(transactions, db.num_items())
}

/// 1,000 transactions over 24 items in the shape of the Quest T25I15 data:
/// two planted patterns, `{0, 1, 2}` and `{3, 4}`, each in about a quarter
/// of the transactions, under independent noise (every item present with
/// probability 0.2), at containment probabilities drawn from `[0.5, 1.0]`.
/// Every item is frequent but few pairs are, so level 2 drops most pairs
/// on their co-occurrence count before any of them is evaluated.
fn sparse_pairs_db() -> UncertainDatabase {
    let mut rng = StdRng::seed_from_u64(2512);
    let patterns: [&[u32]; 2] = [&[0, 1, 2], &[3, 4]];
    let transactions: Vec<Transaction> = (0..1_000)
        .map(|_| {
            let planted = patterns.get(rng.gen_range(0..4usize)).copied();
            let units: Vec<(u32, f64)> = (0..24u32)
                .filter_map(|i| {
                    let present = planted.is_some_and(|p| p.contains(&i)) || rng.gen_bool(0.2);
                    present.then(|| (i, rng.gen_range(0.5..=1.0)))
                })
                .collect();
            Transaction::new(units).unwrap()
        })
        .collect();
    UncertainDatabase::with_num_items(transactions, 24)
}

/// FNV-1a over the canonical records: item count and ids, then the bits of
/// the expected support, the variance and the frequent probability (a
/// missing statistic hashes as `u64::MAX`).
fn record_hash(result: &MiningResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for fi in &result.itemsets {
        eat(fi.itemset.len() as u64);
        for &item in fi.itemset.items() {
            eat(u64::from(item));
        }
        eat(fi.expected_support.to_bits());
        eat(fi.variance.map_or(u64::MAX, f64::to_bits));
        eat(fi.frequent_prob.map_or(u64::MAX, f64::to_bits));
    }
    h
}

/// The runs in pin order: every algorithm in registry order, the
/// level-wise ones once per engine.
fn runs() -> Vec<(Algorithm, EngineKind)> {
    let mut out = Vec::new();
    for algo in ALL {
        if algo.traversal() == Some(TraversalKind::LevelWise) {
            out.extend(EngineKind::ALL.map(|engine| (algo, engine)));
        } else {
            out.push((algo, EngineKind::default()));
        }
    }
    out
}

/// One mine of `algo` through the registry. The expected-support group
/// reads `MIN_SUP` as Definition 2's `min_esup`; on the default engine its
/// Definition 2 interface must return the same bits.
fn mine(db: &UncertainDatabase, algo: Algorithm, engine: EngineKind) -> MiningResult {
    let params = MiningParams::new(MIN_SUP, PFT).unwrap().with_engine(engine);
    let r = algo.mine_probabilistic(db, params).unwrap();
    if algo.group() == AlgorithmGroup::ExpectedSupport && engine == EngineKind::default() {
        let esup = algo.mine_expected_ratio(db, MIN_SUP).unwrap();
        assert_eq!((&r.itemsets, &r.stats), (&esup.itemsets, &esup.stats));
    }
    r
}

fn check(label: &str, db: &UncertainDatabase, golden: &[Golden]) {
    assert_eq!(golden.len(), runs().len(), "{label}: one row per run");
    for (&want, (algo, engine)) in golden.iter().zip(runs()) {
        assert_eq!((want.0, want.1), (algo, engine));
        let expected_stats = MinerStats {
            candidates_evaluated: want.2,
            candidates_pruned_structural: want.3,
            candidates_pruned_chernoff: want.4,
            candidates_pruned_count: want.5,
            exact_evaluations: want.6,
            scans: want.7,
            intersections: want.8,
            peak_structure_nodes: want.9,
            peak_memo_bytes: want.10,
            ..MinerStats::default()
        };
        for threads in [1, 2] {
            let r = with_thread_override(threads, || mine(db, algo, engine));
            let at = format!("{label}: {}/{engine} @ threads={threads}", algo.name());
            assert_eq!(r.stats, expected_stats, "{at}");
            assert_eq!((r.len(), record_hash(&r)), (want.11, want.12), "{at}");
        }
    }
}

#[test]
fn continuous_named_cells_work_and_record_bits_are_pinned() {
    check("continuous", &continuous_db(), &CONTINUOUS);
}

#[test]
fn quantized_named_cells_work_and_record_bits_are_pinned() {
    check("quantized", &quantized_db(), &QUANTIZED);
}

#[test]
fn sparse_pairs_named_cells_work_and_record_bits_are_pinned() {
    check("sparse_pairs", &sparse_pairs_db(), &SPARSE_PAIRS);
}
