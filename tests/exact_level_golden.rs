//! Golden pin for the exact level-wise judge: the work it does and the
//! bits it emits.
//!
//! Every exact cell of the level-wise column — DP and DC, each with and
//! without the Chernoff screen — is mined from two seeded fixtures on all
//! three support engines at pool sizes 1 and 2. Each run must reproduce a
//! fixed [`MinerStats`] (every field) and a fixed FNV-1a hash over its
//! canonical records. The constants were taken from the serial judge that
//! gathered every survivor's vector into one level-wide list before the
//! kernels ran, so any later judge must screen and judge the same
//! candidates, charge the same vector reads and land bit-identical
//! frequent probabilities: a single reordered float operation in a kernel
//! changes the hash. The Chernoff rows' `scans` were recaptured (+1) when
//! level 2 moved onto the scaffold's co-occurrence pass, and their
//! columnar `peak_structure_nodes` / `peak_memo_bytes` when the Chernoff
//! screen's esup cut reached the engines, which no longer export a vector
//! the screen will discard.
//!
//! * `continuous` — continuous probabilities; the pair level's survivors
//!   carry enough vector mass to clear the judge's parallelism gate, so at
//!   pool size 2 the kernels run as separate tasks.
//! * `quantized` — the same generator with probabilities rounded up to
//!   eighths, so many vectors hold exact `1.0` entries and coinciding
//!   multipliers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_fim::core::parallel::with_thread_override;
use uncertain_fim::core::{EngineKind, MeasureKind, TraversalKind};
use uncertain_fim::miners::MatrixMiner;
use uncertain_fim::prelude::*;

/// Minimum support (ratio) and frequentness threshold of every run.
const MIN_SUP: f64 = 0.12;
const PFT: f64 = 0.7;

/// Expected `(measure, chernoff, engine, candidates_evaluated,
/// candidates_pruned_structural, candidates_pruned_chernoff,
/// candidates_pruned_count, exact_evaluations, scans, intersections,
/// peak_structure_nodes, peak_memo_bytes, record count, record hash)`.
/// Every other [`MinerStats`] field must be zero on a batch run.
type Golden = (
    MeasureKind,
    bool,
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
const CONTINUOUS: [Golden; 12] = [
    (MeasureKind::ExactDp, true,  EngineKind::Horizontal, 114, 41, 59, 0,  55, 7,   0,       0,         0, 47, 17_015_656_997_174_252_198),
    (MeasureKind::ExactDp, true,  EngineKind::Vertical,   114, 41, 59, 0,  55, 2, 104, 121_161, 1_000_120, 47, 17_015_656_997_174_252_198),
    (MeasureKind::ExactDp, true,  EngineKind::Diffset,    114, 41, 59, 0,  55, 2, 167,  37_925,   151_700, 47, 17_015_656_997_174_252_198),
    (MeasureKind::ExactDp, false, EngineKind::Horizontal, 114, 41,  0, 0, 114, 6,   0,       0,         0, 47, 17_015_656_997_174_252_198),
    (MeasureKind::ExactDp, false, EngineKind::Vertical,   114, 41,  0, 0, 114, 1, 104, 244_078, 2_022_560, 47, 17_015_656_997_174_252_198),
    (MeasureKind::ExactDp, false, EngineKind::Diffset,    114, 41,  0, 0, 114, 1, 238,  78_008,   312_032, 47, 17_015_656_997_174_252_198),
    (MeasureKind::ExactDc, true,  EngineKind::Horizontal, 114, 41, 59, 0,  55, 7,   0,       0,         0, 47,  5_787_038_802_626_884_651),
    (MeasureKind::ExactDc, true,  EngineKind::Vertical,   114, 41, 59, 0,  55, 2, 104, 121_161, 1_000_120, 47,  5_787_038_802_626_884_651),
    (MeasureKind::ExactDc, true,  EngineKind::Diffset,    114, 41, 59, 0,  55, 2, 167,  37_925,   151_700, 47,  5_787_038_802_626_884_651),
    (MeasureKind::ExactDc, false, EngineKind::Horizontal, 114, 41,  0, 0, 114, 6,   0,       0,         0, 47,  5_787_038_802_626_884_651),
    (MeasureKind::ExactDc, false, EngineKind::Vertical,   114, 41,  0, 0, 114, 1, 104, 244_078, 2_022_560, 47,  5_787_038_802_626_884_651),
    (MeasureKind::ExactDc, false, EngineKind::Diffset,    114, 41,  0, 0, 114, 1, 238,  78_008,   312_032, 47,  5_787_038_802_626_884_651),
];

#[rustfmt::skip]
const QUANTIZED: [Golden; 12] = [
    (MeasureKind::ExactDp, true,  EngineKind::Horizontal, 146, 43, 71, 0,  75, 8,   0,       0,         0, 66, 3_533_104_737_708_208_481),
    (MeasureKind::ExactDp, true,  EngineKind::Vertical,   146, 43, 71, 0,  75, 2, 136, 181_299, 1_497_768, 66, 3_533_104_737_708_208_481),
    (MeasureKind::ExactDp, true,  EngineKind::Diffset,    146, 43, 71, 0,  75, 2, 234,  56_216,   224_864, 66, 3_533_104_737_708_208_481),
    (MeasureKind::ExactDp, false, EngineKind::Horizontal, 146, 43,  0, 0, 146, 8,   0,       0,         0, 66, 3_533_104_737_708_208_481),
    (MeasureKind::ExactDp, false, EngineKind::Vertical,   146, 43,  0, 0, 146, 1, 136, 288_137, 2_400_600, 66, 3_533_104_737_708_208_481),
    (MeasureKind::ExactDp, false, EngineKind::Diffset,    146, 43,  0, 0, 146, 1, 322, 105_546,   422_184, 66, 3_533_104_737_708_208_481),
    (MeasureKind::ExactDc, true,  EngineKind::Horizontal, 146, 43, 71, 0,  75, 8,   0,       0,         0, 66, 8_089_687_308_225_673_206),
    (MeasureKind::ExactDc, true,  EngineKind::Vertical,   146, 43, 71, 0,  75, 2, 136, 181_299, 1_497_768, 66, 8_089_687_308_225_673_206),
    (MeasureKind::ExactDc, true,  EngineKind::Diffset,    146, 43, 71, 0,  75, 2, 234,  56_216,   224_864, 66, 8_089_687_308_225_673_206),
    (MeasureKind::ExactDc, false, EngineKind::Horizontal, 146, 43,  0, 0, 146, 8,   0,       0,         0, 66, 8_089_687_308_225_673_206),
    (MeasureKind::ExactDc, false, EngineKind::Vertical,   146, 43,  0, 0, 146, 1, 136, 288_137, 2_400_600, 66, 8_089_687_308_225_673_206),
    (MeasureKind::ExactDc, false, EngineKind::Diffset,    146, 43,  0, 0, 146, 1, 322, 105_546,   422_184, 66, 8_089_687_308_225_673_206),
];

/// 3,000 transactions over 10 items, item `i` present with probability
/// `0.85 − 0.05·i` at a containment probability drawn from `[0.3, 1.0]`:
/// frequent pairs and triples, some of each pruned.
fn continuous_db() -> UncertainDatabase {
    let mut rng = StdRng::seed_from_u64(1912);
    let transactions: Vec<Transaction> = (0..3_000)
        .map(|_| {
            let units: Vec<(u32, f64)> = (0..10u32)
                .filter_map(|i| {
                    if rng.gen_bool(0.85 - 0.05 * f64::from(i)) {
                        Some((i, rng.gen_range(0.3..=1.0)))
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

/// The exact cells in pin order: DP then DC, each with then without the
/// Chernoff screen, each on every engine.
fn cells() -> Vec<(MeasureKind, bool, EngineKind)> {
    let mut out = Vec::new();
    for measure in [MeasureKind::ExactDp, MeasureKind::ExactDc] {
        for chernoff in [true, false] {
            for engine in EngineKind::ALL {
                out.push((measure, chernoff, engine));
            }
        }
    }
    out
}

fn mine(
    db: &UncertainDatabase,
    measure: MeasureKind,
    chernoff: bool,
    engine: EngineKind,
) -> MiningResult {
    let mut cell = MatrixMiner::new(measure, TraversalKind::LevelWise);
    if !chernoff {
        cell = cell.without_chernoff();
    }
    let params = MiningParams::new(MIN_SUP, PFT).unwrap().with_engine(engine);
    cell.mine_probabilistic(db, params).unwrap()
}

fn check(label: &str, db: &UncertainDatabase, golden: &[Golden]) {
    assert_eq!(golden.len(), cells().len(), "{label}: one row per cell");
    for (&want, (measure, chernoff, engine)) in golden.iter().zip(cells()) {
        assert_eq!((want.0, want.1, want.2), (measure, chernoff, engine));
        let expected_stats = MinerStats {
            candidates_evaluated: want.3,
            candidates_pruned_structural: want.4,
            candidates_pruned_chernoff: want.5,
            candidates_pruned_count: want.6,
            exact_evaluations: want.7,
            scans: want.8,
            intersections: want.9,
            peak_structure_nodes: want.10,
            peak_memo_bytes: want.11,
            ..MinerStats::default()
        };
        for threads in [1, 2] {
            let r = with_thread_override(threads, || mine(db, measure, chernoff, engine));
            let at = format!("{label}: {measure}/chernoff={chernoff}/{engine} @ threads={threads}");
            assert_eq!(r.stats, expected_stats, "{at}");
            assert_eq!((r.len(), record_hash(&r)), (want.12, want.13), "{at}");
        }
    }
}

#[test]
fn continuous_exact_level_work_and_record_bits_are_pinned() {
    check("continuous", &continuous_db(), &CONTINUOUS);
}

#[test]
fn quantized_exact_level_work_and_record_bits_are_pinned() {
    check("quantized", &quantized_db(), &QUANTIZED);
}
