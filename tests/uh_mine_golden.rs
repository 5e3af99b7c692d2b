//! Golden pin for the hyper-structure (UH-Mine) traversal: the work it
//! does and the bits it emits.
//!
//! Every measure on [`TraversalKind::HyperStructure`] is mined from two
//! seeded fixtures at pool sizes 1 and 2, and each run must reproduce fixed
//! counters — `(candidates_evaluated, scans, peak_structure_nodes,
//! candidates_pruned_count, candidates_pruned_chernoff, exact_evaluations)`
//! — and a fixed FNV-1a hash over its canonical records. The constants were
//! taken from the one-pass head table (a hash map of per-extension row
//! vectors), so any later head-table layout must screen and judge the same
//! extensions and fold every moment in the same row order: a single
//! reordered float addition changes the hash.
//!
//! * `deep_skew` — continuous probabilities and a dominant first-level
//!   subtree whose projections clear the nested-spawn cutoff several levels
//!   deep: at pool size 2 the heavy subtrees run as separate tasks.
//! * `quantized` — the same generator with probabilities rounded to
//!   eighths, so many multipliers and moments coincide exactly.

use uncertain_fim::core::parallel::with_thread_override;
use uncertain_fim::core::{MeasureKind, TraversalKind};
use uncertain_fim::miners::MatrixMiner;
use uncertain_fim::prelude::*;

/// Minimum support (ratio) and frequentness threshold of every run.
const MIN_SUP: f64 = 0.01;
const PFT: f64 = 0.9;

/// Expected `(measure, candidates_evaluated, scans, peak_structure_nodes,
/// candidates_pruned_count, candidates_pruned_chernoff, exact_evaluations,
/// record count, record hash)` per fixture.
type Golden = (MeasureKind, u64, u64, u64, u64, u64, u64, usize, u64);

#[rustfmt::skip]
const DEEP_SKEW: [Golden; 5] = [
    (MeasureKind::ExpectedSupport,   971, 115, 45_980,   0,   0,   0, 112, 10_651_223_617_224_705_162),
    (MeasureKind::Poisson,           906, 106, 45_980,   0,   0,   0, 103,    777_295_204_374_079_610),
    (MeasureKind::Normal,            929, 109, 45_980,   0,   0,   0, 106, 17_056_951_435_690_738_186),
    (MeasureKind::ExactDp,           929, 109, 45_980, 618, 198, 129, 106, 17_874_026_246_412_545_937),
    (MeasureKind::ExactDc,           929, 109, 45_980, 618, 198, 129, 106, 17_511_708_701_978_137_733),
];

#[rustfmt::skip]
const QUANTIZED: [Golden; 5] = [
    (MeasureKind::ExpectedSupport, 1_131, 136, 45_980,   0,   0,   0, 133, 10_202_326_133_239_125_997),
    (MeasureKind::Poisson,         1_046, 124, 45_980,   0,   0,   0, 121,    826_982_393_707_566_476),
    (MeasureKind::Normal,          1_072, 129, 45_980,   0,   0,   0, 126, 15_599_207_092_816_982_107),
    (MeasureKind::ExactDp,         1_072, 129, 45_980, 759, 175, 154, 126, 16_859_128_582_226_568_020),
    (MeasureKind::ExactDc,         1_072, 129, 45_980, 759, 175, 154, 126, 17_842_214_388_780_837_959),
];

/// The shared deep-skew fixture (also used by `thread_determinism.rs` and
/// `ufp_tree_golden.rs`), sized so the dominant chain's projections clear
/// the nested-spawn cutoff.
fn deep_skew_db() -> UncertainDatabase {
    uncertain_fim::data::benchmarks::deep_skew(12_000, 16, 4242)
}

/// `deep_skew_db` with every probability rounded up to a multiple of 1/8.
fn quantized_db() -> UncertainDatabase {
    let db = deep_skew_db();
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

fn check(label: &str, db: &UncertainDatabase, golden: &[Golden]) {
    for &want in golden {
        let measure = want.0;
        let cell = MatrixMiner::new(measure, TraversalKind::HyperStructure);
        for threads in [1, 2] {
            let r = with_thread_override(threads, || {
                cell.mine_probabilistic_raw(db, MIN_SUP, PFT).unwrap()
            });
            let s = &r.stats;
            let got = (
                measure,
                s.candidates_evaluated,
                s.scans,
                s.peak_structure_nodes,
                s.candidates_pruned_count,
                s.candidates_pruned_chernoff,
                s.exact_evaluations,
                r.len(),
                record_hash(&r),
            );
            assert_eq!(got, want, "{label}: {measure}×hyper @ threads={threads}");
        }
    }
}

#[test]
fn deep_skew_hyper_work_and_record_bits_are_pinned() {
    check("deep-skew", &deep_skew_db(), &DEEP_SKEW);
}

#[test]
fn quantized_hyper_work_and_record_bits_are_pinned() {
    check("quantized", &quantized_db(), &QUANTIZED);
}
