//! Golden pin for the UFP-tree traversal: the tree it builds, the work it
//! does and the bits it emits.
//!
//! Every moment measure on [`TraversalKind::TreeGrowth`] is mined from two
//! seeded fixtures at pool sizes 1 and 2, and each run must reproduce a
//! fixed `(candidates_evaluated, scans, peak_structure_nodes)` triple and a
//! fixed FNV-1a hash over its canonical records. The constants were taken
//! from the UFP-tree's original per-node child-vector layout, so any later
//! layout of the tree (arena, node-links, recycled conditional trees) must
//! create the same nodes in the same order and sum every weight in the same
//! path order: a single reordered float addition changes the hash.
//!
//! * `deep_skew` — continuous probabilities, so the tree barely shares
//!   nodes (the paper's UFP-tree), and a dominant first-level subtree whose
//!   conditional trees clear the nested-spawn cutoff several levels deep:
//!   at pool size 2 the root ranks and the heavy conditionals run as
//!   separate tasks.
//! * `quantized` — the same generator with probabilities rounded to
//!   eighths, so exact `(item, probability)` matches are common and the
//!   node-sharing path carries most of the weight.

use uncertain_fim::core::parallel::with_thread_override;
use uncertain_fim::core::{MeasureKind, TraversalKind};
use uncertain_fim::miners::MatrixMiner;
use uncertain_fim::prelude::*;

/// Minimum support (ratio) and frequentness threshold of every run.
const MIN_SUP: f64 = 0.01;
const PFT: f64 = 0.9;

/// Expected `(measure, candidates_evaluated, scans, peak_structure_nodes,
/// record count, record hash)` per fixture.
type Golden = (MeasureKind, u64, u64, u64, usize, u64);

#[rustfmt::skip]
const DEEP_SKEW: [Golden; 3] = [
    (MeasureKind::ExpectedSupport, 247, 114, 45_981, 112, 10_437_434_113_593_547_912),
    (MeasureKind::Poisson,         229, 105, 45_981, 103, 15_477_870_636_151_480_511),
    (MeasureKind::Normal,          240, 108, 45_981, 106, 18_234_711_295_745_462_004),
];

#[rustfmt::skip]
const QUANTIZED: [Golden; 3] = [
    (MeasureKind::ExpectedSupport, 271, 135, 15_075, 133, 10_202_326_133_239_125_997),
    (MeasureKind::Poisson,         252, 123, 15_075, 121,    826_982_393_707_566_476),
    (MeasureKind::Normal,          256, 128, 15_075, 126, 15_599_207_092_816_982_107),
];

/// The shared deep-skew fixture (also used by `thread_determinism.rs`),
/// sized so the global tree clears the root fan-out gate and the dominant
/// chain's conditional trees clear the nested-spawn cutoff.
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
    for &(measure, evaluated, scans, peak, len, hash) in golden {
        let cell = MatrixMiner::new(measure, TraversalKind::TreeGrowth);
        for threads in [1, 2] {
            let r = with_thread_override(threads, || {
                cell.mine_probabilistic_raw(db, MIN_SUP, PFT).unwrap()
            });
            let got = (
                measure,
                r.stats.candidates_evaluated,
                r.stats.scans,
                r.stats.peak_structure_nodes,
                r.len(),
                record_hash(&r),
            );
            assert_eq!(
                got,
                (measure, evaluated, scans, peak, len, hash),
                "{label}: {measure}×tree @ threads={threads}"
            );
        }
    }
}

#[test]
fn deep_skew_tree_work_and_record_bits_are_pinned() {
    check("deep-skew", &deep_skew_db(), &DEEP_SKEW);
}

#[test]
fn quantized_tree_work_and_record_bits_are_pinned() {
    check("quantized", &quantized_db(), &QUANTIZED);
}
