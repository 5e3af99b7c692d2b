//! Golden pin for the sliding-window refresh: the work each refresh does
//! and the bits it emits.
//!
//! Three scripted streams are driven through [`IncrementalMiner`] for the
//! expected-support, Normal and exact-DP-with-Chernoff measures on all
//! three support engines, at pool sizes 1 and 2. Every refresh — the first
//! one over the filled window, then one per 8-transaction step — must
//! reproduce a fixed record count, a fixed FNV-1a hash over its records and
//! every [`MinerStats`] counter. The constants were taken from the border
//! tracker that hashed every candidate of the stream into one map per
//! refresh and probed each step through dense per-item rows, so any later
//! tracker must classify, evaluate and judge the same candidates and land
//! bit-identical records. The columnar rows' `peak_structure_nodes` and
//! `peak_memo_bytes`, and 16 diffset `intersections`, were recaptured
//! when the refresh began passing the measure's cuts to the engines,
//! which no longer export the vector of a fresh candidate below the cut
//! (nor, on diffset, pay to materialize its tidset node).
//!
//! * `sparse` — 6,000-item vocabulary over 512 slots: a few hundred items
//!   ever occur, a dozen are frequent, and a planted triple gives frequent
//!   pairs and a frequent triple.
//! * `flip` — 40 items in ten planted groups whose popularity rotates
//!   along the stream, so singletons, pairs and triples cross the border
//!   on most steps.
//! * `dense` — 10 items present in ~90% of transactions: every pair and
//!   most triples are frequent, and most records move on every step
//!   while the frequent sets hold still.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use uncertain_fim::core::parallel::with_thread_override;
use uncertain_fim::miners::common::{
    ExactKernel, ExactMeasure, ExpectedSupport, FrequentnessMeasure, IncrementalMiner, NormalApprox,
};
use uncertain_fim::prelude::*;

/// Transactions per step: each step appends this many to the full window,
/// evicting as many of the oldest.
const STEP: usize = 8;
/// Frequentness threshold of the probabilistic measures.
const PFT: f64 = 0.7;

/// One scripted stream.
struct Stream {
    name: &'static str,
    capacity: usize,
    num_items: u32,
    min_sup: f64,
    steps: usize,
    seed: u64,
    /// The transaction arriving at position `t` of the stream.
    arrival: fn(&mut StdRng, usize) -> Transaction,
}

/// A transaction from `(item, probability)` draws; a repeated item keeps
/// its first probability.
fn tx(units: impl IntoIterator<Item = (u32, f64)>) -> Transaction {
    let mut seen = BTreeMap::new();
    for (item, p) in units {
        seen.entry(item).or_insert(p);
    }
    Transaction::new(seen).unwrap()
}

/// Zipf-like draws over 6,000 ids (item `i` is drawn with probability
/// ∝ `i^(−2/3)`), plus the planted triple {1, 2, 3} in one transaction of
/// five.
fn sparse_arrival(rng: &mut StdRng, _t: usize) -> Transaction {
    let mut units = Vec::new();
    for _ in 0..rng.gen_range(2..=8usize) {
        let u: f64 = rng.gen_range(0.0..1.0);
        units.push(((u.powi(3) * 6_000.0) as u32, rng.gen_range(0.3..=1.0)));
    }
    if rng.gen_bool(0.2) {
        for item in 1..=3 {
            units.push((item, rng.gen_range(0.5..=1.0)));
        }
    }
    tx(units)
}

/// Two of ten planted groups of four items, chosen with weights that
/// rotate along the stream, each member kept with probability 0.8; plus
/// one uniform noise item.
fn flip_arrival(rng: &mut StdRng, t: usize) -> Transaction {
    let phase = t as f64 / 640.0 * std::f64::consts::TAU;
    let weights: Vec<f64> = (0..10)
        .map(|g| (phase + f64::from(g) * 0.63).cos().max(0.0).powi(2) + 0.02)
        .collect();
    let total: f64 = weights.iter().sum();
    let mut units = Vec::new();
    for _ in 0..2 {
        let mut pick = rng.gen_range(0.0..total);
        let group = weights
            .iter()
            .position(|&w| {
                pick -= w;
                pick < 0.0
            })
            .unwrap_or(9) as u32;
        for item in 4 * group..4 * group + 4 {
            if rng.gen_bool(0.9) {
                units.push((item, rng.gen_range(0.4..=1.0)));
            }
        }
    }
    units.push((rng.gen_range(0..40u32), rng.gen_range(0.4..=1.0)));
    tx(units)
}

/// Every one of 10 items with probability 0.9.
fn dense_arrival(rng: &mut StdRng, _t: usize) -> Transaction {
    let mut units = Vec::new();
    for item in 0..10u32 {
        if rng.gen_bool(0.9) {
            units.push((item, rng.gen_range(0.5..=1.0)));
        }
    }
    tx(units)
}

const STREAMS: [Stream; 3] = [
    Stream {
        name: "sparse",
        capacity: 512,
        num_items: 6_000,
        min_sup: 0.02,
        steps: 6,
        seed: 2401,
        arrival: sparse_arrival,
    },
    Stream {
        name: "flip",
        capacity: 128,
        num_items: 40,
        min_sup: 0.12,
        steps: 8,
        seed: 2402,
        arrival: flip_arrival,
    },
    Stream {
        name: "dense",
        capacity: 128,
        num_items: 10,
        min_sup: 0.25,
        steps: 6,
        seed: 2403,
        arrival: dense_arrival,
    },
];

/// The measures of every stream, in pin order.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Measure {
    Esup,
    Normal,
    ExactDpB,
}

const MEASURES: [Measure; 3] = [Measure::Esup, Measure::Normal, Measure::ExactDpB];

/// FNV-1a over the records: item count and ids, then the bits of the
/// expected support, the variance and the frequent probability (a missing
/// statistic hashes as `u64::MAX`).
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

/// One refresh's pin: record count, record hash and every counter of
/// [`MinerStats::COUNTERS`], in table order.
type Refresh = (usize, u64, [u64; 13]);

fn observe(result: &MiningResult) -> Refresh {
    let s = &result.stats;
    assert_eq!((s.shards_evaluated, s.shards_pruned), (0, 0));
    let mut counters = [0u64; 13];
    assert_eq!(MinerStats::COUNTERS.len(), counters.len());
    for (c, counter) in counters.iter_mut().zip(MinerStats::COUNTERS) {
        *c = (counter.get)(s);
    }
    (result.len(), record_hash(result), counters)
}

/// Fills the window, refreshes, then appends `STEP` transactions and
/// refreshes `steps` times.
fn drive<M: FrequentnessMeasure>(stream: &Stream, measure: M, engine: EngineKind) -> Vec<Refresh> {
    let mut rng = StdRng::seed_from_u64(stream.seed);
    let window = WindowedDatabase::new(stream.capacity, stream.num_items);
    let mut miner = IncrementalMiner::new(window, measure, engine);
    let mut t = 0;
    let mut arrive = |miner: &mut IncrementalMiner<M>, n: usize| {
        for _ in 0..n {
            miner.append((stream.arrival)(&mut rng, t)).unwrap();
            t += 1;
        }
    };
    arrive(&mut miner, stream.capacity);
    let mut out = vec![observe(miner.refresh())];
    for _ in 0..stream.steps {
        arrive(&mut miner, STEP);
        out.push(observe(miner.refresh()));
    }
    out
}

fn run(stream: &Stream, measure: Measure, engine: EngineKind) -> Vec<Refresh> {
    let params = MiningParams::new(stream.min_sup, PFT).unwrap();
    let n = stream.capacity;
    match measure {
        Measure::Esup => drive(
            stream,
            ExpectedSupport::new(params.min_sup.threshold_real(n)),
            engine,
        ),
        Measure::Normal => drive(stream, NormalApprox::new(params.msup(n), PFT), engine),
        Measure::ExactDpB => drive(
            stream,
            ExactMeasure::new(ExactKernel::DynamicProgramming, true, n, &params),
            engine,
        ),
    }
}

/// Every (stream, measure, engine) cell in pin order, with its refreshes.
fn observe_all(threads: usize) -> Vec<(&'static str, Measure, EngineKind, Vec<Refresh>)> {
    let mut out = Vec::new();
    for stream in &STREAMS {
        for measure in MEASURES {
            for engine in EngineKind::ALL {
                let got = with_thread_override(threads, || run(stream, measure, engine));
                out.push((stream.name, measure, engine, got));
            }
        }
    }
    out
}

/// `observed` as the source of [`GOLDEN`]'s rows.
fn as_rows(observed: &[(&str, Measure, EngineKind, Vec<Refresh>)]) -> String {
    let mut s = String::new();
    for (stream, measure, engine, refreshes) in observed {
        for (i, (len, hash, c)) in refreshes.iter().enumerate() {
            let engine = format!("{engine:?}");
            s += &format!(
                "    ({stream:?}, Measure::{measure:?}, EngineKind::{engine}, {i}, {len}, {hash}, {c:?}),\n"
            );
        }
    }
    s
}

#[test]
fn refreshes_match_the_golden_pin() {
    let want: Vec<String> = GOLDEN.iter().map(|r| format!("{r:?}")).collect();
    for threads in [1, 2] {
        let observed = observe_all(threads);
        let mut got = Vec::new();
        for (stream, measure, engine, refreshes) in &observed {
            for (i, &(len, hash, counters)) in refreshes.iter().enumerate() {
                got.push(format!(
                    "{:?}",
                    (*stream, *measure, *engine, i, len, hash, counters)
                ));
            }
        }
        let diverged: Vec<String> = want
            .iter()
            .zip(&got)
            .filter(|(w, g)| w != g)
            .map(|(w, g)| format!("  want {w}\n  got  {g}"))
            .collect();
        assert!(
            diverged.is_empty() && want.len() == got.len(),
            "threads={threads}: {} of {} refreshes diverged\n{}\nobserved rows:\n{}",
            diverged.len(),
            want.len(),
            diverged.join("\n"),
            as_rows(&observed)
        );
    }
}

/// `(stream, measure, engine, refresh, record count, record hash,
/// counters in [`MinerStats::COUNTERS`] order)`: `candidates_evaluated`,
/// `candidates_pruned_structural`, `candidates_pruned_chernoff`,
/// `candidates_pruned_count`, `exact_evaluations`, `scans`,
/// `intersections`, `peak_structure_nodes`, `peak_memo_bytes`,
/// `border_rejudged`, `border_skipped`, `memo_patched`, `memo_rebuilt`.
/// Refresh 0 is the first refresh over the filled window.
type Golden = (
    &'static str,
    Measure,
    EngineKind,
    usize,
    usize,
    u64,
    [u64; 13],
);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("sparse", Measure::Esup, EngineKind::Horizontal, 0, 13, 11660732935572373786, [6019, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0]),
    ("sparse", Measure::Esup, EngineKind::Horizontal, 1, 13, 15634257178331459220, [9, 0, 0, 0, 0, 3, 0, 0, 0, 9, 6010, 0, 0]),
    ("sparse", Measure::Esup, EngineKind::Horizontal, 2, 13, 16989227494406705438, [10, 0, 0, 0, 0, 3, 0, 0, 0, 10, 6009, 0, 0]),
    ("sparse", Measure::Esup, EngineKind::Horizontal, 3, 13, 7049832269869658914, [12, 0, 0, 0, 0, 3, 0, 0, 0, 12, 6007, 0, 0]),
    ("sparse", Measure::Esup, EngineKind::Horizontal, 4, 13, 1941709272335492969, [13, 0, 0, 0, 0, 3, 0, 0, 0, 13, 6006, 0, 0]),
    ("sparse", Measure::Esup, EngineKind::Horizontal, 5, 13, 9807520038250514419, [10, 0, 0, 0, 0, 3, 0, 0, 0, 10, 6009, 0, 0]),
    ("sparse", Measure::Esup, EngineKind::Horizontal, 6, 13, 9055574425766247003, [13, 0, 0, 0, 0, 3, 0, 0, 0, 13, 6006, 0, 0]),
    ("sparse", Measure::Esup, EngineKind::Vertical, 0, 13, 11660732935572373786, [6019, 0, 0, 0, 0, 1, 19, 882, 8768, 0, 0, 0, 0]),
    ("sparse", Measure::Esup, EngineKind::Vertical, 1, 13, 15634257178331459220, [9, 0, 0, 0, 0, 0, 0, 886, 8936, 9, 6010, 4, 0]),
    ("sparse", Measure::Esup, EngineKind::Vertical, 2, 13, 16989227494406705438, [10, 0, 0, 0, 0, 0, 0, 890, 8968, 10, 6009, 4, 0]),
    ("sparse", Measure::Esup, EngineKind::Vertical, 3, 13, 7049832269869658914, [12, 0, 0, 0, 0, 0, 0, 890, 8968, 12, 6007, 7, 0]),
    ("sparse", Measure::Esup, EngineKind::Vertical, 4, 13, 1941709272335492969, [13, 0, 0, 0, 0, 0, 0, 890, 8968, 13, 6006, 7, 0]),
    ("sparse", Measure::Esup, EngineKind::Vertical, 5, 13, 9807520038250514419, [10, 0, 0, 0, 0, 0, 0, 890, 8968, 10, 6009, 5, 0]),
    ("sparse", Measure::Esup, EngineKind::Vertical, 6, 13, 9055574425766247003, [13, 0, 0, 0, 0, 0, 0, 890, 8968, 13, 6006, 7, 0]),
    ("sparse", Measure::Esup, EngineKind::Diffset, 0, 13, 11660732935572373786, [6019, 0, 0, 0, 0, 1, 23, 152, 2280, 0, 0, 0, 0]),
    ("sparse", Measure::Esup, EngineKind::Diffset, 1, 13, 15634257178331459220, [9, 0, 0, 0, 0, 0, 0, 152, 2280, 9, 6010, 4, 0]),
    ("sparse", Measure::Esup, EngineKind::Diffset, 2, 13, 16989227494406705438, [10, 0, 0, 0, 0, 0, 0, 152, 2280, 10, 6009, 4, 0]),
    ("sparse", Measure::Esup, EngineKind::Diffset, 3, 13, 7049832269869658914, [12, 0, 0, 0, 0, 0, 0, 152, 2280, 12, 6007, 7, 0]),
    ("sparse", Measure::Esup, EngineKind::Diffset, 4, 13, 1941709272335492969, [13, 0, 0, 0, 0, 0, 0, 152, 2280, 13, 6006, 7, 0]),
    ("sparse", Measure::Esup, EngineKind::Diffset, 5, 13, 9807520038250514419, [10, 0, 0, 0, 0, 0, 0, 152, 2280, 10, 6009, 5, 0]),
    ("sparse", Measure::Esup, EngineKind::Diffset, 6, 13, 9055574425766247003, [13, 0, 0, 0, 0, 0, 0, 152, 2280, 13, 6006, 7, 0]),
    ("sparse", Measure::Normal, EngineKind::Horizontal, 0, 13, 17737241071734145446, [6019, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0]),
    ("sparse", Measure::Normal, EngineKind::Horizontal, 1, 13, 10195166637310774097, [9, 0, 0, 0, 0, 3, 0, 0, 0, 9, 6010, 0, 0]),
    ("sparse", Measure::Normal, EngineKind::Horizontal, 2, 13, 12313006094246253153, [10, 0, 0, 0, 0, 3, 0, 0, 0, 10, 6009, 0, 0]),
    ("sparse", Measure::Normal, EngineKind::Horizontal, 3, 11, 3559721246705389315, [12, 0, 0, 0, 0, 3, 0, 0, 0, 12, 6000, 0, 0]),
    ("sparse", Measure::Normal, EngineKind::Horizontal, 4, 12, 553391884913034511, [15, 0, 0, 0, 0, 3, 0, 0, 0, 13, 5999, 0, 0]),
    ("sparse", Measure::Normal, EngineKind::Horizontal, 5, 12, 5349515119239088033, [10, 0, 0, 0, 0, 3, 0, 0, 0, 10, 6004, 0, 0]),
    ("sparse", Measure::Normal, EngineKind::Horizontal, 6, 11, 12375779442809433798, [18, 0, 0, 0, 0, 3, 0, 0, 0, 13, 5998, 0, 0]),
    ("sparse", Measure::Normal, EngineKind::Vertical, 0, 13, 17737241071734145446, [6019, 0, 0, 0, 0, 1, 19, 882, 8768, 0, 0, 0, 0]),
    ("sparse", Measure::Normal, EngineKind::Vertical, 1, 13, 10195166637310774097, [9, 0, 0, 0, 0, 0, 0, 886, 8936, 9, 6010, 4, 0]),
    ("sparse", Measure::Normal, EngineKind::Vertical, 2, 13, 12313006094246253153, [10, 0, 0, 0, 0, 0, 0, 890, 8968, 10, 6009, 4, 0]),
    ("sparse", Measure::Normal, EngineKind::Vertical, 3, 11, 3559721246705389315, [12, 0, 0, 0, 0, 0, 0, 890, 8968, 12, 6000, 7, 0]),
    ("sparse", Measure::Normal, EngineKind::Vertical, 4, 12, 553391884913034511, [15, 0, 0, 0, 0, 0, 3, 890, 8968, 13, 5999, 6, 0]),
    ("sparse", Measure::Normal, EngineKind::Vertical, 5, 12, 5349515119239088033, [10, 0, 0, 0, 0, 0, 0, 890, 8968, 10, 6004, 5, 0]),
    ("sparse", Measure::Normal, EngineKind::Vertical, 6, 11, 12375779442809433798, [18, 0, 0, 0, 0, 0, 5, 890, 8968, 13, 5998, 7, 0]),
    ("sparse", Measure::Normal, EngineKind::Diffset, 0, 13, 17737241071734145446, [6019, 0, 0, 0, 0, 1, 23, 152, 2280, 0, 0, 0, 0]),
    ("sparse", Measure::Normal, EngineKind::Diffset, 1, 13, 10195166637310774097, [9, 0, 0, 0, 0, 0, 0, 152, 2280, 9, 6010, 4, 0]),
    ("sparse", Measure::Normal, EngineKind::Diffset, 2, 13, 12313006094246253153, [10, 0, 0, 0, 0, 0, 0, 152, 2280, 10, 6009, 4, 0]),
    ("sparse", Measure::Normal, EngineKind::Diffset, 3, 11, 3559721246705389315, [12, 0, 0, 0, 0, 0, 0, 152, 2280, 12, 6000, 7, 0]),
    ("sparse", Measure::Normal, EngineKind::Diffset, 4, 12, 553391884913034511, [15, 0, 0, 0, 0, 0, 8, 196, 3184, 13, 5999, 6, 0]),
    ("sparse", Measure::Normal, EngineKind::Diffset, 5, 12, 5349515119239088033, [10, 0, 0, 0, 0, 0, 0, 196, 3184, 10, 6004, 5, 0]),
    ("sparse", Measure::Normal, EngineKind::Diffset, 6, 11, 12375779442809433798, [18, 0, 0, 0, 0, 0, 14, 278, 4272, 13, 5998, 7, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Horizontal, 0, 13, 10751001666557342114, [6019, 0, 0, 5998, 21, 6, 0, 0, 0, 0, 0, 0, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Horizontal, 1, 13, 16077949467261487456, [11, 0, 0, 1, 10, 6, 0, 0, 0, 11, 6008, 0, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Horizontal, 2, 13, 17601067313569167256, [12, 0, 0, 0, 12, 6, 0, 0, 0, 12, 6007, 0, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Horizontal, 3, 11, 5954867425446201681, [13, 0, 0, 0, 13, 6, 0, 0, 0, 13, 5999, 0, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Horizontal, 4, 12, 14856521187509443814, [18, 0, 0, 1, 17, 6, 0, 0, 0, 16, 5996, 0, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Horizontal, 5, 12, 9513695106425133793, [11, 0, 0, 0, 11, 6, 0, 0, 0, 11, 6003, 0, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Horizontal, 6, 11, 16035880859434005396, [19, 0, 0, 5, 14, 6, 0, 0, 0, 14, 5997, 0, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Vertical, 0, 13, 10751001666557342114, [6019, 0, 0, 5998, 21, 1, 19, 951, 9704, 0, 0, 0, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Vertical, 1, 13, 16077949467261487456, [11, 0, 0, 1, 10, 0, 5, 951, 9704, 11, 6008, 4, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Vertical, 2, 13, 17601067313569167256, [12, 0, 0, 0, 12, 0, 5, 951, 9704, 12, 6007, 4, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Vertical, 3, 11, 5954867425446201681, [13, 0, 0, 0, 13, 0, 9, 951, 9704, 13, 5999, 7, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Vertical, 4, 12, 14856521187509443814, [18, 0, 0, 1, 17, 0, 11, 955, 9872, 16, 5996, 6, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Vertical, 5, 12, 9513695106425133793, [11, 0, 0, 0, 11, 0, 6, 955, 9872, 11, 6003, 5, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Vertical, 6, 11, 16035880859434005396, [19, 0, 0, 5, 14, 0, 13, 955, 9872, 14, 5997, 7, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Diffset, 0, 13, 10751001666557342114, [6019, 0, 0, 5998, 21, 1, 31, 167, 2748, 0, 0, 0, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Diffset, 1, 13, 16077949467261487456, [11, 0, 0, 1, 10, 0, 5, 167, 2748, 11, 6008, 4, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Diffset, 2, 13, 17601067313569167256, [12, 0, 0, 0, 12, 0, 5, 167, 2748, 12, 6007, 4, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Diffset, 3, 11, 5954867425446201681, [13, 0, 0, 0, 13, 0, 10, 167, 2748, 13, 5999, 7, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Diffset, 4, 12, 14856521187509443814, [18, 0, 0, 1, 17, 0, 17, 196, 3184, 16, 5996, 6, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Diffset, 5, 12, 9513695106425133793, [11, 0, 0, 0, 11, 0, 6, 196, 3184, 11, 6003, 5, 0]),
    ("sparse", Measure::ExactDpB, EngineKind::Diffset, 6, 11, 16035880859434005396, [19, 0, 0, 5, 14, 0, 19, 278, 4272, 14, 5997, 7, 0]),
    ("flip", Measure::Esup, EngineKind::Horizontal, 0, 34, 1779795122193485944, [119, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0]),
    ("flip", Measure::Esup, EngineKind::Horizontal, 1, 37, 10297592619832346078, [51, 0, 0, 0, 0, 3, 0, 0, 0, 39, 80, 0, 0]),
    ("flip", Measure::Esup, EngineKind::Horizontal, 2, 40, 4898656975508576237, [82, 0, 0, 0, 0, 3, 0, 0, 0, 40, 91, 0, 0]),
    ("flip", Measure::Esup, EngineKind::Horizontal, 3, 41, 12842903217909028585, [42, 1, 0, 0, 0, 3, 0, 0, 0, 42, 131, 0, 0]),
    ("flip", Measure::Esup, EngineKind::Horizontal, 4, 36, 6260645044900418722, [43, 0, 0, 0, 0, 4, 0, 0, 0, 42, 127, 0, 0]),
    ("flip", Measure::Esup, EngineKind::Horizontal, 5, 36, 8327041083979115417, [38, 1, 0, 0, 0, 3, 0, 0, 0, 38, 131, 0, 0]),
    ("flip", Measure::Esup, EngineKind::Horizontal, 6, 35, 584085491440068960, [38, 0, 0, 0, 0, 3, 0, 0, 0, 37, 132, 0, 0]),
    ("flip", Measure::Esup, EngineKind::Horizontal, 7, 36, 7449598135393069988, [38, 0, 0, 0, 0, 3, 0, 0, 0, 35, 106, 0, 0]),
    ("flip", Measure::Esup, EngineKind::Horizontal, 8, 36, 12790574010754515108, [64, 0, 0, 0, 0, 3, 0, 0, 0, 39, 80, 0, 0]),
    ("flip", Measure::Esup, EngineKind::Vertical, 0, 34, 1779795122193485944, [119, 0, 0, 0, 0, 1, 79, 2156, 20944, 0, 0, 0, 0]),
    ("flip", Measure::Esup, EngineKind::Vertical, 1, 37, 10297592619832346078, [51, 0, 0, 0, 0, 0, 14, 2329, 22392, 39, 80, 22, 0]),
    ("flip", Measure::Esup, EngineKind::Vertical, 2, 40, 4898656975508576237, [82, 0, 0, 0, 0, 0, 42, 2549, 24424, 40, 91, 24, 0]),
    ("flip", Measure::Esup, EngineKind::Vertical, 3, 41, 12842903217909028585, [42, 1, 0, 0, 0, 0, 1, 2873, 27048, 42, 131, 24, 0]),
    ("flip", Measure::Esup, EngineKind::Vertical, 4, 36, 6260645044900418722, [43, 0, 0, 0, 0, 0, 2, 3001, 28376, 42, 127, 25, 0]),
    ("flip", Measure::Esup, EngineKind::Vertical, 5, 36, 8327041083979115417, [38, 1, 0, 0, 0, 0, 2, 3001, 28376, 38, 131, 20, 0]),
    ("flip", Measure::Esup, EngineKind::Vertical, 6, 35, 584085491440068960, [38, 0, 0, 0, 0, 0, 2, 3001, 28376, 37, 132, 20, 0]),
    ("flip", Measure::Esup, EngineKind::Vertical, 7, 36, 7449598135393069988, [38, 0, 0, 0, 0, 0, 6, 3001, 28376, 35, 106, 16, 0]),
    ("flip", Measure::Esup, EngineKind::Vertical, 8, 36, 12790574010754515108, [64, 0, 0, 0, 0, 0, 25, 3001, 28376, 39, 80, 22, 0]),
    ("flip", Measure::Esup, EngineKind::Diffset, 0, 34, 1779795122193485944, [119, 0, 0, 0, 0, 1, 90, 137, 3540, 0, 0, 0, 0]),
    ("flip", Measure::Esup, EngineKind::Diffset, 1, 37, 10297592619832346078, [51, 0, 0, 0, 0, 0, 22, 166, 4472, 39, 80, 22, 0]),
    ("flip", Measure::Esup, EngineKind::Diffset, 2, 40, 4898656975508576237, [82, 0, 0, 0, 0, 0, 48, 166, 4700, 40, 91, 24, 0]),
    ("flip", Measure::Esup, EngineKind::Diffset, 3, 41, 12842903217909028585, [42, 1, 0, 0, 0, 0, 3, 166, 4700, 42, 131, 24, 0]),
    ("flip", Measure::Esup, EngineKind::Diffset, 4, 36, 6260645044900418722, [43, 0, 0, 0, 0, 0, 5, 166, 4700, 42, 127, 25, 0]),
    ("flip", Measure::Esup, EngineKind::Diffset, 5, 36, 8327041083979115417, [38, 1, 0, 0, 0, 0, 2, 166, 4700, 38, 131, 20, 0]),
    ("flip", Measure::Esup, EngineKind::Diffset, 6, 35, 584085491440068960, [38, 0, 0, 0, 0, 0, 3, 166, 4700, 37, 132, 20, 0]),
    ("flip", Measure::Esup, EngineKind::Diffset, 7, 36, 7449598135393069988, [38, 0, 0, 0, 0, 0, 8, 166, 4700, 35, 106, 16, 0]),
    ("flip", Measure::Esup, EngineKind::Diffset, 8, 36, 12790574010754515108, [64, 0, 0, 0, 0, 0, 25, 166, 4700, 39, 80, 22, 0]),
    ("flip", Measure::Normal, EngineKind::Horizontal, 0, 33, 16749130636053759354, [118, 1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0]),
    ("flip", Measure::Normal, EngineKind::Horizontal, 1, 34, 13871886706502431666, [39, 0, 0, 0, 0, 4, 0, 0, 0, 38, 80, 0, 0]),
    ("flip", Measure::Normal, EngineKind::Horizontal, 2, 36, 5573260088733479858, [79, 1, 0, 0, 0, 3, 0, 0, 0, 40, 78, 0, 0]),
    ("flip", Measure::Normal, EngineKind::Horizontal, 3, 34, 4453391274600476515, [57, 1, 0, 0, 0, 3, 0, 0, 0, 42, 111, 0, 0]),
    ("flip", Measure::Normal, EngineKind::Horizontal, 4, 31, 12104027960980658576, [42, 0, 0, 0, 0, 3, 0, 0, 0, 42, 126, 0, 0]),
    ("flip", Measure::Normal, EngineKind::Horizontal, 5, 30, 5967838843386614744, [39, 0, 0, 0, 0, 3, 0, 0, 0, 39, 129, 0, 0]),
    ("flip", Measure::Normal, EngineKind::Horizontal, 6, 33, 8965635621582257534, [38, 0, 0, 0, 0, 4, 0, 0, 0, 37, 131, 0, 0]),
    ("flip", Measure::Normal, EngineKind::Horizontal, 7, 33, 13456082515564077362, [36, 0, 0, 0, 0, 3, 0, 0, 0, 35, 92, 0, 0]),
    ("flip", Measure::Normal, EngineKind::Horizontal, 8, 34, 7863075414934907829, [41, 0, 0, 0, 0, 3, 0, 0, 0, 38, 78, 0, 0]),
    ("flip", Measure::Normal, EngineKind::Vertical, 0, 33, 16749130636053759354, [118, 1, 0, 0, 0, 1, 78, 2156, 20400, 0, 0, 0, 0]),
    ("flip", Measure::Normal, EngineKind::Vertical, 1, 34, 13871886706502431666, [39, 0, 0, 0, 0, 0, 4, 2329, 22256, 38, 80, 21, 0]),
    ("flip", Measure::Normal, EngineKind::Vertical, 2, 36, 5573260088733479858, [79, 1, 0, 0, 0, 0, 41, 2549, 24152, 40, 78, 22, 0]),
    ("flip", Measure::Normal, EngineKind::Vertical, 3, 34, 4453391274600476515, [57, 1, 0, 0, 0, 0, 19, 2745, 25584, 42, 111, 21, 0]),
    ("flip", Measure::Normal, EngineKind::Vertical, 4, 31, 12104027960980658576, [42, 0, 0, 0, 0, 0, 8, 2781, 25584, 42, 126, 18, 0]),
    ("flip", Measure::Normal, EngineKind::Vertical, 5, 30, 5967838843386614744, [39, 0, 0, 0, 0, 0, 7, 2781, 25584, 39, 129, 15, 0]),
    ("flip", Measure::Normal, EngineKind::Vertical, 6, 33, 8965635621582257534, [38, 0, 0, 0, 0, 0, 8, 2781, 25584, 37, 131, 14, 0]),
    ("flip", Measure::Normal, EngineKind::Vertical, 7, 33, 13456082515564077362, [36, 0, 0, 0, 0, 0, 6, 2781, 25584, 35, 92, 14, 0]),
    ("flip", Measure::Normal, EngineKind::Vertical, 8, 34, 7863075414934907829, [41, 0, 0, 0, 0, 0, 5, 2781, 25584, 38, 78, 20, 0]),
    ("flip", Measure::Normal, EngineKind::Diffset, 0, 33, 16749130636053759354, [118, 1, 0, 0, 0, 1, 87, 137, 3540, 0, 0, 0, 0]),
    ("flip", Measure::Normal, EngineKind::Diffset, 1, 34, 13871886706502431666, [39, 0, 0, 0, 0, 0, 9, 137, 3812, 38, 80, 21, 0]),
    ("flip", Measure::Normal, EngineKind::Diffset, 2, 36, 5573260088733479858, [79, 1, 0, 0, 0, 0, 49, 150, 4408, 40, 78, 22, 0]),
    ("flip", Measure::Normal, EngineKind::Diffset, 3, 34, 4453391274600476515, [57, 1, 0, 0, 0, 0, 28, 150, 4408, 42, 111, 21, 0]),
    ("flip", Measure::Normal, EngineKind::Diffset, 4, 31, 12104027960980658576, [42, 0, 0, 0, 0, 0, 17, 150, 4408, 42, 126, 18, 0]),
    ("flip", Measure::Normal, EngineKind::Diffset, 5, 30, 5967838843386614744, [39, 0, 0, 0, 0, 0, 14, 150, 4408, 39, 129, 15, 0]),
    ("flip", Measure::Normal, EngineKind::Diffset, 6, 33, 8965635621582257534, [38, 0, 0, 0, 0, 0, 15, 150, 4408, 37, 131, 14, 0]),
    ("flip", Measure::Normal, EngineKind::Diffset, 7, 33, 13456082515564077362, [36, 0, 0, 0, 0, 0, 8, 150, 4408, 35, 92, 14, 0]),
    ("flip", Measure::Normal, EngineKind::Diffset, 8, 34, 7863075414934907829, [41, 0, 0, 0, 0, 0, 8, 150, 4408, 38, 78, 20, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Horizontal, 0, 33, 12999023235848729688, [118, 1, 21, 48, 49, 6, 0, 0, 0, 0, 0, 0, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Horizontal, 1, 34, 2897038029113464471, [55, 0, 1, 0, 54, 8, 0, 0, 0, 54, 64, 0, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Horizontal, 2, 35, 3570731689365906295, [89, 1, 0, 36, 53, 6, 0, 0, 0, 50, 68, 0, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Horizontal, 3, 34, 1026880598235025044, [68, 1, 1, 14, 53, 6, 0, 0, 0, 53, 100, 0, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Horizontal, 4, 31, 16820093475242710261, [58, 0, 0, 3, 55, 6, 0, 0, 0, 58, 110, 0, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Horizontal, 5, 30, 17244293487677460039, [56, 0, 1, 0, 55, 6, 0, 0, 0, 56, 112, 0, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Horizontal, 6, 33, 903194258044994954, [60, 0, 4, 3, 53, 8, 0, 0, 0, 59, 109, 0, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Horizontal, 7, 33, 847081552288260012, [43, 0, 0, 1, 42, 8, 0, 0, 0, 42, 85, 0, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Horizontal, 8, 34, 18231182103581040724, [58, 0, 3, 2, 53, 8, 0, 0, 0, 55, 61, 0, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Vertical, 0, 33, 12999023235848729688, [118, 1, 21, 48, 49, 1, 78, 2736, 25296, 0, 0, 0, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Vertical, 1, 34, 2897038029113464471, [55, 0, 1, 0, 54, 0, 38, 2771, 25984, 54, 64, 21, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Vertical, 2, 35, 3570731689365906295, [89, 1, 0, 36, 53, 0, 75, 2997, 27928, 50, 68, 22, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Vertical, 3, 34, 1026880598235025044, [68, 1, 1, 14, 53, 0, 50, 3001, 27928, 53, 100, 20, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Vertical, 4, 31, 16820093475242710261, [58, 0, 0, 3, 55, 0, 42, 3001, 27928, 58, 110, 18, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Vertical, 5, 30, 17244293487677460039, [56, 0, 1, 0, 55, 0, 43, 3001, 27928, 56, 112, 15, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Vertical, 6, 33, 903194258044994954, [60, 0, 4, 3, 53, 0, 42, 3001, 27928, 59, 109, 14, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Vertical, 7, 33, 847081552288260012, [43, 0, 0, 1, 42, 0, 26, 3001, 27928, 42, 85, 14, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Vertical, 8, 34, 18231182103581040724, [58, 0, 3, 2, 53, 0, 42, 3001, 27928, 55, 61, 20, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Diffset, 0, 33, 12999023235848729688, [118, 1, 21, 48, 49, 1, 126, 165, 4740, 0, 0, 0, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Diffset, 1, 34, 2897038029113464471, [55, 0, 1, 0, 54, 0, 72, 240, 4740, 54, 64, 21, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Diffset, 2, 35, 3570731689365906295, [89, 1, 0, 36, 53, 0, 109, 240, 5848, 50, 68, 22, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Diffset, 3, 34, 1026880598235025044, [68, 1, 1, 14, 53, 0, 85, 289, 6460, 53, 100, 20, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Diffset, 4, 31, 16820093475242710261, [58, 0, 0, 3, 55, 0, 79, 449, 7236, 58, 110, 18, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Diffset, 5, 30, 17244293487677460039, [56, 0, 1, 0, 55, 0, 83, 468, 7312, 56, 112, 15, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Diffset, 6, 33, 903194258044994954, [60, 0, 4, 3, 53, 0, 82, 468, 7312, 59, 109, 14, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Diffset, 7, 33, 847081552288260012, [43, 0, 0, 1, 42, 0, 43, 468, 7312, 42, 85, 14, 0]),
    ("flip", Measure::ExactDpB, EngineKind::Diffset, 8, 34, 18231182103581040724, [58, 0, 3, 2, 53, 0, 78, 468, 7312, 55, 61, 20, 0]),
    ("dense", Measure::Esup, EngineKind::Horizontal, 0, 179, 16268170681399325313, [385, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0]),
    ("dense", Measure::Esup, EngineKind::Horizontal, 1, 175, 1088004210123146037, [179, 0, 0, 0, 0, 4, 0, 0, 0, 179, 206, 0, 0]),
    ("dense", Measure::Esup, EngineKind::Horizontal, 2, 175, 1488836658041795100, [186, 0, 0, 0, 0, 4, 0, 0, 0, 186, 199, 0, 0]),
    ("dense", Measure::Esup, EngineKind::Horizontal, 3, 175, 1833981947228987046, [187, 0, 0, 0, 0, 4, 0, 0, 0, 187, 198, 0, 0]),
    ("dense", Measure::Esup, EngineKind::Horizontal, 4, 175, 14018264485595386364, [227, 0, 0, 0, 0, 4, 0, 0, 0, 227, 158, 0, 0]),
    ("dense", Measure::Esup, EngineKind::Horizontal, 5, 175, 3583904085295406600, [198, 0, 0, 0, 0, 4, 0, 0, 0, 198, 187, 0, 0]),
    ("dense", Measure::Esup, EngineKind::Horizontal, 6, 175, 13963623056413447848, [226, 0, 0, 0, 0, 4, 0, 0, 0, 226, 159, 0, 0]),
    ("dense", Measure::Esup, EngineKind::Vertical, 0, 179, 16268170681399325313, [385, 0, 0, 0, 0, 1, 375, 21632, 200904, 0, 0, 0, 0]),
    ("dense", Measure::Esup, EngineKind::Vertical, 1, 175, 1088004210123146037, [179, 0, 0, 0, 0, 0, 0, 21632, 201448, 179, 206, 169, 0]),
    ("dense", Measure::Esup, EngineKind::Vertical, 2, 175, 1488836658041795100, [186, 0, 0, 0, 0, 0, 11, 21632, 201448, 186, 199, 165, 0]),
    ("dense", Measure::Esup, EngineKind::Vertical, 3, 175, 1833981947228987046, [187, 0, 0, 0, 0, 0, 12, 21632, 201448, 187, 198, 165, 0]),
    ("dense", Measure::Esup, EngineKind::Vertical, 4, 175, 14018264485595386364, [227, 0, 0, 0, 0, 0, 52, 21632, 201448, 227, 158, 165, 0]),
    ("dense", Measure::Esup, EngineKind::Vertical, 5, 175, 3583904085295406600, [198, 0, 0, 0, 0, 0, 23, 21632, 201448, 198, 187, 165, 0]),
    ("dense", Measure::Esup, EngineKind::Vertical, 6, 175, 13963623056413447848, [226, 0, 0, 0, 0, 0, 51, 21632, 201448, 226, 159, 165, 0]),
    ("dense", Measure::Esup, EngineKind::Diffset, 0, 179, 16268170681399325313, [385, 0, 0, 0, 0, 1, 579, 1704, 29800, 0, 0, 0, 0]),
    ("dense", Measure::Esup, EngineKind::Diffset, 1, 175, 1088004210123146037, [179, 0, 0, 0, 0, 0, 0, 1735, 29924, 179, 206, 169, 0]),
    ("dense", Measure::Esup, EngineKind::Diffset, 2, 175, 1488836658041795100, [186, 0, 0, 0, 0, 0, 27, 1735, 29924, 186, 199, 165, 0]),
    ("dense", Measure::Esup, EngineKind::Diffset, 3, 175, 1833981947228987046, [187, 0, 0, 0, 0, 0, 32, 1782, 29924, 187, 198, 165, 0]),
    ("dense", Measure::Esup, EngineKind::Diffset, 4, 175, 14018264485595386364, [227, 0, 0, 0, 0, 0, 118, 1782, 29924, 227, 158, 165, 0]),
    ("dense", Measure::Esup, EngineKind::Diffset, 5, 175, 3583904085295406600, [198, 0, 0, 0, 0, 0, 61, 1782, 29924, 198, 187, 165, 0]),
    ("dense", Measure::Esup, EngineKind::Diffset, 6, 175, 13963623056413447848, [226, 0, 0, 0, 0, 0, 137, 1782, 29924, 226, 159, 165, 0]),
    ("dense", Measure::Normal, EngineKind::Horizontal, 0, 175, 6444188430044507955, [385, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0]),
    ("dense", Measure::Normal, EngineKind::Horizontal, 1, 175, 8684515335268851729, [181, 0, 0, 0, 0, 4, 0, 0, 0, 181, 204, 0, 0]),
    ("dense", Measure::Normal, EngineKind::Horizontal, 2, 175, 1942725343472851328, [200, 0, 0, 0, 0, 4, 0, 0, 0, 200, 185, 0, 0]),
    ("dense", Measure::Normal, EngineKind::Horizontal, 3, 175, 15225240779538086501, [190, 0, 0, 0, 0, 4, 0, 0, 0, 190, 195, 0, 0]),
    ("dense", Measure::Normal, EngineKind::Horizontal, 4, 175, 11650265495154523087, [238, 0, 0, 0, 0, 4, 0, 0, 0, 238, 147, 0, 0]),
    ("dense", Measure::Normal, EngineKind::Horizontal, 5, 175, 16843533606554045646, [204, 0, 0, 0, 0, 4, 0, 0, 0, 204, 181, 0, 0]),
    ("dense", Measure::Normal, EngineKind::Horizontal, 6, 175, 10189878997170120682, [225, 0, 0, 0, 0, 4, 0, 0, 0, 225, 160, 0, 0]),
    ("dense", Measure::Normal, EngineKind::Vertical, 0, 175, 6444188430044507955, [385, 0, 0, 0, 0, 1, 375, 21760, 201960, 0, 0, 0, 0]),
    ("dense", Measure::Normal, EngineKind::Vertical, 1, 175, 8684515335268851729, [181, 0, 0, 0, 0, 0, 6, 21760, 201960, 181, 204, 165, 0]),
    ("dense", Measure::Normal, EngineKind::Vertical, 2, 175, 1942725343472851328, [200, 0, 0, 0, 0, 0, 25, 21760, 201960, 200, 185, 165, 0]),
    ("dense", Measure::Normal, EngineKind::Vertical, 3, 175, 15225240779538086501, [190, 0, 0, 0, 0, 0, 15, 21760, 201960, 190, 195, 165, 0]),
    ("dense", Measure::Normal, EngineKind::Vertical, 4, 175, 11650265495154523087, [238, 0, 0, 0, 0, 0, 63, 21760, 201960, 238, 147, 165, 0]),
    ("dense", Measure::Normal, EngineKind::Vertical, 5, 175, 16843533606554045646, [204, 0, 0, 0, 0, 0, 29, 21760, 201960, 204, 181, 165, 0]),
    ("dense", Measure::Normal, EngineKind::Vertical, 6, 175, 10189878997170120682, [225, 0, 0, 0, 0, 0, 50, 21760, 201960, 225, 160, 165, 0]),
    ("dense", Measure::Normal, EngineKind::Diffset, 0, 175, 6444188430044507955, [385, 0, 0, 0, 0, 1, 579, 1712, 29968, 0, 0, 0, 0]),
    ("dense", Measure::Normal, EngineKind::Diffset, 1, 175, 8684515335268851729, [181, 0, 0, 0, 0, 0, 16, 1716, 29968, 181, 204, 165, 0]),
    ("dense", Measure::Normal, EngineKind::Diffset, 2, 175, 1942725343472851328, [200, 0, 0, 0, 0, 0, 55, 1716, 29968, 200, 185, 165, 0]),
    ("dense", Measure::Normal, EngineKind::Diffset, 3, 175, 15225240779538086501, [190, 0, 0, 0, 0, 0, 39, 1782, 29968, 190, 195, 165, 0]),
    ("dense", Measure::Normal, EngineKind::Diffset, 4, 175, 11650265495154523087, [238, 0, 0, 0, 0, 0, 135, 1782, 29968, 238, 147, 165, 0]),
    ("dense", Measure::Normal, EngineKind::Diffset, 5, 175, 16843533606554045646, [204, 0, 0, 0, 0, 0, 73, 1782, 29968, 204, 181, 165, 0]),
    ("dense", Measure::Normal, EngineKind::Diffset, 6, 175, 10189878997170120682, [225, 0, 0, 0, 0, 0, 130, 1782, 29968, 225, 160, 165, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Horizontal, 0, 175, 5569442004772690030, [385, 0, 8, 0, 377, 8, 0, 0, 0, 0, 0, 0, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Horizontal, 1, 175, 12968052308426020430, [384, 0, 8, 0, 376, 8, 0, 0, 0, 384, 1, 0, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Horizontal, 2, 175, 4396009122463709990, [385, 0, 7, 0, 378, 8, 0, 0, 0, 385, 0, 0, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Horizontal, 3, 175, 8920730386472081190, [379, 0, 24, 0, 355, 8, 0, 0, 0, 379, 6, 0, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Horizontal, 4, 175, 15422975189790636039, [381, 0, 13, 0, 368, 8, 0, 0, 0, 381, 4, 0, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Horizontal, 5, 175, 5515139103559003134, [376, 0, 31, 0, 345, 8, 0, 0, 0, 376, 9, 0, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Horizontal, 6, 175, 5434425866468485202, [376, 0, 19, 0, 357, 8, 0, 0, 0, 376, 9, 0, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Vertical, 0, 175, 5569442004772690030, [385, 0, 8, 0, 377, 1, 375, 46976, 409992, 0, 0, 0, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Vertical, 1, 175, 12968052308426020430, [384, 0, 8, 0, 376, 0, 494, 46976, 409992, 384, 1, 165, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Vertical, 2, 175, 4396009122463709990, [385, 0, 7, 0, 378, 0, 495, 47104, 411048, 385, 0, 165, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Vertical, 3, 175, 8920730386472081190, [379, 0, 24, 0, 355, 0, 489, 47104, 411048, 379, 6, 165, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Vertical, 4, 175, 15422975189790636039, [381, 0, 13, 0, 368, 0, 491, 47104, 411048, 381, 4, 165, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Vertical, 5, 175, 5515139103559003134, [376, 0, 31, 0, 345, 0, 486, 47104, 411048, 376, 9, 165, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Vertical, 6, 175, 5434425866468485202, [376, 0, 19, 0, 357, 0, 486, 47104, 411048, 376, 9, 165, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Diffset, 0, 175, 5569442004772690030, [385, 0, 8, 0, 377, 1, 1146, 3435, 63652, 0, 0, 0, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Diffset, 1, 175, 12968052308426020430, [384, 0, 8, 0, 376, 0, 1027, 3470, 63656, 384, 1, 165, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Diffset, 2, 175, 4396009122463709990, [385, 0, 7, 0, 378, 0, 1034, 3470, 63716, 385, 0, 165, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Diffset, 3, 175, 8920730386472081190, [379, 0, 24, 0, 355, 0, 995, 3470, 63716, 379, 6, 165, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Diffset, 4, 175, 15422975189790636039, [381, 0, 13, 0, 368, 0, 1018, 3470, 63716, 381, 4, 165, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Diffset, 5, 175, 5515139103559003134, [376, 0, 31, 0, 345, 0, 972, 3470, 63716, 376, 9, 165, 0]),
    ("dense", Measure::ExactDpB, EngineKind::Diffset, 6, 175, 5434425866468485202, [376, 0, 19, 0, 357, 0, 1002, 3470, 63716, 376, 9, 165, 0]),

];
