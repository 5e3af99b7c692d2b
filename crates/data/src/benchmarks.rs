//! Structure-matched synthetic analogs of the paper's four FIMI benchmarks.
//!
//! Each generator reproduces its namesake's Table 6 shape — transaction
//! count, vocabulary size, average length, density — and the qualitative
//! item-popularity profile that drives the relative behaviour of the mining
//! algorithms (long shared prefixes for dense data, power-law tails for
//! sparse data). The [crate docs](crate) give the substitution rationale.
//!
//! All generators take a `scale ∈ (0, 1]` factor applied to the transaction
//! count (vocabulary stays fixed so density is preserved) and an explicit
//! RNG seed.

use crate::deterministic::DeterministicDatabase;
use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ufim_core::{ItemId, Transaction, UncertainDatabase};

/// Scales a paper-size transaction count, keeping at least one transaction.
fn scaled(n: usize, scale: f64) -> usize {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0,1]");
    ((n as f64 * scale).round() as usize).max(1)
}

/// Samples a transaction length from a geometric-like distribution with the
/// given mean (min 1), truncated at `max`.
fn sample_len(rng: &mut StdRng, mean: f64, max: usize) -> usize {
    debug_assert!(mean >= 1.0);
    // Shifted geometric: 1 + Geom(p) has mean 1 + (1-p)/p = mean ⇒
    // p = 1/mean. Sample by inversion.
    let p = 1.0 / mean;
    let u: f64 = rng.gen_range(0.0..1.0);
    let g = ((1.0 - u).ln() / (1.0 - p).ln()).floor() as usize;
    (1 + g).min(max)
}

/// A Zipf-popularity item sampler over `0..n` with exponent `s`:
/// `P(rank r) ∝ (r+1)^{-s}`. Uses an alias-free cumulative table + binary
/// search (build `O(n)`, sample `O(log n)`).
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for `n` items with skew `s ≥ 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "need at least one item");
        assert!(s >= 0.0, "skew must be non-negative");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += ((r + 1) as f64).powf(-s);
            cumulative.push(acc);
        }
        ZipfSampler { cumulative }
    }

    /// Samples a rank in `0..n` (rank 0 most popular).
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u: f64 = rng.gen_range(0.0..total);
        match self
            .cumulative
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("no NaN"))
        {
            Ok(i) | Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

/// Connect analog — **dense** (Table 6: 67 557 × 129 items, avg len 43,
/// density 0.33).
///
/// Connect-4 records are 42 board cells plus a class label, each cell in one
/// of three states; every transaction therefore has exactly 43 items drawn
/// one-per-slot from 43 disjoint 3-item groups. The analog reproduces that
/// grid: slot `k` contributes one of items `{3k, 3k+1, 3k+2}` with a skewed,
/// slot-dependent preference, giving the long shared prefixes that make
/// dense data friendly to breadth-first miners.
pub fn connect_like(scale: f64, seed: u64) -> DeterministicDatabase {
    const SLOTS: usize = 43;
    const VARIANTS: usize = 3;
    let n = scaled(67_557, scale);
    let mut rng = StdRng::seed_from_u64(seed);

    // Slot-specific state preferences: most cells in a Connect-4 trace are
    // empty, so one variant dominates. Rotate which one to decorrelate slots.
    let weights: Vec<WeightedIndex<f64>> = (0..SLOTS)
        .map(|k| {
            let dominant = k % VARIANTS;
            let mut w = [0.12, 0.12, 0.12];
            w[dominant] = 0.76;
            WeightedIndex::new(w).expect("valid weights")
        })
        .collect();

    let mut transactions = Vec::with_capacity(n);
    for _ in 0..n {
        let mut t = Vec::with_capacity(SLOTS);
        for (k, w) in weights.iter().enumerate() {
            let variant = w.sample(&mut rng);
            t.push((k * VARIANTS + variant) as ItemId);
        }
        transactions.push(t);
    }
    DeterministicDatabase::with_num_items(transactions, (SLOTS * VARIANTS) as u32)
}

/// Accident analog — **dense-ish** (Table 6: 340 183 × 468 items, avg len
/// 33.8, density 0.072).
///
/// The real Accident data mixes a handful of near-universal attributes with
/// a long popularity tail. The analog gives item `i` an independent
/// inclusion probability `pop_i = min(1.0, c/(i+1)^0.75)` (the real data has near-universal attribute items) with `c`
/// calibrated so `Σ pop_i = 33.8`.
pub fn accident_like(scale: f64, seed: u64) -> DeterministicDatabase {
    const ITEMS: usize = 468;
    const TARGET_LEN: f64 = 33.8;
    const CAP: f64 = 1.0;
    const EXP: f64 = 0.75;
    let n = scaled(340_183, scale);
    let mut rng = StdRng::seed_from_u64(seed);

    // Calibrate c by bisection: Σ min(CAP, c/(i+1)^EXP) is monotone in c.
    let sum_for = |c: f64| -> f64 {
        (0..ITEMS)
            .map(|i| (c / ((i + 1) as f64).powf(EXP)).min(CAP))
            .sum()
    };
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while sum_for(hi) < TARGET_LEN {
        hi *= 2.0;
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if sum_for(mid) < TARGET_LEN {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let popularity: Vec<f64> = (0..ITEMS)
        .map(|i| (hi / ((i + 1) as f64).powf(EXP)).min(CAP))
        .collect();

    let mut transactions = Vec::with_capacity(n);
    for _ in 0..n {
        let mut t = Vec::new();
        for (i, &p) in popularity.iter().enumerate() {
            if rng.gen_bool(p) {
                t.push(i as ItemId);
            }
        }
        transactions.push(t);
    }
    DeterministicDatabase::with_num_items(transactions, ITEMS as u32)
}

/// Kosarak analog — **sparse** (Table 6: 990 002 × 41 270 items, avg len
/// 8.1, density 0.00019).
///
/// Kosarak is click-stream data: short sessions over a huge, heavily
/// Zipf-distributed page vocabulary. Transaction lengths follow a shifted
/// geometric with mean 8.1; items are drawn without replacement from a
/// Zipf(1.15) popularity law.
pub fn kosarak_like(scale: f64, seed: u64) -> DeterministicDatabase {
    const ITEMS: usize = 41_270;
    const MEAN_LEN: f64 = 8.1;
    let n = scaled(990_002, scale);
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ZipfSampler::new(ITEMS, 1.15);

    let mut transactions = Vec::with_capacity(n);
    let mut t: Vec<ItemId> = Vec::new();
    for _ in 0..n {
        let len = sample_len(&mut rng, MEAN_LEN, 64);
        t.clear();
        // Rejection keeps the draw without-replacement; session lengths are
        // tiny next to the vocabulary so collisions are rare.
        let mut attempts = 0;
        while t.len() < len && attempts < len * 20 {
            let item = zipf.sample(&mut rng) as ItemId;
            if !t.contains(&item) {
                t.push(item);
            }
            attempts += 1;
        }
        transactions.push(t.clone());
    }
    DeterministicDatabase::with_num_items(transactions, ITEMS as u32)
}

/// Gazelle analog — **very sparse** (Table 6: 59 601 × 498 items, avg len
/// 2.5, density 0.005).
///
/// Gazelle (BMS-WebView) holds short e-commerce click sequences. Lengths
/// follow a shifted geometric with mean 2.5; items a Zipf(1.0) law.
pub fn gazelle_like(scale: f64, seed: u64) -> DeterministicDatabase {
    const ITEMS: usize = 498;
    const MEAN_LEN: f64 = 2.5;
    let n = scaled(59_601, scale);
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ZipfSampler::new(ITEMS, 1.0);

    let mut transactions = Vec::with_capacity(n);
    for _ in 0..n {
        let len = sample_len(&mut rng, MEAN_LEN, 32);
        let mut t: Vec<ItemId> = Vec::with_capacity(len);
        let mut attempts = 0;
        while t.len() < len && attempts < len * 40 {
            let item = zipf.sample(&mut rng) as ItemId;
            if !t.contains(&item) {
                t.push(item);
            }
            attempts += 1;
        }
        transactions.push(t);
    }
    DeterministicDatabase::with_num_items(transactions, ITEMS as u32)
}

/// A deeply skewed **uncertain** database for the parallel suites: item
/// `i` appears in a transaction with probability `0.9 / 1.3^i` (existence
/// probabilities uniform in `[0.3, 1.0]`), so item 0 is near-ubiquitous
/// and one first-level subtree dominates every depth-first decomposition
/// several levels deep — the shape that serializes a one-level fan-out
/// and exists to exercise the miners' *nested* task spawning.
///
/// The single definition is shared by `tests/thread_determinism.rs` and
/// `bench_parallel` so the CI identity guard and the benchmark can never
/// drift onto different fixtures.
pub fn deep_skew(transactions: usize, items: u32, seed: u64) -> UncertainDatabase {
    let mut rng = StdRng::seed_from_u64(seed);
    let t: Vec<Transaction> = (0..transactions)
        .map(|_| {
            let units: Vec<(ItemId, f64)> = (0..items)
                .filter_map(|i| {
                    let p_incl = 0.9 / 1.3f64.powi(i as i32);
                    if rng.gen_bool(p_incl) {
                        Some((i, rng.gen_range(0.3..=1.0)))
                    } else {
                        None
                    }
                })
                .collect();
            Transaction::new(units).expect("probabilities are in (0, 1]")
        })
        .collect();
    UncertainDatabase::with_num_items(t, items)
}

/// **Regional** synthetic fixture: huge-N, small-I, with hard spatial
/// locality in the tid dimension.
///
/// Item `0` is global (present in ~90% of transactions); each *regional*
/// item `r ∈ 1..=regions` appears only inside its contiguous tid band
/// (band `r-1` of `regions` equal slices), in ~80% of that band's
/// transactions. Every posting list therefore has long all-zero tid
/// ranges, so any candidate touching a regional item is nonzero only
/// inside its band.
pub fn regional(transactions: usize, regions: u32, seed: u64) -> UncertainDatabase {
    assert!(regions >= 1, "need at least one region");
    let mut rng = StdRng::seed_from_u64(seed);
    let band = transactions.div_ceil(regions as usize).max(1);
    let t: Vec<Transaction> = (0..transactions)
        .map(|tid| {
            let region = (tid / band) as u32;
            let mut units: Vec<(ItemId, f64)> = Vec::with_capacity(2);
            if rng.gen_bool(0.9) {
                units.push((0, rng.gen_range(0.5..=1.0)));
            }
            if rng.gen_bool(0.8) {
                units.push((1 + region, rng.gen_range(0.3..=1.0)));
            }
            Transaction::new(units).expect("probabilities are in (0, 1]")
        })
        .collect();
    UncertainDatabase::with_num_items(t, regions + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sampler_prefers_low_ranks() {
        let z = ZipfSampler::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10], "rank 0 should dominate rank 10");
        assert!(counts[0] > counts[50] * 5);
    }

    #[test]
    fn zipf_skew_zero_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 5_000.0).abs() < 500.0, "counts {counts:?}");
        }
    }

    #[test]
    fn sample_len_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(3);
        let total: usize = (0..50_000).map(|_| sample_len(&mut rng, 8.1, 64)).sum();
        let mean = total as f64 / 50_000.0;
        assert!((mean - 8.1).abs() < 0.3, "mean length {mean}");
    }

    #[test]
    fn connect_shape_matches_table6() {
        let db = connect_like(0.01, 42);
        assert_eq!(db.num_items(), 129);
        assert!((db.avg_transaction_len() - 43.0).abs() < 1e-9);
        assert!((db.density() - 0.333).abs() < 0.01);
        assert_eq!(db.num_transactions(), 676);
    }

    #[test]
    fn connect_is_deterministic_per_seed() {
        let a = connect_like(0.001, 7);
        let b = connect_like(0.001, 7);
        let c = connect_like(0.001, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn accident_shape_matches_table6() {
        let db = accident_like(0.002, 42);
        assert_eq!(db.num_items(), 468);
        let len = db.avg_transaction_len();
        assert!((len - 33.8).abs() < 1.5, "avg len {len}");
        assert!((db.density() - 0.072).abs() < 0.01);
    }

    #[test]
    fn kosarak_shape_matches_table6() {
        let db = kosarak_like(0.002, 42);
        assert_eq!(db.num_items(), 41_270);
        let len = db.avg_transaction_len();
        assert!((len - 8.1).abs() < 0.6, "avg len {len}");
        assert!(db.density() < 0.001);
    }

    #[test]
    fn gazelle_shape_matches_table6() {
        let db = gazelle_like(0.02, 42);
        assert_eq!(db.num_items(), 498);
        let len = db.avg_transaction_len();
        assert!((len - 2.5).abs() < 0.25, "avg len {len}");
        assert!((db.density() - 0.005).abs() < 0.002);
    }

    #[test]
    #[should_panic(expected = "scale must be in (0,1]")]
    fn rejects_bad_scale() {
        connect_like(0.0, 1);
    }

    #[test]
    fn deep_skew_is_dominated_by_item_zero() {
        let db = deep_skew(2_000, 16, 7);
        assert_eq!(db.num_items(), 16);
        let with = |i: u32| {
            db.transactions()
                .iter()
                .filter(|t| t.items().contains(&i))
                .count()
        };
        // Geometric decay: item 0 in ~90% of transactions, the chain
        // {0,1,2} still dominant, the tail rare — the skew the parallel
        // suites rely on.
        assert!(with(0) > 1_700, "item 0 in {} of 2000", with(0));
        assert!(with(0) > 2 * with(4));
        assert!(with(15) < with(0) / 10);
    }

    #[test]
    fn regional_items_stay_inside_their_bands() {
        let db = regional(4_000, 4, 7);
        assert_eq!(db.num_items(), 5);
        for (tid, t) in db.transactions().iter().enumerate() {
            let region = (tid / 1_000) as u32;
            for &i in t.items() {
                assert!(
                    i == 0 || i == 1 + region,
                    "item {i} outside band at tid {tid}"
                );
            }
        }
        // Dense enough that every band's item actually shows up.
        for r in 1..=4u32 {
            let with = db
                .transactions()
                .iter()
                .filter(|t| t.items().contains(&r))
                .count();
            assert!(with > 700, "regional item {r} in only {with} transactions");
        }
    }

    #[test]
    fn transactions_are_canonical() {
        for db in [kosarak_like(0.0005, 9), gazelle_like(0.005, 9)] {
            for t in db.transactions() {
                assert!(t.windows(2).all(|w| w[0] < w[1]), "unsorted: {t:?}");
            }
        }
    }
}
