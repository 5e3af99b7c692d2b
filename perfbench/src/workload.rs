//! The three workloads and the inputs each generates from the seed.
//!
//! Every input comes from `--seed`: the mined database, the stream's
//! arrivals and the serve traffic. The program under test only ever
//! receives the generated inputs.

use ufim_core::prelude::*;
use ufim_data::Benchmark;

/// Resident dataset name the serve phase loads its database under.
pub const DATASET: &str = "bench";

/// The cells the serve phase primes at the basis and answers warm.
pub const PRIMED: [MeasureKind; 2] = [MeasureKind::ExpectedSupport, MeasureKind::Normal];

/// One request in this many is a cold `mine` — a 5% cold share, so the
/// 99th percentile lands deep inside the cold class, away from the
/// boundary between the classes.
pub const COLD_EVERY: u64 = 20;

/// The warm requests, cycled in this order for each primed cell in turn:
/// the shares of the repository's own serve benchmark
/// (`crates/bench/benches/bench_serve.rs`) — one sweep, one top-k and two
/// probes (an item and a longer itemset) per cell.
pub const WARM_CYCLE: [&str; 4] = ["sweep", "topk", "probe", "probe"];

/// Transactions generated after the database's own for the stream phase
/// to append; more than a round's window steps absorb.
pub const ARRIVALS: usize = 4096;

/// Generation seed of the fixed populations (see [`Workload::population`]).
pub const POPULATION_SEED: u64 = 0x7132_5153;

/// One workload: a dataset analog of the paper's evaluation and the
/// parameters of its three phases.
#[derive(Clone, Debug)]
pub struct Workload {
    /// `dense`, `deep` or `sparse`.
    pub name: &'static str,
    /// The generator (Table 6 shape, Table 7 probabilities).
    pub benchmark: Benchmark,
    /// Fraction of the paper's transaction count.
    pub scale: f64,
    /// When set, the database and arrivals are drawn by the seed from one
    /// fixed generation this many times the database's size, rather than
    /// generated from the seed (see [`Workload::generate`]).
    pub population: Option<usize>,
    /// Batch `min_sup` (also the serve basis).
    pub min_sup: f64,
    /// Probabilistic frequent threshold (Table 7).
    pub pft: f64,
    /// Expected-support ratio the incremental miner keeps current.
    pub stream_min_sup: f64,
    /// Window slots; the window starts filled with the database's first
    /// transactions. `None` makes the window as large as the database.
    pub window: Option<usize>,
    /// Transactions expired and appended per window step.
    pub step: usize,
    /// Window steps per stream sample.
    pub slice_steps: usize,
    /// Requests each client sends per serve sample.
    pub slice_requests: usize,
    /// `min_sup` of the cold `mine` requests.
    pub cold_min_sup: f64,
    /// Measure × traversal cells the cold requests alternate between.
    pub cold_cells: [(MeasureKind, TraversalKind); 2],
    /// Mines per batch sample of each miner, in [`crate::batch::MINERS`]
    /// order: enough that a sample lasts about 0.1 s or more on a 2-vCPU
    /// host. Fixed, so every run measures a miner the same way.
    pub reps: [usize; 8],
}

/// Workload names in report order.
pub const NAMES: [&str; 3] = ["dense", "deep", "sparse"];

impl Workload {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Workload> {
        use MeasureKind as M;
        use TraversalKind as T;
        let hyper = [
            (M::ExpectedSupport, T::HyperStructure),
            (M::Normal, T::HyperStructure),
        ];
        Some(match name {
            // Connect analog, N = 676: the index fits in one core's L2;
            // nearly all 903 pairs are frequent, so the exact kernels run
            // on long vectors and the memo patch walk touches every node.
            "dense" => Workload {
                name: "dense",
                benchmark: Benchmark::Connect,
                scale: 0.01,
                population: None,
                min_sup: 0.4,
                pft: 0.9,
                stream_min_sup: 0.4,
                window: None,
                step: 8,
                slice_steps: 40,
                slice_requests: 150,
                cold_min_sup: 0.4,
                cold_cells: hyper,
                reps: [8, 3, 1, 1, 2, 8, 8, 3],
            },
            // T25I15D320k analog, N = 3,200 drawn from a fixed population
            // of 12,800: thousands of itemsets up to length 5 — candidate
            // generation, memo chains and nested spawning, with short
            // exact-kernel vectors. The window keeps a higher bar so a
            // refresh stays well under a batch mine.
            "deep" => Workload {
                name: "deep",
                benchmark: Benchmark::T25I15D320k,
                scale: 0.01,
                population: Some(4),
                min_sup: 0.01,
                pft: 0.9,
                stream_min_sup: 0.02,
                window: None,
                step: 8,
                slice_steps: 60,
                slice_requests: 150,
                cold_min_sup: 0.02,
                cold_cells: [
                    (M::ExpectedSupport, T::HyperStructure),
                    (M::ExpectedSupport, T::TreeGrowth),
                ],
                reps: [1; 8],
            },
            // Kosarak analog, N = 69,300 > 65,536 tids: the only workload
            // on the shard seam and zone maps, with level-1 work over a
            // 41,270-item vocabulary and an index several times L2.
            "sparse" => Workload {
                name: "sparse",
                benchmark: Benchmark::Kosarak,
                scale: 0.07,
                population: None,
                min_sup: 0.003,
                pft: 0.9,
                stream_min_sup: 0.003,
                window: Some(16_384),
                step: 8,
                slice_steps: 25,
                slice_requests: 250,
                cold_min_sup: 0.006,
                cold_cells: hyper,
                reps: [1; 8],
            },
            _ => return None,
        })
    }

    /// Window slots for a database of `n` transactions.
    pub fn window_slots(&self, n: usize) -> usize {
        self.window.map_or(n, |slots| slots.min(n))
    }

    /// The mined (and served) database and the stream's arrivals, which
    /// follow the database's own distribution.
    ///
    /// Without a [`Workload::population`], one generation from the seed of
    /// [`ARRIVALS`] more transactions than the database holds, split after
    /// the database's share. With one, the seed draws both, without
    /// replacement, from a generation at [`POPULATION_SEED`]: the T25I15
    /// generator draws its pattern pool from its seed, and which patterns
    /// get heavy weights moves refresh cost by 10–20% from seed to seed.
    /// The paper's T25I15D320k is one database; the seed then picks which
    /// of its transactions a run mines and streams.
    pub fn generate(&self, seed: u64) -> (UncertainDatabase, Vec<Transaction>) {
        let paper = self.benchmark.paper_shape().num_transactions as f64;
        let n = (paper * self.scale).round() as usize;
        let (size, generation_seed) = match self.population {
            Some(k) => (k * n, POPULATION_SEED),
            None => (n + ARRIVALS, seed),
        };
        let all = self
            .benchmark
            .generate((size as f64 / paper).min(1.0), generation_seed);
        let mut transactions = all.transactions().to_vec();
        if self.population.is_some() {
            // A partial Fisher–Yates shuffle puts the draw up front.
            let mut state = seed;
            let m = transactions.len();
            for i in 0..(n + ARRIVALS).min(m) {
                state = splitmix64(state);
                transactions.swap(i, i + (state % (m - i) as u64) as usize);
            }
            transactions.truncate(n + ARRIVALS);
        }
        let arrivals = transactions.split_off(n);
        let db = UncertainDatabase::with_num_items(transactions, all.num_items());
        (db, arrivals)
    }

    /// Priming requests: one basis sweep per primed cell.
    pub fn prime_lines(&self) -> Vec<String> {
        PRIMED
            .iter()
            .map(|m| {
                format!(
                    r#"{{"op":"sweep","dataset":"{DATASET}","measure":"{}","engine":"vertical","pft":{},"thresholds":[{}],"threads":1}}"#,
                    m.name(),
                    self.pft,
                    self.min_sup
                )
            })
            .collect()
    }
}

/// SplitMix64: the benchmark's own deterministic mixer.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The serve traffic of one workload and seed: an endless, deterministic
/// request sequence per client.
#[derive(Clone, Debug)]
pub struct Traffic {
    seed: u64,
    min_sup: f64,
    pft: f64,
    cold_min_sup: f64,
    cold_cells: [(MeasureKind, TraversalKind); 2],
    /// Frequent items at the basis, probed warm.
    items: Vec<ItemId>,
    /// Frequent itemsets of length ≥ 2 at the basis, probed warm.
    itemsets: Vec<Vec<ItemId>>,
}

/// One generated request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The wire line (no newline).
    pub line: String,
    /// The op: `sweep`, `topk` or `probe` (warm) or `mine` (cold).
    pub op: &'static str,
}

impl Request {
    /// Whether the request is in the cold class.
    pub fn cold(&self) -> bool {
        self.op == "mine"
    }
}

impl Traffic {
    /// Traffic over `basis`, the esup result mined at the workload's
    /// basis, whose itemsets are the probe targets.
    pub fn new(w: &Workload, seed: u64, basis: &MiningResult) -> Self {
        let mut items = Vec::new();
        let mut itemsets = Vec::new();
        for f in &basis.itemsets {
            match f.itemset.items() {
                [item] => items.push(*item),
                longer => itemsets.push(longer.to_vec()),
            }
        }
        items.sort();
        itemsets.sort();
        if itemsets.is_empty() {
            itemsets = items.iter().map(|&i| vec![i]).collect();
        }
        Traffic {
            seed,
            min_sup: w.min_sup,
            pft: w.pft,
            cold_min_sup: w.cold_min_sup,
            cold_cells: w.cold_cells,
            items,
            itemsets,
        }
    }

    /// Thresholds of the warm sweep ladder, all at or above the basis.
    pub fn ladder(&self) -> [f64; 4] {
        [
            self.min_sup,
            self.min_sup * 1.25,
            self.min_sup * 1.5,
            self.min_sup * 2.0,
        ]
    }

    /// Request `i` of client `client`. Every [`COLD_EVERY`]th request is
    /// cold; the rest walk [`WARM_CYCLE`] over the primed cells in order,
    /// and each class walks the ladder rungs and the two `pft`s in order,
    /// so the shares of ops and parameters are exact in every run. The
    /// seed picks the probe targets.
    pub fn request(&self, client: u64, i: u64) -> Request {
        if i % COLD_EVERY == COLD_EVERY / 2 {
            let (measure, traversal) = self.cold_cells[((i / COLD_EVERY) % 2) as usize];
            return Request {
                line: format!(
                    r#"{{"op":"mine","dataset":"{DATASET}","measure":"{}","traversal":"{}","min_sup":{},"pft":{},"threads":1}}"#,
                    measure.name(),
                    traversal.name(),
                    self.cold_min_sup,
                    self.pft
                ),
                op: "mine",
            };
        }
        // Warm requests before this one.
        let j = i - (i + COLD_EVERY / 2) / COLD_EVERY;
        let cycle = WARM_CYCLE.len() as u64;
        let cells = PRIMED.len() as u64;
        let measure = PRIMED[((j / cycle) % cells) as usize].name();
        let slot = (j % cycle) as usize;
        // How many requests of this slot and cell came before.
        let turn = j / cycle / cells;
        let ladder = self.ladder();
        let rung = (turn % 4) as usize;
        let t = ladder[rung];
        let pft = if (turn / 4) % 2 == 0 { self.pft } else { 0.95 };
        let line = match slot {
            0 => {
                // Three of the four ladder rungs, ascending.
                let skip = rung;
                let rungs: Vec<String> = (0..4)
                    .filter(|&k| k != skip)
                    .map(|k| ladder[k].to_string())
                    .collect();
                format!(
                    r#"{{"op":"sweep","dataset":"{DATASET}","measure":"{measure}","engine":"vertical","pft":{pft},"thresholds":[{}],"threads":1}}"#,
                    rungs.join(",")
                )
            }
            1 => format!(
                r#"{{"op":"topk","dataset":"{DATASET}","measure":"{measure}","engine":"vertical","min_sup":{t},"pft":{pft},"k":8,"min_len":1,"threads":1}}"#
            ),
            _ => {
                let r = splitmix64(self.seed ^ splitmix64((client.wrapping_add(1) << 40) | i));
                let items: Vec<String> = if slot == 2 && !self.items.is_empty() {
                    vec![self.items[((r >> 40) as usize) % self.items.len()].to_string()]
                } else {
                    let set = &self.itemsets[((r >> 40) as usize) % self.itemsets.len()];
                    set.iter().map(|i| i.to_string()).collect()
                };
                format!(
                    r#"{{"op":"probe","dataset":"{DATASET}","measure":"{measure}","engine":"vertical","min_sup":{t},"pft":{pft},"itemset":[{}],"threads":1}}"#,
                    items.join(",")
                )
            }
        };
        Request {
            line,
            op: WARM_CYCLE[slot],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_shares_are_exact() {
        let w = Workload::named("dense").expect("listed workload");
        let traffic = Traffic {
            seed: 1,
            min_sup: w.min_sup,
            pft: w.pft,
            cold_min_sup: w.cold_min_sup,
            cold_cells: w.cold_cells,
            items: vec![3, 5],
            itemsets: vec![vec![3, 5]],
        };
        // 8 cold and 152 = 19 × 8 warm requests: whole cycles of both.
        let n = COLD_EVERY * 8;
        let mut ops = std::collections::BTreeMap::new();
        let mut measures = std::collections::BTreeMap::new();
        for i in 0..n {
            let r = traffic.request(0, i);
            *ops.entry(r.op).or_insert(0) += 1;
            for m in PRIMED {
                if !r.cold() && r.line.contains(&format!(r#""measure":"{}""#, m.name())) {
                    *measures.entry(m.name()).or_insert(0) += 1;
                }
            }
        }
        let ops: Vec<_> = ops.into_iter().collect();
        assert_eq!(ops, [("mine", 8), ("probe", 76), ("sweep", 38), ("topk", 38)]);
        assert!(measures.values().all(|&c| c == 76), "{measures:?}");
    }
}
