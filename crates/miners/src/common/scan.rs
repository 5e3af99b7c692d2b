//! Database-scan primitives over a candidate trie.
//!
//! [`LevelScan`] packs one level's candidates into a [`CandidateTrie`]
//! **once** and exposes every per-candidate statistic as a method over that
//! shared trie — fixing the seed's pattern where `scan_esup`,
//! `scan_esup_var` and `scan_esup_count` each rebuilt the trie from the same
//! candidate list. The historical free functions remain as thin wrappers
//! for callers that need a single statistic.
//!
//! Statistic accumulation uses the workspace's fixed summation shape:
//! [`SUM_STRIPES`] striped partial sums (stripe = transaction id mod 8) per
//! [`SUM_BLOCK_TIDS`]-transaction chunk, stripes folded in ascending stripe
//! order and chunks absorbed in ascending chunk order — on the sequential
//! path *and* across threads (`ufim_core::parallel` maps the same chunks
//! and reduces them in order). Results are therefore deterministic
//! regardless of thread count and bit-identical to the columnar backends'
//! kernels at every database size.

use super::trie::CandidateTrie;
use ufim_core::parallel::par_map;
use ufim_core::vertical::{SUM_BLOCK_TIDS, SUM_STRIPES};
use ufim_core::{Itemset, MinerStats, Transaction, UncertainDatabase};

/// Transactions per summation chunk — the workspace-wide fixed summation
/// block ([`SUM_BLOCK_TIDS`]), shared with the columnar kernels. Chunk
/// boundaries are a pure function of the database size and striped partials
/// are absorbed in chunk order on every path (sequential or parallel),
/// keeping floating-point reduction order — and thus result bits —
/// independent of the worker count *and* identical to the vertical/diffset
/// backends.
const CHUNK: usize = SUM_BLOCK_TIDS;

/// Minimum `transactions × candidates` product before a scan fans out to
/// threads (shared with the vertical backend's candidate fan-out).
const PAR_MIN_WORK: usize = ufim_core::parallel::DEFAULT_MIN_WORK;

/// Generic pass: calls `f(candidate_index, q)` for every
/// (transaction, contained candidate) pair with containment probability `q`.
pub fn scan_with<F: FnMut(u32, f64)>(
    db: &UncertainDatabase,
    trie: &CandidateTrie,
    stats: &mut MinerStats,
    mut f: F,
) {
    stats.scans += 1;
    for t in db.transactions() {
        trie.for_each_contained(t.items(), t.probs(), &mut f);
    }
}

/// One level's candidates packed into a trie, reused across every statistic
/// the level needs.
pub struct LevelScan<'a> {
    db: &'a UncertainDatabase,
    trie: CandidateTrie,
    num_candidates: usize,
}

/// Per-candidate accumulators of one scan pass. Which vectors are populated
/// depends on the [`LevelScan`] method that produced it.
#[derive(Clone, Debug, Default)]
pub struct ScanAccumulators {
    /// Expected supports, always populated.
    pub esup: Vec<f64>,
    /// Support variances (`Σ q(1−q)`), when requested.
    pub var: Option<Vec<f64>>,
    /// Nonzero-transaction counts, when requested.
    pub count: Option<Vec<u64>>,
}

impl ScanAccumulators {
    fn new(n: usize, want_var: bool, want_count: bool) -> Self {
        ScanAccumulators {
            esup: vec![0.0; n],
            var: want_var.then(|| vec![0.0; n]),
            count: want_count.then(|| vec![0u64; n]),
        }
    }

    /// Folds one summation chunk's striped partial into the totals: per
    /// candidate, stripes added in ascending stripe order — the exact fold
    /// the columnar kernels' accumulator performs on block exit.
    fn fold_in(&mut self, part: &StripedPartial) {
        for (i, a) in self.esup.iter_mut().enumerate() {
            for s in 0..SUM_STRIPES {
                *a += part.esup[i * SUM_STRIPES + s];
            }
        }
        if let (Some(a), Some(b)) = (self.var.as_mut(), part.var.as_ref()) {
            for (i, x) in a.iter_mut().enumerate() {
                for s in 0..SUM_STRIPES {
                    *x += b[i * SUM_STRIPES + s];
                }
            }
        }
        if let (Some(a), Some(b)) = (self.count.as_mut(), part.count.as_ref()) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }
}

/// One summation chunk's striped partial sums: [`SUM_STRIPES`] lanes per
/// candidate (`esup`/`var` are `candidates × 8`, indexed `i · 8 + (t mod
/// 8)`), mirroring the columnar kernels' in-block accumulator. Counts are
/// integer and need no striping.
struct StripedPartial {
    esup: Vec<f64>,
    var: Option<Vec<f64>>,
    count: Option<Vec<u64>>,
}

impl StripedPartial {
    fn new(n: usize, want_var: bool, want_count: bool) -> Self {
        StripedPartial {
            esup: vec![0.0; n * SUM_STRIPES],
            var: want_var.then(|| vec![0.0; n * SUM_STRIPES]),
            count: want_count.then(|| vec![0u64; n]),
        }
    }

    fn zero(&mut self) {
        self.esup.iter_mut().for_each(|x| *x = 0.0);
        if let Some(v) = self.var.as_mut() {
            v.iter_mut().for_each(|x| *x = 0.0);
        }
        if let Some(c) = self.count.as_mut() {
            c.iter_mut().for_each(|x| *x = 0);
        }
    }
}

impl<'a> LevelScan<'a> {
    /// Builds the trie for this level — once.
    pub fn new(db: &'a UncertainDatabase, candidates: &[Itemset]) -> Self {
        LevelScan {
            db,
            trie: CandidateTrie::build(candidates),
            num_candidates: candidates.len(),
        }
    }

    /// The shared trie (for callers composing their own passes).
    pub fn trie(&self) -> &CandidateTrie {
        &self.trie
    }

    /// One pass accumulating every requested statistic. Parallel over
    /// transaction chunks when the level is large enough.
    pub fn accumulate(
        &self,
        want_var: bool,
        want_count: bool,
        stats: &mut MinerStats,
    ) -> ScanAccumulators {
        stats.scans += 1;
        let transactions = self.db.transactions();
        let work = transactions
            .len()
            .saturating_mul(self.num_candidates.max(1));
        let mut total = ScanAccumulators::new(self.num_candidates, want_var, want_count);
        if transactions.len() <= CHUNK {
            // One summation block: accumulate its stripes and fold once.
            let mut part = StripedPartial::new(self.num_candidates, want_var, want_count);
            self.accumulate_into(transactions, &mut part);
            total.fold_in(&part);
            return total;
        }
        let chunks: Vec<&[Transaction]> = transactions.chunks(CHUNK).collect();
        if work < PAR_MIN_WORK {
            // Sequential, but per-chunk striped partials folded in chunk
            // order — the identical summation shape to the parallel path
            // below and to the columnar kernels, so the bits never depend
            // on which path ran.
            let mut part = StripedPartial::new(self.num_candidates, want_var, want_count);
            for chunk in &chunks {
                part.zero();
                self.accumulate_into(chunk, &mut part);
                total.fold_in(&part);
            }
            return total;
        }
        let partials = par_map(&chunks, |part| {
            let mut acc = StripedPartial::new(self.num_candidates, want_var, want_count);
            self.accumulate_into(part, &mut acc);
            acc
        });
        for p in &partials {
            total.fold_in(p);
        }
        total
    }

    /// Accumulates one summation chunk's transactions into striped
    /// partials. `transactions` must start on a [`CHUNK`] boundary of the
    /// database, so the relative index's low bits equal the global
    /// transaction id's (the stripe selector).
    fn accumulate_into(&self, transactions: &[Transaction], acc: &mut StripedPartial) {
        for (r, t) in transactions.iter().enumerate() {
            let stripe = r & (SUM_STRIPES - 1);
            let (esup, var, count) = (&mut acc.esup, &mut acc.var, &mut acc.count);
            self.trie
                .for_each_contained(t.items(), t.probs(), &mut |idx, q| {
                    let i = idx as usize;
                    esup[i * SUM_STRIPES + stripe] += q;
                    if let Some(var) = var.as_mut() {
                        var[i * SUM_STRIPES + stripe] += q * (1.0 - q);
                    }
                    if let Some(count) = count.as_mut() {
                        count[i] += 1;
                    }
                });
        }
    }

    /// Gathers each candidate's nonzero containment-probability vector (in
    /// transaction order) in one pass — the horizontal backend's
    /// `gather_vectors` for the exact miners.
    /// Parallel chunks concatenate in chunk order, preserving transaction
    /// order within each vector.
    pub fn prob_vectors(&self, stats: &mut MinerStats) -> Vec<Vec<f64>> {
        stats.scans += 1;
        let transactions = self.db.transactions();
        let gather = |part: &[Transaction]| {
            let mut vecs: Vec<Vec<f64>> = vec![Vec::new(); self.num_candidates];
            for t in part {
                self.trie
                    .for_each_contained(t.items(), t.probs(), &mut |idx, q| {
                        vecs[idx as usize].push(q);
                    });
            }
            vecs
        };
        let work = transactions
            .len()
            .saturating_mul(self.num_candidates.max(1));
        if work < PAR_MIN_WORK || transactions.len() <= CHUNK {
            return gather(transactions);
        }
        let chunks: Vec<&[Transaction]> = transactions.chunks(CHUNK).collect();
        let partials = par_map(&chunks, |part| gather(part));
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); self.num_candidates];
        for mut p in partials {
            for (dst, src) in out.iter_mut().zip(p.iter_mut()) {
                dst.append(src);
            }
        }
        out
    }
}

/// One pass accumulating expected supports: `esup[i] = Σ_t q_t(i)`.
pub fn scan_esup(
    db: &UncertainDatabase,
    candidates: &[Itemset],
    stats: &mut MinerStats,
) -> Vec<f64> {
    LevelScan::new(db, candidates)
        .accumulate(false, false, stats)
        .esup
}

/// One pass accumulating expected supports and variances:
/// `var[i] = Σ_t q_t (1 − q_t)` (the Normal-approximation miners' needs).
pub fn scan_esup_var(
    db: &UncertainDatabase,
    candidates: &[Itemset],
    stats: &mut MinerStats,
) -> (Vec<f64>, Vec<f64>) {
    let acc = LevelScan::new(db, candidates).accumulate(true, false, stats);
    (acc.esup, acc.var.expect("variance requested"))
}

/// One pass accumulating expected supports and nonzero-transaction counts —
/// the pre-pruning pass of the Chernoff-bounded exact miners.
pub fn scan_esup_count(
    db: &UncertainDatabase,
    candidates: &[Itemset],
    stats: &mut MinerStats,
) -> (Vec<f64>, Vec<u64>) {
    let acc = LevelScan::new(db, candidates).accumulate(false, true, stats);
    (acc.esup, acc.count.expect("count requested"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufim_core::examples::paper_table1;

    #[test]
    fn scans_agree_with_reference() {
        let db = paper_table1();
        let candidates = vec![
            Itemset::from_items([0]),
            Itemset::from_items([0, 2]),
            Itemset::from_items([1, 3]),
        ];
        let mut stats = MinerStats::default();
        let esup = scan_esup(&db, &candidates, &mut stats);
        let (esup2, var) = scan_esup_var(&db, &candidates, &mut stats);
        let (esup3, count) = scan_esup_count(&db, &candidates, &mut stats);
        assert_eq!(stats.scans, 3);
        for (i, c) in candidates.iter().enumerate() {
            let (want_e, want_v) = db.support_moments(c.items());
            assert!((esup[i] - want_e).abs() < 1e-12);
            assert!((esup2[i] - want_e).abs() < 1e-12);
            assert!((esup3[i] - want_e).abs() < 1e-12);
            assert!((var[i] - want_v).abs() < 1e-12);
            assert_eq!(count[i] as usize, db.itemset_prob_vector(c.items()).len());
        }
    }

    #[test]
    fn level_scan_reuses_one_trie_for_all_statistics() {
        let db = paper_table1();
        let candidates: Vec<Itemset> = (0..6).map(Itemset::singleton).collect();
        let scan = LevelScan::new(&db, &candidates);
        let mut stats = MinerStats::default();
        let all = scan.accumulate(true, true, &mut stats);
        let qvecs = scan.prob_vectors(&mut stats);
        assert_eq!(stats.scans, 2);
        for (i, c) in candidates.iter().enumerate() {
            let (we, wv) = db.support_moments(c.items());
            assert!((all.esup[i] - we).abs() < 1e-12);
            assert!((all.var.as_ref().unwrap()[i] - wv).abs() < 1e-12);
            let want_vec = db.itemset_prob_vector(c.items());
            assert_eq!(all.count.as_ref().unwrap()[i] as usize, want_vec.len());
            assert_eq!(qvecs[i], want_vec);
        }
    }

    /// The fixed-shape summation: on a database larger than one summation
    /// block, the horizontal scan's esup/var are **bit-identical** to the
    /// vertical index's kernels — sequential path included (the work here
    /// stays under `PAR_MIN_WORK`'s fan-out only for the small candidate
    /// count, which is exactly the regime the old flat accumulation ran
    /// in and drifted at ulp level).
    #[test]
    fn large_scan_is_bit_identical_to_vertical_kernels() {
        use ufim_core::{Transaction, VerticalIndex};
        let transactions: Vec<Transaction> = (0..9_000)
            .map(|i| {
                let p = 0.05 + 0.9 * ((i % 193) as f64 / 192.0);
                let mut units = vec![(0u32, p)];
                if i % 3 != 0 {
                    units.push((1, 1.0 - p * 0.5));
                }
                Transaction::new(units).unwrap()
            })
            .collect();
        let db = UncertainDatabase::with_num_items(transactions, 2);
        let candidates = vec![
            Itemset::from_items([0]),
            Itemset::from_items([1]),
            Itemset::from_items([0, 1]),
        ];
        let mut stats = MinerStats::default();
        let acc = LevelScan::new(&db, &candidates).accumulate(true, false, &mut stats);
        let idx = VerticalIndex::build(&db);
        for (i, c) in candidates.iter().enumerate() {
            let v = idx.prob_vector(c.items());
            let (ve, vv) = v.moments();
            assert_eq!(acc.esup[i].to_bits(), ve.to_bits(), "esup bits {i}");
            assert_eq!(
                acc.var.as_ref().unwrap()[i].to_bits(),
                vv.to_bits(),
                "var bits {i}"
            );
        }
        // And against the fused stats path (prefix × postings).
        let (e, v, _) = idx.postings(0).intersect_stats(idx.postings(1));
        assert_eq!(acc.esup[2].to_bits(), e.to_bits());
        assert_eq!(acc.var.as_ref().unwrap()[2].to_bits(), v.to_bits());
    }

    #[test]
    fn parallel_path_matches_sequential() {
        // Large enough to cross PAR_MIN_WORK and CHUNK: 3 candidates over
        // ~13k transactions.
        use ufim_core::Transaction;
        let transactions: Vec<Transaction> = (0..13_000)
            .map(|i| {
                let p = 0.1 + 0.8 * ((i % 97) as f64 / 96.0);
                Transaction::new([(0u32, p), (1, 0.5), (2, 0.9)]).unwrap()
            })
            .collect();
        let db = UncertainDatabase::with_num_items(transactions, 3);
        let candidates = vec![
            Itemset::from_items([0]),
            Itemset::from_items([0, 1]),
            Itemset::from_items([0, 1, 2]),
        ];
        let scan = LevelScan::new(&db, &candidates);
        let mut stats = MinerStats::default();
        let acc = scan.accumulate(true, true, &mut stats);
        let qvecs = scan.prob_vectors(&mut stats);
        for (i, c) in candidates.iter().enumerate() {
            let (we, wv) = db.support_moments(c.items());
            assert!((acc.esup[i] - we).abs() < 1e-9, "esup {i}");
            assert!((acc.var.as_ref().unwrap()[i] - wv).abs() < 1e-9, "var {i}");
            let want = db.itemset_prob_vector(c.items());
            assert_eq!(acc.count.as_ref().unwrap()[i] as usize, want.len());
            assert_eq!(qvecs[i].len(), want.len());
            for (a, b) in qvecs[i].iter().zip(&want) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }
}
