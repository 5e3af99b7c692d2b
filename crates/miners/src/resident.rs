//! Mining *into* and answering *from* a resident memo — the library half
//! of the query-serving layer's cross-query reuse.
//!
//! A [`ResidentLattice`] is the frequent lattice of one dataset mined once
//! at a **basis** threshold, retained together with every kept candidate's
//! raw engine statistics ([`RetainedRecord`]). Because each measure's
//! keep-set shrinks monotonically as its threshold tightens (the same
//! anti-monotonicity that drives Apriori pruning, here applied along the
//! *parameter* axis), any query whose parameters are **covered** by the
//! basis — `t' ≥ t₀` in the measure's own threshold geometry — is answered
//! by re-judging the retained records: zero database scans, zero tid-list
//! intersections, and records **bit-identical** to a cold [`MatrixMiner`]
//! run at the query parameters (the engine statistics of a candidate do not
//! depend on the threshold, and `judge` is a pure function of those
//! statistics).
//!
//! Coverage per measure kind (same dataset, `n` transactions):
//!
//! | measure | basis mined at | covers query iff |
//! |---|---|---|
//! | `esup` | `N·min_sup₀` | `N·min_sup' ≥ N·min_sup₀` (pft ignored) |
//! | `poisson` | `λ*(msup₀, pft₀)` | `λ*' ≥ λ*₀` (infeasible `λ*'` ⇒ empty) |
//! | `normal` | `(msup₀, pft₀)` | `msup' ≥ msup₀ ∧ pft' ≥ pft₀` |
//! | `exact-dp`/`dc` | `(msup₀, pft₀)` | `msup' ≥ msup₀ ∧ pft' ≥ pft₀` |
//!
//! Queries *below* the basis are not answerable from residency; the serving
//! layer re-mines at the lower threshold (capturing again) and swaps the
//! resident snapshot — a memo *extension*. The lattice itself is an
//! immutable snapshot, which is what makes sharing it across concurrent
//! queries trivially safe.

use crate::common::measure::{
    mine_level_wise_captured, FrequentnessMeasure, PoissonApprox, RetainedRecord,
};
use crate::matrix::{MatrixMiner, MeasureUse};
use ufim_core::prelude::*;

/// The basis threshold of a resident lattice, in the owning measure's own
/// geometry (see the module table).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Basis {
    /// `esup` / `poisson`: a derived expected-support cut, in transactions.
    /// `None` for a Poisson basis whose `λ*` was infeasible (empty lattice).
    EsupCut(Option<f64>),
    /// `normal` / exact kernels: the `(msup, pft)` pair.
    MsupPft(usize, f64),
}

/// One dataset's frequent lattice mined at the lowest threshold seen,
/// retained for warm answers at every covered threshold.
pub struct ResidentLattice {
    measure: MeasureKind,
    engine: EngineKind,
    n: usize,
    basis: Basis,
    records: Vec<RetainedRecord>,
    bytes: u64,
}

/// Builds the measure for one `(kind, params)` cell through
/// [`MatrixMiner`]'s own constructor (Chernoff screening on — the default
/// `B` variants). `Ok(None)` is the Poisson-infeasible case: the cold
/// answer is empty without mining anything.
///
/// The serving layer judges non-resident probe itemsets through this exact
/// recipe so probe verdicts agree with full mines at the same parameters.
///
/// # Errors
/// Propagates parameter validation from the measure constructors.
pub fn boxed_measure(
    kind: MeasureKind,
    n: usize,
    params: &MiningParams,
) -> Result<Option<Box<dyn FrequentnessMeasure + Send + Sync>>, CoreError> {
    struct Boxed;
    impl MeasureUse for Boxed {
        type Output = Box<dyn FrequentnessMeasure + Send + Sync>;
        fn apply<M: FrequentnessMeasure + Send + Sync + 'static>(self, m: M) -> Self::Output {
            Box::new(m)
        }
    }
    MatrixMiner::new(kind, TraversalKind::LevelWise).with_measure(n, params, Boxed)
}

/// Mines level-wise with a cell's measure, capturing the kept candidates'
/// statistics and the measure's expected-support cut, if it is one.
struct Capture<'a> {
    db: &'a UncertainDatabase,
    engine: EngineKind,
}

impl MeasureUse for Capture<'_> {
    type Output = (Option<f64>, MiningResult, Vec<RetainedRecord>);
    fn apply<M: FrequentnessMeasure + Send + Sync + 'static>(self, m: M) -> Self::Output {
        let cut = m.as_esup_threshold();
        let (result, records) = mine_level_wise_captured(self.db, m, self.engine);
        (cut, result, records)
    }
}

impl ResidentLattice {
    /// Cold-mines `db` at `params` on the level-wise traversal, capturing
    /// the kept candidates' statistics, and returns the resident lattice
    /// plus the cold result (bit-identical to [`MatrixMiner`] at the same
    /// cell).
    ///
    /// # Errors
    /// Propagates parameter validation from the measure constructors.
    pub fn mine(
        db: &UncertainDatabase,
        measure: MeasureKind,
        engine: EngineKind,
        params: &MiningParams,
    ) -> Result<(ResidentLattice, MiningResult), CoreError> {
        let n = db.num_transactions();
        let (basis, result, records) = if db.is_empty() {
            // Mirror MatrixMiner: an empty database mines to nothing.
            let basis = match measure {
                MeasureKind::ExpectedSupport | MeasureKind::Poisson => Basis::EsupCut(Some(0.0)),
                _ => Basis::MsupPft(params.msup(n), params.pft.get()),
            };
            (basis, MiningResult::default(), Vec::new())
        } else {
            let cell = MatrixMiner::new(measure, TraversalKind::LevelWise);
            match cell.with_measure(n, params, Capture { db, engine })? {
                // Poisson-infeasible λ*: nothing can qualify.
                None => (Basis::EsupCut(None), MiningResult::default(), Vec::new()),
                Some((Some(cut), r, recs)) => (Basis::EsupCut(Some(cut)), r, recs),
                Some((None, r, recs)) => {
                    (Basis::MsupPft(params.msup(n), params.pft.get()), r, recs)
                }
            }
        };
        let bytes = records.iter().map(RetainedRecord::mem_bytes).sum::<u64>()
            + std::mem::size_of::<ResidentLattice>() as u64;
        let lattice = ResidentLattice {
            measure,
            engine,
            n,
            basis,
            records,
            bytes,
        };
        Ok((lattice, result))
    }

    /// The measure kind this lattice was mined under.
    pub fn measure(&self) -> MeasureKind {
        self.measure
    }

    /// The support engine this lattice was mined on.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// The transaction count of the dataset at mining time.
    pub fn num_transactions(&self) -> usize {
        self.n
    }

    /// Number of retained records (= frequent itemsets at the basis).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the basis answer was empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Approximate resident weight, the LRU budget currency (same
    /// accounting spirit as [`MinerStats::peak_memo_bytes`]).
    pub fn mem_bytes(&self) -> u64 {
        self.bytes
    }

    /// The retained record of `itemset`, if it was frequent at the basis.
    pub fn lookup(&self, itemset: &Itemset) -> Option<&RetainedRecord> {
        self.records.iter().find(|r| &r.itemset == itemset)
    }

    /// Whether a query at `params` over a database of `n` transactions is
    /// answerable from this lattice (see the module coverage table).
    pub fn covers(&self, n: usize, params: &MiningParams) -> Result<bool, CoreError> {
        if n != self.n {
            return Ok(false);
        }
        Ok(match (self.measure, self.basis) {
            (MeasureKind::ExpectedSupport, Basis::EsupCut(Some(cut))) => {
                params.min_sup.threshold_real(n) >= cut
            }
            (MeasureKind::Poisson, Basis::EsupCut(basis)) => {
                match (PoissonApprox::from_params(n, params)?, basis) {
                    // Infeasible λ*': the cold answer is empty — always
                    // answerable regardless of the basis.
                    (None, _) => true,
                    (Some(_), None) => false,
                    (Some(q), Some(cut)) => q.threshold() >= cut,
                }
            }
            (_, Basis::MsupPft(msup0, pft0)) => params.msup(n) >= msup0 && params.pft.get() >= pft0,
            _ => false,
        })
    }

    /// Answers a covered query by re-judging the retained records —
    /// `None` if [`covers`](Self::covers) fails. The returned records are
    /// canonicalized (sorted by itemset) and bit-identical to a cold
    /// level-wise [`MatrixMiner`] mine at
    /// `params` (canonicalized likewise); the stats show the warm cost:
    /// zero scans, zero intersections, `candidates_evaluated` = retained
    /// record count.
    ///
    /// # Errors
    /// Propagates parameter validation from the measure constructors.
    pub fn answer(
        &self,
        n: usize,
        params: &MiningParams,
    ) -> Result<Option<MiningResult>, CoreError> {
        if !self.covers(n, params)? {
            return Ok(None);
        }
        let mut result = MiningResult::default();
        result.stats.candidates_evaluated = self.records.len() as u64;
        // Poisson-infeasible query: the cold answer is empty.
        if let Some(m) = boxed_measure(self.measure, n, params)? {
            for rec in &self.records {
                if let Some(fi) = rec.rejudge(&*m, &mut result.stats) {
                    result.itemsets.push(fi);
                }
            }
        }
        result.canonicalize();
        Ok(Some(result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixMiner;
    use ufim_core::examples::paper_table1;

    fn cold(
        measure: MeasureKind,
        engine: EngineKind,
        db: &UncertainDatabase,
        p: &MiningParams,
    ) -> MiningResult {
        let mut r = MatrixMiner::new(measure, TraversalKind::LevelWise)
            .mine_probabilistic(db, p.with_engine(engine))
            .unwrap();
        r.canonicalize();
        r
    }

    #[test]
    fn warm_answers_match_cold_mines_bit_for_bit() {
        let db = paper_table1();
        let basis = MiningParams::new(0.25, 0.3).unwrap();
        for measure in MeasureKind::ALL {
            for engine in EngineKind::ALL {
                let (lat, _) = ResidentLattice::mine(&db, measure, engine, &basis).unwrap();
                for (ms, pft) in [(0.25, 0.3), (0.5, 0.5), (0.5, 0.7), (0.75, 0.9)] {
                    let q = MiningParams::new(ms, pft).unwrap();
                    assert!(lat.covers(db.num_transactions(), &q).unwrap());
                    let warm = lat.answer(db.num_transactions(), &q).unwrap().unwrap();
                    assert_eq!(warm.stats.intersections, 0, "{measure}×{engine}");
                    assert_eq!(warm.stats.scans, 0, "{measure}×{engine}");
                    let want = cold(measure, engine, &db, &q);
                    assert_eq!(
                        warm.itemsets, want.itemsets,
                        "{measure}×{engine} at ({ms},{pft})"
                    );
                }
            }
        }
    }

    #[test]
    fn uncovered_queries_are_refused() {
        let db = paper_table1();
        let basis = MiningParams::new(0.5, 0.7).unwrap();
        let (lat, _) = ResidentLattice::mine(
            &db,
            MeasureKind::ExpectedSupport,
            EngineKind::default(),
            &basis,
        )
        .unwrap();
        let lower = MiningParams::new(0.25, 0.7).unwrap();
        let n = db.num_transactions();
        assert!(!lat.covers(n, &lower).unwrap());
        assert!(lat.answer(n, &lower).unwrap().is_none());
        // A different database size is never covered.
        assert!(!lat.covers(n + 1, &basis).unwrap());
    }

    #[test]
    fn mine_returns_the_cold_result_and_retains_its_records() {
        let db = paper_table1();
        let p = MiningParams::new(0.5, 0.7).unwrap();
        let (lat, mut mined) =
            ResidentLattice::mine(&db, MeasureKind::ExpectedSupport, EngineKind::default(), &p)
                .unwrap();
        let want = cold(MeasureKind::ExpectedSupport, EngineKind::default(), &db, &p);
        mined.canonicalize();
        assert_eq!(mined.itemsets, want.itemsets);
        assert_eq!(lat.len(), want.len());
        assert!(lat.mem_bytes() > 0);
        for fi in &want.itemsets {
            let rec = lat.lookup(&fi.itemset).unwrap();
            assert_eq!(rec.esup, fi.expected_support);
        }
        assert!(lat.lookup(&Itemset::from_items([0, 1, 2])).is_none());
    }

    #[test]
    fn poisson_infeasible_queries_answer_empty() {
        let db = paper_table1();
        let basis = MiningParams::new(0.25, 0.3).unwrap();
        let (lat, _) =
            ResidentLattice::mine(&db, MeasureKind::Poisson, EngineKind::default(), &basis)
                .unwrap();
        // min_sup 1.0 at pft 0.99 pushes λ* past N: cold answer is empty.
        let q = MiningParams::new(1.0, 0.99).unwrap();
        let n = db.num_transactions();
        assert!(lat.covers(n, &q).unwrap());
        let warm = lat.answer(n, &q).unwrap().unwrap();
        assert!(warm.is_empty());
        assert_eq!(
            warm.itemsets,
            cold(MeasureKind::Poisson, EngineKind::default(), &db, &q).itemsets
        );
    }
}
