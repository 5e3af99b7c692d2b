//! The cross-query memo: resident frequent lattices keyed by
//! `(dataset, measure, engine)`, shared by every concurrent query.
//!
//! Each entry is a [`ResidentLattice`] mined at the lowest threshold seen
//! so far for its key. A query whose parameters the basis covers is
//! answered warm — retained records re-judged, zero intersections; a query
//! below the basis re-mines cold at the query parameters and swaps the
//! snapshot in (an *extension*, since the new basis covers strictly more).
//! Residency is bounded by the [`ResidentLru`] byte budget.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ufim_core::prelude::*;
use ufim_miners::resident::ResidentLattice;

/// The memo cache key: one resident lattice per dataset × measure × engine
/// cell. Results are only bit-reusable within a cell — engines agree to
/// 1e-9, not bit-exactly, so they never share an entry.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// Resident dataset name.
    pub dataset: String,
    /// Frequentness measure of the cell.
    pub measure: MeasureKind,
    /// Support engine of the cell.
    pub engine: EngineKind,
}

/// How the memo satisfied one query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemoOutcome {
    /// Answered from the resident lattice (zero intersections).
    Hit,
    /// No resident lattice: cold mine, snapshot installed.
    Miss,
    /// Resident lattice did not cover the query: cold re-mine at the lower
    /// threshold, snapshot swapped.
    Extend,
}

impl MemoOutcome {
    /// Stable lower-case label for responses and logs.
    pub fn name(self) -> &'static str {
        match self {
            MemoOutcome::Hit => "memo",
            MemoOutcome::Miss => "cold",
            MemoOutcome::Extend => "extend",
        }
    }
}

/// Aggregate memo counters (monotonic; sampled by `stats` responses).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoCounters {
    /// Queries answered warm from a resident lattice.
    pub hits: u64,
    /// Queries that cold-mined because nothing was resident.
    pub misses: u64,
    /// Queries that re-mined below the resident basis and swapped it.
    pub extends: u64,
    /// Resident lattices evicted to keep the byte budget.
    pub evictions: u64,
}

/// The shared cross-query memo.
pub struct ResidentMemo {
    cache: ResidentLru<MemoKey, ResidentLattice>,
    hits: AtomicU64,
    misses: AtomicU64,
    extends: AtomicU64,
}

impl ResidentMemo {
    /// An empty memo bounded by `budget_bytes` of retained-lattice weight.
    pub fn new(budget_bytes: u64) -> Self {
        ResidentMemo {
            cache: ResidentLru::new(budget_bytes),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            extends: AtomicU64::new(0),
        }
    }

    /// Answers a level-wise mining query through the memo: warm when the
    /// resident basis covers `params`, otherwise a cold capture-mine that
    /// installs (miss) or swaps (extension) the resident snapshot. The
    /// returned result is canonicalized either way, so identical parameters
    /// always produce identical bytes regardless of temperature.
    ///
    /// # Errors
    /// Propagates parameter validation from the measure constructors.
    pub fn answer(
        &self,
        dataset: &str,
        db: &UncertainDatabase,
        measure: MeasureKind,
        engine: EngineKind,
        params: &MiningParams,
    ) -> Result<(MiningResult, MemoOutcome), CoreError> {
        let key = MemoKey {
            dataset: dataset.to_string(),
            measure,
            engine,
        };
        let n = db.num_transactions();
        let resident = self.cache.get(&key);
        if let Some(lattice) = &resident {
            if let Some(warm) = lattice.answer(n, params)? {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((warm, MemoOutcome::Hit));
            }
        }
        let (lattice, mut cold) = ResidentLattice::mine(db, measure, engine, params)?;
        let bytes = lattice.mem_bytes();
        self.cache.insert(key, lattice, bytes);
        cold.canonicalize();
        let outcome = if resident.is_some() {
            self.extends.fetch_add(1, Ordering::Relaxed);
            MemoOutcome::Extend
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            MemoOutcome::Miss
        };
        Ok((cold, outcome))
    }

    /// The resident lattice covering a probe at `params`, if any; counts a
    /// hit when covered, a miss otherwise (probes never mine).
    ///
    /// # Errors
    /// Propagates parameter validation from the coverage check.
    pub fn covering_lattice(
        &self,
        key: &MemoKey,
        n: usize,
        params: &MiningParams,
    ) -> Result<Option<Arc<ResidentLattice>>, CoreError> {
        if let Some(lattice) = self.cache.get(key) {
            if lattice.covers(n, params)? {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Some(lattice));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(None)
    }

    /// A snapshot of the hit/miss/extend/eviction counters.
    pub fn counters(&self) -> MemoCounters {
        MemoCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            extends: self.extends.load(Ordering::Relaxed),
            evictions: self.cache.stats().evictions,
        }
    }

    /// Number of resident lattices.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.cache.len() == 0
    }

    /// Declared weight of all resident lattices, in bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.cache.resident_bytes()
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.cache.budget_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufim_core::examples::paper_table1;

    #[test]
    fn miss_then_hit_then_extend() {
        let memo = ResidentMemo::new(1 << 20);
        let db = paper_table1();
        let m = MeasureKind::ExpectedSupport;
        let e = EngineKind::default();
        let p = |ms: f64| MiningParams::new(ms, 0.7).unwrap();

        let (cold, o) = memo.answer("t1", &db, m, e, &p(0.5)).unwrap();
        assert_eq!(o, MemoOutcome::Miss);
        assert!(!cold.is_empty());

        // Same threshold again: warm, bit-identical, zero intersections.
        let (warm, o) = memo.answer("t1", &db, m, e, &p(0.5)).unwrap();
        assert_eq!(o, MemoOutcome::Hit);
        assert_eq!(warm.itemsets, cold.itemsets);
        assert_eq!(warm.stats.intersections, 0);

        // Higher threshold: still warm (subset answer).
        let (_, o) = memo.answer("t1", &db, m, e, &p(0.75)).unwrap();
        assert_eq!(o, MemoOutcome::Hit);

        // Lower threshold: extension; afterwards the old basis is warm.
        let (_, o) = memo.answer("t1", &db, m, e, &p(0.25)).unwrap();
        assert_eq!(o, MemoOutcome::Extend);
        let (_, o) = memo.answer("t1", &db, m, e, &p(0.5)).unwrap();
        assert_eq!(o, MemoOutcome::Hit);

        assert_eq!(
            memo.counters(),
            MemoCounters {
                hits: 3,
                misses: 1,
                extends: 1,
                evictions: 0,
            }
        );
        assert_eq!(memo.len(), 1);
        assert!(memo.resident_bytes() > 0);
    }

    #[test]
    fn keys_isolate_engines_and_measures() {
        let memo = ResidentMemo::new(1 << 20);
        let db = paper_table1();
        let p = MiningParams::new(0.5, 0.7).unwrap();
        for e in EngineKind::ALL {
            let (_, o) = memo
                .answer("t1", &db, MeasureKind::ExpectedSupport, e, &p)
                .unwrap();
            assert_eq!(o, MemoOutcome::Miss, "{e}");
        }
        let (_, o) = memo
            .answer("t1", &db, MeasureKind::Normal, EngineKind::default(), &p)
            .unwrap();
        assert_eq!(o, MemoOutcome::Miss);
        assert_eq!(memo.len(), EngineKind::ALL.len() + 1);
    }
}
