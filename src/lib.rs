//! # uncertain-fim
//!
//! Facade crate for the workspace reproducing *Tong, Chen, Cheng, Yu:
//! "Mining Frequent Itemsets over Uncertain Databases", PVLDB 5(11), 2012*.
//!
//! Re-exports the five member crates under stable module names so that
//! downstream users (and this repo's examples and integration tests) need a
//! single dependency:
//!
//! * [`core`] — data model: [`core::UncertainDatabase`], [`core::Itemset`],
//!   miner traits, results, plus the columnar layout
//!   ([`core::VerticalIndex`], [`core::ProbVector`]) and the
//!   [`core::EngineKind`] backend selector;
//! * [`stats`] — Poisson-Binomial support distributions, FFT, Normal /
//!   Poisson approximations, Chernoff bounds;
//! * [`data`] — dataset generators (Connect/Accident/Kosarak/Gazelle analogs,
//!   IBM-Quest synthetic), probability assignment (Gaussian, Zipf), FIMI I/O;
//! * [`miners`] — the eight algorithms of the paper plus a brute-force
//!   oracle;
//! * [`metrics`] — measurement utilities (peak-memory tracking allocator,
//!   timers, precision/recall);
//! * [`serve`] — the concurrent query server: resident datasets, the
//!   cross-query memo ([`serve::ResidentMemo`]), and the line-JSON
//!   protocol ([`serve::ServeCore`] in-process, [`serve::TcpServer`] over
//!   a socket).
//!
//! ## Quickstart
//!
//! ```
//! use uncertain_fim::prelude::*;
//!
//! // The paper's Table 1 micro-database.
//! let db = uncertain_fim::core::examples::paper_table1();
//!
//! // Definition 2: expected-support-based frequent itemsets.
//! let esup_result = Algorithm::UApriori
//!     .mine_expected_ratio(&db, 0.5)
//!     .unwrap();
//! assert_eq!(esup_result.len(), 2); // {A} and {C} — Example 1
//!
//! // Definition 4: probabilistic frequent itemsets (exact, DC + Chernoff).
//! let prob_result = Algorithm::DCB
//!     .mine_probabilistic_raw(&db, 0.5, 0.7)
//!     .unwrap();
//! assert!(prob_result.len() >= 1);
//! ```
//!
//! ## The measure × traversal × engine matrix
//!
//! The paper's taxonomy is two-dimensional — a *frequentness measure*
//! (expected support, Poisson/Normal approximations, exact DP/DC) crossed
//! with a *traversal* (level-wise Apriori, depth-first UH-Struct, UFP-tree
//! growth). Every [`miners::Algorithm`] is a named cell of that grid;
//! `MatrixMiner` runs **any** cell, including combinations the paper never built:
//!
//! ```
//! use uncertain_fim::core::{MeasureKind, TraversalKind};
//! use uncertain_fim::miners::MatrixMiner;
//! use uncertain_fim::prelude::*;
//!
//! let db = uncertain_fim::core::examples::paper_table1();
//!
//! // Exact dynamic programming judged on UH-Mine's depth-first walk —
//! // same answers as DPB, different exploration strategy.
//! let cell = MatrixMiner::new(MeasureKind::ExactDp, TraversalKind::HyperStructure);
//! let novel = cell.mine_probabilistic_raw(&db, 0.5, 0.7).unwrap();
//! let dpb = Algorithm::DPB.mine_probabilistic_raw(&db, 0.5, 0.7).unwrap();
//! assert_eq!(novel.sorted_itemsets(), dpb.sorted_itemsets());
//!
//! // The one principled hole: UFP-tree nodes aggregate transactions, so
//! // exact measures (which need per-transaction probability vectors)
//! // cannot run on tree growth.
//! let hole = MatrixMiner::new(MeasureKind::ExactDp, TraversalKind::TreeGrowth);
//! assert!(hole.mine_probabilistic_raw(&db, 0.5, 0.7).is_err());
//! ```
//!
//! ## Support backends
//!
//! The Apriori-framework miners (UApriori, PDUApriori, NDUApriori and the
//! exact DP/DC family) compute per-candidate support statistics through a
//! pluggable engine selected by [`core::EngineKind`]:
//!
//! * `Horizontal` (default) — trie-guided scans over the transaction list,
//!   one pass per level (the paper's layout);
//! * `Vertical` — a columnar tid-list index built in one pass, after which
//!   each candidate costs one intersection of its prefix's memoized
//!   probability vector with the last item's postings (U-Eclat);
//! * `Diffset` — the dEclat analog of `Vertical`, optimized for peak
//!   memory: the prefix memo stores deltas (the tids each extension
//!   dropped) instead of whole vectors, trading some reconstruction time
//!   for a much smaller memo on dense data.
//!
//! All three are observationally identical; see
//! `tests/engine_equivalence.rs`.
//!
//! ```
//! use uncertain_fim::core::EngineKind;
//! use uncertain_fim::prelude::*;
//!
//! let db = uncertain_fim::core::examples::paper_table1();
//! // Every algorithm takes the selector through its params; the
//! // expected-support group reads `min_sup` as `min_esup`.
//! let params = MiningParams::new(0.5, 0.7)
//!     .unwrap()
//!     .with_engine(EngineKind::Vertical);
//! let v = Algorithm::UApriori.mine_probabilistic(&db, params).unwrap();
//! assert_eq!(v.len(), 2); // same answer
//! // Two database passes in all: the index build and the level-2 pair pass.
//! assert_eq!(v.stats.scans, 2);
//! assert!(!Algorithm::DCB.mine_probabilistic(&db, params).unwrap().is_empty());
//! ```

#![forbid(unsafe_code)]

pub use ufim_core as core;
pub use ufim_data as data;
pub use ufim_metrics as metrics;
pub use ufim_miners as miners;
pub use ufim_serve as serve;
pub use ufim_stats as stats;

/// One-stop imports for applications.
pub mod prelude {
    pub use ufim_core::prelude::*;
    pub use ufim_miners::prelude::*;
}
