//! # ufim-core
//!
//! Core data model for **frequent itemset mining over uncertain databases**,
//! the shared foundation of this workspace's reproduction of
//! *Tong, Chen, Cheng, Yu: "Mining Frequent Itemsets over Uncertain
//! Databases", PVLDB 5(11), 2012*.
//!
//! An *uncertain transaction database* is a list of transactions in which
//! every item carries an independent existence probability. The number of
//! transactions that actually contain an itemset `X` is therefore a random
//! variable `sup(X)` following a Poisson-Binomial distribution, and the paper
//! studies two frequency semantics built on it:
//!
//! * **expected support** — `esup(X) = Σ_t P_t(X)` (Definitions 1–2), and
//! * **frequent probability** — `Pr{sup(X) ≥ ⌈N·min_sup⌉}` (Definitions 3–4).
//!
//! This crate provides the types every algorithm crate shares:
//!
//! * [`UncertainDatabase`] / [`Transaction`] — the probabilistic data model
//!   (horizontal layout),
//! * [`VerticalIndex`] / [`ProbVector`] — the columnar (tid-list) layout
//!   behind the vertical support engine,
//! * [`WindowedDatabase`] / [`WindowStep`] — sliding-window ingest with
//!   per-slot tid deltas (the streaming seam),
//! * [`Itemset`] — a sorted, duplicate-free set of item ids,
//! * [`MiningParams`], [`Ratio`], [`EngineKind`] — validated threshold
//!   parameters and the support-backend selector,
//! * [`FrequentItemset`], [`MiningResult`], [`MinerStats`] — outputs,
//! * [`ExpectedSupportMiner`] / [`ProbabilisticMiner`] — the two algorithm
//!   interfaces corresponding to the paper's two definitions,
//! * [`hash`] — a fast FxHash-style hasher used throughout the workspace,
//! * [`parallel`] — data-parallel helpers over the persistent
//!   work-stealing pool (`vendor/workpool`): ordered maps for the support
//!   engines plus nested task spawning for the depth-first traversals.
//!
//! The worked example from the paper (its Table 1) ships as
//! [`examples::paper_table1`] and is pinned by tests across the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod database;
pub mod error;
pub mod examples;
pub mod hash;
pub mod itemset;
pub mod parallel;
pub mod params;
pub mod resident;
pub mod result;
pub mod traits;
pub mod transaction;
pub mod vertical;
pub mod vocab;
pub mod window;

pub use database::{DatabaseStats, UncertainDatabase, UncertainDatabaseBuilder};
pub use error::CoreError;
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use itemset::{ItemId, Itemset, MAX_ITEM_ID};
pub use params::{EngineKind, MeasureKind, MiningParams, Ratio, TraversalKind};
pub use resident::{ResidentLru, ResidentStats};
pub use result::{FrequentItemset, MinerStats, MiningResult};
pub use traits::{ExpectedSupportMiner, MinerInfo, ProbabilisticMiner};
pub use transaction::Transaction;
pub use vertical::{BlockMoments, DiffVector, ProbVector, ScratchSpace, VerticalIndex};
pub use vocab::Vocabulary;
pub use window::{DirtySlot, StepProbe, WindowStep, WindowedDatabase};

/// Convenient glob-import for downstream crates:
/// `use ufim_core::prelude::*;`
pub mod prelude {
    pub use crate::database::{DatabaseStats, UncertainDatabase, UncertainDatabaseBuilder};
    pub use crate::error::CoreError;
    pub use crate::hash::{FxHashMap, FxHashSet};
    pub use crate::itemset::{ItemId, Itemset, MAX_ITEM_ID};
    pub use crate::params::{EngineKind, MeasureKind, MiningParams, Ratio, TraversalKind};
    pub use crate::resident::{ResidentLru, ResidentStats};
    pub use crate::result::{FrequentItemset, MinerStats, MiningResult};
    pub use crate::traits::{ExpectedSupportMiner, MinerInfo, ProbabilisticMiner};
    pub use crate::transaction::Transaction;
    pub use crate::vertical::{BlockMoments, DiffVector, ProbVector, ScratchSpace, VerticalIndex};
    pub use crate::vocab::Vocabulary;
    pub use crate::window::{DirtySlot, StepProbe, WindowStep, WindowedDatabase};
}
