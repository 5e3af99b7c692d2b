//! # ufim-data
//!
//! Dataset substrate for the uncertain frequent itemset mining study
//! (Tong et al., VLDB 2012, §4.1).
//!
//! The paper evaluates on five deterministic benchmarks — Connect, Accident,
//! Kosarak, Gazelle (FIMI repository) and the synthetic T25I15D320k — with
//! existence probabilities assigned per item from a Gaussian or Zipf model.
//! The FIMI files are not redistributable, so this crate generates
//! **structure-matched synthetic analogs**: each generator reproduces the
//! published shape of its namesake (Table 6: transaction count, vocabulary,
//! average length, density) and its qualitative item-popularity profile
//! (dense game-state grid for Connect, mixed popularity for Accident,
//! power-law clickstream for Kosarak, short sparse baskets for Gazelle).
//! The substitution preserves exactly the properties the paper's conclusions
//! depend on — density, scale, probability distribution.
//!
//! Contents:
//!
//! * [`deterministic`] — the intermediate deterministic database type;
//! * [`benchmarks`] — the four FIMI-analog generators;
//! * [`quest`] — an IBM Quest-style synthetic generator (`T25I15D320k`);
//! * [`prob`] — probability-assignment models (Gaussian, Zipf levels,
//!   uniform, constant) turning deterministic data into uncertain data;
//! * [`registry`] — one enum tying each benchmark to its Table 6 shape and
//!   Table 7 default parameters;
//! * [`fimi`] — reader/writer for FIMI files and the `item:prob` uncertain
//!   extension.
//!
//! Everything is seeded and deterministic: the same `(generator, scale,
//! seed)` triple always produces the same database.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmarks;
pub mod deterministic;
pub mod fimi;
pub mod prob;
pub mod quest;
pub mod registry;
pub mod stats;

pub use deterministic::DeterministicDatabase;
pub use prob::{assign_probabilities, ProbabilityModel};
pub use quest::QuestConfig;
pub use registry::{Benchmark, BenchmarkDefaults, PaperShape};
