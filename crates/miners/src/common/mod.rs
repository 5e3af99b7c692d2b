//! Shared mining substrate: the "common basic operations" every algorithm in
//! the paper's uniform framework is built from.

pub mod apriori;
pub mod engine;
pub mod incremental;
pub mod measure;
pub mod order;
pub mod scan;
pub mod trie;

pub use apriori::{run_apriori, LevelEvaluator};
pub use engine::{
    build_engine, HorizontalScan, LevelSupport, StatRequest, SupportEngine, VerticalEngine,
};
pub use incremental::{BorderTracker, IncrementalMiner};
pub use measure::{
    mine_level_wise, mine_level_wise_captured, mine_level_wise_with_plan, CandidateStats,
    ExactKernel, ExactMeasure, ExpectedSupport, FrequentnessMeasure, Judgment, MeasureEvaluator,
    NormalApprox, PoissonApprox, RetainedRecord, Screen, StatNeeds,
};
pub use order::FrequencyOrder;
pub use scan::LevelScan;
pub use trie::CandidateTrie;
