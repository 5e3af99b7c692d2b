//! Validated mining parameters.
//!
//! All three thresholds of the paper — `min_esup` (Definition 2), `min_sup`
//! (Definition 3) and `pft` (Definition 4) — are ratios in `(0, 1]`.
//! [`Ratio`] enforces that once, at the API boundary, so the miners never
//! re-validate. [`MiningParams`] bundles the probabilistic pair and
//! precomputes the integer support threshold `msup = ⌈N · min_sup⌉`.

use crate::error::CoreError;

/// Which support-computation backend an Apriori-framework miner runs on.
///
/// The miners crate implements one `SupportEngine` per variant; this enum is
/// the *selector* that travels through parameters, registries and the bench
/// harness. The backends are observationally equivalent (same itemsets,
/// same statistics to fp precision) and differ only in data layout and cost:
///
/// * [`EngineKind::Horizontal`] — the paper's layout: one trie-guided scan
///   over the transaction list per level (the reference backend);
/// * [`EngineKind::Vertical`] — columnar tid-lists
///   ([`crate::vertical::VerticalIndex`]): one database pass up front, then
///   each candidate costs one sorted-merge intersection of its prefix's
///   memoized [`crate::vertical::ProbVector`] with the last item's postings;
/// * [`EngineKind::Diffset`] — the dEclat analog of the vertical backend:
///   the prefix memo stores [`crate::vertical::DiffVector`] deltas (the
///   tids each extension dropped) instead of whole vectors, cutting memo
///   memory on dense data where almost every tid survives. Each memo node
///   adaptively keeps whichever of tidset/diffset is smaller.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Trie-guided horizontal database scans (reference backend).
    #[default]
    Horizontal,
    /// Columnar tid-list intersection (U-Eclat style).
    Vertical,
    /// Columnar delta-memo intersection (dEclat style, memory-optimized).
    Diffset,
}

impl EngineKind {
    /// Every backend, in presentation order.
    pub const ALL: [EngineKind; 3] = [
        EngineKind::Horizontal,
        EngineKind::Vertical,
        EngineKind::Diffset,
    ];

    /// Stable lower-case name (used by CLIs and reports).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Horizontal => "horizontal",
            EngineKind::Vertical => "vertical",
            EngineKind::Diffset => "diffset",
        }
    }

    /// Parses a case-insensitive backend name.
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s.to_ascii_lowercase().as_str() {
            "horizontal" | "h" | "scan" => Some(EngineKind::Horizontal),
            "vertical" | "v" | "tidlist" | "eclat" => Some(EngineKind::Vertical),
            "diffset" | "d" | "diff" | "declat" => Some(EngineKind::Diffset),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which *frequentness measure* judges whether a candidate itemset is
/// frequent — the first axis of the paper's taxonomy (Definition 2 vs.
/// Definition 4, exactly or approximately).
///
/// This enum is the cheap *selector*; the judgment logic itself lives behind
/// the `FrequentnessMeasure` trait in the miners crate. Crossing a selector
/// with a [`TraversalKind`] and an [`EngineKind`] names one cell of the
/// measure × traversal × engine matrix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MeasureKind {
    /// Definition 2: `esup(X) ≥ N · min_sup` (UApriori, UFP-growth, UH-Mine).
    #[default]
    ExpectedSupport,
    /// Poisson (Le Cam) approximation of Definition 4, folded into an
    /// expected-support threshold `λ*` (PDUApriori). Membership only — no
    /// frequent probabilities are reported.
    Poisson,
    /// Normal (CLT) approximation of Definition 4 from `(esup, Var)`
    /// (NDUApriori, NDUH-Mine).
    Normal,
    /// Exact Definition 4 via `O(N·msup)` dynamic programming (DP miners).
    ExactDp,
    /// Exact Definition 4 via divide-and-conquer + FFT (DC miners).
    ExactDc,
}

impl MeasureKind {
    /// Every measure, in presentation order (paper §3.1 → §3.2 → §3.3).
    pub const ALL: [MeasureKind; 5] = [
        MeasureKind::ExpectedSupport,
        MeasureKind::Poisson,
        MeasureKind::Normal,
        MeasureKind::ExactDp,
        MeasureKind::ExactDc,
    ];

    /// Stable lower-case name (used by CLIs and reports).
    pub fn name(self) -> &'static str {
        match self {
            MeasureKind::ExpectedSupport => "esup",
            MeasureKind::Poisson => "poisson",
            MeasureKind::Normal => "normal",
            MeasureKind::ExactDp => "exact-dp",
            MeasureKind::ExactDc => "exact-dc",
        }
    }

    /// True for the exact Definition 4 measures.
    pub fn is_exact(self) -> bool {
        matches!(self, MeasureKind::ExactDp | MeasureKind::ExactDc)
    }

    /// Parses a case-insensitive measure name.
    pub fn parse(s: &str) -> Option<MeasureKind> {
        let norm: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        Some(match norm.as_str() {
            "esup" | "expectedsupport" | "expected" => MeasureKind::ExpectedSupport,
            "poisson" => MeasureKind::Poisson,
            "normal" => MeasureKind::Normal,
            "exactdp" | "dp" => MeasureKind::ExactDp,
            "exactdc" | "dc" => MeasureKind::ExactDc,
            _ => return None,
        })
    }
}

impl std::fmt::Display for MeasureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which *exploration strategy* enumerates the itemset lattice — the second
/// axis of the paper's taxonomy (level-wise generate-and-test vs. depth-first
/// pattern growth).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TraversalKind {
    /// Breadth-first Apriori scaffold over a pluggable [`EngineKind`]
    /// support backend (UApriori framework).
    #[default]
    LevelWise,
    /// Depth-first walk over the UH-Struct pointer arena + head tables
    /// (UH-Mine framework). Supplies per-transaction probability vectors,
    /// so every measure runs on it.
    HyperStructure,
    /// Depth-first divide-and-conquer over a UFP-tree (UFP-growth
    /// framework). Tree nodes aggregate transactions, so only measures that
    /// judge from `(esup, Var, count)` run on it — not the exact ones.
    TreeGrowth,
}

impl TraversalKind {
    /// Every traversal, in presentation order.
    pub const ALL: [TraversalKind; 3] = [
        TraversalKind::LevelWise,
        TraversalKind::HyperStructure,
        TraversalKind::TreeGrowth,
    ];

    /// Stable lower-case name (used by CLIs and reports).
    pub fn name(self) -> &'static str {
        match self {
            TraversalKind::LevelWise => "level-wise",
            TraversalKind::HyperStructure => "hyper",
            TraversalKind::TreeGrowth => "tree",
        }
    }

    /// Parses a case-insensitive traversal name.
    pub fn parse(s: &str) -> Option<TraversalKind> {
        let norm: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        Some(match norm.as_str() {
            "levelwise" | "apriori" | "bfs" => TraversalKind::LevelWise,
            "hyper" | "hyperstructure" | "uhmine" | "uhstruct" => TraversalKind::HyperStructure,
            "tree" | "treegrowth" | "ufptree" | "fpgrowth" => TraversalKind::TreeGrowth,
            _ => return None,
        })
    }
}

impl std::fmt::Display for TraversalKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A ratio in the half-open interval `(0, 1]`.
///
/// `0` is excluded: a zero minimum support would declare every itemset
/// frequent, including the 2^|I| lattice — a configuration error, not a
/// mining problem.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct Ratio(f64);

impl Ratio {
    /// Validates `value ∈ (0, 1]`.
    pub fn new(name: &'static str, value: f64) -> Result<Self, CoreError> {
        if value > 0.0 && value <= 1.0 {
            Ok(Ratio(value))
        } else {
            Err(CoreError::InvalidRatio { name, value })
        }
    }

    /// The raw value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Scales by a transaction count: `⌈N · ratio⌉`, the integer threshold
    /// used by both definitions ("appears at least `N·min_sup` times").
    /// Always at least 1 for a non-empty database.
    #[inline]
    pub fn threshold_count(self, n: usize) -> usize {
        (self.0 * n as f64).ceil() as usize
    }

    /// Scales by a transaction count without rounding: `N · ratio`, the
    /// real-valued expected-support threshold of Definition 2.
    #[inline]
    pub fn threshold_real(self, n: usize) -> f64 {
        self.0 * n as f64
    }
}

/// Parameters for probabilistic frequent itemset mining (Definitions 3–4):
/// the support ratio `min_sup` and the probability threshold `pft`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MiningParams {
    /// Minimum support ratio (`min_sup`).
    pub min_sup: Ratio,
    /// Probabilistic frequent threshold (`pft`): an itemset is frequent iff
    /// `Pr{sup(X) ≥ msup} > pft`.
    pub pft: Ratio,
    /// Support-computation backend to run on (defaults to
    /// [`EngineKind::Horizontal`], the reference backend).
    pub engine: EngineKind,
    /// Frequentness-measure override for matrix-aware entry points (the
    /// miners crate's `MatrixMiner::from_params`); a named algorithm or
    /// cell carries its measure in its identity and ignores this field.
    pub measure: Option<MeasureKind>,
    /// Traversal override for matrix-aware entry points; ignored by named
    /// algorithms and cells, like [`MiningParams::measure`].
    pub traversal: Option<TraversalKind>,
}

impl MiningParams {
    /// Validates and constructs (with the default backend).
    pub fn new(min_sup: f64, pft: f64) -> Result<Self, CoreError> {
        Ok(MiningParams {
            min_sup: Ratio::new("min_sup", min_sup)?,
            pft: Ratio::new("pft", pft)?,
            engine: EngineKind::default(),
            measure: None,
            traversal: None,
        })
    }

    /// Selects the support-computation backend.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the frequentness measure for matrix-aware entry points.
    pub fn with_measure(mut self, measure: MeasureKind) -> Self {
        self.measure = Some(measure);
        self
    }

    /// Selects the traversal for matrix-aware entry points.
    pub fn with_traversal(mut self, traversal: TraversalKind) -> Self {
        self.traversal = Some(traversal);
        self
    }

    /// The integer support threshold `msup = ⌈N·min_sup⌉` for a database of
    /// `n` transactions.
    #[inline]
    pub fn msup(&self, n: usize) -> usize {
        self.min_sup.threshold_count(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_range() {
        assert!(Ratio::new("r", 1e-9).is_ok());
        assert!(Ratio::new("r", 0.5).is_ok());
        assert!(Ratio::new("r", 1.0).is_ok());
    }

    #[test]
    fn rejects_invalid() {
        assert!(Ratio::new("r", 0.0).is_err());
        assert!(Ratio::new("r", -0.3).is_err());
        assert!(Ratio::new("r", 1.0001).is_err());
        assert!(Ratio::new("r", f64::NAN).is_err());
        match Ratio::new("min_sup", 2.0) {
            Err(CoreError::InvalidRatio { name, value }) => {
                assert_eq!(name, "min_sup");
                assert_eq!(value, 2.0);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn threshold_count_is_ceiling() {
        let r = Ratio::new("r", 0.5).unwrap();
        assert_eq!(r.threshold_count(4), 2);
        assert_eq!(r.threshold_count(5), 3);
        let r = Ratio::new("r", 0.0005).unwrap();
        assert_eq!(r.threshold_count(1000), 1);
        assert_eq!(r.threshold_count(990_002), 496);
    }

    #[test]
    fn threshold_real_is_exact() {
        let r = Ratio::new("r", 0.25).unwrap();
        assert_eq!(r.threshold_real(4), 1.0);
        assert_eq!(r.threshold_real(6), 1.5);
    }

    #[test]
    fn mining_params_bundle() {
        let p = MiningParams::new(0.5, 0.9).unwrap();
        assert_eq!(p.msup(4), 2);
        assert_eq!(p.min_sup.get(), 0.5);
        assert_eq!(p.pft.get(), 0.9);
        assert_eq!(p.engine, EngineKind::Horizontal);
        assert!(MiningParams::new(0.0, 0.9).is_err());
        assert!(MiningParams::new(0.5, 1.5).is_err());
    }

    #[test]
    fn measure_and_traversal_selectors_roundtrip() {
        for m in MeasureKind::ALL {
            assert_eq!(MeasureKind::parse(m.name()), Some(m), "{m}");
            assert_eq!(format!("{m}"), m.name());
        }
        for t in TraversalKind::ALL {
            assert_eq!(TraversalKind::parse(t.name()), Some(t), "{t}");
            assert_eq!(format!("{t}"), t.name());
        }
        assert_eq!(MeasureKind::parse("DP"), Some(MeasureKind::ExactDp));
        assert_eq!(
            MeasureKind::parse("Expected-Support"),
            Some(MeasureKind::ExpectedSupport)
        );
        assert_eq!(MeasureKind::parse("nonsense"), None);
        assert_eq!(
            TraversalKind::parse("Apriori"),
            Some(TraversalKind::LevelWise)
        );
        assert_eq!(
            TraversalKind::parse("UH-Mine"),
            Some(TraversalKind::HyperStructure)
        );
        assert_eq!(TraversalKind::parse("nonsense"), None);
        assert!(MeasureKind::ExactDc.is_exact());
        assert!(!MeasureKind::Normal.is_exact());

        let p = MiningParams::new(0.5, 0.9)
            .unwrap()
            .with_measure(MeasureKind::Poisson)
            .with_traversal(TraversalKind::TreeGrowth);
        assert_eq!(p.measure, Some(MeasureKind::Poisson));
        assert_eq!(p.traversal, Some(TraversalKind::TreeGrowth));
        let q = MiningParams::new(0.5, 0.9).unwrap();
        assert_eq!(q.measure, None);
        assert_eq!(q.traversal, None);
    }

    #[test]
    fn engine_selection() {
        let p = MiningParams::new(0.5, 0.9)
            .unwrap()
            .with_engine(EngineKind::Vertical);
        assert_eq!(p.engine, EngineKind::Vertical);
        assert_eq!(EngineKind::parse("VERTICAL"), Some(EngineKind::Vertical));
        assert_eq!(EngineKind::parse("h"), Some(EngineKind::Horizontal));
        assert_eq!(EngineKind::parse("dEclat"), Some(EngineKind::Diffset));
        assert_eq!(EngineKind::parse("Diffset"), Some(EngineKind::Diffset));
        assert_eq!(EngineKind::parse("nope"), None);
        assert_eq!(EngineKind::ALL.len(), 3);
        for e in EngineKind::ALL {
            assert_eq!(EngineKind::parse(e.name()), Some(e));
            assert_eq!(format!("{e}"), e.name());
        }
    }
}
