//! End-to-end and per-layer benchmark of the uncertain-FIM workspace.
//!
//! Each workload generates one dataset from the seed and drives it through
//! three phases: the **batch** phase times the paper's eight miners, the
//! **stream** phase runs sliding-window ingest through `IncrementalMiner`,
//! and the **serve** phase sends closed-loop traffic through `ufim-serve`'s
//! TCP front end. [`timed::run`] measures the end-to-end metrics with
//! tracing off; [`layers::run`] is the separate traced run that times each
//! layer's public entry points and reports the per-layer metrics.
//! Every check runs outside the timed samples and counts a mismatch as a
//! failed operation.

pub mod batch;
pub mod host;
pub mod layers;
pub mod serve;
pub mod setup;
pub mod stats;
pub mod stream;
pub mod timed;
pub mod trace;
pub mod workload;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value (a median or percentile for timings).
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
    /// Within-run first quartile of the samples.
    pub q1: f64,
    /// Within-run third quartile of the samples.
    pub q3: f64,
}

impl Metric {
    /// A metric summarising `samples` by their median.
    pub fn median_of(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Self {
        let (q1, q3) = stats::quartiles(samples);
        Metric {
            name: name.into(),
            unit,
            value: stats::median(samples),
            samples: samples.len(),
            q1,
            q3,
        }
    }

    /// A single reading (a count, a ratio or a peak).
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        let value = if value.is_finite() { value } else { 0.0 };
        Metric {
            name: name.into(),
            unit,
            value,
            samples: 1,
            q1: value,
            q3: value,
        }
    }
}

/// Operations attempted and failed, with a note per failure.
#[derive(Default, Debug)]
pub struct Checks {
    /// Operations attempted (mines, steps, requests and checks).
    pub attempted: u64,
    /// Operations that failed or whose output did not verify.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts `n` operations that did not fail.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one check; a false `passed` is a failure described by `what`.
    pub fn check(&mut self, passed: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

/// The outcome of one run.
#[derive(Default, Debug)]
pub struct Report {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Verification tally.
    pub checks: Checks,
    /// Diagnostic readings that are not metrics (host drift and the like).
    pub diagnostics: Vec<(String, f64)>,
}
