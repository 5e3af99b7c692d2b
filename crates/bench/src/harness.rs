//! The one harness every bench under `benches/` runs on.
//!
//! A bench is a `harness = false` binary. Its `main` builds a [`Harness`]
//! from the command line, times closures with [`Harness::bench`] (or
//! [`Harness::mine`] for a mining run, whose counters come from the
//! result), checks its invariants with [`Harness::guard`], and ends with
//! [`Harness::finish`], which writes the bench's `BENCH_<experiment>.json`
//! snapshot (see [`crate::json`]) when `--json-out DIR` was given.
//!
//! ## Flags
//!
//! * A bare argument is a substring filter: only benches and guards whose
//!   id contains it run (CI runs `bench_engines -- engines_guard`).
//! * `--smoke` is the only budget switch: a shorter warm-up and fewer,
//!   shorter samples. The counters a snapshot records never depend on
//!   timing, so a smoke run emits the same strict fields as a full run.
//! * `--json-out DIR` writes the snapshot into `DIR`.
//!
//! Other `-`-prefixed arguments are ignored: cargo passes `--bench`, and
//! a bench may read a flag of its own (`bench_streaming --gate`).
//!
//! ## Timing
//!
//! A measurement first calls the closure untimed until the warm-up budget
//! is spent (at least once; the first call's output is what counters are
//! read from) and sizes each sample from the warm-up's per-call cost, so
//! nanosecond kernels are timed over many calls and second-long mines
//! over one. It then takes a fixed number of samples and reports the
//! per-call best, median and spread (slowest minus fastest sample).

use crate::json::{JsonRun, JsonSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use ufim_core::prelude::*;

/// How long a measurement warms up and samples.
struct Budget {
    warm_up: Duration,
    sample: Duration,
    /// Odd, so the median is one sample.
    samples: usize,
}

const FULL: Budget = Budget {
    warm_up: Duration::from_millis(100),
    sample: Duration::from_millis(20),
    samples: 9,
};

const SMOKE: Budget = Budget {
    warm_up: Duration::ZERO,
    sample: Duration::from_millis(1),
    samples: 3,
};

/// Per-call wall-clock of one measurement, in milliseconds.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Fastest sample.
    pub best_ms: f64,
    /// Median sample — what a snapshot records as `wall_ms`.
    pub median_ms: f64,
    /// Slowest minus fastest sample.
    pub spread_ms: f64,
}

/// Command-line flags plus the runs recorded so far.
pub struct Harness {
    filter: Option<String>,
    smoke: bool,
    json_out: Option<PathBuf>,
    runs: Vec<JsonRun>,
}

impl Harness {
    /// Parses the process arguments (see the module docs).
    pub fn from_env() -> Harness {
        Harness::parse(std::env::args().skip(1))
    }

    /// Parses `args` (without the program name).
    ///
    /// # Panics
    /// When `--json-out` has no value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Harness {
        let mut harness = Harness {
            filter: None,
            smoke: false,
            json_out: None,
            runs: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => harness.smoke = true,
                "--json-out" => {
                    let dir = args.next().expect("--json-out needs a directory");
                    harness.json_out = Some(dir.into());
                }
                flag if flag.starts_with('-') => {}
                _ => harness.filter = Some(arg),
            }
        }
        harness
    }

    /// Whether `--smoke` was given.
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// Whether the filter lets `id` run.
    pub fn selects(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }

    /// Times `f` as `group/algorithm/engine/workload` and records `run`
    /// with the median as its `wall_ms`. Returns the timing, or `None`
    /// when the filter skips the id.
    pub fn bench<O>(&mut self, group: &str, run: JsonRun, f: impl FnMut() -> O) -> Option<Timing> {
        let (timing, _) = self.time(group, &run, f)?;
        self.record(JsonRun {
            wall_ms: timing.median_ms,
            ..run
        });
        Some(timing)
    }

    /// [`bench`](Self::bench) for a mining run: the recorded result size
    /// and [`MinerStats`] come from the first call's result, which is
    /// deterministic.
    pub fn mine(&mut self, group: &str, run: JsonRun, f: impl FnMut() -> MiningResult) {
        if let Some((timing, result)) = self.time(group, &run, f) {
            self.record(JsonRun {
                wall_ms: timing.median_ms,
                num_itemsets: result.len() as u64,
                stats: result.stats,
                ..run
            });
        }
    }

    /// Records a run measured by the bench itself.
    pub fn record(&mut self, run: JsonRun) {
        self.runs.push(run);
    }

    /// Runs the assertions in `check` unless the filter skips `id`.
    pub fn guard(&self, id: &str, check: impl FnOnce()) {
        if self.selects(id) {
            check();
            println!("{id:<64} ok");
        }
    }

    /// Writes the recorded runs as `BENCH_<experiment>.json` when
    /// `--json-out` was given; exits 1 if that write fails.
    pub fn finish(self, experiment: &str, scale: f64, seed: u64) {
        let Some(dir) = self.json_out else { return };
        let mut snapshot = JsonSnapshot::new(experiment, scale, seed);
        snapshot.runs = self.runs;
        match snapshot.write(&dir) {
            Some(path) => println!("wrote {}", path.display()),
            None if snapshot.runs.is_empty() => println!("no runs selected; nothing written"),
            None => std::process::exit(1),
        }
    }

    fn time<O>(&self, group: &str, run: &JsonRun, mut f: impl FnMut() -> O) -> Option<(Timing, O)> {
        let id = format!("{group}/{}/{}/{}", run.algorithm, run.engine, run.workload);
        if !self.selects(&id) {
            return None;
        }
        let budget = if self.smoke { &SMOKE } else { &FULL };
        let start = Instant::now();
        let first = f();
        let mut calls = 1u32;
        while start.elapsed() < budget.warm_up {
            black_box(f());
            calls += 1;
        }
        let per_call = start.elapsed().as_secs_f64() / f64::from(calls);
        let batch = (budget.sample.as_secs_f64() / per_call.max(1e-9)).ceil() as u64;
        let batch = batch.max(1);
        let mut samples: Vec<f64> = (0..budget.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..batch {
                    black_box(f());
                }
                t.elapsed().as_secs_f64() * 1e3 / batch as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        let timing = Timing {
            best_ms: samples[0],
            median_ms: samples[samples.len() / 2],
            spread_ms: samples[samples.len() - 1] - samples[0],
        };
        println!(
            "{id:<64} best {}  median {}  spread {}",
            fmt_ms(timing.best_ms),
            fmt_ms(timing.median_ms),
            fmt_ms(timing.spread_ms)
        );
        Some((timing, first))
    }
}

/// Milliseconds in the most readable unit.
fn fmt_ms(ms: f64) -> String {
    if ms >= 1e3 {
        format!("{:.3} s", ms / 1e3)
    } else if ms >= 1.0 {
        format!("{ms:.3} ms")
    } else if ms >= 1e-3 {
        format!("{:.3} µs", ms * 1e3)
    } else {
        format!("{:.1} ns", ms * 1e6)
    }
}

/// The dense synthetic fixture the engine, memory, parallel, kernel,
/// streaming and serve benches share: each of `items` items appears in a
/// transaction with probability `density`, at an existence probability
/// drawn from `[0.5, 1]`, so mining runs several levels deep.
pub fn dense_db(transactions: usize, items: u32, density: f64, seed: u64) -> UncertainDatabase {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = (0..transactions)
        .map(|_| {
            let units: Vec<(u32, f64)> = (0..items)
                .filter_map(|i| {
                    if rng.gen_bool(density) {
                        Some((i, rng.gen_range(0.5..=1.0)))
                    } else {
                        None
                    }
                })
                .collect();
            Transaction::new(units).expect("probabilities are in [0.5, 1]")
        })
        .collect();
    UncertainDatabase::with_num_items(t, items)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Harness {
        Harness::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn flags_parse_and_the_filter_selects_by_substring() {
        let h = parse(&["--bench", "guard", "--smoke", "--json-out", "out", "--gate"]);
        assert!(h.smoke());
        assert_eq!(h.json_out, Some(PathBuf::from("out")));
        assert!(h.selects("engines_guard/results_identical"));
        assert!(!h.selects("engines_dcb_dense/DCB/vertical/N=4k"));
        assert!(parse(&["--bench"]).selects("anything"));
    }

    #[test]
    fn bench_records_the_median_and_mine_the_counters() {
        let mut h = parse(&["--smoke", "kept"]);
        let mut calls = 0;
        let run = JsonRun::new("w", "kept", "kernel");
        let timing = h
            .bench("g", run, || {
                calls += 1;
            })
            .expect("selected");
        assert!(calls > SMOKE.samples, "{calls}");
        assert!(timing.best_ms <= timing.median_ms && timing.spread_ms >= 0.0);
        assert!(h.bench("g", JsonRun::new("w", "x", "y"), || ()).is_none());
        assert_eq!(h.runs.len(), 1);
        assert_eq!(h.runs[0].wall_ms, timing.median_ms);

        let db = dense_db(64, 6, 0.5, 1);
        let mut guarded = false;
        h.guard("kept/guard", || guarded = true);
        assert!(guarded);
        h.mine("g", JsonRun::new("w", "kept", "vertical"), || {
            let params = MiningParams::new(0.1, crate::NO_PFT)
                .unwrap()
                .with_engine(EngineKind::Vertical);
            ufim_miners::Algorithm::UApriori
                .mine_probabilistic(&db, params)
                .unwrap()
        });
        let mined = &h.runs[1];
        assert!(
            mined.num_itemsets > 0 && mined.stats.intersections > 0,
            "{mined:?}"
        );
    }
}
