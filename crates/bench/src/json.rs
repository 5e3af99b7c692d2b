//! Machine-readable `BENCH_<experiment>.json` performance snapshots.
//!
//! Every experiment can dump its measured runs as one JSON file per
//! experiment (`--json DIR`), so the repo's performance trajectory is
//! diffable across PRs: a snapshot records the workload label, wall-clock
//! milliseconds, allocator peak, result size and every work counter of
//! [`MinerStats::COUNTERS`] of every run, plus the configuration that
//! produced them (scale, seed, thread cap). `crates/bench/baselines/` keeps
//! checked-in snapshots from past PRs as the comparison anchor.
//!
//! Snapshots are read and written with the workspace's one JSON codec,
//! [`ufim_serve::Json`]: `ufim-bench json-check` parses every emitted
//! snapshot in CI to prove it is machine-readable, not just string-shaped,
//! and inherits the codec's nesting cap, so a hostile file is rejected
//! rather than overflowing the stack.
//!
//! ## The regression gate
//!
//! `ufim-bench json-compare BASELINE FRESH` ([`compare_paths`]) turns the
//! snapshots into an actual CI gate that walks the counter table:
//!
//! * **strict** (build-failing): the experiment identity (name, scale,
//!   seed), the run list's shape (count, workload/algorithm/engine
//!   labels, order), `num_itemsets` and every [`Merge::Sum`] counter must
//!   match the baseline exactly. These are bit-identical across machines
//!   and pool sizes by the workspace's determinism guarantee, so *any*
//!   drift is a real behavioral change.
//! * **advisory** (warning only): every [`Merge::Max`] counter (memory
//!   peaks), `wall_ms` drift beyond [`DEFAULT_TOLERANCE_PCT`], and the
//!   optional serve-layer fields (`memo_hits` / `memo_extends` and the
//!   `latency_*_ms` / `qps` percentiles), including one side lacking them.
//! * **not compared**: a table counter absent from a snapshot that
//!   predates it; the report names such counters once per file, so older
//!   baselines keep passing. Unknown fields (such as the retired
//!   `shards_*` pair) are ignored.

use std::path::{Path, PathBuf};
use ufim_core::result::Merge;
use ufim_core::MinerStats;
use ufim_serve::Json;

/// One measured run inside a snapshot. `Default` gives every label empty,
/// every measurement zero and every optional counter absent — experiment
/// code fills what it measures and leaves the rest via `..Default::default()`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JsonRun {
    /// Workload label — the x-axis point of the sweep (e.g. `min_esup=0.5`)
    /// or a dataset tag.
    pub workload: String,
    /// Algorithm (or matrix-cell) name.
    pub algorithm: String,
    /// Support backend, `n/a` for miners outside the engine seam.
    pub engine: String,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Allocator-level peak heap growth in bytes (0 without the counting
    /// allocator).
    pub peak_bytes: u64,
    /// Number of frequent itemsets found.
    pub num_itemsets: u64,
    /// The run's work counters: one snapshot field per entry of
    /// [`MinerStats::COUNTERS`], gated by its merge rule (see the module
    /// docs).
    pub stats: MinerStats,
    /// Queries the serve-layer resident memo answered warm (no mining);
    /// `None` outside `bench_serve` runs. Advisory in the gate.
    pub memo_hits: Option<u64>,
    /// Queries that extended a resident memo cell downward to a lower
    /// threshold (re-mined, replacing the basis); optional like
    /// [`memo_hits`](Self::memo_hits).
    pub memo_extends: Option<u64>,
    /// Median per-request latency in milliseconds; `None` outside
    /// `bench_serve` runs. Timing-derived, so advisory like `wall_ms`.
    pub latency_p50_ms: Option<f64>,
    /// 95th-percentile per-request latency in milliseconds; optional like
    /// [`latency_p50_ms`](Self::latency_p50_ms).
    pub latency_p95_ms: Option<f64>,
    /// 99th-percentile per-request latency in milliseconds; optional like
    /// [`latency_p50_ms`](Self::latency_p50_ms).
    pub latency_p99_ms: Option<f64>,
    /// Sustained queries per second over the measured window; optional
    /// like [`latency_p50_ms`](Self::latency_p50_ms).
    pub qps: Option<f64>,
}

/// One experiment's snapshot: configuration + measured runs.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonSnapshot {
    /// Experiment name (becomes the `BENCH_<experiment>.json` file name).
    pub experiment: String,
    /// `--scale` the runs used.
    pub scale: f64,
    /// `--seed` the runs used.
    pub seed: u64,
    /// Worker-thread cap the runs used
    /// ([`ufim_core::parallel::max_threads`]).
    pub threads: u64,
    /// The measured runs, in execution order.
    pub runs: Vec<JsonRun>,
    /// Table counters some run of a parsed snapshot lacks (it predates
    /// them); the gate does not compare them. Empty for snapshots built
    /// in-process, which carry every counter.
    pub absent: Vec<&'static str>,
}

impl JsonRun {
    /// A run labelled `(workload, algorithm, engine)` with every
    /// measurement zero and every optional counter absent.
    pub fn new(
        workload: impl Into<String>,
        algorithm: impl Into<String>,
        engine: impl Into<String>,
    ) -> Self {
        JsonRun {
            workload: workload.into(),
            algorithm: algorithm.into(),
            engine: engine.into(),
            ..Default::default()
        }
    }

    fn to_value(&self) -> Json {
        let mut fields = vec![
            ("workload", Json::Str(self.workload.clone())),
            ("algorithm", Json::Str(self.algorithm.clone())),
            ("engine", Json::Str(self.engine.clone())),
            ("wall_ms", num(self.wall_ms)),
            ("peak_bytes", num(self.peak_bytes as f64)),
            ("num_itemsets", num(self.num_itemsets as f64)),
        ];
        for counter in MinerStats::COUNTERS {
            fields.push((counter.name, num((counter.get)(&self.stats) as f64)));
        }
        let mut run = self.clone();
        for (name, field) in OPTIONAL {
            if let Some(x) = field.get(&mut run) {
                fields.push((name, num(x)));
            }
        }
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Parses one run, adding the table counters it lacks to `absent`.
    fn from_value(v: &Json, absent: &mut Vec<&'static str>) -> Result<Self, String> {
        let mut run = JsonRun {
            workload: string(v, "workload")?,
            algorithm: string(v, "algorithm")?,
            engine: string(v, "engine")?,
            wall_ms: number(v, "wall_ms")?,
            peak_bytes: unsigned(v, "peak_bytes")?,
            num_itemsets: unsigned(v, "num_itemsets")?,
            ..Default::default()
        };
        for counter in MinerStats::COUNTERS {
            if v.get(counter.name).is_some() {
                *(counter.get_mut)(&mut run.stats) = unsigned(v, counter.name)?;
            } else if !absent.contains(&counter.name) {
                absent.push(counter.name);
            }
        }
        for (name, field) in OPTIONAL {
            if v.get(name).is_none() {
                continue;
            }
            match field {
                Optional::Count(f) => *f(&mut run) = Some(unsigned(v, name)?),
                Optional::Timing(f) => *f(&mut run) = Some(number(v, name)?),
            }
        }
        Ok(run)
    }
}

/// One optional field of a [`JsonRun`]: a serve-layer measurement, not a
/// [`MinerStats`] counter. Absent outside `bench_serve` runs and advisory
/// in the gate (see the module docs).
#[derive(Clone, Copy)]
enum Optional {
    /// A deterministic counter: any change warns.
    Count(fn(&mut JsonRun) -> &mut Option<u64>),
    /// A timing-derived float: drift beyond the tolerance warns.
    Timing(fn(&mut JsonRun) -> &mut Option<f64>),
}

impl Optional {
    fn get(self, run: &mut JsonRun) -> Option<f64> {
        match self {
            Optional::Count(f) => f(run).map(|n| n as f64),
            Optional::Timing(f) => *f(run),
        }
    }
}

/// Every optional field of [`JsonRun`], in emission order. Emitting,
/// parsing and comparing snapshots all walk this one list.
const OPTIONAL: [(&str, Optional); 6] = [
    ("memo_hits", Optional::Count(|r| &mut r.memo_hits)),
    ("memo_extends", Optional::Count(|r| &mut r.memo_extends)),
    (
        "latency_p50_ms",
        Optional::Timing(|r| &mut r.latency_p50_ms),
    ),
    (
        "latency_p95_ms",
        Optional::Timing(|r| &mut r.latency_p95_ms),
    ),
    (
        "latency_p99_ms",
        Optional::Timing(|r| &mut r.latency_p99_ms),
    ),
    ("qps", Optional::Timing(|r| &mut r.qps)),
];

impl JsonSnapshot {
    /// An empty snapshot for `experiment` under the current configuration.
    pub fn new(experiment: impl Into<String>, scale: f64, seed: u64) -> Self {
        JsonSnapshot {
            experiment: experiment.into(),
            scale,
            seed,
            threads: ufim_core::parallel::max_threads() as u64,
            runs: Vec::new(),
            absent: Vec::new(),
        }
    }

    /// Serializes the snapshot as JSON: one line per top-level field and
    /// one per run, so snapshots diff run by run.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\n  \"experiment\": {},\n  \"scale\": {},\n  \"seed\": {},\n  \"threads\": {},\n  \"runs\": [",
            Json::Str(self.experiment.clone()).to_line(),
            num(self.scale).to_line(),
            self.seed,
            self.threads
        );
        for (i, run) in self.runs.iter().enumerate() {
            s.push_str(if i == 0 { "\n    " } else { ",\n    " });
            s.push_str(&run.to_value().to_line());
        }
        s.push_str(if self.runs.is_empty() {
            "]\n}\n"
        } else {
            "\n  ]\n}\n"
        });
        s
    }

    /// Writes `BENCH_<experiment>.json` into `dir` (created if needed).
    /// Errors are reported to stderr but never abort an experiment, like
    /// the CSV writer.
    pub fn write(&self, dir: &Path) -> Option<PathBuf> {
        if self.runs.is_empty() {
            return None;
        }
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return None;
        }
        let path = dir.join(format!("BENCH_{}.json", self.experiment));
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: cannot write {}: {e}", path.display());
                None
            }
        }
    }

    /// Parses and validates a snapshot produced by [`JsonSnapshot::write`].
    ///
    /// # Errors
    /// A message naming the malformed construct (JSON syntax, a missing or
    /// mistyped field) — suitable for printing from `json-check`.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let top = Json::parse(text)?;
        let mut absent = Vec::new();
        let runs = field(&top, "runs")?
            .as_arr()
            .ok_or("runs: expected an array")?
            .iter()
            .enumerate()
            .map(|(i, r)| {
                JsonRun::from_value(r, &mut absent).map_err(|e| format!("runs[{i}]: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(JsonSnapshot {
            experiment: string(&top, "experiment")?,
            scale: number(&top, "scale")?,
            seed: unsigned(&top, "seed")?,
            threads: unsigned(&top, "threads")?,
            runs,
            absent,
        })
    }
}

/// A finite JSON number (measurements are finite; clamp defensively, as
/// JSON has no NaN or infinity).
fn num(x: f64) -> Json {
    Json::Num(if x.is_finite() { x } else { 0.0 })
}

fn field<'a>(obj: &'a Json, name: &str) -> Result<&'a Json, String> {
    obj.get(name)
        .ok_or_else(|| format!("missing field {name:?}"))
}

fn string(obj: &Json, name: &str) -> Result<String, String> {
    field(obj, name)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{name}: expected a string"))
}

fn number(obj: &Json, name: &str) -> Result<f64, String> {
    field(obj, name)?
        .as_f64()
        .ok_or_else(|| format!("{name}: expected a number"))
}

fn unsigned(obj: &Json, name: &str) -> Result<u64, String> {
    field(obj, name)?
        .as_u64()
        .ok_or_else(|| format!("{name}: expected an unsigned integer"))
}

/// Validates one snapshot file, returning a one-line summary.
///
/// # Errors
/// Propagates I/O and [`JsonSnapshot::from_json`] failures with the path
/// prepended.
pub fn check_file(path: &Path) -> Result<String, String> {
    let snap = load_snapshot(path)?;
    Ok(format!(
        "{}: ok — experiment {:?}, {} runs, scale {}, threads {}",
        path.display(),
        snap.experiment,
        snap.runs.len(),
        snap.scale,
        snap.threads,
    ))
}

/// Validates a path: one `BENCH_*.json` file, or a directory of them
/// (at least one required).
///
/// # Errors
/// The first file-level failure, or a complaint about an empty directory.
pub fn check_path(path: &Path) -> Result<Vec<String>, String> {
    snapshot_files(path)?
        .iter()
        .map(|p| check_file(p))
        .collect()
}

/// Wall-clock and latency drift within ±this percentage of the baseline
/// never warns. Generous because baselines are recorded on whatever
/// machine produced the change while the gate usually runs on CI hardware.
pub const DEFAULT_TOLERANCE_PCT: f64 = 300.0;

/// Absolute wall-clock floor below which drift never warns: sub-
/// millisecond runs are dominated by scheduling noise, not regressions.
const WALL_MS_NOISE_FLOOR: f64 = 0.5;

/// Whether a timing drifted beyond the tolerance and the noise floor.
fn beyond_tolerance(fresh: f64, base: f64) -> bool {
    let drift = (fresh - base).abs();
    drift > base.abs() * DEFAULT_TOLERANCE_PCT / 100.0 && drift > WALL_MS_NOISE_FLOOR
}

/// Outcome of one [`compare_paths`] invocation.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// One confirmation line per compared snapshot pair.
    pub lines: Vec<String>,
    /// Advisory drift (time beyond tolerance, memory peaks) and counters
    /// left uncompared.
    pub warnings: Vec<String>,
    /// Strict mismatches — the caller should fail the build on any.
    pub failures: Vec<String>,
}

impl CompareReport {
    /// True when no strict mismatch was found (warnings allowed).
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compares one fresh snapshot against its baseline (see the module docs
/// for what is strict and what is advisory), appending to `report`.
fn compare_snapshots(
    name: &str,
    base: &JsonSnapshot,
    fresh: &JsonSnapshot,
    report: &mut CompareReport,
) {
    let failures_before = report.failures.len();
    let fail =
        |report: &mut CompareReport, msg: String| report.failures.push(format!("{name}: {msg}"));
    if base.experiment != fresh.experiment {
        fail(
            report,
            format!(
                "experiment {:?} vs baseline {:?}",
                fresh.experiment, base.experiment
            ),
        );
    }
    if base.scale != fresh.scale {
        fail(
            report,
            format!("scale {} vs baseline {}", fresh.scale, base.scale),
        );
    }
    if base.seed != fresh.seed {
        fail(
            report,
            format!("seed {} vs baseline {}", fresh.seed, base.seed),
        );
    }
    if base.runs.len() != fresh.runs.len() {
        fail(
            report,
            format!("{} runs vs baseline {}", fresh.runs.len(), base.runs.len()),
        );
        return; // per-run comparison would misalign
    }
    let skipped: Vec<&str> = MinerStats::COUNTERS
        .iter()
        .map(|c| c.name)
        .filter(|n| base.absent.contains(n) || fresh.absent.contains(n))
        .collect();
    if !skipped.is_empty() {
        report.warnings.push(format!(
            "{name}: not compared, absent from a snapshot: {}",
            skipped.join(", ")
        ));
    }
    let mut warned_time = 0usize;
    for (i, (b, f)) in base.runs.iter().zip(&fresh.runs).enumerate() {
        let run = format!("run[{i}] ({} / {} / {})", b.workload, b.algorithm, b.engine);
        if (&f.workload, &f.algorithm, &f.engine) != (&b.workload, &b.algorithm, &b.engine) {
            fail(
                report,
                format!(
                    "{run}: labels changed to ({} / {} / {})",
                    f.workload, f.algorithm, f.engine
                ),
            );
            continue;
        }
        for counter in MinerStats::COUNTERS
            .iter()
            .filter(|c| !skipped.contains(&c.name))
        {
            let (fv, bv) = ((counter.get)(&f.stats), (counter.get)(&b.stats));
            if fv == bv {
                continue;
            }
            let drift = format!("{run}: {} {fv} vs baseline {bv}", counter.name);
            match counter.merge {
                Merge::Sum => fail(report, drift),
                Merge::Max => report
                    .warnings
                    .push(format!("{name}: {drift} (memory peak, advisory)")),
            }
        }
        if f.num_itemsets != b.num_itemsets {
            fail(
                report,
                format!(
                    "{run}: num_itemsets {} vs baseline {}",
                    f.num_itemsets, b.num_itemsets
                ),
            );
        }
        // Optional fields are advisory whatever happens, including one
        // side missing the field (a run outside `bench_serve`).
        let (mut f_run, mut b_run) = (f.clone(), b.clone());
        for (field, kind) in OPTIONAL {
            let (fv, bv) = (kind.get(&mut f_run), kind.get(&mut b_run));
            let warning = match (kind, fv, bv) {
                (Optional::Timing(_), Some(fv), Some(bv)) => beyond_tolerance(fv, bv).then(|| {
                    format!(
                        "{field} {fv:.3} vs baseline {bv:.3} \
                         (beyond ±{DEFAULT_TOLERANCE_PCT}% tolerance, advisory)"
                    )
                }),
                _ => (fv != bv).then(|| {
                    let show = |v: Option<f64>| v.map_or("absent".into(), |x| x.to_string());
                    format!("{field} {} vs baseline {} (advisory)", show(fv), show(bv))
                }),
            };
            if let Some(warning) = warning {
                report.warnings.push(format!("{name}: {run}: {warning}"));
            }
        }
        if beyond_tolerance(f.wall_ms, b.wall_ms) {
            warned_time += 1;
            let direction = if f.wall_ms > b.wall_ms {
                "slower"
            } else {
                "faster"
            };
            report.warnings.push(format!(
                "{name}: {run}: wall_ms {:.3} vs baseline {:.3} ({direction} than ±{DEFAULT_TOLERANCE_PCT}% tolerance)",
                f.wall_ms, b.wall_ms
            ));
        }
    }
    if report.failures.len() == failures_before {
        report.lines.push(format!(
            "{name}: counters match baseline ({} runs, {} time warnings)",
            base.runs.len(),
            warned_time
        ));
    }
}

/// Runs the bench-regression gate: every `BENCH_*.json` under `baseline`
/// must have a fresh counterpart under `fresh` whose result sizes and
/// [`Merge::Sum`] counters match exactly; wall-clock drift beyond
/// [`DEFAULT_TOLERANCE_PCT`] only warns. Both paths may be a single
/// snapshot file or a directory of them. Fresh-only snapshots are
/// advisory (baselines lag new experiments by design).
///
/// # Errors
/// I/O or parse failures on either side, with the path named.
pub fn compare_paths(baseline: &Path, fresh: &Path) -> Result<CompareReport, String> {
    let base_files = snapshot_files(baseline)?;
    let fresh_files = snapshot_files(fresh)?;
    let mut report = CompareReport::default();
    for base_path in &base_files {
        let file_name = base_path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let Some(fresh_path) = fresh_files
            .iter()
            .find(|p| p.file_name().and_then(|n| n.to_str()) == Some(file_name.as_str()))
        else {
            report
                .failures
                .push(format!("{file_name}: baseline has no fresh counterpart"));
            continue;
        };
        let base = load_snapshot(base_path)?;
        let fresh = load_snapshot(fresh_path)?;
        compare_snapshots(&file_name, &base, &fresh, &mut report);
    }
    for fresh_path in &fresh_files {
        let name = fresh_path.file_name().and_then(|n| n.to_str());
        if !base_files
            .iter()
            .any(|p| p.file_name().and_then(|n| n.to_str()) == name)
        {
            report.warnings.push(format!(
                "{}: no baseline yet (new experiment, advisory)",
                name.unwrap_or_default()
            ));
        }
    }
    Ok(report)
}

/// The `BENCH_*.json` files under `path` (sorted), or `path` itself when
/// it is a file.
fn snapshot_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: cannot read dir: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect();
        entries.sort();
        if entries.is_empty() {
            return Err(format!(
                "{}: no BENCH_*.json snapshots found",
                path.display()
            ));
        }
        Ok(entries)
    } else {
        Ok(vec![path.to_path_buf()])
    }
}

/// Reads and parses one snapshot file.
fn load_snapshot(path: &Path) -> Result<JsonSnapshot, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    JsonSnapshot::from_json(&text).map_err(|e| format!("{}: invalid snapshot: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JsonSnapshot {
        JsonSnapshot {
            experiment: "fig4_zipf".into(),
            scale: 0.01,
            seed: 42,
            threads: 4,
            runs: vec![
                JsonRun {
                    workload: "skew=0.8".into(),
                    algorithm: "UApriori".into(),
                    engine: "vertical".into(),
                    wall_ms: 12.625,
                    peak_bytes: 1_048_576,
                    num_itemsets: 31,
                    stats: MinerStats {
                        peak_memo_bytes: 65_536,
                        intersections: 1234,
                        border_rejudged: 12,
                        border_skipped: 40,
                        memo_patched: 88,
                        memo_rebuilt: 3,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                JsonRun {
                    workload: "skew=1.2".into(),
                    algorithm: "UH-Mine \"quoted\"".into(),
                    engine: "n/a".into(),
                    wall_ms: 0.5,
                    peak_bytes: 0,
                    num_itemsets: 7,
                    ..Default::default()
                },
            ],
            absent: Vec::new(),
        }
    }

    /// `sample()` with every table counter of run 0 set to a distinct
    /// value.
    fn every_counter() -> JsonSnapshot {
        let mut snap = sample();
        for (i, counter) in MinerStats::COUNTERS.iter().enumerate() {
            *(counter.get_mut)(&mut snap.runs[0].stats) = 100 + i as u64;
        }
        snap
    }

    #[test]
    fn snapshot_roundtrips() {
        let snap = sample();
        let parsed = JsonSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
        // Every table counter is its own field and survives the trip.
        let snap = every_counter();
        let text = snap.to_json();
        for counter in MinerStats::COUNTERS {
            assert!(
                text.contains(&format!("\"{}\":", counter.name)),
                "{}",
                counter.name
            );
        }
        assert!(!text.contains("shards_"));
        assert_eq!(JsonSnapshot::from_json(&text).unwrap(), snap);
    }

    #[test]
    fn compare_fails_on_any_sum_counter_and_warns_on_max() {
        let base = every_counter();
        for counter in MinerStats::COUNTERS {
            let mut fresh = every_counter();
            *(counter.get_mut)(&mut fresh.runs[0].stats) += 1;
            let mut report = CompareReport::default();
            compare_snapshots("s", &base, &fresh, &mut report);
            let (flagged, other) = match counter.merge {
                Merge::Sum => (&report.failures, &report.warnings),
                Merge::Max => (&report.warnings, &report.failures),
            };
            assert_eq!(flagged.len(), 1, "{}: {flagged:?}", counter.name);
            assert!(flagged[0].contains(counter.name), "{flagged:?}");
            assert!(other.is_empty(), "{}: {other:?}", counter.name);
            assert_eq!(report.passed(), counter.merge == Merge::Max);
        }
    }

    #[test]
    fn baseline_lacking_a_counter_still_passes() {
        // A baseline recorded before `scans` and `exact_evaluations` were
        // gated: the fresh side's values for them are not compared.
        let base_text = every_counter()
            .to_json()
            .replace("\"scans\":105,", "")
            .replace("\"exact_evaluations\":104,", "");
        let base = JsonSnapshot::from_json(&base_text).unwrap();
        assert_eq!(base.absent, ["exact_evaluations", "scans"]);
        let mut fresh = every_counter();
        fresh.runs[0].stats.scans += 1;
        fresh.runs[0].stats.exact_evaluations += 1;
        let mut report = CompareReport::default();
        compare_snapshots("s", &base, &fresh, &mut report);
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert_eq!(
            report.warnings,
            ["s: not compared, absent from a snapshot: exact_evaluations, scans"]
        );
        // The counters the baseline does carry stay strict.
        fresh.runs[0].stats.intersections += 1;
        let mut report = CompareReport::default();
        compare_snapshots("s", &base, &fresh, &mut report);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
    }

    #[test]
    fn empty_runs_roundtrip_but_do_not_write() {
        let snap = JsonSnapshot::new("empty", 0.5, 7);
        let parsed = JsonSnapshot::from_json(&snap.to_json()).unwrap();
        assert!(parsed.runs.is_empty());
        assert_eq!(parsed.seed, 7);
        let dir = std::env::temp_dir().join(format!("ufim-json-empty-{}", std::process::id()));
        assert!(snap.write(&dir).is_none());
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for (bad, why) in [
            ("", "empty"),
            ("{", "unterminated object"),
            ("[1, 2]", "top level not an object"),
            ("{\"experiment\": 3}", "missing fields"),
            ("{\"a\": 1} trailing", "trailing content"),
        ] {
            assert!(JsonSnapshot::from_json(bad).is_err(), "{why}");
        }
        // A wrong-typed field is named in the error.
        let wrong = sample()
            .to_json()
            .replace("\"seed\": 42", "\"seed\": \"x\"");
        let err = JsonSnapshot::from_json(&wrong).unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }

    #[test]
    fn write_and_check_file() {
        let dir = std::env::temp_dir().join(format!("ufim-json-test-{}", std::process::id()));
        let path = sample().write(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "BENCH_fig4_zipf.json");
        let summary = check_file(&path).unwrap();
        assert!(summary.contains("2 runs"), "{summary}");
        let listed = check_path(&dir).unwrap();
        assert_eq!(listed.len(), 1);
        // A directory without snapshots is an error.
        let empty = dir.join("sub");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(check_path(&empty).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compare_passes_on_identical_snapshots_and_warns_on_time() {
        let dir = std::env::temp_dir().join(format!("ufim-json-cmp-{}", std::process::id()));
        let base_dir = dir.join("base");
        let fresh_dir = dir.join("fresh");
        sample().write(&base_dir).unwrap();
        // Identical counters, 10× slower wall-clock on run 0.
        let mut fresh = sample();
        fresh.runs[0].wall_ms *= 10.0;
        fresh.write(&fresh_dir).unwrap();
        let report = compare_paths(&base_dir, &fresh_dir).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
        assert!(
            report.warnings[0].contains("wall_ms"),
            "{:?}",
            report.warnings
        );
        // Drift inside the tolerance is silent.
        let mut fresh = sample();
        fresh.runs[0].wall_ms *= 3.5;
        fresh.write(&fresh_dir).unwrap();
        let report = compare_paths(&base_dir, &fresh_dir).unwrap();
        assert!(report.passed() && report.warnings.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compare_fails_on_counter_drift_and_missing_files() {
        let dir = std::env::temp_dir().join(format!("ufim-json-cmp2-{}", std::process::id()));
        let base_dir = dir.join("base");
        let fresh_dir = dir.join("fresh");
        sample().write(&base_dir).unwrap();
        let mut drifted = sample();
        drifted.runs[1].stats.intersections += 1;
        drifted.runs[0].num_itemsets -= 1;
        drifted.write(&fresh_dir).unwrap();
        let report = compare_paths(&base_dir, &fresh_dir).unwrap();
        assert!(!report.passed());
        assert_eq!(report.failures.len(), 2, "{:?}", report.failures);
        assert!(report.failures.iter().any(|f| f.contains("intersections")));
        assert!(report.failures.iter().any(|f| f.contains("num_itemsets")));
        // A baseline without a fresh counterpart is a failure; a fresh
        // snapshot without a baseline only warns.
        let mut extra = sample();
        extra.experiment = "fig4_new".into();
        extra.write(&fresh_dir).unwrap();
        std::fs::remove_file(fresh_dir.join("BENCH_fig4_zipf.json")).unwrap();
        let report = compare_paths(&base_dir, &fresh_dir).unwrap();
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("no fresh counterpart")));
        assert!(report.warnings.iter().any(|w| w.contains("no baseline")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compare_fails_on_shape_and_identity_drift() {
        let mut report = CompareReport::default();
        let base = sample();
        // Changed labels and a dropped run both fail strictly.
        let mut fresh = sample();
        fresh.runs[0].engine = "diffset".into();
        compare_snapshots("s", &base, &fresh, &mut report);
        assert!(report.failures.iter().any(|f| f.contains("labels")));
        let mut report = CompareReport::default();
        let mut fresh = sample();
        fresh.runs.pop();
        fresh.seed += 1;
        compare_snapshots("s", &base, &fresh, &mut report);
        assert!(report.failures.iter().any(|f| f.contains("seed")));
        assert!(report.failures.iter().any(|f| f.contains("runs")));
        // Memo drift is advisory only.
        let mut report = CompareReport::default();
        let mut fresh = sample();
        fresh.runs[0].stats.peak_memo_bytes += 1024;
        compare_snapshots("s", &base, &fresh, &mut report);
        assert!(report.passed());
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("peak_memo_bytes")));
    }

    #[test]
    fn retired_shard_fields_are_ignored_on_parse() {
        // Older snapshots carry a `shards_evaluated` / `shards_pruned`
        // pair; they must parse to the same runs as without it.
        let text = sample().to_json().replacen(
            "\"num_itemsets\":31",
            "\"num_itemsets\":31,\"shards_evaluated\":96,\"shards_pruned\":32",
            1,
        );
        assert!(text.contains("shards_pruned"));
        assert_eq!(JsonSnapshot::from_json(&text).unwrap(), sample());
    }

    #[test]
    fn serve_fields_absent_vs_present_only_warn() {
        // A fresh bench_serve snapshot carries the memo counters and the
        // latency percentiles; a pre-serve baseline has neither. The gate
        // must warn about the new fields, never fail.
        let base = sample();
        let mut fresh = sample();
        fresh.runs[0].memo_hits = Some(120);
        fresh.runs[0].memo_extends = Some(2);
        fresh.runs[0].latency_p50_ms = Some(0.8);
        fresh.runs[0].latency_p95_ms = Some(2.5);
        fresh.runs[0].latency_p99_ms = Some(4.0);
        fresh.runs[0].qps = Some(1500.0);
        // The new fields survive a serialization roundtrip bit-for-bit.
        let parsed = JsonSnapshot::from_json(&fresh.to_json()).unwrap();
        assert_eq!(parsed, fresh);
        let mut report = CompareReport::default();
        compare_snapshots("s", &base, &fresh, &mut report);
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert_eq!(report.warnings.len(), 6, "{:?}", report.warnings);
        for field in ["memo_hits", "memo_extends", "latency_p50_ms", "qps"] {
            assert!(
                report
                    .warnings
                    .iter()
                    .any(|w| w.contains(field) && w.contains("advisory")),
                "no advisory warning for {field}: {:?}",
                report.warnings
            );
        }
        // Both sides carrying the fields with drift inside the tolerance
        // is silent; beyond the tolerance it warns but still passes.
        let mut report = CompareReport::default();
        let base = fresh.clone();
        compare_snapshots("s", &base, &fresh, &mut report);
        assert!(report.passed() && report.warnings.is_empty());
        let mut report = CompareReport::default();
        let mut slow = fresh.clone();
        slow.runs[0].latency_p99_ms = Some(400.0);
        compare_snapshots("s", &base, &slow, &mut report);
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("latency_p99_ms") && w.contains("tolerance")));
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let dir = std::env::temp_dir().join(format!("ufim-json-deep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_deep.json");
        std::fs::write(&path, "[".repeat(200_000)).unwrap();
        let err = check_file(&path).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
