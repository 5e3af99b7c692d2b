//! Machine-readable `BENCH_<experiment>.json` performance snapshots.
//!
//! Every experiment can dump its measured runs as one JSON file per
//! experiment (`--json DIR`), so the repo's performance trajectory is
//! diffable across PRs: a snapshot records the workload label, wall-clock
//! milliseconds, allocator peak, engine-memo peak and intersection count
//! of every run, plus the configuration that produced them (scale, seed,
//! thread cap). `crates/bench/baselines/` keeps checked-in snapshots from
//! past PRs as the comparison anchor.
//!
//! The sanctioned dependency set has no serde, so this module hand-rolls
//! the (tiny) writer and a strict reader. The reader is a real JSON
//! parser — `ufim-bench json-check` uses it in CI to prove the emitted
//! snapshots are actually machine-readable, not just string-shaped.
//!
//! ## The regression gate
//!
//! `ufim-bench json-compare BASELINE FRESH [--tolerance-pct P]`
//! ([`compare_paths`]) turns the snapshots into an actual CI gate:
//!
//! * **strict** (build-failing): the experiment identity (name, scale,
//!   seed), the run list's shape (count, workload/algorithm/engine
//!   labels, order) and the deterministic counters — `intersections` and
//!   `num_itemsets` — must match the baseline exactly. These are
//!   bit-identical across machines and pool sizes by the workspace's
//!   determinism guarantee, so *any* drift is a real behavioral change.
//! * **advisory** (warning only): `wall_ms` drift beyond the tolerance
//!   and `peak_memo_bytes` changes. Timing depends on the host; memory
//!   policy may legitimately change — both are surfaced, neither fails
//!   the build.
//! * **advisory by construction**: counter fields added after a baseline
//!   was recorded (the border/memo counters from incremental runs, and
//!   the `memo_hits` / `memo_extends` pair plus the
//!   `latency_*_ms` / `qps` percentiles from the query server) parse as
//!   optional and never fail strictly — a drift or a presence mismatch
//!   against an older baseline only warns. The gate would otherwise force
//!   a baseline refresh on every run the moment a new counter ships,
//!   defeating the point of keeping old snapshots comparable. Fields the
//!   reader does not know (such as the retired `shards_*` pair) are
//!   ignored, so older snapshots that carry them still parse.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

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
    /// Engine memo peak in bytes ([`ufim_core::MinerStats::peak_memo_bytes`]).
    pub peak_memo_bytes: u64,
    /// Tid-list intersections performed
    /// ([`ufim_core::MinerStats::intersections`]).
    pub intersections: u64,
    /// Number of frequent itemsets found.
    pub num_itemsets: u64,
    /// Border-tracker entries invalidated and re-evaluated by an
    /// incremental run ([`ufim_core::MinerStats::border_rejudged`]);
    /// `None` outside incremental (streaming) runs. Advisory in the gate
    /// (see the module docs).
    pub border_rejudged: Option<u64>,
    /// Border-tracker entries reused without re-evaluation
    /// ([`ufim_core::MinerStats::border_skipped`]); optional like
    /// [`border_rejudged`](Self::border_rejudged).
    pub border_skipped: Option<u64>,
    /// Retained memo nodes point-updated in place by a window step
    /// ([`ufim_core::MinerStats::memo_patched`]); `None` outside
    /// incremental (streaming) runs. Advisory in the gate like the
    /// border counters.
    pub memo_patched: Option<u64>,
    /// Retained memo nodes whose delta was too dense to patch, rebuilt
    /// from scratch instead ([`ufim_core::MinerStats::memo_rebuilt`]);
    /// optional like [`memo_patched`](Self::memo_patched).
    pub memo_rebuilt: Option<u64>,
    /// Queries the serve-layer resident memo answered warm (no mining);
    /// `None` outside `bench_serve` runs. Advisory in the gate like the
    /// border counters.
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
}

impl JsonSnapshot {
    /// An empty snapshot for `experiment` under the current configuration.
    pub fn new(experiment: impl Into<String>, scale: f64, seed: u64) -> Self {
        JsonSnapshot {
            experiment: experiment.into(),
            scale,
            seed,
            threads: ufim_core::parallel::max_threads() as u64,
            runs: Vec::new(),
        }
    }

    /// Serializes the snapshot as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.runs.len() * 192);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"experiment\": {},", quote(&self.experiment));
        let _ = writeln!(s, "  \"scale\": {},", fmt_f64(self.scale));
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        s.push_str("  \"runs\": [");
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            let _ = write!(
                s,
                "\"workload\": {}, \"algorithm\": {}, \"engine\": {}, \
                 \"wall_ms\": {}, \"peak_bytes\": {}, \"peak_memo_bytes\": {}, \
                 \"intersections\": {}, \"num_itemsets\": {}",
                quote(&r.workload),
                quote(&r.algorithm),
                quote(&r.engine),
                fmt_f64(r.wall_ms),
                r.peak_bytes,
                r.peak_memo_bytes,
                r.intersections,
                r.num_itemsets
            );
            for (name, v) in [
                ("border_rejudged", r.border_rejudged),
                ("border_skipped", r.border_skipped),
                ("memo_patched", r.memo_patched),
                ("memo_rebuilt", r.memo_rebuilt),
                ("memo_hits", r.memo_hits),
                ("memo_extends", r.memo_extends),
            ] {
                if let Some(n) = v {
                    let _ = write!(s, ", \"{name}\": {n}");
                }
            }
            for (name, v) in [
                ("latency_p50_ms", r.latency_p50_ms),
                ("latency_p95_ms", r.latency_p95_ms),
                ("latency_p99_ms", r.latency_p99_ms),
                ("qps", r.qps),
            ] {
                if let Some(x) = v {
                    let _ = write!(s, ", \"{name}\": {}", fmt_f64(x));
                }
            }
            s.push('}');
        }
        if !self.runs.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
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
        let (value, rest) = Value::parse(text.trim_start())?;
        if !rest.trim_start().is_empty() {
            return Err("trailing content after the top-level object".into());
        }
        let top = value.object("top level")?;
        let runs_value = top_field(&top, "runs")?;
        let mut runs = Vec::new();
        for (i, rv) in runs_value.array("runs")?.iter().enumerate() {
            let r = rv.object(&format!("runs[{i}]"))?;
            runs.push(JsonRun {
                workload: top_field(&r, "workload")?.string("workload")?,
                algorithm: top_field(&r, "algorithm")?.string("algorithm")?,
                engine: top_field(&r, "engine")?.string("engine")?,
                wall_ms: top_field(&r, "wall_ms")?.number("wall_ms")?,
                peak_bytes: top_field(&r, "peak_bytes")?.unsigned("peak_bytes")?,
                peak_memo_bytes: top_field(&r, "peak_memo_bytes")?.unsigned("peak_memo_bytes")?,
                intersections: top_field(&r, "intersections")?.unsigned("intersections")?,
                num_itemsets: top_field(&r, "num_itemsets")?.unsigned("num_itemsets")?,
                border_rejudged: opt_field(&r, "border_rejudged")?,
                border_skipped: opt_field(&r, "border_skipped")?,
                memo_patched: opt_field(&r, "memo_patched")?,
                memo_rebuilt: opt_field(&r, "memo_rebuilt")?,
                memo_hits: opt_field(&r, "memo_hits")?,
                memo_extends: opt_field(&r, "memo_extends")?,
                latency_p50_ms: opt_float(&r, "latency_p50_ms")?,
                latency_p95_ms: opt_float(&r, "latency_p95_ms")?,
                latency_p99_ms: opt_float(&r, "latency_p99_ms")?,
                qps: opt_float(&r, "qps")?,
            });
        }
        Ok(JsonSnapshot {
            experiment: top_field(&top, "experiment")?.string("experiment")?,
            scale: top_field(&top, "scale")?.number("scale")?,
            seed: top_field(&top, "seed")?.unsigned("seed")?,
            threads: top_field(&top, "threads")?.unsigned("threads")?,
            runs,
        })
    }
}

/// Validates one snapshot file, returning a one-line summary.
///
/// # Errors
/// Propagates I/O and [`JsonSnapshot::from_json`] failures with the path
/// prepended.
pub fn check_file(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    let snap = JsonSnapshot::from_json(&text)
        .map_err(|e| format!("{}: invalid snapshot: {e}", path.display()))?;
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
        entries.iter().map(|p| check_file(p)).collect()
    } else {
        Ok(vec![check_file(path)?])
    }
}

/// Default `--tolerance-pct` for [`compare_paths`]: wall-clock drift
/// within ±this percentage of the baseline never warns. Generous because
/// baselines are recorded on whatever machine produced the PR while the
/// gate usually runs on CI hardware.
pub const DEFAULT_TOLERANCE_PCT: f64 = 200.0;

/// Absolute wall-clock floor below which drift never warns: sub-
/// millisecond runs are dominated by scheduling noise, not regressions.
const WALL_MS_NOISE_FLOOR: f64 = 0.5;

/// Outcome of one [`compare_paths`] invocation.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// One confirmation line per compared snapshot pair.
    pub lines: Vec<String>,
    /// Advisory drift (time beyond tolerance, memo-byte changes).
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
    tolerance_pct: f64,
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
        if f.intersections != b.intersections {
            fail(
                report,
                format!(
                    "{run}: intersections {} vs baseline {}",
                    f.intersections, b.intersections
                ),
            );
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
        if f.peak_memo_bytes != b.peak_memo_bytes {
            report.warnings.push(format!(
                "{name}: {run}: peak_memo_bytes {} vs baseline {} (memory drift, advisory)",
                f.peak_memo_bytes, b.peak_memo_bytes
            ));
        }
        // Newly-added counters: advisory whatever happens, including one
        // side missing the field entirely (older baseline or a batch run).
        for (field, fv, bv) in [
            ("border_rejudged", f.border_rejudged, b.border_rejudged),
            ("border_skipped", f.border_skipped, b.border_skipped),
            ("memo_patched", f.memo_patched, b.memo_patched),
            ("memo_rebuilt", f.memo_rebuilt, b.memo_rebuilt),
            ("memo_hits", f.memo_hits, b.memo_hits),
            ("memo_extends", f.memo_extends, b.memo_extends),
        ] {
            if fv != bv {
                let show = |v: Option<u64>| v.map_or("absent".into(), |n| n.to_string());
                report.warnings.push(format!(
                    "{name}: {run}: {field} {} vs baseline {} (new counter, advisory)",
                    show(fv),
                    show(bv)
                ));
            }
        }
        // Serve-layer latency percentiles and throughput: timing-derived,
        // so advisory like `wall_ms` — tolerance-gated when both sides
        // have them, presence mismatches (pre-serve baselines) only warn.
        for (field, fv, bv) in [
            ("latency_p50_ms", f.latency_p50_ms, b.latency_p50_ms),
            ("latency_p95_ms", f.latency_p95_ms, b.latency_p95_ms),
            ("latency_p99_ms", f.latency_p99_ms, b.latency_p99_ms),
            ("qps", f.qps, b.qps),
        ] {
            match (fv, bv) {
                (Some(fv), Some(bv)) => {
                    let drift = (fv - bv).abs();
                    if drift > bv.abs() * tolerance_pct / 100.0 && drift > WALL_MS_NOISE_FLOOR {
                        report.warnings.push(format!(
                            "{name}: {run}: {field} {fv:.3} vs baseline {bv:.3} \
                             (beyond ±{tolerance_pct}% tolerance, advisory)"
                        ));
                    }
                }
                (None, None) => {}
                (fv, bv) => {
                    let show = |v: Option<f64>| v.map_or("absent".into(), |x| format!("{x:.3}"));
                    report.warnings.push(format!(
                        "{name}: {run}: {field} {} vs baseline {} (new field, advisory)",
                        show(fv),
                        show(bv)
                    ));
                }
            }
        }
        // Wall-clock: advisory, tolerance-gated, noise-floored.
        let drift = (f.wall_ms - b.wall_ms).abs();
        let allowed = b.wall_ms * tolerance_pct / 100.0;
        if drift > allowed && drift > WALL_MS_NOISE_FLOOR {
            warned_time += 1;
            let direction = if f.wall_ms > b.wall_ms {
                "slower"
            } else {
                "faster"
            };
            report.warnings.push(format!(
                "{name}: {run}: wall_ms {:.3} vs baseline {:.3} ({direction} than ±{tolerance_pct}% tolerance)",
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
/// must have a fresh counterpart under `fresh` whose deterministic
/// counters match exactly; wall-clock drift beyond `tolerance_pct` only
/// warns. Both paths may be a single snapshot file or a directory of
/// them. Fresh-only snapshots are advisory (baselines lag new
/// experiments by design).
///
/// # Errors
/// I/O or parse failures on either side, with the path named.
pub fn compare_paths(
    baseline: &Path,
    fresh: &Path,
    tolerance_pct: f64,
) -> Result<CompareReport, String> {
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
        compare_snapshots(&file_name, &base, &fresh, tolerance_pct, &mut report);
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

/// JSON-escapes and quotes a string (the labels this crate emits are
/// ASCII, but escape defensively).
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an f64 so it round-trips as a JSON number (never NaN/inf —
/// measurements are finite; clamp defensively).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats without a dot; keep them numbers
        // either way (JSON has one number type), nothing to fix.
        s
    } else {
        "0".into()
    }
}

/// A parsed JSON value — the minimal model the snapshot reader needs.
#[derive(Clone, Debug, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

/// Looks a field up in a parsed object.
fn top_field<'a>(obj: &'a [(String, Value)], name: &str) -> Result<&'a Value, String> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {name:?}"))
}

/// Looks an *optional* unsigned counter up: absent is `None` (snapshots
/// written before the field existed stay parseable), present must still be
/// a well-formed unsigned integer.
fn opt_field(obj: &[(String, Value)], name: &str) -> Result<Option<u64>, String> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.unsigned(name))
        .transpose()
}

/// The floating-point sibling of [`opt_field`]: absent is `None`, present
/// must be a well-formed JSON number.
fn opt_float(obj: &[(String, Value)], name: &str) -> Result<Option<f64>, String> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.number(name))
        .transpose()
}

impl Value {
    fn object(&self, ctx: &str) -> Result<Vec<(String, Value)>, String> {
        match self {
            Value::Object(fields) => Ok(fields.clone()),
            other => Err(format!("{ctx}: expected an object, got {other:?}")),
        }
    }

    fn array(&self, ctx: &str) -> Result<&[Value], String> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(format!("{ctx}: expected an array, got {other:?}")),
        }
    }

    fn string(&self, ctx: &str) -> Result<String, String> {
        match self {
            Value::String(s) => Ok(s.clone()),
            other => Err(format!("{ctx}: expected a string, got {other:?}")),
        }
    }

    fn number(&self, ctx: &str) -> Result<f64, String> {
        match self {
            Value::Number(n) => Ok(*n),
            other => Err(format!("{ctx}: expected a number, got {other:?}")),
        }
    }

    fn unsigned(&self, ctx: &str) -> Result<u64, String> {
        let n = self.number(ctx)?;
        if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
            Ok(n as u64)
        } else {
            Err(format!("{ctx}: expected an unsigned integer, got {n}"))
        }
    }

    /// Recursive-descent parse of one value; returns the remainder.
    fn parse(s: &str) -> Result<(Value, &str), String> {
        let s = s.trim_start();
        let mut chars = s.chars();
        match chars.next() {
            None => Err("unexpected end of input".into()),
            Some('n') => s
                .strip_prefix("null")
                .map(|r| (Value::Null, r))
                .ok_or_else(|| "bad literal (expected null)".into()),
            Some('t') => s
                .strip_prefix("true")
                .map(|r| (Value::Bool(true), r))
                .ok_or_else(|| "bad literal (expected true)".into()),
            Some('f') => s
                .strip_prefix("false")
                .map(|r| (Value::Bool(false), r))
                .ok_or_else(|| "bad literal (expected false)".into()),
            Some('"') => Self::parse_string(&s[1..]),
            Some('[') => {
                let mut rest = s[1..].trim_start();
                let mut items = Vec::new();
                if let Some(r) = rest.strip_prefix(']') {
                    return Ok((Value::Array(items), r));
                }
                loop {
                    let (v, r) = Self::parse(rest)?;
                    items.push(v);
                    rest = r.trim_start();
                    if let Some(r) = rest.strip_prefix(',') {
                        rest = r;
                    } else if let Some(r) = rest.strip_prefix(']') {
                        return Ok((Value::Array(items), r));
                    } else {
                        return Err("expected ',' or ']' in array".into());
                    }
                }
            }
            Some('{') => {
                let mut rest = s[1..].trim_start();
                let mut fields = Vec::new();
                if let Some(r) = rest.strip_prefix('}') {
                    return Ok((Value::Object(fields), r));
                }
                loop {
                    rest = rest.trim_start();
                    let Some(r) = rest.strip_prefix('"') else {
                        return Err("expected a quoted object key".into());
                    };
                    let (key, r) = Self::parse_string(r)?;
                    let Value::String(key) = key else {
                        unreachable!("parse_string returns strings")
                    };
                    let r = r.trim_start();
                    let Some(r) = r.strip_prefix(':') else {
                        return Err(format!("expected ':' after key {key:?}"));
                    };
                    let (v, r) = Self::parse(r)?;
                    fields.push((key, v));
                    rest = r.trim_start();
                    if let Some(r) = rest.strip_prefix(',') {
                        rest = r;
                    } else if let Some(r) = rest.strip_prefix('}') {
                        return Ok((Value::Object(fields), r));
                    } else {
                        return Err("expected ',' or '}' in object".into());
                    }
                }
            }
            Some(c) if c == '-' || c.is_ascii_digit() => {
                let end = s
                    .char_indices()
                    .find(|&(_, c)| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                    .map_or(s.len(), |(i, _)| i);
                let (num, rest) = s.split_at(end);
                num.parse::<f64>()
                    .map(|n| (Value::Number(n), rest))
                    .map_err(|_| format!("bad number {num:?}"))
            }
            Some(c) => Err(format!("unexpected character {c:?}")),
        }
    }

    /// Parses the remainder of a string literal (the opening quote is
    /// consumed by the caller).
    fn parse_string(s: &str) -> Result<(Value, &str), String> {
        let mut out = String::new();
        let mut chars = s.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Ok((Value::String(out), &s[i + 1..])),
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 'b')) => out.push('\u{8}'),
                    Some((_, 'f')) => out.push('\u{c}'),
                    Some((j, 'u')) => {
                        let hex = s.get(j + 1..j + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        // Skip the 4 hex digits.
                        for _ in 0..4 {
                            chars.next();
                        }
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }
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
                    peak_memo_bytes: 65_536,
                    intersections: 1234,
                    num_itemsets: 31,
                    border_rejudged: Some(12),
                    border_skipped: Some(40),
                    memo_patched: Some(88),
                    memo_rebuilt: Some(3),
                    ..Default::default()
                },
                JsonRun {
                    workload: "skew=1.2".into(),
                    algorithm: "UH-Mine \"quoted\"".into(),
                    engine: "n/a".into(),
                    wall_ms: 0.5,
                    peak_bytes: 0,
                    peak_memo_bytes: 0,
                    intersections: 0,
                    num_itemsets: 7,
                    ..Default::default()
                },
            ],
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let snap = sample();
        let parsed = JsonSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
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
        let report = compare_paths(&base_dir, &fresh_dir, 200.0).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
        assert!(
            report.warnings[0].contains("wall_ms"),
            "{:?}",
            report.warnings
        );
        // A wide tolerance silences the warning.
        let report = compare_paths(&base_dir, &fresh_dir, 2000.0).unwrap();
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
        drifted.runs[1].intersections += 1;
        drifted.runs[0].num_itemsets -= 1;
        drifted.write(&fresh_dir).unwrap();
        let report = compare_paths(&base_dir, &fresh_dir, 200.0).unwrap();
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
        let report = compare_paths(&base_dir, &fresh_dir, 200.0).unwrap();
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
        compare_snapshots("s", &base, &fresh, 200.0, &mut report);
        assert!(report.failures.iter().any(|f| f.contains("labels")));
        let mut report = CompareReport::default();
        let mut fresh = sample();
        fresh.runs.pop();
        fresh.seed += 1;
        compare_snapshots("s", &base, &fresh, 200.0, &mut report);
        assert!(report.failures.iter().any(|f| f.contains("seed")));
        assert!(report.failures.iter().any(|f| f.contains("runs")));
        // Memo drift is advisory only.
        let mut report = CompareReport::default();
        let mut fresh = sample();
        fresh.runs[0].peak_memo_bytes += 1024;
        compare_snapshots("s", &base, &fresh, 200.0, &mut report);
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
            "\"num_itemsets\": 31",
            "\"num_itemsets\": 31, \"shards_evaluated\": 96, \"shards_pruned\": 32",
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
        compare_snapshots("s", &base, &fresh, 200.0, &mut report);
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
        compare_snapshots("s", &base, &fresh, 200.0, &mut report);
        assert!(report.passed() && report.warnings.is_empty());
        let mut report = CompareReport::default();
        let mut slow = fresh.clone();
        slow.runs[0].latency_p99_ms = Some(400.0);
        compare_snapshots("s", &base, &slow, 200.0, &mut report);
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("latency_p99_ms") && w.contains("tolerance")));
    }

    #[test]
    fn parser_handles_nested_and_escaped_values() {
        let (v, rest) =
            Value::parse("{\"a\": [1, {\"b\": \"x\\u0021\"}, true, null], \"c\": -2.5e1}  ")
                .unwrap();
        assert_eq!(rest.trim(), "");
        let obj = v.object("t").unwrap();
        assert_eq!(top_field(&obj, "c").unwrap().number("c").unwrap(), -25.0);
        let arr = top_field(&obj, "a").unwrap().clone();
        let arr = arr.array("a").unwrap();
        assert_eq!(arr[0].number("0").unwrap(), 1.0);
        let inner = arr[1].object("1").unwrap();
        assert_eq!(top_field(&inner, "b").unwrap().string("b").unwrap(), "x!");
    }
}
