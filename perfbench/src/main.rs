//! `perfbench --workload <dense|deep|sparse> --seed <n> --seconds <s>
//! --trace <0|1> [--spans <file>]`
//!
//! Prints a per-metric table and a `detail` line (units, sample counts,
//! within-run quartiles, host-drift diagnostics), then as its last line
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones, sampled for
//! about `--seconds`; with `--trace 1` the per-layer ones from the traced
//! run, which does a fixed amount of work and writes its spans to
//! `--spans` when given. Exits 2 on bad arguments and 1 when a run cannot
//! complete.

use perfbench::workload::Workload;
use perfbench::{layers, timed, Report};

#[global_allocator]
static ALLOC: ufim_metrics::CountingAllocator = ufim_metrics::CountingAllocator::new();

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::named(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("seconds must lie in (0, 60], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--spans" => spans = Some(value.into()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans,
    })
}

/// A JSON number: all digits of the value (non-finite values never
/// reach here; [`perfbench::Metric`] maps them to 0).
fn num(x: f64) -> String {
    format!("{x:?}")
}

fn print_report(report: &Report, workload: &str, seed: u64) {
    for m in &report.metrics {
        println!(
            "{workload:<7} {:<34} {:>14.6} {:<6} n={:<5} q1={:.6} q3={:.6}",
            m.name, m.value, m.unit, m.samples, m.q1, m.q3
        );
    }
    for note in &report.checks.notes {
        println!("FAILED: {note}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}":{{"unit":"{}","samples":{},"q1":{},"median":{},"q3":{}}}"#,
                m.name,
                m.unit,
                m.samples,
                num(m.q1),
                num(m.value),
                num(m.q3)
            )
        })
        .collect();
    let diagnostics: Vec<String> = report
        .diagnostics
        .iter()
        .map(|(k, v)| format!(r#""{k}":{}"#, num(*v)))
        .collect();
    println!(
        r#"detail {{"workload":"{workload}","seed":{seed},"threads":{},"cpus":{},"metrics":{{{}}},"diagnostics":{{{}}}}}"#,
        ufim_core::parallel::max_threads(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        metrics.join(","),
        diagnostics.join(",")
    );
    let values: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}":{{"value":{},"unit":"{}"}}"#,
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        report.checks.failed == 0,
        report.checks.attempted.max(1),
        report.checks.failed,
        values.join(",")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let w = &args.workload;
    let report = if args.trace {
        layers::run(w, args.seed, args.spans.as_deref())
    } else {
        timed::run(w, args.seed, args.seconds)
    };
    match report {
        Ok(report) => print_report(&report, w.name, args.seed),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
