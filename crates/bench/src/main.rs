//! `ufim-bench` — the experiment harness binary. See crate docs
//! (`cargo doc -p ufim-bench`) and `ufim-bench help` for usage.

use ufim_bench::experiments::{fig4, fig5, fig6, matrix, tables};
use ufim_bench::HarnessConfig;
use ufim_core::{MeasureKind, TraversalKind};

/// The paper's memory metric needs a counting allocator installed in the
/// process that runs the miners.
#[global_allocator]
static ALLOC: ufim_metrics::CountingAllocator = ufim_metrics::CountingAllocator::new();

const HELP: &str = "\
ufim-bench — regenerate the tables and figures of Tong et al., VLDB 2012

USAGE:
    ufim-bench <SUBCOMMAND> [OPTIONS]

SUBCOMMANDS:
    table1            worked example (Tables 1-2, Examples 1-2)
    table6            dataset characteristics (paper vs generated)
    table7            default parameters
    fig4 [--panel P]  expected-support miners   (P: minesup|scale|zipf|all)
    fig5 [--panel P]  exact probabilistic miners (P: minsup|pft|scale|zipf|all)
    fig6 [--panel P]  approximate miners         (P: minsup|pft|scale|zipf|all)
    matrix            measure × traversal × engine grid (beyond Table 10);
                      restrict with --measure esup|poisson|normal|exact-dp|
                      exact-dc and/or --traversal level-wise|hyper|tree
    table8            precision/recall on Accident
    table9            precision/recall on Kosarak
    table10           winner summary grid
    all               everything, in paper order
    json-check PATH   validate BENCH_*.json snapshots (a file, or every
                      snapshot in a directory) — CI proves --json output
                      is machine-readable
    json-compare BASELINE FRESH
                      the bench-regression gate: every baseline snapshot
                      needs a fresh counterpart whose labels, num_itemsets
                      and summed work counters (intersections, scans,
                      candidates_*, ...) match EXACTLY (exit 1 on drift —
                      they are deterministic across machines and pool
                      sizes); wall_ms drift beyond ±300% and peak_*
                      memory changes only warn
    help              this text

OPTIONS (all subcommands):
    --scale X         fraction of paper-size transaction counts (default 0.01)
    --seed N          master RNG seed (default 42)
    --timeout-secs S  per-point budget; harder points skipped after a miss
                      (default 60; paper used 3600)
    --csv DIR         also write CSV series into DIR
    --json DIR        also write a machine-readable BENCH_<exp>.json
                      performance snapshot per experiment into DIR
                      (workload, wall_ms, peak bytes, every work counter)
    --engine E        support backend: horizontal (default), vertical,
                      diffset (memory-optimized delta memo), or both/all
                      (runs every experiment once per backend)
    --mem             add auxiliary-structure peak columns (struct units +
                      engine memo bytes) next to the allocator-level mem
                      column in reports and CSV
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, rest) = match HarnessConfig::parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            std::process::exit(2);
        }
    };
    let sub = rest.first().map(String::as_str).unwrap_or("help");
    let panel_arg = rest
        .iter()
        .position(|a| a == "--panel")
        .and_then(|i| rest.get(i + 1))
        .map(String::as_str)
        .unwrap_or("all");

    match sub {
        "table1" => tables::table1_example(),
        "table6" => tables::table6(&cfg),
        "table7" => tables::table7(),
        "fig4" => {
            let panel = match panel_arg {
                "minesup" => fig4::Fig4Panel::MinEsup,
                "scale" => fig4::Fig4Panel::Scalability,
                "zipf" => fig4::Fig4Panel::Zipf,
                "all" => fig4::Fig4Panel::All,
                other => return bad_panel(other),
            };
            fig4::run(&cfg, panel);
        }
        "fig5" => {
            let panel = match panel_arg {
                "minsup" => fig5::Fig5Panel::MinSup,
                "pft" => fig5::Fig5Panel::Pft,
                "scale" => fig5::Fig5Panel::Scalability,
                "zipf" => fig5::Fig5Panel::Zipf,
                "all" => fig5::Fig5Panel::All,
                other => return bad_panel(other),
            };
            fig5::run(&cfg, panel);
        }
        "fig6" => {
            let panel = match panel_arg {
                "minsup" => fig6::Fig6Panel::MinSup,
                "pft" => fig6::Fig6Panel::Pft,
                "scale" => fig6::Fig6Panel::Scalability,
                "zipf" => fig6::Fig6Panel::Zipf,
                "all" => fig6::Fig6Panel::All,
                other => return bad_panel(other),
            };
            fig6::run(&cfg, panel);
        }
        "matrix" => {
            let measure = match flag_value(&rest, "--measure") {
                Some(v) => match MeasureKind::parse(v) {
                    Some(m) => Some(m),
                    None => {
                        eprintln!("error: unknown --measure {v:?}\n\n{HELP}");
                        std::process::exit(2);
                    }
                },
                None => None,
            };
            let traversal = match flag_value(&rest, "--traversal") {
                Some(v) => match TraversalKind::parse(v) {
                    Some(t) => Some(t),
                    None => {
                        eprintln!("error: unknown --traversal {v:?}\n\n{HELP}");
                        std::process::exit(2);
                    }
                },
                None => None,
            };
            matrix::run(&cfg, measure, traversal);
        }
        "json-check" => {
            let Some(path) = rest.get(1) else {
                eprintln!("error: json-check needs a path\n\n{HELP}");
                std::process::exit(2);
            };
            match ufim_bench::json::check_path(std::path::Path::new(path)) {
                Ok(summaries) => {
                    for s in summaries {
                        println!("{s}");
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        "json-compare" => {
            let (Some(baseline), Some(fresh)) = (rest.get(1), rest.get(2)) else {
                eprintln!("error: json-compare needs BASELINE and FRESH paths\n\n{HELP}");
                std::process::exit(2);
            };
            match ufim_bench::json::compare_paths(
                std::path::Path::new(baseline),
                std::path::Path::new(fresh),
            ) {
                Ok(report) => {
                    for line in &report.lines {
                        println!("{line}");
                    }
                    for warning in &report.warnings {
                        println!("warning: {warning}");
                    }
                    for failure in &report.failures {
                        eprintln!("FAIL: {failure}");
                    }
                    if !report.passed() {
                        eprintln!(
                            "bench regression gate FAILED: {} counter/shape mismatch(es)",
                            report.failures.len()
                        );
                        std::process::exit(1);
                    }
                    println!(
                        "bench regression gate passed ({} snapshot(s), {} warning(s))",
                        report.lines.len(),
                        report.warnings.len()
                    );
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        "table8" => tables::table8(&cfg),
        "table9" => tables::table9(&cfg),
        "table10" => tables::table10(&cfg),
        "all" => {
            tables::table1_example();
            println!();
            tables::table6(&cfg);
            println!();
            tables::table7();
            fig4::run(&cfg, fig4::Fig4Panel::All);
            fig5::run(&cfg, fig5::Fig5Panel::All);
            fig6::run(&cfg, fig6::Fig6Panel::All);
            println!();
            tables::table8(&cfg);
            println!();
            tables::table9(&cfg);
            println!();
            tables::table10(&cfg);
            println!();
            matrix::run(&cfg, None, None);
        }
        "help" | "--help" | "-h" => print!("{HELP}"),
        other => {
            eprintln!("error: unknown subcommand {other:?}\n\n{HELP}");
            std::process::exit(2);
        }
    }
}

fn bad_panel(p: &str) {
    eprintln!("error: unknown --panel {p:?}\n\n{HELP}");
    std::process::exit(2);
}

/// The value following a `--flag` in the unconsumed argument list. A flag
/// present without a value is a usage error (exit 2), not an absent flag.
fn flag_value<'a>(rest: &'a [String], flag: &str) -> Option<&'a str> {
    let i = rest.iter().position(|a| a == flag)?;
    match rest.get(i + 1) {
        Some(v) => Some(v.as_str()),
        None => {
            eprintln!("error: {flag} needs a value\n\n{HELP}");
            std::process::exit(2);
        }
    }
}
