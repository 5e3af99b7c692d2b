//! The benchmark's deterministic counters repeat exactly across runs and
//! pool sizes, and both runs verify clean. Workloads are shrunk so the
//! suite stays quick; run it with `cargo test --release`.

use perfbench::workload::{Workload, NAMES};
use perfbench::{layers, timed};
use ufim_core::parallel::with_thread_override;

#[global_allocator]
static ALLOC: ufim_metrics::CountingAllocator = ufim_metrics::CountingAllocator::new();

const SEED: u64 = 7;

fn small(name: &str) -> Workload {
    let mut w = Workload::named(name).expect("listed workload");
    w.scale /= 8.0;
    w
}

/// The count-valued per-layer metrics of one traced run.
fn counters(w: &Workload, threads: usize) -> Vec<(String, f64)> {
    let report = with_thread_override(threads, || layers::run(w, SEED, None))
        .expect("the traced run completes");
    assert_eq!(report.checks.failed, 0, "{:?}", report.checks.notes);
    report
        .metrics
        .into_iter()
        .filter(|m| m.unit == "count")
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn counters_repeat_across_runs_and_thread_counts() {
    for name in NAMES {
        let w = small(name);
        let first = counters(&w, 2);
        assert!(first.len() >= 40, "{name}: too few counters");
        assert_eq!(first, counters(&w, 2), "{name}: second run differs");
        assert_eq!(first, counters(&w, 1), "{name}: one thread differs");
    }
}

#[test]
fn timed_run_reports_every_metric_and_verifies() {
    let report = timed::run(&small("dense"), SEED, 5.0).expect("the timed run completes");
    assert_eq!(report.checks.failed, 0, "{:?}", report.checks.notes);
    assert_eq!(report.metrics.len(), 16);
    for m in &report.metrics {
        assert!(m.value > 0.0, "{} is {}", m.name, m.value);
    }
}
