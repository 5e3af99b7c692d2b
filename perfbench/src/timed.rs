//! The untraced run: the end-to-end metrics.
//!
//! Samples are interleaved round-robin over the whole run — every round
//! takes one sample of each miner, one stream sample and one serve sample
//! — so drift of the host during the run spreads over all metrics instead
//! of landing on whichever metric was measured at the time. Short mines
//! repeat inside a sample ([`Workload::reps`]), so each sample lasts about
//! 0.1 s or more.
//!
//! Every round rebuilds the batch and serve state from a fresh set-up: on
//! one long-lived state the same mines ran up to 25% slower after a few
//! rounds, so a run's figures depended on how many rounds the host
//! allowed. The stream is the exception: it is aged through one full
//! window turnover before the first round ([`crate::stream::Stream::age`])
//! and then kept, so the timed refreshes cover a window that has been
//! turned over at least once and keeps moving through new transactions
//! from round to round, as a long-running ingest's does. (The fresh
//! set-up still fills a window and runs its first refresh, so `setup_s`
//! times the whole set-up.)
//!
//! Every round also times the benchmark's reference kernel before each of
//! its samples, and the round's timings are scaled by
//! [`REFERENCE_NOMINAL_S`] over the median of those reference times: the
//! reported figures are the time each operation would take on a host where
//! the reference kernel takes its nominal time. Measured on a shared
//! 2-vCPU host, the figures of separate processes track the reference
//! kernel closely (correlation ≥ 0.9 for most timings), and the scaling
//! halves their spread across processes. The raw figures are printed
//! beside the scaled ones on the `detail` line.

use std::hint::black_box;
use std::time::Instant;

use crate::batch::{self, MINERS};
use crate::host::{steal_ticks, ReferenceKernel, REFERENCE_NOMINAL_S};
use crate::setup::Setup;
use crate::stats::{percentile, quartiles, tail_supported};
use crate::trace::Tracer;
use crate::workload::Workload;
use crate::{setup, stats, Checks, Metric, Report};

/// Rounds every run takes at least.
pub const MIN_ROUNDS: usize = 5;
/// Refresh latencies needed to report their 90th percentile.
pub const MIN_REFRESHES: usize = 100;
/// Request latencies needed to report their 99th percentile.
pub const MIN_REQUESTS: usize = 1000;
/// The round after which a stream checkpoint is verified against a batch
/// re-mine (besides the first refresh and the end of timing).
const STREAM_CHECK_ROUND: usize = 2;

/// Samples of the end-to-end metrics, gathered round by round.
pub struct Samples {
    /// Seconds per mine, one vector per miner in [`MINERS`] order.
    pub mine_s: Vec<Vec<f64>>,
    /// Latency of every refresh, milliseconds.
    pub refresh_ms: Vec<f64>,
    /// Transactions absorbed per second, one per stream sample.
    pub ingest: Vec<f64>,
    /// Client-observed latency of every request, microseconds.
    pub request_us: Vec<f64>,
    /// The op of every request, in `request_us` order.
    pub request_ops: Vec<&'static str>,
    /// Requests per second, one per serve sample.
    pub rps: Vec<f64>,
    /// Reference-kernel seconds, one before each sample.
    pub reference_s: Vec<f64>,
}

impl Default for Samples {
    fn default() -> Self {
        Samples {
            mine_s: vec![Vec::new(); MINERS.len()],
            refresh_ms: Vec::new(),
            ingest: Vec::new(),
            request_us: Vec::new(),
            request_ops: Vec::new(),
            rps: Vec::new(),
            reference_s: Vec::new(),
        }
    }
}

impl Samples {
    /// Appends `other` with its times multiplied (and rates divided) by
    /// `factor`.
    fn append_scaled(&mut self, other: &Samples, factor: f64) {
        for (mine, more) in self.mine_s.iter_mut().zip(&other.mine_s) {
            mine.extend(more.iter().map(|s| s * factor));
        }
        self.refresh_ms
            .extend(other.refresh_ms.iter().map(|ms| ms * factor));
        self.ingest.extend(other.ingest.iter().map(|r| r / factor));
        self.request_us
            .extend(other.request_us.iter().map(|us| us * factor));
        self.request_ops.extend_from_slice(&other.request_ops);
        self.rps.extend(other.rps.iter().map(|r| r / factor));
        self.reference_s.extend_from_slice(&other.reference_s);
    }

    /// The end-to-end metrics these samples give, with `setup_s` and the
    /// heap peak; tail percentiles without ten samples beyond them fail.
    fn metrics(&self, setup_s: &[f64], peak_mb: f64, checks: &mut Checks) -> Vec<Metric> {
        let mut tail = |name: &str, unit: &'static str, samples: &[f64], p: f64| {
            checks.check(tail_supported(samples.len(), p), || {
                format!(
                    "{name}: {} samples leave fewer than ten beyond p{p}",
                    samples.len()
                )
            });
            let (q1, q3) = quartiles(samples);
            Metric {
                name: name.to_string(),
                unit,
                value: percentile(samples, p),
                samples: samples.len(),
                q1,
                q3,
            }
        };
        let mut metrics: Vec<Metric> = MINERS
            .iter()
            .zip(&self.mine_s)
            .map(|(a, s)| Metric::median_of(format!("mine_s.{}", a.name()), "s", s))
            .collect();
        metrics.push(Metric::single("peak_heap_mb", "MB", peak_mb));
        metrics.push(Metric::median_of("setup_s", "s", setup_s));
        metrics.push(tail("refresh_p50_ms", "ms", &self.refresh_ms, 50.0));
        metrics.push(tail("refresh_p90_ms", "ms", &self.refresh_ms, 90.0));
        metrics.push(Metric::median_of("ingest_tx_per_s", "tx/s", &self.ingest));
        metrics.push(tail("request_p50_us", "us", &self.request_us, 50.0));
        metrics.push(tail("request_p99_us", "us", &self.request_us, 99.0));
        metrics.push(Metric::median_of("requests_per_s", "1/s", &self.rps));
        metrics
    }
}

/// One round: a sample of each miner (`reps[k]` mines of miner `k`), one
/// stream sample and one serve sample, with `tracer`'s spans around the
/// calls and, when given, a reference-kernel pass before each sample.
pub fn run_round(
    state: &mut Setup,
    w: &Workload,
    reps: &[usize],
    reference: Option<&ReferenceKernel>,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Samples {
    let mut samples = Samples::default();
    let reference_pass = |samples: &mut Samples| {
        if let Some(r) = reference {
            samples.reference_s.push(r.time_once());
        }
    };
    for (k, &algo) in MINERS.iter().enumerate() {
        reference_pass(&mut samples);
        let _g = tracer.span(format!("batch.mine.{}", algo.name()));
        let t = Instant::now();
        for _ in 0..reps[k] {
            black_box(batch::mine(black_box(&state.db), algo, w));
        }
        samples.mine_s[k].push(t.elapsed().as_secs_f64() / reps[k] as f64);
        checks.ok(reps[k] as u64);
    }

    reference_pass(&mut samples);
    let t = Instant::now();
    for _ in 0..w.slice_steps {
        let step = state.stream.step(tracer);
        samples.refresh_ms.push(step.refresh.as_secs_f64() * 1e3);
    }
    let absorbed = (w.slice_steps * state.stream.step_len()) as f64;
    samples.ingest.push(absorbed / t.elapsed().as_secs_f64());
    checks.ok(w.slice_steps as u64);

    reference_pass(&mut samples);
    let slice = state.serve.slice(w.slice_requests, tracer);
    let mut sent = 0;
    for client in &slice.clients {
        samples.request_us.extend_from_slice(&client.latencies_us);
        samples.request_ops.extend_from_slice(&client.ops);
        sent += client.latencies_us.len();
        checks.attempted += client.latencies_us.len() as u64;
        checks.failed += client.failed;
        if client.failed > 0 {
            checks
                .notes
                .push(format!("{} requests failed", client.failed));
        }
    }
    samples.rps.push(sent as f64 / slice.wall.as_secs_f64());
    samples
}

/// Runs workload `w` on `seed` for about `seconds` of timed samples.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let live = ufim_metrics::alloc::live_bytes();
    let reference = ReferenceKernel::default();
    let reference_bytes = ufim_metrics::alloc::live_bytes().saturating_sub(live);
    let steal_start = steal_ticks();
    let mut checks = Checks::default();

    let off = Tracer::new(false);
    let (mut state, _) = setup::build(w, seed, &off)?;

    // Checks and warm-up, outside timing.
    let results: Vec<_> = MINERS.iter().map(|&a| batch::mine(&state.db, a, w)).collect();
    checks.ok(MINERS.len() as u64);
    let verdicts = batch::agreement(&results)
        .into_iter()
        .chain(state.serve.verify_warm(&state.db, w, seed));
    for (passed, what) in verdicts {
        checks.check(passed, || what);
    }
    drop(results);
    checks.check(state.stream.matches_batch(), || {
        "window differs from a batch re-mine after the first refresh".into()
    });
    // The stream ages once and lives through every round; see the module
    // documentation.
    state.stream.age();
    checks.check(state.stream.matches_batch(), || {
        "window differs from a batch re-mine after aging".into()
    });

    // Each round's fresh set-up is one `setup_s` sample. The peak covers
    // the set-ups and the timed phases, not the checks between them.
    ufim_metrics::alloc::reset_peak();
    let mut peak = 0;
    let (mut raw, mut scaled) = (Samples::default(), Samples::default());
    let (mut setup_raw, mut setup_s) = (Vec::new(), Vec::new());
    let cap = (3.0 * seconds).min(120.0);
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS
        || start.elapsed().as_secs_f64() < seconds
        || scaled.refresh_ms.len() < MIN_REFRESHES
        || scaled.request_us.len() < MIN_REQUESTS
    {
        if start.elapsed().as_secs_f64() > cap {
            break;
        }
        let Setup { stream, .. } = state;
        let (fresh, setup_secs) = setup::build(w, seed, &off)?;
        state = Setup { stream, ..fresh };
        let samples = run_round(&mut state, w, &w.reps, Some(&reference), &off, &mut checks);
        let factor = REFERENCE_NOMINAL_S / stats::median(&samples.reference_s);
        raw.append_scaled(&samples, 1.0);
        scaled.append_scaled(&samples, factor);
        setup_raw.push(setup_secs);
        setup_s.push(setup_secs * factor);
        round += 1;
        if round == STREAM_CHECK_ROUND {
            peak = peak.max(ufim_metrics::alloc::peak_bytes());
            checks.check(state.stream.matches_batch(), || {
                format!("window differs from a batch re-mine after round {round}")
            });
            ufim_metrics::alloc::reset_peak();
        }
    }
    peak = peak.max(ufim_metrics::alloc::peak_bytes());
    checks.check(state.stream.matches_batch(), || {
        "window differs from a batch re-mine when timing ended".into()
    });
    let peak_mb = peak.saturating_sub(reference_bytes) as f64 / (1 << 20) as f64;
    drop(state);

    let metrics = scaled.metrics(&setup_s, peak_mb, &mut checks);
    let mut diagnostics = vec![("rounds".to_string(), round as f64)];
    let (ref_q1, ref_q3) = quartiles(&raw.reference_s);
    for (name, value) in [
        ("reference_ms", stats::median(&raw.reference_s)),
        ("reference_q1_ms", ref_q1),
        ("reference_q3_ms", ref_q3),
    ] {
        diagnostics.push((name.to_string(), value * 1e3));
    }
    if let (Some(a), Some(b)) = (steal_start, steal_ticks()) {
        diagnostics.push(("steal_ticks".to_string(), b.saturating_sub(a) as f64));
    }
    // Where the request percentiles fall: each op's latency quartiles.
    for op in ["probe", "topk", "sweep", "mine"] {
        let us: Vec<f64> = scaled
            .request_us
            .iter()
            .zip(&scaled.request_ops)
            .filter(|(_, &o)| o == op)
            .map(|(us, _)| *us)
            .collect();
        if us.is_empty() {
            continue;
        }
        let (q1, q3) = quartiles(&us);
        for (what, value) in [("q1", q1), ("median", stats::median(&us)), ("q3", q3)] {
            diagnostics.push((format!("request_us.{op}.{what}"), value));
        }
    }
    for (a, r) in MINERS.iter().zip(&w.reps) {
        diagnostics.push((format!("reps.{}", a.name()), *r as f64));
    }
    for m in raw.metrics(&setup_raw, peak_mb, &mut Checks::default()) {
        diagnostics.push((format!("raw.{}", m.name), m.value));
    }
    Ok(Report {
        metrics,
        checks,
        diagnostics,
    })
}
