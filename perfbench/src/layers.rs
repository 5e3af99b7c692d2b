//! The traced run: per-layer metrics.
//!
//! Spans wrap the benchmark's calls into each layer's public entry
//! points: set-up steps, whole mines at one and two pool threads, replays
//! of the vertical kernel and the Poisson-binomial kernels on the
//! itemsets the miners found, window mutations and index steps replayed
//! on a copy of the window, incremental refreshes, and served requests —
//! parsed, handled and serialised in process, then sent over TCP. Counts
//! come from `MinerStats` and the memo counters at the same boundaries.
//! `trace.overhead_pct` compares traced and untraced rounds of the
//! end-to-end loop.

use std::hint::black_box;
use std::time::Instant;
use ufim_core::parallel::with_thread_override;
use ufim_core::prelude::*;
use ufim_serve::Request;

use crate::batch::{self, MINERS};
use crate::host::ReferenceKernel;
use crate::serve::is_ok;
use crate::setup::{self, Setup};
use crate::stream::{age_steps, Feed};
use crate::timed::run_round;
use crate::trace::{self_times_ns, write_jsonl, Tracer};
use crate::workload::{Workload, DATASET};
use crate::{stats, Checks, Metric, Report};

/// Shortest replay of one kernel, seconds.
const MIN_REPLAY_S: f64 = 0.1;
/// In-process requests replayed through parse / handle / serialize.
const IN_PROCESS_REQUESTS: u64 = 400;

/// Runs `f` over and over, one span per pass, until [`MIN_REPLAY_S`] has
/// passed; returns seconds per pass.
fn replay(tracer: &Tracer, name: &str, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || start.elapsed().as_secs_f64() < MIN_REPLAY_S {
        let _g = tracer.span(name);
        f();
        passes += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(passes)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs the traced pass of `w` on `seed`, writing its spans to `spans`
/// when given.
pub fn run(w: &Workload, seed: u64, spans: Option<&std::path::Path>) -> Result<Report, String> {
    let tracer = Tracer::new(true);
    let reference = ReferenceKernel::default();
    let mut checks = Checks::default();
    let mut metrics = Vec::new();

    // ufim-data and set-up: medians over the repeated set-ups.
    let mut state = setup::repeated(w, seed, &tracer)?;
    for (metric, span) in [
        ("setup.generate_s", "setup.generate"),
        ("setup.index_build_s", "setup.index_build"),
        ("setup.prime_s", "setup.prime"),
    ] {
        let secs: Vec<f64> = tracer
            .durations_us(span)
            .iter()
            .map(|us| us / 1e6)
            .collect();
        metrics.push(Metric::median_of(metric, "s", &secs));
    }

    let results = miners(&state, w, &tracer, &mut checks, &mut metrics);
    let index = &state
        .serve
        .core
        .dataset(DATASET)
        .expect("the set-up loaded the dataset")
        .index;
    let into_ns = kernel(&results[0].0, index, &tracer, &mut metrics);
    for (algo, (result, wall_s)) in MINERS.iter().zip(&results) {
        let share = ratio(result.stats.intersections as f64 * into_ns, wall_s * 1e9);
        metrics.push(Metric::single(
            format!("miners.kernel_share.{}", algo.name()),
            "ratio",
            share,
        ));
    }
    let dpb = &results[MINERS
        .iter()
        .position(|&a| a == ufim_miners::Algorithm::DPB)
        .expect("DPB is listed")]
    .0;
    poisson_binomial(dpb, index, w, &tracer, &mut checks, &mut metrics);
    window_and_index(&state, w, &tracer, &mut checks, &mut metrics);
    incremental(&mut state, w, &tracer, &mut checks, &mut metrics);
    serve(&mut state, w, &tracer, &mut checks, &mut metrics);
    overhead(&mut state, w, &reference, &mut checks, &mut metrics);

    let all = tracer.spans();
    print_self_times(&all);
    if let Some(path) = spans {
        write_jsonl(&all, path).map_err(|e| format!("cannot write spans: {e}"))?;
    }
    Ok(Report {
        metrics,
        checks,
        diagnostics: vec![("spans".to_string(), all.len() as f64)],
    })
}

/// Each miner at two pool threads and at one: counters, ratios and the
/// pool speed-up. Counters must not depend on the thread count. Returns
/// each miner's two-thread result and seconds.
fn miners(
    state: &Setup,
    w: &Workload,
    tracer: &Tracer,
    checks: &mut Checks,
    metrics: &mut Vec<Metric>,
) -> Vec<(MiningResult, f64)> {
    let mut results = Vec::with_capacity(MINERS.len());
    let mut counts = Vec::new();
    let mut ratios = Vec::new();
    for &algo in &MINERS {
        let name = algo.name();
        let timed_mine = |threads: usize| {
            with_thread_override(threads, || {
                let _g = tracer.span(format!("pool.mine{threads}.{name}"));
                let start = Instant::now();
                let r = batch::mine(&state.db, algo, w);
                (r, start.elapsed().as_secs_f64())
            })
        };
        let (two, two_s) = timed_mine(2);
        let (one, one_s) = timed_mine(1);
        checks.check(
            one.stats == two.stats && one.sorted_itemsets() == two.sorted_itemsets(),
            || format!("{name}: results or counters differ between 1 and 2 threads"),
        );
        let s = &two.stats;
        for (what, value) in [
            ("candidates", s.candidates_evaluated),
            ("intersections", s.intersections),
            ("exact_evaluations", s.exact_evaluations),
            ("peak_memo_bytes", s.peak_memo_bytes),
            ("peak_structure_nodes", s.peak_structure_nodes),
        ] {
            counts.push(Metric::single(
                format!("miners.{what}.{name}"),
                "count",
                value as f64,
            ));
        }
        ratios.push(Metric::single(
            format!("miners.useful_ratio.{name}"),
            "ratio",
            ratio(two.len() as f64, s.candidates_evaluated as f64),
        ));
        ratios.push(Metric::single(
            format!("pool.speedup.{name}"),
            "ratio",
            ratio(one_s, two_s),
        ));
        if algo == ufim_miners::Algorithm::UApriori {
            ratios.push(Metric::single(
                "miners.shards_pruned_ratio",
                "ratio",
                ratio(
                    s.shards_pruned as f64,
                    (s.shards_pruned + s.shards_evaluated) as f64,
                ),
            ));
        }
        results.push((two, two_s));
    }
    let plain: Vec<MiningResult> = results.iter().map(|(r, _)| r.clone()).collect();
    for (passed, what) in batch::agreement(&plain) {
        checks.check(passed, || what);
    }
    metrics.extend(counts);
    metrics.extend(ratios);
    results
}

/// Replays the vertical kernel on each frequent itemset's last extension
/// (prefix vector ∩ last item's postings), as the level-wise engine
/// evaluates it. Returns nanoseconds per `intersect_into` call.
fn kernel(
    uapriori: &MiningResult,
    index: &VerticalIndex,
    tracer: &Tracer,
    metrics: &mut Vec<Metric>,
) -> f64 {
    let pairs: Vec<(ProbVector, ItemId)> = uapriori
        .itemsets
        .iter()
        .filter(|f| f.itemset.len() >= 2)
        .map(|f| {
            let (last, prefix) = f.itemset.items().split_last().expect("len >= 2");
            (index.prob_vector(prefix), *last)
        })
        .collect();
    let calls = pairs.len().max(1) as f64;
    let bytes: usize = pairs
        .iter()
        .map(|(p, i)| p.mem_bytes() + index.postings(*i).mem_bytes())
        .sum();
    let stats_s = replay(tracer, "kernel.intersect_stats", || {
        for (p, i) in &pairs {
            black_box(p.intersect_stats(index.postings(*i)));
        }
    });
    let mut scratch = ScratchSpace::new();
    let into_s = replay(tracer, "kernel.intersect_into", || {
        for (p, i) in &pairs {
            black_box(p.intersect_into(index.postings(*i), &mut scratch));
        }
    });
    metrics.push(Metric::single(
        "kernel.intersect_stats_ns",
        "ns",
        stats_s * 1e9 / calls,
    ));
    metrics.push(Metric::single(
        "kernel.intersect_into_ns",
        "ns",
        into_s * 1e9 / calls,
    ));
    metrics.push(Metric::single(
        "kernel.bytes_per_call",
        "B",
        bytes as f64 / calls,
    ));
    into_s * 1e9 / calls
}

/// Replays the exact kernels on the probability vectors of the itemsets
/// DPB judged frequent; each must clear `pft` again.
fn poisson_binomial(
    dpb: &MiningResult,
    index: &VerticalIndex,
    w: &Workload,
    tracer: &Tracer,
    checks: &mut Checks,
    metrics: &mut Vec<Metric>,
) {
    let params = MiningParams::new(w.min_sup, w.pft).expect("workload thresholds are ratios");
    let msup = params.msup(index.num_transactions());
    let vectors: Vec<Vec<f64>> = dpb
        .itemsets
        .iter()
        .map(|f| index.prob_vector(f.itemset.items()).nonzero_probs())
        .collect();
    let calls = vectors.len().max(1) as f64;
    let below = vectors
        .iter()
        .filter(|p| ufim_stats::pb::survival_dp(p, msup) < w.pft - 1e-9)
        .count();
    checks.check(below == 0, || {
        format!("{below} itemsets DPB kept fall below pft on replay")
    });
    let dp_s = replay(tracer, "pb.survival_dp", || {
        for p in &vectors {
            black_box(ufim_stats::pb::survival_dp(p, msup));
        }
    });
    let dc_s = replay(tracer, "pb.divide_conquer", || {
        for p in &vectors {
            black_box(ufim_stats::pb::pmf_divide_conquer(p, Some(msup)));
        }
    });
    metrics.push(Metric::single(
        "pb.survival_dp_us",
        "us",
        dp_s * 1e6 / calls,
    ));
    metrics.push(Metric::single(
        "pb.divide_conquer_us",
        "us",
        dc_s * 1e6 / calls,
    ));
}

/// Replays the stream's window steps on a copy of the window and an index
/// of its own, aged through one turnover as the stream is; the stepped
/// index must equal a fresh build.
fn window_and_index(
    state: &Setup,
    w: &Workload,
    tracer: &Tracer,
    checks: &mut Checks,
    metrics: &mut Vec<Metric>,
) {
    let db = &state.db;
    let (mut window, mut feed) = Feed::fill(w, db, &state.arrivals);
    let _ = window.take_step();
    let mut index = VerticalIndex::build(&window.snapshot());
    for n in age_steps(window.capacity()) {
        feed.slide(&mut window, n);
        index.apply_step(&window.take_step());
    }
    let (mut mutate_us, mut apply_us) = (Vec::new(), Vec::new());
    for _ in 0..w.slice_steps {
        let start = Instant::now();
        {
            let _g = tracer.span("window.replay_mutate");
            feed.slide(&mut window, w.step);
        }
        mutate_us.push(start.elapsed().as_secs_f64() * 1e6);
        let step = window.take_step();
        let start = Instant::now();
        {
            let _g = tracer.span("index.apply_step");
            index.apply_step(&step);
        }
        apply_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let fresh = VerticalIndex::build(&window.snapshot());
    checks.check(
        (0..db.num_items()).all(|i| index.postings(i) == fresh.postings(i)),
        || "stepped index differs from a fresh build".into(),
    );
    metrics.push(Metric::median_of("window.mutate_us", "us", &mutate_us));
    metrics.push(Metric::median_of("index.apply_step_us", "us", &apply_us));
}

/// Incremental refreshes on the set-up's window, aged first as in the
/// untraced run: border and memo counts, and refresh time against a batch
/// re-mine at three checkpoints.
fn incremental(
    state: &mut Setup,
    w: &Workload,
    tracer: &Tracer,
    checks: &mut Checks,
    metrics: &mut Vec<Metric>,
) {
    let stream = &mut state.stream;
    stream.age();
    let mut total = MinerStats::default();
    let (mut refresh_s, mut batch_s) = (Vec::new(), Vec::new());
    for k in 1..=w.slice_steps {
        let step = stream.step(tracer);
        total.absorb(&step.stats);
        if k % (w.slice_steps / 3).max(1) == 0 {
            let start = Instant::now();
            let batch = {
                let _g = tracer.span("incremental.batch_remine");
                stream.batch_remine()
            };
            batch_s.push(start.elapsed().as_secs_f64());
            refresh_s.push(step.refresh.as_secs_f64());
            checks.check(stream.matches(&batch), || {
                format!("window differs from a batch re-mine after step {k}")
            });
        }
    }
    checks.ok(w.slice_steps as u64);
    let (rejudged, skipped) = (total.border_rejudged, total.border_skipped);
    let (patched, rebuilt) = (total.memo_patched, total.memo_rebuilt);
    metrics.push(Metric::single(
        "incremental.rejudge_ratio",
        "ratio",
        ratio(rejudged as f64, (rejudged + skipped) as f64),
    ));
    metrics.push(Metric::single(
        "incremental.patch_ratio",
        "ratio",
        ratio(patched as f64, (patched + rebuilt) as f64),
    ));
    metrics.push(Metric::single(
        "incremental.vs_batch",
        "ratio",
        ratio(stats::median(&refresh_s), stats::median(&batch_s)),
    ));
    for (what, value) in [
        ("border_rejudged", rejudged),
        ("border_skipped", skipped),
        ("memo_patched", patched),
        ("memo_rebuilt", rebuilt),
    ] {
        metrics.push(Metric::single(
            format!("incremental.{what}"),
            "count",
            value as f64,
        ));
    }
}

/// Served requests: in process through parse / handle / serialize, then
/// over TCP; the wire share is the client latency beyond the in-process
/// time of the same request class.
fn serve(
    state: &mut Setup,
    w: &Workload,
    tracer: &Tracer,
    checks: &mut Checks,
    metrics: &mut Vec<Metric>,
) {
    let core = std::sync::Arc::clone(&state.serve.core);
    let mut in_process_warm_us = Vec::new();
    for i in 0..IN_PROCESS_REQUESTS {
        // A client id the TCP clients never use.
        let request = state.serve.traffic.request(u64::MAX >> 33, i);
        let class = if request.cold() { "cold" } else { "memo" };
        let start = Instant::now();
        let ok = tracer.in_request(u64::MAX - i, || {
            let _r = tracer.span("serve.in_process");
            let parsed = {
                let _g = tracer.span("serve.parse");
                Request::parse(&request.line)
            };
            let Ok(parsed) = parsed else {
                return false;
            };
            let response = {
                let _g = tracer.span(format!("serve.handle.{class}"));
                core.handle(&parsed)
            };
            let line = {
                let _g = tracer.span("serve.serialize");
                response.to_line()
            };
            is_ok(&line)
        });
        if !request.cold() {
            in_process_warm_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        checks.check(ok, || {
            format!("in-process request failed: {}", request.line)
        });
    }
    let slice = state.serve.slice(w.slice_requests, tracer);
    let mut tcp_warm_us = Vec::new();
    for client in &slice.clients {
        checks.attempted += client.latencies_us.len() as u64;
        checks.failed += client.failed;
        tcp_warm_us.extend(
            client
                .latencies_us
                .iter()
                .zip(&client.ops)
                .filter(|(_, &op)| op != "mine")
                .map(|(us, _)| *us),
        );
    }
    let median_span = |name: &str| {
        let us = tracer.durations_us(name);
        if us.is_empty() {
            0.0
        } else {
            stats::median(&us)
        }
    };
    metrics.push(Metric::single(
        "serve.parse_us",
        "us",
        median_span("serve.parse"),
    ));
    metrics.push(Metric::single(
        "serve.handle_us.memo",
        "us",
        median_span("serve.handle.memo"),
    ));
    metrics.push(Metric::single(
        "serve.handle_us.cold",
        "us",
        median_span("serve.handle.cold"),
    ));
    metrics.push(Metric::single(
        "serve.serialize_us",
        "us",
        median_span("serve.serialize"),
    ));
    metrics.push(Metric::single(
        "serve.wire_us",
        "us",
        stats::median(&tcp_warm_us) - stats::median(&in_process_warm_us),
    ));
    let c = core.memo().counters();
    metrics.push(Metric::single(
        "memo.hit_ratio",
        "ratio",
        ratio(c.hits as f64, (c.hits + c.misses + c.extends) as f64),
    ));
    metrics.push(Metric::single(
        "memo.resident_mb",
        "MB",
        core.memo().resident_bytes() as f64 / (1 << 20) as f64,
    ));
    for (what, value) in [
        ("hits", c.hits),
        ("misses", c.misses),
        ("extends", c.extends),
    ] {
        metrics.push(Metric::single(
            format!("memo.{what}"),
            "count",
            value as f64,
        ));
    }
}

/// Rounds of the end-to-end loop, untraced, traced, traced, untraced (so
/// drift during the four cancels), each scaled by its reference-kernel
/// median like the untraced run; the overhead is the traced rounds' extra
/// time in percent.
fn overhead(
    state: &mut Setup,
    w: &Workload,
    reference: &ReferenceKernel,
    checks: &mut Checks,
    metrics: &mut Vec<Metric>,
) {
    let (off, on) = (Tracer::new(false), Tracer::new(true));
    let (mut untraced, mut traced) = (0.0, 0.0);
    for traced_round in [false, true, true, false] {
        let tracer = if traced_round { &on } else { &off };
        let start = Instant::now();
        let samples = run_round(state, w, &w.reps, Some(reference), tracer, checks);
        let seconds = start.elapsed().as_secs_f64() / stats::median(&samples.reference_s);
        if traced_round {
            traced += seconds;
        } else {
            untraced += seconds;
        }
    }
    metrics.push(Metric::single(
        "trace.overhead_pct",
        "%",
        (traced - untraced) / untraced * 100.0,
    ));
}

/// Self time per span name (total over the run), to stderr.
fn print_self_times(spans: &[crate::trace::Span]) {
    let mut totals: std::collections::BTreeMap<String, (u64, u64)> = Default::default();
    for (name, ns) in self_times_ns(spans) {
        let entry = totals.entry(name).or_default();
        entry.0 += 1;
        entry.1 += ns;
    }
    eprintln!("{:<32} {:>8} {:>14}", "span", "count", "self ms");
    for (name, (count, ns)) in totals {
        eprintln!("{name:<32} {count:>8} {:>14.3}", ns as f64 / 1e6);
    }
}
