//! Microbenchmarks of the chunked `ProbVector` kernels: intersect /
//! diff_extend / apply_diff across operand length ratios (1:1, 1:16,
//! 1:256) and chunk densities, plus the galloping-vs-merge-join
//! comparison on the skewed pair and the dense UApriori anchor the
//! ROADMAP's ≥2× target is measured on.
//!
//! The vendored criterion shim cannot export measurements, so this bench
//! is a hand-rolled `harness = false` binary that times the kernels
//! itself and emits a `BENCH_kernels.json` snapshot (`--json-out DIR`)
//! through `ufim_bench::json` — the same format the fig4 harness writes,
//! so the CI `json-compare` gate covers it. Deterministic counters:
//! `intersections` records the operands' total nonzero units (kernel
//! rows) or `MinerStats::intersections` (the anchor row); `num_itemsets`
//! the result's nonzero count — both independent of timing iterations,
//! so `--smoke` (CI) and full runs produce identical strict fields.
//!
//! Flags: `--json-out DIR` writes the snapshot; `--smoke` shrinks the
//! timing budget (counters unchanged); criterion-style flags cargo
//! passes (`--bench`) are ignored.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use ufim_bench::json::{JsonRun, JsonSnapshot};
use ufim_core::prelude::*;
use ufim_core::{ProbVector, ScratchSpace};
use ufim_miners::UApriori;

const SEED: u64 = 7;
/// Long-side operand length for the kernel grid.
const BASE_LEN: usize = 1 << 16;

/// Sorted unique `(tid, prob)` pairs: `len` tids stratified over
/// `[0, len * spread)` (spread 1 = consecutive tids = full chunks;
/// spread 16 ≈ 4 nonzeros per 64-tid chunk = packed).
fn gen_pairs(rng: &mut StdRng, len: usize, spread: usize) -> (Vec<u32>, Vec<f64>) {
    let step = spread.max(1) as u32;
    let tids: Vec<u32> = (0..len as u32)
        .map(|i| {
            if step == 1 {
                i
            } else {
                i * step + rng.gen_range(0..step)
            }
        })
        .collect();
    let probs: Vec<f64> = (0..len).map(|_| rng.gen_range(0.5..=1.0)).collect();
    (tids, probs)
}

fn build(rng: &mut StdRng, len: usize, spread: usize) -> ProbVector {
    let (tids, probs) = gen_pairs(rng, len, spread);
    ProbVector::from_parts(tids, probs)
}

/// Times `f` in a fixed-budget loop (one warmup call first), returning
/// mean milliseconds per call.
fn time_ms<F: FnMut()>(mut f: F, smoke: bool) -> f64 {
    f();
    let budget = if smoke {
        Duration::from_millis(2)
    } else {
        Duration::from_millis(150)
    };
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        f();
        iters += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    start.elapsed().as_secs_f64() * 1000.0 / iters as f64
}

/// One kernel row: `workload` is the grid point, `algorithm` the kernel.
fn kernel_run(
    workload: &str,
    algorithm: &str,
    wall_ms: f64,
    input_units: usize,
    result_count: usize,
) -> JsonRun {
    JsonRun {
        workload: workload.to_string(),
        algorithm: algorithm.to_string(),
        engine: "kernel".to_string(),
        wall_ms,
        peak_bytes: 0,
        peak_memo_bytes: 0,
        intersections: input_units as u64,
        num_itemsets: result_count as u64,
        ..Default::default()
    }
}

/// The dense synthetic database of `bench_engines`' UApriori anchor
/// (N=20k, I=24, d=0.4, seed 7) — duplicated here because the criterion
/// shim over there cannot export its measurements.
fn anchor_db() -> UncertainDatabase {
    let mut rng = StdRng::seed_from_u64(7);
    let t = (0..20_000)
        .map(|_| {
            let units: Vec<(u32, f64)> = (0..24)
                .filter_map(|i| {
                    if rng.gen_bool(0.4) {
                        Some((i, rng.gen_range(0.5..=1.0)))
                    } else {
                        None
                    }
                })
                .collect();
            Transaction::new(units).unwrap()
        })
        .collect();
    UncertainDatabase::with_num_items(t, 24)
}

fn main() {
    let mut smoke = false;
    let mut json_out: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--json-out" => {
                json_out = Some(args.next().expect("--json-out needs a directory").into());
            }
            _ => {} // cargo bench passes --bench; ignore unknown flags
        }
    }

    let mut snap = JsonSnapshot::new("kernels", 1.0, SEED);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut scratch = ScratchSpace::new();

    // Kernel grid: length ratios × chunk densities. The long side's
    // layout follows the density label; the short side spreads over the
    // same tid universe, so skewed ratios also skew the chunk
    // directories (the galloping regime).
    for &(ratio, ratio_label) in &[(1usize, "1:1"), (16, "1:16"), (256, "1:256")] {
        for &(spread, density) in &[(16usize, "sparse"), (1, "dense")] {
            let workload = format!("ratio={ratio_label},density={density}");
            let long = build(&mut rng, BASE_LEN, spread);
            // Short side over the same universe: spread scaled by ratio.
            let short = build(&mut rng, BASE_LEN / ratio, spread * ratio);
            let units = short.len() + long.len();

            let ms = time_ms(
                || {
                    std::hint::black_box(short.intersect_into(&long, &mut scratch));
                },
                smoke,
            );
            let count = scratch.len();
            snap.runs
                .push(kernel_run(&workload, "intersect_into", ms, units, count));

            let ms = time_ms(
                || {
                    std::hint::black_box(short.intersect_stats(&long));
                },
                smoke,
            );
            snap.runs
                .push(kernel_run(&workload, "intersect_stats", ms, units, count));

            let ms = time_ms(
                || {
                    std::hint::black_box(short.diff_extend_into(&long, &mut scratch));
                },
                smoke,
            );
            let dropped = scratch.dropped().len();
            snap.runs.push(kernel_run(
                &workload,
                "diff_extend_into",
                ms,
                units,
                dropped,
            ));

            let (diff, ..) = short.diff_extend(&long);
            let mut out = ProbVector::new();
            let ms = time_ms(
                || {
                    short.apply_diff_into(&diff, &long, &mut out);
                    std::hint::black_box(out.len());
                },
                smoke,
            );
            snap.runs
                .push(kernel_run(&workload, "apply_diff_into", ms, units, count));
        }
    }

    // Galloping vs merge-join. Spread 128 (≈0.5 nonzeros per 64-tid
    // window) leaves both chunk directories gappy — neither side is
    // contiguous, so the direct-indexed fast paths cannot engage and the
    // skewed pair exercises true galloping directory search. The 1:1 pair
    // is the no-regression control: below the ratio cutoff both labels
    // run the same scalar merge-join.
    for &(ratio, ratio_label) in &[(1usize, "1:1"), (256, "1:256")] {
        let workload = format!("ratio={ratio_label},density=scatter");
        let long = build(&mut rng, BASE_LEN, 128);
        let short = build(&mut rng, BASE_LEN / ratio, 128 * ratio);
        let units = short.len() + long.len();
        let count = short.intersect_stats(&long).2;
        let ms = time_ms(
            || {
                std::hint::black_box(short.intersect_stats(&long));
            },
            smoke,
        );
        snap.runs
            .push(kernel_run(&workload, "stats_gallop", ms, units, count));
        let ms = time_ms(
            || {
                std::hint::black_box(short.intersect_stats_merge_join(&long));
            },
            smoke,
        );
        snap.runs
            .push(kernel_run(&workload, "stats_merge_join", ms, units, count));
    }

    // Anchor decomposition: the dense UApriori anchor pays for both the
    // statistics (esup/var/count) and, since the memoizing engine of PR 6,
    // the materialization of every surviving tid-list. These rows time the
    // kernels in isolation on the anchor's *actual* singleton postings
    // (~8k dense units a side), so the snapshot separates "how much of the
    // anchor's wall time is stats math" from "how much is building and
    // allocating result vectors" — the split behind the 99.5 ms → ~140 ms
    // move when memoization landed.
    let db = anchor_db();
    {
        let index = VerticalIndex::build(&db);
        let (a, b) = (index.postings(0), index.postings(1));
        let workload = "anchor-postings";
        let units = a.len() + b.len();
        let count = a.intersect_stats(b).2;
        let ms = time_ms(
            || {
                std::hint::black_box(a.intersect_stats(b));
            },
            smoke,
        );
        snap.runs
            .push(kernel_run(workload, "intersect_stats", ms, units, count));
        let ms = time_ms(
            || {
                a.intersect_materialize_into(b, &mut scratch);
                std::hint::black_box(scratch.len());
            },
            smoke,
        );
        snap.runs.push(kernel_run(
            workload,
            "intersect_materialize_into",
            ms,
            units,
            count,
        ));
        let ms = time_ms(
            || {
                std::hint::black_box(a.intersect(b));
            },
            smoke,
        );
        snap.runs
            .push(kernel_run(workload, "intersect_alloc", ms, units, count));
    }

    // The ROADMAP anchor: dense UApriori, vertical engine. Counters come
    // from the mining result (deterministic); wall time is the mean over
    // the timing loop.
    let miner = UApriori::with_engine(EngineKind::Vertical);
    let result = miner.mine_expected_ratio(&db, 0.02).unwrap();
    let iters = if smoke { 1 } else { 5 };
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(
            miner
                .mine_expected_ratio(std::hint::black_box(&db), 0.02)
                .unwrap(),
        );
    }
    let anchor_ms = start.elapsed().as_secs_f64() * 1000.0 / iters as f64;
    snap.runs.push(JsonRun {
        workload: "N=20k,I=24,d=0.4".to_string(),
        algorithm: "UApriori".to_string(),
        engine: "vertical".to_string(),
        wall_ms: anchor_ms,
        peak_bytes: 0,
        peak_memo_bytes: result.stats.peak_memo_bytes,
        intersections: result.stats.intersections,
        num_itemsets: result.len() as u64,
        ..Default::default()
    });

    for r in &snap.runs {
        println!(
            "{:<28} {:<18} {:>10.4} ms  (units {:>7}, result {:>7})",
            r.workload, r.algorithm, r.wall_ms, r.intersections, r.num_itemsets
        );
    }
    if let Some(dir) = json_out {
        match snap.write(&dir) {
            Some(path) => println!("wrote {}", path.display()),
            None => std::process::exit(1),
        }
    }
}
