//! Microbenchmarks of the chunked `ProbVector` kernels: intersect /
//! diff_extend / apply_diff across operand length ratios (1:1, 1:16,
//! 1:256) and chunk densities, plus the dense UApriori anchor the
//! ROADMAP's ≥2× target is measured on.
//!
//! The bench emits a `BENCH_kernels.json` snapshot (`--json-out DIR`),
//! which the CI `json-compare` gate covers. Deterministic counters:
//! `intersections` records the operands' total nonzero units (kernel
//! rows) or `MinerStats::intersections` (the anchor row); `num_itemsets`
//! the result's nonzero count — both read from an untimed call, so
//! `--smoke` (CI) and full runs produce identical strict fields.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ufim_bench::harness::{dense_db, Harness};
use ufim_bench::json::JsonRun;
use ufim_bench::NO_PFT;
use ufim_core::prelude::*;
use ufim_core::{ProbVector, ScratchSpace};
use ufim_miners::Algorithm;

const SEED: u64 = 7;
const GROUP: &str = "kernels";
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

/// One kernel row: `workload` is the grid point, `algorithm` the kernel.
fn kernel_run(workload: &str, algorithm: &str, input_units: usize, result_count: usize) -> JsonRun {
    JsonRun {
        intersections: input_units as u64,
        num_itemsets: result_count as u64,
        ..JsonRun::new(workload, algorithm, "kernel")
    }
}

fn main() {
    let mut h = Harness::from_env();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut scratch = ScratchSpace::new();

    // Kernel grid: length ratios × chunk densities. The long side's
    // layout follows the density label; the short side spreads over the
    // same tid universe, so skewed ratios also skew the chunk
    // directories.
    for &(ratio, ratio_label) in &[(1usize, "1:1"), (16, "1:16"), (256, "1:256")] {
        for &(spread, density) in &[(16usize, "sparse"), (1, "dense")] {
            let workload = format!("ratio={ratio_label},density={density}");
            let long = build(&mut rng, BASE_LEN, spread);
            // Short side over the same universe: spread scaled by ratio.
            let short = build(&mut rng, BASE_LEN / ratio, spread * ratio);
            let units = short.len() + long.len();
            let count = short.intersect_stats(&long).2;
            let (diff, ..) = short.diff_extend(&long);
            let run = |algorithm, result| kernel_run(&workload, algorithm, units, result);

            h.bench(GROUP, run("intersect_into", count), || {
                short.intersect_into(&long, &mut scratch)
            });
            h.bench(GROUP, run("intersect_stats", count), || {
                short.intersect_stats(&long)
            });
            h.bench(GROUP, run("diff_extend_into", diff.len()), || {
                short.diff_extend_into(&long, &mut scratch)
            });
            let mut out = ProbVector::new();
            h.bench(GROUP, run("apply_diff_into", count), || {
                short.apply_diff_into(&diff, &long, &mut out);
                out.len()
            });
        }
    }

    // Anchor decomposition: the dense UApriori anchor pays for both the
    // statistics (esup/var/count) and, since the memoizing engine of PR 6,
    // the materialization of every surviving tid-list. These rows time the
    // kernels in isolation on the anchor's *actual* singleton postings
    // (~8k dense units a side), so the snapshot separates "how much of the
    // anchor's wall time is stats math" from "how much is building and
    // allocating result vectors" — the split behind the 99.5 ms → ~140 ms
    // move when memoization landed.
    let db = dense_db(20_000, 24, 0.4, 7);
    {
        let index = VerticalIndex::build(&db);
        let (a, b) = (index.postings(0), index.postings(1));
        let units = a.len() + b.len();
        let count = a.intersect_stats(b).2;
        let run = |algorithm| kernel_run("anchor-postings", algorithm, units, count);
        h.bench(GROUP, run("intersect_stats"), || a.intersect_stats(b));
        h.bench(GROUP, run("intersect_alloc"), || a.intersect(b));
    }

    // The ROADMAP anchor: dense UApriori, vertical engine (the
    // `bench_engines` workload).
    let params = MiningParams::new(0.02, NO_PFT)
        .unwrap()
        .with_engine(EngineKind::Vertical);
    let run = JsonRun::new("N=20k,I=24,d=0.4", "UApriori", "vertical");
    h.mine(GROUP, run, || {
        Algorithm::UApriori
            .mine_probabilistic(std::hint::black_box(&db), params)
            .unwrap()
    });

    h.finish("kernels", 1.0, SEED);
}
