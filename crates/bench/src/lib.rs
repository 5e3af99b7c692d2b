//! # ufim-bench
//!
//! Experiment harness regenerating **every table and figure** of the
//! evaluation section of Tong et al. (VLDB 2012). The binary `ufim-bench`
//! exposes one subcommand per artifact:
//!
//! | subcommand | paper artifact |
//! |---|---|
//! | `table1` | Table 1/2 worked example (Examples 1–2) |
//! | `table6` | dataset characteristics |
//! | `table7` | default parameters |
//! | `fig4`   | expected-support miners: time/memory vs `min_esup`, scalability, Zipf |
//! | `fig5`   | exact probabilistic miners: vs `min_sup`, vs `pft`, scalability, Zipf |
//! | `fig6`   | approximate miners: vs `min_sup`, vs `pft`, scalability, Zipf |
//! | `table8` | precision/recall on Accident |
//! | `table9` | precision/recall on Kosarak |
//! | `table10`| winner summary grid (derived from fresh measurements) |
//! | `all`    | everything above in paper order |
//!
//! Every subcommand accepts `--scale` (fraction of the paper's transaction
//! counts; default 0.01 so the full suite completes on a laptop in minutes),
//! `--seed`, `--timeout-secs` (per-point cutoff mirroring the paper's "we do
//! not report the running time over 1 hour"), `--csv DIR` to dump
//! machine-readable series next to the printed tables, and `--json DIR` to
//! write `BENCH_<experiment>.json` performance snapshots (validated by the
//! `json-check` subcommand; see [`json`]).
//!
//! ## Memory accounting
//!
//! Memory numbers come from the [`ufim_metrics::CountingAllocator`]
//! installed as the binary's global allocator: every measured run goes
//! through `ufim_metrics::alloc::measure_peak`, whose peak-heap delta is
//! the `mem` column of every report and the `peak_bytes` CSV column. Two
//! complementary instruments refine that process-level number:
//!
//! * `--mem` adds two per-run columns: the *auxiliary-structure* peak
//!   (`MinerStats::peak_structure_nodes`, in the structure's own units)
//!   and the byte-accurate engine memo peak
//!   (`MinerStats::peak_memo_bytes`), which is exactly where the
//!   `--engine vertical` and `--engine diffset` backends differ and the
//!   number to compare across them;
//! * `benches/bench_memory.rs` compares the backends' allocator-level and
//!   memo-level peaks head to head on a dense workload (the diffset
//!   backend's target regime).
//!
//! The benches under `benches/` all run on one harness, [`harness`]: a
//! substring filter, `--smoke` and `--json-out DIR`, best-of-N timing with
//! median and spread, and a `BENCH_<bench>.json` snapshot per bench.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod experiments;
pub mod harness;
pub mod json;
pub mod runner;

pub use config::HarnessConfig;
pub use runner::{run, MeasuredRun, NO_PFT};
