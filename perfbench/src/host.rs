//! Host-drift diagnostics: readings that tell a slower host from a slower
//! program. They are reported beside the metrics, never as metrics.

use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's nominal time: about its time on a quiet 2-vCPU
/// Xeon guest at 2.0 GHz. Timings are scaled to a host where the kernel
/// takes this long.
pub const REFERENCE_NOMINAL_S: f64 = 0.004;

/// Entries per side of the reference merge-join: 262,144 `(tid, prob)`
/// pairs of 16 bytes each, about 4 MB per array — several times one
/// core's L2, so the kernel's speed follows the memory hierarchy.
const REF_LEN: usize = 1 << 18;

/// Cumulative steal ticks of all CPUs from `/proc/stat` (`None` where the
/// file is unavailable).
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// A fixed memory-bound kernel owned by the benchmark: a merge-join of
/// two sorted `(tid, prob)` arrays built from a constant seed, identical
/// in every run and every workload.
pub struct ReferenceKernel {
    left: Vec<(u64, f64)>,
    right: Vec<(u64, f64)>,
}

impl Default for ReferenceKernel {
    fn default() -> Self {
        // Tids advance by 1–4 (splitmix-driven) so about half of each
        // side matches the other: branchy like the real tid-list joins.
        let side = |mut state: u64| {
            let mut tid = 0u64;
            (0..REF_LEN)
                .map(|_| {
                    state = crate::workload::splitmix64(state);
                    tid += 1 + (state & 3);
                    (tid, (state >> 11) as f64 / (1u64 << 53) as f64)
                })
                .collect()
        };
        ReferenceKernel {
            left: side(0x0123_4567_89AB_CDEF),
            right: side(0xFEDC_BA98_7654_3210),
        }
    }
}

impl ReferenceKernel {
    /// One merge-join pass; returns its seconds.
    pub fn time_once(&self) -> f64 {
        let start = Instant::now();
        let (l, r) = (black_box(&self.left), black_box(&self.right));
        let (mut i, mut j, mut acc) = (0, 0, 0.0f64);
        while i < l.len() && j < r.len() {
            match l[i].0.cmp(&r[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += l[i].1 * r[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }
}
