//! Vertical (columnar) layout of an uncertain database: per-item tid-lists
//! with existence probabilities, stored as fixed-width 64-tid chunks.
//!
//! The horizontal layout ([`UncertainDatabase`]) answers "which items does
//! transaction `t` contain?"; the vertical layout answers the converse —
//! "which transactions contain item `i`, and with what probability?" — which
//! is the question every support computation actually asks. A
//! [`VerticalIndex`] is built in **one** database pass; afterwards, the
//! nonzero containment-probability vector of a `k`-itemset is the
//! intersection of its `(k−1)`-prefix's vector with the last item's
//! postings (the U-Eclat recurrence):
//!
//! ```text
//! vec(X ∪ {i})[t] = vec(X)[t] · P_t(i)      for t in tids(X) ∩ tids(i)
//! ```
//!
//! Expected support, support variance, the nonzero-transaction count and
//! the exact miners' DP/DC input all fall out of that one intersection —
//! no re-scan of the database is ever needed.
//!
//! ## Chunked representation
//!
//! A [`ProbVector`] is a Roaring-style sequence of **64-tid chunks**. Each
//! nonempty chunk contributes one entry to four parallel arrays: its chunk
//! key (`tid >> 6`, ascending), a `u64` presence bitmask, an end offset
//! into a shared probability-lane array, and the lanes themselves. A chunk
//! stores its lanes in one of two ways, decided **per chunk**:
//!
//! * **packed** — `popcount(mask)` probabilities in ascending tid order
//!   (the sparse regime: under [`CHUNK_LANES`]` / `[`DENSE_CUTOFF_DIVISOR`]
//!   = 16 nonzeros);
//! * **positional** — all 64 lanes, `0.0` = absent (the dense regime:
//!   ≥ 16 of the chunk's 64 tids present), so a lane is addressed directly
//!   by its tid's low bits with no rank computation.
//!
//! The decision is re-made wherever a chunk is (re)built — [`ProbVector::
//! from_parts`], [`ProbVector::push`], and every materializing kernel
//! ([`ProbVector::intersect`], [`ProbVector::intersect_into`],
//! [`ProbVector::apply_diff_into`], …) — so a vector's layout is a pure
//! function of its contents, never of its construction history.
//!
//! Intersection merge-joins the two chunk directories by key, then works
//! each matched pair — `mask_a & mask_b` discards absent tids 64 at a time
//! — visiting only the surviving bits and reading each side's lane by
//! position (dense chunk) or by mask rank (packed chunk). Every kernel
//! uses that one scalar merge-join, at any length ratio.
//!
//! ## Determinism
//!
//! Results are bit-for-bit reproducible across representations, backends
//! and thread counts. The argument:
//!
//! * probabilities are multiplied in ascending item order and visited in
//!   ascending tid order, exactly as a horizontal scan visits them;
//! * every statistics accumulation in the workspace — these kernels, the
//!   horizontal backend's chunked scan reduction — uses the same **fixed
//!   summation shape**: [`SUM_STRIPES`] partial sums per
//!   [`SUM_BLOCK_TIDS`]-aligned tid block (4096 tids = 64 chunks), each tid
//!   contributing to stripe `tid % 8`, stripes folded in ascending stripe
//!   order and blocks in ascending block order (the striping breaks the
//!   accumulator dependency chain that would otherwise serialize one add
//!   per ~4 cycles);
//! * skipped tids never contribute: a tid absent from either side adds
//!   exactly `0.0` under IEEE-754 (`x + 0.0 == x` for the nonnegative
//!   values that occur here), so visiting *only* the common nonzero tids
//!   yields the same bits as a full scan — that skip, not reordering, is
//!   where the chunked layout's speed comes from.
//!
//! Products that underflow to exactly `0.0` (possible for deep itemsets of
//! tiny probabilities) are dropped by every materializing path, keeping the
//! nonzero invariant and the `len()` / [`ProbVector::intersect_stats`]
//! agreement.
//!
//! ## Delta representation
//!
//! [`DiffVector`] is the uncertain-data analog of a dEclat diffset: it
//! records only the prefix tids an extension *dropped*, because the
//! survivors' probabilities are recomputable from the appended item's
//! postings. [`ProbVector::diff_extend`] produces the delta plus the
//! child's `(esup, var, count)` in one pass; [`ProbVector::apply_diff`]
//! reconstructs the full child vector. The diffset support engine builds
//! its low-memory prefix memo out of these.
//!
//! ## Zero-allocation kernels
//!
//! Every allocating kernel has an `*_into` twin writing into a reusable
//! [`ScratchSpace`] (or, for [`ProbVector::apply_diff_into`], a
//! caller-owned vector) whose buffers retain their capacity across calls:
//! [`ProbVector::intersect_into`] and [`ProbVector::diff_extend_into`]
//! additionally fuse the statistics pass, returning `(esup, var, count)`
//! bit-identical to [`ProbVector::intersect_stats`]. Support engines keep
//! one `ScratchSpace` per worker thread
//! (`ufim_core::parallel::par_map_min_len_with`), so steady-state candidate
//! evaluation performs **no** intersection allocations — a candidate only
//! pays an (exactly-sized) allocation when it survives pruning and its
//! result is exported into a memo.

use crate::database::UncertainDatabase;
use crate::itemset::ItemId;
use crate::window::{StepProbe, WindowStep};

/// A chunk whose nonzero count is at least [`CHUNK_LANES`]` /
/// DENSE_CUTOFF_DIVISOR` (16 of its 64 tids) stores all 64 lanes
/// positionally; below the cutoff it packs only the present lanes.
///
/// Both encodings stay because each wins a workload: storing every chunk
/// packed measured about 1.7× slower on dense level-wise mines (UApriori,
/// PDUApriori, NDUApriori) and 1.4× slower to build, while positional-only
/// chunks would spend 64 lanes on each ~1-nonzero chunk of sparse data.
pub const DENSE_CUTOFF_DIVISOR: usize = 4;

/// Tids covered by one chunk: a `u64` presence bitmask plus probability
/// lanes.
pub const CHUNK_LANES: usize = 64;

/// `tid >> CHUNK_BITS` is a tid's chunk key; `tid & 63` its bit.
const CHUNK_BITS: u32 = 6;

/// Nonzeros at which a chunk crosses from packed to positional lanes.
const POSITIONAL_MIN: usize = CHUNK_LANES / DENSE_CUTOFF_DIVISOR;

/// Fixed summation-block width in tids, shared by every statistics
/// accumulation in the workspace (these kernels *and* the horizontal
/// backend's scan reduction): [`SUM_STRIPES`] striped partial sums are
/// formed per aligned 4096-tid block (a tid lands in stripe `tid % 8`) and
/// folded in ascending stripe then block order, so `esup`/`var` come out
/// bit-identical no matter which backend, representation or thread count
/// produced them.
pub const SUM_BLOCK_TIDS: usize = 4096;

/// Striped partial sums per summation block: tid `t` contributes to stripe
/// `t & (SUM_STRIPES − 1)`. Eight independent accumulators break the
/// floating-point add dependency chain (≈ 4 cycles per serialized add)
/// while keeping the reduction shape a pure function of which nonzero
/// products exist.
pub const SUM_STRIPES: usize = 8;

/// `chunk key >> SUM_BLOCK_KEY_SHIFT` is the chunk's summation block.
const SUM_BLOCK_KEY_SHIFT: u32 = 6; // log2(SUM_BLOCK_TIDS) − CHUNK_BITS

/// The fixed-shape `(esup, var, count)` accumulator: [`SUM_STRIPES`]
/// striped partial sums per [`SUM_BLOCK_TIDS`]-aligned block, folded in
/// ascending stripe order on block exit and blocks in ascending order.
/// Folding an untouched (all-zero) stripe is an IEEE-754 no-op, so blocks
/// with no contributions may be entered or skipped freely — the final bits
/// depend only on which nonzero products exist, in tid order.
struct MomentAcc {
    esup: f64,
    var: f64,
    blk_esup: [f64; SUM_STRIPES],
    blk_var: [f64; SUM_STRIPES],
    blk: u32,
    count: usize,
}

impl MomentAcc {
    #[inline(always)]
    fn new() -> Self {
        MomentAcc {
            esup: 0.0,
            var: 0.0,
            blk_esup: [0.0; SUM_STRIPES],
            blk_var: [0.0; SUM_STRIPES],
            blk: 0,
            count: 0,
        }
    }

    /// Declares that subsequent [`MomentAcc::add`]s belong to chunk `key`.
    /// Must be called with ascending keys; calling it again for the same
    /// key is a no-op.
    #[inline(always)]
    fn enter_chunk(&mut self, key: u32) {
        let b = key >> SUM_BLOCK_KEY_SHIFT;
        if b != self.blk {
            self.fold();
            self.blk = b;
        }
    }

    /// Adds the product for the tid whose position within its chunk is
    /// `lane` (`tid & 63`; only `lane % SUM_STRIPES` — which equals
    /// `tid % SUM_STRIPES` — selects the stripe).
    #[inline(always)]
    fn add(&mut self, lane: u32, q: f64) {
        let s = (lane as usize) & (SUM_STRIPES - 1);
        self.blk_esup[s] += q;
        self.blk_var[s] += q * (1.0 - q);
        self.count += (q > 0.0) as usize;
    }

    #[inline(always)]
    fn fold(&mut self) {
        for s in 0..SUM_STRIPES {
            self.esup += self.blk_esup[s];
            self.blk_esup[s] = 0.0;
        }
        for s in 0..SUM_STRIPES {
            self.var += self.blk_var[s];
            self.blk_var[s] = 0.0;
        }
    }

    #[inline(always)]
    fn finish(mut self) -> (f64, f64, usize) {
        self.fold();
        (self.esup, self.var, self.count)
    }
}

/// Destination of a fixed-shape statistics accumulation: either the plain
/// folding [`MomentAcc`] or a [`BlockRecorder`] that additionally retains
/// the per-block striped partials for a memo. Both receive the exact same
/// `(chunk, lane, product)` sequence, so whichever sink a kernel runs with,
/// the folded `(esup, var, count)` come out bit-identical.
trait StatSink {
    fn enter_chunk(&mut self, key: u32);
    fn add(&mut self, lane: u32, q: f64);
}

impl StatSink for MomentAcc {
    #[inline(always)]
    fn enter_chunk(&mut self, key: u32) {
        MomentAcc::enter_chunk(self, key)
    }

    #[inline(always)]
    fn add(&mut self, lane: u32, q: f64) {
        MomentAcc::add(self, lane, q)
    }
}

/// One summation block's retained partial sums: the [`SUM_STRIPES`] striped
/// `esup` / `var` accumulators exactly as [`MomentAcc`] held them the
/// moment the block folded, plus the block's nonzero count. Retaining
/// these (instead of only the folded scalars) is what makes point updates
/// bit-exact: a window step recomputes *whole touched blocks* from the
/// patched vector — reproducing the identical left-fold per stripe — and
/// replays the same block-ascending, stripe-ascending fold, so the result
/// is indistinguishable from a cold re-fold.
#[derive(Clone, Copy, Debug, PartialEq)]
struct BlockPartial {
    /// Summation-block key (`tid >> 12`).
    key: u32,
    esup: [f64; SUM_STRIPES],
    var: [f64; SUM_STRIPES],
    /// Nonzero entries in the block.
    count: u32,
}

impl BlockPartial {
    fn zero(key: u32) -> Self {
        BlockPartial {
            key,
            esup: [0.0; SUM_STRIPES],
            var: [0.0; SUM_STRIPES],
            count: 0,
        }
    }

    #[inline(always)]
    fn add(&mut self, lane: u32, q: f64) {
        let s = (lane as usize) & (SUM_STRIPES - 1);
        self.esup[s] += q;
        self.var[s] += q * (1.0 - q);
        self.count += (q > 0.0) as u32;
    }
}

/// Per-[`SUM_BLOCK_TIDS`]-block striped partial sums of a memoized
/// prob-vector — the fold state a support engine retains alongside a
/// vector so cached `(esup, var, count)` moments survive point updates.
///
/// [`BlockMoments::fold`] replays `MomentAcc`'s exact reduction (blocks
/// ascending; within a block, the eight esup stripes then the eight var
/// stripes) over the retained partials, so it is bit-identical to
/// [`ProbVector::moments`] of the vector the partials describe — and stays
/// so after any sequence of [`BlockMoments::refresh`] calls, because a
/// refresh recomputes each touched block's stripes with the same
/// tid-ascending left fold the cold accumulation used. Untouched blocks
/// keep their bits; only `O(touched blocks)` of work is redone per window
/// step, never `O(window)`.
///
/// Only blocks with at least one nonzero entry are stored (an all-zero
/// block folds as an IEEE-754 no-op, exactly as `MomentAcc` skipping
/// it), so equal vectors always yield structurally equal `BlockMoments`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlockMoments {
    /// Nonempty blocks, ascending by key.
    blocks: Vec<BlockPartial>,
}

impl BlockMoments {
    /// The summation block containing `tid`.
    #[inline]
    pub fn block_of_tid(tid: u32) -> u32 {
        tid / SUM_BLOCK_TIDS as u32
    }

    /// Builds the retained partials of `v` from scratch — one pass, same
    /// cost shape as [`ProbVector::moments`].
    pub fn of(v: &ProbVector) -> Self {
        let mut blocks = Vec::new();
        let mut i = 0usize;
        while i < v.keys.len() {
            let bkey = v.keys[i] >> SUM_BLOCK_KEY_SHIFT;
            let mut j = i;
            while j < v.keys.len() && v.keys[j] >> SUM_BLOCK_KEY_SHIFT == bkey {
                j += 1;
            }
            let b = block_partial_of(v, bkey, i, j);
            if b.count > 0 {
                blocks.push(b);
            }
            i = j;
        }
        BlockMoments { blocks }
    }

    /// Recomputes the listed blocks' partials from `v` (strictly ascending
    /// block keys; `v` must hold the described vector's chunks for those
    /// blocks — the full vector, or a fragment restricted to them). Blocks
    /// not listed keep their retained bits untouched; a listed block that
    /// came out empty leaves the directory. After the call,
    /// [`BlockMoments::fold`] equals a cold [`BlockMoments::of`] of the
    /// patched vector, bit for bit.
    pub fn refresh(&mut self, v: &ProbVector, block_keys: &[u32]) {
        debug_assert!(
            block_keys.windows(2).all(|w| w[0] < w[1]),
            "block keys not strictly ascending"
        );
        for &bkey in block_keys {
            let lo = v
                .keys
                .partition_point(|&k| (k >> SUM_BLOCK_KEY_SHIFT) < bkey);
            let hi = v
                .keys
                .partition_point(|&k| (k >> SUM_BLOCK_KEY_SHIFT) <= bkey);
            let fresh = (lo < hi)
                .then(|| block_partial_of(v, bkey, lo, hi))
                .filter(|b| b.count > 0);
            match self.blocks.binary_search_by_key(&bkey, |b| b.key) {
                Ok(p) => match fresh {
                    Some(b) => self.blocks[p] = b,
                    None => {
                        self.blocks.remove(p);
                    }
                },
                Err(p) => {
                    if let Some(b) = fresh {
                        self.blocks.insert(p, b);
                    }
                }
            }
        }
    }

    /// Folds the retained partials into `(esup, var, count)` — bit-identical
    /// to [`ProbVector::moments`] (plus the nonzero count) of the vector
    /// the partials describe.
    pub fn fold(&self) -> (f64, f64, usize) {
        debug_assert!(
            self.blocks.windows(2).all(|w| w[0].key < w[1].key),
            "blocks out of order"
        );
        let (mut esup, mut var, mut count) = (0.0f64, 0.0f64, 0usize);
        for b in &self.blocks {
            for s in 0..SUM_STRIPES {
                esup += b.esup[s];
            }
            for s in 0..SUM_STRIPES {
                var += b.var[s];
            }
            count += b.count as usize;
        }
        (esup, var, count)
    }

    /// Heap bytes of the retained partials — counted into a memo's
    /// `peak_memo_bytes` contribution alongside the vector it describes.
    pub fn mem_bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<BlockPartial>()
    }
}

/// One block's stripes accumulated from `v`'s chunk range `[i, j)` (all
/// chunks of block `key`), in the exact tid-ascending visit order of
/// [`ProbVector::moments`].
fn block_partial_of(v: &ProbVector, key: u32, i: usize, j: usize) -> BlockPartial {
    let mut b = BlockPartial::zero(key);
    for c in i..j {
        let lanes = &v.lanes[v.start(c)..v.end(c)];
        if lanes.len() == CHUNK_LANES {
            // Positional zeros contribute exactly 0.0 — a no-op.
            for (t, &q) in lanes.iter().enumerate() {
                b.add(t as u32, q);
            }
        } else {
            let mut m = v.masks[c];
            let mut idx = 0usize;
            while m != 0 {
                let t = m.trailing_zeros();
                m &= m - 1;
                b.add(t, lanes[idx]);
                idx += 1;
            }
        }
    }
    b
}

/// [`StatSink`] that retains every block's striped partials as it folds —
/// how the diffset engine obtains a child's [`BlockMoments`] from one
/// [`ProbVector::diff_extend_blocks_into`] pass without materializing the
/// child vector. The recorded partials are bit-identical to
/// [`BlockMoments::of`] of the materialized child: the kernel's visit
/// order within each block is tid-ascending and zero products are stripe
/// no-ops, exactly as in the from-vector accumulation.
struct BlockRecorder {
    blocks: Vec<BlockPartial>,
    cur: BlockPartial,
}

impl BlockRecorder {
    fn new() -> Self {
        BlockRecorder {
            blocks: Vec::new(),
            cur: BlockPartial::zero(0),
        }
    }

    #[inline(always)]
    fn flush(&mut self) {
        if self.cur.count > 0 {
            self.blocks.push(self.cur);
        }
    }

    fn finish(mut self) -> BlockMoments {
        self.flush();
        BlockMoments {
            blocks: self.blocks,
        }
    }
}

impl StatSink for BlockRecorder {
    #[inline(always)]
    fn enter_chunk(&mut self, key: u32) {
        let b = key >> SUM_BLOCK_KEY_SHIFT;
        if b != self.cur.key {
            self.flush();
            self.cur = BlockPartial::zero(b);
        }
    }

    #[inline(always)]
    fn add(&mut self, lane: u32, q: f64) {
        self.cur.add(lane, q);
    }
}

/// Number of set bits of `mask` strictly below bit `t` — a packed chunk's
/// lane index for tid bit `t`.
#[inline(always)]
fn rank(mask: u64, t: u32) -> usize {
    (mask & ((1u64 << t) - 1)).count_ones() as usize
}

/// The nonzero containment probabilities of an itemset over a database, in
/// the adaptive per-chunk representation (see the module docs).
///
/// For a single item this is exactly the item's postings list, so the same
/// type serves both as the column of a [`VerticalIndex`] and as the
/// intersection state threaded through a mining run.
#[derive(Clone, Debug, Default)]
pub struct ProbVector {
    /// Chunk keys (`tid >> 6`), strictly ascending, nonempty chunks only.
    keys: Vec<u32>,
    /// Presence bitmask per chunk (bit `t` = tid `key·64 + t`).
    masks: Vec<u64>,
    /// End offset of each chunk's lanes (`ends[i]` closes chunk `i`;
    /// chunk `i` starts where chunk `i−1` ended).
    ends: Vec<u32>,
    /// Probability lanes: `popcount(mask)` packed values per sparse chunk,
    /// all 64 (0.0 = absent) per dense chunk.
    lanes: Vec<f64>,
    /// Total nonzero entries across all chunks.
    nnz: usize,
}

impl ProbVector {
    /// An empty vector (an itemset contained in no transaction).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a vector from parallel arrays. `tids` must be strictly
    /// increasing and `probs` entries nonzero; checked in debug builds
    /// only. Each chunk's packed/positional layout is decided as it is
    /// assembled.
    pub fn from_parts(tids: Vec<u32>, probs: Vec<f64>) -> Self {
        debug_assert_eq!(tids.len(), probs.len());
        debug_assert!(tids.windows(2).all(|w| w[0] < w[1]), "tids not sorted");
        debug_assert!(probs.iter().all(|&p| p > 0.0), "zero-prob entry");
        let mut v = ProbVector::default();
        v.lanes.reserve(tids.len());
        let mut vals = [0.0f64; CHUNK_LANES];
        let mut i = 0usize;
        while i < tids.len() {
            let key = tids[i] >> CHUNK_BITS;
            let mut mask = 0u64;
            let mut k = 0usize;
            while i < tids.len() && tids[i] >> CHUNK_BITS == key {
                mask |= 1u64 << (tids[i] & (CHUNK_LANES as u32 - 1));
                vals[k] = probs[i];
                k += 1;
                i += 1;
            }
            v.commit_chunk(key, mask, &vals);
        }
        v
    }

    /// Number of transactions with nonzero containment probability.
    #[inline]
    pub fn len(&self) -> usize {
        self.nnz
    }

    /// True when no transaction can contain the itemset.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nnz == 0
    }

    /// Number of (nonempty) chunks — the vector's directory length.
    pub fn num_chunks(&self) -> usize {
        self.keys.len()
    }

    /// Number of chunks stored positionally (the dense per-chunk regime).
    pub fn dense_chunks(&self) -> usize {
        (0..self.keys.len())
            .filter(|&i| self.end(i) - self.start(i) == CHUNK_LANES)
            .count()
    }

    /// `f64` lanes occupied in memory (diagnostic: `popcount` per packed
    /// chunk, 64 per positional chunk).
    pub fn mem_units(&self) -> usize {
        self.lanes.len()
    }

    /// Heap bytes occupied by the payload: 8 per lane plus 16 per chunk of
    /// directory metadata (key 4 + mask 8 + end offset 4). The
    /// memory-accounting counterpart of [`ProbVector::mem_units`],
    /// comparable with [`DiffVector::mem_bytes`].
    pub fn mem_bytes(&self) -> usize {
        self.lanes.len() * std::mem::size_of::<f64>()
            + self.keys.len()
                * (std::mem::size_of::<u32>()      // key
                    + std::mem::size_of::<u64>()   // mask
                    + std::mem::size_of::<u32>()) // end offset
    }

    /// Predicted [`ProbVector::mem_bytes`] of a vector with `count`
    /// nonzeros over `num_transactions` tids, assuming an even spread —
    /// the estimate memo policies use before materializing (e.g. the
    /// diffset engine's per-node tidset-vs-delta choice).
    pub fn estimate_mem_bytes(count: usize, num_transactions: usize) -> usize {
        if count == 0 {
            return 0;
        }
        let chunks = count.min(num_transactions.div_ceil(CHUNK_LANES)).max(1);
        let lanes = if (count / chunks) * DENSE_CUTOFF_DIVISOR >= CHUNK_LANES {
            chunks * CHUNK_LANES
        } else {
            count
        };
        lanes * std::mem::size_of::<f64>() + chunks * 16
    }

    /// Lane start of chunk `i`.
    #[inline(always)]
    fn start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.ends[i - 1] as usize
        }
    }

    /// Lane end of chunk `i`.
    #[inline(always)]
    fn end(&self, i: usize) -> usize {
        self.ends[i] as usize
    }

    /// Drops all chunks, retaining capacity.
    fn clear(&mut self) {
        self.keys.clear();
        self.masks.clear();
        self.ends.clear();
        self.lanes.clear();
        self.nnz = 0;
    }

    /// Appends one finished chunk, deciding its layout by the per-chunk
    /// cutoff rule. `vals` holds the `popcount(mask)` nonzero
    /// probabilities in ascending tid order; an empty mask is skipped.
    #[inline]
    fn commit_chunk(&mut self, key: u32, mask: u64, vals: &[f64; CHUNK_LANES]) {
        let n = mask.count_ones() as usize;
        if n == 0 {
            return;
        }
        debug_assert!(self.keys.last().is_none_or(|&k| k < key));
        self.keys.push(key);
        self.masks.push(mask);
        if n * DENSE_CUTOFF_DIVISOR >= CHUNK_LANES && n < CHUNK_LANES {
            // Positional: scatter the packed values to their bit positions.
            let start = self.lanes.len();
            self.lanes.resize(start + CHUNK_LANES, 0.0);
            let mut m = mask;
            let mut i = 0usize;
            while m != 0 {
                let t = m.trailing_zeros() as usize;
                m &= m - 1;
                self.lanes[start + t] = vals[i];
                i += 1;
            }
        } else {
            // Packed — or a full chunk, where packed and positional
            // coincide.
            self.lanes.extend_from_slice(&vals[..n]);
        }
        self.ends.push(self.lanes.len() as u32);
        self.nnz += n;
    }

    /// The nonzero `(tid, prob)` pairs in ascending tid order.
    pub fn nonzero(&self) -> Vec<(u32, f64)> {
        let mut out = Vec::with_capacity(self.nnz);
        self.for_each_nonzero(|tid, q| out.push((tid, q)));
        out
    }

    /// The nonzero probabilities in ascending tid order — exactly the input
    /// the exact DP / divide-and-conquer kernels take.
    pub fn nonzero_probs(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.nnz);
        self.nonzero_probs_into(&mut out);
        out
    }

    /// [`ProbVector::nonzero_probs`] into a caller-owned buffer: `out` is
    /// cleared and refilled, keeping its capacity.
    pub fn nonzero_probs_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.nnz);
        self.for_each_nonzero(|_, q| out.push(q));
    }

    /// Visits every nonzero `(tid, prob)` in ascending tid order.
    #[inline]
    fn for_each_nonzero<F: FnMut(u32, f64)>(&self, mut f: F) {
        for i in 0..self.keys.len() {
            let base = self.keys[i] << CHUNK_BITS;
            let mask = self.masks[i];
            let s = self.start(i);
            let mut m = mask;
            if self.end(i) - s == CHUNK_LANES {
                while m != 0 {
                    let t = m.trailing_zeros();
                    m &= m - 1;
                    f(base | t, self.lanes[s + t as usize]);
                }
            } else {
                let mut idx = s;
                while m != 0 {
                    let t = m.trailing_zeros();
                    m &= m - 1;
                    f(base | t, self.lanes[idx]);
                    idx += 1;
                }
            }
        }
    }

    /// Expected support: `Σ_t q_t`, in the workspace-wide fixed summation
    /// shape — bit-identical to `self.moments().0` and to a horizontal
    /// scan's accumulation.
    pub fn esup(&self) -> f64 {
        self.moments().0
    }

    /// Expected support and variance of `sup(X)` (`Σ q_t (1 − q_t)`),
    /// accumulated in ascending tid order per [`SUM_BLOCK_TIDS`] block.
    pub fn moments(&self) -> (f64, f64) {
        let mut acc = MomentAcc::new();
        for i in 0..self.keys.len() {
            acc.enter_chunk(self.keys[i]);
            let lanes = &self.lanes[self.start(i)..self.end(i)];
            if lanes.len() == CHUNK_LANES {
                // Positional zeros contribute exactly 0.0 — a no-op.
                for (t, &q) in lanes.iter().enumerate() {
                    acc.add(t as u32, q);
                }
            } else {
                let mut m = self.masks[i];
                let mut idx = 0usize;
                while m != 0 {
                    let t = m.trailing_zeros();
                    m &= m - 1;
                    acc.add(t, lanes[idx]);
                    idx += 1;
                }
            }
        }
        let (esup, var, _) = acc.finish();
        (esup, var)
    }

    /// Appends one entry. `tid` must exceed the current maximum. The
    /// containing chunk converts packed → positional the moment it crosses
    /// the per-chunk cutoff, so a push-grown vector's layout matches
    /// [`ProbVector::from_parts`] of the same contents.
    #[inline]
    pub fn push(&mut self, tid: u32, prob: f64) {
        debug_assert!(prob > 0.0, "zero-prob entry");
        let key = tid >> CHUNK_BITS;
        let bit = tid & (CHUNK_LANES as u32 - 1);
        if let Some(&last_key) = self.keys.last() {
            if last_key == key {
                let last = self.keys.len() - 1;
                let mask = self.masks[last];
                debug_assert!(mask >> bit == 0, "tid not strictly increasing");
                self.masks[last] = mask | (1u64 << bit);
                let start = if last == 0 {
                    0
                } else {
                    self.ends[last - 1] as usize
                };
                if self.lanes.len() - start == CHUNK_LANES {
                    // Already positional.
                    self.lanes[start + bit as usize] = prob;
                } else if (mask.count_ones() as usize + 1) >= POSITIONAL_MIN {
                    // Crossed the cutoff: scatter packed lanes to positions.
                    let mut tmp = [0.0f64; CHUNK_LANES];
                    let mut m = mask;
                    let mut idx = start;
                    while m != 0 {
                        let t = m.trailing_zeros() as usize;
                        m &= m - 1;
                        tmp[t] = self.lanes[idx];
                        idx += 1;
                    }
                    tmp[bit as usize] = prob;
                    self.lanes.truncate(start);
                    self.lanes.extend_from_slice(&tmp);
                } else {
                    self.lanes.push(prob);
                }
                self.ends[last] = self.lanes.len() as u32;
                self.nnz += 1;
                return;
            }
            debug_assert!(last_key < key, "tid not strictly increasing");
        }
        self.keys.push(key);
        self.masks.push(1u64 << bit);
        self.lanes.push(prob);
        self.ends.push(self.lanes.len() as u32);
        self.nnz += 1;
    }

    /// Point lookup: the stored probability at `tid`, or `0.0` when the
    /// tid is absent. `O(log chunks)`.
    pub fn get(&self, tid: u32) -> f64 {
        let key = tid >> CHUNK_BITS;
        let bit = tid & (CHUNK_LANES as u32 - 1);
        let Ok(i) = self.keys.binary_search(&key) else {
            return 0.0;
        };
        if self.masks[i] >> bit & 1 == 0 {
            return 0.0;
        }
        let s = self.start(i);
        if self.end(i) - s == CHUNK_LANES {
            self.lanes[s + bit as usize]
        } else {
            self.lanes[s + rank(self.masks[i], bit)]
        }
    }

    /// Point upsert at an arbitrary tid — the delta-maintenance twin of
    /// [`ProbVector::push`]. The touched chunk is re-laid-out under the
    /// same per-chunk cutoff rule as [`ProbVector::from_parts`], so the
    /// layout stays a pure function of the contents: a point-updated
    /// vector is byte-identical to one rebuilt from scratch.
    pub fn insert(&mut self, tid: u32, prob: f64) {
        debug_assert!(prob > 0.0, "zero-prob entry");
        self.set_point(tid, Some(prob));
    }

    /// Point removal at an arbitrary tid; returns whether the tid was
    /// present. Same canonical-layout guarantee as [`ProbVector::insert`];
    /// a chunk whose last entry is removed leaves the directory entirely.
    pub fn remove(&mut self, tid: u32) -> bool {
        self.set_point(tid, None)
    }

    /// Shared splice of [`ProbVector::insert`] / [`ProbVector::remove`]:
    /// extracts the touched chunk to positional form, mutates one lane,
    /// and re-commits it under the canonical cutoff rule, shifting the
    /// directory suffix. `O(total lanes)` per call — window steps touch
    /// few tids, so this stays proportional to the delta times the
    /// posting length.
    fn set_point(&mut self, tid: u32, prob: Option<f64>) -> bool {
        let key = tid >> CHUNK_BITS;
        let bit = tid & (CHUNK_LANES as u32 - 1);
        let (pos, existed) = match self.keys.binary_search(&key) {
            Ok(i) => (i, true),
            Err(i) => (i, false),
        };
        let mut vals = [0.0f64; CHUNK_LANES];
        let mut mask = 0u64;
        let old_start = self.start(pos);
        let mut old_end = old_start;
        if existed {
            mask = self.masks[pos];
            old_end = self.end(pos);
            if old_end - old_start == CHUNK_LANES {
                vals.copy_from_slice(&self.lanes[old_start..old_end]);
            } else {
                let mut m = mask;
                let mut idx = old_start;
                while m != 0 {
                    let t = m.trailing_zeros() as usize;
                    m &= m - 1;
                    vals[t] = self.lanes[idx];
                    idx += 1;
                }
            }
        }
        let had = mask >> bit & 1 == 1;
        match prob {
            Some(p) => {
                vals[bit as usize] = p;
                mask |= 1u64 << bit;
                self.nnz += usize::from(!had);
            }
            None => {
                if !had {
                    return false;
                }
                vals[bit as usize] = 0.0;
                mask &= !(1u64 << bit);
                self.nnz -= 1;
            }
        }
        // Re-commit under the same layout rule as `commit_chunk`.
        let n = mask.count_ones() as usize;
        let mut new_lanes: Vec<f64> = Vec::with_capacity(if n > 0 { CHUNK_LANES } else { 0 });
        if n * DENSE_CUTOFF_DIVISOR >= CHUNK_LANES && n < CHUNK_LANES {
            new_lanes.extend_from_slice(&vals);
        } else {
            let mut m = mask;
            while m != 0 {
                let t = m.trailing_zeros() as usize;
                m &= m - 1;
                new_lanes.push(vals[t]);
            }
        }
        let delta = new_lanes.len() as isize - (old_end - old_start) as isize;
        if existed && n == 0 {
            self.keys.remove(pos);
            self.masks.remove(pos);
            self.ends.remove(pos);
        } else if existed {
            self.masks[pos] = mask;
        } else {
            debug_assert!(n > 0, "inserting produced an empty chunk");
            self.keys.insert(pos, key);
            self.masks.insert(pos, mask);
            // Placeholder; the suffix shift below lands it on the real end.
            self.ends.insert(pos, old_start as u32);
        }
        self.lanes.splice(old_start..old_end, new_lanes);
        for e in &mut self.ends[pos..] {
            *e = (*e as isize + delta) as u32;
        }
        true
    }

    /// Applies a batch of point updates in one pass — the window-step
    /// patch kernel for memoized vectors. `updates` holds `(tid, prob)`
    /// pairs with strictly ascending tids; `prob > 0.0` upserts the entry,
    /// `prob == 0.0` removes it (absent removals are no-ops). Untouched
    /// chunks are bulk-copied; each touched chunk is rebuilt and
    /// re-committed under the canonical cutoff rule, so the patched vector
    /// is **byte-identical** to [`ProbVector::from_parts`] of the updated
    /// contents. Cost is `O(chunks + lanes + updates)` for the whole
    /// batch, versus `O(total lanes)` *per point* for
    /// [`ProbVector::insert`] / [`ProbVector::remove`].
    pub fn apply_tid_delta(&mut self, updates: &[(u32, f64)]) {
        if updates.is_empty() {
            return;
        }
        debug_assert!(
            updates.windows(2).all(|w| w[0].0 < w[1].0),
            "update tids not strictly ascending"
        );
        let mut out = ProbVector::default();
        out.keys.reserve(self.keys.len() + updates.len());
        out.masks.reserve(self.keys.len() + updates.len());
        out.ends.reserve(self.keys.len() + updates.len());
        out.lanes.reserve(self.lanes.len() + updates.len());
        let mut u = 0usize;
        let mut i = 0usize;
        while i < self.keys.len() || u < updates.len() {
            let upd_key = updates.get(u).map(|&(t, _)| t >> CHUNK_BITS);
            if upd_key.is_none_or(|k| i < self.keys.len() && self.keys[i] < k) {
                // Bulk-copy the run of untouched chunks below the next
                // update's chunk (their canonical layouts carry over).
                let stop = upd_key.unwrap_or(u32::MAX);
                let mut j = i;
                while j < self.keys.len() && self.keys[j] < stop {
                    j += 1;
                }
                let base = self.start(i);
                let lane_base = out.lanes.len();
                out.keys.extend_from_slice(&self.keys[i..j]);
                out.masks.extend_from_slice(&self.masks[i..j]);
                out.lanes
                    .extend_from_slice(&self.lanes[base..self.end(j - 1)]);
                for c in i..j {
                    out.ends.push((self.end(c) - base + lane_base) as u32);
                    out.nnz += self.masks[c].count_ones() as usize;
                }
                i = j;
                continue;
            }
            // Rebuild the chunk at the next update key (existing or fresh).
            let key = upd_key.unwrap_or_default();
            let mut vals = [0.0f64; CHUNK_LANES];
            let mut mask = 0u64;
            if i < self.keys.len() && self.keys[i] == key {
                let (s, e) = (self.start(i), self.end(i));
                mask = self.masks[i];
                if e - s == CHUNK_LANES {
                    vals.copy_from_slice(&self.lanes[s..e]);
                } else {
                    let mut m = mask;
                    let mut idx = s;
                    while m != 0 {
                        let t = m.trailing_zeros() as usize;
                        m &= m - 1;
                        vals[t] = self.lanes[idx];
                        idx += 1;
                    }
                }
                i += 1;
            }
            while u < updates.len() && updates[u].0 >> CHUNK_BITS == key {
                let (tid, p) = updates[u];
                let bit = (tid & (CHUNK_LANES as u32 - 1)) as usize;
                if p > 0.0 {
                    vals[bit] = p;
                    mask |= 1u64 << bit;
                } else {
                    vals[bit] = 0.0;
                    mask &= !(1u64 << bit);
                }
                u += 1;
            }
            let n = mask.count_ones() as usize;
            if n > 0 {
                // `commit_chunk` takes the nonzeros packed ascending.
                let mut packed = [0.0f64; CHUNK_LANES];
                let mut m = mask;
                let mut k = 0usize;
                while m != 0 {
                    let t = m.trailing_zeros() as usize;
                    m &= m - 1;
                    packed[k] = vals[t];
                    k += 1;
                }
                out.commit_chunk(key, mask, &packed);
            }
        }
        *self = out;
    }

    /// The vector restricted to the listed summation blocks (strictly
    /// ascending keys): the chunks whose tids fall in those blocks,
    /// bulk-copied with their global keys and canonical layouts. Feeds
    /// [`BlockMoments::refresh`] when the full child vector is not
    /// materialized (the diffset memo's stats patch).
    pub fn restrict_to_blocks(&self, block_keys: &[u32]) -> ProbVector {
        debug_assert!(
            block_keys.windows(2).all(|w| w[0] < w[1]),
            "block keys not strictly ascending"
        );
        let mut out = ProbVector::default();
        for &bkey in block_keys {
            let lo = self
                .keys
                .partition_point(|&k| (k >> SUM_BLOCK_KEY_SHIFT) < bkey);
            let hi = self
                .keys
                .partition_point(|&k| (k >> SUM_BLOCK_KEY_SHIFT) <= bkey);
            if lo == hi {
                continue;
            }
            let base = self.start(lo);
            let lane_base = out.lanes.len();
            out.keys.extend_from_slice(&self.keys[lo..hi]);
            out.masks.extend_from_slice(&self.masks[lo..hi]);
            out.lanes
                .extend_from_slice(&self.lanes[base..self.end(hi - 1)]);
            for c in lo..hi {
                out.ends.push((self.end(c) - base + lane_base) as u32);
                out.nnz += self.masks[c].count_ones() as usize;
            }
        }
        out
    }

    /// Releases excess capacity (intersection outputs reserve for the
    /// worst case; long-lived memoized vectors should not keep it).
    pub fn shrink_to_fit(&mut self) {
        self.keys.shrink_to_fit();
        self.masks.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.lanes.shrink_to_fit();
    }

    /// An exactly-sized deep copy (clone allocates to length, not
    /// capacity) — what [`ScratchSpace::export`] hands to memos. Copies
    /// only the live lane prefix, excluding any scratch high-water slack
    /// a [`ChunkWriter`] left past `ends.last()`.
    fn clone_exact(&self) -> ProbVector {
        let live = self.ends.last().map_or(0, |&e| e as usize);
        ProbVector {
            keys: self.keys.clone(),
            masks: self.masks.clone(),
            ends: self.ends.clone(),
            lanes: self.lanes[..live].to_vec(),
            nnz: self.nnz,
        }
    }

    /// Drops the lane high-water slack a [`ChunkWriter`] may have left
    /// past `ends.last()` — called before a kernel-built vector escapes
    /// as an owned value.
    fn trim_lane_slack(&mut self) {
        let live = self.ends.last().map_or(0, |&e| e as usize);
        self.lanes.truncate(live);
    }

    /// The statistics of [`ProbVector::intersect`]'s result —
    /// `(esup, variance, nonzero count)` — computed **without
    /// materializing** the result: no allocation, no stores. The values are
    /// bit-identical to `self.intersect(other).moments()` (zero products
    /// contribute exactly `0.0` to either accumulator), and the path is the
    /// same chunk-directory merge-join as materialization.
    pub fn intersect_stats(&self, other: &ProbVector) -> (f64, f64, usize) {
        intersect_kernel::<false>(self, other, None)
    }

    /// The U-Eclat step: intersects with another vector, multiplying
    /// probabilities on matching tids (`self` is the prefix, `other` the
    /// appended item's postings — multiplication order is prefix × item).
    /// Each output chunk's layout is chosen adaptively as it is committed.
    pub fn intersect(&self, other: &ProbVector) -> ProbVector {
        let mut out = ProbVector::default();
        intersect_kernel::<true>(self, other, Some(&mut out));
        out.trim_lane_slack();
        out
    }

    /// [`ProbVector::intersect`] fused with [`ProbVector::intersect_stats`],
    /// writing the result into `scratch` instead of allocating: returns the
    /// result's `(esup, variance, nonzero count)` — bit-identical to both
    /// `intersect_stats` and `intersect(..).moments()` — and leaves the
    /// result vector (same per-chunk layout `intersect` would pick) in the
    /// scratch buffers for [`ScratchSpace::export`]. Candidates a threshold
    /// rules out therefore cost no allocation at all.
    pub fn intersect_into(
        &self,
        other: &ProbVector,
        scratch: &mut ScratchSpace,
    ) -> (f64, f64, usize) {
        intersect_kernel::<true>(self, other, Some(&mut scratch.out))
    }
}

impl PartialEq for ProbVector {
    /// Semantic equality: same nonzero `(tid, prob)` pairs. (The chunk
    /// layout is itself canonical — a pure function of the contents — but
    /// comparing pairs keeps the contract representation-agnostic.)
    fn eq(&self, other: &Self) -> bool {
        self.nnz == other.nnz && self.nonzero() == other.nonzero()
    }
}

/// One chunk-pair visit of the intersection kernel, specialized on each
/// side's layout (`DA`/`DB` positional) and on whether it must also
/// produce a result chunk (`MAT`); the moments are always accumulated.
/// Positional lanes hold exactly `+0.0` for absent tids and `x + 0.0` is a
/// bitwise no-op, so:
///
/// * positional × positional multiplies all 64 lane pairs straight through
///   and accumulates them in the striped shape as eight rows of
///   [`SUM_STRIPES`]-wide adds — stripe `s` receives lanes `≡ s (mod 8)` in
///   ascending order, exactly the scalar visit order, but the row loop is a
///   plain vertical vector add the compiler auto-vectorizes (the stripes
///   *are* the SIMD lanes);
/// * packed × positional iterates only the packed side's bits with a
///   *sequential* packed-lane cursor (no `rank` popcounts), reading the
///   positional side directly by bit position;
/// * packed × packed visits the bits of `mask_a & mask_b`, ranking both
///   sides.
///
/// Returns `true` when `vals` holds the result chunk in *lane* form (all 64
/// products, `0.0` = absent — the positional-×-positional fast path);
/// `false` when it holds the nonzero products packed in ascending tid
/// order. When materializing, `vals` is the [`ChunkWriter::window`] and
/// [`ChunkWriter::commit_in_place`] finalizes whichever form was produced.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pair_chunk<const DA: bool, const DB: bool, const MAT: bool>(
    ma: u64,
    mb: u64,
    la: &[f64],
    lb: &[f64],
    acc: &mut MomentAcc,
    vals: &mut [f64; CHUNK_LANES],
    out_mask: &mut u64,
) -> bool {
    let mut k = 0usize;
    if DA && DB {
        // Both positional: products for all 64 lanes (absent lanes yield
        // exactly +0.0, which every accumulation below treats as a no-op).
        let (la, lb): (&[f64; CHUNK_LANES], &[f64; CHUNK_LANES]) =
            (la.try_into().unwrap(), lb.try_into().unwrap());
        for t in 0..CHUNK_LANES {
            vals[t] = la[t] * lb[t];
        }
        for row in vals.chunks_exact(SUM_STRIPES) {
            for (s, &q) in row.iter().enumerate() {
                acc.blk_esup[s] += q;
                acc.blk_var[s] += q * (1.0 - q);
            }
        }
        let mut nonzero = 0usize;
        for &v in vals.iter() {
            nonzero += (v > 0.0) as usize;
        }
        acc.count += nonzero;
        if MAT {
            let both = ma & mb;
            *out_mask = if nonzero == both.count_ones() as usize {
                // No product underflowed to zero — the common case.
                both
            } else {
                let mut m = 0u64;
                for (t, &v) in vals.iter().enumerate() {
                    m |= ((v > 0.0) as u64) << t;
                }
                m
            };
        }
        return true;
    }
    if DA {
        // `lb` holds exactly `popcount(mb)` values, one per bit of `mb` in
        // ascending order — driving the loop off the packed slice elides
        // its bounds check, and `t & 63` proves the positional index in
        // range.
        let la: &[f64; CHUNK_LANES] = la.try_into().unwrap();
        let mut m = mb;
        for &qb in lb {
            let t = m.trailing_zeros();
            m &= m - 1;
            let q = la[(t & 63) as usize] * qb;
            acc.add(t, q);
            if MAT && q > 0.0 {
                vals[k & (CHUNK_LANES - 1)] = q;
                k += 1;
                *out_mask |= 1u64 << t;
            }
        }
    } else if DB {
        let lb: &[f64; CHUNK_LANES] = lb.try_into().unwrap();
        let mut m = ma;
        for &qa in la {
            let t = m.trailing_zeros();
            m &= m - 1;
            let q = qa * lb[(t & 63) as usize];
            acc.add(t, q);
            if MAT && q > 0.0 {
                vals[k & (CHUNK_LANES - 1)] = q;
                k += 1;
                *out_mask |= 1u64 << t;
            }
        }
    } else {
        let mut m = ma & mb;
        while m != 0 {
            let t = m.trailing_zeros();
            m &= m - 1;
            let q = la[rank(ma, t)] * lb[rank(mb, t)];
            acc.add(t, q);
            if MAT && q > 0.0 {
                vals[k & (CHUNK_LANES - 1)] = q;
                k += 1;
                *out_mask |= 1u64 << t;
            }
        }
    }
    false
}

/// Index-addressed output cursor for the materializing kernels.
///
/// [`ProbVector::commit_chunk`]'s `Vec` pushes cost a capacity-check
/// branch per directory array per chunk plus a variable-length `memcpy`
/// call for the lane payload — at ~300 output chunks per candidate on the
/// dense anchor that machinery measured as expensive as the arithmetic.
/// The writer instead resizes the four output arrays *once* to their
/// upper bounds (chunks ≤ the shorter directory, lanes ≤ 64 per chunk —
/// scratch buffers retain the headroom across candidates, so steady-state
/// resizes are no-ops), writes through plain indexed stores, and
/// [`ChunkWriter::finish`] truncates down to what was actually written.
/// Stale content beyond the cursors is never observable: every commit
/// overwrites its slot before advancing, and `finish` restores the
/// length invariants.
struct ChunkWriter<'a> {
    o: &'a mut ProbVector,
    nk: usize,
    nl: usize,
    nnz: usize,
}

impl<'a> ChunkWriter<'a> {
    fn new(o: &'a mut ProbVector, kcap: usize) -> Self {
        if o.keys.len() < kcap {
            o.keys.resize(kcap, 0);
            o.masks.resize(kcap, 0);
            o.ends.resize(kcap, 0);
        }
        let lcap = kcap * CHUNK_LANES;
        if o.lanes.len() < lcap {
            o.lanes.resize(lcap, 0.0);
        }
        ChunkWriter {
            o,
            nk: 0,
            nl: 0,
            nnz: 0,
        }
    }

    /// Writes the shared directory entry; returns `n`, or 0 to skip.
    #[inline(always)]
    fn entry(&mut self, key: u32, mask: u64) -> usize {
        let n = mask.count_ones() as usize;
        if n == 0 {
            return 0;
        }
        self.o.keys[self.nk] = key;
        self.o.masks[self.nk] = mask;
        n
    }

    #[inline(always)]
    fn seal(&mut self, n: usize) {
        self.o.ends[self.nk] = self.nl as u32;
        self.nk += 1;
        self.nnz += n;
    }

    /// The next 64 lanes of the output array, handed to [`pair_chunk`] as
    /// its value buffer so products are stored *directly* at their final
    /// location — no intermediate stack buffer and no copy in the commit.
    /// Always in bounds: at most one output chunk is committed per matched
    /// directory pair, so before chunk `nk` commits `nl ≤ 64·nk <
    /// 64·kcap ≤ lanes.len()`.
    #[inline(always)]
    fn window(&mut self) -> &mut [f64; CHUNK_LANES] {
        (&mut self.o.lanes[self.nl..self.nl + CHUNK_LANES])
            .try_into()
            .unwrap()
    }

    /// Finalizes a chunk whose values [`pair_chunk`] produced directly in
    /// this writer's [`ChunkWriter::window`]. The kernels' two output forms
    /// already coincide with the two stored layouts — packed arms emit the
    /// nonzero products packed in ascending tid order, the
    /// positional × positional arm emits all 64 lanes — so when the
    /// adaptive layout rule (same as [`ProbVector::commit_chunk`]) picks
    /// the matching one, commit is just the directory stores and a cursor
    /// bump. The two mismatch cases reshape in place.
    #[inline(always)]
    fn commit_in_place(&mut self, key: u32, mask: u64, lanes_form: bool) {
        let n = self.entry(key, mask);
        if n == 0 {
            return;
        }
        let positional = n * DENSE_CUTOFF_DIVISOR >= CHUNK_LANES && n < CHUNK_LANES;
        let base = self.nl;
        match (lanes_form, positional) {
            (true, true) => self.nl += CHUNK_LANES,
            (false, false) => self.nl += n,
            (true, false) => {
                // Compact lane form down to packed. Moving the k-th set
                // bit's lane `t ≥ k` forward to slot `k` never reads a
                // slot an earlier step wrote, so the move is in-place-safe.
                let mut m = mask;
                for k in 0..n {
                    let t = m.trailing_zeros() as usize;
                    m &= m - 1;
                    self.o.lanes[base + k] = self.o.lanes[base + (t & (CHUNK_LANES - 1))];
                }
                self.nl += n;
            }
            (false, true) => {
                // Expand packed to positional: the scatter moves values
                // right and would collide in place, so stage through a
                // stack buffer. Only skew-kernel chunks dense enough for
                // the positional layout (n ≥ 16) take this copy.
                let mut tmp = [0.0f64; CHUNK_LANES];
                tmp[..n].copy_from_slice(&self.o.lanes[base..base + n]);
                let dst = &mut self.o.lanes[base..base + CHUNK_LANES];
                dst.fill(0.0);
                let mut m = mask;
                for &v in &tmp[..n] {
                    let t = m.trailing_zeros() as usize;
                    m &= m - 1;
                    dst[t & (CHUNK_LANES - 1)] = v;
                }
                self.nl += CHUNK_LANES;
            }
        }
        self.seal(n);
    }

    /// Truncates the directory down to the written prefix. The lane array
    /// deliberately keeps its high-water length: truncating it would make
    /// the next candidate's [`ChunkWriter::new`] re-zero the tail on every
    /// resize (~134 KB per candidate on the dense anchor). The trailing
    /// slack past `ends.last()` is never read — every consumer walks lanes
    /// through the `start(i)..end(i)` ranges — and
    /// [`ProbVector::clone_exact`] / [`ProbVector::trim_lane_slack`] cut it
    /// off before a vector escapes into a memo or the public API.
    fn finish(self) {
        self.o.keys.truncate(self.nk);
        self.o.masks.truncate(self.nk);
        self.o.ends.truncate(self.nk);
        debug_assert!(self.o.lanes.len() >= self.nl);
        self.o.nnz = self.nnz;
    }
}

/// One matched chunk pair of the intersection walk: dispatch to the
/// layout-specialized [`pair_chunk`], then commit the result chunk (in
/// whichever of the two value forms the kernel produced) when
/// materializing. Kept a free function marked `inline(always)` so the
/// directory walk gets a branch-predictable inlined copy — at ~10
/// nonzeros per packed chunk, per-chunk call overhead is as expensive as
/// the arithmetic itself.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn visit_chunk<const MAT: bool>(
    key: u32,
    ma: u64,
    mb: u64,
    la: &[f64],
    lb: &[f64],
    acc: &mut MomentAcc,
    w: &mut Option<ChunkWriter<'_>>,
    vals: &mut [f64; CHUNK_LANES],
) {
    if ma & mb == 0 {
        return;
    }
    acc.enter_chunk(key);
    let mut out_mask = 0u64;
    if MAT {
        let Some(w) = w.as_mut() else {
            debug_assert!(false, "materializing walk without a writer");
            return;
        };
        // Products land directly in the output lane array; commit then
        // only writes the directory entry (reshaping in the rare cases
        // where the kernel's output form loses the adaptive layout vote).
        let lanes_form = dispatch_pair::<MAT>(ma, mb, la, lb, acc, w.window(), &mut out_mask);
        w.commit_in_place(key, out_mask, lanes_form);
    } else {
        dispatch_pair::<MAT>(ma, mb, la, lb, acc, vals, &mut out_mask);
    }
}

/// Layout dispatch for one chunk pair: pick the [`pair_chunk`]
/// instantiation matching each side's stored form.
#[inline(always)]
fn dispatch_pair<const MAT: bool>(
    ma: u64,
    mb: u64,
    la: &[f64],
    lb: &[f64],
    acc: &mut MomentAcc,
    vals: &mut [f64; CHUNK_LANES],
    out_mask: &mut u64,
) -> bool {
    match (la.len() == CHUNK_LANES, lb.len() == CHUNK_LANES) {
        (true, true) => pair_chunk::<true, true, MAT>(ma, mb, la, lb, acc, vals, out_mask),
        (true, false) => pair_chunk::<true, false, MAT>(ma, mb, la, lb, acc, vals, out_mask),
        (false, true) => pair_chunk::<false, true, MAT>(ma, mb, la, lb, acc, vals, out_mask),
        (false, false) => pair_chunk::<false, false, MAT>(ma, mb, la, lb, acc, vals, out_mask),
    }
}

/// Shared engine of `intersect` / `intersect_into` / `intersect_stats`:
/// merge-join the chunk directories, visit common bits, accumulate the
/// stats, and — when `out` is given (`MAT`) — commit adaptive output
/// chunks.
fn intersect_kernel<const MAT: bool>(
    a: &ProbVector,
    b: &ProbVector,
    out: Option<&mut ProbVector>,
) -> (f64, f64, usize) {
    debug_assert_eq!(MAT, out.is_some());
    let kcap = a.keys.len().min(b.keys.len());
    let mut w: Option<ChunkWriter<'_>> = out.map(|o| ChunkWriter::new(o, kcap));
    let mut acc = MomentAcc::new();
    let mut vals = [0.0f64; CHUNK_LANES];
    let (ka, kb): (&[u32], &[u32]) = (&a.keys, &b.keys);
    let (mut i, mut j) = (0usize, 0usize);
    while i < ka.len() && j < kb.len() {
        let (x, y) = (ka[i], kb[j]);
        if x < y {
            i += 1;
        } else if y < x {
            j += 1;
        } else {
            visit_chunk::<MAT>(
                x,
                a.masks[i],
                b.masks[j],
                &a.lanes[a.start(i)..a.end(i)],
                &b.lanes[b.start(j)..b.end(j)],
                &mut acc,
                &mut w,
                &mut vals,
            );
            i += 1;
            j += 1;
        }
    }
    if let Some(w) = w {
        w.finish();
    }
    acc.finish()
}

/// Reusable, capacity-retaining buffers backing the zero-allocation
/// `*_into` kernels ([`ProbVector::intersect_into`],
/// [`ProbVector::diff_extend_into`]).
///
/// One `ScratchSpace` belongs to one worker thread (they are `Send` but
/// deliberately not shared): the buffers grow to the run's high-water mark
/// once, and every kernel call after that reuses them without touching the
/// allocator. Results are read back either in place
/// ([`ScratchSpace::dropped`]) or exported as exactly-sized owned values
/// ([`ScratchSpace::export`], [`ScratchSpace::export_diff`]) when they
/// must outlive the next kernel call — e.g. when a support engine memoizes
/// a surviving candidate. Scratch contents never influence results: each
/// kernel overwrites the buffers it uses in full.
#[derive(Clone, Debug, Default)]
pub struct ScratchSpace {
    /// The chunked result of the last [`ProbVector::intersect_into`].
    out: ProbVector,
    /// Dropped tids of the last [`ProbVector::diff_extend_into`].
    dropped: Vec<u32>,
}

impl ScratchSpace {
    /// Fresh scratch with empty buffers (they grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Nonzero count of the last [`ProbVector::intersect_into`] result.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True when the last intersection came out empty.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// The dropped tids of the last [`ProbVector::diff_extend_into`],
    /// ascending — readable in place, e.g. to measure a delta
    /// ([`DiffVector::mem_bytes`]-style) before deciding to export it.
    pub fn dropped(&self) -> &[u32] {
        &self.dropped
    }

    /// Exports the last [`ProbVector::intersect_into`] result as an owned,
    /// exactly-sized [`ProbVector`] — bit-for-bit the vector
    /// [`ProbVector::intersect`] would have returned, with no excess
    /// capacity to shrink.
    pub fn export(&self) -> ProbVector {
        self.out.clone_exact()
    }

    /// Exports the last [`ProbVector::diff_extend_into`] delta as an
    /// owned, exactly-sized [`DiffVector`].
    pub fn export_diff(&self) -> DiffVector {
        DiffVector {
            dropped: self.dropped.clone(),
        }
    }
}

/// The uncertain-data analog of a dEclat **diffset**: the delta of an
/// itemset's prob-vector against its own prefix's.
///
/// Extending a prefix `X` by an item `i` keeps a tid `t` iff
/// `vec(X)[t] · P_t(i) > 0`; the survivors' probabilities are reproducible
/// by gathering `P_t(i)` from the item's postings, so the only information
/// the extension *destroys* is which tids were dropped. A `DiffVector`
/// stores exactly that — the dropped tids — at 4 bytes each, versus the
/// kept entries' lanes-plus-directory cost for a [`ProbVector`]. On dense
/// data, where almost every tid survives every extension, the delta is a
/// small fraction of the tidset.
///
/// Produced by [`ProbVector::diff_extend`]; the full child vector is
/// recovered (bit-for-bit equal to [`ProbVector::intersect`]) with
/// [`ProbVector::apply_diff`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DiffVector {
    /// Prefix tids that do not survive the extension, ascending.
    dropped: Vec<u32>,
}

impl DiffVector {
    /// The dropped tids, ascending.
    pub fn dropped(&self) -> &[u32] {
        &self.dropped
    }

    /// Number of prefix tids the extension dropped.
    pub fn len(&self) -> usize {
        self.dropped.len()
    }

    /// True when every prefix tid survived the extension.
    pub fn is_empty(&self) -> bool {
        self.dropped.is_empty()
    }

    /// Heap bytes of the delta (4 per dropped tid) — comparable with
    /// [`ProbVector::mem_bytes`] when choosing the smaller representation
    /// per memo node, as dEclat does.
    pub fn mem_bytes(&self) -> usize {
        self.dropped.len() * std::mem::size_of::<u32>()
    }

    /// Releases excess capacity (the delta is push-grown; long-lived
    /// memoized deltas should hold exactly the bytes
    /// [`DiffVector::mem_bytes`] reports).
    pub fn shrink_to_fit(&mut self) {
        self.dropped.shrink_to_fit();
    }

    /// Applies a batch of point updates to the dropped-tid set in one
    /// merge pass — the window-step patch for a memoized delta chain.
    /// `updates` holds `(tid, dropped)` pairs with strictly ascending
    /// tids: `true` ensures the tid is in the dropped set (the stepped
    /// transaction kills the extension at that slot), `false` ensures it
    /// is not (the tid now survives, or left the prefix entirely —
    /// dropped sets only ever list live prefix tids). Redundant updates
    /// are no-ops, so the result equals the delta a cold
    /// [`ProbVector::diff_extend`] over the stepped window would emit.
    pub fn apply_tid_delta(&mut self, updates: &[(u32, bool)]) {
        if updates.is_empty() {
            return;
        }
        debug_assert!(
            updates.windows(2).all(|w| w[0].0 < w[1].0),
            "update tids not strictly ascending"
        );
        let mut out = Vec::with_capacity(self.dropped.len() + updates.len());
        let mut u = 0usize;
        for &tid in &self.dropped {
            while u < updates.len() && updates[u].0 < tid {
                if updates[u].1 {
                    out.push(updates[u].0);
                }
                u += 1;
            }
            if u < updates.len() && updates[u].0 == tid {
                if updates[u].1 {
                    out.push(tid);
                }
                u += 1;
            } else {
                out.push(tid);
            }
        }
        while u < updates.len() {
            if updates[u].1 {
                out.push(updates[u].0);
            }
            u += 1;
        }
        self.dropped = out;
    }
}

impl ProbVector {
    /// The dEclat-style extension step: computes, in **one** pass and
    /// without materializing the child vector, the child's statistics
    /// `(esup, variance, nonzero count)` — bit-identical to
    /// `self.intersect(other).moments()` and to
    /// [`ProbVector::intersect_stats`] — plus the [`DiffVector`] of prefix
    /// tids that did not survive (`other` absent, or the product
    /// underflowed to zero).
    pub fn diff_extend(&self, other: &ProbVector) -> (DiffVector, f64, f64, usize) {
        let mut dropped: Vec<u32> = Vec::new();
        let mut acc = MomentAcc::new();
        self.diff_extend_core(other, &mut acc, |tid| dropped.push(tid));
        let (esup, var, count) = acc.finish();
        (DiffVector { dropped }, esup, var, count)
    }

    /// [`ProbVector::diff_extend`] writing the dropped tids into
    /// `scratch.dropped` (read back via [`ScratchSpace::dropped`], export
    /// via [`ScratchSpace::export_diff`]) instead of allocating a fresh
    /// delta. Returns the child's `(esup, variance, nonzero count)`,
    /// bit-identical to the allocating twin.
    pub fn diff_extend_into(
        &self,
        other: &ProbVector,
        scratch: &mut ScratchSpace,
    ) -> (f64, f64, usize) {
        scratch.dropped.clear();
        let dropped = &mut scratch.dropped;
        let mut acc = MomentAcc::new();
        self.diff_extend_core(other, &mut acc, |tid| dropped.push(tid));
        acc.finish()
    }

    /// [`ProbVector::diff_extend_into`] that additionally retains the
    /// child's per-block striped partials — the [`BlockMoments`] a
    /// streaming diffset memo keeps so a later window step can patch the
    /// cached stats instead of re-folding. One pass, no child
    /// materialization; the returned `(esup, var, count)` and the recorded
    /// partials are bit-identical to the plain twin's results and to
    /// [`BlockMoments::of`] of the materialized child, respectively.
    pub fn diff_extend_blocks_into(
        &self,
        other: &ProbVector,
        scratch: &mut ScratchSpace,
    ) -> (BlockMoments, f64, f64, usize) {
        scratch.dropped.clear();
        let dropped = &mut scratch.dropped;
        let mut rec = BlockRecorder::new();
        self.diff_extend_core(other, &mut rec, |tid| dropped.push(tid));
        let blocks = rec.finish();
        let (esup, var, count) = blocks.fold();
        (blocks, esup, var, count)
    }

    /// Shared engine of [`ProbVector::diff_extend`] /
    /// [`ProbVector::diff_extend_into`]: one pass over the prefix's
    /// chunks, merge-joining each against `other`'s chunk directory and
    /// calling `drop` for every tid that does not survive the extension.
    ///
    /// Accumulation shape: contributions are grouped by the prefix's chunk
    /// blocks — the same [`SUM_BLOCK_TIDS`] shape as `intersect_stats`
    /// (whose extra zero-product adds are IEEE-754 no-ops), so the sums
    /// are bit-identical.
    fn diff_extend_core<S: StatSink, F: FnMut(u32)>(
        &self,
        other: &ProbVector,
        acc: &mut S,
        mut drop: F,
    ) {
        let kb: &[u32] = &other.keys;
        let mut j = 0usize;
        for i in 0..self.keys.len() {
            let key = self.keys[i];
            acc.enter_chunk(key);
            while j < kb.len() && kb[j] < key {
                j += 1;
            }
            let base = key << CHUNK_BITS;
            let ma = self.masks[i];
            let la = &self.lanes[self.start(i)..self.end(i)];
            let da = la.len() == CHUNK_LANES;
            if j < kb.len() && kb[j] == key {
                let mb = other.masks[j];
                let lb = &other.lanes[other.start(j)..other.end(j)];
                let db = lb.len() == CHUNK_LANES;
                let mut m = ma;
                let mut ia = 0usize;
                while m != 0 {
                    let t = m.trailing_zeros();
                    m &= m - 1;
                    // Iterating `ma` in bit order makes the packed-lane
                    // cursor sequential — no rank popcount on `self`.
                    let p = if da { la[t as usize] } else { la[ia] };
                    ia += 1;
                    let q = if db {
                        // Positional zeros stand in for absent tids.
                        lb[t as usize]
                    } else if (mb >> t) & 1 == 1 {
                        lb[rank(mb, t)]
                    } else {
                        0.0
                    };
                    let prod = p * q;
                    if prod > 0.0 {
                        acc.add(t, prod);
                    } else {
                        drop(base | t);
                    }
                }
            } else {
                // No postings chunk here: every prefix tid is dropped.
                let mut m = ma;
                while m != 0 {
                    let t = m.trailing_zeros();
                    m &= m - 1;
                    drop(base | t);
                }
            }
        }
    }

    /// Reconstructs the child vector a [`ProbVector::diff_extend`] call
    /// summarized: `self` must be the same prefix vector and `other` the
    /// same appended item's postings. The result is bit-for-bit equal to
    /// `self.intersect(other)`, each chunk's layout re-decided as it is
    /// rebuilt.
    pub fn apply_diff(&self, diff: &DiffVector, other: &ProbVector) -> ProbVector {
        self.apply_dropped(&diff.dropped, other)
    }

    /// [`ProbVector::apply_diff`] writing into a caller-owned vector whose
    /// buffers are reused (cleared, capacity retained) — the
    /// zero-allocation twin for transient reconstructions that do not
    /// outlive the next kernel call.
    pub fn apply_diff_into(&self, diff: &DiffVector, other: &ProbVector, out: &mut ProbVector) {
        self.apply_dropped_core(&diff.dropped, other, out);
    }

    /// [`ProbVector::apply_diff`] over a raw dropped-tid slice — lets
    /// callers holding a delta in scratch ([`ScratchSpace::dropped`])
    /// materialize the child without first exporting a [`DiffVector`].
    pub fn apply_dropped(&self, dropped: &[u32], other: &ProbVector) -> ProbVector {
        let mut out = ProbVector::default();
        out.keys.reserve(self.keys.len());
        out.masks.reserve(self.keys.len());
        out.ends.reserve(self.keys.len());
        out.lanes.reserve(self.nnz.saturating_sub(dropped.len()));
        self.apply_dropped_core(dropped, other, &mut out);
        out
    }

    /// Shared engine of the `apply_*` reconstructions: walks the prefix's
    /// chunks, skips the dropped tids, regathers the appended item's
    /// probability for each survivor, and commits adaptive output chunks.
    fn apply_dropped_core(&self, dropped: &[u32], other: &ProbVector, out: &mut ProbVector) {
        out.clear();
        let kb: &[u32] = &other.keys;
        let mut d = 0usize;
        let mut j = 0usize;
        let mut vals = [0.0f64; CHUNK_LANES];
        for i in 0..self.keys.len() {
            let key = self.keys[i];
            while j < kb.len() && kb[j] < key {
                j += 1;
            }
            let base = key << CHUNK_BITS;
            let ma = self.masks[i];
            let la = &self.lanes[self.start(i)..self.end(i)];
            let da = la.len() == CHUNK_LANES;
            let hit = j < kb.len() && kb[j] == key;
            let (mb, sb, db) = if hit {
                let lb_len = other.end(j) - other.start(j);
                (other.masks[j], other.start(j), lb_len == CHUNK_LANES)
            } else {
                (0u64, 0usize, false)
            };
            let mut out_mask = 0u64;
            let mut k = 0usize;
            let mut m = ma;
            let mut ia = 0usize;
            while m != 0 {
                let t = m.trailing_zeros();
                m &= m - 1;
                let tid = base | t;
                let lane_idx = ia;
                ia += 1;
                if d < dropped.len() && dropped[d] == tid {
                    d += 1;
                    continue;
                }
                let p = if da { la[t as usize] } else { la[lane_idx] };
                debug_assert!(
                    (mb >> t) & 1 == 1,
                    "surviving tid {tid} absent from postings"
                );
                let q = if db {
                    other.lanes[sb + t as usize]
                } else {
                    other.lanes[sb + rank(mb, t)]
                };
                let prod = p * q;
                debug_assert!(prod > 0.0, "surviving tid {tid} has a zero product");
                vals[k] = prod;
                k += 1;
                out_mask |= 1u64 << t;
            }
            out.commit_chunk(key, out_mask, &vals);
        }
        debug_assert_eq!(d, dropped.len(), "dropped tid absent from prefix");
    }
}

/// One-pass columnar index over an [`UncertainDatabase`]: for every item,
/// the sorted postings of `(tid, prob)` pairs in which it occurs, each
/// chunk stored packed or positionally by the per-chunk
/// [`DENSE_CUTOFF_DIVISOR`] rule.
#[derive(Clone, Debug, Default)]
pub struct VerticalIndex {
    postings: Vec<ProbVector>,
    num_transactions: usize,
}

impl VerticalIndex {
    /// Builds the index in a single pass over the database. Chunk layouts
    /// adapt during the build (a chunk converts packed → positional the
    /// moment it crosses the cutoff).
    pub fn build(db: &UncertainDatabase) -> Self {
        let mut postings = vec![ProbVector::new(); db.num_items() as usize];
        for (tid, t) in db.transactions().iter().enumerate() {
            for (item, p) in t.units() {
                postings[item as usize].push(tid as u32, p);
            }
        }
        VerticalIndex {
            postings,
            num_transactions: db.num_transactions(),
        }
    }

    /// Number of transactions in the indexed database.
    #[inline]
    pub fn num_transactions(&self) -> usize {
        self.num_transactions
    }

    /// Vocabulary size.
    #[inline]
    pub fn num_items(&self) -> u32 {
        self.postings.len() as u32
    }

    /// The postings of one item (its singleton prob-vector).
    #[inline]
    pub fn postings(&self, item: ItemId) -> &ProbVector {
        &self.postings[item as usize]
    }

    /// Total nonzero `(tid, prob)` units — equals the database's total
    /// units.
    pub fn total_units(&self) -> usize {
        self.postings.iter().map(ProbVector::len).sum()
    }

    /// Mean nonzero units per posting (0 for an empty vocabulary) — the
    /// per-candidate work estimate the support engines share when gating
    /// their parallel fan-out.
    pub fn mean_posting_units(&self) -> usize {
        self.total_units()
            .checked_div(self.num_items().max(1) as usize)
            .unwrap_or(0)
    }

    /// Applies a window step in place, read through its [`StepProbe`]:
    /// each moved item's posting absorbs the item's net updates
    /// ([`StepProbe::updates`] of the singleton: ascending `(tid,
    /// new_prob)`, removals as probability 0) in a single
    /// [`ProbVector::apply_tid_delta`] merge — one pass per moved item,
    /// never `O(window)` or `O(vocabulary)`.
    ///
    /// Because [`ProbVector::apply_tid_delta`] commits the canonical chunk
    /// layout, the maintained index is **byte-identical** to
    /// [`VerticalIndex::build`] over the stepped window's snapshot, so
    /// everything downstream (kernels, memo pushdown) behaves as if the
    /// index had been rebuilt.
    ///
    /// Every dirty tid must lie within the indexed transaction range (the
    /// window's ring-buffer tids guarantee this; checked in debug builds).
    pub fn apply_probe(&mut self, probe: &StepProbe) {
        for &item in probe.moved_items() {
            let updates = probe.updates(&[item]);
            debug_assert!(
                updates
                    .iter()
                    .all(|&(tid, _)| (tid as usize) < self.num_transactions),
                "dirty tid outside the indexed range"
            );
            self.postings[item as usize].apply_tid_delta(&updates);
        }
    }

    /// [`VerticalIndex::apply_probe`] over a freshly loaded probe of `step`.
    pub fn apply_step(&mut self, step: &WindowStep) {
        self.apply_probe(&StepProbe::new(step));
    }

    /// Computes an arbitrary itemset's prob-vector from scratch by folding
    /// postings left to right — `O(Σ |postings|)`. Miners avoid this via
    /// prefix memoization; it anchors tests and serves cold lookups.
    pub fn prob_vector(&self, itemset: &[ItemId]) -> ProbVector {
        let Some((&first, rest)) = itemset.split_first() else {
            return ProbVector::new();
        };
        let mut acc = self.postings(first).clone();
        for &item in rest {
            if acc.is_empty() {
                break;
            }
            acc = acc.intersect(self.postings(item));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::paper_table1;
    use crate::transaction::Transaction;

    /// Scalar reference implementation over plain `(tid, prob)` pair
    /// lists: a merge-join plus the workspace's fixed summation shape —
    /// eight striped partials (`tid % 8`) per 4096-tid block, stripes
    /// folded in ascending order — written with none of the chunked
    /// machinery. The chunked kernels must match it bit for bit.
    mod reference {
        /// `tid >> BLOCK_SHIFT` is the tid's summation block.
        const BLOCK_SHIFT: u32 = 12; // 4096 tids

        /// Everything one extension step produces, per the reference.
        pub struct Extension {
            pub kept: Vec<(u32, f64)>,
            pub dropped: Vec<u32>,
            pub esup: f64,
            pub var: f64,
            pub count: usize,
        }

        /// Striped-and-blocked `(esup, var)` over pairs in ascending tid
        /// order.
        pub fn moments(pairs: &[(u32, f64)]) -> (f64, f64) {
            let (mut esup, mut var) = (0.0f64, 0.0f64);
            let (mut be, mut bv) = ([0.0f64; 8], [0.0f64; 8]);
            let mut blk = 0u32;
            let fold = |be: &mut [f64; 8], bv: &mut [f64; 8], esup: &mut f64, var: &mut f64| {
                for s in be.iter_mut() {
                    *esup += *s;
                    *s = 0.0;
                }
                for s in bv.iter_mut() {
                    *var += *s;
                    *s = 0.0;
                }
            };
            for &(tid, q) in pairs {
                let b = tid >> BLOCK_SHIFT;
                if b != blk {
                    fold(&mut be, &mut bv, &mut esup, &mut var);
                    blk = b;
                }
                let s = (tid & 7) as usize;
                be[s] += q;
                bv[s] += q * (1.0 - q);
            }
            fold(&mut be, &mut bv, &mut esup, &mut var);
            (esup, var)
        }

        /// The extension `a × b`: products on common tids (zero products
        /// contribute `0.0` to the sums and are dropped), `a`-only tids
        /// dropped.
        pub fn extend(a: &[(u32, f64)], b: &[(u32, f64)]) -> Extension {
            let mut kept = Vec::new();
            let mut dropped = Vec::new();
            let mut products = Vec::new();
            for &(tid, pa) in a {
                match b.binary_search_by_key(&tid, |e| e.0) {
                    Ok(j) => {
                        let q = pa * b[j].1;
                        products.push((tid, q));
                        if q > 0.0 {
                            kept.push((tid, q));
                        } else {
                            dropped.push(tid);
                        }
                    }
                    Err(_) => dropped.push(tid),
                }
            }
            let (esup, var) = moments(&products);
            Extension {
                count: kept.len(),
                kept,
                dropped,
                esup,
                var,
            }
        }
    }

    fn build(pairs: &[(u32, f64)]) -> ProbVector {
        let (tids, probs): (Vec<u32>, Vec<f64>) = pairs.iter().copied().unzip();
        ProbVector::from_parts(tids, probs)
    }

    /// Runs every kernel pairing of `a × b` and asserts each against the
    /// scalar reference, bit for bit.
    fn check_kernels(a_pairs: &[(u32, f64)], b_pairs: &[(u32, f64)]) {
        let a = build(a_pairs);
        let b = build(b_pairs);
        assert_eq!(a.nonzero(), a_pairs, "from_parts/nonzero roundtrip");
        let want = reference::extend(a_pairs, b_pairs);

        // Operand moments against the reference's blocked summation.
        let (me, mv) = a.moments();
        let (re, rv) = reference::moments(a_pairs);
        assert_eq!(me.to_bits(), re.to_bits(), "moments esup");
        assert_eq!(mv.to_bits(), rv.to_bits(), "moments var");
        assert_eq!(a.esup().to_bits(), re.to_bits(), "esup");

        // Materializing intersection.
        let got = a.intersect(&b);
        assert_eq!(got.nonzero(), want.kept, "intersect");
        assert_eq!(got.len(), want.count);

        // Stats-only path.
        let (e, v, c) = a.intersect_stats(&b);
        assert_eq!(e.to_bits(), want.esup.to_bits(), "intersect_stats esup");
        assert_eq!(v.to_bits(), want.var.to_bits(), "intersect_stats var");
        assert_eq!(c, want.count);

        // Moments of the materialized result agree with the fused stats.
        let (ge, gv) = got.moments();
        assert_eq!(ge.to_bits(), want.esup.to_bits(), "result moments esup");
        assert_eq!(gv.to_bits(), want.var.to_bits(), "result moments var");

        // Fused scratch twin: same stats, same layout, same contents.
        let mut scratch = ScratchSpace::new();
        let (e, v, c) = a.intersect_into(&b, &mut scratch);
        assert_eq!(e.to_bits(), want.esup.to_bits(), "intersect_into esup");
        assert_eq!(v.to_bits(), want.var.to_bits(), "intersect_into var");
        assert_eq!(c, want.count);
        assert_eq!(scratch.len(), want.count);
        let exported = scratch.export();
        assert_eq!(exported.nonzero(), want.kept, "export");
        assert_eq!(exported.mem_bytes(), got.mem_bytes(), "export layout");
        assert_eq!(exported.mem_units(), got.mem_units());

        // Delta kernels.
        let (diff, e, v, c) = a.diff_extend(&b);
        assert_eq!(e.to_bits(), want.esup.to_bits(), "diff_extend esup");
        assert_eq!(v.to_bits(), want.var.to_bits(), "diff_extend var");
        assert_eq!(c, want.count);
        assert_eq!(diff.dropped(), &want.dropped[..], "diff dropped");
        let (e, v, c) = a.diff_extend_into(&b, &mut scratch);
        assert_eq!(e.to_bits(), want.esup.to_bits(), "diff_extend_into esup");
        assert_eq!(v.to_bits(), want.var.to_bits(), "diff_extend_into var");
        assert_eq!(c, want.count);
        assert_eq!(scratch.dropped(), &want.dropped[..]);
        assert_eq!(scratch.export_diff(), diff);

        // Reconstruction.
        let rebuilt = a.apply_diff(&diff, &b);
        assert_eq!(rebuilt.nonzero(), want.kept, "apply_diff");
        assert_eq!(rebuilt.mem_bytes(), got.mem_bytes(), "apply_diff layout");
        let mut out = ProbVector::new();
        a.apply_diff_into(&diff, &b, &mut out);
        assert_eq!(out.nonzero(), want.kept, "apply_diff_into");
        assert_eq!(
            a.apply_dropped(scratch.dropped(), &b).nonzero(),
            want.kept,
            "apply_dropped"
        );
    }

    #[test]
    fn index_matches_horizontal_reference() {
        let db = paper_table1();
        let idx = VerticalIndex::build(&db);
        assert_eq!(idx.num_transactions(), 4);
        assert_eq!(idx.num_items(), 6);
        assert_eq!(idx.total_units(), db.stats().total_units);
        for item in 0..6u32 {
            let esup = idx.postings(item).esup();
            let want = db.item_expected_supports()[item as usize];
            assert!((esup - want).abs() < 1e-12, "item {item}");
        }
        // D appears in T1 (0.7) and T4 (0.5) only.
        assert_eq!(idx.postings(3).nonzero(), vec![(0, 0.7), (3, 0.5)]);
    }

    #[test]
    fn intersection_reproduces_itemset_prob_vectors() {
        let db = paper_table1();
        let idx = VerticalIndex::build(&db);
        for a in 0..6u32 {
            for b in a + 1..6u32 {
                let vec2 = idx.postings(a).intersect(idx.postings(b));
                let want = db.itemset_prob_vector(&[a, b]);
                assert_eq!(vec2.nonzero_probs(), want, "{{{a},{b}}}");
                let (esup, var) = vec2.moments();
                let (we, wv) = db.support_moments(&[a, b]);
                assert!((esup - we).abs() < 1e-12);
                assert!((var - wv).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn prefix_recurrence_equals_scratch_fold() {
        let db = paper_table1();
        let idx = VerticalIndex::build(&db);
        // {A, C, E}: prefix {A, C} extended by E.
        let prefix = idx.postings(0).intersect(idx.postings(2));
        let via_recurrence = prefix.intersect(idx.postings(4));
        assert_eq!(via_recurrence, idx.prob_vector(&[0, 2, 4]));
        assert_eq!(
            via_recurrence.nonzero_probs(),
            db.itemset_prob_vector(&[0, 2, 4])
        );
    }

    #[test]
    fn empty_cases() {
        let db = paper_table1();
        let idx = VerticalIndex::build(&db);
        assert!(idx.prob_vector(&[]).is_empty());
        // D and E never co-occur.
        assert!(idx.prob_vector(&[3, 4]).is_empty());
        assert_eq!(idx.prob_vector(&[3, 4]).esup(), 0.0);

        let empty = UncertainDatabase::from_transactions(vec![]);
        let idx = VerticalIndex::build(&empty);
        assert_eq!(idx.num_items(), 0);
        assert_eq!(idx.total_units(), 0);

        // Empty × empty and empty × nonempty through every kernel.
        check_kernels(&[], &[]);
        check_kernels(&[], &[(3, 0.5)]);
        check_kernels(&[(3, 0.5)], &[]);
    }

    #[test]
    fn intersect_is_commutative_here() {
        let db = paper_table1();
        let idx = VerticalIndex::build(&db);
        let ab = idx.postings(0).intersect(idx.postings(1));
        let ba = idx.postings(1).intersect(idx.postings(0));
        assert_eq!(ab, ba);
    }

    /// Items spanning the per-chunk packed/positional cutoff, checked
    /// against the horizontal reference.
    #[test]
    fn mixed_representations_agree_with_reference() {
        // Item 0: every transaction (64/chunk, positional). Item 1: every
        // other (32/chunk, positional). Item 2: every 10th (~6/chunk,
        // packed). Item 3: every 16th (4/chunk, packed).
        let transactions: Vec<Transaction> = (0..320)
            .map(|i| {
                let mut units = vec![(0u32, 0.9)];
                if i % 2 == 0 {
                    units.push((1, 0.8));
                }
                if i % 10 == 0 {
                    units.push((2, 0.7));
                }
                if i % 16 == 0 {
                    units.push((3, 0.6));
                }
                Transaction::new(units).unwrap()
            })
            .collect();
        let db = UncertainDatabase::with_num_items(transactions, 4);
        let idx = VerticalIndex::build(&db);
        assert_eq!(idx.postings(0).dense_chunks(), 5);
        assert_eq!(idx.postings(1).dense_chunks(), 5);
        assert_eq!(idx.postings(2).dense_chunks(), 0);
        assert_eq!(idx.postings(3).dense_chunks(), 0);
        for a in 0..4u32 {
            for b in a + 1..4u32 {
                let got = idx.postings(a).intersect(idx.postings(b));
                let want = db.itemset_prob_vector(&[a, b]);
                assert_eq!(got.nonzero_probs(), want, "{{{a},{b}}}");
                assert_eq!(got.len(), want.len());
                check_kernels(&idx.postings(a).nonzero(), &idx.postings(b).nonzero());
            }
        }
        // Positional × packed that comes out packed: {1, 2} hits every
        // 10th transaction only (~3 per chunk).
        let v12 = idx.postings(1).intersect(idx.postings(2));
        assert_eq!(v12.dense_chunks(), 0);
        // Triple through the recurrence, mixing all layouts.
        let v012 = idx.prob_vector(&[0, 1, 2]);
        assert_eq!(v012.nonzero_probs(), db.itemset_prob_vector(&[0, 1, 2]));
    }

    /// f64 underflow regime: products of these hit exact 0.0 (1e-200 ×
    /// 1e-200 = 1e-400 < the smallest subnormal) or the subnormal range.
    const TINY: f64 = 1e-200;
    const SUBNORMAL_EDGE: f64 = 1e-160; // squared → 1e-320, subnormal

    const PAIRS_A: [(u32, f64); 4] = [(0, TINY), (1, 0.5), (2, SUBNORMAL_EDGE), (3, 0.9)];
    const PAIRS_B: [(u32, f64); 4] = [(0, TINY), (1, 0.5), (2, SUBNORMAL_EDGE), (3, 1e-320)];

    /// Pads a payload with filler entries inside chunk 0 so the chunk
    /// crosses the positional cutoff; `filler` tid ranges let callers
    /// control whether the paddings of two operands overlap.
    fn with_filler(pairs: &[(u32, f64)], filler: std::ops::Range<u32>) -> Vec<(u32, f64)> {
        let mut all: Vec<(u32, f64)> = pairs.to_vec();
        all.extend(filler.map(|t| (t, 0.5)));
        all.sort_by_key(|e| e.0);
        all
    }

    /// All four chunk-layout pairings must drop zero products from the
    /// materialized result, and `len()`/`moments()` must agree with
    /// `intersect_stats` bit for bit — the invariant the `WITH_COUNT`
    /// pushdown path relies on. Filler tids (32..48 vs 48..64) never
    /// overlap, so the common-tid set is the same in every pairing.
    #[test]
    fn underflow_products_are_dropped_consistently() {
        for a_dense in [false, true] {
            for b_dense in [false, true] {
                let a_pairs = if a_dense {
                    with_filler(&PAIRS_A, 32..48)
                } else {
                    PAIRS_A.to_vec()
                };
                let b_pairs = if b_dense {
                    with_filler(&PAIRS_B, 48..64)
                } else {
                    PAIRS_B.to_vec()
                };
                check_kernels(&a_pairs, &b_pairs);
                let a = build(&a_pairs);
                let b = build(&b_pairs);
                assert_eq!(a.dense_chunks() > 0, a_dense, "fixture layout");
                assert_eq!(b.dense_chunks() > 0, b_dense, "fixture layout");
                // tid 0: 1e-400 → 0.0, dropped. tid 1: 0.25 kept. tid 2:
                // subnormal 1e-320 > 0 kept. tid 3: 0.9·1e-320 kept.
                let got = a.intersect(&b);
                assert_eq!(got.len(), 3, "{a_dense:?}×{b_dense:?}");
                assert!(got.nonzero().iter().all(|&(_, q)| q > 0.0));
            }
        }
    }

    /// Positional × positional with a large common filler — the dense
    /// multiply-reduce path — still agrees with the reference.
    #[test]
    fn dense_chunks_with_shared_filler() {
        let a_pairs = with_filler(&PAIRS_A, 16..64);
        let b_pairs = with_filler(&PAIRS_B, 16..64);
        check_kernels(&a_pairs, &b_pairs);
        assert_eq!(build(&a_pairs).dense_chunks(), 1);
    }

    /// A fully-underflowing intersection materializes as empty and reports
    /// zero stats — `len()`, `moments()` and `intersect_stats` all agree.
    #[test]
    fn total_underflow_yields_empty_vector() {
        let a = build(&[(0, TINY), (5, TINY)]);
        let b = build(&[(0, TINY), (5, TINY)]);
        let got = a.intersect(&b);
        assert!(got.is_empty());
        assert_eq!(got.num_chunks(), 0);
        let (esup, var, count) = a.intersect_stats(&b);
        assert_eq!((esup, var, count), (0.0, 0.0, 0));
        assert_eq!(got.moments(), (0.0, 0.0));
        check_kernels(&[(0, TINY), (5, TINY)], &[(0, TINY), (5, TINY)]);
    }

    /// Chains deep enough that products underflow step by step: the
    /// recurrence must keep dropping newly-zero entries at every level.
    #[test]
    fn deep_chain_underflow() {
        // 8 items all present in the same 3 transactions with tiny probs:
        // products vanish after ⌈300/200⌉ = 2 steps for the 1e-200 tids.
        let transactions: Vec<Transaction> = (0..3)
            .map(|t| {
                let p = if t == 0 { 0.5 } else { TINY };
                Transaction::new((0..8u32).map(|i| (i, p)).collect::<Vec<_>>()).unwrap()
            })
            .collect();
        let db = UncertainDatabase::with_num_items(transactions, 8);
        let idx = VerticalIndex::build(&db);
        let items: Vec<u32> = (0..8).collect();
        let mut acc = idx.postings(items[0]).clone();
        for &i in &items[1..] {
            let (esup, var, count) = acc.intersect_stats(idx.postings(i));
            acc = acc.intersect(idx.postings(i));
            assert_eq!(acc.len(), count);
            let (ge, gv) = acc.moments();
            assert_eq!(ge.to_bits(), esup.to_bits());
            assert_eq!(gv.to_bits(), var.to_bits());
            assert!(acc.nonzero().iter().all(|&(_, q)| q > 0.0));
        }
        // Only the p=0.5 transaction survives all 8 items (0.5^8).
        assert_eq!(acc.nonzero(), vec![(0, 0.5f64.powi(8))]);
    }

    /// Delta chains over the Table 1 example equal the scratch fold, and
    /// the chunked memory accounting charges lanes plus directory.
    #[test]
    fn diff_chain_reconstruction() {
        let db = paper_table1();
        let idx = VerticalIndex::build(&db);
        // Chain {A} → {A,C} → {A,C,E} entirely through deltas.
        let a = idx.postings(0);
        let (d_ac, ..) = a.diff_extend(idx.postings(2));
        let ac = a.apply_diff(&d_ac, idx.postings(2));
        let (d_ace, esup, _, count) = ac.diff_extend(idx.postings(4));
        let ace = ac.apply_diff(&d_ace, idx.postings(4));
        assert_eq!(ace, idx.prob_vector(&[0, 2, 4]));
        assert_eq!(ace.len(), count);
        assert!((esup - db.expected_support(&[0, 2, 4])).abs() < 1e-12);
        // Memory accounting: deltas are 4 bytes per dropped tid; the
        // 4-transaction vectors are one packed chunk (8 per lane + 16
        // directory).
        assert_eq!(d_ac.mem_bytes(), d_ac.len() * 4);
        assert_eq!(ac.num_chunks(), 1);
        assert_eq!(ac.mem_bytes(), ac.len() * 8 + 16);
    }

    /// A dense-chunk intersection round-trips through scratch, and a later
    /// sparse result on the same (dirty) scratch is unharmed by leftovers.
    #[test]
    fn scratch_reuse_across_representation_switches() {
        let all: Vec<(u32, f64)> = (0..24).map(|t| (t, 0.9)).collect();
        let a = build(&all);
        let b = build(&all);
        assert_eq!(a.dense_chunks(), 1);
        let mut scratch = ScratchSpace::new();
        let (esup, ..) = a.intersect_into(&b, &mut scratch);
        assert_eq!(scratch.export().dense_chunks(), 1);
        assert!((esup - 24.0 * 0.81).abs() < 1e-12);
        // Now a tiny packed × packed on the same scratch.
        let c = build(&[(1, 0.5), (5, 0.25)]);
        let d = build(&[(5, 0.5)]);
        let (esup, _, count) = c.intersect_into(&d, &mut scratch);
        assert_eq!(count, 1);
        assert_eq!(scratch.export().nonzero(), vec![(5, 0.125)]);
        assert!((esup - 0.125).abs() < 1e-15);
    }

    /// `diff_extend_into` + `export_diff` ≡ `diff_extend`, and
    /// `apply_diff_into` / `apply_dropped` ≡ `apply_diff`, with buffer
    /// reuse across calls — over all four chunk-layout pairings.
    #[test]
    fn scratch_diff_kernels_match_allocating_twins() {
        let pairs_a = [(0u32, 0.9), (1, TINY), (3, 0.5), (5, 0.7), (7, 0.2)];
        let pairs_b = [(0u32, 0.8), (1, TINY), (2, 0.4), (5, 0.6), (7, 0.1)];
        for a_dense in [false, true] {
            for b_dense in [false, true] {
                let ap = if a_dense {
                    with_filler(&pairs_a, 32..48)
                } else {
                    pairs_a.to_vec()
                };
                let bp = if b_dense {
                    with_filler(&pairs_b, 48..64)
                } else {
                    pairs_b.to_vec()
                };
                // check_kernels covers the equivalences; also pin the
                // dropped set of the unpadded payload.
                check_kernels(&ap, &bp);
            }
        }
        // Dropped: tid 1 (underflow) and tid 3 (absent from b).
        let (diff, ..) = build(&pairs_a).diff_extend(&build(&pairs_b));
        assert_eq!(diff.dropped(), &[1, 3]);
    }

    /// The per-chunk layout rule: packed below 16 nonzeros, positional at
    /// or above — identically for `from_parts` and push-grown vectors —
    /// with lanes-plus-directory byte accounting.
    #[test]
    fn per_chunk_layout_rule() {
        // 15 entries in chunk 0: packed.
        let p15: Vec<(u32, f64)> = (0..15).map(|t| (t, 0.5)).collect();
        let v = build(&p15);
        assert_eq!((v.num_chunks(), v.dense_chunks()), (1, 0));
        assert_eq!(v.mem_units(), 15);
        assert_eq!(v.mem_bytes(), 15 * 8 + 16);
        // 16 entries: positional.
        let p16: Vec<(u32, f64)> = (0..16).map(|t| (t, 0.5)).collect();
        let v = build(&p16);
        assert_eq!((v.num_chunks(), v.dense_chunks()), (1, 1));
        assert_eq!(v.mem_units(), 64);
        assert_eq!(v.mem_bytes(), 64 * 8 + 16);
        // Push-grown vector converts mid-build and matches from_parts.
        let mut pushed = ProbVector::new();
        for &(t, p) in &p16 {
            pushed.push(t, p);
        }
        assert_eq!(pushed, v);
        assert_eq!(pushed.mem_units(), v.mem_units());
        assert_eq!(pushed.mem_bytes(), v.mem_bytes());
        // A second, sparse chunk after a positional one.
        let mut mixed: Vec<(u32, f64)> = p16.clone();
        mixed.push((130, 0.25));
        let v = build(&mixed);
        assert_eq!((v.num_chunks(), v.dense_chunks()), (2, 1));
        assert_eq!(v.mem_units(), 65);
        assert_eq!(v.mem_bytes(), 65 * 8 + 2 * 16);
        assert_eq!(v.nonzero().last(), Some(&(130, 0.25)));
        // The estimate tracks the same rule.
        assert_eq!(
            ProbVector::estimate_mem_bytes(16, 64),
            64 * 8 + 16,
            "dense estimate"
        );
        assert_eq!(
            ProbVector::estimate_mem_bytes(15, 6400),
            15 * 8 + 15 * 16,
            "sparse estimate"
        );
        assert_eq!(ProbVector::estimate_mem_bytes(0, 100), 0);
    }

    /// Skewed, gappy directories — 3 chunks spread far apart against
    /// 1000 chunks of one tid each, at a shifting offset — match the
    /// scalar reference in both argument orders.
    #[test]
    fn skewed_gappy_directories_match_reference() {
        let short: Vec<(u32, f64)> = vec![(70, 0.9), (7_001, 0.8), (62_997, 0.7)];
        let long: Vec<(u32, f64)> = (0..64_000u32)
            .step_by(64)
            .map(|t| (t + (t / 64) % 61, 0.6))
            .collect();
        check_kernels(&short, &long);
        check_kernels(&long, &short);
    }

    /// The fixed 4096-tid summation blocks: sums over a >4096-tid vector
    /// match the scalar reference, and multiplying by an all-ones vector
    /// (exact under IEEE-754) reproduces the same bits through the
    /// intersection kernels.
    #[test]
    fn blocked_summation_is_fixed_shape() {
        let pairs: Vec<(u32, f64)> = (0..10_000u32)
            .step_by(3)
            .map(|t| (t, 0.1 + ((t % 89) as f64) / 100.0))
            .collect();
        let v = build(&pairs);
        let (esup, var) = v.moments();
        let (re, rv) = reference::moments(&pairs);
        assert_eq!(esup.to_bits(), re.to_bits());
        assert_eq!(var.to_bits(), rv.to_bits());
        // q × 1.0 is exact, so intersecting with all-ones postings must
        // reproduce the same sums through the kernel path.
        let ones: Vec<(u32, f64)> = (0..10_000u32).map(|t| (t, 1.0)).collect();
        let (ie, iv, ic) = v.intersect_stats(&build(&ones));
        assert_eq!(ie.to_bits(), esup.to_bits());
        assert_eq!(iv.to_bits(), var.to_bits());
        assert_eq!(ic, v.len());
        check_kernels(&pairs, &ones);
    }

    /// Byte-level layout equality: the canonical-layout invariant says two
    /// vectors with the same contents have identical directories and lanes
    /// however they were built.
    fn assert_same_layout(a: &ProbVector, b: &ProbVector, label: &str) {
        assert_eq!(a.keys, b.keys, "{label}: chunk keys");
        assert_eq!(a.masks, b.masks, "{label}: masks");
        assert_eq!(a.ends, b.ends, "{label}: lane offsets");
        assert_eq!(a.nnz, b.nnz, "{label}: nnz");
        let ab: Vec<u64> = a.lanes.iter().map(|p| p.to_bits()).collect();
        let bb: Vec<u64> = b.lanes.iter().map(|p| p.to_bits()).collect();
        assert_eq!(ab, bb, "{label}: lanes");
    }

    /// Point updates keep the canonical layout: after any mix of inserts,
    /// overwrites and removals, the vector is byte-identical to a
    /// `from_parts` rebuild of the same contents — including chunks that
    /// cross the packed↔positional cutoff in either direction, chunk
    /// creation at either end, and chunk removal.
    #[test]
    fn point_updates_preserve_canonical_layout() {
        use std::collections::BTreeMap;
        let mut v = build(&[(70, 0.5), (75, 0.25), (600, 0.9)]);
        let mut model: BTreeMap<u32, f64> = [(70, 0.5), (75, 0.25), (600, 0.9)].into();
        // (tid, Some(prob) = upsert | None = remove); drives chunk 1
        // across the positional cutoff and back, prepends chunk 0,
        // appends chunk 12, empties chunk 9.
        let ops: Vec<(u32, Option<f64>)> = (64..64 + 20)
            .map(|t| (t, Some(0.5 + t as f64 / 1000.0)))
            .chain([
                (3, Some(0.125)),
                (800, Some(0.75)),
                (600, None),
                (75, Some(0.3)),
                (70, None),
                (1, Some(1.0)),
                (999, None), // absent: no-op
            ])
            .chain((64..64 + 18).map(|t| (t, None)))
            .collect();
        for (tid, op) in ops {
            match op {
                Some(p) => {
                    v.insert(tid, p);
                    model.insert(tid, p);
                }
                None => {
                    assert_eq!(v.remove(tid), model.remove(&tid).is_some(), "remove {tid}");
                }
            }
            let pairs: Vec<(u32, f64)> = model.iter().map(|(&t, &p)| (t, p)).collect();
            let rebuilt = build(&pairs);
            assert_same_layout(&v, &rebuilt, "after point update");
            for (&t, &p) in &model {
                assert_eq!(v.get(t).to_bits(), p.to_bits(), "get({t})");
            }
            assert_eq!(v.get(4096), 0.0);
        }
    }

    /// `apply_step` maintains the index byte-identically to a rebuild:
    /// every posting matches a from-scratch `build` over the stepped
    /// window's snapshot — including steps that wrap the ring, steps that
    /// empty a slot entirely, and a slot re-filled with its own contents.
    /// Both probe layouts feed the index: six items, each in half the
    /// transactions, keep every step's dense rows; four of 3,000 items
    /// per transaction make the step's items outnumber its records per
    /// slot, so the probe keeps the records only.
    #[test]
    fn apply_step_matches_fresh_build() {
        use crate::window::{DirtySlot, WindowedDatabase};
        let capacity = 200;
        for (num_items, dense) in [(6u32, true), (3_000, false)] {
            let mut w = WindowedDatabase::new(capacity, num_items);
            let mut idx = VerticalIndex::build(&w.snapshot());
            // A deterministic ingest mixing appends (wrapping past
            // capacity, so slots are reused) with expiries.
            let mut x = 12345u64;
            let mut rng = move || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 33
            };
            let assert_matches = |idx: &VerticalIndex, w: &WindowedDatabase, label: &str| {
                let fresh = VerticalIndex::build(&w.snapshot());
                for item in 0..num_items {
                    let label = format!("{label}: {num_items} items, postings[{item}]");
                    assert_same_layout(idx.postings(item), fresh.postings(item), &label);
                }
            };
            for round in 0..8 {
                for _ in 0..60 {
                    let mut units: Vec<(u32, f64)> = Vec::new();
                    if dense {
                        for i in 0..num_items {
                            if rng() % 2 == 0 {
                                units.push((i, (rng() % 99 + 1) as f64 / 100.0));
                            }
                        }
                    } else {
                        for _ in 0..4 {
                            let i = (rng() % u64::from(num_items)) as u32;
                            if units.iter().all(|&(j, _)| j != i) {
                                units.push((i, (rng() % 99 + 1) as f64 / 100.0));
                            }
                        }
                    }
                    w.append(Transaction::new(units).unwrap()).unwrap();
                }
                if round % 2 == 1 {
                    w.expire_oldest(90);
                }
                let step = w.take_step();
                assert_eq!(StepProbe::new(&step).has_rows(), dense, "layout");
                idx.apply_step(&step);
                assert_matches(&idx, &w, &format!("round {round}"));
            }
            // A slot re-filled with its own contents: its items are present
            // in the step but none moved, so no posting changes.
            let t = w.slot(7).clone();
            assert!(!t.is_empty());
            let refill = WindowStep {
                dirty: vec![DirtySlot {
                    tid: 7,
                    old: t.clone(),
                    new: t,
                }],
            };
            assert!(StepProbe::new(&refill).moved_items().is_empty());
            idx.apply_step(&refill);
            assert_matches(&idx, &w, "re-filled slot");
        }
    }

    /// Model-checked batch patch: `apply_tid_delta` must leave the vector
    /// byte-identical to a `from_parts` rebuild of the updated contents,
    /// and a `BlockMoments::refresh` over the touched blocks must leave
    /// the retained partials structurally equal to a cold
    /// `BlockMoments::of` — so `fold()` is bit-identical to a cold
    /// re-fold.
    fn check_tid_delta(
        v: &mut ProbVector,
        model: &mut std::collections::BTreeMap<u32, f64>,
        moments: &mut BlockMoments,
        updates: &[(u32, f64)],
        label: &str,
    ) {
        v.apply_tid_delta(updates);
        for &(tid, p) in updates {
            if p > 0.0 {
                model.insert(tid, p);
            } else {
                model.remove(&tid);
            }
        }
        let pairs: Vec<(u32, f64)> = model.iter().map(|(&t, &p)| (t, p)).collect();
        let rebuilt = build(&pairs);
        assert_same_layout(v, &rebuilt, label);
        let mut blocks: Vec<u32> = updates
            .iter()
            .map(|&(t, _)| BlockMoments::block_of_tid(t))
            .collect();
        blocks.dedup();
        moments.refresh(v, &blocks);
        assert_eq!(*moments, BlockMoments::of(v), "{label}: refreshed partials");
        let (esup, var, count) = moments.fold();
        let (we, wv) = v.moments();
        assert_eq!(esup.to_bits(), we.to_bits(), "{label}: folded esup");
        assert_eq!(var.to_bits(), wv.to_bits(), "{label}: folded var");
        assert_eq!(count, v.len(), "{label}: folded count");
    }

    /// Batched point updates keep the canonical layout and the retained
    /// block partials bit-exact across chunk creation/removal, cutoff
    /// crossings in both directions, multi-block vectors, no-op removals
    /// and full expiry of a block.
    #[test]
    fn tid_delta_patches_match_cold_rebuild() {
        use std::collections::BTreeMap;
        let seed: Vec<(u32, f64)> = (0..40u32)
            .map(|i| (i * 7, 0.25 + (i % 4) as f64 / 8.0))
            .chain((4096..4096 + 30).map(|t| (t, 0.5)))
            .chain([(9000, 0.9), (9001, 0.8)])
            .collect();
        let mut v = build(&seed);
        let mut model: BTreeMap<u32, f64> = seed.iter().copied().collect();
        let mut moments = BlockMoments::of(&v);
        let (e0, v0) = v.moments();
        let f0 = moments.fold();
        assert_eq!(f0.0.to_bits(), e0.to_bits());
        assert_eq!(f0.1.to_bits(), v0.to_bits());
        assert_eq!(f0.2, v.len());

        // Mixed upserts/removals across three blocks, including a chunk
        // that crosses the positional cutoff and a brand-new chunk.
        let batch1: Vec<(u32, f64)> = (64..64 + 20)
            .map(|t| (t, 0.5 + t as f64 / 1000.0))
            .chain([(273, 0.0), (4096, 0.0), (4100, 0.75), (8191, 0.3)])
            .collect();
        check_tid_delta(&mut v, &mut model, &mut moments, &batch1, "batch1");

        // Retract the dense run again (cutoff crossing back down), empty
        // block 2 entirely, and touch an absent tid (no-op removal).
        let batch2: Vec<(u32, f64)> = (64..64 + 20)
            .map(|t| (t, 0.0))
            .chain([(8191, 0.0), (9000, 0.0), (9001, 0.0), (10000, 0.0)])
            .collect();
        check_tid_delta(&mut v, &mut model, &mut moments, &batch2, "batch2");

        // Arrive-and-expire cancellation: insert then remove in separate
        // batches lands back on the original bits.
        check_tid_delta(&mut v, &mut model, &mut moments, &[(500, 0.5)], "arrive");
        check_tid_delta(&mut v, &mut model, &mut moments, &[(500, 0.0)], "cancel");

        // Full expiry of everything that remains.
        let all: Vec<(u32, f64)> = model.keys().map(|&t| (t, 0.0)).collect();
        check_tid_delta(&mut v, &mut model, &mut moments, &all, "full expiry");
        assert!(v.is_empty());
        assert_eq!(moments, BlockMoments::default());

        // Refill an emptied vector.
        let refill: Vec<(u32, f64)> = (0..200u32).map(|t| (t * 3, 0.6)).collect();
        check_tid_delta(&mut v, &mut model, &mut moments, &refill, "refill");

        // `remove` is the single-point twin.
        assert!(v.remove(0));
        assert!(!v.remove(1));
        model.remove(&0);
        let pairs: Vec<(u32, f64)> = model.iter().map(|(&t, &p)| (t, p)).collect();
        assert_same_layout(&v, &build(&pairs), "remove");
    }

    /// The block-recording diff-extend matches its plain twin bit for bit
    /// and records exactly the partials of the materialized child; a
    /// touched-block `refresh` fed from `restrict_to_blocks` fragments
    /// reproduces them after a patch.
    #[test]
    fn diff_extend_blocks_matches_plain_twin() {
        let a_pairs: Vec<(u32, f64)> = (0..600u32)
            .map(|t| (t * 9, 0.3 + (t % 5) as f64 / 10.0))
            .collect();
        let b_pairs: Vec<(u32, f64)> = (0..900u32)
            .map(|t| (t * 6, 0.2 + (t % 7) as f64 / 10.0))
            .collect();
        let a = build(&a_pairs);
        let b = build(&b_pairs);
        let mut scratch = ScratchSpace::new();
        let (diff, e, vr, c) = a.diff_extend(&b);
        let (blocks, be, bv, bc) = a.diff_extend_blocks_into(&b, &mut scratch);
        assert_eq!(be.to_bits(), e.to_bits(), "blocks esup");
        assert_eq!(bv.to_bits(), vr.to_bits(), "blocks var");
        assert_eq!(bc, c, "blocks count");
        assert_eq!(scratch.export_diff(), diff, "blocks dropped set");
        let child = a.apply_diff(&diff, &b);
        assert_eq!(blocks, BlockMoments::of(&child), "recorded partials");

        // Patch the child in two blocks and refresh from restricted
        // fragments only — partials must equal a cold rebuild's.
        let mut patched = child.clone();
        patched.apply_tid_delta(&[(54, 0.0), (4098, 0.9), (5000, 0.5)]);
        let mut m = blocks.clone();
        let touched = [0u32, 1u32];
        let frag = patched.restrict_to_blocks(&touched);
        assert_eq!(
            frag.nonzero(),
            patched
                .nonzero()
                .into_iter()
                .filter(|&(t, _)| BlockMoments::block_of_tid(t) <= 1)
                .collect::<Vec<_>>(),
            "restricted fragment contents"
        );
        m.refresh(&frag, &touched);
        assert_eq!(m, BlockMoments::of(&patched), "refresh from fragment");
    }

    /// `DiffVector::apply_tid_delta` reproduces the delta a cold
    /// `diff_extend` over the stepped operands would emit.
    #[test]
    fn diff_vector_delta_matches_cold_extend() {
        let a = build(&[(0, 0.5), (3, 0.25), (10, 0.9), (70, 0.8), (100, 0.6)]);
        let b = build(&[(0, 0.5), (10, 0.7), (70, 0.4), (200, 0.9)]);
        let (mut diff, ..) = a.diff_extend(&b); // dropped: 3, 100
        assert_eq!(diff.dropped(), &[3, 100]);
        // Step: tid 3 gains a postings entry (survives now), tid 10 loses
        // its entry (dropped now), tid 100 leaves the prefix entirely,
        // tid 150 is a no-op confirmation of absence.
        let mut a2 = a.clone();
        a2.apply_tid_delta(&[(100, 0.0)]);
        let mut b2 = b.clone();
        b2.apply_tid_delta(&[(3, 0.5), (10, 0.0)]);
        diff.apply_tid_delta(&[(3, false), (10, true), (100, false), (150, false)]);
        let (cold, ..) = a2.diff_extend(&b2);
        assert_eq!(diff, cold, "patched delta chain");
        assert_eq!(
            a2.apply_diff(&diff, &b2).nonzero(),
            a2.intersect(&b2).nonzero(),
            "patched chain resolves"
        );
    }

    mod proptests {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Random sorted `(tid, prob)` lists: tids drawn from `0..max_tid`
        /// (deduped), probs mixing the ordinary range with underflow-prone
        /// magnitudes.
        fn arb_pairs(max_tid: u32, max_len: usize) -> impl Strategy<Value = Vec<(u32, f64)>> {
            vec((0..max_tid, 0u8..8, 1e-3f64..=1.0), 0..max_len).prop_map(|raw| {
                let mut pairs: Vec<(u32, f64)> = raw
                    .into_iter()
                    .map(|(tid, sel, p)| {
                        let prob = match sel {
                            0 => 1e-200,
                            1 => 1e-160,
                            _ => p,
                        };
                        (tid, prob)
                    })
                    .collect();
                pairs.sort_by_key(|e| e.0);
                pairs.dedup_by_key(|e| e.0);
                pairs
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            // Dense-leaning single-block regime: chunks cross the
            // positional cutoff, sums stay within one block.
            #[test]
            fn kernels_match_reference_dense(
                a in arb_pairs(256, 200),
                b in arb_pairs(256, 200),
            ) {
                check_kernels(&a, &b);
            }

            // Sparse multi-block regime: packed chunks spread over
            // several 4096-tid summation blocks.
            #[test]
            fn kernels_match_reference_sparse(
                a in arb_pairs(20_000, 120),
                b in arb_pairs(20_000, 400),
            ) {
                check_kernels(&a, &b);
            }

            // Skewed regime: directory length ratios far from 1:1,
            // mixed chunk layouts on the long side.
            #[test]
            fn kernels_match_reference_skewed(
                a in arb_pairs(60_000, 10),
                b in arb_pairs(60_000, 1500),
            ) {
                check_kernels(&a, &b);
                check_kernels(&b, &a);
            }

            // Random patch scripts: batched point updates stay
            // byte-identical to cold rebuilds and keep refreshed block
            // partials bit-equal to a cold re-fold, across several
            // summation blocks and both chunk layouts.
            #[test]
            fn tid_delta_scripts_match_cold_rebuild(
                seed_pairs in arb_pairs(12_288, 400),
                scripts in vec(vec((0u32..12_288, 0u8..3, 1e-3f64..=1.0), 1..60), 1..5),
            ) {
                let mut v = build(&seed_pairs);
                let mut model: std::collections::BTreeMap<u32, f64> =
                    seed_pairs.iter().copied().collect();
                let mut moments = BlockMoments::of(&v);
                for raw in scripts {
                    let mut updates: Vec<(u32, f64)> = raw
                        .into_iter()
                        .map(|(tid, sel, p)| {
                            let prob = match sel {
                                0 => 0.0, // removal (maybe of an absent tid)
                                1 => 1e-200,
                                _ => p,
                            };
                            (tid, prob)
                        })
                        .collect();
                    updates.sort_by_key(|e| e.0);
                    updates.dedup_by_key(|e| e.0);
                    check_tid_delta(&mut v, &mut model, &mut moments, &updates, "script");
                }
            }
        }
    }
}
