//! Sliding-window ingest over an uncertain database: the tid-delta seam.
//!
//! The paper's motivating data — sensor readings, user-behaviour logs — is a
//! stream, but `sup(X)` is defined over a *database*. The streaming semantics
//! every incremental layer in this workspace builds on is the **sliding
//! window**: mine the most recent `W` transactions, where arrival appends a
//! transaction and expiry removes the oldest.
//!
//! # The ring-buffer tid model
//!
//! [`WindowedDatabase`] is a ring of `capacity` slots and **a tid is a slot
//! index**, stable for the slot's lifetime. A vacant slot holds the empty
//! transaction — a legal [`Transaction`] whose containment probability is
//! zero for every non-empty itemset, so it contributes *exactly* nothing
//! (an IEEE `+0.0` no-op) to every support statistic. Consequently:
//!
//! * [`WindowedDatabase::snapshot`] always has exactly `capacity`
//!   transactions, so `N` is constant and every threshold derived from it
//!   (`⌈N·min_sup⌉`, the Poisson λ-inversion, the Normal bound) is fixed at
//!   construction time — the window never silently moves the bar;
//! * a window step touches only the slots it reassigns: downstream index
//!   and memo maintenance is proportional to the delta, not the window;
//! * mining the snapshot from scratch is always available as the batch
//!   oracle, and incremental results can be compared against it bit for bit.
//!
//! Arrival fills the lowest-numbered free slot (deterministic), expiry
//! vacates the oldest occupied slot (FIFO over arrival order). When the
//! window is full, an arrival first evicts the oldest transaction — the
//! classic count-based sliding window.
//!
//! # Deltas
//!
//! Mutations accumulate into a pending delta; [`WindowedDatabase::take_step`]
//! drains it as a [`WindowStep`] — per dirty slot, the transaction the slot
//! held when the step began (`old`) and the one it holds now (`new`). Deltas
//! therefore **compose**: appending then expiring the same transaction
//! within one step cancels to nothing, and any sequence of mutations between
//! two `take_step` calls collapses to one old→new pair per slot. Consumers
//! ([`VerticalIndex::apply_step`](crate::vertical::VerticalIndex::apply_step),
//! the engines' memo invalidation, the miners' border re-judgment) see only
//! the net change.

use crate::database::UncertainDatabase;
use crate::error::CoreError;
use crate::hash::FxHashMap;
use crate::itemset::ItemId;
use crate::transaction::Transaction;
use std::collections::VecDeque;

/// One dirty slot of a [`WindowStep`]: the transaction the slot held when
/// the step began and the one it holds now. Either side may be the empty
/// transaction (vacant slot).
#[derive(Clone, Debug, PartialEq)]
pub struct DirtySlot {
    /// The slot index — the stable tid of this window position.
    pub tid: u32,
    /// Contents when the step began (empty transaction if vacant).
    pub old: Transaction,
    /// Contents now (empty transaction if vacant).
    pub new: Transaction,
}

/// The net change between two [`WindowedDatabase::take_step`] calls: one
/// [`DirtySlot`] per touched slot, ascending by tid. Slots whose contents
/// ended up unchanged (e.g. a transaction that arrived and expired within
/// the same step) are dropped — the step records *net* changes only.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WindowStep {
    /// Net per-slot changes, strictly ascending by `tid`.
    pub dirty: Vec<DirtySlot>,
}

impl WindowStep {
    /// True when the step changes nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }

    /// Number of dirty slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.dirty.len()
    }
}

/// Precomputed per-step containment probabilities: the shared fast path
/// for every consumer that asks, per candidate itemset, "which dirty slots
/// changed this itemset's containment probability, and to what?".
///
/// Touch detection through [`Transaction::itemset_prob`] walks the
/// transaction's unit list twice per (candidate, dirty slot) pair — the
/// dominant cost of a refresh once border reuse has collapsed the
/// candidate workload. The probe hoists that walk out of the per-candidate
/// loop: construction expands every dirty slot's old/new transactions into
/// dense per-item probability rows (absent items hold `0.0`) and records,
/// per item, a bitset of the slots where that item's probability moved.
/// A candidate's queries then reduce to a few multiplies per *changed*
/// slot — slots where no member item moved are skipped outright, which is
/// sound because an unchanged factor list yields a bit-identical product.
///
/// Every product is folded exactly like [`Transaction::itemset_prob`]
/// (ascending item order, from `1.0`): probabilities are non-negative, so
/// an absent item's `0.0` factor drives the fold to exactly `+0.0` — the
/// same bits the early-return produces. All derived quantities are
/// therefore **bit-identical** to the naive per-transaction loops they
/// replace, which `probe_matches_naive_loops` pins.
#[derive(Clone, Debug)]
pub struct StepProbe {
    /// Dirty tids, ascending (slot `s` of every row/bitset is `tids[s]`).
    tids: Vec<u32>,
    /// Old-side containment probability rows, `num_items` per dirty slot.
    old: Vec<f64>,
    /// New-side containment probability rows, `num_items` per dirty slot.
    new: Vec<f64>,
    num_items: usize,
    /// Per-item changed-slot bitsets, `words` u64 words per item.
    changed: Vec<u64>,
    /// Bitset words per item (`ceil(len / 64)`).
    words: usize,
}

impl StepProbe {
    /// Expands `step` against the vocabulary `0..num_items`. Cost (and
    /// memory) is `O(dirty × num_items)` — dense on purpose: the probe is
    /// rebuilt per step and queried per candidate, and the candidate loop
    /// is what must be fast.
    pub fn new(step: &WindowStep, num_items: u32) -> Self {
        let n = num_items as usize;
        let len = step.dirty.len();
        let mut old = vec![0.0f64; n * len];
        let mut new = vec![0.0f64; n * len];
        for (s, d) in step.dirty.iter().enumerate() {
            for (item, p) in d.old.units() {
                old[s * n + item as usize] = p;
            }
            for (item, p) in d.new.units() {
                new[s * n + item as usize] = p;
            }
        }
        let words = len.div_ceil(64).max(1);
        let mut changed = vec![0u64; n * words];
        for s in 0..len {
            for i in 0..n {
                if old[s * n + i] != new[s * n + i] {
                    changed[i * words + s / 64] |= 1u64 << (s % 64);
                }
            }
        }
        StepProbe {
            tids: step.dirty.iter().map(|d| d.tid).collect(),
            old,
            new,
            num_items: n,
            changed,
            words,
        }
    }

    /// Number of dirty slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.tids.len()
    }

    /// True when the underlying step changes nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tids.is_empty()
    }

    /// The tid of dirty-slot index `slot`.
    #[inline]
    pub fn tid(&self, slot: usize) -> u32 {
        self.tids[slot]
    }

    /// The containment product of `items` over a probability row —
    /// [`Transaction::itemset_prob`]'s fold, bit for bit (see the type
    /// docs for why the absent-item `0.0` factor is equivalent).
    #[inline]
    fn product(row: &[f64], items: &[ItemId]) -> f64 {
        let mut p = 1.0f64;
        for &i in items {
            p *= row[i as usize];
        }
        p
    }

    /// New-side containment probability of `items` at dirty-slot `slot`.
    #[inline]
    pub fn new_prob(&self, slot: usize, items: &[ItemId]) -> f64 {
        let n = self.num_items;
        Self::product(&self.new[slot * n..(slot + 1) * n], items)
    }

    /// Visits, ascending, every dirty slot where some member item's
    /// probability moved, with the itemset's old/new containment products
    /// there. Slots outside carry bit-identical old/new products and are
    /// skipped.
    fn for_each_candidate_slot(&self, items: &[ItemId], mut f: impl FnMut(usize, f64, f64)) {
        let n = self.num_items;
        for w in 0..self.words {
            let mut mask = 0u64;
            for &i in items {
                mask |= self.changed[i as usize * self.words + w];
            }
            while mask != 0 {
                let s = w * 64 + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let old_p = Self::product(&self.old[s * n..(s + 1) * n], items);
                let new_p = Self::product(&self.new[s * n..(s + 1) * n], items);
                f(s, old_p, new_p);
            }
        }
    }

    /// Dirty-slot indices where some member item's probability moved,
    /// ascending — the superset of slots whose membership in any structure
    /// keyed on `items` (or on a subset of `items`) can have changed.
    pub fn candidate_slots(&self, items: &[ItemId]) -> Vec<usize> {
        let mut out = Vec::new();
        let mut mask_words = vec![0u64; self.words];
        for &i in items {
            for (m, &c) in mask_words
                .iter_mut()
                .zip(&self.changed[i as usize * self.words..(i as usize + 1) * self.words])
            {
                *m |= c;
            }
        }
        for (w, &mut mut mask) in mask_words.iter_mut().enumerate() {
            while mask != 0 {
                out.push(w * 64 + mask.trailing_zeros() as usize);
                mask &= mask - 1;
            }
        }
        out
    }

    /// Border-tracker deltas for one itemset: whether any dirty slot moved
    /// its containment probability, the total added mass
    /// `Σ max(new − old, 0)`, and the count of slots that went zero →
    /// nonzero. Bit-identical to the naive all-slots loop: skipped slots
    /// contribute exactly nothing to either accumulator.
    pub fn growth(&self, items: &[ItemId]) -> (bool, f64, u64) {
        let mut touched = false;
        let mut added_mass = 0.0f64;
        let mut added_count = 0u64;
        self.for_each_candidate_slot(items, |_, old_p, new_p| {
            if old_p != new_p {
                touched = true;
            }
            if new_p > old_p {
                added_mass += new_p - old_p;
            }
            if old_p == 0.0 && new_p > 0.0 {
                added_count += 1;
            }
        });
        (touched, added_mass, added_count)
    }

    /// The itemset's net containment updates: ascending `(tid, new_prob)`
    /// for every dirty slot where the probability actually moved — exactly
    /// the delta [`ProbVector::apply_tid_delta`] consumes.
    ///
    /// [`ProbVector::apply_tid_delta`]: crate::vertical::ProbVector::apply_tid_delta
    pub fn updates(&self, items: &[ItemId]) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        self.for_each_candidate_slot(items, |s, old_p, new_p| {
            if old_p != new_p {
                out.push((self.tids[s], new_p));
            }
        });
        out
    }
}

/// A count-based sliding window over uncertain transactions, exposing the
/// append/expire ingest API and per-step deltas (see the module docs for
/// the tid model).
#[derive(Clone, Debug)]
pub struct WindowedDatabase {
    /// `capacity` slots; vacant slots hold the empty transaction.
    slots: Vec<Transaction>,
    /// Occupied slots in arrival order (front = oldest).
    order: VecDeque<u32>,
    /// Vacant slots; popped last-in-first-out. Initialized in descending
    /// order so fresh windows fill slots `0, 1, 2, …` — fully deterministic.
    free: Vec<u32>,
    /// Per-slot contents at the moment the slot first became dirty in the
    /// current step.
    pending: FxHashMap<u32, Transaction>,
    num_items: u32,
}

impl WindowedDatabase {
    /// A fresh, empty window of `capacity` slots over the vocabulary
    /// `0..num_items`.
    ///
    /// # Panics
    /// If `capacity` is zero (a zero-slot window cannot hold anything) or
    /// does not fit in `u32` (tids are 32-bit).
    pub fn new(capacity: usize, num_items: u32) -> Self {
        assert!(capacity > 0, "window capacity must be at least 1");
        assert!(u32::try_from(capacity).is_ok(), "capacity exceeds u32 tids");
        WindowedDatabase {
            slots: vec![Transaction::certain([]); capacity],
            order: VecDeque::with_capacity(capacity),
            free: (0..capacity as u32).rev().collect(),
            pending: FxHashMap::default(),
            num_items,
        }
    }

    /// Number of slots (the constant `N` of every snapshot).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of occupied slots (live transactions in the window).
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no slot is occupied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Vocabulary size (item ids are `0..num_items`).
    #[inline]
    pub fn num_items(&self) -> u32 {
        self.num_items
    }

    /// The current contents of a slot (empty transaction if vacant).
    #[inline]
    pub fn slot(&self, tid: u32) -> &Transaction {
        &self.slots[tid as usize]
    }

    /// Records `tid`'s current contents as the step's `old` side, if this is
    /// the first time the slot is dirtied within the step.
    fn mark_dirty(&mut self, tid: u32) {
        let slot = &self.slots[tid as usize];
        self.pending.entry(tid).or_insert_with(|| slot.clone());
    }

    /// Appends a transaction, evicting the oldest one first when the window
    /// is full. Returns the tid (slot index) the transaction landed in.
    ///
    /// # Errors
    /// [`CoreError::ItemOutOfVocabulary`] if the transaction references an
    /// item outside `0..num_items`. The check runs before any mutation, so
    /// a rejected append leaves the window exactly as it was.
    pub fn append(&mut self, t: Transaction) -> Result<u32, CoreError> {
        // Items are sorted ascending, so the last one is the largest.
        if let Some(&item) = t.items().last().filter(|&&i| i >= self.num_items) {
            return Err(CoreError::ItemOutOfVocabulary {
                item,
                num_items: self.num_items,
            });
        }
        if self.free.is_empty() {
            self.expire_oldest(1);
        }
        let tid = self.free.pop().expect("a slot was just freed");
        self.mark_dirty(tid);
        self.slots[tid as usize] = t;
        self.order.push_back(tid);
        Ok(tid)
    }

    /// Expires (vacates) up to `n` of the oldest transactions; returns how
    /// many were actually expired (fewer only when the window ran dry).
    pub fn expire_oldest(&mut self, n: usize) -> usize {
        let mut expired = 0;
        while expired < n {
            let Some(tid) = self.order.pop_front() else {
                break;
            };
            self.mark_dirty(tid);
            self.slots[tid as usize] = Transaction::certain([]);
            self.free.push(tid);
            expired += 1;
        }
        expired
    }

    /// Drains the pending mutations into a [`WindowStep`]: the *net* change
    /// per slot since the previous `take_step` (or construction), ascending
    /// by tid. Slots whose contents are back to what the step started with
    /// are omitted.
    pub fn take_step(&mut self) -> WindowStep {
        let mut dirty: Vec<DirtySlot> = self
            .pending
            .drain()
            .filter_map(|(tid, old)| {
                let new = self.slots[tid as usize].clone();
                (old != new).then_some(DirtySlot { tid, old, new })
            })
            .collect();
        dirty.sort_unstable_by_key(|d| d.tid);
        WindowStep { dirty }
    }

    /// A from-scratch [`UncertainDatabase`] of the whole window: exactly
    /// `capacity` transactions with tids equal to slot indices (vacant slots
    /// are empty transactions). This is the batch-mining oracle every
    /// incremental result is pinned against.
    pub fn snapshot(&self) -> UncertainDatabase {
        UncertainDatabase::with_num_items(self.slots.clone(), self.num_items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(units: &[(u32, f64)]) -> Transaction {
        Transaction::new(units.iter().copied()).unwrap()
    }

    #[test]
    fn appends_fill_slots_in_order() {
        let mut w = WindowedDatabase::new(3, 4);
        assert_eq!(w.append(tx(&[(0, 0.5)])), Ok(0));
        assert_eq!(w.append(tx(&[(1, 0.5)])), Ok(1));
        assert_eq!(w.append(tx(&[(2, 0.5)])), Ok(2));
        assert_eq!(w.len(), 3);
        assert_eq!(w.capacity(), 3);
    }

    #[test]
    fn full_window_append_evicts_oldest() {
        let mut w = WindowedDatabase::new(2, 4);
        w.append(tx(&[(0, 0.5)])).unwrap();
        w.append(tx(&[(1, 0.5)])).unwrap();
        // Slot 0 (oldest) is evicted and immediately reused.
        assert_eq!(w.append(tx(&[(2, 0.5)])), Ok(0));
        assert_eq!(w.len(), 2);
        assert_eq!(w.slot(0).items(), &[2]);
        assert_eq!(w.slot(1).items(), &[1]);
    }

    #[test]
    fn expiry_vacates_fifo() {
        let mut w = WindowedDatabase::new(3, 4);
        w.append(tx(&[(0, 0.5)])).unwrap();
        w.append(tx(&[(1, 0.5)])).unwrap();
        assert_eq!(w.expire_oldest(1), 1);
        assert!(w.slot(0).is_empty());
        assert_eq!(w.len(), 1);
        // Draining past empty stops early.
        assert_eq!(w.expire_oldest(5), 1);
        assert!(w.is_empty());
    }

    #[test]
    fn step_records_net_changes_sorted_by_tid() {
        let mut w = WindowedDatabase::new(4, 4);
        w.append(tx(&[(0, 0.5)])).unwrap();
        w.append(tx(&[(1, 0.5)])).unwrap();
        let _ = w.take_step();
        // Dirty slots 1 (expired), 0 (expired), 2 (appended) — out of order.
        w.expire_oldest(2);
        w.append(tx(&[(2, 0.5)])).unwrap();
        let step = w.take_step();
        let tids: Vec<u32> = step.dirty.iter().map(|d| d.tid).collect();
        // Appends reuse freed slots LIFO: slot 1 was freed last, so the new
        // transaction landed there; slot 0 stays vacant.
        assert_eq!(tids, vec![0, 1]);
        assert!(step.dirty[0].new.is_empty());
        assert_eq!(step.dirty[1].new.items(), &[2]);
        assert_eq!(step.dirty[1].old.items(), &[1]);
    }

    #[test]
    fn arrive_and_expire_same_step_cancels() {
        let mut w = WindowedDatabase::new(2, 4);
        w.append(tx(&[(0, 0.5)])).unwrap();
        let _ = w.take_step();
        w.append(tx(&[(1, 0.5)])).unwrap();
        w.expire_oldest(2); // removes slot 0's old tx AND the new arrival
        let step = w.take_step();
        // Slot 1 went empty → tx → empty: net nothing. Slot 0 went tx → empty.
        assert_eq!(step.len(), 1);
        assert_eq!(step.dirty[0].tid, 0);
        assert!(step.dirty[0].new.is_empty());
        assert!(!step.is_empty());
    }

    #[test]
    fn empty_step_is_empty() {
        let mut w = WindowedDatabase::new(2, 4);
        assert!(w.take_step().is_empty());
        w.append(tx(&[(0, 0.5)])).unwrap();
        let _ = w.take_step();
        assert!(w.take_step().is_empty());
    }

    #[test]
    fn snapshot_has_constant_n_with_empty_vacant_slots() {
        let mut w = WindowedDatabase::new(3, 4);
        w.append(tx(&[(0, 0.8), (1, 0.5)])).unwrap();
        let db = w.snapshot();
        assert_eq!(db.num_transactions(), 3);
        assert_eq!(db.num_items(), 4);
        assert_eq!(db.transactions()[0].items(), &[0, 1]);
        assert!(db.transactions()[1].is_empty());
        assert!(db.transactions()[2].is_empty());
        // Vacant slots contribute exactly nothing.
        assert_eq!(db.expected_support(&[0]), 0.8);
    }

    #[test]
    fn out_of_vocabulary_append_is_rejected_before_any_mutation() {
        let mut w = WindowedDatabase::new(2, 4);
        w.append(tx(&[(0, 0.5)])).unwrap();
        w.append(tx(&[(1, 0.5)])).unwrap();
        let _ = w.take_step();
        // The window is full, so an accepted append would evict slot 0.
        let err = w.append(tx(&[(2, 0.5), (4, 0.5)])).unwrap_err();
        assert_eq!(
            err,
            CoreError::ItemOutOfVocabulary {
                item: 4,
                num_items: 4
            }
        );
        assert_eq!(w.len(), 2);
        assert_eq!(w.slot(0).items(), &[0]);
        assert_eq!(w.slot(1).items(), &[1]);
        assert!(w.take_step().is_empty(), "nothing was dirtied");
        // The next in-vocabulary append behaves as if nothing happened.
        assert_eq!(w.append(tx(&[(3, 0.5)])), Ok(0));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = WindowedDatabase::new(0, 4);
    }

    /// The probe's products, growth deltas and update lists must be
    /// bit-identical to the naive per-transaction loops they replace.
    #[test]
    fn probe_matches_naive_loops() {
        const NUM_ITEMS: u32 = 7;
        // A deterministic pseudo-random step: slots cycle through
        // empty→tx, tx→tx and tx→empty shapes with varied units.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut rand_tx = |seed_bias: u64| {
            let units: Vec<(u32, f64)> = (0..NUM_ITEMS)
                .filter_map(|i| {
                    let r = next().wrapping_add(seed_bias);
                    (r % 3 != 0).then(|| (i, ((r % 97) as f64 + 1.0) / 98.0))
                })
                .collect();
            tx(&units)
        };
        let empty = Transaction::certain([]);
        let mut dirty = Vec::new();
        for tid in 0..70u32 {
            let (old, new) = match tid % 4 {
                0 => (empty.clone(), rand_tx(1)),
                1 => (rand_tx(2), empty.clone()),
                2 => (rand_tx(3), rand_tx(4)),
                _ => continue, // gaps: dirty tids need not be contiguous
            };
            dirty.push(DirtySlot { tid, old, new });
        }
        let step = WindowStep { dirty };
        let probe = StepProbe::new(&step, NUM_ITEMS);
        assert_eq!(probe.len(), step.len());
        assert!(!probe.is_empty());

        let sets: Vec<Vec<ItemId>> = vec![
            vec![0],
            vec![3],
            vec![0, 1],
            vec![2, 5],
            vec![0, 3, 6],
            vec![1, 2, 4, 5],
            vec![0, 1, 2, 3, 4, 5, 6],
        ];
        for items in &sets {
            // growth == the classifier's naive all-slots accumulation.
            let (mut touched, mut mass, mut count) = (false, 0.0f64, 0u64);
            for d in &step.dirty {
                let old_p = d.old.itemset_prob(items);
                let new_p = d.new.itemset_prob(items);
                if old_p != new_p {
                    touched = true;
                }
                if new_p > old_p {
                    mass += new_p - old_p;
                }
                if old_p == 0.0 && new_p > 0.0 {
                    count += 1;
                }
            }
            let (t, m, c) = probe.growth(items);
            assert_eq!(t, touched, "{items:?}");
            assert_eq!(m.to_bits(), mass.to_bits(), "{items:?}");
            assert_eq!(c, count, "{items:?}");

            // updates == the naive changed-slot filter, values bit for bit.
            let naive: Vec<(u32, u64)> = step
                .dirty
                .iter()
                .filter_map(|d| {
                    let old_p = d.old.itemset_prob(items);
                    let new_p = d.new.itemset_prob(items);
                    (old_p != new_p).then_some((d.tid, new_p.to_bits()))
                })
                .collect();
            let got: Vec<(u32, u64)> = probe
                .updates(items)
                .into_iter()
                .map(|(t, p)| (t, p.to_bits()))
                .collect();
            assert_eq!(got, naive, "{items:?}");

            // new_prob at every slot == itemset_prob of the new side, and
            // candidate_slots covers every slot whose product moved.
            let slots = probe.candidate_slots(items);
            assert!(slots.windows(2).all(|w| w[0] < w[1]));
            for (s, d) in step.dirty.iter().enumerate() {
                assert_eq!(
                    probe.new_prob(s, items).to_bits(),
                    d.new.itemset_prob(items).to_bits(),
                    "{items:?} slot {s}"
                );
                let moved = d.old.itemset_prob(items) != d.new.itemset_prob(items);
                assert!(!moved || slots.contains(&s), "{items:?} slot {s}");
            }
        }
        // Empty itemset: containment is the empty product everywhere.
        let (t, m, c) = probe.growth(&[]);
        assert!(!t);
        assert_eq!(m, 0.0);
        assert_eq!(c, 0);
        assert!(probe.updates(&[]).is_empty());
    }
}
