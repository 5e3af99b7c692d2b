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
//! two `take_step` calls collapses to one old→new pair per slot.
//!
//! A step is transposed once, into a [`StepProbe`] (per-item presence
//! records of the dirty slots), and every consumer reads the net change
//! from it: [`VerticalIndex::apply_probe`](crate::vertical::VerticalIndex::apply_probe)
//! (each moved item's postings), the engines' memo patch walks (each
//! retained node's updates and new products) and the miners' border
//! re-judgment (touch and growth per candidate).

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

/// Per-step containment probabilities: the shared fast path for every
/// consumer that asks, per candidate itemset, "which dirty slots changed
/// this itemset's containment probability, and to what?".
///
/// The probe holds one presence record per (item, dirty slot) pair where
/// the item appears on the old or the new side, with the item's
/// probability on each side (`0.0` where it is absent), grouped by item
/// and ascending by slot. An item is *moved* when some slot holds it at
/// different probabilities before and after the step. When the step is
/// small next to its records — the usual few-transaction step — the probe
/// also lays them out as two dense rows per dirty slot over the items
/// present in the step, plus each such item's changed-slot bitset, so a
/// query reads a member's probability by index. A larger step (a
/// whole-window turnover) keeps the records only, and a query walks its
/// members' runs together in slot order. Either way nothing is sized by
/// the vocabulary: a step costs the same over 1,000 items as over
/// 1,000,000, and [`StepProbe::load`] reuses the buffers of the previous
/// step.
///
/// A query visits only the slots where some member moved, and answers an
/// itemset without a moved member at once, which is sound because an
/// unchanged factor list yields a bit-identical product. At a visited
/// slot every member contributes its probability, or `0.0` when absent
/// there, folded in ascending member order from `1.0` —
/// [`Transaction::itemset_prob`]'s fold: probabilities are non-negative,
/// so an absent member's `0.0` factor drives the fold to exactly `+0.0`,
/// the bits of its early return. All derived quantities are therefore
/// **bit-identical** to the naive per-transaction loops they replace,
/// which `probe_matches_naive_loops` pins for both layouts.
#[derive(Clone, Debug, Default)]
pub struct StepProbe {
    /// Dirty tids, ascending (slot `s` is `tids[s]`).
    tids: Vec<u32>,
    /// Presence records, ascending by `(item, slot)`.
    units: Vec<Presence>,
    /// The items present in some dirty slot, ascending ...
    items: Vec<ItemId>,
    /// ... and where each one's run of `units` starts (plus the end).
    starts: Vec<u32>,
    /// Moved items, ascending.
    moved: Vec<ItemId>,
    /// For a small step: rows `2s` and `2s + 1` hold slot `s`'s old and
    /// new probabilities of every present item, in `items` order. Empty
    /// for a large step.
    rows: Vec<f64>,
    /// Alongside `rows`: each present item's changed-slot bitset, `words`
    /// words per item, in `items` order.
    masks: Vec<u64>,
    /// Bitset words per present item (`ceil(len / 64)`).
    words: usize,
}

/// The dense rows may hold this many entries per presence record (plus
/// [`ROWS_FLOOR`]); a step that needs more keeps the records only.
const ROWS_PER_RECORD: usize = 32;
const ROWS_FLOOR: usize = 4096;

/// One item in one dirty slot: its probability before and after the step.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Presence {
    item: ItemId,
    slot: u32,
    old: f64,
    new: f64,
}

/// One member of a queried itemset: its index in [`StepProbe::items`]
/// ([`Member::ABSENT`] when no dirty slot holds it) and a cursor over its
/// run of presence records.
#[derive(Clone, Copy, Debug, Default)]
struct Member {
    column: u32,
    at: u32,
    end: u32,
}

impl Member {
    const ABSENT: u32 = u32::MAX;
}

/// One visited slot of a query: the itemset's old and new containment
/// products there, and the new product of all members but the last.
#[derive(Clone, Copy, Debug)]
struct Visit {
    slot: usize,
    old: f64,
    new: f64,
    new_prefix: f64,
}

impl StepProbe {
    /// The probe of `step`.
    pub fn new(step: &WindowStep) -> Self {
        let mut probe = StepProbe::default();
        probe.load(step);
        probe
    }

    /// Replaces the probe's contents with `step`'s, reusing its buffers.
    /// Costs one merge walk per dirty slot, a sort of the presence records
    /// and, for a small step, filling its dense rows.
    pub fn load(&mut self, step: &WindowStep) {
        self.tids.clear();
        self.units.clear();
        for (s, d) in step.dirty.iter().enumerate() {
            self.tids.push(d.tid);
            push_presence(&d.old, &d.new, s as u32, &mut self.units);
        }
        self.units.sort_unstable_by_key(|u| (u.item, u.slot));
        self.items.clear();
        self.starts.clear();
        self.moved.clear();
        for (i, u) in self.units.iter().enumerate() {
            if self.items.last() != Some(&u.item) {
                self.items.push(u.item);
                self.starts.push(i as u32);
            }
            if u.old != u.new && self.moved.last() != Some(&u.item) {
                self.moved.push(u.item);
            }
        }
        self.starts.push(self.units.len() as u32);

        let (len, width) = (self.tids.len(), self.items.len());
        self.words = len.div_ceil(64);
        self.rows.clear();
        self.masks.clear();
        if 2 * len * width <= ROWS_PER_RECORD * self.units.len() + ROWS_FLOOR {
            self.rows.resize(2 * len * width, 0.0);
            self.masks.resize(width * self.words, 0);
            for column in 0..width {
                let run = self.starts[column] as usize..self.starts[column + 1] as usize;
                for u in &self.units[run] {
                    let s = u.slot as usize;
                    self.rows[2 * s * width + column] = u.old;
                    self.rows[(2 * s + 1) * width + column] = u.new;
                    if u.old != u.new {
                        self.masks[column * self.words + s / 64] |= 1u64 << (s % 64);
                    }
                }
            }
        }
        trim(&mut self.tids);
        trim(&mut self.units);
        trim(&mut self.items);
        trim(&mut self.starts);
        trim(&mut self.moved);
        trim(&mut self.rows);
        trim(&mut self.masks);
    }

    /// Number of dirty slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.tids.len()
    }

    /// Whether the probe lays the step out as dense rows (a small step).
    #[cfg(test)]
    pub(crate) fn has_rows(&self) -> bool {
        !self.rows.is_empty()
    }

    /// True when the underlying step changes nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tids.is_empty()
    }

    /// The items whose probability differs between the old and new side
    /// of some dirty slot, ascending. An itemset with none of them has the
    /// same containment probability in every slot before and after the
    /// step.
    #[inline]
    pub fn moved_items(&self) -> &[ItemId] {
        &self.moved
    }

    /// `item` as a query member.
    fn member(&self, item: ItemId) -> Member {
        match self.items.binary_search(&item) {
            Ok(c) => Member {
                column: c as u32,
                at: self.starts[c],
                end: self.starts[c + 1],
            },
            Err(_) => Member {
                column: Member::ABSENT,
                ..Member::default()
            },
        }
    }

    /// Calls `f`, ascending, at every dirty slot where some member of
    /// `items` moved, until it returns `false`. Slots outside carry
    /// bit-identical old/new products and are skipped.
    fn walk(&self, items: &[ItemId], f: impl FnMut(Visit) -> bool) {
        if !items.iter().any(|i| self.moved.binary_search(i).is_ok()) {
            return;
        }
        // Itemsets are short: their members live on the stack.
        const INLINE: usize = 8;
        let mut inline = [Member::default(); INLINE];
        let mut spilled = Vec::new();
        let members: &mut [Member] = if items.len() <= INLINE {
            &mut inline[..items.len()]
        } else {
            spilled.resize(items.len(), Member::default());
            &mut spilled
        };
        for (m, &item) in members.iter_mut().zip(items) {
            *m = self.member(item);
        }
        if self.rows.is_empty() {
            self.walk_runs(members, f);
        } else {
            self.walk_rows(members, f);
        }
    }

    /// [`StepProbe::walk`] over the dense rows: the members' changed-slot
    /// bitsets give the slots, the rows their probabilities.
    fn walk_rows(&self, members: &[Member], mut f: impl FnMut(Visit) -> bool) {
        let width = self.items.len();
        let last = members.len() - 1;
        for w in 0..self.words {
            let mut mask = 0u64;
            for m in members.iter().filter(|m| m.column != Member::ABSENT) {
                mask |= self.masks[m.column as usize * self.words + w];
            }
            while mask != 0 {
                let slot = w * 64 + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let old_row = &self.rows[2 * slot * width..][..width];
                let new_row = &self.rows[(2 * slot + 1) * width..][..width];
                let (mut old, mut new, mut new_prefix) = (1.0f64, 1.0f64, 1.0f64);
                for (i, m) in members.iter().enumerate() {
                    if i == last {
                        new_prefix = new;
                    }
                    let (o, n) = match m.column {
                        Member::ABSENT => (0.0, 0.0),
                        c => (old_row[c as usize], new_row[c as usize]),
                    };
                    old *= o;
                    new *= n;
                }
                if !f(Visit {
                    slot,
                    old,
                    new,
                    new_prefix,
                }) {
                    return;
                }
            }
        }
    }

    /// [`StepProbe::walk`] over the presence records: the members' runs
    /// advance together, slot by slot.
    fn walk_runs(&self, members: &mut [Member], mut f: impl FnMut(Visit) -> bool) {
        let units = &self.units;
        let last = members.len() - 1;
        while let Some(slot) = members
            .iter()
            .filter(|m| m.at < m.end)
            .map(|m| units[m.at as usize].slot)
            .min()
        {
            let (mut old, mut new, mut new_prefix) = (1.0f64, 1.0f64, 1.0f64);
            let mut moved = false;
            for (i, m) in members.iter_mut().enumerate() {
                if i == last {
                    new_prefix = new;
                }
                let (o, n) = match units.get(m.at as usize) {
                    Some(u) if m.at < m.end && u.slot == slot => {
                        m.at += 1;
                        moved |= u.old != u.new;
                        (u.old, u.new)
                    }
                    _ => (0.0, 0.0),
                };
                old *= o;
                new *= n;
            }
            if moved
                && !f(Visit {
                    slot: slot as usize,
                    old,
                    new,
                    new_prefix,
                })
            {
                return;
            }
        }
    }

    /// Whether any dirty slot moved the itemset's containment probability:
    /// the first component of [`StepProbe::growth`], found without walking
    /// past the first such slot.
    pub fn touches(&self, items: &[ItemId]) -> bool {
        let mut touched = false;
        self.walk(items, |v| {
            touched = v.old != v.new;
            !touched
        });
        touched
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
        self.walk(items, |v| {
            if v.old != v.new {
                touched = true;
            }
            if v.new > v.old {
                added_mass += v.new - v.old;
            }
            if v.old == 0.0 && v.new > 0.0 {
                added_count += 1;
            }
            true
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
        self.walk(items, |v| {
            if v.old != v.new {
                out.push((self.tids[v.slot], v.new));
            }
            true
        });
        out
    }

    /// For every dirty slot where some member of `items` moved, ascending
    /// — the slots where membership in any structure keyed on `items` or
    /// on its prefix can have changed — the tid, the new-side containment
    /// probability of `items` without its last member, and that of `items`.
    pub fn new_products(&self, items: &[ItemId]) -> Vec<(u32, f64, f64)> {
        let mut out = Vec::new();
        self.walk(items, |v| {
            out.push((self.tids[v.slot], v.new_prefix, v.new));
            true
        });
        out
    }
}

/// Gives back most of a buffer that an earlier, much larger step grew —
/// a whole-window turnover, say — so the probe keeps about what the recent
/// steps need. Steps of similar size neither shrink nor regrow it.
fn trim<T>(v: &mut Vec<T>) {
    const SLACK: usize = 1024;
    if v.capacity() > 4 * v.len() + SLACK {
        v.shrink_to(2 * v.len() + SLACK);
    }
}

/// Appends a presence record for every item of `old` or `new`: one merge
/// walk of the two sorted unit lists.
fn push_presence(old: &Transaction, new: &Transaction, slot: u32, out: &mut Vec<Presence>) {
    let (old_items, new_items) = (old.items(), new.items());
    let (mut a, mut b) = (0, 0);
    while a < old_items.len() || b < new_items.len() {
        // Past its end a list reads `ItemId::MAX`, above every valid id.
        let x = old_items.get(a).copied().unwrap_or(ItemId::MAX);
        let y = new_items.get(b).copied().unwrap_or(ItemId::MAX);
        let (item, old_p, new_p) = if x == y {
            a += 1;
            b += 1;
            (x, old.probs()[a - 1], new.probs()[b - 1])
        } else if x < y {
            a += 1;
            (x, old.probs()[a - 1], 0.0)
        } else {
            b += 1;
            (y, 0.0, new.probs()[b - 1])
        };
        out.push(Presence {
            item,
            slot,
            old: old_p,
            new: new_p,
        });
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

    /// A deterministic pseudo-random step over items `0..num_items`: slots
    /// cycle through empty→tx, tx→empty, tx→tx and tx→(the same tx with
    /// one probability changed) shapes, with gaps between dirty tids.
    fn random_step(num_items: u32, tids: u32) -> WindowStep {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut rand_tx = |seed_bias: u64| {
            let units: Vec<(u32, f64)> = (0..num_items)
                .filter_map(|i| {
                    let r = next().wrapping_add(seed_bias);
                    (r % 3 != 0).then(|| (i, ((r % 97) as f64 + 1.0) / 98.0))
                })
                .collect();
            tx(&units)
        };
        let empty = Transaction::certain([]);
        let mut dirty = Vec::new();
        for tid in 0..tids {
            let (old, new) = match tid % 5 {
                0 => (empty.clone(), rand_tx(1)),
                1 => (rand_tx(2), empty.clone()),
                2 => (rand_tx(3), rand_tx(4)),
                3 => {
                    let old = rand_tx(5);
                    let mut units: Vec<(u32, f64)> = old.units().collect();
                    if let Some(u) = units.first_mut() {
                        u.1 = if u.1 == 0.5 { 0.25 } else { 0.5 };
                    }
                    (old, tx(&units))
                }
                _ => continue, // gaps: dirty tids need not be contiguous
            };
            dirty.push(DirtySlot { tid, old, new });
        }
        WindowStep { dirty }
    }

    /// Every query of `probe` against the naive per-transaction loops it
    /// replaces, bit for bit.
    fn assert_probe_matches_naive(step: &WindowStep, probe: &StepProbe, items: &[ItemId]) {
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
        assert_eq!(probe.touches(items), touched, "{items:?}");
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

        // new_products == the new-side products of the itemset and of its
        // prefix, exactly at the slots where a member moved.
        let naive: Vec<(u32, u64, u64)> = step
            .dirty
            .iter()
            .filter(|d| items.iter().any(|&i| d.old.prob_of(i) != d.new.prob_of(i)))
            .map(|d| {
                let prefix = &items[..items.len().saturating_sub(1)];
                (
                    d.tid,
                    d.new.itemset_prob(prefix).to_bits(),
                    d.new.itemset_prob(items).to_bits(),
                )
            })
            .collect();
        let got: Vec<(u32, u64, u64)> = probe
            .new_products(items)
            .into_iter()
            .map(|(t, prefix_p, p)| (t, prefix_p.to_bits(), p.to_bits()))
            .collect();
        assert_eq!(got, naive, "{items:?}");
    }

    /// A step of `slots` dirty slots that each hold a few items of their
    /// own, so the step's items far outnumber its records per slot: the
    /// probe keeps the records only.
    fn scattered_step(slots: u32) -> WindowStep {
        let dirty = (0..slots)
            .map(|tid| {
                let own = 10 + 3 * tid;
                let p = f64::from(tid % 7 + 1) / 8.0;
                DirtySlot {
                    tid: 2 * tid,
                    old: tx(&[(0, p), (own, 0.5)]),
                    new: tx(&[(0, 1.0 - p / 2.0), (1, p), (own + 1, 0.75)]),
                }
            })
            .collect();
        WindowStep { dirty }
    }

    /// The probe's products, growth deltas and update lists must be
    /// bit-identical to the naive per-transaction loops they replace,
    /// including itemsets with a member no dirty slot holds and itemsets
    /// whose members never meet (zero products on both sides).
    #[test]
    fn probe_matches_naive_loops() {
        let sets: Vec<Vec<ItemId>> = vec![
            vec![0],
            vec![3],
            vec![0, 1],
            vec![2, 5],
            vec![0, 3, 6],
            vec![1, 2, 4, 5],
            vec![0, 1, 2, 3, 4, 5, 6],
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13],
            // Item 9 is in no slot of the first step: every product is zero.
            vec![9],
            vec![2, 9],
            vec![0, 4, 9],
            vec![0, 13, 14],
        ];
        for (step, dense) in [(random_step(7, 300), true), (scattered_step(300), false)] {
            let probe = StepProbe::new(&step);
            assert_eq!(probe.len(), step.len());
            assert!(probe.len() > 128, "hundreds of dirty slots");
            assert!(!probe.is_empty());
            assert_eq!(probe.has_rows(), dense, "layout");
            for items in &sets {
                assert_probe_matches_naive(&step, &probe, items);
            }
            // Empty itemset: containment is the empty product everywhere.
            assert_eq!(probe.growth(&[]), (false, 0.0, 0));
            assert!(probe.updates(&[]).is_empty());
            assert!(probe.new_products(&[]).is_empty());
        }
        // Items 0 and 1 never meet: zero products on both sides, while
        // each one's moves still mark the pair's slots.
        let apart = WindowStep {
            dirty: vec![
                DirtySlot {
                    tid: 3,
                    old: tx(&[(0, 0.5)]),
                    new: tx(&[(1, 0.5)]),
                },
                DirtySlot {
                    tid: 8,
                    old: tx(&[(1, 0.25), (2, 1.0)]),
                    new: tx(&[(0, 0.75), (2, 1.0)]),
                },
            ],
        };
        let probe = StepProbe::new(&apart);
        for items in [&[0, 1][..], &[0, 2], &[1, 2], &[0, 1, 2], &[2]] {
            assert_probe_matches_naive(&apart, &probe, items);
        }
        assert_eq!(probe.growth(&[0, 1]), (false, 0.0, 0));
        assert_eq!(
            probe.new_products(&[0, 1]),
            vec![(3, 0.0, 0.0), (8, 0.75, 0.0)]
        );
        assert!(probe.new_products(&[2]).is_empty());
    }

    /// The moved items are exactly the items whose probability differs
    /// between the old and new side of some dirty slot.
    #[test]
    fn probe_moved_items_are_the_items_that_changed() {
        for (step, num_items) in [
            (random_step(7, 300), 7),
            (random_step(40, 24), 40),
            (random_step(3, 5), 3),
            (scattered_step(50), 200),
        ] {
            let want: Vec<ItemId> = (0..num_items)
                .filter(|&i| {
                    step.dirty
                        .iter()
                        .any(|d| d.old.prob_of(i) != d.new.prob_of(i))
                })
                .collect();
            assert!(!want.is_empty());
            assert_eq!(StepProbe::new(&step).moved_items(), want.as_slice());
        }
        // A slot rewritten with its own contents moves nothing.
        let same = WindowStep {
            dirty: vec![DirtySlot {
                tid: 0,
                old: tx(&[(1, 0.5), (4, 0.25)]),
                new: tx(&[(1, 0.5), (4, 0.25)]),
            }],
        };
        let probe = StepProbe::new(&same);
        assert!(probe.moved_items().is_empty());
        assert!(!probe.touches(&[1]));
        assert!(probe.new_products(&[1, 4]).is_empty());
    }

    /// Over a 2^20-item vocabulary — every unit near its top — the probe
    /// holds only what the step's units need: no buffer is sized by the
    /// vocabulary, and reloading a smaller step reuses the buffers.
    #[test]
    fn probe_over_a_huge_vocabulary_is_sized_by_the_step() {
        const TOP: u32 = (1 << 20) - 1;
        let shifted =
            |t: &Transaction| tx(&t.units().map(|(i, p)| (TOP - 3 * i, p)).collect::<Vec<_>>());
        let base = random_step(12, 40);
        let step = WindowStep {
            dirty: base
                .dirty
                .iter()
                .map(|d| DirtySlot {
                    tid: d.tid,
                    old: shifted(&d.old),
                    new: shifted(&d.new),
                })
                .collect(),
        };
        let units: usize = step.dirty.iter().map(|d| d.old.len() + d.new.len()).sum();
        let mut probe = StepProbe::new(&step);
        let bound = 4 * units + 1024;
        for (name, capacity) in [
            ("tids", probe.tids.capacity()),
            ("units", probe.units.capacity()),
            ("items", probe.items.capacity()),
            ("starts", probe.starts.capacity()),
            ("moved", probe.moved.capacity()),
            ("rows", probe.rows.capacity()),
            ("masks", probe.masks.capacity()),
        ] {
            assert!(capacity <= bound, "{name}: {capacity} > {bound}");
        }
        for items in [
            vec![TOP],
            vec![TOP - 6, TOP],
            vec![TOP - 33, TOP - 9, TOP - 3],
        ] {
            assert_probe_matches_naive(&step, &probe, &items);
        }
        let small = WindowStep {
            dirty: step.dirty[..4].to_vec(),
        };
        let units_ptr = probe.units.as_ptr();
        probe.load(&small);
        assert_eq!(probe.units.as_ptr(), units_ptr, "the buffers are reused");
        assert_probe_matches_naive(&small, &probe, &[TOP - 6, TOP]);
    }
}
