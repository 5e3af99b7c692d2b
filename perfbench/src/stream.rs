//! The stream phase: sliding-window ingest through `IncrementalMiner`.
//!
//! The window ([`Workload::window_slots`]) starts filled with the mined
//! database's first transactions and slides over a [`Feed`]. Before any
//! step is timed, [`Stream::age`] turns every slot over once, so the timed
//! refreshes run on a window as old as a long-running ingest's, not on a
//! freshly filled one. Each timed step expires the oldest
//! [`Workload::step`] transactions, appends as many from the feed and
//! refreshes the result.

use std::time::{Duration, Instant};
use ufim_core::prelude::*;
use ufim_miners::common::{mine_level_wise_with_plan, ExpectedSupport, IncrementalMiner};

use crate::trace::Tracer;
use crate::workload::Workload;

/// Steps [`Stream::age`] takes to turn the whole window over.
pub const AGE_STEPS: usize = 4;

/// The sizes of the [`AGE_STEPS`] steps that turn `slots` slots over.
pub fn age_steps(slots: usize) -> impl Iterator<Item = usize> {
    (0..AGE_STEPS).map(move |k| slots * (k + 1) / AGE_STEPS - slots * k / AGE_STEPS)
}

/// The transactions a window slides over after its first fill: the
/// database's own that follow the window (up to one window's worth),
/// then the arrivals, cycling when exhausted.
pub struct Feed {
    transactions: Vec<Transaction>,
    next: usize,
}

impl Feed {
    /// A window of `w`'s slots filled with `db`'s first transactions, and
    /// the feed that follows them.
    pub fn fill(
        w: &Workload,
        db: &UncertainDatabase,
        arrivals: &[Transaction],
    ) -> (WindowedDatabase, Feed) {
        let all = db.transactions();
        let slots = w.window_slots(all.len());
        let mut window = WindowedDatabase::new(slots, db.num_items());
        for t in &all[..slots] {
            window.append(t.clone());
        }
        let mut transactions = all[slots..all.len().min(2 * slots)].to_vec();
        transactions.extend_from_slice(arrivals);
        (window, Feed { transactions, next: 0 })
    }

    /// Slides `window` by `n`: the oldest `n` transactions expire and the
    /// feed's next `n` are appended.
    pub fn slide(&mut self, window: &mut WindowedDatabase, n: usize) {
        window.expire_oldest(n);
        for _ in 0..n {
            window.append(self.transactions[self.next % self.transactions.len()].clone());
            self.next += 1;
        }
    }
}

/// A filled window and its incremental miner.
pub struct Stream {
    miner: IncrementalMiner<ExpectedSupport>,
    feed: Feed,
    step: usize,
    threshold: f64,
}

/// Timings and counters of one window step.
pub struct Step {
    /// `expire_oldest` plus the appends.
    pub mutate: Duration,
    /// `IncrementalMiner::refresh`.
    pub refresh: Duration,
    /// The refresh's counters.
    pub stats: MinerStats,
}

impl Stream {
    /// Fills the window with `db`'s first transactions; call
    /// [`Stream::first_refresh`] and [`Stream::age`] before stepping.
    pub fn fill(w: &Workload, db: &UncertainDatabase, arrivals: &[Transaction]) -> Self {
        let (window, feed) = Feed::fill(w, db, arrivals);
        let threshold = w.stream_min_sup * window.capacity() as f64;
        Stream {
            miner: IncrementalMiner::new(
                window,
                ExpectedSupport::new(threshold),
                EngineKind::Vertical,
            ),
            feed,
            step: w.step,
            threshold,
        }
    }

    /// The first (full) mine of the window.
    pub fn first_refresh(&mut self) -> usize {
        self.miner.refresh().len()
    }

    /// Turns every slot of the window over once, in [`AGE_STEPS`] steps
    /// with a refresh after each.
    pub fn age(&mut self) {
        for n in age_steps(self.miner.window().capacity()) {
            self.feed.slide(self.miner.window_mut(), n);
            self.miner.refresh();
        }
    }

    /// Transactions absorbed per step.
    pub fn step_len(&self) -> usize {
        self.step
    }

    /// One expire/append/refresh step.
    pub fn step(&mut self, tracer: &Tracer) -> Step {
        let start = Instant::now();
        {
            let _g = tracer.span("window.mutate");
            self.feed.slide(self.miner.window_mut(), self.step);
        }
        let mutate = start.elapsed();
        let start = Instant::now();
        let stats = {
            let _g = tracer.span("incremental.refresh");
            self.miner.refresh().stats.clone()
        };
        Step {
            mutate,
            refresh: start.elapsed(),
            stats,
        }
    }

    /// A batch re-mine of the current window snapshot, as the incremental
    /// result must equal it.
    pub fn batch_remine(&self) -> MiningResult {
        mine_level_wise_with_plan(
            &self.miner.window().snapshot(),
            ExpectedSupport::new(self.threshold),
            EngineKind::Vertical,
            self.miner.shard_plan(),
        )
    }

    /// Whether the incremental records equal `batch` bit for bit.
    pub fn matches(&self, batch: &MiningResult) -> bool {
        self.miner.result().itemsets == batch.itemsets
    }

    /// Whether the incremental records equal a batch re-mine bit for bit.
    pub fn matches_batch(&self) -> bool {
        self.matches(&self.batch_remine())
    }
}
