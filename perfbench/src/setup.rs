//! Everything that happens before timing starts: generate the data, build
//! the index, prime the serve memo, fill the window and run the first
//! refresh. `setup_s` times all of it. Aging the window
//! ([`Stream::age`]) is left to the caller: it costs seconds on a large
//! window, so a run ages one stream and keeps it.

use std::time::Instant;
use ufim_core::prelude::*;

use crate::serve::Serve;
use crate::stream::Stream;
use crate::trace::Tracer;
use crate::workload::{Traffic, Workload};

/// Set-ups the traced run repeats; its `setup.*` metrics are their
/// medians.
pub const REPS: usize = 3;

/// The state the timed phases run on.
pub struct Setup {
    /// The mined database.
    pub db: UncertainDatabase,
    /// The stream's arrivals.
    pub arrivals: Vec<Transaction>,
    /// The filled, refreshed window.
    pub stream: Stream,
    /// The primed server with its clients connected.
    pub serve: Serve,
}

/// Builds the state for `w` and `seed`, recording one span per step;
/// returns it with its seconds.
pub fn build(w: &Workload, seed: u64, tracer: &Tracer) -> Result<(Setup, f64), String> {
    let start = Instant::now();
    let _setup = tracer.span("setup");
    let (db, arrivals) = {
        let _g = tracer.span("setup.generate");
        w.generate(seed)
    };
    let core = {
        let _g = tracer.span("setup.index_build");
        Serve::load(db.clone())
    };
    let basis = {
        let _g = tracer.span("setup.prime");
        Serve::prime(&core, w).ok_or("priming the serve memo failed")?
    };
    let mut stream = {
        let _g = tracer.span("setup.window_fill");
        Stream::fill(w, &db, &arrivals)
    };
    {
        let _g = tracer.span("setup.first_refresh");
        stream.first_refresh();
    }
    let serve = Serve::start(core, Traffic::new(w, seed, &basis))
        .map_err(|e| format!("cannot start the TCP front end: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    Ok((
        Setup {
            db,
            arrivals,
            stream,
            serve,
        },
        seconds,
    ))
}

/// [`REPS`] set-ups, each dropped before the next starts; returns the
/// last.
pub fn repeated(w: &Workload, seed: u64, tracer: &Tracer) -> Result<Setup, String> {
    let mut kept = build(w, seed, tracer)?.0;
    for _ in 1..REPS {
        drop(kept);
        kept = build(w, seed, tracer)?.0;
    }
    Ok(kept)
}
