//! In-memory spans for the traced run.
//!
//! A span records a name, a start and end (nanoseconds since the tracer
//! was created), the span that was open on the same thread when it began
//! (its parent), and a request id shared by every span of one served
//! request (0 outside requests). Spans are kept in memory and written out
//! once, when the run ends. Spans wrap the calls the benchmark makes into
//! each layer; the program itself is not instrumented.

use std::cell::{Cell, RefCell};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (1-based, in start order per tracer).
    pub id: u64,
    /// Enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// Request id shared by all spans of one served request, 0 otherwise.
    pub request: u64,
    /// Layer-qualified name, e.g. `serve.handle`.
    pub name: String,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// Collects spans from any thread. A disabled tracer records nothing, so
/// the untraced run shares the traced run's code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: Mutex<u64>,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: Mutex::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// An open span; it ends when dropped.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    request: u64,
    name: String,
    start_ns: u64,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the span currently open on this
    /// thread.
    pub fn span(&self, name: impl Into<String>) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                id: 0,
                parent: 0,
                request: 0,
                name: String::new(),
                start_ns: 0,
            };
        }
        let id = {
            let mut next = self.next_id.lock().expect("span id lock poisoned");
            *next += 1;
            *next
        };
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        Guard {
            tracer: self,
            id,
            parent,
            request: REQUEST.get(),
            name: name.into(),
            start_ns: self.now_ns(),
        }
    }

    /// Runs `f` with every span it opens on this thread tagged `request`.
    pub fn in_request<R>(&self, request: u64, f: impl FnOnce() -> R) -> R {
        let previous = REQUEST.replace(request);
        let out = f();
        REQUEST.set(previous);
        out
    }

    /// Every finished span so far, in end order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned").clone()
    }

    /// Durations in microseconds of the spans named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span lock poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = self.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.id) {
                open.remove(pos);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            request: self.request,
            name: std::mem::take(&mut self.name),
            start_ns: self.start_ns,
            end_ns,
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<(String, u64)> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let (mut lo, mut hi) = (0u64, 0u64);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    if a > hi {
                        covered += hi - lo;
                        lo = a;
                        hi = b;
                    } else {
                        hi = hi.max(b);
                    }
                }
                covered += hi - lo;
            }
            (s.name.clone(), s.duration_ns() - covered)
        })
        .collect()
}

/// Writes `spans` as one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"request":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            request: 0,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        };
        // Parent 0..100 with overlapping children 10..30 and 20..50 and a
        // disjoint child 60..70: 50 ns covered, 50 ns self.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
            span(4, 1, 60, 70),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], ("s1".to_string(), 50));
        assert_eq!(selfs[1].1, 20);
    }

    #[test]
    fn nesting_and_request_ids_are_recorded() {
        let tracer = Tracer::new(true);
        tracer.in_request(7, || {
            let _outer = tracer.span("outer");
            let _inner = tracer.span("inner");
        });
        let spans = tracer.spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!((inner.request, outer.request), (7, 7));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
