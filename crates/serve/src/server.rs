//! The server core (in-process API) and the blocking TCP front end.
//!
//! [`ServeCore`] owns the resident state: datasets loaded once (the
//! horizontal database plus its [`VerticalIndex`]) and the cross-query
//! [`ResidentMemo`]. Every query — typed via [`ServeCore::answer`] /
//! [`ServeCore::handle`], or wire-format via [`ServeCore::handle_line`] —
//! runs on the caller's thread and dispatches its mining work over the
//! shared workpool; a per-request `threads` cap is applied with
//! [`with_thread_override`], which sets the admission cap of every pool
//! scope the request opens (per-request isolation without per-request
//! pools).
//!
//! [`TcpServer`] is the blocking front end: one accept loop, one thread
//! per connection (at most [`MAX_CONNECTIONS`] at once), one request line
//! in → one response line out.

use crate::memo::{MemoKey, MemoOutcome, ResidentMemo};
use crate::proto::{record_json, Json, Request};
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};
use ufim_core::parallel::with_thread_override;
use ufim_core::prelude::*;
use ufim_core::BlockMoments;
use ufim_data::Benchmark;
use ufim_miners::postprocess::top_k_by_expected_support;
use ufim_miners::resident::boxed_measure;
use ufim_miners::MatrixMiner;

/// One resident dataset: the horizontal database and its columnar index,
/// both built once at load time and shared immutably by every query.
pub struct Dataset {
    /// Resident name.
    pub name: String,
    /// The horizontal probabilistic database.
    pub db: UncertainDatabase,
    /// The columnar tid-list index (probe support without re-scanning).
    pub index: VerticalIndex,
}

/// The server core: resident datasets + the cross-query memo.
pub struct ServeCore {
    datasets: RwLock<FxHashMap<String, Arc<Dataset>>>,
    memo: ResidentMemo,
    log: Mutex<Option<std::fs::File>>,
}

fn with_threads<T>(threads: Option<usize>, f: impl FnOnce() -> T) -> T {
    match threads {
        Some(n) => with_thread_override(n, f),
        None => f(),
    }
}

fn err_json(msg: &str) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(msg.into())),
    ])
}

impl ServeCore {
    /// An empty core whose memo is bounded by `memo_budget_bytes`.
    pub fn new(memo_budget_bytes: u64) -> Self {
        ServeCore {
            datasets: RwLock::new(FxHashMap::default()),
            memo: ResidentMemo::new(memo_budget_bytes),
            log: Mutex::new(None),
        }
    }

    /// Appends one line per handled request to `path` (create/truncate,
    /// parent directories created as needed).
    ///
    /// # Errors
    /// Propagates file or directory creation failure.
    pub fn log_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let file = std::fs::File::create(path)?;
        *self.log_file() = Some(file);
        Ok(())
    }

    fn log_line(&self, line: &str) {
        if let Some(file) = self.log_file().as_mut() {
            let _ = writeln!(file, "{line}");
        }
    }

    /// The request log. A thread that panicked while holding it leaves
    /// at worst a partial line behind, so a poisoned lock is taken over
    /// rather than failing every later request.
    fn log_file(&self) -> MutexGuard<'_, Option<std::fs::File>> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers `db` as resident dataset `name`, building its columnar
    /// index. Replaces any previous dataset of that name.
    pub fn load_db(&self, name: &str, db: UncertainDatabase) {
        let index = VerticalIndex::build(&db);
        let dataset = Arc::new(Dataset {
            name: name.to_string(),
            db,
            index,
        });
        self.datasets
            .write()
            .expect("dataset lock poisoned")
            .insert(name.to_string(), dataset);
    }

    /// Loads a named benchmark generator as resident dataset `name`.
    /// Benchmarks: `connect`, `accident`, `kosarak`, `gazelle`,
    /// `t25i15d320k`, or `table1` (the paper's worked example; ignores
    /// `scale`/`seed`).
    ///
    /// # Errors
    /// An unknown benchmark name, or a generator `scale` outside `(0, 1]`.
    pub fn load_benchmark(
        &self,
        name: &str,
        benchmark: &str,
        scale: f64,
        seed: u64,
    ) -> Result<(), String> {
        let generator = match benchmark.to_ascii_lowercase().as_str() {
            "table1" => None,
            "connect" => Some(Benchmark::Connect),
            "accident" => Some(Benchmark::Accident),
            "kosarak" => Some(Benchmark::Kosarak),
            "gazelle" => Some(Benchmark::Gazelle),
            "t25i15d320k" => Some(Benchmark::T25I15D320k),
            other => return Err(format!("unknown benchmark '{other}'")),
        };
        let db = match generator {
            None => ufim_core::examples::paper_table1(),
            Some(_) if !(scale > 0.0 && scale <= 1.0) => {
                return Err(format!("scale must be in (0, 1], got {scale}"));
            }
            Some(b) => b.generate(scale, seed),
        };
        self.load_db(name, db);
        Ok(())
    }

    /// The resident dataset of `name`, if loaded.
    pub fn dataset(&self, name: &str) -> Option<Arc<Dataset>> {
        self.datasets
            .read()
            .expect("dataset lock poisoned")
            .get(name)
            .cloned()
    }

    /// The cross-query memo (counters, residency).
    pub fn memo(&self) -> &ResidentMemo {
        &self.memo
    }

    /// Typed level-wise query entry: answers through the memo (warm when
    /// covered, cold capture-mine otherwise). The result is canonicalized.
    ///
    /// # Errors
    /// Unknown dataset, or parameter validation from the measures.
    pub fn answer(
        &self,
        dataset: &str,
        measure: MeasureKind,
        engine: EngineKind,
        params: &MiningParams,
    ) -> Result<(MiningResult, MemoOutcome), String> {
        let ds = self
            .dataset(dataset)
            .ok_or_else(|| format!("unknown dataset '{dataset}'"))?;
        self.memo
            .answer(dataset, &ds.db, measure, engine, params)
            .map_err(|e| e.to_string())
    }

    /// Handles one parsed request, producing the response object.
    pub fn handle(&self, req: &Request) -> Json {
        let started = Instant::now();
        let response = self.dispatch(req);
        let op = match req {
            Request::Load { .. } => "load",
            Request::Sweep { .. } => "sweep",
            Request::TopK { .. } => "topk",
            Request::Probe { .. } => "probe",
            Request::Mine { .. } => "mine",
            Request::Stats => "stats",
        };
        let ok = response.get("ok").and_then(Json::as_bool).unwrap_or(false);
        self.log_line(&format!(
            "op={op} ok={ok} micros={}",
            started.elapsed().as_micros()
        ));
        response
    }

    /// Handles one raw request line, producing the response line (no
    /// trailing newline).
    pub fn handle_line(&self, line: &str) -> String {
        match Request::parse(line.trim()) {
            Ok(req) => self.handle(&req).to_line(),
            Err(e) => {
                self.log_line(&format!("op=parse-error error={e}"));
                err_json(&e).to_line()
            }
        }
    }

    fn dispatch(&self, req: &Request) -> Json {
        match req {
            Request::Load {
                name,
                benchmark,
                scale,
                seed,
            } => match self.load_benchmark(name, benchmark, *scale, *seed) {
                Err(e) => err_json(&e),
                Ok(()) => {
                    let ds = self.dataset(name).expect("dataset just loaded");
                    Json::Obj(vec![
                        ("ok".into(), Json::Bool(true)),
                        ("op".into(), Json::Str("load".into())),
                        ("name".into(), Json::Str(name.clone())),
                        (
                            "transactions".into(),
                            Json::Num(ds.db.num_transactions() as f64),
                        ),
                        ("items".into(), Json::Num(f64::from(ds.db.num_items()))),
                    ])
                }
            },
            Request::Sweep {
                dataset,
                measure,
                engine,
                pft,
                thresholds,
                records,
                threads,
            } => with_threads(*threads, || {
                let mut results = Vec::with_capacity(thresholds.len());
                let mut total_intersections = 0u64;
                for &min_sup in thresholds {
                    let params = match MiningParams::new(min_sup, *pft) {
                        Ok(p) => p,
                        Err(e) => return err_json(&e.to_string()),
                    };
                    let (result, outcome) = match self.answer(dataset, *measure, *engine, &params) {
                        Ok(r) => r,
                        Err(e) => return err_json(&e),
                    };
                    total_intersections += result.stats.intersections;
                    let mut entry = vec![
                        ("min_sup".into(), Json::Num(min_sup)),
                        ("count".into(), Json::Num(result.len() as f64)),
                        ("source".into(), Json::Str(outcome.name().into())),
                        (
                            "intersections".into(),
                            Json::Num(result.stats.intersections as f64),
                        ),
                    ];
                    if *records {
                        entry.push((
                            "records".into(),
                            Json::Arr(result.itemsets.iter().map(record_json).collect()),
                        ));
                    }
                    results.push(Json::Obj(entry));
                }
                Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("op".into(), Json::Str("sweep".into())),
                    ("dataset".into(), Json::Str(dataset.clone())),
                    (
                        "intersections".into(),
                        Json::Num(total_intersections as f64),
                    ),
                    ("results".into(), Json::Arr(results)),
                ])
            }),
            Request::TopK {
                dataset,
                measure,
                engine,
                min_sup,
                pft,
                k,
                min_len,
                threads,
            } => with_threads(*threads, || {
                let params = match MiningParams::new(*min_sup, *pft) {
                    Ok(p) => p,
                    Err(e) => return err_json(&e.to_string()),
                };
                let (result, outcome) = match self.answer(dataset, *measure, *engine, &params) {
                    Ok(r) => r,
                    Err(e) => return err_json(&e),
                };
                let top = top_k_by_expected_support(&result, *k, *min_len);
                Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("op".into(), Json::Str("topk".into())),
                    ("dataset".into(), Json::Str(dataset.clone())),
                    ("source".into(), Json::Str(outcome.name().into())),
                    (
                        "intersections".into(),
                        Json::Num(result.stats.intersections as f64),
                    ),
                    ("count".into(), Json::Num(top.len() as f64)),
                    (
                        "records".into(),
                        Json::Arr(top.iter().map(|fi| record_json(fi)).collect()),
                    ),
                ])
            }),
            Request::Probe {
                dataset,
                measure,
                engine,
                min_sup,
                pft,
                itemset,
                threads,
            } => with_threads(*threads, || {
                self.probe(dataset, *measure, *engine, *min_sup, *pft, itemset)
            }),
            Request::Mine {
                dataset,
                measure,
                traversal,
                engine,
                min_sup,
                pft,
                records,
                threads,
            } => with_threads(*threads, || {
                let params = match MiningParams::new(*min_sup, *pft) {
                    Ok(p) => p.with_engine(*engine),
                    Err(e) => return err_json(&e.to_string()),
                };
                let (result, source) = if *traversal == TraversalKind::LevelWise {
                    match self.answer(dataset, *measure, *engine, &params) {
                        Ok((r, o)) => (r, o.name()),
                        Err(e) => return err_json(&e),
                    }
                } else {
                    // Depth-first traversals agree with level-wise only to
                    // 1e-9, so they never share the memo: always cold.
                    let Some(ds) = self.dataset(dataset) else {
                        return err_json(&format!("unknown dataset '{dataset}'"));
                    };
                    match MatrixMiner::new(*measure, *traversal).mine_probabilistic(&ds.db, params)
                    {
                        Ok(mut r) => {
                            r.canonicalize();
                            (r, "cold")
                        }
                        Err(e) => return err_json(&e.to_string()),
                    }
                };
                let mut fields = vec![
                    ("ok".into(), Json::Bool(true)),
                    ("op".into(), Json::Str("mine".into())),
                    ("dataset".into(), Json::Str(dataset.clone())),
                    ("measure".into(), Json::Str(measure.name().into())),
                    ("traversal".into(), Json::Str(traversal.name().into())),
                    ("engine".into(), Json::Str(engine.name().into())),
                    ("source".into(), Json::Str(source.into())),
                    ("count".into(), Json::Num(result.len() as f64)),
                    (
                        "intersections".into(),
                        Json::Num(result.stats.intersections as f64),
                    ),
                ];
                if *records {
                    fields.push((
                        "records".into(),
                        Json::Arr(result.itemsets.iter().map(record_json).collect()),
                    ));
                }
                Json::Obj(fields)
            }),
            Request::Stats => {
                let mut names: Vec<String> = self
                    .datasets
                    .read()
                    .expect("dataset lock poisoned")
                    .keys()
                    .cloned()
                    .collect();
                names.sort();
                let c = self.memo.counters();
                Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("op".into(), Json::Str("stats".into())),
                    (
                        "datasets".into(),
                        Json::Arr(names.into_iter().map(Json::Str).collect()),
                    ),
                    ("memo_hits".into(), Json::Num(c.hits as f64)),
                    ("memo_misses".into(), Json::Num(c.misses as f64)),
                    ("memo_extends".into(), Json::Num(c.extends as f64)),
                    ("memo_evictions".into(), Json::Num(c.evictions as f64)),
                    ("resident_entries".into(), Json::Num(self.memo.len() as f64)),
                    (
                        "resident_bytes".into(),
                        Json::Num(self.memo.resident_bytes() as f64),
                    ),
                    (
                        "budget_bytes".into(),
                        Json::Num(self.memo.budget_bytes() as f64),
                    ),
                ])
            }
        }
    }

    fn probe(
        &self,
        dataset: &str,
        measure: MeasureKind,
        engine: EngineKind,
        min_sup: f64,
        pft: f64,
        items: &[ItemId],
    ) -> Json {
        let Some(ds) = self.dataset(dataset) else {
            return err_json(&format!("unknown dataset '{dataset}'"));
        };
        let params = match MiningParams::new(min_sup, pft) {
            Ok(p) => p,
            Err(e) => return err_json(&e.to_string()),
        };
        if items.is_empty() {
            return err_json("probe itemset must be non-empty");
        }
        let num_items = ds.db.num_items();
        if let Some(&item) = items.iter().find(|&&i| i >= num_items) {
            return err_json(&format!(
                "item {item} is outside dataset '{dataset}' ({num_items} items)"
            ));
        }
        let itemset = Itemset::from_items(items.iter().copied());
        let n = ds.db.num_transactions();
        let key = MemoKey {
            dataset: dataset.to_string(),
            measure,
            engine,
        };
        let covering = match self.memo.covering_lattice(&key, n, &params) {
            Ok(c) => c,
            Err(e) => return err_json(&e.to_string()),
        };
        let mut scratch = MinerStats::default();
        let (esup, variance, count, probs, source, intersections) = match &covering {
            Some(lattice) => match lattice.lookup(&itemset) {
                // Warm: the retained basis statistics, zero intersections.
                Some(rec) => (
                    rec.esup,
                    rec.variance,
                    rec.count,
                    rec.probs.clone(),
                    "memo",
                    0u64,
                ),
                // Covered but not retained ⇒ not frequent at the basis ⇒
                // not frequent at the query either; still report the
                // statistics from the columnar index.
                None => {
                    let (e, v, c, p, i) = Self::index_stats(&ds.index, &itemset);
                    (e, v, c, p, "index", i)
                }
            },
            None => {
                let (e, v, c, p, i) = Self::index_stats(&ds.index, &itemset);
                (e, v, c, p, "index", i)
            }
        };
        let judged = match boxed_measure(measure, n, &params) {
            Err(e) => return err_json(&e.to_string()),
            // Poisson-infeasible parameters: nothing is frequent.
            Ok(None) => None,
            Ok(Some(m)) => m.judge(
                &ufim_miners::common::measure::CandidateStats {
                    esup,
                    variance,
                    count,
                    probs: probs.as_deref(),
                },
                &mut scratch,
            ),
        };
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("op".into(), Json::Str("probe".into())),
            ("dataset".into(), Json::Str(dataset.to_string())),
            (
                "items".into(),
                Json::Arr(
                    itemset
                        .items()
                        .iter()
                        .map(|&i| Json::Num(f64::from(i)))
                        .collect(),
                ),
            ),
            ("frequent".into(), Json::Bool(judged.is_some())),
            ("esup".into(), Json::Num(esup)),
            ("var".into(), Json::Num(variance)),
            ("count".into(), Json::Num(count as f64)),
            (
                "prob".into(),
                judged
                    .and_then(|j| j.frequent_prob)
                    .map_or(Json::Null, Json::Num),
            ),
            ("source".into(), Json::Str(source.into())),
            ("intersections".into(), Json::Num(intersections as f64)),
        ])
    }

    /// Probe statistics straight from the columnar index: the canonical
    /// fixed-shape [`BlockMoments`] fold (bit-identical to the vertical
    /// engine), charging `len − 1` tid-list intersections.
    fn index_stats(
        index: &VerticalIndex,
        itemset: &Itemset,
    ) -> (f64, f64, u64, Option<Vec<f64>>, u64) {
        let pv = index.prob_vector(itemset.items());
        let (esup, variance, count) = BlockMoments::of(&pv).fold();
        let probs = pv.nonzero_probs();
        (
            esup,
            variance,
            count as u64,
            Some(probs),
            (itemset.len() as u64).saturating_sub(1),
        )
    }
}

/// The blocking TCP front end: line-JSON over one socket per client.
pub struct TcpServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the accept loop on a background thread. One thread per connection;
    /// each reads request lines and writes one response line per request.
    /// Past [`MAX_CONNECTIONS`] open connections, a new one is sent one
    /// error line and closed.
    ///
    /// # Errors
    /// Propagates bind failure.
    pub fn start(core: Arc<ServeCore>, addr: &str) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
            loop {
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        connections.retain(|c| !c.is_finished());
                        if connections.len() >= MAX_CONNECTIONS {
                            let refusal = err_json(&format!(
                                "too many connections (at most {MAX_CONNECTIONS})"
                            ));
                            let _ = writeln!(stream, "{}", refusal.to_line());
                            continue;
                        }
                        let core = Arc::clone(&core);
                        let stop = Arc::clone(&stop2);
                        connections.push(std::thread::spawn(move || {
                            serve_connection(&core, stream, &stop);
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if stop2.load(Ordering::Relaxed) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
            for c in connections {
                let _ = c.join();
            }
        });
        Ok(TcpServer {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, waits for the accept loop and every connection
    /// thread to finish. Open connections unblock within the read timeout.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Most connections the TCP front end serves at once; finished ones are
/// reaped on every accept.
pub const MAX_CONNECTIONS: usize = 64;

/// Longest request line, newline excluded, that the TCP front end
/// buffers. A longer line is answered with one error response; the rest
/// of it, up to its newline, is skipped as it arrives without being
/// buffered, and the connection keeps serving.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// What [`read_request`] found on a connection.
enum Frame {
    /// A request line in the caller's buffer: newline-terminated, or the
    /// unterminated last one before the end of the stream.
    Line,
    /// A line longer than [`MAX_LINE_BYTES`]; the buffer was emptied and
    /// the rest of the line will be skipped.
    Overlong,
    /// The stream ended with nothing pending.
    Eof,
}

/// Reads the next request line into `line`, keeping at most
/// [`MAX_LINE_BYTES`] of it. A read timeout surfaces as an error with the
/// bytes read so far kept in `line`, and `skipping` (set while the rest of
/// an overlong line is being dropped) likewise survives until the next
/// call, so a slow client's line is neither mangled nor unbounded.
fn read_request(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    skipping: &mut bool,
) -> std::io::Result<Frame> {
    while *skipping {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            *skipping = false;
            return Ok(Frame::Eof);
        }
        let (skip, found) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (buf.len(), false),
        };
        reader.consume(skip);
        *skipping = !found;
    }
    // One byte past the cap (or the newline) tells an overlong line apart.
    let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
    reader.take(room).read_until(b'\n', line)?;
    if line.last() == Some(&b'\n') {
        Ok(Frame::Line)
    } else if line.len() > MAX_LINE_BYTES {
        line.clear();
        *skipping = true;
        Ok(Frame::Overlong)
    } else if line.is_empty() {
        Ok(Frame::Eof)
    } else {
        Ok(Frame::Line)
    }
}

fn serve_connection(core: &ServeCore, stream: TcpStream, stop: &AtomicBool) {
    // A finite read timeout so connection threads notice a server stop
    // even when the client holds the socket open without sending.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    // Raw bytes, cleared only once a whole line is handled: a read timeout
    // can fire mid-line, and the bytes read before it stay here until the
    // rest of the line arrives.
    let mut line = Vec::new();
    let mut skipping = false;
    loop {
        let response = match read_request(&mut reader, &mut line, &mut skipping) {
            Ok(Frame::Eof) => break,
            Ok(Frame::Overlong) => {
                err_json(&format!("request line longer than {MAX_LINE_BYTES} bytes")).to_line()
            }
            Ok(Frame::Line) => {
                let response = match std::str::from_utf8(&line) {
                    Ok(text) if text.trim().is_empty() => None,
                    Ok(text) => Some(core.handle_line(text)),
                    Err(_) => Some(err_json("request is not valid UTF-8").to_line()),
                };
                line.clear();
                let Some(response) = response else {
                    continue;
                };
                response
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        if writer
            .write_all(format!("{response}\n").as_bytes())
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufim_core::examples::paper_table1;

    fn core_with_table1() -> Arc<ServeCore> {
        let core = Arc::new(ServeCore::new(1 << 20));
        core.load_db("t1", paper_table1());
        core
    }

    #[test]
    fn sweep_is_warm_after_priming_and_bit_stable() {
        let core = core_with_table1();
        let line = r#"{"op":"sweep","dataset":"t1","measure":"esup","engine":"vertical","pft":0.7,"thresholds":[0.25,0.5,0.75],"records":true}"#;
        let first = core.handle_line(line);
        let again = core.handle_line(line);
        let v = Json::parse(&again).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        // All warm on the second pass: zero intersections in total.
        assert_eq!(v.get("intersections").unwrap().as_u64(), Some(0));
        for entry in v.get("results").unwrap().as_arr().unwrap() {
            assert_eq!(entry.get("source").unwrap().as_str(), Some("memo"));
        }
        // Records are byte-identical between cold and warm (canonicalized
        // order, shortest-round-trip floats) modulo the source markers.
        let strip = |s: &str| s.replace("\"cold\"", "X").replace("\"memo\"", "X");
        let f = Json::parse(&first).unwrap();
        let cold_total = f.get("intersections").unwrap().as_u64().unwrap();
        assert!(cold_total > 0, "first pass mines cold");
        let normalize = |v: &Json| {
            let mut v = v.clone();
            if let Json::Obj(fields) = &mut v {
                fields.retain(|(k, _)| k != "intersections");
            }
            if let Some(Json::Arr(results)) = v.get("results").cloned() {
                let cleaned: Vec<Json> = results
                    .into_iter()
                    .map(|e| {
                        if let Json::Obj(mut fields) = e {
                            fields.retain(|(k, _)| k != "intersections");
                            Json::Obj(fields)
                        } else {
                            e
                        }
                    })
                    .collect();
                if let Json::Obj(fields) = &mut v {
                    for (k, val) in fields.iter_mut() {
                        if k == "results" {
                            *val = Json::Arr(cleaned.clone());
                        }
                    }
                }
            }
            v.to_line()
        };
        assert_eq!(strip(&normalize(&f)), strip(&normalize(&v)));
    }

    #[test]
    fn probe_answers_warm_for_retained_itemsets() {
        let core = core_with_table1();
        // Prime the esup memo at 0.25.
        core.handle_line(
            r#"{"op":"sweep","dataset":"t1","measure":"esup","pft":0.7,"thresholds":[0.25]}"#,
        );
        let resp = core.handle_line(
            r#"{"op":"probe","dataset":"t1","measure":"esup","min_sup":0.5,"pft":0.7,"itemset":[0]}"#,
        );
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("source").unwrap().as_str(), Some("memo"));
        assert_eq!(v.get("intersections").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("frequent").unwrap().as_bool(), Some(true));
        let esup = v.get("esup").unwrap().as_f64().unwrap();
        assert!((esup - 2.1).abs() < 1e-9, "{esup}");
        // A non-frequent pair falls back to the index.
        let resp = core.handle_line(
            r#"{"op":"probe","dataset":"t1","measure":"esup","min_sup":0.5,"pft":0.7,"itemset":[1,3]}"#,
        );
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("source").unwrap().as_str(), Some("index"));
        assert_eq!(v.get("intersections").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("frequent").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn mine_depth_first_is_always_cold_and_errors_cleanly() {
        let core = core_with_table1();
        let resp = core.handle_line(
            r#"{"op":"mine","dataset":"t1","measure":"esup","traversal":"hyper","min_sup":0.5,"pft":0.7}"#,
        );
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("source").unwrap().as_str(), Some("cold"));
        // The unsupported exact × tree cell reports an error response.
        let resp = core.handle_line(
            r#"{"op":"mine","dataset":"t1","measure":"exact-dp","traversal":"tree","min_sup":0.5,"pft":0.7}"#,
        );
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        // Unknown dataset likewise.
        let resp = core.handle_line(
            r#"{"op":"mine","dataset":"absent","measure":"esup","min_sup":0.5,"pft":0.7}"#,
        );
        assert_eq!(
            Json::parse(&resp).unwrap().get("ok").unwrap().as_bool(),
            Some(false)
        );
    }

    #[test]
    fn stats_reports_counters_and_datasets() {
        let core = core_with_table1();
        core.handle_line(
            r#"{"op":"sweep","dataset":"t1","measure":"esup","pft":0.7,"thresholds":[0.5,0.5]}"#,
        );
        let v = Json::parse(&core.handle_line(r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(v.get("memo_hits").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("memo_misses").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("resident_entries").unwrap().as_u64(), Some(1));
        let names = v.get("datasets").unwrap().as_arr().unwrap();
        assert_eq!(names[0].as_str(), Some("t1"));
    }

    #[test]
    fn tcp_roundtrip_matches_in_process() {
        let core = core_with_table1();
        let Ok(server) = TcpServer::start(Arc::clone(&core), "127.0.0.1:0") else {
            // Sandboxed environments may forbid binding; the in-process
            // API is covered by the other tests.
            return;
        };
        let addr = server.local_addr();
        let line = r#"{"op":"sweep","dataset":"t1","measure":"esup","pft":0.7,"thresholds":[0.5],"records":true}"#;
        let expected = core.handle_line(line);
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        writer.flush().unwrap();
        let mut got = String::new();
        reader.read_line(&mut got).unwrap();
        // The TCP response is warm (the in-process call primed the memo);
        // compare against a second warm in-process answer.
        let warm = core.handle_line(line);
        assert_eq!(got.trim_end(), warm);
        assert_ne!(expected, ""); // first answer existed
        drop(writer);
        drop(reader);
        server.stop();
    }

    #[test]
    fn deep_nesting_is_answered_not_a_stack_overflow() {
        let core = core_with_table1();
        for line in ["[".repeat(200_000), r#"{"op":"#.repeat(200_000)] {
            let v = Json::parse(&core.handle_line(&line)).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        }
    }

    #[test]
    fn tcp_request_split_across_a_read_timeout_is_reassembled() {
        let core = core_with_table1();
        let Ok(server) = TcpServer::start(Arc::clone(&core), "127.0.0.1:0") else {
            return; // binding forbidden; see tcp_roundtrip_matches_in_process
        };
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        // Two writes, paused past the server's 200 ms read timeout.
        writer.write_all(br#"{"op":"#).unwrap();
        writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(450));
        writer.write_all(b"\"stats\"}\n").unwrap();
        writer.flush().unwrap();
        let mut got = String::new();
        reader.read_line(&mut got).unwrap();
        let v = Json::parse(got.trim_end()).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{got}");
        assert_eq!(v.get("op").unwrap().as_str(), Some("stats"));
        drop(writer);
        drop(reader);
        server.stop();
    }

    #[test]
    fn tcp_overlong_line_gets_one_error_and_the_connection_keeps_serving() {
        let core = core_with_table1();
        let Ok(server) = TcpServer::start(Arc::clone(&core), "127.0.0.1:0") else {
            return; // binding forbidden; see tcp_roundtrip_matches_in_process
        };
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        // Twice the cap, split by a pause past the 200 ms read timeout so
        // the skip resumes after a timeout, then a valid request.
        let half = vec![b'x'; MAX_LINE_BYTES];
        writer.write_all(&half).unwrap();
        writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(300));
        writer.write_all(&half).unwrap();
        writer.write_all(b"\n{\"op\":\"stats\"}\n").unwrap();
        writer.flush().unwrap();
        let mut next = || {
            let mut got = String::new();
            reader.read_line(&mut got).unwrap();
            Json::parse(got.trim_end()).unwrap()
        };
        let first = next();
        assert_eq!(first.get("ok").unwrap().as_bool(), Some(false));
        assert!(first
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("longer than"));
        let second = next();
        assert_eq!(second.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(second.get("op").unwrap().as_str(), Some("stats"));
        drop(writer);
        drop(reader);
        server.stop();
    }

    #[test]
    fn log_writes_survive_a_poisoned_lock() {
        let core = core_with_table1();
        let dir = std::env::temp_dir().join(format!("ufim-serve-log-{}", std::process::id()));
        let path = dir.join("serve.log");
        core.log_to(&path).unwrap();
        let poisoner = Arc::clone(&core);
        let panicked = std::thread::spawn(move || {
            let _guard = poisoner.log.lock().unwrap();
            panic!("poison the request log");
        })
        .join();
        assert!(panicked.is_err() && core.log.is_poisoned());
        let v = Json::parse(&core.handle_line(r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let log = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(log.starts_with("op=stats ok=true"), "{log}");
    }

    #[test]
    fn tcp_connections_past_the_cap_are_refused_until_one_closes() {
        let core = core_with_table1();
        let Ok(server) = TcpServer::start(Arc::clone(&core), "127.0.0.1:0") else {
            return; // binding forbidden; see tcp_roundtrip_matches_in_process
        };
        let addr = server.local_addr();
        // One stats round trip; a refused connection answers without one.
        let request = |stream: &TcpStream| {
            let mut writer = stream.try_clone().unwrap();
            let _ = writer.write_all(b"{\"op\":\"stats\"}\n");
            let mut got = String::new();
            BufReader::new(stream.try_clone().unwrap())
                .read_line(&mut got)
                .unwrap();
            Json::parse(got.trim_end()).unwrap()
        };
        let mut open: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| {
                let stream = TcpStream::connect(addr).unwrap();
                assert_eq!(request(&stream).get("op").unwrap().as_str(), Some("stats"));
                stream
            })
            .collect();
        let refused = request(&TcpStream::connect(addr).unwrap());
        assert_eq!(refused.get("ok").unwrap().as_bool(), Some(false));
        assert!(refused
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("too many connections"));
        // Once a connection closes its thread is reaped and a new client
        // is served (retried while the closed thread winds down).
        drop(open.pop());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let v = request(&TcpStream::connect(addr).unwrap());
            if v.get("ok").unwrap().as_bool() == Some(true) {
                break;
            }
            assert!(Instant::now() < deadline, "no connection slot came free");
            std::thread::sleep(Duration::from_millis(20));
        }
        drop(open);
        server.stop();
    }

    #[test]
    fn request_lines_up_to_the_cap_are_read_whole() {
        let body = vec![b'x'; MAX_LINE_BYTES];
        let mut input = body.clone();
        input.push(b'\n');
        input.extend_from_slice(&body);
        input.extend_from_slice(b"x\nok\n");
        let mut reader = BufReader::new(input.as_slice());
        let (mut line, mut skipping) = (Vec::new(), false);
        let mut frame = || {
            let frame = read_request(&mut reader, &mut line, &mut skipping).unwrap();
            let got = std::mem::take(&mut line);
            (frame, got)
        };
        let (f, got) = frame();
        assert!(matches!(f, Frame::Line) && got.len() == MAX_LINE_BYTES + 1);
        assert!(matches!(frame().0, Frame::Overlong));
        let (f, got) = frame();
        assert!(matches!(f, Frame::Line) && got == b"ok\n");
        assert!(matches!(frame().0, Frame::Eof));
    }
}
