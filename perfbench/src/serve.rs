//! The serve phase: closed-loop query traffic through `ufim-serve`'s TCP
//! front end.
//!
//! Two client connections each send their next request only after the
//! previous response arrived. Every request carries `"threads":1`, so at
//! most two threads are busy at any moment.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ufim_core::prelude::*;
use ufim_miners::MatrixMiner;
use ufim_serve::{ServeCore, TcpServer};

use crate::trace::Tracer;
use crate::workload::{splitmix64, Traffic, Workload, DATASET, PRIMED};

/// Closed-loop client connections.
pub const CLIENTS: usize = 2;

/// Memo byte budget: large enough that nothing primed is ever evicted.
const MEMO_BUDGET: u64 = 1 << 30;

/// Whether a response line reports success.
pub fn is_ok(response: &str) -> bool {
    response.starts_with(r#"{"ok":true"#)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next: u64,
}

/// A primed server with its clients connected.
pub struct Serve {
    /// The in-process core behind the TCP front end.
    pub core: Arc<ServeCore>,
    /// The traffic generator.
    pub traffic: Traffic,
    server: Option<TcpServer>,
    clients: Vec<Client>,
}

/// One client's share of a serve sample.
#[derive(Default)]
pub struct ClientLog {
    /// Per-request latency, microseconds.
    pub latencies_us: Vec<f64>,
    /// Each request's op.
    pub ops: Vec<&'static str>,
    /// Requests answered with `"ok":false` or not at all.
    pub failed: u64,
}

/// One serve sample.
pub struct Slice {
    /// Per-client logs.
    pub clients: Vec<ClientLog>,
    /// Wall time of the whole sample.
    pub wall: Duration,
}

impl Serve {
    /// Loads `db` (building its index); the memo stays cold.
    pub fn load(db: UncertainDatabase) -> Arc<ServeCore> {
        let core = Arc::new(ServeCore::new(MEMO_BUDGET));
        core.load_db(DATASET, db);
        core
    }

    /// Primes the memo at the basis; returns the basis esup result the
    /// traffic probes, or `None` when a priming request failed.
    pub fn prime(core: &ServeCore, w: &Workload) -> Option<MiningResult> {
        let params = MiningParams::new(w.min_sup, w.pft).ok()?;
        for line in w.prime_lines() {
            if !is_ok(&core.handle_line(&line)) {
                return None;
            }
        }
        core.answer(
            DATASET,
            MeasureKind::ExpectedSupport,
            EngineKind::Vertical,
            &params,
        )
        .ok()
        .map(|(result, _)| result)
    }

    /// Starts the TCP front end over a primed `core` and connects the
    /// clients.
    pub fn start(core: Arc<ServeCore>, traffic: Traffic) -> std::io::Result<Serve> {
        let server = TcpServer::start(Arc::clone(&core), "127.0.0.1:0")?;
        let clients = (0..CLIENTS)
            .map(|_| {
                let writer = TcpStream::connect(server.local_addr())?;
                writer.set_nodelay(true)?;
                Ok(Client {
                    reader: BufReader::new(writer.try_clone()?),
                    writer,
                    next: 0,
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Serve {
            core,
            traffic,
            server: Some(server),
            clients,
        })
    }

    /// One sample: every client sends `requests` requests back to back.
    pub fn slice(&mut self, requests: usize, tracer: &Tracer) -> Slice {
        let traffic = &self.traffic;
        let start = Instant::now();
        let clients = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| s.spawn(move || client.run(traffic, c as u64, requests, tracer)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        Slice {
            clients,
            wall: start.elapsed(),
        }
    }

    /// Verifies warm answers against a cold level-wise `MatrixMiner` mine,
    /// for each primed measure at one threshold of the warm ladder chosen
    /// by `seed`: whether each matched, and what a mismatch means.
    pub fn verify_warm(
        &self,
        db: &UncertainDatabase,
        w: &Workload,
        seed: u64,
    ) -> Vec<(bool, String)> {
        let ladder = self.traffic.ladder();
        PRIMED
            .iter()
            .enumerate()
            .map(|(k, &measure)| {
                let t = ladder[(splitmix64(seed ^ k as u64) % ladder.len() as u64) as usize];
                let params = MiningParams::new(t, w.pft).expect("ladder thresholds are ratios");
                let warm = self
                    .core
                    .answer(DATASET, measure, EngineKind::Vertical, &params);
                let mut cold = MatrixMiner::new(measure, TraversalKind::LevelWise)
                    .mine_probabilistic(db, params.with_engine(EngineKind::Vertical))
                    .expect("level-wise cells are supported");
                cold.canonicalize();
                let same = matches!(&warm, Ok((r, outcome))
                    if outcome.name() == "memo" && r.itemsets == cold.itemsets);
                (
                    same,
                    format!("warm {measure} answer at min_sup {t} differs from a cold mine"),
                )
            })
            .collect()
    }
}

impl Client {
    fn run(
        &mut self,
        traffic: &Traffic,
        client: u64,
        requests: usize,
        tracer: &Tracer,
    ) -> ClientLog {
        let mut log = ClientLog::default();
        let mut response = String::new();
        for _ in 0..requests {
            let request = traffic.request(client, self.next);
            let id = (client + 1) << 32 | self.next;
            self.next += 1;
            response.clear();
            let start = Instant::now();
            let sent = tracer.in_request(id, || {
                let _g = tracer.span("serve.request");
                self.writer
                    .write_all(format!("{}\n", request.line).as_bytes())
                    .and_then(|()| self.reader.read_line(&mut response))
            });
            log.latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
            log.ops.push(request.op);
            if !matches!(sent, Ok(n) if n > 0) || !is_ok(&response) {
                log.failed += 1;
            }
        }
        log
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // Closing the connections lets the server's connection threads
        // end; stopping joins them and the accept loop.
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}
