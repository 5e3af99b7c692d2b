//! Serving-layer guarantees: warm answers from the cross-query memo must
//! be **bit-identical** to cold `MatrixMiner` mines at the same
//! parameters, for every engine × measure × threshold × thread count, and
//! concurrent clients must be perfectly isolated — interleaved queries
//! return the same bytes as serialized ones.
//!
//! Why bit-identity is provable rather than hoped-for: the engine
//! statistics of a candidate (esup, variance, count, probability vector)
//! do not depend on the threshold, the determinism machinery (fixed
//! summation shapes, `OrderedSink`) makes them identical for every
//! `UFIM_THREADS`, and every measure's keep-set shrinks as its threshold
//! tightens — so re-judging the retained basis records at a covered query
//! threshold reproduces exactly the cold record set, floats and all.

use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;
use uncertain_fim::core::parallel::with_thread_override;
use uncertain_fim::core::{EngineKind, MeasureKind, TraversalKind};
use uncertain_fim::miners::{top_k_by_expected_support, MatrixMiner};
use uncertain_fim::prelude::*;
use uncertain_fim::serve::proto::record_json;
use uncertain_fim::serve::{Json, MemoOutcome, ResidentMemo, ServeCore};

/// Strategy: a probability strictly in (0, 1].
fn prob() -> impl Strategy<Value = f64> {
    (1u32..=1000).prop_map(|k| k as f64 / 1000.0)
}

/// Strategy: a small uncertain database (≤ 24 transactions over ≤ 6 items).
fn small_db() -> impl Strategy<Value = UncertainDatabase> {
    vec(vec((0u32..6, prob()), 0..6), 1..24).prop_map(|raw| {
        let transactions = raw
            .into_iter()
            .map(|units| {
                let mut dedup = std::collections::BTreeMap::new();
                for (i, p) in units {
                    dedup.entry(i).or_insert(p);
                }
                Transaction::new(dedup.into_iter().collect::<Vec<_>>()).unwrap()
            })
            .collect();
        UncertainDatabase::with_num_items(transactions, 6)
    })
}

/// The cold oracle: a level-wise `MatrixMiner` run, canonicalized.
fn cold(
    db: &UncertainDatabase,
    measure: MeasureKind,
    engine: EngineKind,
    params: &MiningParams,
) -> MiningResult {
    let mut r = MatrixMiner::new(measure, TraversalKind::LevelWise)
        .mine_probabilistic(db, params.with_engine(engine))
        .unwrap();
    r.canonicalize();
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The tentpole guarantee: prime the memo at a low basis threshold,
    // then answer every query threshold warm — records (itemsets, esup,
    // variance, frequent-probability floats) must equal the cold mine
    // bit for bit, across engines × measures × thresholds.
    #[test]
    fn warm_sweep_is_bit_identical_to_cold_mining(
        db in small_db(),
        basis_pct in 10u32..=40,
        sweep_pct in 40u32..=95,
        pft_pct in 10u32..=90,
    ) {
        let basis = MiningParams::new(f64::from(basis_pct) / 100.0, f64::from(pft_pct) / 100.0).unwrap();
        let query = MiningParams::new(f64::from(sweep_pct) / 100.0, f64::from(pft_pct) / 100.0).unwrap();
        for measure in MeasureKind::ALL {
            for engine in EngineKind::ALL {
                let memo = ResidentMemo::new(1 << 20);
                let (base, o) = memo.answer("db", &db, measure, engine, &basis).unwrap();
                prop_assert_eq!(o, MemoOutcome::Miss);
                prop_assert_eq!(&base.itemsets, &cold(&db, measure, engine, &basis).itemsets,
                    "basis records diverge for {}x{}", measure, engine);
                let (warm, o) = memo.answer("db", &db, measure, engine, &query).unwrap();
                prop_assert_eq!(o, MemoOutcome::Hit, "{}x{} query not covered", measure, engine);
                prop_assert_eq!(warm.stats.intersections, 0u64);
                prop_assert_eq!(warm.stats.scans, 0u64);
                let want = cold(&db, measure, engine, &query);
                prop_assert_eq!(&warm.itemsets, &want.itemsets,
                    "warm records diverge for {}x{}", measure, engine);
            }
        }
    }

    // Top-k over a warm answer equals top-k over the cold mine — same
    // deterministic order, same floats.
    #[test]
    fn warm_top_k_matches_cold_top_k(db in small_db(), k in 1usize..8) {
        let basis = MiningParams::new(0.2, 0.3).unwrap();
        let query = MiningParams::new(0.4, 0.6).unwrap();
        for engine in EngineKind::ALL {
            let memo = ResidentMemo::new(1 << 20);
            memo.answer("db", &db, MeasureKind::Normal, engine, &basis).unwrap();
            let (warm, o) = memo.answer("db", &db, MeasureKind::Normal, engine, &query).unwrap();
            prop_assert_eq!(o, MemoOutcome::Hit);
            let want = cold(&db, MeasureKind::Normal, engine, &query);
            let warm_top: Vec<FrequentItemset> =
                top_k_by_expected_support(&warm, k, 1).into_iter().cloned().collect();
            let cold_top: Vec<FrequentItemset> =
                top_k_by_expected_support(&want, k, 1).into_iter().cloned().collect();
            prop_assert_eq!(warm_top, cold_top, "top-{} diverges on {}", k, engine);
        }
    }
}

/// Warm answers are identical for every per-request thread cap — the
/// admission-cap isolation cannot change what a query computes.
#[test]
fn warm_answers_identical_across_thread_caps() {
    let db = uncertain_fim::core::examples::paper_table1();
    let basis = MiningParams::new(0.25, 0.3).unwrap();
    let query = MiningParams::new(0.5, 0.7).unwrap();
    for measure in MeasureKind::ALL {
        for engine in EngineKind::ALL {
            let reference: Vec<MiningResult> = [1usize, 4, 8]
                .iter()
                .map(|&threads| {
                    with_thread_override(threads, || {
                        let memo = ResidentMemo::new(1 << 20);
                        memo.answer("t1", &db, measure, engine, &basis).unwrap();
                        let (warm, o) = memo.answer("t1", &db, measure, engine, &query).unwrap();
                        assert_eq!(o, MemoOutcome::Hit);
                        assert_eq!(warm.stats.intersections, 0);
                        warm
                    })
                })
                .collect();
            let cold_ref = with_thread_override(1, || cold(&db, measure, engine, &query));
            for (i, warm) in reference.iter().enumerate() {
                assert_eq!(
                    warm.itemsets, cold_ref.itemsets,
                    "{measure}x{engine} thread cap #{i}"
                );
            }
        }
    }
}

/// The wire-level traffic a concurrency test replays: a mix of sweeps,
/// top-k, probes, and a depth-first mine, all warm-answerable or
/// memo-independent after priming.
fn mixed_queries() -> Vec<String> {
    let mut lines = Vec::new();
    for engine in ["horizontal", "vertical", "diffset"] {
        lines.push(format!(
            r#"{{"op":"sweep","dataset":"t1","measure":"esup","engine":"{engine}","pft":0.7,"thresholds":[0.5,0.75],"records":true}}"#
        ));
        lines.push(format!(
            r#"{{"op":"topk","dataset":"t1","measure":"normal","engine":"{engine}","min_sup":0.5,"pft":0.5,"k":4,"min_len":1}}"#
        ));
        lines.push(format!(
            r#"{{"op":"probe","dataset":"t1","measure":"esup","engine":"{engine}","min_sup":0.5,"pft":0.7,"itemset":[0]}}"#
        ));
        lines.push(format!(
            r#"{{"op":"probe","dataset":"t1","measure":"exact-dp","engine":"{engine}","min_sup":0.5,"pft":0.7,"itemset":[1,2]}}"#
        ));
    }
    lines.push(
        r#"{"op":"mine","dataset":"t1","measure":"esup","traversal":"hyper","min_sup":0.5,"pft":0.7,"records":true}"#.to_string(),
    );
    lines
}

/// Primes every memo cell the mixed traffic touches, so replays are warm
/// and memo state no longer mutates (the precondition for byte-equality
/// under arbitrary interleavings).
fn primed_core() -> Arc<ServeCore> {
    let core = Arc::new(ServeCore::new(1 << 22));
    core.load_db("t1", uncertain_fim::core::examples::paper_table1());
    let prime = MiningParams::new(0.25, 0.3).unwrap();
    for measure in MeasureKind::ALL {
        for engine in EngineKind::ALL {
            core.answer("t1", measure, engine, &prime).unwrap();
        }
    }
    core
}

/// Concurrent-client isolation: for pool sizes 1/4/8, interleaved clients
/// get byte-for-byte the same responses a serialized replay gets.
#[test]
fn interleaved_clients_get_serialized_bytes() {
    let core = primed_core();
    let queries = mixed_queries();
    // The serialized oracle: one client, in order.
    let serialized: Vec<String> = queries.iter().map(|q| core.handle_line(q)).collect();
    for clients in [1usize, 4, 8] {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let core = Arc::clone(&core);
                let queries = queries.clone();
                std::thread::spawn(move || {
                    // Stagger each client's starting offset to force
                    // different interleavings of the same query set.
                    let responses: Vec<(usize, String)> = (0..queries.len())
                        .map(|i| {
                            let q = (i + c) % queries.len();
                            (q, core.handle_line(&queries[q]))
                        })
                        .collect();
                    responses
                })
            })
            .collect();
        for h in handles {
            for (q, response) in h.join().unwrap() {
                assert_eq!(
                    response, serialized[q],
                    "interleaved response diverges with {clients} clients"
                );
            }
        }
    }
    // All that traffic was warm: zero new misses or extends beyond the
    // priming mines (probes on uncovered exact cells count as misses at
    // priming time only if uncovered — assert no extends at least).
    assert_eq!(core.memo().counters().extends, 0);
}

/// Replies stay valid JSON whatever a request's strings hold: a raw control
/// character echoed in an error goes out escaped, and a `\u` escape from a
/// standard client decodes instead of being refused.
#[test]
fn error_replies_escape_control_chars_and_unicode_escapes_decode() {
    let core = ServeCore::new(1 << 20);
    for (line, dataset) in [
        (
            "{\"op\":\"sweep\",\"dataset\":\"a\u{1}b\",\"measure\":\"esup\",\"pft\":0.5,\"thresholds\":[0.5]}",
            "a\u{1}b",
        ),
        (
            r#"{"op":"probe","dataset":"caf\u00e9","measure":"esup","min_sup":0.5,"pft":0.5,"itemset":[0]}"#,
            "café",
        ),
    ] {
        let reply = core.handle_line(line);
        let parsed =
            Json::parse(&reply).unwrap_or_else(|e| panic!("invalid JSON reply {reply:?}: {e}"));
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(false)), "{reply}");
        assert_eq!(
            parsed.get("error").and_then(Json::as_str),
            Some(format!("unknown dataset '{dataset}'").as_str()),
            "{reply}"
        );
    }
}

/// Well-formed requests of every op against the resident `t1`, with `{N}`
/// marking the numeric fields the boundary proptest fills with hostile
/// numbers before truncating or mutating the line.
const BOUNDARY_TEMPLATES: [&str; 7] = [
    r#"{"op":"sweep","dataset":"t1","measure":"esup","engine":"vertical","pft":{N},"thresholds":[{N},0.5],"records":true}"#,
    r#"{"op":"topk","dataset":"t1","measure":"normal","engine":"diffset","min_sup":{N},"pft":0.5,"k":{N},"min_len":{N}}"#,
    r#"{"op":"probe","dataset":"t1","measure":"exact-dp","engine":"horizontal","min_sup":0.5,"pft":0.7,"itemset":[{N},1]}"#,
    r#"{"op":"mine","dataset":"t1","measure":"exact-dc","traversal":"hyper","min_sup":{N},"pft":0.7,"records":true,"threads":{N}}"#,
    r#"{"op":"mine","dataset":"t1","measure":"esup","traversal":"tree","min_sup":0.25,"pft":{N},"records":true}"#,
    r#"{"op":"load","name":"t2","benchmark":"gazelle","scale":{N},"seed":{N}}"#,
    r#"{"op":"stats"}"#,
];

/// Numbers past every field's range: overflowing doubles, integers past
/// `u32`/`u64`, negative zero, subnormals, out-of-range ratios.
const HOSTILE_NUMBERS: [&str; 12] = [
    "1e400",
    "-1e400",
    "1e308",
    "-0",
    "0",
    "-1",
    "2",
    "4294967296",
    "18446744073709551616",
    "123456789012345678901234567890",
    "1e-320",
    "0.5",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    // The request boundary: whatever arrives on a line — random bytes, a
    // truncated or byte-mutated request, deep nesting, numbers past every
    // field's range — `handle_line` must not panic and must answer with
    // exactly one line holding one well-formed JSON object whose `ok` is a
    // bool (an `error` string when false).
    #[test]
    fn hostile_request_lines_get_exactly_one_json_reply(
        shape in 0u8..7,
        template in 0usize..BOUNDARY_TEMPLATES.len(),
        number in 0usize..HOSTILE_NUMBERS.len(),
        cut in 0usize..4096,
        noise in vec(0u8..=255, 1..48),
        depth in 1usize..4096,
    ) {
        let request = BOUNDARY_TEMPLATES[template].replace("{N}", HOSTILE_NUMBERS[number]);
        let bytes = request.as_bytes();
        let at = cut % (bytes.len() + 1);
        let line: Vec<u8> = match shape {
            // Random bytes.
            0 => noise.clone(),
            // The request itself: hostile numbers in well-formed JSON.
            1 => bytes.to_vec(),
            // A request cut short.
            2 => bytes[..at].to_vec(),
            // A request with one byte replaced.
            3 => {
                let mut b = bytes.to_vec();
                if at < b.len() {
                    b[at] = noise[0];
                }
                b
            }
            // Random bytes spliced into a request.
            4 => [&bytes[..at], &noise[..], &bytes[at..]].concat(),
            // Deep nesting inside an otherwise valid request.
            5 => format!(
                r#"{{"op":"stats","x":{}{}}}"#,
                "[".repeat(depth),
                "]".repeat(depth)
            )
            .into_bytes(),
            // Unclosed nesting.
            _ => "{\"a\":".repeat(depth).into_bytes(),
        };
        let core = ServeCore::new(1 << 20);
        core.load_db("t1", uncertain_fim::core::examples::paper_table1());
        let reply = core.handle_line(&String::from_utf8_lossy(&line));
        prop_assert!(!reply.contains(['\n', '\r']), "multi-line reply {:?}", reply);
        let parsed = Json::parse(&reply);
        prop_assert!(parsed.is_ok(), "invalid JSON reply {:?}", reply);
        let parsed = parsed.unwrap();
        match parsed.get("ok") {
            Some(Json::Bool(true)) => {}
            Some(Json::Bool(false)) => prop_assert!(
                parsed.get("error").and_then(Json::as_str).is_some(),
                "error reply without a message: {}", reply
            ),
            _ => prop_assert!(false, "reply without a bool 'ok': {}", reply),
        }
    }
}

/// Regressions the boundary proptest found: a generator `scale` outside
/// `(0, 1]` reached the generator's assertion, and a probe item id past
/// the dataset's vocabulary indexed past its postings. Both now answer
/// `{"ok":false}`.
#[test]
fn out_of_range_scale_and_probe_item_are_refused() {
    let core = ServeCore::new(1 << 20);
    core.load_db("t1", uncertain_fim::core::examples::paper_table1());
    for line in [
        r#"{"op":"load","name":"x","benchmark":"connect","scale":2}"#,
        r#"{"op":"load","name":"x","benchmark":"kosarak","scale":0}"#,
        r#"{"op":"load","name":"x","benchmark":"gazelle","scale":-1}"#,
        r#"{"op":"load","name":"x","benchmark":"accident","scale":1e400}"#,
        r#"{"op":"probe","dataset":"t1","measure":"esup","min_sup":0.5,"pft":0.7,"itemset":[99]}"#,
        r#"{"op":"probe","dataset":"t1","measure":"exact-dp","engine":"vertical","min_sup":0.5,"pft":0.7,"itemset":[0,4294967296]}"#,
    ] {
        let reply = Json::parse(&core.handle_line(line)).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{line}");
    }
}

/// Checks one sweep reply: exactly one well-formed JSON line, `ok`, and
/// per threshold the memo source and records bit-identical (as wire
/// bytes) to a cold `MatrixMiner` mine; returns the per-threshold memo
/// sources.
fn assert_sweep_is_cold_exact(
    reply: &str,
    db: &UncertainDatabase,
    (measure, engine): (MeasureKind, EngineKind),
    pft: f64,
    thresholds: &[f64],
) -> Vec<String> {
    let at = format!("{measure}x{engine}");
    assert!(!reply.contains('\n'), "{at}: one line per request");
    let v = Json::parse(reply).unwrap_or_else(|e| panic!("{at}: {e}: {reply}"));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{at}");
    let results = v.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(results.len(), thresholds.len(), "{at}");
    let mut sources = Vec::new();
    for (r, &min_sup) in results.iter().zip(thresholds) {
        let want = cold(
            db,
            measure,
            engine,
            &MiningParams::new(min_sup, pft).unwrap(),
        );
        let want = Json::Arr(want.itemsets.iter().map(record_json).collect()).to_line();
        let got = r.get("records").unwrap().to_line();
        assert_eq!(got, want, "{at} at min_sup={min_sup}");
        sources.push(r.get("source").and_then(Json::as_str).unwrap().to_string());
    }
    sources
}

fn sweep_line(
    (measure, engine): (MeasureKind, EngineKind),
    pft: f64,
    thresholds: &[f64],
) -> String {
    let thresholds: Vec<String> = thresholds.iter().map(f64::to_string).collect();
    format!(
        r#"{{"op":"sweep","dataset":"t1","measure":"{measure}","engine":"{engine}","pft":{pft},"thresholds":[{}],"records":true}}"#,
        thresholds.join(",")
    )
}

fn stat(core: &ServeCore, field: &str) -> u64 {
    let v = Json::parse(&core.handle_line(r#"{"op":"stats"}"#)).unwrap();
    v.get(field).and_then(Json::as_u64).unwrap()
}

/// Memo fault injection, budget 0: every lattice is admitted alone and
/// evicted by the next cell's, so each cell's second visit re-mines. Every
/// request still gets one reply whose records are cold-exact, and `stats`
/// counts each eviction.
#[test]
fn zero_budget_memo_answers_cold_exact_and_counts_evictions() {
    let db = uncertain_fim::core::examples::paper_table1();
    let core = ServeCore::new(0);
    core.load_db("t1", db.clone());
    let (pft, thresholds) = (0.7, [0.25, 0.5]);
    let cells: Vec<_> = MeasureKind::ALL
        .into_iter()
        .flat_map(|m| EngineKind::ALL.map(|e| (m, e)))
        .collect();
    for _ in 0..2 {
        for &cell in &cells {
            let reply = core.handle_line(&sweep_line(cell, pft, &thresholds));
            let sources = assert_sweep_is_cold_exact(&reply, &db, cell, pft, &thresholds);
            // Admitted despite the budget: the second threshold is warm.
            assert_eq!(sources, ["cold", "memo"], "{cell:?}");
        }
    }
    let visits = 2 * cells.len() as u64;
    assert_eq!(stat(&core, "memo_misses"), visits);
    assert_eq!(stat(&core, "memo_hits"), visits);
    assert_eq!(stat(&core, "memo_evictions"), visits - 1);
    assert_eq!(stat(&core, "resident_entries"), 1);
}

/// Memo fault injection, eviction partway through a sweep: two lattices
/// fill the budget exactly, then a descending sweep over one of them
/// extends it past the budget at its second threshold, evicting the other
/// mid-request. Every threshold's records stay cold-exact, and the evicted
/// cell re-mines cold-exact afterwards.
#[test]
fn eviction_partway_through_a_sweep_keeps_answers_cold_exact() {
    use uncertain_fim::miners::ResidentLattice;
    let db = uncertain_fim::core::examples::paper_table1();
    let pft = 0.7;
    let swept = (MeasureKind::ExpectedSupport, EngineKind::Vertical);
    let other = (MeasureKind::Normal, EngineKind::Horizontal);
    let bytes = |(measure, engine), min_sup| {
        let params = MiningParams::new(min_sup, pft).unwrap();
        let (lattice, _) = ResidentLattice::mine(&db, measure, engine, &params).unwrap();
        lattice.mem_bytes()
    };
    let budget = bytes(swept, 0.75) + bytes(other, 0.5);
    assert!(
        bytes(swept, 0.5) > bytes(swept, 0.75),
        "the extension must grow"
    );
    let core = ServeCore::new(budget);
    core.load_db("t1", db.clone());

    let reply = core.handle_line(&sweep_line(other, pft, &[0.5]));
    assert_sweep_is_cold_exact(&reply, &db, other, pft, &[0.5]);
    let descending = [0.75, 0.5, 0.25];
    let reply = core.handle_line(&sweep_line(swept, pft, &descending));
    let sources = assert_sweep_is_cold_exact(&reply, &db, swept, pft, &descending);
    assert_eq!(sources, ["cold", "extend", "extend"]);
    assert_eq!(stat(&core, "memo_evictions"), 1);
    assert_eq!(stat(&core, "resident_entries"), 1);

    // The evicted cell is gone: it re-mines, and evicts in turn.
    let reply = core.handle_line(&sweep_line(other, pft, &[0.5]));
    let sources = assert_sweep_is_cold_exact(&reply, &db, other, pft, &[0.5]);
    assert_eq!(sources, ["cold"]);
    assert_eq!(stat(&core, "memo_misses"), 3);
    assert_eq!(stat(&core, "memo_evictions"), 2);
}
