//! The wire protocol: one JSON object per line, hand-rolled (no serde).
//!
//! Requests and responses are single-line JSON objects terminated by
//! `'\n'`. The parser is a depth-capped recursive-descent reader (objects,
//! arrays, strings with every standard escape, numbers, booleans, null);
//! it is also what `ufim-bench` reads its `BENCH_*.json` snapshots with.
//! The writer escapes every control character, emits keys in insertion
//! order and formats floats with Rust's shortest-round-trip `Display`, so
//! a response built from the same records is always the same byte
//! sequence — the property the concurrency isolation tests assert on.

use ufim_core::prelude::*;

/// A parsed JSON value. Object keys keep insertion order (`Vec` of pairs),
/// which is what makes serialization deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (the protocol never needs integers beyond 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON value from `text` (must consume the entire input up
    /// to trailing whitespace).
    ///
    /// # Errors
    /// A human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }

    /// Serializes compactly (no whitespace), keys in insertion order.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. Requests nest
/// two levels deep; the cap keeps a hostile line from overflowing the
/// parser's stack.
pub const MAX_DEPTH: usize = 64;

/// Parses one value; `depth` is how many more arrays/objects may open.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth == 0 {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let value = parse_value(b, pos, depth - 1)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth - 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => out.push(parse_unicode_escape(b, pos)?),
                    other => return Err(format!("unsupported escape '\\{}'", other as char)),
                }
            }
            _ => {
                // Re-slice to keep multi-byte UTF-8 sequences intact.
                let start = *pos - 1;
                let mut end = *pos;
                while end < b.len() && b[end] >= 0x80 {
                    end += 1;
                }
                out.push_str(
                    std::str::from_utf8(&b[start..end]).map_err(|_| "invalid UTF-8".to_string())?,
                );
                *pos = end;
            }
        }
    }
    Err("unterminated string".into())
}

/// The character of a `\uXXXX` escape whose `\u` is already consumed,
/// joining a UTF-16 surrogate pair into one character.
fn parse_unicode_escape(b: &[u8], pos: &mut usize) -> Result<char, String> {
    let hex4 = |pos: &mut usize| -> Result<u32, String> {
        let code = b
            .get(*pos..*pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
        *pos += 4;
        Ok(code)
    };
    let high = hex4(pos)?;
    let code = if (0xD800..0xDC00).contains(&high) {
        if !b[*pos..].starts_with(b"\\u") {
            return Err(format!("unpaired surrogate at byte {pos}"));
        }
        *pos += 2;
        let low = hex4(pos)?;
        if !(0xDC00..0xE000).contains(&low) {
            return Err(format!("unpaired surrogate at byte {pos}"));
        }
        0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
    } else {
        high
    };
    char::from_u32(code).ok_or_else(|| format!("unpaired surrogate at byte {pos}"))
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid number".to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn write_value(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // Rust's `Display` for f64 is shortest-round-trip, so numbers
        // (including bit-exact expected supports) survive the wire.
        Json::Num(x) => {
            if x.fract() == 0.0 && x.abs() < 9.0e15 {
                out.push_str(&format!("{}", *x as i64));
            } else {
                out.push_str(&format!("{x}"));
            }
        }
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            _ => out.push(c),
        }
    }
    out.push('"');
}

/// A parsed query request. See the crate docs for the line formats.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Load a named benchmark dataset and keep it resident.
    Load {
        /// Resident name to register the dataset under.
        name: String,
        /// Benchmark generator (`connect`, `accident`, `kosarak`,
        /// `gazelle`, `t25i15d320k`, or `table1`).
        benchmark: String,
        /// Generator scale factor.
        scale: f64,
        /// Generator seed.
        seed: u64,
    },
    /// A threshold sweep: one answer per `min_sup` value, warm whenever the
    /// resident memo covers the threshold.
    Sweep {
        /// Resident dataset name.
        dataset: String,
        /// Frequentness measure of the queried cell.
        measure: MeasureKind,
        /// Support engine of the queried cell.
        engine: EngineKind,
        /// Probabilistic frequent threshold shared by the sweep.
        pft: f64,
        /// The `min_sup` values to answer, in request order.
        thresholds: Vec<f64>,
        /// Include full records in the response (default: counts only).
        records: bool,
        /// Per-request thread cap (admission-cap isolation).
        threads: Option<usize>,
    },
    /// Top-k itemsets by expected support at one parameter point.
    TopK {
        /// Resident dataset name.
        dataset: String,
        /// Frequentness measure of the queried cell.
        measure: MeasureKind,
        /// Support engine of the queried cell.
        engine: EngineKind,
        /// Support-ratio threshold.
        min_sup: f64,
        /// Probabilistic frequent threshold.
        pft: f64,
        /// How many itemsets to return.
        k: usize,
        /// Minimum itemset length to consider.
        min_len: usize,
        /// Per-request thread cap.
        threads: Option<usize>,
    },
    /// Membership/stats probe of one itemset.
    Probe {
        /// Resident dataset name.
        dataset: String,
        /// Frequentness measure to judge under.
        measure: MeasureKind,
        /// Support engine (memo key component).
        engine: EngineKind,
        /// Support-ratio threshold.
        min_sup: f64,
        /// Probabilistic frequent threshold.
        pft: f64,
        /// The itemset to probe.
        itemset: Vec<ItemId>,
        /// Per-request thread cap.
        threads: Option<usize>,
    },
    /// Full mining at one measure × traversal × engine cell.
    Mine {
        /// Resident dataset name.
        dataset: String,
        /// Frequentness measure of the cell.
        measure: MeasureKind,
        /// Lattice traversal of the cell (memo reuse is level-wise only).
        traversal: TraversalKind,
        /// Support engine of the cell.
        engine: EngineKind,
        /// Support-ratio threshold.
        min_sup: f64,
        /// Probabilistic frequent threshold.
        pft: f64,
        /// Include full records in the response.
        records: bool,
        /// Per-request thread cap.
        threads: Option<usize>,
    },
    /// Server counters: datasets, memo hits/misses/extends, residency.
    Stats,
}

fn req_str(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn req_f64(obj: &Json, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number field '{key}'"))
}

fn opt_usize(obj: &Json, key: &str) -> Result<Option<usize>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(|n| Some(n as usize))
            .ok_or_else(|| format!("field '{key}' must be a non-negative integer")),
    }
}

fn req_measure(obj: &Json) -> Result<MeasureKind, String> {
    let s = req_str(obj, "measure")?;
    MeasureKind::parse(&s).ok_or_else(|| format!("unknown measure '{s}'"))
}

fn req_engine(obj: &Json) -> Result<EngineKind, String> {
    match obj.get("engine") {
        None | Some(Json::Null) => Ok(EngineKind::default()),
        Some(v) => {
            let s = v.as_str().ok_or("field 'engine' must be a string")?;
            EngineKind::parse(s).ok_or_else(|| format!("unknown engine '{s}'"))
        }
    }
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    /// A human-readable message suitable for an `{"ok":false}` response.
    pub fn parse(line: &str) -> Result<Request, String> {
        let obj = Json::parse(line)?;
        let op = req_str(&obj, "op")?;
        match op.as_str() {
            "load" => Ok(Request::Load {
                name: req_str(&obj, "name")?,
                benchmark: req_str(&obj, "benchmark")?,
                scale: obj.get("scale").and_then(Json::as_f64).unwrap_or(1.0),
                seed: obj.get("seed").and_then(Json::as_u64).unwrap_or(42),
            }),
            "sweep" => {
                let thresholds = obj
                    .get("thresholds")
                    .and_then(Json::as_arr)
                    .ok_or("missing array field 'thresholds'")?
                    .iter()
                    .map(|v| v.as_f64().ok_or("thresholds must be numbers".to_string()))
                    .collect::<Result<Vec<f64>, String>>()?;
                Ok(Request::Sweep {
                    dataset: req_str(&obj, "dataset")?,
                    measure: req_measure(&obj)?,
                    engine: req_engine(&obj)?,
                    pft: req_f64(&obj, "pft")?,
                    thresholds,
                    records: obj.get("records").and_then(Json::as_bool).unwrap_or(false),
                    threads: opt_usize(&obj, "threads")?,
                })
            }
            "topk" => Ok(Request::TopK {
                dataset: req_str(&obj, "dataset")?,
                measure: req_measure(&obj)?,
                engine: req_engine(&obj)?,
                min_sup: req_f64(&obj, "min_sup")?,
                pft: req_f64(&obj, "pft")?,
                k: obj.get("k").and_then(Json::as_u64).unwrap_or(10) as usize,
                min_len: obj.get("min_len").and_then(Json::as_u64).unwrap_or(1) as usize,
                threads: opt_usize(&obj, "threads")?,
            }),
            "probe" => {
                let itemset = obj
                    .get("itemset")
                    .and_then(Json::as_arr)
                    .ok_or("missing array field 'itemset'")?
                    .iter()
                    .map(|v| {
                        v.as_u64()
                            .and_then(|n| ItemId::try_from(n).ok())
                            .ok_or("itemset entries must be item ids".to_string())
                    })
                    .collect::<Result<Vec<ItemId>, String>>()?;
                Ok(Request::Probe {
                    dataset: req_str(&obj, "dataset")?,
                    measure: req_measure(&obj)?,
                    engine: req_engine(&obj)?,
                    min_sup: req_f64(&obj, "min_sup")?,
                    pft: req_f64(&obj, "pft")?,
                    itemset,
                    threads: opt_usize(&obj, "threads")?,
                })
            }
            "mine" => {
                let traversal = match obj.get("traversal") {
                    None | Some(Json::Null) => TraversalKind::LevelWise,
                    Some(v) => {
                        let s = v.as_str().ok_or("field 'traversal' must be a string")?;
                        TraversalKind::parse(s).ok_or_else(|| format!("unknown traversal '{s}'"))?
                    }
                };
                Ok(Request::Mine {
                    dataset: req_str(&obj, "dataset")?,
                    measure: req_measure(&obj)?,
                    traversal,
                    engine: req_engine(&obj)?,
                    min_sup: req_f64(&obj, "min_sup")?,
                    pft: req_f64(&obj, "pft")?,
                    records: obj.get("records").and_then(Json::as_bool).unwrap_or(false),
                    threads: opt_usize(&obj, "threads")?,
                })
            }
            "stats" => Ok(Request::Stats),
            other => Err(format!("unknown op '{other}'")),
        }
    }
}

/// Serializes one mined record for a response, float fields bit-exact.
pub fn record_json(fi: &FrequentItemset) -> Json {
    Json::Obj(vec![
        (
            "items".into(),
            Json::Arr(
                fi.itemset
                    .items()
                    .iter()
                    .map(|&i| Json::Num(f64::from(i)))
                    .collect(),
            ),
        ),
        ("esup".into(), Json::Num(fi.expected_support)),
        ("var".into(), fi.variance.map_or(Json::Null, Json::Num)),
        (
            "prob".into(),
            fi.frequent_prob.map_or(Json::Null, Json::Num),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_the_value_model() {
        let line = r#"{"op":"sweep","dataset":"g","pft":0.7,"thresholds":[0.5,0.25],"records":true,"nested":{"a":[1,true,null,"x\n"]}}"#;
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("sweep"));
        assert_eq!(v.get("pft").unwrap().as_f64(), Some(0.7));
        let reparsed = Json::parse(&v.to_line()).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn nesting_is_capped_without_recursing_to_the_end() {
        let within = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&within).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Json::parse(&past).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Far too deep to recurse through: must fail, not overflow.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&r#"{"a":"#.repeat(200_000)).is_err());
    }

    #[test]
    fn parser_handles_nested_and_escaped_values() {
        let v = Json::parse("{\"a\": [1, {\"b\": \"x\\u0021\"}, true, null], \"c\": -2.5e1}  ")
            .unwrap();
        assert_eq!(v.get("c").unwrap().as_f64(), Some(-25.0));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x!"));
        assert_eq!((arr[2].as_bool(), &arr[3]), (Some(true), &Json::Null));
        // Every standard escape, including a surrogate pair.
        let s = Json::parse(r#""caf\u00e9 \b\f \ud83d\ude00""#).unwrap();
        assert_eq!(s.as_str(), Some("café \u{8}\u{c} \u{1f600}"));
        for bad in [r#""\u12""#, r#""\ud83d""#, r#""\ud83dx""#, r#""\ude00""#] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
        // Control characters go out escaped and come back unchanged.
        let raw = Json::Str("a\u{1}b\u{1f}\n".into());
        let line = raw.to_line();
        assert_eq!(line, r#""a\u0001b\u001f\n""#);
        assert_eq!(Json::parse(&line).unwrap(), raw);
    }

    #[test]
    fn floats_survive_the_wire_bit_exactly() {
        for x in [0.1 + 0.2, 2.1000000000000005, 1.0 / 3.0, 1e-300, 4.0] {
            let line = Json::Num(x).to_line();
            assert_eq!(Json::parse(&line).unwrap().as_f64(), Some(x), "{line}");
        }
    }

    #[test]
    fn requests_parse_with_defaults() {
        let r = Request::parse(
            r#"{"op":"sweep","dataset":"d","measure":"esup","pft":0.7,"thresholds":[0.5]}"#,
        )
        .unwrap();
        match r {
            Request::Sweep {
                engine,
                records,
                threads,
                ..
            } => {
                assert_eq!(engine, EngineKind::default());
                assert!(!records);
                assert_eq!(threads, None);
            }
            other => panic!("{other:?}"),
        }
        let r = Request::parse(
            r#"{"op":"probe","dataset":"d","measure":"exact-dp","engine":"vertical","min_sup":0.5,"pft":0.7,"itemset":[2,0],"threads":4}"#,
        )
        .unwrap();
        match r {
            Request::Probe {
                itemset, threads, ..
            } => {
                assert_eq!(itemset, vec![2, 0]);
                assert_eq!(threads, Some(4));
            }
            other => panic!("{other:?}"),
        }
        assert!(Request::parse(r#"{"op":"nope"}"#).is_err());
        assert!(Request::parse("not json").is_err());
    }
}
