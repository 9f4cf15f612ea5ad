//! Hand-rolled JSON: a small value model, a strict parser, a writer
//! whose `f64` formatting round-trips **bitwise**, and the codecs for
//! the wire types (`Query` in, `RouteResult` / `EngineError` out).
//!
//! No external JSON dependency exists in this workspace's vendoring
//! policy, and none is needed: the API surface is four endpoints over a
//! handful of flat shapes. Floats are written with Rust's shortest
//! round-trip formatting (`{:?}`), so a client parsing the response
//! with a standard `f64` parser recovers the engine's answer bit for
//! bit — the property the serving integration tests pin against direct
//! `RoutingEngine::route` calls.

use srt_core::routing::{EngineError, Query, RouteResult};
use srt_graph::NodeId;
use std::fmt::Write as _;
use std::time::Duration;

/// A parsed JSON value. Object keys keep insertion order; duplicate
/// keys resolve to the first occurrence (lookup scans forward).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers are `f64` — the wire types need nothing wider, and
    /// every integer the API carries (node ids, counters) is exact in
    /// the 53-bit mantissa.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer (rejects fractions,
    /// negatives, and anything past 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= 9_007_199_254_740_992.0 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_f64(*x, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Serialization: `json.to_string()` comes from this impl via the
/// blanket `ToString`.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Shortest round-trip float formatting; integral values still carry a
/// `.0` (Rust's `{:?}`), which JSON accepts. Non-finite values have no
/// JSON spelling and serialize as `null` — the wire types never carry
/// them (validation rejects non-finite budgets before routing).
fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

/// Exact unsigned integers (ids, counters) without the float `.0`.
fn write_u64(x: u64, out: &mut String) {
    let _ = write!(out, "{x}");
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Where and why parsing failed.
#[derive(Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What was expected or violated.
    pub msg: &'static str,
}

const MAX_DEPTH: usize = 64;

/// Parses one JSON document (rejects trailing garbage).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b if b < 0x20 => return Err(self.err("raw control character in string")),
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Decode only the multi-byte sequence at hand (its
                    // length is fixed by the leading byte) — validating
                    // the whole remaining tail per character would make
                    // string parsing quadratic in the document size.
                    let start = self.pos - 1;
                    let len = match b {
                        0xC2..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF4 => 4,
                        _ => return Err(self.err("invalid UTF-8 in string")),
                    };
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.err("invalid UTF-8 in string"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push(s.chars().next().unwrap());
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(Json::Num).map_err(|_| ParseError {
            at: start,
            msg: "invalid number",
        })
    }
}

// ---------------------------------------------------------------------------
// Wire codecs for the routing API.
// ---------------------------------------------------------------------------

/// Decodes a `Query` from its wire object:
/// `{"source": id, "target": id, "budget_s": seconds[, "deadline_ms": ms]}`.
///
/// Schema violations (missing members, wrong types, ids past `u32`)
/// fail here with a message — the handler answers `400`. *Semantic*
/// violations (unknown node, negative budget, zero deadline) are left
/// to `RoutingEngine::validate`, which answers `422` with the typed
/// [`EngineError`]; this split keeps "you sent gibberish" and "you
/// asked for the impossible" distinguishable on the wire.
pub fn query_from_json(v: &Json) -> Result<Query, String> {
    if !matches!(v, Json::Obj(_)) {
        return Err("query must be a JSON object".into());
    }
    let node = |key: &str| -> Result<NodeId, String> {
        let raw = v
            .get(key)
            .ok_or_else(|| format!("missing member {key:?}"))?;
        let id = raw
            .as_u64()
            .ok_or_else(|| format!("{key:?} must be an unsigned integer"))?;
        u32::try_from(id)
            .map(NodeId)
            .map_err(|_| format!("{key:?} exceeds the u32 id space"))
    };
    let source = node("source")?;
    let target = node("target")?;
    let budget_s = v
        .get("budget_s")
        .ok_or_else(|| "missing member \"budget_s\"".to_string())?
        .as_f64()
        .ok_or_else(|| "\"budget_s\" must be a number".to_string())?;
    let mut query = Query::new(source, target, budget_s);
    if let Some(raw) = v.get("deadline_ms") {
        let ms = raw
            .as_f64()
            .filter(|ms| ms.is_finite() && *ms >= 0.0)
            .ok_or_else(|| "\"deadline_ms\" must be a non-negative number".to_string())?;
        query = query.with_deadline(Duration::from_secs_f64(ms / 1000.0));
    }
    Ok(query)
}

/// Encodes a `RouteResult` onto the wire. Probabilities, distributions
/// and path ids round-trip bitwise (floats use shortest round-trip
/// formatting); `elapsed` is reported in integer microseconds.
pub fn route_result_to_json(r: &RouteResult) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"probability\":");
    write_f64(r.probability, &mut out);
    out.push_str(",\"path\":");
    match &r.path {
        None => out.push_str("null"),
        Some(p) => {
            out.push_str("{\"nodes\":[");
            for (i, n) in p.nodes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_u64(n.0 as u64, &mut out);
            }
            out.push_str("],\"edges\":[");
            for (i, e) in p.edges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_u64(e.0 as u64, &mut out);
            }
            out.push_str("]}");
        }
    }
    out.push_str(",\"distribution\":");
    match &r.distribution {
        None => out.push_str("null"),
        Some(d) => {
            out.push_str("{\"start\":");
            write_f64(d.start(), &mut out);
            out.push_str(",\"width\":");
            write_f64(d.width(), &mut out);
            out.push_str(",\"probs\":[");
            for (i, p) in d.probs().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_f64(*p, &mut out);
            }
            out.push_str("]}");
        }
    }
    let s = &r.stats;
    out.push_str(",\"stats\":{\"labels_created\":");
    write_u64(s.labels_created as u64, &mut out);
    out.push_str(",\"labels_expanded\":");
    write_u64(s.labels_expanded as u64, &mut out);
    out.push_str(",\"pruned_bound\":");
    write_u64(s.pruned_bound as u64, &mut out);
    out.push_str(",\"pruned_infeasible\":");
    write_u64(s.pruned_infeasible as u64, &mut out);
    out.push_str(",\"pruned_dominance\":");
    write_u64(s.pruned_dominance as u64, &mut out);
    out.push_str(",\"completed\":");
    out.push_str(if s.completed { "true" } else { "false" });
    out.push_str(",\"elapsed_us\":");
    write_u64(s.elapsed.as_micros() as u64, &mut out);
    out.push_str("}}");
    out
}

/// The machine-readable tag for each [`EngineError`] variant.
fn engine_error_kind(e: &EngineError) -> &'static str {
    match e {
        EngineError::InvalidBudget { .. } => "invalid_budget",
        EngineError::NodeOutOfRange { .. } => "node_out_of_range",
        EngineError::ZeroDeadline => "zero_deadline",
        EngineError::Internal => "internal",
    }
}

/// Encodes a typed engine rejection:
/// `{"error":{"kind":...,"message":...}}` plus variant-specific detail
/// members.
pub fn engine_error_to_json(e: &EngineError) -> String {
    let mut out = String::from("{\"error\":{\"kind\":");
    write_string(engine_error_kind(e), &mut out);
    out.push_str(",\"message\":");
    write_string(&e.to_string(), &mut out);
    match e {
        EngineError::InvalidBudget { budget } => {
            out.push_str(",\"budget\":");
            write_f64(*budget, &mut out);
        }
        EngineError::NodeOutOfRange { node, num_nodes } => {
            out.push_str(",\"node\":");
            write_u64(node.0 as u64, &mut out);
            out.push_str(",\"num_nodes\":");
            write_u64(*num_nodes as u64, &mut out);
        }
        EngineError::ZeroDeadline | EngineError::Internal => {}
    }
    out.push_str("}}");
    out
}

/// A generic error body for protocol-level failures (bad JSON, unknown
/// path, shed requests).
pub fn protocol_error_body(kind: &str, message: &str) -> String {
    let mut out = String::from("{\"error\":{\"kind\":");
    write_string(kind, &mut out);
    out.push_str(",\"message\":");
    write_string(message, &mut out);
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_reserializes_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("-2.5e3").unwrap(), Json::Num(-2500.0));
        assert_eq!(
            parse("\"a\\n\\\"b\\u00e9\\ud83d\\ude00\"").unwrap(),
            Json::Str("a\n\"bé😀".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":" x "}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some(" x "));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{\"a\":1} trailing",
            "nan",
            "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn large_strings_parse_in_linear_time() {
        // 2MB of plain ASCII inside one string member: under the old
        // whole-tail revalidation this was O(len²) (~terabytes of
        // scanning); linear parsing finishes instantly.
        let payload = "a".repeat(2 * 1024 * 1024);
        let doc = format!("{{\"q\":\"{payload}é😀\"}}");
        let v = parse(&doc).unwrap();
        let s = v.get("q").unwrap().as_str().unwrap();
        assert_eq!(s.len(), payload.len() + 'é'.len_utf8() + '😀'.len_utf8());
        assert!(s.ends_with("é😀"));
    }

    #[test]
    fn floats_roundtrip_bitwise() {
        for x in [
            0.0,
            -0.0,
            1.0,
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.7976931348623157e308,
            123456.789e-200,
        ] {
            let mut s = String::new();
            write_f64(x, &mut s);
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {s}");
        }
    }

    #[test]
    fn query_codec_enforces_schema_not_semantics() {
        let q = query_from_json(
            &parse(r#"{"source":3,"target":9,"budget_s":120.5,"deadline_ms":250}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(q.source, NodeId(3));
        assert_eq!(q.target, NodeId(9));
        assert_eq!(q.budget_s, 120.5);
        assert_eq!(q.deadline, Some(Duration::from_millis(250)));

        // Schema violations fail at the codec...
        for bad in [
            r#"{"target":9,"budget_s":1}"#,
            r#"{"source":-1,"target":9,"budget_s":1}"#,
            r#"{"source":1.5,"target":9,"budget_s":1}"#,
            r#"{"source":1,"target":9,"budget_s":"fast"}"#,
            r#"{"source":99999999999,"target":9,"budget_s":1}"#,
            r#"[1,9,120]"#,
        ] {
            assert!(
                query_from_json(&parse(bad).unwrap()).is_err(),
                "accepted {bad}"
            );
        }
        // ...semantic violations do not (the engine owns those).
        let semantic =
            query_from_json(&parse(r#"{"source":0,"target":0,"budget_s":-5.0}"#).unwrap());
        assert!(
            semantic.is_ok(),
            "negative budget is the engine's 422, not a 400"
        );
    }

    #[test]
    fn engine_errors_render_typed() {
        let body = engine_error_to_json(&EngineError::NodeOutOfRange {
            node: NodeId(42),
            num_nodes: 10,
        });
        let v = parse(&body).unwrap();
        let err = v.get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("node_out_of_range"));
        assert_eq!(err.get("node").unwrap().as_u64(), Some(42));
        assert_eq!(err.get("num_nodes").unwrap().as_u64(), Some(10));
    }
}
