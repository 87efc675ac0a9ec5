//! Hand-rolled, dependency-free JSON for benchmark-gate artefacts.
//!
//! The workspace is hermetic (no serde), but the benchmark gate needs
//! durable, machine-readable run records: `BENCH_gate.json` written by
//! the scenario-matrix runner and the committed baseline it is compared
//! against. This module provides
//!
//! - [`Json`] — a minimal JSON value with a renderer and a recursive
//!   descent parser (objects keep insertion order, so artefacts diff
//!   cleanly in version control),
//! - [`GateRecord`] / [`GateDoc`] — one scenario cell (problem ×
//!   backend × delay model) and the schema-versioned document holding a
//!   whole matrix,
//! - [`run_report_to_json`] / [`run_report_from_json`] — full
//!   round-trip serialization of `asynciter_core::session::RunReport`.
//!
//! Numbers are rendered with Rust's shortest-round-trip `f64` display,
//! so `serialize → parse` reproduces every finite value bit for bit.
//! Non-finite floats render as `null` and parse back as `NAN`. Integers
//! ride in `f64`s: exact up to `2^53`, far beyond any step or tick
//! count the harness produces. The recorded trace is intentionally not
//! serialized — it is a debugging artefact, unbounded in size, and the
//! gate compares summary metrics only.

use asynciter_core::session::{canonical_backend_name, ClusterStats, RunReport};
use std::fmt;

/// Version stamped into every [`GateDoc`]; [`GateDoc::from_json`]
/// rejects documents with any other value, so stale baselines fail loud
/// instead of mis-comparing.
pub const SCHEMA_VERSION: u64 = 1;

/// Parse depth limit — guards the recursive parser against pathological
/// nesting in hand-edited files.
const MAX_DEPTH: usize = 128;

// ---------------------------------------------------------------------------
// Value type
// ---------------------------------------------------------------------------

/// A JSON value. Objects are ordered key/value vectors: the handful of
/// keys the gate uses never warrants a map, and stable order keeps
/// rendered artefacts reproducible.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (see the module docs for integer/round-trip caveats).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse or field-access error, with the byte position for parse
/// failures.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure (0 for semantic/field errors).
    pub pos: usize,
    /// Human-readable description.
    pub message: String,
}

impl JsonError {
    pub(crate) fn at(pos: usize, message: impl Into<String>) -> Self {
        Self {
            pos,
            message: message.into(),
        }
    }

    pub(crate) fn semantic(message: impl Into<String>) -> Self {
        Self::at(0, message)
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pos > 0 {
            write!(f, "json error at byte {}: {}", self.pos, self.message)
        } else {
            write!(f, "json error: {}", self.message)
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    ///
    /// Mirrors the writer's `render_number` integer path exactly: `-0.0` is
    /// rejected (it renders as a float, not an integer) and the bound is
    /// an *exclusive* `< 2^53` (at `2^53` adjacent integers collide in
    /// `f64`, so "exactly an integer" is no longer well-defined).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v)
                if *v >= 0.0
                    && !(*v == 0.0 && v.is_sign_negative())
                    && v.fract() == 0.0
                    && *v < 2f64.powi(53) =>
            {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array, if any.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    /// Renders to indented JSON text (2 spaces per level) — the format
    /// used for committed baselines, so diffs review cleanly.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, _depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => render_number(*v, out),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out, 0);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out, 0);
                }
                out.push('}');
            }
        }
    }

    fn pretty_into(&self, out: &mut String, indent: usize) {
        const PAD: &str = "  ";
        match self {
            Json::Arr(items) if !items.is_empty() => {
                // Scalar-only arrays stay on one line (vectors of numbers
                // dominate our artefacts; one-per-line would be unreadable).
                if items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)))
                {
                    self.render_into(out, 0);
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&PAD.repeat(indent + 1));
                    item.pretty_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&PAD.repeat(indent));
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&PAD.repeat(indent + 1));
                    render_string(k, out);
                    out.push_str(": ");
                    v.pretty_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&PAD.repeat(indent));
                out.push('}');
            }
            other => other.render_into(out, 0),
        }
    }

    /// Parses JSON text (rejects trailing garbage).
    ///
    /// # Errors
    /// Syntax errors, with the byte position.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at(p.pos, "trailing characters after value"));
        }
        Ok(value)
    }
}

fn render_number(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < 2f64.powi(53) && !(v == 0.0 && v.is_sign_negative()) {
        out.push_str(&format!("{}", v as i64));
    } else {
        // Rust's shortest-round-trip Display: parses back bit-identical.
        out.push_str(&format!("{v}"));
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    /// `text.as_bytes()`; `pos` is always a character boundary of both.
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(self.pos, format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::at(self.pos, format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::at(self.pos, "nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(JsonError::at(
                self.pos,
                format!("unexpected character `{}`", b as char),
            )),
            None => Err(JsonError::at(self.pos, "unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::at(start, "invalid utf-8 in number"))?;
        match text.parse::<f64>() {
            // Overflowing literals (`1e999`) parse to infinity; reject
            // them so values cannot silently mutate across round trips
            // (non-finite is only ever *written* as null).
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            Ok(_) => Err(JsonError::at(
                start,
                format!("number `{text}` out of range"),
            )),
            Err(_) => Err(JsonError::at(start, format!("invalid number `{text}`"))),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::at(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: \uD800-\uDBFF must chain a
                            // low surrogate.
                            let c = if (0xD800..=0xDBFF).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if (0xDC00..=0xDFFF).contains(&lo) {
                                        char::from_u32(
                                            0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00),
                                        )
                                    } else {
                                        // High surrogate chained to a
                                        // non-low escape.
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(c.ok_or_else(|| {
                                JsonError::at(self.pos, "invalid unicode escape")
                            })?);
                            continue;
                        }
                        _ => return Err(JsonError::at(self.pos, "invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next delimiter verbatim;
                    // both are ASCII, so the cut is a character boundary.
                    let rest = &self.text[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    s.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(JsonError::at(self.pos, "truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError::at(self.pos, "invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16)
            .map_err(|_| JsonError::at(self.pos, "invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(JsonError::at(self.pos, "expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(JsonError::at(self.pos, "expected `,` or `}`")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Typed field helpers
// ---------------------------------------------------------------------------

pub(crate) fn req<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, JsonError> {
    obj.get(key)
        .ok_or_else(|| JsonError::semantic(format!("missing field `{key}`")))
}

pub(crate) fn req_u64(obj: &Json, key: &str) -> Result<u64, JsonError> {
    req(obj, key)?
        .as_u64()
        .ok_or_else(|| JsonError::semantic(format!("field `{key}` is not a u64")))
}

pub(crate) fn req_f64(obj: &Json, key: &str) -> Result<f64, JsonError> {
    match req(obj, key)? {
        Json::Num(v) => Ok(*v),
        Json::Null => Ok(f64::NAN),
        _ => Err(JsonError::semantic(format!(
            "field `{key}` is not a number"
        ))),
    }
}

pub(crate) fn req_str(obj: &Json, key: &str) -> Result<String, JsonError> {
    req(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| JsonError::semantic(format!("field `{key}` is not a string")))
}

pub(crate) fn req_bool(obj: &Json, key: &str) -> Result<bool, JsonError> {
    req(obj, key)?
        .as_bool()
        .ok_or_else(|| JsonError::semantic(format!("field `{key}` is not a bool")))
}

pub(crate) fn opt_u64(obj: &Json, key: &str) -> Result<Option<u64>, JsonError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| JsonError::semantic(format!("field `{key}` is not a u64"))),
    }
}

pub(crate) fn u64_vec(obj: &Json, key: &str) -> Result<Vec<u64>, JsonError> {
    req(obj, key)?
        .as_arr()
        .ok_or_else(|| JsonError::semantic(format!("field `{key}` is not an array")))?
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| JsonError::semantic(format!("`{key}` element is not a u64")))
        })
        .collect()
}

pub(crate) fn f64_vec(obj: &Json, key: &str) -> Result<Vec<f64>, JsonError> {
    req(obj, key)?
        .as_arr()
        .ok_or_else(|| JsonError::semantic(format!("field `{key}` is not an array")))?
        .iter()
        .map(|v| match v {
            Json::Num(x) => Ok(*x),
            Json::Null => Ok(f64::NAN),
            _ => Err(JsonError::semantic(format!(
                "`{key}` element is not a number"
            ))),
        })
        .collect()
}

pub(crate) fn sample_vec(obj: &Json, key: &str) -> Result<Vec<(u64, f64)>, JsonError> {
    req(obj, key)?
        .as_arr()
        .ok_or_else(|| JsonError::semantic(format!("field `{key}` is not an array")))?
        .iter()
        .map(|pair| {
            let items = pair
                .as_arr()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| JsonError::semantic(format!("`{key}` element is not a pair")))?;
            let j = items[0]
                .as_u64()
                .ok_or_else(|| JsonError::semantic(format!("`{key}` step is not a u64")))?;
            // Null reads back as NaN, mirroring how non-finite sample
            // values are written (see the module docs).
            let v = match &items[1] {
                Json::Num(v) => *v,
                Json::Null => f64::NAN,
                _ => {
                    return Err(JsonError::semantic(format!(
                        "`{key}` value is not a number"
                    )))
                }
            };
            Ok((j, v))
        })
        .collect()
}

pub(crate) fn samples_to_json(samples: &[(u64, f64)]) -> Json {
    Json::Arr(
        samples
            .iter()
            .map(|&(j, v)| Json::Arr(vec![Json::Num(j as f64), Json::Num(v)]))
            .collect(),
    )
}

pub(crate) fn u64s_to_json(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v as f64)).collect())
}

// ---------------------------------------------------------------------------
// RunReport round trip
// ---------------------------------------------------------------------------

/// Serializes a `RunReport` (everything except the trace — see the
/// module docs).
pub fn run_report_to_json(report: &RunReport) -> Json {
    Json::Obj(vec![
        ("backend".into(), Json::Str(report.backend.to_string())),
        (
            "final_x".into(),
            Json::Arr(report.final_x.iter().map(|&v| Json::Num(v)).collect()),
        ),
        ("steps".into(), Json::Num(report.steps as f64)),
        (
            "macro_iterations".into(),
            Json::Num(report.macro_iterations as f64),
        ),
        ("errors".into(), samples_to_json(&report.errors)),
        ("error_times".into(), u64s_to_json(&report.error_times)),
        ("residuals".into(), samples_to_json(&report.residuals)),
        ("final_residual".into(), Json::Num(report.final_residual)),
        ("stopped_early".into(), Json::Bool(report.stopped_early)),
        (
            "per_worker_updates".into(),
            u64s_to_json(&report.per_worker_updates),
        ),
        (
            "partial_publishes".into(),
            Json::Num(report.partial_publishes as f64),
        ),
        (
            "partial_reads".into(),
            Json::Num(report.partial_reads as f64),
        ),
        (
            "constraint_checked".into(),
            Json::Num(report.constraint_checked as f64),
        ),
        (
            "constraint_violations".into(),
            Json::Num(report.constraint_violations as f64),
        ),
        (
            "sim_time".into(),
            match report.sim_time {
                Some(t) => Json::Num(t as f64),
                None => Json::Null,
            },
        ),
        (
            "channel".into(),
            match &report.channel {
                Some(stats) => Json::Obj(
                    [
                        ("sent", stats.sent),
                        ("delivered", stats.delivered),
                        ("dropped", stats.dropped),
                        ("duplicated", stats.duplicated),
                        ("held", stats.held),
                        ("discarded_stale", stats.discarded_stale),
                    ]
                    .map(|(key, count)| (key.into(), Json::Num(count as f64)))
                    .to_vec(),
                ),
                None => Json::Null,
            },
        ),
        (
            "tenant".into(),
            match report.tenant {
                Some(t) => Json::Num(t as f64),
                None => Json::Null,
            },
        ),
        (
            "job".into(),
            match report.job {
                Some(j) => Json::Num(j as f64),
                None => Json::Null,
            },
        ),
        ("wall_secs".into(), Json::Num(report.wall_secs())),
    ])
}

/// Rebuilds a `RunReport` from [`run_report_to_json`] output. The trace
/// comes back as `None` and the backend name is canonicalised through
/// `canonical_backend_name`.
///
/// # Errors
/// Missing or mistyped fields.
pub fn run_report_from_json(json: &Json) -> Result<RunReport, JsonError> {
    let mut report = RunReport {
        macro_iterations: req_u64(json, "macro_iterations")?,
        errors: sample_vec(json, "errors")?,
        error_times: u64_vec(json, "error_times")?,
        residuals: sample_vec(json, "residuals")?,
        stopped_early: req_bool(json, "stopped_early")?,
        per_worker_updates: u64_vec(json, "per_worker_updates")?,
        partial_publishes: req_u64(json, "partial_publishes")?,
        partial_reads: req_u64(json, "partial_reads")?,
        // Added after v1 documents were written: absent means zero.
        constraint_checked: opt_u64(json, "constraint_checked")?.unwrap_or(0),
        constraint_violations: opt_u64(json, "constraint_violations")?.unwrap_or(0),
        sim_time: opt_u64(json, "sim_time")?,
        // Added with the message-passing loop's move onto the session
        // spine: absent means no channel.
        channel: match json.get("channel") {
            None | Some(Json::Null) => None,
            Some(obj) => Some(ClusterStats {
                sent: req_u64(obj, "sent")?,
                delivered: req_u64(obj, "delivered")?,
                dropped: req_u64(obj, "dropped")?,
                duplicated: req_u64(obj, "duplicated")?,
                held: req_u64(obj, "held")?,
                discarded_stale: req_u64(obj, "discarded_stale")?,
            }),
        },
        // Added with the service layer: absent means a solo run.
        tenant: opt_u64(json, "tenant")?,
        job: opt_u64(json, "job")?,
        ..RunReport::new(
            canonical_backend_name(&req_str(json, "backend")?),
            f64_vec(json, "final_x")?,
            req_u64(json, "steps")?,
            req_f64(json, "final_residual")?,
        )
    };
    report.set_wall_secs(req_f64(json, "wall_secs")?);
    Ok(report)
}

// ---------------------------------------------------------------------------
// Gate records
// ---------------------------------------------------------------------------

/// One scenario cell of the benchmark-gate matrix: which scenario ran
/// and the summary metrics the comparator gates on.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRecord {
    /// Problem id (e.g. `"jacobi"`, `"lasso"`).
    pub problem: String,
    /// Backend id (e.g. `"replay"`, `"shared-mem"`).
    pub backend: String,
    /// Delay-model id (e.g. `"bounded"`, `"out-of-order"`).
    pub delay: String,
    /// How faithfully this backend realises the delay model: `"exact"`,
    /// `"approx"`, or `"baseline"` (ran its closest admissible variant).
    pub fidelity: String,
    /// `"ok"` or `"failed"`.
    pub status: String,
    /// Failure message or fidelity explanation (empty when exact + ok).
    pub note: String,
    /// Seed the cell ran with.
    pub seed: u64,
    /// Steps executed, in the backend's step unit.
    pub steps: u64,
    /// Wall-clock seconds of the backend's run.
    pub wall_secs: f64,
    /// Simulated end time in ticks (simulator cells only).
    pub sim_time: Option<u64>,
    /// Fixed-point residual `‖x − F(x)‖_∞` of the final iterate.
    pub final_residual: f64,
    /// Completed macro-iterations of the executed schedule.
    pub macro_iterations: u64,
    /// Updates per worker (thread/sim backends; empty otherwise).
    pub per_worker_updates: Vec<u64>,
}

impl GateRecord {
    /// The cell's identity within a matrix: `problem|backend|delay`.
    pub fn key(&self) -> String {
        format!("{}|{}|{}", self.problem, self.backend, self.delay)
    }

    /// True when the cell ran to completion.
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    /// Serializes the record.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("problem".into(), Json::Str(self.problem.clone())),
            ("backend".into(), Json::Str(self.backend.clone())),
            ("delay".into(), Json::Str(self.delay.clone())),
            ("fidelity".into(), Json::Str(self.fidelity.clone())),
            ("status".into(), Json::Str(self.status.clone())),
            ("note".into(), Json::Str(self.note.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("steps".into(), Json::Num(self.steps as f64)),
            ("wall_secs".into(), Json::Num(self.wall_secs)),
            (
                "sim_time".into(),
                match self.sim_time {
                    Some(t) => Json::Num(t as f64),
                    None => Json::Null,
                },
            ),
            ("final_residual".into(), Json::Num(self.final_residual)),
            (
                "macro_iterations".into(),
                Json::Num(self.macro_iterations as f64),
            ),
            (
                "per_worker_updates".into(),
                u64s_to_json(&self.per_worker_updates),
            ),
        ])
    }

    /// Parses a record.
    ///
    /// # Errors
    /// Missing or mistyped fields.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            problem: req_str(json, "problem")?,
            backend: req_str(json, "backend")?,
            delay: req_str(json, "delay")?,
            fidelity: req_str(json, "fidelity")?,
            status: req_str(json, "status")?,
            note: req_str(json, "note")?,
            seed: req_u64(json, "seed")?,
            steps: req_u64(json, "steps")?,
            wall_secs: req_f64(json, "wall_secs")?,
            sim_time: opt_u64(json, "sim_time")?,
            final_residual: req_f64(json, "final_residual")?,
            macro_iterations: req_u64(json, "macro_iterations")?,
            per_worker_updates: u64_vec(json, "per_worker_updates")?,
        })
    }
}

/// A whole gate run: schema version, run mode, and one record per
/// scenario cell.
#[derive(Debug, Clone, PartialEq)]
pub struct GateDoc {
    /// Schema version ([`SCHEMA_VERSION`] when produced by this build).
    pub schema_version: u64,
    /// `"quick"` or `"full"`.
    pub mode: String,
    /// The matrix cells.
    pub records: Vec<GateRecord>,
}

impl GateDoc {
    /// A new document at the current schema version.
    pub fn new(mode: &str, records: Vec<GateRecord>) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            mode: mode.to_string(),
            records,
        }
    }

    /// Serializes the document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "schema_version".into(),
                Json::Num(self.schema_version as f64),
            ),
            ("mode".into(), Json::Str(self.mode.clone())),
            (
                "records".into(),
                Json::Arr(self.records.iter().map(GateRecord::to_json).collect()),
            ),
        ])
    }

    /// Parses a document, rejecting any schema version other than
    /// [`SCHEMA_VERSION`].
    ///
    /// # Errors
    /// Schema mismatch, missing or mistyped fields.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let schema_version = req_u64(json, "schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(JsonError::semantic(format!(
                "unsupported schema_version {schema_version} (this build reads {SCHEMA_VERSION}); \
                 regenerate the file with the current gate binary"
            )));
        }
        let records = req(json, "records")?
            .as_arr()
            .ok_or_else(|| JsonError::semantic("field `records` is not an array"))?
            .iter()
            .map(GateRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            schema_version,
            mode: req_str(json, "mode")?,
            records,
        })
    }

    /// Renders the document as pretty JSON (the on-disk format).
    pub fn render(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Parses document text.
    ///
    /// # Errors
    /// Syntax errors, schema mismatch, missing or mistyped fields.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_record() -> GateRecord {
        GateRecord {
            problem: "jacobi".into(),
            backend: "replay".into(),
            delay: "bounded".into(),
            fidelity: "exact".into(),
            status: "ok".into(),
            note: String::new(),
            seed: 2022,
            steps: 2500,
            wall_secs: 0.0123,
            sim_time: None,
            final_residual: 3.25e-11,
            macro_iterations: 311,
            per_worker_updates: vec![100, 101, 99],
        }
    }

    #[test]
    fn scalar_round_trips() {
        for text in [
            "null", "true", "false", "0", "-1", "3.5", "1e-12", "\"hi\"", "[]", "{}",
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn u64_coercion_agrees_with_the_renderer() {
        let p53 = 2f64.powi(53);
        // Both sides share one predicate: `as_u64` is Some exactly when
        // the value is a nonnegative integer strictly below 2^53 that is
        // not -0.0 — the renderer's integer path. The historical
        // asymmetries are pinned: -0.0 renders as "-0" (sign preserved,
        // so it must NOT parse back as the integer 0), and 2^53 is
        // excluded on both sides (adjacent integers collide there).
        for (v, expect, rendered) in [
            (0.0, Some(0), "0"),
            (-0.0, None, "-0"),
            (1.0, Some(1), "1"),
            (p53 - 1.0, Some((1u64 << 53) - 1), "9007199254740991"),
            (p53, None, "9007199254740992"),
            (0.5, None, "0.5"),
            (-1.0, None, "-1"),
        ] {
            let n = Json::Num(v);
            assert_eq!(n.as_u64(), expect, "as_u64({v})");
            assert_eq!(n.render(), rendered, "render({v})");
            // Every form round-trips bit-exactly (including -0.0's sign).
            let back = Json::parse(rendered).unwrap();
            assert_eq!(
                back.as_f64().unwrap().to_bits(),
                v.to_bits(),
                "round trip of {v}"
            );
            // The parsed value classifies identically — render and parse
            // can never disagree about u64-ness again.
            assert_eq!(back.as_u64(), expect, "parsed as_u64({v})");
        }
    }

    #[test]
    fn float_round_trip_is_exact() {
        for v in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            2.2250738585072014e-308,
            -9.87e250,
            6.02214076e23,
            1.0 + f64::EPSILON,
            -0.0,
        ] {
            let rendered = Json::Num(v).render();
            let parsed = Json::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v} -> {rendered}");
        }
    }

    #[test]
    fn overflowing_number_literals_are_rejected() {
        for bad in ["1e999", "-1e999", "[1, 1e400]"] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.message.contains("out of range"), "{bad}: {err}");
        }
    }

    #[test]
    fn absurd_wall_secs_clamp_instead_of_panicking() {
        // wall_secs beyond Duration's range (finite, so it passes the
        // number parser) must clamp, not abort deserialization.
        let mut json = run_report_to_json(&sample_report());
        if let Json::Obj(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == "wall_secs" {
                    *v = Json::Num(1e300);
                }
            }
        }
        let parsed = run_report_from_json(&json).unwrap();
        assert_eq!(parsed.wall, Duration::ZERO);
    }

    #[test]
    fn non_finite_samples_round_trip_as_nan() {
        // Non-finite sample values render as null and must read back as
        // NaN rather than failing the whole report parse.
        let mut report = sample_report();
        report.errors = vec![(10, f64::INFINITY), (20, 0.5)];
        report.residuals = vec![(5, f64::NAN)];
        // Through text: rendering is where non-finite becomes null.
        let text = run_report_to_json(&report).render();
        let parsed = run_report_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert!(parsed.errors[0].1.is_nan());
        assert_eq!(parsed.errors[1], (20, 0.5));
        assert!(parsed.residuals[0].1.is_nan());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line1\nline2\ttab \"quoted\" back\\slash — ünïcødé \u{1}";
        let rendered = Json::Str(s.to_string()).render();
        assert_eq!(Json::parse(&rendered).unwrap().as_str().unwrap(), s);
        // Escaped surrogate pair.
        assert_eq!(
            Json::parse("\"\\ud83e\\udd80\"").unwrap().as_str().unwrap(),
            "🦀"
        );
    }

    #[test]
    fn multibyte_runs_survive_every_delimiter() {
        // Unescaped runs are copied by slice: multi-byte characters
        // directly before and after an escape, a quote and a `\uXXXX` pair.
        let text = r#""ü—\né\"🦀\\—\u00e9ü\ud83e\udd80—""#;
        let parsed = Json::parse(text).unwrap();
        assert_eq!(parsed.as_str().unwrap(), "ü—\né\"🦀\\—éü🦀—");
        assert_eq!(Json::parse(&parsed.render()).unwrap(), parsed);
        // An escape cannot swallow (half of) a character.
        for bad in ["\"\\é\"", "\"\\u00é\"", "\"\\u000é\""] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn malformed_surrogates_error_instead_of_panicking() {
        for bad in [
            "\"\\ud800\\u0041\"", // high surrogate chained to a non-low escape
            "\"\\ud800x\"",       // high surrogate followed by a plain char
            "\"\\udc00\"",        // lone low surrogate
            "\"\\ud800\"",        // lone high surrogate
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(
                err.message.contains("unicode") || err.message.contains("escape"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn parse_errors_carry_position() {
        for bad in ["", "[1, 2", "{\"a\":}", "tru", "1 2", "{'a': 1}", "[1,]"] {
            let err = Json::parse(bad).unwrap_err();
            assert!(!err.message.is_empty(), "{bad}: {err}");
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let text = r#"{"z": 1, "a": 2, "m": {"x": [1, 2, 3]}}"#;
        let v = Json::parse(text).unwrap();
        match &v {
            Json::Obj(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["z", "a", "m"]);
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn gate_record_round_trips() {
        let rec = sample_record();
        let parsed = GateRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(parsed, rec);
        // Through text as well.
        let text = rec.to_json().render();
        let parsed = GateRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, rec);
    }

    #[test]
    fn gate_doc_round_trips_pretty_and_compact() {
        let mut with_sim = sample_record();
        with_sim.backend = "sim".into();
        with_sim.sim_time = Some(421);
        let doc = GateDoc::new("quick", vec![sample_record(), with_sim]);
        assert_eq!(GateDoc::parse(&doc.render()).unwrap(), doc);
        assert_eq!(GateDoc::parse(&doc.to_json().render()).unwrap(), doc);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let mut doc = GateDoc::new("quick", vec![sample_record()]);
        doc.schema_version = SCHEMA_VERSION + 1;
        let err = GateDoc::parse(&doc.render()).unwrap_err();
        assert!(err.message.contains("schema_version"), "{err}");
    }

    #[test]
    fn run_report_round_trips() {
        let mut report = RunReport {
            backend: "flexible",
            final_x: vec![1.0, -0.25, 1.0 / 3.0],
            steps: 2000,
            macro_iterations: 57,
            errors: vec![(10, 0.5), (20, 0.125)],
            error_times: vec![11, 21],
            residuals: vec![(5, 1e-3)],
            final_residual: 4.75e-12,
            stopped_early: true,
            per_worker_updates: vec![7, 9],
            partial_publishes: 13,
            partial_reads: 4,
            constraint_checked: 21,
            constraint_violations: 2,
            trace: None,
            sim_time: Some(999),
            channel: Some(ClusterStats {
                sent: 96,
                delivered: 90,
                dropped: 9,
                duplicated: 3,
                held: 27,
                discarded_stale: 11,
            }),
            tenant: Some(5),
            job: Some(41),
            wall: Duration::ZERO,
        };
        report.set_wall_secs(0.25);
        let parsed = run_report_from_json(&run_report_to_json(&report)).unwrap();
        assert_eq!(parsed.backend, report.backend);
        assert_eq!(parsed.final_x, report.final_x);
        assert_eq!(parsed.steps, report.steps);
        assert_eq!(parsed.macro_iterations, report.macro_iterations);
        assert_eq!(parsed.errors, report.errors);
        assert_eq!(parsed.error_times, report.error_times);
        assert_eq!(parsed.residuals, report.residuals);
        assert_eq!(parsed.final_residual, report.final_residual);
        assert_eq!(parsed.stopped_early, report.stopped_early);
        assert_eq!(parsed.per_worker_updates, report.per_worker_updates);
        assert_eq!(parsed.partial_publishes, report.partial_publishes);
        assert_eq!(parsed.partial_reads, report.partial_reads);
        assert_eq!(parsed.constraint_checked, report.constraint_checked);
        assert_eq!(parsed.constraint_violations, report.constraint_violations);
        assert_eq!(parsed.sim_time, report.sim_time);
        assert_eq!(parsed.channel, report.channel);
        assert_eq!(parsed.tenant, report.tenant);
        assert_eq!(parsed.job, report.job);
        assert_eq!(parsed.wall, report.wall);
        assert!(parsed.trace.is_none());
    }

    #[test]
    fn cluster_backend_name_round_trips() {
        // The sixth backend must survive the serialisation round trip
        // (canonical_backend_name knows it).
        let mut report = sample_report();
        report.backend = "cluster";
        report.constraint_checked = 7;
        report.constraint_violations = 2;
        let parsed = run_report_from_json(&run_report_to_json(&report)).unwrap();
        assert_eq!(parsed.backend, "cluster");
        assert_eq!(parsed.constraint_checked, 7);
        assert_eq!(parsed.constraint_violations, 2);
    }

    #[test]
    fn threaded_cluster_backend_name_round_trips() {
        // The seventh backend must survive the serialisation round trip
        // (canonical_backend_name knows it).
        let mut report = sample_report();
        report.backend = "threaded-cluster";
        let parsed = run_report_from_json(&run_report_to_json(&report)).unwrap();
        assert_eq!(parsed.backend, "threaded-cluster");
    }

    #[test]
    fn unknown_backend_name_canonicalises() {
        let mut json = run_report_to_json(
            &run_report_from_json(&run_report_to_json(&sample_report())).unwrap(),
        );
        if let Json::Obj(fields) = &mut json {
            fields[0].1 = Json::Str("mystery-engine".into());
        }
        assert_eq!(run_report_from_json(&json).unwrap().backend, "unknown");
    }

    fn sample_report() -> RunReport {
        RunReport::new("replay", vec![0.0], 1, 0.0)
    }

    #[test]
    fn constructor_built_report_round_trips_at_its_documented_defaults() {
        // `RunReport::new` is the one place the backend-independent
        // defaults are spelled; both the constructor and the parser's
        // absent-field handling must land on them.
        let built = RunReport::new("cluster", vec![0.5, -2.0], 17, 3.5e-9);
        let mut json = run_report_to_json(&built);
        let parsed = run_report_from_json(&json).unwrap();
        // A document written before `channel` existed does not have it.
        if let Json::Obj(fields) = &mut json {
            fields.retain(|(key, _)| key != "channel");
        }
        let older = run_report_from_json(&json).unwrap();
        for r in [&built, &parsed, &older] {
            assert_eq!(r.backend, "cluster");
            assert_eq!(r.final_x, vec![0.5, -2.0]);
            assert_eq!(r.steps, 17);
            assert_eq!(r.final_residual, 3.5e-9);
            assert_eq!(r.macro_iterations, 0);
            assert!(r.errors.is_empty() && r.error_times.is_empty() && r.residuals.is_empty());
            assert!(!r.stopped_early);
            assert!(r.per_worker_updates.is_empty());
            assert_eq!((r.partial_publishes, r.partial_reads), (0, 0));
            assert_eq!((r.constraint_checked, r.constraint_violations), (0, 0));
            assert!(r.trace.is_none());
            assert_eq!((r.sim_time, r.tenant, r.job), (None, None, None));
            assert_eq!(r.channel, None);
            assert_eq!(r.wall, Duration::ZERO);
        }
    }
}
