//! The wire schema: a hand-rolled JSON codec for every API type that
//! crosses the socket.
//!
//! The workspace vendors its dependencies, so there is no external
//! serde; this module is the serde layer. It has three floors:
//!
//! 1. [`Value`] — a small JSON document model, with [`parse`] (a
//!    recursion-capped, never-panicking parser returning typed
//!    [`DecodeError`]s) and [`encode`] (an allocating writer).
//! 2. Typed codecs — `encode_*` / `decode_*` pairs for
//!    [`Request`], [`Response`], [`ServeError`], `ServeResult` and
//!    [`ServiceStats`]. Enums travel as one-key tagged objects
//!    (`{"measure": {...}}`) or bare strings for unit variants
//!    (`"shutting_down"`); every round-trip is bit-identical, proven
//!    by proptest in `tests/codec_roundtrip.rs` and enforced
//!    per-variant by cfva-lint's L004.
//! 3. Frame envelopes — [`ClientFrame`] / [`ServerFrame`], the
//!    payloads of the length-prefixed frames in [`crate::frame`]:
//!    a versioned hello, `request_id`-correlated submissions and
//!    results (responses may return out of submission order), and a
//!    stats probe.
//!
//! Numbers are kept in three lanes (`u64` / `i64` / `f64`) so a
//! 64-bit counter survives without a float detour; floats encode via
//! Rust's shortest round-trip formatting (`{:?}`), so `f64` fields are
//! bit-identical after a round trip too. Non-finite floats encode as
//! the strings `"nan"` / `"inf"` / `"-inf"` (JSON has no spelling for
//! them); NaN canonicalizes to `f64::NAN`.
//!
//! Decoding [`ConfigError`] needs `&'static str` fields; those are
//! re-materialized through an append-only, deduplicating intern pool
//! (class `WireIntern` — see `cfva_serve::locks`). The pool leaks by
//! design, bounded by the number of *distinct* strings decoded.

use std::time::Duration;

use cfva_core::ConfigError;
use cfva_core::VectorSpec;
use cfva_memsim::{AccessStats, IssuePolicy};
use cfva_serve::api::{
    Estimator, FamilyPoint, MultiStreamOutcome, Request, Response, SchedulePlan, ServeError,
    ServeResult, StreamSummary,
};
use cfva_serve::locks::{ClassedMutex, LockClass};
use cfva_serve::service::ServiceStats;
use cfva_serve::CacheStats;
use std::sync::OnceLock;

use cfva_core::plan::Strategy;

/// Maximum nesting depth [`parse`] accepts before returning a typed
/// error instead of risking the stack. The deepest legitimate wire
/// document is a `Response::Degraded` chain; the service produces
/// depth ≤ 2 of those, so 96 is generous.
pub const MAX_DEPTH: u32 = 96;

// ---------------------------------------------------------------------
// Document model
// ---------------------------------------------------------------------

/// A parsed JSON document.
///
/// Object fields keep their order (a `Vec`, not a map): encoding is
/// deterministic and round-trips preserve field order, which keeps
/// the codec's output canonical for byte-level comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no sign, no fraction, no
    /// exponent).
    UInt(u64),
    /// A negative integer literal.
    Int(i64),
    /// A literal with a fraction or exponent.
    Float(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in source/encode order.
    Obj(Vec<(String, Value)>),
}

/// Why a wire payload failed to decode.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The text is not well-formed JSON (or exceeds [`MAX_DEPTH`]).
    Syntax {
        /// Byte offset of the failure.
        offset: usize,
        /// What the parser expected or rejected.
        reason: &'static str,
    },
    /// Well-formed JSON that does not match the expected shape.
    Schema {
        /// The type or field being decoded.
        what: &'static str,
        /// What was wrong with the value.
        reason: String,
    },
    /// A decoded value failed domain validation (for example a
    /// `VectorSpec` whose stride is zero) — the same typed error the
    /// in-process constructor returns.
    Invalid(ConfigError),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Syntax { offset, reason } => {
                write!(f, "malformed JSON at byte {offset}: {reason}")
            }
            DecodeError::Schema { what, reason } => {
                write!(f, "unexpected shape for {what}: {reason}")
            }
            DecodeError::Invalid(e) => write!(f, "decoded value rejected: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn schema(what: &'static str, reason: impl Into<String>) -> DecodeError {
    DecodeError::Schema {
        what,
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------

/// Encodes a [`Value`] as compact JSON (no whitespace).
///
/// Non-finite floats encode as the strings `"nan"` / `"inf"` /
/// `"-inf"`; finite floats use Rust's shortest round-trip formatting.
#[must_use]
pub fn encode(value: &Value) -> String {
    let mut out = String::new();
    write_value(value, &mut out);
    out
}

fn write_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::UInt(n) => {
            out.push_str(&n.to_string());
        }
        Value::Int(n) => {
            out.push_str(&n.to_string());
        }
        Value::Float(x) => {
            if x.is_finite() {
                // `{:?}` is Rust's shortest representation that parses
                // back to the same bits — "2.0" stays a float lane,
                // "1e300" stays compact.
                out.push_str(&format!("{x:?}"));
            } else if x.is_nan() {
                out.push_str("\"nan\"");
            } else if *x > 0.0 {
                out.push_str("\"inf\"");
            } else {
                out.push_str("\"-inf\"");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_value(item, out);
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
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// Parses a JSON document.
///
/// Never panics on any input: malformed text, truncation, deep
/// nesting (capped at [`MAX_DEPTH`]) and out-of-range numbers all
/// return a typed [`DecodeError::Syntax`]. Trailing non-whitespace
/// after the top-level value is rejected.
pub fn parse(text: &str) -> Result<Value, DecodeError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after the top-level value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

impl Parser<'_> {
    fn err(&self, reason: &'static str) -> DecodeError {
        DecodeError::Syntax {
            offset: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, byte: u8, reason: &'static str) -> Result<(), DecodeError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    /// `self.text[a..b]`, as a typed error instead of a panic if the
    /// range is somehow out of bounds.
    fn slice(&self, a: usize, b: usize) -> Result<&str, DecodeError> {
        self.text.get(a..b).ok_or(DecodeError::Syntax {
            offset: a,
            reason: "internal: slice out of range",
        })
    }

    fn literal(&mut self, lit: &'static str, value: Value) -> Result<Value, DecodeError> {
        let end = self.pos + lit.len();
        if self.text.get(self.pos..end) == Some(lit) {
            self.pos = end;
            Ok(value)
        } else {
            Err(self.err("unrecognized literal"))
        }
    }

    fn value(&mut self) -> Result<Value, DecodeError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn enter(&mut self) -> Result<(), DecodeError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Value, DecodeError> {
        self.expect_byte(b'[', "expected '['")?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, DecodeError> {
        self.expect_byte(b'{', "expected '{'")?;
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        self.expect_byte(b'"', "expected '\"'")?;
        let mut out = String::new();
        let mut run_start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(self.slice(run_start, self.pos)?);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(self.slice(run_start, self.pos)?);
                    self.pos += 1;
                    self.escape(&mut out)?;
                    run_start = self.pos;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("control character in string"));
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), DecodeError> {
        let Some(b) = self.peek() else {
            return Err(self.err("truncated escape"));
        };
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0c}'),
            b'u' => {
                let high = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&high) {
                    // High surrogate: a `\uXXXX` low surrogate must
                    // follow; combine into one scalar value.
                    self.expect_byte(b'\\', "high surrogate not followed by \\u escape")?;
                    self.expect_byte(b'u', "high surrogate not followed by \\u escape")?;
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.err("high surrogate not followed by low surrogate"));
                    }
                    0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
                } else {
                    high
                };
                match char::from_u32(code) {
                    Some(c) => out.push(c),
                    None => return Err(self.err("escape is not a unicode scalar value")),
                }
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, DecodeError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            code = (code << 4) | digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, DecodeError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("digit expected in number"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let lit = self.slice(start, self.pos)?;
        if float {
            lit.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("malformed float"))
        } else if negative {
            lit.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err("integer does not fit in i64"))
        } else {
            lit.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| self.err("integer does not fit in u64"))
        }
    }
}

// ---------------------------------------------------------------------
// Scalar codec helpers
// ---------------------------------------------------------------------

fn obj(fields: Vec<(&'static str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One-key tagged object: the enum-variant encoding.
fn tag(name: &'static str, inner: Value) -> Value {
    Value::Obj(vec![(name.to_string(), inner)])
}

fn as_obj<'v>(value: &'v Value, what: &'static str) -> Result<&'v [(String, Value)], DecodeError> {
    match value {
        Value::Obj(fields) => Ok(fields),
        other => Err(schema(what, format!("expected an object, got {other:?}"))),
    }
}

fn as_arr<'v>(value: &'v Value, what: &'static str) -> Result<&'v [Value], DecodeError> {
    match value {
        Value::Arr(items) => Ok(items),
        other => Err(schema(what, format!("expected an array, got {other:?}"))),
    }
}

/// The value of a one-key tagged object, or the bare string of a unit
/// variant (returned as `(tag, None)`).
fn as_tagged<'v>(
    value: &'v Value,
    what: &'static str,
) -> Result<(&'v str, Option<&'v Value>), DecodeError> {
    match value {
        Value::Str(name) => Ok((name, None)),
        Value::Obj(fields) => match fields.first() {
            Some((name, inner)) if fields.len() == 1 => Ok((name, Some(inner))),
            _ => Err(schema(what, "expected exactly one variant tag")),
        },
        other => Err(schema(
            what,
            format!("expected a variant tag, got {other:?}"),
        )),
    }
}

fn field<'v>(
    fields: &'v [(String, Value)],
    key: &'static str,
    what: &'static str,
) -> Result<&'v Value, DecodeError> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| schema(what, format!("missing field `{key}`")))
}

fn opt_field<'v>(fields: &'v [(String, Value)], key: &'static str) -> Option<&'v Value> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .filter(|v| !matches!(v, Value::Null))
}

fn dec_u64(value: &Value, what: &'static str) -> Result<u64, DecodeError> {
    match value {
        Value::UInt(n) => Ok(*n),
        other => Err(schema(
            what,
            format!("expected a non-negative integer, got {other:?}"),
        )),
    }
}

fn dec_u32(value: &Value, what: &'static str) -> Result<u32, DecodeError> {
    u32::try_from(dec_u64(value, what)?)
        .map_err(|_| schema(what, "integer does not fit in u32".to_string()))
}

fn dec_usize(value: &Value, what: &'static str) -> Result<usize, DecodeError> {
    usize::try_from(dec_u64(value, what)?)
        .map_err(|_| schema(what, "integer does not fit in usize".to_string()))
}

fn enc_i64(n: i64) -> Value {
    if n < 0 {
        Value::Int(n)
    } else {
        Value::UInt(n as u64)
    }
}

fn dec_i64(value: &Value, what: &'static str) -> Result<i64, DecodeError> {
    match value {
        Value::Int(n) => Ok(*n),
        Value::UInt(n) => {
            i64::try_from(*n).map_err(|_| schema(what, "integer does not fit in i64".to_string()))
        }
        other => Err(schema(what, format!("expected an integer, got {other:?}"))),
    }
}

fn enc_f64(x: f64) -> Value {
    Value::Float(x)
}

fn dec_f64(value: &Value, what: &'static str) -> Result<f64, DecodeError> {
    match value {
        Value::Float(x) => Ok(*x),
        Value::UInt(n) => Ok(*n as f64),
        Value::Int(n) => Ok(*n as f64),
        Value::Str(s) if s == "nan" => Ok(f64::NAN),
        Value::Str(s) if s == "inf" => Ok(f64::INFINITY),
        Value::Str(s) if s == "-inf" => Ok(f64::NEG_INFINITY),
        other => Err(schema(what, format!("expected a number, got {other:?}"))),
    }
}

fn dec_bool(value: &Value, what: &'static str) -> Result<bool, DecodeError> {
    match value {
        Value::Bool(b) => Ok(*b),
        other => Err(schema(what, format!("expected a boolean, got {other:?}"))),
    }
}

fn dec_string(value: &Value, what: &'static str) -> Result<String, DecodeError> {
    match value {
        Value::Str(s) => Ok(s.clone()),
        other => Err(schema(what, format!("expected a string, got {other:?}"))),
    }
}

fn enc_u64_arr(items: &[u64]) -> Value {
    Value::Arr(items.iter().map(|n| Value::UInt(*n)).collect())
}

fn dec_u64_arr(value: &Value, what: &'static str) -> Result<Vec<u64>, DecodeError> {
    as_arr(value, what)?
        .iter()
        .map(|v| dec_u64(v, what))
        .collect()
}

fn enc_duration(d: Duration) -> Value {
    obj(vec![
        ("secs", Value::UInt(d.as_secs())),
        ("nanos", Value::UInt(u64::from(d.subsec_nanos()))),
    ])
}

fn dec_duration(value: &Value, what: &'static str) -> Result<Duration, DecodeError> {
    let fields = as_obj(value, what)?;
    let secs = dec_u64(field(fields, "secs", what)?, what)?;
    let nanos = dec_u32(field(fields, "nanos", what)?, what)?;
    if nanos >= 1_000_000_000 {
        return Err(schema(what, "nanos must be below 1e9".to_string()));
    }
    Ok(Duration::new(secs, nanos))
}

// ---------------------------------------------------------------------
// &'static str interning (ConfigError round trips)
// ---------------------------------------------------------------------

/// Re-materializes a `&'static str`: dedups against every string this
/// process has interned, leaking only the first occurrence. Equality
/// is by content — exactly what `ConfigError`'s derived `PartialEq`
/// compares, so round-tripped errors compare equal to the originals.
fn intern_str(s: &str) -> &'static str {
    static POOL: OnceLock<ClassedMutex<Vec<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| ClassedMutex::new(LockClass::WireIntern, Vec::new()));
    let mut guard = pool.lock();
    if let Some(hit) = guard.iter().find(|e| **e == s).copied() {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    guard.push(leaked);
    leaked
}

/// Re-materializes a `&'static [&'static str]`, deduplicating whole
/// slices by content.
fn intern_slice(items: Vec<&'static str>) -> &'static [&'static str] {
    static POOL: OnceLock<ClassedMutex<Vec<&'static [&'static str]>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| ClassedMutex::new(LockClass::WireIntern, Vec::new()));
    let mut guard = pool.lock();
    if let Some(hit) = guard.iter().find(|e| **e == items.as_slice()).copied() {
        return hit;
    }
    let leaked: &'static [&'static str] = Box::leak(items.into_boxed_slice());
    guard.push(leaked);
    leaked
}

// ---------------------------------------------------------------------
// Domain types
// ---------------------------------------------------------------------

fn enc_strategy(s: Strategy) -> Value {
    // The registry's spec-string vocabulary, same as `Display`.
    Value::Str(s.to_string())
}

fn dec_strategy(value: &Value, what: &'static str) -> Result<Strategy, DecodeError> {
    match value {
        Value::Str(name) => match name.as_str() {
            "canonical" => Ok(Strategy::Canonical),
            "subsequence" => Ok(Strategy::Subsequence),
            "conflict-free" => Ok(Strategy::ConflictFree),
            "auto" => Ok(Strategy::Auto),
            other => Err(schema(what, format!("unknown strategy `{other}`"))),
        },
        other => Err(schema(what, format!("expected a strategy, got {other:?}"))),
    }
}

fn enc_policy(p: IssuePolicy) -> Value {
    Value::Str(p.to_string())
}

fn dec_policy(value: &Value, what: &'static str) -> Result<IssuePolicy, DecodeError> {
    match value {
        Value::Str(name) => match name.as_str() {
            "round-robin" => Ok(IssuePolicy::RoundRobin),
            "priority" => Ok(IssuePolicy::Priority),
            "work-conserving" => Ok(IssuePolicy::WorkConserving),
            other => Err(schema(what, format!("unknown issue policy `{other}`"))),
        },
        other => Err(schema(
            what,
            format!("expected an issue policy, got {other:?}"),
        )),
    }
}

fn enc_estimator(e: Estimator) -> Value {
    match e {
        Estimator::MonteCarlo {
            samples,
            max_x,
            max_sigma,
        } => tag(
            "monte_carlo",
            obj(vec![
                ("samples", Value::UInt(u64::from(samples))),
                ("max_x", Value::UInt(u64::from(max_x))),
                ("max_sigma", Value::UInt(max_sigma)),
            ]),
        ),
        Estimator::Stratified { max_x, per_family } => tag(
            "stratified",
            obj(vec![
                ("max_x", Value::UInt(u64::from(max_x))),
                ("per_family", Value::UInt(u64::from(per_family))),
            ]),
        ),
    }
}

fn dec_estimator(value: &Value, what: &'static str) -> Result<Estimator, DecodeError> {
    match as_tagged(value, what)? {
        ("monte_carlo", Some(inner)) => {
            let fields = as_obj(inner, what)?;
            Ok(Estimator::MonteCarlo {
                samples: dec_u32(field(fields, "samples", what)?, what)?,
                max_x: dec_u32(field(fields, "max_x", what)?, what)?,
                max_sigma: dec_u64(field(fields, "max_sigma", what)?, what)?,
            })
        }
        ("stratified", Some(inner)) => {
            let fields = as_obj(inner, what)?;
            Ok(Estimator::Stratified {
                max_x: dec_u32(field(fields, "max_x", what)?, what)?,
                per_family: dec_u32(field(fields, "per_family", what)?, what)?,
            })
        }
        (other, _) => Err(schema(what, format!("unknown estimator `{other}`"))),
    }
}

fn enc_schedule(s: SchedulePlan) -> Value {
    match s {
        SchedulePlan::Together => Value::Str("together".to_string()),
        SchedulePlan::FifoWaves { width } => tag(
            "fifo_waves",
            obj(vec![("width", Value::UInt(u64::from(width)))]),
        ),
        SchedulePlan::ConflictAware {
            width,
            max_score_milli,
        } => tag(
            "conflict_aware",
            obj(vec![
                ("width", Value::UInt(u64::from(width))),
                ("max_score_milli", Value::UInt(u64::from(max_score_milli))),
            ]),
        ),
    }
}

fn dec_schedule(value: &Value, what: &'static str) -> Result<SchedulePlan, DecodeError> {
    match as_tagged(value, what)? {
        ("together", None) => Ok(SchedulePlan::Together),
        ("fifo_waves", Some(inner)) => {
            let fields = as_obj(inner, what)?;
            Ok(SchedulePlan::FifoWaves {
                width: dec_u32(field(fields, "width", what)?, what)?,
            })
        }
        ("conflict_aware", Some(inner)) => {
            let fields = as_obj(inner, what)?;
            Ok(SchedulePlan::ConflictAware {
                width: dec_u32(field(fields, "width", what)?, what)?,
                max_score_milli: dec_u32(field(fields, "max_score_milli", what)?, what)?,
            })
        }
        (other, _) => Err(schema(what, format!("unknown schedule plan `{other}`"))),
    }
}

fn enc_vector_spec(v: &VectorSpec) -> Value {
    obj(vec![
        ("base", Value::UInt(v.base().get())),
        ("stride", enc_i64(v.stride().get())),
        ("len", Value::UInt(v.len())),
    ])
}

/// Decodes through [`VectorSpec::new`], so a hostile peer cannot smuggle
/// in a spec the in-process constructor would reject (zero stride,
/// address overflow): the wire re-validates and returns the same typed
/// [`ConfigError`].
fn dec_vector_spec(value: &Value, what: &'static str) -> Result<VectorSpec, DecodeError> {
    let fields = as_obj(value, what)?;
    let base = dec_u64(field(fields, "base", what)?, what)?;
    let stride = dec_i64(field(fields, "stride", what)?, what)?;
    let len = dec_u64(field(fields, "len", what)?, what)?;
    VectorSpec::new(base, stride, len).map_err(DecodeError::Invalid)
}

fn enc_access_stats(s: &AccessStats) -> Value {
    obj(vec![
        ("latency", Value::UInt(s.latency)),
        ("elements", Value::UInt(s.elements)),
        ("stall_cycles", Value::UInt(s.stall_cycles)),
        ("conflicts", Value::UInt(s.conflicts)),
        ("arrival", enc_u64_arr(&s.arrival)),
        ("module_busy", enc_u64_arr(&s.module_busy)),
        ("max_in_q", Value::UInt(s.max_in_q as u64)),
    ])
}

fn dec_access_stats(value: &Value, what: &'static str) -> Result<AccessStats, DecodeError> {
    let fields = as_obj(value, what)?;
    Ok(AccessStats {
        latency: dec_u64(field(fields, "latency", what)?, what)?,
        elements: dec_u64(field(fields, "elements", what)?, what)?,
        stall_cycles: dec_u64(field(fields, "stall_cycles", what)?, what)?,
        conflicts: dec_u64(field(fields, "conflicts", what)?, what)?,
        arrival: dec_u64_arr(field(fields, "arrival", what)?, what)?,
        module_busy: dec_u64_arr(field(fields, "module_busy", what)?, what)?,
        max_in_q: dec_usize(field(fields, "max_in_q", what)?, what)?,
    })
}

fn enc_opt_access_stats(s: &Option<AccessStats>) -> Value {
    match s {
        Some(stats) => enc_access_stats(stats),
        None => Value::Null,
    }
}

fn dec_opt_access_stats(
    value: &Value,
    what: &'static str,
) -> Result<Option<AccessStats>, DecodeError> {
    match value {
        Value::Null => Ok(None),
        other => dec_access_stats(other, what).map(Some),
    }
}

fn enc_family_point(p: &FamilyPoint) -> Value {
    obj(vec![
        ("x", Value::UInt(u64::from(p.x))),
        ("stride", enc_i64(p.stride)),
        ("latency", Value::UInt(p.latency)),
        ("conflicts", Value::UInt(p.conflicts)),
        ("stall_cycles", Value::UInt(p.stall_cycles)),
        ("cycles_per_element", enc_f64(p.cycles_per_element)),
    ])
}

fn dec_family_point(value: &Value, what: &'static str) -> Result<FamilyPoint, DecodeError> {
    let fields = as_obj(value, what)?;
    Ok(FamilyPoint {
        x: dec_u32(field(fields, "x", what)?, what)?,
        stride: dec_i64(field(fields, "stride", what)?, what)?,
        latency: dec_u64(field(fields, "latency", what)?, what)?,
        conflicts: dec_u64(field(fields, "conflicts", what)?, what)?,
        stall_cycles: dec_u64(field(fields, "stall_cycles", what)?, what)?,
        cycles_per_element: dec_f64(field(fields, "cycles_per_element", what)?, what)?,
    })
}

fn enc_stream_summary(s: &StreamSummary) -> Value {
    obj(vec![
        ("wave", Value::UInt(u64::from(s.wave))),
        ("elements", Value::UInt(s.elements)),
        ("first_issue", Value::UInt(s.first_issue)),
        ("latency", Value::UInt(s.latency)),
        ("spread", Value::UInt(s.spread)),
        ("conflicts", Value::UInt(s.conflicts)),
        ("stall_cycles", Value::UInt(s.stall_cycles)),
    ])
}

fn dec_stream_summary(value: &Value, what: &'static str) -> Result<StreamSummary, DecodeError> {
    let fields = as_obj(value, what)?;
    Ok(StreamSummary {
        wave: dec_u32(field(fields, "wave", what)?, what)?,
        elements: dec_u64(field(fields, "elements", what)?, what)?,
        first_issue: dec_u64(field(fields, "first_issue", what)?, what)?,
        latency: dec_u64(field(fields, "latency", what)?, what)?,
        spread: dec_u64(field(fields, "spread", what)?, what)?,
        conflicts: dec_u64(field(fields, "conflicts", what)?, what)?,
        stall_cycles: dec_u64(field(fields, "stall_cycles", what)?, what)?,
    })
}

fn enc_multi_stream_outcome(o: &MultiStreamOutcome) -> Value {
    obj(vec![
        (
            "per_stream",
            Value::Arr(o.per_stream.iter().map(enc_stream_summary).collect()),
        ),
        ("wave_makespans", enc_u64_arr(&o.wave_makespans)),
        ("makespan", Value::UInt(o.makespan)),
        ("sequential_baseline", Value::UInt(o.sequential_baseline)),
        (
            "predicted_conflicts_milli",
            Value::UInt(o.predicted_conflicts_milli),
        ),
        ("actual_conflicts", Value::UInt(o.actual_conflicts)),
    ])
}

fn dec_multi_stream_outcome(
    value: &Value,
    what: &'static str,
) -> Result<MultiStreamOutcome, DecodeError> {
    let fields = as_obj(value, what)?;
    Ok(MultiStreamOutcome {
        per_stream: as_arr(field(fields, "per_stream", what)?, what)?
            .iter()
            .map(|v| dec_stream_summary(v, what))
            .collect::<Result<_, _>>()?,
        wave_makespans: dec_u64_arr(field(fields, "wave_makespans", what)?, what)?,
        makespan: dec_u64(field(fields, "makespan", what)?, what)?,
        sequential_baseline: dec_u64(field(fields, "sequential_baseline", what)?, what)?,
        predicted_conflicts_milli: dec_u64(
            field(fields, "predicted_conflicts_milli", what)?,
            what,
        )?,
        actual_conflicts: dec_u64(field(fields, "actual_conflicts", what)?, what)?,
    })
}

// ---------------------------------------------------------------------
// ConfigError
// ---------------------------------------------------------------------

fn enc_config_error(e: &ConfigError) -> Value {
    match e {
        ConfigError::NotPowerOfTwo { what, value } => tag(
            "not_power_of_two",
            obj(vec![
                ("what", Value::Str((*what).to_string())),
                ("value", Value::UInt(*value)),
            ]),
        ),
        ConfigError::OutOfRange {
            what,
            value,
            constraint,
        } => tag(
            "out_of_range",
            obj(vec![
                ("what", Value::Str((*what).to_string())),
                ("value", Value::UInt(*value)),
                ("constraint", Value::Str((*constraint).to_string())),
            ]),
        ),
        ConfigError::ZeroStride => Value::Str("zero_stride".to_string()),
        ConfigError::SingularMatrix => Value::Str("singular_matrix".to_string()),
        ConfigError::AddressOverflow => Value::Str("address_overflow".to_string()),
        ConfigError::SpecSyntax { spec, reason } => tag(
            "spec_syntax",
            obj(vec![
                ("spec", Value::Str(spec.clone())),
                ("reason", Value::Str(reason.clone())),
            ]),
        ),
        ConfigError::UnknownMap { name, registered } => tag(
            "unknown_map",
            obj(vec![
                ("name", Value::Str(name.clone())),
                (
                    "registered",
                    Value::Arr(registered.iter().map(|s| Value::Str(s.clone())).collect()),
                ),
            ]),
        ),
        ConfigError::MissingKey { map, key } => tag(
            "missing_key",
            obj(vec![
                ("map", Value::Str(map.clone())),
                ("key", Value::Str((*key).to_string())),
            ]),
        ),
        ConfigError::UnknownKey { map, key, accepted } => tag(
            "unknown_key",
            obj(vec![
                ("map", Value::Str(map.clone())),
                ("key", Value::Str(key.clone())),
                (
                    "accepted",
                    Value::Arr(
                        accepted
                            .iter()
                            .map(|s| Value::Str((*s).to_string()))
                            .collect(),
                    ),
                ),
            ]),
        ),
        ConfigError::DuplicateKey { key } => {
            tag("duplicate_key", obj(vec![("key", Value::Str(key.clone()))]))
        }
        ConfigError::InvalidValue {
            key,
            value,
            expected,
        } => tag(
            "invalid_value",
            obj(vec![
                ("key", Value::Str(key.clone())),
                ("value", Value::Str(value.clone())),
                ("expected", Value::Str((*expected).to_string())),
            ]),
        ),
        ConfigError::MatrixFile { path, reason } => tag(
            "matrix_file",
            obj(vec![
                ("path", Value::Str(path.clone())),
                ("reason", Value::Str(reason.clone())),
            ]),
        ),
        ConfigError::DuplicateMap { name } => tag(
            "duplicate_map",
            obj(vec![("name", Value::Str(name.clone()))]),
        ),
    }
}

fn dec_config_error(value: &Value, what: &'static str) -> Result<ConfigError, DecodeError> {
    match as_tagged(value, what)? {
        ("zero_stride", None) => Ok(ConfigError::ZeroStride),
        ("singular_matrix", None) => Ok(ConfigError::SingularMatrix),
        ("address_overflow", None) => Ok(ConfigError::AddressOverflow),
        ("not_power_of_two", Some(inner)) => {
            let fields = as_obj(inner, what)?;
            Ok(ConfigError::NotPowerOfTwo {
                what: intern_str(&dec_string(field(fields, "what", what)?, what)?),
                value: dec_u64(field(fields, "value", what)?, what)?,
            })
        }
        ("out_of_range", Some(inner)) => {
            let fields = as_obj(inner, what)?;
            Ok(ConfigError::OutOfRange {
                what: intern_str(&dec_string(field(fields, "what", what)?, what)?),
                value: dec_u64(field(fields, "value", what)?, what)?,
                constraint: intern_str(&dec_string(field(fields, "constraint", what)?, what)?),
            })
        }
        ("spec_syntax", Some(inner)) => {
            let fields = as_obj(inner, what)?;
            Ok(ConfigError::SpecSyntax {
                spec: dec_string(field(fields, "spec", what)?, what)?,
                reason: dec_string(field(fields, "reason", what)?, what)?,
            })
        }
        ("unknown_map", Some(inner)) => {
            let fields = as_obj(inner, what)?;
            Ok(ConfigError::UnknownMap {
                name: dec_string(field(fields, "name", what)?, what)?,
                registered: as_arr(field(fields, "registered", what)?, what)?
                    .iter()
                    .map(|v| dec_string(v, what))
                    .collect::<Result<_, _>>()?,
            })
        }
        ("missing_key", Some(inner)) => {
            let fields = as_obj(inner, what)?;
            Ok(ConfigError::MissingKey {
                map: dec_string(field(fields, "map", what)?, what)?,
                key: intern_str(&dec_string(field(fields, "key", what)?, what)?),
            })
        }
        ("unknown_key", Some(inner)) => {
            let fields = as_obj(inner, what)?;
            let accepted: Vec<&'static str> = as_arr(field(fields, "accepted", what)?, what)?
                .iter()
                .map(|v| dec_string(v, what).map(|s| intern_str(&s)))
                .collect::<Result<_, _>>()?;
            Ok(ConfigError::UnknownKey {
                map: dec_string(field(fields, "map", what)?, what)?,
                key: dec_string(field(fields, "key", what)?, what)?,
                accepted: intern_slice(accepted),
            })
        }
        ("duplicate_key", Some(inner)) => {
            let fields = as_obj(inner, what)?;
            Ok(ConfigError::DuplicateKey {
                key: dec_string(field(fields, "key", what)?, what)?,
            })
        }
        ("invalid_value", Some(inner)) => {
            let fields = as_obj(inner, what)?;
            Ok(ConfigError::InvalidValue {
                key: dec_string(field(fields, "key", what)?, what)?,
                value: dec_string(field(fields, "value", what)?, what)?,
                expected: intern_str(&dec_string(field(fields, "expected", what)?, what)?),
            })
        }
        ("matrix_file", Some(inner)) => {
            let fields = as_obj(inner, what)?;
            Ok(ConfigError::MatrixFile {
                path: dec_string(field(fields, "path", what)?, what)?,
                reason: dec_string(field(fields, "reason", what)?, what)?,
            })
        }
        ("duplicate_map", Some(inner)) => {
            let fields = as_obj(inner, what)?;
            Ok(ConfigError::DuplicateMap {
                name: dec_string(field(fields, "name", what)?, what)?,
            })
        }
        (other, _) => Err(schema(what, format!("unknown config error `{other}`"))),
    }
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

fn enc_cache_stats(c: &CacheStats) -> Value {
    obj(vec![
        ("hits", Value::UInt(c.hits)),
        ("misses", Value::UInt(c.misses)),
        ("evictions", Value::UInt(c.evictions)),
        ("bypasses", Value::UInt(c.bypasses)),
        ("invalidations", Value::UInt(c.invalidations)),
        ("entries", Value::UInt(c.entries as u64)),
        ("capacity", Value::UInt(c.capacity as u64)),
    ])
}

fn dec_cache_stats(value: &Value, what: &'static str) -> Result<CacheStats, DecodeError> {
    let fields = as_obj(value, what)?;
    Ok(CacheStats {
        hits: dec_u64(field(fields, "hits", what)?, what)?,
        misses: dec_u64(field(fields, "misses", what)?, what)?,
        evictions: dec_u64(field(fields, "evictions", what)?, what)?,
        bypasses: dec_u64(field(fields, "bypasses", what)?, what)?,
        invalidations: dec_u64(field(fields, "invalidations", what)?, what)?,
        entries: dec_usize(field(fields, "entries", what)?, what)?,
        capacity: dec_usize(field(fields, "capacity", what)?, what)?,
    })
}

fn service_stats_to_value(s: &ServiceStats) -> Value {
    obj(vec![
        ("queue_depth", Value::UInt(s.queue_depth as u64)),
        ("in_flight", Value::UInt(s.in_flight as u64)),
        (
            "cache",
            match &s.cache {
                Some(c) => enc_cache_stats(c),
                None => Value::Null,
            },
        ),
        ("retries", Value::UInt(s.retries)),
        ("restarts", Value::UInt(s.restarts)),
        ("deadline_exceeded", Value::UInt(s.deadline_exceeded)),
        ("degraded", Value::UInt(s.degraded)),
        ("faults_injected", Value::UInt(s.faults_injected)),
        (
            "scheduler_predicted_conflicts_milli",
            Value::UInt(s.scheduler_predicted_conflicts_milli),
        ),
        (
            "scheduler_actual_conflicts",
            Value::UInt(s.scheduler_actual_conflicts),
        ),
        ("wire_connections", Value::UInt(s.wire_connections)),
        ("wire_rejections", Value::UInt(s.wire_rejections)),
        ("wire_in_flight", Value::UInt(s.wire_in_flight as u64)),
    ])
}

fn service_stats_from_value(value: &Value) -> Result<ServiceStats, DecodeError> {
    const WHAT: &str = "ServiceStats";
    let fields = as_obj(value, WHAT)?;
    Ok(ServiceStats {
        queue_depth: dec_usize(field(fields, "queue_depth", WHAT)?, WHAT)?,
        in_flight: dec_usize(field(fields, "in_flight", WHAT)?, WHAT)?,
        cache: match opt_field(fields, "cache") {
            Some(v) => Some(dec_cache_stats(v, WHAT)?),
            None => None,
        },
        retries: dec_u64(field(fields, "retries", WHAT)?, WHAT)?,
        restarts: dec_u64(field(fields, "restarts", WHAT)?, WHAT)?,
        deadline_exceeded: dec_u64(field(fields, "deadline_exceeded", WHAT)?, WHAT)?,
        degraded: dec_u64(field(fields, "degraded", WHAT)?, WHAT)?,
        faults_injected: dec_u64(field(fields, "faults_injected", WHAT)?, WHAT)?,
        scheduler_predicted_conflicts_milli: dec_u64(
            field(fields, "scheduler_predicted_conflicts_milli", WHAT)?,
            WHAT,
        )?,
        scheduler_actual_conflicts: dec_u64(
            field(fields, "scheduler_actual_conflicts", WHAT)?,
            WHAT,
        )?,
        wire_connections: dec_u64(field(fields, "wire_connections", WHAT)?, WHAT)?,
        wire_rejections: dec_u64(field(fields, "wire_rejections", WHAT)?, WHAT)?,
        wire_in_flight: dec_usize(field(fields, "wire_in_flight", WHAT)?, WHAT)?,
    })
}

// ---------------------------------------------------------------------
// Request / Response / ServeError
// ---------------------------------------------------------------------

fn request_to_value(r: &Request) -> Value {
    match r {
        Request::Measure {
            spec,
            vec,
            strategy,
        } => tag(
            "measure",
            obj(vec![
                ("spec", Value::Str(spec.clone())),
                ("vec", enc_vector_spec(vec)),
                ("strategy", enc_strategy(*strategy)),
            ]),
        ),
        Request::MeasureBatch { spec, accesses } => tag(
            "measure_batch",
            obj(vec![
                ("spec", Value::Str(spec.clone())),
                (
                    "accesses",
                    Value::Arr(
                        accesses
                            .iter()
                            .map(|(v, s)| {
                                obj(vec![
                                    ("vec", enc_vector_spec(v)),
                                    ("strategy", enc_strategy(*s)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        Request::FamilySweep {
            spec,
            len,
            max_x,
            sigma,
        } => tag(
            "family_sweep",
            obj(vec![
                ("spec", Value::Str(spec.clone())),
                ("len", Value::UInt(*len)),
                ("max_x", Value::UInt(u64::from(*max_x))),
                ("sigma", enc_i64(*sigma)),
            ]),
        ),
        Request::Efficiency {
            spec,
            strategy,
            len,
            estimator,
            seed,
        } => tag(
            "efficiency",
            obj(vec![
                ("spec", Value::Str(spec.clone())),
                ("strategy", enc_strategy(*strategy)),
                ("len", Value::UInt(*len)),
                ("estimator", enc_estimator(*estimator)),
                ("seed", Value::UInt(*seed)),
            ]),
        ),
        Request::MultiStream {
            spec,
            streams,
            strategy,
            policy,
            schedule,
        } => tag(
            "multi_stream",
            obj(vec![
                ("spec", Value::Str(spec.clone())),
                (
                    "streams",
                    Value::Arr(streams.iter().map(enc_vector_spec).collect()),
                ),
                ("strategy", enc_strategy(*strategy)),
                ("policy", enc_policy(*policy)),
                ("schedule", enc_schedule(*schedule)),
            ]),
        ),
    }
}

fn request_from_value(value: &Value) -> Result<Request, DecodeError> {
    const WHAT: &str = "Request";
    match as_tagged(value, WHAT)? {
        ("measure", Some(inner)) => {
            let fields = as_obj(inner, WHAT)?;
            Ok(Request::Measure {
                spec: dec_string(field(fields, "spec", WHAT)?, WHAT)?,
                vec: dec_vector_spec(field(fields, "vec", WHAT)?, WHAT)?,
                strategy: dec_strategy(field(fields, "strategy", WHAT)?, WHAT)?,
            })
        }
        ("measure_batch", Some(inner)) => {
            let fields = as_obj(inner, WHAT)?;
            let accesses = as_arr(field(fields, "accesses", WHAT)?, WHAT)?
                .iter()
                .map(|v| {
                    let pair = as_obj(v, WHAT)?;
                    Ok((
                        dec_vector_spec(field(pair, "vec", WHAT)?, WHAT)?,
                        dec_strategy(field(pair, "strategy", WHAT)?, WHAT)?,
                    ))
                })
                .collect::<Result<_, DecodeError>>()?;
            Ok(Request::MeasureBatch {
                spec: dec_string(field(fields, "spec", WHAT)?, WHAT)?,
                accesses,
            })
        }
        ("family_sweep", Some(inner)) => {
            let fields = as_obj(inner, WHAT)?;
            Ok(Request::FamilySweep {
                spec: dec_string(field(fields, "spec", WHAT)?, WHAT)?,
                len: dec_u64(field(fields, "len", WHAT)?, WHAT)?,
                max_x: dec_u32(field(fields, "max_x", WHAT)?, WHAT)?,
                sigma: dec_i64(field(fields, "sigma", WHAT)?, WHAT)?,
            })
        }
        ("efficiency", Some(inner)) => {
            let fields = as_obj(inner, WHAT)?;
            Ok(Request::Efficiency {
                spec: dec_string(field(fields, "spec", WHAT)?, WHAT)?,
                strategy: dec_strategy(field(fields, "strategy", WHAT)?, WHAT)?,
                len: dec_u64(field(fields, "len", WHAT)?, WHAT)?,
                estimator: dec_estimator(field(fields, "estimator", WHAT)?, WHAT)?,
                seed: dec_u64(field(fields, "seed", WHAT)?, WHAT)?,
            })
        }
        ("multi_stream", Some(inner)) => {
            let fields = as_obj(inner, WHAT)?;
            Ok(Request::MultiStream {
                spec: dec_string(field(fields, "spec", WHAT)?, WHAT)?,
                streams: as_arr(field(fields, "streams", WHAT)?, WHAT)?
                    .iter()
                    .map(|v| dec_vector_spec(v, WHAT))
                    .collect::<Result<_, _>>()?,
                strategy: dec_strategy(field(fields, "strategy", WHAT)?, WHAT)?,
                policy: dec_policy(field(fields, "policy", WHAT)?, WHAT)?,
                schedule: dec_schedule(field(fields, "schedule", WHAT)?, WHAT)?,
            })
        }
        (other, _) => Err(schema(WHAT, format!("unknown request `{other}`"))),
    }
}

fn response_to_value(r: &Response) -> Value {
    match r {
        Response::Measured(stats) => tag("measured", enc_opt_access_stats(stats)),
        Response::Batch(items) => tag(
            "batch",
            Value::Arr(items.iter().map(enc_opt_access_stats).collect()),
        ),
        Response::FamilySweep(points) => tag(
            "family_sweep",
            Value::Arr(points.iter().map(enc_family_point).collect()),
        ),
        Response::Efficiency(x) => tag("efficiency", enc_f64(*x)),
        Response::MultiStream(outcome) => tag("multi_stream", enc_multi_stream_outcome(outcome)),
        Response::Degraded { response, exact } => tag(
            "degraded",
            obj(vec![
                ("response", response_to_value(response)),
                ("exact", Value::Bool(*exact)),
            ]),
        ),
    }
}

fn response_from_value(value: &Value) -> Result<Response, DecodeError> {
    const WHAT: &str = "Response";
    match as_tagged(value, WHAT)? {
        ("measured", Some(inner)) => Ok(Response::Measured(dec_opt_access_stats(inner, WHAT)?)),
        ("batch", Some(inner)) => Ok(Response::Batch(
            as_arr(inner, WHAT)?
                .iter()
                .map(|v| dec_opt_access_stats(v, WHAT))
                .collect::<Result<_, _>>()?,
        )),
        ("family_sweep", Some(inner)) => Ok(Response::FamilySweep(
            as_arr(inner, WHAT)?
                .iter()
                .map(|v| dec_family_point(v, WHAT))
                .collect::<Result<_, _>>()?,
        )),
        ("efficiency", Some(inner)) => Ok(Response::Efficiency(dec_f64(inner, WHAT)?)),
        ("multi_stream", Some(inner)) => Ok(Response::MultiStream(dec_multi_stream_outcome(
            inner, WHAT,
        )?)),
        ("degraded", Some(inner)) => {
            let fields = as_obj(inner, WHAT)?;
            Ok(Response::Degraded {
                response: Box::new(response_from_value(field(fields, "response", WHAT)?)?),
                exact: dec_bool(field(fields, "exact", WHAT)?, WHAT)?,
            })
        }
        (other, _) => Err(schema(WHAT, format!("unknown response `{other}`"))),
    }
}

fn serve_error_to_value(e: &ServeError) -> Value {
    match e {
        ServeError::Overloaded {
            queue_depth,
            capacity,
        } => tag(
            "overloaded",
            obj(vec![
                ("queue_depth", Value::UInt(*queue_depth as u64)),
                ("capacity", Value::UInt(*capacity as u64)),
            ]),
        ),
        ServeError::ShuttingDown => Value::Str("shutting_down".to_string()),
        ServeError::Spec(e) => tag("spec", enc_config_error(e)),
        ServeError::Request(e) => tag("request", enc_config_error(e)),
        ServeError::DeadlineExceeded { budget } => tag("deadline_exceeded", enc_duration(*budget)),
        ServeError::WorkerPanicked { attempts, message } => tag(
            "worker_panicked",
            obj(vec![
                ("attempts", Value::UInt(u64::from(*attempts))),
                ("message", Value::Str(message.clone())),
            ]),
        ),
    }
}

fn serve_error_from_value(value: &Value) -> Result<ServeError, DecodeError> {
    const WHAT: &str = "ServeError";
    match as_tagged(value, WHAT)? {
        ("shutting_down", None) => Ok(ServeError::ShuttingDown),
        ("overloaded", Some(inner)) => {
            let fields = as_obj(inner, WHAT)?;
            Ok(ServeError::Overloaded {
                queue_depth: dec_usize(field(fields, "queue_depth", WHAT)?, WHAT)?,
                capacity: dec_usize(field(fields, "capacity", WHAT)?, WHAT)?,
            })
        }
        ("spec", Some(inner)) => Ok(ServeError::Spec(dec_config_error(inner, WHAT)?)),
        ("request", Some(inner)) => Ok(ServeError::Request(dec_config_error(inner, WHAT)?)),
        ("deadline_exceeded", Some(inner)) => Ok(ServeError::DeadlineExceeded {
            budget: dec_duration(inner, WHAT)?,
        }),
        ("worker_panicked", Some(inner)) => {
            let fields = as_obj(inner, WHAT)?;
            Ok(ServeError::WorkerPanicked {
                attempts: dec_u32(field(fields, "attempts", WHAT)?, WHAT)?,
                message: dec_string(field(fields, "message", WHAT)?, WHAT)?,
            })
        }
        (other, _) => Err(schema(WHAT, format!("unknown serve error `{other}`"))),
    }
}

fn serve_result_to_value(r: &ServeResult) -> Value {
    match r {
        Ok(response) => tag("ok", response_to_value(response)),
        Err(e) => tag("err", serve_error_to_value(e)),
    }
}

fn serve_result_from_value(value: &Value) -> Result<ServeResult, DecodeError> {
    const WHAT: &str = "ServeResult";
    match as_tagged(value, WHAT)? {
        ("ok", Some(inner)) => Ok(Ok(response_from_value(inner)?)),
        ("err", Some(inner)) => Ok(Err(serve_error_from_value(inner)?)),
        (other, _) => Err(schema(WHAT, format!("expected ok/err, got `{other}`"))),
    }
}

// ---------------------------------------------------------------------
// Public string-level codecs
// ---------------------------------------------------------------------

/// Encodes a [`Request`] as a JSON string.
#[must_use]
pub fn encode_request(r: &Request) -> String {
    encode(&request_to_value(r))
}

/// Decodes a [`Request`] from a JSON string.
pub fn decode_request(text: &str) -> Result<Request, DecodeError> {
    request_from_value(&parse(text)?)
}

/// Encodes a [`Response`] as a JSON string.
#[must_use]
pub fn encode_response(r: &Response) -> String {
    encode(&response_to_value(r))
}

/// Decodes a [`Response`] from a JSON string.
pub fn decode_response(text: &str) -> Result<Response, DecodeError> {
    response_from_value(&parse(text)?)
}

/// Encodes a [`ServeError`] as a JSON string.
#[must_use]
pub fn encode_serve_error(e: &ServeError) -> String {
    encode(&serve_error_to_value(e))
}

/// Decodes a [`ServeError`] from a JSON string.
pub fn decode_serve_error(text: &str) -> Result<ServeError, DecodeError> {
    serve_error_from_value(&parse(text)?)
}

/// Encodes a `ServeResult` (`{"ok": …}` / `{"err": …}`) as a JSON
/// string.
#[must_use]
pub fn encode_serve_result(r: &ServeResult) -> String {
    encode(&serve_result_to_value(r))
}

/// Decodes a `ServeResult` from a JSON string.
pub fn decode_serve_result(text: &str) -> Result<ServeResult, DecodeError> {
    serve_result_from_value(&parse(text)?)
}

/// Encodes a [`ServiceStats`] snapshot as a JSON string.
#[must_use]
pub fn encode_service_stats(s: &ServiceStats) -> String {
    encode(&service_stats_to_value(s))
}

/// Decodes a [`ServiceStats`] snapshot from a JSON string.
pub fn decode_service_stats(text: &str) -> Result<ServiceStats, DecodeError> {
    service_stats_from_value(&parse(text)?)
}

// ---------------------------------------------------------------------
// Frame envelopes
// ---------------------------------------------------------------------

/// A client → server frame payload.
///
/// The first frame on a connection must be [`ClientFrame::Hello`];
/// afterwards the client may pipeline any number of submissions and
/// stats probes. `id` values correlate responses — the server may
/// answer out of submission order, so ids must be unique per
/// connection while in flight.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Opens the connection: the protocol version the client speaks.
    Hello {
        /// Must equal [`crate::frame::PROTOCOL_VERSION`].
        proto: u32,
    },
    /// Submit one request.
    Submit {
        /// Correlation id, echoed in the matching [`ServerFrame::Result`].
        id: u64,
        /// The request, exactly as `Service::submit` takes it.
        request: Request,
        /// Optional deadline budget, forwarded to
        /// `Service::submit_with_budget`.
        budget: Option<Duration>,
    },
    /// Ask for a [`ServiceStats`] snapshot (wire counters filled in).
    Stats {
        /// Correlation id, echoed in the matching [`ServerFrame::Stats`].
        id: u64,
    },
}

/// A server → client frame payload.
#[derive(Debug)]
pub enum ServerFrame {
    /// Answers the client hello.
    Hello {
        /// The protocol version the server speaks.
        proto: u32,
        /// Per-connection in-flight cap the server will enforce.
        max_in_flight: u32,
    },
    /// One request's outcome — service errors (`Overloaded`,
    /// `ShuttingDown`, …) travel inside, exactly as the in-process
    /// API returns them.
    Result {
        /// The id of the [`ClientFrame::Submit`] this answers.
        id: u64,
        /// The outcome, bit-identical to `Service::submit(...).wait()`.
        result: ServeResult,
    },
    /// A [`ServiceStats`] snapshot.
    Stats {
        /// The id of the [`ClientFrame::Stats`] this answers.
        id: u64,
        /// The snapshot, wire counters filled in by the server.
        stats: ServiceStats,
    },
    /// A protocol violation the server cannot recover from (bad hello,
    /// malformed frame): sent once, then the connection closes.
    Fatal {
        /// What the server rejected.
        reason: String,
    },
}

/// Encodes a [`ClientFrame`] as a JSON string.
#[must_use]
pub fn encode_client_frame(f: &ClientFrame) -> String {
    let value = match f {
        ClientFrame::Hello { proto } => tag(
            "hello",
            obj(vec![("proto", Value::UInt(u64::from(*proto)))]),
        ),
        ClientFrame::Submit {
            id,
            request,
            budget,
        } => {
            let mut fields = vec![
                ("id", Value::UInt(*id)),
                ("request", request_to_value(request)),
            ];
            if let Some(budget) = budget {
                fields.push(("budget", enc_duration(*budget)));
            }
            tag("submit", obj(fields))
        }
        ClientFrame::Stats { id } => tag("stats", obj(vec![("id", Value::UInt(*id))])),
    };
    encode(&value)
}

/// Decodes a [`ClientFrame`] from a JSON string.
pub fn decode_client_frame(text: &str) -> Result<ClientFrame, DecodeError> {
    const WHAT: &str = "ClientFrame";
    let value = parse(text)?;
    match as_tagged(&value, WHAT)? {
        ("hello", Some(inner)) => {
            let fields = as_obj(inner, WHAT)?;
            Ok(ClientFrame::Hello {
                proto: dec_u32(field(fields, "proto", WHAT)?, WHAT)?,
            })
        }
        ("submit", Some(inner)) => {
            let fields = as_obj(inner, WHAT)?;
            Ok(ClientFrame::Submit {
                id: dec_u64(field(fields, "id", WHAT)?, WHAT)?,
                request: request_from_value(field(fields, "request", WHAT)?)?,
                budget: match opt_field(fields, "budget") {
                    Some(v) => Some(dec_duration(v, WHAT)?),
                    None => None,
                },
            })
        }
        ("stats", Some(inner)) => {
            let fields = as_obj(inner, WHAT)?;
            Ok(ClientFrame::Stats {
                id: dec_u64(field(fields, "id", WHAT)?, WHAT)?,
            })
        }
        (other, _) => Err(schema(WHAT, format!("unknown client frame `{other}`"))),
    }
}

/// Encodes a [`ServerFrame`] as a JSON string.
#[must_use]
pub fn encode_server_frame(f: &ServerFrame) -> String {
    let value = match f {
        ServerFrame::Hello {
            proto,
            max_in_flight,
        } => tag(
            "hello",
            obj(vec![
                ("proto", Value::UInt(u64::from(*proto))),
                ("max_in_flight", Value::UInt(u64::from(*max_in_flight))),
            ]),
        ),
        ServerFrame::Result { id, result } => tag(
            "result",
            obj(vec![
                ("id", Value::UInt(*id)),
                ("result", serve_result_to_value(result)),
            ]),
        ),
        ServerFrame::Stats { id, stats } => tag(
            "stats",
            obj(vec![
                ("id", Value::UInt(*id)),
                ("stats", service_stats_to_value(stats)),
            ]),
        ),
        ServerFrame::Fatal { reason } => {
            tag("fatal", obj(vec![("reason", Value::Str(reason.clone()))]))
        }
    };
    encode(&value)
}

/// Decodes a [`ServerFrame`] from a JSON string.
pub fn decode_server_frame(text: &str) -> Result<ServerFrame, DecodeError> {
    const WHAT: &str = "ServerFrame";
    let value = parse(text)?;
    match as_tagged(&value, WHAT)? {
        ("hello", Some(inner)) => {
            let fields = as_obj(inner, WHAT)?;
            Ok(ServerFrame::Hello {
                proto: dec_u32(field(fields, "proto", WHAT)?, WHAT)?,
                max_in_flight: dec_u32(field(fields, "max_in_flight", WHAT)?, WHAT)?,
            })
        }
        ("result", Some(inner)) => {
            let fields = as_obj(inner, WHAT)?;
            Ok(ServerFrame::Result {
                id: dec_u64(field(fields, "id", WHAT)?, WHAT)?,
                result: serve_result_from_value(field(fields, "result", WHAT)?)?,
            })
        }
        ("stats", Some(inner)) => {
            let fields = as_obj(inner, WHAT)?;
            Ok(ServerFrame::Stats {
                id: dec_u64(field(fields, "id", WHAT)?, WHAT)?,
                stats: service_stats_from_value(field(fields, "stats", WHAT)?)?,
            })
        }
        ("fatal", Some(inner)) => {
            let fields = as_obj(inner, WHAT)?;
            Ok(ServerFrame::Fatal {
                reason: dec_string(field(fields, "reason", WHAT)?, WHAT)?,
            })
        }
        (other, _) => Err(schema(WHAT, format!("unknown server frame `{other}`"))),
    }
}
