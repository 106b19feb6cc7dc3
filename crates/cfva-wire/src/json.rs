//! The wire schema: a hand-rolled JSON codec for every API type that
//! crosses the socket.
//!
//! The workspace vendors its dependencies, so there is no external
//! serde; this module is the serde layer. Every type is encoded and
//! decoded directly, with no document tree in between:
//!
//! * **Encode.** Each type writes its JSON straight into a
//!   caller-owned `String`, numbers formatted in place. The frame
//!   layer ([`crate::frame`]) encodes into one reused per-connection
//!   buffer behind the length word, so a frame costs no allocation
//!   once the buffer has grown.
//! * **Decode.** Each type pulls itself off one lexer, the same one
//!   [`parse`] uses. Keys may come in any order and with whitespace;
//!   unknown keys are skipped but still syntax-checked and
//!   depth-capped ([`MAX_DEPTH`]); for a duplicate key the first
//!   occurrence wins; strings without escapes are sliced out of the
//!   frame text. Malformed text anywhere in the document is
//!   [`DecodeError::Syntax`], even after a shape problem. Otherwise the
//!   first problem in field declaration order is reported:
//!   [`DecodeError::Schema`] for a wrong shape, [`DecodeError::Invalid`]
//!   for a value its constructor rejects.
//!
//! Plain structs (`AccessStats`, `FamilyPoint`, `ServiceStats`, …)
//! are generated in both directions from one field table each
//! (`record!`); enums are written by hand over the same helpers.
//! Enums travel as one-key tagged objects (`{"measure": {...}}`) or
//! bare strings for unit variants (`"shutting_down"`). Every round
//! trip is bit-identical, proven by proptest in
//! `tests/codec_roundtrip.rs`, which also pins the exact text of every
//! variant; cfva-lint's L004 refuses a variant that suite does not
//! name. [`ClientFrame`] / [`ServerFrame`] are the frame envelopes: a
//! versioned hello, `request_id`-correlated submissions and results
//! (responses may return out of submission order), and a stats probe.
//!
//! Integers travel as integer literals, so a 64-bit counter survives
//! without a float detour; floats encode via Rust's shortest
//! round-trip formatting (`{:?}`), so `f64` fields are bit-identical
//! after a round trip too. Non-finite floats encode as the strings
//! `"nan"` / `"inf"` / `"-inf"` (JSON has no spelling for them); NaN
//! canonicalizes to `f64::NAN`.
//!
//! [`Value`] and [`parse`] remain as a generic document API.
//!
//! Decoding [`ConfigError`] needs `&'static str` fields; those are
//! re-materialized through an append-only, deduplicating intern pool
//! (class `WireIntern` — see `cfva_serve::locks`). The pool leaks by
//! design, bounded by the number of *distinct* strings decoded.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Duration;

use cfva_core::plan::Strategy;
use cfva_core::{ConfigError, VectorSpec};
use cfva_memsim::{AccessStats, Arrivals, IssuePolicy};
use cfva_serve::api::{
    Estimator, FamilyPoint, MultiStreamOutcome, Request, Response, SchedulePlan, ServeError,
    ServeResult, StreamSummary,
};
use cfva_serve::locks::{ClassedMutex, LockClass};
use cfva_serve::service::ServiceStats;
use cfva_serve::CacheStats;

/// Maximum nesting depth the lexer accepts before returning a typed
/// error instead of risking the stack. The deepest legitimate wire
/// document is a `Response::Degraded` chain, which the version-3 frame
/// still decodes though the service produces none, so 96 is generous.
pub const MAX_DEPTH: u32 = 96;

/// Items the one-pass integer-array reader reserves room for before
/// it reads the array (8 Ki, a 64 KiB heap block); a longer array
/// grows.
const MAX_RESERVED_ITEMS: usize = 1 << 13;

// ---------------------------------------------------------------------
// Document model
// ---------------------------------------------------------------------

/// A parsed JSON document.
///
/// Object fields keep their order (a `Vec`, not a map), exactly as
/// they appear in the text.
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
    /// An object, fields in source order.
    Obj(Vec<(String, Value)>),
}

/// A scalar token of the lexer: what a `null`, boolean or number
/// literal reads as, before a typed decoder or [`parse`] takes it.
#[derive(Debug, Clone, Copy)]
enum Scalar {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Float(f64),
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

/// Splits a decode result: a syntax error aborts the document at once
/// (the outer `Err`), while a shape error is held (`Ok(Err(_))`) until
/// the rest of the text has been syntax-checked.
fn defer<T>(result: Result<T, DecodeError>) -> Result<Result<T, DecodeError>, DecodeError> {
    match result {
        Err(e @ DecodeError::Syntax { .. }) => Err(e),
        other => Ok(other),
    }
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

/// Parses a JSON document.
///
/// Never panics on any input: malformed text, truncation, deep
/// nesting (capped at [`MAX_DEPTH`]) and out-of-range numbers all
/// return a typed [`DecodeError::Syntax`]. Trailing non-whitespace
/// after the top-level value is rejected.
pub fn parse(text: &str) -> Result<Value, DecodeError> {
    Parser::new(text).document(Parser::value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Reads one whole document with `read`: surrounding whitespace is
    /// allowed, trailing data is a syntax error, and a shape error from
    /// `read` loses to any syntax error in the rest of the text.
    fn document<T>(
        mut self,
        read: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        self.skip_ws();
        let value = defer(read(&mut self))?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing data after the top-level value"));
        }
        value
    }

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
    fn slice(&self, a: usize, b: usize) -> Result<&'a str, DecodeError> {
        self.text.get(a..b).ok_or(DecodeError::Syntax {
            offset: a,
            reason: "internal: slice out of range",
        })
    }

    fn literal(&mut self, lit: &'static str, value: Scalar) -> Result<Scalar, DecodeError> {
        let end = self.pos + lit.len();
        if self.text.get(self.pos..end) == Some(lit) {
            self.pos = end;
            Ok(value)
        } else {
            Err(self.err("unrecognized literal"))
        }
    }

    /// A `null`, boolean or number.
    fn scalar(&mut self) -> Result<Scalar, DecodeError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Scalar::Null),
            Some(b't') => self.literal("true", Scalar::Bool(true)),
            Some(b'f') => self.literal("false", Scalar::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// One value as a [`Value`] document.
    fn value(&mut self) -> Result<Value, DecodeError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.elements(|p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.members(|p, key| {
                    fields.push((key.into_owned(), p.value()?));
                    Ok(())
                })?;
                Ok(Value::Obj(fields))
            }
            _ => Ok(match self.scalar()? {
                Scalar::Null => Value::Null,
                Scalar::Bool(b) => Value::Bool(b),
                Scalar::UInt(n) => Value::UInt(n),
                Scalar::Int(n) => Value::Int(n),
                Scalar::Float(x) => Value::Float(x),
            }),
        }
    }

    /// Consumes one value without keeping it — still syntax-checked
    /// and depth-capped.
    fn skip(&mut self) -> Result<(), DecodeError> {
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'[') => self.elements(Self::skip),
            Some(b'{') => self.members(|p, _| p.skip()),
            _ => self.scalar().map(drop),
        }
    }

    fn enter(&mut self) -> Result<(), DecodeError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        Ok(())
    }

    /// Walks an array, calling `element` with the parser on each item;
    /// `element` must consume it.
    fn elements(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), DecodeError>,
    ) -> Result<(), DecodeError> {
        self.expect_byte(b'[', "expected '['")?;
        self.enter()?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// Walks an object, calling `member` with each key and the parser
    /// on its value; `member` must consume the value.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), DecodeError>,
    ) -> Result<(), DecodeError> {
        self.expect_byte(b'{', "expected '{'")?;
        self.enter()?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':', "expected ':' after object key")?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// A string literal: sliced out of the text when it has no
    /// escapes, rebuilt only when it does.
    fn string(&mut self) -> Result<Cow<'a, str>, DecodeError> {
        self.expect_byte(b'"', "expected '\"'")?;
        let mut owned: Option<String> = None;
        let mut run_start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    let run = self.slice(run_start, self.pos)?;
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let run = self.slice(run_start, self.pos)?;
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    self.escape(out)?;
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

    fn number(&mut self) -> Result<Scalar, DecodeError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("digit expected in number"));
        }
        // The integer part, accumulated while scanning (`None` once it
        // exceeds `u64`): a plain non-negative integer, the common
        // case, needs no second pass.
        let mut magnitude = Some(0u64);
        while let Some(digit @ b'0'..=b'9') = self.peek() {
            magnitude = magnitude
                .and_then(|m| m.checked_mul(10))
                .and_then(|m| m.checked_add(u64::from(digit - b'0')));
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
                .map(Scalar::Float)
                .map_err(|_| self.err("malformed float"))
        } else if negative {
            lit.parse::<i64>()
                .map(Scalar::Int)
                .map_err(|_| self.err("integer does not fit in i64"))
        } else {
            magnitude
                .map(Scalar::UInt)
                .ok_or_else(|| self.err("integer does not fit in u64"))
        }
    }

    // -- typed-decoder helpers ----------------------------------------
    //
    // Each consumes exactly one value unless it returns a syntax
    // error, so a shape error never stops the rest of the document
    // from being syntax-checked.

    /// A compact array of plain integers (`[1,22,333]`: no
    /// whitespace, 1 to 19 digits each, as every encoder writes an
    /// arrival profile), read in one pass over digits, commas and `]`
    /// into an exact-length vector. `None`, with nothing consumed, for
    /// anything else, which the general path then reads.
    fn plain_uint_array(&mut self) -> Option<Vec<u64>> {
        if self.peek() != Some(b'[') || self.depth >= MAX_DEPTH {
            return None;
        }
        let mut at = self.pos + 1;
        let mut items = Vec::new();
        if self.bytes.get(at) == Some(&b']') {
            at += 1;
        } else {
            // Room for every item the rest of the text can hold (each
            // takes at least two bytes), within a bound, trimmed to
            // length at the end: one allocation for all but the
            // longest arrays.
            items.reserve((self.bytes.len() - at).div_ceil(2).min(MAX_RESERVED_ITEMS));
            loop {
                let (mut n, mut digits) = (0u64, 0);
                let end = loop {
                    match *self.bytes.get(at)? {
                        digit @ b'0'..=b'9' if digits < 19 => {
                            n = n * 10 + u64::from(digit - b'0');
                            digits += 1;
                            at += 1;
                        }
                        other => break other,
                    }
                };
                if digits == 0 || !matches!(end, b',' | b']') {
                    return None;
                }
                items.push(n);
                at += 1;
                if end == b']' {
                    break;
                }
            }
            items.shrink_to_fit();
        }
        self.pos = at;
        Some(items)
    }

    /// A scalar for a typed leaf; a string, array or object is
    /// consumed and comes back as `None`.
    fn leaf(&mut self) -> Result<Option<Scalar>, DecodeError> {
        match self.peek() {
            Some(b'"' | b'[' | b'{') => self.skip().map(|()| None),
            _ => self.scalar().map(Some),
        }
    }

    /// A string for a typed leaf; any other value is consumed and
    /// comes back as `None`.
    fn text(&mut self) -> Result<Option<Cow<'a, str>>, DecodeError> {
        if self.peek() == Some(b'"') {
            self.string().map(Some)
        } else {
            self.skip().map(|()| None)
        }
    }

    /// Walks an object's members for a typed decoder; any other value
    /// is consumed and reported as a shape error.
    fn object(
        &mut self,
        what: &'static str,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), DecodeError>,
    ) -> Result<(), DecodeError> {
        if self.peek() != Some(b'{') {
            self.skip()?;
            return Err(schema(what, "expected an object"));
        }
        self.members(|p, key| member(p, &key))
    }

    /// Decodes one field into its slot, holding a shape error until
    /// the object is done. A duplicate key is skipped, so the first
    /// occurrence wins.
    fn slot<T: Decode>(
        &mut self,
        slot: &mut Option<Result<T, DecodeError>>,
        key: &'static str,
    ) -> Result<(), DecodeError> {
        if slot.is_some() {
            return self.skip();
        }
        *slot = Some(defer(T::decode(self, key))?);
        Ok(())
    }

    /// Decodes an enum: a bare string names a unit variant (`unit`),
    /// a one-key object `{"tag": body}` any other (`body`, which
    /// returns `None` for a tag it does not know, leaving the body
    /// unread).
    fn tagged<T>(
        &mut self,
        what: &'static str,
        unit: impl FnOnce(&str) -> Option<T>,
        body: impl FnOnce(&mut Self, &str) -> Option<Result<T, DecodeError>>,
    ) -> Result<T, DecodeError> {
        const ONE_TAG: &str = "expected exactly one variant tag";
        match self.peek() {
            Some(b'"') => {
                let name = self.string()?;
                unit(&name).ok_or_else(|| schema(what, format!("unknown variant `{name}`")))
            }
            Some(b'{') => {
                let mut body = Some(body);
                let mut out = None;
                self.members(|p, tag| {
                    let Some(body) = body.take() else {
                        out = Some(Err(schema(what, ONE_TAG)));
                        return p.skip();
                    };
                    out = Some(match body(p, &tag) {
                        Some(decoded) => defer(decoded)?,
                        None => {
                            p.skip()?;
                            Err(schema(what, format!("unknown variant `{tag}`")))
                        }
                    });
                    Ok(())
                })?;
                out.unwrap_or_else(|| Err(schema(what, ONE_TAG)))
            }
            _ => {
                self.skip()?;
                Err(schema(what, "expected a variant tag"))
            }
        }
    }
}

// ---------------------------------------------------------------------
// The codec traits
// ---------------------------------------------------------------------

/// A type that writes its JSON straight into a caller-owned buffer.
pub(crate) trait Encode {
    /// Appends this value's JSON to `out`.
    fn encode(&self, out: &mut String);

    /// Appends a slice of this type as a JSON array. A type with a
    /// faster bulk form overrides it.
    fn encode_slice(items: &[Self], out: &mut String)
    where
        Self: Sized,
    {
        out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.encode(out);
        }
        out.push(']');
    }
}

/// A type read straight off the lexer. `decode` consumes exactly one
/// value unless it returns a syntax error.
trait Decode: Sized {
    /// Decodes one value; `what` names the field, for errors.
    fn decode(p: &mut Parser<'_>, what: &'static str) -> Result<Self, DecodeError>;

    /// The value of an absent field, or `None` if the field is
    /// required (only `Option` fields may be left out).
    fn absent() -> Option<Self> {
        None
    }

    /// Decodes an array of this type. A type with a faster bulk form
    /// overrides it.
    fn decode_vec(p: &mut Parser<'_>, what: &'static str) -> Result<Vec<Self>, DecodeError> {
        decode_items(p, what)
    }
}

/// An array decoded item by item; the first ill-shaped item is
/// reported once the whole array has been read.
fn decode_items<T: Decode>(p: &mut Parser<'_>, what: &'static str) -> Result<Vec<T>, DecodeError> {
    if p.peek() != Some(b'[') {
        p.skip()?;
        return Err(schema(what, "expected an array"));
    }
    let mut items = Vec::new();
    let mut bad = None;
    p.elements(|p| {
        match defer(T::decode(p, what))? {
            Ok(item) => items.push(item),
            Err(e) => {
                bad.get_or_insert(e);
            }
        }
        Ok(())
    })?;
    bad.map_or(Ok(items), Err)
}

/// What the two readers of a `u64` array made of one text, for the
/// codec's equivalence suite.
#[doc(hidden)]
#[derive(Debug)]
pub struct UintArrayReads {
    /// The one-pass reader's items, `None` when it fell back.
    pub one_pass: Option<Vec<u64>>,
    /// The bytes the one-pass reader consumed.
    pub one_pass_end: usize,
    /// The general item-by-item reader's result.
    pub general: Result<Vec<u64>, DecodeError>,
    /// The bytes the general reader consumed.
    pub general_end: usize,
}

/// Runs both readers of a `u64` array on `text`.
#[doc(hidden)]
pub fn uint_array_readers(text: &str) -> UintArrayReads {
    let mut one_pass = Parser::new(text);
    let fast = one_pass.plain_uint_array();
    let mut general = Parser::new(text);
    let items = decode_items(&mut general, "items");
    UintArrayReads {
        one_pass: fast,
        one_pass_end: one_pass.pos,
        general: items,
        general_end: general.pos,
    }
}

/// A field's final value: its decoded result, its default when it was
/// absent, or a missing-field error.
fn take<T: Decode>(
    slot: Option<Result<T, DecodeError>>,
    what: &'static str,
    key: &'static str,
) -> Result<T, DecodeError> {
    match slot {
        Some(decoded) => decoded,
        None => T::absent().ok_or_else(|| schema(what, format!("missing field `{key}`"))),
    }
}

fn to_text(value: &dyn Encode) -> String {
    let mut out = String::new();
    value.encode(&mut out);
    out
}

fn from_text<T: Decode>(text: &str, what: &'static str) -> Result<T, DecodeError> {
    Parser::new(text).document(|p| T::decode(p, what))
}

/// Writes `{"key":value,...}`; keys are plain identifiers and need no
/// escaping.
fn write_obj(out: &mut String, fields: &[(&str, &dyn Encode)]) {
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(key);
        out.push_str("\":");
        value.encode(out);
    }
    out.push('}');
}

/// Writes a tagged variant, `{"tag":inner}`.
fn write_tag(out: &mut String, tag: &str, inner: &dyn Encode) {
    out.push_str("{\"");
    out.push_str(tag);
    out.push_str("\":");
    inner.encode(out);
    out.push('}');
}

/// Writes a struct-like variant, `{"tag":{"key":value,...}}`.
fn write_variant(out: &mut String, tag: &str, fields: &[(&str, &dyn Encode)]) {
    out.push_str("{\"");
    out.push_str(tag);
    out.push_str("\":");
    write_obj(out, fields);
    out.push('}');
}

/// Writes a JSON string literal, copying unescaped runs whole. Every
/// escaped byte is ASCII, so the runs split on character boundaries.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(s.get(run..i).unwrap_or_default());
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(s.get(run..).unwrap_or_default());
    out.push('"');
}

/// Decodes an object's fields into locals named after its keys, then
/// evaluates `$build` (a `Result`). Keys may come in any order,
/// unknown keys are skipped and the first of duplicate keys wins; a
/// missing or ill-shaped field is reported in declaration order. The
/// second form builds a struct or struct-like variant from its field
/// names.
macro_rules! decode_fields {
    ($p:expr, $what:expr, [$($field:ident $(: $ty:ty)?),* $(,)?] => $build:expr) => {{
        $(let mut $field $(: Option<Result<$ty, DecodeError>>)? = None;)*
        $p.object($what, |p, key| match key {
            $(stringify!($field) => p.slot(&mut $field, stringify!($field)),)*
            _ => p.skip(),
        })
        .and_then(|()| {
            $(let $field = take($field, $what, stringify!($field))?;)*
            $build
        })
    }};
    ($p:expr, $what:expr, $($path:ident)::+ { $($field:ident),* $(,)? }) => {
        decode_fields!($p, $what, [$($field),*] => Ok($($path)::+ { $($field),* }))
    };
}

// ---------------------------------------------------------------------
// Scalars and containers
// ---------------------------------------------------------------------

/// The two decimal digits of every `n < 100`, `"00"` to `"99"`: a
/// 200-byte table.
const DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut pairs = [[0u8; 2]; 100];
    let mut n = 0;
    while n < 100 {
        pairs[n] = [b'0' + (n / 10) as u8, b'0' + (n % 10) as u8];
        n += 1;
    }
    pairs
};

/// Writes `n`'s decimal digits at the front of `buf` (20 bytes hold
/// any `u64`), two per step from the last, and returns how many it
/// wrote.
fn put_u64(buf: &mut [u8], n: u64) -> usize {
    let width = n.checked_ilog10().map_or(1, |log| log as usize + 1);
    let Some(digits) = buf.get_mut(..width) else {
        return 0;
    };
    let mut rest = n;
    let mut pairs = digits.rchunks_exact_mut(2);
    for slot in &mut pairs {
        if let (Some(pair), [hi, lo]) = (DIGIT_PAIRS.get((rest % 100) as usize), slot) {
            [*hi, *lo] = *pair;
        }
        rest /= 100;
    }
    // An odd width leaves the leading digit: `rest < 10` by then.
    if let [lead] = pairs.into_remainder() {
        *lead = b'0' + rest as u8;
    }
    width
}

/// Appends ASCII bytes (digits and commas) to `out`.
fn push_ascii(out: &mut String, bytes: &[u8]) {
    out.push_str(std::str::from_utf8(bytes).unwrap_or_default());
}

/// Writes `n` in decimal, without going through `fmt`.
fn write_u64(out: &mut String, n: u64) {
    let mut digits = [0u8; 20];
    let width = put_u64(&mut digits, n);
    push_ascii(out, &digits[..width]);
}

impl Encode for u64 {
    fn encode(&self, out: &mut String) {
        write_u64(out, *self);
    }

    /// Digits and commas collect in a stack buffer flushed in chunks:
    /// one `push_str` per few dozen numbers instead of one per number.
    fn encode_slice(items: &[u64], out: &mut String) {
        let mut chunk = [0u8; 256];
        let mut len = 0;
        out.push('[');
        for (i, n) in items.iter().enumerate() {
            if len + 21 > chunk.len() {
                push_ascii(out, &chunk[..len]);
                len = 0;
            }
            if i > 0 {
                chunk[len] = b',';
                len += 1;
            }
            len += put_u64(chunk.get_mut(len..).unwrap_or_default(), *n);
        }
        push_ascii(out, &chunk[..len]);
        out.push(']');
    }
}

impl Encode for u32 {
    fn encode(&self, out: &mut String) {
        write_u64(out, u64::from(*self));
    }
}

impl Encode for usize {
    fn encode(&self, out: &mut String) {
        write_u64(out, *self as u64);
    }
}

impl Encode for i64 {
    fn encode(&self, out: &mut String) {
        if *self < 0 {
            out.push('-');
        }
        write_u64(out, self.unsigned_abs());
    }
}

impl Decode for u64 {
    fn decode(p: &mut Parser<'_>, what: &'static str) -> Result<Self, DecodeError> {
        match p.leaf()? {
            Some(Scalar::UInt(n)) => Ok(n),
            _ => Err(schema(what, "expected a non-negative integer")),
        }
    }

    fn decode_vec(p: &mut Parser<'_>, what: &'static str) -> Result<Vec<Self>, DecodeError> {
        match p.plain_uint_array() {
            Some(items) => Ok(items),
            None => decode_items(p, what),
        }
    }
}

impl Decode for u32 {
    fn decode(p: &mut Parser<'_>, what: &'static str) -> Result<Self, DecodeError> {
        u32::try_from(u64::decode(p, what)?)
            .map_err(|_| schema(what, "integer does not fit in u32"))
    }
}

impl Decode for usize {
    fn decode(p: &mut Parser<'_>, what: &'static str) -> Result<Self, DecodeError> {
        usize::try_from(u64::decode(p, what)?)
            .map_err(|_| schema(what, "integer does not fit in usize"))
    }
}

impl Decode for i64 {
    fn decode(p: &mut Parser<'_>, what: &'static str) -> Result<Self, DecodeError> {
        match p.leaf()? {
            Some(Scalar::Int(n)) => Ok(n),
            Some(Scalar::UInt(n)) => {
                i64::try_from(n).map_err(|_| schema(what, "integer does not fit in i64"))
            }
            _ => Err(schema(what, "expected an integer")),
        }
    }
}

impl Encode for f64 {
    fn encode(&self, out: &mut String) {
        if self.is_finite() {
            // `{:?}` is Rust's shortest representation that parses
            // back to the same bits — "2.0" stays a float lane,
            // "1e300" stays compact.
            let _ = write!(out, "{self:?}");
        } else if self.is_nan() {
            out.push_str("\"nan\"");
        } else if *self > 0.0 {
            out.push_str("\"inf\"");
        } else {
            out.push_str("\"-inf\"");
        }
    }
}

impl Decode for f64 {
    fn decode(p: &mut Parser<'_>, what: &'static str) -> Result<Self, DecodeError> {
        if p.peek() == Some(b'"') {
            return match &*p.string()? {
                "nan" => Ok(f64::NAN),
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                _ => Err(schema(what, "expected a number")),
            };
        }
        match p.leaf()? {
            Some(Scalar::Float(x)) => Ok(x),
            Some(Scalar::UInt(n)) => Ok(n as f64),
            Some(Scalar::Int(n)) => Ok(n as f64),
            _ => Err(schema(what, "expected a number")),
        }
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Decode for bool {
    fn decode(p: &mut Parser<'_>, what: &'static str) -> Result<Self, DecodeError> {
        match p.leaf()? {
            Some(Scalar::Bool(b)) => Ok(b),
            _ => Err(schema(what, "expected a boolean")),
        }
    }
}

impl Encode for str {
    fn encode(&self, out: &mut String) {
        write_string(out, self);
    }
}

impl Encode for String {
    fn encode(&self, out: &mut String) {
        write_string(out, self);
    }
}

impl Decode for String {
    fn decode(p: &mut Parser<'_>, what: &'static str) -> Result<Self, DecodeError> {
        p.text()?
            .map(Cow::into_owned)
            .ok_or_else(|| schema(what, "expected a string"))
    }
}

impl Decode for &'static str {
    fn decode(p: &mut Parser<'_>, what: &'static str) -> Result<Self, DecodeError> {
        p.text()?
            .map(|s| intern_str(&s))
            .ok_or_else(|| schema(what, "expected a string"))
    }
}

impl Decode for &'static [&'static str] {
    fn decode(p: &mut Parser<'_>, what: &'static str) -> Result<Self, DecodeError> {
        Vec::decode(p, what).map(intern_slice)
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, out: &mut String) {
        (**self).encode(out);
    }
}

impl<T: Encode + ?Sized> Encode for Box<T> {
    fn encode(&self, out: &mut String) {
        (**self).encode(out);
    }
}

impl<T: Decode> Decode for Box<T> {
    fn decode(p: &mut Parser<'_>, what: &'static str) -> Result<Self, DecodeError> {
        T::decode(p, what).map(Box::new)
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut String) {
        T::encode_slice(self, out);
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut String) {
        self.as_slice().encode(out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(p: &mut Parser<'_>, what: &'static str) -> Result<Self, DecodeError> {
        T::decode_vec(p, what)
    }
}

/// Arrival cycles travel as a plain `u64` array.
impl Encode for Arrivals {
    fn encode(&self, out: &mut String) {
        u64::encode_slice(self, out);
    }
}

/// The decoded vector becomes the shared buffer as is, without a copy.
impl Decode for Arrivals {
    fn decode(p: &mut Parser<'_>, what: &'static str) -> Result<Self, DecodeError> {
        u64::decode_vec(p, what).map(Arrivals::from)
    }
}

/// `null` for `None`. As a struct field, an absent key is `None` too.
impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut String) {
        match self {
            Some(value) => value.encode(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(p: &mut Parser<'_>, what: &'static str) -> Result<Self, DecodeError> {
        if p.peek() == Some(b'n') {
            p.literal("null", Scalar::Null)?;
            return Ok(None);
        }
        T::decode(p, what).map(Some)
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl Encode for Duration {
    fn encode(&self, out: &mut String) {
        write_obj(
            out,
            &[("secs", &self.as_secs()), ("nanos", &self.subsec_nanos())],
        );
    }
}

impl Decode for Duration {
    fn decode(p: &mut Parser<'_>, what: &'static str) -> Result<Self, DecodeError> {
        decode_fields!(p, what, [secs: u64, nanos: u32] => if nanos < 1_000_000_000 {
            Ok(Duration::new(secs, nanos))
        } else {
            Err(schema(what, "nanos must be below 1e9"))
        })
    }
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

/// One field table per plain struct, generating both directions; keys
/// are the field names, written in declaration order.
macro_rules! record {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Encode for $ty {
            fn encode(&self, out: &mut String) {
                write_obj(out, &[$((stringify!($field), &self.$field)),*]);
            }
        }

        impl Decode for $ty {
            fn decode(p: &mut Parser<'_>, _: &'static str) -> Result<Self, DecodeError> {
                decode_fields!(p, stringify!($ty), $ty { $($field),* })
            }
        }
    )*};
}

record! {
    AccessStats {
        latency, elements, stall_cycles, conflicts, arrival, module_busy, max_in_q,
    }
    FamilyPoint {
        x, stride, latency, conflicts, stall_cycles, cycles_per_element,
    }
    StreamSummary {
        wave, elements, first_issue, latency, spread, conflicts, stall_cycles,
    }
    MultiStreamOutcome {
        per_stream, wave_makespans, makespan, sequential_baseline,
        predicted_conflicts_milli, actual_conflicts,
    }
    CacheStats {
        hits, misses, evictions, bypasses, invalidations, oversize, entries, bytes,
        capacity_bytes,
    }
    ServiceStats {
        queue_depth, in_flight, cache, retries, restarts, deadline_exceeded, degraded,
        faults_injected, scheduler_predicted_conflicts_milli, scheduler_actual_conflicts,
        wire_connections, wire_rejections, wire_in_flight,
    }
}

/// Fieldless enums spelled as bare strings: the registry's
/// spec-string vocabulary, the same as their `Display`.
macro_rules! names {
    ($($ty:ident { $($variant:path => $name:literal),* $(,)? })*) => {$(
        impl Encode for $ty {
            fn encode(&self, out: &mut String) {
                write_string(out, match self { $($variant => $name),* });
            }
        }

        impl Decode for $ty {
            fn decode(p: &mut Parser<'_>, what: &'static str) -> Result<Self, DecodeError> {
                match p.text()?.as_deref() {
                    $(Some($name) => Ok($variant),)*
                    _ => Err(schema(what, concat!("expected a ", stringify!($ty), " name"))),
                }
            }
        }
    )*};
}

names! {
    Strategy {
        Strategy::Canonical => "canonical",
        Strategy::Subsequence => "subsequence",
        Strategy::ConflictFree => "conflict-free",
        Strategy::Auto => "auto",
    }
    IssuePolicy {
        IssuePolicy::RoundRobin => "round-robin",
        IssuePolicy::Priority => "priority",
        IssuePolicy::WorkConserving => "work-conserving",
    }
}

impl Encode for VectorSpec {
    fn encode(&self, out: &mut String) {
        write_obj(
            out,
            &[
                ("base", &self.base().get()),
                ("stride", &self.stride().get()),
                ("len", &self.len()),
            ],
        );
    }
}

/// Decodes through [`VectorSpec::new`], so a hostile peer cannot smuggle
/// in a spec the in-process constructor would reject (zero stride,
/// address overflow): the wire re-validates and returns the same typed
/// [`ConfigError`].
impl Decode for VectorSpec {
    fn decode(p: &mut Parser<'_>, _: &'static str) -> Result<Self, DecodeError> {
        decode_fields!(p, "VectorSpec", [base: u64, stride: i64, len: u64] =>
            VectorSpec::new(base, stride, len).map_err(DecodeError::Invalid))
    }
}

/// One `MeasureBatch` access: `{"vec":…,"strategy":…}`.
impl Encode for (VectorSpec, Strategy) {
    fn encode(&self, out: &mut String) {
        write_obj(out, &[("vec", &self.0), ("strategy", &self.1)]);
    }
}

impl Decode for (VectorSpec, Strategy) {
    fn decode(p: &mut Parser<'_>, what: &'static str) -> Result<Self, DecodeError> {
        decode_fields!(p, what, [vec, strategy] => Ok((vec, strategy)))
    }
}

/// One variant table per enum, generating both directions:
/// `"tag" => Variant { a, b }` travels as `{"tag":{"a":…,"b":…}}`,
/// `"tag" => Variant(inner)` as `{"tag":inner}`, and `"tag" => Variant`
/// as the bare string `"tag"`.
macro_rules! tagged {
    ($($ty:ident { $($tag:literal => $variant:ident $(($inner:ident))? $({ $($field:ident),* })?,)* })*) => {$(
        impl Encode for $ty {
            fn encode(&self, out: &mut String) {
                match self {
                    $($ty::$variant $(($inner))? $({ $($field),* })? => {
                        variant!(encode out, $tag $(($inner))? $({ $($field),* })?)
                    })*
                }
            }
        }

        impl Decode for $ty {
            fn decode(p: &mut Parser<'_>, _: &'static str) -> Result<Self, DecodeError> {
                p.tagged(
                    stringify!($ty),
                    |name| match name {
                        $($tag => variant!(unit $ty::$variant $(($inner))? $({ $($field),* })?),)*
                        _ => None,
                    },
                    |p, tag| match tag {
                        $($tag => variant!(body p, $ty::$variant $(($inner))? $({ $($field),* })?),)*
                        _ => None,
                    },
                )
            }
        }
    )*};
}

/// The three variant shapes of `tagged!`: how each encodes, whether it
/// is a unit variant, and how its body decodes.
macro_rules! variant {
    (encode $out:ident, $tag:literal) => {
        $tag.encode($out)
    };
    (encode $out:ident, $tag:literal ($inner:ident)) => {
        write_tag($out, $tag, $inner)
    };
    (encode $out:ident, $tag:literal { $($field:ident),* }) => {
        write_variant($out, $tag, &[$((stringify!($field), $field)),*])
    };
    (unit $ty:ident::$variant:ident) => {
        Some($ty::$variant)
    };
    (unit $ty:ident::$variant:ident $($shape:tt)+) => {
        None
    };
    (body $p:ident, $ty:ident::$variant:ident) => {
        None
    };
    (body $p:ident, $ty:ident::$variant:ident ($inner:ident)) => {
        Some(Decode::decode($p, stringify!($ty)).map($ty::$variant))
    };
    (body $p:ident, $ty:ident::$variant:ident { $($field:ident),* }) => {
        Some(decode_fields!($p, stringify!($ty), $ty::$variant { $($field),* }))
    };
}

tagged! {
    Estimator {
        "monte_carlo" => MonteCarlo { samples, max_x, max_sigma },
        "stratified" => Stratified { max_x, per_family },
    }
    SchedulePlan {
        "together" => Together,
        "fifo_waves" => FifoWaves { width },
        "conflict_aware" => ConflictAware { width, max_score_milli },
    }
    ConfigError {
        "not_power_of_two" => NotPowerOfTwo { what, value },
        "out_of_range" => OutOfRange { what, value, constraint },
        "zero_stride" => ZeroStride,
        "singular_matrix" => SingularMatrix,
        "address_overflow" => AddressOverflow,
        "spec_syntax" => SpecSyntax { spec, reason },
        "unknown_map" => UnknownMap { name, registered },
        "missing_key" => MissingKey { map, key },
        "unknown_key" => UnknownKey { map, key, accepted },
        "duplicate_key" => DuplicateKey { key },
        "invalid_value" => InvalidValue { key, value, expected },
        "matrix_file" => MatrixFile { path, reason },
        "duplicate_map" => DuplicateMap { name },
    }
    Request {
        "measure" => Measure { spec, vec, strategy },
        "measure_batch" => MeasureBatch { spec, accesses },
        "family_sweep" => FamilySweep { spec, len, max_x, sigma },
        "efficiency" => Efficiency { spec, strategy, len, estimator, seed },
        "multi_stream" => MultiStream { spec, streams, strategy, policy, schedule },
    }
    // `Degraded` nests a whole response; the lexer's depth cap bounds
    // that recursion at `MAX_DEPTH`.
    Response {
        "measured" => Measured(stats),
        "batch" => Batch(items),
        "family_sweep" => FamilySweep(points),
        "efficiency" => Efficiency(eta),
        "multi_stream" => MultiStream(outcome),
        "degraded" => Degraded { response, exact },
    }
    ServeResult {
        "ok" => Ok(response),
        "err" => Err(error),
    }
}

/// Hand-written: `deadline_exceeded` carries its budget as the bare
/// duration rather than as a one-field object.
impl Encode for ServeError {
    fn encode(&self, out: &mut String) {
        match self {
            ServeError::Overloaded {
                queue_depth,
                capacity,
            } => write_variant(
                out,
                "overloaded",
                &[("queue_depth", queue_depth), ("capacity", capacity)],
            ),
            ServeError::ShuttingDown => "shutting_down".encode(out),
            ServeError::Spec(e) => write_tag(out, "spec", e),
            ServeError::Request(e) => write_tag(out, "request", e),
            ServeError::DeadlineExceeded { budget } => write_tag(out, "deadline_exceeded", budget),
            ServeError::WorkerPanicked { attempts, message } => write_variant(
                out,
                "worker_panicked",
                &[("attempts", attempts), ("message", message)],
            ),
        }
    }
}

impl Decode for ServeError {
    fn decode(p: &mut Parser<'_>, _: &'static str) -> Result<Self, DecodeError> {
        const WHAT: &str = "ServeError";
        p.tagged(
            WHAT,
            |name| (name == "shutting_down").then_some(ServeError::ShuttingDown),
            |p, tag| match tag {
                "overloaded" => Some(decode_fields!(p, WHAT, [queue_depth, capacity] => {
                    Ok(ServeError::Overloaded { queue_depth, capacity })
                })),
                "spec" => Some(Decode::decode(p, WHAT).map(ServeError::Spec)),
                "request" => Some(Decode::decode(p, WHAT).map(ServeError::Request)),
                "deadline_exceeded" => Some(
                    Decode::decode(p, WHAT).map(|budget| ServeError::DeadlineExceeded { budget }),
                ),
                "worker_panicked" => Some(decode_fields!(p, WHAT, [attempts, message] => {
                    Ok(ServeError::WorkerPanicked { attempts, message })
                })),
                _ => None,
            },
        )
    }
}

// ---------------------------------------------------------------------
// Public string-level codecs
// ---------------------------------------------------------------------

/// Encodes a [`Request`] as a JSON string.
#[must_use]
pub fn encode_request(r: &Request) -> String {
    to_text(r)
}

/// Decodes a [`Request`] from a JSON string.
pub fn decode_request(text: &str) -> Result<Request, DecodeError> {
    from_text(text, "Request")
}

/// Encodes a [`Response`] as a JSON string.
#[must_use]
pub fn encode_response(r: &Response) -> String {
    to_text(r)
}

/// Decodes a [`Response`] from a JSON string.
pub fn decode_response(text: &str) -> Result<Response, DecodeError> {
    from_text(text, "Response")
}

/// Encodes a [`ServeError`] as a JSON string.
#[must_use]
pub fn encode_serve_error(e: &ServeError) -> String {
    to_text(e)
}

/// Decodes a [`ServeError`] from a JSON string.
pub fn decode_serve_error(text: &str) -> Result<ServeError, DecodeError> {
    from_text(text, "ServeError")
}

/// Encodes a `ServeResult` (`{"ok": …}` / `{"err": …}`) as a JSON
/// string.
#[must_use]
pub fn encode_serve_result(r: &ServeResult) -> String {
    to_text(r)
}

/// Decodes a `ServeResult` from a JSON string.
pub fn decode_serve_result(text: &str) -> Result<ServeResult, DecodeError> {
    from_text(text, "ServeResult")
}

/// Encodes a [`ServiceStats`] snapshot as a JSON string.
#[must_use]
pub fn encode_service_stats(s: &ServiceStats) -> String {
    to_text(s)
}

/// Decodes a [`ServiceStats`] snapshot from a JSON string.
pub fn decode_service_stats(text: &str) -> Result<ServiceStats, DecodeError> {
    from_text(text, "ServiceStats")
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

tagged! {
    ServerFrame {
        "hello" => Hello { proto, max_in_flight },
        "result" => Result { id, result },
        "stats" => Stats { id, stats },
        "fatal" => Fatal { reason },
    }
}

/// Hand-written: a submission without a budget leaves the `budget` key
/// out instead of writing `null`.
impl Encode for ClientFrame {
    fn encode(&self, out: &mut String) {
        match self {
            ClientFrame::Hello { proto } => write_variant(out, "hello", &[("proto", proto)]),
            ClientFrame::Submit {
                id,
                request,
                budget: Some(budget),
            } => write_variant(
                out,
                "submit",
                &[("id", id), ("request", request), ("budget", budget)],
            ),
            ClientFrame::Submit {
                id,
                request,
                budget: None,
            } => write_variant(out, "submit", &[("id", id), ("request", request)]),
            ClientFrame::Stats { id } => write_variant(out, "stats", &[("id", id)]),
        }
    }
}

impl Decode for ClientFrame {
    fn decode(p: &mut Parser<'_>, _: &'static str) -> Result<Self, DecodeError> {
        const WHAT: &str = "ClientFrame";
        p.tagged(
            WHAT,
            |_| None,
            |p, tag| match tag {
                "hello" => Some(decode_fields!(p, WHAT, ClientFrame::Hello { proto })),
                "submit" => Some(decode_fields!(p, WHAT, [id, request, budget] => {
                    Ok(ClientFrame::Submit { id, request, budget })
                })),
                "stats" => Some(decode_fields!(p, WHAT, ClientFrame::Stats { id })),
                _ => None,
            },
        )
    }
}

/// Encodes a [`ClientFrame`] as a JSON string.
#[must_use]
pub fn encode_client_frame(f: &ClientFrame) -> String {
    to_text(f)
}

/// Decodes a [`ClientFrame`] from a JSON string.
pub fn decode_client_frame(text: &str) -> Result<ClientFrame, DecodeError> {
    from_text(text, "ClientFrame")
}

/// Encodes a [`ServerFrame`] as a JSON string.
#[must_use]
pub fn encode_server_frame(f: &ServerFrame) -> String {
    to_text(f)
}

/// Decodes a [`ServerFrame`] from a JSON string.
pub fn decode_server_frame(text: &str) -> Result<ServerFrame, DecodeError> {
    from_text(text, "ServerFrame")
}
