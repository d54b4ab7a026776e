//! The wire format: a small, hermetic JSON implementation.
//!
//! The workspace has no external crates, so the protocol carries its own
//! JSON: a recursive-descent parser with explicit depth and size limits
//! (a malicious frame must not blow the stack or the heap) and an
//! escaping encoder. Objects preserve insertion order so encoded frames
//! are byte-stable — golden fixtures and `BENCH_*.json` diffs rely on
//! that.
//!
//! [`Json`] is the tree requests are parsed into and clients build.
//! Replies are not built as trees: the service writes each one straight
//! into its frame through [`Value`], whose strings go through the same
//! escaper [`Json::encode`] uses.
//!
//! Decoding and encoding are linear in frame size. Both halves find
//! the next byte a string must escape with one scan that tests eight
//! bytes per step, and copy each run between two such bytes whole, so
//! [`MAX_FRAME`] bounds the work of any frame as well as its memory.
//!
//! ```
//! use sit_server::wire::{Json, Value};
//!
//! let v = Json::parse(r#"{"op":"ping","n":3}"#).unwrap();
//! assert_eq!(v.get("op").and_then(Json::as_str), Some("ping"));
//! assert_eq!(v.encode(), r#"{"op":"ping","n":3}"#);
//!
//! let mut frame = String::new();
//! Value::new(&mut frame).object(|o| {
//!     o.field("op").str("ping");
//!     o.field("n").num(3);
//! });
//! assert_eq!(frame, v.encode());
//! ```

use std::fmt;

/// Maximum nesting depth a frame may use. Protocol frames are nearly
/// flat; this bound exists to keep the recursive parser stack-safe.
pub const MAX_DEPTH: usize = 64;

/// Maximum frame size in bytes the parser accepts (1 MiB). DDL payloads
/// for realistic schemas are a few KiB.
pub const MAX_FRAME: usize = 1 << 20;

/// A parsed JSON value. Object keys keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (held as f64; the protocol's numbers are counts
    /// and ids well under 2^53).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus message.
#[derive(Clone, Debug, PartialEq)]
pub struct WireError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for WireError {}

impl Json {
    /// Parse one complete JSON document; trailing non-whitespace is an
    /// error (frames are exactly one value per line).
    pub fn parse(text: &str) -> Result<Json, WireError> {
        if text.len() > MAX_FRAME {
            return Err(WireError {
                at: 0,
                msg: format!("frame of {} bytes exceeds limit {}", text.len(), MAX_FRAME),
            });
        }
        let bytes = text.as_bytes();
        let mut p = Parser {
            text,
            bytes,
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    /// Encode to compact JSON (no whitespace), escaping as needed.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(self.encoded_len_hint());
        self.write(&mut out);
        out
    }

    /// The encoded length, short only by escapes and long numbers: the
    /// capacity [`Json::encode`] reserves.
    fn encoded_len_hint(&self) -> usize {
        match self {
            Json::Null | Json::Bool(true) => 4,
            Json::Bool(false) => 5,
            Json::Num(_) => 1,
            Json::Str(s) => s.len() + 2,
            Json::Arr(items) => {
                items
                    .iter()
                    .map(|v| v.encoded_len_hint() + 1)
                    .sum::<usize>()
                    + 1
            }
            Json::Obj(pairs) => {
                let members: usize = pairs
                    .iter()
                    .map(|(k, v)| k.len() + 3 + v.encoded_len_hint() + 1)
                    .sum();
                members + 1
            }
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    // ---- accessors used by the protocol layer ----

    /// Member of an object, by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: a string-valued object.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience: a number value from an integer count/id.
    pub fn num(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

fn write_num(n: f64, out: &mut String) {
    use std::fmt::Write as _;
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf; should not occur
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Quote and escape `s`.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    escape(s, out);
    out.push('"');
}

/// Append `s` escaped for the inside of a JSON string: each run of
/// bytes that needs no escape ([`plain_run`]) is copied whole. The one
/// escaper of both [`Json::encode`] and [`Value`].
fn escape(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    let mut i = 0;
    loop {
        let run = plain_run(&bytes[i..]);
        out.push_str(&s[i..i + run]);
        i += run;
        let Some(&b) = bytes.get(i) else { break };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        i += 1;
    }
}

/// One JSON value, written straight into a frame: the reply side of the
/// wire, with no tree between. Consuming `self`, each method writes
/// exactly one value; [`Value::object`] and [`Value::array`] hand their
/// closure the container, close it after, and put the commas between
/// its members. Numbers and strings are written as [`Json::encode`]
/// writes them, so a frame written here encodes like the tree of it.
pub struct Value<'a>(&'a mut String);

impl<'a> Value<'a> {
    /// A value appended to `out`.
    pub fn new(out: &'a mut String) -> Value<'a> {
        Value(out)
    }

    /// `null`.
    pub fn null(self) {
        self.0.push_str("null");
    }

    /// `true` or `false`.
    pub fn bool(self, b: bool) {
        self.0.push_str(if b { "true" } else { "false" });
    }

    /// A count or id.
    pub fn num(self, n: u64) {
        write_num(n as f64, self.0);
    }

    /// Any number.
    pub fn float(self, n: f64) {
        write_num(n, self.0);
    }

    /// A string, quoted and escaped.
    pub fn str(self, s: &str) {
        write_str(s, self.0);
    }

    /// A string: `v`'s `Display` text, escaped as it is formatted.
    pub fn display(self, v: impl fmt::Display) {
        self.text(|text| fmt::Write::write_fmt(text, format_args!("{v}")));
    }

    /// A string whose text `write` writes in pieces. The pieces land in
    /// the frame as they come; when `write` returns, the text from its
    /// first byte that needs an escape on is escaped in one pass. A
    /// `String` never fails a write, so an error `write` returns can
    /// come only from a `Display` it called, and leaves the string as
    /// far as it got.
    pub fn text(self, write: impl FnOnce(&mut Text<'_>) -> fmt::Result) {
        let out = self.0;
        out.push('"');
        let start = out.len();
        let _ = write(&mut Text(out));
        let first = start + plain_run(&out.as_bytes()[start..]);
        if first < out.len() {
            let raw = out.split_off(first);
            escape(&raw, out);
        }
        out.push('"');
    }

    /// An object whose members `members` writes.
    pub fn object(self, members: impl FnOnce(&mut Object<'_>)) {
        self.0.push('{');
        members(&mut Object {
            out: self.0,
            first: true,
        });
        self.0.push('}');
    }

    /// An array whose items `items` writes.
    pub fn array(self, items: impl FnOnce(&mut Array<'_>)) {
        self.0.push('[');
        items(&mut Array {
            out: self.0,
            first: true,
        });
        self.0.push(']');
    }
}

/// An object being written by [`Value::object`].
pub struct Object<'a> {
    out: &'a mut String,
    first: bool,
}

impl Object<'_> {
    /// Write the key of the next member; the returned [`Value`] writes
    /// its value.
    pub fn field(&mut self, key: &str) -> Value<'_> {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        write_str(key, self.out);
        self.out.push(':');
        Value(self.out)
    }
}

/// An array being written by [`Value::array`].
pub struct Array<'a> {
    out: &'a mut String,
    first: bool,
}

impl Array<'_> {
    /// The next item.
    pub fn item(&mut self) -> Value<'_> {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        Value(self.out)
    }
}

/// The [`fmt::Write`] a [`Value::text`] string is written through.
///
/// Escaping each piece as it came cost a scan and a copy per piece, so
/// text rendered from many short pieces (a schema's diagram, a mapping
/// dictionary) took twice as long as the one escaping pass
/// [`Value::text`] makes over all of it.
pub struct Text<'a>(&'a mut String);

impl fmt::Write for Text<'_> {
    #[inline]
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.push_str(s);
        Ok(())
    }
}

/// The index of the first byte in `bytes` that a JSON string must
/// escape (`"`, `\` or a control byte below 0x20), or `bytes.len()` if
/// there is none. Every such byte is ASCII, so the index is always a
/// character boundary of the `str` the bytes came from.
///
/// Eight bytes are tested per step as one little-endian `u64`. For a
/// word `x`, `(x - n * LO) & !x & HI` flags each byte below `n`
/// (`n <= 0x80`); a byte equal to `c` is a zero byte of `x ^ c * LO`.
/// A borrow can flag a byte above a true hit, never below one, so the
/// lowest flag is exact.
fn plain_run(bytes: &[u8]) -> usize {
    const LO: u64 = u64::from_le_bytes([0x01; 8]);
    const HI: u64 = u64::from_le_bytes([0x80; 8]);
    const QUOTE: u64 = LO * b'"' as u64;
    const BACKSLASH: u64 = LO * b'\\' as u64;
    let below = |x: u64, n: u64| x.wrapping_sub(n * LO) & !x;
    let mut words = bytes.chunks_exact(8);
    for (k, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes"));
        let hits = (below(x, 0x20) | below(x ^ QUOTE, 1) | below(x ^ BACKSLASH, 1)) & HI;
        if hits != 0 {
            return k * 8 + (hits.trailing_zeros() / 8) as usize;
        }
    }
    let tail = words.remainder();
    let done = bytes.len() - tail.len();
    done + tail
        .iter()
        .position(|&b| matches!(b, b'"' | b'\\' | 0..=0x1f))
        .unwrap_or(tail.len())
}

/// Largest newline-terminated line the framing layer will buffer before
/// giving up on the connection (a frame plus a little slack). A peer that
/// streams more than this without a newline is answered with a `parse`
/// error and disconnected rather than growing the buffer forever.
pub const MAX_LINE: usize = MAX_FRAME + 1024;

/// One extracted frame from a [`FrameBuffer`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Framed {
    /// A complete line (newline stripped, lossily decoded as UTF-8 so a
    /// mangled frame still reaches the parser and earns a typed error).
    Line(String),
    /// The peer exceeded [`MAX_LINE`] without sending a newline; the
    /// buffered bytes were discarded and the connection should close.
    Overflow,
}

/// Incremental newline framing over raw transport bytes.
///
/// The serving loop and the chaos harness both speak
/// one-JSON-object-per-line over byte streams that may arrive torn into
/// arbitrary segments (TCP, or the fault-injected simulated transport).
/// `FrameBuffer` reassembles lines independently of how the bytes were
/// chunked: push whatever arrived, pop complete frames.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    scanned: usize,
}

impl FrameBuffer {
    /// Empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Append raw bytes read from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered without a terminating newline.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pop the next complete frame, if one has fully arrived.
    pub fn next_frame(&mut self) -> Option<Framed> {
        if let Some(i) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            let end = self.scanned + i;
            let mut line: Vec<u8> = self.buf.drain(..=end).collect();
            self.scanned = 0;
            line.pop(); // the newline
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Some(Framed::Line(String::from_utf8_lossy(&line).into_owned()));
        }
        // No newline yet; remember how far we scanned so the next push
        // resumes there instead of rescanning.
        self.scanned = self.buf.len();
        if self.buf.len() > MAX_LINE {
            self.buf.clear();
            self.scanned = 0;
            return Some(Framed::Overflow);
        }
        None
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> WireError {
        WireError {
            at: self.pos,
            msg: msg.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, WireError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, WireError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte 0x{c:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, WireError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, WireError> {
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = plain_run(&self.bytes[self.pos..]);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
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
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(self.err(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                // `plain_run` stops only at `"`, `\` and control bytes.
                Some(_) => return Err(self.err("raw control byte in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, WireError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, WireError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let n: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shaped_frames() {
        let v = Json::parse(r#"{"op":"assert","a":"sc1.Student","n":42,"flag":true,"x":null}"#)
            .unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("assert"));
        assert_eq!(v.get("n").and_then(Json::as_num), Some(42.0));
        assert_eq!(v.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("x"), Some(&Json::Null));
    }

    #[test]
    fn escapes_round_trip() {
        let s = "line\nquote\"back\\slash\ttab\u{1F600}é";
        let encoded = Json::Str(s.into()).encode();
        assert_eq!(Json::parse(&encoded).unwrap(), Json::Str(s.into()));
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            Json::parse(r#""😀""#).unwrap(),
            Json::Str("\u{1F600}".into())
        );
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn depth_limit_enforced() {
        let deep_ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deep_ok).is_ok());
        let deep_bad = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&deep_bad).is_err());
    }

    #[test]
    fn frame_size_limit_enforced() {
        let big = format!("\"{}\"", "a".repeat(MAX_FRAME));
        let err = Json::parse(&big).unwrap_err();
        assert!(err.msg.contains("exceeds limit"));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "tru", "1.2.3", "\"\x01\"", "{}x", "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn frame_buffer_reassembles_torn_lines() {
        let mut fb = FrameBuffer::new();
        fb.push(b"{\"op\":");
        assert_eq!(fb.next_frame(), None);
        fb.push(b"\"ping\"}\n{\"op\":\"st");
        assert_eq!(
            fb.next_frame(),
            Some(Framed::Line("{\"op\":\"ping\"}".into()))
        );
        assert_eq!(fb.next_frame(), None);
        fb.push(b"ats\"}\r\n");
        assert_eq!(
            fb.next_frame(),
            Some(Framed::Line("{\"op\":\"stats\"}".into()))
        );
        assert_eq!(fb.next_frame(), None);
        assert_eq!(fb.buffered(), 0);
    }

    #[test]
    fn frame_buffer_yields_every_line_of_one_chunk() {
        let mut fb = FrameBuffer::new();
        fb.push(b"a\nb\n\nc\n");
        let mut lines = Vec::new();
        while let Some(Framed::Line(l)) = fb.next_frame() {
            lines.push(l);
        }
        assert_eq!(lines, ["a", "b", "", "c"]);
    }

    #[test]
    fn frame_buffer_overflows_on_unterminated_floods() {
        let mut fb = FrameBuffer::new();
        let chunk = vec![b'x'; MAX_LINE / 4 + 1];
        for _ in 0..4 {
            fb.push(&chunk);
        }
        assert_eq!(fb.next_frame(), Some(Framed::Overflow));
        // The buffer is usable again afterwards (caller decides to close).
        fb.push(b"ok\n");
        assert_eq!(fb.next_frame(), Some(Framed::Line("ok".into())));
    }

    #[test]
    fn frame_buffer_is_chunking_invariant() {
        let text = b"{\"op\":\"ping\"}\n{\"op\":\"open\"}\n{\"op\":\"stats\"}\n";
        let whole = {
            let mut fb = FrameBuffer::new();
            fb.push(text);
            let mut out = Vec::new();
            while let Some(Framed::Line(l)) = fb.next_frame() {
                out.push(l);
            }
            out
        };
        for step in 1..7usize {
            let mut fb = FrameBuffer::new();
            let mut out = Vec::new();
            for chunk in text.chunks(step) {
                fb.push(chunk);
                while let Some(Framed::Line(l)) = fb.next_frame() {
                    out.push(l);
                }
            }
            assert_eq!(out, whole, "chunk size {step}");
        }
    }

    #[test]
    fn plain_run_finds_the_first_escape_in_every_lane_and_the_tail() {
        // Fills sit next to the stop bytes in value, or above 0x7f where
        // a borrow or a sign bit could fake a hit.
        for fill in [
            b'a', b' ', b'!', b'#', b'[', b']', 0x7f, 0x80, 0xa2, 0xdc, 0xff,
        ] {
            for len in 0..=24 {
                let plain = vec![fill; len];
                assert_eq!(plain_run(&plain), len, "fill {fill:#x}");
                for at in 0..len {
                    for stop in (0u8..=0xff).filter(|&b| b < 0x20 || b == b'"' || b == b'\\') {
                        let mut bytes = plain.clone();
                        bytes[at] = stop;
                        // A second stop later must not mask the first.
                        if at + 3 < len {
                            bytes[at + 3] = b'"';
                        }
                        assert_eq!(
                            plain_run(&bytes),
                            at,
                            "fill {fill:#x} stop {stop:#x} at {at}"
                        );
                    }
                }
            }
        }
    }

    /// The encoder before it copied runs: one `char` at a time.
    fn write_str_per_char(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// A short string heavy in bytes the escaper treats specially.
    fn awkward_string(rng: &mut sit_prng::Xoshiro256pp) -> String {
        let len = rng.gen_range(0usize..40);
        (0..len)
            .map(|_| match rng.gen_range(0u32..8) {
                0 => char::from_u32(rng.gen_range(0u32..0x20)).unwrap(),
                1 => *rng.choose(&['"', '\\', '\u{7f}', '/']).unwrap(),
                2 => char::from_u32(rng.gen_range(0x80u32..0x800)).unwrap(),
                3 => *rng
                    .choose(&['é', '\u{FFFD}', '\u{1F600}', '\u{2028}'])
                    .unwrap(),
                _ => char::from_u32(rng.gen_range(0x20u32..0x7f)).unwrap(),
            })
            .collect()
    }

    #[test]
    fn run_copying_encoder_matches_the_per_char_loop() {
        use sit_prng::{prop, prop_assert_eq};
        prop::check("write_str vs per-char", |rng| {
            let s = awkward_string(rng);
            let (mut new, mut old) = (String::new(), String::new());
            write_str(&s, &mut new);
            write_str_per_char(&s, &mut old);
            prop_assert_eq!(new, old, "{:?}", s);
            Ok(())
        });
    }

    /// A random tree of depth at most `depth`.
    fn random_tree(rng: &mut sit_prng::Xoshiro256pp, depth: u32) -> Json {
        let leaf = depth == 0 || rng.gen_range(0u32..3) == 0;
        match rng.gen_range(0u32..if leaf { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_range(0u32..2) == 1),
            2 => Json::Num(*rng.choose(&[0.0, 42.0, -7.0, 0.5, 1e300]).unwrap()),
            3 => Json::Str(awkward_string(rng)),
            4 => Json::Arr(
                (0..rng.gen_range(0usize..4))
                    .map(|_| random_tree(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.gen_range(0usize..4))
                    .map(|_| (awkward_string(rng), random_tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Write `v` through the reply writer; a string goes whole, through
    /// `Display`, or in pieces through the escaping adapter.
    fn write_tree(v: &Json, w: Value<'_>, rng: &mut sit_prng::Xoshiro256pp) {
        match v {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Num(n) => w.float(*n),
            Json::Str(s) => match rng.gen_range(0u32..3) {
                0 => w.str(s),
                1 => w.display(s),
                _ => w.text(|text| s.chars().try_for_each(|c| fmt::Write::write_char(text, c))),
            },
            Json::Arr(items) => w.array(|a| {
                for item in items {
                    write_tree(item, a.item(), rng);
                }
            }),
            Json::Obj(pairs) => w.object(|o| {
                for (k, v) in pairs {
                    write_tree(v, o.field(k), rng);
                }
            }),
        }
    }

    #[test]
    fn the_writer_writes_what_the_tree_encodes() {
        use sit_prng::{prop, prop_assert_eq};
        prop::check("Value vs Json::encode", |rng| {
            let tree = random_tree(rng, 3);
            let mut written = String::from("prefix ");
            write_tree(&tree, Value::new(&mut written), rng);
            prop_assert_eq!(&written["prefix ".len()..], tree.encode(), "{:?}", tree);
            Ok(())
        });
    }

    #[test]
    fn numbers_round_trip() {
        for (src, want) in [("0", 0.0), ("-12", -12.0), ("3.5", 3.5), ("1e3", 1000.0)] {
            assert_eq!(Json::parse(src).unwrap(), Json::Num(want));
        }
        let enc = Json::Num(1234567.0).encode();
        assert_eq!(enc, "1234567");
    }
}
