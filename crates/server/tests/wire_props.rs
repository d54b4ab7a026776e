//! Property tests for the wire format: encode→parse round trips over
//! generated values, plus a fuzz-ish pass feeding random and truncated
//! byte soup to the decoder (it must reject, never panic). Strings are
//! also checked against reference codecs that work one `char` at a
//! time, and frames of the maximum size must parse in linear time.
//!
//! Crashing inputs are not lost when they are found: every fuzz case
//! runs under `catch_unwind`, and a panic persists the offending input
//! to the committed corpus at `tests/corpus/` (as `crash-<hash>.txt`)
//! before failing the test. Every run replays the whole corpus FIRST —
//! seeded regression inputs plus any previously persisted crashes — so
//! a decoder regression trips deterministically, before any randomness.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use sit_prng::{prop, prop_assert, prop_assert_eq, Xoshiro256pp};
use sit_server::wire::{FrameBuffer, Framed, Json, WireError, MAX_DEPTH, MAX_FRAME};

/// The committed fuzz corpus, shipped with the repo.
fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// One fuzz input through every decoder entry point: the JSON parser
/// directly, and the line reassembler feeding it (with a CRLF variant).
/// Outcome is free; panicking is the only failure.
fn decode_case(text: &str) {
    let _ = Json::parse(text);
    let mut frames = FrameBuffer::new();
    frames.push(text.as_bytes());
    frames.push(b"\r\n");
    while let Some(framed) = frames.next_frame() {
        if let Framed::Line(line) = framed {
            let _ = Json::parse(&line);
        }
    }
}

/// Run a generated input; if the decoder panics, persist the input to
/// the corpus so the crash replays on every future run, then fail.
fn check_case_persisting(text: &str) {
    if catch_unwind(AssertUnwindSafe(|| decode_case(text))).is_err() {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        text.hash(&mut h);
        let dir = corpus_dir();
        std::fs::create_dir_all(&dir).ok();
        let path = dir.join(format!("crash-{:016x}.txt", h.finish()));
        std::fs::write(&path, text).ok();
        panic!(
            "decoder panicked; input persisted to {} — commit it",
            path.display()
        );
    }
}

/// Replay every committed corpus file (sorted, so ordering is stable)
/// through the decoder before any random generation happens.
fn replay_corpus() {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    assert!(!files.is_empty(), "committed corpus is empty");
    for path in files {
        let bytes = std::fs::read(&path).expect("read corpus file");
        // Lossy conversion mirrors what a reader hands the parser; raw
        // invalid UTF-8 bytes in the corpus exercise that path too.
        let text = String::from_utf8_lossy(&bytes);
        assert!(
            catch_unwind(AssertUnwindSafe(|| decode_case(&text))).is_ok(),
            "corpus case {} panics the decoder",
            path.display()
        );
    }
}

#[test]
fn corpus_replays_without_panicking() {
    replay_corpus();
}

/// A random scalar-ish string exercising escapes, unicode, and controls.
fn gen_string(rng: &mut Xoshiro256pp) -> String {
    let len = rng.gen_range(0usize..24);
    let mut s = String::new();
    for _ in 0..len {
        match rng.gen_range(0u32..10) {
            0 => s.push('"'),
            1 => s.push('\\'),
            2 => s.push('\n'),
            3 => s.push('\t'),
            4 => s.push(char::from_u32(rng.gen_range(1u32..0x20)).unwrap()),
            5 => s.push('é'),
            6 => s.push('\u{1F600}'), // surrogate-pair territory
            7 => s.push('\u{FFFD}'),
            _ => s.push(char::from_u32(rng.gen_range(0x20u32..0x7f)).unwrap()),
        }
    }
    s
}

fn gen_value(rng: &mut Xoshiro256pp, depth: usize) -> Json {
    let leaf = depth >= 5;
    match rng.gen_range(0u32..if leaf { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => {
            // Integers and fractions that survive f64 round-tripping.
            let n = rng.gen_range(-1_000_000i64..1_000_000);
            if rng.gen_bool(0.5) {
                Json::Num(n as f64)
            } else {
                Json::Num(n as f64 / 64.0)
            }
        }
        3 => Json::Str(gen_string(rng)),
        4 => {
            let n = rng.gen_range(0usize..4);
            Json::Arr((0..n).map(|_| gen_value(rng, depth + 1)).collect())
        }
        _ => {
            let n = rng.gen_range(0usize..4);
            Json::Obj(
                (0..n)
                    .map(|i| {
                        (
                            format!("k{i}_{}", gen_string(rng)),
                            gen_value(rng, depth + 1),
                        )
                    })
                    .collect(),
            )
        }
    }
}

#[test]
fn encode_parse_round_trips_generated_values() {
    prop::check("wire round trip", |rng| {
        let v = gen_value(rng, 0);
        let encoded = v.encode();
        let parsed = Json::parse(&encoded).map_err(|e| format!("{e} in {encoded}"))?;
        prop_assert_eq!(parsed, v, "{}", encoded);
        Ok(())
    });
}

#[test]
fn strings_with_every_escape_round_trip() {
    prop::check("string escapes", |rng| {
        let s = gen_string(rng);
        let encoded = Json::Str(s.clone()).encode();
        let parsed = Json::parse(&encoded).map_err(|e| format!("{e} in {encoded}"))?;
        prop_assert_eq!(parsed, Json::Str(s));
        Ok(())
    });
}

#[test]
fn nesting_round_trips_exactly_at_the_depth_limit() {
    let mut v = Json::Num(1.0);
    for _ in 0..MAX_DEPTH {
        v = Json::Arr(vec![v]);
    }
    let encoded = v.encode();
    assert_eq!(Json::parse(&encoded).unwrap(), v);
    // One deeper is rejected, not a stack overflow.
    let deeper = format!("[{encoded}]");
    assert!(Json::parse(&deeper).is_err());
}

#[test]
fn decoder_never_panics_on_random_bytes() {
    replay_corpus(); // regressions first, randomness second
    prop::check_cases("wire fuzz: random bytes", 256, |rng| {
        let len = rng.gen_range(0usize..200);
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len {
            // Bias toward JSON-ish structural bytes so the parser gets
            // deep before failing.
            let b = match rng.gen_range(0u32..4) {
                0 => *rng.choose(b"{}[]\",:truefalsnl0123456789.-+eE\\u").unwrap(),
                1 => rng.gen_range(0u32..128) as u8,
                _ => rng.gen_range(0u32..256) as u8,
            };
            bytes.push(b);
        }
        // Invalid UTF-8 can't even reach the parser through &str; lossy
        // conversion mirrors what a reader would hand us.
        let text = String::from_utf8_lossy(&bytes);
        check_case_persisting(&text); // must not panic; outcome is free
        Ok(())
    });
}

#[test]
fn decoder_never_panics_on_truncated_frames() {
    replay_corpus(); // regressions first, randomness second
    prop::check_cases("wire fuzz: truncated frames", 128, |rng| {
        let v = gen_value(rng, 0);
        let encoded = v.encode();
        if encoded.is_empty() {
            return Ok(());
        }
        let cut = rng.gen_range(0usize..encoded.len());
        let mut end = cut;
        while end > 0 && !encoded.is_char_boundary(end) {
            end -= 1;
        }
        let truncated = &encoded[..end];
        check_case_persisting(truncated);
        if let Ok(reparsed) = Json::parse(truncated) {
            // A prefix can itself be valid only for scalar prefixes
            // (e.g. `12` of `123`); anything structural must fail.
            prop_assert!(
                !matches!(reparsed, Json::Arr(_) | Json::Obj(_)) || end == encoded.len(),
                "structural prefix {truncated} of {encoded} parsed"
            );
        }
        Ok(())
    });
}

/// The reference string decoder: the parser's string rule as it was
/// before it copied runs, one `char` at a time. It parses a frame that
/// holds one string value, with the parser's whitespace rule around it.
struct RefDecoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl RefDecoder<'_> {
    fn parse(text: &str) -> Result<Json, WireError> {
        let mut p = RefDecoder {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = Json::Str(p.string()?);
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

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

    fn string(&mut self) -> Result<String, WireError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected `\"`"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
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
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
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
}

/// The reference string encoder: one `char` at a time.
fn ref_encode(s: &str) -> String {
    let mut out = String::from("\"");
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
    out
}

/// Pieces of a string literal's body, well-formed or not: every escape,
/// surrogate pairs and lone halves, broken `\u` escapes, raw control
/// bytes, a raw quote that ends the string early, and multi-byte UTF-8.
const PIECES: &[&str] = &[
    "\\\"",
    "\\\\",
    "\\/",
    "\\b",
    "\\f",
    "\\n",
    "\\r",
    "\\t",
    "\\u0041",
    "\\u00e9",
    "\\u0000",
    "\\u001f",
    "\\u20ac",
    "\\uFFFD",
    "\\ud83d\\ude00",
    "\\uD834\\uDD1E",
    "\\ud83d",
    "\\ud83dx",
    "\\ud83d\\u0041",
    "\\ude00",
    "\\x",
    "\\u12",
    "\\uZZZZ",
    "\\u+041",
    "\\u00é",
    "\\",
    "\x01",
    "\x1f",
    "\n",
    "\t",
    "\"",
    "é",
    "€",
    "\u{1F600}",
    "\u{FFFD}",
    "\u{7f}",
    " ",
];

fn assert_decoders_agree(text: &str) {
    assert_eq!(Json::parse(text), RefDecoder::parse(text), "frame {text:?}");
}

#[test]
fn string_decoder_matches_the_per_char_reference() {
    prop::check_cases("string decode vs reference", 1024, |rng| {
        let mut text = " ".repeat(rng.gen_range(0usize..8));
        text.push('"');
        for _ in 0..rng.gen_range(0usize..12) {
            if rng.gen_bool(0.5) {
                let run = rng.gen_range(0usize..20);
                text.extend((0..run).map(|_| char::from(rng.gen_range(0x20u32..0x7f) as u8)));
            } else {
                text.push_str(rng.choose(PIECES).unwrap());
            }
        }
        if rng.gen_bool(0.8) {
            text.push('"');
        }
        prop_assert_eq!(Json::parse(&text), RefDecoder::parse(&text), "{:?}", text);
        Ok(())
    });
}

#[test]
fn escapes_at_every_lane_and_run_end_decode_and_encode_like_the_reference() {
    for lead in 0..=17 {
        for trail in 0..=9 {
            for piece in PIECES {
                let body = format!("{}{piece}{}", "a".repeat(lead), "b".repeat(trail));
                assert_decoders_agree(&format!("\"{body}\""));
                assert_decoders_agree(&format!("\"{body}"));
                // The same text as a decoded value, so every stop byte
                // sits at this offset of the encoder's input too.
                let value: String = format!("{}{piece}{}", "é".repeat(lead), "b".repeat(trail));
                assert_eq!(Json::Str(value.clone()).encode(), ref_encode(&value));
            }
        }
    }
}

/// Parse `frame` on a worker thread and fail if it takes longer than
/// `limit`: a decoder that is quadratic in frame size takes minutes on a
/// frame of [`MAX_FRAME`] bytes.
fn parses_within(frame: String, limit: Duration) -> Json {
    assert!(frame.len() <= MAX_FRAME && frame.len() + 1024 > MAX_FRAME);
    let len = frame.len();
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(Json::parse(&frame));
    });
    match rx.recv_timeout(limit) {
        Ok(parsed) => {
            worker.join().expect("parser thread");
            parsed.expect("frame parses")
        }
        Err(_) => panic!("a {len}-byte frame did not parse within {limit:?}"),
    }
}

#[test]
fn max_frame_strings_parse_in_linear_time() {
    let limit = Duration::from_secs(1);

    // One string field: a DDL payload with an escape every line.
    let head = r#"{"op":"add_schema","session":"1","ddl":""#;
    let line = r#"  entity Student { Name: char \"key\"; GPA: real; Année: int; }\n"#;
    let mut frame = String::from(head);
    while frame.len() + line.len() + 2 <= MAX_FRAME {
        frame.push_str(line);
    }
    frame.push_str("\"}");
    let ddl = parses_within(frame, limit);
    let ddl = ddl.get("ddl").and_then(Json::as_str).expect("ddl field");
    assert!(
        ddl.ends_with("Année: int; }\n"),
        "{}",
        &ddl[ddl.len() - 40..]
    );

    // Many short strings: each one is followed by the rest of the frame.
    let mut frame = String::from("[");
    let item = "\"ab\",";
    while frame.len() + 2 * item.len() <= MAX_FRAME {
        frame.push_str(item);
    }
    frame.push_str("\"ab\"]");
    let items = parses_within(frame, limit);
    assert!(items.as_arr().expect("array").len() > MAX_FRAME / 6);
}
