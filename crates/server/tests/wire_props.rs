//! Property tests for the wire format: encode→parse round trips over
//! generated values, plus a fuzz-ish pass feeding random and truncated
//! byte soup to the decoder (it must reject, never panic).
//!
//! Crashing inputs are not lost when they are found: every fuzz case
//! runs under `catch_unwind`, and a panic persists the offending input
//! to the committed corpus at `tests/corpus/` (as `crash-<hash>.txt`)
//! before failing the test. Every run replays the whole corpus FIRST —
//! seeded regression inputs plus any previously persisted crashes — so
//! a decoder regression trips deterministically, before any randomness.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use sit_prng::{prop, prop_assert, prop_assert_eq, Xoshiro256pp};
use sit_server::wire::{FrameBuffer, Framed, Json, MAX_DEPTH};

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
