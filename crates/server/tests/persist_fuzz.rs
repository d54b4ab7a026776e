//! Fuzz the log and snapshot record parsers: `decode_log_records` (the
//! log segment reader), `decode_records` and `decode_snapshot` take
//! bytes straight off disk after a crash, so arbitrary garbage must
//! decode to a clean prefix — reject, truncate, never panic.
//!
//! Same harness discipline as the wire fuzz (`wire_props.rs`): the
//! committed corpus at `tests/corpus/persist/` (hex-encoded, one blob
//! per file) replays FIRST on every run, so a parser regression trips
//! deterministically before any randomness; a panic found by the
//! seeded random pass is persisted to the corpus (as
//! `crash-<hash>.hex`) before the test fails, turning every new
//! crasher into a permanent regression test.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use sit_prng::Xoshiro256pp;
use sit_server::persist::{
    decode_log_records, decode_records, decode_snapshot, encode_log_record, encode_record,
    record_crc, RecordKind, MAX_JOURNAL_PAYLOAD,
};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/persist")
}

fn from_hex(text: &str) -> Vec<u8> {
    let digits: Vec<u32> = text.chars().filter_map(|c| c.to_digit(16)).collect();
    digits
        .chunks_exact(2)
        .map(|p| (p[0] * 16 + p[1]) as u8)
        .collect()
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One fuzz input through both parser entry points, with a tight
/// `max_payload` variant so the length-limit branch runs too. Outcome
/// is free; panicking is the only failure.
fn decode_case(bytes: &[u8]) {
    let scan = decode_records(bytes, MAX_JOURNAL_PAYLOAD);
    // Whatever survived must be internally consistent: the consumed
    // prefix re-encodes to exactly the bytes it was decoded from.
    let mut rebuilt = Vec::new();
    for (seq, payload) in &scan.records {
        rebuilt.extend_from_slice(&encode_record(*seq, payload));
    }
    assert_eq!(
        rebuilt.len(),
        scan.consumed,
        "decoded records must re-encode to the consumed prefix"
    );
    assert_eq!(&bytes[..scan.consumed], &rebuilt[..]);
    let _ = decode_records(bytes, 24);
    let _ = decode_snapshot(bytes);

    // The same contract for the log segment reader.
    let scan = decode_log_records(bytes);
    let mut rebuilt = Vec::new();
    for r in &scan.records {
        rebuilt.extend_from_slice(&encode_log_record(r.session, r.seq, r.kind, &r.payload));
    }
    assert_eq!(&bytes[..scan.consumed], &rebuilt[..]);
    assert_eq!(scan.consumed + scan.trailing, bytes.len());
}

fn check_case_persisting(bytes: &[u8]) {
    if catch_unwind(AssertUnwindSafe(|| decode_case(bytes))).is_err() {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        bytes.hash(&mut h);
        let dir = corpus_dir();
        std::fs::create_dir_all(&dir).ok();
        let path = dir.join(format!("crash-{:016x}.hex", h.finish()));
        std::fs::write(&path, to_hex(bytes)).ok();
        panic!(
            "record parser panicked; input persisted to {} — commit it",
            path.display()
        );
    }
}

fn replay_corpus() {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus/persist exists")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    assert!(!files.is_empty(), "committed persist corpus is empty");
    for path in files {
        let text = std::fs::read_to_string(&path).expect("read corpus file");
        let bytes = from_hex(&text);
        assert!(
            catch_unwind(AssertUnwindSafe(|| decode_case(&bytes))).is_ok(),
            "corpus case {} panics the record parser",
            path.display()
        );
    }
}

#[test]
fn corpus_replays_without_panicking() {
    replay_corpus();
}

#[test]
fn random_byte_soup_never_panics_the_parser() {
    replay_corpus(); // regressions first, randomness second
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EED_5001);
    for _ in 0..4000 {
        let len = rng.gen_range(0usize..160);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        check_case_persisting(&bytes);
    }
}

/// Far nastier than uniform noise: start from *valid* journals and
/// log segments and mutate them — truncations, bit flips, length-field
/// edits, splices.
#[test]
fn mutated_valid_journals_never_panic_the_parser() {
    replay_corpus(); // regressions first, randomness second
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EED_5002);
    let kinds = [RecordKind::Open, RecordKind::Frame, RecordKind::Close];
    for round in 0..4000 {
        let records = rng.gen_range(1usize..5);
        let mut journal = Vec::new();
        for seq in 0..records {
            let plen = rng.gen_range(0usize..40);
            let payload: Vec<u8> = (0..plen).map(|_| rng.gen_range(32u32..127) as u8).collect();
            if round % 2 == 0 {
                journal.extend_from_slice(&encode_record(seq as u64 + 1, &payload));
            } else {
                let session = rng.gen_range(1u64..4);
                let kind = kinds[rng.gen_range(0usize..3)];
                journal.extend_from_slice(&encode_log_record(
                    session,
                    seq as u64 + 1,
                    kind,
                    &payload,
                ));
            }
        }
        match rng.gen_range(0u32..4) {
            0 => {
                // Torn tail.
                let keep = rng.gen_range(0..journal.len() + 1);
                journal.truncate(keep);
            }
            1 => {
                // Single bit flip anywhere (header, crc, or payload).
                let at = rng.gen_range(0..journal.len());
                journal[at] ^= 1 << rng.gen_range(0u32..8);
            }
            2 => {
                // Rewrite a length field to something absurd.
                let at = rng.gen_range(0..journal.len().saturating_sub(4).max(1));
                let lie = if rng.gen_bool(0.5) {
                    u32::MAX
                } else {
                    rng.gen_range(0u32..1 << 24)
                };
                journal[at..at + 4].copy_from_slice(&lie.to_le_bytes());
            }
            _ => {
                // Splice two journals mid-record.
                let cut = rng.gen_range(0..journal.len() + 1);
                let extra = encode_record(99, b"{\"op\":\"close\"}");
                let graft = rng.gen_range(0..extra.len());
                journal.truncate(cut);
                journal.extend_from_slice(&extra[graft..]);
            }
        }
        check_case_persisting(&journal);
    }
}

/// The decoder's contract on *clean* input, so the fuzz has a floor:
/// every encoded journal decodes to exactly its records, and a torn
/// tail yields the intact prefix plus the torn byte count.
#[test]
fn clean_and_torn_journals_decode_to_the_intact_prefix() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EED_5003);
    for _ in 0..200 {
        let count = rng.gen_range(1usize..6);
        let mut journal = Vec::new();
        let mut expect = Vec::new();
        for seq in 0..count {
            let plen = rng.gen_range(0usize..64);
            let payload: Vec<u8> = (0..plen).map(|_| rng.gen_range(0u32..256) as u8).collect();
            journal.extend_from_slice(&encode_record(seq as u64, &payload));
            expect.push((seq as u64, payload));
        }
        let scan = decode_records(&journal, MAX_JOURNAL_PAYLOAD);
        assert_eq!(scan.records, expect);
        assert_eq!(scan.consumed, journal.len());
        assert_eq!(scan.trailing, 0);

        // Tear off 1..=header+payload-1 bytes: the last record dies,
        // everything before it survives, trailing counts the stump.
        let last_len = encode_record(expect[count - 1].0, &expect[count - 1].1).len();
        let tear = rng.gen_range(1..last_len + 1);
        let torn = &journal[..journal.len() - tear];
        let scan = decode_records(torn, MAX_JOURNAL_PAYLOAD);
        assert_eq!(scan.records[..], expect[..count - 1]);
        assert_eq!(scan.trailing, last_len - tear);
    }
}

/// CRC math the container leans on, pinned independently of the
/// implementation table.
#[test]
fn record_crc_matches_the_ieee_check_value() {
    // CRC-32/IEEE("123456789") — seq contributes too, so fold it in by
    // checking a record whose payload round-trips through decode.
    let rec = encode_record(42, b"123456789");
    let scan = decode_records(&rec, MAX_JOURNAL_PAYLOAD);
    assert_eq!(scan.records, vec![(42u64, b"123456789".to_vec())]);
    assert_ne!(record_crc(42, b"123456789"), record_crc(43, b"123456789"));
}

/// The committed log seed was encoded independently of this crate
/// (CRC-32/IEEE over session, seq, kind and payload), so decoding it
/// pins the record format itself.
#[test]
fn the_committed_log_seed_decodes_to_its_three_records() {
    let text = std::fs::read_to_string(corpus_dir().join("log-open-frame-close.hex"))
        .expect("read the log seed");
    let scan = decode_log_records(&from_hex(&text));
    let got: Vec<(u64, u64, RecordKind, usize)> = scan
        .records
        .iter()
        .map(|r| (r.session, r.seq, r.kind, r.payload.len()))
        .collect();
    assert_eq!(
        got,
        vec![
            (1, 1, RecordKind::Open, 0),
            (1, 2, RecordKind::Frame, 28),
            (1, 0, RecordKind::Close, 0),
        ]
    );
    assert_eq!(scan.trailing, 0);
}
