//! Fuzz the log record parser: `decode_log_records` (the log segment
//! reader, snapshots included) takes bytes straight off disk after a
//! crash, so arbitrary garbage must decode to a clean prefix — reject,
//! truncate, never panic.
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
    decode_log_records, encode_log_record, log_record_crc, RecordKind, MAX_JOURNAL_PAYLOAD,
    MAX_SNAPSHOT_PAYLOAD,
};

/// Every record kind.
const KINDS: [RecordKind; 4] = [
    RecordKind::Open,
    RecordKind::Frame,
    RecordKind::Snapshot,
    RecordKind::Close,
];

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

/// One fuzz input through the log segment reader. Outcome is free,
/// within its contract: whatever survived is internally consistent.
fn decode_case(bytes: &[u8]) {
    let scan = decode_log_records(bytes);
    // The consumed prefix re-encodes to exactly the bytes it was
    // decoded from, and the rest is the tail.
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

/// Far nastier than uniform noise: start from *valid* log segments and
/// mutate them — truncations, bit flips, length-field edits, splices.
#[test]
fn mutated_valid_segments_never_panic_the_parser() {
    replay_corpus(); // regressions first, randomness second
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EED_5002);
    for _ in 0..4000 {
        let records = rng.gen_range(1usize..5);
        let mut segment = Vec::new();
        for seq in 0..records {
            let plen = rng.gen_range(0usize..40);
            let payload: Vec<u8> = (0..plen).map(|_| rng.gen_range(32u32..127) as u8).collect();
            let session = rng.gen_range(1u64..4);
            let kind = KINDS[rng.gen_range(0usize..KINDS.len())];
            segment.extend_from_slice(&encode_log_record(session, seq as u64 + 1, kind, &payload));
        }
        match rng.gen_range(0u32..4) {
            0 => {
                // Torn tail.
                let keep = rng.gen_range(0..segment.len() + 1);
                segment.truncate(keep);
            }
            1 => {
                // Single bit flip anywhere (header, crc, or payload).
                let at = rng.gen_range(0..segment.len());
                segment[at] ^= 1 << rng.gen_range(0u32..8);
            }
            2 => {
                // Rewrite a length field to something absurd.
                let at = rng.gen_range(0..segment.len().saturating_sub(4).max(1));
                let lie = if rng.gen_bool(0.5) {
                    u32::MAX
                } else {
                    rng.gen_range(0u32..1 << 24)
                };
                segment[at..at + 4].copy_from_slice(&lie.to_le_bytes());
            }
            _ => {
                // Splice two segments mid-record.
                let cut = rng.gen_range(0..segment.len() + 1);
                let extra = encode_log_record(99, 1, RecordKind::Frame, b"{\"op\":\"close\"}");
                let graft = rng.gen_range(0..extra.len());
                segment.truncate(cut);
                segment.extend_from_slice(&extra[graft..]);
            }
        }
        check_case_persisting(&segment);
    }
}

/// The decoder's contract on *clean* input, so the fuzz has a floor:
/// every encoded segment decodes to exactly its records, and a torn
/// tail yields the intact prefix plus the torn byte count.
#[test]
fn clean_and_torn_segments_decode_to_the_intact_prefix() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EED_5003);
    for _ in 0..200 {
        let count = rng.gen_range(1usize..6);
        let mut segment = Vec::new();
        let mut expect = Vec::new();
        for seq in 0..count {
            let plen = rng.gen_range(0usize..64);
            let payload: Vec<u8> = (0..plen).map(|_| rng.gen_range(0u32..256) as u8).collect();
            let kind = KINDS[rng.gen_range(0usize..KINDS.len())];
            let record = encode_log_record(7, seq as u64, kind, &payload);
            segment.extend_from_slice(&record);
            expect.push((record.len(), seq as u64, kind, payload));
        }
        let decoded = |bytes: &[u8]| {
            let scan = decode_log_records(bytes);
            let records: Vec<(u64, RecordKind, Vec<u8>)> = scan
                .records
                .into_iter()
                .map(|r| (r.seq, r.kind, r.payload))
                .collect();
            (records, scan.consumed, scan.trailing)
        };
        let want: Vec<(u64, RecordKind, Vec<u8>)> = expect
            .iter()
            .map(|(_, seq, kind, payload)| (*seq, *kind, payload.clone()))
            .collect();
        assert_eq!(decoded(&segment), (want.clone(), segment.len(), 0));

        // Tear off 1..=header+payload bytes: the last record dies,
        // everything before it survives, trailing counts the stump.
        let last_len = expect[count - 1].0;
        let tear = rng.gen_range(1..last_len + 1);
        let torn = &segment[..segment.len() - tear];
        let (records, consumed, trailing) = decoded(torn);
        assert_eq!(records[..], want[..count - 1]);
        assert_eq!(consumed, segment.len() - last_len);
        assert_eq!(trailing, last_len - tear);
    }
}

/// The checksum covers every header field after it, not only the
/// payload: a record moved to another session, sequence or kind fails.
#[test]
fn the_record_checksum_covers_session_seq_and_kind() {
    let crc = log_record_crc(1, 42, RecordKind::Frame, b"123456789");
    assert_ne!(crc, log_record_crc(2, 42, RecordKind::Frame, b"123456789"));
    assert_ne!(crc, log_record_crc(1, 43, RecordKind::Frame, b"123456789"));
    assert_ne!(
        crc,
        log_record_crc(1, 42, RecordKind::Snapshot, b"123456789")
    );
}

/// The committed snapshot seeds pin the length bound by kind: a valid
/// snapshot record decodes, and a length past the snapshot bound, or a
/// frame's past the frame bound, ends the scan at that header (the
/// unit tests in `persist.rs` check the bound with full payloads).
#[test]
fn the_committed_snapshot_seeds_decode_by_their_kinds_bound() {
    let seed = |name: &str| {
        let text = std::fs::read_to_string(corpus_dir().join(name)).expect("read the seed");
        from_hex(&text)
    };
    let scan = decode_log_records(&seed("log-snapshot.hex"));
    let got: Vec<(u64, u64, RecordKind)> = scan
        .records
        .iter()
        .map(|r| (r.session, r.seq, r.kind))
        .collect();
    assert_eq!(got, vec![(1, 3, RecordKind::Snapshot)]);
    assert!(scan.records[0].payload.starts_with(b"# sit session"));
    assert_eq!(scan.trailing, 0);

    for (name, kind, bound) in [
        (
            "log-snapshot-over-bound.hex",
            RecordKind::Snapshot,
            MAX_SNAPSHOT_PAYLOAD,
        ),
        (
            "log-frame-between-bounds.hex",
            RecordKind::Frame,
            MAX_JOURNAL_PAYLOAD,
        ),
    ] {
        let bytes = seed(name);
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        assert!(len > bound && len <= MAX_SNAPSHOT_PAYLOAD + 1, "{name}");
        assert_eq!(bytes[24], kind_byte(kind), "{name}");
        let scan = decode_log_records(&bytes);
        assert!(scan.records.is_empty(), "{name}");
        assert_eq!(scan.trailing, bytes.len(), "{name}");
    }
}

/// The kind byte of the record format.
fn kind_byte(kind: RecordKind) -> u8 {
    encode_log_record(0, 0, kind, b"")[24]
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
