//! Property tests for the WAL: record encode/decode must round-trip for
//! arbitrary deltas (unicode values, empty tuples, nulls), and a log whose
//! tail was torn or corrupted at *any* byte must recover exactly the prefix
//! of fully written records — never garbage, never a panic.

use ecfd_relation::{Delta, Tuple, Value};
use ecfd_wal::{Wal, WalRecord};
use proptest::prelude::*;
use std::path::PathBuf;

/// String pool for generated values: empty, unicode, and bytes that are
/// reserved in the line protocol (the WAL must be agnostic to all of them).
const STRINGS: [&str; 6] = [
    "",
    "Albany",
    "Zürich 東京 💾",
    "a,b;c|d@e%f\ng",
    " leading and trailing ",
    "NULL",
];

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        // Deliberately includes "", unicode, and protocol-reserved bytes.
        (0usize..STRINGS.len()).prop_map(|i| Value::Str(STRINGS[i].to_string())),
    ]
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(arb_value(), 0..6).prop_map(Tuple::new)
}

fn arb_delta() -> impl Strategy<Value = Delta> {
    (
        proptest::collection::vec(arb_tuple(), 0..4),
        proptest::collection::vec(arb_tuple(), 0..4),
    )
        .prop_map(|(insertions, deletions)| Delta {
            insertions,
            deletions,
        })
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (any::<u64>(), arb_delta()).prop_map(|(ticket, delta)| WalRecord::Delta { ticket, delta }),
        (any::<u64>(), any::<u64>(), arb_delta(), any::<u64>()).prop_map(
            |(ticket, global, delta, first_id)| WalRecord::ScheduledDelta {
                ticket,
                global,
                insert_ids: (0..delta.insertions.len() as u64)
                    .map(|k| first_id.wrapping_add(k))
                    .collect(),
                delta,
            }
        ),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(epoch, last_ticket, report_hash)| {
            WalRecord::Checkpoint {
                epoch,
                last_ticket,
                report_hash,
            }
        }),
    ]
}

fn temp_dir(tag: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ecfd-wal-prop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Payload encoding is lossless for every record shape.
    #[test]
    fn record_payload_round_trips(record in arb_record()) {
        let payload = record.encode();
        prop_assert_eq!(WalRecord::decode(&payload).unwrap(), record);
    }

    /// Arbitrary garbage never decodes to a panic — only Ok or Err.
    #[test]
    fn arbitrary_payloads_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = WalRecord::decode(&bytes);
    }

    /// Write records through the full file layer, then chop the file at an
    /// arbitrary byte (a simulated crash mid-append): reopening must recover
    /// exactly the records whose frames survived intact, and the reopened log
    /// must accept further appends.
    #[test]
    fn torn_tail_recovers_record_prefix(
        records in proptest::collection::vec(arb_record(), 1..6),
        cut_back in 0usize..200,
        seed in any::<u64>(),
    ) {
        let dir = temp_dir(seed);
        let mut wal = Wal::open(&dir).unwrap().wal;
        // Track where each record's frame ends so we know the expected prefix.
        let mut frame_ends = Vec::with_capacity(records.len());
        let mut offset = 8u64; // magic
        for record in &records {
            offset += 8 + record.encode().len() as u64;
            frame_ends.push(offset);
        }
        for record in &records {
            wal.append(record).unwrap();
        }
        wal.sync().unwrap();
        let path = wal.path().to_path_buf();
        drop(wal);

        let full_len = std::fs::metadata(&path).unwrap().len();
        let cut = full_len.saturating_sub(cut_back as u64).max(8);
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        let survivors = frame_ends.iter().filter(|&&end| end <= cut).count();
        let reopened = Wal::open(&dir).unwrap();
        prop_assert_eq!(&reopened.records, &records[..survivors]);
        prop_assert_eq!(reopened.truncated_bytes, cut - frame_ends[..survivors].last().copied().unwrap_or(8));

        // Still append-ready after truncation.
        let mut wal = reopened.wal;
        let extra = WalRecord::Checkpoint { epoch: 1, last_ticket: 0, report_hash: 7 };
        wal.append(&extra).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let mut expected: Vec<WalRecord> = records[..survivors].to_vec();
        expected.push(extra);
        prop_assert_eq!(Wal::open(&dir).unwrap().records, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Flip one byte inside the frame stream: the log never reports records
    /// beyond the first damaged frame, and never panics.
    #[test]
    fn corrupted_byte_truncates_from_damage(
        records in proptest::collection::vec(arb_record(), 1..5),
        victim in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let dir = temp_dir(seed.wrapping_add(1)); // avoid colliding with the torn-tail dirs
        let mut wal = Wal::open(&dir).unwrap().wal;
        for record in &records {
            wal.append(record).unwrap();
        }
        wal.sync().unwrap();
        let path = wal.path().to_path_buf();
        drop(wal);

        let mut bytes = std::fs::read(&path).unwrap();
        let pos = 8 + (victim as usize % (bytes.len() - 8));
        bytes[pos] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let reopened = Wal::open(&dir).unwrap();
        // Whatever survives must be a prefix of what was written. (The flip
        // can land in a length word and, rarely, still frame-validate — the
        // CRC then rejects it; either way no fabricated records appear.)
        prop_assert!(reopened.records.len() <= records.len());
        prop_assert_eq!(&reopened.records, &records[..reopened.records.len()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
