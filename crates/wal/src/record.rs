//! The record kinds and their binary payload encoding.
//!
//! The payload format is deliberately self-contained (no serde, no schema):
//! a one-byte kind tag followed by fixed-width little-endian integers and
//! length-prefixed UTF-8. Values carry their own type tag, so a log written
//! against one schema decodes bit-exactly regardless of what the reader has
//! loaded — type checking happens when the delta is applied, not here.

use ecfd_relation::{Delta, Tuple, Value};

/// Sequence number of a delta in the serving layer's ingest order (issued by
/// the ingest queue, starting at 1). Mirrors `ecfd_serve::Ticket` without
/// depending on it — the WAL sits below the serving crate.
pub type Ticket = u64;

const KIND_DELTA: u8 = 1;
const KIND_CHECKPOINT: u8 = 2;
/// Scheduled deltas as logged before they carried the global ticket; still
/// decoded (as `global: 0`), never written.
const KIND_SCHEDULED_DELTA_V1: u8 = 3;
const KIND_SCHEDULED_DELTA: u8 = 4;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_BOOL: u8 = 2;
const TAG_STR: u8 = 3;

/// One logged event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// An accepted update batch, logged before its push is acknowledged.
    Delta {
        /// The ingest ticket — the batch's position in serialization order.
        ticket: Ticket,
        /// The insertions and deletions, exactly as submitted.
        delta: Delta,
    },
    /// An accepted update batch in a *sharded* deployment: like
    /// [`WalRecord::Delta`], plus the globally pre-assigned row ids of its
    /// insertions (`insert_ids[k]` is the id of `delta.insertions[k]`), so
    /// recovery replay hands out exactly the ids the original run did.
    ScheduledDelta {
        /// The shard-local ingest ticket.
        ticket: Ticket,
        /// The router's global ticket of the submitted delta this record is
        /// a part of — what lets a restarted router resume its numbering
        /// (a delta split across shards leaves no shard ticket equal to it).
        /// 0 in logs written before the field existed.
        global: Ticket,
        /// The insertions and deletions, exactly as routed to this shard.
        delta: Delta,
        /// Globally allocated row ids, parallel to `delta.insertions`.
        insert_ids: Vec<u64>,
    },
    /// An epoch boundary: the writer published the snapshot covering every
    /// ticket up to and including `last_ticket`.
    Checkpoint {
        /// Epoch of the published snapshot.
        epoch: u64,
        /// Highest ticket the snapshot covers (0 for the bootstrap epoch).
        last_ticket: Ticket,
        /// Canonical hash of the published detection report (see
        /// `ecfd_serve`'s `report_hash`), the divergence-detection anchor.
        report_hash: u64,
    },
}

impl WalRecord {
    /// Encodes the record as a frame payload (no length/checksum framing —
    /// that is the log layer's job).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            WalRecord::Delta { ticket, delta } => {
                out.push(KIND_DELTA);
                out.extend_from_slice(&ticket.to_le_bytes());
                put_u32(&mut out, delta.insertions.len());
                put_u32(&mut out, delta.deletions.len());
                for tuple in delta.insertions.iter().chain(&delta.deletions) {
                    encode_tuple(&mut out, tuple);
                }
            }
            WalRecord::ScheduledDelta {
                ticket,
                global,
                delta,
                insert_ids,
            } => {
                out.push(KIND_SCHEDULED_DELTA);
                out.extend_from_slice(&ticket.to_le_bytes());
                out.extend_from_slice(&global.to_le_bytes());
                put_u32(&mut out, delta.insertions.len());
                put_u32(&mut out, delta.deletions.len());
                debug_assert_eq!(insert_ids.len(), delta.insertions.len());
                for id in insert_ids {
                    out.extend_from_slice(&id.to_le_bytes());
                }
                for tuple in delta.insertions.iter().chain(&delta.deletions) {
                    encode_tuple(&mut out, tuple);
                }
            }
            WalRecord::Checkpoint {
                epoch,
                last_ticket,
                report_hash,
            } => {
                out.push(KIND_CHECKPOINT);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&last_ticket.to_le_bytes());
                out.extend_from_slice(&report_hash.to_le_bytes());
            }
        }
        out
    }

    /// Decodes a frame payload. Fails (with a human-readable reason) on any
    /// malformed byte — the log layer turns that into [`WalError::Corrupt`]
    /// since the payload already passed its checksum.
    ///
    /// [`WalError::Corrupt`]: crate::WalError::Corrupt
    pub fn decode(payload: &[u8]) -> Result<WalRecord, String> {
        let mut cursor = Cursor::new(payload);
        let record = match cursor.u8()? {
            KIND_DELTA => {
                let ticket = cursor.u64()?;
                let num_insertions = cursor.u32()? as usize;
                let num_deletions = cursor.u32()? as usize;
                let mut tuples = Vec::with_capacity(num_insertions + num_deletions);
                for _ in 0..num_insertions + num_deletions {
                    tuples.push(decode_tuple(&mut cursor)?);
                }
                let deletions = tuples.split_off(num_insertions);
                WalRecord::Delta {
                    ticket,
                    delta: Delta {
                        insertions: tuples,
                        deletions,
                    },
                }
            }
            kind @ (KIND_SCHEDULED_DELTA | KIND_SCHEDULED_DELTA_V1) => {
                let ticket = cursor.u64()?;
                let global = match kind {
                    KIND_SCHEDULED_DELTA => cursor.u64()?,
                    _ => 0,
                };
                let num_insertions = cursor.u32()? as usize;
                let num_deletions = cursor.u32()? as usize;
                let mut insert_ids = Vec::with_capacity(num_insertions.min(1024));
                for _ in 0..num_insertions {
                    insert_ids.push(cursor.u64()?);
                }
                let mut tuples = Vec::with_capacity((num_insertions + num_deletions).min(1024));
                for _ in 0..num_insertions + num_deletions {
                    tuples.push(decode_tuple(&mut cursor)?);
                }
                let deletions = tuples.split_off(num_insertions);
                WalRecord::ScheduledDelta {
                    ticket,
                    global,
                    delta: Delta {
                        insertions: tuples,
                        deletions,
                    },
                    insert_ids,
                }
            }
            KIND_CHECKPOINT => WalRecord::Checkpoint {
                epoch: cursor.u64()?,
                last_ticket: cursor.u64()?,
                report_hash: cursor.u64()?,
            },
            other => return Err(format!("unknown record kind {other}")),
        };
        if !cursor.is_empty() {
            return Err(format!(
                "{} trailing bytes after record",
                cursor.remaining()
            ));
        }
        Ok(record)
    }
}

fn put_u32(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&u32::try_from(n).expect("batch sizes fit u32").to_le_bytes());
}

fn encode_tuple(out: &mut Vec<u8>, tuple: &Tuple) {
    put_u32(out, tuple.arity());
    for value in tuple.values() {
        match value {
            Value::Null => out.push(TAG_NULL),
            Value::Int(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Bool(b) => {
                out.push(TAG_BOOL);
                out.push(u8::from(*b));
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                put_u32(out, s.len());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
}

fn decode_tuple(cursor: &mut Cursor<'_>) -> Result<Tuple, String> {
    let arity = cursor.u32()? as usize;
    let mut values = Vec::with_capacity(arity.min(64));
    for _ in 0..arity {
        values.push(match cursor.u8()? {
            TAG_NULL => Value::Null,
            TAG_INT => Value::Int(i64::from_le_bytes(cursor.array()?)),
            TAG_BOOL => Value::Bool(cursor.u8()? != 0),
            TAG_STR => {
                let len = cursor.u32()? as usize;
                let bytes = cursor.bytes(len)?;
                Value::Str(
                    String::from_utf8(bytes.to_vec())
                        .map_err(|_| "string value is not UTF-8".to_string())?,
                )
            }
            other => return Err(format!("unknown value tag {other}")),
        });
    }
    Ok(Tuple::new(values))
}

/// A bounds-checked reader over a payload slice.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn is_empty(&self) -> bool {
        self.pos == self.data.len()
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!("needed {n} bytes, {} left", self.remaining()));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        Ok(self.bytes(N)?.try_into().expect("exact length"))
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.array()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(record: WalRecord) {
        let payload = record.encode();
        assert_eq!(WalRecord::decode(&payload).unwrap(), record);
    }

    #[test]
    fn delta_and_checkpoint_round_trip() {
        round_trip(WalRecord::Delta {
            ticket: 7,
            delta: Delta {
                insertions: vec![
                    Tuple::new(vec![
                        Value::str("Zürich 東京"),
                        Value::Null,
                        Value::Int(-42),
                        Value::Bool(true),
                    ]),
                    Tuple::new(vec![]),
                ],
                deletions: vec![Tuple::new(vec![Value::str("")])],
            },
        });
        round_trip(WalRecord::Delta {
            ticket: u64::MAX,
            delta: Delta::new(),
        });
        round_trip(WalRecord::Checkpoint {
            epoch: 12,
            last_ticket: 0,
            report_hash: u64::MAX,
        });
        round_trip(WalRecord::ScheduledDelta {
            ticket: 9,
            global: 12,
            delta: Delta {
                insertions: vec![
                    Tuple::new(vec![Value::str("a"), Value::Int(1)]),
                    Tuple::new(vec![Value::str("b"), Value::Null]),
                ],
                deletions: vec![Tuple::new(vec![Value::str("c"), Value::Bool(false)])],
            },
            insert_ids: vec![17, 4],
        });
        round_trip(WalRecord::ScheduledDelta {
            ticket: 1,
            global: u64::MAX,
            delta: Delta::delete_only(vec![Tuple::new(vec![Value::Int(3)])]),
            insert_ids: vec![],
        });
    }

    /// A log written before scheduled deltas carried the global ticket still
    /// decodes — recovery must keep reading every ACKed delta.
    #[test]
    fn scheduled_deltas_without_a_global_ticket_still_decode() {
        let record = WalRecord::ScheduledDelta {
            ticket: 5,
            global: 0,
            delta: Delta::insert_only(vec![Tuple::new(vec![Value::str("a")])]),
            insert_ids: vec![8],
        };
        let mut old = record.encode();
        old[0] = KIND_SCHEDULED_DELTA_V1;
        old.drain(9..17); // the global ticket sits right after the shard ticket
        assert_eq!(WalRecord::decode(&old).unwrap(), record);
    }

    #[test]
    fn malformed_payloads_are_rejected_not_panicking() {
        assert!(WalRecord::decode(&[]).is_err());
        assert!(WalRecord::decode(&[9]).is_err(), "unknown kind");
        let mut good = WalRecord::Checkpoint {
            epoch: 1,
            last_ticket: 2,
            report_hash: 3,
        }
        .encode();
        good.push(0);
        assert!(WalRecord::decode(&good).is_err(), "trailing bytes");
        let truncated = &good[..good.len() - 4];
        assert!(WalRecord::decode(truncated).is_err(), "short payload");
    }
}
