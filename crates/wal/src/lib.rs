//! # ecfd-wal
//!
//! An append-only write-ahead log for the eCFD serving layer.
//!
//! The serving layer's [`Ticket`] order — the order the
//! ingest queue hands deltas to the single writer — *is* the serialization
//! order of the served table. Logging each accepted delta in that order,
//! before its push is acknowledged, therefore captures everything needed to
//! reconstruct the table after a crash: replaying the log over the same base
//! data through the same apply path lands on the same state, epoch for epoch.
//! The same log doubles as a replication stream — a follower that replays the
//! leader's records reaches the same state, and the interleaved checkpoint
//! records let it verify that claim per published epoch.
//!
//! ## Records
//!
//! Three record kinds ([`WalRecord`]):
//!
//! * **Delta** — one accepted update batch, stamped with its ticket.
//! * **ScheduledDelta** — the part of an accepted batch routed to one shard
//!   of a served deployment: the shard-local ticket, the router's global
//!   ticket, and the pre-assigned row ids of its insertions.
//! * **Checkpoint** — an epoch boundary: the writer published a snapshot
//!   covering everything up to `last_ticket`, whose detection report hashes
//!   to `report_hash`. Checkpoints carry no data; they are verification
//!   points (recovery and followers recompute the hash and compare) and
//!   replication cut marks.
//!
//! ## Framing
//!
//! The log file starts with an 8-byte magic (`ECFDWAL1`) followed by frames:
//!
//! ```text
//! ┌───────────────┬────────────────┬──────────────────┐
//! │ len: u32 LE   │ crc32: u32 LE  │ payload (len B)  │
//! └───────────────┴────────────────┴──────────────────┘
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload. A crash can tear the tail of
//! the file mid-frame; [`Wal::open`] scans the frames, keeps the longest
//! valid prefix and truncates the rest (reporting how many bytes were
//! dropped), so the log is always append-ready after open. A checksum
//! mismatch or short frame *before* the tail would mean silent corruption
//! mid-file — that also just truncates from the first bad frame, which is
//! the only safe interpretation of an append-only file: nothing after a torn
//! record can be trusted to be in order.
//!
//! Durability is the caller's contract: [`Wal::append`] buffers in the OS,
//! [`Wal::sync`] makes everything appended so far crash-durable
//! (`fsync`-before-ACK is the serving layer's discipline).
//!
//! ## Example
//!
//! ```
//! use ecfd_relation::{Delta, Tuple};
//! use ecfd_wal::{Wal, WalRecord};
//!
//! let dir = std::env::temp_dir().join(format!("ecfd-wal-doc-{}", std::process::id()));
//! let opened = Wal::open(&dir).unwrap();
//! assert!(opened.records.is_empty());
//! let mut wal = opened.wal;
//! wal.append(&WalRecord::Delta {
//!     ticket: 1,
//!     delta: Delta::insert_only(vec![Tuple::from_iter(["Albany", "518"])]),
//! }).unwrap();
//! wal.append(&WalRecord::Checkpoint { epoch: 3, last_ticket: 1, report_hash: 42 }).unwrap();
//! wal.sync().unwrap();
//! drop(wal);
//!
//! // Reopening replays the full record sequence.
//! let reopened = Wal::open(&dir).unwrap();
//! assert_eq!(reopened.records.len(), 2);
//! assert_eq!(reopened.truncated_bytes, 0);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod log;
mod record;

pub use log::{read_records, OpenedWal, Wal, WAL_FILE_NAME};
pub use record::{Ticket, WalRecord};

use std::fmt;
use std::path::PathBuf;

/// Result alias for WAL operations.
pub type Result<T> = std::result::Result<T, WalError>;

/// Errors produced by the write-ahead log.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem error (open, append, fsync, truncate).
    Io(std::io::Error),
    /// The file at the log path exists but does not start with the WAL magic
    /// — refusing to truncate something that was never a log.
    NotAWal(PathBuf),
    /// A frame's checksum matched but its payload did not decode — a version
    /// mismatch or a bug, never a torn write (those fail the checksum).
    Corrupt {
        /// Byte offset of the offending frame.
        offset: u64,
        /// What failed to decode.
        reason: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::NotAWal(path) => {
                write!(f, "{} exists but is not an ecfd WAL file", path.display())
            }
            WalError::Corrupt { offset, reason } => {
                write!(f, "corrupt wal record at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}
