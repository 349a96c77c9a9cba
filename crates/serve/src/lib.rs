//! # ecfd-serve
//!
//! A concurrent, snapshot-isolated serving layer over
//! [`ecfd_session::Session`]: one writer per shard, any number of lock-free
//! readers, and a line-delimited request/response protocol over TCP.
//!
//! ## Why
//!
//! A [`Session`](ecfd_session::Session) is deliberately single-owner: every
//! call takes `&mut self`, so a process that wants to answer `detect` /
//! `explain` queries *while* update batches stream in has nowhere to stand.
//! This crate adds that place to stand without giving up the session's
//! correctness story:
//!
//! * **Single-writer discipline.** Exactly one [`Writer`] thread owns each
//!   shard's mutable [`Session`](ecfd_session::Session). It drains
//!   [`Delta`](ecfd_relation::Delta) batches
//!   from a bounded [`IngestQueue`] (producers block when the queue is full —
//!   backpressure, not unbounded memory), applies them through the session's
//!   routed backends (incremental maintenance for small batches), and
//!   extracts an epoch-stamped [`Snapshot`](ecfd_session::Snapshot).
//! * **Arc-swapped publication.** The snapshot — frozen
//!   [`CodeColumns`](ecfd_relation::CodeColumns) + symbol table +
//!   report/evidence — is published into a [`SnapshotStore`]. It shares the
//!   session's chunks and `Arc`s instead of copying them, so extracting one
//!   costs the same at every table size. Publication swaps one `Arc`
//!   pointer; readers clone the `Arc` and from then on touch no shared
//!   mutable state at all (the writer copies a chunk before writing one a
//!   snapshot still holds): cached answers are field reads, and a
//!   from-scratch re-detection
//!   ([`Snapshot::detect_fresh`](ecfd_session::Snapshot::detect_fresh)) is a
//!   pure scan over the frozen codes.
//! * **Snapshot isolation.** Every query a reader runs against one snapshot
//!   observes one internally consistent epoch: the data, the constraint set,
//!   the report and the evidence all describe the same instant, no matter how
//!   many deltas the writer has applied since. The serving tests assert the
//!   strong form: a reader's from-scratch detect over the snapshot is
//!   byte-identical to the published report at that epoch.
//! * **One stack at every shard count.** Producers go through one router
//!   (global tickets, global row ids), readers through one merge layer; a
//!   one-shard deployment is the same code with nothing to route or merge.
//!
//! ```text
//!   clients ──APPLY──▶ router ──▶ IngestQueue ──▶ Writer (owns Session)   ┐
//!                  (global ids)   (bounded,          │ apply(Δ) → snapshot() │ × N shards
//!                                  backpressure)     ▼                       │
//!                                               SnapshotStore ── epoch n_s   ┘
//!   clients ◀─DETECT/EXPLAIN/…── reader threads ◀── merge layer ◀── N snapshots
//! ```
//!
//! ## Pieces
//!
//! * [`Hub`] + [`Writer`] — the per-shard pipeline: [`SnapshotStore`] +
//!   [`IngestQueue`] + shutdown/error bookkeeping, and the
//!   apply→snapshot→publish loop that feeds it. Embedders (benchmarks,
//!   in-process readers) can drive one pair without TCP.
//! * [`ShardedHub`] — `N ≥ 1` hubs behind the router and the merge layer;
//!   what the server serves.
//! * [`Server`] — a [`std::net::TcpListener`] front end over a
//!   [`ShardedHub`]: one [`std::thread::scope`] worker per connection
//!   speaking the [`protocol`]. No async runtime is involved (or available
//!   offline); blocking I/O plus scoped threads keeps the whole crate
//!   dependency-free.
//! * [`Client`] — a small blocking client for the protocol, used by the
//!   examples, tests and the `serve` binary's peers.
//!
//! ## Example (in-process, no TCP)
//!
//! ```
//! use ecfd_relation::{DataType, Delta, Relation, Schema, Tuple};
//! use ecfd_serve::{Hub, Writer};
//! use ecfd_session::Session;
//!
//! let schema = Schema::builder("cust")
//!     .attr("CT", DataType::Str)
//!     .attr("AC", DataType::Str)
//!     .build();
//! let data = Relation::with_tuples(schema, [
//!     Tuple::from_iter(["Albany", "718"]), // wrong area code
//!     Tuple::from_iter(["NYC", "212"]),
//! ]).unwrap();
//! let mut session = Session::new();
//! session.load(data).unwrap();
//! session.register_text("cust: [CT] -> [AC] | [], { {Albany} || {518} }").unwrap();
//!
//! let (mut writer, hub) = Writer::bootstrap(session, 16, 8).unwrap();
//! // A reader grabs the published snapshot — and can keep it forever.
//! let snap = hub.snapshot();
//! assert_eq!(snap.report().num_sv(), 1);
//!
//! // A producer enqueues a delta; the writer applies and republishes.
//! let ticket = hub.submit(Delta::insert_only(vec![
//!     Tuple::from_iter(["Albany", "999"]), // another wrong area code
//! ])).unwrap();
//! writer.step(&hub, std::time::Duration::from_millis(10)).unwrap();
//! assert!(hub.queue().is_applied(ticket));
//! let newer = hub.snapshot();
//! assert!(newer.epoch() > snap.epoch());
//! assert_eq!(newer.report().num_sv(), 2);
//! // The old snapshot still answers for its own epoch, byte-identically.
//! assert_eq!(&snap.detect_fresh().unwrap(), snap.report());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod durable;
mod hub;
mod ingest;
pub mod protocol;
mod replica;
mod server;
mod sharded;
mod store;
mod writer;

pub use client::Client;
pub use durable::{recover_session, report_hash, RecoveryReport};
pub use hub::{Hub, ServeStats};
pub use ingest::{IngestItem, IngestQueue, PushError, Ticket};
pub use protocol::{Request, Response};
pub use replica::{Follower, FollowerProgress};
pub use server::{ServeConfig, Server, ServerHandle};
pub use sharded::{MergedView, ShardedConfig, ShardedHub, SubmitReceipt};
pub use store::SnapshotStore;
pub use writer::{StepOutcome, Writer};

use std::fmt;

/// Result alias for serving operations.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Errors produced by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// Error from the session layer (apply, snapshot extraction, …).
    Session(ecfd_session::SessionError),
    /// Socket / stream error.
    Io(std::io::Error),
    /// A request or response line did not follow the protocol.
    Protocol(String),
    /// The ingest queue was closed (server shutting down) while submitting.
    QueueClosed,
    /// A `SYNC` wait elapsed before the enqueued deltas were applied.
    SyncTimeout,
    /// Error from the write-ahead log (durable mode).
    Wal(ecfd_wal::WalError),
    /// Recovery or follower replay diverged from the logged run: an epoch or
    /// report hash did not match what the leader recorded.
    Replication(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Session(e) => write!(f, "session error: {e}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::QueueClosed => write!(f, "ingest queue is closed"),
            ServeError::SyncTimeout => write!(f, "timed out waiting for enqueued deltas"),
            ServeError::Wal(e) => write!(f, "wal error: {e}"),
            ServeError::Replication(msg) => write!(f, "replication divergence: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ecfd_wal::WalError> for ServeError {
    fn from(e: ecfd_wal::WalError) -> Self {
        ServeError::Wal(e)
    }
}

impl From<ecfd_session::SessionError> for ServeError {
    fn from(e: ecfd_session::SessionError) -> Self {
        ServeError::Session(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}
