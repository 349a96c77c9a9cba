//! The hub: shared state connecting producers, the writer and readers.

use crate::durable::WalSink;
use crate::ingest::{IngestQueue, PushError, Ticket};
use crate::sharded::{AppliedRows, MergeLayer};
use crate::store::SnapshotStore;
use crate::{Result, ServeError};
use ecfd_relation::{Delta, RowId};
use ecfd_session::Snapshot;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// A point-in-time view of the hub's counters, as reported by `EPOCH`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Epoch of the currently published snapshot.
    pub epoch: u64,
    /// Deltas waiting in the ingest queue.
    pub queued: usize,
    /// Apply errors the writer has swallowed (bad deltas are skipped, not
    /// fatal — see [`Hub::last_error`] for the most recent message).
    pub write_errors: u64,
}

/// The per-shard pipeline's shared state: the [`SnapshotStore`] readers poll,
/// the [`IngestQueue`] producers feed, and the shutdown/error bookkeeping
/// that ties the threads together. A served deployment runs one `Hub` +
/// [`Writer`](crate::Writer) per shard behind a
/// [`ShardedHub`](crate::ShardedHub) — one shard included; benchmarks and
/// in-process embedders can also drive a single pair directly.
pub struct Hub {
    store: SnapshotStore,
    queue: IngestQueue,
    shutdown: AtomicBool,
    write_errors: AtomicU64,
    last_error: Mutex<Option<String>>,
    /// Present in durable mode: the ticket-ordered WAL sink plus the log
    /// path the `REPLAY` verb reads from.
    durable: Option<DurableState>,
    /// The merge layer this hub publishes through, and the hub's shard index
    /// in it: set once, when the hub is a shard of a deployment whose
    /// constraints leave open groups.
    merge: OnceLock<(Arc<MergeLayer>, usize)>,
}

struct DurableState {
    sink: WalSink,
    wal_path: PathBuf,
    /// Whether the log held records at bootstrap (i.e. this run recovered
    /// history rather than starting fresh) — `INFO` reports `recovered`.
    recovered: bool,
}

impl std::fmt::Debug for Hub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hub")
            .field("epoch", &self.epoch())
            .field("queued", &self.queue.pending())
            .field("durable", &self.durable.is_some())
            .finish_non_exhaustive()
    }
}

impl Hub {
    /// Creates a hub publishing `initial` with an ingest queue of
    /// `queue_capacity` pending deltas.
    pub fn new(initial: Snapshot, queue_capacity: usize) -> Arc<Self> {
        Hub::with_queue(initial, IngestQueue::new(queue_capacity))
    }

    /// [`Hub::new`] with a caller-built queue (e.g. one whose metric series
    /// carry a shard label).
    pub(crate) fn with_queue(initial: Snapshot, queue: IngestQueue) -> Arc<Self> {
        Arc::new(Hub {
            store: SnapshotStore::new(initial),
            queue,
            shutdown: AtomicBool::new(false),
            write_errors: AtomicU64::new(0),
            last_error: Mutex::new(None),
            durable: None,
            merge: OnceLock::new(),
        })
    }

    /// Creates a durable hub: a custom queue (its ticket sequence continues
    /// the recovered log) and the WAL sink every submit must go through.
    /// Built by [`Writer::bootstrap_durable`](crate::Writer::bootstrap_durable).
    pub(crate) fn new_durable(
        initial: Snapshot,
        queue: IngestQueue,
        sink: WalSink,
        wal_path: PathBuf,
        recovered: bool,
    ) -> Arc<Self> {
        Arc::new(Hub {
            store: SnapshotStore::new(initial),
            queue,
            shutdown: AtomicBool::new(false),
            write_errors: AtomicU64::new(0),
            last_error: Mutex::new(None),
            durable: Some(DurableState {
                sink,
                wal_path,
                recovered,
            }),
            merge: OnceLock::new(),
        })
    }

    /// Makes this hub shard `shard` of `layer`: from now on every publish
    /// folds the batch's rows into it. Set once, at bootstrap, before any
    /// writer runs.
    pub(crate) fn attach_merge(&self, layer: Arc<MergeLayer>, shard: usize) {
        let attached = self.merge.set((layer, shard));
        debug_assert!(attached.is_ok(), "a hub belongs to one merge layer");
    }

    /// Publishes the writer's new snapshot: first into the merge layer, if
    /// this hub is a shard of one that folds rows (`rows` is what the batch
    /// did, `None` when that is unknown), then into the store readers poll.
    /// The store is updated even when the merge layer fails, and every hub
    /// without a merge layer does nothing more than that.
    pub(crate) fn publish(&self, snapshot: Snapshot, rows: Option<Vec<AppliedRows>>) -> Result<()> {
        let snapshot = Arc::new(snapshot);
        let merged = match self.merge.get() {
            Some((layer, shard)) => layer.publish(*shard, Arc::clone(&snapshot), rows),
            None => Ok(()),
        };
        self.store.publish(snapshot);
        merged
    }

    /// Whether submits are logged to a WAL before acknowledgement.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The WAL mode string `INFO` reports: `off` (in-memory), `durable`
    /// (fresh log), or `recovered` (the log held history at bootstrap).
    pub fn wal_mode(&self) -> &'static str {
        match &self.durable {
            None => "off",
            Some(state) if state.recovered => "recovered",
            Some(_) => "durable",
        }
    }

    /// The process-wide metrics registry every serving component reports
    /// into — the in-process equivalent of the `STATS` verb. Render it with
    /// [`Registry::render`](ecfd_obs::Registry::render); counters are
    /// monotone, so embedders scope a measurement by diffing two readings.
    pub fn metrics(&self) -> &'static ecfd_obs::Registry {
        ecfd_obs::registry()
    }

    /// Path of the WAL file in durable mode (what `REPLAY` streams from).
    pub fn wal_path(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.wal_path.as_path())
    }

    /// The snapshot store (reader side).
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// The ingest queue (producer/writer side).
    pub fn queue(&self) -> &IngestQueue {
        &self.queue
    }

    /// The currently published snapshot — the entry point of every reader
    /// query. Lock held for one pointer clone; everything after is lock-free.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.store.current()
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// Submits a delta for the writer, blocking while the queue is full
    /// (backpressure). Returns the ticket to [`Hub::sync_to`] on.
    ///
    /// In durable mode the delta is appended to the WAL and fsynced under
    /// its ticket **before** this returns — the ACK a client sees implies
    /// the delta survives a crash. The capacity wait happens first and holds
    /// no WAL lock, so backpressure and logging cannot deadlock each other.
    pub fn submit(&self, delta: Delta) -> Result<Ticket> {
        let Some(durable) = &self.durable else {
            return self.enqueue(delta);
        };
        let ticket = self.enqueue(delta.clone())?;
        durable.sink.log_delta(ticket, &delta)?;
        Ok(ticket)
    }

    fn enqueue(&self, delta: Delta) -> Result<Ticket> {
        self.queue.push(delta).map_err(|e| match e {
            PushError::Closed => ServeError::QueueClosed,
            PushError::Full => unreachable!("blocking push never reports Full"),
        })
    }

    /// Enqueues a shard-routed sub-delta with globally pre-assigned
    /// insertion row ids, *without* logging it — the router calls
    /// this under its serialization lock and follows up with
    /// [`Hub::log_scheduled`] after releasing it, so WAL fsyncs never run
    /// under the router lock.
    pub(crate) fn enqueue_scheduled(&self, delta: Delta, insert_ids: Vec<RowId>) -> Result<Ticket> {
        self.queue
            .push_scheduled(delta, insert_ids)
            .map_err(|e| match e {
                PushError::Closed => ServeError::QueueClosed,
                PushError::Full => unreachable!("blocking push never reports Full"),
            })
    }

    /// Logs (and fsyncs) a scheduled sub-delta under its shard-local ticket,
    /// stamped with the router's `global` one. No-op when the hub is not
    /// durable. The WAL sink tolerates out-of-order arrival, so callers may
    /// invoke this in any order after [`Hub::enqueue_scheduled`].
    pub(crate) fn log_scheduled(
        &self,
        ticket: Ticket,
        global: Ticket,
        delta: &Delta,
        insert_ids: &[RowId],
    ) -> Result<()> {
        match &self.durable {
            Some(durable) => durable
                .sink
                .log_scheduled(ticket, global, delta, insert_ids),
            None => Ok(()),
        }
    }

    /// Appends an epoch-boundary checkpoint to the WAL (no-op when not
    /// durable). Called by the writer after publishing each snapshot.
    pub(crate) fn log_checkpoint(
        &self,
        epoch: u64,
        last_ticket: Ticket,
        report_hash: u64,
    ) -> Result<()> {
        match &self.durable {
            Some(durable) => durable.sink.log_checkpoint(epoch, last_ticket, report_hash),
            None => Ok(()),
        }
    }

    /// Blocks until every delta submitted to the hub — by *any* producer —
    /// before this call has been applied and its snapshot published (or
    /// `timeout` elapses). This is the global barrier for in-process
    /// embedders; the protocol's `SYNC` verb barriers per connection via
    /// [`Hub::sync_to`] on that connection's last ACKed ticket.
    pub fn sync(&self, timeout: Duration) -> Result<u64> {
        self.sync_to(self.queue.last_ticket(), timeout)
    }

    /// Blocks until `ticket` is applied and published, then returns the
    /// current epoch.
    pub fn sync_to(&self, ticket: Ticket, timeout: Duration) -> Result<u64> {
        if self.queue.wait_applied(ticket, timeout) {
            Ok(self.epoch())
        } else {
            Err(ServeError::SyncTimeout)
        }
    }

    /// Requests shutdown: closes the queue (pending deltas still drain) and
    /// flips the flag the accept and connection loops poll.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    /// Whether shutdown was requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Shutdown because the writer is gone: like [`Hub::shutdown`], but the
    /// queue is closed in *aborted* mode, so blocked producers get
    /// `PushError::Closed` immediately and `SYNC` barriers on never-applied
    /// tickets fail fast instead of timing out.
    pub fn abort(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close_aborted();
    }

    /// Records a writer-side apply failure (the batch is skipped).
    pub(crate) fn record_write_error(&self, message: String) {
        self.write_errors.fetch_add(1, Ordering::SeqCst);
        ecfd_obs::registry().counter("serve.write.errors").inc();
        *self.last_error.lock().unwrap_or_else(|e| e.into_inner()) = Some(message);
    }

    /// The most recent writer-side apply failure, if any.
    pub fn last_error(&self) -> Option<String> {
        self.last_error
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Current counters, as reported by the `EPOCH` verb.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            epoch: self.epoch(),
            queued: self.queue.pending(),
            write_errors: self.write_errors.load(Ordering::SeqCst),
        }
    }
}
