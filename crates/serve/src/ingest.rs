//! The bounded ingest queue: how deltas reach the writer, with backpressure.

use ecfd_obs::{Counter, Gauge, Histogram};
use ecfd_relation::{Delta, RowId};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Handles into the process-wide registry for the queue's metrics; fetched
/// once at construction so the hot path never touches the registry lock.
#[derive(Debug)]
struct QueueMetrics {
    /// `ingest.queue.depth` — deltas currently waiting for the writer.
    depth: Gauge,
    /// `ingest.accepted` — deltas that received a ticket.
    accepted: Counter,
    /// `ingest.rejected` — pushes refused (queue full or closed).
    rejected: Counter,
    /// `ingest.backpressure.wait.ns` — time producers spent blocked on a
    /// full queue (recorded only when a push actually waited).
    backpressure: Histogram,
    /// `writer.epoch.lag` — accepted minus applied-and-published tickets.
    lag: Gauge,
}

impl QueueMetrics {
    /// Fetches the queue's metric handles; under a server every series
    /// carries a `shard` label so per-shard queues stay separable.
    fn fetch(shard: Option<u32>) -> Self {
        let registry = ecfd_obs::registry();
        let shard = shard.map(|s| s.to_string());
        let labels: Vec<(&str, &str)> = shard.iter().map(|s| ("shard", s.as_str())).collect();
        QueueMetrics {
            depth: registry.gauge_with("ingest.queue.depth", &labels),
            accepted: registry.counter_with("ingest.accepted", &labels),
            rejected: registry.counter_with("ingest.rejected", &labels),
            backpressure: registry.histogram_with("ingest.backpressure.wait.ns", &labels),
            lag: registry.gauge_with("writer.epoch.lag", &labels),
        }
    }
}

/// One queued unit of work: the submitted delta plus, behind a router,
/// the globally pre-assigned row ids of its insertions
/// (`insert_ids[k]` is the id insertion `k` must receive at apply time, so
/// every shard hands out exactly the ids a single-session run would have).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestItem {
    /// The insertions and deletions, exactly as submitted (or as routed to
    /// this shard).
    pub delta: Delta,
    /// Pre-assigned row ids parallel to `delta.insertions`, or `None` for a
    /// bare [`Hub::submit`](crate::Hub::submit), where the relation assigns
    /// ids itself.
    pub insert_ids: Option<Vec<RowId>>,
}

/// Sequence number assigned to a submitted delta. Tickets are issued in
/// submission order starting at 1; [`IngestQueue::is_applied`] /
/// [`IngestQueue::wait_applied`] answer whether the writer has applied *and
/// published* everything up to a ticket.
pub type Ticket = u64;

/// Why a non-blocking push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue holds `capacity` pending deltas; the producer should retry
    /// (or use the blocking [`IngestQueue::push`] and let backpressure work).
    Full,
    /// The queue was closed — the server is shutting down.
    Closed,
}

#[derive(Debug)]
struct Inner {
    items: VecDeque<(Ticket, IngestItem)>,
    next_ticket: Ticket,
    /// Highest ticket whose delta has been applied and whose snapshot has
    /// been published.
    applied: Ticket,
    closed: bool,
    /// Closed because the writer died (not a graceful drain): pending items
    /// will never be applied, so barriers should give up immediately instead
    /// of burning their full timeout.
    aborted: bool,
}

/// A bounded multi-producer / single-consumer queue of [`Delta`] batches.
///
/// Producers (connection handlers, in-process embedders) push; the single
/// [`Writer`](crate::Writer) pops. The capacity bound is the serving layer's
/// backpressure mechanism: when the writer falls behind, blocking producers
/// wait instead of growing an unbounded backlog — over TCP that wait
/// propagates naturally to the client, which sees its `APPLY` acknowledged
/// only once the queue accepted the delta.
///
/// The queue also tracks application progress so `SYNC`-style barriers need
/// no extra channel: every push returns a [`Ticket`], and the writer calls
/// [`IngestQueue::mark_applied`] after publishing the snapshot that covers
/// it.
#[derive(Debug)]
pub struct IngestQueue {
    inner: Mutex<Inner>,
    not_full: Condvar,
    progress: Condvar,
    capacity: usize,
    metrics: QueueMetrics,
}

impl IngestQueue {
    /// Creates a queue holding at most `capacity` pending deltas
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        IngestQueue::starting_at(capacity, 0)
    }

    /// Creates a queue whose ticket sequence continues after `last_ticket`
    /// (which is also the initial applied watermark). Crash recovery uses
    /// this so tickets issued after a restart extend the WAL's numbering
    /// instead of colliding with logged history.
    pub fn starting_at(capacity: usize, last_ticket: Ticket) -> Self {
        IngestQueue::starting_at_sharded(capacity, last_ticket, None)
    }

    /// Like [`IngestQueue::starting_at`], but tagging every metric series
    /// with the owning shard's index — the queues of a served deployment
    /// report `ingest.*{shard=N}`.
    pub fn starting_at_sharded(capacity: usize, last_ticket: Ticket, shard: Option<u32>) -> Self {
        IngestQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                next_ticket: last_ticket + 1,
                applied: last_ticket,
                closed: false,
                aborted: false,
            }),
            not_full: Condvar::new(),
            progress: Condvar::new(),
            capacity: capacity.max(1),
            metrics: QueueMetrics::fetch(shard),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of deltas waiting to be applied.
    pub fn pending(&self) -> usize {
        self.lock().items.len()
    }

    /// The most recently issued ticket (0 before the first push).
    pub fn last_ticket(&self) -> Ticket {
        self.lock().next_ticket - 1
    }

    /// Whether everything up to and including `ticket` has been applied and
    /// published.
    pub fn is_applied(&self, ticket: Ticket) -> bool {
        self.lock().applied >= ticket
    }

    /// Whether the queue has been closed.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Highest ticket applied and published so far (0 before the first).
    pub fn applied_ticket(&self) -> Ticket {
        self.lock().applied
    }

    /// Enqueues a delta, blocking while the queue is full (backpressure).
    /// Returns the delta's ticket, or `Err(PushError::Closed)` once the
    /// queue is shut down.
    pub fn push(&self, delta: Delta) -> Result<Ticket, PushError> {
        self.push_item(IngestItem {
            delta,
            insert_ids: None,
        })
    }

    /// [`IngestQueue::push`] with globally pre-assigned row ids for the
    /// delta's insertions — the router's entry point.
    pub fn push_scheduled(
        &self,
        delta: Delta,
        insert_ids: Vec<RowId>,
    ) -> Result<Ticket, PushError> {
        self.push_item(IngestItem {
            delta,
            insert_ids: Some(insert_ids),
        })
    }

    fn push_item(&self, item: IngestItem) -> Result<Ticket, PushError> {
        let mut inner = self.lock();
        if inner.items.len() >= self.capacity && !inner.closed {
            let blocked = Instant::now();
            while inner.items.len() >= self.capacity && !inner.closed {
                inner = self.not_full.wait(inner).unwrap_or_else(|e| e.into_inner());
            }
            self.metrics.backpressure.record_duration(blocked.elapsed());
        }
        if inner.closed {
            self.metrics.rejected.inc();
            return Err(PushError::Closed);
        }
        Ok(self.enqueue(&mut inner, item))
    }

    /// Enqueues a delta without blocking, failing with [`PushError::Full`]
    /// when the queue is at capacity.
    pub fn try_push(&self, delta: Delta) -> Result<Ticket, PushError> {
        let mut inner = self.lock();
        if inner.closed {
            self.metrics.rejected.inc();
            return Err(PushError::Closed);
        }
        if inner.items.len() >= self.capacity {
            self.metrics.rejected.inc();
            return Err(PushError::Full);
        }
        Ok(self.enqueue(
            &mut inner,
            IngestItem {
                delta,
                insert_ids: None,
            },
        ))
    }

    fn enqueue(&self, inner: &mut Inner, item: IngestItem) -> Ticket {
        let ticket = inner.next_ticket;
        inner.next_ticket += 1;
        inner.items.push_back((ticket, item));
        self.metrics.accepted.inc();
        self.metrics.depth.set(inner.items.len() as i64);
        self.metrics.lag.set((ticket - inner.applied) as i64);
        self.progress.notify_all();
        ticket
    }

    /// Pops up to `max` pending deltas for the writer, blocking up to
    /// `timeout` for the first one. Returns:
    ///
    /// * `Some(batch)` with 1..=`max` deltas when work arrived;
    /// * `Some(vec![])` when the timeout elapsed with nothing pending;
    /// * `None` when the queue is closed **and** fully drained — the writer's
    ///   signal to exit.
    pub fn pop_batch(&self, max: usize, timeout: Duration) -> Option<Vec<(Ticket, IngestItem)>> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
        while inner.items.is_empty() {
            if inner.closed {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return Some(Vec::new());
            }
            let (guard, _) = self
                .progress
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
        let take = max.max(1).min(inner.items.len());
        let batch: Vec<(Ticket, IngestItem)> = inner.items.drain(..take).collect();
        self.metrics.depth.set(inner.items.len() as i64);
        self.not_full.notify_all();
        Some(batch)
    }

    /// Records that every delta up to and including `ticket` has been applied
    /// and its snapshot published, waking `SYNC` waiters.
    pub fn mark_applied(&self, ticket: Ticket) {
        let mut inner = self.lock();
        if ticket > inner.applied {
            inner.applied = ticket;
            self.metrics
                .lag
                .set((inner.next_ticket - 1 - inner.applied) as i64);
            self.progress.notify_all();
        }
    }

    /// Blocks until everything up to `ticket` is applied and published, the
    /// queue is closed with the ticket unreachable, or `timeout` elapses.
    /// Returns whether the ticket was reached.
    pub fn wait_applied(&self, ticket: Ticket, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            if inner.applied >= ticket {
                return true;
            }
            // The writer died: whatever is pending will never be applied.
            if inner.aborted {
                return false;
            }
            // Closed with nothing left to drain: the ticket will never come.
            if inner.closed && inner.items.is_empty() {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .progress
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
    }

    /// Closes the queue: pending deltas stay poppable (the writer drains
    /// them), new pushes fail, and every blocked producer or waiter wakes.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        self.not_full.notify_all();
        self.progress.notify_all();
    }

    /// Closes the queue because the writer is gone: like [`IngestQueue::close`],
    /// but additionally tells barrier waiters that pending deltas will never
    /// be applied, so [`IngestQueue::wait_applied`] fails fast instead of
    /// waiting out its timeout on tickets that cannot make progress.
    pub fn close_aborted(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        inner.aborted = true;
        self.not_full.notify_all();
        self.progress.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfd_relation::Tuple;
    use std::time::Duration;

    fn delta(tag: &str) -> Delta {
        Delta::insert_only(vec![Tuple::from_iter([tag, "x"])])
    }

    #[test]
    fn backpressure_blocks_and_try_push_refuses() {
        let q = IngestQueue::new(1);
        let t1 = q.try_push(delta("a")).unwrap();
        assert_eq!(t1, 1);
        assert_eq!(q.try_push(delta("b")), Err(PushError::Full));
        assert_eq!(q.pending(), 1);

        // A blocked producer proceeds as soon as the consumer drains.
        let out = std::thread::scope(|s| {
            let producer = s.spawn(|| q.push(delta("c")));
            std::thread::sleep(Duration::from_millis(20));
            let batch = q.pop_batch(8, Duration::from_millis(100)).unwrap();
            assert_eq!(batch.len(), 1, "only the first delta was in yet");
            producer.join().unwrap()
        });
        assert_eq!(out, Ok(2));
        assert_eq!(q.pending(), 1);
    }

    #[test]
    fn pop_batch_times_out_empty_and_drains_after_close() {
        let q = IngestQueue::new(4);
        assert_eq!(
            q.pop_batch(8, Duration::from_millis(5)),
            Some(Vec::new()),
            "timeout with nothing pending"
        );
        q.push(delta("a")).unwrap();
        q.push(delta("b")).unwrap();
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.push(delta("c")), Err(PushError::Closed));
        let batch = q.pop_batch(8, Duration::from_millis(5)).unwrap();
        assert_eq!(batch.len(), 2, "pending work survives close");
        assert_eq!(q.pop_batch(8, Duration::from_millis(5)), None, "drained");
    }

    #[test]
    fn tickets_track_application_progress() {
        let q = IngestQueue::new(4);
        let t1 = q.push(delta("a")).unwrap();
        let t2 = q.push(delta("b")).unwrap();
        assert_eq!(q.last_ticket(), t2);
        assert!(!q.is_applied(t1));
        assert!(!q.wait_applied(t1, Duration::from_millis(5)));

        let batch = q.pop_batch(8, Duration::from_millis(5)).unwrap();
        let max_ticket = batch.iter().map(|(t, _)| *t).max().unwrap();
        q.mark_applied(max_ticket);
        assert!(q.is_applied(t1));
        assert!(q.is_applied(t2));
        assert!(q.wait_applied(t2, Duration::from_millis(5)));
    }

    #[test]
    fn scheduled_pushes_carry_their_row_ids() {
        let q = IngestQueue::new(4);
        q.push(delta("a")).unwrap();
        q.push_scheduled(delta("b"), vec![RowId(7), RowId(9)])
            .unwrap();
        let batch = q.pop_batch(8, Duration::from_millis(5)).unwrap();
        assert_eq!(batch[0].1.insert_ids, None);
        assert_eq!(batch[1].1.insert_ids, Some(vec![RowId(7), RowId(9)]));
        assert_eq!(batch[1].1.delta, delta("b"));
    }

    #[test]
    fn starting_at_continues_ticket_sequence() {
        let q = IngestQueue::starting_at(4, 41);
        assert_eq!(q.applied_ticket(), 41);
        assert!(q.is_applied(41), "recovered history counts as applied");
        assert_eq!(q.push(delta("a")).unwrap(), 42);
        assert_eq!(q.last_ticket(), 42);
    }

    #[test]
    fn close_aborted_fails_waiters_fast_with_items_pending() {
        let q = IngestQueue::new(4);
        let t = q.push(delta("a")).unwrap();
        q.close_aborted();
        // The item is still pending (never popped), yet the waiter returns
        // immediately — a plain close would burn the whole timeout here.
        let start = Instant::now();
        assert!(!q.wait_applied(t, Duration::from_secs(30)));
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(q.push(delta("b")), Err(PushError::Closed));
    }

    #[test]
    fn wait_applied_gives_up_when_closed_and_drained() {
        let q = IngestQueue::new(4);
        let t = q.push(delta("a")).unwrap();
        q.close();
        // Drain without applying: the waiter must not hang.
        q.pop_batch(8, Duration::from_millis(5)).unwrap();
        assert!(!q.wait_applied(t, Duration::from_millis(50)));
    }
}
