//! The single writer: drain the queue, apply, snapshot, publish.
//!
//! Behind a merge layer with open groups (see [`crate::ShardedHub`]) the
//! publish step also hands the layer the rows the batch inserted and
//! removed, so a merged read never has to re-scan the shard to learn them.

use crate::durable::{recover_session, report_hash, RecoveryReport, WalSink};
use crate::hub::Hub;
use crate::ingest::{IngestQueue, Ticket};
use crate::sharded::AppliedRows;
use crate::{Result, ServeError};
use ecfd_obs::{Counter, Histogram};
use ecfd_session::Session;
use ecfd_wal::Wal;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handles into the process-wide registry for the writer's metrics.
#[derive(Debug)]
struct WriterMetrics {
    /// `writer.apply.ns` — per-ticket apply latency.
    apply: Histogram,
    /// `writer.apply.failed` — deltas that failed to apply and were skipped.
    apply_failed: Counter,
    /// `writer.batch.size` — deltas per writer cycle.
    batch_size: Histogram,
    /// `writer.publish.ns` — snapshot extraction + publish (+ checkpoint).
    publish: Histogram,
    /// `writer.epochs` — snapshots published.
    epochs: Counter,
}

impl WriterMetrics {
    /// Fetches the writer's metric handles; under a server every series
    /// carries a `shard` label (one writer per shard).
    fn fetch(shard: Option<u32>) -> Self {
        let registry = ecfd_obs::registry();
        let shard = shard.map(|s| s.to_string());
        let labels: Vec<(&str, &str)> = shard.iter().map(|s| ("shard", s.as_str())).collect();
        WriterMetrics {
            apply: registry.histogram_with("writer.apply.ns", &labels),
            apply_failed: registry.counter_with("writer.apply.failed", &labels),
            batch_size: registry.histogram_with("writer.batch.size", &labels),
            publish: registry.histogram_with("writer.publish.ns", &labels),
            epochs: registry.counter_with("writer.epochs", &labels),
        }
    }
}

/// What one [`Writer::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A batch of this many deltas was applied and a new epoch published.
    Applied(usize),
    /// Nothing was pending within the timeout.
    Idle,
    /// The queue is closed and fully drained — the writer loop should exit.
    Drained,
}

/// The sole owner of the mutable [`Session`] in a serving deployment.
///
/// The writer enforces the single-writer discipline by construction: it
/// *consumes* the session, so no other code can touch it while serving, and
/// [`Writer::run`] hands it back when the hub shuts down. Each cycle pops up
/// to `batch_max` pending deltas and applies them **one at a time, in ticket
/// order** — ticket order *is* the serialization order, and `+X` then `-X`
/// from different clients always means X ends up deleted, regardless of how
/// the deltas landed in batches. Each delta routes through the session's
/// policy (incremental maintenance below the delta-size threshold, a fresh
/// pass above it); one epoch-stamped snapshot is published per cycle, after
/// the whole batch.
///
/// A failing delta (e.g. tuples that no longer fit the schema) is counted
/// and skipped rather than wedging the loop — the blast radius is that one
/// ticket; later tickets in the same batch still apply. Skipped tickets are
/// still marked applied so `SYNC` barriers cannot hang on a poisoned delta
/// (the error is observable via the `ERRORS` counter of `EPOCH` and
/// [`Hub::last_error`]).
///
/// When the hub is a shard of a merge layer that keeps open groups, the
/// publish folds the batch into it before the batch is marked applied: the
/// rows each scheduled apply removed and the ones it inserted under their
/// pre-assigned ids. A failed delta or a failed publish leaves what the
/// shard's rows did unknown, and the next publish re-seeds the layer instead.
#[derive(Debug)]
pub struct Writer {
    session: Session,
    table: String,
    batch_max: usize,
    metrics: WriterMetrics,
    /// Set when a publish failed: the merge layer never saw that batch, so
    /// the next publish cannot hand it rows and has it re-seed instead.
    rows_lost: bool,
    /// Test-only fault injection: fail this many upcoming snapshot
    /// extractions, to exercise the publish-error path (a genuine
    /// `snapshot_of` failure is unreachable from a healthy session).
    #[cfg(test)]
    pub(crate) fail_next_snapshots: usize,
}

impl Writer {
    /// Builds the writer around a prepared session (data loaded, constraints
    /// registered) and publishes the initial snapshot into a fresh [`Hub`]
    /// with the given ingest-queue capacity. Returns the writer and the hub
    /// to share with producers and readers.
    pub fn bootstrap(
        session: Session,
        queue_capacity: usize,
        batch_max: usize,
    ) -> Result<(Writer, Arc<Hub>)> {
        Writer::bootstrap_shard(session, queue_capacity, batch_max, None)
    }

    /// [`Writer::bootstrap`] for one shard of a served deployment: the
    /// writer's (and its queue's) metric series carry a `shard` label so the
    /// per-shard apply latencies stay separable.
    pub fn bootstrap_shard(
        mut session: Session,
        queue_capacity: usize,
        batch_max: usize,
        shard: Option<u32>,
    ) -> Result<(Writer, Arc<Hub>)> {
        let snapshot = session.snapshot()?;
        let table = snapshot.table().to_string();
        let queue = IngestQueue::starting_at_sharded(queue_capacity, 0, shard);
        let hub = Hub::with_queue(snapshot, queue);
        Ok((
            Writer {
                session,
                table,
                batch_max: batch_max.max(1),
                metrics: WriterMetrics::fetch(shard),
                rows_lost: false,
                #[cfg(test)]
                fail_next_snapshots: 0,
            },
            hub,
        ))
    }

    /// Durable bootstrap: open (or create) the WAL in `wal_dir`, replay its
    /// records over the freshly prepared `session` — which must hold the
    /// same base data and constraints the log was written against — and
    /// wire the hub so every future submit is logged and fsynced before its
    /// ACK and every published epoch stamps a checkpoint record.
    ///
    /// Replay goes through the normal `Session::apply_on` path and
    /// re-verifies every logged checkpoint (epoch and report hash), so the
    /// recovered snapshot's detect report is byte-identical to what was
    /// published before the crash. The returned [`RecoveryReport`] says how
    /// much history was replayed; it is all zeros for a fresh log. The
    /// recovered queue continues the log's ticket numbering, and a fresh
    /// checkpoint for the recovered epoch is stamped immediately, giving
    /// followers an anchor even before the first new delta.
    pub fn bootstrap_durable(
        session: Session,
        queue_capacity: usize,
        batch_max: usize,
        wal_dir: &Path,
    ) -> Result<(Writer, Arc<Hub>, RecoveryReport)> {
        Writer::bootstrap_durable_shard(session, queue_capacity, batch_max, wal_dir, None)
    }

    /// [`Writer::bootstrap_durable`] for one shard of a served deployment:
    /// `wal_dir` is the shard's own log directory, and every metric series
    /// (writer, queue, WAL sink, recovery gauges) carries a `shard` label.
    pub fn bootstrap_durable_shard(
        mut session: Session,
        queue_capacity: usize,
        batch_max: usize,
        wal_dir: &Path,
        shard: Option<u32>,
    ) -> Result<(Writer, Arc<Hub>, RecoveryReport)> {
        let opened = Wal::open(wal_dir)?;
        let table = sole_table(&session)?;
        let recovered = !opened.records.is_empty();
        let mut recovery = recover_session(&mut session, &table, &opened.records)?;
        recovery.truncated_bytes = opened.truncated_bytes;
        recovery.export_metrics(shard);

        let snapshot = session.snapshot_of(&table)?;
        let epoch = snapshot.epoch();
        let hash = report_hash(snapshot.report());
        let wal_path = opened.wal.path().to_path_buf();
        let sink = WalSink::new(opened.wal, recovery.last_ticket, shard);
        // Anchor the recovered (or initial) epoch in the log before serving.
        sink.log_checkpoint(epoch, recovery.last_ticket, hash)?;

        let queue = IngestQueue::starting_at_sharded(queue_capacity, recovery.last_ticket, shard);
        let hub = Hub::new_durable(snapshot, queue, sink, wal_path, recovered);
        Ok((
            Writer {
                session,
                table,
                batch_max: batch_max.max(1),
                metrics: WriterMetrics::fetch(shard),
                rows_lost: false,
                #[cfg(test)]
                fail_next_snapshots: 0,
            },
            hub,
            recovery,
        ))
    }

    /// Name of the served relation.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Read access to the owned session (e.g. for pre-run inspection).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Runs one cycle: wait up to `timeout` for pending deltas, apply them
    /// in ticket order, publish one new snapshot covering the whole batch.
    pub fn step(&mut self, hub: &Hub, timeout: Duration) -> Result<StepOutcome> {
        let Some(batch) = hub.queue().pop_batch(self.batch_max, timeout) else {
            return Ok(StepOutcome::Drained);
        };
        if batch.is_empty() {
            return Ok(StepOutcome::Idle);
        }
        let max_ticket = batch.iter().map(|(t, _)| *t).max().expect("non-empty");
        let count = batch.len();
        self.metrics.batch_size.record(count as u64);
        // How the batch changed the rows, delta by delta, for a merge layer
        // that folds them; `None` once that is unknown.
        let mut rows: Option<Vec<AppliedRows>> = (!self.rows_lost).then(Vec::new);
        for (ticket, item) in batch {
            // One failing ticket is skipped (and recorded) on its own; a
            // failed apply drops the session's caches, so the snapshot below
            // still describes the actual table contents.
            let applied_at = Instant::now();
            let applied = match item.insert_ids {
                Some(ids) => self
                    .session
                    .apply_scheduled_on(&self.table, &item.delta, &ids)
                    .map(|removed| {
                        // Every insertion took its scheduled id, or the rows
                        // it landed under are not known here.
                        (ids.len() == item.delta.insertions.len()).then_some(AppliedRows {
                            removed,
                            ids,
                            inserted: item.delta.insertions,
                        })
                    }),
                None => self
                    .session
                    .apply_on(&self.table, &item.delta)
                    .map(|_| None),
            };
            match applied {
                Ok(Some(applied)) => {
                    if let Some(rows) = &mut rows {
                        rows.push(applied);
                    }
                }
                Ok(None) => rows = None,
                Err(e) => {
                    rows = None;
                    self.metrics.apply_failed.inc();
                    hub.record_write_error(format!("ticket {ticket}: {e}"));
                }
            }
            self.metrics.apply.record_duration(applied_at.elapsed());
        }
        let published_at = Instant::now();
        let published = self.publish_epoch(hub, max_ticket, rows);
        self.rows_lost = published.is_err();
        self.metrics.publish.record_duration(published_at.elapsed());
        if published.is_ok() {
            self.metrics.epochs.inc();
        }
        // The watermark advances no matter how publication went: a failed
        // snapshot must not leave `SYNC` barriers waiting forever on tickets
        // that were consumed from the queue.
        hub.queue().mark_applied(max_ticket);
        if let Err(e) = &published {
            hub.record_write_error(format!("publish after ticket {max_ticket}: {e}"));
        }
        published.map(|()| StepOutcome::Applied(count))
    }

    /// Extracts the batch's snapshot, publishes it — folding `rows` into the
    /// hub's merge layer, if it has one — and (in durable mode) stamps the
    /// epoch-boundary checkpoint into the WAL.
    fn publish_epoch(
        &mut self,
        hub: &Hub,
        max_ticket: Ticket,
        rows: Option<Vec<AppliedRows>>,
    ) -> Result<()> {
        #[cfg(test)]
        if self.fail_next_snapshots > 0 {
            self.fail_next_snapshots -= 1;
            return Err(
                ecfd_session::SessionError::NotLoaded("injected snapshot failure".into()).into(),
            );
        }
        let snapshot = self.session.snapshot_of(&self.table)?;
        let epoch = snapshot.epoch();
        let hash = report_hash(snapshot.report());
        let published = hub.publish(snapshot, rows);
        hub.log_checkpoint(epoch, max_ticket, hash)?;
        published
    }

    /// The writer loop: steps until the hub shuts down and the queue drains,
    /// then returns the session to the caller.
    ///
    /// Exiting on an error (or a panic in a step) *aborts* the hub first:
    /// the queue closes so producers blocked in backpressure wake with
    /// `PushError::Closed` and barrier waiters fail fast, instead of
    /// deadlocking against a writer that no longer exists.
    pub fn run(mut self, hub: &Hub) -> Result<Session> {
        struct AbortOnExit<'a> {
            hub: &'a Hub,
            armed: bool,
        }
        impl Drop for AbortOnExit<'_> {
            fn drop(&mut self) {
                if self.armed {
                    self.hub.abort();
                }
            }
        }
        let mut guard = AbortOnExit { hub, armed: true };
        loop {
            match self.step(hub, Duration::from_millis(20))? {
                StepOutcome::Drained => {
                    // Clean exit: the hub was already shut down gracefully.
                    guard.armed = false;
                    return Ok(self.session);
                }
                StepOutcome::Applied(_) | StepOutcome::Idle => {}
            }
        }
    }
}

/// Name of the one relation a served session must have registered.
pub(crate) fn sole_table(session: &Session) -> Result<String> {
    match session.registered_tables().as_slice() {
        [sole] => Ok(sole.to_string()),
        _ => Err(ServeError::Protocol(
            "serving needs exactly one registered relation".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfd_relation::{DataType, Delta, Relation, Schema, Tuple};
    use std::path::PathBuf;

    fn ready_session() -> Session {
        session_with_filler(0)
    }

    /// The two-row session plus `filler` clean rows — enough of them and a
    /// one-tuple delta routes to the incremental backend instead of a full
    /// pass.
    fn session_with_filler(filler: usize) -> Session {
        let schema = Schema::builder("cust")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .build();
        let rows = [
            Tuple::from_iter(["Albany", "718"]),
            Tuple::from_iter(["NYC", "212"]),
        ]
        .into_iter()
        .chain((0..filler).map(|i| Tuple::from_iter(["Utica", &format!("3{i:02}")])));
        let data = Relation::with_tuples(schema, rows).unwrap();
        let mut session = Session::new();
        session.load(data).unwrap();
        session
            .register_text("cust: [CT] -> [AC] | [], { {Albany} || {518} }")
            .unwrap();
        session
    }

    #[test]
    fn steps_apply_merge_publish_and_mark_applied() {
        let (mut writer, hub) = Writer::bootstrap(ready_session(), 8, 4).unwrap();
        assert_eq!(writer.table(), "cust");
        let e0 = hub.epoch();
        assert_eq!(hub.snapshot().report().num_sv(), 1);

        let t1 = hub
            .submit(Delta::insert_only(vec![Tuple::from_iter([
                "Albany", "519",
            ])]))
            .unwrap();
        let t2 = hub
            .submit(Delta::delete_only(vec![Tuple::from_iter(["NYC", "212"])]))
            .unwrap();
        assert_eq!(
            writer.step(&hub, Duration::from_millis(10)).unwrap(),
            StepOutcome::Applied(2),
            "both deltas apply in one cycle"
        );
        assert!(hub.queue().is_applied(t2));
        assert!(hub.epoch() > e0);
        let snap = hub.snapshot();
        assert_eq!(snap.num_rows(), 2);
        assert!(hub.queue().is_applied(t1));
        assert_eq!(&snap.detect_fresh().unwrap(), snap.report());

        assert_eq!(
            writer.step(&hub, Duration::from_millis(5)).unwrap(),
            StepOutcome::Idle
        );
        hub.shutdown();
        assert_eq!(
            writer.step(&hub, Duration::from_millis(5)).unwrap(),
            StepOutcome::Drained
        );
    }

    #[test]
    fn tickets_apply_in_submission_order_within_a_batch() {
        let (mut writer, hub) = Writer::bootstrap(ready_session(), 8, 8).unwrap();
        // +X then -X from two producers, popped as ONE batch: ticket order
        // must win, so X ends up deleted (a merged delete-then-insert replay
        // would resurrect it).
        hub.submit(Delta::insert_only(vec![Tuple::from_iter(["Utica", "315"])]))
            .unwrap();
        hub.submit(Delta::delete_only(vec![Tuple::from_iter(["Utica", "315"])]))
            .unwrap();
        assert_eq!(
            writer.step(&hub, Duration::from_millis(10)).unwrap(),
            StepOutcome::Applied(2)
        );
        let snap = hub.snapshot();
        assert_eq!(snap.num_rows(), 2, "the inserted row was deleted again");
        assert!(!snap
            .frozen()
            .decode_rows()
            .into_iter()
            .any(|(_, values)| Tuple::new(values) == Tuple::from_iter(["Utica", "315"])));
        assert_eq!(hub.stats().write_errors, 0);
    }

    #[test]
    fn bad_deltas_are_skipped_not_fatal() {
        // An insertion with the wrong arity cannot be applied — and a valid
        // delta behind it in the same batch must still land. On two rows the
        // delta goes to a full pass; on twenty it goes to the incremental
        // maintainer, which a short tuple matching a constraint's LHS
        // (`Albany`) used to panic — killing the writer — instead of failing.
        for (filler, short) in [(0, "only-one"), (18, "only-one"), (18, "Albany")] {
            let (mut writer, hub) = Writer::bootstrap(session_with_filler(filler), 8, 4).unwrap();
            let before = hub.snapshot();
            let ticket = hub
                .submit(Delta::insert_only(vec![Tuple::from_iter([short])]))
                .unwrap();
            let good = hub
                .submit(Delta::insert_only(vec![Tuple::from_iter(["Troy", "518"])]))
                .unwrap();
            writer.step(&hub, Duration::from_millis(10)).unwrap();
            assert!(hub.queue().is_applied(ticket), "SYNC must not hang");
            assert!(hub.queue().is_applied(good));
            assert_eq!(hub.stats().write_errors, 1, "{short} on {filler} + 2 rows");
            let error = hub.last_error().unwrap();
            assert!(error.starts_with("ticket 1:"), "{error}");
            let after = hub.snapshot();
            assert_eq!(after.num_rows(), filler + 3, "the good ticket landed");
            assert_eq!(
                after.report().sv_rows,
                before.report().sv_rows,
                "the clean Troy insert changed no flags"
            );
            assert_eq!(&after.detect_fresh().unwrap(), after.report());
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ecfd-writer-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Regression (writer hang): a failed snapshot used to return from
    /// `step` *before* `mark_applied`, so `SYNC` barriers on that batch
    /// waited out their full timeout for a watermark that never moved.
    #[test]
    fn failed_snapshot_still_marks_batch_applied() {
        let (mut writer, hub) = Writer::bootstrap(ready_session(), 8, 4).unwrap();
        writer.fail_next_snapshots = 1;
        let ticket = hub
            .submit(Delta::insert_only(vec![Tuple::from_iter(["Troy", "518"])]))
            .unwrap();
        assert!(
            writer.step(&hub, Duration::from_millis(10)).is_err(),
            "the injected snapshot failure propagates"
        );
        // Pre-fix this wait burned its whole deadline and returned false.
        assert!(
            hub.queue().wait_applied(ticket, Duration::from_millis(50)),
            "the batch must be marked applied despite the publish failure"
        );
        assert_eq!(hub.stats().write_errors, 1);
        assert!(hub.last_error().unwrap().contains("publish after ticket"));

        // The writer is still usable: the next batch publishes normally.
        let next = hub
            .submit(Delta::insert_only(vec![Tuple::from_iter([
                "Colonie", "518",
            ])]))
            .unwrap();
        assert_eq!(
            writer.step(&hub, Duration::from_millis(10)).unwrap(),
            StepOutcome::Applied(1)
        );
        assert!(hub.queue().is_applied(next));
        assert_eq!(hub.snapshot().num_rows(), 4, "both inserts landed");
    }

    /// Regression (producer deadlock): `run` used to propagate a step error
    /// without closing the queue, leaving producers blocked in backpressure
    /// forever. Now any writer exit aborts the hub, so this join completes.
    #[test]
    fn writer_death_releases_blocked_producers() {
        let (mut writer, hub) = Writer::bootstrap(ready_session(), 1, 1).unwrap();
        writer.fail_next_snapshots = 1;
        let accepted = std::thread::scope(|s| {
            let hub = &hub;
            // Keep one producer pushing until the queue refuses: with
            // capacity 1 and a dead writer it inevitably ends up blocked in
            // `push`, and only the abort path can release it. Pre-fix, this
            // thread never finished and the test hung.
            let producer = s.spawn(move || {
                let mut accepted = 0u64;
                loop {
                    match hub.submit(Delta::insert_only(vec![Tuple::from_iter(["Troy", "518"])])) {
                        Ok(_) => accepted += 1,
                        Err(e) => return (accepted, e),
                    }
                }
            });
            let result = writer.run(hub);
            assert!(result.is_err(), "the injected failure kills the writer");
            let (accepted, error) = producer.join().unwrap();
            assert!(
                matches!(error, crate::ServeError::QueueClosed),
                "blocked producer was woken with a closed-queue error, got {error}"
            );
            accepted
        });
        // If a ticket slipped in after the writer's last batch it will never
        // be applied — barriers on it must fail fast, not burn the timeout.
        if accepted > hub.queue().applied_ticket() {
            let start = std::time::Instant::now();
            assert!(!hub.queue().wait_applied(accepted, Duration::from_secs(30)));
            assert!(start.elapsed() < Duration::from_secs(5));
        }
    }

    #[test]
    fn durable_bootstrap_logs_recovers_and_verifies() {
        let dir = temp_dir("durable");

        // First run: bootstrap fresh, apply two batches, drain cleanly.
        let (mut writer, hub, recovery) =
            Writer::bootstrap_durable(ready_session(), 8, 4, &dir).unwrap();
        assert_eq!(recovery, RecoveryReport::default());
        assert!(hub.is_durable());
        let first_epoch = hub.epoch();
        hub.submit(Delta::insert_only(vec![Tuple::from_iter([
            "Albany", "519",
        ])]))
        .unwrap();
        writer.step(&hub, Duration::from_millis(10)).unwrap();
        hub.submit(Delta::delete_only(vec![Tuple::from_iter(["NYC", "212"])]))
            .unwrap();
        writer.step(&hub, Duration::from_millis(10)).unwrap();
        let crashed_epoch = hub.epoch();
        let crashed_report = hub.snapshot().report().clone();
        drop((writer, hub)); // "crash": nothing flushed beyond the per-ACK fsyncs

        // Second run: same base session, recovered from the log.
        let (writer, hub, recovery) =
            Writer::bootstrap_durable(ready_session(), 8, 4, &dir).unwrap();
        assert_eq!(recovery.deltas_applied, 2);
        assert_eq!(recovery.last_ticket, 2);
        assert!(
            recovery.checkpoints_verified >= 3,
            "bootstrap + two epochs, got {}",
            recovery.checkpoints_verified
        );
        assert_eq!(recovery.apply_errors, 0);
        assert_eq!(hub.epoch(), crashed_epoch, "epochs reproduce exactly");
        assert!(hub.epoch() > first_epoch);
        let snap = hub.snapshot();
        assert_eq!(snap.report(), &crashed_report, "report is byte-identical");
        assert_eq!(&snap.detect_fresh().unwrap(), snap.report());
        // New tickets continue the logged numbering.
        let t = hub
            .submit(Delta::insert_only(vec![Tuple::from_iter(["Troy", "518"])]))
            .unwrap();
        assert_eq!(t, 3);
        drop(writer);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A divergent base (different constraints than the log was written
    /// against) must be refused at recovery, not served silently.
    #[test]
    fn durable_bootstrap_detects_divergent_base() {
        let dir = temp_dir("diverge");
        let (mut writer, hub, _) = Writer::bootstrap_durable(ready_session(), 8, 4, &dir).unwrap();
        hub.submit(Delta::insert_only(vec![Tuple::from_iter([
            "Albany", "519",
        ])]))
        .unwrap();
        writer.step(&hub, Duration::from_millis(10)).unwrap();
        drop((writer, hub));

        // Same data, different constraint set → different report hashes.
        let schema = Schema::builder("cust")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .build();
        let data = Relation::with_tuples(
            schema,
            [
                Tuple::from_iter(["Albany", "718"]),
                Tuple::from_iter(["NYC", "212"]),
            ],
        )
        .unwrap();
        let mut other = Session::new();
        other.load(data).unwrap();
        other
            .register_text("cust: [CT] -> [AC] | [], { {NYC} || {212} }")
            .unwrap();
        let err = Writer::bootstrap_durable(other, 8, 4, &dir).unwrap_err();
        assert!(
            matches!(err, crate::ServeError::Replication(_)),
            "expected divergence, got {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
