//! Durability plumbing: the ticket-ordered WAL sink, the canonical report
//! hash, and crash-recovery replay.
//!
//! The invariant everything here leans on: ticket order *is* the
//! serialization order, and [`Session`] bumps its version by exactly one per
//! `apply_on` call — success or skip-on-error alike. Logging each accepted
//! delta in ticket order before its ACK therefore captures enough to rebuild
//! the table *and its epochs*: replaying the log over the same base data
//! through the same apply path reproduces every published epoch number, and
//! the checkpoint records' report hashes let recovery prove it did.

use crate::ingest::Ticket;
use crate::{Result, ServeError};
use ecfd_detect::DetectionReport;
use ecfd_obs::{Counter, Histogram};
use ecfd_relation::{Delta, RowId};
use ecfd_session::Session;
use ecfd_wal::{Wal, WalRecord};
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};

/// Handles into the process-wide registry for the WAL sink's metrics.
struct SinkMetrics {
    /// `wal.append.count` — records appended (deltas and checkpoints).
    appends: Counter,
    /// `wal.bytes` — frame bytes written to the log.
    bytes: Counter,
    /// `wal.fsync.count` — `fdatasync` calls issued.
    fsyncs: Counter,
    /// `wal.fsync.ns` — `fdatasync` latency.
    fsync_latency: Histogram,
}

impl SinkMetrics {
    /// Fetches the sink's metric handles; under a server every series carries
    /// a `shard` label (one WAL segment per shard).
    fn fetch(shard: Option<u32>) -> Self {
        let registry = ecfd_obs::registry();
        let shard = shard.map(|s| s.to_string());
        let labels: Vec<(&str, &str)> = shard.iter().map(|s| ("shard", s.as_str())).collect();
        SinkMetrics {
            appends: registry.counter_with("wal.append.count", &labels),
            bytes: registry.counter_with("wal.bytes", &labels),
            fsyncs: registry.counter_with("wal.fsync.count", &labels),
            fsync_latency: registry.histogram_with("wal.fsync.ns", &labels),
        }
    }

    /// One timed, counted fsync.
    fn sync(&self, wal: &mut Wal) -> ecfd_wal::Result<()> {
        self.fsyncs.inc();
        self.fsync_latency.time(|| wal.sync())
    }
}

/// Canonical 64-bit hash (FNV-1a) of a detection report: total rows, then
/// the SV row ids, then the MV row ids, all as little-endian `u64`s with
/// length prefixes. Two reports hash equal iff they are `==` — this is the
/// divergence-detection anchor stamped into checkpoint records and compared
/// by recovery and followers.
pub fn report_hash(report: &DetectionReport) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |n: u64| {
        for byte in n.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(PRIME);
        }
    };
    eat(report.total_rows as u64);
    eat(report.sv_rows.len() as u64);
    for row in &report.sv_rows {
        eat(row.as_u64());
    }
    eat(report.mv_rows.len() as u64);
    for row in &report.mv_rows {
        eat(row.as_u64());
    }
    hash
}

struct SinkState {
    wal: Wal,
    metrics: SinkMetrics,
    /// Delta records that arrived ahead of their turn, keyed by ticket.
    pending: BTreeMap<Ticket, WalRecord>,
    /// Highest ticket whose record is on disk and fsynced.
    durable: Ticket,
    /// A write/sync failure poisons the sink: every current and future
    /// caller gets the error instead of hanging on a log that cannot grow.
    failed: Option<String>,
}

/// Serializes concurrent producers' WAL appends into strict ticket order.
///
/// Producers hold no lock while they wait for queue capacity (that happens
/// in `IngestQueue::push`, before this type is involved); they only contend
/// here, after a ticket is assigned. A producer whose ticket is next appends
/// its own record *and* any consecutive successors that arrived early, syncs
/// once for the whole run, and wakes the rest — so an out-of-order arrival
/// costs a condvar wait, not a busy loop, and fsyncs batch up naturally
/// under load.
pub(crate) struct WalSink {
    state: Mutex<SinkState>,
    advanced: Condvar,
}

impl WalSink {
    /// Wraps an opened log whose records end at `durable` (the recovered
    /// last ticket; 0 for a fresh log). `shard` labels the sink's metric
    /// series.
    pub(crate) fn new(wal: Wal, durable: Ticket, shard: Option<u32>) -> Self {
        WalSink {
            state: Mutex::new(SinkState {
                wal,
                metrics: SinkMetrics::fetch(shard),
                pending: BTreeMap::new(),
                durable,
                failed: None,
            }),
            advanced: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SinkState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Logs the delta under its ticket and returns once every record up to
    /// and including `ticket` is fsynced — the fsync-before-ACK half of the
    /// durability contract.
    pub(crate) fn log_delta(&self, ticket: Ticket, delta: &Delta) -> Result<()> {
        let delta = delta.clone();
        self.log_record(ticket, WalRecord::Delta { ticket, delta })
    }

    /// [`WalSink::log_delta`] for a shard-routed delta with globally
    /// pre-assigned insertion row ids — logged as a
    /// [`WalRecord::ScheduledDelta`] so recovery replay hands out the same
    /// ids and the router resumes after `global`.
    pub(crate) fn log_scheduled(
        &self,
        ticket: Ticket,
        global: Ticket,
        delta: &Delta,
        insert_ids: &[RowId],
    ) -> Result<()> {
        let record = WalRecord::ScheduledDelta {
            ticket,
            global,
            delta: delta.clone(),
            insert_ids: insert_ids.iter().map(|id| id.0).collect(),
        };
        self.log_record(ticket, record)
    }

    fn log_record(&self, ticket: Ticket, record: WalRecord) -> Result<()> {
        let mut state = self.lock();
        if ticket <= state.durable {
            // Already on disk (a follower replaying records it was handed
            // twice, or a retry) — nothing to add.
            return fail_or(&state, ());
        }
        state.pending.insert(ticket, record);
        loop {
            drain(&mut state)?;
            if state.durable >= ticket {
                self.advanced.notify_all();
                return Ok(());
            }
            // A predecessor's record has not arrived yet; wait for whoever
            // completes it to drain past us.
            state = self.advanced.wait(state).unwrap_or_else(|e| e.into_inner());
            fail_or(&state, ())?;
        }
    }

    /// Appends an epoch-boundary checkpoint once everything up to
    /// `last_ticket` is durable (producers past `push` are guaranteed to be
    /// on their way here, so the wait terminates).
    pub(crate) fn log_checkpoint(
        &self,
        epoch: u64,
        last_ticket: Ticket,
        report_hash: u64,
    ) -> Result<()> {
        let mut state = self.lock();
        while state.durable < last_ticket {
            fail_or(&state, ())?;
            drain(&mut state)?;
            if state.durable >= last_ticket {
                break;
            }
            state = self.advanced.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        fail_or(&state, ())?;
        let record = WalRecord::Checkpoint {
            epoch,
            last_ticket,
            report_hash,
        };
        let state = &mut *state;
        let result = state
            .wal
            .append(&record)
            .and_then(|bytes| {
                state.metrics.appends.inc();
                state.metrics.bytes.add(bytes as u64);
                state.metrics.sync(&mut state.wal)
            })
            .map_err(ServeError::from);
        if let Err(e) = &result {
            state.failed = Some(e.to_string());
            self.advanced.notify_all();
        }
        result
    }
}

/// Appends and syncs the maximal consecutive run of pending records starting
/// at `durable + 1`. Called with the state lock held.
fn drain(state: &mut SinkState) -> Result<()> {
    fail_or(state, ())?;
    let mut appended = false;
    while let Some(record) = state.pending.remove(&(state.durable + 1)) {
        match state.wal.append(&record) {
            Ok(bytes) => {
                state.metrics.appends.inc();
                state.metrics.bytes.add(bytes as u64);
            }
            Err(e) => {
                let e = ServeError::from(e);
                state.failed = Some(e.to_string());
                return Err(e);
            }
        }
        state.durable += 1;
        appended = true;
    }
    if appended {
        let state = &mut *state;
        if let Err(e) = state.metrics.sync(&mut state.wal) {
            let e = ServeError::from(e);
            state.failed = Some(e.to_string());
            return Err(e);
        }
    }
    Ok(())
}

fn fail_or<T>(state: &SinkState, value: T) -> Result<T> {
    match &state.failed {
        Some(message) => Err(ServeError::Wal(ecfd_wal::WalError::Io(
            std::io::Error::other(message.clone()),
        ))),
        None => Ok(value),
    }
}

/// What [`recover_session`] replayed and proved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Highest delta ticket in the log (0 when the log held none) — the
    /// recovered ingest queue continues numbering after it.
    pub last_ticket: Ticket,
    /// Delta records replayed through `Session::apply_on`.
    pub deltas_applied: usize,
    /// Replayed deltas that failed to apply — these were skipped (and
    /// counted) by the original writer too, so a nonzero value here is
    /// history repeating, not new damage.
    pub apply_errors: usize,
    /// Checkpoint records whose epoch and report hash were re-derived and
    /// matched.
    pub checkpoints_verified: usize,
    /// Torn-tail bytes dropped when the log was opened.
    pub truncated_bytes: u64,
    /// Highest router-global ticket in the log (0 when it held none) — the
    /// recovered router continues numbering after it. A bare hub's `Delta`
    /// record counts under its own ticket: with one hub, that was the global
    /// one.
    pub last_global: Ticket,
    /// One past the highest pre-assigned row id in the log (0 when it held
    /// none). The recovered router hands out nothing below it — surviving
    /// rows alone understate it when logged insertions were later deleted.
    pub next_row_id: u64,
}

impl RecoveryReport {
    /// Publishes the replay stats as `wal.recovery.*` gauges in the
    /// process-wide registry, so `STATS` (and the crash-recovery CI job) can
    /// see what a `--recover` boot actually replayed. When `shard` is set,
    /// every gauge carries a `shard` label — one recovery per WAL segment.
    pub(crate) fn export_metrics(&self, shard: Option<u32>) {
        let shard = shard.map(|s| s.to_string());
        let labels: Vec<(&str, &str)> = shard.iter().map(|s| ("shard", s.as_str())).collect();
        let gauge = |name: &str| ecfd_obs::registry().gauge_with(name, &labels);
        gauge("wal.recovery.deltas").set(self.deltas_applied as i64);
        gauge("wal.recovery.apply.errors").set(self.apply_errors as i64);
        gauge("wal.recovery.checkpoints.verified").set(self.checkpoints_verified as i64);
        gauge("wal.recovery.truncated.bytes").set(self.truncated_bytes as i64);
        gauge("wal.recovery.last.ticket").set(self.last_ticket as i64);
    }
}

/// Replays a WAL over a freshly prepared base session (same data loaded,
/// same constraints registered as when the log was written), re-applying
/// every delta through the normal `Session::apply_on` path and re-verifying
/// checkpoints: the session's version must equal the checkpoint epoch and
/// the re-detected report must hash to the logged `report_hash`. Any
/// mismatch is a [`ServeError::Replication`] — the base data or constraints
/// differ from what the log was written against.
///
/// Deltas are ACKed (and logged) independently of the writer's checkpoint
/// appends, so a checkpoint for ticket *t* can sit *after* delta *t+1* in
/// the log. Replay therefore verifies a checkpoint only when its
/// `last_ticket` equals the replay high-water mark — checkpoints the replay
/// has already moved past describe epochs that no longer exist and are
/// skipped (not counted). Every quiescent epoch boundary, including the
/// bootstrap anchor and the final checkpoint, still verifies.
pub fn recover_session(
    session: &mut Session,
    table: &str,
    records: &[WalRecord],
) -> Result<RecoveryReport> {
    let mut report = RecoveryReport::default();
    for record in records {
        match record {
            WalRecord::Delta { ticket, delta } => {
                // Mirror the writer's skip-on-error discipline exactly: a
                // failed apply still bumps the session version (and drops its
                // caches), so epochs line up even across poisoned tickets.
                if session.apply_on(table, delta).is_err() {
                    report.apply_errors += 1;
                }
                report.deltas_applied += 1;
                report.last_ticket = report.last_ticket.max(*ticket);
                report.last_global = report.last_global.max(*ticket);
            }
            WalRecord::ScheduledDelta {
                ticket,
                global,
                delta,
                insert_ids,
            } => {
                // A shard's logged delta: replay with the same globally
                // pre-assigned row ids the original run handed out.
                let ids: Vec<RowId> = insert_ids.iter().copied().map(RowId).collect();
                if session.apply_scheduled_on(table, delta, &ids).is_err() {
                    report.apply_errors += 1;
                }
                report.deltas_applied += 1;
                report.last_ticket = report.last_ticket.max(*ticket);
                report.last_global = report.last_global.max(*global);
                for id in insert_ids {
                    report.next_row_id = report.next_row_id.max(id + 1);
                }
            }
            WalRecord::Checkpoint {
                epoch,
                last_ticket,
                report_hash: expected,
            } => {
                if *last_ticket < report.last_ticket {
                    // Replay already applied a later ticket: this checkpoint's
                    // epoch is in the past and cannot be re-derived.
                    continue;
                }
                let version = session.version();
                if version != *epoch {
                    return Err(ServeError::Replication(format!(
                        "recovery diverged: log checkpoint is epoch {epoch} but replay reached \
                         version {version} — base data or constraints differ from the logged run"
                    )));
                }
                let detected = session.detect_on(table)?;
                let actual = report_hash(&detected);
                if actual != *expected {
                    return Err(ServeError::Replication(format!(
                        "recovery diverged at epoch {epoch}: logged report hash \
                         {expected:#018x}, replayed report hashes to {actual:#018x}"
                    )));
                }
                report.checkpoints_verified += 1;
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfd_relation::RowId;
    use std::collections::BTreeSet;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ecfd-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn rows(ids: &[u64]) -> BTreeSet<RowId> {
        ids.iter().copied().map(RowId).collect()
    }

    #[test]
    fn report_hash_separates_fields_and_orders() {
        let a = DetectionReport {
            sv_rows: rows(&[1, 2]),
            mv_rows: rows(&[]),
            total_rows: 5,
        };
        let b = DetectionReport {
            sv_rows: rows(&[]),
            mv_rows: rows(&[1, 2]),
            total_rows: 5,
        };
        let c = DetectionReport {
            sv_rows: rows(&[1]),
            mv_rows: rows(&[2]),
            total_rows: 5,
        };
        assert_ne!(report_hash(&a), report_hash(&b), "sv vs mv must differ");
        assert_ne!(report_hash(&a), report_hash(&c), "split point matters");
        assert_eq!(report_hash(&a), report_hash(&a.clone()));
    }

    #[test]
    fn sink_serializes_out_of_order_tickets() {
        let dir = temp_dir("sink");
        let wal = Wal::open(&dir).unwrap().wal;
        let path = wal.path().to_path_buf();
        let sink = Arc::new(WalSink::new(wal, 0, None));
        let delta =
            |tag: &str| Delta::insert_only(vec![ecfd_relation::Tuple::from_iter([tag, "518"])]);

        // Tickets logged from separate threads in scrambled order: the file
        // must come out strictly 1, 2, 3, 4.
        std::thread::scope(|s| {
            for ticket in [3u64, 1, 4, 2] {
                let sink = Arc::clone(&sink);
                let delta = delta(&format!("t{ticket}"));
                s.spawn(move || sink.log_delta(ticket, &delta).unwrap());
            }
        });
        sink.log_checkpoint(7, 4, 99).unwrap();

        let records = ecfd_wal::read_records(&path).unwrap();
        let tickets: Vec<u64> = records
            .iter()
            .map(|r| match r {
                WalRecord::Delta { ticket, .. } => *ticket,
                WalRecord::ScheduledDelta { ticket, .. } => *ticket,
                WalRecord::Checkpoint { last_ticket, .. } => *last_ticket,
            })
            .collect();
        assert_eq!(tickets, vec![1, 2, 3, 4, 4]);
        assert!(matches!(
            records.last(),
            Some(WalRecord::Checkpoint { epoch: 7, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
