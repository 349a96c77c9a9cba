//! The serving core: row partitioning, the global-id router, and the
//! cross-shard merge layer — at every shard count, one included.
//!
//! A deployment partitions one relation's rows over `N ≥ 1` independent
//! per-shard pipelines — each with its own [`Session`], [`Writer`], ingest
//! queue, WAL segment and snapshot store — by hashing the value of a
//! configured **shard attribute** ([`shard_of_value`]). Routing hashes
//! *values*, never dictionary codes, so placement is stable across restarts
//! and across the shards' independently grown dictionaries. With one shard
//! every tuple routes to shard 0 and no attribute is needed.
//!
//! Correctness hinges on one invariant, asserted end-to-end by the sharded
//! differential suite: **the merged report is byte-identical to what a
//! single session fed the same deltas would publish.** Two mechanisms make
//! that hold:
//!
//! * **Global row-id pre-assignment.** The router owns the global row-id
//!   counter. Every submitted delta's insertions receive consecutive global
//!   ids under the router lock — exactly the ids a single session's
//!   insertion counter would hand out — and each shard's writer applies its
//!   sub-delta with those ids scheduled
//!   ([`Session::apply_scheduled_on`](ecfd_session::Session::apply_scheduled_on)).
//!   Reports and evidence are keyed by row id, so id equality is what turns
//!   "same violations" into "same bytes".
//! * **The merge layer.** Constraints whose `X` contains the shard key are
//!   *aligned*: every enforcement group lives entirely on one shard, and its
//!   violations are final locally. The rest leave their groups **open**, and
//!   the layer keeps them merged in one maintained
//!   [`MergeState`](ecfd_detect::MergeState), keyed through its own
//!   dictionary (per-shard dictionaries assign different codes to the same
//!   value):
//!   - *seed*: at bootstrap and recovery the state is built from each
//!     shard's scanned partial, one shard at a time;
//!   - *fold*: every shard writer, when it publishes, folds the rows its
//!     batch inserted and removed into the state and swaps its snapshot into
//!     the layer's cut, under the layer's lock — before the batch counts as
//!     applied, so a `SYNC`-ed delta is in the next merged read. Only a
//!     failed sub-delta or a failed publish, which leave the shard's changes
//!     unknown, re-seeds;
//!   - *read-out*: a [`ShardedHub::merged`] miss is the union of what the
//!     shards published plus the violating merged open groups — it scans
//!     nothing and costs O(violations);
//!   - *fresh*: [`ShardedHub::merged_fresh`] (`DETECT FRESH`) stays the
//!     independent verifier, re-scanning every shard into partials and
//!     merging them from scratch with
//!     [`SemanticDetector::merge_partials`](ecfd_detect::SemanticDetector::merge_partials).
//!
//!   **No open groups, nothing to fold:** without an open constraint there
//!   is no merge state, the writers publish as they would alone, and the
//!   read-out is the union of the published reports. At one shard that is
//!   always so, whatever the constraints' `X`.
//!
//! Durability composes per shard: each shard logs its sub-deltas (with
//! their pre-assigned ids and the global ticket, as
//! [`ScheduledDelta`](ecfd_wal::WalRecord) records) into `wal_dir/shard-N/`,
//! and recovery replays every shard then re-verifies the merged report hash
//! against `wal_dir/merged.ckpt`.

use crate::durable::{report_hash, RecoveryReport};
use crate::hub::{Hub, ServeStats};
use crate::ingest::Ticket;
use crate::writer::{sole_table, Writer};
use crate::{Result, ServeError};
use ecfd_detect::{DetectionReport, EvidenceReport, MergeState, MergeStats, ShardPartial};
use ecfd_obs::{Counter, Histogram};
use ecfd_relation::{shard_of_value, AttrId, Delta, Relation, RowId, Schema, Tuple};
use ecfd_session::{Session, SessionError, Snapshot};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Tuning knobs of the serving core. The default is one shard, which needs
/// no shard key.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of shards (clamped to at least 1).
    pub num_shards: usize,
    /// Name of the attribute whose value routes each row to its shard.
    /// Resolved against the schema only when there is more than one shard.
    pub shard_key: String,
    /// Per-shard ingest-queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Per-shard writer batch cap (deltas applied per published epoch).
    pub batch_max: usize,
    /// Worker fan-out for the merge layer's partition scans (`None` lets
    /// each scan auto-size, the default).
    pub detect_workers: Option<usize>,
}

impl ShardedConfig {
    /// A config with the default queue capacity (64), batch cap (32) and
    /// auto-sized detect workers.
    pub fn new(num_shards: usize, shard_key: &str) -> Self {
        ShardedConfig {
            num_shards: num_shards.max(1),
            shard_key: shard_key.to_string(),
            queue_capacity: 64,
            batch_max: 32,
            detect_workers: None,
        }
    }
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig::new(1, "")
    }
}

/// What one [`ShardedHub::submit`] produced: the global ticket (the delta's
/// position in the router's serialization order) and the per-shard tickets
/// of its non-empty sub-deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitReceipt {
    /// Position in the global serialization order (starting at 1).
    pub global: Ticket,
    /// `(shard, shard-local ticket)` for every shard that received work.
    pub shard_tickets: Vec<(usize, Ticket)>,
}

/// A merged cross-shard view: the global report and evidence over one cut
/// of per-shard snapshots. [`ShardedHub::merged`] reads it out of what the
/// shards published and the maintained open groups of that same cut;
/// [`ShardedHub::merged_fresh`] re-derives it by scanning the snapshots.
#[derive(Debug, Clone)]
pub struct MergedView {
    /// The per-shard snapshot epochs this view was merged from.
    pub epochs: Vec<u64>,
    /// The merged detection report — byte-identical to a from-scratch
    /// single-session detection over the union of the shards' rows.
    pub report: DetectionReport,
    /// The merged evidence behind [`MergedView::report`].
    pub evidence: EvidenceReport,
    /// The per-shard snapshots the view describes.
    pub snapshots: Vec<Arc<Snapshot>>,
}

impl MergedView {
    /// The global epoch: the sum of the shard epochs. Monotone, because
    /// every shard's epoch is.
    pub fn epoch(&self) -> u64 {
        self.epochs.iter().sum()
    }
}

struct RouterState {
    /// Next global row id to hand to an insertion.
    next_row_id: u64,
    /// Next global ticket to issue.
    next_global: Ticket,
    /// Highest global ticket whose every shard part is applied+published.
    applied_global: Ticket,
    /// Per-shard tickets of global tickets not yet fully applied.
    inflight: BTreeMap<Ticket, Vec<(usize, Ticket)>>,
}

/// The shared core of a served deployment: `N ≥ 1` per-shard [`Hub`]s behind
/// one router (global tickets + global row-id pre-assignment) and one merge
/// layer. The TCP front end and in-process embedders drive this type
/// directly.
pub struct ShardedHub {
    table: String,
    schema: Schema,
    /// The routing attribute; `None` at one shard, where nothing routes.
    shard_attr: Option<AttrId>,
    /// Per split constraint: is every enforcement group local to one shard
    /// (its `X` contains the shard key, or there is only one shard)?
    aligned: Vec<bool>,
    hubs: Vec<Arc<Hub>>,
    router: Mutex<RouterState>,
    /// `router.lock.wait.ns`: how long a submit waited for the router lock.
    router_wait: Histogram,
    /// The maintained open groups; `None` when no constraint has any.
    merge: Option<Arc<MergeLayer>>,
    merged_cache: Mutex<Option<Arc<MergedView>>>,
    detect_workers: Option<usize>,
    /// Present in durable mode: where the merged checkpoint is persisted.
    merged_ckpt: Option<PathBuf>,
    /// Set when a [`Follower`](crate::Follower) replays a leader's WAL into
    /// this hub, as reported by `INFO`.
    follower: AtomicBool,
}

impl std::fmt::Debug for ShardedHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedHub")
            .field("table", &self.table)
            .field("shards", &self.hubs.len())
            .field("shard_attr", &self.shard_attr)
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

impl ShardedHub {
    /// Bootstraps a deployment from a prepared template session (data
    /// loaded, constraints registered): partitions the template's rows by the
    /// shard key's value, builds one independent session + writer + hub per
    /// shard (rows keep their global ids), and returns the per-shard writers
    /// alongside the hub. With one shard the template *is* shard 0, taken as
    /// it stands. Run each writer against its hub
    /// (`writers[s].run(&hub.shard_hubs()[s])`) — or step them manually in
    /// tests.
    pub fn bootstrap(
        template: Session,
        config: &ShardedConfig,
    ) -> Result<(Vec<Writer>, Arc<Self>)> {
        let parts = PartitionedTemplate::build(template, config)?;
        let mut writers = Vec::with_capacity(parts.sessions.len());
        let mut hubs = Vec::with_capacity(parts.sessions.len());
        for (s, session) in parts.sessions.into_iter().enumerate() {
            let (writer, hub) = Writer::bootstrap_shard(
                session,
                config.queue_capacity,
                config.batch_max,
                Some(s as u32),
            )?;
            writers.push(writer);
            hubs.push(hub);
        }
        let hub = parts.meta.into_hub(hubs, config, 0, None)?;
        Ok((writers, hub))
    }

    /// [`ShardedHub::bootstrap`], durable: each shard opens (or recovers)
    /// its own WAL segment in `wal_dir/shard-N/`, the global row-id and
    /// ticket counters continue past everything any shard's log ever
    /// assigned, and the merged report is re-verified against
    /// `wal_dir/merged.ckpt` when the recovered epochs match the checkpointed
    /// ones (gauge `wal.recovery.merged.verified`). Returns the per-shard
    /// recovery reports.
    pub fn bootstrap_durable(
        template: Session,
        config: &ShardedConfig,
        wal_dir: &Path,
    ) -> Result<(Vec<Writer>, Arc<Self>, Vec<RecoveryReport>)> {
        let parts = PartitionedTemplate::build(template, config)?;
        let mut writers = Vec::with_capacity(parts.sessions.len());
        let mut hubs = Vec::with_capacity(parts.sessions.len());
        let mut recoveries = Vec::with_capacity(parts.sessions.len());
        let mut next_row_id = parts.meta.next_row_id;
        let mut last_global: Ticket = 0;
        for (s, session) in parts.sessions.into_iter().enumerate() {
            let shard_dir = wal_dir.join(format!("shard-{s}"));
            let (writer, hub, recovery) = Writer::bootstrap_durable_shard(
                session,
                config.queue_capacity,
                config.batch_max,
                &shard_dir,
                Some(s as u32),
            )?;
            // The global sequences continue past everything this shard's log
            // ever assigned — and past the relation's own counter, which
            // replaying a bare hub's records (a log moved in from the
            // pre-shard layout, ids not pre-assigned) has advanced.
            last_global = last_global.max(recovery.last_global);
            let relation = writer.session().catalog().get(writer.table());
            next_row_id = next_row_id
                .max(recovery.next_row_id)
                .max(relation.map_err(SessionError::from)?.next_row_id());
            writers.push(writer);
            hubs.push(hub);
            recoveries.push(recovery);
        }
        let mut meta = parts.meta;
        meta.next_row_id = next_row_id;
        let merged_ckpt = Some(wal_dir.join("merged.ckpt"));
        let hub = meta.into_hub(hubs, config, last_global, merged_ckpt)?;
        hub.verify_recovered_merged()?;
        Ok((writers, hub, recoveries))
    }

    // ── accessors ─────────────────────────────────────────────────────────

    /// Name of the served relation.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The relation's base schema (shared by every shard).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.hubs.len()
    }

    /// The per-shard hubs, indexed by shard.
    pub fn shard_hubs(&self) -> &[Arc<Hub>] {
        &self.hubs
    }

    /// The global epoch: sum of the shard epochs (each shard's epoch is
    /// monotone, so the sum is too).
    pub fn epoch(&self) -> u64 {
        self.hubs.iter().map(|h| h.epoch()).sum()
    }

    /// Whether submits are WAL-logged before acknowledgement.
    pub fn is_durable(&self) -> bool {
        self.merged_ckpt.is_some()
    }

    /// The WAL mode string `INFO` reports (`off` / `durable` / `recovered`);
    /// a deployment counts as recovered when *any* shard's log held history.
    pub fn wal_mode(&self) -> &'static str {
        if self.hubs.iter().any(|h| h.wal_mode() == "recovered") {
            "recovered"
        } else {
            self.hubs[0].wal_mode()
        }
    }

    /// Aggregated counters across the shards, as reported by `EPOCH`.
    pub fn stats(&self) -> ServeStats {
        let mut total = ServeStats {
            epoch: self.epoch(),
            queued: 0,
            write_errors: 0,
        };
        for hub in &self.hubs {
            let stats = hub.stats();
            total.queued += stats.queued;
            total.write_errors += stats.write_errors;
        }
        total
    }

    /// The most recent writer-side apply failure on any shard, if any.
    pub fn last_error(&self) -> Option<String> {
        self.hubs.iter().find_map(|h| h.last_error())
    }

    /// The exact work of this deployment's merge layer: seeds (scans of
    /// every shard), rows folded and open groups flipped. All zero when no
    /// constraint has open groups. Unlike the process-wide `merge.*`
    /// metrics, these count this hub alone.
    pub fn merge_stats(&self) -> MergeStats {
        self.merge
            .as_ref()
            .map(|layer| layer.lock().state.stats())
            .unwrap_or_default()
    }

    /// Marks this hub as follower-fed (set by [`Follower`](crate::Follower)).
    pub(crate) fn mark_follower(&self) {
        self.follower.store(true, Ordering::SeqCst);
    }

    /// Whether a [`Follower`](crate::Follower) replays a leader's WAL into
    /// this hub.
    pub fn is_follower(&self) -> bool {
        self.follower.load(Ordering::SeqCst)
    }

    // ── the router: submit / sync / progress ──────────────────────────────

    /// Which shard a tuple routes to. A tuple too short to reach the shard
    /// attribute goes to shard 0 — only a deletion victim can be one
    /// ([`ShardedHub::submit`] refuses such an insertion), and there it
    /// matches no row.
    pub fn shard_of_tuple(&self, tuple: &Tuple) -> usize {
        match self.shard_attr.and_then(|attr| tuple.get(attr)) {
            Some(value) => shard_of_value(value, self.hubs.len()),
            None => 0,
        }
    }

    fn lock_router(&self) -> MutexGuard<'_, RouterState> {
        self.router.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Submits a delta: routes every tuple to its shard, pre-assigns global
    /// row ids to the insertions **in submission order** (the router lock
    /// defines the global serialization — concurrent submitters' id blocks
    /// never interleave), enqueues the non-empty sub-deltas, and — in
    /// durable mode — logs each sub-delta to its shard's WAL (fsynced
    /// before this returns, *outside* the router lock).
    ///
    /// A delta is accepted whole or refused whole, here: an insertion that
    /// does not fit the schema refuses it with [`ServeError::Session`]
    /// before it takes a ticket or a row id, so no shard applies any part of
    /// it — exactly what one session does with such a delta.
    pub fn submit(&self, delta: Delta) -> Result<SubmitReceipt> {
        for tuple in &delta.insertions {
            self.schema.validate(tuple).map_err(SessionError::from)?;
        }
        let shards = self.hubs.len();
        let mut parts: Vec<Delta> = std::iter::repeat_with(Delta::new).take(shards).collect();
        let mut ids: Vec<Vec<RowId>> = vec![Vec::new(); shards];
        // Route outside the lock — hashing needs no shared state.
        let targets: Vec<usize> = delta
            .insertions
            .iter()
            .map(|t| self.shard_of_tuple(t))
            .collect();
        for (tuple, &s) in delta.insertions.iter().zip(&targets) {
            parts[s].insertions.push(tuple.clone());
        }
        for tuple in &delta.deletions {
            // All rows equal to this tuple share its shard-key value, hence
            // its shard — deleting there deletes every global duplicate.
            parts[self.shard_of_tuple(tuple)]
                .deletions
                .push(tuple.clone());
        }

        let waited = Instant::now();
        let mut router = self.lock_router();
        self.router_wait.record_duration(waited.elapsed());
        for &s in &targets {
            ids[s].push(RowId(router.next_row_id));
            router.next_row_id += 1;
        }
        let mut shard_tickets = Vec::new();
        for s in 0..shards {
            if parts[s].is_empty() {
                continue;
            }
            let ticket = self.hubs[s].enqueue_scheduled(parts[s].clone(), ids[s].clone())?;
            shard_tickets.push((s, ticket));
        }
        let global = router.next_global;
        router.next_global += 1;
        router.inflight.insert(global, shard_tickets.clone());
        // Without this, only `INFO` traffic would ever shrink the map.
        self.drain_applied(&mut router);
        drop(router);

        // WAL appends (and their fsyncs) happen outside the router lock; the
        // sink reorders out-of-order arrivals into strict ticket order.
        for &(s, ticket) in &shard_tickets {
            self.hubs[s].log_scheduled(ticket, global, &parts[s], &ids[s])?;
        }
        Ok(SubmitReceipt {
            global,
            shard_tickets,
        })
    }

    /// The highest global ticket issued so far (0 before the first submit).
    pub fn accepted_global(&self) -> Ticket {
        self.lock_router().next_global - 1
    }

    /// The highest global ticket whose every shard part has been applied
    /// and published — the global applied watermark `INFO` reports.
    pub fn applied_global(&self) -> Ticket {
        let mut router = self.lock_router();
        self.drain_applied(&mut router);
        router.applied_global
    }

    /// Pops the fully applied prefix of `inflight`, advancing the applied
    /// watermark past it.
    fn drain_applied(&self, router: &mut RouterState) {
        while let Some((_, shard_tickets)) = router.inflight.first_key_value() {
            let done = shard_tickets
                .iter()
                .all(|&(s, t)| self.hubs[s].queue().is_applied(t));
            if !done {
                break;
            }
            let (global, _) = router.inflight.pop_first().expect("non-empty");
            router.applied_global = global;
        }
    }

    #[cfg(test)]
    fn inflight_len(&self) -> usize {
        self.lock_router().inflight.len()
    }

    /// Blocks until every shard has applied and published the per-shard
    /// tickets in `tickets` (one entry per shard; 0 skips a shard), then
    /// returns the global epoch. The per-connection `SYNC` barrier: a shard
    /// whose writer died fails the wait fast instead of hanging.
    pub fn sync_tickets(&self, tickets: &[Ticket], timeout: Duration) -> Result<u64> {
        let deadline = Instant::now() + timeout;
        for (s, &ticket) in tickets.iter().enumerate() {
            if ticket == 0 {
                continue;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            self.hubs[s].sync_to(ticket, remaining)?;
        }
        Ok(self.epoch())
    }

    /// Blocks until everything submitted to *any* shard before this call is
    /// applied and published — the global barrier for in-process embedders.
    pub fn sync(&self, timeout: Duration) -> Result<u64> {
        let tickets: Vec<Ticket> = self.hubs.iter().map(|h| h.queue().last_ticket()).collect();
        self.sync_tickets(&tickets, timeout)
    }

    /// Requests shutdown on every shard (pending deltas still drain).
    pub fn shutdown(&self) {
        for hub in &self.hubs {
            hub.shutdown();
        }
    }

    /// Whether any shard has begun shutting down.
    pub fn is_shutdown(&self) -> bool {
        self.hubs.iter().any(|h| h.is_shutdown())
    }

    // ── the merge layer ───────────────────────────────────────────────────

    fn snapshots(&self) -> Vec<Arc<Snapshot>> {
        self.hubs.iter().map(|h| h.snapshot()).collect()
    }

    /// The merged cross-shard view of the current cut, cached by epoch
    /// vector: repeated reads at an unchanged cut are free. A miss reads the
    /// view out of what the shards published and the maintained open groups
    /// (see the module docs): it scans nothing. In durable mode a miss also
    /// persists the merged checkpoint (`merged.ckpt`: epoch vector + report
    /// hash) for the next recovery to verify against.
    pub fn merged(&self) -> Result<Arc<MergedView>> {
        {
            let epochs = self.cut_epochs();
            let cache = self.merged_cache.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(view) = cache.as_ref().filter(|view| view.epochs == epochs) {
                return Ok(Arc::clone(view));
            }
        }
        let view = Arc::new(self.read_out()?);
        self.persist_merged(&view)?;
        *self.merged_cache.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&view));
        Ok(view)
    }

    /// A from-scratch merge of the current per-shard snapshots, bypassing
    /// (and not updating) the cache — the `DETECT FRESH` path readers use to
    /// *verify* the published merged state rather than trust it, so it
    /// always re-scans, open groups or not.
    pub fn merged_fresh(&self) -> Result<MergedView> {
        self.merge_scanned(self.snapshots())
    }

    /// The epoch vector of the cut [`ShardedHub::merged`] reads: the merge
    /// layer's when there is one, else the shards' published snapshots.
    fn cut_epochs(&self) -> Vec<u64> {
        match &self.merge {
            Some(layer) => epochs_of(&layer.lock().snapshots),
            None => self.hubs.iter().map(|h| h.epoch()).collect(),
        }
    }

    /// The read-out behind a [`ShardedHub::merged`] miss. A merge state that
    /// does not describe its cut — a seed failed, or a fold never finished —
    /// answers nothing until the next publish re-seeds it; meanwhile the cut
    /// is merged by scanning.
    fn read_out(&self) -> Result<MergedView> {
        let Some(layer) = &self.merge else {
            return Ok(read_out_cut(self.snapshots(), None));
        };
        let cut = layer.lock();
        if !cut.stale {
            return Ok(read_out_cut(cut.snapshots.clone(), Some(&cut.state)));
        }
        let snapshots = cut.snapshots.clone();
        drop(cut);
        self.merge_scanned(snapshots)
    }

    fn merge_scanned(&self, snapshots: Vec<Arc<Snapshot>>) -> Result<MergedView> {
        let partials: Vec<ShardPartial> = snapshots
            .iter()
            .map(|snap| scan_partial(snap, &self.aligned, self.detect_workers))
            .collect::<Result<_>>()?;
        let (report, evidence) = snapshots[0].merge_partials(partials);
        Ok(MergedView {
            epochs: epochs_of(&snapshots),
            report,
            evidence,
            snapshots,
        })
    }

    /// Composes the current per-shard snapshots into one self-contained
    /// single-session snapshot over the union of the shards' rows — the
    /// oracle path behind `CHECK`. (`REPAIR-PLAN` plans from the
    /// [`ShardedHub::merged`] read-out instead.)
    pub fn compose(&self) -> Result<Snapshot> {
        let snapshots = self.snapshots();
        let refs: Vec<&Snapshot> = snapshots.iter().map(Arc::as_ref).collect();
        Ok(Snapshot::compose(&refs)?)
    }

    // ── merged checkpoint persistence ─────────────────────────────────────

    fn persist_merged(&self, view: &MergedView) -> Result<()> {
        let Some(path) = &self.merged_ckpt else {
            return Ok(());
        };
        let text = render_merged_ckpt(&view.epochs, report_hash(&view.report));
        let tmp = path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// At durable bootstrap: if the persisted merged checkpoint describes
    /// exactly the recovered epoch vector, the merged view of the recovered
    /// shards must hash to it — anything else is a
    /// [`ServeError::Replication`]. With open groups that view is the
    /// read-out of the merge state just seeded from the recovered shards'
    /// scans; without, a from-scratch merge checks the union instead. A
    /// checkpoint for a different epoch vector is stale (the crash happened
    /// between a shard's publish and the next merged read) and is skipped,
    /// not an error. Either way the gauge `wal.recovery.merged.verified`
    /// records what happened and a fresh checkpoint is persisted.
    fn verify_recovered_merged(&self) -> Result<()> {
        let stored = self
            .merged_ckpt
            .as_ref()
            .and_then(|path| std::fs::read_to_string(path).ok())
            .and_then(|text| parse_merged_ckpt(&text))
            .filter(|(epochs, _)| *epochs == self.cut_epochs());
        let view = match (&self.merge, &stored) {
            (None, Some(_)) => self.merge_scanned(self.snapshots())?,
            _ => self.read_out()?,
        };
        if let Some((epochs, expected)) = &stored {
            let actual = report_hash(&view.report);
            if actual != *expected {
                return Err(ServeError::Replication(format!(
                    "sharded recovery diverged: merged checkpoint hashes to \
                     {expected:#018x} at epochs {epochs:?}, replayed merge hashes to \
                     {actual:#018x}"
                )));
            }
        }
        ecfd_obs::registry()
            .gauge("wal.recovery.merged.verified")
            .set(i64::from(stored.is_some()));
        self.persist_merged(&view)?;
        *self.merged_cache.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(view));
        Ok(())
    }
}

fn epochs_of(snapshots: &[Arc<Snapshot>]) -> Vec<u64> {
    snapshots.iter().map(|s| s.epoch()).collect()
}

/// One shard's scanned partial, at the configured worker fan-out.
fn scan_partial(
    snapshot: &Snapshot,
    aligned: &[bool],
    workers: Option<usize>,
) -> Result<ShardPartial> {
    Ok(match workers {
        Some(workers) => snapshot.detect_partition_with(aligned, workers)?,
        None => snapshot.detect_partition(aligned)?,
    })
}

/// The merged view of a cut, with no scan: every single-tuple violation and
/// every aligned group is decided within one shard, so the union of what
/// the shards published holds them; `open` — the maintained merge state of
/// this same cut, when some constraint has open groups — completes the
/// union with the violating merged open groups. O(violations).
fn read_out_cut(snapshots: Vec<Arc<Snapshot>>, open: Option<&MergeState>) -> MergedView {
    let mut report = DetectionReport::default();
    let mut evidence = EvidenceReport::default();
    for snap in &snapshots {
        report.total_rows += snap.report().total_rows;
        report.sv_rows.extend(&snap.report().sv_rows);
        report.mv_rows.extend(&snap.report().mv_rows);
        evidence.sv.extend_from_slice(&snap.evidence().sv);
        evidence
            .mv_groups
            .extend_from_slice(&snap.evidence().mv_groups);
    }
    if let Some(state) = open {
        state.read_out(&mut report, &mut evidence);
    }
    evidence.total_rows = report.total_rows;
    evidence.normalize();
    MergedView {
        epochs: epochs_of(&snapshots),
        report,
        evidence,
        snapshots,
    }
}

/// What one applied sub-delta did to its shard's rows — what a shard hands
/// the merge layer. Rows, not groups: the same whichever backend the
/// sub-delta was routed to.
#[derive(Debug)]
pub(crate) struct AppliedRows {
    /// `(id, stored tuple)` of every row a deletion removed, in order
    /// ([`Session::apply_scheduled_on`]'s answer).
    pub(crate) removed: Vec<(RowId, Tuple)>,
    /// The scheduled id of every insertion, parallel to `inserted`.
    pub(crate) ids: Vec<RowId>,
    /// The inserted tuples.
    pub(crate) inserted: Vec<Tuple>,
}

/// The merge layer of a deployment whose constraints leave open groups: the
/// maintained [`MergeState`] and the cut of per-shard snapshots it
/// describes, under one lock, fed by the shard writers at publish time.
pub(crate) struct MergeLayer {
    cut: Mutex<MergeCut>,
    detect_workers: Option<usize>,
    /// `merge.seeds`: seeds, i.e. scans of every shard.
    seeds: Counter,
    /// `merge.rows.folded`: rows folded in or out.
    rows_folded: Counter,
    /// `merge.fold.ns`: per-publish fold latency.
    fold: Histogram,
}

struct MergeCut {
    state: MergeState,
    /// The per-shard snapshots `state` describes.
    snapshots: Vec<Arc<Snapshot>>,
    /// Set while `state` does not describe `snapshots`: during a seed or a
    /// fold, and after one that failed or panicked, until the next seed.
    stale: bool,
}

impl MergeLayer {
    /// The layer over `snapshots`, seeded — or `None` when `state` has no
    /// open groups to keep.
    fn seeded(
        state: MergeState,
        snapshots: Vec<Arc<Snapshot>>,
        detect_workers: Option<usize>,
    ) -> Result<Option<MergeLayer>> {
        if !state.has_open_groups() {
            return Ok(None);
        }
        let registry = ecfd_obs::registry();
        let layer = MergeLayer {
            cut: Mutex::new(MergeCut {
                state,
                snapshots,
                stale: true,
            }),
            detect_workers,
            seeds: registry.counter("merge.seeds"),
            rows_folded: registry.counter("merge.rows.folded"),
            fold: registry.histogram("merge.fold.ns"),
        };
        layer.seed(&mut layer.lock())?;
        Ok(Some(layer))
    }

    /// The cut. A writer that panicked mid-fold left `stale` set, so the
    /// guard of a poisoned lock is still safe to use.
    fn lock(&self) -> MutexGuard<'_, MergeCut> {
        self.cut.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Writer side: swaps shard `shard`'s new snapshot into the cut and
    /// folds `rows` — what the shard's batch did since its last publish —
    /// into the state. `None` means that is unknown, and re-seeds the state
    /// from every shard's snapshot instead.
    pub(crate) fn publish(
        &self,
        shard: usize,
        snapshot: Arc<Snapshot>,
        rows: Option<Vec<AppliedRows>>,
    ) -> Result<()> {
        let mut cut = self.lock();
        cut.snapshots[shard] = snapshot;
        match rows {
            Some(rows) if !cut.stale => {
                let started = Instant::now();
                cut.stale = true;
                let mut folded = 0;
                for applied in rows {
                    for (id, tuple) in &applied.removed {
                        cut.state.remove(*id, tuple);
                    }
                    for (id, tuple) in applied.ids.iter().zip(&applied.inserted) {
                        cut.state.insert(*id, tuple);
                    }
                    folded += applied.removed.len() + applied.inserted.len();
                }
                cut.stale = false;
                self.rows_folded.add(folded as u64);
                self.fold.record_duration(started.elapsed());
                Ok(())
            }
            _ => self.seed(&mut cut),
        }
    }

    /// Rebuilds the state from every shard's scanned partial, one shard at
    /// a time (each partial is dropped before the next shard is scanned).
    fn seed(&self, cut: &mut MergeCut) -> Result<()> {
        let MergeCut {
            state,
            snapshots,
            stale,
        } = cut;
        *stale = true;
        state.reset();
        self.seeds.inc();
        for snapshot in snapshots.iter() {
            let partial = scan_partial(snapshot, state.aligned(), self.detect_workers)?;
            state.absorb(partial);
        }
        *stale = false;
        Ok(())
    }
}

fn render_merged_ckpt(epochs: &[u64], hash: u64) -> String {
    let epochs = epochs
        .iter()
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!("epochs {epochs}\nhash {hash:#018x}\n")
}

fn parse_merged_ckpt(text: &str) -> Option<(Vec<u64>, u64)> {
    let mut lines = text.lines();
    let epochs = lines
        .next()?
        .strip_prefix("epochs ")?
        .split(',')
        .map(|part| part.trim().parse::<u64>().ok())
        .collect::<Option<Vec<u64>>>()?;
    let hash_text = lines.next()?.strip_prefix("hash ")?.trim();
    let hash = u64::from_str_radix(hash_text.strip_prefix("0x")?, 16).ok()?;
    Some((epochs, hash))
}

/// The shard-independent metadata extracted from a template session, plus
/// the per-shard sessions built from its rows.
struct PartitionedTemplate {
    meta: PartitionMeta,
    sessions: Vec<Session>,
}

struct PartitionMeta {
    table: String,
    schema: Schema,
    shard_attr: Option<AttrId>,
    aligned: Vec<bool>,
    next_row_id: u64,
}

impl PartitionMeta {
    /// `last_global` is the highest global ticket already issued (and, this
    /// being bootstrap, applied): 0 for a fresh deployment, the logged
    /// maximum after recovery. When some constraint has open groups, the
    /// merge layer is seeded from the shards' current snapshots here, and
    /// every shard hub is attached to it.
    fn into_hub(
        self,
        hubs: Vec<Arc<Hub>>,
        config: &ShardedConfig,
        last_global: Ticket,
        merged_ckpt: Option<PathBuf>,
    ) -> Result<Arc<ShardedHub>> {
        let snapshots: Vec<Arc<Snapshot>> = hubs.iter().map(|h| h.snapshot()).collect();
        let state = MergeState::new(snapshots[0].constraints(), self.aligned.clone());
        let merge = MergeLayer::seeded(state, snapshots, config.detect_workers)?.map(Arc::new);
        if let Some(layer) = &merge {
            for (s, hub) in hubs.iter().enumerate() {
                hub.attach_merge(Arc::clone(layer), s);
            }
        }
        Ok(Arc::new(ShardedHub {
            table: self.table,
            schema: self.schema,
            shard_attr: self.shard_attr,
            aligned: self.aligned,
            hubs,
            router: Mutex::new(RouterState {
                next_row_id: self.next_row_id,
                next_global: last_global + 1,
                applied_global: last_global,
                inflight: BTreeMap::new(),
            }),
            router_wait: ecfd_obs::registry().histogram("router.lock.wait.ns"),
            merge,
            merged_cache: Mutex::new(None),
            detect_workers: config.detect_workers,
            merged_ckpt,
            follower: AtomicBool::new(false),
        }))
    }
}

impl PartitionedTemplate {
    /// Partitions a prepared template session's rows by the shard key's
    /// hashed value into one fresh session per shard, configured like the
    /// template (routing policy, cost model). Rows keep their global ids,
    /// and the global id counter continues after the highest existing id —
    /// exactly where the template's own insertion counter stood for freshly
    /// loaded data.
    ///
    /// One shard partitions nothing: the template becomes shard 0 as it is
    /// (no decode, re-load or re-registration), no shard key is resolved,
    /// and every constraint is aligned — all of a group's rows are on the
    /// only shard, whatever its `X`.
    fn build(mut template: Session, config: &ShardedConfig) -> Result<PartitionedTemplate> {
        let num_shards = config.num_shards.max(1);
        if num_shards == 1 {
            let table = sole_table(&template)?;
            let set = template.constraints(&table)?;
            let relation = template.catalog().get(&table);
            let meta = PartitionMeta {
                schema: set.schema().clone(),
                shard_attr: None,
                aligned: vec![true; set.singles().len()],
                next_row_id: relation.map_err(SessionError::from)?.next_row_id(),
                table,
            };
            return Ok(PartitionedTemplate {
                meta,
                sessions: vec![template],
            });
        }
        let snapshot = template.snapshot()?;
        let table = snapshot.table().to_string();
        let schema = snapshot.schema().clone();
        let shard_attr = schema
            .require_attr(&config.shard_key)
            .map_err(SessionError::from)?;
        let aligned = snapshot.aligned_mask(&config.shard_key)?;

        let mut rows: Vec<Vec<(RowId, Tuple)>> = vec![Vec::new(); num_shards];
        let mut next_row_id = 0u64;
        for (id, values) in snapshot.frozen().decode_rows() {
            let shard = shard_of_value(&values[shard_attr.index()], num_shards);
            next_row_id = next_row_id.max(id.0 + 1);
            rows[shard].push((id, Tuple::new(values)));
        }

        let source = snapshot.constraints().source();
        let mut sessions = Vec::with_capacity(num_shards);
        for shard_rows in rows {
            let relation =
                Relation::with_rows(schema.clone(), shard_rows).map_err(SessionError::from)?;
            let mut session = template.empty_like();
            session.load(relation)?;
            session.register(source)?;
            sessions.push(session);
        }
        Ok(PartitionedTemplate {
            meta: PartitionMeta {
                table,
                schema,
                shard_attr: Some(shard_attr),
                aligned,
                next_row_id,
            },
            sessions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfd_relation::{DataType, Schema, Value};
    use ecfd_repair::{EditDistanceCost, RepairOptions};
    use std::time::Duration;

    fn template() -> Session {
        let schema = Schema::builder("cust")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .build();
        let data = Relation::with_tuples(
            schema,
            [
                Tuple::from_iter(["Albany", "718"]), // SV: wrong area code
                Tuple::from_iter(["NYC", "212"]),
                Tuple::from_iter(["Troy", "518"]),
            ],
        )
        .unwrap();
        let mut session = Session::new();
        session.load(data).unwrap();
        session
            .register_text(
                "cust: [CT] -> [AC] | [], { {Albany} || {518} }\n\
                 cust: [AC] -> [CT] | [], { _ || _ }",
            )
            .unwrap();
        session
    }

    /// The unsharded oracle: the same base and constraints in one session.
    fn oracle() -> Session {
        template()
    }

    fn drive(writers: &mut [Writer], hub: &ShardedHub) {
        for (s, writer) in writers.iter_mut().enumerate() {
            while hub.shard_hubs()[s].queue().pending() > 0 {
                writer
                    .step(&hub.shard_hubs()[s], Duration::from_millis(10))
                    .unwrap();
            }
        }
    }

    #[test]
    fn sharded_merge_matches_unsharded_oracle_after_deltas() {
        for shards in [1usize, 2, 4] {
            let config = match shards {
                1 => ShardedConfig::default(), // no key to resolve
                _ => ShardedConfig::new(shards, "AC"),
            };
            let (mut writers, hub) = ShardedHub::bootstrap(template(), &config).unwrap();
            // [CT] -> [AC] has open groups under AC-routing — unless there
            // is only one shard to hold them.
            assert_eq!(hub.aligned.iter().all(|&a| a), shards == 1);
            let mut oracle = oracle();

            let deltas = [
                Delta::insert_only(vec![
                    Tuple::from_iter(["Albany", "519"]),
                    Tuple::from_iter(["Utica", "315"]),
                ]),
                // A cross-shard MV conflict for [AC] -> [CT]: same area code,
                // two cities. Also delete an original row.
                Delta {
                    insertions: vec![Tuple::from_iter(["Watervliet", "518"])],
                    deletions: vec![Tuple::from_iter(["NYC", "212"])],
                },
                Delta::insert_only(vec![Tuple::from_iter(["Troy", "518"])]),
            ];
            for delta in &deltas {
                hub.submit(delta.clone()).unwrap();
                oracle.apply_on("cust", delta).unwrap();
            }
            drive(&mut writers, &hub);

            let merged = hub.merged().unwrap();
            let expected = oracle.detect_on("cust").unwrap();
            assert_eq!(
                merged.report, expected,
                "{shards}-shard merged report differs from the oracle"
            );
            let snapshot = oracle.snapshot().unwrap();
            assert_eq!(merged.evidence, *snapshot.evidence());

            // DETECT FRESH bypasses the cache and re-derives identically.
            let fresh = hub.merged_fresh().unwrap();
            assert_eq!(fresh.report, expected);

            // The composed single-session snapshot agrees too.
            let composed = hub.compose().unwrap();
            assert_eq!(*composed.report(), expected);

            // Cached reads at the same cut are the same Arc.
            let again = hub.merged().unwrap();
            assert!(Arc::ptr_eq(&merged, &again));
        }
    }

    /// Every shard session is configured like the template: `REPAIR-PLAN`
    /// prices by the template's cost model. (Shards compile like the
    /// template by construction: compilation has no options.)
    #[test]
    fn shards_keep_the_template_configuration() {
        let configured = || {
            let schema = Schema::builder("cust")
                .attr("CT", DataType::Str)
                .attr("AC", DataType::Str)
                .build();
            let data = Relation::with_tuples(
                schema,
                [
                    Tuple::from_iter(["Albany", "718"]),
                    Tuple::from_iter(["Albany", "518"]),
                    Tuple::from_iter(["NYC", "212"]),
                    Tuple::from_iter(["NYC", "646"]),
                    Tuple::from_iter(["Troy", "518"]),
                ],
            )
            .unwrap();
            let mut session = Session::new().with_cost_model(EditDistanceCost::default());
            session.load(data).unwrap();
            // Two tableaux over one embedded FD, merged into one constraint.
            session
                .register_text(
                    "cust: [CT] -> [AC] | [], { {Albany} || {518} }\n\
                     cust: [CT] -> [AC] | [], { _ || _ }",
                )
                .unwrap();
            session
        };
        let (_writers, hub) =
            ShardedHub::bootstrap(configured(), &ShardedConfig::new(2, "AC")).unwrap();
        let mut oracle = configured();
        let snapshot = oracle.snapshot().unwrap();

        let merged = hub.merged().unwrap();
        assert_eq!(merged.evidence, *snapshot.evidence());
        let parts: Vec<&Snapshot> = merged.snapshots.iter().map(Arc::as_ref).collect();
        let options = RepairOptions::default();
        assert_eq!(
            Snapshot::repair_plan_of(&parts, &merged.evidence, options).unwrap(),
            snapshot.repair_plan(options).unwrap()
        );
    }

    /// The maintained merge answers like the scanning verifier and like the
    /// unsharded oracle, report and evidence both.
    fn assert_merged_matches(hub: &ShardedHub, oracle: &mut Session) {
        let merged = hub.merged().unwrap();
        let fresh = hub.merged_fresh().unwrap();
        assert_eq!(merged.report, fresh.report);
        assert_eq!(merged.evidence, fresh.evidence);
        assert_eq!(merged.report, oracle.detect_on("cust").unwrap());
        assert_eq!(merged.evidence, *oracle.snapshot().unwrap().evidence());
    }

    /// Regression: the router split a delta before anything checked it, so
    /// the part on one shard landed while the part that did not fit the
    /// schema failed on the other — a state no single session produces, and
    /// the failed part still used up a row id. The whole delta is refused at
    /// the front door now.
    #[test]
    fn a_delta_that_does_not_fit_is_refused_whole_at_the_front_door() {
        let (mut writers, hub) =
            ShardedHub::bootstrap(template(), &ShardedConfig::new(2, "CT")).unwrap();
        let mut oracle = oracle();
        let good = Tuple::from_iter(["Albany", "519"]);
        let shard_of = |city: &str| shard_of_value(&Value::str(city), 2);
        let other_city = ["NYC", "Troy", "Utica", "Colonie", "Rome"]
            .into_iter()
            .find(|city| shard_of(city) != shard_of("Albany"))
            .expect("some city routes to the other shard");
        let bad = Tuple::new(vec![Value::str(other_city), Value::Int(518)]);
        assert_ne!(hub.shard_of_tuple(&good), hub.shard_of_tuple(&bad));
        let delta = Delta::insert_only(vec![good, bad]);

        let refused = hub.submit(delta.clone());
        assert!(
            matches!(refused, Err(ServeError::Session(_))),
            "{refused:?}"
        );
        assert!(oracle.apply_on("cust", &delta).is_err());
        drive(&mut writers, &hub);
        assert_eq!(hub.stats().write_errors, 0);
        assert_eq!(hub.accepted_global(), 0, "a refused delta takes no ticket");
        assert_merged_matches(&hub, &mut oracle);

        // The refused delta used up no row id: the next one's ids are the
        // oracle's.
        let next = Delta::insert_only(vec![
            Tuple::from_iter(["Utica", "315"]),
            Tuple::from_iter([other_city, "518"]),
        ]);
        hub.submit(next.clone()).unwrap();
        oracle.apply_on("cust", &next).unwrap();
        drive(&mut writers, &hub);
        assert_merged_matches(&hub, &mut oracle);
        assert_eq!(
            hub.compose()
                .unwrap()
                .frozen()
                .view()
                .row_ids()
                .collect::<Vec<_>>(),
            oracle.data("cust").unwrap().row_ids()
        );
    }

    /// The incremental detector's exact-counter gate one level up: with the
    /// merge layer warm, the same 8 + 8 delta folds the same rows at 2 000
    /// and 20 000 rows, and scans no shard.
    #[test]
    fn a_warm_merge_costs_the_same_at_every_table_size() {
        // Fifty towns with one area code each and a unique phone number:
        // clean, and `[AC] -> [CT]` keeps open groups under `CT` routing.
        let row = |i: usize| {
            let town = i % 50;
            Tuple::from_iter([
                format!("Town{town}"),
                format!("5{town:02}"),
                format!("{i:07}"),
            ])
        };
        let stats_at = |n: usize| {
            let schema = Schema::builder("cust")
                .attr("CT", DataType::Str)
                .attr("AC", DataType::Str)
                .attr("PN", DataType::Str)
                .build();
            let mut session = Session::new();
            session
                .load(Relation::with_tuples(schema, (0..n).map(row)).unwrap())
                .unwrap();
            session
                .register_text(
                    "cust: [CT] -> [AC] | [], { _ || _ }\n\
                     cust: [AC] -> [CT] | [], { _ || _ }",
                )
                .unwrap();
            let (mut writers, hub) =
                ShardedHub::bootstrap(session, &ShardedConfig::new(2, "CT")).unwrap();
            let before = hub.merge_stats();
            assert_eq!(before.seeds, 1, "bootstrap seeds once");
            hub.submit(Delta {
                deletions: (n - 8..n).map(row).collect(),
                insertions: (n..n + 8).map(row).collect(),
            })
            .unwrap();
            drive(&mut writers, &hub);
            let merged = hub.merged().unwrap();
            assert_eq!(merged.report, hub.merged_fresh().unwrap().report);
            assert_eq!(merged.report.total_rows, n);
            let after = hub.merge_stats();
            MergeStats {
                seeds: after.seeds - before.seeds,
                rows_folded: after.rows_folded - before.rows_folded,
                groups_flipped: after.groups_flipped - before.groups_flipped,
            }
        };
        let small = stats_at(2_000);
        assert_eq!(
            small,
            MergeStats {
                seeds: 0,
                rows_folded: 16,
                groups_flipped: 0,
            }
        );
        assert_eq!(stats_at(20_000), small);
    }

    /// Between bootstrap and shutdown the merge re-seeds only when a shard's
    /// changes are unknown: after a failed sub-delta or a failed publish.
    #[test]
    fn only_unknown_changes_reseed_the_merge() {
        let (mut writers, hub) =
            ShardedHub::bootstrap(template(), &ShardedConfig::new(2, "CT")).unwrap();
        let mut oracle = oracle();
        let seeds = |hub: &ShardedHub| hub.merge_stats().seeds;
        assert_eq!(seeds(&hub), 1);

        // Warm deltas fold, including a cross-shard `[AC] -> [CT]` conflict.
        let colonie = || vec![Tuple::from_iter(["Colonie", "518"])];
        for delta in [Delta::insert_only(colonie()), Delta::delete_only(colonie())] {
            hub.submit(delta.clone()).unwrap();
            oracle.apply_on("cust", &delta).unwrap();
            drive(&mut writers, &hub);
            assert_merged_matches(&hub, &mut oracle);
        }
        assert_eq!(seeds(&hub), 1);
        assert_eq!(
            hub.merge_stats().groups_flipped,
            2,
            "the conflict came and went"
        );

        // A failed publish: the layer never saw that batch.
        let utica = Delta::insert_only(vec![Tuple::from_iter(["Utica", "315"])]);
        let s = hub.shard_of_tuple(&utica.insertions[0]);
        writers[s].fail_next_snapshots = 1;
        hub.submit(utica.clone()).unwrap();
        oracle.apply_on("cust", &utica).unwrap();
        let shard = &hub.shard_hubs()[s];
        assert!(writers[s].step(shard, Duration::from_millis(10)).is_err());
        assert_eq!(seeds(&hub), 1, "nothing folded, nothing seeded yet");
        let rome = Delta::insert_only(vec![Tuple::from_iter(["Utica", "316"])]);
        hub.submit(rome.clone()).unwrap();
        oracle.apply_on("cust", &rome).unwrap();
        drive(&mut writers, &hub);
        assert_eq!(seeds(&hub), 2, "the next publish re-seeds");
        assert_merged_matches(&hub, &mut oracle);

        // A failed sub-delta: its row id is taken, so it lands nowhere.
        let taken = Delta::insert_only(vec![Tuple::from_iter(["Utica", "317"])]);
        let s = hub.shard_of_tuple(&taken.insertions[0]);
        let stored = hub.shard_hubs()[s].snapshot().frozen().decode_rows()[0].0;
        hub.shard_hubs()[s]
            .enqueue_scheduled(taken, vec![stored])
            .unwrap();
        drive(&mut writers, &hub);
        assert_eq!(hub.stats().write_errors, 2);
        assert_eq!(seeds(&hub), 3);
        assert_merged_matches(&hub, &mut oracle);
    }

    /// A shard key is only ever resolved to route between shards.
    #[test]
    fn an_unknown_shard_key_is_refused_only_above_one_shard() {
        assert!(ShardedHub::bootstrap(template(), &ShardedConfig::new(1, "NOPE")).is_ok());
        assert!(ShardedHub::bootstrap(template(), &ShardedConfig::new(2, "NOPE")).is_err());
    }

    #[test]
    fn router_tracks_global_progress() {
        let config = ShardedConfig::new(2, "CT");
        let (mut writers, hub) = ShardedHub::bootstrap(template(), &config).unwrap();
        assert_eq!(hub.accepted_global(), 0);
        assert_eq!(hub.applied_global(), 0);

        let r1 = hub
            .submit(Delta::insert_only(vec![
                Tuple::from_iter(["Albany", "519"]),
                Tuple::from_iter(["NYC", "999"]),
            ]))
            .unwrap();
        assert_eq!(r1.global, 1);
        let r2 = hub
            .submit(Delta::insert_only(vec![Tuple::from_iter(["Utica", "315"])]))
            .unwrap();
        assert_eq!(r2.global, 2);
        assert_eq!(hub.accepted_global(), 2);
        assert_eq!(hub.applied_global(), 0);

        drive(&mut writers, &hub);
        assert_eq!(hub.sync(Duration::from_secs(5)).unwrap(), hub.epoch());
        assert_eq!(hub.applied_global(), 2);

        // An empty delta still takes a global ticket, and no shard ticket.
        let r3 = hub.submit(Delta::new()).unwrap();
        assert_eq!((r3.global, r3.shard_tickets.len()), (3, 0));
        assert_eq!(hub.applied_global(), 3);

        // Submitting drains what has been applied: with nobody asking for
        // `applied_global()`, the in-flight map still holds only the deltas
        // not yet applied when the last one was submitted.
        let colonie = || vec![Tuple::from_iter(["Colonie", "518"])];
        for round in 0..10 {
            hub.submit(Delta::insert_only(colonie())).unwrap();
            assert_eq!(hub.inflight_len(), 1, "round {round}");
            drive(&mut writers, &hub);
        }
        for backlog in 1..=3 {
            hub.submit(Delta::delete_only(colonie())).unwrap();
            assert_eq!(hub.inflight_len(), backlog);
        }
        drive(&mut writers, &hub);
        hub.submit(Delta::new()).unwrap();
        assert_eq!(hub.inflight_len(), 0);

        // Row ids were assigned globally in submission order: 3 base rows,
        // then 3 insertions (the ten Colonie rows came and went).
        let composed = hub.compose().unwrap();
        let ids: Vec<u64> = composed.frozen().view().row_ids().map(|id| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    /// Regression: a recovered router restarted its global ticket at 1 while
    /// the shard queues continued the logged numbering. The logged deltas
    /// carry the global ticket, so the sequence resumes — including past a
    /// delta that split across shards and so counts twice in shard tickets.
    #[test]
    fn global_ticket_sequence_survives_recovery() {
        let dir = std::env::temp_dir().join(format!("ecfd-sharded-global-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ShardedConfig::new(2, "CT");
        let split = Delta::insert_only(
            ["Albany", "NYC", "Troy", "Utica"]
                .map(|city| Tuple::from_iter([city, "518"]))
                .to_vec(),
        );
        {
            let (mut writers, hub, _) =
                ShardedHub::bootstrap_durable(template(), &config, &dir).unwrap();
            let receipt = hub.submit(split).unwrap();
            assert_eq!(
                receipt.shard_tickets.len(),
                2,
                "the delta spans both shards"
            );
            hub.submit(Delta::insert_only(vec![Tuple::from_iter([
                "Albany", "519",
            ])]))
            .unwrap();
            drive(&mut writers, &hub);
        }
        let (_writers, hub, _) = ShardedHub::bootstrap_durable(template(), &config, &dir).unwrap();
        assert_eq!((hub.accepted_global(), hub.applied_global()), (2, 2));
        assert_eq!(hub.submit(Delta::new()).unwrap().global, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merged_ckpt_round_trips() {
        let rendered = render_merged_ckpt(&[3, 0, 7], 0xdead_beef_0123_4567);
        assert_eq!(
            parse_merged_ckpt(&rendered),
            Some((vec![3, 0, 7], 0xdead_beef_0123_4567))
        );
        assert_eq!(parse_merged_ckpt("garbage"), None);
    }
}
