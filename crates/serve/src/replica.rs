//! The follower: replicate a durable leader by replaying its WAL stream.
//!
//! A [`Follower`] connects a local one-shard serving stack (its own
//! [`ShardedHub`] + writer, built from the *same base data and constraints*
//! as the leader's) to a remote durable one-shard leader via the `REPLAY`
//! verb. Each poll fetches a page of the leader's shard-0 WAL records and
//! pushes them through the follower's completely ordinary ingest path:
//!
//! * a **delta** record is submitted to the local hub, and its local
//!   shard-0 ticket must come back equal to the leader's — both sides number
//!   accepted deltas from 1 in the same order, so any mismatch means the
//!   streams have diverged and replication stops rather than papering over
//!   it;
//! * a **checkpoint** record is a proof obligation: the follower barriers
//!   until its own writer has applied and published everything up to the
//!   checkpoint's ticket, then compares its published epoch and canonical
//!   report hash against the leader's. The comparison is strict — the
//!   session bumps its version exactly once per applied delta, so a healthy
//!   follower lands on the *same epoch numbers* as the leader, not merely
//!   the same data.
//!
//! Records are processed strictly in log order. Because the leader ACKs
//! (and logs) deltas independently of its writer's checkpoint appends, a
//! checkpoint for ticket *t* can sit after delta *t+1* in the log; such a
//! checkpoint describes an epoch the follower has already replayed past and
//! is skipped rather than verified — every quiescent epoch boundary
//! (including the log's final checkpoint) still verifies strictly. Polls
//! are idempotent: deltas at or below the follower's high-water ticket are
//! skipped, so overlapping pages (a cursor reset, a leader restart
//! re-anchoring its epoch) re-verify rather than re-apply.

use crate::client::Client;
use crate::durable::report_hash;
use crate::hub::Hub;
use crate::ingest::Ticket;
use crate::protocol::{ReplayRecord, Request, REPLAY_DEFAULT_MAX};
use crate::sharded::ShardedHub;
use crate::{Result, ServeError};
use std::sync::Arc;
use std::time::Duration;

/// What one [`Follower::poll`] (or a whole [`Follower::catch_up`]) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FollowerProgress {
    /// Leader WAL records consumed (including skipped duplicates).
    pub records: usize,
    /// Delta records newly applied locally.
    pub deltas_applied: usize,
    /// Checkpoint records whose epoch + report hash matched the local state.
    pub checkpoints_verified: usize,
    /// The follower's published epoch after the poll.
    pub epoch: u64,
}

/// A replication client: pulls a durable leader's WAL pages and feeds a
/// local hub, verifying every epoch checkpoint along the way. See the
/// module docs for the protocol and the divergence rules.
#[derive(Debug)]
pub struct Follower {
    client: Client,
    hub: Arc<ShardedHub>,
    cursor: u64,
    /// Highest leader ticket applied locally — the idempotency watermark.
    /// Starts at the local hub's own applied ticket, so recovered history
    /// (already verified by recovery) is skipped, not re-applied.
    last_ticket: Ticket,
    page_max: usize,
}

impl Follower {
    /// Wraps an open connection to the leader and the local hub to feed.
    /// The hub must have been bootstrapped from the same base data and
    /// constraints as the leader's; a mismatch surfaces as a divergence
    /// error at the first checkpoint, not as silent drift. `REPLAY` streams
    /// one shard's log, so a hub with more than one shard is refused.
    pub fn new(client: Client, hub: Arc<ShardedHub>) -> Result<Follower> {
        let [shard] = hub.shard_hubs() else {
            return Err(ServeError::Replication(format!(
                "a follower replays one log into one shard; the local hub has {}",
                hub.num_shards()
            )));
        };
        let last_ticket = shard.queue().applied_ticket();
        hub.mark_follower();
        Ok(Follower {
            client,
            hub,
            cursor: 0,
            last_ticket,
            page_max: REPLAY_DEFAULT_MAX,
        })
    }

    /// The local shard-0 pipeline the leader's log is replayed into.
    fn shard(&self) -> &Hub {
        &self.hub.shard_hubs()[0]
    }

    /// The log position the next poll will request.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Highest leader ticket applied locally so far.
    pub fn last_ticket(&self) -> Ticket {
        self.last_ticket
    }

    /// Fetches and applies one page of leader records. `sync_timeout` bounds
    /// each checkpoint barrier (a wedged local writer surfaces as
    /// [`ServeError::SyncTimeout`] instead of hanging replication).
    pub fn poll(&mut self, sync_timeout: Duration) -> Result<FollowerProgress> {
        let (records, next) = self.client.replay(self.cursor, self.page_max)?;
        let mut progress = FollowerProgress {
            records: records.len(),
            ..FollowerProgress::default()
        };
        for record in records {
            match record {
                ReplayRecord::Delta { ticket, ops } => {
                    if ticket <= self.last_ticket {
                        continue; // already applied (overlapping page or recovered history)
                    }
                    let delta = Request::ops_to_delta(&ops, self.hub.schema())
                        .map_err(ServeError::Protocol)?;
                    let local = self.hub.submit(delta)?.shard_tickets;
                    if local != [(0, ticket)] {
                        return Err(ServeError::Replication(format!(
                            "leader streamed ticket {ticket} but the local queue issued \
                             {local:?} — the replicas have diverged"
                        )));
                    }
                    self.last_ticket = ticket;
                    progress.deltas_applied += 1;
                }
                ReplayRecord::Checkpoint {
                    epoch,
                    last_ticket,
                    report_hash: expected,
                } => {
                    if last_ticket < self.last_ticket {
                        // Local replay (or recovery) is already past this
                        // epoch; its state cannot be re-derived. The next
                        // aligned checkpoint re-verifies.
                        continue;
                    }
                    // Barrier: the local writer must have published exactly
                    // this far before the epoch comparison means anything.
                    self.shard().sync_to(last_ticket, sync_timeout)?;
                    let snap = self.shard().snapshot();
                    if snap.epoch() != epoch {
                        return Err(ServeError::Replication(format!(
                            "leader checkpoint is epoch {epoch} at ticket {last_ticket}, \
                             follower published epoch {} — base data or constraints differ",
                            snap.epoch()
                        )));
                    }
                    let actual = report_hash(snap.report());
                    if actual != expected {
                        return Err(ServeError::Replication(format!(
                            "epoch {epoch} report hash mismatch: leader {expected:#018x}, \
                             follower {actual:#018x}"
                        )));
                    }
                    progress.checkpoints_verified += 1;
                }
            }
        }
        self.cursor = next;
        progress.epoch = self.hub.epoch();
        if progress.deltas_applied > 0 || progress.checkpoints_verified > 0 {
            let registry = ecfd_obs::registry();
            registry
                .counter("replica.deltas.applied")
                .add(progress.deltas_applied as u64);
            registry
                .counter("replica.checkpoints.verified")
                .add(progress.checkpoints_verified as u64);
        }
        Ok(progress)
    }

    /// Polls until a page comes back empty — the follower has seen every
    /// record the leader had at that moment. Returns the accumulated
    /// progress across all pages.
    pub fn catch_up(&mut self, sync_timeout: Duration) -> Result<FollowerProgress> {
        let mut total = FollowerProgress::default();
        loop {
            let page = self.poll(sync_timeout)?;
            total.epoch = page.epoch;
            if page.records == 0 {
                return Ok(total);
            }
            total.records += page.records;
            total.deltas_applied += page.deltas_applied;
            total.checkpoints_verified += page.checkpoints_verified;
        }
    }
}
