//! The system under test behind one face: an unsharded `Writer` + `Hub`, or
//! a durable `ShardedHub` with its per-shard writers. The benchmark thread
//! is the only thread: it submits, steps the writer(s) itself, and reads.

use crate::workload::Serving;
use crate::Fallible;
use ecfd_detect::DetectionReport;
use ecfd_relation::{Delta, RowId};
use ecfd_serve::{Hub, MergedView, ShardedConfig, ShardedHub, StepOutcome, Ticket, Writer};
use ecfd_session::{Session, Snapshot};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Queue capacity and writer batch cap, the `ShardedConfig::new` defaults,
/// used for the unsharded stack too: the bulk batch (8 deltas) must fit one
/// writer cycle.
const QUEUE_CAPACITY: usize = 64;
const BATCH_MAX: usize = 32;

pub enum Served {
    Single {
        writer: Writer,
        hub: Arc<Hub>,
    },
    Sharded {
        writers: Vec<Writer>,
        hub: Arc<ShardedHub>,
    },
}

/// What a submit (or several) left to wait for: the highest ticket per
/// shard, 0 where a shard received nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pending(Vec<Ticket>);

impl Pending {
    pub fn merge(&mut self, later: Pending) {
        for (mine, theirs) in self.0.iter_mut().zip(later.0) {
            *mine = (*mine).max(theirs);
        }
    }

    /// Shard sub-deltas this submit was split into (1 when unsharded).
    pub fn parts(&self) -> usize {
        self.0.iter().filter(|t| **t > 0).count()
    }
}

/// What a reader sees: the published snapshot, or the merged cross-shard
/// view.
pub enum Published {
    Single(Arc<Snapshot>),
    Sharded(Arc<MergedView>),
}

impl Published {
    pub fn report(&self) -> &DetectionReport {
        match self {
            Published::Single(snapshot) => snapshot.report(),
            Published::Sharded(view) => &view.report,
        }
    }

    pub fn epoch(&self) -> u64 {
        match self {
            Published::Single(snapshot) => snapshot.epoch(),
            Published::Sharded(view) => view.epoch(),
        }
    }
}

impl Served {
    /// Bootstraps the stack from a prepared session. `wal_dir` is used by
    /// durable servings only; a non-empty one is recovered from.
    pub fn bootstrap(session: Session, serving: Serving, wal_dir: &Path) -> Fallible<Served> {
        match serving {
            Serving::Single => {
                let (writer, hub) = Writer::bootstrap(session, QUEUE_CAPACITY, BATCH_MAX)?;
                Ok(Served::Single { writer, hub })
            }
            Serving::DurableSharded(shards) => {
                let mut config = ShardedConfig::new(shards, "CT");
                config.detect_workers = Some(1);
                let (writers, hub, _) = ShardedHub::bootstrap_durable(session, &config, wal_dir)?;
                Ok(Served::Sharded { writers, hub })
            }
        }
    }

    pub fn num_shards(&self) -> usize {
        match self {
            Served::Single { .. } => 1,
            Served::Sharded { hub, .. } => hub.num_shards(),
        }
    }

    /// Hands the delta to the ingest side; returns once it is accepted
    /// (durable: fsynced).
    pub fn submit(&self, delta: Delta) -> Fallible<Pending> {
        match self {
            Served::Single { hub, .. } => Ok(Pending(vec![hub.submit(delta)?])),
            Served::Sharded { hub, .. } => {
                let mut tickets = vec![0; hub.num_shards()];
                for (shard, ticket) in hub.submit(delta)?.shard_tickets {
                    tickets[shard] = ticket;
                }
                Ok(Pending(tickets))
            }
        }
    }

    /// Steps the writer(s) until everything in `pending` is applied and
    /// published. Returns the number of `Writer::step` calls that applied a
    /// batch (= epochs published).
    pub fn step_until_applied(&mut self, pending: &Pending) -> Fallible<usize> {
        let mut steps = 0;
        let mut drive = |writer: &mut Writer, hub: &Hub, ticket: Ticket| -> Fallible<()> {
            while !hub.queue().is_applied(ticket) {
                match writer.step(hub, Duration::ZERO)? {
                    StepOutcome::Applied(_) => steps += 1,
                    idle => return Err(format!("ticket {ticket} pending, writer {idle:?}").into()),
                }
            }
            Ok(())
        };
        match self {
            Served::Single { writer, hub } => drive(writer, hub, pending.0[0])?,
            Served::Sharded { writers, hub } => {
                for (shard, writer) in writers.iter_mut().enumerate() {
                    drive(writer, &hub.shard_hubs()[shard], pending.0[shard])?;
                }
            }
        }
        Ok(steps)
    }

    /// The reader's view of the current epoch.
    pub fn read(&self) -> Fallible<Published> {
        Ok(match self {
            Served::Single { hub, .. } => Published::Single(hub.snapshot()),
            Served::Sharded { hub, .. } => Published::Sharded(hub.merged()?),
        })
    }

    /// The verified from-scratch answer on the served state.
    pub fn fresh(&self) -> Fallible<DetectionReport> {
        Ok(match self {
            Served::Single { hub, .. } => hub.snapshot().detect_fresh()?,
            Served::Sharded { hub, .. } => hub.merged_fresh()?.report,
        })
    }

    /// The served rows re-encoded and re-detected by one fresh detector —
    /// the repo's own `CHECK` oracle path.
    pub fn compose(&self) -> Fallible<Snapshot> {
        Ok(match self {
            Served::Single { hub, .. } => Snapshot::compose(&[hub.snapshot().as_ref()])?,
            Served::Sharded { hub, .. } => hub.compose()?,
        })
    }

    /// The per-shard published snapshots.
    pub fn snapshots(&self) -> Vec<Arc<Snapshot>> {
        match self {
            Served::Single { hub, .. } => vec![hub.snapshot()],
            Served::Sharded { hub, .. } => hub.shard_hubs().iter().map(|h| h.snapshot()).collect(),
        }
    }

    pub fn write_errors(&self) -> u64 {
        match self {
            Served::Single { hub, .. } => hub.stats().write_errors,
            Served::Sharded { hub, .. } => hub.stats().write_errors,
        }
    }
}

/// The id the next insertion will receive. Both stacks hand out consecutive
/// ids in submission order, starting after the base table's, so the
/// benchmark can name the row a delta inserted without asking the system.
#[derive(Debug, Clone, Copy)]
pub struct IdCounter(u64);

impl IdCounter {
    pub fn after_base(rows: usize) -> Self {
        IdCounter(rows as u64)
    }

    /// Advances past `delta`'s insertions; returns the id of its first.
    pub fn advance(&mut self, delta: &Delta) -> RowId {
        let first = RowId(self.0);
        self.0 += delta.insertions.len() as u64;
        first
    }
}

/// WAL directories under `benchmark/out/`, one per served stack, removed
/// when the run ends.
pub struct WalDirs {
    root: PathBuf,
    made: usize,
}

impl WalDirs {
    pub fn new(root: PathBuf) -> Self {
        WalDirs { root, made: 0 }
    }

    /// A fresh, empty directory path (created by whoever opens a WAL in it).
    pub fn next(&mut self) -> PathBuf {
        self.made += 1;
        self.root
            .join(format!("wal-{}-{}", std::process::id(), self.made))
    }
}

impl Drop for WalDirs {
    fn drop(&mut self) {
        for n in 1..=self.made {
            let dir = self.root.join(format!("wal-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
