//! The TCP front end: a listener plus scoped per-connection workers, over a
//! [`ShardedHub`] of any shard count.

use crate::durable::RecoveryReport;
use crate::hub::Hub;
use crate::protocol::{delta_to_ops, MvLine, ReplayRecord, Request, Response};
use crate::sharded::{ShardedConfig, ShardedHub};
use crate::writer::Writer;
use crate::Result;
use ecfd_repair::RepairOptions;
use ecfd_session::{Session, SessionError, Snapshot};
use ecfd_wal::WalRecord;
use std::io::{BufRead, BufReader, BufWriter, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Hard upper bound on records per `REPLAY` response, whatever the client
/// asked for — bounds response-line length.
const REPLAY_MAX_CLAMP: usize = 1024;

/// Longest request line a connection may send, newline excluded. The longest
/// line an in-repo client sends is an `APPLY` carrying one generated `cust`
/// delta (tens of eight-field tuples, a few KiB); 1 MiB leaves batches a few
/// hundred times that size room while bounding what a client that never
/// sends a newline can make the server buffer.
const MAX_REQUEST_LINE: usize = 1 << 20;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port — the default,
    /// so tests and examples never collide).
    pub addr: String,
    /// Shard count, shard key and the per-shard queue / batch / merge knobs
    /// (one shard by default).
    pub sharding: ShardedConfig,
    /// How long a `SYNC` request waits before reporting a timeout.
    pub sync_timeout: Duration,
    /// Socket read timeout; doubles as the shutdown-poll interval of idle
    /// connections.
    pub read_timeout: Duration,
    /// Accept-loop poll interval while no connection is pending.
    pub poll_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            sharding: ShardedConfig::default(),
            sync_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_millis(100),
            poll_interval: Duration::from_millis(2),
        }
    }
}

/// A bound-but-not-yet-running server: the TCP face of a [`ShardedHub`] and
/// its per-shard [`Writer`]s. Reader verbs (`DETECT`, `EXPLAIN`, `EPOCH`, …)
/// answer from the *merged* view; `APPLY` routes through the global-ticket
/// router; `SYNC` barriers on the connection's per-shard ACK high-water
/// marks. [`Server::run`] blocks the calling thread; grab a [`ServerHandle`]
/// first to shut it down from elsewhere.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    hub: Arc<ShardedHub>,
    writers: Vec<Writer>,
    config: ServeConfig,
}

/// A cheap, cloneable remote control for a running [`Server`]: request
/// shutdown, reach the hub for in-process reads.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    hub: Arc<ShardedHub>,
}

impl ServerHandle {
    /// Requests shutdown on every shard: the queues close, pending deltas
    /// drain, connection workers and the accept loop exit, and
    /// [`Server::run`] returns.
    pub fn shutdown(&self) {
        self.hub.shutdown();
    }

    /// The shared hub, for in-process readers living next to the server.
    pub fn hub(&self) -> &Arc<ShardedHub> {
        &self.hub
    }
}

impl Server {
    /// Binds the listener and bootstraps one writer per shard from a
    /// prepared session (data loaded, constraints registered) — see
    /// [`ShardedHub::bootstrap`].
    pub fn bind(session: Session, config: ServeConfig) -> Result<Server> {
        let (writers, hub) = ShardedHub::bootstrap(session, &config.sharding)?;
        Server::listen(writers, hub, config)
    }

    /// Like [`Server::bind`], but durable: each shard recovers its own
    /// `wal_dir/shard-N/` segment, every accepted delta is logged + fsynced
    /// before its ACK, and the merged checkpoint is re-verified — see
    /// [`ShardedHub::bootstrap_durable`]. Returns the per-shard recovery
    /// reports.
    pub fn bind_durable(
        session: Session,
        config: ServeConfig,
        wal_dir: &Path,
    ) -> Result<(Server, Vec<RecoveryReport>)> {
        let (writers, hub, recoveries) =
            ShardedHub::bootstrap_durable(session, &config.sharding, wal_dir)?;
        Ok((Server::listen(writers, hub, config)?, recoveries))
    }

    fn listen(writers: Vec<Writer>, hub: Arc<ShardedHub>, config: ServeConfig) -> Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(&config.addr)?,
            hub,
            writers,
            config,
        })
    }

    /// The bound address (resolves the ephemeral port of `127.0.0.1:0`).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// A handle for shutting the server down from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            hub: self.hub.clone(),
        }
    }

    /// Serves until [`ServerHandle::shutdown`] is called: one writer thread
    /// per shard plus one worker per accepted connection all run as
    /// [`std::thread::scope`] threads, so this call owns every serving
    /// thread and returns only after all of them are done. A dead shard
    /// writer trips the shutdown flag, so the accept loop exits rather than
    /// serving a deployment that can no longer apply writes. Returns the
    /// per-shard sessions in their final states.
    pub fn run(self) -> Result<Vec<Session>> {
        let Server {
            listener,
            hub,
            writers,
            config,
        } = self;
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| -> Result<Vec<Session>> {
            let writer_threads: Vec<_> = writers
                .into_iter()
                .enumerate()
                .map(|(s, writer)| {
                    let shard_hub = Arc::clone(&hub.shard_hubs()[s]);
                    scope.spawn(move || writer.run(&shard_hub))
                })
                .collect();
            loop {
                if hub.is_shutdown() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let hub = &hub;
                        let config = &config;
                        scope.spawn(move || {
                            let _ = handle_connection(stream, hub, config);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(config.poll_interval);
                    }
                    Err(_) => break,
                }
            }
            // Make sure the writers drain and exit even if the accept loop
            // stopped for a reason other than an explicit shutdown.
            hub.shutdown();
            let mut sessions = Vec::new();
            for thread in writer_threads {
                sessions.push(thread.join().expect("shard writer thread panicked")?);
            }
            Ok(sessions)
        })
    }
}

/// Serves one connection, a line per request: read a line, answer a line,
/// until `QUIT`, EOF, shutdown or a line longer than [`MAX_REQUEST_LINE`].
fn handle_connection(
    stream: TcpStream,
    hub: &ShardedHub,
    config: &ServeConfig,
) -> std::io::Result<()> {
    // Per-shard ACK high-water marks of *this* connection (0 = nothing
    // submitted to that shard yet): SYNC barriers on exactly these, so one
    // client's barrier is never hostage to another's backlog.
    let mut last: Vec<u64> = vec![0; hub.num_shards()];
    stream.set_read_timeout(Some(config.read_timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    loop {
        if hub.is_shutdown() {
            return Ok(());
        }
        // One byte past the cap is enough to tell an over-long line from a
        // full one; a timeout always leaves `line` short of that.
        let budget = (MAX_REQUEST_LINE + 1 - line.len()) as u64;
        match reader.by_ref().take(budget).read_line(&mut line) {
            Ok(0) => return Ok(()), // client closed
            Ok(_) => {
                let too_long = line.len() > MAX_REQUEST_LINE && !line.ends_with('\n');
                let response = if too_long {
                    refuse(format!(
                        "request line exceeds {MAX_REQUEST_LINE} bytes; closing the connection"
                    ))
                } else {
                    respond_counted(&line, |request| dispatch(request, hub, config, &mut last))
                };
                writer.write_all(response.render().as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                line.clear();
                if too_long || matches!(response, Response::Bye) {
                    return Ok(());
                }
            }
            // Timeout mid-wait: partial bytes (if any) stay in `line`; loop
            // to poll the shutdown flag and keep accumulating.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Answers a line that never reaches `dispatch` with `ERR`, counted under
/// the pseudo-verb `INVALID`.
fn refuse(message: String) -> Response {
    ecfd_obs::registry()
        .counter_with("serve.requests", &[("verb", "INVALID")])
        .inc();
    Response::Err { message }
}

/// Parses one request line and runs it through `dispatch`, with the verb
/// accounting. Never panics on client input — malformed lines, and requests
/// `dispatch` fails, come back as `ERR`.
///
/// Every parsed request is counted and timed under its wire verb
/// (`serve.requests{verb=…}` / `serve.request.ns{verb=…}`); unparseable
/// lines are counted under the pseudo-verb `INVALID`.
fn respond_counted(line: &str, dispatch: impl FnOnce(Request) -> Result<Response>) -> Response {
    let request = match Request::parse(line) {
        Ok(request) => request,
        Err(message) => return refuse(message),
    };
    let registry = ecfd_obs::registry();
    let verb = request.verb();
    registry
        .counter_with("serve.requests", &[("verb", verb)])
        .inc();
    registry
        .histogram_with("serve.request.ns", &[("verb", verb)])
        .time(|| dispatch(request))
        .unwrap_or_else(|e| Response::Err {
            message: e.to_string(),
        })
}

/// The verb dispatch: reader verbs answer from the merged view, `APPLY` goes
/// through the router, `SYNC` barriers per shard. An `Err` goes back to the
/// client as an `ERR` line.
fn dispatch(
    request: Request,
    hub: &ShardedHub,
    config: &ServeConfig,
    last: &mut [u64],
) -> Result<Response> {
    Ok(match request {
        Request::Ping => Response::Pong,
        Request::Quit => Response::Bye,
        Request::Epoch => {
            let merged = hub.merged()?;
            let stats = hub.stats();
            Response::Epoch {
                epoch: merged.epoch(),
                rows: merged.report.total_rows,
                sv: merged.report.num_sv(),
                mv: merged.report.num_mv(),
                queued: stats.queued,
                errors: stats.write_errors,
            }
        }
        Request::Detect { fresh } => {
            let merged = if fresh {
                Arc::new(hub.merged_fresh()?)
            } else {
                hub.merged()?
            };
            Response::Report {
                epoch: merged.epoch(),
                total: merged.report.total_rows,
                sv: merged.report.sv_rows.iter().map(|r| r.as_u64()).collect(),
                mv: merged.report.mv_rows.iter().map(|r| r.as_u64()).collect(),
            }
        }
        Request::Check => {
            // The strong consistency check: compose the shards into one
            // single-session snapshot (the oracle path) and compare its
            // from-scratch report against the merge layer's answer.
            let merged = hub.merged()?;
            let composed = hub.compose()?;
            Response::Checked {
                epoch: merged.epoch(),
                total: composed.report().total_rows,
                sv: composed.report().num_sv(),
                mv: composed.report().num_mv(),
                consistent: composed.report() == &merged.report,
            }
        }
        Request::Explain => {
            let merged = hub.merged()?;
            let evidence = &merged.evidence;
            Response::Evidence {
                epoch: merged.epoch(),
                total: evidence.total_rows,
                sv: evidence
                    .sv
                    .iter()
                    .map(|e| (e.row.as_u64(), e.source.constraint, e.source.pattern))
                    .collect(),
                mv: evidence
                    .mv_groups
                    .iter()
                    .map(|g| MvLine {
                        constraint: g.source.constraint,
                        pattern: g.source.pattern,
                        key: g.group_key.iter().map(|v| v.to_string()).collect(),
                        rows: g.rows.iter().map(|r| r.as_u64()).collect(),
                    })
                    .collect(),
            }
        }
        Request::ExplainPlan => {
            // Every shard registers the same constraint set; compile the
            // plan from shard 0's published snapshot.
            let snap = hub.shard_hubs()[0].snapshot();
            let plan = ecfd_plan::Plan::compile(snap.constraints()).map_err(SessionError::from)?;
            Response::PlanText {
                text: plan.render(),
            }
        }
        Request::Apply { ops } => {
            let delta = match Request::ops_to_delta(&ops, hub.schema()) {
                Ok(delta) => delta,
                Err(message) => return Ok(Response::Err { message }),
            };
            let receipt = hub.submit(delta)?;
            for &(s, ticket) in &receipt.shard_tickets {
                last[s] = last[s].max(ticket);
            }
            Response::Ack {
                ticket: receipt.global,
                epoch: hub.epoch(),
            }
        }
        Request::Sync => Response::Synced {
            epoch: hub.sync_tickets(last, config.sync_timeout)?,
        },
        Request::RepairPlan => {
            let merged = hub.merged()?;
            let parts: Vec<&Snapshot> = merged.snapshots.iter().map(Arc::as_ref).collect();
            let plan =
                Snapshot::repair_plan_of(&parts, &merged.evidence, RepairOptions::default())?;
            Response::Plan {
                epoch: merged.epoch(),
                deletions: plan.num_deletions(),
                modifications: plan.num_modifications(),
                cost: plan.total_cost(),
            }
        }
        // One shard's log *is* the deployment's log; with more, a follower
        // would need every segment and the router's interleaving.
        Request::Replay { cursor, max } => match hub.shard_hubs() {
            [shard] => replay_response(shard, cursor, max)?,
            _ => Response::Err {
                message: "REPLAY is not available on a sharded server; \
                          tail the per-shard WAL segments instead"
                    .into(),
            },
        },
        Request::Stats { prefix } => Response::Metrics {
            text: match prefix {
                Some(prefix) => ecfd_obs::registry().render_prefix(&prefix),
                None => ecfd_obs::registry().render(),
            },
        },
        Request::Info => Response::Info {
            version: env!("CARGO_PKG_VERSION").to_string(),
            epoch: hub.epoch(),
            accepted: hub.accepted_global(),
            applied: hub.applied_global(),
            wal: hub.wal_mode().to_string(),
            follower: hub.is_follower(),
        },
    })
}

/// Serves one `REPLAY` page straight from the WAL file. Everything in the
/// log's valid prefix is durable and (eventually) applied, so the whole
/// prefix is streamable; a torn tail from an append racing this read simply
/// ends the page early — the next poll picks it up. Cursors are record
/// positions in the file, so checkpoint records occupy positions too and a
/// page boundary can never silently skip one.
fn replay_response(hub: &Hub, cursor: u64, max: usize) -> Result<Response> {
    let Some(path) = hub.wal_path() else {
        return Ok(Response::Err {
            message: "REPLAY requires a durable server (start with --wal-dir)".into(),
        });
    };
    let records = ecfd_wal::read_records(path)?;
    let start = (cursor as usize).min(records.len());
    let end = (start + max.clamp(1, REPLAY_MAX_CLAMP)).min(records.len());
    let page = records[start..end]
        .iter()
        .map(|record| match record {
            // The pre-assigned ids and the global ticket are apply-time
            // details the wire replay format does not carry: a follower's own
            // router hands out the same ones.
            WalRecord::Delta { ticket, delta }
            | WalRecord::ScheduledDelta { ticket, delta, .. } => ReplayRecord::Delta {
                ticket: *ticket,
                ops: delta_to_ops(delta),
            },
            WalRecord::Checkpoint {
                epoch,
                last_ticket,
                report_hash,
            } => ReplayRecord::Checkpoint {
                epoch: *epoch,
                last_ticket: *last_ticket,
                report_hash: *report_hash,
            },
        })
        .collect();
    Ok(Response::Replayed {
        records: page,
        next: end as u64,
    })
}
