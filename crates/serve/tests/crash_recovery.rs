//! Crash-recovery and replication tests driving the real `serve` binary.
//!
//! The acceptance scenario for the durable serving stack: kill -9 a durable
//! server mid-stream, restart it with `--recover`, and the recovered
//! `DETECT FRESH` answer is byte-identical to a fresh oracle server fed the
//! same deltas — plus the follower path: a second server started with
//! `--follow` replays the leader's WAL and lands on the same epoch and
//! report.

use ecfd_serve::protocol::TupleOp;
use ecfd_serve::{report_hash, Client, Follower, Request, Response, ServeConfig, Server, Writer};
use ecfd_session::Session;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// The same base instance the binary's demo mode serves (Fig. 1 + φ1/φ2),
/// for in-process oracles and followers.
fn ready_session() -> Session {
    use ecfd_relation::{DataType, Relation, Schema, Tuple};
    let schema = Schema::builder("cust")
        .attr("AC", DataType::Str)
        .attr("PN", DataType::Str)
        .attr("NM", DataType::Str)
        .attr("STR", DataType::Str)
        .attr("CT", DataType::Str)
        .attr("ZIP", DataType::Str)
        .build();
    let data = Relation::with_tuples(
        schema,
        [
            Tuple::from_iter(["718", "1111111", "Mike", "Tree Ave.", "Albany", "12238"]),
            Tuple::from_iter(["518", "2222222", "Joe", "Elm Str.", "Colonie", "12205"]),
            Tuple::from_iter(["518", "2222222", "Jim", "Oak Ave.", "Troy", "12181"]),
            Tuple::from_iter(["100", "1111111", "Rick", "8th Ave.", "NYC", "10001"]),
            Tuple::from_iter(["212", "3333333", "Ben", "5th Ave.", "NYC", "10016"]),
            Tuple::from_iter(["646", "4444444", "Ian", "High St.", "NYC", "10011"]),
        ],
    )
    .unwrap();
    let mut session = Session::new();
    session.load(data).unwrap();
    session
        .register_text(
            "cust: [CT] -> [AC] | [], { !{NYC, LI} || _ ; {Albany, Troy, Colonie} || {518} }\n\
             cust: [CT] -> []   | [AC], { {NYC} || {212, 718, 646, 347, 917} }",
        )
        .unwrap();
    session
}

/// The delta stream both phases feed: rows that interact with φ1/φ2 so the
/// recovered report is not trivially empty.
fn op(round: usize) -> TupleOp {
    let tag = format!("{:07}", 9000000 + round);
    match round % 3 {
        0 => TupleOp::insert(["519", &tag, "Gen", "Any St.", "Albany", "12239"]),
        1 => TupleOp::insert(["999", &tag, "Gen", "Any St.", "NYC", "10099"]),
        _ => TupleOp::insert(["518", &tag, "Gen", "Any St.", "Troy", "12181"]),
    }
}

struct Served {
    child: Child,
    addr: String,
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns the `serve` binary with `extra` flags on an ephemeral port and
/// waits for its "serving on {addr}" line.
fn spawn_serve(extra: &[&str]) -> Served {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("serve binary spawns");
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve prints its address before EOF")
            .expect("serve stdout is readable");
        if let Some(addr) = line.strip_prefix("serving on ") {
            break addr.to_string();
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines.by_ref() {});
    Served { child, addr }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecfd-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn detect_fresh_line(client: &mut Client) -> String {
    let response = client.request(&Request::Detect { fresh: true }).unwrap();
    assert!(matches!(response, Response::Report { .. }));
    response.render()
}

/// kill -9 a durable server mid-stream; `--recover` reproduces a state whose
/// `DETECT FRESH` line is byte-identical to an oracle fed the same deltas.
#[test]
fn kill_nine_then_recover_matches_fresh_oracle() {
    const PHASE_ONE: usize = 4;
    const PHASE_TWO: usize = 3;
    let dir = temp_dir("recover");
    let dir_flag = dir.to_str().unwrap();

    // Phase 1: stream, barrier, remember the served answer.
    let leader = spawn_serve(&["--wal-dir", dir_flag]);
    let mut client = Client::connect(&leader.addr).unwrap();
    for round in 0..PHASE_ONE {
        client.apply(vec![op(round)]).unwrap();
    }
    client.sync().unwrap();
    let phase_one_line = detect_fresh_line(&mut client);

    // Phase 2: more ACKed deltas, then SIGKILL — no shutdown handshake. The
    // ACK is the durability contract: everything acknowledged must survive.
    for round in PHASE_ONE..PHASE_ONE + PHASE_TWO {
        client.apply(vec![op(round)]).unwrap();
    }
    // Every ACK above implies an fsync already happened — scrape the proof
    // before the kill.
    let pre_kill = client.stats(Some("wal.")).unwrap();
    let pre_kill: std::collections::BTreeMap<String, i64> = ecfd_obs::parse_exposition(&pre_kill)
        .unwrap()
        .into_iter()
        .collect();
    assert!(
        pre_kill
            .get(r#"wal.fsync.count{shard="0"}"#)
            .copied()
            .unwrap_or(0)
            > 0,
        "ACKed deltas imply fsyncs before the crash"
    );
    drop(leader); // Drop kills the child (SIGKILL), mid-everything.
    drop(client);

    // A restart without --recover must refuse the non-empty log.
    let refused = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0", "--wal-dir", dir_flag])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(refused.code(), Some(2), "non-empty WAL without --recover");

    // Restart with --recover: consistent, and byte-identical to an oracle
    // server (no WAL) fed the same delta sequence from scratch.
    let recovered = spawn_serve(&["--wal-dir", dir_flag, "--recover"]);
    let mut client = Client::connect(&recovered.addr).unwrap();
    let (_, consistent) = client.check().unwrap();
    assert!(consistent, "the recovered report must match a fresh detect");
    // The restarted process exposes what recovery replayed.
    let replay = client.stats(Some("wal.recovery.")).unwrap();
    let replay: std::collections::BTreeMap<String, i64> = ecfd_obs::parse_exposition(&replay)
        .unwrap()
        .into_iter()
        .collect();
    assert_eq!(
        replay.get(r#"wal.recovery.deltas{shard="0"}"#),
        Some(&((PHASE_ONE + PHASE_TWO) as i64)),
        "every ACKed delta is replayed"
    );
    assert_eq!(
        replay.get(r#"wal.recovery.apply.errors{shard="0"}"#),
        Some(&0)
    );
    assert_eq!(
        replay.get(r#"wal.recovery.last.ticket{shard="0"}"#),
        Some(&((PHASE_ONE + PHASE_TWO) as i64))
    );
    let recovered_line = detect_fresh_line(&mut client);

    let oracle = spawn_serve(&[]);
    let mut oracle_client = Client::connect(&oracle.addr).unwrap();
    for round in 0..PHASE_ONE + PHASE_TWO {
        oracle_client.apply(vec![op(round)]).unwrap();
    }
    oracle_client.sync().unwrap();
    let oracle_line = detect_fresh_line(&mut oracle_client);

    assert_eq!(
        recovered_line, oracle_line,
        "recovered DETECT FRESH must be byte-identical to the oracle's"
    );
    assert_ne!(
        phase_one_line, recovered_line,
        "phase-two deltas are part of the recovered state"
    );

    // The recovered server keeps accepting writes durably.
    client.apply(vec![op(100)]).unwrap();
    client.sync().unwrap();
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A follower built on an in-process server replays the leader's WAL and
/// reaches the same epoch and report hash — then keeps up across more writes.
#[test]
fn follower_replays_to_the_leader_epoch() {
    let dir = temp_dir("follow");

    // Durable leader, in-process.
    let (leader, _recovery) =
        Server::bind_durable(ready_session(), ServeConfig::default(), &dir).unwrap();
    let leader_addr = leader.local_addr().unwrap();
    let leader_handle = leader.handle();
    let leader_thread = std::thread::spawn(move || leader.run().unwrap());

    let mut feed = Client::connect(leader_addr).unwrap();
    for round in 0..5 {
        feed.apply(vec![op(round)]).unwrap();
    }
    feed.sync().unwrap();

    // Follower: an ordinary in-memory server over the same base, fed by
    // replaying the leader's log.
    let follower_server = Server::bind(ready_session(), ServeConfig::default()).unwrap();
    let follower_hub = follower_server.handle().hub().clone();
    let follower_handle = follower_server.handle();
    let follower_thread = std::thread::spawn(move || follower_server.run().unwrap());

    let mut follower =
        Follower::new(Client::connect(leader_addr).unwrap(), follower_hub.clone()).unwrap();
    let progress = follower.catch_up(Duration::from_secs(30)).unwrap();
    assert_eq!(progress.deltas_applied, 5);
    assert!(progress.checkpoints_verified >= 1);

    let leader_snap = leader_handle.hub().shard_hubs()[0].snapshot();
    let follower_snap = follower_hub.shard_hubs()[0].snapshot();
    assert_eq!(follower_snap.epoch(), leader_snap.epoch());
    assert_eq!(follower_snap.report(), leader_snap.report());
    assert_eq!(
        report_hash(follower_snap.report()),
        report_hash(leader_snap.report())
    );

    // More leader writes; the follower catches up incrementally.
    for round in 5..9 {
        feed.apply(vec![op(round)]).unwrap();
    }
    feed.sync().unwrap();
    let progress = follower.catch_up(Duration::from_secs(30)).unwrap();
    assert_eq!(progress.deltas_applied, 4);
    assert_eq!(follower_hub.epoch(), leader_handle.hub().epoch());
    assert_eq!(
        follower_hub.merged().unwrap().report,
        leader_handle.hub().merged().unwrap().report
    );

    follower_handle.shutdown();
    leader_handle.shutdown();
    follower_thread.join().unwrap();
    leader_thread.join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The `--follow` flag end to end: a follower *process* replicates a durable
/// leader *process* and serves the leader's state to its own clients.
#[test]
fn follow_flag_replicates_between_processes() {
    let dir = temp_dir("follow-bin");
    let dir_flag = dir.to_str().unwrap();

    let leader = spawn_serve(&["--wal-dir", dir_flag]);
    let mut feed = Client::connect(&leader.addr).unwrap();
    for round in 0..6 {
        feed.apply(vec![op(round)]).unwrap();
    }
    feed.sync().unwrap();
    let leader_line = detect_fresh_line(&mut feed);

    let follower = spawn_serve(&["--follow", &leader.addr]);
    let mut observer = Client::connect(&follower.addr).unwrap();
    // The follower polls on a short interval; wait for it to converge.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let follower_line = loop {
        let line = detect_fresh_line(&mut observer);
        if line == leader_line {
            break line;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "follower never converged: leader `{leader_line}`, follower `{line}`"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    assert_eq!(follower_line, leader_line);
    drop(follower);
    drop(leader);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `--wal-dir` holding a log from before the per-shard layout (records in
/// a top-level `ecfd.wal`, no `shard-0/`) is refused with or without
/// `--recover` — no shard would open it, so serving would silently drop
/// ACKed deltas — and, moved into `shard-0/` as the refusal says, recovers:
/// tickets and row ids continue where the old log stopped.
#[test]
fn legacy_top_level_log_is_refused_until_moved_into_shard_zero() {
    const LOGGED: usize = 3;
    let dir = temp_dir("legacy-layout");
    let dir_flag = dir.to_str().unwrap();

    // What the single-writer server logged: a bare durable hub's unscheduled
    // records, straight into the directory.
    {
        let (mut writer, hub, _) =
            Writer::bootstrap_durable(ready_session(), 64, 32, &dir).unwrap();
        let schema = hub.snapshot().schema().clone();
        for round in 0..LOGGED {
            let delta = Request::ops_to_delta(&[op(round)], &schema).unwrap();
            hub.submit(delta).unwrap();
            writer.step(&hub, Duration::from_millis(50)).unwrap();
        }
    }

    for flags in [
        &["--wal-dir", dir_flag][..],
        &["--wal-dir", dir_flag, "--recover"],
    ] {
        let refused = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--addr", "127.0.0.1:0"])
            .args(flags)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .output()
            .unwrap();
        assert_eq!(refused.status.code(), Some(2), "legacy layout, {flags:?}");
        let stderr = String::from_utf8_lossy(&refused.stderr);
        assert!(
            stderr.contains("shard-0") && stderr.contains("mv "),
            "the refusal names the move: {stderr}"
        );
    }

    std::fs::create_dir(dir.join("shard-0")).unwrap();
    std::fs::rename(
        dir.join(ecfd_wal::WAL_FILE_NAME),
        dir.join("shard-0").join(ecfd_wal::WAL_FILE_NAME),
    )
    .unwrap();
    let recovered = spawn_serve(&["--wal-dir", dir_flag, "--recover"]);
    let mut client = Client::connect(&recovered.addr).unwrap();
    let Response::Info {
        accepted, applied, ..
    } = client.info().unwrap()
    else {
        panic!("INFO response expected");
    };
    assert_eq!((accepted, applied), (LOGGED as u64, LOGGED as u64));
    assert_eq!(client.apply(vec![op(LOGGED)]).unwrap(), LOGGED as u64 + 1);
    client.sync().unwrap();
    let recovered_line = detect_fresh_line(&mut client);

    let oracle = spawn_serve(&[]);
    let mut oracle_client = Client::connect(&oracle.addr).unwrap();
    for round in 0..=LOGGED {
        oracle_client.apply(vec![op(round)]).unwrap();
        oracle_client.sync().unwrap();
    }
    assert_eq!(recovered_line, detect_fresh_line(&mut oracle_client));
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}
