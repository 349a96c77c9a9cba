//! Crash recovery of a sharded deployment, driving the real `serve` binary:
//! kill -9 a `--shards 4` server mid-stream, restart with `--recover`, and
//! the merged `DETECT FRESH` answer is byte-identical to an unsharded oracle
//! fed the same deltas — with every shard's `wal.recovery.*` gauges exposed
//! under its own `{shard=N}` label.

use ecfd_serve::protocol::TupleOp;
use ecfd_serve::{Client, Request, Response};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

const SHARD_FLAGS: [&str; 4] = ["--shards", "4", "--shard-key", "CT"];

/// Deltas over the demo instance (Fig. 1 + φ1/φ2) that spread across the
/// `CT`-hashed shards and keep the report non-trivial.
fn op(round: usize) -> TupleOp {
    let tag = format!("{:07}", 9000000 + round);
    match round % 4 {
        0 => TupleOp::insert(["519", &tag, "Gen", "Any St.", "Albany", "12239"]),
        1 => TupleOp::insert(["999", &tag, "Gen", "Any St.", "NYC", "10099"]),
        2 => TupleOp::insert(["518", &tag, "Gen", "Any St.", "Troy", "12181"]),
        _ => TupleOp::insert(["212", &tag, "Gen", "Any St.", "Colonie", "12205"]),
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

/// Spawns the `serve` binary and waits for its "serving on {addr}" line
/// (sharded servers append a "(N shard(s) by KEY)" suffix after the addr).
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
        if let Some(rest) = line.strip_prefix("serving on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("address after the prefix")
                .to_string();
        }
    };
    std::thread::spawn(move || for _ in lines.by_ref() {});
    Served { child, addr }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecfd-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The violation content of a `DETECT FRESH` answer — everything after the
/// epoch, which legitimately differs between a sharded deployment (sum of
/// shard epochs) and an unsharded oracle.
fn detect_fresh_body(client: &mut Client) -> String {
    let response = client.request(&Request::Detect { fresh: true }).unwrap();
    assert!(matches!(response, Response::Report { .. }));
    let line = response.render();
    let at = line.find("TOTAL").expect("REPORT line carries TOTAL");
    line[at..].to_string()
}

#[test]
fn kill_nine_sharded_then_recover_matches_unsharded_oracle() {
    const PHASE_ONE: usize = 5;
    const PHASE_TWO: usize = 4;
    let dir = temp_dir("sharded-recover");
    let dir_flag = dir.to_str().unwrap().to_string();

    // Phase 1: a durable 4-shard server ACKs a delta stream.
    let leader = spawn_serve(&[&SHARD_FLAGS[..], &["--wal-dir", &dir_flag]].concat());
    let mut client = Client::connect(&leader.addr).unwrap();
    for round in 0..PHASE_ONE {
        client.apply(vec![op(round)]).unwrap();
    }
    client.sync().unwrap();
    let phase_one_body = detect_fresh_body(&mut client);

    // Phase 2: more ACKed deltas, then SIGKILL — no shutdown handshake.
    for round in PHASE_ONE..PHASE_ONE + PHASE_TWO {
        client.apply(vec![op(round)]).unwrap();
    }
    // Quiesce and take one cached DETECT: a merged read in durable mode
    // persists `merged.ckpt` at the current epoch vector, which is the cut
    // recovery replays back to — so the restart can re-verify the merged
    // report hash, not just the per-shard ones.
    client.sync().unwrap();
    let merged_pre_kill = detect_fresh_body(&mut client);
    let cached = client.request(&Request::Detect { fresh: false }).unwrap();
    assert!(matches!(cached, Response::Report { .. }));
    let pre_kill = client.stats(Some("wal.")).unwrap();
    let pre_kill: BTreeMap<String, i64> = ecfd_obs::parse_exposition(&pre_kill)
        .unwrap()
        .into_iter()
        .collect();
    assert!(
        pre_kill
            .iter()
            .any(|(name, v)| name.starts_with("wal.fsync.count{") && *v > 0),
        "ACKed sharded deltas imply per-shard fsyncs before the crash: {pre_kill:?}"
    );
    drop(leader); // SIGKILL, mid-everything.
    drop(client);

    // A sharded restart without --recover must refuse the non-empty logs.
    let refused = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0"])
        .args(SHARD_FLAGS)
        .args(["--wal-dir", &dir_flag])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(
        refused.code(),
        Some(2),
        "non-empty shard WALs without --recover"
    );

    // Restart with --recover: CHECK passes (merged == composed re-detect)
    // and the merged answer is byte-identical to an unsharded oracle fed the
    // same ops from scratch.
    let recovered =
        spawn_serve(&[&SHARD_FLAGS[..], &["--wal-dir", &dir_flag, "--recover"]].concat());
    let mut client = Client::connect(&recovered.addr).unwrap();
    let (_, consistent) = client.check().unwrap();
    assert!(consistent, "recovered merged report must pass CHECK");

    let replay = client.stats(Some("wal.recovery.")).unwrap();
    let replay: BTreeMap<String, i64> = ecfd_obs::parse_exposition(&replay)
        .unwrap()
        .into_iter()
        .collect();
    // Every shard that received deltas reports its own labeled recovery
    // gauges, and the per-shard replay counts sum to the full ACKed stream.
    let replayed_total: i64 = replay
        .iter()
        .filter(|(name, _)| name.starts_with("wal.recovery.deltas{"))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(
        replayed_total,
        (PHASE_ONE + PHASE_TWO) as i64,
        "per-shard wal.recovery.deltas must cover every ACKed delta: {replay:?}"
    );
    assert!(
        replay
            .keys()
            .filter(|name| name.starts_with("wal.recovery.deltas{shard="))
            .count()
            >= 2,
        "the CT-hashed stream spreads over multiple shards: {replay:?}"
    );
    for (name, value) in &replay {
        if name.starts_with("wal.recovery.apply.errors{") {
            assert_eq!(*value, 0, "{name} must be zero");
        }
    }
    // The merged checkpoint was re-verified against the replayed state.
    assert_eq!(
        replay.get("wal.recovery.merged.verified"),
        Some(&1),
        "merged.ckpt matches the recovered epochs, so its hash must verify: {replay:?}"
    );
    let recovered_body = detect_fresh_body(&mut client);
    assert_eq!(
        recovered_body, merged_pre_kill,
        "recovery reproduces the exact pre-kill merged answer"
    );
    // The router resumes the global ticket the logs carried, not 1.
    let Response::Info {
        accepted, applied, ..
    } = client.info().unwrap()
    else {
        panic!("INFO response expected");
    };
    let logged = (PHASE_ONE + PHASE_TWO) as u64;
    assert_eq!(accepted, logged, "ticket sequence continues the log");
    assert_eq!(applied, logged, "recovery replays everything");

    // The unsharded oracle: a fresh in-memory demo server fed the same ops.
    let oracle = spawn_serve(&[]);
    let mut oracle_client = Client::connect(&oracle.addr).unwrap();
    for round in 0..PHASE_ONE + PHASE_TWO {
        oracle_client.apply(vec![op(round)]).unwrap();
    }
    oracle_client.sync().unwrap();
    let oracle_body = detect_fresh_body(&mut oracle_client);

    assert_eq!(
        recovered_body, oracle_body,
        "recovered merged DETECT FRESH must be byte-identical to the unsharded oracle"
    );
    assert_ne!(
        phase_one_body, recovered_body,
        "phase-two deltas are part of the recovered state"
    );

    // The recovered sharded server keeps accepting durable writes.
    client.apply(vec![op(100)]).unwrap();
    client.sync().unwrap();
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}
