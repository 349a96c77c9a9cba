//! End-to-end tests of the observability surface: the `STATS` / `INFO`
//! protocol verbs against the real `serve` binary at its default one shard
//! (each spawn gets its own process, so its metrics registry starts from
//! zero), plus the in-process [`Hub::metrics`] handle. The exact counters
//! pinned here are the ones the pre-unification single-writer server showed
//! for the same script: one shard must cost what that server cost.
//!
//! [`Hub::metrics`]: ecfd_serve::Hub

use ecfd_obs::parse_exposition;
use ecfd_serve::protocol::TupleOp;
use ecfd_serve::{Client, Request, Response, ServeConfig, Server};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Child, Command, Stdio};

const SEMANTIC_PASSES: &str = r#"detect.pass.ns.count{backend="semantic"}"#;

fn op(round: usize) -> TupleOp {
    let tag = format!("{:07}", 8000000 + round);
    TupleOp::insert(["519", &tag, "Gen", "Any St.", "Albany", "12239"])
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
    std::thread::spawn(move || for _ in lines.by_ref() {});
    Served { child, addr }
}

/// Scrapes `STATS` into a key → value map.
fn scrape(client: &mut Client, prefix: Option<&str>) -> BTreeMap<String, i64> {
    let text = client.stats(prefix).unwrap();
    parse_exposition(&text).unwrap().into_iter().collect()
}

/// `STATS` counters move as APPLY / SYNC / DETECT traffic flows, the
/// exposition is sorted and prefix-filterable, and `INFO` reports the
/// in-memory mode.
#[test]
fn stats_counters_move_with_traffic() {
    let server = spawn_serve(&[]);
    let mut client = Client::connect(&server.addr).unwrap();

    // Baseline scrape (this STATS itself is counted from now on).
    let before = scrape(&mut client, None);
    // Boot detected the base instance once — bootstrap neither re-loads nor
    // re-detects the session it was handed.
    assert_eq!(before.get(SEMANTIC_PASSES), Some(&1));
    assert_eq!(before.get("detect.rows.scanned"), Some(&6));

    // SYNC after every APPLY, so writer batching cannot vary a count.
    client.apply(vec![op(0)]).unwrap();
    client.sync().unwrap();
    client.apply(vec![op(1)]).unwrap();
    client.sync().unwrap();

    // Reads of a published epoch scan nothing: the one-shard merged view is
    // the published report, not a re-detection.
    let settled = scrape(&mut client, Some("detect."));
    assert!(matches!(
        client.detect(false).unwrap(),
        Response::Report { .. }
    ));
    assert!(matches!(client.epoch().unwrap(), Response::Epoch { .. }));
    assert!(matches!(
        client.explain().unwrap(),
        Response::Evidence { .. }
    ));
    assert_eq!(
        scrape(&mut client, Some("detect.")),
        settled,
        "cached DETECT / EPOCH / EXPLAIN run no detection pass"
    );

    let detect = client.detect(true).unwrap();
    assert!(matches!(detect, Response::Report { .. }));

    let text = client.stats(None).unwrap();
    // Deterministic: sorted lines, trailing newline, parseable, stable
    // across back-to-back scrapes of a quiesced server.
    assert!(text.ends_with('\n'));
    let mut sorted: Vec<&str> = text.lines().collect();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        text.lines().collect::<Vec<_>>(),
        "sorted exposition"
    );
    let after = scrape(&mut client, None);

    let delta =
        |key: &str| after.get(key).copied().unwrap_or(0) - before.get(key).copied().unwrap_or(0);
    // Ingest + writer pipeline: per-shard series, one shard included.
    assert_eq!(delta(r#"ingest.accepted{shard="0"}"#), 2);
    assert_eq!(delta(r#"writer.apply.ns.count{shard="0"}"#), 2);
    assert_eq!(delta(r#"writer.epochs{shard="0"}"#), 2);
    assert_eq!(
        after.get(r#"writer.epoch.lag{shard="0"}"#),
        Some(&0),
        "synced ⇒ no lag"
    );
    // Per-verb serving metrics.
    assert_eq!(delta(r#"serve.requests{verb="APPLY"}"#), 2);
    assert_eq!(delta(r#"serve.requests{verb="SYNC"}"#), 2);
    assert_eq!(delta(r#"serve.requests{verb="DETECT"}"#), 2);
    assert!(delta(r#"serve.request.ns.count{verb="APPLY"}"#) >= 2);
    assert!(after.contains_key(r#"serve.requests{verb="STATS"}"#));
    // DETECT FRESH ran exactly one frozen semantic pass over the 8 rows, on
    // top of the one that warmed the incremental maintainer at the first
    // apply (10 rows scanned while applying, the single-writer server's
    // figure for this script).
    assert_eq!(delta(SEMANTIC_PASSES), 2);
    assert_eq!(delta("detect.rows.scanned"), 10 + 8);
    // No WAL attached: the wal.* family never appears.
    assert!(!after.keys().any(|k| k.starts_with("wal.")));

    // Prefix filtering returns exactly the matching subset.
    let ingest_only = scrape(&mut client, Some("ingest."));
    assert!(!ingest_only.is_empty());
    assert!(ingest_only.keys().all(|k| k.starts_with("ingest.")));
    let full = scrape(&mut client, None);
    for (key, value) in &ingest_only {
        assert_eq!(full.get(key), Some(value), "prefix scrape is a subset");
    }
    let none = client.stats(Some("no.such.prefix.")).unwrap();
    assert_eq!(none, "", "unmatched prefix renders empty");

    // INFO on the in-memory server.
    let Response::Info {
        version,
        epoch,
        accepted,
        applied,
        wal,
        follower,
    } = client.info().unwrap()
    else {
        panic!("INFO response expected");
    };
    assert!(!version.is_empty());
    assert!(epoch >= 1);
    assert_eq!(accepted, 2);
    assert_eq!(applied, 2, "SYNC barriered on both tickets");
    assert_eq!(wal, "off");
    assert!(!follower);

    // A malformed line is answered with ERR and counted as INVALID.
    let mut raw = std::net::TcpStream::connect(&server.addr).unwrap();
    raw.write_all(b"BOGUS LINE\n").unwrap();
    let mut answer = String::new();
    BufReader::new(raw.try_clone().unwrap())
        .read_line(&mut answer)
        .unwrap();
    assert!(answer.starts_with("ERR "), "got `{answer}`");
    let after_invalid = scrape(&mut client, Some("serve.requests"));
    assert_eq!(
        after_invalid.get(r#"serve.requests{verb="INVALID"}"#),
        Some(&1)
    );

    // A line that outgrows the server's 1 MiB cap without a newline is
    // refused, counted, and its connection closed — the server buffers no
    // further — while other connections carry on.
    let mut hog = std::net::TcpStream::connect(&server.addr).unwrap();
    hog.write_all(&vec![b'A'; (1 << 20) + 1]).unwrap();
    let mut hog = BufReader::new(hog);
    let mut answer = String::new();
    hog.read_line(&mut answer).unwrap();
    assert!(answer.starts_with("ERR "), "got `{answer}`");
    answer.clear();
    assert_eq!(hog.read_line(&mut answer).unwrap(), 0, "socket closed");
    client.ping().unwrap();
    let after_hog = scrape(&mut client, Some("serve.requests"));
    assert_eq!(after_hog.get(r#"serve.requests{verb="INVALID"}"#), Some(&2));

    client.quit().unwrap();
}

/// `REPAIR-PLAN` plans from what the shard already published: it compiles,
/// encodes and scans nothing, so no detection pass runs.
#[test]
fn repair_plan_costs_no_compile_encode_or_scan() {
    let server = spawn_serve(&[]);
    let mut client = Client::connect(&server.addr).unwrap();
    client.apply(vec![op(0)]).unwrap();
    client.sync().unwrap();

    let counters = [
        "detect.detectors.compiled",
        "relation.rows.encoded",
        "detect.rows.scanned",
        SEMANTIC_PASSES,
    ];
    let before = scrape(&mut client, None);
    let Response::Plan {
        deletions,
        modifications,
        ..
    } = client.repair_plan().unwrap()
    else {
        panic!("PLAN response expected");
    };
    assert!(deletions + modifications > 0, "the demo instance is dirty");
    let after = scrape(&mut client, None);
    for key in counters {
        assert_eq!(
            after.get(key).copied().unwrap_or(0) - before.get(key).copied().unwrap_or(0),
            0,
            "REPAIR-PLAN moved {key}"
        );
    }
    client.quit().unwrap();
}

/// `EXPLAIN PLAN` against the real binary: the rendered plan survives the
/// wire (percent-escaped multi-line payload, `parse(render(x)) == x`), the
/// demo instance's φ1/φ2 fuse into one shared scan, and a malformed
/// `EXPLAIN` mode is answered with `ERR` and counted under `INVALID`.
#[test]
fn explain_plan_round_trips_over_the_wire() {
    let server = spawn_serve(&[]);
    let mut client = Client::connect(&server.addr).unwrap();

    // The typed client path.
    let text = client.explain_plan().unwrap();
    assert!(text.ends_with('\n'), "rendered plan ends with a newline");
    let lines: Vec<&str> = text.lines().collect();
    // φ1 and φ2 both scan on X = [CT], so the fused plan has one shared
    // scan feeding three flag operators (φ1's two patterns + φ2's one).
    assert!(
        lines[0].starts_with("plan table=cust mode=fused"),
        "header line, got `{}`",
        lines[0]
    );
    assert!(lines[0].ends_with("scans=1"), "φ1/φ2 share one scan");
    assert_eq!(lines[1], "scan[0] x=[CT]");
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.trim_start().starts_with("flag"))
            .count(),
        3,
        "three pattern tuples become three flag operators"
    );

    // The raw wire line is one PLANTEXT token that round-trips.
    let response = client.request(&Request::ExplainPlan).unwrap();
    let Response::PlanText { text: wire_text } = &response else {
        panic!("PLANTEXT response expected");
    };
    assert_eq!(*wire_text, text, "stable across requests");
    let line = response.render();
    assert!(line.starts_with("PLANTEXT LINES "), "got `{line}`");
    assert_eq!(Response::parse(&line), Ok(response), "wire round trip");

    // A bad EXPLAIN mode is rejected before dispatch and counted INVALID.
    let mut raw = std::net::TcpStream::connect(&server.addr).unwrap();
    raw.write_all(b"EXPLAIN SIDEWAYS\n").unwrap();
    let mut answer = String::new();
    BufReader::new(raw.try_clone().unwrap())
        .read_line(&mut answer)
        .unwrap();
    assert!(answer.starts_with("ERR "), "got `{answer}`");
    let counters = scrape(&mut client, Some("serve.requests"));
    assert_eq!(
        counters.get(r#"serve.requests{verb="INVALID"}"#),
        Some(&1),
        "EXPLAIN SIDEWAYS is counted under the INVALID pseudo-verb"
    );
    assert_eq!(
        counters.get(r#"serve.requests{verb="EXPLAIN-PLAN"}"#),
        Some(&2),
        "both EXPLAIN PLAN requests counted under their own verb"
    );

    client.quit().unwrap();
}

/// Durable serving reports WAL metrics, and a `--recover` restart exposes
/// the recovery-replay gauges and the `recovered` WAL mode over `INFO`.
#[test]
fn wal_metrics_survive_recover() {
    const DELTAS: usize = 5;
    let dir = std::env::temp_dir().join(format!("ecfd-it-stats-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_flag = dir.to_str().unwrap().to_string();

    let leader = spawn_serve(&["--wal-dir", &dir_flag]);
    let mut client = Client::connect(&leader.addr).unwrap();
    // Durable boot is still one detection pass: with no merged checkpoint to
    // verify, nothing is re-derived.
    assert_eq!(
        scrape(&mut client, Some("detect.")).get(SEMANTIC_PASSES),
        Some(&1)
    );
    for round in 0..DELTAS {
        client.apply(vec![op(round)]).unwrap();
        client.sync().unwrap();
    }

    let stats = scrape(&mut client, Some("wal."));
    // The bootstrap anchor, then one record per delta and one per epoch
    // checkpoint, each fsynced on its own (SYNC after every APPLY).
    let logged = 1 + 2 * DELTAS as i64;
    assert_eq!(stats.get(r#"wal.append.count{shard="0"}"#), Some(&logged));
    assert_eq!(stats.get(r#"wal.fsync.count{shard="0"}"#), Some(&logged));
    assert!(stats.get(r#"wal.bytes{shard="0"}"#).copied().unwrap_or(0) > 0);
    assert_eq!(
        stats.get(r#"wal.fsync.ns.count{shard="0"}"#),
        Some(&logged),
        "fsync latency histogram populated"
    );
    let Response::Info { wal, .. } = client.info().unwrap() else {
        panic!("INFO response expected");
    };
    assert_eq!(wal, "durable", "fresh log");
    drop(leader); // SIGKILL mid-everything.
    drop(client);

    let recovered = spawn_serve(&["--wal-dir", &dir_flag, "--recover"]);
    let mut client = Client::connect(&recovered.addr).unwrap();
    let stats = scrape(&mut client, Some("wal.recovery."));
    assert_eq!(
        stats.get(r#"wal.recovery.deltas{shard="0"}"#),
        Some(&(DELTAS as i64))
    );
    assert_eq!(
        stats.get(r#"wal.recovery.apply.errors{shard="0"}"#),
        Some(&0)
    );
    assert_eq!(
        stats.get(r#"wal.recovery.last.ticket{shard="0"}"#),
        Some(&(DELTAS as i64))
    );
    let Response::Info {
        wal,
        accepted,
        applied,
        ..
    } = client.info().unwrap()
    else {
        panic!("INFO response expected");
    };
    assert_eq!(wal, "recovered");
    assert_eq!(accepted, DELTAS as u64, "ticket sequence continues the log");
    assert_eq!(applied, DELTAS as u64, "recovery replays everything");

    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The in-process handle: `Hub::metrics()` reads the same registry `STATS`
/// renders. Delta-based assertions only — the registry is process-wide and
/// other tests in this binary may be running concurrently.
#[test]
fn hub_metrics_is_the_stats_registry() {
    let mut session = ecfd_session::Session::new();
    session
        .load(
            ecfd_relation::Relation::with_tuples(
                ecfd_relation::Schema::builder("cust")
                    .attr("CT", ecfd_relation::DataType::Str)
                    .attr("AC", ecfd_relation::DataType::Str)
                    .build(),
                [ecfd_relation::Tuple::from_iter(["Albany", "518"])],
            )
            .unwrap(),
        )
        .unwrap();
    session
        .register_text("cust: [CT] -> [AC] | [], { {Albany} || {518} }")
        .unwrap();

    let server = Server::bind(session, ServeConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let hub = handle.hub().clone();
    let thread = std::thread::spawn(move || server.run().unwrap());

    let shard = [("shard", "0")];
    let metrics = hub.shard_hubs()[0].metrics();
    let accepted_before = metrics.counter_with("ingest.accepted", &shard).get();
    let mut client = Client::connect(addr).unwrap();
    client
        .apply(vec![TupleOp::insert(["Troy", "518"])])
        .unwrap();
    client.sync().unwrap();
    assert!(
        metrics.counter_with("ingest.accepted", &shard).get() > accepted_before,
        "the hub handle observes protocol traffic"
    );

    // The exposition the wire returns parses and contains the same counter.
    let text = client.stats(Some("ingest.accepted")).unwrap();
    let parsed: BTreeMap<String, i64> = parse_exposition(&text).unwrap().into_iter().collect();
    assert!(parsed.contains_key(r#"ingest.accepted{shard="0"}"#));

    // The raw wire line carries the payload as one escaped token.
    let rendered = Request::Stats {
        prefix: Some("ingest.".into()),
    }
    .render();
    assert_eq!(rendered, "STATS ingest.");

    client.quit().unwrap();
    handle.shutdown();
    thread.join().unwrap();
}
