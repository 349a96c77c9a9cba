//! Snapshot-isolation and protocol tests of the serving layer (`ecfd_serve`).
//!
//! The central assertion (the PR's acceptance criterion): with a writer
//! applying mixed insert/delete deltas at full speed, four concurrent
//! readers each complete `detect` round-trips whose reports are
//! byte-identical to a single-threaded from-scratch detect at the same
//! epoch — i.e. every observed epoch is internally consistent.

use ecfd::prelude::*;
use ecfd::serve::protocol::TupleOp;
use ecfd::serve::{Client, Request, Response, ServeConfig, Server, ShardedConfig, Writer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn cust_schema() -> Schema {
    Schema::builder("cust")
        .attr("AC", DataType::Str)
        .attr("PN", DataType::Str)
        .attr("NM", DataType::Str)
        .attr("STR", DataType::Str)
        .attr("CT", DataType::Str)
        .attr("ZIP", DataType::Str)
        .build()
}

/// Fig. 1's D0 plus φ1/φ2, as a ready session.
fn ready_session() -> Session {
    let data = Relation::with_tuples(
        cust_schema(),
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

/// A stream of mixed deltas cycling through inserts and deletes of rows that
/// interact with φ1's enforcement groups (Albany/Troy/Colonie) and φ2's NYC
/// pattern, so violation counts keep changing under the readers.
fn delta_stream(round: usize) -> Delta {
    let tag = format!("{:07}", 5000000 + round);
    match round % 4 {
        0 => Delta::insert_only(vec![Tuple::from_iter([
            "519", &tag, "Gen", "Any St.", "Albany", "12239",
        ])]),
        1 => Delta {
            insertions: vec![Tuple::from_iter([
                "999", &tag, "Gen", "Any St.", "NYC", "10099",
            ])],
            deletions: vec![Tuple::from_iter([
                "519",
                &format!("{:07}", 5000000 + round - 1),
                "Gen",
                "Any St.",
                "Albany",
                "12239",
            ])],
        },
        2 => Delta::insert_only(vec![Tuple::from_iter([
            "518", &tag, "Gen", "Any St.", "Troy", "12181",
        ])]),
        _ => Delta::delete_only(vec![Tuple::from_iter([
            "999",
            &format!("{:07}", 5000000 + round - 2),
            "Gen",
            "Any St.",
            "NYC",
            "10099",
        ])]),
    }
}

/// ≥ 4 concurrent readers complete verified detect round-trips while the
/// writer applies deltas at full speed: every report served for an epoch is
/// byte-identical to a single-threaded from-scratch detect over that epoch's
/// frozen view, and evidence collapses to exactly that report.
#[test]
fn concurrent_readers_observe_consistent_epochs_under_write_load() {
    const READERS: usize = 4;
    const MIN_ROUNDS_PER_READER: usize = 25;
    const WRITER_ROUNDS: usize = 60;

    let (mut writer, hub) = Writer::bootstrap(ready_session(), 16, 8).unwrap();
    let initial_epoch = hub.epoch();
    let writing = AtomicBool::new(true);

    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let hub = &hub;
                let writing = &writing;
                scope.spawn(move || {
                    let mut epochs_seen = std::collections::BTreeSet::new();
                    let mut rounds = 0usize;
                    // Keep verifying at least MIN_ROUNDS and until the writer
                    // stops, so every reader genuinely overlaps the write
                    // load instead of finishing before the first publish.
                    while rounds < MIN_ROUNDS_PER_READER || writing.load(Ordering::Relaxed) {
                        rounds += 1;
                        let snap = hub.snapshot();
                        // From-scratch detection over this epoch's frozen
                        // view — deterministic, so identical to a
                        // single-threaded pass.
                        let (fresh_report, fresh_evidence) =
                            snap.detect_fresh_with_evidence().unwrap();
                        assert_eq!(
                            &fresh_report,
                            snap.report(),
                            "epoch {} served a report that from-scratch \
                             detection contradicts",
                            snap.epoch()
                        );
                        assert_eq!(
                            fresh_evidence.normalized(),
                            snap.evidence().normalized(),
                            "epoch {} evidence drifted",
                            snap.epoch()
                        );
                        assert_eq!(
                            snap.evidence().detection_report(),
                            *snap.report(),
                            "evidence must collapse to the published report"
                        );
                        epochs_seen.insert(snap.epoch());
                    }
                    (rounds, epochs_seen)
                })
            })
            .collect();

        // The writer: submit + apply at full speed, no pacing.
        for round in 0..WRITER_ROUNDS {
            hub.submit(delta_stream(round)).unwrap();
            writer.step(&hub, Duration::from_millis(50)).unwrap();
        }
        writing.store(false, Ordering::Relaxed);

        let mut all_epochs = std::collections::BTreeSet::new();
        for handle in readers {
            let (rounds, seen) = handle.join().unwrap();
            assert!(rounds >= MIN_ROUNDS_PER_READER);
            assert!(
                seen.len() <= WRITER_ROUNDS + 1,
                "epochs are published by the writer only"
            );
            all_epochs.extend(seen);
        }
        assert!(
            *all_epochs.iter().max().unwrap() > initial_epoch,
            "readers should have observed the state advancing (saw {all_epochs:?})"
        );
    });

    assert_eq!(hub.stats().write_errors, 0, "{:?}", hub.last_error());
    // After the storm: the final published state equals a clean-room detect
    // over the final session state.
    let final_snap = hub.snapshot();
    assert_eq!(&final_snap.detect_fresh().unwrap(), final_snap.report());
}

/// An old snapshot keeps answering for its own epoch after arbitrarily many
/// later writes — and a same-epoch re-extraction is identical.
#[test]
fn snapshots_pin_their_epoch() {
    let (mut writer, hub) = Writer::bootstrap(ready_session(), 16, 8).unwrap();
    let pinned = hub.snapshot();
    let pinned_report = pinned.report().clone();
    let pinned_rows = pinned.num_rows();

    for round in 0..12 {
        hub.submit(delta_stream(round)).unwrap();
        writer.step(&hub, Duration::from_millis(50)).unwrap();
    }
    assert!(hub.epoch() > pinned.epoch());
    assert_eq!(pinned.num_rows(), pinned_rows);
    assert_eq!(pinned.report(), &pinned_report);
    assert_eq!(&pinned.detect_fresh().unwrap(), &pinned_report);
    // The materialised relation of the old snapshot still has the old rows.
    assert_eq!(pinned.to_relation().unwrap().len(), pinned_rows);
}

/// A response's wire line without its `EPOCH <n>` field — the payload, which
/// must not depend on the shard count (the global epoch, a sum of shard
/// epochs, does).
fn payload(response: &Response) -> String {
    let line = response.render();
    let mut tokens = line.split(' ');
    let mut kept = Vec::new();
    while let Some(token) = tokens.next() {
        if token == "EPOCH" {
            tokens.next();
        } else {
            kept.push(token);
        }
    }
    kept.join(" ")
}

/// Protocol round-trip over a live server: APPLY → SYNC → DETECT/CHECK/
/// EXPLAIN/REPAIR-PLAN from two client connections, then shutdown. Returns
/// the epoch-free payloads of every REPORT / CHECKED / EVIDENCE / PLAN
/// answer, in script order.
fn protocol_script(sharding: ShardedConfig) -> Vec<String> {
    let config = ServeConfig {
        sharding,
        ..ServeConfig::default()
    };
    let server = Server::bind(ready_session(), config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run().unwrap());
    let mut payloads = Vec::new();

    // Client A: liveness, baseline detect.
    let mut a = Client::connect(addr).unwrap();
    a.ping().unwrap();
    let response = a.detect(false).unwrap();
    payloads.push(payload(&response));
    let baseline = match response {
        Response::Report { total, sv, mv, .. } => (total, sv, mv),
        other => panic!("expected REPORT, got {other:?}"),
    };
    assert_eq!(baseline.0, 6);
    assert_eq!(baseline.1.len(), 2, "t1 and t4 violate φ1/φ2");
    assert!(baseline.2.is_empty());

    // Client B: stream a conflicting Albany row, barrier, observe.
    let mut b = Client::connect(addr).unwrap();
    let zoe = ["519", "7", "Zoe", "Pine St.", "Albany", "12239"];
    let ticket = b.apply(vec![TupleOp::insert(zoe)]).unwrap();
    assert!(ticket >= 1);
    let epoch_after = b.sync().unwrap();

    // Client A (unaware of B) now sees the new epoch, still consistent.
    let checked = a.request(&Request::Check).unwrap();
    payloads.push(payload(&checked));
    match checked {
        Response::Checked {
            epoch, consistent, ..
        } => {
            assert!(consistent);
            assert!(epoch >= epoch_after);
        }
        other => panic!("expected CHECKED, got {other:?}"),
    }
    let response = a.detect(true).unwrap();
    payloads.push(payload(&response));
    match response {
        Response::Report { total, mv, .. } => {
            assert_eq!(total, 7);
            assert_eq!(mv.len(), 2, "the two Albany rows now conflict");
        }
        other => panic!("expected REPORT, got {other:?}"),
    }
    let response = a.explain().unwrap();
    payloads.push(payload(&response));
    match response {
        Response::Evidence { sv, mv, .. } => {
            assert!(!sv.is_empty());
            assert_eq!(mv.len(), 2, "one violating group per φ1 pattern tuple");
            for group in &mv {
                assert_eq!(group.key, vec!["Albany".to_string()]);
                assert_eq!(group.rows.len(), 2);
            }
        }
        other => panic!("expected EVIDENCE, got {other:?}"),
    }
    let response = a.repair_plan().unwrap();
    payloads.push(payload(&response));
    match response {
        Response::Plan {
            deletions,
            modifications,
            ..
        } => assert!(deletions + modifications > 0, "the instance is dirty"),
        other => panic!("expected PLAN, got {other:?}"),
    }

    // Malformed and rejected requests come back as ERR, connection stays up.
    match a.request(&Request::Apply {
        ops: vec![TupleOp::insert(["too", "few"])],
    }) {
        Ok(Response::Err { message }) => assert!(message.contains("fields")),
        other => panic!("expected ERR, got {other:?}"),
    }
    a.ping().unwrap();

    // Escaped payloads survive the wire: a street with spaces round-trips.
    let spaced = ["212", "8888888", "Ann", "Fifth Ave. #2", "NYC", "10017"];
    b.apply(vec![TupleOp::insert(spaced)]).unwrap();
    b.sync().unwrap();
    let response = a.detect(false).unwrap();
    payloads.push(payload(&response));
    match response {
        Response::Report { total, .. } => assert_eq!(total, 8),
        other => panic!("expected REPORT, got {other:?}"),
    }

    a.quit().unwrap();
    b.quit().unwrap();
    handle.shutdown();
    let sessions = server_thread.join().unwrap();
    // The returned sessions own the final state: 8 rows between them, as the
    // last protocol answer said.
    let rows: usize = sessions
        .iter()
        .map(|session| session.report().map_or(0, |r| r.total_rows))
        .sum();
    assert_eq!(rows, 8);
    payloads
}

/// The protocol script answers the same at one shard and at two shards by
/// `CT`: identical REPORT / CHECKED / EVIDENCE / PLAN payloads, epoch fields
/// aside.
#[test]
fn serve_binary_protocol_round_trips_over_tcp() {
    let one = protocol_script(ShardedConfig::default());
    let two = protocol_script(ShardedConfig::new(2, "CT"));
    assert_eq!(one.len(), 6);
    assert_eq!(one, two);
}

/// Backpressure propagates to protocol clients: with a capacity-1 queue and
/// a slow writer, a second APPLY blocks until the writer drains — but SYNC
/// still completes once everything lands.
#[test]
fn apply_backpressure_then_sync_completes() {
    let config = ServeConfig {
        sharding: ShardedConfig {
            queue_capacity: 1,
            ..ShardedConfig::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::bind(ready_session(), config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    for round in 0..6 {
        let tag = format!("{:07}", 7000000 + round);
        client
            .apply(vec![TupleOp::insert([
                "519", &tag, "Gen", "Any St.", "Albany", "12239",
            ])])
            .unwrap();
    }
    let epoch = client.sync().unwrap();
    assert!(epoch > 0);
    match client.detect(false).unwrap() {
        Response::Report { total, .. } => assert_eq!(total, 12),
        other => panic!("expected REPORT, got {other:?}"),
    }
    let (_, consistent) = client.check().unwrap();
    assert!(consistent);
    client.quit().unwrap();
    handle.shutdown();
    server_thread.join().unwrap();
}
