//! One compile per registration and one encoding per table version, end to
//! end: a session entry compiles its constraint set into one detector, and
//! its backends, every INCDETECT seed, the repair engine and every snapshot
//! share that compile and its dictionary; and the entry encodes each version
//! of its table once — full passes, snapshots and seeds read the same
//! columns. The counters read here are process-global; this file holds a
//! single test, so it runs as its own binary and every count is exact.

use ecfd::datagen::constraints::workload_constraints;
use ecfd::datagen::{generate, generate_delta, CustConfig, UpdateConfig};
use ecfd::prelude::*;
use ecfd::repair::{repair_verified, EditDistanceCost, RepairEngine, RepairError, VerifiedRepair};

fn counter(name: &str) -> u64 {
    ecfd::obs::registry().counter(name).get()
}

/// `(detectors compiled, incremental seeds, rows encoded)` so far.
fn counts() -> (u64, u64, u64) {
    (
        counter("detect.detectors.compiled"),
        counter("detect.incremental.seeds"),
        counter("relation.rows.encoded"),
    )
}

fn rows(session: &Session) -> u64 {
    session.data("cust").expect("loaded").len() as u64
}

/// Reads the session's answer, asserts what the step just taken cost since
/// `last` — the read included — then that the answer equals an independent
/// from-scratch detector over the session's data. The oracle's own compile
/// and encode are left out of the next step's count.
fn after_step(
    session: &mut Session,
    last: &mut (u64, u64, u64),
    step: &str,
    want: (u64, u64, u64),
) {
    let answer = session.detect().expect("detect");
    let now = counts();
    assert_eq!(
        (now.0 - last.0, now.1 - last.1, now.2 - last.2),
        want,
        "{step}: (compiled, seeds, encoded)"
    );
    let data = session.data("cust").expect("loaded");
    let oracle = SemanticDetector::new(data.schema(), &workload_constraints())
        .expect("constraints compile")
        .detect(data)
        .expect("oracle pass");
    assert_eq!(answer, oracle, "{step}: the session's answer");
    assert_eq!(
        counts(),
        (now.0 + 1, now.1, now.2 + rows(session)),
        "{step}: only the oracle compiled and encoded"
    );
    *last = counts();
}

/// Rows a verified repair of the session's table under `options` encodes of
/// its own accord, on top of what the session's full pass and seed encode,
/// with the replica's outcome. Planning encodes nothing — every round plans
/// from the maintained evidence, keyed by values — so that is each round's
/// delta, applied through INCDETECT, plus the verifier's pass over the
/// repaired table. The planner does not depend on interning order, so a
/// replica repair of a copy under the same cost model does the same work;
/// the replica's own seed is left out.
fn repair_encodes(
    session: &Session,
    options: RepairOptions,
) -> (Result<VerifiedRepair, RepairError>, u64) {
    let data = session.data("cust").expect("loaded").clone();
    let set = session.constraints("cust").expect("registered");
    let engine = RepairEngine::from_set(set)
        .with_cost_model(EditDistanceCost::default())
        .with_options(options);
    let seed = data.len() as u64;
    let mut catalog = Catalog::new();
    catalog.create(data).expect("copy");
    let before = counter("relation.rows.encoded");
    let outcome = repair_verified(&engine, &mut catalog);
    let own = counter("relation.rows.encoded") - before - seed;
    let applied = match &outcome {
        Ok(repair) => {
            let deltas: u64 = repair.deltas().map(|d| d.len() as u64).sum();
            deltas + catalog.get("cust").expect("repaired").len() as u64
        }
        Err(_) => 0,
    };
    assert_eq!(own, applied, "planning encodes nothing");
    (outcome, own)
}

/// A delta of `insertions` generated tuples and `deletions` stored ones.
fn delta(session: &Session, insertions: usize, deletions: usize, seed: u64) -> Delta {
    let config = UpdateConfig {
        insertions,
        deletions,
        noise_percent: 20.0,
        seed,
        ..UpdateConfig::default()
    };
    generate_delta(session.data("cust").expect("loaded"), &config)
}

#[test]
fn a_registration_compiles_once_and_every_consumer_shares_it() {
    let (data, _) = generate(&CustConfig {
        size: 300,
        noise_percent: 5.0,
        seed: 31,
        ..CustConfig::default()
    });
    let loaded = data.clone();
    let mut session = Session::new();
    session.load(data).expect("load");
    let mut last = counts();

    // The cold set-up encodes the table once, in the first full pass (the
    // answer read here); the snapshot freezes those columns and the first
    // small delta's seed adopts them, so the set-up costs rows + |delta|.
    session.register(&workload_constraints()).expect("register");
    let n = rows(&session);
    after_step(&mut session, &mut last, "register", (1, 0, n));

    session.detect().expect("detect");
    after_step(&mut session, &mut last, "detect", (0, 0, 0));

    // A full pass over an unchanged table rescans the kept columns.
    for _ in 0..2 {
        session
            .detect_with(BackendKind::Semantic)
            .expect("full pass");
    }
    after_step(&mut session, &mut last, "unchanged full passes", (0, 0, 0));

    let snapshot = session.snapshot().expect("cold snapshot");
    assert_eq!(&snapshot.detect_fresh().expect("fresh"), snapshot.report());
    drop(snapshot);
    after_step(&mut session, &mut last, "cold snapshot", (0, 0, 0));

    let first = delta(&session, 3, 2, 1);
    session.apply(&first).expect("first small apply");
    assert_eq!(session.last_backend(), Some(BackendKind::Incremental));
    let first_len = first.len() as u64;
    after_step(
        &mut session,
        &mut last,
        "first small apply",
        (0, 1, first_len),
    );

    // A warm delta encodes exactly the tuples it inserts or looks up.
    let second = delta(&session, 3, 2, 2);
    session.apply(&second).expect("second small apply");
    assert_eq!(session.last_backend(), Some(BackendKind::Incremental));
    let second_len = second.len() as u64;
    after_step(
        &mut session,
        &mut last,
        "second small apply",
        (0, 0, second_len),
    );

    // A warm snapshot shares the maintained columns, and a full pass scans
    // them: neither encodes.
    let snapshot = session.snapshot().expect("warm snapshot");
    assert_eq!(&snapshot.detect_fresh().expect("fresh"), snapshot.report());
    drop(snapshot);
    after_step(&mut session, &mut last, "warm snapshot", (0, 0, 0));

    // A snapshot plans a repair from its own detector and evidence: it
    // compiles, scans and encodes nothing.
    let snapshot = session.snapshot().expect("warm snapshot");
    let plan = snapshot
        .repair_plan(RepairOptions::default())
        .expect("snapshot plan");
    assert!(!plan.is_empty(), "the instance is dirty");
    drop(snapshot);
    after_step(
        &mut session,
        &mut last,
        "warm snapshot REPAIR-PLAN",
        (0, 0, 0),
    );
    session
        .detect_with(BackendKind::Semantic)
        .expect("full pass");
    after_step(&mut session, &mut last, "warm full pass", (0, 0, 0));

    // The version bump retires the cache; the answer read re-scans the warm
    // view.
    session = session.with_cost_model(EditDistanceCost::default());
    after_step(&mut session, &mut last, "with_cost_model", (0, 0, 0));

    // The verifier's from-scratch pass is the one independent compile. The
    // replica that prices the repair's own encodes runs outside the count.
    let (replica, own) = repair_encodes(&session, RepairOptions::default());
    replica.expect("replica repair");
    last = counts();
    let repaired = session.repair().expect("repair on the warm state");
    assert!(repaired.final_report.is_clean());
    let step = "repair on the warm state";
    after_step(&mut session, &mut last, step, (1, 0, own));

    // A cold repair's full pass encodes the table once, and its seed
    // adopts those columns.
    session.invalidate();
    let (replica, own) = repair_encodes(&session, RepairOptions::default());
    replica.expect("replica repair");
    last = counts();
    let n = rows(&session);
    session.repair().expect("cold repair");
    let step = "invalidate, then repair";
    after_step(&mut session, &mut last, step, (1, 1, n + own));

    // An edit behind the session's back moves the table's stamp: the next
    // full pass encodes it once.
    let id = session.data("cust").expect("loaded").row_ids()[0];
    let attr = loaded.schema().attr_id("CT").expect("CT");
    session
        .catalog_mut()
        .get_mut("cust")
        .expect("cust")
        .update_value(id, attr, Value::str("Albany"))
        .expect("edit");
    let n = rows(&session);
    after_step(&mut session, &mut last, "catalog_mut edit", (0, 0, n));

    session.load(loaded).expect("re-load");
    let n = rows(&session);
    after_step(&mut session, &mut last, "load", (0, 0, n));

    // A delta above the incremental threshold runs a full pass, which
    // encodes the new table once and is INCDETECT's seed: its group map is
    // kept, so the next small delta folds instead of seeding again.
    let bulk = delta(&session, 150, 10, 3);
    session.apply(&bulk).expect("threshold-crossing apply");
    assert_eq!(session.last_backend(), Some(BackendKind::Semantic));
    let step = "threshold-crossing apply";
    let n = rows(&session);
    after_step(&mut session, &mut last, step, (0, 1, n));

    let small = delta(&session, 3, 2, 4);
    session
        .apply(&small)
        .expect("small apply after the crossing");
    assert_eq!(session.last_backend(), Some(BackendKind::Incremental));
    let step = "small apply after the crossing";
    after_step(&mut session, &mut last, step, (0, 0, small.len() as u64));

    // A repair refused before it touches a row leaves the state it drove
    // warm, so the next small delta folds into it instead of seeding.
    let refused = RepairOptions {
        solver: DeletionSolver::Exact { max_nodes: 0 },
        ..RepairOptions::default()
    };
    let (replica, own) = repair_encodes(&session, refused);
    assert!(replica.is_err(), "the replica is refused too");
    let stamp = session.data("cust").expect("loaded").stamp();
    last = counts();
    let err = session
        .repair_with(refused)
        .expect_err("no instance fits 0 nodes");
    assert!(
        matches!(
            err,
            SessionError::Repair(RepairError::InstanceTooLarge { .. })
        ),
        "{err}"
    );
    assert_eq!(
        session.data("cust").expect("loaded").stamp(),
        stamp,
        "no row moved"
    );
    let small = delta(&session, 3, 2, 5);
    session
        .apply(&small)
        .expect("small apply after the refused repair");
    assert_eq!(session.last_backend(), Some(BackendKind::Incremental));
    let step = "refused repair, then a small apply";
    after_step(
        &mut session,
        &mut last,
        step,
        (0, 0, own + small.len() as u64),
    );
}
