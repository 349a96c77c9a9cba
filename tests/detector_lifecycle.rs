//! One compile per registration, end to end: a session entry compiles its
//! constraint set into one detector, and its backends, every INCDETECT seed,
//! the repair engine and every snapshot share that compile and its
//! dictionary. The counters read here are process-global; this file holds a
//! single test, so it runs as its own binary and every count is exact.

use ecfd::datagen::constraints::workload_constraints;
use ecfd::datagen::{generate, generate_delta, CustConfig, UpdateConfig};
use ecfd::prelude::*;
use ecfd::repair::EditDistanceCost;

fn counter(name: &str) -> u64 {
    ecfd::obs::registry().counter(name).get()
}

/// `(detectors compiled, incremental seeds)` so far.
fn counts() -> (u64, u64) {
    (
        counter("detect.detectors.compiled"),
        counter("detect.incremental.seeds"),
    )
}

/// Asserts what the step just taken cost since `last`, then that the
/// session's answer equals an independent from-scratch detector over its
/// data. Reading the answer seeds nothing; the oracle's own compile is left
/// out of the next step's count.
fn after_step(session: &mut Session, last: &mut (u64, u64), step: &str, want: (u64, u64)) {
    let now = counts();
    assert_eq!(
        (now.0 - last.0, now.1 - last.1),
        want,
        "{step}: (compiled, seeds)"
    );
    let answer = session.detect().expect("detect");
    let data = session.data("cust").expect("loaded");
    let oracle = SemanticDetector::new(data.schema(), &workload_constraints())
        .expect("constraints compile")
        .detect(data)
        .expect("oracle pass");
    assert_eq!(answer, oracle, "{step}: the session's answer");
    assert_eq!(
        counts(),
        (now.0 + 1, now.1),
        "{step}: only the oracle compiled"
    );
    *last = counts();
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
    let mut session = Session::new();
    session.load(data).expect("load");
    let mut last = counts();

    session.register(&workload_constraints()).expect("register");
    after_step(&mut session, &mut last, "register", (1, 0));

    session.detect().expect("detect");
    after_step(&mut session, &mut last, "detect", (0, 0));

    let first = delta(&session, 3, 2, 1);
    session.apply(&first).expect("first small apply");
    assert_eq!(session.last_backend(), Some(BackendKind::Incremental));
    after_step(&mut session, &mut last, "first small apply", (0, 1));

    // A warm delta encodes exactly the tuples it inserts or looks up.
    let second = delta(&session, 3, 2, 2);
    let encoded = counter("relation.rows.encoded");
    session.apply(&second).expect("second small apply");
    assert_eq!(session.last_backend(), Some(BackendKind::Incremental));
    let warm_delta_encoded = counter("relation.rows.encoded") - encoded;
    assert_eq!(warm_delta_encoded, second.len() as u64);
    after_step(&mut session, &mut last, "second small apply", (0, 0));

    // A warm snapshot shares the maintained columns: nothing is encoded.
    let encoded = counter("relation.rows.encoded");
    let snapshot = session.snapshot().expect("snapshot");
    assert_eq!(counter("relation.rows.encoded"), encoded);
    assert_eq!(&snapshot.detect_fresh().expect("fresh"), snapshot.report());
    after_step(&mut session, &mut last, "snapshot", (0, 0));

    session = session.with_cost_model(EditDistanceCost::default());
    after_step(&mut session, &mut last, "with_cost_model", (0, 0));

    // The verifier's from-scratch pass is the one independent compile.
    let repaired = session.repair().expect("repair on the warm state");
    assert!(repaired.final_report.is_clean());
    after_step(&mut session, &mut last, "repair on the warm state", (1, 0));

    // A cold repair seeds through the entry's incremental backend.
    session.invalidate();
    session.repair().expect("cold repair");
    after_step(&mut session, &mut last, "invalidate, then repair", (1, 1));

    // A delta above the incremental threshold runs a full pass and drops the
    // warm state, so the next small delta seeds again. That re-seed is
    // current behaviour, asserted as such: re-seeding from the full pass's
    // own group map would take it to 0.
    let bulk = delta(&session, 150, 10, 3);
    session.apply(&bulk).expect("threshold-crossing apply");
    assert_eq!(session.last_backend(), Some(BackendKind::Semantic));
    after_step(&mut session, &mut last, "threshold-crossing apply", (0, 0));

    let small = delta(&session, 3, 2, 4);
    session
        .apply(&small)
        .expect("small apply after the crossing");
    assert_eq!(session.last_backend(), Some(BackendKind::Incremental));
    after_step(
        &mut session,
        &mut last,
        "small apply after the crossing",
        (0, 1),
    );
}
