//! Integration tests for the `Session` facade: the differential contract
//! across all three `BackendKind`s — the native full pass, BATCHDETECT and
//! INCDETECT — on generated workloads (including after mixed insert/delete
//! deltas), backend auto-routing, and the session-driven detect → explain →
//! repair → re-verify pipeline.

use ecfd::datagen::constraints::workload_constraints;
use ecfd::datagen::{generate, generate_delta, CustConfig, UpdateConfig};
use ecfd::prelude::*;

fn workload(size: usize, noise: f64, seed: u64) -> (Relation, Vec<ECfd>) {
    let (data, _) = generate(&CustConfig {
        size,
        noise_percent: noise,
        seed,
        ..CustConfig::default()
    });
    (data, workload_constraints())
}

fn session_for(kind: BackendKind, data: Relation, constraints: &[ECfd]) -> Session {
    let mut session = Session::new().with_policy(RoutingPolicy::fixed(kind));
    session.load(data).expect("load succeeds");
    session.register(constraints).expect("constraints compile");
    session
}

/// Satellite contract: all three backends produce identical
/// `DetectionReport`s and `EvidenceReport`s through the session API on the
/// datagen workloads, including after a mixed insert/delete `Delta`.
#[test]
fn all_backends_agree_on_generated_workloads_and_after_mixed_deltas() {
    for (size, noise, seed) in [(200usize, 5.0f64, 2u64), (350, 9.0, 7)] {
        let (data, constraints) = workload(size, noise, seed);
        let delta = generate_delta(
            &data,
            &UpdateConfig {
                insertions: 40,
                deletions: 25,
                noise_percent: 10.0,
                seed: seed + 100,
                ..UpdateConfig::default()
            },
        );
        assert!(!delta.insertions.is_empty() && !delta.deletions.is_empty());

        let mut outputs = Vec::new();
        for kind in BackendKind::ALL {
            let mut session = session_for(kind, data.clone(), &constraints);
            let report = session.detect().expect("detection runs");
            let evidence = session.explain().expect("evidence cached");
            assert_eq!(session.last_backend(), Some(kind));
            assert_eq!(evidence.detection_report(), report);

            let after = session.apply(&delta).expect("delta applies");
            let after_evidence = session.explain().expect("evidence refreshed");
            assert_eq!(after_evidence.detection_report(), after);

            outputs.push((
                kind,
                report,
                evidence.normalized(),
                after,
                after_evidence.normalized(),
            ));
        }
        assert!(
            !outputs[0].1.is_clean(),
            "noisy workloads must produce violations"
        );
        for pair in outputs.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert_eq!(
                a.1, b.1,
                "initial reports: {} vs {} (size {size})",
                a.0, b.0
            );
            assert_eq!(a.2, b.2, "initial evidence: {} vs {}", a.0, b.0);
            assert_eq!(a.3, b.3, "post-delta reports: {} vs {}", a.0, b.0);
            assert_eq!(a.4, b.4, "post-delta evidence: {} vs {}", a.0, b.0);
        }
    }
}

#[test]
fn auto_routing_picks_incremental_below_the_threshold_and_batch_above() {
    let (data, constraints) = workload(400, 5.0, 11);
    let mut session = Session::new(); // default policy: 25% threshold
    session.load(data.clone()).unwrap();
    session.register(&constraints).unwrap();
    session.detect().unwrap();
    assert_eq!(session.last_backend(), Some(BackendKind::Semantic));

    let small = generate_delta(
        &data,
        &UpdateConfig {
            insertions: 20,
            deletions: 20,
            noise_percent: 5.0,
            seed: 21,
            ..UpdateConfig::default()
        },
    );
    session.apply(&small).unwrap();
    assert_eq!(session.last_backend(), Some(BackendKind::Incremental));

    let large = generate_delta(
        &data,
        &UpdateConfig {
            insertions: 300,
            deletions: 0,
            noise_percent: 5.0,
            seed: 22,
            ..UpdateConfig::default()
        },
    );
    session.apply(&large).unwrap();
    assert_eq!(session.last_backend(), Some(BackendKind::Semantic));

    // Whatever the routing history, the flags must match a from-scratch pass.
    let routed = session.detect_with(BackendKind::Semantic).unwrap();
    let mut mirror = data;
    small.apply(&mut mirror).unwrap();
    large.apply(&mut mirror).unwrap();
    let scratch = SemanticDetector::new(mirror.schema(), &constraints)
        .unwrap()
        .detect(&mirror)
        .unwrap();
    assert_eq!(routed.num_sv(), scratch.num_sv());
    assert_eq!(routed.num_mv(), scratch.num_mv());
    assert_eq!(routed.total_rows, scratch.total_rows);
}

#[test]
fn session_repair_cleans_generated_workloads_end_to_end() {
    let (data, constraints) = workload(300, 5.0, 13);
    let mut session = Session::new().with_cost_model(ecfd::repair::EditDistanceCost::default());
    session.load(data).unwrap();
    session.register(&constraints).unwrap();

    let before = session.detect().unwrap();
    assert!(!before.is_clean());
    let evidence = session.explain().unwrap();
    for &row in before.violating_rows().iter() {
        assert!(
            !evidence.for_row(row).is_empty(),
            "flagged row {row} lacks evidence"
        );
    }

    let outcome = session.repair().unwrap();
    assert!(outcome.final_report.is_clean());
    assert!(outcome.num_deletions() <= before.num_violations());
    assert_eq!(session.stage(), Some(Stage::Repaired));
    // Both the cache and every backend agree the instance is clean now.
    assert!(session.report().unwrap().is_clean());
    for kind in BackendKind::ALL {
        assert!(session.detect_with(kind).unwrap().is_clean(), "{kind}");
    }
}

#[test]
fn register_compiles_once_and_shares_the_set_across_backends() {
    let (data, constraints) = workload(150, 5.0, 17);
    let mut session = Session::new();
    session.load(data).unwrap();
    session.register(&constraints).unwrap();
    let set = session.constraints("cust").unwrap().clone();
    assert_eq!(set.source().len(), constraints.len());
    assert!(set.num_patterns() >= set.len());

    // The detectors the session routes through see exactly the compiled set:
    // evidence constraint indices stay within it across every backend.
    for kind in BackendKind::ALL {
        session.detect_with(kind).unwrap();
        let evidence = session.explain().unwrap();
        for sv in &evidence.sv {
            assert!(sv.source.constraint < set.len(), "{kind}");
        }
        for group in &evidence.mv_groups {
            assert!(group.source.constraint < set.len(), "{kind}");
        }
    }
}

#[test]
fn lifecycle_survives_reload_and_further_registration() {
    let (data, constraints) = workload(120, 5.0, 19);
    let mut session = Session::new();
    session.load(data.clone()).unwrap();
    session.register(&constraints).unwrap();
    let first = session.detect().unwrap();

    // Re-loading the same data rewinds to Registered and drops the cache…
    session.load(data).unwrap();
    assert_eq!(session.stage(), Some(Stage::Registered));
    assert!(session.report().is_none());
    // …but a fresh detect reproduces the same picture.
    let second = session.detect().unwrap();
    assert_eq!(first, second);

    // Registering an additional constraint invalidates and extends the set.
    let extra = parse_ecfd("cust: [CT] -> [AC] | [], { {Springfield} || {999} }").unwrap();
    session.register(std::slice::from_ref(&extra)).unwrap();
    assert_eq!(session.stage(), Some(Stage::Registered));
    assert_eq!(
        session.constraints("cust").unwrap().source().len(),
        constraints.len() + 1
    );
    session.detect().unwrap();
}
