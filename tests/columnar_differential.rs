//! Differential safety net of the dictionary-encoded columnar refactor.
//!
//! The coded detection core must be observationally identical to the
//! pre-refactor value-based semantics:
//!
//! * the coded semantic detector flags exactly the rows the value-based
//!   reference semantics (`ecfd_core::satisfaction::check_all`) flags;
//! * 1 worker and N workers produce byte-identical `DetectionReport`s and
//!   (normalized) `EvidenceReport`s — the hash-partitioned sharded scan may
//!   not change a single byte of output;
//! * the property holds on the datagen workloads too, including after mixed
//!   insert/delete deltas applied through the session's backends, where all
//!   three backends (coded semantic, coded incremental, value-based SQL
//!   readback) must agree record-for-record.

use ecfd::datagen::constraints::{workload_constraints, workload_with_scaled_constraint};
use ecfd::datagen::{generate, generate_delta, CustConfig, UpdateConfig};
use ecfd::prelude::*;
use ecfd_oracle::cust::{arb_constraints, arb_relation, schema};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Coded detection equals the value-based reference semantics, and the
    /// sharded parallel scan changes nothing: identical reports, evidence
    /// and decoded group state at 1 and 4 workers.
    #[test]
    fn coded_detection_matches_value_semantics_at_any_parallelism(
        data in arb_relation(),
        constraints in arb_constraints(),
    ) {
        let reference = check_all(&data, &constraints).unwrap();
        let expected = DetectionReport::from_violation_set(reference.violations(), data.len());

        let sequential = SemanticDetector::new(&schema(), &constraints).unwrap()
            .with_parallelism(Parallelism::Fixed(1));
        let sharded = SemanticDetector::new(&schema(), &constraints).unwrap()
            .with_parallelism(Parallelism::Fixed(4));

        let (seq_report, seq_evidence) = sequential.detect_with_evidence(&data).unwrap();
        let (par_report, par_evidence) = sharded.detect_with_evidence(&data).unwrap();

        prop_assert_eq!(&seq_report.sv_rows, &expected.sv_rows);
        prop_assert_eq!(&seq_report.mv_rows, &expected.mv_rows);
        prop_assert_eq!(&seq_report, &par_report);
        prop_assert_eq!(&seq_evidence, &par_evidence);
        prop_assert_eq!(seq_evidence.detection_report(), seq_report);
    }
}

/// One session per backend per parallelism: every combination must produce
/// identical reports and evidence on the datagen workloads, initially and
/// after a mixed insert/delete delta.
#[test]
fn backends_agree_on_datagen_workloads_at_one_and_n_threads() {
    for (size, noise, seed) in [(200usize, 5.0f64, 3u64), (300, 8.0, 9)] {
        let (data, _) = generate(&CustConfig {
            size,
            noise_percent: noise,
            seed,
            ..CustConfig::default()
        });
        let constraints = workload_constraints();
        let delta = generate_delta(
            &data,
            &UpdateConfig {
                insertions: 35,
                deletions: 20,
                noise_percent: 10.0,
                seed: seed + 50,
                ..UpdateConfig::default()
            },
        );
        assert!(!delta.insertions.is_empty() && !delta.deletions.is_empty());

        let mut outputs = Vec::new();
        for kind in BackendKind::ALL {
            for threads in [1usize, 4] {
                let policy = ecfd::session::RoutingPolicy::default()
                    .with_parallelism(Parallelism::Fixed(threads));
                let mut session = Session::new().with_policy(policy);
                session.load(data.clone()).unwrap();
                session.register(&constraints).unwrap();

                let report = session.detect_with(kind).unwrap();
                let evidence = session.explain().unwrap();
                let after = session.apply_with(kind, &delta).unwrap();
                let after_evidence = session.explain().unwrap();
                outputs.push((
                    format!("{kind}@{threads}"),
                    report,
                    evidence.normalized(),
                    after,
                    after_evidence.normalized(),
                ));
            }
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

/// The detector's maintained read-out must equal, byte for byte, the answer
/// re-derived from its view and group state (the reference) and a fresh
/// detector's pass over the stored table, which keeps the base schema.
fn assert_read_out_is_current(
    inc: &IncrementalDetector,
    catalog: &Catalog,
    constraints: &[ECfd],
    step: &str,
) {
    let report = inc.maintained_report();
    let evidence = inc.maintained_evidence();
    assert_eq!(**report, inc.report(), "report, {step}");
    assert_eq!(**evidence, inc.evidence(), "evidence, {step}");
    let base = inc.semantic().schema();
    let stored = catalog.get(base.name()).unwrap();
    assert_eq!(stored.schema(), base, "{step}");
    let fresh = SemanticDetector::new(base, constraints)
        .unwrap()
        .detect_with_evidence(stored)
        .unwrap();
    assert_eq!((&**report, &**evidence), (&fresh.0, &fresh.1), "{step}");
}

/// A sequence of deltas through the incremental maintainer at N workers must
/// track a from-scratch coded pass *and* the value-based reference at every
/// step — and a detector driven in lockstep must keep its maintained
/// read-out equal to its re-derived reference and to a fresh pass after
/// every one of them: generated mixed deltas, duplicate rows deleted by one
/// victim, a group flipping to violating and back, a victim holding a
/// never-interned string, and an empty delta. Run over the base workload and
/// over the `tableau_160_6k` set, whose 125 singles are mostly members of one
/// fused `[CT]` scan.
#[test]
fn incremental_maintenance_tracks_reference_semantics_under_deltas() {
    maintenance_tracks_reference_semantics(&workload_constraints());
    maintenance_tracks_reference_semantics(&workload_with_scaled_constraint(160, 42));
}

fn maintenance_tracks_reference_semantics(constraints: &[ECfd]) {
    let (data, _) = generate(&CustConfig {
        size: 250,
        noise_percent: 6.0,
        seed: 17,
        ..CustConfig::default()
    });
    let mut session = Session::new().with_policy(
        ecfd::session::RoutingPolicy::default().with_parallelism(Parallelism::Fixed(4)),
    );
    session.load(data.clone()).unwrap();
    session.register(constraints).unwrap();
    session.detect_with(BackendKind::Incremental).unwrap();

    let mut catalog = Catalog::new();
    catalog.create(data.clone()).unwrap();
    let mut inc = IncrementalDetector::initialize(data.schema(), constraints, &mut catalog)
        .expect("the workload compiles");
    assert_read_out_is_current(&inc, &catalog, constraints, "seed");

    let mut mirror = data;
    let mut step = |kind: BackendKind, label: &str, delta: &Delta, mirror: &mut Relation| {
        let incremental = session.apply_with(kind, delta).unwrap();
        inc.apply(&mut catalog, delta).unwrap();
        delta.apply(mirror).unwrap();
        assert_read_out_is_current(&inc, &catalog, constraints, label);
        assert_eq!(incremental, **inc.maintained_report(), "{label}");

        let reference = check_all(mirror, constraints).unwrap();
        let expected = DetectionReport::from_violation_set(reference.violations(), mirror.len());
        // Row ids diverge between session table and mirror after deletions,
        // so compare the flagged tuples, not the ids.
        let project = |rel: &Relation, rows: &std::collections::BTreeSet<RowId>| {
            let mut out: Vec<Tuple> = rows.iter().map(|r| rel.get(*r).unwrap().clone()).collect();
            out.sort();
            out
        };
        let session_data = session.data("cust").unwrap();
        assert_eq!(
            project(session_data, &incremental.sv_rows),
            project(mirror, &expected.sv_rows),
            "SV diverges from the reference at step {label}"
        );
        assert_eq!(
            project(session_data, &incremental.mv_rows),
            project(mirror, &expected.mv_rows),
            "MV diverges from the reference at step {label}"
        );
        incremental
    };

    const INC: BackendKind = BackendKind::Incremental;
    let mut at_rest = DetectionReport::default();
    for k in 0..3u64 {
        let delta = generate_delta(
            &mirror,
            &UpdateConfig {
                insertions: 20,
                deletions: 12,
                noise_percent: 8.0,
                seed: 100 + k,
                ..UpdateConfig::default()
            },
        );
        at_rest = step(INC, &format!("generated {k}"), &delta, &mut mirror);
    }

    assert_eq!(step(INC, "empty", &Delta::default(), &mut mirror), at_rest);

    // Victims from the middle of the table, not its tail.
    let middle: Vec<Tuple> = mirror
        .tuples()
        .skip(mirror.len() / 2)
        .take(6)
        .cloned()
        .collect();
    step(
        INC,
        "middle victims",
        &Delta::delete_only(middle),
        &mut mirror,
    );

    // A bulk delta through a full pass, then small deltas folded into the
    // state that pass left behind.
    let bulk = generate_delta(
        &mirror,
        &UpdateConfig {
            insertions: 60,
            deletions: 40,
            noise_percent: 8.0,
            seed: 200,
            ..UpdateConfig::default()
        },
    );
    step(BackendKind::Semantic, "bulk delta", &bulk, &mut mirror);
    for k in 0..2u64 {
        let delta = generate_delta(
            &mirror,
            &UpdateConfig {
                insertions: 5,
                deletions: 4,
                noise_percent: 8.0,
                seed: 300 + k,
                ..UpdateConfig::default()
            },
        );
        at_rest = step(INC, &format!("small after bulk {k}"), &delta, &mut mirror);
    }

    // A town whose rows all agree on the area code, and a copy of one of
    // them carrying a code nobody has: inserted three times over, the copies
    // make the town's `CT → AC` group violate; one victim then deletes all
    // three and the group is clean again.
    let schema = mirror.schema().clone();
    let ct = schema.require_attr("CT").unwrap();
    let ac = schema.require_attr("AC").unwrap();
    let consistent = |t: &Tuple| {
        t.value(ct).as_str().is_some_and(|c| c.starts_with("Town"))
            && mirror
                .tuples()
                .filter(|other| other.value(ct) == t.value(ct))
                .all(|other| other.value(ac) == t.value(ac))
    };
    let town = mirror
        .tuples()
        .find(|t| consistent(t))
        .expect("some generated town is consistent")
        .clone();
    let mut odd = town.clone();
    odd.set(ac, Value::str("000")).unwrap();
    let triple = Delta::insert_only(vec![odd.clone(), odd.clone(), odd.clone()]);
    let flipped = step(INC, "group starts violating", &triple, &mut mirror);
    assert!(
        flipped.num_mv() >= at_rest.num_mv() + 4,
        "the town's own rows and the three copies are flagged"
    );
    let healed = step(
        INC,
        "one victim, three duplicates",
        &Delta::delete_only(vec![odd.clone()]),
        &mut mirror,
    );
    assert_eq!(healed, at_rest, "the group is clean again");

    // Victims that match nothing: a string the dictionary never interned, and
    // the tuple that has just been deleted.
    let mut ghost = town;
    ghost.set(ct, Value::str("never-interned")).unwrap();
    let unchanged = step(
        INC,
        "victims that match nothing",
        &Delta::delete_only(vec![ghost, odd]),
        &mut mirror,
    );
    assert_eq!(unchanged, at_rest);
}
