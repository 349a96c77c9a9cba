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

use ecfd::datagen::constraints::workload_constraints;
use ecfd::datagen::{generate, generate_delta, CustConfig, UpdateConfig};
use ecfd::prelude::*;
use proptest::prelude::*;

const CITIES: [&str; 5] = ["Albany", "Troy", "NYC", "LI", "Utica"];
const CODES: [&str; 4] = ["518", "212", "315", "716"];

fn schema() -> Schema {
    Schema::builder("cust")
        .attr("CT", DataType::Str)
        .attr("AC", DataType::Str)
        .attr("ZIP", DataType::Str)
        .build()
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    (0..CITIES.len(), 0..CODES.len(), 0..3usize)
        .prop_map(|(c, a, z)| Tuple::from_iter([CITIES[c], CODES[a], &format!("zip{z}")]))
}

fn arb_relation() -> impl Strategy<Value = Relation> {
    proptest::collection::vec(arb_tuple(), 0..30)
        .prop_map(|tuples| Relation::with_tuples(schema(), tuples).expect("tuples fit the schema"))
}

fn arb_pattern_value(values: &'static [&'static str]) -> impl Strategy<Value = PatternValue> {
    prop_oneof![
        Just(PatternValue::Wildcard),
        proptest::collection::btree_set(0..values.len(), 1..=2)
            .prop_map(move |idx| PatternValue::in_set(idx.into_iter().map(|i| values[i]))),
        proptest::collection::btree_set(0..values.len(), 1..=2)
            .prop_map(move |idx| PatternValue::not_in_set(idx.into_iter().map(|i| values[i]))),
    ]
}

fn arb_ecfd() -> impl Strategy<Value = ECfd> {
    (
        arb_pattern_value(&CITIES),
        arb_pattern_value(&CODES),
        proptest::option::of(arb_pattern_value(&CODES)),
    )
        .prop_map(|(lhs, rhs, second)| {
            let mut tableau = vec![PatternTuple::new(vec![lhs.clone()], vec![rhs])];
            if let Some(extra) = second {
                tableau.push(PatternTuple::new(vec![lhs], vec![extra]));
            }
            ECfd::new(
                "cust",
                vec!["CT".into()],
                vec!["AC".into()],
                vec![],
                tableau,
            )
            .expect("generated constraints are well-formed")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Coded detection equals the value-based reference semantics, and the
    /// sharded parallel scan changes nothing: identical reports, evidence
    /// and decoded group state at 1 and 4 workers.
    #[test]
    fn coded_detection_matches_value_semantics_at_any_parallelism(
        data in arb_relation(),
        constraints in proptest::collection::vec(arb_ecfd(), 1..4),
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
                let policy = ecfd::session::RoutingPolicy::fixed(kind)
                    .with_parallelism(Parallelism::Fixed(threads));
                let mut session = Session::new().with_policy(policy);
                session.load(data.clone()).unwrap();
                session.register(&constraints).unwrap();

                let report = session.detect().unwrap();
                let evidence = session.explain().unwrap();
                let after = session.apply(&delta).unwrap();
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

/// A sequence of deltas through the incremental maintainer at N workers must
/// track a from-scratch coded pass *and* the value-based reference at every
/// step.
#[test]
fn incremental_maintenance_tracks_reference_semantics_under_deltas() {
    let (data, _) = generate(&CustConfig {
        size: 250,
        noise_percent: 6.0,
        seed: 17,
        ..CustConfig::default()
    });
    let constraints = workload_constraints();
    let mut session = Session::new().with_policy(
        ecfd::session::RoutingPolicy::fixed(BackendKind::Incremental)
            .with_parallelism(Parallelism::Fixed(4)),
    );
    session.load(data.clone()).unwrap();
    session.register(&constraints).unwrap();
    session.detect().unwrap();

    let mut mirror = data;
    for step in 0..3u64 {
        let delta = generate_delta(
            &mirror,
            &UpdateConfig {
                insertions: 20,
                deletions: 12,
                noise_percent: 8.0,
                seed: 100 + step,
                ..UpdateConfig::default()
            },
        );
        let incremental = session.apply(&delta).unwrap();
        delta.apply(&mut mirror).unwrap();

        let reference = check_all(&mirror, &constraints).unwrap();
        let expected = DetectionReport::from_violation_set(reference.violations(), mirror.len());
        // Row ids diverge between session table and mirror after deletions,
        // so compare the flagged tuples, not the ids.
        let project = |rel: &Relation, rows: &std::collections::BTreeSet<RowId>| {
            let mut out: Vec<Vec<Value>> = rows
                .iter()
                .map(|r| rel.get(*r).unwrap().values()[..3].to_vec())
                .collect();
            out.sort();
            out
        };
        // The stored table keeps the session's row ids (plus flag columns);
        // `project` only reads the base prefix.
        let session_data = session.catalog().get("cust").unwrap();
        assert_eq!(
            project(session_data, &incremental.sv_rows),
            project(&mirror, &expected.sv_rows),
            "SV diverges from the reference at step {step}"
        );
        assert_eq!(
            project(session_data, &incremental.mv_rows),
            project(&mirror, &expected.mv_rows),
            "MV diverges from the reference at step {step}"
        );
    }
}
