//! Differential safety net of the scan kernel and the plans it executes.
//!
//! A compiled detection plan is only an *execution strategy*: whichever
//! program the one scan kernel runs (the fused plan — the native detector's
//! default — or the unfused contrast plan) and whatever the worker fan-out,
//! its output must be byte-identical to two independent references, the
//! paper's value-level semantics (`check_all`) and the paper's SQL
//! (`SqlBackend`):
//!
//! * proptest-generated relations and constraint sets: both programs match
//!   `check_all`'s flags and the SQL backend's normalized evidence at 1 and
//!   4 workers, and agree with each other on the group maps;
//! * the datagen workloads, including after mixed insert/delete deltas
//!   routed through sessions: semantic- (= fused-plan-), SQL- and
//!   incremental-routed sessions agree record-for-record;
//! * `Plan::compile(set)` — what `EXPLAIN PLAN` renders — is, scan for scan,
//!   the program `SemanticDetector::from_set(set)` executes.

use ecfd::datagen::constraints::workload_constraints;
use ecfd::datagen::{generate, generate_delta, CustConfig, UpdateConfig};
use ecfd::detect::semantic::GroupMap;
use ecfd::prelude::*;
use ecfd_oracle::cust::{arb_pattern_value, arb_relation, schema, CITIES, CODES};
use proptest::prelude::*;
use std::sync::Arc;

/// Constraints over two different X attribute sets ([CT] and [AC]), so the
/// generated sets exercise both sides of shared-scan fusion: constraints
/// that fuse into one scan and constraints that stay on scans of their own.
fn arb_ecfd() -> impl Strategy<Value = ECfd> {
    (
        any::<bool>(),
        arb_pattern_value(&CITIES),
        arb_pattern_value(&CODES),
        proptest::option::of(arb_pattern_value(&CODES)),
    )
        .prop_map(|(on_ct, city, code, second)| {
            let (x, y, lhs, rhs): (&str, &str, PatternValue, PatternValue) = if on_ct {
                ("CT", "AC", city, code)
            } else {
                ("AC", "CT", code, city)
            };
            let mut tableau = vec![PatternTuple::new(vec![lhs.clone()], vec![rhs])];
            if let Some(extra) = second {
                let extra = if on_ct {
                    extra
                } else {
                    // Keep RHS pattern values inside the Y attribute's domain.
                    PatternValue::Wildcard
                };
                tableau.push(PatternTuple::new(vec![lhs], vec![extra]));
            }
            ECfd::new("cust", vec![x.into()], vec![y.into()], vec![], tableau)
                .expect("generated constraints are well-formed")
        })
}

/// Runs the fused and the unfused plan at 1 and 4 workers: report and
/// normalized evidence through [`PlanBackend`], the group map from the same
/// program on a detector of its own. Every detector interns the pattern
/// constants, then the rows, in the same order, so codes — and whole group
/// maps — compare directly across detectors.
fn run_both_programs(
    set: &ConstraintSet,
    data: &Relation,
) -> Vec<(String, DetectionReport, EvidenceReport, GroupMap)> {
    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        let workers = Parallelism::Fixed(threads);
        for (label, mut backend) in [
            ("fused", PlanBackend::from_set(set).unwrap()),
            ("unfused", PlanBackend::from_set_unfused(set).unwrap()),
        ] {
            backend.set_parallelism(workers);
            let mut catalog = Catalog::new();
            catalog.create(data.clone()).unwrap();
            let (report, evidence) = backend.detect(&mut catalog).unwrap();
            let (_, _, groups) = SemanticDetector::from_set(set)
                .with_program(backend.plan().program().clone())
                .with_parallelism(workers)
                .detect_full(data)
                .unwrap();
            runs.push((
                format!("{label}@{threads}"),
                Arc::unwrap_or_clone(report),
                evidence.normalized(),
                groups,
            ));
        }
    }
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Both programs reproduce the reference flags (`check_all`, the paper's
    /// semantics) and the reference evidence (`SqlBackend`, the paper's SQL)
    /// byte-for-byte, at 1 and 4 workers, on arbitrary relations and
    /// constraint sets (fusing and non-fusing alike) — and build identical
    /// group maps.
    #[test]
    fn plan_drivers_match_the_semantic_detector_at_any_parallelism(
        data in arb_relation(),
        constraints in proptest::collection::vec(arb_ecfd(), 1..4),
    ) {
        let set = ConstraintSet::compile(&schema(), &constraints).unwrap();
        let reference = check_all(&data, set.ecfds()).unwrap();
        let want_report =
            DetectionReport::from_violation_set(reference.violations(), data.len());
        let mut sql_catalog = Catalog::new();
        sql_catalog.create(data.clone()).unwrap();
        let (sql_report, sql_evidence) = SqlBackend::from_set(&set)
            .unwrap()
            .detect(&mut sql_catalog)
            .unwrap();
        prop_assert_eq!(&*sql_report, &want_report, "the two references disagree");
        let want_evidence = sql_evidence.normalized();

        let runs = run_both_programs(&set, &data);
        for (label, report, evidence, groups) in &runs {
            prop_assert_eq!(report, &want_report, "{}", label);
            prop_assert_eq!(evidence, &want_evidence, "{}", label);
            prop_assert_eq!(groups, &runs[0].3, "{}", label);
        }
    }
}

/// Sessions routed to each of the three backends — `Semantic` being the
/// fused plan's program — against the SQL-routed one on the datagen
/// workloads: identical reports and evidence initially and after a mixed
/// insert/delete delta, at 1 and 4 workers.
#[test]
fn plan_sessions_agree_with_every_backend_on_datagen_workloads() {
    for (size, noise, seed) in [(200usize, 5.0f64, 11u64), (300, 8.0, 23)] {
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

        let run = |kind: BackendKind, threads: usize| {
            let policy = RoutingPolicy::default().with_parallelism(Parallelism::Fixed(threads));
            let mut session = Session::new().with_policy(policy);
            session.load(data.clone()).unwrap();
            session.register(&constraints).unwrap();
            let report = session.detect_with(kind).unwrap();
            let evidence = session.explain().unwrap().normalized();
            let after = session.apply_with(kind, &delta).unwrap();
            let after_evidence = session.explain().unwrap().normalized();
            (report, evidence, after, after_evidence)
        };

        let reference = run(BackendKind::Sql, 1);
        assert!(
            !reference.0.is_clean(),
            "noisy workloads must produce violations"
        );
        for kind in BackendKind::ALL {
            for threads in [1usize, 4] {
                let got = run(kind, threads);
                assert_eq!(
                    got, reference,
                    "{kind}@{threads} diverges from sql@1 (size {size})"
                );
            }
        }
    }
}

/// The fused and unfused plans are different shapes of the same semantics:
/// on a fusing workload the optimized plan has strictly fewer scans, yet
/// both execute to identical output — at 1 worker and on 4 real ones (the
/// instance is large enough to clear the sequential-scan cutoff) — and the
/// optimized plan is exactly the program the native detector runs by
/// default.
#[test]
fn fusion_changes_the_plan_shape_but_not_the_answer() {
    let (data, _) = generate(&CustConfig {
        size: 1500,
        noise_percent: 6.0,
        seed: 7,
        ..CustConfig::default()
    });
    let constraints = workload_constraints();
    let set = ConstraintSet::compile(data.schema(), &constraints).unwrap();

    let fused = Plan::compile(&set).unwrap();
    let unfused = Plan::compile_unfused(&set).unwrap();
    assert!(fused.is_fused() && !unfused.is_fused());
    assert!(
        fused.num_scans() < unfused.num_scans(),
        "the workload constraints share X attribute sets"
    );
    assert_eq!(fused.num_flags(), unfused.num_flags());

    let runs = run_both_programs(&set, &data);
    let (_, report, evidence, groups) = &runs[0];
    assert!(!report.is_clean());
    for (label, other_report, other_evidence, other_groups) in &runs[1..] {
        assert_eq!(
            (other_report, other_evidence, other_groups),
            (report, evidence, groups),
            "{label}"
        );
    }

    let detector = SemanticDetector::from_set(&set);
    assert_eq!(detector.program(), fused.program());
    assert_ne!(detector.program(), unfused.program());
}
