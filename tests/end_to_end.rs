//! End-to-end integration tests spanning the workspace crates: generated
//! workloads → constraint parsing → SQL detection → incremental maintenance
//! → static analyses.

use ecfd::core::error::CoreError;
use ecfd::core::maxss::SatisfiabilityVerdict;
use ecfd::datagen::constraints::{workload_constraints, workload_with_scaled_constraint};
use ecfd::datagen::{generate, generate_delta, CustConfig, UpdateConfig};
use ecfd::prelude::*;
use ecfd_oracle::MaxSsEncoding;

fn workload(size: usize, noise: f64, seed: u64) -> (Schema, Relation, Vec<ECfd>) {
    let (data, _) = generate(&CustConfig {
        size,
        noise_percent: noise,
        seed,
        ..CustConfig::default()
    });
    (data.schema().clone(), data, workload_constraints())
}

#[test]
fn sql_batch_detection_agrees_with_reference_semantics_on_generated_data() {
    for (size, noise, seed) in [(300usize, 0.0f64, 1u64), (300, 5.0, 2), (500, 9.0, 3)] {
        let (schema, data, constraints) = workload(size, noise, seed);
        let reference = check_all(&data, &constraints).unwrap();
        let expected_sv = reference.violations().num_sv();
        let expected_mv = reference.violations().num_mv();

        let mut catalog = Catalog::new();
        catalog.create(data).unwrap();
        let report = BatchDetector::new(&schema, &constraints)
            .unwrap()
            .detect(&mut catalog)
            .unwrap();
        assert_eq!(report.num_sv(), expected_sv, "size {size} noise {noise}");
        assert_eq!(report.num_mv(), expected_mv, "size {size} noise {noise}");
        if noise == 0.0 {
            assert!(report.is_clean(), "clean data must produce no violations");
        } else {
            assert!(!report.is_clean(), "noisy data must produce violations");
        }
    }
}

#[test]
fn incremental_detection_tracks_batch_detection_across_update_rounds() {
    let (schema, data, constraints) = workload(400, 5.0, 11);
    let mut catalog = Catalog::new();
    catalog.create(data.clone()).unwrap();
    let mut inc = IncrementalDetector::initialize(&schema, &constraints, &mut catalog).unwrap();
    let mut mirror = data;

    for round in 0..3u64 {
        let delta = generate_delta(
            &mirror,
            &UpdateConfig {
                insertions: 60,
                deletions: 40,
                noise_percent: 10.0,
                seed: 50 + round,
                ..UpdateConfig::default()
            },
        );
        inc.apply(&mut catalog, &delta).unwrap();
        delta.apply(&mut mirror).unwrap();

        let incremental = inc.report();
        let mut scratch = Catalog::new();
        scratch.create(mirror.clone()).unwrap();
        let from_scratch = BatchDetector::new(&schema, &constraints)
            .unwrap()
            .detect(&mut scratch)
            .unwrap();
        assert_eq!(incremental.num_sv(), from_scratch.num_sv(), "round {round}");
        assert_eq!(incremental.num_mv(), from_scratch.num_mv(), "round {round}");
        assert_eq!(
            catalog.get("cust").unwrap().len(),
            mirror.len(),
            "round {round}: table sizes diverged"
        );
    }
}

#[test]
fn scaled_tableaux_are_detected_consistently_by_both_paths() {
    let (data, _) = generate(&CustConfig {
        size: 250,
        noise_percent: 6.0,
        seed: 21,
        ..CustConfig::default()
    });
    let schema = data.schema().clone();
    let constraints = workload_with_scaled_constraint(40, 5);

    let semantic = SemanticDetector::new(&schema, &constraints)
        .unwrap()
        .detect(&data)
        .unwrap();
    let mut catalog = Catalog::new();
    catalog.create(data).unwrap();
    let sql = BatchDetector::new(&schema, &constraints)
        .unwrap()
        .detect(&mut catalog)
        .unwrap();
    assert_eq!(sql.num_sv(), semantic.num_sv());
    assert_eq!(sql.num_mv(), semantic.num_mv());
}

#[test]
fn constraint_round_trip_through_text_preserves_detection_results() {
    let (schema, data, constraints) = workload(200, 5.0, 31);
    // Serialise every constraint to the textual syntax and parse it back.
    let reparsed: Vec<ECfd> = constraints
        .iter()
        .map(|c| parse_ecfd(&c.to_string()).unwrap())
        .collect();
    assert_eq!(constraints, reparsed);

    let a = SemanticDetector::new(&schema, &constraints)
        .unwrap()
        .detect(&data)
        .unwrap();
    let b = SemanticDetector::new(&schema, &reparsed)
        .unwrap()
        .detect(&data)
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn workload_constraints_are_satisfiable_and_irredundant_enough() {
    let (schema, _, constraints) = workload(50, 0.0, 41);
    assert!(satisfiability::is_satisfiable(&schema, &constraints).unwrap());

    // No φᵢ follows from the other nine, and each has a counterexample that
    // the satisfaction semantics confirms. φ4 (ZIP → CT) and φ9 (AC → CT) are
    // FDs, so theirs need two tuples.
    for (i, phi) in constraints.iter().enumerate() {
        let mut rest = constraints.clone();
        rest.remove(i);
        let outcome = implication::check_implication(&schema, &rest, phi).unwrap();
        let tuples = outcome
            .counterexample()
            .unwrap_or_else(|| panic!("φ{} is implied by the rest", i + 1));
        let db = Relation::with_tuples(schema.clone(), tuples.iter().cloned()).unwrap();
        assert!(check_all(&db, &rest).unwrap().is_satisfied(), "φ{}", i + 1);
        assert!(!check(&db, phi).unwrap().is_satisfied(), "φ{}", i + 1);
    }

    // Split to pattern granularity, nothing is redundant either, and the
    // minimal cover of the workload and of its 40-pattern variant compiles.
    for (set, singles) in [
        (constraints.clone(), 11),
        (workload_with_scaled_constraint(40, 42), 49),
    ] {
        let split: Vec<ECfd> = ecfd::core::normalize::split_patterns(&set)
            .into_iter()
            .map(|s| s.ecfd)
            .collect();
        assert_eq!(split.len(), singles);
        let cover = implication::minimal_cover(&schema, &split).unwrap();
        if singles == 11 {
            assert_eq!(cover, split);
        }
        ConstraintSet::compile(&schema, &cover).unwrap();
    }

    // MAXSS keeps all ten, and over value classes f(Σ) has 14 variables on
    // the workload, so MAXGSAT's exhaustive solver agrees.
    let outcome = maxss::max_satisfiable(&schema, &constraints).unwrap();
    assert_eq!(outcome.satisfiable_subset.len(), constraints.len());
    assert_eq!(outcome.verdict, SatisfiabilityVerdict::Satisfiable);
    let encoding = MaxSsEncoding::build(&schema, &constraints).unwrap();
    assert!(encoding.instance().num_vars() <= 14);
    let (_, satisfied, _) = encoding.solve().unwrap();
    assert_eq!(satisfied.len(), constraints.len());
}

#[test]
fn compile_and_verbatim_sizes_are_pinned() {
    // (constraints, singles) per entry point on the workload and on its
    // variants with φ1's tableau scaled to |Tp| = 10, 40 and 160. `compile`
    // merges the two constraints that share X, Y and Yp and dedupes repeated
    // pattern tuples, then drops the singles another single subsumes (the
    // scaled tableau's narrow patterns); `verbatim` keeps the list as given.
    let schema = ecfd::datagen::cust_schema();
    let sets = [
        workload_constraints(),
        workload_with_scaled_constraint(10, 42),
        workload_with_scaled_constraint(40, 42),
        workload_with_scaled_constraint(160, 42),
    ];
    let sizes = |compile: fn(&Schema, &[ECfd]) -> Result<ConstraintSet, CoreError>| {
        sets.iter()
            .map(|set| {
                let compiled = compile(&schema, set).unwrap();
                (compiled.len(), compiled.singles().len())
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        sizes(ConstraintSet::compile),
        [(9, 11), (9, 12), (9, 13), (9, 33)]
    );
    assert_eq!(
        sizes(ConstraintSet::verbatim),
        [(10, 11), (10, 19), (10, 49), (10, 169)]
    );
}

#[test]
fn maxss_never_calls_a_satisfiable_set_unsatisfiable() {
    // MAXSS is the small-model search with k constraints allowed to break,
    // for the smallest k that succeeds: every satisfiable set is kept whole,
    // and a shortfall is proven by the search that failed at k − 1.
    let schema = ecfd::datagen::cust_schema();
    let workload = workload_constraints();
    let tp40 = workload_with_scaled_constraint(40, 42);
    let tp160 = workload_with_scaled_constraint(160, 42);
    for set in [&workload[..2], &workload[..5], &workload[..], &tp160[..]] {
        assert!(satisfiability::is_satisfiable(&schema, set).unwrap());
        let outcome = maxss::max_satisfiable(&schema, set).unwrap();
        assert_eq!(outcome.verdict, SatisfiabilityVerdict::Satisfiable);
        assert_eq!(
            outcome.satisfiable_subset,
            (0..set.len()).collect::<Vec<_>>()
        );
        assert!(satisfiability::single_tuple_satisfies(&schema, set, &outcome.witness).unwrap());
    }

    // A pair that forces AC into disjoint sets makes each base set
    // unsatisfiable, and one of the pair must go: 11 of 12 kept.
    let pair = ["{518}", "{212}"]
        .map(|ac| parse_ecfd(&format!("cust: [CT] -> [] | [AC], {{ _ || {ac} }}")).unwrap());
    for base in [&workload, &tp40, &tp160] {
        let set: Vec<ECfd> = base.iter().chain(&pair).cloned().collect();
        assert!(!satisfiability::is_satisfiable(&schema, &set).unwrap());
        let outcome = maxss::max_satisfiable(&schema, &set).unwrap();
        assert_eq!(outcome.verdict, SatisfiabilityVerdict::Unsatisfiable);
        assert_eq!(outcome.satisfiable_subset.len(), 11);
        let kept: Vec<ECfd> = (outcome.satisfiable_subset.iter())
            .map(|&i| set[i].clone())
            .collect();
        assert!(satisfiability::single_tuple_satisfies(&schema, &kept, &outcome.witness).unwrap());
    }

    // f(Σ) of the |Tp| = 160 tableau has 89 variables even over classes:
    // MAXGSAT's exhaustive solver refuses it rather than panicking.
    let err = MaxSsEncoding::build(&schema, &tp160)
        .unwrap()
        .solve()
        .unwrap_err();
    assert!(
        matches!(&err, CoreError::AnalysisBudgetExceeded(m) if m.contains("24 variables")),
        "{err:?}"
    );
}

#[test]
fn sql_engine_round_trips_detection_flags() {
    // After BATCHDETECT, the flags are ordinary columns and can be queried
    // through the SQL engine like any other data.
    let (schema, data, constraints) = workload(200, 5.0, 61);
    let mut catalog = Catalog::new();
    catalog.create(data).unwrap();
    let report = BatchDetector::new(&schema, &constraints)
        .unwrap()
        .detect(&mut catalog)
        .unwrap();

    let engine = Engine::new();
    let sv_count = engine
        .query(&catalog, "SELECT COUNT(*) FROM cust WHERE SV = 1")
        .unwrap();
    assert_eq!(
        sv_count.scalar().and_then(Value::as_int),
        Some(report.num_sv() as i64)
    );
    let mv_count = engine
        .query(&catalog, "SELECT COUNT(*) FROM cust WHERE MV = 1")
        .unwrap();
    assert_eq!(
        mv_count.scalar().and_then(Value::as_int),
        Some(report.num_mv() as i64)
    );
}

#[test]
fn yp_attribute_violations_are_flagged_by_every_path_without_joining_the_fd() {
    // The paper's extension beyond classic CFDs: `Yp` attributes carry
    // right-hand-side *pattern* constraints without participating in the
    // embedded FD. Here `φ = cust: [CT] → [AC] | [ZIP]` says NYC tuples must
    // have zip codes in {10001, 10002} (a pure `Yp` constraint, the FD rhs
    // cell is a wildcard), while CT still functionally determines AC.
    let schema = Schema::builder("cust")
        .attr("CT", DataType::Str)
        .attr("AC", DataType::Str)
        .attr("ZIP", DataType::Str)
        .build();
    let phi = parse_ecfd("cust: [CT] -> [AC] | [ZIP], { {NYC} || _, {10001, 10002} }").unwrap();
    let constraints = vec![phi];

    let mut data = Relation::new(schema.clone());
    let clean_a = data
        .insert(Tuple::from_iter(["NYC", "212", "10001"]))
        .unwrap();
    // Same AC, different ZIP: ZIP is in Yp, not Y, so this must NOT be a
    // multi-tuple (FD) violation — only the pattern applies to it.
    let clean_b = data
        .insert(Tuple::from_iter(["NYC", "212", "10002"]))
        .unwrap();
    // Matches the lhs pattern but the ZIP falls outside the Yp set: the
    // Yp-attribute single-tuple violation under test.
    let yp_violation = data
        .insert(Tuple::from_iter(["NYC", "212", "99999"]))
        .unwrap();
    // Outside I(tp) entirely; its ZIP would violate the pattern if Albany
    // matched, so this guards against lhs matching being ignored.
    let unmatched = data
        .insert(Tuple::from_iter(["Albany", "518", "99999"]))
        .unwrap();

    let expected_sv: std::collections::BTreeSet<RowId> = [yp_violation].into_iter().collect();

    // Reference semantics.
    let reference = check_all(&data, &constraints).unwrap();
    assert_eq!(reference.violations().sv_rows(), &expected_sv);
    assert!(reference.violations().mv_rows().is_empty());

    // Native semantic detector.
    let semantic = SemanticDetector::new(&schema, &constraints)
        .unwrap()
        .detect(&data)
        .unwrap();
    assert_eq!(semantic.sv_rows, expected_sv);
    assert!(semantic.mv_rows.is_empty());

    // SQL BATCHDETECT.
    let mut catalog = Catalog::new();
    catalog.create(data.clone()).unwrap();
    let sql = BatchDetector::new(&schema, &constraints)
        .unwrap()
        .detect(&mut catalog)
        .unwrap();
    assert_eq!(sql.sv_rows, expected_sv);
    assert!(sql.mv_rows.is_empty());

    // Incremental maintenance: inserting a fresh Yp violation and a genuine
    // FD violation updates the flags to distinguish the two kinds. INCDETECT
    // seeds itself with a pass of its own, so it starts from a fresh catalog
    // of the same rows, not from BATCHDETECT's flagged table.
    let mut catalog = Catalog::new();
    catalog.create(data.clone()).unwrap();
    let mut inc = IncrementalDetector::initialize(&schema, &constraints, &mut catalog).unwrap();
    let delta = Delta {
        insertions: vec![
            Tuple::from_iter(["NYC", "212", "10003"]), // new Yp violation
            Tuple::from_iter(["NYC", "646", "10001"]), // AC conflict → MV
        ],
        deletions: vec![],
    };
    inc.apply(&mut catalog, &delta).unwrap();
    let report = inc.report();
    // SV: the original bad zip plus the freshly inserted one.
    assert_eq!(report.num_sv(), 2);
    // MV: every NYC tuple now sits in a group where CT no longer determines
    // AC (the two clean tuples, the two bad-zip tuples, and the 646 tuple);
    // the Albany tuple stays untouched.
    assert_eq!(report.num_mv(), 5);
    assert!(!report.violating_rows().contains(&unmatched));
    assert!(report.mv_rows.contains(&clean_a) && report.mv_rows.contains(&clean_b));

    // The incremental picture must match recomputation from scratch.
    let mut updated = data;
    delta.apply(&mut updated).unwrap();
    let scratch = SemanticDetector::new(&schema, &constraints)
        .unwrap()
        .detect(&updated)
        .unwrap();
    assert_eq!(report.num_sv(), scratch.num_sv());
    assert_eq!(report.num_mv(), scratch.num_mv());
}

#[test]
fn evidence_reports_agree_across_all_three_detectors() {
    // The differential contract one level above the flags: semantic, SQL
    // batch and incremental detection must attribute every violation to the
    // same (row, constraint, pattern) pairs and the same groups.
    for (size, noise, seed) in [(200usize, 5.0f64, 2u64), (300, 9.0, 3)] {
        let (schema, data, constraints) = workload(size, noise, seed);
        let (_, semantic) = SemanticDetector::new(&schema, &constraints)
            .unwrap()
            .detect_with_evidence(&data)
            .unwrap();
        assert!(
            !semantic.is_clean(),
            "noisy fixtures must produce violations"
        );

        let mut batch_catalog = Catalog::new();
        batch_catalog.create(data.clone()).unwrap();
        let (batch_report, batch) = BatchDetector::new(&schema, &constraints)
            .unwrap()
            .detect_with_evidence(&mut batch_catalog)
            .unwrap();
        assert_eq!(batch.detection_report(), batch_report);

        let mut inc_catalog = Catalog::new();
        inc_catalog.create(data.clone()).unwrap();
        let mut inc =
            IncrementalDetector::initialize(&schema, &constraints, &mut inc_catalog).unwrap();
        let incremental = inc.evidence();

        assert_eq!(semantic.sv_pairs(), batch.sv_pairs(), "size {size}");
        assert_eq!(semantic.mv_pairs(), batch.mv_pairs(), "size {size}");
        assert_eq!(semantic.sv_pairs(), incremental.sv_pairs(), "size {size}");
        assert_eq!(semantic.mv_pairs(), incremental.mv_pairs(), "size {size}");
        assert_eq!(semantic.normalized(), batch.normalized(), "size {size}");

        // Insert-only updates keep row ids aligned between the incremental
        // table and a from-scratch pass, so the evidence must stay in sync.
        let delta = Delta::insert_only(vec![
            Tuple::from_iter([
                "518", "0", "Eve", "Ash St.", "Albany", "12208", "b1", "book",
            ]),
            Tuple::from_iter(["999", "1", "Mal", "Elm St.", "Albany", "12208", "b1", "vhs"]),
        ]);
        inc.apply(&mut inc_catalog, &delta).unwrap();
        let mut mirror = data;
        delta.apply(&mut mirror).unwrap();
        let (_, scratch) = SemanticDetector::new(&schema, &constraints)
            .unwrap()
            .detect_with_evidence(&mirror)
            .unwrap();
        let updated = inc.evidence();
        assert_eq!(scratch.sv_pairs(), updated.sv_pairs(), "after updates");
        assert_eq!(scratch.mv_pairs(), updated.mv_pairs(), "after updates");
    }
}

#[test]
fn repair_subsystem_cleans_generated_workloads_end_to_end() {
    let (schema, data, constraints) = workload(300, 5.0, 13);
    let engine = RepairEngine::new(&schema, &constraints)
        .unwrap()
        .with_cost_model(EditDistanceCost::default());

    // Explain: every flagged row carries at least one evidence record.
    let evidence = engine.explain(&data).unwrap();
    let report = evidence.detection_report();
    assert!(!report.is_clean());
    for &row in report.violating_rows().iter() {
        assert!(
            !evidence.for_row(row).is_empty(),
            "flagged row {row} lacks evidence"
        );
    }

    // Repair + verify: zero violations afterwards, within the trivial bound.
    let mut catalog = Catalog::new();
    catalog.create(data).unwrap();
    let outcome = repair_verified(&engine, &mut catalog).unwrap();
    assert!(outcome.final_report.is_clean());
    assert!(outcome.num_deletions() <= report.num_violations());
    assert!(
        outcome.num_modifications() > 0,
        "the noisy workload contains value-repairable SV rows"
    );
}

#[test]
fn csv_round_trip_preserves_detection_results() {
    let (schema, data, constraints) = workload(150, 5.0, 71);
    let text = ecfd::relation::csv::to_csv(&data);
    let reloaded = ecfd::relation::csv::from_csv(schema.clone(), &text).unwrap();
    assert_eq!(reloaded, data);

    let a = SemanticDetector::new(&schema, &constraints)
        .unwrap()
        .detect(&data)
        .unwrap();
    let b = SemanticDetector::new(&schema, &constraints)
        .unwrap()
        .detect(&reloaded)
        .unwrap();
    assert_eq!(a.num_sv(), b.num_sv());
    assert_eq!(a.num_mv(), b.num_mv());
}
