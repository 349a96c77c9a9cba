//! Property-based tests over randomly generated instances and constraints:
//! the SQL detection path, the native detector and the reference semantics
//! must always agree, and the static analyses must respect their defining
//! properties (small-model soundness, implication ↔ satisfaction).

use ecfd::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A small universe of values keeps collisions (and therefore interesting FD
/// conflicts) frequent.
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
    (0..CITIES.len(), 0..CODES.len(), 0..4usize)
        .prop_map(|(c, a, z)| Tuple::from_iter([CITIES[c], CODES[a], &format!("zip{z}")]))
}

fn arb_relation() -> impl Strategy<Value = Relation> {
    proptest::collection::vec(arb_tuple(), 0..25)
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

/// Random single-pattern eCFDs of the shape `[CT] → [AC] | [ZIP?]`.
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

fn arb_constraints() -> impl Strategy<Value = Vec<ECfd>> {
    proptest::collection::vec(arb_ecfd(), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The three detection paths flag exactly the same rows.
    #[test]
    fn detectors_agree(data in arb_relation(), constraints in arb_constraints()) {
        let reference = check_all(&data, &constraints).unwrap();
        let expected_sv: BTreeSet<RowId> = reference.violations().sv_rows().clone();
        let expected_mv: BTreeSet<RowId> = reference.violations().mv_rows().clone();

        let semantic = SemanticDetector::new(&schema(), &constraints).unwrap()
            .detect(&data).unwrap();
        prop_assert_eq!(&semantic.sv_rows, &expected_sv);
        prop_assert_eq!(&semantic.mv_rows, &expected_mv);

        let mut catalog = Catalog::new();
        catalog.create(data).unwrap();
        let sql = BatchDetector::new(&schema(), &constraints).unwrap()
            .detect(&mut catalog).unwrap();
        prop_assert_eq!(&sql.sv_rows, &expected_sv);
        prop_assert_eq!(&sql.mv_rows, &expected_mv);
    }

    /// If the exact analysis says "satisfiable", its witness really satisfies
    /// the constraints; if it says "unsatisfiable", no single tuple over the
    /// pattern constants does (the small-model property).
    #[test]
    fn satisfiability_witnesses_are_sound(constraints in arb_constraints()) {
        let schema = schema();
        let outcome = satisfiability::check_satisfiability(
            &schema,
            &constraints,
            satisfiability::SatOptions::default(),
        ).unwrap();
        match outcome {
            satisfiability::SatOutcome::Satisfiable(witness) => {
                prop_assert!(
                    satisfiability::single_tuple_satisfies(&schema, &constraints, &witness).unwrap()
                );
            }
            satisfiability::SatOutcome::Unsatisfiable => {
                // Spot-check: no tuple built from the mentioned constants
                // satisfies the set.
                for city in CITIES {
                    for code in CODES {
                        let t = Tuple::from_iter([city, code, "zip0"]);
                        prop_assert!(
                            !satisfiability::single_tuple_satisfies(&schema, &constraints, &t).unwrap()
                        );
                    }
                }
            }
        }
    }

    /// Implication is sound with respect to the satisfaction semantics: if
    /// Σ ⊨ φ then every generated instance satisfying Σ also satisfies φ.
    #[test]
    fn implication_is_sound(
        data in arb_relation(),
        constraints in arb_constraints(),
        candidate in arb_ecfd(),
    ) {
        let schema = schema();
        if implication::implies(&schema, &constraints, &candidate).unwrap() {
            let satisfies_sigma = check_all(&data, &constraints).unwrap().is_satisfied();
            if satisfies_sigma {
                let satisfies_phi = check(&data, &candidate).unwrap().is_satisfied();
                prop_assert!(satisfies_phi, "Σ ⊨ φ but a Σ-instance violates φ");
            }
        }
    }

    /// The MAXSS approximation returns a subset that is genuinely satisfiable
    /// (witnessed by a single tuple), and returns the full set whenever the
    /// exact analysis says the set is satisfiable and the solver is exhaustive.
    #[test]
    fn maxss_subsets_are_satisfiable(constraints in arb_constraints()) {
        let schema = schema();
        let encoding = maxss::MaxSsEncoding::build(&schema, &constraints).unwrap();
        let gsat = encoding.instance().solve_exhaustive();
        let (subset, witness) = encoding.satisfied_constraints(&gsat.assignment).unwrap();
        let chosen: Vec<ECfd> = subset.iter().map(|&i| constraints[i].clone()).collect();
        prop_assert!(
            satisfiability::single_tuple_satisfies(&schema, &chosen, &witness).unwrap()
        );
        let exact = satisfiability::is_satisfiable(&schema, &constraints).unwrap();
        if exact {
            prop_assert_eq!(subset.len(), constraints.len());
        }
    }

    /// Repair soundness: a deletion-only plan never deletes more rows than
    /// the trivial repair (delete every flagged row), greedy and exact
    /// (MAXGSAT-backed) deletion repairs agree on small conflict graphs, and
    /// applying the plan yields a relation the detector reports clean.
    #[test]
    fn repairs_are_clean_and_bounded(data in arb_relation(), constraints in arb_constraints()) {
        let schema = schema();
        let engine = RepairEngine::new(&schema, &constraints).unwrap()
            .with_options(RepairOptions {
                mode: RepairMode::DeleteOnly,
                solver: DeletionSolver::Greedy,
            });
        let evidence = engine.explain(&data).unwrap();
        let flagged = evidence.detection_report().num_violations();
        let plan = engine.plan(&data, &evidence).unwrap();
        prop_assert!(
            plan.num_deletions() <= flagged,
            "{} deletions exceed the trivial bound {flagged}",
            plan.num_deletions()
        );

        // On instances small enough for the exhaustive MAXGSAT oracle the
        // greedy cover must match the exact cardinality repair.
        let graph = engine.conflict_graph(&data, &evidence).unwrap();
        if graph.num_nodes() <= 12 {
            let exact = graph.exact_deletions(12).expect("instance fits the oracle");
            prop_assert_eq!(
                plan.num_deletions(), exact.len(),
                "greedy and exact deletion repairs diverge on a small instance"
            );
        }

        let mut repaired = data.clone();
        plan.to_delta(&data).unwrap().apply(&mut repaired).unwrap();
        let after = SemanticDetector::new(&schema, &constraints).unwrap()
            .detect(&repaired).unwrap();
        prop_assert!(after.is_clean(), "deletion repair left violations behind");
    }

    /// The verified repair loop (value modification + deletion, applied
    /// through the incremental detector) always converges to a clean
    /// instance.
    #[test]
    fn verified_repair_always_converges(data in arb_relation(), constraints in arb_constraints()) {
        let schema = schema();
        let engine = RepairEngine::new(&schema, &constraints).unwrap();
        let mut catalog = Catalog::new();
        catalog.create(data).unwrap();
        let outcome = repair_verified(&engine, &mut catalog).unwrap();
        prop_assert!(outcome.final_report.is_clean());
        // Independent re-check over the surviving tuples, which kept the
        // loaded schema.
        let stored = catalog.get("cust").unwrap();
        prop_assert_eq!(stored.schema(), &schema);
        let recheck = SemanticDetector::new(&schema, &constraints).unwrap()
            .detect(stored).unwrap();
        prop_assert!(recheck.is_clean());
    }

    /// `ConstraintSet` minimization never changes detection output: the
    /// minimized and the raw set yield identical violation flags on random
    /// instances (and the minimized set is never larger).
    #[test]
    fn minimization_preserves_detection_output(
        data in arb_relation(),
        constraints in arb_constraints(),
    ) {
        let schema = schema();
        let raw = ConstraintSet::compile(&schema, &constraints).unwrap();
        let minimized =
            ConstraintSet::compile_with(&schema, &constraints, CompileOptions::minimizing())
                .unwrap();
        prop_assert!(minimized.num_patterns() <= raw.num_patterns());

        let flags_raw = SemanticDetector::from_set(&raw).detect(&data).unwrap();
        let flags_min = SemanticDetector::from_set(&minimized).detect(&data).unwrap();
        prop_assert_eq!(&flags_raw.sv_rows, &flags_min.sv_rows);
        prop_assert_eq!(&flags_raw.mv_rows, &flags_min.mv_rows);

        // The session registers through the same pipeline: a minimizing
        // session and a default one must flag the same rows.
        let mut plain = Session::new();
        plain.load(data.clone()).unwrap();
        plain.register(&constraints).unwrap();
        let mut minimizing = Session::new()
            .with_compile_options(CompileOptions::minimizing());
        minimizing.load(data).unwrap();
        minimizing.register(&constraints).unwrap();
        let a = plain.detect().unwrap();
        let b = minimizing.detect().unwrap();
        prop_assert_eq!(a.sv_rows, b.sv_rows);
        prop_assert_eq!(a.mv_rows, b.mv_rows);
    }

    /// Applying a delta and detecting incrementally always matches detecting
    /// the updated relation from scratch.
    #[test]
    fn incremental_matches_recompute(
        data in arb_relation(),
        constraints in arb_constraints(),
        insertions in proptest::collection::vec(arb_tuple(), 0..6),
        delete_mask in proptest::collection::vec(any::<bool>(), 25),
    ) {
        let schema = schema();
        let deletions: Vec<Tuple> = data
            .tuples()
            .enumerate()
            .filter(|(i, _)| delete_mask.get(*i).copied().unwrap_or(false))
            .map(|(_, t)| t.clone())
            .collect();
        let delta = Delta { insertions, deletions };

        let mut catalog = Catalog::new();
        catalog.create(data.clone()).unwrap();
        let mut inc = IncrementalDetector::initialize(&schema, &constraints, &mut catalog).unwrap();
        inc.apply(&mut catalog, &delta).unwrap();
        let incremental = inc.report();

        let mut updated = data;
        delta.apply(&mut updated).unwrap();
        let from_scratch = SemanticDetector::new(&schema, &constraints).unwrap()
            .detect(&updated).unwrap();
        prop_assert_eq!(incremental.num_sv(), from_scratch.num_sv());
        prop_assert_eq!(incremental.num_mv(), from_scratch.num_mv());
    }
}
