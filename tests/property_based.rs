//! Property-based tests over randomly generated instances and constraints:
//! the SQL detection path, the native detector and the reference semantics
//! must always agree, and the static analyses must respect their defining
//! properties (small-model soundness, implication ↔ satisfaction).

use ecfd::prelude::*;
use ecfd_oracle::cust::{
    arb_constraints, arb_ecfd, arb_family, arb_relation, arb_tuple, schema, CITIES, CODES,
};
use ecfd_oracle::MaxSsEncoding;
use proptest::prelude::*;
use std::collections::BTreeSet;

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
        let outcome = satisfiability::check_satisfiability(&schema, &constraints).unwrap();
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

    /// The exhaustive MAXGSAT optimum of f(Σ), mapped back through g, is a
    /// subset that is genuinely satisfiable (witnessed by a single tuple), as
    /// large as exact MAXSS's, and the full set whenever the exact analysis
    /// says the set is satisfiable.
    #[test]
    fn maxss_subsets_are_satisfiable(constraints in arb_constraints()) {
        let schema = schema();
        let encoding = MaxSsEncoding::build(&schema, &constraints).unwrap();
        let gsat = encoding.instance().solve_exhaustive();
        let (subset, witness) = encoding.satisfied_constraints(&gsat.assignment).unwrap();
        let chosen: Vec<ECfd> = subset.iter().map(|&i| constraints[i].clone()).collect();
        prop_assert!(
            satisfiability::single_tuple_satisfies(&schema, &chosen, &witness).unwrap()
        );
        let exact = maxss::max_satisfiable(&schema, &constraints).unwrap();
        prop_assert_eq!(exact.satisfiable_subset.len(), subset.len());
        if satisfiability::is_satisfiable(&schema, &constraints).unwrap() {
            prop_assert_eq!(subset.len(), constraints.len());
        }
    }

    /// Repair soundness: a deletion-only plan never deletes more rows than
    /// the trivial repair (delete every flagged row) nor than either cover of
    /// its conflict graph, the greedy and the exact cover
    /// agree in size on small graphs, and applying the plan yields a
    /// relation the detector reports clean.
    #[test]
    fn repairs_are_clean_and_bounded(data in arb_relation(), constraints in arb_constraints()) {
        let schema = schema();
        let engine = RepairEngine::new(&schema, &constraints).unwrap()
            .with_options(RepairOptions {
                mode: RepairMode::DeleteOnly,
            });
        let evidence = engine.explain(&data).unwrap();
        let flagged = evidence.detection_report().num_violations();
        let plan = engine.plan(&data, &evidence).unwrap();
        prop_assert!(
            plan.num_deletions() <= flagged,
            "{} deletions exceed the trivial bound {flagged}",
            plan.num_deletions()
        );

        // On graphs small enough for the exact cover the greedy cover must
        // match the exact cardinality repair.
        let graph = engine.conflict_graph(&data, &evidence).unwrap();
        let greedy = graph.greedy_deletions();
        prop_assert!(plan.num_deletions() <= greedy.len());
        if graph.num_nodes() <= 12 {
            let exact = graph.exact_deletions().expect("instance fits the oracle");
            prop_assert_eq!(
                greedy.len(), exact.len(),
                "greedy and exact deletion repairs diverge on a small instance"
            );
            prop_assert!(plan.num_deletions() <= exact.len());
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

    /// The compile pipeline keeps flags on every family: the merged, deduped
    /// and subsumption-free set (`ConstraintSet::compile`), the verbatim one
    /// (`SemanticDetector::new`) and a default `Session` flag the same rows,
    /// and all three agree with the reference semantics.
    #[test]
    fn compile_pipeline_keeps_flags_on_every_family(
        data in arb_relation(),
        sigma in arb_family(),
    ) {
        let schema = schema();
        let reference = check_all(&data, &sigma).unwrap();
        let set = ConstraintSet::compile(&schema, &sigma).unwrap();
        // The generated duplicates give both steps work.
        prop_assert!(set.len() < sigma.len(), "nothing merged");
        let registered: usize = sigma.iter().map(|e| e.tableau().len()).sum();
        prop_assert!(set.num_patterns() < registered, "nothing deduped");
        prop_assert!(!set.subsumed().is_empty(), "nothing subsumed");

        let compiled = SemanticDetector::from_set(&set).detect(&data).unwrap();
        let verbatim = SemanticDetector::new(&schema, &sigma).unwrap().detect(&data).unwrap();
        let mut session = Session::new();
        session.load(data).unwrap();
        session.register(&sigma).unwrap();
        let registered = session.detect().unwrap();
        for report in [&compiled, &verbatim, &registered] {
            prop_assert_eq!(&report.sv_rows, reference.violations().sv_rows());
            prop_assert_eq!(&report.mv_rows, reference.violations().mv_rows());
        }
    }

    /// Applying a delta and detecting incrementally always matches detecting
    /// the updated relation from scratch.
    #[test]
    fn incremental_matches_recompute(
        data in arb_relation(),
        constraints in arb_constraints(),
        insertions in proptest::collection::vec(arb_tuple(), 0..6),
        delete_mask in proptest::collection::vec(any::<bool>(), 30),
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
