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

const ZIPS: [&str; 4] = ["zip0", "zip1", "zip2", "zip3"];

/// The three attributes of [`schema`], each with the values its data and
/// pattern cells draw from.
const ATTRS: [(&str, &[&str]); 3] = [("CT", &CITIES), ("AC", &CODES), ("ZIP", &ZIPS)];

/// Raw material for one pattern cell: a kind (wildcard, set, complement) and
/// up to two value indices.
fn arb_cell() -> impl Strategy<Value = (usize, usize, usize, bool)> {
    (0..3usize, 0..5usize, 0..5usize, any::<bool>())
}

fn cell(attr: usize, (kind, i, j, pair): (usize, usize, usize, bool)) -> PatternValue {
    let values = ATTRS[attr].1;
    let mut picked = vec![values[i % values.len()]];
    if pair {
        picked.push(values[j % values.len()]);
    }
    match kind {
        0 => PatternValue::Wildcard,
        1 => PatternValue::in_set(picked),
        _ => PatternValue::not_in_set(picked),
    }
}

/// Random eCFDs of any shape over the three attributes: `X` is a non-empty
/// subset, every attribute is independently in `Y`, in `Yp` or in neither
/// (at least one is on the right), and the tableau has 1–3 tuples.
fn arb_family_ecfd() -> impl Strategy<Value = ECfd> {
    (
        1..8usize,
        1..27usize,
        1..=3usize,
        proptest::collection::vec(arb_cell(), 18),
    )
        .prop_map(|(x_mask, rhs_roles, rows, cells)| {
            let x: Vec<usize> = (0..3).filter(|a| (x_mask >> a) & 1 == 1).collect();
            let role = |a: u32| rhs_roles / 3usize.pow(a) % 3;
            let y: Vec<usize> = (0..3).filter(|&a| role(a as u32) == 1).collect();
            let yp: Vec<usize> = (0..3).filter(|&a| role(a as u32) == 2).collect();
            let mut cells = cells.into_iter();
            let tableau = (0..rows)
                .map(|_| {
                    let mut side = |attrs: &[usize]| -> Vec<PatternValue> {
                        attrs
                            .iter()
                            .map(|&a| cell(a, cells.next().expect("18 cells cover 3 rows")))
                            .collect()
                    };
                    let lhs = side(&x);
                    let rhs = side(&[y.clone(), yp.clone()].concat());
                    PatternTuple::new(lhs, rhs)
                })
                .collect();
            let names = |attrs: &[usize]| attrs.iter().map(|&a| ATTRS[a].0.to_string()).collect();
            ECfd::new("cust", names(&x), names(&y), names(&yp), tableau)
                .expect("generated constraints are well-formed")
        })
}

/// A pattern tuple of `e` comparable to `tp` under subsumption but not equal
/// to it: `tp` with every `X` cell narrowed (a wildcard to one value, a set
/// to its least value, a complement to a larger complement) and the
/// `Y ∪ Yp` cells `widen` picks turned into wildcards; or, where that
/// changes nothing, `tp` with every `X` cell widened to a wildcard.
fn comparable_copy(e: &ECfd, tp: &PatternTuple, pick: usize, widen: &[bool]) -> PatternTuple {
    let values = |name: &str| ATTRS.iter().find(|(a, _)| *a == name).expect("attribute").1;
    let lhs = (e.lhs().iter().zip(&tp.lhs))
        .map(|(attr, cell)| {
            let values = values(attr);
            match cell {
                PatternValue::Wildcard => PatternValue::in_set([values[pick % values.len()]]),
                PatternValue::In(s) => PatternValue::In(s.iter().take(1).cloned().collect()),
                PatternValue::NotIn(s) => {
                    let outside = values.iter().find(|v| !s.contains(&Value::from(**v)));
                    PatternValue::NotIn(
                        s.iter()
                            .cloned()
                            .chain(outside.map(|v| Value::from(*v)))
                            .collect(),
                    )
                }
            }
        })
        .collect();
    let rhs = (tp.rhs.iter().zip(widen.iter().cycle()))
        .map(|(cell, &widen)| {
            if widen {
                PatternValue::Wildcard
            } else {
                cell.clone()
            }
        })
        .collect();
    let copy = PatternTuple::new(lhs, rhs);
    if copy != *tp {
        return copy;
    }
    PatternTuple::new(vec![PatternValue::Wildcard; tp.lhs.len()], tp.rhs.clone())
}

/// 1–3 random eCFDs plus 1–2 merge-compatible duplicates — a copy of one of
/// them, whole or with just one of its pattern tuples — and one comparable
/// copy ([`comparable_copy`]) of one of their pattern tuples. Every such Σ
/// gives `ConstraintSet::compile` something to merge, something to dedupe
/// and a single to drop as subsumed.
fn arb_family() -> impl Strategy<Value = Vec<ECfd>> {
    (
        proptest::collection::vec(arb_family_ecfd(), 1..4),
        proptest::collection::vec((0..3usize, 0..3usize, any::<bool>(), 0..5usize), 1..3),
        (0..3usize, 0..3usize, 0..5usize, 0..5usize),
        proptest::collection::vec(any::<bool>(), 3),
    )
        .prop_map(|(mut sigma, copies, (which, row, pick, at), widen)| {
            for (which, row, whole, at) in copies {
                let original = &sigma[which % sigma.len()];
                let tableau = original.tableau();
                let copy = if whole {
                    original.clone()
                } else {
                    original
                        .with_tableau(vec![tableau[row % tableau.len()].clone()])
                        .expect("one pattern tuple of a valid eCFD is valid")
                };
                sigma.insert(at % (sigma.len() + 1), copy);
            }
            let original = &sigma[which % sigma.len()];
            let tp = &original.tableau()[row % original.tableau().len()];
            let copy = original
                .with_tableau(vec![comparable_copy(original, tp, pick, &widen)])
                .expect("a comparable copy of a valid pattern tuple is valid");
            sigma.insert(at % (sigma.len() + 1), copy);
            sigma
        })
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
        let encoding = maxss::MaxSsEncoding::build(&schema, &constraints).unwrap();
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
    /// its conflict graph, the greedy and the exact (MAXGSAT-backed) cover
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

        // On instances small enough for the exhaustive MAXGSAT oracle the
        // greedy cover must match the exact cardinality repair.
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
