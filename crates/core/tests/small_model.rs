//! Model-based property test of the three static analyses of Sections III
//! and IV: random constraint sets `Σ` of one to three eCFDs plus a candidate
//! `φ` over a three-attribute schema, against a brute force that enumerates
//! every instance of at most two tuples over explicit small domains.
//!
//! Per attribute the brute force takes the declared finite domain, or the
//! attribute's three constants and two values no cell mentions. By the small
//! model property that is enough: one tuple witnesses satisfiability, two
//! refute an implication, and two tuples can differ on an attribute outside
//! every constant. `X`, `Y` and `Yp` are drawn from all three attributes, so
//! an attribute may sit on both sides; cells are wildcards, sets or
//! complements over three constants per attribute, and some cases declare a
//! finite domain on one attribute.
//!
//! `check_satisfiability` must find a model exactly when one exists,
//! `check_implication` must report `φ` implied exactly when no instance of
//! `Σ` violates it, and `max_satisfiable` must keep the largest number of
//! constraints of `Σ` one tuple satisfies, with no limit on the size of the
//! instance. Every witness must satisfy `Σ` (or its reported subset), and
//! every counterexample must satisfy `Σ` and violate `φ`. Section IV's
//! reduction is checked alongside: whenever `f(Σ)` is small enough for
//! MAXGSAT's exhaustive solver, its optimum is that same number.
//!
//! The same brute force confirms every single `ConstraintSet::compile` drops
//! as subsumed: on every instance of at most two tuples the dropped single
//! flags no row its recorded subsumer does not, and the compiled singles flag
//! exactly the rows of `ConstraintSet::verbatim`'s. Detection reads stored
//! rows, and a schema checks types only, so here a finite-domain attribute
//! also takes NULL and one value outside its declared domain: a drop that
//! only holds over the declared domain would lose flags on such rows.

use ecfd_core::implication::{check_implication, ImplicationOutcome};
use ecfd_core::maxss::{max_satisfiable, MaxSsEncoding, SatisfiabilityVerdict};
use ecfd_core::satisfaction;
use ecfd_core::satisfiability::{check_satisfiability, single_tuple_satisfies};
use ecfd_core::{ConstraintSet, ECfd, PatternTuple, PatternValue, ViolationKind};
use ecfd_logic::MaxGSatInstance;
use ecfd_relation::{DataType, Domain, Relation, RowId, Schema, Tuple, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

const ATTRS: [&str; 3] = ["A", "B", "C"];

fn constant(attr: usize, i: usize) -> Value {
    Value::str(format!("{}{i}", ATTRS[attr].to_lowercase()))
}

/// The schema, with a finite domain on attribute `finite.0` drawn by the
/// bit mask `finite.1` from its three constants and one value no cell
/// mentions.
fn schema(finite: (usize, usize)) -> Schema {
    let (attr, mask) = finite;
    let mut builder = Schema::builder("r");
    for (a, name) in ATTRS.iter().enumerate() {
        builder = if a == attr {
            let values = (0..4)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| constant(a, i));
            builder.finite_attr(*name, DataType::Str, values)
        } else {
            builder.attr(*name, DataType::Str)
        };
    }
    builder.build()
}

/// A cell on attribute `attr`: kind 0–1 wildcard, 2 a set, 3 a complement,
/// over the nonempty subset `mask` of the attribute's three constants.
fn cell(attr: usize, (kind, mask): (usize, usize)) -> PatternValue {
    let values = (0..3)
        .filter(|i| mask & (1 << i) != 0)
        .map(|i| constant(attr, i));
    match kind {
        2 => PatternValue::In(values.collect()),
        3 => PatternValue::NotIn(values.collect()),
        _ => PatternValue::Wildcard,
    }
}

/// An eCFD over `r`: `x_mask` picks `X`; `roles[a]` puts attribute `a` in
/// nothing (0), `Y` (1) or `Yp` (2); each pattern tuple carries one cell per
/// position of `X` and then `Y ∪ Yp`.
fn arb_ecfd() -> impl Strategy<Value = ECfd> {
    let cells = proptest::collection::vec((0usize..4, 1usize..8), 6);
    (
        0usize..8,
        proptest::collection::vec(0usize..3, 3),
        proptest::collection::vec(cells, 1..=2),
    )
        .prop_map(|(x_mask, mut roles, tableau)| {
            if roles.iter().all(|&r| r == 0) {
                roles[x_mask % 3] = 1;
            }
            let pick = |pred: &dyn Fn(usize) -> bool| -> Vec<usize> {
                (0..3).filter(|&a| pred(a)).collect()
            };
            let x = pick(&|a| x_mask & (1 << a) != 0);
            let y = pick(&|a| roles[a] == 1);
            let yp = pick(&|a| roles[a] == 2);
            let rhs: Vec<usize> = y.iter().chain(&yp).copied().collect();
            let tableau = tableau
                .into_iter()
                .map(|cells| {
                    let lhs = x.iter().zip(&cells).map(|(&a, &c)| cell(a, c));
                    let right = rhs.iter().zip(&cells[3..]).map(|(&a, &c)| cell(a, c));
                    PatternTuple::new(lhs.collect(), right.collect())
                })
                .collect();
            let names = |attrs: &[usize]| attrs.iter().map(|&a| ATTRS[a].to_string()).collect();
            ECfd::new("r", names(&x), names(&y), names(&yp), tableau).expect("well-formed")
        })
}

/// The constants of attribute `attr` picked by the nonempty mask `mask`.
fn picked(attr: usize, mask: usize) -> BTreeSet<Value> {
    (0..3)
        .filter(|i| mask & (1 << i) != 0)
        .map(|i| constant(attr, i))
        .collect()
}

/// A cell matching no value `cell` does not: a wildcard may become a set or
/// a complement, a set a subset, a complement a larger complement or a set
/// outside it.
fn narrow(attr: usize, cell: &PatternValue, (kind, mask): (usize, usize)) -> PatternValue {
    let picked = picked(attr, mask);
    match cell {
        PatternValue::Wildcard => match kind {
            0 => PatternValue::Wildcard,
            1 => PatternValue::In(picked),
            _ => PatternValue::NotIn(picked),
        },
        PatternValue::In(s) => match s.intersection(&picked).cloned().collect::<BTreeSet<_>>() {
            sub if sub.is_empty() => cell.clone(),
            sub => PatternValue::In(sub),
        },
        PatternValue::NotIn(s) => match picked.difference(s).cloned().collect::<BTreeSet<_>>() {
            outside if kind == 1 && !outside.is_empty() => PatternValue::In(outside),
            _ => PatternValue::NotIn(s.union(&picked).cloned().collect()),
        },
    }
}

/// A cell matching every value `cell` does: a set may grow, become a
/// complement of values outside it or a wildcard, a complement shrink.
fn widen(attr: usize, cell: &PatternValue, (kind, mask): (usize, usize)) -> PatternValue {
    let picked = picked(attr, mask);
    let or_wildcard = |set: BTreeSet<Value>, cell: fn(BTreeSet<Value>) -> PatternValue| {
        if set.is_empty() {
            PatternValue::Wildcard
        } else {
            cell(set)
        }
    };
    match cell {
        PatternValue::Wildcard => PatternValue::Wildcard,
        PatternValue::In(s) => match kind {
            0 => PatternValue::In(s.union(&picked).cloned().collect()),
            1 => PatternValue::Wildcard,
            _ => or_wildcard(picked.difference(s).cloned().collect(), PatternValue::NotIn),
        },
        PatternValue::NotIn(s) => or_wildcard(
            s.intersection(&picked).cloned().collect(),
            PatternValue::NotIn,
        ),
    }
}

/// `Σ` with a narrowed copy of one pattern appended to its constraint:
/// every `X` cell narrowed and every `Y ∪ Yp` cell widened, so that the
/// pattern it was made from subsumes the copy. Also says whether the copy is
/// new to its tableau (a repeat is deduped instead).
fn arb_sigma_with_narrowed_copy() -> impl Strategy<Value = (Vec<ECfd>, bool)> {
    (
        proptest::collection::vec(arb_ecfd(), 1..=3),
        0usize..3,
        proptest::collection::vec((0usize..3, 1usize..8), 6),
    )
        .prop_map(|(mut sigma, which, choices)| {
            let which = which % sigma.len();
            let e = &sigma[which];
            let tp = &e.tableau()[0];
            let index = |name: &String| ATTRS.iter().position(|a| a == name).expect("attribute");
            let lhs = (e.lhs().iter().zip(&tp.lhs).zip(&choices))
                .map(|((a, c), &choice)| narrow(index(a), c, choice));
            let rhs_attrs = e.fd_rhs().iter().chain(e.pattern_rhs());
            let rhs = (rhs_attrs.zip(&tp.rhs).zip(&choices[3..]))
                .map(|((a, c), &choice)| widen(index(a), c, choice));
            let copy = PatternTuple::new(lhs.collect(), rhs.collect());
            let is_new = !e.tableau().contains(&copy);
            let mut tableau = e.tableau().to_vec();
            tableau.push(copy);
            sigma[which] = e.with_tableau(tableau).expect("well-formed");
            (sigma, is_new)
        })
}

/// Every tuple over the explicit small domains: per attribute, the declared
/// finite domain, or the three constants plus two values no cell mentions.
/// With `strangers`, a finite domain also takes NULL and a value outside it,
/// which a stored row may hold.
fn all_tuples(schema: &Schema, strangers: bool) -> Vec<Tuple> {
    let mut tuples = vec![Vec::new()];
    for (a, attr) in schema.attributes().iter().enumerate() {
        let values: Vec<Value> = match &attr.domain {
            Domain::Finite(_, values) if strangers => (values.iter().cloned())
                .chain([Value::Null, constant(a, 4)])
                .collect(),
            Domain::Finite(_, values) => values.iter().cloned().collect(),
            Domain::Unbounded(_) => (0..5).map(|i| constant(a, i)).collect(),
        };
        tuples = tuples
            .into_iter()
            .flat_map(|t| {
                values.iter().map(move |v| {
                    let mut t = t.clone();
                    t.push(v.clone());
                    t
                })
            })
            .collect();
    }
    tuples.into_iter().map(Tuple::new).collect()
}

fn instance(schema: &Schema, tuples: &[&Tuple]) -> Relation {
    Relation::with_tuples(schema.clone(), tuples.iter().map(|t| (*t).clone())).unwrap()
}

/// Is `φ` violated by some instance of `Σ` of one or two tuples? Only models
/// of `Σ` need pairing: a pair that satisfies `Σ` has models as its tuples.
fn has_counterexample(schema: &Schema, models: &[&Tuple], sigma: &[ECfd], phi: &ECfd) -> bool {
    (0..models.len()).any(|i| {
        (i..models.len()).any(|j| {
            let tuples = if i == j {
                vec![models[i]]
            } else {
                vec![models[i], models[j]]
            };
            let db = instance(schema, &tuples);
            satisfaction::satisfies_all(&db, sigma).unwrap()
                && !satisfaction::check(&db, phi).unwrap().is_satisfied()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_static_analyses_match_a_brute_force(
        sigma in proptest::collection::vec(arb_ecfd(), 1..=3),
        phi in arb_ecfd(),
        finite in (0usize..6, 1usize..16),
    ) {
        let schema = schema(finite);
        let tuples = all_tuples(&schema, false);
        // Per tuple, which constraints of Σ the one-tuple instance satisfies.
        let kept: Vec<Vec<bool>> = (tuples.iter())
            .map(|t| {
                let db = instance(&schema, &[t]);
                sigma.iter().map(|e| satisfaction::check(&db, e).unwrap().is_satisfied()).collect()
            })
            .collect();
        let models: Vec<&Tuple> = (tuples.iter().zip(&kept))
            .filter(|(_, kept)| kept.iter().all(|k| *k))
            .map(|(t, _)| t)
            .collect();

        let sat = check_satisfiability(&schema, &sigma).unwrap();
        prop_assert_eq!(sat.is_satisfiable(), !models.is_empty(), "Σ = {:?}", sigma);
        if let Some(witness) = sat.witness() {
            prop_assert!(single_tuple_satisfies(&schema, &sigma, witness).unwrap());
        }

        let outcome = check_implication(&schema, &sigma, &phi).unwrap();
        prop_assert_eq!(
            outcome.is_implied(),
            !has_counterexample(&schema, &models, &sigma, &phi),
            "Σ = {:?}, φ = {}, schema = {:?}",
            sigma.iter().map(ToString::to_string).collect::<Vec<_>>(),
            phi,
            schema
        );
        if let ImplicationOutcome::NotImplied(tuples) = &outcome {
            prop_assert!((1..=2).contains(&tuples.len()));
            let db = Relation::with_tuples(schema.clone(), tuples.iter().cloned()).unwrap();
            prop_assert!(satisfaction::satisfies_all(&db, &sigma).unwrap());
            prop_assert!(!satisfaction::check(&db, &phi).unwrap().is_satisfied());
        }

        let most = kept.iter().map(|k| k.iter().filter(|k| **k).count()).max().unwrap_or(0);
        let maxss = max_satisfiable(&schema, &sigma).unwrap();
        prop_assert_eq!(maxss.satisfiable_subset.len(), most, "Σ = {:?}", sigma);
        let subset: Vec<ECfd> = maxss.satisfiable_subset.iter().map(|&i| sigma[i].clone()).collect();
        prop_assert!(single_tuple_satisfies(&schema, &subset, &maxss.witness).unwrap());
        let verdict = if models.is_empty() {
            SatisfiabilityVerdict::Unsatisfiable
        } else {
            SatisfiabilityVerdict::Satisfiable
        };
        prop_assert_eq!(maxss.verdict, verdict);
        // Repeating a constraint's pattern tuples changes no satisfaction, so
        // not the optimum either: a constraint breaks once, however many of
        // its pattern tuples fail.
        for which in 0..sigma.len() {
            let (mut repeated, e) = (sigma.clone(), &sigma[which]);
            let tableau = e.tableau().iter().cycle().take(3 * e.tableau_size()).cloned();
            repeated[which] = e.with_tableau(tableau.collect()).unwrap();
            let outcome = max_satisfiable(&schema, &repeated).unwrap();
            prop_assert_eq!(outcome.satisfiable_subset.len(), most, "Σ = {:?}", repeated);
        }

        // The reduction keeps the optimum: f(Σ)'s best assignment satisfies
        // as many formulas as the best tuple satisfies constraints.
        let encoding = MaxSsEncoding::build(&schema, &sigma).unwrap();
        if encoding.instance().num_vars() <= MaxGSatInstance::EXHAUSTIVE_MAX_VARS {
            let optimum = encoding.instance().solve_exhaustive().num_satisfied();
            prop_assert_eq!(optimum, most, "Σ = {:?}", sigma);
        }
    }
}

/// The rows `ecfds` flag `SV` and `MV` on `db`.
fn flags(db: &Relation, ecfds: &[ECfd]) -> (BTreeSet<RowId>, BTreeSet<RowId>) {
    let result = satisfaction::check_all(db, ecfds).unwrap();
    let violations = result.violations();
    (violations.sv_rows().clone(), violations.mv_rows().clone())
}

/// Cases of the subsumption property so far, and those where a single was
/// dropped as subsumed.
static CASES: AtomicUsize = AtomicUsize::new(0);
static FIRED: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_dropped_single_flags_a_subset_of_its_subsumer(
        case in arb_sigma_with_narrowed_copy(),
        finite in (0usize..6, 1usize..16),
    ) {
        let (sigma, copy_is_new) = case;
        let schema = schema(finite);
        let set = ConstraintSet::compile(&schema, &sigma).unwrap();
        let verbatim = ConstraintSet::verbatim(&schema, &sigma).unwrap();
        // The narrowed copy is subsumed by the pattern it was made from, so
        // unless dedupe removed it, a single was dropped.
        prop_assert!(!copy_is_new || !set.subsumed().is_empty(), "Σ = {:?}", sigma);
        let dropped_any = usize::from(!set.subsumed().is_empty());
        let cases = CASES.fetch_add(1, Ordering::Relaxed) + 1;
        let fired = FIRED.fetch_add(dropped_any, Ordering::Relaxed) + dropped_any;
        prop_assert!(cases < 16 || fired * 2 >= cases, "{fired} of {cases} cases dropped a single");

        let compiled_at: BTreeSet<(usize, usize)> = set.provenance().into_iter().collect();
        let reference: Vec<ECfd> = verbatim.singles().iter().map(|s| s.ecfd.clone()).collect();
        let tuples = all_tuples(&schema, true);
        for i in 0..tuples.len() {
            for j in i..tuples.len() {
                let db = if i == j {
                    instance(&schema, &[&tuples[i]])
                } else {
                    instance(&schema, &[&tuples[i], &tuples[j]])
                };
                // `check_all` checks every pattern of every constraint on its
                // own, and each violation carries the (constraint, pattern)
                // of `ecfds()` that raised it: the indices `subsumed()` and
                // `provenance()` record.
                let all = satisfaction::check_all(&db, set.ecfds()).unwrap();
                let raised = |at: (usize, usize)| -> BTreeSet<(RowId, ViolationKind)> {
                    (all.violations().violations().iter())
                        .filter(|v| (v.constraint, v.pattern) == at)
                        .map(|v| (v.row, v.kind))
                        .collect()
                };
                for &(dropped, kept) in set.subsumed() {
                    prop_assert!(
                        raised(dropped).is_subset(&raised(kept)),
                        "{:?} by {:?} in {:?}",
                        dropped,
                        kept,
                        set.ecfds().iter().map(ToString::to_string).collect::<Vec<_>>()
                    );
                }
                let mut compiled = (BTreeSet::new(), BTreeSet::new());
                for v in all.violations().violations() {
                    if compiled_at.contains(&(v.constraint, v.pattern)) {
                        match v.kind {
                            ViolationKind::SingleTuple => compiled.0.insert(v.row),
                            ViolationKind::MultiTuple => compiled.1.insert(v.row),
                        };
                    }
                }
                prop_assert_eq!(compiled, flags(&db, &reference), "Σ = {:?}", sigma);
            }
        }
    }
}
