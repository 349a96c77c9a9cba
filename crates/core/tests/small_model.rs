//! Model-based property test of the two exact deciders of Section III:
//! random constraint sets `Σ` of one to three eCFDs plus a candidate `φ` over
//! a three-attribute schema, against reference deciders that enumerate every
//! instance over raw active domains.
//!
//! The references are the deciders this crate used before satisfiability and
//! implication shared one search over value classes, kept verbatim: the
//! single-tuple backtracker with per-constraint pruning, and the two-tuple
//! enumerator that builds a relation per candidate pair. `X`, `Y` and `Yp`
//! are drawn from all three attributes, so an attribute may sit on both
//! sides; cells are wildcards, sets or complements over three constants per
//! attribute, and some cases declare a finite domain on one attribute.
//!
//! Wherever a reference decides within its budget, `check_satisfiability`
//! and `check_implication` must give the same answer, every witness must
//! satisfy `Σ`, and every counterexample must satisfy `Σ` and violate `φ`.

use ecfd_core::implication::{check_implication, ImplicationOptions, ImplicationOutcome};
use ecfd_core::satisfaction;
use ecfd_core::satisfiability::{check_satisfiability, single_tuple_satisfies, SatOptions};
use ecfd_core::{ECfd, PatternTuple, PatternValue};
use ecfd_relation::{DataType, Relation, Schema, Value};
use proptest::prelude::*;

const ATTRS: [&str; 3] = ["A", "B", "C"];
/// Budget for the references; every generated case fits it many times over.
const REFERENCE_BUDGET: u64 = 2_000_000;

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

/// The single-tuple satisfiability search, verbatim.
mod reference_satisfiability {
    use ecfd_core::error::{CoreError, Result};
    use ecfd_core::pattern::PatternValue;
    use ecfd_core::satisfiability::{active_domains, single_tuple_satisfies};
    use ecfd_core::ECfd;
    use ecfd_relation::{Domain, Schema, Tuple, Value};
    use std::collections::{BTreeMap, BTreeSet};

    /// `Some(satisfiable)`, or `None` when the budget runs out.
    pub fn decide(schema: &Schema, ecfds: &[ECfd], budget: u64) -> Option<bool> {
        let domains = active_domains(schema, ecfds);
        let mut constrained: Vec<(String, Vec<Value>)> = domains.into_iter().collect();
        constrained.sort_by_key(|(_, vals)| vals.len());
        let mut assignment: BTreeMap<String, Value> = BTreeMap::new();
        let mut budget = budget;
        search(schema, ecfds, &constrained, 0, &mut assignment, &mut budget).ok()
    }

    fn default_value_for(domain: &Domain) -> Value {
        domain
            .fresh_value_outside(&BTreeSet::new())
            .unwrap_or(Value::Null)
    }

    fn complete_tuple(schema: &Schema, assignment: &BTreeMap<String, Value>) -> Tuple {
        Tuple::new(
            schema
                .attributes()
                .iter()
                .map(|a| {
                    assignment
                        .get(&a.name)
                        .cloned()
                        .unwrap_or_else(|| default_value_for(&a.domain))
                })
                .collect(),
        )
    }

    fn violates_partial(ecfd: &ECfd, assignment: &BTreeMap<String, Value>) -> bool {
        for (tp_idx, tp) in ecfd.tableau().iter().enumerate() {
            let mut lhs_all_assigned_and_match = true;
            let mut lhs_definitely_unmatched = false;
            for (attr, _cell) in ecfd.lhs().iter().zip(&tp.lhs) {
                match assignment.get(attr) {
                    Some(value) => {
                        if !ecfd
                            .lhs_cell(tp_idx, attr)
                            .expect("cell exists")
                            .matches(value)
                        {
                            lhs_definitely_unmatched = true;
                            break;
                        }
                    }
                    None => {
                        lhs_all_assigned_and_match = false;
                    }
                }
            }
            if lhs_definitely_unmatched || !lhs_all_assigned_and_match {
                continue;
            }
            // LHS fully matches: every assigned RHS attribute must match its cell.
            let rhs_attrs = ecfd.rhs_attrs();
            for (attr, cell) in rhs_attrs.iter().zip(&tp.rhs) {
                if let Some(value) = assignment.get(*attr) {
                    if !cell.matches(value) {
                        return true;
                    }
                } else if matches!(cell, PatternValue::In(s) if s.is_empty()) {
                    return true;
                }
            }
        }
        false
    }

    fn search(
        schema: &Schema,
        ecfds: &[ECfd],
        attrs: &[(String, Vec<Value>)],
        depth: usize,
        assignment: &mut BTreeMap<String, Value>,
        budget: &mut u64,
    ) -> Result<bool> {
        if *budget == 0 {
            return Err(CoreError::AnalysisBudgetExceeded(format!(
                "satisfiability search exceeded its node budget with {} attributes left",
                attrs.len() - depth
            )));
        }
        *budget -= 1;

        if depth == attrs.len() {
            let candidate = complete_tuple(schema, assignment);
            return single_tuple_satisfies(schema, ecfds, &candidate);
        }

        let (attr, values) = &attrs[depth];
        if values.is_empty() {
            // A constrained attribute with an empty active domain (e.g. an
            // enumerated finite domain none of whose values are admissible) makes
            // the set unsatisfiable along this branch.
            return Ok(false);
        }
        for value in values {
            assignment.insert(attr.clone(), value.clone());
            if !ecfds.iter().any(|e| violates_partial(e, assignment))
                && search(schema, ecfds, attrs, depth + 1, assignment, budget)?
            {
                return Ok(true);
            }
            assignment.remove(attr);
        }
        Ok(false)
    }
}

/// The two-tuple implication enumerator, verbatim.
mod reference_implication {
    use ecfd_core::error::{CoreError, Result};
    use ecfd_core::implication::ImplicationOutcome;
    use ecfd_core::satisfaction;
    use ecfd_core::ECfd;
    use ecfd_relation::{Domain, Relation, Schema, Tuple, Value};
    use std::collections::{BTreeMap, BTreeSet};

    /// `Some(implied)`, or `None` when the budget runs out.
    pub fn decide(schema: &Schema, sigma: &[ECfd], phi: &ECfd, budget: u64) -> Option<bool> {
        let mut all: Vec<ECfd> = sigma.to_vec();
        all.push(phi.clone());
        let domains = two_fresh_active_domains(schema, &all);
        let attrs: Vec<(String, Vec<Value>)> = domains.into_iter().collect();
        let mut budget = budget;
        let mut assignment1: BTreeMap<String, Value> = BTreeMap::new();
        let outcome = search_pair(schema, sigma, phi, &attrs, 0, &mut assignment1, &mut budget);
        Some(outcome.ok()?.is_none())
    }

    fn two_fresh_active_domains(schema: &Schema, ecfds: &[ECfd]) -> BTreeMap<String, Vec<Value>> {
        let mut constants: BTreeMap<String, BTreeSet<Value>> = BTreeMap::new();
        for ecfd in ecfds {
            for (attr, consts) in ecfd.constants_per_attribute() {
                constants.entry(attr).or_default().extend(consts);
            }
        }
        let mut out = BTreeMap::new();
        for (attr, consts) in constants {
            let domain = schema
                .attr_id(&attr)
                .and_then(|id| schema.attribute(id))
                .map(|a| a.domain.clone())
                .unwrap_or(Domain::Unbounded(ecfd_relation::DataType::Str));
            let mut values: Vec<Value> = consts
                .iter()
                .filter(|v| domain.contains(v))
                .cloned()
                .collect();
            let mut exclude = consts.clone();
            for _ in 0..2 {
                if let Some(fresh) = domain.fresh_value_outside(&exclude) {
                    exclude.insert(fresh.clone());
                    values.push(fresh);
                }
            }
            out.insert(attr, values);
        }
        out
    }

    fn complete_tuple(schema: &Schema, assignment: &BTreeMap<String, Value>) -> Tuple {
        Tuple::new(
            schema
                .attributes()
                .iter()
                .map(|a| {
                    assignment.get(&a.name).cloned().unwrap_or_else(|| {
                        a.domain
                            .fresh_value_outside(&BTreeSet::new())
                            .unwrap_or(Value::Null)
                    })
                })
                .collect(),
        )
    }

    /// Enumerates assignments for the first tuple; for each, enumerates the second.
    fn search_pair(
        schema: &Schema,
        sigma: &[ECfd],
        phi: &ECfd,
        attrs: &[(String, Vec<Value>)],
        depth: usize,
        assignment1: &mut BTreeMap<String, Value>,
        budget: &mut u64,
    ) -> Result<Option<ImplicationOutcome>> {
        if depth == attrs.len() {
            let t1 = complete_tuple(schema, assignment1);
            // Prune: {t1} must satisfy Σ for any superset instance to do so —
            // adding a second tuple can only add violations, never remove them,
            // because eCFD satisfaction is an intersection of per-tuple and
            // per-pair conditions.
            let single = Relation::with_tuples(schema.clone(), [t1.clone()])?;
            if !satisfaction::satisfies_all(&single, sigma)? {
                return Ok(None);
            }
            // Single-tuple counterexample?
            if !satisfaction::satisfies_all(&single, std::slice::from_ref(phi))? {
                return Ok(Some(ImplicationOutcome::NotImplied(vec![t1])));
            }
            let mut assignment2: BTreeMap<String, Value> = BTreeMap::new();
            return search_second(schema, sigma, phi, attrs, 0, &t1, &mut assignment2, budget);
        }
        let (attr, values) = &attrs[depth];
        if values.is_empty() {
            return Ok(None);
        }
        for value in values {
            if *budget == 0 {
                return Err(CoreError::AnalysisBudgetExceeded(
                    "implication search exceeded its node budget".into(),
                ));
            }
            *budget -= 1;
            assignment1.insert(attr.clone(), value.clone());
            if let Some(found) =
                search_pair(schema, sigma, phi, attrs, depth + 1, assignment1, budget)?
            {
                return Ok(Some(found));
            }
            assignment1.remove(attr);
        }
        Ok(None)
    }

    #[allow(clippy::too_many_arguments)]
    fn search_second(
        schema: &Schema,
        sigma: &[ECfd],
        phi: &ECfd,
        attrs: &[(String, Vec<Value>)],
        depth: usize,
        t1: &Tuple,
        assignment2: &mut BTreeMap<String, Value>,
        budget: &mut u64,
    ) -> Result<Option<ImplicationOutcome>> {
        if depth == attrs.len() {
            let t2 = complete_tuple(schema, assignment2);
            let db = Relation::with_tuples(schema.clone(), [t1.clone(), t2.clone()])?;
            if satisfaction::satisfies_all(&db, sigma)?
                && !satisfaction::satisfies_all(&db, std::slice::from_ref(phi))?
            {
                return Ok(Some(ImplicationOutcome::NotImplied(vec![t1.clone(), t2])));
            }
            return Ok(None);
        }
        let (attr, values) = &attrs[depth];
        if values.is_empty() {
            return Ok(None);
        }
        for value in values {
            if *budget == 0 {
                return Err(CoreError::AnalysisBudgetExceeded(
                    "implication search exceeded its node budget".into(),
                ));
            }
            *budget -= 1;
            assignment2.insert(attr.clone(), value.clone());
            if let Some(found) = search_second(
                schema,
                sigma,
                phi,
                attrs,
                depth + 1,
                t1,
                assignment2,
                budget,
            )? {
                return Ok(Some(found));
            }
            assignment2.remove(attr);
        }
        Ok(None)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn both_deciders_match_the_enumerating_references(
        sigma in proptest::collection::vec(arb_ecfd(), 1..=3),
        phi in arb_ecfd(),
        finite in (0usize..6, 1usize..16),
    ) {
        let schema = schema(finite);

        let sat = check_satisfiability(&schema, &sigma, SatOptions::default()).unwrap();
        if let Some(witness) = sat.witness() {
            prop_assert!(single_tuple_satisfies(&schema, &sigma, witness).unwrap());
        }
        if let Some(expected) = reference_satisfiability::decide(&schema, &sigma, REFERENCE_BUDGET) {
            prop_assert_eq!(sat.is_satisfiable(), expected, "Σ = {:?}", sigma);
        }

        let outcome =
            check_implication(&schema, &sigma, &phi, ImplicationOptions::default()).unwrap();
        if let ImplicationOutcome::NotImplied(tuples) = &outcome {
            prop_assert!((1..=2).contains(&tuples.len()));
            let db = Relation::with_tuples(schema.clone(), tuples.iter().cloned()).unwrap();
            prop_assert!(satisfaction::satisfies_all(&db, &sigma).unwrap());
            prop_assert!(!satisfaction::check(&db, &phi).unwrap().is_satisfied());
        }
        if let Some(expected) =
            reference_implication::decide(&schema, &sigma, &phi, REFERENCE_BUDGET)
        {
            prop_assert_eq!(
                outcome.is_implied(),
                expected,
                "Σ = {:?}, φ = {}, schema = {:?}",
                sigma.iter().map(ToString::to_string).collect::<Vec<_>>(),
                phi,
                schema
            );
        }
    }
}
