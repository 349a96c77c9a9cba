//! The brute force over explicit small domains: every instance of at most
//! two tuples of an [`crate::abc`] schema.
//!
//! Per attribute it takes the declared finite domain, or the attribute's
//! three constants and two values no cell mentions. By the small model
//! property that is enough for the static analyses: one tuple witnesses
//! satisfiability, two refute an implication, and two tuples can differ on
//! an attribute outside every constant. Detection reads stored rows, and a
//! schema checks types only, so [`all_tuples`] can also give a finite-domain
//! attribute NULL and one value outside its declared domain.

use crate::abc::constant;
use ecfd_core::{satisfaction, ECfd};
use ecfd_relation::{Domain, Relation, Schema, Tuple, Value};

/// Every tuple over the explicit small domains: per attribute, the declared
/// finite domain, or the three constants plus two values no cell mentions.
/// With `strangers`, a finite domain also takes NULL and a value outside it,
/// which a stored row may hold.
pub fn all_tuples(schema: &Schema, strangers: bool) -> Vec<Tuple> {
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

/// The instance of `schema` holding `tuples`.
pub fn instance(schema: &Schema, tuples: &[&Tuple]) -> Relation {
    Relation::with_tuples(schema.clone(), tuples.iter().map(|t| (*t).clone())).unwrap()
}

/// Is `φ` violated by some instance of `Σ` of one or two tuples? Only models
/// of `Σ` need pairing: a pair that satisfies `Σ` has models as its tuples.
pub fn has_counterexample(schema: &Schema, models: &[&Tuple], sigma: &[ECfd], phi: &ECfd) -> bool {
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
