//! The `cust` shapes of the facade's property and differential suites: a
//! relation `cust(CT, AC, ZIP)` over a few values per attribute, so random
//! rows collide often and FD conflicts are frequent, and random eCFDs over
//! the same values.

use crate::shapes::{arb_ecfd_over, comparable_copy, Attr};
use ecfd_core::{ECfd, PatternTuple, PatternValue};
use ecfd_relation::{DataType, Relation, Schema, Tuple, Value};
use proptest::prelude::*;

/// The values of `CT`.
pub const CITIES: [&str; 5] = ["Albany", "Troy", "NYC", "LI", "Utica"];
/// The values of `AC`.
pub const CODES: [&str; 4] = ["518", "212", "315", "716"];
/// The values of `ZIP`.
const ZIPS: [&str; 4] = ["zip0", "zip1", "zip2", "zip3"];

/// The attributes of [`schema`], each with the values its rows and pattern
/// cells draw from.
fn attrs() -> [Attr; 3] {
    let values = |vs: &[&str]| vs.iter().map(|v| Value::from(*v)).collect();
    [
        ("CT", values(&CITIES)),
        ("AC", values(&CODES)),
        ("ZIP", values(&ZIPS)),
    ]
}

/// `cust(CT, AC, ZIP)`, every attribute an unbounded string.
pub fn schema() -> Schema {
    Schema::builder("cust")
        .attr("CT", DataType::Str)
        .attr("AC", DataType::Str)
        .attr("ZIP", DataType::Str)
        .build()
}

/// A row of [`schema`].
pub fn arb_tuple() -> impl Strategy<Value = Tuple> {
    (0..CITIES.len(), 0..CODES.len(), 0..ZIPS.len())
        .prop_map(|(c, a, z)| Tuple::from_iter([CITIES[c], CODES[a], ZIPS[z]]))
}

/// 0–29 rows of [`schema`].
pub fn arb_relation() -> impl Strategy<Value = Relation> {
    proptest::collection::vec(arb_tuple(), 0..30)
        .prop_map(|tuples| Relation::with_tuples(schema(), tuples).expect("tuples fit the schema"))
}

/// A wildcard, or a set or a complement of one or two of `values`.
pub fn arb_pattern_value(values: &'static [&'static str]) -> impl Strategy<Value = PatternValue> {
    prop_oneof![
        Just(PatternValue::Wildcard),
        proptest::collection::btree_set(0..values.len(), 1..=2)
            .prop_map(move |idx| PatternValue::in_set(idx.into_iter().map(|i| values[i]))),
        proptest::collection::btree_set(0..values.len(), 1..=2)
            .prop_map(move |idx| PatternValue::not_in_set(idx.into_iter().map(|i| values[i]))),
    ]
}

/// An eCFD `[CT] → [AC]` of one or two pattern tuples sharing their `CT`
/// cell.
pub fn arb_ecfd() -> impl Strategy<Value = ECfd> {
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

/// One to three [`arb_ecfd`]s.
pub fn arb_constraints() -> impl Strategy<Value = Vec<ECfd>> {
    proptest::collection::vec(arb_ecfd(), 1..4)
}

/// 1–3 random eCFDs of any shape (`X` never empty, 1–3 pattern tuples) plus
/// 1–2 merge-compatible duplicates — a copy of one of them, whole or with
/// just one of its pattern tuples — and one `comparable_copy` of one of
/// their pattern tuples. Every such Σ gives `ConstraintSet::compile`
/// something to merge, something to dedupe and a single to drop as
/// subsumed: a wildcard `X` cell always narrows here, so the copy differs
/// from its source.
pub fn arb_family() -> impl Strategy<Value = Vec<ECfd>> {
    let narrowing = (1..3usize, 0..32usize);
    let widening = (0..3usize, 0..32usize);
    (
        proptest::collection::vec(arb_ecfd_over("cust", attrs(), 1..8, 1..=3), 1..4),
        proptest::collection::vec((0..3usize, 0..3usize, any::<bool>(), 0..5usize), 1..3),
        (0..3usize, 0..3usize, 0..5usize),
        (
            proptest::collection::vec(narrowing, 3),
            proptest::collection::vec(widening, 3),
        ),
    )
        .prop_map(
            |(mut sigma, copies, (which, row, at), (narrowing, widening))| {
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
                let choices: Vec<_> = narrowing.into_iter().chain(widening).collect();
                let copy = comparable_copy(original, tp, &attrs(), &choices);
                let copy = (original.with_tableau(vec![copy]))
                    .expect("a comparable copy of a valid pattern tuple is valid");
                sigma.insert(at % (sigma.len() + 1), copy);
                sigma
            },
        )
}
