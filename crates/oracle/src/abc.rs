//! The small-model shapes of `ecfd_core`'s brute-force suite: a relation
//! `r(A, B, C)` whose attributes carry three constants each (`a0`–`a2`,
//! `b0`–`b2`, `c0`–`c2`), one of them possibly declaring a finite domain,
//! and random eCFDs of every shape over it. [`crate::brute`] enumerates its
//! instances.

use crate::shapes::{arb_ecfd_over, cell, comparable_copy, Attr};
use ecfd_core::{ECfd, PatternTuple, PatternValue};
use ecfd_relation::{DataType, Schema, Value};
use proptest::prelude::*;

/// The attributes of [`schema`].
const ATTRS: [&str; 3] = ["A", "B", "C"];

/// Value `i` of attribute `attr`: `a0`, `a1`, …. Cells mention values 0–2
/// only.
pub fn constant(attr: usize, i: usize) -> Value {
    Value::str(format!("{}{i}", ATTRS[attr].to_lowercase()))
}

/// The values of attribute `finite.0` (if it is one of the three) that the
/// bit mask `finite.1` draws from its three constants and value 3, which no
/// cell mentions: the finite domain [`schema`] declares.
fn declared(finite: (usize, usize)) -> Vec<Value> {
    let (attr, mask) = finite;
    (0..4)
        .filter(|i| attr < ATTRS.len() && mask & (1 << i) != 0)
        .map(|i| constant(attr, i))
        .collect()
}

/// The schema, with a finite domain on attribute `finite.0` drawn by the
/// bit mask `finite.1` from its three constants and one value no cell
/// mentions; every attribute unbounded when `finite.0` is not an attribute.
pub fn schema(finite: (usize, usize)) -> Schema {
    let mut builder = Schema::builder("r");
    for (a, name) in ATTRS.iter().enumerate() {
        builder = if a == finite.0 {
            builder.finite_attr(*name, DataType::Str, declared(finite))
        } else {
            builder.attr(*name, DataType::Str)
        };
    }
    builder.build()
}

/// The attributes of [`schema`] with the constants their cells draw from.
fn attrs() -> [Attr; 3] {
    [0, 1, 2].map(|a| (ATTRS[a], (0..3).map(|i| constant(a, i)).collect()))
}

/// An eCFD over `r` of every shape, `X` possibly empty, with one or two
/// pattern tuples; cells are wildcards, sets or complements.
pub fn arb_ecfd() -> impl Strategy<Value = ECfd> {
    arb_ecfd_over("r", attrs(), 0..8, 1..=2)
}

fn names(attrs: &[usize]) -> Vec<String> {
    attrs.iter().map(|&a| ATTRS[a].to_string()).collect()
}

/// One to three [`arb_ecfd`]s with a `comparable_copy` of one constraint's
/// first pattern tuple appended to its tableau, so that the pattern it was
/// made from subsumes the copy or the other way round. Also says whether the
/// copy is new to its tableau (a repeat is deduped instead).
pub fn arb_sigma_with_comparable_copy() -> impl Strategy<Value = (Vec<ECfd>, bool)> {
    (
        proptest::collection::vec(arb_ecfd(), 1..=3),
        0usize..3,
        proptest::collection::vec((0usize..3, 1usize..8), 6),
    )
        .prop_map(|(mut sigma, which, choices)| {
            let which = which % sigma.len();
            let e = &sigma[which];
            let copy = comparable_copy(e, &e.tableau()[0], &attrs(), &choices);
            let is_new = !e.tableau().contains(&copy);
            let mut tableau = e.tableau().to_vec();
            tableau.push(copy);
            sigma[which] = e.with_tableau(tableau).expect("well-formed");
            (sigma, is_new)
        })
}

/// Constraints that pair, on the finite attribute `f` of
/// [`schema`]`(finite)`, a set cell `S` with the complement `!(D ∖ S)` of
/// the rest of the declared domain `D`: the two cells accept the same
/// declared values and differ on NULL and on every value outside `D`, which
/// stored rows may hold. The pair comes in both orders, the set first in
/// `[f] → [g]` (`X` cells `S`, `!(D ∖ S)`) and the complement first in
/// `[g] → [] | [f]` (`Yp` cells `!(D ∖ S)`, `S`), every other cell the set
/// `r` on another attribute `g`. `choice` = `(s, g, r)` picks `S` by a mask
/// over `D`, `g` and `r` by a mask over `g`'s constants. Empty when
/// `finite.0` is not an attribute.
pub fn domain_pairs(finite: (usize, usize), choice: (usize, usize, usize)) -> Vec<ECfd> {
    let domain = declared(finite);
    if domain.is_empty() {
        return Vec::new();
    }
    let (s_mask, g, r_mask) = choice;
    let s_mask = s_mask % ((1 << domain.len()) - 1) + 1;
    let (set, rest): (Vec<_>, Vec<_>) =
        (domain.into_iter().enumerate()).partition(|(i, _)| s_mask >> i & 1 == 1);
    let values = |part: Vec<(usize, Value)>| part.into_iter().map(|(_, v)| v).collect();
    let (s, complement) = (
        PatternValue::In(values(set)),
        PatternValue::NotIn(values(rest)),
    );
    let (f, g) = (finite.0, (finite.0 + 1 + g % 2) % 3);
    let r = cell(&attrs()[g].1, (2, r_mask));
    let pair = |x: usize, y: Vec<usize>, yp: Vec<usize>, first, second| {
        let tableau = [first, second]
            .into_iter()
            .map(|c: PatternValue| {
                let (lhs, rhs) = if x == f {
                    (c, r.clone())
                } else {
                    (r.clone(), c)
                };
                PatternTuple::new(vec![lhs], vec![rhs])
            })
            .collect();
        ECfd::new("r", names(&[x]), names(&y), names(&yp), tableau).expect("well-formed")
    };
    vec![
        pair(f, vec![g], vec![], s.clone(), complement.clone()),
        pair(g, vec![], vec![f], complement, s),
    ]
}
