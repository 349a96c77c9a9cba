//! The builders both shape families ([`crate::cust`], [`crate::abc`])
//! share: random eCFDs of every shape over three attributes, and a pattern
//! tuple comparable to another under subsumption, which the compile-pipeline
//! checks append to a tableau so that `ConstraintSet::compile` has a single
//! to drop.

use ecfd_core::{ECfd, PatternTuple, PatternValue};
use ecfd_relation::Value;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

/// An attribute and the constants its pattern cells draw from.
pub(crate) type Attr = (&'static str, Vec<Value>);

/// The constants a mask picks, never none: bit `i` of
/// `mask % (2ⁿ − 1) + 1` picks `constants[i]`.
fn picked(constants: &[Value], mask: usize) -> BTreeSet<Value> {
    let mask = mask % ((1 << constants.len()) - 1) + 1;
    (constants.iter().enumerate())
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, v)| v.clone())
        .collect()
}

/// A cell over `constants`: kind 0–1 a wildcard, 2 a set, 3 a complement,
/// of the constants `mask` picks.
pub(crate) fn cell(constants: &[Value], (kind, mask): (usize, usize)) -> PatternValue {
    match kind {
        2 => PatternValue::In(picked(constants, mask)),
        3 => PatternValue::NotIn(picked(constants, mask)),
        _ => PatternValue::Wildcard,
    }
}

/// eCFDs of every shape over `relation`'s three `attrs`: `x_masks` picks
/// `X`, each attribute is in `Y`, in `Yp` or in neither (at least one on the
/// right, so an attribute may sit on both sides), and the tableau has
/// `rows` pattern tuples of one cell per `X` and then `Y ∪ Yp` attribute.
pub(crate) fn arb_ecfd_over(
    relation: &'static str,
    attrs: [Attr; 3],
    x_masks: Range<usize>,
    rows: RangeInclusive<usize>,
) -> impl Strategy<Value = ECfd> {
    let cells = proptest::collection::vec((0usize..4, 0usize..32), 6);
    (
        x_masks,
        proptest::collection::vec(0usize..3, 3),
        proptest::collection::vec(cells, rows),
    )
        .prop_map(move |(x_mask, mut roles, tableau)| {
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
            let tableau = (tableau.into_iter())
                .map(|cells| {
                    let lhs = x.iter().zip(&cells).map(|(&a, &c)| cell(&attrs[a].1, c));
                    let right = (rhs.iter().zip(&cells[3..])).map(|(&a, &c)| cell(&attrs[a].1, c));
                    PatternTuple::new(lhs.collect(), right.collect())
                })
                .collect();
            let names = |at: &[usize]| at.iter().map(|&a| attrs[a].0.to_string()).collect();
            ECfd::new(relation, names(&x), names(&y), names(&yp), tableau).expect("well-formed")
        })
}

/// A cell matching no value `cell` does: a wildcard may become a set or a
/// complement (kind 1, 2), a set a subset, a complement a larger complement
/// or a set outside it (kind 1).
fn narrow(cell: &PatternValue, picked: BTreeSet<Value>, kind: usize) -> PatternValue {
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

/// A cell matching every value `cell` does: a set may grow (kind 0), become
/// a wildcard (kind 1) or a complement of values outside it, a complement
/// shrink.
fn widen(cell: &PatternValue, picked: BTreeSet<Value>, kind: usize) -> PatternValue {
    let complement = |set: BTreeSet<Value>| {
        if set.is_empty() {
            PatternValue::Wildcard
        } else {
            PatternValue::NotIn(set)
        }
    };
    match cell {
        PatternValue::Wildcard => PatternValue::Wildcard,
        PatternValue::In(s) => match kind {
            0 => PatternValue::In(s.union(&picked).cloned().collect()),
            1 => PatternValue::Wildcard,
            _ => complement(picked.difference(s).cloned().collect()),
        },
        PatternValue::NotIn(s) => complement(s.intersection(&picked).cloned().collect()),
    }
}

/// A copy of the pattern tuple `tp` of `e` comparable to it under
/// subsumption: every `X` cell narrowed and every `Y ∪ Yp` cell widened, so
/// that `tp` subsumes the copy. Of the six `choices`, `choices[i]` =
/// `(kind, mask)` shapes `X` cell `i` and `choices[3 + i]` the `i`-th
/// `Y ∪ Yp` cell, the mask picking from the attribute's constants in
/// `attrs`. Where that changes nothing, the copy is `tp` with every `X` cell
/// a wildcard instead, which subsumes `tp`; so the copy equals `tp` only
/// when its `X` cells are all wildcards and none narrowed.
pub(crate) fn comparable_copy(
    e: &ECfd,
    tp: &PatternTuple,
    attrs: &[Attr],
    choices: &[(usize, usize)],
) -> PatternTuple {
    type Change = fn(&PatternValue, BTreeSet<Value>, usize) -> PatternValue;
    let shape = |change: Change, name: &str, cell, &(kind, mask): &(usize, usize)| {
        let (_, constants) = attrs.iter().find(|(a, _)| *a == name).expect("attribute");
        change(cell, picked(constants, mask), kind)
    };
    let lhs = (e.lhs().iter().zip(&tp.lhs).zip(&choices[..3]))
        .map(|((a, c), choice)| shape(narrow, a, c, choice));
    let rhs = (e.rhs_attrs().into_iter().zip(&tp.rhs).zip(&choices[3..]))
        .map(|((a, c), choice)| shape(widen, a, c, choice));
    let copy = PatternTuple::new(lhs.collect(), rhs.collect());
    if copy != *tp {
        return copy;
    }
    PatternTuple::new(vec![PatternValue::Wildcard; tp.lhs.len()], tp.rhs.clone())
}
