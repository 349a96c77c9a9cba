//! The small-model search behind both static analyses of Section III, and
//! the value classes all three static analyses draw a witness tuple from.
//!
//! Satisfiability (Proposition 3.1) and implication (Proposition 3.2) are
//! decided by looking for a tiny instance: a one-tuple model of `Σ`, or at
//! most two tuples that satisfy `Σ` and violate `φ`. MAXSS (Section IV,
//! [`crate::maxss`]) looks for one tuple that violates at most `k`
//! constraints of `Σ`, for the smallest `k` that succeeds.
//!
//! * **Value classes.** Per attribute, constants that every cell of
//!   `Σ ∪ {φ}` (a set or a complement, either side, every pattern tuple)
//!   contains both or neither of cannot be told apart by any pattern; the
//!   values outside every constant form one more class, drawn from
//!   `Domain::fresh_value_outside`. The search assigns one representative
//!   per class when it looks for one tuple and two when it looks for two,
//!   because `t1[Y] ≠ t2[Y]` may need two values of one class. Constants
//!   outside the declared domain are dropped; attributes no constraint
//!   mentions take `fresh_value_outside(∅)`. The grouping itself is the one
//!   [`crate::ConstraintSet`] compiles its singles' cells over; detection
//!   keeps every constant and the outside class, because stored rows may
//!   hold values outside a declared domain.
//! * **Pruning.** The variables are (tuple, attribute) cells, matched
//!   against per-cell tables compiled once per pattern tuple. After each
//!   assignment the search marks each `σ ∈ Σ` that is now violated as
//!   broken: a tuple's assigned `X` matches and an assigned `Y ∪ Yp` cell
//!   fails, or the tuples agree on a matching `X` and differ on an assigned
//!   `Y` cell. A constraint is marked once, however many of its pattern
//!   tuples fail, and the mark is undone on backtrack. The search backtracks
//!   when more constraints are broken than the caller tolerates: none for
//!   satisfiability and implication. Each assignment costs one node of the
//!   caller's budget.
//! * **The goal.** `φ`'s cells are assigned first, so a branch that cannot
//!   violate `φ` is cut before the other attributes are enumerated: one
//!   tuple failing `φ`'s right-hand pattern (SV), or two tuples that share
//!   `φ`'s `X` cells and differ on `Y` (MV).

use crate::ecfd::ECfd;
use crate::pattern::PatternValue;
use crate::set::AttrClasses;
use ecfd_relation::{Attribute, Schema, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// What the search must find besides a model of `Σ`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Goal<'a> {
    /// Any one-tuple model (satisfiability).
    Model,
    /// One tuple that matches a pattern of `φ` and fails its `Y ∪ Yp` cells.
    Single(&'a ECfd),
    /// Two tuples equal on `φ`'s `X`, matching a pattern, unequal on `Y`.
    Pair(&'a ECfd),
}

/// The search ran out of its node budget before deciding.
#[derive(Debug)]
pub(crate) struct OutOfBudget;

/// A search for an instance of one tuple (or two, for [`Goal::Pair`]) that
/// reaches its goal, built once for `Σ` and run once per tolerance, every
/// run charging one unit of the same budget per assignment.
pub(crate) struct Search<'a> {
    schema: &'a Schema,
    classes: ValueClasses,
    /// Every pattern tuple of `Σ`.
    checks: Vec<Check>,
    /// Per attribute, the checks that mention it.
    touching: Vec<Vec<usize>>,
    /// `φ`'s pattern tuples, or `None` when any model will do.
    goal: Option<Vec<Check>>,
    /// Per variable: its attribute and the range of tuples it sets.
    vars: Vec<(usize, usize, usize)>,
    /// Per tuple, per attribute: the assigned representative.
    vals: Vec<Vec<Option<usize>>>,
    /// The constraints the assigned cells violate, each once, in the order
    /// they broke.
    broken: Vec<usize>,
    /// How many constraints may break.
    tolerance: usize,
    budget: &'a mut u64,
}

impl<'a> Search<'a> {
    /// Builds the value classes and compiled pattern tuples of `sigma` and
    /// `goal`. Every constraint must already be validated against `schema`.
    pub(crate) fn new(
        schema: &'a Schema,
        sigma: &[ECfd],
        goal: Goal<'_>,
        budget: &'a mut u64,
    ) -> Self {
        let (phi, tuples) = match goal {
            Goal::Model => (None, 1),
            Goal::Single(phi) => (Some(phi), 1),
            Goal::Pair(phi) => (Some(phi), 2),
        };
        let all: Vec<&ECfd> = phi.into_iter().chain(sigma).collect();
        let classes = ValueClasses::build(schema, &all, tuples);
        let (names, reps) = (&classes.names, &classes.reps);
        let table = |a: &str, cell: &PatternValue| classes.table(a, cell);
        let compile = |(constraint, e): (usize, &ECfd)| -> Vec<Check> {
            let (x, rhs): (Vec<&str>, _) =
                (e.lhs().iter().map(String::as_str).collect(), e.rhs_attrs());
            e.tableau()
                .iter()
                .map(|tp| Check {
                    constraint,
                    lhs: x.iter().zip(&tp.lhs).map(|(a, c)| table(a, c)).collect(),
                    rhs: rhs.iter().zip(&tp.rhs).map(|(a, c)| table(a, c)).collect(),
                    fd: e.fd_rhs().iter().map(|a| classes.index(a)).collect(),
                })
                .collect()
        };
        let checks: Vec<Check> = sigma.iter().enumerate().flat_map(compile).collect();
        let mut touching: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
        for (i, check) in checks.iter().enumerate() {
            for &(a, _) in check.lhs.iter().chain(&check.rhs) {
                if touching[a].last() != Some(&i) {
                    touching[a].push(i);
                }
            }
        }

        // Variables: (attribute, first tuple, one past the last tuple it
        // sets). φ's cells come first; in the pair search its X cells are
        // shared.
        let phi_attrs = phi.map_or(0, |p| p.attributes().len());
        let mut rest: Vec<usize> = (phi_attrs..names.len()).collect();
        rest.sort_by_key(|&a| reps[a].len());
        let mut vars = Vec::new();
        for a in (0..phi_attrs).chain(rest) {
            if tuples == 2 && phi.is_some_and(|p| p.lhs().contains(&names[a])) {
                vars.push((a, 0, 2));
            } else {
                vars.extend((0..tuples).map(|t| (a, t, t + 1)));
            }
        }
        let goal = phi.map(|p| compile((0, p)));
        Search {
            vals: vec![vec![None; names.len()]; tuples],
            schema,
            classes,
            checks,
            touching,
            goal,
            vars,
            broken: Vec::new(),
            tolerance: 0,
            budget,
        }
    }

    /// Looks for an instance that reaches the goal and violates at most
    /// `tolerance` constraints of `Σ`. Returns the tuples over the full
    /// schema, or `None` when no such instance exists. A run that finds
    /// nothing leaves no cell assigned and nothing broken, so the search
    /// can run again with another tolerance.
    pub(crate) fn run(&mut self, tolerance: usize) -> Result<Option<Vec<Tuple>>, OutOfBudget> {
        self.tolerance = tolerance;
        if !self.descend(0)? {
            return Ok(None);
        }
        let instance = (self.vals.iter()).map(|vals| self.classes.tuple(self.schema, |a| vals[a]));
        Ok(Some(instance.collect()))
    }

    fn descend(&mut self, depth: usize) -> Result<bool, OutOfBudget> {
        let Some(&(attr, lo, hi)) = self.vars.get(depth) else {
            return Ok(true);
        };
        let unbroken = self.broken.len();
        for v in 0..self.classes.reps[attr].len() {
            *self.budget = self.budget.checked_sub(1).ok_or(OutOfBudget)?;
            for t in lo..hi {
                self.vals[t][attr] = Some(v);
            }
            if self.mark_broken(attr) && self.goal_reachable() && self.descend(depth + 1)? {
                return Ok(true);
            }
            self.broken.truncate(unbroken);
        }
        for t in lo..hi {
            self.vals[t][attr] = None;
        }
        Ok(false)
    }

    fn matches(&self, check: &Check, t: usize) -> bool {
        check
            .lhs
            .iter()
            .all(|(a, m)| self.vals[t][*a].is_some_and(|v| m[v]))
    }

    /// Marks broken each constraint not yet broken that a pattern mentioning
    /// `attr` now violates. False once more than the tolerance are broken.
    fn mark_broken(&mut self, attr: usize) -> bool {
        for &i in &self.touching[attr] {
            let c = &self.checks[i];
            if self.violates(c) && !self.broken.contains(&c.constraint) {
                self.broken.push(c.constraint);
                if self.broken.len() > self.tolerance {
                    return false;
                }
            }
        }
        true
    }

    /// Do the assigned cells already violate the pattern tuple?
    fn violates(&self, c: &Check) -> bool {
        let vals = &self.vals;
        let fails = |t: usize| (c.rhs.iter()).any(|(a, m)| vals[t][*a].is_some_and(|v| !m[v]));
        (0..vals.len()).any(|t| self.matches(c, t) && fails(t))
            || vals.len() == 2
                && self.matches(c, 0)
                && c.lhs.iter().all(|&(a, _)| vals[0][a] == vals[1][a])
                && (c.fd.iter()).any(|&a| vals[0][a].zip(vals[1][a]).is_some_and(|(x, y)| x != y))
    }

    /// Can the assigned cells of `φ` still be completed to the goal?
    fn goal_reachable(&self) -> bool {
        let Some(goal) = &self.goal else { return true };
        let vals = &self.vals;
        goal.iter().any(|c| {
            let lhs = (c.lhs.iter()).all(|(a, m)| vals[0][*a].is_none_or(|v| m[v]));
            lhs && if vals.len() == 2 {
                (c.fd.iter()).any(|&a| vals[0][a].zip(vals[1][a]).is_none_or(|(x, y)| x != y))
            } else {
                (c.rhs.iter()).any(|(a, m)| vals[0][*a].is_none_or(|v| !m[v]))
            }
        })
    }
}

/// The value classes of the attributes a constraint set mentions
/// ([`group_constants`]), plus the values outside every constant, each class
/// given by representatives.
#[derive(Debug, Clone)]
pub(crate) struct ValueClasses {
    /// The mentioned attributes, in order of first mention.
    pub(crate) names: Vec<String>,
    /// Per attribute: up to `per_class` constants of each class, then up to
    /// `per_class` values outside every constant.
    pub(crate) reps: Vec<Vec<Value>>,
}

impl ValueClasses {
    /// Picks `per_class` representatives of each value class of `ecfds`
    /// ([`group_constants`]): the smallest members. Constants outside the
    /// declared domain are dropped. Every constraint must already be
    /// validated against `schema`.
    pub(crate) fn build(schema: &Schema, ecfds: &[&ECfd], per_class: usize) -> Self {
        let (names, reps) = group_constants(ecfds)
            .into_iter()
            .map(
                |AttrClasses {
                     attr,
                     constants,
                     outside,
                 }| {
                    let id = schema.attr_id(&attr).expect("validated");
                    let domain = &schema.attribute(id).expect("validated").domain;
                    let mut taken = vec![0; outside];
                    let mut reps: Vec<Value> = constants
                        .iter()
                        .filter(|(v, class)| {
                            domain.contains(v) && {
                                taken[*class] += 1;
                                taken[*class] <= per_class
                            }
                        })
                        .map(|(v, _)| v.clone())
                        .collect();
                    let mut exclude: BTreeSet<Value> =
                        constants.into_iter().map(|(v, _)| v).collect();
                    for _ in 0..per_class {
                        if let Some(fresh) = domain.fresh_value_outside(&exclude) {
                            exclude.insert(fresh.clone());
                            reps.push(fresh);
                        }
                    }
                    (attr, reps)
                },
            )
            .unzip();
        ValueClasses { names, reps }
    }

    /// The position of a mentioned attribute.
    pub(crate) fn index(&self, attr: &str) -> usize {
        (self.names.iter())
            .position(|n| n == attr)
            .expect("mentioned")
    }

    /// The cell's match table: the attribute's position and, per
    /// representative, whether the cell matches it.
    pub(crate) fn table(&self, attr: &str, cell: &PatternValue) -> (usize, Vec<bool>) {
        let i = self.index(attr);
        (i, self.reps[i].iter().map(|v| cell.matches(v)).collect())
    }

    /// A tuple over the full schema that takes, on each mentioned attribute,
    /// the representative `pick` names; other attributes, and mentioned ones
    /// `pick` leaves open, take `fresh_value_outside(∅)`.
    pub(crate) fn tuple(&self, schema: &Schema, pick: impl Fn(usize) -> Option<usize>) -> Tuple {
        let value = |attr: &Attribute| {
            let chosen = self.names.iter().position(|n| *n == attr.name);
            match chosen.and_then(|a| Some(&self.reps[a][pick(a)?])) {
                Some(v) => v.clone(),
                None => (attr.domain.fresh_value_outside(&BTreeSet::new())).unwrap_or(Value::Null),
            }
        };
        Tuple::new(schema.attributes().iter().map(value).collect())
    }
}

/// The one definition of a value class. Per attribute `ecfds` mention, in
/// order of first mention, every constant a cell on it mentions, each with
/// its class: two constants share a class when every cell (a set or a
/// complement, either side, every pattern tuple) contains both or neither.
/// Classes are numbered in the order of their smallest members.
pub(crate) fn group_constants(ecfds: &[&ECfd]) -> Vec<AttrClasses> {
    let mut attrs: Vec<(String, BTreeMap<Value, Vec<usize>>)> = Vec::new();
    for a in ecfds.iter().flat_map(|e| e.attributes()) {
        if !attrs.iter().any(|(n, _)| n == a) {
            attrs.push((a.to_string(), BTreeMap::new()));
        }
    }
    // A constant's class is the set of cells (numbered across `ecfds`) that
    // contain it.
    let mut cell_id = 0;
    for e in ecfds {
        let rhs = e.rhs_attrs();
        for tp in e.tableau() {
            let lhs = e.lhs().iter().map(String::as_str).zip(&tp.lhs);
            for (attr, cell) in lhs.chain(rhs.iter().copied().zip(&tp.rhs)) {
                let at = (attrs.iter().position(|(n, _)| n == attr)).expect("mentioned");
                for c in cell.constants() {
                    attrs[at].1.entry(c.clone()).or_default().push(cell_id);
                }
                cell_id += 1;
            }
        }
    }
    let group = |(attr, cells): (String, BTreeMap<Value, Vec<usize>>)| {
        let mut ids: HashMap<Vec<usize>, usize> = HashMap::new();
        let constants = (cells.into_iter())
            .map(|(v, cells)| {
                let next = ids.len();
                (v, *ids.entry(cells).or_insert(next))
            })
            .collect();
        let outside = ids.len();
        AttrClasses {
            attr,
            constants,
            outside,
        }
    };
    attrs.into_iter().map(group).collect()
}

/// One pattern tuple compiled over the representatives: per attribute, the
/// local attribute index and which representatives the cell matches.
struct Check {
    /// The position in `Σ` of the constraint the pattern tuple belongs to.
    constraint: usize,
    lhs: Vec<(usize, Vec<bool>)>,
    rhs: Vec<(usize, Vec<bool>)>,
    /// The `Y` attributes (the embedded FD's right-hand side).
    fd: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ECfdBuilder;
    use ecfd_relation::DataType;

    #[test]
    fn value_classes_group_constants_by_the_cells_that_hold_them() {
        let schema = Schema::builder("cust")
            .attr("AC", DataType::Str)
            .attr("CT", DataType::Str)
            .build();
        // CT cells: !{NYC, LI}, {Albany, Troy, Colonie} and {NYC};
        // AC cells: {518} and {212, 718, 646, 347, 917}.
        let phi1 = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p.not_in("CT", ["NYC", "LI"]))
            .pattern(|p| {
                p.in_set("CT", ["Albany", "Troy", "Colonie"])
                    .constant("AC", "518")
            })
            .build()
            .unwrap();
        let phi2 = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .pattern_rhs(["AC"])
            .pattern(|p| {
                p.constant("CT", "NYC")
                    .in_set("AC", ["212", "718", "646", "347", "917"])
            })
            .build()
            .unwrap();
        let one = ValueClasses::build(&schema, &[&phi1, &phi2], 1);
        assert_eq!(one.names, ["CT", "AC"]);
        let constants = |reps: &[Value]| reps[..reps.len() - 1].to_vec();
        let strs = |vs: &[&str]| vs.iter().map(|v| Value::str(*v)).collect::<Vec<_>>();
        // {Albany, Colonie, Troy}, {LI}, {NYC}, and the values outside them.
        assert_eq!(constants(&one.reps[0]), strs(&["Albany", "LI", "NYC"]));
        assert_eq!(constants(&one.reps[1]), strs(&["212", "518"]));
        let cities = strs(&["Albany", "Colonie", "LI", "NYC", "Troy"]);
        assert!(!cities.contains(&one.reps[0][3]));

        // Two per class: a second member where the class has one, and a
        // second value outside every constant.
        let two = ValueClasses::build(&schema, &[&phi1, &phi2], 2);
        assert_eq!(two.reps[0][..4], strs(&["Albany", "Colonie", "LI", "NYC"]));
        assert_eq!(two.reps[0].len(), 6);
        assert_eq!(two.reps[1][..3], strs(&["212", "347", "518"]));
        assert_eq!(two.reps[1].len(), 5);
    }
}
