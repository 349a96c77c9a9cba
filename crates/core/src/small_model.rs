//! The small-model search behind both static analyses of Section III.
//!
//! Satisfiability (Proposition 3.1) and implication (Proposition 3.2) are
//! decided by looking for a tiny instance: a one-tuple model of `Σ`, or at
//! most two tuples that satisfy `Σ` and violate `φ`.
//!
//! * **Value classes.** Per attribute, constants that every cell of
//!   `Σ ∪ {φ}` (a set or a complement, either side, every pattern tuple)
//!   contains both or neither of cannot be told apart by any pattern; the
//!   values outside every constant form one more class, drawn from
//!   `Domain::fresh_value_outside`. The search assigns one representative
//!   per class when it looks for one tuple and two when it looks for two,
//!   because `t1[Y] ≠ t2[Y]` may need two values of one class. Constants
//!   outside the declared domain are dropped; attributes no constraint
//!   mentions take `fresh_value_outside(∅)`.
//! * **Pruning.** The variables are (tuple, attribute) cells, matched
//!   against per-cell tables compiled once per pattern tuple. After each
//!   assignment the search backtracks when some `σ ∈ Σ` is violated: a
//!   tuple's assigned `X` matches and an assigned `Y ∪ Yp` cell fails, or
//!   the tuples agree on a matching `X` and differ on an assigned `Y` cell.
//!   Each assignment costs one node of the caller's budget.
//! * **The goal.** `φ`'s cells are assigned first, so a branch that cannot
//!   violate `φ` is cut before the other attributes are enumerated: one
//!   tuple failing `φ`'s right-hand pattern (SV), or two tuples that share
//!   `φ`'s `X` cells and differ on `Y` (MV).

use crate::ecfd::ECfd;
use crate::pattern::PatternValue;
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

/// Searches for a model of `sigma` of one tuple (or two, for
/// [`Goal::Pair`]) that reaches `goal`, charging one unit of `budget` per
/// assignment. Returns the tuples over the full schema, or `None` when no
/// such instance exists. Every constraint must already be validated against
/// `schema`.
pub(crate) fn search(
    schema: &Schema,
    sigma: &[ECfd],
    goal: Goal<'_>,
    budget: &mut u64,
) -> Result<Option<Vec<Tuple>>, OutOfBudget> {
    let (phi, tuples) = match goal {
        Goal::Model => (None, 1),
        Goal::Single(phi) => (Some(phi), 1),
        Goal::Pair(phi) => (Some(phi), 2),
    };
    let all: Vec<&ECfd> = phi.into_iter().chain(sigma).collect();
    // Local attributes: φ's first, then the rest of Σ's.
    let mut names: Vec<&str> = Vec::new();
    for a in all.iter().flat_map(|e| e.attributes()) {
        if !names.contains(&a) {
            names.push(a);
        }
    }
    let index = |a: &str| names.iter().position(|n| *n == a).expect("mentioned");

    // A constant's class is the set of cells (numbered across Σ ∪ {φ}) that
    // contain it.
    let mut classes: Vec<BTreeMap<Value, Vec<usize>>> = vec![BTreeMap::new(); names.len()];
    let mut cell_id = 0;
    for e in &all {
        let rhs = e.rhs_attrs();
        for tp in e.tableau() {
            let lhs = e.lhs().iter().map(String::as_str).zip(&tp.lhs);
            for (attr, cell) in lhs.chain(rhs.iter().copied().zip(&tp.rhs)) {
                for c in cell.constants() {
                    let class = classes[index(attr)].entry(c.clone()).or_default();
                    class.push(cell_id);
                }
                cell_id += 1;
            }
        }
    }
    let reps: Vec<Vec<Value>> = names
        .iter()
        .zip(classes)
        .map(|(name, classes)| {
            let id = schema.attr_id(name).expect("validated");
            let domain = &schema.attribute(id).expect("validated").domain;
            let mut taken: HashMap<&Vec<usize>, usize> = HashMap::new();
            let mut reps: Vec<Value> = classes
                .iter()
                .filter(|(v, class)| {
                    domain.contains(v) && {
                        let n = taken.entry(class).or_default();
                        *n += 1;
                        *n <= tuples
                    }
                })
                .map(|(v, _)| v.clone())
                .collect();
            let mut exclude: BTreeSet<Value> = classes.into_keys().collect();
            for _ in 0..tuples {
                if let Some(fresh) = domain.fresh_value_outside(&exclude) {
                    exclude.insert(fresh.clone());
                    reps.push(fresh);
                }
            }
            reps
        })
        .collect();

    let table = |a: &str, cell: &PatternValue| {
        let i = index(a);
        (i, reps[i].iter().map(|v| cell.matches(v)).collect())
    };
    let compile = |e: &ECfd| -> Vec<Check> {
        let (x, rhs): (Vec<&str>, _) =
            (e.lhs().iter().map(String::as_str).collect(), e.rhs_attrs());
        e.tableau()
            .iter()
            .map(|tp| Check {
                lhs: x.iter().zip(&tp.lhs).map(|(a, c)| table(a, c)).collect(),
                rhs: rhs.iter().zip(&tp.rhs).map(|(a, c)| table(a, c)).collect(),
                fd: e.fd_rhs().iter().map(|a| index(a)).collect(),
            })
            .collect()
    };
    let checks: Vec<Check> = sigma.iter().flat_map(compile).collect();
    let mut touching: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
    for (i, check) in checks.iter().enumerate() {
        for &(a, _) in check.lhs.iter().chain(&check.rhs) {
            if touching[a].last() != Some(&i) {
                touching[a].push(i);
            }
        }
    }

    // Variables: (attribute, first tuple, one past the last tuple it sets).
    // φ's cells come first; in the pair search its X cells are shared.
    let phi_attrs = phi.map_or(0, |p| p.attributes().len());
    let mut rest: Vec<usize> = (phi_attrs..names.len()).collect();
    rest.sort_by_key(|&a| reps[a].len());
    let mut vars = Vec::new();
    for a in (0..phi_attrs).chain(rest) {
        if tuples == 2 && phi.is_some_and(|p| p.lhs().iter().any(|x| x == names[a])) {
            vars.push((a, 0, 2));
        } else {
            vars.extend((0..tuples).map(|t| (a, t, t + 1)));
        }
    }

    let mut state = Search {
        reps: &reps,
        checks,
        touching,
        goal: phi.map(compile),
        vars,
        vals: vec![vec![None; names.len()]; tuples],
        budget,
    };
    if !state.descend(0)? {
        return Ok(None);
    }
    let instance = state.vals.iter().map(|vals| {
        let value = |attr: &Attribute| match names.iter().position(|n| *n == attr.name) {
            Some(a) => reps[a][vals[a].expect("assigned")].clone(),
            None => (attr.domain.fresh_value_outside(&BTreeSet::new())).unwrap_or(Value::Null),
        };
        Tuple::new(schema.attributes().iter().map(value).collect())
    });
    Ok(Some(instance.collect()))
}

/// One pattern tuple compiled over the representatives: per attribute, the
/// local attribute index and which representatives the cell matches.
struct Check {
    lhs: Vec<(usize, Vec<bool>)>,
    rhs: Vec<(usize, Vec<bool>)>,
    /// The `Y` attributes (the embedded FD's right-hand side).
    fd: Vec<usize>,
}

struct Search<'a> {
    reps: &'a [Vec<Value>],
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
    budget: &'a mut u64,
}

impl Search<'_> {
    fn descend(&mut self, depth: usize) -> Result<bool, OutOfBudget> {
        let Some(&(attr, lo, hi)) = self.vars.get(depth) else {
            return Ok(true);
        };
        for v in 0..self.reps[attr].len() {
            *self.budget = self.budget.checked_sub(1).ok_or(OutOfBudget)?;
            for t in lo..hi {
                self.vals[t][attr] = Some(v);
            }
            if !self.violated(attr) && self.goal_reachable() && self.descend(depth + 1)? {
                return Ok(true);
            }
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

    /// Is some pattern of `Σ` that mentions `attr` already violated?
    fn violated(&self, attr: usize) -> bool {
        let vals = &self.vals;
        self.touching[attr].iter().any(|&i| {
            let c = &self.checks[i];
            let fails = |t: usize| (c.rhs.iter()).any(|(a, m)| vals[t][*a].is_some_and(|v| !m[v]));
            (0..vals.len()).any(|t| self.matches(c, t) && fails(t))
                || vals.len() == 2
                    && self.matches(c, 0)
                    && c.lhs.iter().all(|&(a, _)| vals[0][a] == vals[1][a])
                    && (c.fd.iter())
                        .any(|&a| vals[0][a].zip(vals[1][a]).is_some_and(|(x, y)| x != y))
        })
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
