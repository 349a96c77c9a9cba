//! The paper's reduction of MAXSS to MAXGSAT (Section IV), kept as a
//! tested claim: `ecfd_core::maxss::max_satisfiable` decides MAXSS by its
//! small-model search, and the tests check that the MAXGSAT optimum of
//! `f(Σ)` equals the search's.
//!
//! `f(Σ)` ([`MaxSsEncoding::build`]) builds one Boolean formula per
//! constraint, over variables `x(A, r)` meaning "the witness tuple's
//! attribute `A` lies in the value class represented by `r`". The classes
//! are those of the search: per attribute, the constants that every cell of
//! `Σ` contains both or neither of, plus the values outside every constant,
//! one representative each — the grouping
//! `ConstraintSet::verbatim(schema, Σ).classes()` reads out, with constants
//! outside a declared finite domain dropped. Each formula is `χ(φ) ∧ φ_R`,
//! where `φ_R` forces each attribute into exactly one class, and `χ(φ)`
//! encodes "the single-tuple instance `{t}` satisfies `φ`": for every
//! pattern tuple, either some LHS attribute fails to match or every RHS
//! attribute matches. A cell is the disjunction of the `x(A, r)` whose
//! representative `r` it matches. `g(Φ_m)`
//! ([`MaxSsEncoding::satisfied_constraints`]) maps a truth assignment back to
//! a tuple `t` of representatives and returns the constraints `{t}`
//! satisfies, at least as many as the satisfied formulas.
//!
//! No cell tells two members of a class apart, so `x(A, r)` stands for the
//! whole class and the reduction keeps the optimum: the largest number of
//! formulas one assignment satisfies is the largest number of constraints
//! one tuple satisfies. With `f` and `g` polynomial and `|g(Φ_m)| ≥ |Φ_m|`,
//! the paper runs MAXGSAT approximation algorithms between them; an
//! approximation algorithm proves no optimum, so the library decides MAXSS
//! by the search instead. [`MaxSsEncoding::solve`] runs MAXGSAT's exhaustive
//! solver on `f(Σ)`, up to its variable limit.

use crate::assignment::{Assignment, VarPool};
use crate::expr::{BoolExpr, VarId};
use crate::maxgsat::{MaxGSatInstance, MaxGSatOutcome};
use ecfd_core::satisfiability::single_tuple_satisfies;
use ecfd_core::{AttrClasses, ConstraintSet, CoreError, ECfd, PatternValue, Result};
use ecfd_relation::{Attribute, Schema, Tuple, Value};
use std::collections::BTreeSet;

/// The MAXGSAT encoding `f(Σ)` of a constraint set, plus the bookkeeping
/// needed to invert assignments back into tuples (`g`).
#[derive(Debug, Clone)]
pub struct MaxSsEncoding {
    schema: Schema,
    ecfds: Vec<ECfd>,
    /// Per attribute `Σ` mentions, in order of first mention: its name and
    /// one representative per value class.
    reps: Vec<(String, Vec<Value>)>,
    /// Variable ids `x(attribute, representative)`, parallel to `reps`.
    vars: Vec<Vec<VarId>>,
    pool: VarPool,
    instance: MaxGSatInstance,
}

impl MaxSsEncoding {
    /// Builds `f(Σ)`.
    ///
    /// Both `f` and the inverse `g` are polynomial in the size of `Σ` and the
    /// schema, as required by an approximation-factor-preserving reduction.
    pub fn build(schema: &Schema, ecfds: &[ECfd]) -> Result<Self> {
        let set = ConstraintSet::verbatim(schema, ecfds)?;
        let reps: Vec<(String, Vec<Value>)> = (set.classes().iter())
            .map(|classes| (classes.attr.clone(), representatives(schema, classes)))
            .collect();
        let mut pool = VarPool::new();
        let vars: Vec<Vec<VarId>> = (reps.iter())
            .map(|(attr, reps)| {
                (reps.iter())
                    .map(|r| pool.fresh(format!("x({attr},{r})")))
                    .collect()
            })
            .collect();

        // φ_R: each attribute takes exactly one of its classes.
        let mut phi_r_parts = Vec::new();
        for ids in &vars {
            phi_r_parts.push(BoolExpr::or(ids.iter().map(|v| BoolExpr::var(*v))));
            for (i, a) in ids.iter().enumerate() {
                for (j, b) in ids.iter().enumerate() {
                    if i != j {
                        phi_r_parts.push(BoolExpr::var(*a).implies(BoolExpr::var(*b).not()));
                    }
                }
            }
        }
        let phi_r = BoolExpr::and(phi_r_parts);

        // `t[attr] ≍ cell`: `t[attr]` is in a class whose representative the
        // cell matches.
        let matches = |attr: &str, cell: &PatternValue| {
            let a = (reps.iter().position(|(n, _)| n == attr)).expect("mentioned");
            BoolExpr::or(
                (vars[a].iter().zip(&reps[a].1))
                    .filter(|(_, r)| cell.matches(r))
                    .map(|(v, _)| BoolExpr::var(*v)),
            )
        };
        // "The single-tuple instance `{t}` satisfies `φ`": for every pattern
        // tuple, either some LHS attribute fails to match or all RHS
        // attributes match. (The embedded FD is vacuous on a single tuple.)
        let formulas: Vec<BoolExpr> = ecfds
            .iter()
            .map(|e| {
                let per_pattern = e.tableau().iter().map(|tp| {
                    let lhs = e.lhs().iter().zip(&tp.lhs);
                    let rhs = e.rhs_attrs().into_iter().zip(&tp.rhs);
                    BoolExpr::or([
                        BoolExpr::or(lhs.map(|(a, c)| matches(a, c).not())),
                        BoolExpr::and(rhs.map(|(a, c)| matches(a, c))),
                    ])
                });
                BoolExpr::and(per_pattern.chain([phi_r.clone()]))
            })
            .collect();

        let instance = MaxGSatInstance::new(pool.len(), formulas);
        Ok(MaxSsEncoding {
            schema: schema.clone(),
            ecfds: ecfds.to_vec(),
            reps,
            vars,
            pool,
            instance,
        })
    }

    /// The underlying MAXGSAT instance.
    pub fn instance(&self) -> &MaxGSatInstance {
        &self.instance
    }

    /// The variable pool (for diagnostics: variable names are
    /// `x(attr,representative)`).
    pub fn pool(&self) -> &VarPool {
        &self.pool
    }

    /// Total size of the encoding (sum of formula sizes) — tests assert this
    /// stays polynomial (in fact linear per constraint, quadratic in the
    /// number of classes per attribute via `φ_R`).
    pub fn encoded_size(&self) -> usize {
        self.instance.formulas().iter().map(BoolExpr::size).sum()
    }

    /// The function `g`: converts a truth assignment into a witness tuple.
    ///
    /// The tuple's attribute `A` takes the first representative whose
    /// variable is true; attributes with no true variable (possible when the
    /// assignment violates `φ_R`) and attributes not mentioned by `Σ` take an
    /// arbitrary domain value (NULL where the domain is empty).
    fn tuple_from_assignment(&self, assignment: &Assignment) -> Tuple {
        let value = |attr: &Attribute| {
            let a = self.reps.iter().position(|(n, _)| *n == attr.name);
            let picked = a.and_then(|a| {
                let at = self.vars[a].iter().position(|v| assignment.get(*v))?;
                Some(self.reps[a].1[at].clone())
            });
            picked.unwrap_or_else(|| {
                let fresh = attr.domain.fresh_value_outside(&BTreeSet::new());
                fresh.unwrap_or(Value::Null)
            })
        };
        Tuple::new(self.schema.attributes().iter().map(value).collect())
    }

    /// The full `g(Φ_m)`: the indices of the constraints satisfied by the
    /// witness tuple derived from `assignment`, verified against the real
    /// eCFD semantics.
    pub fn satisfied_constraints(&self, assignment: &Assignment) -> Result<(Vec<usize>, Tuple)> {
        let tuple = self.tuple_from_assignment(assignment);
        let mut satisfied = Vec::new();
        for (i, ecfd) in self.ecfds.iter().enumerate() {
            if single_tuple_satisfies(&self.schema, std::slice::from_ref(ecfd), &tuple)? {
                satisfied.push(i);
            }
        }
        Ok((satisfied, tuple))
    }

    /// Runs MAXGSAT's exhaustive solver on the encoding and maps its optimum
    /// back through `g`. An encoding of more variables than the solver
    /// enumerates is refused with [`CoreError::AnalysisBudgetExceeded`].
    pub fn solve(&self) -> Result<(MaxGSatOutcome, Vec<usize>, Tuple)> {
        let (vars, limit) = (
            self.instance.num_vars(),
            MaxGSatInstance::EXHAUSTIVE_MAX_VARS,
        );
        if vars > limit {
            return Err(CoreError::AnalysisBudgetExceeded(format!(
                "exhaustive MAXGSAT is limited to {limit} variables; f(Σ) has {vars}"
            )));
        }
        let outcome = self.instance.solve_exhaustive();
        let (satisfied, tuple) = self.satisfied_constraints(&outcome.assignment)?;
        Ok((outcome, satisfied, tuple))
    }
}

/// One representative per value class of an attribute: the smallest
/// constant of each class inside the declared domain (a class with none
/// has no representative), then one value outside every constant, if the
/// domain has one.
fn representatives(schema: &Schema, classes: &AttrClasses) -> Vec<Value> {
    let id = schema.attr_id(&classes.attr).expect("validated");
    let domain = &schema.attribute(id).expect("validated").domain;
    let mut taken = vec![false; classes.outside];
    let mut reps: Vec<Value> = (classes.constants.iter())
        .filter(|(v, class)| domain.contains(v) && !std::mem::replace(&mut taken[*class], true))
        .map(|(v, _)| v.clone())
        .collect();
    let mentioned = classes.constants.iter().map(|(v, _)| v.clone()).collect();
    reps.extend(domain.fresh_value_outside(&mentioned));
    reps
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfd_core::satisfiability;
    use ecfd_core::ECfdBuilder;
    use ecfd_relation::DataType;

    fn schema() -> Schema {
        Schema::builder("cust")
            .attr("AC", DataType::Str)
            .attr("CT", DataType::Str)
            .attr("ZIP", DataType::Str)
            .build()
    }

    fn phi1() -> ECfd {
        ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p.not_in("CT", ["NYC", "LI"]))
            .pattern(|p| {
                p.in_set("CT", ["Albany", "Troy", "Colonie"])
                    .constant("AC", "518")
            })
            .build()
            .unwrap()
    }

    fn phi2() -> ECfd {
        ECfdBuilder::new("cust")
            .lhs(["CT"])
            .pattern_rhs(["AC"])
            .pattern(|p| {
                p.constant("CT", "NYC")
                    .in_set("AC", ["212", "718", "646", "347", "917"])
            })
            .build()
            .unwrap()
    }

    /// Two constraints that cannot hold together: AC forced into disjoint sets.
    fn conflicting_pair() -> (ECfd, ECfd) {
        let ac_in = |ac: &'static str| {
            ECfdBuilder::new("cust")
                .lhs(["CT"])
                .pattern_rhs(["AC"])
                .pattern(|p| p.in_set("AC", [ac]))
                .build()
                .unwrap()
        };
        (ac_in("212"), ac_in("518"))
    }

    #[test]
    fn conflicting_sets_lose_exactly_one_formula() {
        // φ1 and one of the pair, as the exact MAXSS search finds.
        let (a, b) = conflicting_pair();
        let encoding = MaxSsEncoding::build(&schema(), &[phi1(), a, b]).unwrap();
        let (gsat, satisfied, _) = encoding.solve().unwrap();
        assert_eq!((gsat.num_satisfied(), satisfied.len()), (2, 2));
        assert!(satisfied.contains(&0));
    }

    #[test]
    fn g_returns_at_least_as_many_constraints_as_satisfied_formulas() {
        // Property 3 of an approximation-factor-preserving reduction:
        // card(g(Φ_m)) ≥ card(Φ_m), on every assignment of f(Σ).
        let s = schema();
        let (a, b) = conflicting_pair();
        let ecfds = [phi1(), phi2(), a, b];
        let encoding = MaxSsEncoding::build(&s, &ecfds).unwrap();
        let n = encoding.instance().num_vars();
        assert!(n <= 12, "{n} variables");
        for bits in 0..1u64 << n {
            let assignment = Assignment::from_bits(bits, n);
            let formulas = encoding.instance().count_satisfied(&assignment);
            let (satisfied, _) = encoding.satisfied_constraints(&assignment).unwrap();
            assert!(
                satisfied.len() >= formulas,
                "{bits:b}: g returned {} constraints but {formulas} formulas were satisfied",
                satisfied.len(),
            );
        }
    }

    #[test]
    fn exhaustive_gsat_matches_exact_satisfiability() {
        // Property 2: the optimum of the MAXGSAT instance equals the optimum
        // of MAXSS. We verify the special case used by the decision procedure:
        // the full set is satisfiable iff the MAXGSAT optimum satisfies all
        // formulas.
        let s = schema();
        let cases: Vec<Vec<ECfd>> = vec![
            vec![phi1(), phi2()],
            {
                let (a, b) = conflicting_pair();
                vec![a, b]
            },
            {
                let (a, b) = conflicting_pair();
                vec![phi1(), a, b]
            },
        ];
        for ecfds in cases {
            let encoding = MaxSsEncoding::build(&s, &ecfds).unwrap();
            let exact_sat = satisfiability::is_satisfiable(&s, &ecfds).unwrap();
            let gsat_opt = encoding.instance().solve_exhaustive();
            assert_eq!(
                gsat_opt.num_satisfied() == ecfds.len(),
                exact_sat,
                "constraints: {ecfds:?}"
            );
        }
    }

    #[test]
    fn encoding_size_is_linear_in_the_tableau_size() {
        // Growing the tableau of a constraint must grow the encoding at most
        // linearly (the φ_R part is shared and fixed for fixed value
        // classes). We keep the classes fixed by reusing the same constants
        // in every pattern tuple.
        let s = schema();
        let base = |n: usize| -> ECfd {
            let mut builder = ECfdBuilder::new("cust").lhs(["CT"]).fd_rhs(["AC"]);
            for i in 0..n {
                let city = if i % 2 == 0 { "Albany" } else { "Troy" };
                builder = builder.pattern(|p| p.in_set("CT", [city]).constant("AC", "518"));
            }
            builder.build().unwrap()
        };
        let size = |n| MaxSsEncoding::build(&s, &[base(n)]).unwrap().encoded_size();
        let (e10, e20, e40) = (size(10), size(20), size(40));
        let d1 = e20 - e10;
        let d2 = e40 - e20;
        assert!(
            d2 <= 2 * d1 + 8,
            "encoding growth should be ~linear: sizes {e10}, {e20}, {e40}"
        );
    }

    #[test]
    fn variable_names_follow_the_paper_notation() {
        let s = schema();
        let encoding = MaxSsEncoding::build(&s, &[phi2()]).unwrap();
        assert!(encoding.pool().lookup("x(CT,NYC)").is_some());
        assert!(encoding.pool().lookup("x(AC,212)").is_some());
    }
}
