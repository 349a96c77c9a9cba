//! MAXSS, the maximum satisfiable subset problem of Section IV, and the
//! paper's reduction of it to MAXGSAT.
//!
//! Because eCFD satisfiability is NP-complete, the paper considers the
//! *maximum satisfiable subset* problem (MAXSS): given `Σ`, find a largest
//! subset that is satisfiable. By the small model property a subset is
//! satisfiable exactly when one tuple satisfies it, so MAXSS asks for one
//! tuple that violates as few constraints of `Σ` as possible.
//!
//! * **The exact search decides.** [`max_satisfiable`] runs the small-model
//!   search of the exact deciders, letting the tuple violate at most `k`
//!   constraints, for `k = 0, 1, …`. The first `k` at which a tuple exists
//!   gives the optimum `|Σ| − k`, and the search that failed at `k − 1` is
//!   its proof; `k = 0` is
//!   [`check_satisfiability`](crate::satisfiability::check_satisfiability).
//!   So the verdict is always proven: `Satisfiable` at `k = 0`,
//!   `Unsatisfiable` above. The search's value classes and compiled pattern
//!   tuples are built once and run for every `k`, and the runs share
//!   satisfiability's node budget of 5 000 000.
//! * **The reduction stays, as a tested claim.** `f(Σ)`
//!   ([`MaxSsEncoding::build`]) builds one Boolean formula per constraint,
//!   over variables `x(A, r)` meaning "the witness tuple's attribute `A`
//!   lies in the value class represented by `r`". The classes are those of
//!   the search: per attribute, the constants that every cell of `Σ`
//!   contains both or neither of, plus the values outside every constant,
//!   one representative each. Each formula is `χ(φ) ∧ φ_R`, where `φ_R`
//!   forces each attribute into exactly one class, and `χ(φ)` encodes "the
//!   single-tuple instance `{t}` satisfies `φ`": for every pattern tuple,
//!   either some LHS attribute fails to match or every RHS attribute
//!   matches. A cell is the disjunction of the `x(A, r)` whose
//!   representative `r` it matches. `g(Φ_m)`
//!   ([`MaxSsEncoding::satisfied_constraints`]) maps a truth assignment back
//!   to a tuple `t` of representatives and returns the constraints `{t}`
//!   satisfies, at least as many as the satisfied formulas.
//!
//! No cell tells two members of a class apart, so `x(A, r)` stands for the
//! whole class and the reduction keeps the optimum: the largest number of
//! formulas one assignment satisfies is the largest number of constraints
//! one tuple satisfies. With `f` and `g` polynomial and `|g(Φ_m)| ≥ |Φ_m|`,
//! the paper runs MAXGSAT approximation algorithms between them. Here that
//! route is a fidelity check, not the decider: an approximation algorithm
//! proves no optimum, so its shortfall can never say "unsatisfiable", while
//! the search over the same classes proves its optimum outright.
//! [`MaxSsEncoding::solve`] runs MAXGSAT's exhaustive solver on `f(Σ)`, up
//! to its variable limit, and the tests check that its optimum equals the
//! search's.

use crate::ecfd::ECfd;
use crate::error::{CoreError, Result};
use crate::pattern::PatternValue;
use crate::satisfiability::{single_tuple_satisfies, NODE_BUDGET};
use crate::small_model::{Goal, Search, ValueClasses};
use ecfd_logic::{Assignment, BoolExpr, MaxGSatInstance, MaxGSatOutcome, VarId, VarPool};
use ecfd_relation::{Schema, Tuple};
use serde::{Deserialize, Serialize};

/// What a MAXSS answer proves about the whole set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SatisfiabilityVerdict {
    /// The witness satisfies every constraint: `Σ` is satisfiable.
    Satisfiable,
    /// No tuple satisfies every constraint: `Σ` is unsatisfiable.
    Unsatisfiable,
}

/// The MAXGSAT encoding `f(Σ)` of a constraint set, plus the bookkeeping
/// needed to invert assignments back into tuples (`g`).
#[derive(Debug, Clone)]
pub struct MaxSsEncoding {
    schema: Schema,
    ecfds: Vec<ECfd>,
    /// One representative per value class of every constrained attribute.
    classes: ValueClasses,
    /// Variable ids `x(attribute, representative)`, in the same order.
    vars: Vec<Vec<VarId>>,
    pool: VarPool,
    instance: MaxGSatInstance,
}

/// Result of the MAXSS analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxSsOutcome {
    /// Indices (into the input constraint list) of a satisfiable subset.
    pub satisfiable_subset: Vec<usize>,
    /// A single-tuple witness satisfying exactly that subset.
    pub witness: Tuple,
    /// What the subset proves about the whole set.
    pub verdict: SatisfiabilityVerdict,
}

impl MaxSsEncoding {
    /// Builds `f(Σ)`.
    ///
    /// Both `f` and the inverse `g` are polynomial in the size of `Σ` and the
    /// schema, as required by an approximation-factor-preserving reduction.
    pub fn build(schema: &Schema, ecfds: &[ECfd]) -> Result<Self> {
        for e in ecfds {
            e.validate_against(schema)?;
        }
        let classes = ValueClasses::build(schema, &ecfds.iter().collect::<Vec<_>>(), 1);
        let mut pool = VarPool::new();
        let vars: Vec<Vec<VarId>> = (classes.names.iter().zip(&classes.reps))
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
            let (a, table) = classes.table(attr, cell);
            BoolExpr::or(
                (vars[a].iter().zip(table))
                    .filter(|(_, m)| *m)
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
            classes,
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
    /// arbitrary domain value.
    pub fn tuple_from_assignment(&self, assignment: &Assignment) -> Tuple {
        (self.classes).tuple(&self.schema, |a| {
            self.vars[a].iter().position(|v| assignment.get(*v))
        })
    }

    /// The full `g(Φ_m)`: the indices of the constraints satisfied by the
    /// witness tuple derived from `assignment`, verified against the real
    /// eCFD semantics.
    pub fn satisfied_constraints(&self, assignment: &Assignment) -> Result<(Vec<usize>, Tuple)> {
        let tuple = self.tuple_from_assignment(assignment);
        Ok((satisfied_by(&self.schema, &self.ecfds, &tuple)?, tuple))
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

/// The indices of the constraints the single-tuple instance `{tuple}`
/// satisfies.
fn satisfied_by(schema: &Schema, ecfds: &[ECfd], tuple: &Tuple) -> Result<Vec<usize>> {
    let mut satisfied = Vec::new();
    for (i, ecfd) in ecfds.iter().enumerate() {
        if single_tuple_satisfies(schema, std::slice::from_ref(ecfd), tuple)? {
            satisfied.push(i);
        }
    }
    Ok(satisfied)
}

/// MAXSS, exactly: a largest satisfiable subset of `ecfds`, its one-tuple
/// witness and the verdict it proves (see the module docs). Fails with
/// [`CoreError::AnalysisBudgetExceeded`] when the searches together exceed
/// 5 000 000 nodes.
pub fn max_satisfiable(schema: &Schema, ecfds: &[ECfd]) -> Result<MaxSsOutcome> {
    within(schema, ecfds, NODE_BUDGET)
}

/// [`max_satisfiable`] on `budget` search nodes. The error names
/// [`NODE_BUDGET`], the budget every caller outside the tests passes.
fn within(schema: &Schema, ecfds: &[ECfd], mut budget: u64) -> Result<MaxSsOutcome> {
    for e in ecfds {
        e.validate_against(schema)?;
    }
    let mut search = Search::new(schema, ecfds, Goal::Model, &mut budget);
    for broken in 0..=ecfds.len() {
        let found = search.run(broken).map_err(|_| {
            let what = "MAXSS search exceeded its node budget of";
            CoreError::AnalysisBudgetExceeded(format!("{what} {NODE_BUDGET}"))
        })?;
        if let Some(witness) = found.and_then(|mut model| model.pop()) {
            let satisfiable_subset = satisfied_by(schema, ecfds, &witness)?;
            debug_assert_eq!(satisfiable_subset.len(), ecfds.len() - broken);
            let verdict = if broken == 0 {
                SatisfiabilityVerdict::Satisfiable
            } else {
                SatisfiabilityVerdict::Unsatisfiable
            };
            return Ok(MaxSsOutcome {
                satisfiable_subset,
                witness,
                verdict,
            });
        }
    }
    Err(CoreError::InvalidConstraint(
        "no tuple exists: an attribute the constraints mention has an empty domain".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ECfdBuilder;
    use crate::satisfiability;
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
        let a = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .pattern_rhs(["AC"])
            .pattern(|p| p.in_set("AC", ["212"]))
            .build()
            .unwrap();
        let b = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .pattern_rhs(["AC"])
            .pattern(|p| p.in_set("AC", ["518"]))
            .build()
            .unwrap();
        (a, b)
    }

    #[test]
    fn satisfiable_sets_get_a_full_subset_and_a_real_witness() {
        let s = schema();
        let ecfds = [phi1(), phi2()];
        let outcome = max_satisfiable(&s, &ecfds).unwrap();
        assert_eq!(outcome.satisfiable_subset, vec![0, 1]);
        assert_eq!(outcome.verdict, SatisfiabilityVerdict::Satisfiable);
        assert!(
            satisfiability::single_tuple_satisfies(&s, &ecfds, &outcome.witness).unwrap(),
            "the reported witness must really satisfy the subset"
        );
    }

    #[test]
    fn conflicting_sets_lose_exactly_one_constraint() {
        let s = schema();
        let (a, b) = conflicting_pair();
        let ecfds = [phi1(), a, b];
        let outcome = max_satisfiable(&s, &ecfds).unwrap();
        // φ1 and one of the pair; the search that failed with none broken
        // proves it optimal.
        assert_eq!(outcome.satisfiable_subset.len(), 2);
        assert!(outcome.satisfiable_subset.contains(&0));
        assert_eq!(outcome.verdict, SatisfiabilityVerdict::Unsatisfiable);
        // The exhaustive MAXGSAT optimum of f(Σ) agrees.
        let encoding = MaxSsEncoding::build(&s, &ecfds).unwrap();
        let (gsat, satisfied, _) = encoding.solve().unwrap();
        assert_eq!((gsat.num_satisfied(), satisfied.len()), (2, 2));
    }

    #[test]
    fn a_constraint_counts_once_however_many_of_its_patterns_fail() {
        // AC = 212 breaks ψ alone, in all three of its pattern tuples; AC =
        // 518 breaks both rivals. Counting broken pattern tuples would
        // prefer the second.
        let s = schema();
        let ac_in = |values: &[&'static str]| {
            ECfdBuilder::new("cust")
                .lhs(["CT"])
                .pattern_rhs(["AC"])
                .pattern(|p| p.in_set("AC", values.iter().copied()))
        };
        let psi = (ac_in(&["518"]))
            .pattern(|p| p.in_set("AC", ["518", "607"]))
            .pattern(|p| p.in_set("AC", ["518", "646"]))
            .build()
            .unwrap();
        let rivals = [ac_in(&["212"]), ac_in(&["212", "718"])].map(|b| b.build().unwrap());
        let ecfds = [psi, rivals[0].clone(), rivals[1].clone()];
        let outcome = max_satisfiable(&s, &ecfds).unwrap();
        assert_eq!(outcome.satisfiable_subset, vec![1, 2]);
        assert_eq!(outcome.verdict, SatisfiabilityVerdict::Unsatisfiable);
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
        let e10 = MaxSsEncoding::build(&s, &[base(10)])
            .unwrap()
            .encoded_size();
        let e20 = MaxSsEncoding::build(&s, &[base(20)])
            .unwrap()
            .encoded_size();
        let e40 = MaxSsEncoding::build(&s, &[base(40)])
            .unwrap()
            .encoded_size();
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

    #[test]
    fn an_empty_domain_leaves_no_witness() {
        // No tuple of this schema exists, so no k gives a witness.
        let s = Schema::builder("cust")
            .finite_attr("AC", DataType::Str, [])
            .attr("CT", DataType::Str)
            .build();
        let err = max_satisfiable(&s, &[phi2()]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConstraint(_)), "{err:?}");
    }

    #[test]
    fn empty_constraint_set_is_trivially_satisfiable() {
        let s = schema();
        let outcome = max_satisfiable(&s, &[]).unwrap();
        assert!(outcome.satisfiable_subset.is_empty());
        assert_eq!(outcome.verdict, SatisfiabilityVerdict::Satisfiable);
    }

    #[test]
    fn node_budget_is_enforced() {
        let (a, b) = conflicting_pair();
        let err = within(&schema(), &[phi1(), a, b], 1).unwrap_err();
        let CoreError::AnalysisBudgetExceeded(message) = err else {
            panic!("expected an exhausted budget, got {err:?}");
        };
        assert!(message.contains("MAXSS"), "{message}");
        assert!(message.ends_with(&NODE_BUDGET.to_string()), "{message}");
    }
}
