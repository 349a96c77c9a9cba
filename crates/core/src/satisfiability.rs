//! Exact satisfiability analysis of eCFD sets (Section III of the paper).
//!
//! The satisfiability problem — "is there a nonempty instance `I` with
//! `I ⊨ Σ`?" — is NP-complete for eCFDs (Proposition 3.1), but it enjoys a
//! *small model property*: if `Σ` is satisfiable then a **single-tuple**
//! instance satisfies it. The exact procedure therefore searches for one
//! witness tuple, with the small-model search it shares with
//! [`crate::implication`] and [`crate::maxss`]. Per attribute, it assigns *value classes* — the
//! constants that every cell contains both or neither of, plus the class of
//! values outside every constant — with one representative per class, since
//! no cell tells two members of a class apart and one tuple never compares
//! values. It prunes as soon as a pattern's assigned `X` matches and an
//! assigned `Y ∪ Yp` cell fails. MAXSS runs the same search letting `k`
//! constraints break, and its reduction builds `f(Σ)` over the same
//! classes, so all three static analyses draw a witness tuple's values from
//! one domain.
//!
//! The search is exponential in the number of constrained attributes in the
//! worst case — unavoidable unless P = NP — so it gives up after 5 000 000
//! search nodes with [`CoreError::AnalysisBudgetExceeded`], a budget
//! generous enough for all constraint sets used in the paper's experiments.
//! The budget is a constant: the paper's decider has no tuning.

use crate::ecfd::ECfd;
use crate::error::{CoreError, Result};
use crate::satisfaction;
use crate::small_model::{Goal, Search};
use ecfd_relation::{Relation, Schema, Tuple};

/// The search nodes (cell assignments) satisfiability, and MAXSS over all
/// its tolerances, may explore before giving up.
pub(crate) const NODE_BUDGET: u64 = 5_000_000;

/// Outcome of the exact satisfiability analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatOutcome {
    /// `Σ` is satisfiable; the contained tuple is a single-tuple witness
    /// (over the full schema).
    Satisfiable(Tuple),
    /// No nonempty instance satisfies `Σ`.
    Unsatisfiable,
}

impl SatOutcome {
    /// True for [`SatOutcome::Satisfiable`].
    pub fn is_satisfiable(&self) -> bool {
        matches!(self, SatOutcome::Satisfiable(_))
    }

    /// The witness tuple, if satisfiable.
    pub fn witness(&self) -> Option<&Tuple> {
        match self {
            SatOutcome::Satisfiable(t) => Some(t),
            SatOutcome::Unsatisfiable => None,
        }
    }
}

/// Exact satisfiability.
pub fn is_satisfiable(schema: &Schema, ecfds: &[ECfd]) -> Result<bool> {
    Ok(check_satisfiability(schema, ecfds)?.is_satisfiable())
}

/// Exact satisfiability returning a witness.
pub fn find_witness(schema: &Schema, ecfds: &[ECfd]) -> Result<Option<Tuple>> {
    Ok(check_satisfiability(schema, ecfds)?.witness().cloned())
}

/// Exact satisfiability analysis: a one-tuple witness, or a proof that none
/// exists. Fails with [`CoreError::AnalysisBudgetExceeded`] after 5 000 000
/// search nodes.
pub fn check_satisfiability(schema: &Schema, ecfds: &[ECfd]) -> Result<SatOutcome> {
    within(schema, ecfds, NODE_BUDGET)
}

/// [`check_satisfiability`] on `budget` search nodes. The error names
/// [`NODE_BUDGET`], the budget every caller outside the tests passes.
fn within(schema: &Schema, ecfds: &[ECfd], mut budget: u64) -> Result<SatOutcome> {
    for ecfd in ecfds {
        ecfd.validate_against(schema)?;
    }
    let exhausted = |_| {
        let what = "satisfiability search exceeded its node budget of";
        CoreError::AnalysisBudgetExceeded(format!("{what} {NODE_BUDGET}"))
    };
    let mut search = Search::new(schema, ecfds, Goal::Model, &mut budget);
    let found = search.run(0).map_err(exhausted)?;
    let Some(witness) = found.and_then(|mut model| model.pop()) else {
        return Ok(SatOutcome::Unsatisfiable);
    };
    debug_assert!(single_tuple_satisfies(schema, ecfds, &witness)?);
    Ok(SatOutcome::Satisfiable(witness))
}

/// Checks whether the single-tuple instance `{t}` satisfies every constraint.
///
/// Exposed because both the MAXSS reduction's `g` function and tests need it.
pub fn single_tuple_satisfies(schema: &Schema, ecfds: &[ECfd], tuple: &Tuple) -> Result<bool> {
    let db = Relation::with_tuples(schema.clone(), [tuple.clone()])?;
    satisfaction::satisfies_all(&db, ecfds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ECfdBuilder;
    use crate::pattern::PatternValue;
    use ecfd_relation::{DataType, Value};

    fn cust_schema() -> Schema {
        Schema::builder("cust")
            .attr("AC", DataType::Str)
            .attr("PN", DataType::Str)
            .attr("NM", DataType::Str)
            .attr("STR", DataType::Str)
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

    /// φ3 of Example 3.1: unsatisfiable because every tuple's CT is forced to
    /// NYC by the first pattern tuple, and NYC tuples are forced to LI by the
    /// second. (The camera-ready rendering of the example shows `{NYC}` as the
    /// first pattern's LHS, which would make it vacuously satisfiable; the
    /// accompanying argument — "if t[CT] = NYC, then φ3 requires it to be LI;
    /// but φ3 forces it to be NYC again" — only goes through with a wildcard
    /// LHS, which is what we use here.)
    fn phi3_unsat() -> ECfd {
        ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["CT"])
            .pattern(|p| {
                p.lhs_cell("CT", PatternValue::Wildcard)
                    .rhs_cell("CT", PatternValue::in_set(["NYC"]))
            })
            .pattern(|p| {
                p.lhs_cell("CT", PatternValue::in_set(["NYC"]))
                    .rhs_cell("CT", PatternValue::in_set(["LI"]))
            })
            .build()
            .unwrap()
    }

    #[test]
    fn paper_constraints_are_satisfiable() {
        let schema = cust_schema();
        let ecfds = [phi1(), phi2()];
        let outcome = check_satisfiability(&schema, &ecfds).unwrap();
        let witness = outcome.witness().expect("φ1, φ2 are satisfiable").clone();
        assert!(single_tuple_satisfies(&schema, &ecfds, &witness).unwrap());
        assert!(is_satisfiable(&schema, &ecfds).unwrap());
    }

    #[test]
    fn example_3_1_is_unsatisfiable() {
        let schema = cust_schema();
        assert!(!is_satisfiable(&schema, &[phi3_unsat()]).unwrap());
        assert!(find_witness(&schema, &[phi3_unsat()]).unwrap().is_none());
    }

    #[test]
    fn unsatisfiability_needs_the_whole_set() {
        // Each of the two pattern tuples of φ3 alone is satisfiable; only
        // together do they conflict.
        let schema = cust_schema();
        let phi3 = phi3_unsat();
        for tp in phi3.tableau() {
            let single = phi3.with_tableau(vec![tp.clone()]).unwrap();
            assert!(is_satisfiable(&schema, &[single]).unwrap());
        }
    }

    #[test]
    fn empty_constraint_set_is_satisfiable() {
        let schema = cust_schema();
        let outcome = check_satisfiability(&schema, &[]).unwrap();
        assert!(outcome.is_satisfiable());
    }

    #[test]
    fn finite_domain_conflicts_are_detected() {
        // Proposition 3.3's mechanism: an eCFD can force an attribute to draw
        // values from a finite set. Here two constraints force disjoint sets,
        // so the set is unsatisfiable even though dom(CT) is infinite.
        let schema = cust_schema();
        let force_a = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .pattern_rhs(["AC"])
            .pattern(|p| p.in_set("AC", ["212", "718"]))
            .build()
            .unwrap();
        let force_b = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .pattern_rhs(["AC"])
            .pattern(|p| p.in_set("AC", ["518"]))
            .build()
            .unwrap();
        assert!(!is_satisfiable(&schema, &[force_a.clone(), force_b]).unwrap());
        assert!(is_satisfiable(&schema, &[force_a]).unwrap());
    }

    #[test]
    fn finite_declared_domain_restricts_witnesses() {
        // AC has the finite domain {212}; a constraint requiring AC ∉ {212}
        // cannot be satisfied.
        let schema = Schema::builder("cust")
            .finite_attr("AC", DataType::Str, [Value::str("212")])
            .attr("CT", DataType::Str)
            .build();
        let phi = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .pattern_rhs(["AC"])
            .pattern(|p| p.not_in("AC", ["212"]))
            .build()
            .unwrap();
        assert!(!is_satisfiable(&schema, &[phi]).unwrap());

        // With a 2-element finite domain there is room again.
        let schema = Schema::builder("cust")
            .finite_attr("AC", DataType::Str, [Value::str("212"), Value::str("518")])
            .attr("CT", DataType::Str)
            .build();
        let phi = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .pattern_rhs(["AC"])
            .pattern(|p| p.not_in("AC", ["212"]))
            .build()
            .unwrap();
        let witness = find_witness(&schema, &[phi]).unwrap().unwrap();
        let ac = schema.attr_id("AC").unwrap();
        assert_eq!(witness[ac], Value::str("518"));
    }

    #[test]
    fn node_budget_is_enforced() {
        let schema = cust_schema();
        let err = within(&schema, &[phi1(), phi2()], 1).unwrap_err();
        let CoreError::AnalysisBudgetExceeded(message) = err else {
            panic!("expected an exhausted budget, got {err:?}");
        };
        assert!(message.contains("satisfiability"), "{message}");
        assert!(message.ends_with(&NODE_BUDGET.to_string()), "{message}");
    }

    #[test]
    fn witness_respects_constraints_that_chain() {
        // CT ∈ {Albany} forces AC ∈ {518}; AC ∈ {518} forces ZIP ∉ {00000}.
        let schema = cust_schema();
        let c1 = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .pattern_rhs(["AC"])
            .pattern(|p| p.in_set("CT", ["Albany"]).in_set("AC", ["518"]))
            .build()
            .unwrap();
        let c2 = ECfdBuilder::new("cust")
            .lhs(["AC"])
            .pattern_rhs(["ZIP"])
            .pattern(|p| p.in_set("AC", ["518"]).not_in("ZIP", ["00000"]))
            .build()
            .unwrap();
        // Also force CT to actually be Albany so the chain is exercised.
        let c3 = ECfdBuilder::new("cust")
            .lhs(["ZIP"])
            .pattern_rhs(["CT"])
            .pattern(|p| p.in_set("CT", ["Albany"]))
            .build()
            .unwrap();
        let witness = find_witness(&schema, &[c1.clone(), c2.clone(), c3.clone()])
            .unwrap()
            .unwrap();
        assert!(single_tuple_satisfies(&schema, &[c1, c2, c3], &witness).unwrap());
        assert_eq!(witness[schema.attr_id("CT").unwrap()], Value::str("Albany"));
        assert_eq!(witness[schema.attr_id("AC").unwrap()], Value::str("518"));
        assert_ne!(witness[schema.attr_id("ZIP").unwrap()], Value::str("00000"));
    }
}
