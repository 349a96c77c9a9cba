//! MAXSS, the maximum satisfiable subset problem of Section IV.
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
//! * **The paper's route, MAXSS → MAXGSAT.** The paper reduces MAXSS to
//!   MAXGSAT by an encoding `f(Σ)` and its inverse `g`, and runs MAXGSAT
//!   approximation algorithms between them. An approximation algorithm
//!   proves no optimum, so its shortfall can never say "unsatisfiable"; the
//!   search over the same value classes proves its optimum outright. The
//!   reduction stays a tested claim, outside the library: the workspace's
//!   test-only `ecfd_oracle` crate builds `f(Σ)` over these classes, one
//!   variable per class, and its suites check that MAXGSAT's exhaustive
//!   optimum equals the search's.

use crate::ecfd::ECfd;
use crate::error::{CoreError, Result};
use crate::satisfiability::{single_tuple_satisfies, NODE_BUDGET};
use crate::small_model::{Goal, Search};
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
