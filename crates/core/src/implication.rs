//! Exact implication analysis of eCFDs (Section III of the paper).
//!
//! The implication problem — given `Σ` and `φ`, does every instance that
//! satisfies `Σ` also satisfy `φ`? — is coNP-complete for eCFDs
//! (Proposition 3.2). Its complement has a *two-tuple small model property*:
//! `Σ ⊭ φ` iff some instance of at most two tuples satisfies `Σ` and violates
//! `φ`. The exact procedure searches for that counterexample directly, with
//! the small-model search it shares with [`crate::satisfiability`]:
//!
//! 1. **SV:** one tuple that satisfies `Σ` and fails `φ`'s right-hand
//!    pattern. One tuple is enough here: dropping a tuple from a model of
//!    `Σ` leaves a model of `Σ`.
//! 2. **MV**, only when `Y ≠ ∅` and the SV run found nothing: two tuples
//!    that share their `X` cells, match a pattern of `φ` and differ on `Y`.
//!
//! Both runs assign *value classes* — per attribute, the constants that every
//! cell of `Σ ∪ {φ}` contains both or neither of, plus the values outside
//! every constant — with two representatives per class, because
//! `t1[Y] ≠ t2[Y]` may need two values of one class.

use crate::ecfd::ECfd;
use crate::error::{CoreError, Result};
use crate::satisfaction;
use crate::small_model::{Goal, Search};
use ecfd_relation::{Relation, Schema, Tuple};

/// The search nodes (cell assignments, over both the single- and the
/// two-tuple run) one implication check may explore before giving up.
const NODE_BUDGET: u64 = 20_000_000;

/// Outcome of the implication analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImplicationOutcome {
    /// `Σ ⊨ φ`: every instance satisfying `Σ` satisfies `φ`.
    Implied,
    /// `Σ ⊭ φ`; the contained instance (one or two tuples) satisfies `Σ` but
    /// violates `φ`.
    NotImplied(Vec<Tuple>),
}

impl ImplicationOutcome {
    /// True for [`ImplicationOutcome::Implied`].
    pub fn is_implied(&self) -> bool {
        matches!(self, ImplicationOutcome::Implied)
    }

    /// The counterexample instance, if any.
    pub fn counterexample(&self) -> Option<&[Tuple]> {
        match self {
            ImplicationOutcome::Implied => None,
            ImplicationOutcome::NotImplied(ts) => Some(ts),
        }
    }
}

/// Does `Σ ⊨ φ`?
pub fn implies(schema: &Schema, sigma: &[ECfd], phi: &ECfd) -> Result<bool> {
    Ok(check_implication(schema, sigma, phi)?.is_implied())
}

/// Exact implication analysis: `Implied`, or a counterexample of one or two
/// tuples. Fails with [`CoreError::AnalysisBudgetExceeded`] after 20 000 000
/// search nodes.
pub fn check_implication(
    schema: &Schema,
    sigma: &[ECfd],
    phi: &ECfd,
) -> Result<ImplicationOutcome> {
    within(schema, sigma, phi, NODE_BUDGET)
}

/// [`check_implication`] on `budget` search nodes. The error names
/// [`NODE_BUDGET`], the budget every caller outside the tests passes.
fn within(
    schema: &Schema,
    sigma: &[ECfd],
    phi: &ECfd,
    mut budget: u64,
) -> Result<ImplicationOutcome> {
    for ecfd in sigma.iter().chain(std::iter::once(phi)) {
        ecfd.validate_against(schema)?;
    }

    let mut run = |goal| {
        Search::new(schema, sigma, goal, &mut budget)
            .run(0)
            .map_err(|_| {
                let what = "implication search exceeded its node budget of";
                CoreError::AnalysisBudgetExceeded(format!("{what} {NODE_BUDGET}"))
            })
    };
    let mut found = run(Goal::Single(phi))?;
    if found.is_none() && !phi.fd_rhs().is_empty() {
        found = run(Goal::Pair(phi))?;
    }
    let Some(counterexample) = found else {
        return Ok(ImplicationOutcome::Implied);
    };
    debug_assert!({
        let db = Relation::with_tuples(schema.clone(), counterexample.clone())?;
        satisfaction::satisfies_all(&db, sigma)? && !satisfaction::check(&db, phi)?.is_satisfied()
    });
    Ok(ImplicationOutcome::NotImplied(counterexample))
}

/// Removes the constraints that are implied by the rest of the set — the
/// redundancy-elimination optimisation motivated in Section III ("A natural
/// optimization strategy for cleaning data with eCFDs is by removing
/// redundancies"). Returns the retained constraints.
///
/// The cover drops whole constraints only: a constraint keeps its whole
/// tableau even when some of its pattern tuples are implied. For
/// pattern-tuple granularity ("each tuple itself is a constraint"), split
/// the set first with [`crate::normalize::split_patterns`].
pub fn minimal_cover(schema: &Schema, ecfds: &[ECfd]) -> Result<Vec<ECfd>> {
    let mut retained: Vec<ECfd> = ecfds.to_vec();
    // Drop implied constraints in reverse order, so that earlier
    // (presumably more fundamental) constraints are preferred.
    let mut idx = retained.len();
    while idx > 0 {
        idx -= 1;
        let mut rest = retained.clone();
        let candidate = rest.remove(idx);
        if check_implication(schema, &rest, &candidate)?.is_implied() {
            retained.remove(idx);
        }
    }
    Ok(retained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ECfdBuilder;
    use crate::normalize::{split_patterns, total_pattern_tuples};
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

    #[test]
    fn the_cover_drops_whole_constraints_only() {
        // The satisfiable subset of `examples/constraint_analysis.rs`: with
        // AC = 212 everywhere, φ1's FD tuple is implied, yet the cover keeps
        // φ1 whole. Split first, the cover drops that tuple too.
        let sigma = crate::parser::parse_ecfds(
            "cust: [CT] -> [AC] | [], { !{NYC, LI} || _ ; {Albany, Troy, Colonie} || {518} }\n\
             cust: [CT] -> [] | [AC], { {NYC} || {212, 718, 646, 347, 917} }\n\
             cust: [CT] -> [AC] | [], { {Albany} || {518} }\n\
             cust: [CT] -> [] | [AC], { _ || {212} }",
        )
        .unwrap();
        let cover = minimal_cover(&schema(), &sigma).unwrap();
        assert_eq!(cover, [sigma[0].clone(), sigma[3].clone()]);
        assert_eq!(total_pattern_tuples(&cover), 3);

        let singles: Vec<ECfd> = split_patterns(&sigma).into_iter().map(|s| s.ecfd).collect();
        let split_cover = minimal_cover(&schema(), &singles).unwrap();
        assert_eq!(total_pattern_tuples(&split_cover), 2);
        assert_eq!(split_cover[0].tableau(), &sigma[0].tableau()[1..]);
    }

    #[test]
    fn constraint_implies_itself_and_weaker_variants() {
        let s = schema();
        let phi = phi1();
        assert!(implies(&s, std::slice::from_ref(&phi), &phi).unwrap());

        // A weaker constraint: only requires the binding for Albany.
        let weaker = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p.in_set("CT", ["Albany"]).constant("AC", "518"))
            .build()
            .unwrap();
        assert!(implies(&s, std::slice::from_ref(&phi), &weaker).unwrap());
        // …but not vice versa: the weaker constraint says nothing about Troy.
        assert!(!implies(&s, &[weaker], &phi).unwrap());
    }

    #[test]
    fn nothing_follows_from_the_empty_set_except_trivialities() {
        let s = schema();
        assert!(!implies(&s, &[], &phi1()).unwrap());

        // A tautological constraint (all-wildcard single pattern on a single
        // tuple FD X → X) is implied by anything.
        let trivial = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["CT"])
            .pattern(|p| p)
            .build()
            .unwrap();
        assert!(implies(&s, &[], &trivial).unwrap());
    }

    #[test]
    fn fd_style_transitivity_does_not_hold_conditionally() {
        // CT → AC on non-NYC cities and AC → ZIP everywhere do NOT imply
        // CT → ZIP everywhere (NYC rows are unconstrained by the first).
        let s = schema();
        let ct_ac = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p.not_in("CT", ["NYC"]))
            .build()
            .unwrap();
        let ac_zip = ECfdBuilder::new("cust")
            .lhs(["AC"])
            .fd_rhs(["ZIP"])
            .pattern(|p| p)
            .build()
            .unwrap();
        let ct_zip_everywhere = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["ZIP"])
            .pattern(|p| p)
            .build()
            .unwrap();
        let ct_zip_conditional = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["ZIP"])
            .pattern(|p| p.not_in("CT", ["NYC"]))
            .build()
            .unwrap();
        assert!(!implies(&s, &[ct_ac.clone(), ac_zip.clone()], &ct_zip_everywhere).unwrap());
        // The conditional version (restricted to non-NYC) IS implied:
        // transitivity holds within the scope of the first constraint.
        assert!(implies(&s, &[ct_ac, ac_zip], &ct_zip_conditional).unwrap());
    }

    #[test]
    fn pattern_subsumption_is_detected() {
        let s = schema();
        // "AC must be one of {212, 718}" implies "AC must be one of
        // {212, 718, 646}" for NYC rows.
        let tight = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .pattern_rhs(["AC"])
            .pattern(|p| p.constant("CT", "NYC").in_set("AC", ["212", "718"]))
            .build()
            .unwrap();
        let loose = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .pattern_rhs(["AC"])
            .pattern(|p| p.constant("CT", "NYC").in_set("AC", ["212", "718", "646"]))
            .build()
            .unwrap();
        assert!(implies(&s, std::slice::from_ref(&tight), &loose).unwrap());
        assert!(!implies(&s, &[loose], &tight).unwrap());
    }

    #[test]
    fn counterexample_instances_are_returned_and_valid() {
        let s = schema();
        let phi = phi1();
        let outcome = check_implication(&s, &[], &phi).unwrap();
        let witness = outcome.counterexample().expect("φ1 is not implied by ∅");
        assert!(!witness.is_empty() && witness.len() <= 2);
        let db = Relation::with_tuples(s.clone(), witness.iter().cloned()).unwrap();
        assert!(!satisfaction::satisfies_all(&db, std::slice::from_ref(&phi)).unwrap());
    }

    #[test]
    fn two_tuple_counterexamples_are_found_when_needed() {
        // An unconditional FD CT → AC needs two tuples to be violated; check
        // that the search finds a two-tuple counterexample when the implying
        // set is empty.
        let s = schema();
        let fd = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p)
            .build()
            .unwrap();
        let outcome = check_implication(&s, &[], &fd).unwrap();
        let witness = outcome.counterexample().expect("an FD is not implied by ∅");
        assert_eq!(witness.len(), 2, "violating a bare FD requires two tuples");
    }

    #[test]
    fn budget_is_enforced() {
        let s = schema();
        let err = within(&s, &[phi1()], &phi1(), 1).unwrap_err();
        let CoreError::AnalysisBudgetExceeded(message) = err else {
            panic!("expected an exhausted budget, got {err:?}");
        };
        assert!(message.contains("implication"), "{message}");
        assert!(message.ends_with(&NODE_BUDGET.to_string()), "{message}");
    }

    #[test]
    fn minimal_cover_drops_redundant_constraints() {
        let s = schema();
        let phi = phi1();
        let weaker = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p.in_set("CT", ["Albany"]).constant("AC", "518"))
            .build()
            .unwrap();
        let cover = minimal_cover(&s, &[phi.clone(), weaker.clone()]).unwrap();
        assert_eq!(cover, vec![phi.clone()]);

        // Nothing to drop when constraints are independent.
        let independent = ECfdBuilder::new("cust")
            .lhs(["AC"])
            .fd_rhs(["ZIP"])
            .pattern(|p| p)
            .build()
            .unwrap();
        let cover = minimal_cover(&s, &[phi.clone(), independent.clone()]).unwrap();
        assert_eq!(cover.len(), 2);
    }
}
