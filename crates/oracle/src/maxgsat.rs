//! MAXGSAT: maximise the number of satisfied Boolean expressions.
//!
//! The *Maximum Generalized Satisfiability* problem (Papadimitriou,
//! "Computational Complexity", 1994 — reference \[7\] of the paper) asks, given a
//! set `Φ = {φ_1, …, φ_m}` of arbitrary Boolean expressions, for a truth
//! assignment satisfying as many of them as possible. The eCFD MAXSS problem
//! reduces to it (Section IV), and the paper then applies MAXGSAT
//! approximation algorithms. This module keeps one solver, the exact
//! exhaustive one ([`MaxGSatInstance::solve_exhaustive`]), exponential in the
//! number of variables and limited to
//! [`MaxGSatInstance::EXHAUSTIVE_MAX_VARS`] of them. It checks that the
//! reduction ([`crate::maxss`]) keeps the MAXSS optimum. MAXSS itself is
//! decided by `ecfd_core`'s small-model search, which proves its optimum
//! where an approximation algorithm proves none.

use crate::assignment::Assignment;
use crate::expr::BoolExpr;

/// A MAXGSAT instance: a number of variables and a list of formulas over them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxGSatInstance {
    num_vars: usize,
    formulas: Vec<BoolExpr>,
}

/// An optimal solution of a MAXGSAT instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxGSatOutcome {
    /// An assignment satisfying as many formulas as any assignment does.
    pub assignment: Assignment,
    /// Indices (into the instance's formula list) of the formulas satisfied by
    /// [`MaxGSatOutcome::assignment`].
    pub satisfied: Vec<usize>,
}

impl MaxGSatOutcome {
    /// Number of satisfied formulas.
    pub fn num_satisfied(&self) -> usize {
        self.satisfied.len()
    }
}

impl MaxGSatInstance {
    /// The most variables [`MaxGSatInstance::solve_exhaustive`] enumerates.
    pub const EXHAUSTIVE_MAX_VARS: usize = 24;

    /// Creates an instance over `num_vars` variables.
    pub fn new(num_vars: usize, formulas: Vec<BoolExpr>) -> Self {
        MaxGSatInstance { num_vars, formulas }
    }

    /// The formulas of the instance.
    pub fn formulas(&self) -> &[BoolExpr] {
        &self.formulas
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Indices of the formulas satisfied by `assignment`.
    pub fn satisfied_by(&self, assignment: &Assignment) -> Vec<usize> {
        self.formulas
            .iter()
            .enumerate()
            .filter(|(_, f)| f.eval(assignment))
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of formulas satisfied by `assignment`.
    pub fn count_satisfied(&self, assignment: &Assignment) -> usize {
        self.formulas.iter().filter(|f| f.eval(assignment)).count()
    }

    /// Exact exhaustive search. Panics if the instance has more than
    /// [`MaxGSatInstance::EXHAUSTIVE_MAX_VARS`] variables.
    pub fn solve_exhaustive(&self) -> MaxGSatOutcome {
        assert!(
            self.num_vars <= Self::EXHAUSTIVE_MAX_VARS,
            "exhaustive MAXGSAT limited to {} variables, instance has {}",
            Self::EXHAUSTIVE_MAX_VARS,
            self.num_vars
        );
        let mut best = Assignment::all_false(self.num_vars);
        let mut best_count = self.count_satisfied(&best);
        for bits in 1..(1u64 << self.num_vars) {
            let asg = Assignment::from_bits(bits, self.num_vars);
            let count = self.count_satisfied(&asg);
            if count > best_count {
                best_count = count;
                best = asg;
                if best_count == self.formulas.len() {
                    break;
                }
            }
        }
        MaxGSatOutcome {
            satisfied: self.satisfied_by(&best),
            assignment: best,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::VarPool;
    use crate::expr::VarId;

    /// A small instance where exactly `m - 1` formulas can be satisfied:
    /// {a, ¬a, a ∨ b, b}.
    fn conflicting_instance() -> (MaxGSatInstance, usize) {
        let mut pool = VarPool::new();
        let a = pool.fresh("a");
        let b = pool.fresh("b");
        let formulas = vec![
            BoolExpr::var(a),
            BoolExpr::var(a).not(),
            BoolExpr::or([BoolExpr::var(a), BoolExpr::var(b)]),
            BoolExpr::var(b),
        ];
        (MaxGSatInstance::new(pool.len(), formulas), 3)
    }

    #[test]
    fn exhaustive_finds_optimum() {
        let (inst, opt) = conflicting_instance();
        let outcome = inst.solve_exhaustive();
        assert_eq!(outcome.num_satisfied(), opt);
        // The satisfied index list is consistent with the assignment.
        for &i in &outcome.satisfied {
            assert!(inst.formulas()[i].eval(&outcome.assignment));
        }
    }

    #[test]
    fn fully_satisfiable_instance_is_fully_satisfied() {
        let mut pool = VarPool::new();
        let vars: Vec<VarId> = (0..6).map(|i| pool.fresh(format!("v{i}"))).collect();
        // Chain of implications plus a few disjunctions — satisfiable by all-true.
        let mut formulas: Vec<BoolExpr> = vars
            .windows(2)
            .map(|w| BoolExpr::var(w[0]).implies(BoolExpr::var(w[1])))
            .collect();
        formulas.push(BoolExpr::or(vars.iter().map(|v| BoolExpr::var(*v))));
        let inst = MaxGSatInstance::new(pool.len(), formulas.clone());

        let exact = inst.solve_exhaustive();
        assert_eq!(exact.num_satisfied(), formulas.len());
    }

    #[test]
    fn empty_instance() {
        let inst = MaxGSatInstance::new(0, vec![]);
        assert!(inst.formulas().is_empty());
        let outcome = inst.solve_exhaustive();
        assert_eq!(outcome.num_satisfied(), 0);
    }

    #[test]
    #[should_panic(expected = "exhaustive MAXGSAT limited")]
    fn exhaustive_rejects_large_instances() {
        let inst = MaxGSatInstance::new(30, vec![BoolExpr::Const(true)]);
        let _ = inst.solve_exhaustive();
    }
}
