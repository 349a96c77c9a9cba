//! Propositional Boolean expressions.
//!
//! The MAXSS → MAXGSAT reduction of the paper produces *generalized* Boolean
//! formulas — arbitrary combinations of conjunction, disjunction, negation and
//! implication over variables `x(i, a)` ("attribute `A_i` takes constant `a`").
//! [`BoolExpr`] represents exactly that, without any CNF normal-form
//! requirement (that is what makes the target problem MAX**G**SAT rather than
//! MAXSAT).

use crate::assignment::Assignment;
use std::fmt;

/// Identifier of a propositional variable (index into a [`crate::VarPool`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub usize);

impl VarId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// An arbitrary propositional formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoolExpr {
    /// A constant `true` / `false`.
    Const(bool),
    /// A propositional variable.
    Var(VarId),
    /// Negation.
    Not(Box<BoolExpr>),
    /// N-ary conjunction. The empty conjunction is `true`.
    And(Vec<BoolExpr>),
    /// N-ary disjunction. The empty disjunction is `false`.
    Or(Vec<BoolExpr>),
    /// Implication `lhs → rhs`.
    Implies(Box<BoolExpr>, Box<BoolExpr>),
}

impl BoolExpr {
    /// A variable reference.
    pub fn var(v: VarId) -> Self {
        BoolExpr::Var(v)
    }

    /// Negation of `self`.
    ///
    /// Deliberately a consuming builder method rather than `std::ops::Not`,
    /// matching the `and`/`or` combinators beside it.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        BoolExpr::Not(Box::new(self))
    }

    /// Conjunction of the given formulas (flattening nested conjunctions).
    pub fn and(exprs: impl IntoIterator<Item = BoolExpr>) -> Self {
        let mut flat = Vec::new();
        for e in exprs {
            match e {
                BoolExpr::And(inner) => flat.extend(inner),
                BoolExpr::Const(true) => {}
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => BoolExpr::Const(true),
            1 => flat.pop().expect("len checked"),
            _ => BoolExpr::And(flat),
        }
    }

    /// Disjunction of the given formulas (flattening nested disjunctions).
    pub fn or(exprs: impl IntoIterator<Item = BoolExpr>) -> Self {
        let mut flat = Vec::new();
        for e in exprs {
            match e {
                BoolExpr::Or(inner) => flat.extend(inner),
                BoolExpr::Const(false) => {}
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => BoolExpr::Const(false),
            1 => flat.pop().expect("len checked"),
            _ => BoolExpr::Or(flat),
        }
    }

    /// Implication `self → rhs`.
    pub fn implies(self, rhs: BoolExpr) -> Self {
        BoolExpr::Implies(Box::new(self), Box::new(rhs))
    }

    /// Evaluates the formula under an assignment.
    ///
    /// Variables beyond the assignment's length evaluate to `false`.
    pub fn eval(&self, assignment: &Assignment) -> bool {
        match self {
            BoolExpr::Const(b) => *b,
            BoolExpr::Var(v) => assignment.get(*v),
            BoolExpr::Not(e) => !e.eval(assignment),
            BoolExpr::And(es) => es.iter().all(|e| e.eval(assignment)),
            BoolExpr::Or(es) => es.iter().any(|e| e.eval(assignment)),
            BoolExpr::Implies(a, b) => !a.eval(assignment) || b.eval(assignment),
        }
    }

    /// Number of nodes in the expression tree (a size measure used to verify
    /// that the MAXSS reduction stays polynomial).
    pub fn size(&self) -> usize {
        match self {
            BoolExpr::Const(_) | BoolExpr::Var(_) => 1,
            BoolExpr::Not(e) => 1 + e.size(),
            BoolExpr::And(es) | BoolExpr::Or(es) => {
                1 + es.iter().map(BoolExpr::size).sum::<usize>()
            }
            BoolExpr::Implies(a, b) => 1 + a.size() + b.size(),
        }
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::Const(b) => write!(f, "{b}"),
            BoolExpr::Var(v) => write!(f, "{v}"),
            BoolExpr::Not(e) => write!(f, "¬({e})"),
            BoolExpr::And(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            BoolExpr::Or(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            BoolExpr::Implies(a, b) => write!(f, "({a} → {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::VarPool;

    fn pool3() -> (VarPool, VarId, VarId, VarId) {
        let mut pool = VarPool::new();
        let a = pool.fresh("a");
        let b = pool.fresh("b");
        let c = pool.fresh("c");
        (pool, a, b, c)
    }

    #[test]
    fn eval_basic_connectives() {
        let (pool, a, b, _) = pool3();
        let mut asg = Assignment::all_false(pool.len());
        asg.set(a, true);

        assert!(BoolExpr::var(a).eval(&asg));
        assert!(!BoolExpr::var(b).eval(&asg));
        assert!(BoolExpr::var(b).not().eval(&asg));
        assert!(BoolExpr::or([BoolExpr::var(a), BoolExpr::var(b)]).eval(&asg));
        assert!(!BoolExpr::and([BoolExpr::var(a), BoolExpr::var(b)]).eval(&asg));
        assert!(BoolExpr::var(b).implies(BoolExpr::var(a)).eval(&asg));
        assert!(!BoolExpr::var(a).implies(BoolExpr::var(b)).eval(&asg));
        assert!(BoolExpr::Const(true).eval(&asg));
        assert!(!BoolExpr::Const(false).eval(&asg));
    }

    #[test]
    fn empty_connectives_have_identity_semantics() {
        let asg = Assignment::all_false(0);
        assert!(BoolExpr::and(std::iter::empty()).eval(&asg));
        assert!(!BoolExpr::or(std::iter::empty()).eval(&asg));
    }

    #[test]
    fn and_or_flatten_nested_structure() {
        let (_, a, b, c) = pool3();
        let e = BoolExpr::and([
            BoolExpr::and([BoolExpr::var(a), BoolExpr::var(b)]),
            BoolExpr::var(c),
        ]);
        assert_eq!(
            e,
            BoolExpr::And(vec![BoolExpr::var(a), BoolExpr::var(b), BoolExpr::var(c)])
        );
        let e = BoolExpr::or([
            BoolExpr::or([BoolExpr::var(a), BoolExpr::var(b)]),
            BoolExpr::var(c),
        ]);
        assert_eq!(
            e,
            BoolExpr::Or(vec![BoolExpr::var(a), BoolExpr::var(b), BoolExpr::var(c)])
        );
    }

    #[test]
    fn size_counts_every_node() {
        let (_, a, b, c) = pool3();
        let e = BoolExpr::var(a).implies(BoolExpr::or([BoolExpr::var(b), BoolExpr::var(c).not()]));
        assert_eq!(e.size(), 6);
    }

    #[test]
    fn display_is_parenthesised() {
        let (_, a, b, _) = pool3();
        let e = BoolExpr::and([BoolExpr::var(a), BoolExpr::var(b).not()]);
        assert_eq!(e.to_string(), "(x0 ∧ ¬(x1))");
    }
}
