//! Truth assignments and variable pools.

use crate::expr::VarId;

/// Allocates propositional variables and remembers a human-readable name for
/// each (the MAXSS reduction names variables `x(i, a)` after an attribute
/// index and a constant).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarPool {
    names: Vec<String>,
}

impl VarPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        VarPool::default()
    }

    /// Allocates a fresh variable with the given name.
    pub fn fresh(&mut self, name: impl Into<String>) -> VarId {
        let id = VarId(self.names.len());
        self.names.push(name.into());
        id
    }

    /// Number of variables allocated so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no variables have been allocated.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The name associated with a variable.
    pub fn name(&self, var: VarId) -> Option<&str> {
        self.names.get(var.index()).map(String::as_str)
    }

    /// Looks a variable up by name (linear scan; pools in this codebase are
    /// small — one variable per (attribute, value class) pair).
    pub fn lookup(&self, name: &str) -> Option<VarId> {
        self.names.iter().position(|n| n == name).map(VarId)
    }
}

/// A total truth assignment over the variables `x0 .. x_{n-1}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    values: Vec<bool>,
}

impl Assignment {
    /// The all-false assignment over `n` variables.
    pub fn all_false(n: usize) -> Self {
        Assignment {
            values: vec![false; n],
        }
    }

    /// Builds an assignment from the low `n` bits of `bits` (bit `i` gives the
    /// value of variable `i`). Used by the exhaustive solver.
    pub fn from_bits(bits: u64, n: usize) -> Self {
        Assignment {
            values: (0..n).map(|i| (bits >> i) & 1 == 1).collect(),
        }
    }

    /// Number of variables covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the assignment covers no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value of a variable; out-of-range variables read as `false`.
    pub fn get(&self, var: VarId) -> bool {
        self.values.get(var.index()).copied().unwrap_or(false)
    }

    /// Sets the value of a variable (growing the assignment if needed).
    pub fn set(&mut self, var: VarId, value: bool) {
        if var.index() >= self.values.len() {
            self.values.resize(var.index() + 1, false);
        }
        self.values[var.index()] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_allocates_sequential_ids_with_names() {
        let mut pool = VarPool::new();
        assert!(pool.is_empty());
        let a = pool.fresh("x(0,NYC)");
        let b = pool.fresh("x(0,LI)");
        assert_eq!(a, VarId(0));
        assert_eq!(b, VarId(1));
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.name(a), Some("x(0,NYC)"));
        assert_eq!(pool.name(VarId(9)), None);
        assert_eq!(pool.lookup("x(0,LI)"), Some(b));
        assert_eq!(pool.lookup("nope"), None);
    }

    #[test]
    fn assignment_get_set() {
        let mut asg = Assignment::all_false(3);
        assert!(!asg.get(VarId(0)));
        asg.set(VarId(0), true);
        assert!(asg.get(VarId(0)));
        asg.set(VarId(0), false);
        assert!(!asg.get(VarId(0)));
        // Out-of-range reads are false; sets grow the assignment.
        assert!(!asg.get(VarId(10)));
        asg.set(VarId(10), true);
        assert_eq!(asg.len(), 11);
        assert!(asg.get(VarId(10)));
        assert!(Assignment::all_false(0).is_empty());
    }

    #[test]
    fn from_bits_uses_little_endian_bit_order() {
        let asg = Assignment::from_bits(0b101, 3);
        let values: Vec<bool> = (0..3).map(|i| asg.get(VarId(i))).collect();
        assert_eq!(values, [true, false, true]);
    }
}
