//! Pattern values: the cells of an eCFD pattern tableau.
//!
//! For an attribute `A`, a pattern cell `tp[A]` is (Section II of the paper):
//!
//! * the unnamed variable `_` — any value of `dom(A)` matches;
//! * a finite set `S ⊆ dom(A)` — disjunction: the value must be in `S`;
//! * a complement set `S̄` — inequality: the value must *not* be in `S`.
//!
//! Classic CFD cells (a single constant `a`) are the singleton set `{a}`.

use ecfd_relation::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// One cell of a pattern tuple.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PatternValue {
    /// The unnamed variable `_`: matches every value.
    Wildcard,
    /// A finite set `S`: matches exactly the listed values (disjunction).
    In(BTreeSet<Value>),
    /// A complement set `S̄`: matches everything *except* the listed values
    /// (inequality).
    NotIn(BTreeSet<Value>),
}

impl PatternValue {
    /// The wildcard `_`.
    pub fn wildcard() -> Self {
        PatternValue::Wildcard
    }

    /// A positive set `S` built from anything convertible to values.
    pub fn in_set<V: Into<Value>>(values: impl IntoIterator<Item = V>) -> Self {
        PatternValue::In(values.into_iter().map(Into::into).collect())
    }

    /// A complement set `S̄` built from anything convertible to values.
    pub fn not_in_set<V: Into<Value>>(values: impl IntoIterator<Item = V>) -> Self {
        PatternValue::NotIn(values.into_iter().map(Into::into).collect())
    }

    /// The CFD-style single-constant pattern `{a}`.
    pub fn constant(value: impl Into<Value>) -> Self {
        PatternValue::In([value.into()].into_iter().collect())
    }

    /// Whether the cell is a CFD-compatible cell: a wildcard or a singleton
    /// positive set (no disjunction, no inequality).
    pub fn is_cfd_compatible(&self) -> bool {
        match self {
            PatternValue::Wildcard => true,
            PatternValue::In(s) => s.len() == 1,
            PatternValue::NotIn(_) => false,
        }
    }

    /// The semantics of `t[A] ≍ tp[A]`: does `value` match this cell?
    pub fn matches(&self, value: &Value) -> bool {
        match self {
            PatternValue::Wildcard => true,
            PatternValue::In(s) => s.contains(value),
            PatternValue::NotIn(s) => !s.contains(value),
        }
    }

    /// The constants mentioned by the cell. The static analyses and the
    /// compiled constraint sets group an attribute's constants into value
    /// classes by the cells that mention them.
    pub fn constants(&self) -> &BTreeSet<Value> {
        static EMPTY: std::sync::OnceLock<BTreeSet<Value>> = std::sync::OnceLock::new();
        match self {
            PatternValue::Wildcard => EMPTY.get_or_init(BTreeSet::new),
            PatternValue::In(s) | PatternValue::NotIn(s) => s,
        }
    }

    /// Number of constants mentioned by the cell.
    pub fn num_constants(&self) -> usize {
        self.constants().len()
    }
}

impl fmt::Display for PatternValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn write_set(f: &mut fmt::Formatter<'_>, s: &BTreeSet<Value>) -> fmt::Result {
            write!(f, "{{")?;
            for (i, v) in s.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, "}}")
        }
        match self {
            PatternValue::Wildcard => write!(f, "_"),
            PatternValue::In(s) => write_set(f, s),
            PatternValue::NotIn(s) => {
                write!(f, "!")?;
                write_set(f, s)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_semantics() {
        let wild = PatternValue::wildcard();
        let nyc_li = PatternValue::in_set(["NYC", "LI"]);
        let not_nyc_li = PatternValue::not_in_set(["NYC", "LI"]);

        for v in ["NYC", "LI", "Albany", ""] {
            assert!(wild.matches(&Value::str(v)));
        }
        assert!(nyc_li.matches(&Value::str("NYC")));
        assert!(!nyc_li.matches(&Value::str("Albany")));
        assert!(!not_nyc_li.matches(&Value::str("NYC")));
        assert!(not_nyc_li.matches(&Value::str("Albany")));
        // Matching is by value equality including type.
        assert!(!PatternValue::in_set([518i64]).matches(&Value::str("518")));
    }

    #[test]
    fn constant_is_singleton_set() {
        let c = PatternValue::constant("518");
        assert_eq!(c, PatternValue::in_set(["518"]));
        assert!(c.is_cfd_compatible());
        assert!(PatternValue::wildcard().is_cfd_compatible());
        assert!(!PatternValue::in_set(["212", "718"]).is_cfd_compatible());
        assert!(!PatternValue::not_in_set(["NYC"]).is_cfd_compatible());
    }

    #[test]
    fn constants_and_counts() {
        assert_eq!(PatternValue::wildcard().num_constants(), 0);
        assert_eq!(PatternValue::in_set(["a", "b"]).num_constants(), 2);
        assert_eq!(PatternValue::not_in_set(["a"]).num_constants(), 1);
        assert!(PatternValue::wildcard().constants().is_empty());
    }

    #[test]
    fn display_forms() {
        assert_eq!(PatternValue::wildcard().to_string(), "_");
        assert_eq!(PatternValue::in_set(["NYC", "LI"]).to_string(), "{LI, NYC}");
        assert_eq!(PatternValue::not_in_set(["NYC"]).to_string(), "!{NYC}");
        assert_eq!(
            PatternValue::in_set([212i64, 718]).to_string(),
            "{212, 718}"
        );
    }
}
