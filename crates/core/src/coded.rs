//! Pattern cells pre-resolved to dictionary codes.
//!
//! Evaluating `t[A] ≍ tp[A]` over [`PatternValue`] cells compares [`Value`]s
//! — for string sets that means hashing / comparing string payloads once per
//! tuple per constraint. A [`CodedCell`] is the same cell with every constant
//! interned through a shared [`Dictionary`] once, at constraint-registration
//! time, so the per-tuple membership test becomes a lookup in a sorted slice
//! of 64-bit [`Code`]s.
//!
//! Coded cells are only meaningful relative to the dictionary that interned
//! them (see the `ecfd_relation::columnar` docs); a detector keeps one
//! dictionary and uses it for pattern constants and data alike, which makes
//! code equality decide value equality.

use crate::ecfd::ECfd;
use crate::pattern::PatternValue;
use ecfd_relation::{Code, Dictionary, Value};

/// Below this set size a linear scan beats binary search on 64-bit codes.
const LINEAR_SCAN_MAX: usize = 8;

/// A sorted, deduplicated slice of codes with a size-adaptive membership
/// test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeSet {
    codes: Box<[Code]>,
}

impl CodeSet {
    /// Interns `values` and builds the sorted code set.
    pub fn intern<'a>(values: impl IntoIterator<Item = &'a Value>, dict: &mut Dictionary) -> Self {
        let mut codes: Vec<Code> = values.into_iter().map(|v| dict.encode(v)).collect();
        codes.sort_unstable();
        codes.dedup();
        CodeSet {
            codes: codes.into_boxed_slice(),
        }
    }

    /// Whether `code` is in the set.
    #[inline]
    pub fn contains(&self, code: Code) -> bool {
        if self.codes.len() <= LINEAR_SCAN_MAX {
            self.codes.contains(&code)
        } else {
            self.codes.binary_search(&code).is_ok()
        }
    }

    /// Number of codes in the set.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }
}

/// One pattern cell with its constants pre-resolved to codes: the coded
/// counterpart of [`PatternValue`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodedCell {
    /// The wildcard `_`: matches every code.
    Wildcard,
    /// A finite set `S`: matches exactly the listed codes.
    In(CodeSet),
    /// A complement set `S̄`: matches everything except the listed codes.
    NotIn(CodeSet),
}

impl CodedCell {
    /// Interns a pattern cell's constants through `dict`.
    pub fn intern(cell: &PatternValue, dict: &mut Dictionary) -> Self {
        match cell {
            PatternValue::Wildcard => CodedCell::Wildcard,
            PatternValue::In(s) => CodedCell::In(CodeSet::intern(s, dict)),
            PatternValue::NotIn(s) => CodedCell::NotIn(CodeSet::intern(s, dict)),
        }
    }

    /// The coded matching semantics `t[A] ≍ tp[A]`: equivalent to
    /// [`PatternValue::matches`] on the decoded value, provided `code` was
    /// issued by the same dictionary.
    #[inline]
    pub fn matches(&self, code: Code) -> bool {
        match self {
            CodedCell::Wildcard => true,
            CodedCell::In(s) => s.contains(code),
            CodedCell::NotIn(s) => !s.contains(code),
        }
    }
}

/// The coded pattern cells of one single-pattern constraint: `lhs[i]`
/// constrains the `i`-th `X` attribute, `rhs[i]` the `i`-th attribute of
/// `Y ∪ Yp` in tableau cell order — mirroring
/// [`BoundECfd`](crate::matching::BoundECfd)'s attribute-id lists.
#[derive(Debug, Clone)]
pub struct CodedSingle {
    /// Coded cells over the `X` attributes.
    pub lhs: Vec<CodedCell>,
    /// Coded cells over `Y ∪ Yp`, in tableau cell order.
    pub rhs: Vec<CodedCell>,
}

impl CodedSingle {
    /// Interns the (sole) pattern tuple of a single-pattern constraint.
    /// A detector calls this once per split constraint, at construction.
    pub fn intern(single: &ECfd, dict: &mut Dictionary) -> Self {
        let tp = &single.tableau()[0];
        CodedSingle {
            lhs: tp.lhs.iter().map(|c| CodedCell::intern(c, dict)).collect(),
            rhs: tp.rhs.iter().map(|c| CodedCell::intern(c, dict)).collect(),
        }
    }

    /// Does `t[X] ≍ tp[X]` hold for a row's codes over the `X` attribute
    /// columns? `codes` yields the row's code per `X` attribute, parallel to
    /// `self.lhs`.
    #[inline]
    pub fn lhs_matches(&self, mut codes: impl Iterator<Item = Code>) -> bool {
        self.lhs.iter().all(|cell| {
            let code = codes.next().expect("one code per lhs cell");
            cell.matches(code)
        })
    }

    /// Does `t[Y, Yp] ≍ tp[Y, Yp]` hold for a row's codes over the rhs
    /// attribute columns?
    #[inline]
    pub fn rhs_matches(&self, mut codes: impl Iterator<Item = Code>) -> bool {
        self.rhs.iter().all(|cell| {
            let code = codes.next().expect("one code per rhs cell");
            cell.matches(code)
        })
    }
}

/// Interns every single-pattern constraint of a split set — the
/// registration-time step that turns all pattern-constant comparisons into
/// integer comparisons.
pub fn intern_singles(singles: &[ECfd], dict: &mut Dictionary) -> Vec<CodedSingle> {
    singles
        .iter()
        .map(|s| CodedSingle::intern(s, dict))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ECfdBuilder;

    #[test]
    fn coded_cells_agree_with_value_cells() {
        let mut dict = Dictionary::new();
        let cells = [
            PatternValue::wildcard(),
            PatternValue::in_set(["NYC", "LI"]),
            PatternValue::not_in_set(["NYC", "LI"]),
            PatternValue::constant("518"),
            PatternValue::in_set([518i64, 212]),
        ];
        let coded: Vec<CodedCell> = cells
            .iter()
            .map(|c| CodedCell::intern(c, &mut dict))
            .collect();
        let probes = [
            Value::str("NYC"),
            Value::str("LI"),
            Value::str("Albany"),
            Value::str("518"),
            Value::int(518),
            Value::int(999),
            Value::Null,
            Value::bool(true),
        ];
        for probe in &probes {
            let code = dict.encode(probe);
            for (cell, coded_cell) in cells.iter().zip(&coded) {
                assert_eq!(
                    cell.matches(probe),
                    coded_cell.matches(code),
                    "cell {cell:?} probe {probe:?}"
                );
            }
        }
    }

    #[test]
    fn membership_survives_large_sets() {
        let mut dict = Dictionary::new();
        let values: Vec<Value> = (0..40).map(|i| Value::str(format!("v{i}"))).collect();
        let set = CodeSet::intern(&values, &mut dict);
        assert_eq!(set.len(), 40);
        assert!(!set.is_empty());
        for v in &values {
            assert!(set.contains(dict.encode(v)));
        }
        assert!(!set.contains(dict.encode(&Value::str("missing"))));
    }

    #[test]
    fn coded_single_matches_like_the_bound_constraint() {
        use crate::matching::BoundECfd;
        use ecfd_relation::{DataType, Schema, Tuple};
        let schema = Schema::builder("cust")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .build();
        let phi = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p.not_in("CT", ["NYC"]).constant("AC", "518"))
            .build()
            .unwrap();
        let bound = BoundECfd::bind(&phi, &schema).unwrap();
        let mut dict = Dictionary::new();
        let coded = CodedSingle::intern(&phi, &mut dict);
        for (ct, ac) in [
            ("Albany", "518"),
            ("Albany", "718"),
            ("NYC", "518"),
            ("NYC", "212"),
        ] {
            let tuple = Tuple::from_iter([ct, ac]);
            let codes = dict.encode_tuple(&tuple);
            assert_eq!(
                bound.lhs_matches(&tuple, 0),
                coded.lhs_matches(bound.lhs_ids().iter().map(|a| codes[a.index()])),
                "lhs {ct}/{ac}"
            );
            assert_eq!(
                bound.rhs_matches(&tuple, 0),
                coded.rhs_matches(bound.rhs_ids().iter().map(|a| codes[a.index()])),
                "rhs {ct}/{ac}"
            );
        }
    }
}
