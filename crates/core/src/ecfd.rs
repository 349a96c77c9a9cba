//! The eCFD constraint type and its pattern tuples.

use crate::error::{CoreError, Result};
use crate::pattern::PatternValue;
use ecfd_relation::Schema;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A pattern tuple `tp` of an eCFD: one cell per attribute of `X` (the
/// left-hand side) and one cell per attribute of `Y ∪ Yp` (the right-hand
/// side), in the order declared by the owning [`ECfd`].
///
/// When an attribute `A` occurs on both sides the paper writes `tp[A_L]` and
/// `tp[A_R]`; here those are simply the cell in `lhs` and the cell in `rhs`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PatternTuple {
    /// Cells for the attributes of `X`, in [`ECfd::lhs`] order.
    pub lhs: Vec<PatternValue>,
    /// Cells for the attributes of `Y ∪ Yp`, in [`ECfd::rhs_attrs`] order
    /// (all of `Y` first, then all of `Yp`).
    pub rhs: Vec<PatternValue>,
}

impl PatternTuple {
    /// Creates a pattern tuple from its two cell lists.
    pub fn new(lhs: Vec<PatternValue>, rhs: Vec<PatternValue>) -> Self {
        PatternTuple { lhs, rhs }
    }

    /// Every cell on either side mentions only CFD-compatible patterns
    /// (wildcards and singletons).
    pub fn is_cfd_compatible(&self) -> bool {
        self.lhs
            .iter()
            .chain(self.rhs.iter())
            .all(PatternValue::is_cfd_compatible)
    }

    /// Total number of constants mentioned across all cells.
    pub fn num_constants(&self) -> usize {
        self.lhs
            .iter()
            .chain(self.rhs.iter())
            .map(PatternValue::num_constants)
            .sum()
    }
}

/// An extended Conditional Functional Dependency
/// `φ = (R: X → Y, Yp, Tp)` (Definition in Section II of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ECfd {
    relation: String,
    lhs: Vec<String>,
    fd_rhs: Vec<String>,
    pattern_rhs: Vec<String>,
    tableau: Vec<PatternTuple>,
}

impl ECfd {
    /// Creates an eCFD, validating the structural well-formedness conditions
    /// of the definition:
    ///
    /// * `Y ∩ Yp = ∅`;
    /// * attribute lists contain no duplicates;
    /// * every pattern tuple has exactly `|X|` left cells and `|Y| + |Yp|`
    ///   right cells.
    pub fn new(
        relation: impl Into<String>,
        lhs: Vec<String>,
        fd_rhs: Vec<String>,
        pattern_rhs: Vec<String>,
        tableau: Vec<PatternTuple>,
    ) -> Result<Self> {
        let relation = relation.into();
        for (label, list) in [("X", &lhs), ("Y", &fd_rhs), ("Yp", &pattern_rhs)] {
            let mut seen = BTreeSet::new();
            for a in list {
                if !seen.insert(a) {
                    return Err(CoreError::InvalidConstraint(format!(
                        "attribute `{a}` appears twice in {label}"
                    )));
                }
            }
        }
        let y_set: BTreeSet<&String> = fd_rhs.iter().collect();
        if let Some(shared) = pattern_rhs.iter().find(|a| y_set.contains(a)) {
            return Err(CoreError::InvalidConstraint(format!(
                "attribute `{shared}` appears in both Y and Yp (the definition requires Y ∩ Yp = ∅)"
            )));
        }
        if fd_rhs.is_empty() && pattern_rhs.is_empty() {
            return Err(CoreError::InvalidConstraint(
                "an eCFD needs at least one right-hand-side attribute (Y ∪ Yp ≠ ∅)".into(),
            ));
        }
        let rhs_arity = fd_rhs.len() + pattern_rhs.len();
        for (i, tp) in tableau.iter().enumerate() {
            if tp.lhs.len() != lhs.len() {
                return Err(CoreError::InvalidConstraint(format!(
                    "pattern tuple {i} has {} left cells but X has {} attributes",
                    tp.lhs.len(),
                    lhs.len()
                )));
            }
            if tp.rhs.len() != rhs_arity {
                return Err(CoreError::InvalidConstraint(format!(
                    "pattern tuple {i} has {} right cells but Y ∪ Yp has {} attributes",
                    tp.rhs.len(),
                    rhs_arity
                )));
            }
        }
        Ok(ECfd {
            relation,
            lhs,
            fd_rhs,
            pattern_rhs,
            tableau,
        })
    }

    /// Starts a fluent builder (see [`crate::ECfdBuilder`]).
    pub fn builder(relation: impl Into<String>) -> crate::builder::ECfdBuilder {
        crate::builder::ECfdBuilder::new(relation)
    }

    /// Name of the relation the constraint is defined on.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// The attributes of `X` (the paper's `LHS(φ)`).
    pub fn lhs(&self) -> &[String] {
        &self.lhs
    }

    /// The attributes of `Y` (the embedded FD's right-hand side).
    pub fn fd_rhs(&self) -> &[String] {
        &self.fd_rhs
    }

    /// The attributes of `Yp` (right-hand-side pattern-only attributes).
    pub fn pattern_rhs(&self) -> &[String] {
        &self.pattern_rhs
    }

    /// The attributes of `Y ∪ Yp` in tableau cell order (the paper's
    /// `RHS(φ)`): all of `Y` first, then all of `Yp`.
    pub fn rhs_attrs(&self) -> Vec<&str> {
        self.fd_rhs
            .iter()
            .chain(self.pattern_rhs.iter())
            .map(String::as_str)
            .collect()
    }

    /// The pattern tableau `Tp`.
    pub fn tableau(&self) -> &[PatternTuple] {
        &self.tableau
    }

    /// Number of pattern tuples (the `|Tp|` knob of the experiments).
    pub fn tableau_size(&self) -> usize {
        self.tableau.len()
    }

    /// Every attribute mentioned by the constraint, deduplicated, in
    /// X, Y, Yp order.
    pub fn attributes(&self) -> Vec<&str> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for a in self
            .lhs
            .iter()
            .chain(self.fd_rhs.iter())
            .chain(self.pattern_rhs.iter())
        {
            if seen.insert(a.as_str()) {
                out.push(a.as_str());
            }
        }
        out
    }

    /// True when the constraint is expressible as a classic CFD: `Yp = ∅` and
    /// every cell is a wildcard or a singleton positive set.
    pub fn is_cfd(&self) -> bool {
        self.pattern_rhs.is_empty() && self.tableau.iter().all(PatternTuple::is_cfd_compatible)
    }

    /// True when the embedded FD is trivial (`Y = ∅`), i.e. the constraint
    /// only enforces pattern constraints via `Yp`.
    pub fn is_pattern_only(&self) -> bool {
        self.fd_rhs.is_empty()
    }

    /// Checks that every attribute the constraint mentions exists in `schema`
    /// and that the schema describes the same relation.
    pub fn validate_against(&self, schema: &Schema) -> Result<()> {
        if schema.name() != self.relation {
            return Err(CoreError::RelationMismatch {
                expected: self.relation.clone(),
                actual: schema.name().to_string(),
            });
        }
        for a in self.attributes() {
            if schema.attr_id(a).is_none() {
                return Err(CoreError::UnknownAttribute {
                    attribute: a.to_string(),
                    relation: self.relation.clone(),
                });
            }
        }
        Ok(())
    }

    /// Total number of constants across the tableau (a size measure used by
    /// complexity-oriented tests: the detection encoding must stay linear in
    /// it).
    pub fn total_constants(&self) -> usize {
        self.tableau.iter().map(PatternTuple::num_constants).sum()
    }

    /// Returns the cell for attribute `attr` on the left-hand side of pattern
    /// tuple `tp_idx`, if `attr ∈ X`.
    pub fn lhs_cell(&self, tp_idx: usize, attr: &str) -> Option<&PatternValue> {
        let pos = self.lhs.iter().position(|a| a == attr)?;
        self.tableau.get(tp_idx).map(|tp| &tp.lhs[pos])
    }

    /// Returns the cell for attribute `attr` on the right-hand side of pattern
    /// tuple `tp_idx`, if `attr ∈ Y ∪ Yp`.
    pub fn rhs_cell(&self, tp_idx: usize, attr: &str) -> Option<&PatternValue> {
        let pos = self.rhs_attrs().iter().position(|a| *a == attr)?;
        self.tableau.get(tp_idx).map(|tp| &tp.rhs[pos])
    }

    /// Replaces the tableau wholesale (used by the workload generator when
    /// scaling `|Tp|`). The new tableau is validated against the attribute
    /// lists.
    pub fn with_tableau(&self, tableau: Vec<PatternTuple>) -> Result<ECfd> {
        ECfd::new(
            self.relation.clone(),
            self.lhs.clone(),
            self.fd_rhs.clone(),
            self.pattern_rhs.clone(),
            tableau,
        )
    }
}

impl fmt::Display for ECfd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] -> [{}] | [{}], {{ ",
            self.relation,
            self.lhs.join(", "),
            self.fd_rhs.join(", "),
            self.pattern_rhs.join(", ")
        )?;
        for (i, tp) in self.tableau.iter().enumerate() {
            if i > 0 {
                write!(f, " ; ")?;
            }
            let lhs: Vec<String> = tp.lhs.iter().map(|c| c.to_string()).collect();
            let rhs: Vec<String> = tp.rhs.iter().map(|c| c.to_string()).collect();
            write!(f, "{} || {}", lhs.join(", "), rhs.join(", "))?;
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfd_relation::DataType;

    /// φ1 of Fig. 2: (cust: [CT] → [AC], ∅, T1).
    pub(crate) fn phi1() -> ECfd {
        ECfd::new(
            "cust",
            vec!["CT".into()],
            vec!["AC".into()],
            vec![],
            vec![
                PatternTuple::new(
                    vec![PatternValue::not_in_set(["NYC", "LI"])],
                    vec![PatternValue::wildcard()],
                ),
                PatternTuple::new(
                    vec![PatternValue::in_set(["Albany", "Troy", "Colonie"])],
                    vec![PatternValue::in_set(["518"])],
                ),
            ],
        )
        .unwrap()
    }

    /// φ2 of Fig. 2: (cust: [CT] → ∅, {AC}, T2).
    pub(crate) fn phi2() -> ECfd {
        ECfd::new(
            "cust",
            vec!["CT".into()],
            vec![],
            vec!["AC".into()],
            vec![PatternTuple::new(
                vec![PatternValue::in_set(["NYC"])],
                vec![PatternValue::in_set(["212", "718", "646", "347", "917"])],
            )],
        )
        .unwrap()
    }

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

    #[test]
    fn paper_constraints_are_well_formed() {
        let p1 = phi1();
        assert_eq!(p1.lhs(), &["CT".to_string()]);
        assert_eq!(p1.fd_rhs(), &["AC".to_string()]);
        assert!(p1.pattern_rhs().is_empty());
        assert_eq!(p1.tableau_size(), 2);
        assert_eq!(p1.rhs_attrs(), vec!["AC"]);
        assert!(!p1.is_cfd(), "φ1 uses a complement set");
        assert!(!p1.is_pattern_only());

        let p2 = phi2();
        assert!(p2.is_pattern_only());
        assert_eq!(p2.rhs_attrs(), vec!["AC"]);
        assert_eq!(p2.attributes(), vec!["CT", "AC"]);
    }

    #[test]
    fn validation_rejects_overlapping_y_and_yp() {
        let err = ECfd::new(
            "cust",
            vec!["CT".into()],
            vec!["AC".into()],
            vec!["AC".into()],
            vec![],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConstraint(_)));
    }

    #[test]
    fn validation_rejects_duplicates_and_empty_rhs() {
        assert!(ECfd::new(
            "cust",
            vec!["CT".into(), "CT".into()],
            vec!["AC".into()],
            vec![],
            vec![],
        )
        .is_err());
        assert!(ECfd::new("cust", vec!["CT".into()], vec![], vec![], vec![]).is_err());
    }

    #[test]
    fn validation_rejects_misshaped_pattern_tuples() {
        let err = ECfd::new(
            "cust",
            vec!["CT".into()],
            vec!["AC".into()],
            vec![],
            vec![PatternTuple::new(vec![], vec![PatternValue::wildcard()])],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConstraint(_)));

        let err = ECfd::new(
            "cust",
            vec!["CT".into()],
            vec!["AC".into()],
            vec![],
            vec![PatternTuple::new(vec![PatternValue::wildcard()], vec![])],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConstraint(_)));
    }

    #[test]
    fn schema_validation() {
        let p1 = phi1();
        p1.validate_against(&cust_schema()).unwrap();

        let other = Schema::builder("orders").attr("CT", DataType::Str).build();
        assert!(matches!(
            p1.validate_against(&other),
            Err(CoreError::RelationMismatch { .. })
        ));

        let missing = Schema::builder("cust").attr("CT", DataType::Str).build();
        assert!(matches!(
            p1.validate_against(&missing),
            Err(CoreError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn total_constants_counts_every_cell_constant() {
        // φ1's cells: !{NYC, LI}, {Albany, Troy, Colonie} and {518}.
        assert_eq!(phi1().total_constants(), 6);
    }

    #[test]
    fn cell_lookup_by_attribute() {
        let p1 = phi1();
        assert_eq!(
            p1.lhs_cell(0, "CT"),
            Some(&PatternValue::not_in_set(["NYC", "LI"]))
        );
        assert_eq!(p1.rhs_cell(1, "AC"), Some(&PatternValue::in_set(["518"])));
        assert_eq!(p1.lhs_cell(0, "AC"), None);
        assert_eq!(p1.rhs_cell(5, "AC"), None);
    }

    #[test]
    fn with_tableau_replaces_and_validates() {
        let p1 = phi1();
        let smaller = p1.with_tableau(vec![p1.tableau()[0].clone()]).unwrap();
        assert_eq!(smaller.tableau_size(), 1);
        assert!(p1
            .with_tableau(vec![PatternTuple::new(vec![], vec![])])
            .is_err());
    }

    #[test]
    fn display_round_trips_visually() {
        let s = phi1().to_string();
        assert!(s.starts_with("cust: [CT] -> [AC] | []"));
        assert!(s.contains("!{LI, NYC} || _"));
        assert!(s.contains("{Albany, Colonie, Troy} || {518}"));
    }
}
