//! Violation *evidence*: not just which rows are flagged, but which eCFD and
//! which tableau pattern tuple each flagged row violates — and, for
//! multi-tuple violations, which enforcement group it belongs to.
//!
//! The paper's detectors (Section V) stop at the `SV` / `MV` flags. A repair
//! subsystem needs more: to delete the *right* tuples it must know which rows
//! conflict with which, and to modify values it must know which pattern cell a
//! row fails. [`EvidenceReport`] carries that provenance alongside the
//! byte-compatible [`DetectionReport`]; every detector in this crate can
//! produce one, and the three must agree (a property the differential tests
//! assert).

use crate::report::DetectionReport;
use ecfd_core::matching::BoundECfd;
use ecfd_relation::{RowId, Tuple, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Identifies one pattern tuple of one constraint in the checked set: the
/// index of the constraint as the user supplied it, plus the index of the
/// pattern tuple within that constraint's tableau.
///
/// This is the user-facing analogue of the encoding's `CID` (which numbers
/// *split* single-pattern constraints).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ConstraintRef {
    /// Index of the constraint in the checked set.
    pub constraint: usize,
    /// Index of the pattern tuple within that constraint's tableau.
    pub pattern: usize,
}

impl ConstraintRef {
    /// Creates a reference from constraint and pattern indices.
    pub fn new(constraint: usize, pattern: usize) -> Self {
        ConstraintRef {
            constraint,
            pattern,
        }
    }
}

/// A `(constraint, pattern)` pair — one entry of a compiled set's
/// provenance.
impl From<(usize, usize)> for ConstraintRef {
    fn from((constraint, pattern): (usize, usize)) -> Self {
        ConstraintRef::new(constraint, pattern)
    }
}

/// Evidence for one single-tuple violation: `row` matches the LHS of the
/// referenced pattern tuple but fails its RHS pattern on its own.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SvEvidence {
    /// The offending row.
    pub row: RowId,
    /// The violated constraint / pattern tuple.
    pub source: ConstraintRef,
}

/// Evidence for one violating enforcement group: the rows matching the
/// referenced pattern tuple that share the `X` projection `group_key` but
/// carry at least two distinct `Y` projections.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MvEvidence {
    /// The violated constraint / pattern tuple.
    pub source: ConstraintRef,
    /// The shared `t[X]` projection of the group (the offending group key).
    pub group_key: Vec<Value>,
    /// Every member row of the group (all of them carry `MV = 1`).
    pub rows: BTreeSet<RowId>,
}

/// Frees the member set out of line, in one place: inlined into whichever
/// codegen unit drops a report, that loop has compiled twice as slow.
impl Drop for MvEvidence {
    fn drop(&mut self) {
        free_rows(std::mem::take(&mut self.rows));
    }
}

#[inline(never)]
fn free_rows(_rows: BTreeSet<RowId>) {}

/// The explained counterpart of a [`DetectionReport`]: per-constraint evidence
/// for every `SV` flag and every violating enforcement group.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvidenceReport {
    /// Single-tuple violation evidence (possibly several records per row when
    /// a row violates several pattern tuples).
    pub sv: Vec<SvEvidence>,
    /// One record per violating enforcement group.
    pub mv_groups: Vec<MvEvidence>,
    /// Total number of rows inspected.
    pub total_rows: usize,
}

impl EvidenceReport {
    /// Collapses the evidence into the flag-level [`DetectionReport`] shape.
    pub fn detection_report(&self) -> DetectionReport {
        DetectionReport {
            sv_rows: self.sv.iter().map(|e| e.row).collect(),
            mv_rows: self
                .mv_groups
                .iter()
                .flat_map(|g| g.rows.iter().copied())
                .collect(),
            total_rows: self.total_rows,
        }
    }

    /// The `(row, constraint-ref)` pairs of the single-tuple evidence — the
    /// canonical shape for differential comparison between detectors.
    pub fn sv_pairs(&self) -> BTreeSet<(RowId, ConstraintRef)> {
        self.sv.iter().map(|e| (e.row, e.source)).collect()
    }

    /// The `(row, constraint-ref)` pairs of the multi-tuple evidence.
    pub fn mv_pairs(&self) -> BTreeSet<(RowId, ConstraintRef)> {
        self.mv_groups
            .iter()
            .flat_map(|g| g.rows.iter().map(|r| (*r, g.source)))
            .collect()
    }

    /// True when no violation evidence was recorded.
    pub fn is_clean(&self) -> bool {
        self.sv.is_empty() && self.mv_groups.is_empty()
    }

    /// Number of single-tuple evidence records (≥ the number of SV rows).
    pub fn num_sv_records(&self) -> usize {
        self.sv.len()
    }

    /// Number of violating enforcement groups.
    pub fn num_groups(&self) -> usize {
        self.mv_groups.len()
    }

    /// All evidence records touching `row`, as `(source, is_multi_tuple)`.
    pub fn for_row(&self, row: RowId) -> Vec<(ConstraintRef, bool)> {
        let mut out: Vec<(ConstraintRef, bool)> = self
            .sv
            .iter()
            .filter(|e| e.row == row)
            .map(|e| (e.source, false))
            .collect();
        out.extend(
            self.mv_groups
                .iter()
                .filter(|g| g.rows.contains(&row))
                .map(|g| (g.source, true)),
        );
        out
    }

    /// Sorts the evidence into a canonical order so that reports produced by
    /// different detectors compare equal with `==`.
    pub fn normalize(&mut self) {
        self.sv.sort();
        self.sv.dedup();
        self.mv_groups.sort();
        self.mv_groups.dedup();
    }

    /// A normalized copy (see [`EvidenceReport::normalize`]).
    pub fn normalized(&self) -> Self {
        let mut copy = self.clone();
        copy.normalize();
        copy
    }
}

/// Attributes `SV`-flagged rows to the single-pattern constraints they
/// violate: for every row in `sv_rows`, every bound constraint whose LHS
/// matches but whose RHS fails contributes one evidence record.
///
/// `bounds` and `provenance` run parallel over the *split* single-pattern
/// constraints (see [`ecfd_core::normalize::split_patterns`]); the tuples may
/// carry extra trailing columns (e.g. the `SV` / `MV` flags) as long as the
/// bindings were resolved against that extended schema.
pub(crate) fn attribute_sv_rows<'a>(
    bounds: &[BoundECfd<'_>],
    provenance: &[(usize, usize)],
    rows: impl Iterator<Item = (RowId, &'a Tuple)>,
    sv_rows: &BTreeSet<RowId>,
) -> Vec<SvEvidence> {
    let mut out = Vec::new();
    for (row_id, tuple) in rows {
        if !sv_rows.contains(&row_id) {
            continue;
        }
        for (ci, bound) in bounds.iter().enumerate() {
            if bound.lhs_matches(tuple, 0) && !bound.rhs_matches(tuple, 0) {
                let (constraint, pattern) = provenance[ci];
                out.push(SvEvidence {
                    row: row_id,
                    source: ConstraintRef::new(constraint, pattern),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EvidenceReport {
        EvidenceReport {
            sv: vec![
                SvEvidence {
                    row: RowId(3),
                    source: ConstraintRef::new(1, 0),
                },
                SvEvidence {
                    row: RowId(0),
                    source: ConstraintRef::new(0, 1),
                },
            ],
            mv_groups: vec![MvEvidence {
                source: ConstraintRef::new(0, 0),
                group_key: vec![Value::str("Albany")],
                rows: [RowId(0), RowId(6)].into_iter().collect(),
            }],
            total_rows: 7,
        }
    }

    #[test]
    fn detection_report_collapses_evidence() {
        let report = sample().detection_report();
        assert_eq!(report.num_sv(), 2);
        assert_eq!(report.num_mv(), 2);
        assert_eq!(report.total_rows, 7);
        assert_eq!(report.num_violations(), 3, "row 0 is both SV and MV");
    }

    #[test]
    fn pairs_are_canonical() {
        let pairs = sample().sv_pairs();
        assert_eq!(pairs.len(), 2);
        assert!(pairs.contains(&(RowId(0), ConstraintRef::new(0, 1))));
        let mv = sample().mv_pairs();
        assert_eq!(mv.len(), 2);
    }

    #[test]
    fn normalize_sorts_and_dedups() {
        let mut a = sample();
        let mut b = sample();
        b.sv.reverse();
        b.sv.extend(a.sv.iter().cloned());
        assert_ne!(a, b);
        a.normalize();
        b.normalize();
        assert_eq!(a, b);
    }

    #[test]
    fn for_row_reports_both_kinds() {
        let report = sample();
        let zero = report.for_row(RowId(0));
        assert_eq!(zero.len(), 2);
        assert!(zero.contains(&(ConstraintRef::new(0, 1), false)));
        assert!(zero.contains(&(ConstraintRef::new(0, 0), true)));
        assert!(report.for_row(RowId(5)).is_empty());
    }

    #[test]
    fn empty_report_is_clean() {
        assert!(EvidenceReport::default().is_clean());
        assert_eq!(EvidenceReport::default().num_groups(), 0);
    }
}
