//! The detection HIR: one logical scan / group / flag tree per split
//! single-pattern constraint, with attribute lists resolved to column
//! positions.
//!
//! Lowering is the "verify + resolve" stage of the pipeline: it re-binds
//! every constraint of a compiled [`ConstraintSet`] against the set's schema
//! (so a malformed set fails here, not mid-scan) and records, per
//! constraint, exactly which columns the executor must project:
//!
//! * the `X` attributes — the scan's match-and-group key;
//! * the `Y ∪ Yp` attributes in tableau cell order — the single-tuple
//!   violation check;
//! * the `Y` attributes — the embedded-FD projection whose distinct values
//!   within one `X` group constitute a multi-tuple violation.
//!
//! The HIR is deliberately per-constraint and unoptimized; sharing decisions
//! belong to the MIR ([`Hir::optimize`] / [`Hir::sequential`] in
//! [`crate::mir`]), and the one sharing rule there is — fuse identical `X`
//! lists — is the scan kernel's own ([`ecfd_detect::scan::fuse`]).

use crate::mir::{FlagNode, Plan, ScanNode};
use crate::Result;
use ecfd_core::matching::BoundECfd;
use ecfd_core::ConstraintSet;
use ecfd_detect::scan::fuse;
use ecfd_relation::AttrId;

/// The lowered form of one split single-pattern constraint: a logical
/// scan (match `X`), group (project `Y` within the `X` group) and flag
/// (check `Y ∪ Yp`) tree, with every attribute list resolved to positions.
#[derive(Debug, Clone)]
pub struct HirNode {
    /// Index into the set's split single-pattern constraint list — also the
    /// index of the coded pattern cells the kernel matches for this node.
    pub ci: usize,
    /// `(constraint, pattern)` provenance in the user's original set, for
    /// evidence attribution.
    pub source: (usize, usize),
    /// Positions of the `X` attributes (the scan key).
    pub x: Vec<AttrId>,
    /// Names of the `X` attributes, parallel to [`HirNode::x`].
    pub x_names: Vec<String>,
    /// Positions of the `Y ∪ Yp` attributes in tableau cell order (the
    /// single-tuple violation check).
    pub check: Vec<AttrId>,
    /// Names of the checked attributes, parallel to [`HirNode::check`].
    pub check_names: Vec<String>,
    /// Positions of the `Y` attributes (the embedded-FD projection); empty
    /// for pure pattern constraints, which need no grouping at all.
    pub group: Vec<AttrId>,
    /// Names of the grouped attributes, parallel to [`HirNode::group`].
    pub group_names: Vec<String>,
}

impl HirNode {
    /// Whether this node needs group bookkeeping (the embedded FD has a
    /// right-hand side).
    pub fn grouped(&self) -> bool {
        !self.group.is_empty()
    }

    /// The MIR flag operator this node lowers to.
    pub(crate) fn flag(&self) -> FlagNode {
        FlagNode {
            ci: self.ci,
            source: self.source,
            check: self.check.clone(),
            check_names: self.check_names.clone(),
            group: self.group.clone(),
            group_names: self.group_names.clone(),
        }
    }
}

/// The detection HIR for one compiled constraint set: one [`HirNode`] per
/// split single-pattern constraint, in split order.
#[derive(Debug, Clone)]
pub struct Hir {
    set: ConstraintSet,
    nodes: Vec<HirNode>,
}

impl Hir {
    /// The compiled set this HIR was lowered from.
    pub fn set(&self) -> &ConstraintSet {
        &self.set
    }

    /// The lowered per-constraint nodes, in split-constraint order.
    pub fn nodes(&self) -> &[HirNode] {
        &self.nodes
    }

    /// Optimizes the HIR into a MIR [`Plan`] with *shared scans*: nodes
    /// whose `X` attribute lists are identical fuse into one [`ScanNode`]
    /// feeding their flag operators, in first-seen order. Within a scan the
    /// per-row `X` projection is computed once and every member matches
    /// against it. The grouping is [`ecfd_detect::scan::fuse`] — the rule the
    /// detectors build their default program with — so this plan *is* what
    /// `SemanticDetector::from_set` executes.
    pub fn optimize(self) -> Plan {
        let scans = fuse(self.nodes.iter().map(|node| (node.x.clone(), node)))
            .into_iter()
            .map(|(_, members)| ScanNode::feeding(&members))
            .collect();
        Plan::assemble(self.set, scans, true)
    }

    /// Lowers the HIR into the *unfused* baseline [`Plan`]: one scan per
    /// constraint, no sharing — the plan a naive per-constraint interpreter
    /// corresponds to, kept selectable so the shared-scan win stays
    /// measurable (`plan.unfused_ms` in `benchmark/`).
    pub fn sequential(self) -> Plan {
        let scans = self
            .nodes
            .iter()
            .map(|node| ScanNode::feeding(&[node]))
            .collect();
        Plan::assemble(self.set, scans, false)
    }
}

/// Lowers a compiled constraint set into the detection HIR, re-validating
/// every split constraint against the set's schema.
pub fn lower(set: &ConstraintSet) -> Result<Hir> {
    let schema = set.schema();
    let mut nodes = Vec::with_capacity(set.singles().len());
    for (ci, single) in set.singles().iter().enumerate() {
        let bound = BoundECfd::bind(&single.ecfd, schema)?;
        let ecfd = &single.ecfd;
        let mut check_names: Vec<String> = ecfd.fd_rhs().to_vec();
        check_names.extend(ecfd.pattern_rhs().iter().cloned());
        nodes.push(HirNode {
            ci,
            source: (single.source_constraint, single.source_pattern),
            x: bound.lhs_ids().to_vec(),
            x_names: ecfd.lhs().to_vec(),
            check: bound.rhs_ids().to_vec(),
            check_names,
            group: bound.fd_rhs_ids().to_vec(),
            group_names: ecfd.fd_rhs().to_vec(),
        });
    }
    Ok(Hir {
        set: set.clone(),
        nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfd_relation::{DataType, Schema};

    fn schema() -> Schema {
        Schema::builder("cust")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .attr("ZIP", DataType::Str)
            .build()
    }

    #[test]
    fn lowering_resolves_positions_and_provenance() {
        let set = ConstraintSet::parse(
            &schema(),
            "cust: [CT] -> [AC] | [ZIP], { {Albany} || {518}, _ ; {Troy} || {518}, _ }\n\
             cust: [AC] -> [] | [CT], { {212} || {NYC} }",
        )
        .unwrap();
        let hir = lower(&set).unwrap();
        assert_eq!(hir.nodes().len(), 3);
        let first = &hir.nodes()[0];
        assert_eq!(first.ci, 0);
        assert_eq!(first.source, (0, 0));
        assert_eq!(first.x_names, ["CT"]);
        assert_eq!(first.check_names, ["AC", "ZIP"]);
        assert_eq!(first.group_names, ["AC"]);
        assert!(first.grouped());
        // The pure pattern constraint groups nothing.
        let last = &hir.nodes()[2];
        assert_eq!(last.source, (1, 0));
        assert_eq!(last.x_names, ["AC"]);
        assert!(!last.grouped());
    }

    #[test]
    fn optimize_fuses_identical_x_lists_in_first_seen_order() {
        let set = ConstraintSet::parse(
            &schema(),
            "cust: [CT] -> [AC] | [], { {Albany} || {518} ; {Troy} || {518} }\n\
             cust: [AC] -> [] | [CT], { {212} || {NYC} }\n\
             cust: [CT] -> [ZIP] | [], { {NYC} || _ }",
        )
        .unwrap();
        let plan = lower(&set).unwrap().optimize();
        assert!(plan.is_fused());
        assert_eq!(plan.num_scans(), 2, "three X=[CT] nodes share one scan");
        assert_eq!(plan.num_flags(), 4);
        assert_eq!(plan.scans()[0].x_names, ["CT"]);
        assert_eq!(plan.scans()[0].members.len(), 3);
        assert_eq!(plan.scans()[1].x_names, ["AC"]);

        let unfused = lower(&set).unwrap().sequential();
        assert!(!unfused.is_fused());
        assert_eq!(unfused.num_scans(), 4);
        assert_eq!(unfused.num_flags(), 4);
    }
}
