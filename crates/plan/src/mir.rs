//! The detection MIR: an explicit [`Plan`] of scan and flag operators,
//! produced by optimizing (or sequentially lowering) the HIR of
//! [`crate::hir`].
//!
//! A plan is *data*, not code: a list of [`ScanNode`]s, each projecting one
//! `X` attribute list per row and feeding one or more [`FlagNode`] operators
//! that match pattern cells, check `Y ∪ Yp` and maintain per-group `Y`
//! projections. The plan itself never touches tuples: [`Plan::program`]
//! hands its scans to the scan kernel of [`ecfd_detect::scan`], which is
//! what executes them.
//!
//! [`Plan::render`] is the deterministic text form exposed over the wire by
//! the serving layer's `EXPLAIN PLAN` verb; its output depends only on the
//! constraint set, so it is snapshot-stable across runs and platforms.

use crate::hir::{self, HirNode};
use crate::Result;
use ecfd_core::ConstraintSet;
use ecfd_detect::scan::{FlagOp, Scan, ScanProgram};
use ecfd_relation::AttrId;
use std::fmt::Write as _;

/// One flag operator: the per-row work the kernel performs for a single
/// split single-pattern constraint once the enclosing scan's `X` projection
/// is in hand.
#[derive(Debug, Clone)]
pub struct FlagNode {
    /// Index into the set's split single-pattern constraint list — also the
    /// index of the coded pattern cells the kernel matches for this operator.
    pub ci: usize,
    /// `(constraint, pattern)` provenance in the user's original set, for
    /// evidence attribution.
    pub source: (usize, usize),
    /// Positions of the `Y ∪ Yp` attributes in tableau cell order (the
    /// single-tuple violation check).
    pub check: Vec<AttrId>,
    /// Names of the checked attributes, parallel to [`FlagNode::check`].
    pub check_names: Vec<String>,
    /// Positions of the `Y` attributes (the embedded-FD projection); empty
    /// for pure pattern constraints, which skip group bookkeeping entirely.
    pub group: Vec<AttrId>,
    /// Names of the grouped attributes, parallel to [`FlagNode::group`].
    pub group_names: Vec<String>,
}

impl FlagNode {
    /// Whether this operator maintains per-group state (the embedded FD has
    /// a right-hand side).
    pub fn grouped(&self) -> bool {
        !self.group.is_empty()
    }
}

/// One scan operator: a single pass over the table projecting the `X`
/// attribute list once per row, feeding every member flag operator.
///
/// In a *fused* plan ([`Plan::compile`]) all constraints with an identical
/// `X` list share one scan; in the *unfused* baseline
/// ([`Plan::compile_unfused`]) every constraint gets its own.
#[derive(Debug, Clone)]
pub struct ScanNode {
    /// Positions of the shared `X` attributes this scan projects per row.
    pub x: Vec<AttrId>,
    /// Names of the `X` attributes, parallel to [`ScanNode::x`].
    pub x_names: Vec<String>,
    /// The flag operators fed by this scan, in first-seen constraint order.
    pub members: Vec<FlagNode>,
}

impl ScanNode {
    /// The scan over the (shared, non-empty) `X` list of `nodes`, feeding
    /// one flag operator per node.
    pub(crate) fn feeding(nodes: &[&HirNode]) -> Self {
        ScanNode {
            x: nodes[0].x.clone(),
            x_names: nodes[0].x_names.clone(),
            members: nodes.iter().map(|node| node.flag()).collect(),
        }
    }
}

/// An executable detection plan: the MIR produced from a compiled
/// [`ConstraintSet`], executed by the scan kernel via [`Plan::program`].
#[derive(Debug, Clone)]
pub struct Plan {
    set: ConstraintSet,
    scans: Vec<ScanNode>,
    fused: bool,
}

impl Plan {
    /// Assembles a plan from already-lowered scan operators. Crate-internal:
    /// the only producers are [`crate::Hir::optimize`] and
    /// [`crate::Hir::sequential`].
    pub(crate) fn assemble(set: ConstraintSet, scans: Vec<ScanNode>, fused: bool) -> Self {
        Plan { set, scans, fused }
    }

    /// Compiles a constraint set into the optimized (shared-scan) plan:
    /// lower to HIR, then fuse constraints with identical `X` lists into
    /// shared scans.
    pub fn compile(set: &ConstraintSet) -> Result<Self> {
        Ok(hir::lower(set)?.optimize())
    }

    /// Compiles a constraint set into the unfused baseline plan (one scan
    /// per split constraint), kept selectable so the shared-scan win stays
    /// measurable rather than assumed.
    pub fn compile_unfused(set: &ConstraintSet) -> Result<Self> {
        Ok(hir::lower(set)?.sequential())
    }

    /// The compiled set this plan detects for.
    pub fn set(&self) -> &ConstraintSet {
        &self.set
    }

    /// The scan operators, in first-seen constraint order.
    pub fn scans(&self) -> &[ScanNode] {
        &self.scans
    }

    /// Whether identical-`X` constraints were fused into shared scans.
    pub fn is_fused(&self) -> bool {
        self.fused
    }

    /// Number of scan operators (`X` projections per row; the kernel still
    /// makes exactly one physical pass over the rows).
    pub fn num_scans(&self) -> usize {
        self.scans.len()
    }

    /// The plan's scans as the kernel's executable form: the same scans and
    /// members in the same order, without the names only
    /// [`Plan::render`] needs.
    pub fn program(&self) -> ScanProgram {
        ScanProgram::new(
            self.scans
                .iter()
                .map(|scan| Scan {
                    x: scan.x.clone(),
                    members: scan
                        .members
                        .iter()
                        .map(|flag| FlagOp {
                            ci: flag.ci,
                            check: flag.check.clone(),
                            group: flag.group.clone(),
                        })
                        .collect(),
                })
                .collect(),
        )
    }

    /// Total number of flag operators across all scans — always equal to
    /// the set's split single-pattern constraint count.
    pub fn num_flags(&self) -> usize {
        self.scans.iter().map(|s| s.members.len()).sum()
    }

    /// Renders the plan as deterministic, line-oriented text — the payload
    /// of the serving layer's `EXPLAIN PLAN` verb. The output is a pure
    /// function of the constraint set and plan mode: suitable for snapshot
    /// tests and CI artifacts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan table={} mode={} singles={} scans={}",
            self.set.schema().name(),
            if self.fused { "fused" } else { "unfused" },
            self.set.singles().len(),
            self.scans.len(),
        );
        for (si, scan) in self.scans.iter().enumerate() {
            let _ = writeln!(out, "scan[{si}] x=[{}]", scan.x_names.join(","));
            for member in &scan.members {
                let group = if member.grouped() {
                    format!("[{}]", member.group_names.join(","))
                } else {
                    "-".to_string()
                };
                let _ = writeln!(
                    out,
                    "  flag c{}.p{} check=[{}] group={}",
                    member.source.0,
                    member.source.1,
                    member.check_names.join(","),
                    group,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfd_relation::{DataType, Schema};

    fn set() -> ConstraintSet {
        let schema = Schema::builder("cust")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .attr("ZIP", DataType::Str)
            .build();
        ConstraintSet::parse(
            &schema,
            "cust: [CT] -> [AC] | [], { {Albany} || {518} ; {Troy} || {518} }\n\
             cust: [AC] -> [] | [CT], { {212} || {NYC} }",
        )
        .unwrap()
    }

    #[test]
    fn render_is_deterministic_and_mode_labelled() {
        let plan = Plan::compile(&set()).unwrap();
        let text = plan.render();
        assert_eq!(
            text,
            "plan table=cust mode=fused singles=3 scans=2\n\
             scan[0] x=[CT]\n\
             \x20 flag c0.p0 check=[AC] group=[AC]\n\
             \x20 flag c0.p1 check=[AC] group=[AC]\n\
             scan[1] x=[AC]\n\
             \x20 flag c1.p0 check=[CT] group=-\n"
        );
        // Re-compiling yields byte-identical text.
        assert_eq!(Plan::compile(&set()).unwrap().render(), text);
    }

    #[test]
    fn unfused_plan_renders_one_scan_per_constraint() {
        let plan = Plan::compile_unfused(&set()).unwrap();
        assert!(!plan.is_fused());
        assert_eq!(plan.num_scans(), 3);
        let text = plan.render();
        assert!(text.starts_with("plan table=cust mode=unfused singles=3 scans=3\n"));
        assert_eq!(text.matches("scan[").count(), 3);
    }
}
