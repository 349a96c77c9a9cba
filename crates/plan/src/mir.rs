//! The detection plan: the kernel's [`ScanProgram`] plus the compiled set it
//! was built from, which is where [`Plan::render`] resolves attribute names
//! and `(constraint, pattern)` provenance.
//!
//! A plan is *data*, not code, and it is the kernel's own data: a list of
//! [`Scan`]s, each projecting one `X` attribute list per row and feeding one
//! or more [`FlagOp`](ecfd_detect::scan::FlagOp)s that match pattern cells,
//! check `Y ∪ Yp` and maintain per-group `Y` projections. The plan itself
//! never touches tuples: [`Plan::program`] is what the scan kernel of
//! [`ecfd_detect::scan`] executes.
//!
//! [`Plan::render`] is the deterministic text form exposed over the wire by
//! the serving layer's `EXPLAIN PLAN` verb; its output depends only on the
//! constraint set, so it is snapshot-stable across runs and platforms.

use crate::Result;
use ecfd_core::matching::BoundECfd;
use ecfd_core::ConstraintSet;
use ecfd_detect::scan::{Scan, ScanProgram};
use ecfd_relation::AttrId;
use std::fmt::Write as _;

/// An executable detection plan: the [`ScanProgram`] compiled from a
/// [`ConstraintSet`], executed by the scan kernel via [`Plan::program`].
#[derive(Debug, Clone)]
pub struct Plan {
    set: ConstraintSet,
    program: ScanProgram,
    fused: bool,
}

impl Plan {
    /// Compiles a constraint set into the optimized (shared-scan) plan:
    /// every split constraint is re-bound against the set's schema (so a
    /// malformed set fails here, not mid-scan), and constraints with
    /// identical `X` lists fuse into shared scans — [`ScanProgram::fused`],
    /// the program `SemanticDetector::from_set` executes.
    pub fn compile(set: &ConstraintSet) -> Result<Self> {
        let bounds = set
            .singles()
            .iter()
            .map(|single| BoundECfd::bind(&single.ecfd, set.schema()))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        Ok(Plan {
            set: set.clone(),
            program: ScanProgram::fused(&bounds),
            fused: true,
        })
    }

    /// Compiles a constraint set into the unfused baseline plan: the fused
    /// plan's operators one scan each, in split-constraint order — kept
    /// selectable so the shared-scan win stays measurable rather than
    /// assumed.
    pub fn compile_unfused(set: &ConstraintSet) -> Result<Self> {
        let fused = Self::compile(set)?;
        let mut scans: Vec<Scan> = fused
            .program
            .scans()
            .iter()
            .flat_map(|scan| {
                scan.members.iter().map(|op| Scan {
                    x: scan.x.clone(),
                    members: vec![op.clone()],
                })
            })
            .collect();
        scans.sort_by_key(|scan| scan.members[0].ci);
        Ok(Plan {
            program: ScanProgram::new(scans),
            fused: false,
            ..fused
        })
    }

    /// The compiled set this plan detects for.
    pub fn set(&self) -> &ConstraintSet {
        &self.set
    }

    /// The program the scan kernel executes for this plan.
    pub fn program(&self) -> &ScanProgram {
        &self.program
    }

    /// Whether identical-`X` constraints were fused into shared scans.
    pub fn is_fused(&self) -> bool {
        self.fused
    }

    /// Number of scan operators (`X` projections per row; the kernel still
    /// makes exactly one physical pass over the rows).
    pub fn num_scans(&self) -> usize {
        self.program.scans().len()
    }

    /// Total number of flag operators across all scans — always equal to
    /// the set's split single-pattern constraint count.
    pub fn num_flags(&self) -> usize {
        self.program.num_flags()
    }

    /// Renders the plan as deterministic, line-oriented text — the payload
    /// of the serving layer's `EXPLAIN PLAN` verb. The output is a pure
    /// function of the constraint set and plan mode: suitable for snapshot
    /// tests and CI artifacts. After the scans, one `subsumed cA.pB by
    /// cC.pD` line per pattern [`ConstraintSet::subsumed`] dropped says why
    /// that pattern raises no evidence of its own.
    pub fn render(&self) -> String {
        let schema = self.set.schema();
        let names = |ids: &[AttrId]| {
            let names: Vec<&str> = ids
                .iter()
                .map(|id| schema.attribute(*id).map_or("?", |a| a.name.as_str()))
                .collect();
            names.join(",")
        };
        let provenance = self.set.provenance();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan table={} mode={} singles={} scans={}",
            schema.name(),
            if self.fused { "fused" } else { "unfused" },
            self.set.singles().len(),
            self.num_scans(),
        );
        for (si, scan) in self.program.scans().iter().enumerate() {
            let _ = writeln!(out, "scan[{si}] x=[{}]", names(&scan.x));
            for op in &scan.members {
                let (constraint, pattern) = provenance[op.ci];
                let group = if op.group.is_empty() {
                    "-".to_string()
                } else {
                    format!("[{}]", names(&op.group))
                };
                let _ = writeln!(
                    out,
                    "  flag c{constraint}.p{pattern} check=[{}] group={group}",
                    names(&op.check),
                );
            }
        }
        for ((constraint, pattern), (by_constraint, by_pattern)) in self.set.subsumed() {
            let _ = writeln!(
                out,
                "subsumed c{constraint}.p{pattern} by c{by_constraint}.p{by_pattern}"
            );
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
    fn render_names_each_subsumed_pattern_and_its_subsumer() {
        // Troy's pattern is a narrower copy of the catch-all `!{NYC}` one
        // (narrower CT cell, wider AC cell), so it gets no flag operator.
        let set = ConstraintSet::parse(
            set().schema(),
            "cust: [CT] -> [AC] | [], { !{NYC} || {518} ; {Troy} || {518, 315} }\n\
             cust: [AC] -> [] | [CT], { {212} || {NYC} }",
        )
        .unwrap();
        assert_eq!(
            Plan::compile(&set).unwrap().render(),
            "plan table=cust mode=fused singles=2 scans=2\n\
             scan[0] x=[CT]\n\
             \x20 flag c0.p0 check=[AC] group=[AC]\n\
             scan[1] x=[AC]\n\
             \x20 flag c1.p0 check=[CT] group=-\n\
             subsumed c0.p1 by c0.p0\n"
        );
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

    #[test]
    fn optimize_fuses_identical_x_lists_in_first_seen_order() {
        let schema = set().schema().clone();
        let set = ConstraintSet::parse(
            &schema,
            "cust: [CT] -> [AC] | [], { {Albany} || {518} ; {Troy} || {518} }\n\
             cust: [AC] -> [] | [CT], { {212} || {NYC} }\n\
             cust: [CT] -> [ZIP] | [], { {NYC} || _ }",
        )
        .unwrap();
        let ct = schema.require_attr("CT").unwrap();
        let ac = schema.require_attr("AC").unwrap();
        let plan = Plan::compile(&set).unwrap();
        assert!(plan.is_fused());
        assert_eq!(plan.num_scans(), 2, "three X=[CT] nodes share one scan");
        assert_eq!(plan.num_flags(), 4);
        let scans = plan.program().scans();
        assert_eq!(scans[0].x, [ct]);
        assert_eq!(scans[0].members.len(), 3);
        assert_eq!(scans[1].x, [ac]);

        let unfused = Plan::compile_unfused(&set).unwrap();
        assert!(!unfused.is_fused());
        assert_eq!(unfused.num_scans(), 4);
        assert_eq!(unfused.num_flags(), 4);
        let order: Vec<usize> = unfused
            .program()
            .scans()
            .iter()
            .map(|scan| scan.members[0].ci)
            .collect();
        assert_eq!(
            order,
            [0, 1, 2, 3],
            "one scan per constraint, in split order"
        );
    }
}
