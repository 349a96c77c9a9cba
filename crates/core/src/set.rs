//! Compiled constraint sets: the unit of registration for the session layer.
//!
//! The paper treats detection as a *fixed-query service*: constraints are
//! encoded once and the per-query work is independent of how many eCFDs are
//! checked. [`ConstraintSet`] is the front half of that contract. It has one
//! pipeline with no switches and two entry points:
//!
//! * [`ConstraintSet::compile`] — **validate** every constraint against the
//!   relation schema ([`ECfd::validate_against`]), **merge** constraints
//!   sharing relation, `X`, `Y` and `Yp` into one tableau
//!   ([`crate::normalize::merge_compatible`], the form users write, cf. φ1
//!   of the paper carrying two pattern tuples), **dedupe** repeated pattern
//!   tuples within a tableau (including those merging identical constraints
//!   introduces), then **split**;
//! * [`ConstraintSet::verbatim`] — validate, then split. Evidence indexes the
//!   constraints exactly as given. Every raw-constraint detector constructor
//!   (`SemanticDetector::new`, `BatchDetector::new` and their callers in
//!   `ecfd_detect` and `ecfd_repair`) compiles through it.
//!
//! The split ([`crate::normalize::split_patterns`]) yields single-pattern
//! constraints, the shape every detector consumes. Detectors constructed from
//! a `ConstraintSet` (`from_set` constructors in `ecfd_detect`) reuse it
//! instead of re-validating and re-splitting per detector, so a set compiled
//! once serves the semantic, SQL and incremental backends alike. Both steps
//! depend on the constraints only, never on the data.
//!
//! Redundancy elimination (Section III) is an analysis, not a compile step:
//! [`crate::implication::minimal_cover_with`] drops every constraint implied
//! by the rest, and a caller who wants the cover compiles its result. Two
//! reasons keep it out of the pipeline. It keeps the set's models, not its
//! flags: an instance satisfies the cover iff it satisfies the set, but a
//! dropped constraint's own `SV`/`MV` flags go with it, even where the
//! instance breaks what implied it (this module's tests pin a
//! counterexample). And implication is coNP-complete: on the `cust` workload
//! the cover takes 2 ms over its 11 singles, 38 ms over the 49 singles of a
//! 40-pattern tableau and 0.7 s over the 169 singles of a 160-pattern one
//! (release build, 2-core x86-64).
//!
//! Violation evidence produced by those detectors refers to constraints by
//! index into [`ConstraintSet::ecfds`] — the *compiled* list, which
//! [`ConstraintSet::compile`] may shorten when merging collapsed
//! constraints.

use crate::ecfd::ECfd;
use crate::error::Result;
use crate::normalize::{merge_compatible, split_patterns, total_pattern_tuples, SinglePattern};
use ecfd_relation::Schema;
use serde::{Deserialize, Serialize};

/// A validated and split set of eCFDs over one relation schema, ready to be
/// shared across detector backends.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConstraintSet {
    schema: Schema,
    source: Vec<ECfd>,
    compiled: Vec<ECfd>,
    singles: Vec<SinglePattern>,
}

impl ConstraintSet {
    /// Compiles `ecfds` against `schema`: validate → merge → dedupe → split.
    /// See the module docs for the pipeline.
    pub fn compile(schema: &Schema, ecfds: &[ECfd]) -> Result<Self> {
        ecfds.iter().try_for_each(|e| e.validate_against(schema))?;
        let compiled = merge_compatible(ecfds)
            .iter()
            .map(|e| {
                let mut tableau = e.tableau().to_vec();
                let mut seen = Vec::with_capacity(tableau.len());
                tableau.retain(|tp| {
                    if seen.contains(tp) {
                        false
                    } else {
                        seen.push(tp.clone());
                        true
                    }
                });
                e.with_tableau(tableau)
                    .expect("a deduped tableau of a valid eCFD is valid")
            })
            .collect();
        Ok(Self::assemble(schema, ecfds, compiled))
    }

    /// Compiles `ecfds` against `schema` without merging or deduplicating:
    /// validate → split. [`ConstraintSet::ecfds`] is `ecfds` as given, so
    /// evidence indexes the caller's own list.
    pub fn verbatim(schema: &Schema, ecfds: &[ECfd]) -> Result<Self> {
        ecfds.iter().try_for_each(|e| e.validate_against(schema))?;
        Ok(Self::assemble(schema, ecfds, ecfds.to_vec()))
    }

    fn assemble(schema: &Schema, source: &[ECfd], compiled: Vec<ECfd>) -> Self {
        ConstraintSet {
            schema: schema.clone(),
            source: source.to_vec(),
            singles: split_patterns(&compiled),
            compiled,
        }
    }

    /// Parses the textual syntax ([`crate::parse_ecfds`]) and compiles the
    /// result with [`ConstraintSet::compile`].
    pub fn parse(schema: &Schema, text: &str) -> Result<Self> {
        let ecfds = crate::parser::parse_ecfds(text)?;
        Self::compile(schema, &ecfds)
    }

    /// The schema the set was compiled against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The constraints exactly as they were registered, before normalization.
    pub fn source(&self) -> &[ECfd] {
        &self.source
    }

    /// The compiled constraints. Violation evidence
    /// (`ecfd_detect::ConstraintRef`) indexes into this list.
    pub fn ecfds(&self) -> &[ECfd] {
        &self.compiled
    }

    /// The split single-pattern constraints, in `CID` order, with provenance
    /// back into [`ConstraintSet::ecfds`].
    pub fn singles(&self) -> &[SinglePattern] {
        &self.singles
    }

    /// `(constraint, pattern)` provenance per split constraint — parallel to
    /// [`ConstraintSet::singles`].
    pub fn provenance(&self) -> Vec<(usize, usize)> {
        self.singles
            .iter()
            .map(|s| (s.source_constraint, s.source_pattern))
            .collect()
    }

    /// Number of compiled constraints.
    pub fn len(&self) -> usize {
        self.compiled.len()
    }

    /// True when the set compiled down to nothing.
    pub fn is_empty(&self) -> bool {
        self.compiled.is_empty()
    }

    /// Total pattern tuples across the compiled set (the paper's `|Tp|`).
    pub fn num_patterns(&self) -> usize {
        total_pattern_tuples(&self.compiled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ECfdBuilder;
    use crate::implication::{minimal_cover_with, ImplicationOptions};
    use crate::satisfaction;
    use ecfd_relation::{DataType, Relation, RowId, Tuple};

    fn schema() -> Schema {
        Schema::builder("cust")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .build()
    }

    fn phi_albany() -> ECfd {
        ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p.in_set("CT", ["Albany", "Troy"]).constant("AC", "518"))
            .build()
            .unwrap()
    }

    fn phi_weaker() -> ECfd {
        ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p.in_set("CT", ["Albany"]).constant("AC", "518"))
            .build()
            .unwrap()
    }

    /// The minimal cover of `sigma` at pattern-tuple granularity ("each
    /// tuple itself is a constraint"), compiled: what a caller who wants
    /// redundancy elimination registers.
    fn compiled_cover(sigma: &[ECfd]) -> ConstraintSet {
        let singles: Vec<ECfd> = split_patterns(sigma).into_iter().map(|s| s.ecfd).collect();
        let cover = minimal_cover_with(&schema(), &singles, ImplicationOptions::default()).unwrap();
        ConstraintSet::compile(&schema(), &cover).unwrap()
    }

    #[test]
    fn compile_validates_against_the_schema() {
        let bad = ECfdBuilder::new("orders")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p)
            .build()
            .unwrap();
        assert!(ConstraintSet::compile(&schema(), std::slice::from_ref(&bad)).is_err());
        assert!(ConstraintSet::verbatim(&schema(), &[bad]).is_err());
        let set = ConstraintSet::compile(&schema(), &[phi_albany()]).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.num_patterns(), 1);
    }

    #[test]
    fn duplicate_registrations_collapse() {
        // Registering the same constraint twice merges the tableaux and then
        // dedupes the repeated pattern tuple.
        let set = ConstraintSet::compile(&schema(), &[phi_albany(), phi_albany()]).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.num_patterns(), 1);
        assert_eq!(set.source().len(), 2);
        assert_eq!(set.singles().len(), 1);

        // The verbatim entry point keeps both, so evidence indexes them as
        // given.
        let verbatim = ConstraintSet::verbatim(&schema(), &[phi_albany(), phi_albany()]).unwrap();
        assert_eq!(verbatim.ecfds(), &[phi_albany(), phi_albany()]);
        assert_eq!(verbatim.provenance(), vec![(0, 0), (1, 0)]);
    }

    #[test]
    fn minimization_drops_implied_constraints() {
        let set = compiled_cover(&[phi_albany(), phi_weaker()]);
        assert_eq!(set.len(), 1, "the weaker Albany rule is implied");
        assert_eq!(set.ecfds()[0], phi_albany());

        // Compiled as registered both survive (they merge-compatibly share
        // X/Y/Yp, so they fold into one constraint with two pattern tuples).
        let raw = ConstraintSet::compile(&schema(), &[phi_albany(), phi_weaker()]).unwrap();
        assert_eq!(raw.num_patterns(), 2);
    }

    #[test]
    fn compilation_preserves_satisfaction() {
        let rows = [
            vec![("Albany", "518"), ("Troy", "518")],
            vec![("Albany", "718")],
            vec![("NYC", "212")],
        ];
        let sigma = [phi_albany(), phi_weaker(), phi_albany()];
        for set in [
            ConstraintSet::compile(&schema(), &sigma).unwrap(),
            ConstraintSet::verbatim(&schema(), &sigma).unwrap(),
            compiled_cover(&sigma),
        ] {
            for rows in &rows {
                let db = Relation::with_tuples(
                    schema(),
                    rows.iter().map(|(ct, ac)| Tuple::from_iter([*ct, *ac])),
                )
                .unwrap();
                let original = satisfaction::check_all(&db, &[phi_albany(), phi_weaker()])
                    .unwrap()
                    .is_satisfied();
                let compiled = satisfaction::check_all(&db, set.ecfds())
                    .unwrap()
                    .is_satisfied();
                assert_eq!(original, compiled, "rows {rows:?}");
            }
        }
    }

    #[test]
    fn minimization_keeps_satisfaction_but_not_the_flags() {
        // Every Albany row must have area code 518, so Albany rows agree on
        // AC: the FD is implied and the minimal cover drops it. On rows that
        // break the pattern rule, the FD flags both Albany rows as MV; once
        // it is dropped only the SV flag is left.
        let sigma = crate::parser::parse_ecfds(
            "cust: [CT] -> [] | [AC], { {Albany} || {518} }\n\
             cust: [CT] -> [AC] | [], { {Albany} || _ }",
        )
        .unwrap();
        let raw = ConstraintSet::compile(&schema(), &sigma).unwrap();
        let minimized = compiled_cover(&sigma);
        assert_eq!(raw.num_patterns(), 2);
        assert_eq!(minimized.ecfds(), &sigma[..1], "the FD is implied");

        let db = Relation::with_tuples(
            schema(),
            [
                Tuple::from_iter(["Albany", "518"]),
                Tuple::from_iter(["Albany", "718"]),
            ],
        )
        .unwrap();
        let raw = satisfaction::check_all(&db, raw.ecfds()).unwrap();
        let minimized = satisfaction::check_all(&db, minimized.ecfds()).unwrap();
        assert_eq!(raw.single_tuple_violations(), vec![RowId(1)]);
        assert_eq!(minimized.single_tuple_violations(), vec![RowId(1)]);
        assert_eq!(raw.multi_tuple_violations(), vec![RowId(0), RowId(1)]);
        assert!(minimized.multi_tuple_violations().is_empty());
        assert_eq!(raw.is_satisfied(), minimized.is_satisfied());
    }

    #[test]
    fn parse_compiles_the_textual_syntax() {
        let set = ConstraintSet::parse(
            &schema(),
            "cust: [CT] -> [AC] | [], { {Albany} || {518} }\n\
             cust: [CT] -> [AC] | [], { {Troy} || {518} }",
        )
        .unwrap();
        // Same X/Y/Yp → merged into one compiled constraint, two patterns.
        assert_eq!(set.len(), 1);
        assert_eq!(set.num_patterns(), 2);
        assert_eq!(set.source().len(), 2);
        assert_eq!(set.provenance(), vec![(0, 0), (0, 1)]);
    }
}
