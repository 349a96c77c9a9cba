//! Compiled constraint sets: the unit of registration for the session layer.
//!
//! The paper treats detection as a *fixed-query service*: constraints are
//! encoded once and the per-query work is independent of how many eCFDs are
//! checked. [`ConstraintSet`] is the front half of that contract — it takes a
//! user-supplied list of eCFDs through a compilation pipeline
//!
//! 1. **validate** — every constraint is checked against the relation schema
//!    ([`ECfd::validate_against`]);
//! 2. **minimize** (optional) — the set is split to pattern-tuple granularity
//!    ("each tuple itself is a constraint") and every single-pattern
//!    constraint implied by the rest is removed via the exact implication
//!    analysis ([`crate::implication::minimal_cover_with`], Section III's
//!    redundancy elimination). It keeps the set's models, not its flags (see
//!    [`CompileOptions::minimize`]). Off by default for that reason and
//!    because implication is coNP-complete: on the `cust` workload the cover
//!    takes 2 ms over its 11 singles, 38 ms over the 49 singles of a
//!    40-pattern tableau and 0.7 s over the 169 singles of a 160-pattern one
//!    (release build, 2-core x86-64), and the budgeted search can cost more
//!    on wider schemas;
//! 3. **normalize** — constraints sharing relation, `X`, `Y` and `Yp` are
//!    merged into one tableau ([`crate::normalize::merge_compatible`]), which
//!    is the form users write (cf. φ1 of the paper carrying two pattern
//!    tuples);
//! 4. **dedupe** — duplicate pattern tuples within a tableau (including those
//!    introduced by merging identical constraints) are dropped;
//!
//! and finally **splits** the result into single-pattern constraints
//! ([`crate::normalize::split_patterns`]) — the shape every detector consumes.
//! Detectors constructed from a `ConstraintSet` (`from_set` constructors in
//! `ecfd_detect`) reuse the split verbatim instead of re-validating and
//! re-splitting per detector, so a set compiled once serves the semantic,
//! SQL and incremental backends alike.
//!
//! Violation evidence produced by those detectors refers to constraints by
//! index into [`ConstraintSet::ecfds`] — the *compiled* list, which may be
//! smaller than what was registered when normalization or minimization
//! collapsed redundancies.

use crate::ecfd::ECfd;
use crate::error::Result;
use crate::implication::{minimal_cover_with, ImplicationOptions};
use crate::normalize::{merge_compatible, split_patterns, total_pattern_tuples, SinglePattern};
use ecfd_relation::Schema;
use serde::{Deserialize, Serialize};

/// Options steering [`ConstraintSet::compile_with`].
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Merge constraints sharing relation, `X`, `Y` and `Yp` into a single
    /// tableau before anything else. Default `true`.
    pub merge: bool,
    /// Drop duplicate pattern tuples within each tableau. Default `true`.
    pub dedupe: bool,
    /// Remove constraints implied by the rest of the set (exact implication
    /// analysis). Default `false` — see the module docs.
    ///
    /// Minimization keeps *whether* an instance satisfies the set: an
    /// instance satisfies the minimized set iff it satisfies the registered
    /// one. It does not keep *which* rows are flagged on a dirty instance:
    /// a dropped constraint's own `SV`/`MV` flags go with it, even where the
    /// instance breaks what implied it.
    pub minimize: bool,
    /// Search budget for the implication analysis when `minimize` is on.
    pub implication: ImplicationOptions,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            merge: true,
            dedupe: true,
            minimize: false,
            implication: ImplicationOptions::default(),
        }
    }
}

impl CompileOptions {
    /// The default pipeline plus implication-based minimization.
    pub fn minimizing() -> Self {
        CompileOptions {
            minimize: true,
            ..CompileOptions::default()
        }
    }
}

/// A validated, normalized, split — and optionally minimized — set of eCFDs
/// over one relation schema, ready to be shared across detector backends.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConstraintSet {
    schema: Schema,
    source: Vec<ECfd>,
    compiled: Vec<ECfd>,
    singles: Vec<SinglePattern>,
}

impl ConstraintSet {
    /// Compiles `ecfds` against `schema` with [`CompileOptions::default`].
    pub fn compile(schema: &Schema, ecfds: &[ECfd]) -> Result<Self> {
        Self::compile_with(schema, ecfds, CompileOptions::default())
    }

    /// Compiles `ecfds` against `schema`: validate → merge → dedupe →
    /// (optionally) minimize → split. See the module docs for the pipeline.
    pub fn compile_with(schema: &Schema, ecfds: &[ECfd], options: CompileOptions) -> Result<Self> {
        for ecfd in ecfds {
            ecfd.validate_against(schema)?;
        }
        let mut compiled: Vec<ECfd> = ecfds.to_vec();
        if options.minimize {
            // Minimize at pattern-tuple granularity ("each tuple itself is a
            // constraint"): split first so that a single implied pattern tuple
            // can be dropped without discarding its siblings.
            let singles: Vec<ECfd> = split_patterns(&compiled)
                .into_iter()
                .map(|s| s.ecfd)
                .collect();
            compiled = minimal_cover_with(schema, &singles, options.implication)?;
        }
        if options.merge {
            compiled = merge_compatible(&compiled);
        }
        if options.dedupe {
            compiled = compiled
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
        }
        let singles = split_patterns(&compiled);
        Ok(ConstraintSet {
            schema: schema.clone(),
            source: ecfds.to_vec(),
            compiled,
            singles,
        })
    }

    /// Parses the textual syntax ([`crate::parse_ecfds`]) and compiles the
    /// result with [`CompileOptions::default`].
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

    #[test]
    fn compile_validates_against_the_schema() {
        let bad = ECfdBuilder::new("orders")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p)
            .build()
            .unwrap();
        assert!(ConstraintSet::compile(&schema(), &[bad]).is_err());
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
    }

    #[test]
    fn minimization_drops_implied_constraints() {
        let set = ConstraintSet::compile_with(
            &schema(),
            &[phi_albany(), phi_weaker()],
            CompileOptions::minimizing(),
        )
        .unwrap();
        assert_eq!(set.len(), 1, "the weaker Albany rule is implied");
        assert_eq!(set.ecfds()[0], phi_albany());

        // Without minimization both survive (they merge-compatibly share
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
        for variant in [
            CompileOptions::default(),
            CompileOptions::minimizing(),
            CompileOptions {
                merge: false,
                dedupe: false,
                ..CompileOptions::default()
            },
        ] {
            let set = ConstraintSet::compile_with(
                &schema(),
                &[phi_albany(), phi_weaker(), phi_albany()],
                variant,
            )
            .unwrap();
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
        // AC: the FD is implied and minimizing drops it. On rows that break
        // the pattern rule, the FD flags both Albany rows as MV; once it is
        // dropped only the SV flag is left.
        let sigma = crate::parser::parse_ecfds(
            "cust: [CT] -> [] | [AC], { {Albany} || {518} }\n\
             cust: [CT] -> [AC] | [], { {Albany} || _ }",
        )
        .unwrap();
        let raw = ConstraintSet::compile(&schema(), &sigma).unwrap();
        let minimized =
            ConstraintSet::compile_with(&schema(), &sigma, CompileOptions::minimizing()).unwrap();
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
