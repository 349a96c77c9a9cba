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
//!   introduces), **split**, then **drop subsumed** singles;
//! * [`ConstraintSet::verbatim`] — validate, then split. Evidence indexes the
//!   constraints exactly as given. Every raw-constraint detector constructor
//!   (`SemanticDetector::new`, `BatchDetector::new` and their callers in
//!   `ecfd_detect` and `ecfd_repair`) compiles through it.
//!
//! The split ([`crate::normalize::split_patterns`]) yields single-pattern
//! constraints, the shape every detector consumes. Detectors constructed from
//! a `ConstraintSet` (`from_set` constructors in `ecfd_detect`) reuse it
//! instead of re-validating and re-splitting per detector, so a set compiled
//! once serves the semantic, SQL and incremental backends alike. Every step
//! depends on the constraints only, never on the data.
//!
//! **Value classes.** Both entry points group, per attribute, the constants
//! of every split single's cells into value classes (`compile` groups again
//! once it has dropped subsumed singles): two constants share a class when
//! every cell contains both or neither, and one more class holds every
//! value outside every constant. A class belongs to a cell exactly
//! when [`crate::PatternValue::matches`] accepts a member of it, so the
//! outside class belongs to complements and wildcards and never to a set.
//! Each single's cells are stored as [`ClassSet`]s over these classes
//! ([`ConstraintSet::cells`]), and the detectors match rows by looking up a
//! value's class ([`ConstraintSet::classes`]). The partition keeps every
//! constant and ignores declared finite domains: stored rows may hold NULL
//! or other values outside a declared domain (a schema checks types only),
//! and such a row falls into the outside class like any other stranger.
//!
//! **Drop subsumed.** Single `s₂` subsumes single `s₁` when they share
//! relation, `X` and `Y`, every `X` cell of `s₂` holds every class of the
//! `s₁` cell at the same position, and for every `Y ∪ Yp` cell `c₁` of `s₁`
//! on an attribute `A` that lacks some class, `s₂` has a cell `c₂` on `A`
//! whose classes are all in `c₁`. Then on every instance the rows `s₁` flags
//! `SV` are flagged `SV` by `s₂`: a row matching `s₁`'s `X` cells matches
//! `s₂`'s, and a value outside `c₁` is outside `c₂`. The same holds for `MV`,
//! because a group is the rows sharing one `X` value and breaks the embedded
//! FD on the same `Y` list. So a single is dropped when another one strictly
//! subsumes it, or when an equivalent one comes earlier, and the compiled
//! singles flag exactly the rows the whole tableau flags.
//! [`ConstraintSet::subsumed`] records every dropped single with a kept
//! single that subsumes it: subsumption is transitive, so one always exists.
//! A dropped pattern still sits in [`ConstraintSet::ecfds`]; it raises no
//! evidence of its own, its subsumer does. Because the partition ignores
//! declared domains, so does the rule: over `X: {a, b}` the cells `{b}` and
//! `!{a}` accept the same declared values, yet `!{a}` also accepts NULL and
//! every undeclared value a row may hold, so `!{a}` subsumes `{b}` and not
//! the other way round.
//!
//! Redundancy elimination (Section III) is an analysis, not a compile step:
//! [`crate::implication::minimal_cover`] drops every constraint implied
//! by the rest, and a caller who wants the cover compiles its result. Two
//! reasons keep it out of the pipeline. It keeps the set's models, not its
//! flags: an instance satisfies the cover iff it satisfies the set, but a
//! dropped constraint's own `SV`/`MV` flags go with it, even where the
//! instance breaks what implied it (this module's tests pin a
//! counterexample). Subsumption is the stronger relation, read off the class
//! sets, that keeps the flags too. And implication is coNP-complete: on the
//! `cust` workload the cover takes 2 ms over its 11 singles, 38 ms over the
//! 49 singles of a 40-pattern tableau and 0.7 s over the 169 singles of a
//! 160-pattern one (release build, 2-core x86-64), where the whole compile,
//! class sets and the quadratic subsumption check included, takes about
//! 2.6 ms.
//!
//! Violation evidence produced by those detectors refers to constraints by
//! index into [`ConstraintSet::ecfds`] — the *compiled* list, which
//! [`ConstraintSet::compile`] may shorten when merging collapsed
//! constraints.

use crate::ecfd::ECfd;
use crate::error::Result;
use crate::normalize::{merge_compatible, split_patterns, total_pattern_tuples, SinglePattern};
use crate::small_model::group_constants;
use ecfd_relation::{Schema, Value};
use serde::{Deserialize, Serialize};

/// Where a pattern tuple sits in a compiled set: `(constraint, pattern)`,
/// indexing [`ConstraintSet::ecfds`] and that constraint's tableau.
pub type PatternIndex = (usize, usize);

/// A validated and split set of eCFDs over one relation schema, ready to be
/// shared across detector backends.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConstraintSet {
    schema: Schema,
    source: Vec<ECfd>,
    compiled: Vec<ECfd>,
    singles: Vec<SinglePattern>,
    classes: Vec<AttrClasses>,
    cells: Vec<CellClasses>,
    subsumed: Vec<(PatternIndex, PatternIndex)>,
}

/// The value classes of one attribute the split singles mention: classes
/// `0..outside` hold the constants, class `outside` every other value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttrClasses {
    /// The attribute.
    pub attr: String,
    /// Every constant a cell on the attribute mentions, ascending, with its
    /// class.
    pub constants: Vec<(Value, usize)>,
    /// The class of every value no cell on the attribute mentions.
    pub outside: usize,
}

/// A set of one attribute's value classes: the classes a pattern cell
/// accepts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassSet {
    words: Vec<u64>,
    full: bool,
}

impl ClassSet {
    /// The classes of `attr` whose members `cell` accepts: one member of
    /// each is probed with [`crate::PatternValue::matches`] — a class's
    /// smallest constant, which comes first because classes are numbered in
    /// that order, and for the outside class a value no cell mentions.
    fn of(cell: &crate::PatternValue, attr: &AttrClasses) -> Self {
        let known = |v: &Value| attr.constants.binary_search_by(|(c, _)| c.cmp(v)).is_ok();
        let fresh = (0..).map(|i| Value::str(format!("⊥fresh{i}")));
        let stranger = fresh.into_iter().find(|v| !known(v)).expect("unbounded");
        let mut members = Vec::with_capacity(attr.outside + 1);
        for (v, class) in &attr.constants {
            if *class == members.len() {
                members.push(v);
            }
        }
        members.push(&stranger);
        let mut words = vec![0u64; members.len().div_ceil(64)];
        for (class, v) in members.into_iter().enumerate() {
            words[class / 64] |= u64::from(cell.matches(v)) << (class % 64);
        }
        let full = words.iter().map(|w| w.count_ones() as usize).sum::<usize>() > attr.outside;
        ClassSet { words, full }
    }

    /// Whether the set holds `class`.
    #[inline]
    pub fn contains(&self, class: usize) -> bool {
        self.words[class / 64] >> (class % 64) & 1 == 1
    }

    /// Whether the set holds every class of its attribute: the cell accepts
    /// every value.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Whether every class of `self` is in `other`, both over one attribute.
    pub fn is_subset(&self, other: &ClassSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }
}

/// One single's cells as class sets: `lhs` parallel to its `X` attributes,
/// `rhs` to its `Y ∪ Yp` attributes in tableau cell order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellClasses {
    /// The `X` cells.
    pub lhs: Vec<ClassSet>,
    /// The `Y ∪ Yp` cells.
    pub rhs: Vec<ClassSet>,
}

impl ConstraintSet {
    /// Compiles `ecfds` against `schema`: validate → merge → dedupe → split
    /// → drop subsumed. See the module docs for the pipeline.
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
        let mut set = Self::assemble(schema, ecfds, compiled);
        set.drop_subsumed();
        Ok(set)
    }

    /// Compiles `ecfds` against `schema` without merging or deduplicating:
    /// validate → split. [`ConstraintSet::ecfds`] is `ecfds` as given, so
    /// evidence indexes the caller's own list.
    pub fn verbatim(schema: &Schema, ecfds: &[ECfd]) -> Result<Self> {
        ecfds.iter().try_for_each(|e| e.validate_against(schema))?;
        Ok(Self::assemble(schema, ecfds, ecfds.to_vec()))
    }

    fn assemble(schema: &Schema, source: &[ECfd], compiled: Vec<ECfd>) -> Self {
        let singles = split_patterns(&compiled);
        let (classes, cells) = partition(&singles);
        ConstraintSet {
            schema: schema.clone(),
            source: source.to_vec(),
            singles,
            compiled,
            classes,
            cells,
            subsumed: Vec::new(),
        }
    }

    /// Drops every single another single strictly subsumes, or an earlier
    /// equivalent one does, and records it with a kept subsumer.
    fn drop_subsumed(&mut self) {
        let (singles, cells) = (&self.singles, &self.cells);
        let by = |j: usize, i: usize| {
            subsumes((&singles[j].ecfd, &cells[j]), (&singles[i].ecfd, &cells[i]))
        };
        let dropped: Vec<bool> = (0..singles.len())
            .map(|i| (0..singles.len()).any(|j| j != i && by(j, i) && (j < i || !by(i, j))))
            .collect();
        let at = |s: &SinglePattern| (s.source_constraint, s.source_pattern);
        self.subsumed = (0..singles.len())
            .filter(|&i| dropped[i])
            .map(|i| {
                let kept = (0..singles.len())
                    .find(|&j| !dropped[j] && by(j, i))
                    .expect(
                        "subsumption is transitive, so a kept single subsumes each dropped one",
                    );
                (at(&singles[i]), at(&singles[kept]))
            })
            .collect();
        if !self.subsumed.is_empty() {
            let mut kept = dropped.iter();
            self.singles.retain(|_| kept.next() == Some(&false));
            (self.classes, self.cells) = partition(&self.singles);
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

    /// The singles [`ConstraintSet::compile`] dropped as subsumed, each as
    /// `(dropped, kept)`: the dropped single's pattern and that of a kept
    /// single that subsumes it. Empty for [`ConstraintSet::verbatim`].
    pub fn subsumed(&self) -> &[(PatternIndex, PatternIndex)] {
        &self.subsumed
    }

    /// The value classes of every attribute the singles mention, in order
    /// of first mention.
    pub fn classes(&self) -> &[AttrClasses] {
        &self.classes
    }

    /// The cells of every split single as class sets over
    /// [`ConstraintSet::classes`] — parallel to [`ConstraintSet::singles`].
    pub fn cells(&self) -> &[CellClasses] {
        &self.cells
    }

    /// `(constraint, pattern)` provenance per split constraint — parallel to
    /// [`ConstraintSet::singles`].
    pub fn provenance(&self) -> Vec<PatternIndex> {
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

/// The value classes of every attribute `singles` mention, and each single's
/// cells as class sets over them.
fn partition(singles: &[SinglePattern]) -> (Vec<AttrClasses>, Vec<CellClasses>) {
    let ecfds: Vec<&ECfd> = singles.iter().map(|s| &s.ecfd).collect();
    let classes = group_constants(&ecfds);
    let sets = |attrs: Vec<&str>, cells: &[crate::PatternValue]| -> Vec<ClassSet> {
        (attrs.into_iter().zip(cells))
            .map(|(name, cell)| {
                let at = classes.iter().position(|a| a.attr == name);
                ClassSet::of(cell, &classes[at.expect("mentioned")])
            })
            .collect()
    };
    let cells = (ecfds.iter())
        .map(|e| {
            let tp = &e.tableau()[0];
            let lhs = e.lhs().iter().map(String::as_str).collect();
            CellClasses {
                lhs: sets(lhs, &tp.lhs),
                rhs: sets(e.rhs_attrs(), &tp.rhs),
            }
        })
        .collect();
    (classes, cells)
}

/// Whether single-pattern `wide` subsumes single-pattern `narrow`, each
/// given with its cells as class sets: on every instance, every row `narrow`
/// flags `SV` or `MV` is flagged alike by `wide`. The rule is in the module
/// docs.
fn subsumes((wide, w): (&ECfd, &CellClasses), (narrow, n): (&ECfd, &CellClasses)) -> bool {
    let wide_rhs = wide.rhs_attrs();
    wide.relation() == narrow.relation()
        && wide.lhs() == narrow.lhs()
        && wide.fd_rhs() == narrow.fd_rhs()
        && w.lhs.iter().zip(&n.lhs).all(|(w, n)| n.is_subset(w))
        && (narrow.rhs_attrs().into_iter().zip(&n.rhs))
            .filter(|(_, cell)| !cell.is_full())
            .all(|(attr, cell)| {
                let at = wide_rhs.iter().position(|a| *a == attr);
                at.is_some_and(|at| w.rhs[at].is_subset(cell))
            })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ECfdBuilder;
    use crate::implication::minimal_cover;
    use crate::satisfaction;
    use crate::PatternValue;
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
        let cover = minimal_cover(&schema(), &singles).unwrap();
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
    fn a_narrower_pattern_is_dropped_for_its_subsumer() {
        // {Albany} ⊆ !{NYC} and the narrow pattern checks nothing on AC, so
        // every row it flags the first pattern flags too.
        let set = ConstraintSet::parse(
            &schema(),
            "cust: [CT] -> [AC] | [], { !{NYC} || _ ; {Albany} || _ }",
        )
        .unwrap();
        assert_eq!(set.num_patterns(), 2, "the tableau keeps both patterns");
        assert_eq!(set.provenance(), vec![(0, 0)]);
        assert_eq!(set.subsumed(), &[((0, 1), (0, 0))]);
        let verbatim = ConstraintSet::verbatim(&schema(), set.ecfds()).unwrap();
        assert_eq!(verbatim.singles().len(), 2);
        assert!(verbatim.subsumed().is_empty());
    }

    #[test]
    fn only_a_narrower_rhs_subsumes() {
        // A wider RHS cell on the narrow pattern ({518, 212} ⊇ {518}) is
        // subsumed; a checked AC against an unchecked one is not.
        let set = ConstraintSet::parse(
            &schema(),
            "cust: [CT] -> [] | [AC], { _ || {518} ; {Albany} || {518, 212} }\n\
             cust: [CT] -> [AC] | [], { _ || _ ; {Albany} || {518} }",
        )
        .unwrap();
        assert_eq!(set.subsumed(), &[((0, 1), (0, 0))]);
        assert_eq!(set.provenance(), vec![(0, 0), (1, 0), (1, 1)]);

        let rows = [
            ("Albany", "518"),
            ("Albany", "212"),
            ("Troy", "718"),
            ("Troy", "315"),
        ];
        let db = Relation::with_tuples(
            schema(),
            rows.iter().map(|(ct, ac)| Tuple::from_iter([*ct, *ac])),
        )
        .unwrap();
        let singles: Vec<ECfd> = set.singles().iter().map(|s| s.ecfd.clone()).collect();
        let compiled = satisfaction::check_all(&db, &singles).unwrap();
        let all = satisfaction::check_all(&db, set.ecfds()).unwrap();
        assert_eq!(compiled.violations().sv_rows(), all.violations().sv_rows());
        assert_eq!(compiled.violations().mv_rows(), all.violations().mv_rows());
    }

    #[test]
    fn of_two_equivalent_singles_the_earlier_survives() {
        // Different Yp lists keep the two constraints apart through merge,
        // but neither checks anything on its RHS beyond the other.
        let schema = Schema::builder("cust")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .attr("ZIP", DataType::Str)
            .build();
        let set = ConstraintSet::parse(
            &schema,
            "cust: [CT] -> [AC] | [ZIP], { {Albany} || _, _ }\n\
             cust: [CT] -> [AC] | [], { {Albany} || _ }",
        )
        .unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.subsumed(), &[((1, 0), (0, 0))]);
        assert_eq!(set.provenance(), vec![(0, 0)]);
    }

    #[test]
    fn class_sets_agree_with_value_cells() {
        // One pattern tuple per cell, all on CT; AC keeps a wildcard.
        let cells = [
            PatternValue::wildcard(),
            PatternValue::in_set(["NYC", "LI"]),
            PatternValue::not_in_set(["NYC", "LI"]),
            PatternValue::constant("518"),
            PatternValue::in_set([518i64, 212]),
            PatternValue::NotIn(Default::default()),
        ];
        let tableau = (cells.iter().cloned())
            .map(|c| crate::PatternTuple::new(vec![c], vec![PatternValue::wildcard()]))
            .collect();
        let phi = ECfd::new(
            "cust",
            vec!["CT".into()],
            vec!["AC".into()],
            vec![],
            tableau,
        );
        let set = ConstraintSet::verbatim(&schema(), &[phi.unwrap()]).unwrap();
        let ct = &set.classes()[0];
        assert_eq!(ct.attr, "CT");
        let class = |v: &Value| {
            let found = ct.constants.iter().find(|(c, _)| c == v);
            found.map_or(ct.outside, |(_, class)| *class)
        };
        let probes = [
            Value::str("NYC"),
            Value::str("LI"),
            Value::str("Albany"),
            Value::str("518"),
            Value::int(518),
            Value::int(999),
            Value::Null,
            Value::bool(true),
            Value::str("⊥fresh0"),
        ];
        for probe in &probes {
            for (cell, sets) in cells.iter().zip(set.cells()) {
                let matches = sets.lhs[0].contains(class(probe));
                assert_eq!(cell.matches(probe), matches, "cell {cell} probe {probe:?}");
            }
        }
        // NYC and LI share a class; the wildcard and the empty complement
        // hold every class, and no set holds the outside one.
        assert_eq!(class(&Value::str("NYC")), class(&Value::str("LI")));
        assert!(set.cells()[0].lhs[0].is_full() && set.cells()[5].lhs[0].is_full());
        assert!(!set.cells()[1].lhs[0].contains(ct.outside));
        assert!(set.cells()[1].lhs[0].is_subset(&set.cells()[5].lhs[0]));
        assert!(!set.cells()[2].lhs[0].is_subset(&set.cells()[1].lhs[0]));
    }

    #[test]
    fn class_set_inclusion_is_the_generalization_rule() {
        // One pattern tuple per cell, all on CT.
        let texts = ["_", "{a, b}", "{a}", "!{c}", "!{c, d}", "{c}", "!{}"];
        let cells = [
            PatternValue::wildcard(),
            PatternValue::in_set(["a", "b"]),
            PatternValue::in_set(["a"]),
            PatternValue::not_in_set(["c"]),
            PatternValue::not_in_set(["c", "d"]),
            PatternValue::in_set(["c"]),
            PatternValue::NotIn(Default::default()),
        ];
        let tableau = (cells.iter().cloned())
            .map(|c| crate::PatternTuple::new(vec![c], vec![PatternValue::wildcard()]))
            .collect();
        let phi = ECfd::new(
            "cust",
            vec!["CT".into()],
            vec!["AC".into()],
            vec![],
            tableau,
        );
        let set = ConstraintSet::verbatim(&schema(), &[phi.unwrap()]).unwrap();
        let at = |text: &str| &set.cells()[texts.iter().position(|t| *t == text).unwrap()].lhs[0];
        let covers = |wide: &str, narrow: &str| at(narrow).is_subset(at(wide));

        assert!(covers("_", "{a, b}"));
        assert!(!covers("{a, b}", "_"));
        assert!(covers("{a, b}", "{a}"));
        assert!(!covers("{a}", "{a, b}"));
        assert!(covers("!{c}", "{a}"), "a ∉ {{c}} so {{a}} ⊆ compl({{c}})");
        assert!(!covers("!{c}", "{c}"));
        assert!(covers("!{c}", "!{c, d}"));
        assert!(!covers("!{c, d}", "!{c}"));
        assert!(!covers("{a}", "!{c}"), "complements hold the outside class");
        // The one departure from reading cells syntactically: the empty
        // complement accepts every value, so it is the wildcard.
        assert!(covers("!{}", "_") && covers("_", "!{}"));
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
