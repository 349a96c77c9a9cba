//! The native ("semantic") detector: a direct implementation of the eCFD
//! satisfaction semantics over the dictionary-encoded columnar core.
//!
//! This detector is not part of the paper — its detection technique is
//! SQL-only — but it serves three purposes in the reproduction:
//!
//! * it is the *oracle* for differential testing of the SQL path (both must
//!   flag exactly the same rows);
//! * it is the "native" baseline of the SQL-vs-native ablation
//!   (`ecfd_bench::ablation_sql_vs_native`); and
//! * it is the system's fast path: rows are encoded once into a
//!   [`CodeColumns`], the constants of the set's value classes are
//!   pre-resolved to one `Code → class` table per attribute and attribute
//!   lists to column positions at construction (registration) time, a row
//!   matches a cell when its value's class is in the cell's class set,
//!   group keys are [`CodeVec`] code slices instead of cloned
//!   `Vec<Value>`s, and every full pass runs the shared-scan program of
//!   [`crate::scan`] — each distinct `X` list projected once per row,
//!   fanned out across `std::thread::scope` workers (see
//!   [`crate::parallel`]).
//!
//! It also exposes the group bookkeeping (`(CID, X-projection) → distinct Y
//! projections + member rows`) that the incremental detector maintains.
//!
//! [`Code`]: ecfd_relation::Code

use crate::evidence::{ConstraintRef, EvidenceReport, MvEvidence, SvEvidence};
use crate::parallel::Parallelism;
use crate::report::DetectionReport;
use crate::scan::{Alphabet, Hit, Members, ScanProgram};
use crate::{DetectError, Result};
use ecfd_core::matching::BoundECfd;
use ecfd_core::{ConstraintSet, CoreError, ECfd};
use ecfd_relation::{
    AttrId, Code, CodeColumns, CodeVec, Dictionary, FrozenView, Relation, RowId, Schema,
    SymbolTable, Value,
};
use parking_lot::RwLock;
use std::ops::ControlFlow;
use std::sync::Arc;

pub use crate::scan::{GroupKey, GroupMap, GroupState};

/// The constraint codec shared by every clone of a detector (and so by the
/// incremental states seeded from one): one [`Dictionary`] per compile. Two
/// compiles of the same constraint set have two, whose codes are never
/// compared. The dictionary only grows — interning data values never
/// invalidates the class tables resolved at construction time.
///
/// The class tables themselves live *outside* this lock (they are immutable
/// after construction, see [`SemanticDetector`]), so read-only detection
/// over a [`FrozenView`] never takes it.
#[derive(Debug)]
pub(crate) struct Codec {
    /// The issuing dictionary for class constants and data values alike.
    pub(crate) dict: Dictionary,
}

/// Everything about a detector that is fixed at construction. Shared behind
/// one [`Arc`], so cloning a detector — once per published epoch and once
/// per merged-read miss in the serving layer — copies no constraint.
#[derive(Debug, Clone)]
struct Compiled {
    ecfds: Vec<ECfd>,
    singles: Vec<ECfd>,
    /// For every split single-pattern constraint, the `(constraint, pattern)`
    /// indices it came from — used to attribute evidence back to the user's
    /// original constraints.
    provenance: Vec<(usize, usize)>,
    /// The `code → class` tables and the class-set cells of the split
    /// constraints. Interned against the codec dictionary's *initial* state,
    /// so they stay valid against every later dictionary state (grow-only
    /// interning) — including the symbol table inside any [`FrozenView`]
    /// descended from this detector's codec.
    alphabet: Alphabet,
    /// What every full pass executes; by default the shared-scan fusion of
    /// `singles` ([`ScanProgram::fused`]).
    program: ScanProgram,
    /// The schema the constraints were compiled against: the stored table's.
    schema: Schema,
}

/// One version of a table, encoded: the code columns of its base attributes,
/// issued by one detector's dictionary, and the [`Relation::stamp`] of the
/// contents they were built from. A full pass, a freeze or an INCDETECT seed
/// reuses it only while that stamp is current, so it is never read for any
/// other contents.
#[derive(Debug, Clone)]
pub(crate) struct EncodedTable {
    pub(crate) stamp: u64,
    pub(crate) columns: CodeColumns,
}

impl EncodedTable {
    /// Whether these are the codes of `relation` as it is now.
    pub(crate) fn describes(&self, relation: &Relation) -> bool {
        self.stamp == relation.stamp()
    }
}

/// The native detector.
#[derive(Debug, Clone)]
pub struct SemanticDetector {
    compiled: Arc<Compiled>,
    codec: Arc<RwLock<Codec>>,
    parallelism: Parallelism,
}

impl SemanticDetector {
    /// Creates a detector for `ecfds` on `schema`, compiled through
    /// [`ConstraintSet::verbatim`]: evidence indexes `ecfds` exactly as given.
    pub fn new(schema: &Schema, ecfds: &[ECfd]) -> Result<Self> {
        Ok(Self::from_set(&ConstraintSet::verbatim(schema, ecfds)?))
    }

    /// Creates a detector from an already-compiled [`ConstraintSet`]: the
    /// set's validation and split are reused verbatim, so no per-detector
    /// re-validation or re-splitting happens — and the class constants are
    /// interned to codes, and the scan program resolved, here, once, at
    /// registration time.
    pub fn from_set(set: &ConstraintSet) -> Self {
        let schema = set.schema();
        let singles: Vec<ECfd> = set.singles().iter().map(|s| s.ecfd.clone()).collect();
        let mut dict = Dictionary::new();
        let alphabet =
            Alphabet::intern(set.singles(), set.classes(), set.cells(), schema, &mut dict);
        let bounds: Vec<BoundECfd<'_>> = singles
            .iter()
            .map(|e| BoundECfd::bind(e, schema).expect("a compiled set binds to its own schema"))
            .collect();
        let program = ScanProgram::fused(&bounds);
        crate::obs::count("detect.detectors.compiled", 1);
        SemanticDetector {
            compiled: Arc::new(Compiled {
                ecfds: set.ecfds().to_vec(),
                singles,
                provenance: set.provenance(),
                alphabet,
                program,
                schema: schema.clone(),
            }),
            codec: Arc::new(RwLock::new(Codec { dict })),
            parallelism: Parallelism::default(),
        }
    }

    /// Replaces the program full passes execute — how `ecfd_plan` runs a
    /// compiled plan's scans (fused or unfused) through this detector. Any
    /// program covering the same constraints produces the same output.
    ///
    /// # Panics
    ///
    /// Panics unless `program` holds exactly one operator per split
    /// constraint of this detector, each with as many `X` and check
    /// positions as the constraint's pattern tuple has cells — i.e. panics
    /// when it was compiled from a different constraint set.
    pub fn with_program(mut self, program: ScanProgram) -> Self {
        let mut shape: Vec<(usize, usize, usize)> = program
            .scans()
            .iter()
            .flat_map(|s| {
                s.members
                    .iter()
                    .map(|op| (op.ci, s.x.len(), op.check.len()))
            })
            .collect();
        shape.sort_unstable();
        let cells = self.compiled.alphabet.cells.iter().enumerate();
        assert!(
            shape
                .into_iter()
                .eq(cells.map(|(ci, c)| (ci, c.lhs.len(), c.rhs.len()))),
            "the program was not compiled from this detector's constraint set"
        );
        Arc::make_mut(&mut self.compiled).program = program;
        self
    }

    /// Sets the worker fan-out of subsequent detection passes.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the worker fan-out of subsequent detection passes.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
    }

    /// The configured worker fan-out.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The original constraints.
    pub fn ecfds(&self) -> &[ECfd] {
        &self.compiled.ecfds
    }

    /// The split single-pattern constraints (aligned with incremental group
    /// constraint indices).
    pub fn singles(&self) -> &[ECfd] {
        &self.compiled.singles
    }

    /// `(constraint, pattern)` provenance of every split constraint, parallel
    /// to [`SemanticDetector::singles`].
    pub fn provenance(&self) -> &[(usize, usize)] {
        &self.compiled.provenance
    }

    /// The program every full pass executes.
    pub fn program(&self) -> &ScanProgram {
        &self.compiled.program
    }

    /// The schema the constraints were compiled against: the stored table's,
    /// which every consumer of this detector reads and validates deltas by.
    pub fn schema(&self) -> &Schema {
        &self.compiled.schema
    }

    /// The shared codec (the issuing dictionary). Crate-internal: the
    /// incremental detector maintains its view and group state through the
    /// same dictionary.
    pub(crate) fn codec(&self) -> &Arc<RwLock<Codec>> {
        &self.codec
    }

    /// Runs one row — `code` gives its code per attribute — through the
    /// program's per-row step ([`ScanProgram::match_row`]) against this
    /// detector's class tables and cells. The incremental detector matches
    /// every tuple a delta touches through here.
    pub(crate) fn match_row<F: Fn(AttrId) -> Code>(
        &self,
        members: Members,
        code: F,
        visit: impl FnMut(Hit<'_, F>) -> ControlFlow<()>,
    ) -> bool {
        let compiled = &*self.compiled;
        compiled
            .program
            .match_row(&compiled.alphabet, members, code, visit)
    }

    /// Decodes a coded group key back to the values it was issued for.
    pub fn decode_key(&self, key: &CodeVec) -> Vec<Value> {
        self.codec.read().dict.decode_all(key.as_slice())
    }

    /// Detects violations in a relation, returning the report without
    /// modifying the relation.
    pub fn detect(&self, relation: &Relation) -> Result<DetectionReport> {
        let (report, _) = self.detect_with_groups(relation)?;
        Ok(report)
    }

    /// Detects violations and also returns the group state, which is the seed
    /// state of the incremental detector.
    pub fn detect_with_groups(&self, relation: &Relation) -> Result<(DetectionReport, GroupMap)> {
        let (report, _, groups) = self.detect_full(relation)?;
        Ok((report, groups))
    }

    /// Detects violations and explains them: alongside the flag-level report,
    /// returns [`EvidenceReport`] records naming, for every flagged row, the
    /// violated constraint and pattern tuple — and for multi-tuple violations
    /// the offending group key.
    pub fn detect_with_evidence(
        &self,
        relation: &Relation,
    ) -> Result<(DetectionReport, EvidenceReport)> {
        let (report, evidence, _) = self.detect_full(relation)?;
        Ok((report, evidence))
    }

    /// The full scan behind every `detect*` entry point: flags, evidence and
    /// group state in one (possibly parallel) pass of the detector's
    /// [`ScanProgram`] over the relation. Deterministic at every worker
    /// count — see [`crate::scan`].
    pub fn detect_full(
        &self,
        relation: &Relation,
    ) -> Result<(DetectionReport, EvidenceReport, GroupMap)> {
        let encoded = self.encode(relation)?;
        self.scan(relation.schema(), &encoded.columns)
    }

    /// Encodes the base attributes of `relation` through the detector's
    /// dictionary: where a full pass, a session's freeze and an INCDETECT
    /// seed turn a stored table into codes ([`SemanticDetector::freeze`]
    /// keeps its own for callers outside a session). Columns the detector
    /// was not compiled against (BATCHDETECT's `SV` / `MV`) are left out; a
    /// relation whose attributes are not where the program reads them is
    /// refused.
    pub(crate) fn encode(&self, relation: &Relation) -> Result<EncodedTable> {
        self.check_layout(relation.schema())?;
        let arity = relation.schema().arity().min(self.schema().arity());
        let mut codec = self.codec.write();
        let columns = CodeColumns::build_prefix(relation, arity, &mut codec.dict);
        crate::obs::count("relation.rows.encoded", columns.num_rows() as u64);
        Ok(EncodedTable {
            stamp: relation.stamp(),
            columns,
        })
    }

    /// One full pass over columns this detector's dictionary issued, laid
    /// out as `schema` says: an [`EncodedTable`]'s, or the view an
    /// incremental state maintains. Encodes nothing.
    pub(crate) fn scan(
        &self,
        schema: &Schema,
        columns: &CodeColumns,
    ) -> Result<(DetectionReport, EvidenceReport, GroupMap)> {
        let codec = self.codec.read();
        self.scan_view(schema, columns, codec.dict.symbols())
    }

    /// Runs a full, read-only detection pass over a [`FrozenView`] — the
    /// serving layer's reader path. The frozen dictionary must descend from
    /// this detector's codec (e.g. produced by [`SemanticDetector::freeze`]
    /// or `IncrementalDetector::freeze`), so the class tables interned at
    /// construction time match its codes. Nothing is locked and nothing is
    /// interned: any number of threads can run this concurrently against the
    /// same handle, and the output is deterministic at every worker count —
    /// byte-identical to a from-scratch [`SemanticDetector::detect_with_evidence`]
    /// over the relation the view was frozen from.
    pub fn detect_frozen(
        &self,
        frozen: &FrozenView,
        schema: &Schema,
    ) -> Result<(DetectionReport, EvidenceReport)> {
        let (report, evidence, _) = self.scan_view(schema, frozen.view(), frozen.dict())?;
        Ok((report, evidence))
    }

    /// Encodes the first `base_arity` attributes of `relation` through the
    /// detector's dictionary and freezes the result together with the
    /// dictionary's symbol table as of that instant (shared by chunk, not
    /// copied): one consistent point-in-time unit that
    /// [`SemanticDetector::detect_frozen`] can re-scan without
    /// synchronisation. This is the snapshot-extraction primitive of the
    /// serving layer when no maintained view exists to share.
    pub fn freeze(&self, relation: &Relation, base_arity: usize) -> FrozenView {
        let mut codec = self.codec.write();
        let view = CodeColumns::build_prefix(relation, base_arity, &mut codec.dict);
        crate::obs::count("relation.rows.encoded", view.num_rows() as u64);
        FrozenView::new(view, codec.dict.symbols().clone())
    }

    /// One full pass of the program over already-encoded columns that
    /// follow `schema`: the single caller of the scan kernel, and the one
    /// place a pass is timed and counted. `dict` must be the symbol-table
    /// state (or a later state of the same lineage) of the dictionary that
    /// issued the view's codes.
    pub(crate) fn scan_view(
        &self,
        schema: &Schema,
        view: &CodeColumns,
        dict: &SymbolTable,
    ) -> Result<(DetectionReport, EvidenceReport, GroupMap)> {
        self.check_layout(schema)?;
        let pass_started = std::time::Instant::now();
        let compiled = &*self.compiled;
        let (report, evidence, groups) = crate::scan::run(
            &compiled.program,
            &compiled.alphabet,
            &compiled.provenance,
            view,
            dict,
            self.parallelism,
        );
        crate::obs::record_pass(
            "semantic",
            view.num_rows() as u64,
            groups.len() as u64,
            report.num_violations() as u64,
            pass_started.elapsed(),
        );
        Ok((report, evidence, groups))
    }

    /// The program addresses columns by the positions its attributes had in
    /// the construction schema. Columns appended after them (the `SV` / `MV`
    /// flags BATCHDETECT materialises) change nothing; a relation that names the attributes
    /// differently or lays them out in another order would be scanned on the
    /// wrong columns, so it is refused.
    fn check_layout(&self, schema: &Schema) -> Result<()> {
        let compiled = &*self.compiled;
        let table = compiled.schema.name();
        if schema.name() != table {
            return Err(CoreError::RelationMismatch {
                expected: table.to_string(),
                actual: schema.name().to_string(),
            }
            .into());
        }
        let moved = |(name, id): &&(String, AttrId)| schema.attr_id(name) != Some(*id);
        match compiled.alphabet.columns.iter().find(moved) {
            None => Ok(()),
            Some((name, id)) => Err(DetectError::Unsupported(format!(
                "the detector reads attribute {name} at column {id}, which is not where this \
                 {table} relation keeps it"
            ))),
        }
    }

    /// Resolves the split constraints against a (possibly extended) schema.
    pub fn bind<'a>(&'a self, schema: &Schema) -> Result<Vec<BoundECfd<'a>>> {
        self.compiled
            .singles
            .iter()
            .map(|e| BoundECfd::bind(e, schema).map_err(Into::into))
            .collect()
    }

    // ── cross-partition detection ─────────────────────────────────────────

    /// For every split constraint, whether its `X` contains `shard_attr` —
    /// the *partition-aligned* constraints of a serving layer that routes
    /// rows by that attribute's value. An aligned constraint's enforcement
    /// groups are complete within one partition (equal group keys imply an
    /// equal shard-attribute value, hence the same partition), so its
    /// multi-tuple violations resolve locally; the rest need the merge in
    /// [`SemanticDetector::merge_partials`]. Constraints with an empty `X`
    /// are never aligned.
    pub fn aligned_mask(&self, schema: &Schema, shard_attr: AttrId) -> Result<Vec<bool>> {
        let bounds = self.bind(schema)?;
        Ok(bounds
            .iter()
            .map(|b| b.lhs_ids().contains(&shard_attr))
            .collect())
    }

    /// Runs the scan over one partition of a row-partitioned relation and
    /// returns a mergeable partial result instead of a finished report:
    /// single-tuple violations and the evidence of `aligned` constraints are
    /// final (both are decided within the partition), while the group states
    /// of cross-partition constraints are exported *decoded* — each
    /// partition interns values in its own order, so dictionary codes are
    /// not comparable across partitions, but the decoded values are.
    ///
    /// `aligned` is indexed by split-constraint id (see
    /// [`SemanticDetector::aligned_mask`]).
    pub fn detect_partition(
        &self,
        frozen: &FrozenView,
        schema: &Schema,
        aligned: &[bool],
    ) -> Result<ShardPartial> {
        let dict = frozen.dict();
        let (_, evidence, groups) = self.scan_view(schema, frozen.view(), dict)?;
        let provenance = &self.compiled.provenance;
        let mut local_mv = Vec::new();
        let mut open = Vec::new();
        for (key, state) in groups {
            if aligned.get(key.0).copied().unwrap_or(false) {
                if state.violates() {
                    local_mv.push(state.record(&key, provenance, dict));
                }
            } else {
                open.push(OpenGroup {
                    ci: key.0,
                    key: dict.decode_all(key.1.as_slice()),
                    y_counts: state
                        .y_counts
                        .iter()
                        .map(|(y, n)| (dict.decode_all(y.as_slice()), *n))
                        .collect(),
                    rows: state.rows,
                });
            }
        }
        Ok(ShardPartial {
            total_rows: frozen.num_rows(),
            sv: evidence.sv,
            local_mv,
            open,
        })
    }

    /// Combines the partials of every partition into the global report and
    /// evidence — the serving-layer analogue of the scan's phase-2 shard
    /// merge. Open groups are merged by `(constraint, decoded key)`: partial
    /// `Y`-multiplicity maps are summed and a merged group violates iff it
    /// ends up with at least two distinct `Y` projections, exactly the
    /// single-pass criterion. The result is byte-identical to a from-scratch
    /// detection over the union of the partitions' rows (row ids are
    /// partition-global and the report/evidence shapes are order-normalized
    /// sets).
    pub fn merge_partials(&self, partials: Vec<ShardPartial>) -> (DetectionReport, EvidenceReport) {
        let total_rows = partials.iter().map(|p| p.total_rows).sum();
        let mut report = DetectionReport {
            total_rows,
            ..Default::default()
        };
        let mut evidence = EvidenceReport {
            total_rows,
            ..Default::default()
        };
        let mut merged: std::collections::BTreeMap<(usize, Vec<Value>), MergedGroup> =
            std::collections::BTreeMap::new();
        for partial in partials {
            for sv in partial.sv {
                report.sv_rows.insert(sv.row);
                evidence.sv.push(sv);
            }
            for mv in partial.local_mv {
                report.mv_rows.extend(mv.rows.iter().copied());
                evidence.mv_groups.push(mv);
            }
            for group in partial.open {
                let slot = merged.entry((group.ci, group.key)).or_default();
                for (y, n) in group.y_counts {
                    *slot.y_counts.entry(y).or_insert(0) += n;
                }
                slot.rows.extend(group.rows);
            }
        }
        for ((ci, key), state) in merged {
            if state.y_counts.len() > 1 {
                report.mv_rows.extend(state.rows.iter().copied());
                let (constraint, pattern) = self.compiled.provenance[ci];
                evidence.mv_groups.push(MvEvidence {
                    source: ConstraintRef::new(constraint, pattern),
                    group_key: key,
                    rows: state.rows.into_iter().collect(),
                });
            }
        }
        evidence.normalize();
        (report, evidence)
    }
}

/// One cross-partition enforcement group as exported by
/// [`SemanticDetector::detect_partition`]: the decoded group key, the decoded
/// `Y`-projection multiplicities, and the member rows. Decoded (value-level)
/// on purpose — each partition's dictionary interns in its own order, so
/// codes do not line up across partitions but values do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenGroup {
    /// Split-constraint id (index into [`SemanticDetector::singles`]).
    pub ci: usize,
    /// The group's decoded `X` projection.
    pub key: Vec<Value>,
    /// Count of member tuples per distinct decoded `Y` projection.
    pub y_counts: Vec<(Vec<Value>, usize)>,
    /// Every member row, in partition scan order.
    pub rows: Vec<RowId>,
}

/// The mergeable result of scanning one partition of a row-partitioned
/// relation: finished single-tuple evidence, finished multi-tuple evidence
/// for partition-aligned constraints, and open (cross-partition) group
/// states awaiting [`SemanticDetector::merge_partials`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPartial {
    /// Rows scanned in this partition.
    pub total_rows: usize,
    /// Single-tuple violation evidence (always partition-local).
    pub sv: Vec<SvEvidence>,
    /// Finished evidence of partition-aligned constraints' violating groups.
    pub local_mv: Vec<MvEvidence>,
    /// Group states of cross-partition constraints, decoded for merging.
    pub open: Vec<OpenGroup>,
}

/// Accumulator for one merged cross-partition group.
#[derive(Debug, Default)]
struct MergedGroup {
    y_counts: std::collections::BTreeMap<Vec<Value>, usize>,
    rows: Vec<RowId>,
}

/// Fig. 1's instance `D0` plus the two constraints of Fig. 2 — shared by the
/// tests of several modules in this crate.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;
    use ecfd_core::ECfdBuilder;
    use ecfd_relation::{DataType, Tuple};

    pub fn cust_schema() -> Schema {
        Schema::builder("cust")
            .attr("AC", DataType::Str)
            .attr("PN", DataType::Str)
            .attr("NM", DataType::Str)
            .attr("STR", DataType::Str)
            .attr("CT", DataType::Str)
            .attr("ZIP", DataType::Str)
            .build()
    }

    pub fn d0() -> Relation {
        Relation::with_tuples(
            cust_schema(),
            [
                Tuple::from_iter(["718", "1111111", "Mike", "Tree Ave.", "Albany", "12238"]),
                Tuple::from_iter(["518", "2222222", "Joe", "Elm Str.", "Colonie", "12205"]),
                Tuple::from_iter(["518", "2222222", "Jim", "Oak Ave.", "Troy", "12181"]),
                Tuple::from_iter(["100", "1111111", "Rick", "8th Ave.", "NYC", "10001"]),
                Tuple::from_iter(["212", "3333333", "Ben", "5th Ave.", "NYC", "10016"]),
                Tuple::from_iter(["646", "4444444", "Ian", "High St.", "NYC", "10011"]),
            ],
        )
        .unwrap()
    }

    pub fn phi1() -> ECfd {
        ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p.not_in("CT", ["NYC", "LI"]))
            .pattern(|p| {
                p.in_set("CT", ["Albany", "Troy", "Colonie"])
                    .constant("AC", "518")
            })
            .build()
            .unwrap()
    }

    pub fn phi2() -> ECfd {
        ECfdBuilder::new("cust")
            .lhs(["CT"])
            .pattern_rhs(["AC"])
            .pattern(|p| {
                p.constant("CT", "NYC")
                    .in_set("AC", ["212", "718", "646", "347", "917"])
            })
            .build()
            .unwrap()
    }

    /// An FD-style constraint that D0 violates with two tuples once we add a
    /// second Albany row with a different area code.
    pub fn fd_ct_ac() -> ECfd {
        ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p)
            .build()
            .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;
    use ecfd_relation::{Catalog, Tuple};

    #[test]
    fn d0_has_the_two_violations_of_example_2_2() {
        let detector = SemanticDetector::new(&cust_schema(), &[phi1(), phi2()]).unwrap();
        let db = d0();
        let report = detector.detect(&db).unwrap();
        let rows = db.row_ids();
        assert_eq!(report.sv_rows, [rows[0], rows[3]].into_iter().collect());
        assert!(report.mv_rows.is_empty());
        assert_eq!(report.num_violations(), 2);
    }

    #[test]
    fn multi_tuple_violations_flag_the_whole_group() {
        let mut db = d0();
        // A second Albany row with a different area code violates the FD part
        // of φ1's first pattern tuple together with t1.
        db.insert(Tuple::from_iter([
            "519", "7", "Zoe", "Pine St.", "Albany", "12239",
        ]))
        .unwrap();
        let detector = SemanticDetector::new(&cust_schema(), &[phi1()]).unwrap();
        let (report, groups) = detector.detect_with_groups(&db).unwrap();
        let rows = db.row_ids();
        assert!(report.mv_rows.contains(&rows[0]));
        assert!(report.mv_rows.contains(&rows[6]));
        assert_eq!(report.mv_rows.len(), 2);
        // The Albany group of the first single-pattern constraint violates.
        let albany_groups: Vec<&GroupState> = groups
            .iter()
            .filter(|((_, key), _)| detector.decode_key(key) == vec![Value::str("Albany")])
            .map(|(_, state)| state)
            .collect();
        assert!(albany_groups.iter().any(|g| g.violates()));
        // Membership is tracked alongside the counts.
        for g in &albany_groups {
            assert_eq!(g.rows.len(), g.size());
        }
    }

    #[test]
    fn detect_reads_a_batchdetect_flagged_table_like_its_base() {
        // BATCHDETECT materialises its flags as trailing `SV` / `MV` columns
        // of the caller's catalog; the native pass reads such a table by its
        // base attributes and agrees with the flags it carries.
        let constraints = [phi1(), phi2()];
        let mut catalog = Catalog::new();
        catalog.create(d0()).unwrap();
        let flags = crate::batch::BatchDetector::new(&cust_schema(), &constraints)
            .unwrap()
            .detect(&mut catalog)
            .unwrap();
        let flagged = catalog.get("cust").unwrap();
        assert_eq!(flagged.schema().arity(), cust_schema().arity() + 2);
        let detector = SemanticDetector::new(&cust_schema(), &constraints).unwrap();
        let report = detector.detect(flagged).unwrap();
        assert_eq!(report.num_sv(), 2);
        assert_eq!(report, flags);
        assert_eq!(
            report,
            DetectionReport::from_catalog(&catalog, "cust").unwrap()
        );
        assert_eq!(report, detector.detect(&d0()).unwrap());
    }

    #[test]
    fn group_state_size_and_violation() {
        let mut dict = Dictionary::new();
        let y518: CodeVec = [dict.encode(&Value::str("518"))].into_iter().collect();
        let y718: CodeVec = [dict.encode(&Value::str("718"))].into_iter().collect();
        let mut state = GroupState::default();
        *state.y_counts.entry(y518).or_insert(0) += 2;
        assert_eq!(state.size(), 2);
        assert!(!state.violates());
        *state.y_counts.entry(y718).or_insert(0) += 1;
        assert_eq!(state.size(), 3);
        assert!(state.violates());
    }

    #[test]
    fn agreement_with_the_core_reference_semantics() {
        // The detector must agree with ecfd_core::satisfaction on every flag.
        let mut db = d0();
        db.insert(Tuple::from_iter([
            "519", "7", "Zoe", "Pine St.", "Albany", "12239",
        ]))
        .unwrap();
        let constraints = [phi1(), phi2(), fd_ct_ac()];
        let detector = SemanticDetector::new(&cust_schema(), &constraints).unwrap();
        let report = detector.detect(&db).unwrap();
        let reference = ecfd_core::satisfaction::check_all(&db, &constraints).unwrap();
        let expected = DetectionReport::from_violation_set(reference.violations(), db.len());
        assert_eq!(report.sv_rows, expected.sv_rows);
        assert_eq!(report.mv_rows, expected.mv_rows);
    }

    #[test]
    fn parallel_detection_matches_sequential_detection() {
        // Enough rows to clear the sequential-scan cutoff at Fixed(4).
        let mut db = d0();
        for i in 0..4000 {
            let city = ["Albany", "Troy", "NYC", "Colonie", "Utica"][i % 5];
            let ac = ["518", "718", "212", "519"][i % 4];
            db.insert(Tuple::from_iter([ac, "0", "Gen", "Any St.", city, "00000"]))
                .unwrap();
        }
        let constraints = [phi1(), phi2(), fd_ct_ac()];
        let sequential = SemanticDetector::new(&cust_schema(), &constraints)
            .unwrap()
            .with_parallelism(Parallelism::Fixed(1));
        let parallel = SemanticDetector::new(&cust_schema(), &constraints)
            .unwrap()
            .with_parallelism(Parallelism::Fixed(4));
        let (seq_report, seq_evidence, seq_groups) = sequential.detect_full(&db).unwrap();
        let (par_report, par_evidence, par_groups) = parallel.detect_full(&db).unwrap();
        assert_eq!(seq_report, par_report);
        assert_eq!(seq_evidence, par_evidence);
        // Group maps agree key-for-key once decoded through each dictionary.
        assert_eq!(seq_groups.len(), par_groups.len());
        let canon = |det: &SemanticDetector, groups: &GroupMap| {
            let mut out: Vec<(usize, Vec<Value>, usize, Vec<RowId>)> = groups
                .iter()
                .map(|((ci, key), state)| {
                    (*ci, det.decode_key(key), state.size(), state.rows.clone())
                })
                .collect();
            out.sort();
            out
        };
        assert_eq!(
            canon(&sequential, &seq_groups),
            canon(&parallel, &par_groups)
        );
    }

    #[test]
    fn evidence_names_the_violated_constraints_of_example_2_2() {
        use crate::evidence::ConstraintRef;
        let detector = SemanticDetector::new(&cust_schema(), &[phi1(), phi2()]).unwrap();
        let db = d0();
        let (report, evidence) = detector.detect_with_evidence(&db).unwrap();
        assert_eq!(evidence.detection_report(), report);
        let rows = db.row_ids();
        // t1 (Albany, 718) violates the second pattern tuple of φ1;
        // t4 (NYC, 100) violates the single pattern tuple of φ2.
        assert_eq!(
            evidence.sv_pairs(),
            [
                (rows[0], ConstraintRef::new(0, 1)),
                (rows[3], ConstraintRef::new(1, 0)),
            ]
            .into_iter()
            .collect()
        );
        assert!(evidence.mv_groups.is_empty());
    }

    #[test]
    fn mv_evidence_reports_the_offending_group_key() {
        let mut db = d0();
        db.insert(Tuple::from_iter([
            "519", "7", "Zoe", "Pine St.", "Albany", "12239",
        ]))
        .unwrap();
        let detector = SemanticDetector::new(&cust_schema(), &[phi1()]).unwrap();
        let (_, evidence) = detector.detect_with_evidence(&db).unwrap();
        // Albany matches both pattern tuples of φ1 → one violating group per
        // pattern tuple, same key, same two member rows.
        assert_eq!(evidence.num_groups(), 2);
        for group in &evidence.mv_groups {
            assert_eq!(group.group_key, vec![Value::str("Albany")]);
            assert_eq!(group.rows.len(), 2);
            assert_eq!(group.source.constraint, 0);
        }
    }

    #[test]
    fn frozen_detection_matches_live_detection_and_survives_later_writes() {
        let mut db = d0();
        db.insert(Tuple::from_iter([
            "519", "7", "Zoe", "Pine St.", "Albany", "12239",
        ]))
        .unwrap();
        let detector = SemanticDetector::new(&cust_schema(), &[phi1(), phi2(), fd_ct_ac()])
            .unwrap()
            .with_parallelism(Parallelism::Fixed(1));
        let (live_report, live_evidence) = detector.detect_with_evidence(&db).unwrap();

        let frozen = detector.freeze(&db, cust_schema().arity());
        // Mutate the relation *and* the shared dictionary after the freeze.
        db.insert(Tuple::from_iter([
            "999",
            "8",
            "New",
            "Post-freeze",
            "Utica",
            "13501",
        ]))
        .unwrap();
        detector.detect(&db).unwrap();

        let (frozen_report, frozen_evidence) =
            detector.detect_frozen(&frozen, &cust_schema()).unwrap();
        assert_eq!(frozen_report, live_report, "frozen scan is isolated");
        assert_eq!(frozen_evidence, live_evidence);

        // Concurrent frozen scans on clones agree at other worker counts.
        let parallel = detector.clone().with_parallelism(Parallelism::Fixed(4));
        let handle = frozen.clone();
        let out = std::thread::spawn(move || parallel.detect_frozen(&handle, &cust_schema()))
            .join()
            .unwrap()
            .unwrap();
        assert_eq!(out.0, live_report);
        assert_eq!(out.1, live_evidence);
    }

    #[test]
    fn partition_merge_matches_single_pass_detection() {
        use ecfd_relation::shard_of_value;
        let mut db = d0();
        db.insert(Tuple::from_iter([
            "519", "7", "Zoe", "Pine St.", "Albany", "12239",
        ]))
        .unwrap();
        for i in 0..40 {
            let city = ["Albany", "Troy", "NYC", "Colonie"][i % 4];
            let ac = ["518", "718", "212"][i % 3];
            db.insert(Tuple::from_iter([ac, "0", "Gen", "Any St.", city, "00000"]))
                .unwrap();
        }
        let constraints = [phi1(), phi2(), fd_ct_ac()];
        let schema = cust_schema();
        let oracle = SemanticDetector::new(&schema, &constraints).unwrap();
        let (want_report, want_evidence) = oracle.detect_with_evidence(&db).unwrap();

        // Route by AC: φ1 / fd_ct_ac group on CT, so their groups straddle
        // partitions (cross-shard); route by CT and they stay aligned. Both
        // routes must reproduce the single-pass result exactly.
        for shard_key in ["AC", "CT"] {
            let attr = schema.require_attr(shard_key).unwrap();
            for shards in [1usize, 2, 4] {
                let mut parts: Vec<Vec<(RowId, Tuple)>> = vec![Vec::new(); shards];
                for (id, t) in db.iter() {
                    parts[shard_of_value(t.value(attr), shards)].push((id, t.clone()));
                }
                let mut partials = Vec::new();
                let mut mask = None;
                for rows in parts {
                    let rel = Relation::with_rows(schema.clone(), rows).unwrap();
                    let det = SemanticDetector::new(&schema, &constraints).unwrap();
                    let aligned = det.aligned_mask(&schema, attr).unwrap();
                    let frozen = det.freeze(&rel, schema.arity());
                    partials.push(det.detect_partition(&frozen, &schema, &aligned).unwrap());
                    mask = Some(aligned);
                }
                let mask = mask.unwrap();
                // CT-routing aligns the CT-grouping constraints; AC-routing
                // leaves them open.
                assert_eq!(mask.iter().any(|&a| a), shard_key == "CT");
                let (report, evidence) = oracle.merge_partials(partials);
                assert_eq!(report, want_report, "key={shard_key} shards={shards}");
                assert_eq!(evidence, want_evidence, "key={shard_key} shards={shards}");
            }
        }
    }

    #[test]
    fn clean_data_produces_a_clean_report() {
        let db = Relation::with_tuples(
            cust_schema(),
            [
                Tuple::from_iter(["518", "1", "A", "S", "Albany", "12238"]),
                Tuple::from_iter(["212", "2", "B", "S", "NYC", "10001"]),
            ],
        )
        .unwrap();
        let detector = SemanticDetector::new(&cust_schema(), &[phi1(), phi2()]).unwrap();
        assert!(detector.detect(&db).unwrap().is_clean());
    }

    #[test]
    fn a_relation_laid_out_differently_is_refused_not_misread() {
        // Column positions are resolved once, at construction. The same
        // attributes in another order would put AC's codes under CT.
        let detector = SemanticDetector::new(&cust_schema(), &[phi1(), phi2()]).unwrap();
        let reordered = Schema::builder("cust")
            .attr("CT", ecfd_relation::DataType::Str)
            .attr("AC", ecfd_relation::DataType::Str)
            .build();
        let db = Relation::with_tuples(reordered, [Tuple::from_iter(["Albany", "718"])]).unwrap();
        assert!(matches!(
            detector.detect(&db),
            Err(DetectError::Unsupported(_))
        ));
        let renamed = Relation::new(cust_schema().renamed("orders"));
        assert!(matches!(
            detector.detect(&renamed),
            Err(DetectError::Core(CoreError::RelationMismatch { .. }))
        ));
        // Trailing columns (BATCHDETECT's flags) do not move the base
        // attributes.
        let flagged = d0()
            .extend_schema(
                vec![ecfd_relation::Attribute::new(
                    "SV",
                    ecfd_relation::DataType::Int,
                )],
                Value::Int(0),
            )
            .unwrap();
        assert_eq!(detector.detect(&flagged).unwrap().num_sv(), 2);
    }

    #[test]
    #[should_panic(expected = "not compiled from this detector's constraint set")]
    fn a_program_for_another_set_is_rejected() {
        let narrow = SemanticDetector::new(&cust_schema(), &[phi2()]).unwrap();
        let wide = SemanticDetector::new(&cust_schema(), &[phi1(), phi2()]).unwrap();
        let _ = wide.with_program(narrow.program().clone());
    }
}
