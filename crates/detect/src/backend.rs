//! Pluggable detector backends: one trait in front of the three detection
//! strategies of the crate.
//!
//! There are three ways to keep violation flags correct — the paper's full
//! SQL pass (`BATCHDETECT`, kept verbatim as the fidelity reference), its
//! incremental maintenance (`INCDETECT`), and the reproduction's native
//! semantic detector, whose full passes run a shared-scan program through
//! the one scan kernel ([`crate::scan`]; `ecfd_plan` renders that program
//! for `EXPLAIN PLAN` and can substitute the unfused contrast program via
//! [`SemanticBackend::with_program`]). Callers that only want *the flags
//! kept right* should not have to care which one runs; [`DetectorBackend`]
//! gives them a single interface:
//!
//! * [`DetectorBackend::detect`] — a full detection pass over the backend's
//!   catalog table, returning the flag-level [`DetectionReport`] together
//!   with the attributing [`EvidenceReport`];
//! * [`DetectorBackend::apply`] — apply a base-schema [`Delta`] to the table
//!   and return the post-update report/evidence, maintaining whatever state
//!   the backend keeps. Both come back as a [`ReadOut`] — behind `Arc`s,
//!   because the incremental backend hands out the pair it maintains rather
//!   than rebuilding one per delta;
//! * [`DetectorBackend::invalidate`] — drop whatever state the backend keeps.
//!
//! The two native backends keep state between calls, and both of them key
//! it by the table's [`Relation::stamp`](ecfd_relation::Relation::stamp), so
//! neither ever serves it for contents it was not built from, whoever
//! changed the rows:
//!
//! * [`SemanticBackend`] keeps the [`EncodedTable`] its last pass read. A
//!   pass over an unchanged table rescans those columns and encodes
//!   nothing; any other pass encodes the table once and keeps that instead.
//! * [`IncrementalBackend`] keeps its maintained [`IncrementalDetector`],
//!   whose view is the table's encoding too. A seed adopts an encoding
//!   handed to it ([`IncrementalBackend::detect_from`] /
//!   [`IncrementalBackend::apply_from`]) and a warm re-seed rescans its own
//!   view; only a seed with neither encodes.
//!
//! A session entry holding both backends hands the first one's encoding to
//! the second's seed and, while the incremental state is warm, lets full
//! passes scan its view ([`SemanticBackend::detect_over`]), so it keeps one
//! encoding of the table at a time.
//!
//! All three implementations are constructed from one compiled
//! [`ecfd_core::ConstraintSet`], so the validate/normalize/split work happens
//! once per registration, not once per backend; the two native ones also
//! take one already-compiled [`SemanticDetector`] (`new`), so they share its
//! scan program and dictionary. The differential contract —
//! every backend produces the same report and (normalized) evidence on the
//! same data — is asserted by this module's tests and by the workspace-level
//! differential suite.

use crate::batch::BatchDetector;
use crate::evidence::EvidenceReport;
use crate::incremental::IncrementalDetector;
use crate::parallel::Parallelism;
use crate::report::DetectionReport;
use crate::scan::ScanProgram;
use crate::semantic::{EncodedTable, SemanticDetector};
use crate::{DetectError, Result};
use ecfd_core::ConstraintSet;
use ecfd_relation::{Catalog, Delta, FrozenView, Relation, Schema};
use std::fmt;
use std::sync::Arc;

/// What a backend answers with: the flag-level report and the evidence
/// behind it, shared by reference count so that caching one and publishing
/// it in a snapshot copies neither.
pub type ReadOut = (Arc<DetectionReport>, Arc<EvidenceReport>);

/// Names one of the three detection strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BackendKind {
    /// The native detector (`SemanticDetector`): the shared-scan program of
    /// [`crate::scan`] over the dictionary-coded columnar core. The fast
    /// path for full passes.
    Semantic,
    /// The SQL-based batch detector (`BatchDetector`, the paper's
    /// `BATCHDETECT`). Its role is fidelity, not speed: it is the paper's
    /// technique verbatim and the reference the native scan is diffed
    /// against.
    Sql,
    /// The incremental maintainer (`IncrementalDetector`, the paper's
    /// `INCDETECT`).
    Incremental,
}

impl BackendKind {
    /// All kinds, in a stable order (useful for differential sweeps).
    pub const ALL: [BackendKind; 3] = [
        BackendKind::Semantic,
        BackendKind::Sql,
        BackendKind::Incremental,
    ];

    /// The lowercase name, as used in `detect.pass.ns{backend=…}` metric
    /// labels and by [`fmt::Display`].
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::Semantic => "semantic",
            BackendKind::Sql => "sql",
            BackendKind::Incremental => "incremental",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A detection strategy hidden behind a uniform detect/apply interface.
///
/// Implementations operate on one named table of a [`Catalog`] (fixed at
/// construction). The flags live only in the returned [`ReadOut`]: a detect
/// leaves the catalog exactly as it was, and an apply changes nothing but
/// the table's rows, so switching backends mid-stream sees the same catalog.
pub trait DetectorBackend {
    /// Which strategy this backend runs.
    fn kind(&self) -> BackendKind;

    /// The catalog table the backend detects on.
    fn table(&self) -> &str;

    /// Runs a full detection pass, returning flags and evidence.
    fn detect(&mut self, catalog: &mut Catalog) -> Result<ReadOut>;

    /// Applies a batch of base-schema updates to the table and returns the
    /// post-update flags and evidence.
    fn apply(&mut self, catalog: &mut Catalog, delta: &Delta) -> Result<ReadOut>;

    /// Drops any maintained state. Call after the table was mutated outside
    /// this backend; the next [`DetectorBackend::detect`] or
    /// [`DetectorBackend::apply`] rebuilds from the current table contents.
    fn invalidate(&mut self) {}
}

/// Applies a base-schema delta to the stored table `base` names. A delta
/// that does not fit is refused before anything moves: the table must carry
/// exactly the base attributes (not the `SV` / `MV` columns a
/// [`BatchDetector`] run leaves behind) and every insertion must fit `base`.
/// Then deletions match whole stored tuples (all duplicates go, processed in
/// victim order) and insertions are stored as given. Mirrors the mutation
/// order of [`IncrementalDetector::apply`] so that row ids stay identical
/// across backends fed the same delta sequence.
pub fn apply_base_delta(catalog: &mut Catalog, base: &Schema, delta: &Delta) -> Result<()> {
    let relation = catalog.get_mut(base.name())?;
    refuse_extra_columns(relation.schema(), base)?;
    for ins in &delta.insertions {
        base.validate(ins)?;
    }
    for victim in &delta.deletions {
        relation.delete_matching(victim);
    }
    for ins in &delta.insertions {
        relation.insert(ins.clone())?;
    }
    Ok(())
}

/// Refuses a stored table that carries columns beyond `base`: the `SV` /
/// `MV` flags a [`BatchDetector`] run on the caller's own catalog leaves
/// behind. Maintenance stores exactly the base attributes, so such a table
/// is refused up front instead of half-maintained.
pub(crate) fn refuse_extra_columns(stored: &Schema, base: &Schema) -> Result<()> {
    let extra: Vec<&str> = stored.attr_names().into_iter().skip(base.arity()).collect();
    if extra.is_empty() {
        return Ok(());
    }
    Err(DetectError::Unsupported(format!(
        "table {} carries columns {} beyond its base schema; maintain a copy of the base rows \
         instead",
        base.name(),
        extra.join(", ")
    )))
}

/// The native detector as a backend. It keeps the encoding of the table
/// version its last pass read: a `detect` on an unchanged table rescans
/// those columns, and encodes the table (once) only when its stamp moved.
#[derive(Debug, Clone)]
pub struct SemanticBackend {
    detector: SemanticDetector,
    kept: Option<EncodedTable>,
}

impl SemanticBackend {
    /// Builds the backend from a compiled constraint set.
    pub fn from_set(set: &ConstraintSet) -> Self {
        Self::new(SemanticDetector::from_set(set))
    }

    /// Wraps an already-compiled detector, on the table its schema names.
    pub fn new(detector: SemanticDetector) -> Self {
        SemanticBackend {
            detector,
            kept: None,
        }
    }

    /// Replaces the program the wrapped detector executes (see
    /// [`SemanticDetector::with_program`], including when it panics).
    pub fn with_program(mut self, program: ScanProgram) -> Self {
        self.detector = self.detector.with_program(program);
        self
    }

    /// Sets the worker fan-out of subsequent detection passes.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.detector.set_parallelism(parallelism);
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &SemanticDetector {
        &self.detector
    }

    /// Makes the kept encoding describe `relation`, encoding it when the
    /// kept one does not (the stale one is dropped first, so two are never
    /// alive at once).
    fn keep(&mut self, relation: &Relation) -> Result<()> {
        if !self.kept.as_ref().is_some_and(|e| e.describes(relation)) {
            self.kept = None;
            self.kept = Some(self.detector.encode(relation)?);
        }
        Ok(())
    }

    /// Freezes the kept encoding of `relation` — encoding it first unless
    /// the last pass read this very version — with the dictionary's current
    /// symbols. The frozen view shares the kept chunks.
    pub fn freeze(&mut self, relation: &Relation) -> Result<FrozenView> {
        self.keep(relation)?;
        let kept = self.kept.as_ref().expect("kept above");
        let codec = self.detector.codec().read();
        Ok(FrozenView::new(
            kept.columns.clone(),
            codec.dict.symbols().clone(),
        ))
    }

    /// Hands the kept encoding over, e.g. to an incremental seed that adopts
    /// it, keeping none.
    pub fn take_encoded(&mut self) -> Option<EncodedTable> {
        self.kept.take()
    }

    /// A full pass over the view a warm incremental state maintains for the
    /// current table, keeping nothing: the state's columns are the table's
    /// encoding already.
    pub fn detect_over(&self, state: &IncrementalDetector) -> Result<ReadOut> {
        let (report, evidence, _) = self
            .detector
            .scan(self.detector.schema(), state.columns())?;
        Ok((Arc::new(report), Arc::new(evidence)))
    }
}

impl DetectorBackend for SemanticBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Semantic
    }

    fn table(&self) -> &str {
        self.detector.schema().name()
    }

    fn detect(&mut self, catalog: &mut Catalog) -> Result<ReadOut> {
        let relation = catalog.get(self.table())?;
        self.keep(relation)?;
        let kept = self.kept.as_ref().expect("kept above");
        let (report, evidence, _) = self.detector.scan(relation.schema(), &kept.columns)?;
        Ok((Arc::new(report), Arc::new(evidence)))
    }

    fn apply(&mut self, catalog: &mut Catalog, delta: &Delta) -> Result<ReadOut> {
        apply_base_delta(catalog, self.detector.schema(), delta)?;
        self.detect(catalog)
    }

    fn invalidate(&mut self) {
        self.kept = None;
    }
}

/// The SQL batch detector as a backend: stateless between calls, every
/// `detect` replays the fixed pair of detection statements — on a scratch
/// catalog holding a copy of the table, so the encoding, the auxiliary
/// relation and the `SV` / `MV` columns never reach the caller's catalog.
#[derive(Debug, Clone)]
pub struct SqlBackend {
    detector: BatchDetector,
}

impl SqlBackend {
    /// Builds the backend from a compiled constraint set. Fails when the set
    /// is outside the SQL encoding's envelope (non-string constrained
    /// attributes) — the other two backends have no such restriction.
    pub fn from_set(set: &ConstraintSet) -> Result<Self> {
        Ok(SqlBackend {
            detector: BatchDetector::from_set(set)?,
        })
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &BatchDetector {
        &self.detector
    }
}

impl DetectorBackend for SqlBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sql
    }

    fn table(&self) -> &str {
        self.detector.encoding().schema().name()
    }

    fn detect(&mut self, catalog: &mut Catalog) -> Result<ReadOut> {
        let mut scratch = Catalog::new();
        scratch.create(catalog.get(self.table())?.clone())?;
        let (report, evidence) = self.detector.detect_with_evidence(&mut scratch)?;
        Ok((Arc::new(report), Arc::new(evidence)))
    }

    fn apply(&mut self, catalog: &mut Catalog, delta: &Delta) -> Result<ReadOut> {
        apply_base_delta(catalog, self.detector.encoding().schema(), delta)?;
        self.detect(catalog)
    }
}

/// The incremental maintainer as a backend: the first `detect`/`apply` seeds
/// the auxiliary group state with a full pass, subsequent `apply` calls touch
/// only the affected tuples and groups — the answer included, which is the
/// detector's maintained read-out handed over by reference count.
/// Every seed clones the backend's one detector, so re-seeding never
/// recompiles and every seed encodes through the same dictionary. The state
/// is used only while it [describes](IncrementalDetector::describes) the
/// table; one that does not is re-seeded.
#[derive(Debug, Clone)]
pub struct IncrementalBackend {
    detector: SemanticDetector,
    state: Option<IncrementalDetector>,
}

impl IncrementalBackend {
    /// Builds the backend from a compiled constraint set. No detection work
    /// happens until the first `detect` / `apply` call.
    pub fn from_set(set: &ConstraintSet) -> Self {
        Self::new(SemanticDetector::from_set(set))
    }

    /// Wraps an already-compiled detector, which every seed clones.
    pub fn new(detector: SemanticDetector) -> Self {
        IncrementalBackend {
            detector,
            state: None,
        }
    }

    /// Sets the worker fan-out used by the seeding detection pass (the
    /// per-delta maintenance itself touches only affected tuples and stays
    /// sequential).
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.detector.set_parallelism(parallelism);
    }

    /// Seeds a state over the current table without keeping it, e.g. for a
    /// repair loop to drive and hand back via [`IncrementalBackend::put_state`].
    /// The state adopts `encoded` when it describes the table (see
    /// [`IncrementalDetector::initialize_from`]).
    pub fn seed(
        &self,
        catalog: &mut Catalog,
        encoded: Option<EncodedTable>,
    ) -> Result<IncrementalDetector> {
        IncrementalDetector::initialize_from(self.detector.clone(), catalog, encoded)
    }

    /// The maintained detector when it describes `relation` as it is now.
    /// A state that does not is dropped here.
    pub fn warm(&mut self, relation: &Relation) -> Option<&IncrementalDetector> {
        if !self.state.as_ref().is_some_and(|s| s.describes(relation)) {
            self.state = None;
        }
        self.state.as_ref()
    }

    /// [`DetectorBackend::detect`], re-seeding the state. A warm state that
    /// describes the table is re-seeded from its own view; otherwise the
    /// seed adopts `encoded` (or encodes the table when that does not
    /// describe it either).
    pub fn detect_from(
        &mut self,
        catalog: &mut Catalog,
        encoded: Option<EncodedTable>,
    ) -> Result<ReadOut> {
        let relation = catalog.get(self.table())?;
        let encoded = match self.state.take() {
            Some(state) if state.describes(relation) => Some(state.into_encoded()),
            _ => encoded,
        };
        let state = self.state.insert(self.seed(catalog, encoded)?);
        Ok(Self::read_out(state))
    }

    /// [`DetectorBackend::apply`], seeding first — adopting `encoded` when
    /// it describes the table — unless a warm state describes the table.
    pub fn apply_from(
        &mut self,
        catalog: &mut Catalog,
        delta: &Delta,
        encoded: Option<EncodedTable>,
    ) -> Result<ReadOut> {
        if self.warm(catalog.get(self.table())?).is_none() {
            self.state = Some(self.seed(catalog, encoded)?);
        }
        let state = self.state.as_mut().expect("seeded above");
        state.apply(catalog, delta)?;
        Ok(Self::read_out(state))
    }

    /// The maintained detector, if seeded: `Some` while the state is warm
    /// (an `apply` will be incremental rather than seed with a full pass).
    pub fn detector(&self) -> Option<&IncrementalDetector> {
        self.state.as_ref()
    }

    /// Hands the maintained detector to the caller when it describes
    /// `relation` (leaving this backend cold either way), e.g. so a repair
    /// loop can drive it directly. Pair with
    /// [`IncrementalBackend::put_state`] to hand it back.
    pub fn take_state(&mut self, relation: &Relation) -> Option<IncrementalDetector> {
        self.state.take().filter(|s| s.describes(relation))
    }

    /// Restores a detector previously obtained via
    /// [`IncrementalBackend::take_state`]. A state that no longer describes
    /// the table is dropped, not used, at its next use.
    pub fn put_state(&mut self, state: IncrementalDetector) {
        self.state = Some(state);
    }

    /// The detector's maintained report and evidence: seeded by the full
    /// pass, kept current by every `apply` — never re-derived.
    fn read_out(state: &IncrementalDetector) -> ReadOut {
        (
            state.maintained_report().clone(),
            state.maintained_evidence().clone(),
        )
    }
}

impl DetectorBackend for IncrementalBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Incremental
    }

    fn table(&self) -> &str {
        self.detector.schema().name()
    }

    fn detect(&mut self, catalog: &mut Catalog) -> Result<ReadOut> {
        self.detect_from(catalog, None)
    }

    fn apply(&mut self, catalog: &mut Catalog, delta: &Delta) -> Result<ReadOut> {
        self.apply_from(catalog, delta, None)
    }

    fn invalidate(&mut self) {
        self.state = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::fixtures::{cust_schema, d0, fd_ct_ac, phi1, phi2};
    use ecfd_relation::{RowId, Tuple, Value};

    fn backends(set: &ConstraintSet) -> Vec<Box<dyn DetectorBackend>> {
        vec![
            Box::new(SemanticBackend::from_set(set)),
            Box::new(SqlBackend::from_set(set).unwrap()),
            Box::new(IncrementalBackend::from_set(set)),
        ]
    }

    fn catalog_with_d0() -> Catalog {
        let mut catalog = Catalog::new();
        catalog.create(d0()).unwrap();
        catalog
    }

    #[test]
    fn all_backends_agree_through_the_trait() {
        let set = ConstraintSet::compile(&cust_schema(), &[phi1(), phi2(), fd_ct_ac()]).unwrap();
        let mut outputs = Vec::new();
        for mut backend in backends(&set) {
            let mut catalog = catalog_with_d0();
            assert_eq!(backend.table(), "cust");
            let (report, evidence) = backend.detect(&mut catalog).unwrap();
            assert_eq!(evidence.detection_report(), *report);
            outputs.push((backend.kind(), report, evidence.normalized()));
        }
        for pair in outputs.windows(2) {
            assert_eq!(pair[0].1, pair[1].1, "{} vs {}", pair[0].0, pair[1].0);
            assert_eq!(pair[0].2, pair[1].2, "{} vs {}", pair[0].0, pair[1].0);
        }
    }

    #[test]
    fn all_backends_agree_after_a_mixed_delta() {
        let set = ConstraintSet::compile(&cust_schema(), &[phi1(), phi2()]).unwrap();
        let delta = Delta {
            insertions: vec![
                Tuple::from_iter(["519", "7", "Zoe", "Pine St.", "Albany", "12239"]),
                Tuple::from_iter(["999", "8", "Sam", "Bay Rd.", "NYC", "10002"]),
            ],
            deletions: vec![Tuple::from_iter([
                "100", "1111111", "Rick", "8th Ave.", "NYC", "10001",
            ])],
        };
        let mut outputs = Vec::new();
        for mut backend in backends(&set) {
            let mut catalog = catalog_with_d0();
            backend.detect(&mut catalog).unwrap();
            let (report, evidence) = backend.apply(&mut catalog, &delta).unwrap();
            outputs.push((backend.kind(), report, evidence.normalized()));
        }
        for pair in outputs.windows(2) {
            assert_eq!(pair[0].1, pair[1].1, "{} vs {}", pair[0].0, pair[1].0);
            assert_eq!(pair[0].2, pair[1].2, "{} vs {}", pair[0].0, pair[1].0);
        }
    }

    #[test]
    fn a_delta_with_a_bad_insertion_is_refused_whole_by_every_backend() {
        let set = ConstraintSet::compile(&cust_schema(), &[phi1(), phi2()]).unwrap();
        let t2 = Tuple::from_iter(["518", "2222222", "Joe", "Elm Str.", "Colonie", "12205"]);
        let good = |pn: &str| Tuple::from_iter(["519", pn, "Zoe", "Pine St.", "Albany", "12239"]);
        let fits = good("9").values().to_vec();
        let mut int_tail = fits.clone();
        int_tail.push(Value::Int(1));
        let mut int_in_str = fits.clone();
        int_in_str[4] = Value::Int(7);
        let bad_tuples = [int_tail, fits[..5].to_vec(), int_in_str];
        let stored = |catalog: &Catalog| -> Vec<(RowId, Tuple)> {
            let relation = catalog.get("cust").unwrap();
            relation.iter().map(|(id, t)| (id, t.clone())).collect()
        };
        for bad in bad_tuples {
            for mut backend in backends(&set) {
                let kind = backend.kind();
                let mut catalog = catalog_with_d0();
                let before = backend.detect(&mut catalog).unwrap();
                let rows = stored(&catalog);
                let delta = Delta {
                    deletions: vec![t2.clone()],
                    insertions: vec![good("1"), good("2"), Tuple::new(bad.clone())],
                };
                let refused = backend.apply(&mut catalog, &delta);
                assert!(refused.is_err(), "{kind} accepted {bad:?}");
                assert_eq!(stored(&catalog), rows, "{kind} moved rows for {bad:?}");
                let after = backend.detect(&mut catalog).unwrap();
                assert_eq!(after, before, "{kind} after refusing {bad:?}");
            }
        }
    }

    #[test]
    fn a_batchdetect_flagged_table_is_refused_before_anything_moves() {
        // Only a caller running BATCHDETECT on their own catalog produces a
        // table with `SV` / `MV` columns. A full pass still reads it by its
        // base attributes; maintaining it is refused, naming the columns.
        let set = ConstraintSet::compile(&cust_schema(), &[phi1(), phi2()]).unwrap();
        let mut catalog = catalog_with_d0();
        let mut seeded_before = IncrementalDetector::from_set(&set, &mut catalog).unwrap();
        let flags = BatchDetector::from_set(&set)
            .unwrap()
            .detect(&mut catalog)
            .unwrap();
        let stored = catalog.get("cust").unwrap().clone();
        let delta = Delta {
            deletions: vec![Tuple::from_iter([
                "518", "2222222", "Joe", "Elm Str.", "Colonie", "12205",
            ])],
            insertions: vec![Tuple::from_iter([
                "519", "7", "Zoe", "Pine St.", "Albany", "12239",
            ])],
        };
        for mut backend in backends(&set) {
            let kind = backend.kind();
            if kind != BackendKind::Incremental {
                let (report, _) = backend.detect(&mut catalog).unwrap();
                assert_eq!(*report, flags, "{kind}");
            }
            let refused = backend.apply(&mut catalog, &delta).unwrap_err();
            assert!(refused.to_string().contains("SV, MV"), "{kind}: {refused}");
            assert_eq!(catalog.get("cust").unwrap(), &stored, "{kind}");
        }
        // A detector seeded before the columns appeared refuses too, rather
        // than landing the deletion and failing on the insertion.
        let refused = seeded_before.apply(&mut catalog, &delta).unwrap_err();
        assert!(refused.to_string().contains("SV, MV"), "{refused}");
        assert_eq!(catalog.get("cust").unwrap(), &stored);
    }

    #[test]
    fn apply_without_detect_seeds_the_incremental_state() {
        let set = ConstraintSet::compile(&cust_schema(), &[phi1()]).unwrap();
        let mut backend = IncrementalBackend::from_set(&set);
        assert!(backend.detector().is_none());
        let mut catalog = catalog_with_d0();
        let delta = Delta::insert_only(vec![Tuple::from_iter([
            "519", "7", "Zoe", "Pine St.", "Albany", "12239",
        ])]);
        let (report, _) = backend.apply(&mut catalog, &delta).unwrap();
        assert!(backend.detector().is_some());
        assert_eq!(report.num_mv(), 2, "the two Albany rows now conflict");

        backend.invalidate();
        assert!(backend.detector().is_none());
        // A fresh detect after invalidation reproduces the same picture.
        let (after, _) = backend.detect(&mut catalog).unwrap();
        assert_eq!(after, report);
    }

    #[test]
    fn sql_backend_reports_unsupported_schemas() {
        use ecfd_core::ECfdBuilder;
        use ecfd_relation::DataType;
        let schema = ecfd_relation::Schema::builder("t")
            .attr("A", DataType::Int)
            .attr("B", DataType::Str)
            .build();
        let phi = ECfdBuilder::new("t")
            .lhs(["A"])
            .fd_rhs(["B"])
            .pattern(|p| p)
            .build()
            .unwrap();
        let set = ConstraintSet::compile(&schema, &[phi]).unwrap();
        assert!(SqlBackend::from_set(&set).is_err());
        // The semantic backend handles the same set fine.
        let mut catalog = Catalog::new();
        catalog
            .create(
                ecfd_relation::Relation::with_tuples(
                    schema,
                    [Tuple::new(vec![Value::Int(1), Value::str("x")])],
                )
                .unwrap(),
            )
            .unwrap();
        let (report, _) = SemanticBackend::from_set(&set)
            .detect(&mut catalog)
            .unwrap();
        assert!(report.is_clean());
    }
}
