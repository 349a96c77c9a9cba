//! Pluggable detector backends: one trait in front of the three detection
//! strategies of the crate.
//!
//! There are three ways to keep violation flags correct — the paper's full
//! SQL pass (`BATCHDETECT`, kept verbatim as the fidelity reference), its
//! incremental maintenance (`INCDETECT`), and the reproduction's native
//! semantic detector, whose full passes run a shared-scan program through
//! the one scan kernel ([`crate::scan`]; `ecfd_plan` renders that program
//! for `EXPLAIN PLAN` and can substitute the unfused contrast program via
//! [`NativeBackend::with_program`]). Callers that only want *the flags
//! kept right* should not have to care which one runs; [`DetectorBackend`]
//! gives them a single interface:
//!
//! * [`DetectorBackend::detect`] — a full detection pass over the backend's
//!   catalog table, returning the flag-level [`DetectionReport`] together
//!   with the attributing [`EvidenceReport`];
//! * [`DetectorBackend::apply`] — apply a base-schema [`Delta`] to the table
//!   and return the post-update report/evidence. Both come back as a
//!   [`ReadOut`] — behind `Arc`s, because INCDETECT hands out the pair it
//!   maintains rather than rebuilding one per delta.
//!
//! Two types implement it. [`SqlBackend`] keeps nothing between calls.
//! [`NativeBackend`] runs both native strategies over one held state: nothing
//! (cold), the encoding of the table version its last full pass read, or a
//! warm [`IncrementalDetector`] — the paper's `Aux(D)` — whose maintained
//! view is that encoding. The state is keyed by the table's
//! [`Relation::stamp`](ecfd_relation::Relation::stamp) and dropped before
//! anything is encoded once the rows moved under it, so the backend holds at
//! most one encoding, and only of the table as it is, whoever changed the
//! rows. Its trait impl is the full pass (kind `Semantic`), and a trait
//! `apply`'s pass is INCDETECT's seed, so a bulk delta leaves the state warm;
//! INCDETECT is the verbs [`NativeBackend::fold`] and
//! [`NativeBackend::reseed`]. Every verb
//! reads what the slot holds and encodes the table only when that does not
//! describe it.
//!
//! Both backends are constructed from one compiled
//! [`ecfd_core::ConstraintSet`], so the validate/normalize/split work happens
//! once per registration; [`NativeBackend::new`] takes one already-compiled
//! [`SemanticDetector`], whose scan program and dictionary every seed shares.
//! The differential contract — every strategy produces the same report and
//! (normalized) evidence on the same data — is asserted by this module's
//! tests and by the workspace-level differential suite.

use crate::batch::BatchDetector;
use crate::evidence::EvidenceReport;
use crate::incremental::IncrementalDetector;
use crate::parallel::Parallelism;
use crate::report::DetectionReport;
use crate::scan::ScanProgram;
use crate::semantic::{EncodedTable, SemanticDetector};
use crate::{DetectError, Result};
use ecfd_core::ConstraintSet;
use ecfd_relation::{Catalog, CodeColumns, Delta, FrozenView, Relation, Schema};
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
}

/// Applies a base-schema delta to the stored table `base` names. A delta
/// that does not fit is refused before anything moves: the table must carry
/// exactly the base attributes (not the `SV` / `MV` columns a
/// [`BatchDetector`] run leaves behind) and every insertion must fit `base`.
/// Then every stored row equal to any victim leaves in one pass over the
/// table (all duplicates go), and insertions are stored as given. Deletions
/// before insertions mirrors [`IncrementalDetector::apply`], so row ids stay
/// identical across backends fed the same delta sequence.
pub fn apply_base_delta(catalog: &mut Catalog, base: &Schema, delta: &Delta) -> Result<()> {
    let relation = catalog.get_mut(base.name())?;
    refuse_extra_columns(relation.schema(), base)?;
    for ins in &delta.insertions {
        base.validate(ins)?;
    }
    relation.delete_matching(&delta.deletions);
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

/// What a [`NativeBackend`] holds of its table. Both non-cold variants
/// carry the codes of one table version, issued by the backend's
/// dictionary, and the stamp of that version.
#[derive(Debug, Clone, Default)]
enum Held {
    /// Nothing: the next read encodes the table.
    #[default]
    Cold,
    /// The encoding the last full pass read.
    Encoded(EncodedTable),
    /// The INCDETECT state; its maintained view is the table's encoding.
    Warm(IncrementalDetector),
}

impl Held {
    /// The held codes, if they describe `relation` as it is now.
    fn columns_of(&self, relation: &Relation) -> Option<&CodeColumns> {
        match self {
            Held::Encoded(encoded) if encoded.describes(relation) => Some(&encoded.columns),
            Held::Warm(state) if state.describes(relation) => Some(state.columns()),
            _ => None,
        }
    }

    /// The codes of `relation` as it is now: the held ones, else ones
    /// `detector` encodes here, which the slot holds from then on. A stale
    /// state is dropped first, so two encodings are never alive at once.
    fn hold(&mut self, detector: &SemanticDetector, relation: &Relation) -> Result<&CodeColumns> {
        if self.columns_of(relation).is_none() {
            *self = Held::Cold;
            *self = Held::Encoded(detector.encode(relation)?);
        }
        Ok(self.columns_of(relation).expect("held above"))
    }
}

/// The native detector as a backend: full passes and INCDETECT over one held
/// state (see the [module docs](self)). Every seed clones the backend's one
/// detector, so re-seeding never recompiles and every encoding comes from
/// the same dictionary.
#[derive(Debug, Clone)]
pub struct NativeBackend {
    detector: SemanticDetector,
    held: Held,
}

impl NativeBackend {
    /// Builds the backend from a compiled constraint set. Nothing is encoded
    /// until the first call that reads the table.
    pub fn from_set(set: &ConstraintSet) -> Self {
        Self::new(SemanticDetector::from_set(set))
    }

    /// Wraps an already-compiled detector, on the table its schema names.
    pub fn new(detector: SemanticDetector) -> Self {
        NativeBackend {
            detector,
            held: Held::Cold,
        }
    }

    /// Replaces the program the wrapped detector executes (see
    /// [`SemanticDetector::with_program`], including when it panics).
    pub fn with_program(mut self, program: ScanProgram) -> Self {
        self.detector = self.detector.with_program(program);
        self
    }

    /// Sets the worker fan-out of subsequent full passes and seeds (the
    /// per-delta maintenance touches only affected tuples and stays
    /// sequential).
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.detector.set_parallelism(parallelism);
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &SemanticDetector {
        &self.detector
    }

    /// Whether the slot holds an INCDETECT state, which a
    /// [`fold`](Self::fold) extends instead of seeding while the table's
    /// rows have not moved under it.
    pub fn is_warm(&self) -> bool {
        matches!(self.held, Held::Warm(_))
    }

    /// Drops the held state: the next call starts cold.
    pub fn clear(&mut self) {
        self.held = Held::Cold;
    }

    /// Freezes the codes of `relation` with the dictionary's current
    /// symbols — encoding it first unless the slot holds this very version.
    /// The frozen view shares the held chunks.
    pub fn freeze(&mut self, relation: &Relation) -> Result<FrozenView> {
        let columns = self.held.hold(&self.detector, relation)?;
        let codec = self.detector.codec().read();
        Ok(FrozenView::new(
            columns.clone(),
            codec.dict.symbols().clone(),
        ))
    }

    /// The INCDETECT state of the table as it is now. Unless the slot holds
    /// one that describes the table, it is seeded here from the held
    /// encoding (or from the table, encoded once, when none describes it).
    /// The caller may drive the state in place, as a repair loop does.
    pub fn warm(&mut self, catalog: &Catalog) -> Result<&mut IncrementalDetector> {
        let relation = catalog.get(self.table())?;
        if !matches!(&self.held, Held::Warm(state) if state.describes(relation)) {
            refuse_extra_columns(relation.schema(), self.detector.schema())?;
            self.held.hold(&self.detector, relation)?;
            let Held::Encoded(encoded) = std::mem::take(&mut self.held) else {
                unreachable!("a slot that is not warm holds an encoding once held")
            };
            let state = IncrementalDetector::adopt(self.detector.clone(), encoded)?;
            self.held = Held::Warm(state);
        }
        match &mut self.held {
            Held::Warm(state) => Ok(state),
            _ => unreachable!("warmed above"),
        }
    }

    /// Applies `delta` through INCDETECT, seeding first as
    /// [`warm`](Self::warm) does, and returns the maintained read-out.
    pub fn fold(&mut self, catalog: &mut Catalog, delta: &Delta) -> Result<ReadOut> {
        let state = self.warm(catalog)?;
        state.apply(catalog, delta)?;
        Ok(read_out(state))
    }

    /// Seeds INCDETECT afresh and returns its read-out. A warm state gives
    /// its view to the new seed, so this encodes only what
    /// [`warm`](Self::warm) would.
    pub fn reseed(&mut self, catalog: &Catalog) -> Result<ReadOut> {
        self.held = match std::mem::take(&mut self.held) {
            Held::Warm(state) => Held::Encoded(state.into_encoded()),
            held => held,
        };
        Ok(read_out(self.warm(catalog)?))
    }
}

/// INCDETECT's answer: the maintained report and evidence, seeded by the
/// full pass and kept current by every delta — never re-derived.
fn read_out(state: &IncrementalDetector) -> ReadOut {
    (
        state.maintained_report().clone(),
        state.maintained_evidence().clone(),
    )
}

impl DetectorBackend for NativeBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Semantic
    }

    fn table(&self) -> &str {
        self.detector.schema().name()
    }

    fn detect(&mut self, catalog: &mut Catalog) -> Result<ReadOut> {
        let relation = catalog.get(self.table())?;
        let columns = self.held.hold(&self.detector, relation)?;
        let (report, evidence, _) = self.detector.scan(relation.schema(), columns)?;
        Ok((Arc::new(report), Arc::new(evidence)))
    }

    /// The rows move under whatever the slot holds, so it is dropped first.
    /// The full pass that follows is INCDETECT's seed, whose scan keeps its
    /// group map: the slot ends warm, and the next small delta folds.
    fn apply(&mut self, catalog: &mut Catalog, delta: &Delta) -> Result<ReadOut> {
        self.clear();
        apply_base_delta(catalog, self.detector.schema(), delta)?;
        Ok(read_out(self.warm(catalog)?))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::fixtures::{cust_schema, d0, fd_ct_ac, phi1, phi2};
    use ecfd_relation::{RowId, Tuple, Value};

    /// One way to an answer: a trait backend, or INCDETECT through the
    /// native backend's `reseed` / `fold`.
    enum Route {
        Trait(Box<dyn DetectorBackend>),
        Incdetect(Box<NativeBackend>),
    }

    impl Route {
        fn kind(&self) -> BackendKind {
            match self {
                Route::Trait(backend) => backend.kind(),
                Route::Incdetect(_) => BackendKind::Incremental,
            }
        }

        fn table(&self) -> &str {
            match self {
                Route::Trait(backend) => backend.table(),
                Route::Incdetect(native) => native.table(),
            }
        }

        fn detect(&mut self, catalog: &mut Catalog) -> Result<ReadOut> {
            match self {
                Route::Trait(backend) => backend.detect(catalog),
                Route::Incdetect(native) => native.reseed(catalog),
            }
        }

        fn apply(&mut self, catalog: &mut Catalog, delta: &Delta) -> Result<ReadOut> {
            match self {
                Route::Trait(backend) => backend.apply(catalog, delta),
                Route::Incdetect(native) => native.fold(catalog, delta),
            }
        }
    }

    /// Every route, in `BackendKind::ALL` order.
    fn routes(set: &ConstraintSet) -> Vec<Route> {
        vec![
            Route::Trait(Box::new(NativeBackend::from_set(set))),
            Route::Trait(Box::new(SqlBackend::from_set(set).unwrap())),
            Route::Incdetect(Box::new(NativeBackend::from_set(set))),
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
        for mut backend in routes(&set) {
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
        for mut backend in routes(&set) {
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
            for mut backend in routes(&set) {
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
        for mut backend in routes(&set) {
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
        let mut backend = NativeBackend::from_set(&set);
        assert!(!backend.is_warm());
        let mut catalog = catalog_with_d0();
        let delta = Delta::insert_only(vec![Tuple::from_iter([
            "519", "7", "Zoe", "Pine St.", "Albany", "12239",
        ])]);
        let (report, _) = backend.fold(&mut catalog, &delta).unwrap();
        assert!(backend.is_warm());
        assert_eq!(report.num_mv(), 2, "the two Albany rows now conflict");

        backend.clear();
        assert!(!backend.is_warm());
        // A fresh seed after clearing reproduces the same picture, and so
        // does a full pass over the view it holds.
        let (after, _) = backend.reseed(&catalog).unwrap();
        assert_eq!(after, report);
        assert!(backend.is_warm());
        let (full, _) = backend.detect(&mut catalog).unwrap();
        assert_eq!(full, report);
        assert!(backend.is_warm(), "a full pass scans the warm view");
    }

    /// The trait `apply` is a bulk delta's full pass, and that pass seeds
    /// INCDETECT: the slot ends warm, and the next delta folds into it.
    #[test]
    fn a_bulk_apply_leaves_the_state_warm() {
        let set = ConstraintSet::compile(&cust_schema(), &[phi1(), phi2(), fd_ct_ac()]).unwrap();
        let fresh = |catalog: &Catalog| {
            SemanticDetector::from_set(&set)
                .detect_with_evidence(catalog.get("cust").unwrap())
                .unwrap()
        };
        let mut native = NativeBackend::from_set(&set);
        let mut catalog = catalog_with_d0();
        let bulk = Delta {
            insertions: vec![
                Tuple::from_iter(["519", "7", "Zoe", "Pine St.", "Albany", "12239"]),
                Tuple::from_iter(["999", "8", "Sam", "Bay Rd.", "NYC", "10002"]),
            ],
            deletions: vec![Tuple::from_iter([
                "100", "1111111", "Rick", "8th Ave.", "NYC", "10001",
            ])],
        };
        let (report, evidence) = native.apply(&mut catalog, &bulk).unwrap();
        assert!(native.is_warm());
        let want = fresh(&catalog);
        assert_eq!(
            (&*report, evidence.normalized()),
            (&want.0, want.1.normalized())
        );

        let small = Delta::insert_only(vec![Tuple::from_iter([
            "518", "9", "Ann", "Elm Str.", "Colonie", "12205",
        ])]);
        let (report, evidence) = native.fold(&mut catalog, &small).unwrap();
        let want = fresh(&catalog);
        assert_eq!((&*report, &*evidence), (&want.0, &want.1.normalized()));
    }

    /// Rows moved outside the backend leave a warm slot stale: the next
    /// full pass drops it and scans a fresh encoding, and the next fold
    /// seeds from that encoding.
    #[test]
    fn a_slot_the_rows_moved_under_is_replaced() {
        let set = ConstraintSet::compile(&cust_schema(), &[phi1(), phi2()]).unwrap();
        let mut native = NativeBackend::from_set(&set);
        let mut catalog = catalog_with_d0();
        native.reseed(&catalog).unwrap();
        let rick = Tuple::from_iter(["100", "1111111", "Rick", "8th Ave.", "NYC", "10001"]);
        let removed = catalog.get_mut("cust").unwrap().delete_matching(&[rick]);
        assert_eq!(removed.len(), 1);
        let (full, _) = native.detect(&mut catalog).unwrap();
        assert!(!native.is_warm());
        let want = SemanticDetector::from_set(&set)
            .detect(catalog.get("cust").unwrap())
            .unwrap();
        assert_eq!(*full, want);
        let (folded, _) = native.fold(&mut catalog, &Delta::default()).unwrap();
        assert!(native.is_warm());
        assert_eq!(*folded, want);
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
        // The native backend handles the same set fine.
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
        let (report, _) = NativeBackend::from_set(&set).detect(&mut catalog).unwrap();
        assert!(report.is_clean());
    }
}
