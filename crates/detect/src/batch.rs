//! `BATCHDETECT` (Section V-A): SQL-based batch violation detection.
//!
//! Given a dataset `D` and a set `Σ` of eCFDs, the algorithm:
//!
//! 1. installs the tableau-as-data encoding ([`crate::encode`]) in the
//!    catalog;
//! 2. extends `D` with the `SV` / `MV` flag attributes (resetting them when
//!    already present);
//! 3. runs the fixed pair of detection statements generated by
//!    [`crate::sqlgen`]: the `Q_sv` update, the `Q_mv` aux-table insert and
//!    the `MV` flag update;
//! 4. reads the flags back into a [`DetectionReport`].
//!
//! The number of SQL statements is constant — independent of `|Σ|`, of the
//! number of pattern tuples and of the size of the pattern sets — and the
//! detection statements make two passes over `D` (one for `Q_sv`, one for the
//! `macro` table of `Q_mv`), matching the data complexity claimed in the
//! paper.
//!
//! This is the only detector that materialises the flags as columns: every
//! native path hands its flags over as a [`DetectionReport`] and leaves the
//! stored table as it was loaded. Steps 1–3 write into the catalog they are
//! given, so [`SqlBackend`](crate::SqlBackend) runs them on a scratch catalog
//! holding a copy of the table.

use crate::encode::{Encoding, AUX_TABLE};
use crate::evidence::{attribute_sv_rows, ConstraintRef, EvidenceReport, MvEvidence};
use crate::report::DetectionReport;
use crate::scan::Alphabet;
use crate::sqlgen;
use crate::Result;
use ecfd_core::matching::BoundECfd;
use ecfd_core::{AttrClasses, CellClasses, ConstraintSet, ECfd};
use ecfd_engine::Engine;
use ecfd_relation::{
    Attribute, Catalog, CodeColumns, CodeMap, CodeVec, DataType, Dictionary, Schema, Value,
};
use std::collections::{BTreeSet, HashMap};

/// The SQL-based batch detector.
#[derive(Debug, Clone)]
pub struct BatchDetector {
    encoding: Encoding,
    /// The value classes of the encoded singles and their cells as class
    /// sets: what [`BatchDetector::explain`] matches rows against.
    classes: Vec<AttrClasses>,
    cells: Vec<CellClasses>,
    engine: Engine,
    sql_sv: String,
    sql_aux_insert: String,
    sql_mv: String,
    sql_create_aux: String,
}

impl BatchDetector {
    /// Builds the detector (encoding + generated SQL) for `ecfds` on
    /// `schema`, compiled through [`ConstraintSet::verbatim`]: evidence
    /// indexes `ecfds` exactly as given.
    ///
    /// The data table in the catalog must carry the same name as `schema`
    /// (the constraints already name it — `cust` in the paper's examples).
    pub fn new(schema: &Schema, ecfds: &[ECfd]) -> Result<Self> {
        Self::from_set(&ConstraintSet::verbatim(schema, ecfds)?)
    }

    /// Builds the detector from an already-compiled [`ConstraintSet`],
    /// reusing its validation and split instead of re-encoding from scratch.
    /// Fails only when the set is outside the SQL encoding's envelope
    /// (non-string constrained attributes).
    pub fn from_set(set: &ConstraintSet) -> Result<Self> {
        let encoding = Encoding::from_singles(set.schema(), set.singles().to_vec())?;
        let schema = encoding.schema();
        let table = schema.name();
        Ok(BatchDetector {
            sql_sv: sqlgen::single_violation_update(schema, table),
            sql_aux_insert: sqlgen::aux_insert(schema, table),
            sql_mv: sqlgen::multi_violation_update(schema, table),
            sql_create_aux: sqlgen::create_aux_table(schema),
            encoding,
            classes: set.classes().to_vec(),
            cells: set.cells().to_vec(),
            engine: Engine::new(),
        })
    }

    /// The underlying encoding.
    pub fn encoding(&self) -> &Encoding {
        &self.encoding
    }

    /// The generated detection statements, in execution order — exposed so
    /// examples and documentation can show the literal SQL (cf. Fig. 4).
    pub fn statements(&self) -> Vec<&str> {
        vec![
            &self.sql_create_aux,
            &self.sql_sv,
            &self.sql_aux_insert,
            &self.sql_mv,
        ]
    }

    /// Installs the encoding and the (empty) auxiliary relation, and makes
    /// sure the data table has zeroed `SV` / `MV` columns.
    pub fn prepare(&self, catalog: &mut Catalog) -> Result<()> {
        self.encoding.install(catalog);
        ensure_flag_columns(catalog, self.encoding.schema().name())?;
        if catalog.contains(AUX_TABLE) {
            let _ = catalog.drop_table(AUX_TABLE);
        }
        self.engine.execute(catalog, &self.sql_create_aux)?;
        Ok(())
    }

    /// Runs the full batch detection pipeline and returns the violation
    /// report. The data table's `SV` / `MV` columns and the auxiliary relation
    /// are left populated, for [`BatchDetector::explain`] and for SQL queries
    /// over the flags.
    pub fn detect(&self, catalog: &mut Catalog) -> Result<DetectionReport> {
        let pass_started = std::time::Instant::now();
        self.prepare(catalog)?;
        self.engine.execute(catalog, &self.sql_sv)?;
        self.engine.execute(catalog, &self.sql_aux_insert)?;
        self.engine.execute(catalog, &self.sql_mv)?;
        let report = DetectionReport::from_catalog(catalog, self.encoding.schema().name())?;
        let groups = catalog.get(AUX_TABLE).map(|aux| aux.len()).unwrap_or(0);
        crate::obs::record_pass(
            "sql",
            report.total_rows as u64,
            groups as u64,
            report.num_violations() as u64,
            pass_started.elapsed(),
        );
        Ok(report)
    }

    /// Runs the batch detection pipeline and explains the outcome: alongside
    /// the flag-level report, returns per-constraint [`EvidenceReport`]
    /// records derived from the SQL outputs.
    pub fn detect_with_evidence(
        &self,
        catalog: &mut Catalog,
    ) -> Result<(DetectionReport, EvidenceReport)> {
        let report = self.detect(catalog)?;
        let evidence = self.explain(catalog, &report)?;
        Ok((report, evidence))
    }

    /// Derives evidence from this detector's SQL outputs: violating
    /// enforcement groups are read back from the auxiliary relation the
    /// `Q_mv` statement populated (one `(CID, X-values)` row per group), and
    /// the `SV` flags are attributed by re-matching the flagged rows against
    /// the split single-pattern constraints of the encoding.
    pub fn explain(&self, catalog: &Catalog, report: &DetectionReport) -> Result<EvidenceReport> {
        let schema = self.encoding.schema();
        let data = catalog.get(schema.name())?;
        let stored_schema = data.schema();
        let singles = self.encoding.singles();
        let provenance: Vec<(usize, usize)> = (singles.iter())
            .map(|s| (s.source_constraint, s.source_pattern))
            .collect();
        let bounds: Vec<BoundECfd<'_>> = (singles.iter())
            .map(|s| BoundECfd::bind(&s.ecfd, stored_schema).map_err(Into::into))
            .collect::<Result<_>>()?;

        let mut evidence = EvidenceReport {
            sv: attribute_sv_rows(&bounds, &provenance, data.iter(), &report.sv_rows),
            total_rows: data.len(),
            ..Default::default()
        };

        // Each auxiliary row is one offending group: CID plus the group's X
        // projection (non-X attributes are blanked with '@', which we skip by
        // only projecting the constraint's own LHS attributes). Groups are
        // registered first, then a single scan over the data fills every
        // member set — a row is a member iff it matches the constraint's LHS
        // with the group's X projection, which for the group keys recorded in
        // the auxiliary relation is equivalent to X-value equality. The scan
        // runs over a dictionary-encoded view with the set's value classes
        // resolved to codes, so the SQL-readback membership fill is keyed by
        // the same coded group keys as the native detectors.
        if catalog.contains(AUX_TABLE) {
            let aux = catalog.get(AUX_TABLE)?;
            let mut dict = Dictionary::new();
            let mut pending: HashMap<usize, CodeMap<CodeVec, usize>> = HashMap::new();
            for aux_row in aux.tuples() {
                let cid = aux_row.values()[0].as_int().unwrap_or(0);
                let Some((constraint, pattern)) = self.encoding.provenance(cid) else {
                    continue;
                };
                let ci = (cid - 1) as usize;
                let single = &singles[ci].ecfd;
                let group_key: Vec<Value> = single
                    .lhs()
                    .iter()
                    .map(|attr| {
                        let id = schema.attr_id(attr).expect("validated at build");
                        aux_row.values()[1 + id.index()].clone()
                    })
                    .collect();
                let coded_key: CodeVec = group_key.iter().map(|v| dict.encode(v)).collect();
                let idx = evidence.mv_groups.len();
                evidence.mv_groups.push(MvEvidence {
                    source: ConstraintRef::new(constraint, pattern),
                    group_key,
                    rows: BTreeSet::new(),
                });
                pending.entry(ci).or_default().insert(coded_key, idx);
            }
            if !pending.is_empty() {
                let (classes, cells) = (&self.classes, &self.cells);
                let alphabet = Alphabet::intern(singles, classes, cells, stored_schema, &mut dict);
                let view = CodeColumns::build(data, &mut dict);
                crate::obs::count("relation.rows.encoded", view.num_rows() as u64);
                for pos in 0..view.num_rows() {
                    for (&ci, groups) in &pending {
                        let (bound, cells) = (&bounds[ci], &alphabet.cells[ci]);
                        if !alphabet.matches(&cells.lhs, bound.lhs_ids(), |a| view.code(pos, a)) {
                            continue;
                        }
                        if let Some(&idx) = groups.get(&view.key(pos, bound.lhs_ids())) {
                            evidence.mv_groups[idx].rows.insert(view.row_id(pos));
                        }
                    }
                }
            }
        }
        evidence.normalize();
        Ok(evidence)
    }

    /// Runs detection restricted to a single `CID` (one pattern tuple). This
    /// is the naive "one pair of queries per constraint" strategy that the
    /// single-pair design avoids, kept so that the cost of issuing `2·|Σ|`
    /// statements instead of 2 can be measured against
    /// [`BatchDetector::detect`].
    pub fn detect_per_constraint(&self, catalog: &mut Catalog) -> Result<DetectionReport> {
        self.prepare(catalog)?;
        let table = self.encoding.schema().name();
        for cid in 1..=self.encoding.num_patterns() as i64 {
            // Scope each statement to one constraint by rewriting the enc
            // reference — the WHERE shape stays identical.
            let scoped_sv = self.sql_sv.replace(
                "ecfd_enc c WHERE",
                &format!("ecfd_enc c WHERE c.CID = {cid} AND"),
            );
            let scoped_aux = self.sql_aux_insert.replace(
                "ecfd_enc c WHERE",
                &format!("ecfd_enc c WHERE c.CID = {cid} AND"),
            );
            self.engine.execute(catalog, &scoped_sv)?;
            self.engine.execute(catalog, &scoped_aux)?;
        }
        self.engine.execute(catalog, &self.sql_mv)?;
        DetectionReport::from_catalog(catalog, table)
    }
}

/// Adds integer `SV` / `MV` columns (initialised to 0) to `table` if absent,
/// and resets them to 0 if present.
fn ensure_flag_columns(catalog: &mut Catalog, table: &str) -> Result<()> {
    let relation = catalog.get(table)?;
    if relation.schema().attr_id("SV").is_none() {
        let flags = vec![
            Attribute::new("SV", DataType::Int),
            Attribute::new("MV", DataType::Int),
        ];
        let extended = relation.extend_schema(flags, Value::Int(0))?;
        catalog.create_or_replace(extended);
        return Ok(());
    }
    let relation = catalog.get_mut(table)?;
    let sv = relation.schema().require_attr("SV")?;
    let mv = relation.schema().require_attr("MV")?;
    for row_id in relation.row_ids() {
        relation.update_value(row_id, sv, Value::Int(0))?;
        relation.update_value(row_id, mv, Value::Int(0))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::fixtures::*;
    use crate::semantic::SemanticDetector;
    use ecfd_relation::{Relation, Tuple, Value};

    fn catalog_with_d0() -> Catalog {
        let mut catalog = Catalog::new();
        catalog.create(d0()).unwrap();
        catalog
    }

    #[test]
    fn batch_detect_reproduces_example_2_2() {
        let mut catalog = catalog_with_d0();
        let detector = BatchDetector::new(&cust_schema(), &[phi1(), phi2()]).unwrap();
        let report = detector.detect(&mut catalog).unwrap();
        // t1 violates φ1, t4 violates φ2; no FD conflicts in D0.
        assert_eq!(report.num_sv(), 2);
        assert_eq!(report.num_mv(), 0);
        let rows: Vec<_> = report.sv_rows.iter().copied().collect();
        let ct = catalog.get("cust").unwrap().schema().attr_id("CT").unwrap();
        let cities: Vec<Value> = rows
            .iter()
            .map(|r| catalog.get("cust").unwrap().get(*r).unwrap()[ct].clone())
            .collect();
        assert_eq!(cities, vec![Value::str("Albany"), Value::str("NYC")]);
    }

    #[test]
    fn batch_detect_finds_multi_tuple_violations() {
        let mut catalog = Catalog::new();
        let mut db = d0();
        db.insert(Tuple::from_iter([
            "519", "7", "Zoe", "Pine St.", "Albany", "12239",
        ]))
        .unwrap();
        catalog.create(db).unwrap();
        let detector = BatchDetector::new(&cust_schema(), &[phi1(), phi2()]).unwrap();
        let report = detector.detect(&mut catalog).unwrap();
        assert_eq!(report.num_mv(), 2, "both Albany tuples are FD violations");
        // The aux relation holds the offending Albany group — once per
        // pattern tuple of φ1 that Albany matches (the complement-set pattern
        // and the capital-district pattern).
        let aux = catalog.get(AUX_TABLE).unwrap();
        assert_eq!(aux.len(), 2);
    }

    #[test]
    fn sql_and_semantic_detectors_agree_on_d0_variants() {
        let constraint_sets: Vec<Vec<ecfd_core::ECfd>> = vec![
            vec![phi1()],
            vec![phi2()],
            vec![phi1(), phi2()],
            vec![phi1(), phi2(), fd_ct_ac()],
        ];
        for constraints in constraint_sets {
            let mut db = d0();
            db.insert(Tuple::from_iter([
                "519", "7", "Zoe", "Pine St.", "Albany", "12239",
            ]))
            .unwrap();
            db.insert(Tuple::from_iter([
                "518", "8", "Ann", "Oak St.", "Albany", "12240",
            ]))
            .unwrap();
            let semantic = SemanticDetector::new(&cust_schema(), &constraints)
                .unwrap()
                .detect(&db)
                .unwrap();

            let mut catalog = Catalog::new();
            catalog.create(db).unwrap();
            let sql = BatchDetector::new(&cust_schema(), &constraints)
                .unwrap()
                .detect(&mut catalog)
                .unwrap();
            assert_eq!(sql.sv_rows, semantic.sv_rows, "constraints {constraints:?}");
            assert_eq!(sql.mv_rows, semantic.mv_rows, "constraints {constraints:?}");
        }
    }

    #[test]
    fn sql_evidence_agrees_with_semantic_evidence() {
        let mut db = d0();
        db.insert(Tuple::from_iter([
            "519", "7", "Zoe", "Pine St.", "Albany", "12239",
        ]))
        .unwrap();
        let constraints = [phi1(), phi2(), fd_ct_ac()];
        let (_, semantic) = SemanticDetector::new(&cust_schema(), &constraints)
            .unwrap()
            .detect_with_evidence(&db)
            .unwrap();

        let mut catalog = Catalog::new();
        catalog.create(db).unwrap();
        let (report, sql) = BatchDetector::new(&cust_schema(), &constraints)
            .unwrap()
            .detect_with_evidence(&mut catalog)
            .unwrap();
        assert_eq!(sql.detection_report(), report);
        assert_eq!(sql.sv_pairs(), semantic.sv_pairs());
        assert_eq!(sql.mv_pairs(), semantic.mv_pairs());
        assert_eq!(sql.normalized(), semantic.normalized());
    }

    #[test]
    fn rerunning_batch_detect_is_idempotent() {
        let mut catalog = catalog_with_d0();
        let detector = BatchDetector::new(&cust_schema(), &[phi1(), phi2()]).unwrap();
        let first = detector.detect(&mut catalog).unwrap();
        let second = detector.detect(&mut catalog).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn statement_count_is_fixed() {
        let few = BatchDetector::new(&cust_schema(), &[phi1()]).unwrap();
        let many = BatchDetector::new(&cust_schema(), &[phi1(), phi2(), fd_ct_ac()]).unwrap();
        assert_eq!(few.statements().len(), many.statements().len());
        assert_eq!(few.statements().len(), 4);
    }

    #[test]
    fn per_constraint_strategy_matches_the_single_pair_strategy() {
        let mut db = d0();
        db.insert(Tuple::from_iter([
            "519", "7", "Zoe", "Pine St.", "Albany", "12239",
        ]))
        .unwrap();
        let constraints = [phi1(), phi2()];

        let mut catalog_a = Catalog::new();
        catalog_a.create(db.clone()).unwrap();
        let detector = BatchDetector::new(&cust_schema(), &constraints).unwrap();
        let single_pair = detector.detect(&mut catalog_a).unwrap();

        let mut catalog_b = Catalog::new();
        catalog_b.create(db).unwrap();
        let per_constraint = detector.detect_per_constraint(&mut catalog_b).unwrap();
        assert_eq!(single_pair.sv_rows, per_constraint.sv_rows);
        assert_eq!(single_pair.mv_rows, per_constraint.mv_rows);
    }

    #[test]
    fn clean_database_stays_clean() {
        let mut catalog = Catalog::new();
        catalog
            .create(
                Relation::with_tuples(
                    cust_schema(),
                    [
                        Tuple::from_iter(["518", "1", "A", "S", "Albany", "12238"]),
                        Tuple::from_iter(["212", "2", "B", "S", "NYC", "10001"]),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        let detector = BatchDetector::new(&cust_schema(), &[phi1(), phi2()]).unwrap();
        let report = detector.detect(&mut catalog).unwrap();
        assert!(report.is_clean());
    }
}
