//! Encoding eCFDs as data relations (Fig. 3 of the paper).
//!
//! The key idea behind the fixed-query detection technique is to treat the
//! pattern tableaux as *data*, not meta-data. Every (single-pattern)
//! constraint becomes one row of an `enc` relation whose schema depends only
//! on the schema `R` being constrained: a constraint id plus, for every
//! attribute `A` of `R`, a "left" code `A_L` and a "right" code `A_R`:
//!
//! | code | meaning (left / positive right)             |
//! |------|---------------------------------------------|
//! | 0    | `A` does not occur on that side             |
//! | 1    | the cell is a positive set `S`              |
//! | 2    | the cell is a complement set `S̄`            |
//! | 3    | the cell is the wildcard `_`                |
//!
//! Right-hand codes are negated (−1, −2, −3) when `A ∈ Yp` rather than `Y`,
//! so the multi-tuple query can restrict itself to the embedded FD by testing
//! `A_R > 0` while the single-tuple query uses `ABS(A_R)`.
//!
//! The set elements themselves go into one binary relation per attribute and
//! side (`T_{A_L}`, `T_{A_R}`), holding `(CID, value)` pairs. The whole
//! encoding is linear in the size of the constraints.

use crate::{DetectError, Result};
use ecfd_core::normalize::SinglePattern;
use ecfd_core::PatternValue;
use ecfd_relation::{Catalog, DataType, Relation, Schema, Tuple, Value};

/// Name of the `enc` relation installed in the catalog.
pub const ENC_TABLE: &str = "ecfd_enc";
/// Name of the auxiliary relation maintained by the detectors.
pub const AUX_TABLE: &str = "ecfd_aux";
/// Name of the staging relation used by the incremental detector for `ΔD⁺`.
pub const STAGING_TABLE: &str = "ecfd_delta_ins";
/// The blank marker used when an attribute is irrelevant to an embedded FD —
/// "a constant '@' not appearing in any database" (Section V-A).
pub const BLANK: &str = "@";

/// Column name of the left code for attribute `attr` in the `enc` relation.
pub fn enc_left_col(attr: &str) -> String {
    format!("{attr}_L")
}

/// Column name of the right code for attribute `attr` in the `enc` relation.
pub fn enc_right_col(attr: &str) -> String {
    format!("{attr}_R")
}

/// Name of the value table holding left-side set elements for `attr`.
pub fn value_table_left(attr: &str) -> String {
    format!("ecfd_t_{attr}_L")
}

/// Name of the value table holding right-side set elements for `attr`.
pub fn value_table_right(attr: &str) -> String {
    format!("ecfd_t_{attr}_R")
}

/// The data-relation encoding of a set of eCFDs against a fixed schema.
#[derive(Debug, Clone)]
pub struct Encoding {
    schema: Schema,
    singles: Vec<SinglePattern>,
    enc: Relation,
    value_tables: Vec<Relation>,
}

impl Encoding {
    /// Builds the encoding on `schema` from single-pattern constraints, the
    /// split a compiled [`ecfd_core::ConstraintSet`] holds (one `CID` per
    /// pattern tuple, as the paper assumes). `CID` values start at 1 and
    /// follow the order of `singles`.
    ///
    /// Returns [`DetectError::Unsupported`] when a constrained attribute is
    /// not string-typed: the SQL encoding stores blanked values (`'@'`) and
    /// set elements in homogeneous string columns, which matches the paper's
    /// all-string `cust` schema. (The semantic detector has no such
    /// restriction.)
    pub fn from_singles(schema: &Schema, singles: Vec<SinglePattern>) -> Result<Self> {
        for single in &singles {
            for attr in single.ecfd.attributes() {
                let id = schema.attr_id(attr).ok_or_else(|| {
                    DetectError::Unsupported(format!("attribute `{attr}` missing from schema"))
                })?;
                let ty = schema.attribute(id).expect("id just resolved").data_type();
                if ty != DataType::Str {
                    return Err(DetectError::Unsupported(format!(
                        "attribute `{attr}` has type {ty} but the SQL encoding requires string attributes"
                    )));
                }
            }
        }

        // enc relation schema: CID + (A_L, A_R) per attribute of R.
        let mut enc_builder = Schema::builder(ENC_TABLE).attr("CID", DataType::Int);
        for attr in schema.attributes() {
            enc_builder = enc_builder
                .attr(enc_left_col(&attr.name), DataType::Int)
                .attr(enc_right_col(&attr.name), DataType::Int);
        }
        let mut enc = Relation::new(enc_builder.build());

        // Value tables: (CID, VAL) per attribute and side.
        let mut value_tables: Vec<Relation> = Vec::new();
        for attr in schema.attributes() {
            for table_name in [value_table_left(&attr.name), value_table_right(&attr.name)] {
                let s = Schema::builder(table_name)
                    .attr("CID", DataType::Int)
                    .attr("VAL", DataType::Str)
                    .build();
                value_tables.push(Relation::new(s));
            }
        }
        let value_table_index = |attr_idx: usize, right: bool| attr_idx * 2 + usize::from(right);

        for (i, single) in singles.iter().enumerate() {
            let cid = (i + 1) as i64;
            let ecfd = &single.ecfd;
            let tp = &ecfd.tableau()[0];
            let mut row = vec![Value::Null; enc.schema().arity()];
            row[0] = Value::Int(cid);
            // Default every code to 0 ("not present on this side").
            for slot in row.iter_mut().skip(1) {
                *slot = Value::Int(0);
            }

            // Left-hand side.
            for (attr, cell) in ecfd.lhs().iter().zip(&tp.lhs) {
                let attr_idx = schema.attr_id(attr).expect("validated").index();
                let col = enc
                    .schema()
                    .attr_id(&enc_left_col(attr))
                    .expect("enc schema covers all attributes");
                row[col.index()] = Value::Int(cell_code(cell));
                push_values(
                    &mut value_tables[value_table_index(attr_idx, false)],
                    cid,
                    cell,
                )?;
            }
            // Right-hand side: Y attributes use positive codes, Yp negative.
            for (pos, (attr, cell)) in ecfd.rhs_attrs().iter().zip(&tp.rhs).enumerate() {
                let in_yp = pos >= ecfd.fd_rhs().len();
                let attr_idx = schema.attr_id(attr).expect("validated").index();
                let col = enc
                    .schema()
                    .attr_id(&enc_right_col(attr))
                    .expect("enc schema covers all attributes");
                let code = cell_code(cell);
                row[col.index()] = Value::Int(if in_yp { -code } else { code });
                push_values(
                    &mut value_tables[value_table_index(attr_idx, true)],
                    cid,
                    cell,
                )?;
            }
            enc.insert(Tuple::new(row))?;
        }

        Ok(Encoding {
            schema: schema.clone(),
            singles,
            enc,
            value_tables,
        })
    }

    /// The schema of the constrained relation `R`.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The single-pattern constraints, in `CID` order (`CID = index + 1`).
    pub fn singles(&self) -> &[SinglePattern] {
        &self.singles
    }

    /// Number of single-pattern constraints (= number of `enc` rows).
    pub fn num_patterns(&self) -> usize {
        self.singles.len()
    }

    /// The populated `enc` relation.
    pub fn enc(&self) -> &Relation {
        &self.enc
    }

    /// The populated value tables (two per attribute of `R`).
    pub fn value_tables(&self) -> &[Relation] {
        &self.value_tables
    }

    /// Total number of rows across `enc` and the value tables — the paper
    /// notes the encoding is linear in the size of the constraints.
    pub fn total_encoding_rows(&self) -> usize {
        self.enc.len() + self.value_tables.iter().map(Relation::len).sum::<usize>()
    }

    /// Installs (or replaces) the encoding relations in a catalog.
    pub fn install(&self, catalog: &mut Catalog) {
        catalog.create_or_replace(self.enc.clone());
        for table in &self.value_tables {
            catalog.create_or_replace(table.clone());
        }
    }

    /// Removes the encoding relations from a catalog (ignoring missing ones).
    pub fn uninstall(&self, catalog: &mut Catalog) {
        let _ = catalog.drop_table(ENC_TABLE);
        for table in &self.value_tables {
            let _ = catalog.drop_table(table.name());
        }
    }

    /// Maps a `CID` back to `(source constraint index, pattern index)`.
    pub fn provenance(&self, cid: i64) -> Option<(usize, usize)> {
        let idx = usize::try_from(cid).ok()?.checked_sub(1)?;
        self.singles
            .get(idx)
            .map(|s| (s.source_constraint, s.source_pattern))
    }
}

/// Integer code of a pattern cell (paper's 1 / 2 / 3 convention).
fn cell_code(cell: &PatternValue) -> i64 {
    match cell {
        PatternValue::In(_) => 1,
        PatternValue::NotIn(_) => 2,
        PatternValue::Wildcard => 3,
    }
}

fn push_values(table: &mut Relation, cid: i64, cell: &PatternValue) -> Result<()> {
    for value in cell.constants() {
        let text = match value {
            Value::Str(s) => s.clone(),
            other => other.to_string(),
        };
        table.insert(Tuple::new(vec![Value::Int(cid), Value::Str(text)]))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchDetector;
    use ecfd_core::{ECfd, ECfdBuilder};
    use ecfd_relation::AttrId;

    /// The encoding the SQL detector installs for `ecfds`, compiled as given.
    fn encoding_of(schema: &Schema, ecfds: &[ECfd]) -> Result<Encoding> {
        BatchDetector::new(schema, ecfds).map(|d| d.encoding().clone())
    }

    fn cust_schema() -> Schema {
        Schema::builder("cust")
            .attr("AC", DataType::Str)
            .attr("PN", DataType::Str)
            .attr("NM", DataType::Str)
            .attr("STR", DataType::Str)
            .attr("CT", DataType::Str)
            .attr("ZIP", DataType::Str)
            .build()
    }

    fn phi1() -> ECfd {
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

    fn phi2() -> ECfd {
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

    fn get_enc(enc: &Relation, cid: i64, col: &str) -> Value {
        let cid_col = enc.schema().attr_id("CID").unwrap();
        let target = enc.schema().attr_id(col).unwrap();
        enc.tuples()
            .find(|t| t[cid_col] == Value::Int(cid))
            .map(|t| t[target].clone())
            .unwrap()
    }

    #[test]
    fn figure_3_codes_are_reproduced() {
        // Fig. 3 encodes φ1 (two pattern tuples → CID 1, 2) and φ2 (CID 3):
        //   CID 1: CT_L = 2 (complement set), AC_R = 3 (wildcard in Y)
        //   CID 2: CT_L = 1 (set),            AC_R = 1 (set in Y)
        //   CID 3: CT_L = 1 (set),            AC_R = -1 (set in Yp)
        let encoding = encoding_of(&cust_schema(), &[phi1(), phi2()]).unwrap();
        assert_eq!(encoding.num_patterns(), 3);
        let enc = encoding.enc();
        assert_eq!(get_enc(enc, 1, "CT_L"), Value::Int(2));
        assert_eq!(get_enc(enc, 1, "AC_R"), Value::Int(3));
        assert_eq!(get_enc(enc, 2, "CT_L"), Value::Int(1));
        assert_eq!(get_enc(enc, 2, "AC_R"), Value::Int(1));
        assert_eq!(get_enc(enc, 3, "CT_L"), Value::Int(1));
        assert_eq!(get_enc(enc, 3, "AC_R"), Value::Int(-1));
        // Attributes not mentioned carry code 0 on both sides.
        assert_eq!(get_enc(enc, 1, "ZIP_L"), Value::Int(0));
        assert_eq!(get_enc(enc, 1, "ZIP_R"), Value::Int(0));
    }

    #[test]
    fn value_tables_match_figure_3() {
        let encoding = encoding_of(&cust_schema(), &[phi1(), phi2()]).unwrap();
        let tctl = encoding
            .value_tables()
            .iter()
            .find(|t| t.name() == value_table_left("CT"))
            .unwrap();
        // CID 1 carries {NYC, LI}; CID 2 carries {Albany, Troy, Colonie};
        // CID 3 carries {NYC}: six rows in total.
        assert_eq!(tctl.len(), 6);
        let tacr = encoding
            .value_tables()
            .iter()
            .find(|t| t.name() == value_table_right("AC"))
            .unwrap();
        // CID 2 carries {518}; CID 3 carries the five NYC area codes.
        assert_eq!(tacr.len(), 6);
        let cids: Vec<i64> = tacr
            .tuples()
            .map(|t| t[AttrId(0)].as_int().unwrap())
            .collect();
        assert_eq!(cids.iter().filter(|c| **c == 3).count(), 5);
    }

    #[test]
    fn encoding_schema_depends_only_on_r() {
        // Remark (1) of Section V-A: the schema of the encoding relations is
        // determined by R, not by Σ.
        let small = encoding_of(&cust_schema(), &[phi1()]).unwrap();
        let large = encoding_of(&cust_schema(), &[phi1(), phi2()]).unwrap();
        assert_eq!(small.enc().schema(), large.enc().schema());
        assert_eq!(small.value_tables().len(), large.value_tables().len());
    }

    #[test]
    fn encoding_size_is_linear_in_constraints() {
        // Remark (2): the encoding relations are linear in the size of Σ.
        let one = encoding_of(&cust_schema(), &[phi1()]).unwrap();
        let both = encoding_of(&cust_schema(), &[phi1(), phi2()]).unwrap();
        // φ1 alone: 2 enc rows, 5 T_CT_L elements ({NYC, LI} ∪ {Albany, Troy,
        // Colonie}), 1 T_AC_R element ({518}).
        assert_eq!(one.total_encoding_rows(), 2 + 5 + 1);
        assert!(both.total_encoding_rows() > one.total_encoding_rows());
        assert_eq!(
            both.total_encoding_rows(),
            3 /* enc rows */ + 6 /* T_CT_L */ + 6 /* T_AC_R */
        );
    }

    #[test]
    fn install_and_uninstall_manage_catalog_tables() {
        let mut catalog = Catalog::new();
        let encoding = encoding_of(&cust_schema(), &[phi1(), phi2()]).unwrap();
        encoding.install(&mut catalog);
        assert!(catalog.contains(ENC_TABLE));
        assert!(catalog.contains(&value_table_left("CT")));
        assert!(catalog.contains(&value_table_right("AC")));
        assert_eq!(catalog.get(ENC_TABLE).unwrap().len(), 3);
        encoding.uninstall(&mut catalog);
        assert!(!catalog.contains(ENC_TABLE));
    }

    #[test]
    fn provenance_maps_cids_back_to_constraints() {
        let encoding = encoding_of(&cust_schema(), &[phi1(), phi2()]).unwrap();
        assert_eq!(encoding.provenance(1), Some((0, 0)));
        assert_eq!(encoding.provenance(2), Some((0, 1)));
        assert_eq!(encoding.provenance(3), Some((1, 0)));
        assert_eq!(encoding.provenance(0), None);
        assert_eq!(encoding.provenance(7), None);
    }

    #[test]
    fn non_string_attributes_are_rejected_with_a_clear_error() {
        let schema = Schema::builder("orders")
            .attr("CITY", DataType::Str)
            .attr("N", DataType::Int)
            .build();
        let phi = ECfdBuilder::new("orders")
            .lhs(["CITY"])
            .pattern_rhs(["N"])
            .pattern(|p| p.in_set("N", [1i64, 2]))
            .build()
            .unwrap();
        let err = encoding_of(&schema, &[phi]).unwrap_err();
        assert!(matches!(err, DetectError::Unsupported(_)));
        assert!(err.to_string().contains("N"));
    }

    #[test]
    fn constraints_on_wrong_relation_are_rejected() {
        let schema = cust_schema();
        let phi = ECfdBuilder::new("orders")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p)
            .build()
            .unwrap();
        assert!(matches!(
            encoding_of(&schema, &[phi]),
            Err(DetectError::Core(_))
        ));
    }
}
