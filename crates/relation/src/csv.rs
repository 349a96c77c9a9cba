//! Minimal CSV import/export for relations.
//!
//! The experiment harness and examples serialise generated `cust` instances
//! and detection reports to CSV. Only the subset of CSV we need is supported:
//! comma separation, optional double-quote quoting with `""` escaping, and a
//! header row matching the schema attribute names.

use crate::error::{RelationError, Result};
use crate::relation::Relation;
use crate::schema::{DataType, Schema};
use crate::tuple::Tuple;
use crate::value::Value;

/// Serialises one field, quoting when it contains a comma, quote or newline.
fn write_field(out: &mut String, field: &str) {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Splits one CSV line into fields, honouring double-quote quoting.
fn parse_line(line: &str, line_no: usize) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        cur.push('"');
                        chars.next();
                    } else {
                        in_quotes = false;
                    }
                }
                other => cur.push(other),
            }
        } else {
            match c {
                '"' => {
                    if cur.is_empty() {
                        in_quotes = true;
                    } else {
                        return Err(RelationError::Csv {
                            line: line_no,
                            message: "unexpected quote inside unquoted field".into(),
                        });
                    }
                }
                ',' => {
                    fields.push(std::mem::take(&mut cur));
                }
                other => cur.push(other),
            }
        }
    }
    if in_quotes {
        return Err(RelationError::Csv {
            line: line_no,
            message: "unterminated quoted field".into(),
        });
    }
    fields.push(cur);
    Ok(fields)
}

/// Renders a relation as CSV text with a header row.
pub fn to_csv(relation: &Relation) -> String {
    let mut out = String::new();
    let names = relation.schema().attr_names();
    for (i, n) in names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_field(&mut out, n);
    }
    out.push('\n');
    for tuple in relation.tuples() {
        for (i, v) in tuple.values().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_field(&mut out, &v.to_string());
        }
        out.push('\n');
    }
    out
}

/// Parses CSV text into a relation named `name`, inferring an all-string
/// schema from the header row. This is the loader of the `serve` binary's
/// `--csv` flag: eCFD pattern constants are strings in the paper's
/// experiments, so string columns are the lossless default — use
/// [`from_csv`] with an explicit [`Schema`] when typed columns matter.
pub fn from_csv_infer(name: &str, text: &str) -> Result<Relation> {
    let header = text.lines().next().ok_or(RelationError::Csv {
        line: 1,
        message: "missing header row".into(),
    })?;
    let mut builder = Schema::builder(name);
    for field in parse_line(header, 1)? {
        builder = builder.attr(field, DataType::Str);
    }
    from_csv(builder.try_build()?, text)
}

/// Parses CSV text into a relation conforming to `schema`.
///
/// The header row must list exactly the schema's attribute names in order.
/// Field values are coerced according to the declared attribute types;
/// the literal `NULL` always maps to [`Value::Null`].
pub fn from_csv(schema: Schema, text: &str) -> Result<Relation> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(RelationError::Csv {
        line: 1,
        message: "missing header row".into(),
    })?;
    let header_fields = parse_line(header, 1)?;
    let expected: Vec<String> = schema.attr_names().iter().map(|s| s.to_string()).collect();
    if header_fields != expected {
        return Err(RelationError::Csv {
            line: 1,
            message: format!(
                "header {:?} does not match schema attributes {:?}",
                header_fields, expected
            ),
        });
    }

    let mut relation = Relation::new(schema);
    for (idx, line) in lines {
        let line_no = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let fields = parse_line(line, line_no)?;
        if fields.len() != relation.schema().arity() {
            return Err(RelationError::Csv {
                line: line_no,
                message: format!(
                    "expected {} fields, found {}",
                    relation.schema().arity(),
                    fields.len()
                ),
            });
        }
        let mut values = Vec::with_capacity(fields.len());
        for (field, attr) in fields.iter().zip(relation.schema().attributes()) {
            let value = if field.eq_ignore_ascii_case("null") {
                Value::Null
            } else {
                match attr.data_type() {
                    DataType::Int => {
                        field
                            .parse::<i64>()
                            .map(Value::Int)
                            .map_err(|_| RelationError::Csv {
                                line: line_no,
                                message: format!("`{field}` is not an integer for {}", attr.name),
                            })?
                    }
                    DataType::Bool => match field.to_ascii_lowercase().as_str() {
                        "true" | "1" => Value::Bool(true),
                        "false" | "0" => Value::Bool(false),
                        _ => {
                            return Err(RelationError::Csv {
                                line: line_no,
                                message: format!("`{field}` is not a boolean for {}", attr.name),
                            })
                        }
                    },
                    DataType::Str => Value::Str(field.clone()),
                }
            };
            values.push(value);
        }
        relation.insert(Tuple::new(values))?;
    }
    Ok(relation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> Schema {
        Schema::builder("cust")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .attr("N", DataType::Int)
            .attr("OK", DataType::Bool)
            .build()
    }

    #[test]
    fn round_trip() {
        let rel = Relation::with_tuples(
            schema(),
            [
                Tuple::new(vec![
                    Value::str("Albany"),
                    Value::str("518"),
                    Value::int(3),
                    Value::bool(true),
                ]),
                Tuple::new(vec![
                    Value::str("New York, NY"),
                    Value::Null,
                    Value::int(-1),
                    Value::bool(false),
                ]),
            ],
        )
        .unwrap();
        let text = to_csv(&rel);
        let parsed = from_csv(schema(), &text).unwrap();
        assert_eq!(parsed, rel);
    }

    #[test]
    fn quoting_of_commas_and_quotes() {
        let mut out = String::new();
        write_field(&mut out, r#"He said "hi", twice"#);
        assert_eq!(out, r#""He said ""hi"", twice""#);
        let fields = parse_line(&out, 1).unwrap();
        assert_eq!(fields, vec![r#"He said "hi", twice"#]);
    }

    #[test]
    fn header_mismatch_is_rejected() {
        let text = "X,Y,Z,W\n";
        let err = from_csv(schema(), text).unwrap_err();
        assert!(matches!(err, RelationError::Csv { line: 1, .. }));
    }

    #[test]
    fn bad_field_counts_and_types_are_rejected() {
        let text = "CT,AC,N,OK\nAlbany,518,3\n";
        assert!(from_csv(schema(), text).is_err());
        let text = "CT,AC,N,OK\nAlbany,518,notanint,true\n";
        assert!(from_csv(schema(), text).is_err());
        let text = "CT,AC,N,OK\nAlbany,518,3,maybe\n";
        assert!(from_csv(schema(), text).is_err());
    }

    #[test]
    fn empty_lines_are_skipped_and_null_parses() {
        let text = "CT,AC,N,OK\n\nAlbany,NULL,3,true\n\n";
        let rel = from_csv(schema(), text).unwrap();
        assert_eq!(rel.len(), 1);
        assert!(rel.tuples().next().unwrap().values()[1].is_null());
    }

    #[test]
    fn missing_header_is_an_error() {
        assert!(from_csv(schema(), "").is_err());
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        assert!(parse_line("\"abc", 3).is_err());
        assert!(parse_line("ab\"c", 3).is_err());
    }

    /// Dictionary codes are a function of the value stream, so a relation
    /// reloaded from CSV re-encodes to exactly the codes of the original —
    /// including unicode payloads, the empty string, and the `'@'` blank
    /// marker the SQL encoding uses.
    #[test]
    fn dictionary_codes_are_stable_across_csv_reload() {
        use crate::columnar::{CodeColumns, Dictionary};

        let schema = Schema::builder("t")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .attr("N", DataType::Int)
            .build();
        let rel = Relation::with_tuples(
            schema.clone(),
            [
                Tuple::new(vec![Value::str("Zürich"), Value::str("@"), Value::int(1)]),
                Tuple::new(vec![Value::str(""), Value::str("518"), Value::int(-7)]),
                Tuple::new(vec![Value::str("東京"), Value::str(""), Value::Null]),
                Tuple::new(vec![
                    Value::str("a,b\"c"),
                    Value::str("@"),
                    Value::int(i64::MAX),
                ]),
                Tuple::new(vec![Value::str("Zürich"), Value::str("518"), Value::int(1)]),
            ],
        )
        .unwrap();

        let reloaded = from_csv(schema, &to_csv(&rel)).unwrap();
        // NULL round-trips through the literal; everything else verbatim.
        assert_eq!(reloaded.len(), rel.len());

        let mut dict_a = Dictionary::new();
        let mut dict_b = Dictionary::new();
        let view_a = CodeColumns::build(&rel, &mut dict_a);
        let view_b = CodeColumns::build(&reloaded, &mut dict_b);
        assert_eq!(view_a.num_rows(), view_b.num_rows());
        for pos in 0..view_a.num_rows() {
            assert_eq!(
                view_a.row_codes(pos),
                view_b.row_codes(pos),
                "codes diverge in row {pos} after CSV reload"
            );
        }
        // And re-encoding the original into its own dictionary issues the
        // same codes again (interning is idempotent).
        let view_c = CodeColumns::build(&rel, &mut dict_a);
        for pos in 0..view_a.num_rows() {
            assert_eq!(view_a.row_codes(pos), view_c.row_codes(pos));
        }
    }
}
