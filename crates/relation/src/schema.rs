//! Schemas, attributes and attribute domains.
//!
//! The eCFD formalism distinguishes attributes with *finite* domains from
//! attributes with *infinite* domains (Section III of the paper analyses both
//! cases), so [`Domain`] captures that distinction explicitly and the
//! satisfiability machinery in `ecfd-core` consults it.

use crate::error::{RelationError, Result};
use crate::tuple::Tuple;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Index of an attribute inside a schema (position in the attribute list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AttrId(pub usize);

impl AttrId {
    /// Returns the underlying position.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Base type of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit integers.
    Int,
    /// UTF-8 strings.
    Str,
    /// Booleans (used for the SV/MV violation flags).
    Bool,
}

impl DataType {
    /// Checks whether `value` inhabits this type. `NULL` inhabits every type.
    pub fn admits(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (DataType::Int, Value::Int(_))
                | (DataType::Str, Value::Str(_))
                | (DataType::Bool, Value::Bool(_))
        )
    }

    /// Human readable type name.
    pub fn name(&self) -> &'static str {
        match self {
            DataType::Int => "INT",
            DataType::Str => "STR",
            DataType::Bool => "BOOL",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Domain of an attribute: either all values of the base type (infinite for
/// `Int`/`Str`), or an explicitly enumerated finite set.
///
/// The paper's Proposition 3.3 hinges on whether finite-domain attributes are
/// present, so the distinction is first-class here.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Domain {
    /// The full (conceptually infinite) domain of the base type.
    ///
    /// `Bool` is technically finite but we follow the paper in treating the
    /// declared enumeration as the only "finite domain" case.
    Unbounded(DataType),
    /// An explicit finite set of admissible values, all of the same base type.
    Finite(DataType, BTreeSet<Value>),
}

impl Domain {
    /// Creates a finite domain from an iterator of values.
    pub fn finite(ty: DataType, values: impl IntoIterator<Item = Value>) -> Self {
        Domain::Finite(ty, values.into_iter().collect())
    }

    /// The base type of the domain.
    pub fn data_type(&self) -> DataType {
        match self {
            Domain::Unbounded(t) | Domain::Finite(t, _) => *t,
        }
    }

    /// True if the domain is an explicitly enumerated finite set.
    pub fn is_finite(&self) -> bool {
        matches!(self, Domain::Finite(..))
    }

    /// The enumerated values, if finite.
    pub fn values(&self) -> Option<&BTreeSet<Value>> {
        match self {
            Domain::Finite(_, vs) => Some(vs),
            Domain::Unbounded(_) => None,
        }
    }

    /// Whether `value` is admissible in this domain.
    pub fn contains(&self, value: &Value) -> bool {
        match self {
            Domain::Unbounded(t) => t.admits(value),
            Domain::Finite(t, vs) => t.admits(value) && (value.is_null() || vs.contains(value)),
        }
    }

    /// Picks some value of the domain that is *not* in `exclude`, if one exists.
    ///
    /// For unbounded domains a fresh value is synthesised; for finite domains the
    /// enumeration is scanned. The static analyses draw the representatives of
    /// the class of values outside every constant from it.
    pub fn fresh_value_outside(&self, exclude: &BTreeSet<Value>) -> Option<Value> {
        match self {
            Domain::Finite(_, vs) => vs.iter().find(|v| !exclude.contains(*v)).cloned(),
            Domain::Unbounded(DataType::Int) => {
                let mut candidate = exclude
                    .iter()
                    .filter_map(|v| v.as_int())
                    .max()
                    .unwrap_or(0)
                    .saturating_add(1);
                loop {
                    let v = Value::Int(candidate);
                    if !exclude.contains(&v) {
                        return Some(v);
                    }
                    candidate = candidate.saturating_add(1);
                }
            }
            Domain::Unbounded(DataType::Str) => {
                for i in 0.. {
                    let v = Value::str(format!("⊥fresh{i}"));
                    if !exclude.contains(&v) {
                        return Some(v);
                    }
                }
                None
            }
            Domain::Unbounded(DataType::Bool) => [Value::Bool(false), Value::Bool(true)]
                .into_iter()
                .find(|v| !exclude.contains(v)),
        }
    }
}

/// A named, typed attribute of a relation schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attribute {
    /// Attribute name, e.g. `"CT"`.
    pub name: String,
    /// Declared domain.
    pub domain: Domain,
}

impl Attribute {
    /// Creates an attribute with an unbounded domain of the given type.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Attribute {
            name: name.into(),
            domain: Domain::Unbounded(ty),
        }
    }

    /// Creates an attribute with a finite domain.
    pub fn with_finite_domain(
        name: impl Into<String>,
        ty: DataType,
        values: impl IntoIterator<Item = Value>,
    ) -> Self {
        Attribute {
            name: name.into(),
            domain: Domain::finite(ty, values),
        }
    }

    /// Base type of the attribute.
    pub fn data_type(&self) -> DataType {
        self.domain.data_type()
    }
}

/// An ordered list of attributes describing a relation, plus the relation name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    name: String,
    attributes: Vec<Attribute>,
}

impl Schema {
    /// Creates a schema from a name and attribute list.
    ///
    /// Returns an error if two attributes share a name.
    pub fn try_new(name: impl Into<String>, attributes: Vec<Attribute>) -> Result<Self> {
        let name = name.into();
        let mut seen = BTreeSet::new();
        for a in &attributes {
            if !seen.insert(a.name.clone()) {
                return Err(RelationError::Schema(format!(
                    "duplicate attribute `{}` in schema `{}`",
                    a.name, name
                )));
            }
        }
        Ok(Schema { name, attributes })
    }

    /// Starts a fluent builder for a schema.
    pub fn builder(name: impl Into<String>) -> SchemaBuilder {
        SchemaBuilder {
            name: name.into(),
            attributes: Vec::new(),
        }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// All attributes in declaration order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// The attribute at `id`.
    pub fn attribute(&self, id: AttrId) -> Option<&Attribute> {
        self.attributes.get(id.0)
    }

    /// Looks up an attribute position by name (case-sensitive).
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.attributes
            .iter()
            .position(|a| a.name == name)
            .map(AttrId)
    }

    /// Looks up an attribute position by name, returning an error naming the
    /// relation when absent.
    pub fn require_attr(&self, name: &str) -> Result<AttrId> {
        self.attr_id(name)
            .ok_or_else(|| RelationError::UnknownAttribute {
                name: name.to_string(),
                relation: self.name.clone(),
            })
    }

    /// Checks that `tuple` fits this schema: one value per attribute, each
    /// admitted by the attribute's type.
    pub fn validate(&self, tuple: &Tuple) -> Result<()> {
        if tuple.arity() != self.arity() {
            return Err(RelationError::ArityMismatch {
                expected: self.arity(),
                actual: tuple.arity(),
            });
        }
        for (attr, value) in self.attributes.iter().zip(tuple.values()) {
            if !attr.data_type().admits(value) {
                return Err(RelationError::TypeMismatch {
                    attribute: attr.name.clone(),
                    expected: attr.data_type().name().to_string(),
                    actual: value.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Names of all attributes, in order.
    pub fn attr_names(&self) -> Vec<&str> {
        self.attributes.iter().map(|a| a.name.as_str()).collect()
    }

    /// Returns a new schema that appends the given attributes (used to extend a
    /// relation with the SV / MV violation flags, Section V of the paper).
    pub fn extend(&self, extra: Vec<Attribute>) -> Result<Schema> {
        let mut attrs = self.attributes.clone();
        attrs.extend(extra);
        Schema::try_new(self.name.clone(), attrs)
    }

    /// Returns a copy of the schema under a different relation name.
    pub fn renamed(&self, name: impl Into<String>) -> Schema {
        Schema {
            name: name.into(),
            attributes: self.attributes.clone(),
        }
    }

    /// Returns a schema containing only the attributes named in `names`, in the
    /// given order.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let mut attrs = Vec::with_capacity(names.len());
        for n in names {
            let id = self.require_attr(n)?;
            attrs.push(self.attributes[id.0].clone());
        }
        Schema::try_new(self.name.clone(), attrs)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", a.name, a.data_type())?;
        }
        write!(f, ")")
    }
}

/// Fluent builder for [`Schema`].
#[derive(Debug, Clone)]
pub struct SchemaBuilder {
    name: String,
    attributes: Vec<Attribute>,
}

impl SchemaBuilder {
    /// Adds an attribute with an unbounded domain.
    pub fn attr(mut self, name: impl Into<String>, ty: DataType) -> Self {
        self.attributes.push(Attribute::new(name, ty));
        self
    }

    /// Adds an attribute with an explicitly enumerated finite domain.
    pub fn finite_attr(
        mut self,
        name: impl Into<String>,
        ty: DataType,
        values: impl IntoIterator<Item = Value>,
    ) -> Self {
        self.attributes
            .push(Attribute::with_finite_domain(name, ty, values));
        self
    }

    /// Finalises the schema, panicking on duplicate attribute names.
    ///
    /// Use [`SchemaBuilder::try_build`] in code paths where duplicates can come
    /// from user input.
    pub fn build(self) -> Schema {
        self.try_build().expect("invalid schema")
    }

    /// Finalises the schema, returning an error on duplicate attribute names.
    pub fn try_build(self) -> Result<Schema> {
        Schema::try_new(self.name, self.attributes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn builder_builds_expected_schema() {
        let s = cust_schema();
        assert_eq!(s.name(), "cust");
        assert_eq!(s.arity(), 6);
        assert_eq!(s.attr_names(), vec!["AC", "PN", "NM", "STR", "CT", "ZIP"]);
        assert_eq!(s.attr_id("CT"), Some(AttrId(4)));
        assert_eq!(s.attr_id("ct"), None, "lookups are case-sensitive");
    }

    #[test]
    fn duplicate_attribute_is_rejected() {
        let r = Schema::builder("t")
            .attr("A", DataType::Int)
            .attr("A", DataType::Str)
            .try_build();
        assert!(matches!(r, Err(RelationError::Schema(_))));
    }

    #[test]
    fn require_attr_reports_relation_name() {
        let s = cust_schema();
        let err = s.require_attr("NOPE").unwrap_err();
        match err {
            RelationError::UnknownAttribute { name, relation } => {
                assert_eq!(name, "NOPE");
                assert_eq!(relation, "cust");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn extend_appends_violation_flags() {
        let s = cust_schema();
        let extended = s
            .extend(vec![
                Attribute::new("SV", DataType::Bool),
                Attribute::new("MV", DataType::Bool),
            ])
            .unwrap();
        assert_eq!(extended.arity(), 8);
        assert_eq!(extended.attr_id("SV"), Some(AttrId(6)));
        assert_eq!(extended.attr_id("MV"), Some(AttrId(7)));
    }

    #[test]
    fn project_selects_and_reorders() {
        let s = cust_schema();
        let p = s.project(&["CT", "AC"]).unwrap();
        assert_eq!(p.attr_names(), vec!["CT", "AC"]);
        assert!(s.project(&["CT", "nope"]).is_err());
    }

    #[test]
    fn datatype_admits_values() {
        assert!(DataType::Int.admits(&Value::int(1)));
        assert!(DataType::Int.admits(&Value::Null));
        assert!(!DataType::Int.admits(&Value::str("x")));
        assert!(DataType::Str.admits(&Value::str("x")));
        assert!(DataType::Bool.admits(&Value::bool(true)));
    }

    #[test]
    fn finite_domain_contains_and_fresh_values() {
        let d = Domain::finite(DataType::Str, ["a", "b", "c"].into_iter().map(Value::str));
        assert!(d.is_finite());
        assert!(d.contains(&Value::str("a")));
        assert!(!d.contains(&Value::str("z")));

        let exclude: BTreeSet<_> = [Value::str("a"), Value::str("b")].into_iter().collect();
        assert_eq!(d.fresh_value_outside(&exclude), Some(Value::str("c")));
        let all: BTreeSet<_> = ["a", "b", "c"].into_iter().map(Value::str).collect();
        assert_eq!(d.fresh_value_outside(&all), None);
    }

    #[test]
    fn unbounded_domain_always_has_fresh_values() {
        let d = Domain::Unbounded(DataType::Int);
        let exclude: BTreeSet<_> = (0..100).map(Value::int).collect();
        let fresh = d.fresh_value_outside(&exclude).unwrap();
        assert!(!exclude.contains(&fresh));

        let d = Domain::Unbounded(DataType::Str);
        let exclude: BTreeSet<_> = ["x", "y"].into_iter().map(Value::str).collect();
        let fresh = d.fresh_value_outside(&exclude).unwrap();
        assert!(!exclude.contains(&fresh));
    }

    #[test]
    fn schema_display_is_readable() {
        let s = Schema::builder("t")
            .attr("A", DataType::Int)
            .attr("B", DataType::Str)
            .build();
        assert_eq!(s.to_string(), "t(A: INT, B: STR)");
    }
}
