//! # ecfd-relation
//!
//! In-memory relational storage substrate for the eCFD reproduction.
//!
//! The paper ("Increasing the Expressivity of Conditional Functional Dependencies
//! without Extra Complexity", ICDE 2008) evaluates its detection algorithms on a
//! `cust` relation stored in a commercial RDBMS. This crate provides the storage
//! layer that substitutes for that RDBMS: typed values and domains, schemas,
//! tuples, relations with stable row identifiers, a named catalog, CSV
//! import/export and update batches (the paper's `ΔD⁺` / `ΔD⁻`).
//!
//! The crate is deliberately free of any eCFD-specific logic so that it can be
//! reused by the SQL engine (`ecfd-engine`), the constraint library
//! (`ecfd-core`) and the detection algorithms (`ecfd-detect`).
//!
//! ## The columnar execution core
//!
//! Alongside the row-oriented storage, [`columnar`] provides the
//! dictionary-encoded representation the detection hot path runs on: a
//! [`Dictionary`] interning strings to dense symbols, a fixed-width [`Code`]
//! word packing `Null` / `Int` / `Bool` / interned-string values (see the
//! [`columnar`] module docs for the exact Value ↔ Code mapping, dictionary
//! lifetime rules, and when a view is invalidated), a [`CodeVec`]
//! small-vector projection key, [`CodeColumns`] of per-attribute codes
//! derivable from any [`Relation`], and a [`ColumnarView`] that keeps such
//! columns current under [`Delta`] application. Code equality decides value
//! equality within one dictionary, so group-by and pattern matching become
//! single-word integer comparisons. Columns and the dictionary's decode side
//! ([`SymbolTable`]) live in [`ChunkedVec`]s, so a [`FrozenView`] of a
//! maintained table shares its chunks instead of copying them.
//!
//! ## Example
//!
//! ```
//! use ecfd_relation::{Schema, DataType, Relation, Tuple, Value};
//!
//! let schema = Schema::builder("cust")
//!     .attr("CT", DataType::Str)
//!     .attr("AC", DataType::Str)
//!     .build();
//! let mut cust = Relation::new(schema);
//! cust.insert(Tuple::new(vec![Value::str("Albany"), Value::str("518")])).unwrap();
//! cust.insert(Tuple::new(vec![Value::str("NYC"), Value::str("212")])).unwrap();
//! assert_eq!(cust.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod catalog;
pub mod columnar;
pub mod csv;
pub mod error;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod update;
pub mod value;

pub use catalog::{Catalog, SharedCatalog};
pub use columnar::{
    shard_of, shard_of_value, ChunkedVec, Code, CodeColumns, CodeMap, CodeVec, ColumnarView,
    Dictionary, FrozenView, FxBuildHasher, FxHasher, SymbolTable,
};
pub use error::{RelationError, Result};
pub use relation::{Relation, RowId};
pub use schema::{AttrId, Attribute, DataType, Domain, Schema, SchemaBuilder};
pub use tuple::Tuple;
pub use update::{Delta, UpdateStats};
pub use value::Value;
