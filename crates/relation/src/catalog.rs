//! The catalog: a named collection of relations, standing in for a database.
//!
//! The detection algorithms of the paper operate against an RDBMS holding the
//! data relation (`cust`), the constraint-encoding relations (`enc`, `T_AL`,
//! `T_AR`) and the auxiliary relation `Aux(D)`. The [`Catalog`] holds all of
//! them; [`SharedCatalog`] wraps it for shared ownership across the SQL engine
//! and the detection drivers.

use crate::error::{RelationError, Result};
use crate::relation::Relation;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A named collection of relations.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, Relation>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a relation under its schema name. Fails if the name is taken.
    pub fn create(&mut self, relation: Relation) -> Result<()> {
        let name = relation.name().to_string();
        if self.tables.contains_key(&name) {
            return Err(RelationError::DuplicateRelation(name));
        }
        self.tables.insert(name, relation);
        Ok(())
    }

    /// Registers a relation, replacing any existing relation of the same name.
    pub fn create_or_replace(&mut self, relation: Relation) {
        self.tables.insert(relation.name().to_string(), relation);
    }

    /// Removes a relation, returning it.
    pub fn drop_table(&mut self, name: &str) -> Result<Relation> {
        self.tables
            .remove(name)
            .ok_or_else(|| RelationError::UnknownRelation(name.to_string()))
    }

    /// Whether a relation with the given name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Immutable access to a relation.
    pub fn get(&self, name: &str) -> Result<&Relation> {
        self.tables
            .get(name)
            .ok_or_else(|| RelationError::UnknownRelation(name.to_string()))
    }

    /// Mutable access to a relation.
    pub fn get_mut(&mut self, name: &str) -> Result<&mut Relation> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| RelationError::UnknownRelation(name.to_string()))
    }

    /// Names of all registered relations, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no relations are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total number of rows across all relations (useful for reporting).
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Relation::len).sum()
    }
}

/// A catalog behind an `Arc<RwLock<..>>` for shared ownership between the SQL
/// engine session and detection drivers.
#[derive(Debug, Clone, Default)]
pub struct SharedCatalog {
    inner: Arc<RwLock<Catalog>>,
}

impl SharedCatalog {
    /// Wraps an existing catalog.
    pub fn new(catalog: Catalog) -> Self {
        SharedCatalog {
            inner: Arc::new(RwLock::new(catalog)),
        }
    }

    /// Runs a closure with shared (read) access to the catalog.
    pub fn read<R>(&self, f: impl FnOnce(&Catalog) -> R) -> R {
        f(&self.inner.read())
    }

    /// Runs a closure with exclusive (write) access to the catalog.
    pub fn write<R>(&self, f: impl FnOnce(&mut Catalog) -> R) -> R {
        f(&mut self.inner.write())
    }

    /// Clones the current catalog contents (snapshot).
    pub fn snapshot(&self) -> Catalog {
        self.inner.read().clone()
    }
}

impl From<Catalog> for SharedCatalog {
    fn from(c: Catalog) -> Self {
        SharedCatalog::new(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};
    use crate::tuple::Tuple;

    fn cust() -> Relation {
        let schema = Schema::builder("cust")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .build();
        Relation::with_tuples(schema, [Tuple::from_iter(["Albany", "518"])]).unwrap()
    }

    #[test]
    fn create_get_drop() {
        let mut cat = Catalog::new();
        cat.create(cust()).unwrap();
        assert!(cat.contains("cust"));
        assert_eq!(cat.get("cust").unwrap().len(), 1);
        assert!(matches!(
            cat.create(cust()),
            Err(RelationError::DuplicateRelation(_))
        ));
        assert_eq!(cat.table_names(), vec!["cust"]);
        assert_eq!(cat.total_rows(), 1);

        let dropped = cat.drop_table("cust").unwrap();
        assert_eq!(dropped.len(), 1);
        assert!(cat.is_empty());
        assert!(cat.get("cust").is_err());
        assert!(cat.drop_table("cust").is_err());
    }

    #[test]
    fn create_or_replace_overwrites() {
        let mut cat = Catalog::new();
        cat.create(cust()).unwrap();
        let schema = Schema::builder("cust").attr("X", DataType::Int).build();
        cat.create_or_replace(Relation::new(schema));
        assert_eq!(cat.get("cust").unwrap().len(), 0);
        assert_eq!(cat.get("cust").unwrap().schema().arity(), 1);
    }

    #[test]
    fn get_mut_allows_inserts() {
        let mut cat = Catalog::new();
        cat.create(cust()).unwrap();
        cat.get_mut("cust")
            .unwrap()
            .insert(Tuple::from_iter(["Troy", "518"]))
            .unwrap();
        assert_eq!(cat.get("cust").unwrap().len(), 2);
    }

    #[test]
    fn shared_catalog_read_write_snapshot() {
        let shared = SharedCatalog::new(Catalog::new());
        shared.write(|c| c.create(cust())).unwrap();
        let n = shared.read(|c| c.get("cust").unwrap().len());
        assert_eq!(n, 1);
        let snap = shared.snapshot();
        assert!(snap.contains("cust"));
        // Mutating after the snapshot does not affect it.
        shared.write(|c| {
            c.get_mut("cust")
                .unwrap()
                .insert(Tuple::from_iter(["Troy", "518"]))
                .unwrap()
        });
        assert_eq!(snap.get("cust").unwrap().len(), 1);
        assert_eq!(shared.read(|c| c.get("cust").unwrap().len()), 2);
    }
}
