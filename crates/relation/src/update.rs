//! Update batches: the paper's `ΔD⁺` (insertions) and `ΔD⁻` (deletions).
//!
//! `INCDETECT` (Section V-B) receives a set of updates `ΔD` and incrementally
//! maintains the violation set. A [`Delta`] carries both the tuples to insert
//! and the tuples to delete; the two sets are kept disjoint as in the paper's
//! experiments ("we always ensure that ΔD⁺ and ΔD⁻ do not overlap").

use crate::error::Result;
use crate::relation::{Relation, RowId};
use crate::tuple::Tuple;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A batch of updates against a single relation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Delta {
    /// Tuples to insert (`ΔD⁺`).
    pub insertions: Vec<Tuple>,
    /// Tuples to delete (`ΔD⁻`), identified by value.
    pub deletions: Vec<Tuple>,
}

/// Statistics returned by applying a [`Delta`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateStats {
    /// Number of rows inserted.
    pub inserted: usize,
    /// Number of rows deleted (all duplicates of each deletion tuple count).
    pub deleted: usize,
    /// Number of deletion tuples that matched no row.
    pub missed_deletions: usize,
}

impl Delta {
    /// An empty delta.
    pub fn new() -> Self {
        Delta::default()
    }

    /// A delta consisting only of insertions.
    pub fn insert_only(insertions: Vec<Tuple>) -> Self {
        Delta {
            insertions,
            deletions: Vec::new(),
        }
    }

    /// A delta consisting only of deletions.
    pub fn delete_only(deletions: Vec<Tuple>) -> Self {
        Delta {
            insertions: Vec::new(),
            deletions,
        }
    }

    /// A delta replacing one tuple by another — a value modification expressed
    /// in the paper's pure insert/delete update model (`ΔD⁻` carries the old
    /// tuple, `ΔD⁺` the new one).
    pub fn replacement(old: Tuple, new: Tuple) -> Self {
        Delta {
            insertions: vec![new],
            deletions: vec![old],
        }
    }

    /// Adds a replacement (delete `old`, insert `new`) to this batch.
    pub fn push_replacement(&mut self, old: Tuple, new: Tuple) {
        self.deletions.push(old);
        self.insertions.push(new);
    }

    /// Absorbs another delta into this one (deletions and insertions are
    /// concatenated; processing order within each kind is preserved).
    pub fn merge(&mut self, other: Delta) {
        self.deletions.extend(other.deletions);
        self.insertions.extend(other.insertions);
    }

    /// Combines a sequence of deltas into a single batch.
    pub fn merged(deltas: impl IntoIterator<Item = Delta>) -> Delta {
        let mut out = Delta::new();
        for delta in deltas {
            out.merge(delta);
        }
        out
    }

    /// Number of insertion plus deletion tuples.
    pub fn len(&self) -> usize {
        self.insertions.len() + self.deletions.len()
    }

    /// Whether the delta carries no updates at all.
    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty() && self.deletions.is_empty()
    }

    /// Whether the insertion and deletion sets share a tuple (the experiments
    /// in the paper always keep them disjoint).
    pub fn overlaps(&self) -> bool {
        self.deletions.iter().any(|d| self.insertions.contains(d))
    }

    /// Applies the delta to a relation: deletions first, then insertions, as in
    /// `INCDETECT`'s processing order. Returns statistics plus the row ids of
    /// the newly inserted rows (so callers can track them, e.g. to set their
    /// violation flags).
    pub fn apply(&self, relation: &mut Relation) -> Result<(UpdateStats, Vec<RowId>)> {
        let removed = relation.delete_matching(&self.deletions);
        // As if the victims were removed one after another: the first
        // listing of a stored tuple takes every copy, and a later listing of
        // the same tuple finds none left.
        let mut unclaimed: HashSet<&Tuple> = removed.iter().map(|(_, t)| t).collect();
        let mut stats = UpdateStats {
            deleted: removed.len(),
            missed_deletions: self
                .deletions
                .iter()
                .filter(|victim| !unclaimed.remove(victim))
                .count(),
            ..UpdateStats::default()
        };
        let mut new_ids = Vec::with_capacity(self.insertions.len());
        for ins in &self.insertions {
            new_ids.push(relation.insert(ins.clone())?);
            stats.inserted += 1;
        }
        Ok((stats, new_ids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};

    fn rel() -> Relation {
        let schema = Schema::builder("t")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .build();
        Relation::with_tuples(
            schema,
            [
                Tuple::from_iter(["Albany", "518"]),
                Tuple::from_iter(["NYC", "212"]),
                Tuple::from_iter(["NYC", "212"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn apply_deletes_then_inserts() {
        let mut r = rel();
        let delta = Delta {
            insertions: vec![Tuple::from_iter(["Troy", "518"])],
            deletions: vec![
                Tuple::from_iter(["NYC", "212"]),
                Tuple::from_iter(["Missing", "000"]),
            ],
        };
        let (stats, new_ids) = delta.apply(&mut r).unwrap();
        assert_eq!(stats.inserted, 1);
        assert_eq!(stats.deleted, 2, "both duplicate NYC rows removed");
        assert_eq!(stats.missed_deletions, 1);
        assert_eq!(new_ids.len(), 1);
        assert_eq!(r.len(), 2);
        assert!(r.contains_row(new_ids[0]));
    }

    #[test]
    fn a_victim_listed_twice_misses_once() {
        let mut r = rel();
        let nyc = Tuple::from_iter(["NYC", "212"]);
        let missing = Tuple::from_iter(["Missing", "000"]);
        let delta = Delta::delete_only(vec![nyc.clone(), missing.clone(), nyc, missing]);
        let (stats, _) = delta.apply(&mut r).unwrap();
        assert_eq!(stats.deleted, 2, "both duplicate NYC rows removed");
        assert_eq!(
            stats.missed_deletions, 3,
            "the second NYC listing and both missing ones"
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn replacement_deletes_then_inserts() {
        let mut r = rel();
        let delta = Delta::replacement(
            Tuple::from_iter(["Albany", "518"]),
            Tuple::from_iter(["Albany", "519"]),
        );
        let (stats, _) = delta.apply(&mut r).unwrap();
        assert_eq!(stats.deleted, 1);
        assert_eq!(stats.inserted, 1);
        assert_eq!(r.len(), 3);
        assert!(r
            .tuples()
            .any(|t| t == &Tuple::from_iter(["Albany", "519"])));
        assert!(!r
            .tuples()
            .any(|t| t == &Tuple::from_iter(["Albany", "518"])));
    }

    #[test]
    fn merge_concatenates_batches() {
        let mut a = Delta::delete_only(vec![Tuple::from_iter(["NYC", "212"])]);
        a.push_replacement(
            Tuple::from_iter(["Albany", "518"]),
            Tuple::from_iter(["Albany", "519"]),
        );
        let b = Delta::insert_only(vec![Tuple::from_iter(["Troy", "518"])]);
        let merged = Delta::merged([a, b]);
        assert_eq!(merged.deletions.len(), 2);
        assert_eq!(merged.insertions.len(), 2);
        let mut r = rel();
        let (stats, _) = merged.apply(&mut r).unwrap();
        assert_eq!(stats.deleted, 3, "both NYC duplicates plus the Albany row");
        assert_eq!(stats.inserted, 2);
    }

    #[test]
    fn constructors_and_overlap() {
        let ins = Delta::insert_only(vec![Tuple::from_iter(["a", "b"])]);
        assert_eq!(ins.len(), 1);
        assert!(!ins.is_empty());
        assert!(!ins.overlaps());

        let del = Delta::delete_only(vec![Tuple::from_iter(["a", "b"])]);
        assert_eq!(del.len(), 1);

        let both = Delta {
            insertions: vec![Tuple::from_iter(["a", "b"])],
            deletions: vec![Tuple::from_iter(["a", "b"])],
        };
        assert!(both.overlaps());
        assert!(Delta::new().is_empty());
    }
}
