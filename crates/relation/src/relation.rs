//! Relations (tables) with stable row identifiers.
//!
//! Stable [`RowId`]s matter for the incremental detection algorithm
//! (`INCDETECT`, Section V-B of the paper): the violation flags SV / MV are
//! updated in place for individual rows, and deletions `ΔD⁻` must remove
//! specific rows without disturbing the identity of the remaining ones.
//! A relation keeps its rows in one map ordered by [`RowId`], so a lookup,
//! removal or in-place edit by id costs O(log n), and every view of the rows
//! (iteration, rendering, CSV, the SQL engine's scans, encodings) sees them
//! in id order.

use crate::error::{RelationError, Result};
use crate::schema::{AttrId, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Stable identifier of a row within a relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RowId(pub u64);

impl RowId {
    /// Returns the numeric id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A stamp no relation state has carried before: drawn from one
/// process-wide counter, so two stamps are equal only when one state was
/// cloned from the other. `Relaxed` suffices: only uniqueness matters, and
/// the counter publishes no other data.
fn fresh_stamp() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// An in-memory relation instance: a schema plus a bag of tuples with stable
/// row identifiers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Relation {
    schema: Schema,
    /// Names the current contents (see [`Relation::stamp`]). `clone` keeps
    /// it; a deserialised relation draws a fresh one.
    #[serde(skip, default = "fresh_stamp")]
    stamp: u64,
    next_row_id: u64,
    /// The rows, keyed (and so ordered) by row id.
    rows: BTreeMap<RowId, Tuple>,
    /// Row ids pre-assigned to upcoming insertions (front = next insert).
    /// A sharded serving layer schedules globally allocated ids here so a
    /// partitioned relation hands out the same ids a single-owner relation
    /// would; when empty, `insert` falls back to `next_row_id`.
    #[serde(skip)]
    scheduled_ids: VecDeque<RowId>,
    /// While recording (see [`Relation::record_deletions`]), every deleted
    /// row, in deletion order.
    #[serde(skip)]
    deleted: Option<Vec<(RowId, Tuple)>>,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn new(schema: Schema) -> Self {
        Relation {
            schema,
            stamp: fresh_stamp(),
            next_row_id: 0,
            rows: BTreeMap::new(),
            scheduled_ids: VecDeque::new(),
            deleted: None,
        }
    }

    /// Creates a relation holding the given tuples under the ids `0..n`, as
    /// `n` inserts into an empty relation would.
    pub fn with_tuples(schema: Schema, tuples: impl IntoIterator<Item = Tuple>) -> Result<Self> {
        Relation::with_rows(schema, (0..).map(RowId).zip(tuples))
    }

    /// Creates a relation from `(RowId, Tuple)` pairs, *preserving* the given
    /// row ids instead of assigning fresh ones. Used to materialise a
    /// relation from a frozen snapshot (see `columnar::FrozenView`) so that
    /// row-id-keyed reports and evidence stay meaningful against the copy.
    /// Subsequent [`Relation::insert`] calls assign ids above the largest id
    /// supplied here. Fails on duplicate row ids and on tuples that do not
    /// fit the schema.
    pub fn with_rows(
        schema: Schema,
        rows: impl IntoIterator<Item = (RowId, Tuple)>,
    ) -> Result<Self> {
        let mut rows: Vec<(RowId, Tuple)> = rows.into_iter().collect();
        for (_, tuple) in &rows {
            schema.validate(tuple)?;
        }
        // Stable, and one comparison per row when the ids come sorted.
        rows.sort_by_key(|(id, _)| *id);
        if let Some(pair) = rows.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(RelationError::DuplicateRow(pair[0].0 .0));
        }
        let mut rel = Relation::new(schema);
        rel.next_row_id = rows.last().map_or(0, |(id, _)| id.0 + 1);
        // Collecting sorted pairs builds the map bottom-up with full leaves.
        rel.rows = rows.into_iter().collect();
        Ok(rel)
    }

    /// The schema of the relation.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Name of the relation (from the schema).
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Names the relation's current contents: every change of its rows
    /// (`insert`, `delete`, `delete_matching`, `replace`, `update_value`)
    /// moves it to a stamp no earlier state of any relation carried, while a
    /// refused change, a read, and the row-id bookkeeping
    /// (`schedule_row_ids`, `record_deletions`) leave it alone. A clone keeps
    /// it. So two relations with equal stamps hold the same rows under the
    /// same ids, which is what lets an encoding of the rows be reused for as
    /// long as the stamp it was built at is current.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the relation contains no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts a tuple, returning the assigned row id: the next scheduled id
    /// when one is queued (see [`Relation::schedule_row_ids`]), otherwise the
    /// next sequential id.
    pub fn insert(&mut self, tuple: Tuple) -> Result<RowId> {
        self.schema.validate(&tuple)?;
        let id = match self.scheduled_ids.pop_front() {
            Some(id) => {
                if self.rows.contains_key(&id) {
                    return Err(RelationError::DuplicateRow(id.0));
                }
                self.next_row_id = self.next_row_id.max(id.0 + 1);
                id
            }
            None => {
                let id = RowId(self.next_row_id);
                self.next_row_id += 1;
                id
            }
        };
        self.rows.insert(id, tuple);
        self.stamp = fresh_stamp();
        Ok(id)
    }

    /// Queues row ids for upcoming insertions, in order: the next `insert`
    /// calls consume them front-to-back instead of assigning sequential ids.
    /// This is how a sharded serving layer makes a partitioned relation hand
    /// out the same (globally allocated, possibly non-contiguous) ids a
    /// single-owner relation would. Scheduled ids are transient: they are not
    /// serialised and should be cleared once the batch they were meant for
    /// has been applied.
    pub fn schedule_row_ids(&mut self, ids: impl IntoIterator<Item = RowId>) {
        self.scheduled_ids.extend(ids);
    }

    /// Drops any scheduled-but-unconsumed row ids.
    pub fn clear_scheduled_row_ids(&mut self) {
        self.scheduled_ids.clear();
    }

    /// Starts recording deletions: until [`Relation::take_deleted`], every
    /// deleted row's id and tuple is kept. A sharded serving layer records
    /// what a scheduled apply removed, whichever detector backend did the
    /// removing, so it can fold exactly those rows out of its merge state.
    pub fn record_deletions(&mut self) {
        self.deleted = Some(Vec::new());
    }

    /// Stops recording and returns the rows deleted since
    /// [`Relation::record_deletions`], in deletion order (empty when nothing
    /// was recording).
    pub fn take_deleted(&mut self) -> Vec<(RowId, Tuple)> {
        self.deleted.take().unwrap_or_default()
    }

    /// The id the next unscheduled insertion would be assigned.
    pub fn next_row_id(&self) -> u64 {
        self.next_row_id
    }

    /// Deletes a row by id, returning the removed tuple.
    pub fn delete(&mut self, id: RowId) -> Result<Tuple> {
        let tuple = self
            .rows
            .remove(&id)
            .ok_or(RelationError::UnknownRow(id.0))?;
        if let Some(deleted) = &mut self.deleted {
            deleted.push((id, tuple.clone()));
        }
        self.stamp = fresh_stamp();
        Ok(tuple)
    }

    /// Deletes every row whose tuple equals any of `victims` (bag semantics:
    /// all duplicates go) in one pass over the rows, and returns the removed
    /// rows in id order.
    pub fn delete_matching(&mut self, victims: &[Tuple]) -> Vec<(RowId, Tuple)> {
        if victims.is_empty() || self.rows.is_empty() {
            return Vec::new();
        }
        let victims: HashSet<&Tuple> = victims.iter().collect();
        let removed: Vec<(RowId, Tuple)> = self
            .rows
            .extract_if(.., |_, tuple| victims.contains(&*tuple))
            .collect();
        if !removed.is_empty() {
            if let Some(deleted) = &mut self.deleted {
                deleted.extend(removed.iter().cloned());
            }
            self.stamp = fresh_stamp();
        }
        removed
    }

    /// Returns the tuple stored under `id`.
    pub fn get(&self, id: RowId) -> Option<&Tuple> {
        self.rows.get(&id)
    }

    /// Returns true if the relation still contains the row `id`.
    pub fn contains_row(&self, id: RowId) -> bool {
        self.rows.contains_key(&id)
    }

    /// Replaces the tuple stored under `id`.
    pub fn replace(&mut self, id: RowId, tuple: Tuple) -> Result<Tuple> {
        self.schema.validate(&tuple)?;
        let stored = self
            .rows
            .get_mut(&id)
            .ok_or(RelationError::UnknownRow(id.0))?;
        self.stamp = fresh_stamp();
        Ok(std::mem::replace(stored, tuple))
    }

    /// Updates a single attribute of a row in place.
    pub fn update_value(&mut self, id: RowId, attr: AttrId, value: Value) -> Result<Value> {
        let stored = self
            .rows
            .get_mut(&id)
            .ok_or(RelationError::UnknownRow(id.0))?;
        let attr_meta =
            self.schema
                .attribute(attr)
                .ok_or_else(|| RelationError::UnknownAttribute {
                    name: attr.to_string(),
                    relation: self.schema.name().to_string(),
                })?;
        if !attr_meta.data_type().admits(&value) {
            return Err(RelationError::TypeMismatch {
                attribute: attr_meta.name.clone(),
                expected: attr_meta.data_type().name().to_string(),
                actual: value.to_string(),
            });
        }
        let old = stored.set(attr, value).expect("validated attribute");
        self.stamp = fresh_stamp();
        Ok(old)
    }

    /// Iterates over `(RowId, &Tuple)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Tuple)> + '_ {
        self.rows.iter().map(|(id, t)| (*id, t))
    }

    /// Iterates over tuples only, in id order.
    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.rows.values()
    }

    /// All row ids in ascending order.
    pub fn row_ids(&self) -> Vec<RowId> {
        self.rows.keys().copied().collect()
    }

    /// Collects all tuples into a vector (cloning), in id order.
    pub fn to_tuples(&self) -> Vec<Tuple> {
        self.rows.values().cloned().collect()
    }

    /// Creates a new relation with the same tuples but a schema extended by
    /// the given attributes, filling the new columns with `fill`. Row ids and
    /// the next-id counter are preserved (ids may be non-contiguous, e.g. in
    /// a shard of a partitioned table), as are any scheduled row ids and a
    /// running deletion record.
    pub fn extend_schema(
        &self,
        extra: Vec<crate::schema::Attribute>,
        fill: Value,
    ) -> Result<Relation> {
        let n_extra = extra.len();
        let schema = self.schema.extend(extra)?;
        let mut rel = Relation::with_rows(
            schema,
            self.iter()
                .map(|(id, t)| (id, t.extended(std::iter::repeat_n(fill.clone(), n_extra)))),
        )?;
        rel.next_row_id = rel.next_row_id.max(self.next_row_id);
        rel.scheduled_ids = self.scheduled_ids.clone();
        rel.deleted = self.deleted.clone();
        Ok(rel)
    }

    /// Renders the relation as an ASCII table, rows in id order (for
    /// examples and debugging).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let names = self.schema.attr_names();
        out.push_str(&names.join(" | "));
        out.push('\n');
        out.push_str(&"-".repeat(out.len().saturating_sub(1)));
        out.push('\n');
        for t in self.rows.values() {
            let row: Vec<String> = t.values().iter().map(|v| v.to_string()).collect();
            out.push_str(&row.join(" | "));
            out.push('\n');
        }
        out
    }
}

/// Same schema, and the same tuples under the same ids, however the two
/// relations were built.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}
impl Eq for Relation {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn schema() -> Schema {
        Schema::builder("cust")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .build()
    }

    fn rel_with(rows: &[(&str, &str)]) -> Relation {
        Relation::with_tuples(
            schema(),
            rows.iter().map(|(ct, ac)| Tuple::from_iter([*ct, *ac])),
        )
        .unwrap()
    }

    #[test]
    fn insert_assigns_monotonic_ids() {
        let mut r = Relation::new(schema());
        let a = r.insert(Tuple::from_iter(["Albany", "518"])).unwrap();
        let b = r.insert(Tuple::from_iter(["Troy", "518"])).unwrap();
        assert!(b > a);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(a).unwrap(), &Tuple::from_iter(["Albany", "518"]));
    }

    #[test]
    fn insert_validates_arity_and_types() {
        let mut r = Relation::new(schema());
        assert!(matches!(
            r.insert(Tuple::from_iter(["justone"])),
            Err(RelationError::ArityMismatch { .. })
        ));
        assert!(matches!(
            r.insert(Tuple::new(vec![Value::int(1), Value::str("518")])),
            Err(RelationError::TypeMismatch { .. })
        ));
        // NULLs are admitted by every type.
        assert!(r
            .insert(Tuple::new(vec![Value::Null, Value::str("518")]))
            .is_ok());
    }

    #[test]
    fn delete_preserves_remaining_order_and_ids() {
        let mut r = rel_with(&[("Albany", "518"), ("Troy", "518"), ("NYC", "212")]);
        let ids = r.row_ids();
        r.delete(ids[1]).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(ids[0]).unwrap()[AttrId(0)], Value::str("Albany"));
        assert_eq!(r.get(ids[2]).unwrap()[AttrId(0)], Value::str("NYC"));
        assert!(!r.contains_row(ids[1]));
        // Deleting again fails.
        assert!(r.delete(ids[1]).is_err());
        // Remaining iteration order is stable.
        let cities: Vec<_> = r.tuples().map(|t| t[AttrId(0)].clone()).collect();
        assert_eq!(cities, vec![Value::str("Albany"), Value::str("NYC")]);
    }

    #[test]
    fn delete_matching_removes_duplicates() {
        let mut r = rel_with(&[
            ("NYC", "212"),
            ("Troy", "518"),
            ("NYC", "212"),
            ("NYC", "718"),
            ("Troy", "518"),
        ]);
        let ids = r.row_ids();
        let nyc = Tuple::from_iter(["NYC", "212"]);
        let troy = Tuple::from_iter(["Troy", "518"]);
        let nowhere = Tuple::from_iter(["Nowhere", "000"]);
        let victims = [troy.clone(), nowhere.clone(), nyc.clone(), troy.clone()];
        let removed = r.delete_matching(&victims);
        assert_eq!(
            removed,
            vec![
                (ids[0], nyc.clone()),
                (ids[1], troy.clone()),
                (ids[2], nyc),
                (ids[4], troy),
            ],
            "removed rows come back in id order"
        );
        assert_eq!(r.row_ids(), vec![ids[3]]);
        assert!(r.delete_matching(&[nowhere]).is_empty());
        assert!(r.delete_matching(&[]).is_empty());
    }

    #[test]
    fn rows_are_kept_in_id_order_and_compare_by_id() {
        let troy = Tuple::from_iter(["Troy", "518"]);
        let nyc = Tuple::from_iter(["NYC", "212"]);
        let backwards = Relation::with_rows(
            schema(),
            [(RowId(9), troy.clone()), (RowId(2), nyc.clone())],
        )
        .unwrap();
        assert_eq!(backwards.row_ids(), vec![RowId(2), RowId(9)]);
        assert_eq!(backwards.to_tuples(), vec![nyc.clone(), troy.clone()]);
        assert_eq!(backwards.next_row_id(), 10);
        let mut scheduled = Relation::new(schema());
        scheduled.schedule_row_ids([RowId(9), RowId(2)]);
        scheduled.insert(troy.clone()).unwrap();
        scheduled.insert(nyc.clone()).unwrap();
        assert_eq!(scheduled, backwards, "same ids, same tuples");
        assert!(
            Relation::with_rows(schema(), [(RowId(4), troy.clone()), (RowId(4), nyc)]).is_err(),
            "duplicate ids are refused"
        );
        scheduled
            .replace(RowId(9), Tuple::from_iter(["Troy", "519"]))
            .unwrap();
        assert_ne!(scheduled, backwards);
    }

    #[test]
    fn recorded_deletions_are_returned_once() {
        let mut r = rel_with(&[("NYC", "212"), ("Troy", "518"), ("NYC", "212")]);
        let ids = r.row_ids();
        r.delete(ids[1]).unwrap();
        assert!(r.take_deleted().is_empty(), "nothing was recording");
        r.record_deletions();
        r.delete_matching(&[Tuple::from_iter(["NYC", "212"])]);
        let nyc = Tuple::from_iter(["NYC", "212"]);
        assert_eq!(r.take_deleted(), vec![(ids[0], nyc.clone()), (ids[2], nyc)]);
        assert!(r.take_deleted().is_empty(), "taking stops the recording");
    }

    #[test]
    fn update_value_respects_types() {
        let mut r = rel_with(&[("Albany", "718")]);
        let id = r.row_ids()[0];
        let old = r.update_value(id, AttrId(1), Value::str("518")).unwrap();
        assert_eq!(old, Value::str("718"));
        assert_eq!(r.get(id).unwrap()[AttrId(1)], Value::str("518"));
        assert!(r.update_value(id, AttrId(1), Value::int(5)).is_err());
        assert!(r
            .update_value(RowId(999), AttrId(1), Value::str("x"))
            .is_err());
    }

    #[test]
    fn replace_swaps_whole_tuple() {
        let mut r = rel_with(&[("Albany", "718")]);
        let id = r.row_ids()[0];
        let old = r.replace(id, Tuple::from_iter(["Albany", "518"])).unwrap();
        assert_eq!(old, Tuple::from_iter(["Albany", "718"]));
        assert!(r.replace(RowId(77), Tuple::from_iter(["x", "y"])).is_err());
    }

    #[test]
    fn extend_schema_adds_flag_columns() {
        let r = rel_with(&[("Albany", "518"), ("NYC", "212")]);
        let extended = r
            .extend_schema(
                vec![
                    crate::schema::Attribute::new("SV", DataType::Bool),
                    crate::schema::Attribute::new("MV", DataType::Bool),
                ],
                Value::bool(false),
            )
            .unwrap();
        assert_eq!(extended.schema().arity(), 4);
        for t in extended.tuples() {
            assert_eq!(t[AttrId(2)], Value::bool(false));
            assert_eq!(t[AttrId(3)], Value::bool(false));
        }
    }

    #[test]
    fn scheduled_ids_override_sequential_assignment() {
        let mut r = rel_with(&[("Albany", "518")]);
        r.schedule_row_ids([RowId(7), RowId(3)]);
        assert_eq!(
            r.insert(Tuple::from_iter(["Troy", "518"])).unwrap(),
            RowId(7)
        );
        assert_eq!(
            r.insert(Tuple::from_iter(["NYC", "212"])).unwrap(),
            RowId(3)
        );
        // Queue drained: back to sequential, above the largest handed out.
        assert_eq!(r.insert(Tuple::from_iter(["LI", "516"])).unwrap(), RowId(8));
        // Scheduling an occupied id is an error when consumed.
        r.schedule_row_ids([RowId(3)]);
        assert!(r.insert(Tuple::from_iter(["Rye", "914"])).is_err());
        r.clear_scheduled_row_ids();
        assert!(r.insert(Tuple::from_iter(["Rye", "914"])).is_ok());
    }

    #[test]
    fn extend_schema_preserves_row_ids_and_counter() {
        let mut r = rel_with(&[("Albany", "518"), ("Troy", "518"), ("NYC", "212")]);
        let ids = r.row_ids();
        r.delete(ids[0]).unwrap();
        let extended = r
            .extend_schema(
                vec![crate::schema::Attribute::new("SV", DataType::Bool)],
                Value::bool(false),
            )
            .unwrap();
        assert_eq!(extended.row_ids(), vec![ids[1], ids[2]]);
        // The counter survives the extension: fresh inserts do not reuse the
        // deleted row's id.
        let mut extended = extended;
        let new = extended
            .insert(Tuple::new(vec![
                Value::str("LI"),
                Value::str("516"),
                Value::bool(false),
            ]))
            .unwrap();
        assert_eq!(new, RowId(3));
    }

    #[test]
    fn render_contains_header_and_rows() {
        let r = rel_with(&[("Albany", "518")]);
        let s = r.render();
        assert!(s.contains("CT | AC"));
        assert!(s.contains("Albany | 518"));
    }

    #[test]
    fn every_row_change_and_only_a_row_change_moves_the_stamp() {
        let mut r = rel_with(&[("Albany", "518"), ("Troy", "518"), ("NYC", "212")]);
        let ids = r.row_ids();
        let mut seen = vec![r.stamp()];
        let mut changed = |r: &Relation, what: &str| {
            assert!(!seen.contains(&r.stamp()), "{what} reused a stamp");
            seen.push(r.stamp());
        };
        r.insert(Tuple::from_iter(["LI", "516"])).unwrap();
        changed(&r, "insert");
        r.delete(ids[0]).unwrap();
        changed(&r, "delete");
        r.replace(ids[1], Tuple::from_iter(["Troy", "519"]))
            .unwrap();
        changed(&r, "replace");
        r.update_value(ids[2], AttrId(1), Value::str("646"))
            .unwrap();
        changed(&r, "update_value");
        r.delete_matching(&[Tuple::from_iter(["LI", "516"])]);
        changed(&r, "delete_matching");

        // Refused changes, bookkeeping and reads keep the stamp.
        let stamp = r.stamp();
        assert!(r
            .insert(Tuple::new(vec![Value::int(1), Value::str("518")]))
            .is_err());
        assert!(r.delete(ids[0]).is_err());
        assert!(r.replace(RowId(77), Tuple::from_iter(["x", "y"])).is_err());
        assert!(r.update_value(ids[1], AttrId(1), Value::int(5)).is_err());
        assert!(r
            .update_value(RowId(77), AttrId(1), Value::str("x"))
            .is_err());
        assert!(r
            .delete_matching(&[Tuple::from_iter(["Nowhere", "000"])])
            .is_empty());
        r.schedule_row_ids([RowId(40)]);
        r.clear_scheduled_row_ids();
        r.record_deletions();
        assert!(r.take_deleted().is_empty());
        let _ = (
            r.get(ids[1]),
            r.len(),
            r.row_ids(),
            r.to_tuples(),
            r.render(),
        );
        assert_eq!(r.stamp(), stamp);

        // A clone holds the same rows under the same ids, so it keeps the
        // stamp; until one of the two changes.
        let mut copy = r.clone();
        assert_eq!(copy.stamp(), stamp);
        copy.insert(Tuple::from_iter(["Rye", "914"])).unwrap();
        changed(&copy, "insert into a clone");
        assert_eq!(r.stamp(), stamp);

        // Rebuilt relations get fresh stamps, even over the same rows.
        let rebuilt = Relation::with_rows(schema(), r.iter().map(|(id, t)| (id, t.clone())));
        changed(&rebuilt.unwrap(), "with_rows");
        let extended = r.extend_schema(
            vec![crate::schema::Attribute::new("SV", DataType::Bool)],
            Value::bool(false),
        );
        changed(&extended.unwrap(), "extend_schema");
        // Deserialisation skips the field and fills it from `fresh_stamp`.
        let deserialised = fresh_stamp();
        assert!(
            !seen.contains(&deserialised),
            "deserialisation reused a stamp"
        );
    }
}
