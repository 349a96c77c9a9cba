//! Model-based property test of [`Relation`]: random insert / scheduled
//! insert / delete / `delete_matching` / `Delta::apply` / replace /
//! update_value / deletion-recording sequences against a naive model, a
//! `Vec` of `(RowId, Tuple)` pairs kept in id order whose bulk deletions
//! remove one victim after another.
//!
//! Tuples are drawn from a three-letter alphabet over two attributes, so
//! duplicate rows, victims listed twice and victims that match nothing all
//! come up often. After every step the relation must iterate in id order and
//! equal the model, and `get`, `len`, `next_row_id`, the recorded deletions
//! and `Delta::apply`'s `UpdateStats` must agree with it.

use ecfd_relation::{AttrId, DataType, Delta, Relation, RowId, Schema, Tuple, UpdateStats, Value};
use proptest::prelude::*;

const LETTERS: [&str; 3] = ["a", "b", "c"];

fn schema() -> Schema {
    Schema::builder("t")
        .attr("A", DataType::Str)
        .attr("B", DataType::Str)
        .build()
}

/// The tuple numbered `n` of the nine the alphabet spans.
fn tuple(n: usize) -> Tuple {
    Tuple::from_iter([LETTERS[n % 3], LETTERS[n / 3 % 3]])
}

#[derive(Debug, Clone)]
enum Op {
    Insert(usize),
    /// Schedule the id at this per-mille of `0..next_row_id + 2` (taken,
    /// deleted or fresh), then insert.
    ScheduledInsert(usize, usize),
    /// Delete the row at this per-mille of the current rows, or an id that
    /// was never handed out when there are none.
    Delete(usize),
    DeleteMatching(Vec<usize>),
    /// A delta of these victims and insertions.
    Apply(Vec<usize>, Vec<usize>),
    Replace(usize, usize),
    UpdateValue(usize, usize, usize),
    RecordDeletions,
    TakeDeleted,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..9).prop_map(Op::Insert),
        (0usize..9).prop_map(Op::Insert),
        ((0usize..1000), (0usize..9)).prop_map(|(at, t)| Op::ScheduledInsert(at, t)),
        (0usize..1000).prop_map(Op::Delete),
        proptest::collection::vec(0usize..9, 0..5).prop_map(Op::DeleteMatching),
        (
            proptest::collection::vec(0usize..9, 0..5),
            proptest::collection::vec(0usize..9, 0..3),
        )
            .prop_map(|(victims, insertions)| Op::Apply(victims, insertions)),
        ((0usize..1000), (0usize..9)).prop_map(|(at, t)| Op::Replace(at, t)),
        ((0usize..1000), (0usize..2), (0usize..3)).prop_map(|(at, a, v)| Op::UpdateValue(at, a, v)),
        Just(Op::RecordDeletions),
        Just(Op::TakeDeleted),
    ]
}

/// The naive relation.
#[derive(Debug, Default)]
struct Model {
    rows: Vec<(RowId, Tuple)>,
    next_row_id: u64,
    deleted: Option<Vec<(RowId, Tuple)>>,
}

impl Model {
    fn insert_as(&mut self, id: RowId, t: Tuple) {
        self.next_row_id = self.next_row_id.max(id.0 + 1);
        self.rows.push((id, t));
        self.rows.sort_by_key(|(id, _)| *id);
    }

    fn insert(&mut self, t: Tuple) -> RowId {
        let id = RowId(self.next_row_id);
        self.insert_as(id, t);
        id
    }

    fn remove_at(&mut self, at: usize) -> (RowId, Tuple) {
        self.rows.remove(at)
    }

    fn position(&self, id: RowId) -> Option<usize> {
        self.rows.iter().position(|(row, _)| *row == id)
    }

    /// Victims one after another, as a relation without a bulk removal
    /// would: each takes every copy still stored, and one that finds none
    /// is a miss. Records in id order, as the one-pass removal does.
    fn delete_matching(&mut self, victims: &[Tuple]) -> (Vec<(RowId, Tuple)>, UpdateStats) {
        let mut removed = Vec::new();
        let mut stats = UpdateStats::default();
        for victim in victims {
            let before = removed.len();
            while let Some(at) = self.rows.iter().position(|(_, t)| t == victim) {
                removed.push(self.remove_at(at));
            }
            stats.deleted += removed.len() - before;
            if removed.len() == before {
                stats.missed_deletions += 1;
            }
        }
        removed.sort_by_key(|(id, _)| *id);
        if let Some(deleted) = &mut self.deleted {
            deleted.extend(removed.iter().cloned());
        }
        (removed, stats)
    }
}

fn assert_same(actual: &Relation, model: &Model) {
    let rows: Vec<(RowId, Tuple)> = actual.iter().map(|(id, t)| (id, t.clone())).collect();
    assert!(
        rows.windows(2).all(|pair| pair[0].0 < pair[1].0),
        "rows iterate in id order"
    );
    assert_eq!(rows, model.rows);
    assert_eq!(actual.len(), model.rows.len());
    assert_eq!(actual.is_empty(), model.rows.is_empty());
    assert_eq!(actual.next_row_id(), model.next_row_id);
    for probe in 0..model.next_row_id + 1 {
        let id = RowId(probe);
        let want = model.position(id).map(|at| &model.rows[at].1);
        assert_eq!(actual.get(id), want);
        assert_eq!(actual.contains_row(id), want.is_some());
    }
}

/// The model row at `per_mille` of its length, if there is one.
fn pick(model: &Model, per_mille: usize) -> Option<RowId> {
    let at = per_mille * model.rows.len() / 1000;
    model.rows.get(at).map(|(id, _)| *id)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn relation_matches_the_vec_model(
        start in proptest::collection::vec(0usize..9, 0..24),
        ops in proptest::collection::vec(arb_op(), 1..80),
    ) {
        let mut actual = Relation::with_tuples(schema(), start.iter().map(|&n| tuple(n))).unwrap();
        let mut model = Model::default();
        for &n in &start {
            model.insert(tuple(n));
        }
        assert_same(&actual, &model);
        for op in ops {
            match op {
                Op::Insert(n) => {
                    let id = actual.insert(tuple(n)).unwrap();
                    prop_assert_eq!(id, model.insert(tuple(n)));
                }
                Op::ScheduledInsert(per_mille, n) => {
                    let id = RowId(per_mille as u64 * (model.next_row_id + 2) / 1000);
                    actual.schedule_row_ids([id]);
                    let inserted = actual.insert(tuple(n));
                    if model.position(id).is_some() {
                        prop_assert!(inserted.is_err(), "an occupied id is refused");
                    } else {
                        prop_assert_eq!(inserted.unwrap(), id);
                        model.insert_as(id, tuple(n));
                    }
                    actual.clear_scheduled_row_ids();
                }
                Op::Delete(per_mille) => match pick(&model, per_mille) {
                    Some(id) => {
                        let at = model.position(id).unwrap();
                        let (_, t) = model.remove_at(at);
                        if let Some(deleted) = &mut model.deleted {
                            deleted.push((id, t.clone()));
                        }
                        prop_assert_eq!(actual.delete(id).unwrap(), t);
                    }
                    None => {
                        prop_assert!(actual.delete(RowId(model.next_row_id)).is_err());
                    }
                },
                Op::DeleteMatching(victims) => {
                    let victims: Vec<Tuple> = victims.into_iter().map(tuple).collect();
                    let (want, _) = model.delete_matching(&victims);
                    prop_assert_eq!(actual.delete_matching(&victims), want);
                }
                Op::Apply(victims, insertions) => {
                    let delta = Delta {
                        deletions: victims.into_iter().map(tuple).collect(),
                        insertions: insertions.into_iter().map(tuple).collect(),
                    };
                    let (_, mut want) = model.delete_matching(&delta.deletions);
                    let want_ids: Vec<RowId> =
                        delta.insertions.iter().map(|t| model.insert(t.clone())).collect();
                    want.inserted = want_ids.len();
                    let (stats, ids) = delta.apply(&mut actual).unwrap();
                    prop_assert_eq!(stats, want);
                    prop_assert_eq!(ids, want_ids);
                }
                Op::Replace(per_mille, n) => match pick(&model, per_mille) {
                    Some(id) => {
                        let at = model.position(id).unwrap();
                        let old = std::mem::replace(&mut model.rows[at].1, tuple(n));
                        prop_assert_eq!(actual.replace(id, tuple(n)).unwrap(), old);
                    }
                    None => {
                        prop_assert!(actual.replace(RowId(model.next_row_id), tuple(n)).is_err());
                    }
                },
                Op::UpdateValue(per_mille, attr, letter) => {
                    let value = Value::str(LETTERS[letter]);
                    match pick(&model, per_mille) {
                        Some(id) => {
                            let at = model.position(id).unwrap();
                            let old = model.rows[at].1.set(AttrId(attr), value.clone()).unwrap();
                            prop_assert_eq!(actual.update_value(id, AttrId(attr), value).unwrap(), old);
                        }
                        None => {
                            let missing = RowId(model.next_row_id);
                            prop_assert!(actual.update_value(missing, AttrId(attr), value).is_err());
                        }
                    }
                }
                Op::RecordDeletions => {
                    actual.record_deletions();
                    model.deleted = Some(Vec::new());
                }
                Op::TakeDeleted => {
                    prop_assert_eq!(actual.take_deleted(), model.deleted.take().unwrap_or_default());
                }
            }
            assert_same(&actual, &model);
        }
    }
}
