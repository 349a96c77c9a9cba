//! The maintained cross-partition merge: what
//! [`SemanticDetector::merge_partials`] computes from scanned partials, kept
//! up to date row by row instead.
//!
//! A row-partitioned relation (the serving layer's shards) decides most
//! violations within one partition: every single-tuple violation, and every
//! group of an *aligned* constraint, whose `X` contains the partition key.
//! The other constraints leave their groups **open**: one group's members can
//! sit on several partitions, so only the union says whether it violates.
//! A [`MergeState`] keeps exactly those open groups — a [`GroupMap`],
//! `(constraint, X-codes) → Y-counts + member rows`, coded through the
//! state's own dictionary, because every partition's dictionary assigns its
//! own codes — plus the set of groups that violate now.
//!
//! The state is seeded from the partitions' scanned partials
//! ([`MergeState::absorb`]). After that, every row a partition inserts or
//! removes is folded in through the full pass's own per-row step
//! ([`ScanProgram::match_row`](crate::ScanProgram)): a fold costs the rows
//! it folds, never the table's size. Seeding and folding edit the groups
//! through the full pass's own group step, `GroupState::add` and
//! `GroupState::retract`, whose answer — did the group violate before,
//! does it now — keeps the set of violating groups. Reading the merged
//! answer out ([`MergeState::read_out`]) visits the violating groups only.

use crate::evidence::{ConstraintRef, EvidenceReport};
use crate::report::DetectionReport;
use crate::scan::{Flip, GroupKey, GroupMap, GroupState, Members};
use crate::semantic::{SemanticDetector, ShardPartial};
use ecfd_core::ConstraintSet;
use ecfd_relation::{AttrId, Code, CodeVec, FxBuildHasher, RowId, Tuple, Value};
use std::collections::HashSet;
use std::ops::ControlFlow;

/// The work a [`MergeState`] has done since it was built. Exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Times the state was rebuilt from scanned partials.
    pub seeds: u64,
    /// Rows folded in or out.
    pub rows_folded: u64,
    /// Open groups a fold made start or stop violating.
    pub groups_flipped: u64,
}

/// The open groups of a row-partitioned relation, merged across partitions
/// and kept current under row insertions and removals. See the module docs.
#[derive(Debug)]
pub struct MergeState {
    /// The state's own detector: its dictionary keys the open groups.
    detector: SemanticDetector,
    /// Per split constraint: are its groups complete within one partition?
    aligned: Vec<bool>,
    /// The evidence sources of the open constraints.
    open_sources: HashSet<ConstraintRef>,
    /// The attributes a fold encodes: the `X` and `Y` of every open member.
    attrs: Vec<AttrId>,
    groups: GroupMap,
    /// The keys of the groups that violate now: a subset of `groups`' keys,
    /// hashed the same way.
    violating: HashSet<GroupKey, FxBuildHasher>,
    stats: MergeStats,
}

impl MergeState {
    /// An empty state for `set`'s constraints on a relation partitioned so
    /// that split constraint `ci` is complete within one partition iff
    /// `aligned[ci]` (see [`SemanticDetector::aligned_mask`]).
    pub fn new(set: &ConstraintSet, aligned: Vec<bool>) -> Self {
        let detector = SemanticDetector::from_set(set);
        let is_open = |ci: usize| !aligned.get(ci).copied().unwrap_or(false);
        let mut attrs: Vec<AttrId> = Vec::new();
        for scan in detector.program().scans() {
            for op in &scan.members {
                if op.group.is_empty() || !is_open(op.ci) {
                    continue;
                }
                for &attr in scan.x.iter().chain(&op.group) {
                    if !attrs.contains(&attr) {
                        attrs.push(attr);
                    }
                }
            }
        }
        let open_sources = detector
            .provenance()
            .iter()
            .enumerate()
            .filter(|&(ci, _)| is_open(ci))
            .map(|(_, &source)| ConstraintRef::from(source))
            .collect();
        MergeState {
            detector,
            aligned,
            open_sources,
            attrs,
            groups: GroupMap::default(),
            violating: HashSet::default(),
            stats: MergeStats::default(),
        }
    }

    /// Whether any constraint keeps open groups. Without one there is
    /// nothing to seed or fold: the union of what the partitions decided is
    /// the whole answer.
    pub fn has_open_groups(&self) -> bool {
        !self.attrs.is_empty()
    }

    /// Per split constraint, whether its groups are complete within one
    /// partition: the mask a partition is scanned with to seed the state.
    pub fn aligned(&self) -> &[bool] {
        &self.aligned
    }

    /// The work done so far.
    pub fn stats(&self) -> MergeStats {
        self.stats
    }

    /// Drops every group, to be seeded again by [`MergeState::absorb`]ing
    /// one partial per partition. Counts as one seed.
    pub fn reset(&mut self) {
        self.groups = GroupMap::default();
        self.violating.clear();
        self.stats.seeds += 1;
    }

    /// Adds one partition's scanned open groups
    /// ([`SemanticDetector::detect_partition`]) to the state, re-keyed
    /// through the state's dictionary. The rest of the partial is decided
    /// within the partition and already in what it published.
    pub fn absorb(&mut self, partial: ShardPartial) {
        let codec = self.detector.codec().clone();
        let mut codec = codec.write();
        let mut encode = |values: &[Value]| {
            CodeVec::from_iter_exact(values.iter().map(|v| codec.dict.encode(v)))
        };
        for group in partial.open {
            let key = (group.ci, encode(&group.key));
            // A partial counts its members per `Y` projection without saying
            // which member carries which; any pairing yields the same state,
            // since a group's members are not ordered.
            let mut rows = group.rows.into_iter();
            for (y, n) in group.y_counts {
                let y = encode(&y);
                for row in rows.by_ref().take(n) {
                    let flip = GroupState::add(&mut self.groups, key.clone(), y.clone(), row);
                    if flip.changed() {
                        self.violating.insert(key.clone());
                    }
                }
            }
        }
    }

    /// Folds in a row a partition inserted.
    pub fn insert(&mut self, row: RowId, tuple: &Tuple) {
        for (key, y) in self.open_hits(tuple) {
            let flip = GroupState::add(&mut self.groups, key.clone(), y, row);
            self.flipped(key, flip);
        }
        self.stats.rows_folded += 1;
    }

    /// Folds out a row a partition removed; `tuple` is the row as it was
    /// stored.
    pub fn remove(&mut self, row: RowId, tuple: &Tuple) {
        for (key, y) in self.open_hits(tuple) {
            let flip = GroupState::retract(&mut self.groups, &key, &y, row);
            self.flipped(key, flip);
        }
        self.stats.rows_folded += 1;
    }

    /// Completes a union of the partitions' published reports and evidence
    /// into the global answer: drops the open constraints' per-partition
    /// group records (each partition saw only part of those groups), then
    /// adds the members and one record of every violating merged open group.
    /// The union's `MV` rows need no retraction — a group that violates on
    /// one partition violates globally too, with more members. Visits the
    /// violating groups only; the caller normalizes the evidence.
    pub fn read_out(&self, report: &mut DetectionReport, evidence: &mut EvidenceReport) {
        evidence
            .mv_groups
            .retain(|group| !self.open_sources.contains(&group.source));
        let provenance = self.detector.provenance();
        let codec = self.detector.codec().read();
        for key in &self.violating {
            let group = &self.groups[key];
            report.mv_rows.extend(group.rows.iter().copied());
            let record = group.record(key, provenance, codec.dict.symbols());
            evidence.mv_groups.push(record);
        }
    }

    /// The open groups `tuple` belongs to, with its `Y` projection in each.
    fn open_hits(&self, tuple: &Tuple) -> Vec<(GroupKey, CodeVec)> {
        // Only the open members' attributes are encoded: a value no open
        // group reads is never interned. The other positions stay NULL, and
        // the members that would read them — aligned ones — are skipped.
        let mut codes = vec![Code::NULL; self.detector.schema().arity()];
        {
            let mut codec = self.detector.codec().write();
            for &attr in &self.attrs {
                codes[attr.index()] = codec.dict.encode(tuple.value(attr));
            }
        }
        let mut hits = Vec::new();
        self.detector.match_row(
            Members::Grouped,
            |attr| codes[attr.index()],
            |hit| {
                if !self.aligned.get(hit.op.ci).copied().unwrap_or(false) {
                    hits.push(((hit.op.ci, hit.key.clone()), hit.y()));
                }
                ControlFlow::Continue(())
            },
        );
        hits
    }

    /// Keeps the violating set in step with a fold's edit of group `key`.
    fn flipped(&mut self, key: GroupKey, flip: Flip) {
        if !flip.changed() {
            return;
        }
        self.stats.groups_flipped += 1;
        if flip.after {
            self.violating.insert(key);
        } else {
            self.violating.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::IncrementalDetector;
    use crate::semantic::fixtures::*;
    use ecfd_relation::{shard_of_value, Catalog, Delta, Relation};
    use std::collections::{BTreeMap, BTreeSet};

    fn rows() -> Vec<Tuple> {
        let mut rows: Vec<Tuple> = d0().tuples().cloned().collect();
        for i in 0..24 {
            let city = ["Albany", "Troy", "NYC", "Colonie"][i % 4];
            let ac = ["518", "718", "212"][i % 3];
            rows.push(Tuple::from_iter([ac, "0", "Gen", "Any St.", city, "00000"]));
        }
        rows
    }

    /// `rows` partitioned in two by `attr`, each partition scanned into a
    /// partial: the seed input of a merge state.
    fn partials(set: &ConstraintSet, rows: &[(RowId, Tuple)], attr: AttrId) -> Vec<ShardPartial> {
        let schema = set.schema();
        let mut parts: Vec<Vec<(RowId, Tuple)>> = vec![Vec::new(); 2];
        for (id, t) in rows {
            parts[shard_of_value(t.value(attr), 2)].push((*id, t.clone()));
        }
        parts
            .into_iter()
            .map(|rows| {
                let rel = Relation::with_rows(schema.clone(), rows).unwrap();
                let det = SemanticDetector::from_set(set);
                let aligned = det.aligned_mask(schema, attr).unwrap();
                let frozen = det.freeze(&rel, schema.arity());
                det.detect_partition(&frozen, schema, &aligned).unwrap()
            })
            .collect()
    }

    /// Seeding from partials, then folding rows in and out one by one, keeps
    /// the state's read-out equal to `merge_partials` over a re-scan.
    #[test]
    fn folded_rows_read_out_like_merged_partials() {
        let schema = cust_schema();
        let attr = schema.require_attr("AC").unwrap();
        let set = ConstraintSet::compile(&schema, &[phi1(), phi2(), fd_ct_ac()]).unwrap();
        let oracle = SemanticDetector::from_set(&set);
        let aligned = oracle.aligned_mask(&schema, attr).unwrap();
        let mut state = MergeState::new(&set, aligned);
        assert!(
            state.has_open_groups(),
            "AC routing leaves the CT groups open"
        );

        let all: Vec<(RowId, Tuple)> = rows()
            .into_iter()
            .enumerate()
            .map(|(i, t)| (RowId(i as u64), t))
            .collect();
        let (seeded, folded) = all.split_at(10);
        let mut live: Vec<(RowId, Tuple)> = seeded.to_vec();
        state.reset();
        for partial in partials(&set, &live, attr) {
            state.absorb(partial);
        }
        let check = |state: &MergeState, live: &[(RowId, Tuple)]| {
            let partials = partials(&set, live, attr);
            let (want_report, want_evidence) = oracle.merge_partials(partials.clone());
            // What the partitions published: their local decisions.
            let mut report = DetectionReport {
                total_rows: live.len(),
                ..Default::default()
            };
            let mut evidence = EvidenceReport {
                total_rows: live.len(),
                ..Default::default()
            };
            for partial in partials {
                for sv in partial.sv {
                    report.sv_rows.insert(sv.row);
                    evidence.sv.push(sv);
                }
                for mv in partial.local_mv {
                    report.mv_rows.extend(mv.rows.iter().copied());
                    evidence.mv_groups.push(mv);
                }
            }
            state.read_out(&mut report, &mut evidence);
            evidence.normalize();
            assert_eq!(report, want_report);
            assert_eq!(evidence, want_evidence);
        };
        check(&state, &live);
        for (id, tuple) in folded {
            state.insert(*id, tuple);
            live.push((*id, tuple.clone()));
            check(&state, &live);
        }
        // Fold every Albany row out again: its groups stop violating.
        while let Some(at) = live
            .iter()
            .position(|(_, t)| t.values()[4] == ecfd_relation::Value::str("Albany"))
        {
            let (id, tuple) = live.remove(at);
            state.remove(id, &tuple);
            check(&state, &live);
        }
        let stats = state.stats();
        assert_eq!(stats.seeds, 1);
        assert_eq!(stats.rows_folded as usize, folded.len() + 7);
        assert!(stats.groups_flipped > 0, "{stats:?}");
    }

    /// A group map decoded through its dictionary:
    /// `(ci, X) → (Y → member count, members)`.
    type Decoded = BTreeMap<(usize, Vec<Value>), (BTreeMap<Vec<Value>, usize>, BTreeSet<RowId>)>;

    fn decoded(groups: &GroupMap, decode: impl Fn(&CodeVec) -> Vec<Value>) -> Decoded {
        groups
            .iter()
            .map(|((ci, key), state)| {
                let ys = state.y_counts.iter().map(|(y, n)| (decode(y), *n));
                let rows = state.rows.iter().copied().collect();
                ((*ci, decode(key)), (ys.collect(), rows))
            })
            .collect()
    }

    /// The violating groups of a decoded map: `(ci, X) → members`.
    fn violating(groups: &Decoded) -> BTreeMap<(usize, Vec<Value>), BTreeSet<RowId>> {
        groups
            .iter()
            .filter(|(_, (ys, _))| ys.len() > 1)
            .map(|(key, (_, rows))| (key.clone(), rows.clone()))
            .collect()
    }

    /// INCDETECT and a merge state with every constraint open keep the same
    /// groups under the same single-tuple inserts and deletes, and count the
    /// same flips.
    #[test]
    fn incdetect_and_the_merge_state_keep_the_same_groups() {
        let schema = cust_schema();
        let set = ConstraintSet::compile(&schema, &[phi1(), phi2(), fd_ct_ac()]).unwrap();
        let mut catalog = Catalog::new();
        catalog.create(d0()).unwrap();
        let mut inc = IncrementalDetector::from_set(&set, &mut catalog).unwrap();
        let aligned = vec![false; set.singles().len()];
        let mut state = MergeState::new(&set, aligned.clone());
        state.reset();
        let seeder = SemanticDetector::from_set(&set);
        let frozen = seeder.freeze(catalog.get("cust").unwrap(), schema.arity());
        state.absorb(seeder.detect_partition(&frozen, &schema, &aligned).unwrap());

        // t1 is Albany with area code 718: an Albany row with 518 makes the
        // Albany groups violate, and deleting it again ends that.
        let albany = Tuple::from_iter(["518", "9", "Ann", "Elm St.", "Albany", "12239"]);
        let mut steps = vec![(true, albany.clone()), (false, albany)];
        // Then a generated mix over small pools of towns and area codes, so
        // tuples repeat (a deletion removes every duplicate) and groups flip
        // both ways.
        let mut seed = 0x2545_f491_u64;
        let mut next = |n: u64| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) % n
        };
        for _ in 0..120 {
            let town = ["Albany", "Troy", "Colonie", "NYC", "Utica"][next(5) as usize];
            let ac = ["518", "718", "212"][next(3) as usize];
            let tuple = Tuple::from_iter([ac, "0", "Gen", "Any St.", town, "00000"]);
            steps.push((next(3) != 0, tuple));
        }

        let mut flips = 0;
        let mut duplicates_deleted = false;
        for (step, (insert, tuple)) in steps.into_iter().enumerate() {
            let relation = catalog.get_mut("cust").unwrap();
            let id = RowId(relation.next_row_id());
            relation.record_deletions();
            let delta = if insert {
                Delta::insert_only(vec![tuple.clone()])
            } else {
                Delta::delete_only(vec![tuple.clone()])
            };
            let stats = inc.apply(&mut catalog, &delta).unwrap();
            let deleted = catalog.get_mut("cust").unwrap().take_deleted();
            if insert {
                assert_eq!(catalog.get("cust").unwrap().get(id), Some(&tuple));
                state.insert(id, &tuple);
            }
            for (row, stored) in &deleted {
                state.remove(*row, stored);
            }
            duplicates_deleted |= deleted.len() > 1;
            if step < 2 {
                assert!(stats.groups_changed > 0, "the scripted Albany row flips");
            }
            flips += stats.groups_changed as u64;

            let want = decoded(inc.groups(), |key| inc.semantic().decode_key(key));
            let got = decoded(&state.groups, |key| state.detector.decode_key(key));
            assert_eq!(violating(&got), violating(&want), "step {step}");
            assert_eq!(got, want, "step {step}");
            let flagged: HashSet<GroupKey, FxBuildHasher> = state
                .groups
                .iter()
                .filter(|(_, group)| group.violates())
                .map(|(key, _)| key.clone())
                .collect();
            assert_eq!(state.violating, flagged, "step {step}");
            assert_eq!(state.stats().groups_flipped, flips, "step {step}");
        }
        assert!(duplicates_deleted, "some deletion removed duplicates");
        assert_eq!(state.stats().seeds, 1);
    }

    #[test]
    fn aligned_constraints_leave_nothing_to_fold() {
        let schema = cust_schema();
        let set = ConstraintSet::compile(&schema, &[phi1(), phi2()]).unwrap();
        let ct = schema.require_attr("CT").unwrap();
        let aligned = SemanticDetector::from_set(&set)
            .aligned_mask(&schema, ct)
            .unwrap();
        assert!(!MergeState::new(&set, aligned).has_open_groups());
        let all_open = vec![false; set.singles().len()];
        assert!(MergeState::new(&set, all_open).has_open_groups());
    }
}
