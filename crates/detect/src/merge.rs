//! The maintained cross-partition merge: what
//! [`SemanticDetector::merge_partials`] computes from scanned partials, kept
//! up to date row by row instead.
//!
//! A row-partitioned relation (the serving layer's shards) decides most
//! violations within one partition: every single-tuple violation, and every
//! group of an *aligned* constraint, whose `X` contains the partition key.
//! The other constraints leave their groups **open**: one group's members can
//! sit on several partitions, so only the union says whether it violates.
//! A [`MergeState`] keeps exactly those open groups — `(constraint, X-codes)
//! → Y-counts + member rows`, coded through the state's own dictionary,
//! because every partition's dictionary assigns its own codes — plus the set
//! of groups that violate now.
//!
//! The state is seeded from the partitions' scanned partials
//! ([`MergeState::absorb`]). After that, every row a partition inserts or
//! removes is folded in through the full pass's own per-row step
//! ([`ScanProgram::match_row`](crate::ScanProgram)): a fold costs the rows
//! it folds, never the table's size. Reading the merged answer out
//! ([`MergeState::read_out`]) visits the violating groups only.

use crate::evidence::{ConstraintRef, EvidenceReport, MvEvidence};
use crate::report::DetectionReport;
use crate::scan::{GroupKey, Members};
use crate::semantic::{SemanticDetector, ShardPartial};
use ecfd_core::ConstraintSet;
use ecfd_relation::{AttrId, Code, CodeMap, CodeVec, RowId, Tuple};
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
    /// The base arity of the relation.
    arity: usize,
    groups: CodeMap<GroupKey, GroupTally>,
    violating: HashSet<GroupKey>,
    stats: MergeStats,
}

/// One merged open group: how many members carry each distinct coded `Y`
/// projection, and the members. The counts are a short list, not a map:
/// only a violating group has more than one, a map's smallest table has
/// four slots, and one table per group would be most of the state's size.
#[derive(Debug, Default)]
struct GroupTally {
    y_counts: Vec<(CodeVec, usize)>,
    rows: Vec<RowId>,
}

impl GroupTally {
    fn violates(&self) -> bool {
        self.y_counts.len() > 1
    }

    fn add(&mut self, y: CodeVec, n: usize) {
        match self.y_counts.iter_mut().find(|(seen, _)| *seen == y) {
            Some((_, count)) => *count += n,
            None => {
                self.y_counts.reserve_exact(1);
                self.y_counts.push((y, n));
            }
        }
    }

    fn retract(&mut self, y: &CodeVec) {
        if let Some(at) = self.y_counts.iter().position(|(seen, _)| seen == y) {
            self.y_counts[at].1 -= 1;
            if self.y_counts[at].1 == 0 {
                self.y_counts.swap_remove(at);
            }
        }
    }
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
            .map(|(_, &(constraint, pattern))| ConstraintRef::new(constraint, pattern))
            .collect();
        MergeState {
            arity: set.schema().arity(),
            detector,
            aligned,
            open_sources,
            attrs,
            groups: CodeMap::default(),
            violating: HashSet::new(),
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
        self.groups.clear();
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
        let mut encode = |values: &[ecfd_relation::Value]| {
            CodeVec::from_iter_exact(values.iter().map(|v| codec.dict.encode(v)))
        };
        for group in partial.open {
            let key = (group.ci, encode(&group.key));
            let state = self.groups.entry(key.clone()).or_default();
            for (y, n) in group.y_counts {
                state.add(encode(&y), n);
            }
            state.rows.extend(group.rows);
            if state.violates() {
                self.violating.insert(key);
            }
        }
    }

    /// Folds in a row a partition inserted.
    pub fn insert(&mut self, row: RowId, tuple: &Tuple) {
        for (key, y) in self.open_hits(tuple) {
            let state = self.groups.entry(key.clone()).or_default();
            let was_violating = state.violates();
            state.add(y, 1);
            state.rows.push(row);
            let now_violating = state.violates();
            self.flipped(key, was_violating, now_violating);
        }
        self.stats.rows_folded += 1;
    }

    /// Folds out a row a partition removed; `tuple` is the row as it was
    /// stored.
    pub fn remove(&mut self, row: RowId, tuple: &Tuple) {
        for (key, y) in self.open_hits(tuple) {
            let Some(state) = self.groups.get_mut(&key) else {
                continue;
            };
            let was_violating = state.violates();
            state.retract(&y);
            if let Some(at) = state.rows.iter().position(|r| *r == row) {
                state.rows.swap_remove(at);
            }
            let now_violating = state.violates();
            if state.y_counts.is_empty() {
                self.groups.remove(&key);
            }
            self.flipped(key, was_violating, now_violating);
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
        for key in &self.violating {
            let rows = &self.groups[key].rows;
            report.mv_rows.extend(rows.iter().copied());
            let (constraint, pattern) = provenance[key.0];
            evidence.mv_groups.push(MvEvidence {
                source: ConstraintRef::new(constraint, pattern),
                group_key: self.detector.decode_key(&key.1),
                rows: rows.iter().copied().collect(),
            });
        }
    }

    /// The open groups `tuple` belongs to, with its `Y` projection in each.
    fn open_hits(&self, tuple: &Tuple) -> Vec<(GroupKey, CodeVec)> {
        // Only the open members' attributes are encoded: a value no open
        // group reads is never interned. The other positions stay NULL, and
        // the members that would read them — aligned ones — are skipped.
        let mut codes = vec![Code::NULL; self.arity];
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

    fn flipped(&mut self, key: GroupKey, was_violating: bool, now_violating: bool) {
        if was_violating == now_violating {
            return;
        }
        self.stats.groups_flipped += 1;
        if now_violating {
            self.violating.insert(key);
        } else {
            self.violating.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::fixtures::*;
    use ecfd_relation::{shard_of_value, Relation};

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
