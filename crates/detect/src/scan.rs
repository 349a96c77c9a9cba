//! The scan kernel: the one two-phase, shared-scan pass every full detection
//! runs — `Session::detect`, `Snapshot::detect_fresh`, the partition scan of
//! the sharded read path, the incremental detector's seeding pass and the
//! plan backend alike — and the per-row step that full passes and deltas
//! share.
//!
//! The paper's `BATCHDETECT` finds all violations with a fixed number of SQL
//! queries whose shape depends only on the schema, never on how many eCFDs
//! are checked. The native analogue is a [`ScanProgram`]: a list of
//! [`Scan`]s, each projecting one `X` attribute list **once per row** and
//! feeding every member [`FlagOp`] from that shared projection. The default
//! program ([`ScanProgram::fused`]) gives all single-pattern constraints with
//! an identical `X` list one scan ([`fuse`] is that rule, and the only copy
//! of it); `ecfd_plan` renders that same program for `EXPLAIN PLAN`.
//!
//! Rows are matched by value class, the alphabet a compiled
//! [`ConstraintSet`](ecfd_core::ConstraintSet) stores its singles' cells in:
//! a detector interns each attribute's class constants into one
//! `code → class` table (a code not in it is in the outside class), a scan
//! looks up its `X` values' classes once per row, and each member's `X` cell
//! then costs one bit test.
//!
//! `ScanProgram::match_row` is the program's only interpreter: it matches one
//! row, given as a code per attribute, against the members. A full pass
//! calls it per stored row; `INCDETECT`
//! ([`IncrementalDetector`](crate::IncrementalDetector)) calls it per
//! inserted tuple, per deletion victim and per re-flagged row, so the `Q_sv`
//! check and the group keys a delta maintains are the full pass's own. A
//! deletion or an `MV` re-derivation only reads groups, so it asks for the
//! grouped members alone (`Members::Grouped`) and stops at the first
//! violating group, and the `Q_sv` check runs only for the callers that ask
//! (`Hit::violated`).
//!
//! A row joins an enforcement group through the one group step,
//! `GroupState::add`, and leaves it through `GroupState::retract`; both
//! say whether the group violated before and after. The full pass adds every
//! row, `INCDETECT` adds and retracts a delta's rows, and the cross-partition
//! [`MergeState`](crate::MergeState) folds partition rows in and out through
//! the same two calls, so the paper's `Q_mv` rule (two or more distinct `Y`
//! projections) is kept in one place. `GroupState::record` is the one
//! constructor of a violating group's evidence record.
//!
//! The pass itself runs in two phases. Phase 1 splits the rows into
//! contiguous chunks, one `std::thread::scope` worker each; a worker executes
//! the program against the view's code columns and adds each row to its
//! partial group states, partitioned by `shard_of(ci, X-codes)`. Phase 2
//! merges each shard's partials (all members of a group land in one shard)
//! and derives the multi-tuple violations. Both phases are deterministic, so
//! any program covering the same constraints produces identical reports,
//! evidence and group maps at 1 worker and at N.

use crate::evidence::{ConstraintRef, EvidenceReport, MvEvidence, SvEvidence};
use crate::parallel::{effective_threads, split_ranges, Parallelism};
use crate::report::DetectionReport;
use ecfd_core::matching::BoundECfd;
use ecfd_core::normalize::SinglePattern;
use ecfd_core::{AttrClasses, CellClasses, ClassSet};
use ecfd_relation::columnar::shard_of;
use ecfd_relation::{
    AttrId, Code, CodeColumns, CodeMap, CodeVec, Dictionary, RowId, Schema, SymbolTable,
};
use std::collections::hash_map::Entry;
use std::ops::ControlFlow;

/// A key identifying one enforcement group: the single-pattern constraint id
/// (index into the split constraint list) plus the tuple's coded `X`
/// projection (codes issued by the detector's dictionary).
pub type GroupKey = (usize, CodeVec);

/// The group map every full pass produces and the incremental detector
/// maintains (the paper's `Aux(D)` analogue), keyed by coded projections.
pub type GroupMap = CodeMap<GroupKey, GroupState>;

/// Per-group state: how many group members carry each distinct coded `Y`
/// projection, plus the member rows themselves (one membership list shared
/// with the count bookkeeping, so no per-tuple key clone is needed).
///
/// A group map is edited one member at a time through `GroupState::add`
/// and `GroupState::retract` — by the scan's phase 1, by `INCDETECT` and by
/// the cross-partition [`MergeState`](crate::MergeState) alike.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupState {
    /// Count of member tuples per distinct coded `Y` projection.
    pub y_counts: CodeMap<CodeVec, usize>,
    /// Every member row of the group. Not ordered: a retraction may move
    /// the last member into the retracted one's place.
    pub rows: Vec<RowId>,
}

/// Whether a group violated before and after one `GroupState::add` or
/// `GroupState::retract`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Flip {
    /// The group violated before the edit.
    pub(crate) before: bool,
    /// The group violates after the edit.
    pub(crate) after: bool,
}

impl Flip {
    /// Whether the edit made the group start or stop violating.
    pub(crate) fn changed(self) -> bool {
        self.before != self.after
    }
}

impl GroupState {
    /// Number of member tuples.
    pub fn size(&self) -> usize {
        self.y_counts.values().sum()
    }

    /// The group violates the embedded FD iff it contains members with at
    /// least two distinct `Y` projections (the paper's `Q_mv`).
    #[inline]
    pub fn violates(&self) -> bool {
        self.y_counts.len() > 1
    }

    /// Member `row`, whose `Y` projection is `y`, joins group `key` of
    /// `groups`; the group is created with its first member.
    #[inline]
    pub(crate) fn add(groups: &mut GroupMap, key: GroupKey, y: CodeVec, row: RowId) -> Flip {
        let state = groups.entry(key).or_default();
        let before = state.violates();
        *state.y_counts.entry(y).or_insert(0) += 1;
        state.rows.push(row);
        Flip {
            before,
            after: state.violates(),
        }
    }

    /// Member `row`, whose `Y` projection is `y`, leaves group `key` of
    /// `groups`; a group left without members leaves the map. Retracting
    /// from a group that does not exist changes nothing.
    #[inline]
    pub(crate) fn retract(groups: &mut GroupMap, key: &GroupKey, y: &CodeVec, row: RowId) -> Flip {
        let Some(state) = groups.get_mut(key) else {
            return Flip {
                before: false,
                after: false,
            };
        };
        let before = state.violates();
        if let Some(count) = state.y_counts.get_mut(y) {
            *count -= 1;
            if *count == 0 {
                state.y_counts.remove(y);
            }
        }
        if let Some(at) = state.rows.iter().position(|r| *r == row) {
            state.rows.swap_remove(at);
        }
        let after = state.violates();
        if state.y_counts.is_empty() {
            groups.remove(key);
        }
        Flip { before, after }
    }

    /// Merges another partial state into this one (summing counts,
    /// concatenating member lists in argument order).
    fn absorb(&mut self, other: GroupState) {
        for (y, count) in other.y_counts {
            *self.y_counts.entry(y).or_insert(0) += count;
        }
        self.rows.extend(other.rows);
    }

    /// The evidence record of this group, stored under `key`: the source of
    /// its constraint (`provenance` is indexed by split constraint), its `X`
    /// projection decoded through `dict`, and its members.
    pub(crate) fn record(
        &self,
        (ci, key): &GroupKey,
        provenance: &[(usize, usize)],
        dict: &SymbolTable,
    ) -> MvEvidence {
        MvEvidence {
            source: ConstraintRef::from(provenance[*ci]),
            group_key: dict.decode_all(key.as_slice()),
            rows: self.rows.iter().copied().collect(),
        }
    }
}

/// Below this table size a linear scan beats binary search on 64-bit codes.
const LINEAR_SCAN_MAX: usize = 8;

/// One attribute's class constants' codes, sorted, each with its class, and
/// the class of every other code.
type ClassTable = (Box<[(Code, usize)]>, usize);

/// What rows are matched against: one `code → class` table per attribute
/// over the value classes of a compiled set, and per split constraint
/// its cells as class sets. The codes are those of the dictionary the
/// tables were interned through, and stay valid as it grows.
#[derive(Debug, Clone)]
pub(crate) struct Alphabet {
    /// Per attribute position of the schema it was interned against.
    tables: Vec<ClassTable>,
    /// The cells of every split constraint, in split order.
    pub(crate) cells: Vec<CellClasses>,
    /// The name and position of every attribute the set mentions.
    pub(crate) columns: Vec<(String, AttrId)>,
}

impl Alphabet {
    /// Interns the class constants of a compiled set — its `singles`, their
    /// `classes` and `cells` ([`ecfd_core::ConstraintSet::classes`],
    /// [`ecfd_core::ConstraintSet::cells`]) — through `dict`, laying the
    /// tables out by the positions the attributes have in `schema`.
    pub(crate) fn intern(
        singles: &[SinglePattern],
        classes: &[AttrClasses],
        cells: &[CellClasses],
        schema: &Schema,
        dict: &mut Dictionary,
    ) -> Self {
        // Constants are interned in the order the singles' cells list them.
        for single in singles {
            let tp = &single.ecfd.tableau()[0];
            for v in tp.lhs.iter().chain(&tp.rhs).flat_map(|c| c.constants()) {
                dict.encode(v);
            }
        }
        let mut tables = vec![(Box::default(), 0); schema.arity()];
        let mut columns = Vec::new();
        for attr in classes {
            let mut table: Vec<(Code, usize)> = (attr.constants.iter())
                .map(|(v, class)| (dict.encode(v), *class))
                .collect();
            table.sort_unstable();
            let id = schema.attr_id(&attr.attr).expect("a compiled set binds");
            tables[id.index()] = (table.into_boxed_slice(), attr.outside);
            columns.push((attr.attr.clone(), id));
        }
        let cells = cells.to_vec();
        Alphabet {
            tables,
            cells,
            columns,
        }
    }

    /// The value class of `code` on attribute `attr`, by a size-adaptive
    /// search.
    #[inline]
    fn class(&self, attr: AttrId, code: Code) -> usize {
        let (table, outside) = &self.tables[attr.index()];
        let at = if table.len() <= LINEAR_SCAN_MAX {
            table.iter().position(|(c, _)| *c == code)
        } else {
            table.binary_search_by_key(&code, |(c, _)| *c).ok()
        };
        at.map_or(*outside, |i| table[i].1)
    }

    /// Whether a row — `code` gives its code per attribute — matches the
    /// cells `sets` over the attributes `attrs`.
    #[inline]
    pub(crate) fn matches(
        &self,
        sets: &[ClassSet],
        attrs: &[AttrId],
        code: impl Fn(AttrId) -> Code,
    ) -> bool {
        (sets.iter().zip(attrs))
            .all(|(set, a)| set.is_full() || set.contains(self.class(*a, code(*a))))
    }
}

/// The per-row work for one split single-pattern constraint once the
/// enclosing scan's `X` projection is in hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagOp {
    /// Index into the split single-pattern constraint list — also the index
    /// of the class-set cells matched for this operator.
    pub ci: usize,
    /// Positions of the `Y ∪ Yp` attributes in tableau cell order (the
    /// single-tuple violation check).
    pub check: Vec<AttrId>,
    /// Positions of the `Y` attributes (the embedded-FD projection); empty
    /// for pure pattern constraints, which skip group bookkeeping entirely.
    pub group: Vec<AttrId>,
}

/// One scan: the `X` attribute list projected once per row, and the flag
/// operators fed from that projection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scan {
    /// Positions of the `X` attributes every member matches and groups on.
    pub x: Vec<AttrId>,
    /// The member operators, in first-seen constraint order.
    pub members: Vec<FlagOp>,
}

/// The fusion rule: items with an identical `X` list share one scan, scans
/// and members in first-seen order.
pub fn fuse<T>(items: impl IntoIterator<Item = (Vec<AttrId>, T)>) -> Vec<(Vec<AttrId>, Vec<T>)> {
    let mut scans: Vec<(Vec<AttrId>, Vec<T>)> = Vec::new();
    for (x, item) in items {
        match scans.iter_mut().find(|(seen, _)| *seen == x) {
            Some((_, members)) => members.push(item),
            None => scans.push((x, vec![item])),
        }
    }
    scans
}

/// What the kernel executes: a list of scans whose flag operators together
/// cover the split constraints of one compiled set. Data, not code — the
/// unfused contrast program of `ecfd_plan` runs through the same kernel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanProgram {
    scans: Vec<Scan>,
}

impl ScanProgram {
    /// A program made of exactly these scans.
    pub fn new(scans: Vec<Scan>) -> Self {
        ScanProgram { scans }
    }

    /// The default program for bound single-pattern constraints (in split
    /// order): one operator per constraint, [`fuse`]d by `X` list.
    pub fn fused(bounds: &[BoundECfd<'_>]) -> Self {
        let ops = bounds.iter().enumerate().map(|(ci, bound)| {
            let op = FlagOp {
                ci,
                check: bound.rhs_ids().to_vec(),
                group: bound.fd_rhs_ids().to_vec(),
            };
            (bound.lhs_ids().to_vec(), op)
        });
        ScanProgram {
            scans: fuse(ops)
                .into_iter()
                .map(|(x, members)| Scan { x, members })
                .collect(),
        }
    }

    /// The scans, in execution order.
    pub fn scans(&self) -> &[Scan] {
        &self.scans
    }

    /// Total number of flag operators across all scans.
    pub fn num_flags(&self) -> usize {
        self.scans.iter().map(|s| s.members.len()).sum()
    }

    /// The per-row step, and the only place a row is matched against the
    /// constraints: projects each scan's `X` once from `code` (the row's
    /// code per attribute), looks up the class of each `X` value once, and
    /// hands every one of `members` whose `X` cells hold those classes to
    /// `visit` as a [`Hit`]. Stops at the first `Break` the visitor returns;
    /// the result says whether it stopped.
    #[inline]
    pub(crate) fn match_row<F: Fn(AttrId) -> Code>(
        &self,
        alphabet: &Alphabet,
        members: Members,
        code: F,
        mut visit: impl FnMut(Hit<'_, F>) -> ControlFlow<()>,
    ) -> bool {
        let (mut inline, mut spilled) = ([0usize; 8], Vec::new());
        for scan in &self.scans {
            let key = CodeVec::from_iter_exact(scan.x.iter().map(|a| code(*a)));
            let classes = if scan.x.len() <= inline.len() {
                &mut inline[..scan.x.len()]
            } else {
                spilled.resize(scan.x.len(), 0);
                &mut spilled[..]
            };
            for ((class, a), c) in classes.iter_mut().zip(&scan.x).zip(key.as_slice()) {
                *class = alphabet.class(*a, *c);
            }
            for op in &scan.members {
                if members == Members::Grouped && op.group.is_empty() {
                    continue;
                }
                let lhs = &alphabet.cells[op.ci].lhs;
                if lhs.iter().zip(&*classes).all(|(set, c)| set.contains(*c)) {
                    let hit = Hit {
                        op,
                        key: &key,
                        alphabet,
                        code: &code,
                    };
                    if visit(hit).is_break() {
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// Which members of each scan [`ScanProgram::match_row`] matches a row
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Members {
    /// Every member: what a full pass and an inserted tuple need.
    All,
    /// The members that keep groups (a non-empty `Y`): all a deletion or an
    /// `MV` re-derivation reads.
    Grouped,
}

/// A member whose pattern `X` cells one row matched: what
/// [`ScanProgram::match_row`] hands its visitor.
pub(crate) struct Hit<'a, F> {
    /// The member operator.
    pub(crate) op: &'a FlagOp,
    /// The row's projection on the enclosing scan's `X` list.
    pub(crate) key: &'a CodeVec,
    alphabet: &'a Alphabet,
    code: &'a F,
}

impl<F: Fn(AttrId) -> Code> Hit<'_, F> {
    /// Whether the row violates the member's `Y ∪ Yp` cells on its own (the
    /// `Q_sv` check). Only the visitors that need it pay for it.
    #[inline]
    pub(crate) fn violated(&self) -> bool {
        let rhs = &self.alphabet.cells[self.op.ci].rhs;
        !self.alphabet.matches(rhs, &self.op.check, self.code)
    }

    /// The row's projection on the member's `Y` list.
    #[inline]
    pub(crate) fn y(&self) -> CodeVec {
        CodeVec::from_iter_exact(self.op.group.iter().map(|a| (self.code)(*a)))
    }
}

/// Runs `program` over already-encoded columns: flags, evidence and group
/// state from one (possibly parallel) pass. `alphabet`'s cells and
/// `provenance` are parallel to the split constraints the program's
/// operators index; `dict` must be the symbol-table state (or a later state
/// of the same lineage) of the dictionary that issued the view's codes and
/// interned `alphabet`. Both
/// are read sides only, so the pass runs the same over live state and over a
/// [`FrozenView`](ecfd_relation::FrozenView).
pub(crate) fn run(
    program: &ScanProgram,
    alphabet: &Alphabet,
    provenance: &[(usize, usize)],
    view: &CodeColumns,
    dict: &SymbolTable,
    parallelism: Parallelism,
) -> (DetectionReport, EvidenceReport, GroupMap) {
    let n_rows = view.num_rows();
    let threads = effective_threads(parallelism, n_rows, program.num_flags());
    let n_shards = threads;

    // Phase 1: chunked row scan.
    let chunks = fan_out(split_ranges(n_rows, threads), |(lo, hi)| {
        scan_chunk(view, program, alphabet, lo, hi, n_shards)
    });

    // Transpose the per-chunk, per-shard partials into per-shard inputs
    // (chunk order preserved so member lists merge in global row order).
    let mut sv_pairs: Vec<(RowId, usize)> = Vec::new();
    let mut shard_inputs: Vec<Vec<GroupMap>> = (0..n_shards)
        .map(|_| Vec::with_capacity(chunks.len()))
        .collect();
    for chunk in chunks {
        sv_pairs.extend(chunk.sv);
        for (shard, part) in chunk.parts.into_iter().enumerate() {
            shard_inputs[shard].push(part);
        }
    }

    // Phase 2: per-shard merge; every member of a group is in exactly one
    // shard, so merges are independent.
    let shard_outs = fan_out(shard_inputs, |parts| merge_shard(parts, provenance, dict));

    // Deterministic assembly: reports are sorted sets, evidence is
    // normalized, the group map is a union of disjoint shard maps.
    let mut report = DetectionReport {
        total_rows: n_rows,
        ..Default::default()
    };
    let mut evidence = EvidenceReport {
        total_rows: n_rows,
        ..Default::default()
    };
    for (row, ci) in sv_pairs {
        report.sv_rows.insert(row);
        evidence.sv.push(SvEvidence {
            row,
            source: ConstraintRef::from(provenance[ci]),
        });
    }
    let mut groups = GroupMap::default();
    for shard in shard_outs {
        report.mv_rows.extend(shard.mv_rows);
        evidence.mv_groups.extend(shard.mv_groups);
        if groups.is_empty() {
            groups = shard.groups;
        } else {
            groups.extend(shard.groups);
        }
    }
    evidence.normalize();
    (report, evidence, groups)
}

/// Maps `work` over `inputs` in order: inline for a single input, otherwise
/// one scoped worker per input.
fn fan_out<I: Send, O: Send>(inputs: Vec<I>, work: impl Fn(I) -> O + Sync) -> Vec<O> {
    if inputs.len() <= 1 {
        return inputs.into_iter().map(work).collect();
    }
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .into_iter()
            .map(|input| s.spawn(move || work(input)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("detection worker panicked"))
            .collect()
    })
}

/// What one phase-1 worker produces for its row chunk.
struct ChunkOut {
    /// `(row, split-constraint)` single-tuple violations, in visit order.
    sv: Vec<(RowId, usize)>,
    /// Partial group states, partitioned by `shard_of(ci, X-codes)`.
    parts: Vec<GroupMap>,
}

/// Phase 1: runs the program's per-row step ([`ScanProgram::match_row`])
/// over rows `lo..hi` of the view, one storage block at a time — the chunk
/// pointers of the view's columns are resolved once per block and the
/// per-code reads in between index plain slices.
fn scan_chunk(
    view: &CodeColumns,
    program: &ScanProgram,
    alphabet: &Alphabet,
    lo: usize,
    hi: usize,
    n_shards: usize,
) -> ChunkOut {
    let mut out = ChunkOut {
        sv: Vec::new(),
        parts: vec![GroupMap::default(); n_shards],
    };
    for rows in view.blocks(lo, hi) {
        for off in 0..rows.len() {
            let row_id = rows.row_id(off);
            program.match_row(
                alphabet,
                Members::All,
                |a| rows.code(off, a),
                |hit| {
                    let ci = hit.op.ci;
                    if hit.violated() {
                        out.sv.push((row_id, ci));
                    }
                    if !hit.op.group.is_empty() {
                        let shard = if n_shards == 1 {
                            0
                        } else {
                            shard_of(ci, hit.key, n_shards)
                        };
                        let key = (ci, hit.key.clone());
                        GroupState::add(&mut out.parts[shard], key, hit.y(), row_id);
                    }
                    ControlFlow::Continue(())
                },
            );
        }
    }
    out
}

/// What one phase-2 worker produces for its shard.
struct ShardOut {
    groups: GroupMap,
    mv_rows: Vec<RowId>,
    mv_groups: Vec<MvEvidence>,
}

/// Phase 2: merges one shard's partial group states (in chunk order, so
/// member lists end up in global row order) and derives the multi-tuple
/// violations.
fn merge_shard(
    parts: Vec<GroupMap>,
    provenance: &[(usize, usize)],
    dict: &SymbolTable,
) -> ShardOut {
    let mut iter = parts.into_iter();
    let mut groups = iter.next().unwrap_or_default();
    for part in iter {
        for (key, state) in part {
            match groups.entry(key) {
                Entry::Occupied(mut e) => e.get_mut().absorb(state),
                Entry::Vacant(e) => {
                    e.insert(state);
                }
            }
        }
    }
    let mut mv_rows = Vec::new();
    let mut mv_groups = Vec::new();
    for (key, state) in &groups {
        if state.violates() {
            mv_rows.extend(state.rows.iter().copied());
            mv_groups.push(state.record(key, provenance, dict));
        }
    }
    ShardOut {
        groups,
        mv_rows,
        mv_groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfd_core::{ConstraintSet, ECfdBuilder};
    use ecfd_relation::{DataType, Dictionary, Tuple, Value};

    fn schema() -> Schema {
        Schema::builder("cust")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .build()
    }

    #[test]
    fn class_lookup_survives_large_tables() {
        // Forty CT constants, one class each, put the CT table past the
        // linear-scan size.
        let many: Vec<String> = (0..40).map(|i| format!("v{i:02}")).collect();
        let phi = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p.in_set("CT", many.iter().map(String::as_str)))
            .pattern(|p| p.constant("CT", "v07"))
            .build()
            .unwrap();
        let set = ConstraintSet::verbatim(&schema(), &[phi]).unwrap();
        let mut dict = Dictionary::new();
        let alphabet = Alphabet::intern(
            set.singles(),
            set.classes(),
            set.cells(),
            &schema(),
            &mut dict,
        );
        assert_eq!(alphabet.tables[0].0.len(), 40);
        assert!(alphabet.tables[0].0.len() > LINEAR_SCAN_MAX);
        let ct = AttrId(0);
        let class = |v: &str| alphabet.class(ct, dict.try_encode(&Value::str(v)).unwrap());
        for v in &many {
            let want = usize::from(v.as_str() == "v07");
            assert_eq!(class(v), want, "{v}");
        }
        let missing = dict.encode(&Value::str("missing"));
        assert_eq!(alphabet.class(ct, missing), 2, "the outside class");
    }

    #[test]
    fn class_tables_match_like_the_bound_constraint() {
        let phi = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p.not_in("CT", ["NYC"]).constant("AC", "518"))
            .pattern(|p| p.in_set("CT", ["Albany", "Troy"]))
            .build()
            .unwrap();
        let set = ConstraintSet::verbatim(&schema(), &[phi]).unwrap();
        let schema = schema();
        let bound: Vec<BoundECfd<'_>> = (set.singles().iter())
            .map(|s| BoundECfd::bind(&s.ecfd, &schema).unwrap())
            .collect();
        let mut dict = Dictionary::new();
        let alphabet = Alphabet::intern(
            set.singles(),
            set.classes(),
            set.cells(),
            &schema,
            &mut dict,
        );
        for (ct, ac) in [
            ("Albany", "518"),
            ("Albany", "718"),
            ("NYC", "518"),
            ("NYC", "212"),
            ("Troy", "212"),
            ("Utica", "518"),
        ] {
            let tuple = Tuple::from_iter([ct, ac]);
            let codes = dict.encode_tuple(&tuple);
            let code = |a: AttrId| codes[a.index()];
            for (b, cells) in bound.iter().zip(&alphabet.cells) {
                let lhs = alphabet.matches(&cells.lhs, b.lhs_ids(), code);
                let rhs = alphabet.matches(&cells.rhs, b.rhs_ids(), code);
                assert_eq!(b.lhs_matches(&tuple, 0), lhs, "lhs {ct}/{ac}");
                assert_eq!(b.rhs_matches(&tuple, 0), rhs, "rhs {ct}/{ac}");
            }
        }
    }

    /// The one-attribute projection holding integer `n`.
    fn codes(n: i64) -> CodeVec {
        [Dictionary::new().encode(&Value::Int(n))]
            .into_iter()
            .collect()
    }

    #[test]
    fn add_and_retract_report_the_group_flip() {
        let mut groups = GroupMap::default();
        let key: GroupKey = (0, codes(7));
        let (y518, y718) = (codes(518), codes(718));
        let flip = |before, after| Flip { before, after };

        // The first `Y` does not flip the group, nor does a repeat of it.
        assert_eq!(
            GroupState::add(&mut groups, key.clone(), y518.clone(), RowId(1)),
            flip(false, false)
        );
        assert_eq!(
            GroupState::add(&mut groups, key.clone(), y518.clone(), RowId(2)),
            flip(false, false)
        );
        // A second distinct `Y` does, and a third member keeps it violating.
        let started = GroupState::add(&mut groups, key.clone(), y718.clone(), RowId(3));
        assert_eq!(started, flip(false, true));
        assert!(started.changed());
        assert_eq!(
            GroupState::add(&mut groups, key.clone(), y718.clone(), RowId(4)),
            flip(true, true)
        );
        assert_eq!(groups[&key].size(), 4);

        // Retracting one of two members with that `Y` keeps the violation;
        // retracting the last one flips it back.
        assert_eq!(
            GroupState::retract(&mut groups, &key, &y718, RowId(3)),
            flip(true, true)
        );
        let stopped = GroupState::retract(&mut groups, &key, &y718, RowId(4));
        assert_eq!(stopped, flip(true, false));
        assert!(stopped.changed());
        let mut rows = groups[&key].rows.clone();
        rows.sort();
        assert_eq!(rows, [RowId(1), RowId(2)]);

        // An emptied group is gone from the map; retracting from a missing
        // group changes nothing.
        GroupState::retract(&mut groups, &key, &y518, RowId(1));
        assert_eq!(
            GroupState::retract(&mut groups, &key, &y518, RowId(2)),
            flip(false, false)
        );
        assert!(groups.is_empty());
        assert_eq!(
            GroupState::retract(&mut groups, &key, &y518, RowId(2)),
            flip(false, false)
        );
        assert!(groups.is_empty());
    }
}
