//! Epoch-stamped, immutable snapshots of a session's detection state.
//!
//! A [`Session`](crate::Session) is single-owner and mutable: one caller
//! loads, registers, applies and repairs. A [`Snapshot`] is the opposite — a
//! frozen, self-contained copy of everything a *reader* needs to answer
//! detect / explain / repair-plan queries about one relation at one point in
//! time:
//!
//! * the relation's base attributes as a [`FrozenView`] (dictionary-encoded
//!   code columns plus the symbol table that decodes them);
//! * the compiled [`ConstraintSet`] and a clone of the session entry's one
//!   [`SemanticDetector`], so the coded pattern cells agree with the frozen
//!   symbol table, and the session's repair cost model — a repair plan runs
//!   on that detector and prices by that model, compiling nothing;
//! * the [`DetectionReport`] and [`EvidenceReport`] describing that exact
//!   state;
//! * the **epoch**: the session's mutation counter at extraction time.
//!
//! Nothing in a snapshot is a private copy. The frozen view shares the
//! chunks of the session's maintained columns and dictionary
//! ([`ecfd_relation::ChunkedVec`]: the session copies a shared chunk before
//! it writes one, so what a snapshot holds never changes), and the set, the
//! report and the evidence are the session's own, held by reference count.
//! Extracting one from a warm session therefore costs pointer bumps —
//! independent of the table's size — and the state it pins is freed, chunk by
//! chunk, by whoever drops the last snapshot that holds it. Cloning a
//! snapshot is reference-count bumps, every accessor takes `&self`, and
//! [`Snapshot::detect_fresh`] re-derives the report from the frozen codes
//! without any lock — so any number of threads can hold and query the same
//! snapshot while the owning session keeps mutating. This is the unit the
//! `ecfd_serve` crate publishes to its readers.

use crate::error::{Result, SessionError};
use ecfd_core::ConstraintSet;
use ecfd_detect::{DetectionReport, EvidenceReport, Parallelism, SemanticDetector, ShardPartial};
use ecfd_relation::{FrozenView, Relation, Schema, Tuple};
use ecfd_repair::{CostModel, Repair, RepairEngine, RepairOptions};
use std::sync::Arc;

/// An immutable, epoch-stamped view of one relation's detection state. See
/// the module docs for the isolation contract.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) epoch: u64,
    pub(crate) set: Arc<ConstraintSet>,
    pub(crate) detector: SemanticDetector,
    /// The session's repair cost model at the epoch: part of what the
    /// snapshot describes, so [`Snapshot::repair_plan`] prices by it.
    pub(crate) cost: Arc<dyn CostModel + Send + Sync>,
    pub(crate) frozen: FrozenView,
    pub(crate) report: Arc<DetectionReport>,
    pub(crate) evidence: Arc<EvidenceReport>,
}

impl Snapshot {
    /// The session's mutation counter at extraction time. Two snapshots of
    /// the same session with equal epochs describe identical data and
    /// constraint state; a later mutation always produces a larger epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Name of the snapshotted relation.
    pub fn table(&self) -> &str {
        self.set.schema().name()
    }

    /// The schema the relation was loaded with, which the constraints
    /// compile against.
    pub fn schema(&self) -> &Schema {
        self.set.schema()
    }

    /// The compiled constraint set in force at the epoch.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.set
    }

    /// Number of rows frozen in the snapshot.
    pub fn num_rows(&self) -> usize {
        self.frozen.num_rows()
    }

    /// The frozen code columns and dictionary.
    pub fn frozen(&self) -> &FrozenView {
        &self.frozen
    }

    /// The detection report cached at extraction time (produced by whichever
    /// backend ran last — all backends agree, a property the differential
    /// suite asserts).
    pub fn report(&self) -> &DetectionReport {
        &self.report
    }

    /// The evidence behind [`Snapshot::report`]: which constraint and
    /// pattern tuple every flagged row violates, and the offending groups.
    pub fn evidence(&self) -> &EvidenceReport {
        &self.evidence
    }

    /// Re-runs detection from scratch over the frozen view — a single-pass,
    /// read-only scan that never touches the live session, takes no lock and
    /// interns nothing. The result is byte-identical to [`Snapshot::report`]
    /// (asserted by the serving layer's tests); readers call this to *verify*
    /// the published state rather than trust it.
    pub fn detect_fresh(&self) -> Result<DetectionReport> {
        let (report, _) = self.detector.detect_frozen(&self.frozen, self.schema())?;
        Ok(report)
    }

    /// Like [`Snapshot::detect_fresh`], also re-deriving the evidence.
    pub fn detect_fresh_with_evidence(&self) -> Result<(DetectionReport, EvidenceReport)> {
        Ok(self.detector.detect_frozen(&self.frozen, self.schema())?)
    }

    // ── shard-aware composition ───────────────────────────────────────────

    /// For every split constraint of the snapshot's set, whether its `X`
    /// contains the named shard attribute — see
    /// [`SemanticDetector::aligned_mask`]. Aligned constraints resolve their
    /// multi-tuple violations within one shard; the rest go through
    /// [`Snapshot::merge_partials`].
    pub fn aligned_mask(&self, shard_key: &str) -> Result<Vec<bool>> {
        let attr = self.schema().require_attr(shard_key)?;
        Ok(self.detector.aligned_mask(self.schema(), attr)?)
    }

    /// Scans this snapshot as one partition of a row-partitioned relation,
    /// returning a mergeable partial result (see
    /// [`SemanticDetector::detect_partition`]). Read-only and lock-free,
    /// like [`Snapshot::detect_fresh`].
    pub fn detect_partition(&self, aligned: &[bool]) -> Result<ShardPartial> {
        Ok(self
            .detector
            .detect_partition(&self.frozen, self.schema(), aligned)?)
    }

    /// [`Snapshot::detect_partition`] with an explicit worker fan-out — the
    /// sharded differential suite pins 1 and N detect workers with this.
    pub fn detect_partition_with(&self, aligned: &[bool], workers: usize) -> Result<ShardPartial> {
        let detector = self
            .detector
            .clone()
            .with_parallelism(Parallelism::Fixed(workers));
        Ok(detector.detect_partition(&self.frozen, self.schema(), aligned)?)
    }

    /// Combines per-shard partials into the global report and evidence (see
    /// [`SemanticDetector::merge_partials`]). Byte-identical to a
    /// from-scratch single-session detection over the union of the shards'
    /// rows.
    pub fn merge_partials(&self, partials: Vec<ShardPartial>) -> (DetectionReport, EvidenceReport) {
        self.detector.merge_partials(partials)
    }

    /// Composes per-shard snapshots of the same relation back into one
    /// self-contained snapshot: the union of the shards' rows (a relation
    /// keeps its rows in row-id order, which is the unsharded order, since
    /// ids are allocated globally), re-encoded through a fresh detector,
    /// with report and evidence derived by a from-scratch detection pass.
    /// This is the serving layer's oracle path: `CHECK` compares the
    /// composition's report with the merged one. The epoch is the sum of
    /// the parts' epochs — the sharded global epoch.
    pub fn compose(parts: &[&Snapshot]) -> Result<Snapshot> {
        let first = parts
            .first()
            .ok_or_else(|| SessionError::NotLoaded("<no shards>".to_string()))?;
        let schema = first.schema();
        let relation = Relation::with_rows(
            schema.clone(),
            parts
                .iter()
                .flat_map(|p| p.frozen.decode_rows())
                .map(|(id, values)| (id, Tuple::new(values))),
        )?;
        let detector =
            SemanticDetector::from_set(&first.set).with_parallelism(first.detector.parallelism());
        let frozen = detector.freeze(&relation, schema.arity());
        let (report, evidence) = detector.detect_frozen(&frozen, schema)?;
        Ok(Snapshot {
            epoch: parts.iter().map(|p| p.epoch).sum(),
            set: first.set.clone(),
            detector,
            cost: first.cost.clone(),
            frozen,
            report: Arc::new(report),
            evidence: Arc::new(evidence),
        })
    }

    /// Plans (but does not apply) a repair of the snapshot's violations: a
    /// deletion cover plus value modifications under `options`, priced by
    /// the session's cost model — the serving layer's `REPAIR-PLAN` query.
    /// See [`Snapshot::repair_plan_of`].
    pub fn repair_plan(&self, options: RepairOptions) -> Result<Repair> {
        Self::repair_plan_of(&[self], &self.evidence, options)
    }

    /// Plans a repair of `evidence` over the union of the parts' rows, as
    /// [`Snapshot::compose`] would see them, without composing: it decodes
    /// only the rows the evidence names from each part's frozen view, and
    /// plans on a clone of the first part's detector under its cost model,
    /// so nothing is compiled, scanned or encoded.
    pub fn repair_plan_of(
        parts: &[&Snapshot],
        evidence: &EvidenceReport,
        options: RepairOptions,
    ) -> Result<Repair> {
        let first = parts
            .first()
            .ok_or_else(|| SessionError::NotLoaded("<no shards>".to_string()))?;
        let named = evidence.detection_report().violating_rows();
        let rows = parts.iter().flat_map(|part| {
            let view = part.frozen.view();
            (0..view.num_rows())
                .filter(|&pos| named.contains(&view.row_id(pos)))
                .map(|pos| (view.row_id(pos), Tuple::new(part.frozen.decode_row(pos))))
        });
        let relation = Relation::with_rows(first.schema().clone(), rows)?;
        let mut engine = RepairEngine::from_detector(first.detector.clone()).with_options(options);
        engine.set_cost_model(first.cost.clone());
        Ok(engine.plan(&relation, evidence)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_send_sync_clone() {
        fn assert_bounds<T: Send + Sync + Clone>() {}
        assert_bounds::<Snapshot>();
    }
}
