//! Verified apply: `repair → re-detect → zero violations` as a *checked*
//! invariant.
//!
//! [`repair_verified`] drives a plan/apply/re-detect loop over a catalog
//! table. Repairs are emitted as [`Delta`] batches and applied through the
//! [`IncrementalDetector`], whose maintained flags are the first verification
//! layer; an independent from-scratch pass of the [`SemanticDetector`] is the
//! second. Value modification can in principle surface new violations (a
//! repaired cell may join a new enforcement group), so the loop iterates —
//! and its final round is forced to pure deletion, which provably cannot
//! create violations, guaranteeing convergence.

use crate::engine::{RepairEngine, RepairMode};
use crate::plan::Repair;
use crate::{RepairError, Result};
use ecfd_detect::incremental::IncrementalStats;
use ecfd_detect::{DetectionReport, IncrementalDetector, SemanticDetector};
use ecfd_relation::{Catalog, Delta};

/// Plan/apply rounds of the verified repair loop; the last is forced to
/// [`RepairMode::DeleteOnly`], which guarantees convergence.
const MAX_ROUNDS: usize = 4;

/// One plan/apply round of the verified repair loop.
#[derive(Debug, Clone)]
pub struct RepairRound {
    /// Round number (0-based).
    pub round: usize,
    /// Violation report before this round's repair.
    pub before: DetectionReport,
    /// The plan that was applied.
    pub repair: Repair,
    /// The update batch the plan was applied as. To replay the whole repair
    /// on another copy of the data, apply each round's delta *in round
    /// order* — merging them into one batch would not be faithful, because
    /// [`Delta::apply`] processes all deletions before all insertions and a
    /// later round may delete a tuple an earlier round inserted.
    pub delta: Delta,
    /// What the incremental detector did while applying it.
    pub stats: IncrementalStats,
}

/// The outcome of [`repair_verified`]: every round (with its update batch)
/// and the (verified clean) final report.
#[derive(Debug, Clone)]
pub struct VerifiedRepair {
    /// The rounds that ran (empty when the data was already clean).
    pub rounds: Vec<RepairRound>,
    /// The final (clean) violation report.
    pub final_report: DetectionReport,
}

impl VerifiedRepair {
    /// The applied update batches, in application (round) order.
    pub fn deltas(&self) -> impl Iterator<Item = &Delta> + '_ {
        self.rounds.iter().map(|r| &r.delta)
    }

    /// Total planned deletions across all rounds.
    pub fn num_deletions(&self) -> usize {
        self.rounds.iter().map(|r| r.repair.num_deletions()).sum()
    }

    /// Total planned cell modifications across all rounds.
    pub fn num_modifications(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.repair.num_modifications())
            .sum()
    }

    /// Total plan cost across all rounds.
    pub fn total_cost(&self) -> f64 {
        self.rounds.iter().map(|r| r.repair.total_cost()).sum()
    }

    /// True when the data was already clean and nothing was changed.
    pub fn is_noop(&self) -> bool {
        self.rounds.is_empty()
    }
}

/// Repairs the catalog table named by the engine's schema until the detector
/// reports zero violations, verifying the result both incrementally and from
/// scratch. Errors with [`RepairError::NotClean`] if the loop somehow fails
/// to converge (which the forced delete-only final round prevents).
pub fn repair_verified(engine: &RepairEngine, catalog: &mut Catalog) -> Result<VerifiedRepair> {
    // Reuse the engine's compiled detector; the seeding pass that
    // initialises the incremental maintenance state still runs.
    let mut inc = IncrementalDetector::initialize_from(engine.detector().clone(), catalog)?;
    repair_verified_with(engine, catalog, &mut inc)
}

/// The verified repair loop against an *existing* incremental detector whose
/// flags and auxiliary state are already correct for the table's current
/// contents — the entry point of the session layer, which hands over its warm
/// maintenance state so no seeding re-scan runs at all. Every round plans
/// from the detector's maintained evidence, which the previous round's delta
/// kept current, so no round re-detects the table. The detector is
/// maintained through every applied round and remains valid afterwards.
pub fn repair_verified_with(
    engine: &RepairEngine,
    catalog: &mut Catalog,
    inc: &mut IncrementalDetector,
) -> Result<VerifiedRepair> {
    let detector = engine.detector();
    let table = detector.schema().name().to_string();

    let mut rounds = Vec::new();
    for round in 0..MAX_ROUNDS {
        let stored = catalog.get(&table)?;
        let evidence = inc.maintained_evidence();
        if evidence.is_clean() {
            break;
        }
        // The final round falls back to pure deletion: deleting tuples can
        // never create an SV flag or a new FD conflict, so it always lands on
        // a clean instance.
        let mode = if round + 1 == MAX_ROUNDS {
            RepairMode::DeleteOnly
        } else {
            engine.options().mode
        };
        let before = evidence.detection_report();
        let repair = engine.plan_with_mode(stored, evidence, mode)?;
        let delta = repair.to_delta(stored)?;
        let stats = inc.apply(catalog, &delta)?;
        rounds.push(RepairRound {
            round,
            before,
            repair,
            delta,
            stats,
        });
    }

    // Verification layer 1: the incrementally maintained flags.
    let final_report = DetectionReport::clone(inc.maintained_report());
    // Verification layer 2: an independent from-scratch semantic pass, through
    // its own compile and dictionary — a reference shares nothing it checks.
    let scratch =
        SemanticDetector::new(detector.schema(), detector.ecfds())?.detect(catalog.get(&table)?)?;
    if !final_report.is_clean() || !scratch.is_clean() {
        return Err(RepairError::NotClean {
            remaining: scratch.num_violations().max(final_report.num_violations()),
        });
    }
    Ok(VerifiedRepair {
        rounds,
        final_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RepairMode, RepairOptions};
    use ecfd_core::ECfdBuilder;
    use ecfd_relation::{DataType, Relation, Schema, Tuple, Value};

    fn schema() -> Schema {
        Schema::builder("cust")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .build()
    }

    fn constraints() -> Vec<ecfd_core::ECfd> {
        vec![
            // Albany's area code must be 518 and CT → AC.
            ECfdBuilder::new("cust")
                .lhs(["CT"])
                .fd_rhs(["AC"])
                .pattern(|p| p.in_set("CT", ["Albany"]).in_set("AC", ["518"]))
                .build()
                .unwrap(),
            ECfdBuilder::new("cust")
                .lhs(["CT"])
                .fd_rhs(["AC"])
                .pattern(|p| p)
                .build()
                .unwrap(),
        ]
    }

    fn dirty_catalog() -> Catalog {
        let data = Relation::with_tuples(
            schema(),
            [
                Tuple::from_iter(["Albany", "718"]), // SV (+ FD conflict below)
                Tuple::from_iter(["Albany", "518"]),
                Tuple::from_iter(["NYC", "212"]),
                Tuple::from_iter(["NYC", "646"]), // FD conflict with the row above
            ],
        )
        .unwrap();
        let mut catalog = Catalog::new();
        catalog.create(data).unwrap();
        catalog
    }

    #[test]
    fn verified_repair_converges_and_is_clean() {
        let mut catalog = dirty_catalog();
        let engine = RepairEngine::new(&schema(), &constraints()).unwrap();
        let outcome = repair_verified(&engine, &mut catalog).unwrap();
        assert!(!outcome.is_noop());
        assert!(outcome.final_report.is_clean());
        assert!(outcome.num_deletions() + outcome.num_modifications() > 0);
        // The surviving table re-verifies clean from scratch as well.
        assert!(engine
            .explain(catalog.get("cust").unwrap())
            .unwrap()
            .is_clean());
    }

    #[test]
    fn delete_only_repair_needs_a_single_round() {
        let mut catalog = dirty_catalog();
        let engine = RepairEngine::new(&schema(), &constraints())
            .unwrap()
            .with_options(RepairOptions {
                mode: RepairMode::DeleteOnly,
            });
        let outcome = repair_verified(&engine, &mut catalog).unwrap();
        assert_eq!(outcome.rounds.len(), 1);
        assert_eq!(outcome.num_modifications(), 0);
        // Trivial bound: never delete more than the flagged rows (3 here:
        // both Albany rows conflict? no — Albany 718 is SV and conflicts with
        // Albany 518; NYC 212 / 646 conflict. Flagged = all 4).
        assert!(outcome.num_deletions() <= outcome.rounds[0].before.num_violations());
        assert!(outcome.final_report.is_clean());
    }

    #[test]
    fn clean_data_is_a_noop() {
        let mut catalog = Catalog::new();
        catalog
            .create(Relation::with_tuples(schema(), [Tuple::from_iter(["Albany", "518"])]).unwrap())
            .unwrap();
        let engine = RepairEngine::new(&schema(), &constraints()).unwrap();
        let outcome = repair_verified(&engine, &mut catalog).unwrap();
        assert!(outcome.is_noop());
        assert_eq!(outcome.deltas().count(), 0);
        assert_eq!(outcome.total_cost(), 0.0);
    }

    #[test]
    fn replaying_round_deltas_reproduces_the_clean_state() {
        let data = Relation::with_tuples(
            schema(),
            [
                Tuple::from_iter(["Albany", "718"]),
                Tuple::from_iter(["Albany", "518"]),
                Tuple::from_iter(["NYC", "212"]),
                Tuple::from_iter(["NYC", "646"]),
            ],
        )
        .unwrap();
        let mut catalog = Catalog::new();
        catalog.create(data.clone()).unwrap();
        let engine = RepairEngine::new(&schema(), &constraints()).unwrap();
        let outcome = repair_verified(&engine, &mut catalog).unwrap();

        // Applying each round's delta in order on a fresh copy must land on
        // exactly the repaired table contents.
        let mut replay = data;
        for delta in outcome.deltas() {
            delta.apply(&mut replay).unwrap();
        }
        let repaired = catalog.get("cust").unwrap();
        let mut replayed: Vec<&Tuple> = replay.tuples().collect();
        let mut expected: Vec<&Tuple> = repaired.tuples().collect();
        replayed.sort();
        expected.sort();
        assert_eq!(replayed, expected);
        assert!(engine.explain(&replay).unwrap().is_clean());
    }

    #[test]
    fn repair_leaves_the_stored_schema_as_loaded() {
        // The flags live in the reports: seeding, every repair round and both
        // verification layers leave the table with its loaded attributes.
        let mut catalog = dirty_catalog();
        let engine = RepairEngine::new(&schema(), &constraints()).unwrap();
        let outcome = repair_verified(&engine, &mut catalog).unwrap();
        assert!(!outcome.is_noop());
        assert_eq!(catalog.table_names(), ["cust"]);
        let stored = catalog.get("cust").unwrap();
        assert_eq!(stored.schema(), &schema());
        assert!(stored
            .tuples()
            .all(|t| t.values().iter().all(|v| matches!(v, Value::Str(_)))));
    }
}
