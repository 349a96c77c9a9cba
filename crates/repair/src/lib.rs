//! # ecfd-repair
//!
//! Violation explanation and data repair for eCFDs — the layer *above* the
//! paper's detectors. Detection (Section V of the paper) ends at flagging
//! rows with `SV` / `MV`; this crate turns those flags into action:
//!
//! 1. **Attribution** — the detect layer's
//!    [`EvidenceReport`](ecfd_detect::EvidenceReport) names, for every
//!    flagged row, the violated constraint and pattern tuple, and for
//!    multi-tuple violations the offending enforcement group.
//! 2. **Planning** — [`RepairEngine`] builds a [`ConflictGraph`] from the
//!    evidence and computes (a) *cardinality repairs* by tuple deletion — a
//!    greedy weighted vertex cover, with an exact mode that reduces small
//!    instances to [`ecfd_logic::MaxGSatInstance`] as an oracle (the frame of
//!    Livshits & Kimelfeld's cardinality-repair analysis) — and (b) *value
//!    modification* repairs for single-tuple violations, choosing the
//!    cheapest consequent value under a pluggable [`CostModel`].
//! 3. **Verified apply** — [`repair_verified`] emits the plan as
//!    [`ecfd_relation::Delta`] batches, applies them through the incremental
//!    detector and re-verifies from scratch, making
//!    `repair → re-detect → zero violations` a checked invariant.
//!
//! ## Example
//!
//! ```
//! use ecfd_core::parse_ecfd;
//! use ecfd_relation::{Catalog, DataType, Relation, Schema, Tuple};
//! use ecfd_repair::{repair_verified, RepairEngine};
//!
//! let schema = Schema::builder("cust")
//!     .attr("CT", DataType::Str)
//!     .attr("AC", DataType::Str)
//!     .build();
//! let data = Relation::with_tuples(schema.clone(), [
//!     Tuple::from_iter(["Albany", "718"]), // wrong area code for Albany
//!     Tuple::from_iter(["NYC", "212"]),
//! ]).unwrap();
//! let phi = parse_ecfd("cust: [CT] -> [AC] | [], { {Albany} || {518} }").unwrap();
//!
//! let engine = RepairEngine::new(&schema, &[phi]).unwrap();
//!
//! // Explain: one single-tuple violation, attributed to φ's pattern tuple 0.
//! let evidence = engine.explain(&data).unwrap();
//! assert_eq!(evidence.num_sv_records(), 1);
//!
//! // Repair and verify: the dirty area code is rewritten to 518 and the
//! // re-detection pass confirms the instance is clean.
//! let mut catalog = Catalog::new();
//! catalog.create(data).unwrap();
//! let outcome = repair_verified(&engine, &mut catalog).unwrap();
//! assert!(outcome.final_report.is_clean());
//! assert_eq!(outcome.num_modifications(), 1);
//! assert_eq!(outcome.num_deletions(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conflict;
pub mod cost;
pub mod engine;
pub mod plan;
pub mod verify;

pub use conflict::{ConflictGraph, ConflictNode, GroupConflict};
pub use cost::{ConstantCost, CostModel, EditDistanceCost, PerAttributeCost};
pub use engine::{DeletionSolver, RepairEngine, RepairMode, RepairOptions};
pub use plan::{DeletionRepair, Repair, ValueRepair};
pub use verify::{repair_verified, repair_verified_with, RepairRound, VerifiedRepair};

use ecfd_detect::evidence::ConstraintRef;
use ecfd_relation::RowId;
use std::fmt;

/// Result alias for repair operations.
pub type Result<T> = std::result::Result<T, RepairError>;

/// Errors produced by the repair layer.
#[derive(Debug, Clone, PartialEq)]
pub enum RepairError {
    /// Error from the detection layer.
    Detect(ecfd_detect::DetectError),
    /// Error from the constraint library.
    Core(ecfd_core::CoreError),
    /// Error from the storage layer.
    Relation(ecfd_relation::RelationError),
    /// Evidence referenced a row the relation does not contain.
    UnknownRow(RowId),
    /// Evidence referenced a constraint / pattern the engine does not know.
    UnknownConstraint(ConstraintRef),
    /// The exact deletion solver was requested on a conflict graph larger
    /// than its limit.
    InstanceTooLarge {
        /// Nodes in the conflict graph.
        nodes: usize,
        /// The limit that applied: the configured one, capped at the
        /// exhaustive solver's own.
        max_nodes: usize,
    },
    /// The verified-apply loop finished with violations remaining (should be
    /// unreachable thanks to the forced delete-only final round).
    NotClean {
        /// Number of still-violating rows.
        remaining: usize,
    },
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::Detect(e) => write!(f, "detection error: {e}"),
            RepairError::Core(e) => write!(f, "constraint error: {e}"),
            RepairError::Relation(e) => write!(f, "storage error: {e}"),
            RepairError::UnknownRow(row) => write!(f, "evidence references unknown row {row}"),
            RepairError::UnknownConstraint(c) => write!(
                f,
                "evidence references unknown constraint {} pattern {}",
                c.constraint, c.pattern
            ),
            RepairError::InstanceTooLarge { nodes, max_nodes } => write!(
                f,
                "exact repair limited to {max_nodes} conflict nodes, instance has {nodes}"
            ),
            RepairError::NotClean { remaining } => write!(
                f,
                "repair did not converge: {remaining} violating rows remain"
            ),
        }
    }
}

impl std::error::Error for RepairError {}

impl From<ecfd_detect::DetectError> for RepairError {
    fn from(e: ecfd_detect::DetectError) -> Self {
        RepairError::Detect(e)
    }
}

impl From<ecfd_core::CoreError> for RepairError {
    fn from(e: ecfd_core::CoreError) -> Self {
        RepairError::Core(e)
    }
}

impl From<ecfd_relation::RelationError> for RepairError {
    fn from(e: ecfd_relation::RelationError) -> Self {
        RepairError::Relation(e)
    }
}
