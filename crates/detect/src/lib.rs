//! # ecfd-detect
//!
//! eCFD violation detection (Section V of the paper): the tableau-as-data
//! encoding, the SQL-based batch algorithm `BATCHDETECT`, the incremental
//! algorithm `INCDETECT`, and a native "semantic" detector used as an oracle
//! and as a fast baseline.
//!
//! ## Architecture
//!
//! * [`encode`] builds the auxiliary relations of Fig. 3: a single `enc`
//!   relation describing, for every single-pattern constraint, which
//!   attributes occur in `X`, `Y`, `Yp` and with which cell kind (set,
//!   complement set, wildcard), plus one value table per attribute side
//!   holding the set elements. The encoding is linear in the size of the
//!   constraints and its schema depends only on the relation schema `R`,
//!   never on the number of constraints.
//! * [`sqlgen`] generates the fixed pair of detection statements of Fig. 4:
//!   an `UPDATE` driven by the single-tuple-violation condition (`Q_sv`) and
//!   the `macro`/group-by query for multi-tuple violations (`Q_mv`), plus the
//!   statement that flags tuples matching an offending group. The number and
//!   shape of these statements is independent of how many eCFDs are checked.
//! * [`batch`] (`BATCHDETECT`) runs those statements on the
//!   [`ecfd_engine::Engine`] and reads back the violation flags.
//! * [`incremental`] (`INCDETECT`) maintains the violation flags and the
//!   auxiliary relation `Aux(D)` under tuple insertions and deletions,
//!   touching only affected tuples and groups.
//! * [`semantic`] is a pure-Rust detector with the same output, used for
//!   differential testing and as the "native" baseline in the SQL-vs-native
//!   ablation. It runs on the dictionary-encoded columnar core of
//!   `ecfd_relation::columnar` — the constants of the compiled set's value
//!   classes resolve to codes once at construction, a row's value to its
//!   class by one lookup, and the scan shards across worker threads
//!   ([`parallel::Parallelism`]).
//! * [`scan`] is the one scan kernel behind every full native pass: a
//!   [`ScanProgram`] projects each distinct `X` attribute list once per row
//!   however many pattern tuples are checked (the native analogue of
//!   `BATCHDETECT`'s fixed query count). The two-phase parallel scan that
//!   executes it exists nowhere else in the workspace, and its per-row step
//!   is also what [`incremental`] runs on every tuple a delta touches.
//! * [`merge`] keeps a row-partitioned relation's cross-partition groups
//!   merged under row insertions and removals — the maintained counterpart
//!   of [`SemanticDetector::merge_partials`], folding rows through the same
//!   per-row step.
//!
//! * [`evidence`] extends all three detectors beyond the paper's flags: an
//!   [`EvidenceReport`] names, for every flagged row, the violated constraint
//!   and pattern tuple, and for multi-tuple violations the offending group —
//!   the input the `ecfd_repair` crate turns into repairs.
//! * [`backend`] puts the three strategies behind two backends, each
//!   constructible from a compiled [`ecfd_core::ConstraintSet`] so
//!   constraints are validated and split once, not once per detector:
//!   [`NativeBackend`] runs the semantic full pass and INCDETECT over one
//!   held state, [`SqlBackend`] runs BATCHDETECT, and both implement the
//!   [`DetectorBackend`] trait. This is the layer the `ecfd_session` crate
//!   routes between.
//!
//! All detectors report a [`DetectionReport`] with the same shape, so they can
//! be compared directly.
//!
//! ## Example
//!
//! ```
//! use ecfd_core::parse_ecfd;
//! use ecfd_detect::SemanticDetector;
//! use ecfd_relation::{DataType, Relation, Schema, Tuple};
//!
//! let schema = Schema::builder("cust")
//!     .attr("CT", DataType::Str)
//!     .attr("AC", DataType::Str)
//!     .build();
//! let data = Relation::with_tuples(schema.clone(), [
//!     Tuple::from_iter(["Albany", "518"]),
//!     Tuple::from_iter(["Albany", "718"]), // wrong area code for Albany
//! ]).unwrap();
//!
//! let phi = parse_ecfd("cust: [CT] -> [AC] | [], { {Albany} || {518} }").unwrap();
//! let report = SemanticDetector::new(&schema, &[phi]).unwrap().detect(&data).unwrap();
//! assert_eq!(report.num_sv(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod batch;
pub mod encode;
pub mod evidence;
pub mod incremental;
pub mod merge;
mod obs;
pub mod parallel;
pub mod report;
pub mod scan;
pub mod semantic;
pub mod sqlgen;

pub use backend::{BackendKind, DetectorBackend, NativeBackend, ReadOut, SqlBackend};
pub use batch::BatchDetector;
pub use encode::Encoding;
pub use evidence::{ConstraintRef, EvidenceReport, MvEvidence, SvEvidence};
pub use incremental::IncrementalDetector;
pub use merge::{MergeState, MergeStats};
pub use parallel::Parallelism;
pub use report::DetectionReport;
pub use scan::ScanProgram;
pub use semantic::{OpenGroup, SemanticDetector, ShardPartial};

use std::fmt;

/// Result alias for detection operations.
pub type Result<T> = std::result::Result<T, DetectError>;

/// Errors produced by the detection layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectError {
    /// The constraints or the stored table are outside what a detector
    /// supports (e.g. a constrained attribute the SQL encoding cannot hold,
    /// or a table carrying columns beyond its base schema).
    Unsupported(String),
    /// Error from the constraint library.
    Core(ecfd_core::CoreError),
    /// Error from the SQL engine.
    Engine(ecfd_engine::EngineError),
    /// Error from the storage layer.
    Relation(ecfd_relation::RelationError),
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            DetectError::Core(e) => write!(f, "constraint error: {e}"),
            DetectError::Engine(e) => write!(f, "SQL engine error: {e}"),
            DetectError::Relation(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for DetectError {}

impl From<ecfd_core::CoreError> for DetectError {
    fn from(e: ecfd_core::CoreError) -> Self {
        DetectError::Core(e)
    }
}

impl From<ecfd_engine::EngineError> for DetectError {
    fn from(e: ecfd_engine::EngineError) -> Self {
        DetectError::Engine(e)
    }
}

impl From<ecfd_relation::RelationError> for DetectError {
    fn from(e: ecfd_relation::RelationError) -> Self {
        DetectError::Relation(e)
    }
}
