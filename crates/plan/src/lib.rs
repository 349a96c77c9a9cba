//! # ecfd-plan
//!
//! Detection plans: a compiled [`ConstraintSet`](ecfd_core::ConstraintSet)
//! turned into the explicit, inspectable program every full native detection
//! pass runs, plus the text form `EXPLAIN PLAN` shows.
//!
//! A [`Plan`] is the scan kernel's own [`ScanProgram`](ecfd_detect::ScanProgram)
//! — a list of `Scan` / `FlagOp` operators, the one description of per-row
//! work in the workspace — and the set it was compiled from. This crate adds
//! only what the kernel does not need:
//!
//! * [`Plan::compile`] builds the shared-scan program with
//!   [`ScanProgram::fused`](ecfd_detect::ScanProgram::fused): constraints
//!   whose `X` attribute lists are identical share one scan, so the per-row
//!   `X` projection is computed once per scan instead of once per
//!   constraint. It is the program `SemanticDetector` builds by default, so
//!   `Plan::compile(set)` describes what `DETECT FRESH` runs by
//!   construction.
//! * [`Plan::compile_unfused`] splits that program into one scan per
//!   constraint: the baseline the benchmark compares against, run by the
//!   same kernel.
//! * [`Plan::render`] produces the deterministic text form the serving
//!   layer's `EXPLAIN PLAN` verb exposes, resolving attribute names and
//!   `(constraint, pattern)` provenance through the set.
//!
//! [`PlanBackend`] packages a plan behind the ordinary
//! [`DetectorBackend`](ecfd_detect::DetectorBackend) trait: a
//! [`SemanticBackend`](ecfd_detect::SemanticBackend) whose program is the
//! plan's. On the fused plan it computes exactly what the semantic backend
//! does; the unfused plan is the measured contrast arm (`plan.unfused_ms` in
//! `benchmark/`). There is no interpreter here.
//!
//! ## Example
//!
//! ```
//! use ecfd_core::ConstraintSet;
//! use ecfd_detect::{DetectorBackend, SemanticDetector};
//! use ecfd_plan::{Plan, PlanBackend};
//! use ecfd_relation::{Catalog, DataType, Relation, Schema, Tuple};
//!
//! let schema = Schema::builder("cust")
//!     .attr("CT", DataType::Str)
//!     .attr("AC", DataType::Str)
//!     .build();
//! let set = ConstraintSet::parse(
//!     &schema,
//!     "cust: [CT] -> [AC] | [], { {Albany} || {518} ; {Troy} || {518} }",
//! ).unwrap();
//!
//! // Both pattern tuples share X = [CT]: the optimized plan is one scan.
//! let plan = Plan::compile(&set).unwrap();
//! assert_eq!(plan.num_scans(), 1);
//! assert_eq!(plan.num_flags(), 2);
//! // …and, by construction, the program the native detector executes.
//! assert_eq!(plan.program(), SemanticDetector::from_set(&set).program());
//!
//! let mut catalog = Catalog::new();
//! catalog.create(Relation::with_tuples(schema, [
//!     Tuple::from_iter(["Albany", "718"]), // wrong area code
//!     Tuple::from_iter(["NYC", "212"]),
//! ]).unwrap()).unwrap();
//! let mut backend = PlanBackend::from_set(&set).unwrap();
//! let (report, _) = backend.detect(&mut catalog).unwrap();
//! assert_eq!(report.num_sv(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod backend;
mod mir;

pub use backend::PlanBackend;
pub use mir::Plan;

/// Result alias for plan operations — plan compilation and execution report
/// through the detection layer's error type, since a plan is executed by the
/// detection layer's own kernel.
pub type Result<T> = ecfd_detect::Result<T>;

/// Re-export of the detection layer's error type for callers matching on
/// failures of plan compilation or execution.
pub use ecfd_detect::DetectError;
