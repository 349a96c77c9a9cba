//! # ecfd-plan
//!
//! Detection-plan compilation: the verify → lower → plan → execute pipeline
//! that turns a compiled [`ConstraintSet`](ecfd_core::ConstraintSet) into an
//! explicit, inspectable detection plan — the readable form of the program
//! every full native detection pass runs.
//!
//! 1. **Lower** ([`lower`]): every split single-pattern constraint becomes
//!    one [`HirNode`] — a logical scan / group / flag tree over
//!    dictionary-coded columns, with the constraint's attribute lists
//!    resolved to column positions once.
//! 2. **Plan** ([`Hir::optimize`]): the HIR is optimized into a [`Plan`]
//!    (the MIR). The one rewrite is *shared scans*: constraints whose `X`
//!    attribute lists are identical fuse into one grouped [`ScanNode`]
//!    feeding multiple [`FlagNode`] operators, so the per-row `X` projection
//!    is computed once per scan instead of once per constraint. The fusion
//!    rule is not this crate's: it is [`ecfd_detect::scan::fuse`], the rule
//!    `SemanticDetector` builds its default program with, so
//!    `Plan::compile(set)` describes what `DETECT FRESH` runs by
//!    construction. [`Hir::sequential`] produces the unfused baseline plan
//!    (one scan per constraint) the benchmark compares against.
//! 3. **Execute**: [`Plan::program`] hands the plan's scans to the one scan
//!    kernel in the workspace, [`ecfd_detect::scan`]. There is no second
//!    interpreter here.
//!
//! [`PlanBackend`] is that hand-over packaged behind the ordinary
//! [`DetectorBackend`](ecfd_detect::DetectorBackend) trait: a
//! [`SemanticBackend`](ecfd_detect::SemanticBackend) whose program is the
//! plan's. On the fused plan it computes exactly what the semantic backend
//! does; the unfused plan is the measured contrast arm (`plan.unfused_ms` in
//! `benchmark/`). [`Plan::render`] produces the deterministic text form the
//! serving layer's `EXPLAIN PLAN` verb exposes.
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
//! assert_eq!(&plan.program(), SemanticDetector::from_set(&set).program());
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
mod hir;
mod mir;

pub use backend::PlanBackend;
pub use hir::{lower, Hir, HirNode};
pub use mir::{FlagNode, Plan, ScanNode};

/// Result alias for plan operations — plan compilation and execution report
/// through the detection layer's error type, since a plan is executed by the
/// detection layer's own kernel.
pub type Result<T> = ecfd_detect::Result<T>;

/// Re-export of the detection layer's error type for callers matching on
/// failures of plan compilation or execution.
pub use ecfd_detect::DetectError;
