//! # ecfd
//!
//! Extended Conditional Functional Dependencies (eCFDs) for data cleaning —
//! a reproduction of *"Increasing the Expressivity of Conditional Functional
//! Dependencies without Extra Complexity"* (Bravo, Fan, Geerts, Ma;
//! ICDE 2008) as a Rust workspace.
//!
//! This crate is the facade: it re-exports the workspace crates so that an
//! application only needs one dependency.
//!
//! * [`relation`] — in-memory relational storage (schemas, relations, row
//!   ids, indexes, catalogs, update batches, CSV I/O).
//! * [`engine`] — a small SQL engine (parser + executor) playing the role of
//!   the RDBMS the paper runs its detection queries on.
//! * [`core`] — the eCFD constraint language: pattern tableaux, a textual
//!   syntax, satisfaction semantics, exact satisfiability, implication and
//!   MAXSS. The paper's MAXSS → MAXGSAT reduction is a tested claim of the
//!   workspace's test-only oracle crate, not part of the library.
//! * [`detect`] — violation detection: the tableau-as-data encoding, the
//!   SQL-based `BATCHDETECT`, the incremental `INCDETECT`, and a native
//!   semantic detector whose one scan kernel (`detect::scan`) runs a
//!   shared-scan program for every full pass, and whose per-row step
//!   `INCDETECT` runs for every delta.
//! * [`plan`] — detection plans: that kernel's own program for a constraint
//!   set (fused, or unfused as the measured contrast), with attribute names
//!   resolved only when `EXPLAIN PLAN` renders it.
//! * [`repair`] — violation explanation and data repair: conflict graphs,
//!   cardinality repairs by tuple deletion (greedy, and exact on small
//!   conflict graphs),
//!   value-modification repairs under pluggable cost models, and a verified
//!   repair → re-detect loop.
//! * [`session`] — the high-level API: a stateful [`Session`](session::Session)
//!   owning the catalog, compiled constraint sets, and the three detection
//!   strategies behind one `DetectorBackend` trait, with policy-based routing
//!   between batch and incremental detection — plus epoch-stamped
//!   [`Snapshot`](session::Snapshot)s for concurrent readers.
//! * [`serve`] — the concurrent serving layer: a single writer applying
//!   delta batches from a bounded ingest queue, Arc-swapped snapshot
//!   publication for lock-free readers, and a line protocol over TCP
//!   (see `ARCHITECTURE.md` for the epoch lifecycle).
//! * [`wal`] — an append-only write-ahead log of ticket-ordered delta
//!   records with checksummed framing and epoch checkpoints; the serving
//!   layer's durability and replication substrate.
//! * [`obs`] — the observability core: atomic counters/gauges, lock-free
//!   latency histograms with p50/p95/p99 extraction, and the sorted text
//!   exposition served by the `STATS` protocol verb.
//! * [`datagen`] — synthetic workloads reproducing the paper's experimental
//!   setting.
//!
//! ## Quick start
//!
//! The [`session::Session`] API is the recommended path — load data, register
//! constraints once, then detect / explain / repair against the compiled set:
//!
//! ```
//! use ecfd::prelude::*;
//!
//! // A toy cust table (Fig. 1 of the paper, abridged).
//! let schema = Schema::builder("cust")
//!     .attr("CT", DataType::Str)
//!     .attr("AC", DataType::Str)
//!     .build();
//! let data = Relation::with_tuples(schema, [
//!     Tuple::from_iter(["Albany", "718"]),   // wrong area code
//!     Tuple::from_iter(["NYC", "212"]),
//! ]).unwrap();
//!
//! let mut session = Session::new();
//! session.load(data).unwrap();
//! // φ1 of the paper, written in the textual syntax.
//! session.register_text(
//!     "cust: [CT] -> [AC] | [], { !{NYC, LI} || _ ; {Albany, Troy, Colonie} || {518} }",
//! ).unwrap();
//!
//! let report = session.detect().unwrap();
//! assert_eq!(report.num_sv(), 1);
//!
//! let outcome = session.repair().unwrap();
//! assert!(outcome.final_report.is_clean());
//! ```
//!
//! The per-detector types (`SemanticDetector`, `BatchDetector`,
//! `IncrementalDetector`, `RepairEngine`) remain exported as the low-level
//! layer — see `examples/incremental_monitoring.rs` for that style.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ecfd_core as core;
pub use ecfd_datagen as datagen;
pub use ecfd_detect as detect;
pub use ecfd_engine as engine;
pub use ecfd_obs as obs;
pub use ecfd_plan as plan;
pub use ecfd_relation as relation;
pub use ecfd_repair as repair;
pub use ecfd_serve as serve;
pub use ecfd_session as session;
pub use ecfd_wal as wal;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use ecfd_core::{
        check, check_all, parse_ecfd, parse_ecfds, Cfd, ConstraintSet, ECfd, ECfdBuilder,
        PatternTuple, PatternValue, SatisfactionResult, Violation, ViolationKind, ViolationSet,
    };
    pub use ecfd_core::{implication, maxss, satisfiability};
    pub use ecfd_detect::{
        BackendKind, BatchDetector, ConstraintRef, DetectionReport, DetectorBackend, Encoding,
        EvidenceReport, IncrementalDetector, NativeBackend, Parallelism, SemanticDetector,
        SqlBackend,
    };
    pub use ecfd_engine::{Engine, ResultSet};
    pub use ecfd_obs::{Histogram, Registry};
    pub use ecfd_plan::{Plan, PlanBackend};
    pub use ecfd_relation::{
        Catalog, Code, CodeVec, ColumnarView, DataType, Delta, Dictionary, Domain, Relation, RowId,
        Schema, Tuple, Value,
    };
    pub use ecfd_repair::{
        repair_verified, ConflictGraph, ConstantCost, CostModel, EditDistanceCost,
        PerAttributeCost, Repair, RepairEngine, RepairMode, RepairOptions, VerifiedRepair,
    };
    pub use ecfd_serve::{Hub, ServeConfig, Server, SnapshotStore, Writer};
    pub use ecfd_session::{RoutingPolicy, Session, SessionError, Snapshot, Stage};
    pub use ecfd_wal::{Wal, WalRecord};
}
