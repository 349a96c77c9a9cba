//! # ecfd-core
//!
//! Extended Conditional Functional Dependencies (eCFDs), the primary
//! contribution of *"Increasing the Expressivity of Conditional Functional
//! Dependencies without Extra Complexity"* (Bravo, Fan, Geerts, Ma; ICDE 2008).
//!
//! An eCFD `φ = (R: X → Y, Yp, Tp)` pairs an embedded functional dependency
//! `X → Y` with a pattern tableau `Tp` whose cells are, per attribute, either a
//! wildcard `_`, a finite set `S` (disjunction: the attribute must take one of
//! the listed values) or a complement set `S̄` (inequality: the attribute must
//! take none of them). The extra attribute set `Yp` carries pattern constraints
//! on the right-hand side without participating in the FD. Classic CFDs are the
//! special case where every non-wildcard cell is a singleton set and `Yp = ∅`.
//!
//! This crate provides:
//!
//! * the constraint model ([`PatternValue`], [`PatternTuple`], [`ECfd`],
//!   [`Cfd`]) with a fluent [`ECfdBuilder`];
//! * a concrete textual syntax and parser ([`parse_ecfd`], [`parse_ecfds`]);
//! * the matching and satisfaction semantics of Section II
//!   ([`satisfaction::check`], [`satisfaction::check_all`]);
//! * the static analyses of Sections III and IV: exact satisfiability
//!   ([`satisfiability::is_satisfiable`]), exact implication
//!   ([`implication::implies`]) and exact MAXSS
//!   ([`maxss::max_satisfiable`]), all thin callers of one small-model search
//!   over per-attribute value classes (one tuple for satisfiability, at most
//!   two for an implication counterexample, one that breaks as few
//!   constraints as possible for MAXSS; the paper's reduction of MAXSS to
//!   MAXGSAT is a tested claim of the workspace's test-only oracle crate,
//!   see [`maxss`]);
//! * compiled constraint sets ([`ConstraintSet`]): one pipeline with no
//!   switches whose output every detector backend shares, entered through
//!   [`ConstraintSet::compile`] (validate → merge → dedupe → split → drop
//!   subsumed) or
//!   [`ConstraintSet::verbatim`] (validate → split). Both store every
//!   single's cells as sets of value classes ([`ClassSet`]), the one
//!   alphabet subsumption and the detectors' scan read.
//!
//! Violation *detection* on large instances lives in the companion crate
//! `ecfd-detect`, which encodes tableaux as data and generates SQL (Section V).
//!
//! A standalone grammar-and-semantics reference for the pattern-tuple
//! language — constants, wildcards, disjunction, negation, `Yp`-attribute
//! violations, with the paper's figures worked through — lives in
//! `docs/ecfd-syntax.md` at the repository root.
//!
//! ## Example
//!
//! ```
//! use ecfd_core::{parse_ecfd, satisfaction};
//! use ecfd_relation::{DataType, Relation, Schema, Tuple};
//!
//! let schema = Schema::builder("cust")
//!     .attr("CT", DataType::Str)
//!     .attr("AC", DataType::Str)
//!     .build();
//! // φ1 of the paper: outside {NYC, LI} city determines area code, and the
//! // three capital-district cities must have area code 518.
//! let phi1 = parse_ecfd(
//!     "cust: [CT] -> [AC] | [], { !{NYC, LI} || _ ; {Albany, Troy, Colonie} || {518} }",
//! ).unwrap();
//!
//! let db = Relation::with_tuples(schema, [
//!     Tuple::from_iter(["Albany", "718"]),   // violates φ1: Albany must be 518
//!     Tuple::from_iter(["Colonie", "518"]),
//! ]).unwrap();
//!
//! let result = satisfaction::check(&db, &phi1).unwrap();
//! assert!(!result.is_satisfied());
//! assert_eq!(result.single_tuple_violations().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod builder;
pub mod cfd;
pub mod ecfd;
pub mod error;
pub mod implication;
pub mod matching;
pub mod maxss;
pub mod normalize;
pub mod parser;
pub mod pattern;
pub mod satisfaction;
pub mod satisfiability;
pub mod set;
mod small_model;
pub mod violation;

pub use builder::{ECfdBuilder, PatternTupleBuilder};
pub use cfd::Cfd;
pub use ecfd::{ECfd, PatternTuple};
pub use error::{CoreError, Result};
pub use parser::{parse_ecfd, parse_ecfds};
pub use pattern::PatternValue;
pub use satisfaction::{check, check_all, SatisfactionResult};
pub use set::{AttrClasses, CellClasses, ClassSet, ConstraintSet, PatternIndex};
pub use violation::{Violation, ViolationKind, ViolationSet};
