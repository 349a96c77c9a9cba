//! # ecfd-logic
//!
//! Propositional-logic substrate for the eCFD reproduction.
//!
//! Section IV of the paper reduces the *maximum satisfiable subset* problem for
//! eCFDs (MAXSS) to the *Maximum Generalized Satisfiability* problem (MAXGSAT):
//! given a set of arbitrary Boolean expressions, find a truth assignment that
//! satisfies as many of them as possible. The paper then "applies existing
//! approximation algorithms for MAXGSAT". This crate supplies the
//! Boolean-expression representation the reduction produces and MAXGSAT's
//! exact solver, which checks that the reduction keeps the optimum; MAXSS
//! itself is decided exactly by `ecfd-core`'s small-model search, so no
//! approximation algorithm is needed:
//!
//! * [`BoolExpr`] — arbitrary propositional formulas over [`VarId`] variables,
//!   allocated from a named [`VarPool`];
//! * [`Assignment`] — truth assignments and evaluation;
//! * [`MaxGSatInstance`] — a MAXGSAT instance and its exhaustive exact
//!   solver, for instances of at most
//!   [`MaxGSatInstance::EXHAUSTIVE_MAX_VARS`] variables.
//!
//! The crate has no knowledge of eCFDs; `ecfd-core`'s `maxss` module builds
//! instances of these types from constraint sets.
//!
//! ## Example
//!
//! ```
//! use ecfd_logic::{BoolExpr, MaxGSatInstance, VarId};
//!
//! // Two variables, three formulas; x0 ∧ ¬x0 cannot both hold, so the
//! // optimum satisfies two of the three.
//! let x0 = || BoolExpr::var(VarId(0));
//! let x1 = || BoolExpr::var(VarId(1));
//! let instance = MaxGSatInstance::new(2, vec![
//!     x0(),
//!     x0().not(),
//!     BoolExpr::or([BoolExpr::and([x0(), x1()]), x1()]),
//! ]);
//! let outcome = instance.solve_exhaustive();
//! assert_eq!(outcome.num_satisfied(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod expr;
pub mod maxgsat;

pub use assignment::{Assignment, VarPool};
pub use expr::{BoolExpr, VarId};
pub use maxgsat::{MaxGSatInstance, MaxGSatOutcome};
