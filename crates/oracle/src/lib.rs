//! # ecfd-oracle
//!
//! Test-only oracles of the eCFD workspace, written once. Every crate takes
//! this one as a dev-dependency only; the library never links it.
//!
//! * **Section IV's reduction.** The paper reduces the *maximum satisfiable
//!   subset* problem for eCFDs (MAXSS) to the *Maximum Generalized
//!   Satisfiability* problem (MAXGSAT): given a set of arbitrary Boolean
//!   expressions, find a truth assignment that satisfies as many of them as
//!   possible. [`BoolExpr`] over [`VarId`] variables from a named
//!   [`VarPool`], [`Assignment`] and [`MaxGSatInstance`] with its exhaustive
//!   solver are the target problem; [`MaxSsEncoding`] is `f(Σ)` and `g`.
//!   `ecfd_core` decides MAXSS exactly by its small-model search, and the
//!   suites check that the MAXGSAT optimum of `f(Σ)` equals the search's.
//!   `f(Σ)` reuses `ecfd_core`'s value-class grouping (through
//!   `ConstraintSet::classes`), the one the search uses too, so a grouping
//!   fault would reach both alike.
//! * **Brute force.** [`brute`] enumerates every instance of at most two
//!   tuples over explicit small domains and checks each with
//!   `ecfd_core::satisfaction` alone, none of the deciders: it is the
//!   independent reference the small-model suite checks the analyses, the
//!   reduction and `ConstraintSet::compile` against.
//! * **Shapes.** The proptest generators the suites share: [`cust`] for the
//!   facade's property and differential suites, [`abc`] for the small-model
//!   suite, both built on one generator of eCFDs of every shape and one
//!   builder of a pattern tuple comparable to another under subsumption,
//!   which both feed to `ConstraintSet::compile`.
//!
//! ## Example
//!
//! ```
//! use ecfd_oracle::{BoolExpr, MaxGSatInstance, VarId};
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

pub mod abc;
pub mod assignment;
pub mod brute;
pub mod cust;
pub mod expr;
pub mod maxgsat;
pub mod maxss;
mod shapes;

pub use assignment::{Assignment, VarPool};
pub use expr::{BoolExpr, VarId};
pub use maxgsat::{MaxGSatInstance, MaxGSatOutcome};
pub use maxss::MaxSsEncoding;
