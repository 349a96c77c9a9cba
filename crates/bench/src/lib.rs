//! # ecfd-bench
//!
//! Experiment harness regenerating every figure of the paper's evaluation
//! (Section VI, Figs. 5–7) plus the SQL-vs-native ablation
//! ([`ablation_sql_vs_native`]).
//!
//! Each `fig*` function returns a table of [`Row`]s — the same series the
//! paper plots — so that the `experiments` binary (`src/bin/experiments.rs`)
//! and this crate's tests share one implementation. Experiments run at a
//! configurable [`Scale`]: the default [`Scale::Small`] keeps wall-clock time
//! reasonable on the bundled (unoptimised) SQL engine, while
//! [`Scale::Paper`] uses the paper's original parameter ranges (10k–100k
//! tuples). Shapes — who wins, by what factor, where the crossovers are — are
//! preserved across scales; absolute times are not comparable to the paper's
//! 2008 hardware in any case.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod workloads;

pub use experiments::{
    ablation_sql_vs_native, fig5a, fig5b, fig5c, fig6a, fig6b, fig6c, fig7a, fig7b, Row, Scale,
};
pub use workloads::{prepared_catalog, PreparedWorkload};
