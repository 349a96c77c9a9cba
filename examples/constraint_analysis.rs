//! Static constraint analysis: satisfiability, implication / redundancy
//! removal, and the exact maximum-satisfiable-subset analysis of Section IV
//! — the checks a data steward runs *before* using a constraint set for
//! cleaning ("it is necessary to determine whether or not the given eCFDs
//! are not dirty themselves").
//!
//! Run with: `cargo run --example constraint_analysis`

use ecfd::core::normalize::split_patterns;
use ecfd::core::{implication, maxss, satisfiability};
use ecfd::prelude::*;

fn main() {
    let schema = Schema::builder("cust")
        .attr("AC", DataType::Str)
        .attr("CT", DataType::Str)
        .attr("ZIP", DataType::Str)
        .build();

    // A constraint set that a user might plausibly write: the paper's φ1 and
    // φ2, a redundant weaker variant, and two conflicting area-code rules.
    let texts = [
        "cust: [CT] -> [AC] | [], { !{NYC, LI} || _ ; {Albany, Troy, Colonie} || {518} }",
        "cust: [CT] -> [] | [AC], { {NYC} || {212, 718, 646, 347, 917} }",
        // Redundant: implied by the first constraint.
        "cust: [CT] -> [AC] | [], { {Albany} || {518} }",
        // These two conflict with each other: every tuple's AC is forced into
        // two disjoint sets.
        "cust: [CT] -> [] | [AC], { _ || {212} }",
        "cust: [CT] -> [] | [AC], { _ || {518} }",
    ];
    let constraints: Vec<ECfd> = texts
        .iter()
        .map(|t| parse_ecfd(t).expect("constraint parses"))
        .collect();
    for (i, c) in constraints.iter().enumerate() {
        println!("φ{}: {}", i + 1, c);
    }

    // --- exact satisfiability --------------------------------------------
    let satisfiable = satisfiability::is_satisfiable(&schema, &constraints).expect("analysis runs");
    println!("\nExact satisfiability of the whole set: {satisfiable}");

    // --- MAXSS (Section IV) -------------------------------------------------
    // The small-model search behind the satisfiability check, letting the one
    // tuple break k constraints for k = 0, 1, …: the first k that succeeds is
    // optimal, because the search at k − 1 failed. So a shortfall proves the
    // whole set unsatisfiable. (The paper's reduction to MAXGSAT, f(Σ) and g,
    // lives in the test-only `ecfd_oracle` crate, whose suites check that it
    // keeps this optimum.)
    let outcome = maxss::max_satisfiable(&schema, &constraints).expect("MAXSS analysis runs");
    println!(
        "MAXSS: {} of {} constraints are jointly satisfiable → verdict {:?}",
        outcome.satisfiable_subset.len(),
        constraints.len(),
        outcome.verdict
    );
    println!(
        "  a largest satisfiable subset: {:?} (1-based)",
        outcome
            .satisfiable_subset
            .iter()
            .map(|i| i + 1)
            .collect::<Vec<_>>()
    );

    // --- implication & redundancy removal ---------------------------------
    // Redundancy elimination is an analysis, not a compile step. The minimal
    // cover of the satisfiable subset, split to one pattern tuple per
    // constraint, drops the redundant constraint; the cover is then compiled
    // by the pipeline behind `Session::register` (validate → merge → dedupe
    // → split → drop subsumed singles).
    let keep: Vec<ECfd> = outcome
        .satisfiable_subset
        .iter()
        .map(|&i| constraints[i].clone())
        .collect();
    let singles: Vec<ECfd> = split_patterns(&keep).into_iter().map(|s| s.ecfd).collect();
    let cover = implication::minimal_cover(&schema, &singles).expect("implication analysis runs");
    let compiled = ConstraintSet::compile(&schema, &cover).expect("the cover compiles");
    println!(
        "\nCompiled minimal cover: {} of {} constraints remain ({} pattern tuples):",
        compiled.len(),
        keep.len(),
        compiled.num_patterns()
    );
    for c in compiled.ecfds() {
        println!("  {}", c);
    }

    // Spot-check one implication the paper-style reasoning predicts: the
    // Albany-only binding follows from φ1.
    let weaker = parse_ecfd("cust: [CT] -> [AC] | [], { {Albany} || {518} }").unwrap();
    let implied = implication::implies(&schema, &constraints[..1], &weaker).expect("analysis runs");
    println!("\nφ1 ⊨ (Albany → 518)? {implied}");
}
