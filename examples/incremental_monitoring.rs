//! Incremental monitoring scenario: keep the violation flags of a customer
//! database up to date while batches of insertions and deletions arrive,
//! using INCDETECT — and compare against recomputing from scratch with
//! BATCHDETECT after each batch (the trade-off of Fig. 7(a)).
//!
//! This is the designated *low-level* example: it wires
//! `IncrementalDetector` / `BatchDetector` by hand, which is the layer the
//! [`Session`] API (see `examples/quickstart.rs`) wraps. The final section
//! replays the rounds through a session with the default auto-routing policy,
//! which makes the Fig. 7(a) decision — incremental for small ΔD, batch for
//! large — automatically.
//!
//! Run with: `cargo run --release --example incremental_monitoring [size]`

use ecfd::datagen::constraints::workload_constraints;
use ecfd::datagen::{generate, generate_delta, CustConfig, UpdateConfig};
use ecfd::prelude::*;
use std::time::Instant;

fn main() {
    let size: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2_000);
    let (data, _) = generate(&CustConfig {
        size,
        noise_percent: 5.0,
        ..CustConfig::default()
    });
    let schema = data.schema().clone();
    let constraints = workload_constraints();

    let mut catalog = Catalog::new();
    catalog.create(data.clone()).expect("fresh catalog");
    let start = Instant::now();
    let mut monitor = IncrementalDetector::initialize(&schema, &constraints, &mut catalog)
        .expect("initialisation runs");
    let initial = monitor.maintained_report();
    println!(
        "Initial detection over {size} tuples took {:?}: SV = {}, MV = {} ({} violating groups)",
        start.elapsed(),
        initial.num_sv(),
        initial.num_mv(),
        monitor.violating_groups()
    );

    let batch = BatchDetector::new(&schema, &constraints).expect("constraints encode");
    let mut mirror = data; // the copy the from-scratch comparison runs on

    for round in 1..=3u32 {
        let delta_size = size / 20 * round as usize;
        let delta = generate_delta(
            &mirror,
            &UpdateConfig {
                insertions: delta_size,
                deletions: delta_size,
                noise_percent: 5.0,
                seed: 100 + round as u64,
                ..UpdateConfig::default()
            },
        );
        println!(
            "\nRound {round}: applying ΔD⁺ = {} insertions, ΔD⁻ = {} deletions",
            delta.insertions.len(),
            delta.deletions.len()
        );

        let start = Instant::now();
        let stats = monitor
            .apply(&mut catalog, &delta)
            .expect("incremental apply");
        let inc_time = start.elapsed();
        let report = monitor.maintained_report();
        println!(
            "  INCDETECT:   {inc_time:?} (groups changed: {}, rows re-flagged: {}) → SV = {}, MV = {}",
            stats.groups_changed,
            stats.rows_reflagged,
            report.num_sv(),
            report.num_mv()
        );

        // From-scratch comparison on the same updated data.
        delta
            .apply(&mut mirror)
            .expect("delta applies to the mirror");
        let mut scratch = Catalog::new();
        scratch.create(mirror.clone()).expect("fresh catalog");
        let start = Instant::now();
        let scratch_report = batch.detect(&mut scratch).expect("BATCHDETECT runs");
        println!(
            "  BATCHDETECT: {:?} (recompute from scratch) → SV = {}, MV = {}",
            start.elapsed(),
            scratch_report.num_sv(),
            scratch_report.num_mv()
        );
        assert_eq!(
            report.num_sv(),
            scratch_report.num_sv(),
            "detectors must agree"
        );
        assert_eq!(
            report.num_mv(),
            scratch_report.num_mv(),
            "detectors must agree"
        );
    }
    println!("\nIncremental and from-scratch detection agreed after every round.");

    // ── The same monitoring loop, session-managed ──────────────────────────
    // The session compiles the constraints once and routes each ΔD by size:
    // small batches hit the incremental maintainer, large ones trigger a
    // fresh batch pass.
    println!("\nReplaying through Session with the default auto-routing policy:");
    let (data, _) = generate(&CustConfig {
        size,
        noise_percent: 5.0,
        ..CustConfig::default()
    });
    let mut session = Session::new();
    session.load(data.clone()).expect("load succeeds");
    session.register(&constraints).expect("constraints compile");
    session.detect().expect("initial detection runs");
    let mut mirror = data;
    for (round, fraction) in [(1u64, 40usize), (2, 2)] {
        let delta_size = size / fraction;
        let delta = generate_delta(
            &mirror,
            &UpdateConfig {
                insertions: delta_size,
                deletions: delta_size,
                noise_percent: 5.0,
                seed: 200 + round,
                ..UpdateConfig::default()
            },
        );
        let report = session.apply(&delta).expect("session apply runs");
        delta.apply(&mut mirror).expect("mirror stays in sync");
        println!(
            "  round {round}: |ΔD| = {} → routed to the {} backend (SV = {}, MV = {})",
            delta.len(),
            session.last_backend().expect("just applied"),
            report.num_sv(),
            report.num_mv()
        );
    }
}
