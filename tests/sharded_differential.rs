//! Differential safety net of the sharded serving layer (PR 10).
//!
//! The signature invariant: a sharded deployment's **merged** report and
//! evidence must be byte-identical to what one unsharded session fed the
//! same delta stream publishes — at every tested shard count, with both
//! serial and parallel merge-layer scans, for shard-aligned, cross-shard and
//! mixed constraint sets (all-aligned sets take the merge layer's
//! no-open-groups branch: the union of the published reports, no scan).
//!
//! The suite drives the per-shard writers synchronously (every submitted
//! delta is applied and published before the comparison), so the merged
//! view is compared at quiescent cuts where the unsharded oracle is exact.

use ecfd::core::ECfd;
use ecfd::datagen::constraints::workload_constraints;
use ecfd::datagen::{generate, generate_delta, CustConfig, UpdateConfig};
use ecfd::relation::{Delta, Relation, Tuple};
use ecfd::serve::{ShardedConfig, ShardedHub};
use ecfd::session::Session;
use proptest::prelude::*;
use std::time::Duration;

const TABLE: &str = "cust";

/// Shard keys exercising both halves of the merge layer: `CT` appears in
/// several constraints' LHS (those are shard-aligned and resolve locally),
/// while `PN` appears in none (every multi-tuple group crosses shards and
/// goes through the open-group merge).
const SHARD_KEYS: [&str; 2] = ["CT", "PN"];

fn workload_session(base: &Relation, constraints: &[ECfd]) -> Session {
    let mut session = Session::new();
    session.load(base.clone()).expect("base loads");
    session
        .register(constraints)
        .expect("workload constraints register");
    session
}

/// The workload constraints whose `X` contains `CT`: sharded by `CT`, none
/// of them has open groups at any shard count.
fn ct_aligned_constraints() -> Vec<ECfd> {
    let aligned: Vec<ECfd> = workload_constraints()
        .into_iter()
        .filter(|c| c.lhs().iter().any(|attr| attr == "CT"))
        .collect();
    assert!(aligned.len() >= 2, "the workload has CT-keyed constraints");
    aligned
}

/// Applies `rounds` generated deltas to a sharded deployment and an
/// unsharded oracle in lockstep, asserting byte-identical merged output
/// after every round.
fn assert_sharded_matches_oracle(
    base: &Relation,
    constraints: &[ECfd],
    deltas: &[Delta],
    shards: usize,
    shard_key: &str,
    workers: Option<usize>,
) {
    let mut config = ShardedConfig::new(shards, shard_key);
    config.detect_workers = workers;
    let (mut writers, hub) = ShardedHub::bootstrap(workload_session(base, constraints), &config)
        .expect("sharded bootstrap");
    let mut oracle = workload_session(base, constraints);

    for (round, delta) in deltas.iter().enumerate() {
        hub.submit(delta.clone()).expect("submit");
        oracle.apply_on(TABLE, delta).expect("oracle apply");
        // Drive every shard writer to quiescence before comparing.
        for (s, writer) in writers.iter_mut().enumerate() {
            let shard_hub = &hub.shard_hubs()[s];
            while shard_hub.queue().pending() > 0 {
                writer
                    .step(shard_hub, Duration::from_millis(50))
                    .expect("writer step");
            }
        }

        let merged = hub.merged().expect("merge");
        let expected = oracle.detect_on(TABLE).expect("oracle detect");
        assert_eq!(
            merged.report, expected,
            "round {round}: merged report differs from the unsharded oracle \
             ({shards} shard(s) by {shard_key}, workers {workers:?})"
        );
        let oracle_snap = oracle.snapshot().expect("oracle snapshot");
        assert_eq!(
            merged.evidence,
            *oracle_snap.evidence(),
            "round {round}: merged evidence differs from the unsharded oracle \
             ({shards} shard(s) by {shard_key}, workers {workers:?})"
        );

        // DETECT FRESH (cache bypass) re-derives the same bytes.
        let fresh = hub.merged_fresh().expect("fresh merge");
        assert_eq!(fresh.report, expected, "round {round}: fresh merge differs");

        // The composed single-session snapshot — the CHECK / REPAIR-PLAN
        // oracle path — agrees as well.
        let composed = hub.compose().expect("compose");
        assert_eq!(
            *composed.report(),
            expected,
            "round {round}: composed snapshot differs"
        );
    }
}

/// Deterministic delta streams from the datagen update generator: mixed
/// insert/delete rounds against an evolving mirror of the instance.
fn datagen_rounds(base: &Relation, rounds: usize, seed: u64) -> Vec<Delta> {
    let mut mirror = base.clone();
    let mut deltas = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let delta = generate_delta(
            &mirror,
            &UpdateConfig {
                insertions: 8,
                deletions: 5,
                noise_percent: 25.0,
                seed: seed.wrapping_add(round as u64),
                extra_cities: 4,
                num_items: 6,
            },
        );
        delta.apply(&mut mirror).expect("mirror apply");
        deltas.push(delta.clone());
    }
    deltas
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline matrix: datagen workloads at 1/2/4 shards × 1/4 detect
    /// workers × aligned ("CT") and cross-shard ("PN") shard keys.
    #[test]
    fn sharded_merge_is_byte_identical_to_unsharded_oracle(seed in 0u64..1_000) {
        let (base, _) = generate(&CustConfig {
            size: 30,
            noise_percent: 20.0,
            seed,
            extra_cities: 4,
            num_items: 6,
        });
        let deltas = datagen_rounds(&base, 3, seed.wrapping_mul(31).wrapping_add(7));
        let workload = workload_constraints();
        for shard_key in SHARD_KEYS {
            for shards in [1usize, 2, 4] {
                for workers in [Some(1), Some(4)] {
                    assert_sharded_matches_oracle(
                        &base, &workload, &deltas, shards, shard_key, workers,
                    );
                }
            }
        }
        // No open groups at N > 1 (the 1-shard rows above cover N = 1).
        let aligned = ct_aligned_constraints();
        for shards in [2usize, 4] {
            assert_sharded_matches_oracle(&base, &aligned, &deltas, shards, "CT", Some(1));
        }
    }
}

/// Duplicate tuples across deltas: deletions remove *all* equal rows in the
/// oracle, and all of them live on the routed shard — the two must agree.
#[test]
fn duplicate_rows_delete_identically_across_shards() {
    let (base, _) = generate(&CustConfig {
        size: 12,
        noise_percent: 0.0,
        seed: 5,
        extra_cities: 2,
        num_items: 4,
    });
    let dup: Tuple = base.tuples().next().expect("non-empty base").clone();
    let deltas = vec![
        Delta::insert_only(vec![dup.clone(), dup.clone(), dup.clone()]),
        Delta {
            insertions: vec![],
            deletions: vec![dup],
        },
    ];
    for shards in [2usize, 4] {
        assert_sharded_matches_oracle(
            &base,
            &workload_constraints(),
            &deltas,
            shards,
            "CT",
            Some(1),
        );
    }
}

/// An empty base instance: the first delta creates every row, ids start at 0
/// on both sides.
#[test]
fn sharding_an_empty_base_matches_oracle() {
    let (seed_rows, _) = generate(&CustConfig {
        size: 10,
        noise_percent: 30.0,
        seed: 11,
        extra_cities: 2,
        num_items: 4,
    });
    let empty = Relation::new(seed_rows.schema().clone());
    let first = Delta::insert_only(seed_rows.tuples().cloned().collect());
    let mut deltas = vec![first];
    deltas.extend(datagen_rounds(&seed_rows, 2, 99));
    for shards in [1usize, 2, 4] {
        assert_sharded_matches_oracle(
            &empty,
            &workload_constraints(),
            &deltas,
            shards,
            "AC",
            Some(2),
        );
    }
}
