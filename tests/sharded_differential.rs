//! Differential safety net of the sharded serving layer (PR 10).
//!
//! The signature invariant: a sharded deployment's **merged** report and
//! evidence must be byte-identical to what one unsharded session fed the
//! same delta stream publishes — at every tested shard count, with both
//! serial and parallel merge-layer scans, for shard-aligned, cross-shard and
//! mixed constraint sets (all-aligned sets have no open groups, so nothing
//! is seeded or folded: the merged view is the union of the published
//! reports).
//!
//! The merged view is the maintained merge state's read-out, so every round
//! also diffs it against `merged_fresh()` — the scanning verifier — on report
//! and evidence, and checks that no round re-seeded the state: the warm
//! merge folded every delta's rows. The 600-row bases make the shards'
//! sub-deltas small enough to route to incremental maintenance, and a
//! scripted delta makes an open group violate across shards and stop again.
//!
//! The suite drives the per-shard writers synchronously (every submitted
//! delta is applied and published before the comparison), so the merged
//! view is compared at quiescent cuts where the unsharded oracle is exact.

use ecfd::core::ECfd;
use ecfd::datagen::constraints::workload_constraints;
use ecfd::datagen::{generate, generate_delta, CustConfig, UpdateConfig};
use ecfd::relation::{shard_of_value, Delta, Relation, Tuple};
use ecfd::repair::RepairOptions;
use ecfd::serve::{ShardedConfig, ShardedHub};
use ecfd::session::{Session, Snapshot};
use proptest::prelude::*;
use std::sync::Arc;
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
) -> Arc<ShardedHub> {
    let mut config = ShardedConfig::new(shards, shard_key);
    config.detect_workers = workers;
    let (mut writers, hub) = ShardedHub::bootstrap(workload_session(base, constraints), &config)
        .expect("sharded bootstrap");
    let mut oracle = workload_session(base, constraints);
    // Some constraint keeps open groups iff its `X` lacks the shard key
    // (every workload constraint with such an `X` has groups).
    let open = shards > 1
        && constraints
            .iter()
            .any(|c| !c.lhs().iter().any(|attr| attr == shard_key));
    assert_eq!(
        hub.merge_stats().seeds,
        u64::from(open),
        "bootstrap seeds the merge state once, if there is one"
    );

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

        // REPAIR-PLAN plans from the merged read-out and the cut's
        // snapshots: the unsharded oracle's plan, at every shard count.
        let parts: Vec<&Snapshot> = merged.snapshots.iter().map(Arc::as_ref).collect();
        assert_eq!(
            Snapshot::repair_plan_of(&parts, &merged.evidence, RepairOptions::default())
                .expect("sharded plan"),
            oracle_snap
                .repair_plan(RepairOptions::default())
                .expect("oracle plan"),
            "round {round}: repair plan differs from the unsharded oracle \
             ({shards} shard(s) by {shard_key}, workers {workers:?})"
        );

        // DETECT FRESH (cache bypass, full re-scan) re-derives the same
        // bytes, and the warm merge never fell back to a seed.
        let fresh = hub.merged_fresh().expect("fresh merge");
        assert_eq!(fresh.report, merged.report, "round {round}: fresh report");
        assert_eq!(
            fresh.evidence, merged.evidence,
            "round {round}: fresh evidence"
        );
        assert_eq!(
            hub.merge_stats().seeds,
            u64::from(open),
            "round {round}: a warm merge re-seeded"
        );

        // The composed single-session snapshot — the CHECK oracle path —
        // agrees as well.
        let composed = hub.compose().expect("compose");
        assert_eq!(
            *composed.report(),
            expected,
            "round {round}: composed snapshot differs"
        );
    }
    hub
}

/// A 600-row base: the shards' few-tuple sub-deltas stay under the
/// incremental routing threshold, so the shards maintain rather than
/// re-scan, and the merge folds what incremental maintenance removed.
fn base_600(seed: u64, noise_percent: f64) -> Relation {
    generate(&CustConfig {
        size: 600,
        noise_percent,
        seed,
        extra_cities: 4,
        num_items: 6,
    })
    .0
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

/// Sub-deltas small enough for incremental maintenance on every shard: the
/// merge folds the rows INCDETECT removed and inserted, at 2 and 4 shards,
/// under aligned and cross-shard keys.
#[test]
fn incremental_sub_deltas_fold_like_the_oracle() {
    let base = base_600(17, 5.0);
    let deltas = datagen_rounds(&base, 4, 23);
    for shard_key in SHARD_KEYS {
        for shards in [2usize, 4] {
            assert_sharded_matches_oracle(
                &base,
                &workload_constraints(),
                &deltas,
                shards,
                shard_key,
                Some(1),
            );
        }
    }
}

/// An `AC → CT` group (φ9) made to violate across shards and then clean
/// again: under `CT` routing, one town's city with another town's area code
/// lands on the other town's shard, so only the merged group sees both
/// cities.
#[test]
fn an_open_group_flips_across_shards_and_back() {
    // Clean, so the donor's area-code group is not violating already.
    let base = base_600(29, 0.0);
    let schema = base.schema().clone();
    let [ac, ct] = ["AC", "CT"].map(|name| schema.require_attr(name).unwrap());
    // Area codes several cities share leave φ9 unchecked.
    let shared = |t: &Tuple| {
        ["518", "315", "607"].contains(&t.value(ac).as_str().unwrap())
            || ["NYC", "LI"].contains(&t.value(ct).as_str().unwrap())
    };
    for shards in [2usize, 4] {
        let shard_of = |t: &Tuple| shard_of_value(t.value(ct), shards);
        let (donor, host) = base
            .tuples()
            .filter(|t| !shared(t))
            .find_map(|donor| {
                base.tuples()
                    .find(|host| shard_of(host) != shard_of(donor) && !shared(host))
                    .map(|host| (donor, host))
            })
            .expect("two towns on different shards");
        // The host's row with the donor's area code.
        let mut flip = host.clone();
        flip.set(ac, donor.value(ac).clone()).unwrap();
        let deltas = [
            Delta::insert_only(vec![flip.clone()]),
            Delta::delete_only(vec![flip]),
        ];
        let hub = assert_sharded_matches_oracle(
            &base,
            &workload_constraints(),
            &deltas[..1],
            shards,
            "CT",
            Some(1),
        );
        let flipped = hub.merge_stats().groups_flipped;
        assert!(flipped >= 1, "{shards} shards: no open group flipped");
        let hub = assert_sharded_matches_oracle(
            &base,
            &workload_constraints(),
            &deltas,
            shards,
            "CT",
            Some(1),
        );
        assert_eq!(
            hub.merge_stats().groups_flipped,
            2 * flipped,
            "{shards} shards: every group that started violating stopped"
        );
    }
}
