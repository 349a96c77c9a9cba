//! Criterion microbenchmarks for the repair subsystem: greedy vs. exact
//! (MAXGSAT-backed) deletion planning and value-modification planning over
//! `datagen` workloads, plus the full verified repair loop.
//!
//! Sizes are kept small because Criterion repeats every measurement many
//! times; the shapes — greedy scaling with conflict count, exact being
//! exponential-but-fine on ≤ 12-node instances — are what matters.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecfd_bench::PreparedWorkload;
use ecfd_core::ECfdBuilder;
use ecfd_relation::{Catalog, DataType, Relation, Schema, Tuple};
use ecfd_repair::{
    repair_verified, DeletionSolver, EditDistanceCost, RepairEngine, RepairMode, RepairOptions,
};
use std::time::Duration;

fn configure(group: &mut criterion::BenchmarkGroup<'_>) {
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
}

/// Deletion-only planning (greedy cover) on generated workloads of growing
/// size: explain + plan, no apply.
fn bench_greedy_deletion_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("repair_greedy_deletion");
    configure(&mut group);
    for size in [100usize, 200, 400] {
        let workload = PreparedWorkload::new(size, 5.0, 42);
        let engine = RepairEngine::new(&workload.schema, &workload.constraints)
            .unwrap()
            .with_options(RepairOptions {
                mode: RepairMode::DeleteOnly,
                solver: DeletionSolver::Greedy,
            });
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                let evidence = engine.explain(&workload.data).unwrap();
                engine.plan(&workload.data, &evidence).unwrap()
            });
        });
    }
    group.finish();
}

/// A small FD-conflict instance with `rows` conflicting tuples (one group,
/// all-distinct area codes) — the regime where the exact MAXGSAT oracle is
/// applicable.
fn small_conflict_instance(rows: usize) -> (Schema, Relation, Vec<ecfd_core::ECfd>) {
    let schema = Schema::builder("cust")
        .attr("CT", DataType::Str)
        .attr("AC", DataType::Str)
        .build();
    let data = Relation::with_tuples(
        schema.clone(),
        (0..rows).map(|i| Tuple::from_iter(["Albany", &format!("5{i:02}")])),
    )
    .unwrap();
    let fd = ECfdBuilder::new("cust")
        .lhs(["CT"])
        .fd_rhs(["AC"])
        .pattern(|p| p)
        .build()
        .unwrap();
    (schema, data, vec![fd])
}

/// Greedy vs. exact deletion planning on conflict graphs small enough for the
/// exhaustive MAXGSAT oracle (≤ 12 nodes).
fn bench_exact_vs_greedy_small(c: &mut Criterion) {
    let mut group = c.benchmark_group("repair_exact_vs_greedy_small");
    configure(&mut group);
    for rows in [6usize, 9, 12] {
        let (schema, data, constraints) = small_conflict_instance(rows);
        for (label, solver) in [
            ("greedy", DeletionSolver::Greedy),
            ("exact", DeletionSolver::Exact { max_nodes: 12 }),
        ] {
            let engine = RepairEngine::new(&schema, &constraints)
                .unwrap()
                .with_options(RepairOptions {
                    mode: RepairMode::DeleteOnly,
                    solver,
                });
            group.bench_with_input(BenchmarkId::new(label, rows), &rows, |b, _| {
                b.iter(|| {
                    let evidence = engine.explain(&data).unwrap();
                    engine.plan(&data, &evidence).unwrap()
                });
            });
        }
    }
    group.finish();
}

/// Value-modification planning (modify-then-delete under the edit-distance
/// cost model) on generated workloads.
fn bench_value_modification_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("repair_value_modification");
    configure(&mut group);
    for size in [100usize, 200, 400] {
        let workload = PreparedWorkload::new(size, 5.0, 42);
        let engine = RepairEngine::new(&workload.schema, &workload.constraints)
            .unwrap()
            .with_cost_model(EditDistanceCost::default())
            .with_options(RepairOptions {
                mode: RepairMode::ModifyThenDelete,
                solver: DeletionSolver::Greedy,
            });
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                let evidence = engine.explain(&workload.data).unwrap();
                engine.plan(&workload.data, &evidence).unwrap()
            });
        });
    }
    group.finish();
}

/// The full verified loop: plan, apply through the incremental detector,
/// re-verify clean.
fn bench_verified_repair(c: &mut Criterion) {
    let mut group = c.benchmark_group("repair_verified_loop");
    configure(&mut group);
    for size in [100usize, 200] {
        let workload = PreparedWorkload::new(size, 5.0, 42);
        let engine = RepairEngine::new(&workload.schema, &workload.constraints)
            .unwrap()
            .with_options(RepairOptions {
                solver: DeletionSolver::Greedy,
                ..RepairOptions::default()
            });
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                let mut catalog = Catalog::new();
                catalog.create(workload.data.clone()).unwrap();
                repair_verified(&engine, &mut catalog).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_greedy_deletion_plan,
    bench_exact_vs_greedy_small,
    bench_value_modification_plan,
    bench_verified_repair
);
criterion_main!(benches);
