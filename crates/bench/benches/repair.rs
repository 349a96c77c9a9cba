//! Criterion microbenchmarks for the repair subsystem: deletion planning
//! (greedy on the generated workloads' large conflict graphs), the greedy
//! vs. the exact (keep-mask enumerating) cover of small conflict graphs, and
//! value-modification planning over `datagen` workloads, plus the full
//! verified repair loop.
//!
//! Sizes are kept small because Criterion repeats every measurement many
//! times; the shapes — greedy scaling with conflict count, exact being
//! exponential-but-fine on ≤ 12-node instances — are what matters.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecfd_bench::PreparedWorkload;
use ecfd_core::ECfdBuilder;
use ecfd_relation::{Catalog, DataType, Relation, Schema, Tuple};
use ecfd_repair::{repair_verified, EditDistanceCost, RepairEngine, RepairMode, RepairOptions};
use std::time::Duration;

fn configure(group: &mut criterion::BenchmarkGroup<'_>) {
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
}

/// Deletion-only planning on generated workloads of growing size (conflict
/// graphs above 12 nodes, so the greedy cover): explain + plan, no apply.
fn bench_greedy_deletion_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("repair_greedy_deletion");
    configure(&mut group);
    for size in [100usize, 200, 400] {
        let workload = PreparedWorkload::new(size, 5.0, 42);
        let engine = RepairEngine::new(&workload.schema, &workload.constraints)
            .unwrap()
            .with_options(RepairOptions {
                mode: RepairMode::DeleteOnly,
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
/// all-distinct area codes) — the regime where the exact cover is
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

/// The greedy vs. the exact cover of conflict graphs small enough for the
/// exact cover (≤ 12 nodes); the planner computes both there.
fn bench_exact_vs_greedy_small(c: &mut Criterion) {
    let mut group = c.benchmark_group("repair_exact_vs_greedy_small");
    configure(&mut group);
    for rows in [6usize, 9, 12] {
        let (schema, data, constraints) = small_conflict_instance(rows);
        let engine = RepairEngine::new(&schema, &constraints).unwrap();
        let evidence = engine.explain(&data).unwrap();
        let graph = engine.conflict_graph(&data, &evidence).unwrap();
        group.bench_with_input(BenchmarkId::new("greedy", rows), &rows, |b, _| {
            b.iter(|| graph.greedy_deletions());
        });
        group.bench_with_input(BenchmarkId::new("exact", rows), &rows, |b, _| {
            b.iter(|| graph.exact_deletions().unwrap());
        });
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
        let engine = RepairEngine::new(&workload.schema, &workload.constraints).unwrap();
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
