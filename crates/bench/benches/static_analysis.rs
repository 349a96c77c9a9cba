//! Criterion microbenchmarks for the static analyses of Sections III–IV:
//! exact satisfiability, exact implication (one redundancy check and the
//! minimal cover over the workload's single-pattern constraints), exact
//! MAXSS, and MAXGSAT's exhaustive solver on the reduction's `f(Σ)`, which
//! the test-only `ecfd_oracle` crate builds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecfd_core::normalize::split_patterns;
use ecfd_core::{implication, maxss, parse_ecfd, satisfiability, ECfd};
use ecfd_datagen::constraints::{workload_constraints, workload_with_scaled_constraint};
use ecfd_datagen::cust_schema;
use ecfd_oracle::MaxSsEncoding;
use std::time::Duration;

fn bench_satisfiability(c: &mut Criterion) {
    let mut group = c.benchmark_group("satisfiability");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let schema = cust_schema();
    let constraints = workload_constraints();
    for n in [2usize, 5, 10] {
        group.bench_with_input(BenchmarkId::new("exact", n), &n, |b, _| {
            b.iter(|| satisfiability::is_satisfiable(&schema, &constraints[..n]).unwrap());
        });
    }
    group.finish();
}

fn bench_maxss(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxss");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let schema = cust_schema();
    let constraints = workload_constraints();
    for n in [2usize, 5, 10] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| maxss::max_satisfiable(&schema, &constraints[..n]).unwrap());
        });
    }
    // The |Tp| = 160 tableau (89 variables in f(Σ)), satisfiable, and with a
    // conflicting pair added (|Σ| = 12, 11 kept): the search fails with no
    // constraint broken, then succeeds with one.
    let mut tp160 = workload_with_scaled_constraint(160, 42);
    group.bench_function("tp160", |b| {
        b.iter(|| maxss::max_satisfiable(&schema, &tp160).unwrap());
    });
    tp160.extend(
        ["{518}", "{212}"]
            .map(|ac| parse_ecfd(&format!("cust: [CT] -> [] | [AC], {{ _ || {ac} }}")).unwrap()),
    );
    group.bench_function("tp160_unsat", |b| {
        b.iter(|| maxss::max_satisfiable(&schema, &tp160).unwrap());
    });
    group.finish();
}

fn bench_implication(c: &mut Criterion) {
    let mut group = c.benchmark_group("implication");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let schema = cust_schema();
    let constraints = workload_constraints();
    group.bench_function("workload_redundancy_check", |b| {
        b.iter(|| {
            // Is φ8 implied by the rest? (It is not.)
            let phi = &constraints[7];
            let rest: Vec<_> = constraints
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != 7)
                .map(|(_, e)| e.clone())
                .collect();
            implication::implies(&schema, &rest, phi).unwrap()
        });
    });
    // Redundancy elimination at pattern granularity, the analysis a caller
    // runs before compiling the cover: the workload's 11 single-pattern
    // constraints, and the 49 of its 40-pattern variant.
    for (name, set) in [
        ("minimal_cover_workload", constraints.clone()),
        (
            "minimal_cover_tp40",
            workload_with_scaled_constraint(40, 42),
        ),
    ] {
        let singles: Vec<ECfd> = split_patterns(&set).into_iter().map(|s| s.ecfd).collect();
        group.bench_function(name, |b| {
            b.iter(|| implication::minimal_cover(&schema, &singles).unwrap());
        });
    }
    group.finish();
}

fn bench_maxgsat_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxgsat_solvers");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let schema = cust_schema();
    let constraints = workload_constraints();
    let encoding = MaxSsEncoding::build(&schema, &constraints).unwrap();
    // f(Σ) has one variable per value class: 14 on the workload, within the
    // exhaustive solver's limit.
    group.bench_function("exhaustive", |b| {
        b.iter(|| encoding.instance().solve_exhaustive());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_satisfiability,
    bench_maxss,
    bench_implication,
    bench_maxgsat_solvers
);
criterion_main!(benches);
