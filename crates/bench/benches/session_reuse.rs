//! The compiled-constraint-set win: register-once / detect-many through the
//! session vs today's construct-per-detect pattern.
//!
//! The low-level path re-validates, re-splits and re-encodes the constraint
//! workload every time a detector is constructed; a `Session` compiles the
//! set once at registration and reuses it for every detection pass. Two
//! effects separate `construct_per_detect` from `register_once_detect_many`:
//!
//! * the per-call construction overhead (measured in isolation by
//!   `register_once`) is paid once instead of per detection; and
//! * the compilation pipeline's merge + dedupe steps shrink sloppy
//!   workloads — the scaled 160-pattern tableau carries ~25% duplicate
//!   pattern tuples, and since detection cost grows with `|Tp|`, *every*
//!   session-side pass is proportionally cheaper than a pass over the raw
//!   set.
//!
//! Since the dictionary-encoded columnar refactor the session's default
//! full-pass backend is the native semantic detector (pattern constants
//! pre-resolved to codes at registration, coded group keys, sharded scan),
//! which turned the ~5s per-pass figure of the SQL default at `|Tp|` = 160
//! into low single-digit milliseconds on the reference machine
//! (`detect.scan_ms` on the `tableau_160_6k` workload of `benchmark/` is the
//! recorded figure). `construct_per_detect` still measures the SQL path, so the gap between
//! the two groups now shows the backend swap *and* the compile reuse.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecfd_bench::PreparedWorkload;
use ecfd_core::ConstraintSet;
use ecfd_detect::BatchDetector;
use ecfd_session::Session;
use std::time::Duration;

fn configure(group: &mut criterion::BenchmarkGroup<'_>) {
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
}

/// The one-time cost the session pays at registration: compiling the
/// constraint workload into a `ConstraintSet`.
fn bench_register_once(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_reuse_register_once");
    configure(&mut group);
    for tp in [20usize, 80, 160] {
        let workload = PreparedWorkload::with_tableau_size(200, 5.0, 42, Some(tp));
        group.bench_with_input(BenchmarkId::from_parameter(tp), &tp, |b, _| {
            b.iter(|| ConstraintSet::compile(&workload.schema, &workload.constraints).unwrap());
        });
    }
    group.finish();
}

/// Today's low-level pattern: construct the detector (validate + split +
/// encode) for every detection pass.
fn bench_construct_per_detect(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_reuse_construct_per_detect");
    configure(&mut group);
    for tp in [20usize, 80, 160] {
        let workload = PreparedWorkload::with_tableau_size(200, 5.0, 42, Some(tp));
        let mut catalog = workload.catalog();
        group.bench_with_input(BenchmarkId::from_parameter(tp), &tp, |b, _| {
            b.iter(|| {
                let detector = BatchDetector::new(&workload.schema, &workload.constraints).unwrap();
                detector.detect(&mut catalog).unwrap()
            });
        });
    }
    group.finish();
}

/// The session pattern: constraints compiled once at registration, every
/// detection pass reuses the compiled set (the cache is dropped between
/// iterations so each one runs a real detection, as after a mutation).
fn bench_register_once_detect_many(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_reuse_register_once_detect_many");
    configure(&mut group);
    for tp in [20usize, 80, 160] {
        let workload = PreparedWorkload::with_tableau_size(200, 5.0, 42, Some(tp));
        let mut session = Session::new();
        session.load(workload.data.clone()).unwrap();
        session.register(&workload.constraints).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(tp), &tp, |b, _| {
            b.iter(|| {
                session.invalidate();
                session.detect().unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_register_once,
    bench_construct_per_detect,
    bench_register_once_detect_many
);
criterion_main!(benches);
