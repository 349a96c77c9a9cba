//! Per-layer metrics (layer = crate), measured in the traced run.
//!
//! Layers are timed **from outside**: the benchmark calls each layer's
//! public functions on side objects built from the same inputs, takes the
//! best of N (uncalibrated: these numbers decompose, they do not gate), and
//! reads exact counts from the process-wide `ecfd_obs` registry — the
//! operator's own numbers. The `serve.*` span metrics come from the
//! benchmark's spans around the served stack during the traced rounds. Spans
//! inside the program are a later change.

use crate::alloc::AllocCounters;
use crate::metrics::Values;
use crate::rounds::{Bench, Samples};
use crate::served::WalDirs;
use crate::stats::{
    best, best_per_position_mean, median, millis, noise_pct, paired_excess_pct, tail,
};
use crate::trace::{self_times_ns, Span};
use crate::verify::Restart;
use crate::workload::Serving;
use crate::Fallible;
use ecfd_core::ConstraintSet;
use ecfd_detect::{DetectorBackend, IncrementalDetector, Parallelism, SemanticDetector};
use ecfd_obs::{Counter, Histogram, HistogramSnapshot};
use ecfd_plan::PlanBackend;
use ecfd_relation::{Catalog, Delta};
use ecfd_serve::protocol::{delta_to_ops, Request, Response};
use ecfd_session::Session;
use ecfd_wal::{Wal, WalRecord};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Side cycles per per-position measurement; the first is warm-up.
const SIDE_CYCLES: usize = 6;

/// Best of `n` runs of a closure that times its own critical section (so
/// per-run preparation stays outside), in ms.
fn best_of(n: usize, mut run: impl FnMut() -> Fallible<Duration>) -> Fallible<f64> {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        samples.push(millis(run()?));
    }
    Ok(best(&samples))
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// Runs the interactive cycle [`SIDE_CYCLES`] times through `run`, which
/// returns `K` samples for the delta it was given; the first cycle is
/// warm-up. Returns, per sample series, one vector per cycle position.
fn cycle_samples<const K: usize>(
    cycle: &[Delta],
    mut run: impl FnMut(&Delta) -> Fallible<[f64; K]>,
) -> Fallible<[Vec<Vec<f64>>; K]> {
    let mut series: [Vec<Vec<f64>>; K] = std::array::from_fn(|_| vec![Vec::new(); cycle.len()]);
    for round in 0..SIDE_CYCLES {
        for (pos, delta) in cycle.iter().enumerate() {
            let samples = run(delta)?;
            if round > 0 {
                for (k, sample) in samples.into_iter().enumerate() {
                    series[k][pos].push(sample);
                }
            }
        }
    }
    Ok(series)
}

/// The writer's and the WAL sink's own metrics, read around the interactive
/// cycles of the traced rounds (`HistogramSnapshot::since`), summed over
/// shards.
pub struct WriterScope {
    shards: Vec<ShardMetrics>,
    marks: Vec<ShardMarks>,
    pub apply_ns: u64,
    pub publish_ns: u64,
    pub epochs: u64,
    pub wal_bytes: u64,
    pub wal_fsyncs: u64,
}

struct ShardMetrics {
    apply: Histogram,
    publish: Histogram,
    epochs: Counter,
    wal_bytes: Counter,
    wal_fsyncs: Counter,
}

struct ShardMarks {
    apply: HistogramSnapshot,
    publish: HistogramSnapshot,
    epochs: u64,
    wal_bytes: u64,
    wal_fsyncs: u64,
}

impl ShardMetrics {
    fn mark(&self) -> ShardMarks {
        ShardMarks {
            apply: self.apply.snapshot(),
            publish: self.publish.snapshot(),
            epochs: self.epochs.get(),
            wal_bytes: self.wal_bytes.get(),
            wal_fsyncs: self.wal_fsyncs.get(),
        }
    }
}

impl WriterScope {
    /// Handles to the series the served stack reports into: unlabelled when
    /// unsharded, one `{shard=N}` set per shard otherwise.
    pub fn of(serving: Serving) -> Self {
        let registry = ecfd_obs::registry();
        let shards = match serving {
            Serving::Single => vec![ShardMetrics {
                apply: registry.histogram("writer.apply.ns"),
                publish: registry.histogram("writer.publish.ns"),
                epochs: registry.counter("writer.epochs"),
                wal_bytes: registry.counter("wal.bytes"),
                wal_fsyncs: registry.counter("wal.fsync.count"),
            }],
            Serving::DurableSharded(n) => (0..n)
                .map(|s| {
                    let shard = s.to_string();
                    let labels: &[(&str, &str)] = &[("shard", &shard)];
                    ShardMetrics {
                        apply: registry.histogram_with("writer.apply.ns", labels),
                        publish: registry.histogram_with("writer.publish.ns", labels),
                        epochs: registry.counter_with("writer.epochs", labels),
                        wal_bytes: registry.counter_with("wal.bytes", labels),
                        wal_fsyncs: registry.counter_with("wal.fsync.count", labels),
                    }
                })
                .collect(),
        };
        WriterScope {
            shards,
            marks: Vec::new(),
            apply_ns: 0,
            publish_ns: 0,
            epochs: 0,
            wal_bytes: 0,
            wal_fsyncs: 0,
        }
    }

    pub fn begin(&mut self) {
        self.marks = self.shards.iter().map(ShardMetrics::mark).collect();
    }

    pub fn end(&mut self) {
        for (shard, then) in self.shards.iter().zip(&self.marks) {
            let now = shard.mark();
            self.apply_ns += now.apply.since(&then.apply).sum();
            self.publish_ns += now.publish.since(&then.publish).sum();
            self.epochs += now.epochs - then.epochs;
            self.wal_bytes += now.wal_bytes - then.wal_bytes;
            self.wal_fsyncs += now.wal_fsyncs - then.wal_fsyncs;
        }
    }
}

/// Durations (ms) of the spans called `name`, one vector per cycle position.
fn by_position(spans: &[Span], name: &str) -> Vec<Vec<f64>> {
    let mut positions = vec![Vec::new(); 4];
    for span in spans.iter().filter(|s| s.name == name) {
        if let Some(pos) = span.pos {
            positions[pos as usize].push(span.duration_ns() as f64 / 1e6);
        }
    }
    positions
}

/// Everything the traced run measured besides the side calls.
pub struct TracedRun<'a> {
    pub untraced: &'a Samples,
    pub traced: &'a Samples,
    pub spans: &'a [Span],
    pub scope: &'a WriterScope,
    pub restart: Option<Restart>,
}

/// The `serve.*` metrics that come from the traced rounds, `e2e.*`, and
/// `bench.*`.
pub fn from_traced_rounds(run: &TracedRun<'_>, served_shards: usize, out: &mut Values) {
    let own = self_times_ns(run.spans);
    // Totals over the interactive deltas' spans (those with a position).
    let total = |name: &str, own_time: bool| -> f64 {
        run.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && s.pos.is_some())
            .map(|(i, s)| if own_time { own[i] } else { s.duration_ns() } as f64)
            .sum()
    };
    let rounds = run.traced.rounds();
    let deltas = run.traced.interactive_deltas as usize;
    let submit = best_per_position_mean(&by_position(run.spans, "serve.submit"));
    let step = best_per_position_mean(&by_position(run.spans, "serve.step"));
    let read = best_per_position_mean(&by_position(run.spans, "serve.read"));
    out.set("serve.submit_us", submit * 1e3, rounds);
    out.set("serve.step_ms", step, rounds);
    out.set("serve.read_us", read * 1e3, rounds);
    // A gap between the parts and the whole is time the benchmark's own span
    // bookkeeping took; a gap between the step and the writer's own apply +
    // publish histograms is a layer nobody instruments.
    let parts = total("serve.submit", true) + total("serve.step", true) + total("serve.read", true);
    let whole = total("apply_visible", false);
    out.set("serve.parts_sum_pct", parts / whole * 100.0, deltas);
    let per_delta = |sum: u64| sum as f64 / deltas as f64;
    out.set(
        "serve.writer_apply_ms",
        per_delta(run.scope.apply_ns) / 1e6,
        deltas,
    );
    out.set(
        "serve.writer_publish_ms",
        per_delta(run.scope.publish_ns) / 1e6,
        deltas,
    );
    let stepped = total("serve.step", false);
    let instrumented = (run.scope.apply_ns + run.scope.publish_ns) as f64;
    out.set(
        "serve.step_gap_pct",
        (stepped - instrumented) / stepped * 100.0,
        deltas,
    );
    // Unsharded reads are always a pointer clone; sharded, the first
    // `merged()` after an epoch change re-scans every shard.
    out.set(
        "serve.merged_miss_ms",
        if served_shards > 1 { read } else { 0.0 },
        rounds,
    );
    out.set(
        "serve.epochs_per_delta",
        per_delta(run.scope.epochs),
        deltas,
    );
    out.set(
        "wal.bytes_per_delta",
        per_delta(run.scope.wal_bytes),
        deltas,
    );
    out.set(
        "wal.fsyncs_per_delta",
        per_delta(run.scope.wal_fsyncs),
        deltas,
    );
    let (recover_ms_per_delta, replayed) = run.restart.as_ref().map_or((0.0, 0), |r| {
        (r.recover_ms / r.sub_deltas as f64, r.sub_deltas as usize)
    });
    out.set("serve.recover_ms_per_delta", recover_ms_per_delta, replayed);

    let untraced = run.untraced;
    for (op, samples) in [
        ("detect_batch", untraced.detect_batch.clone()),
        ("detect_fresh", untraced.detect_fresh.clone()),
        ("apply_visible", untraced.all_apply_visible()),
        ("bulk_batch", untraced.bulk.clone()),
    ] {
        let n = samples.len();
        let (q, value) = tail(&samples);
        out.set(&format!("e2e.{op}.min_ms"), best(&samples), n);
        out.set(&format!("e2e.{op}.p50_ms"), median(&samples), n);
        out.set(&format!("e2e.{op}.tail_ms"), value, n);
        out.set(&format!("e2e.{op}.tail_q"), q, n);
        out.set(&format!("e2e.{op}.n"), n as f64, n);
    }
    // Demoted from the end-to-end metrics: even calibrated, it spread by up
    // to 18 % from run to run (README.md, "Bounds").
    out.set(
        "e2e.ingest_tuples_per_s",
        untraced.ingest_tuples_per_s(),
        untraced.rounds(),
    );
    let mut canary = untraced.canary.clone();
    canary.extend(&run.traced.canary);
    out.set("bench.canary_ms", best(&canary), canary.len());
    out.set("bench.host_noise_pct", noise_pct(&canary), canary.len());
    out.set(
        "bench.trace_overhead_pct",
        paired_excess_pct(&untraced.apply_visible, &run.traced.apply_visible),
        rounds,
    );
}

/// Times each layer's public entry points on side objects. `side` is a warm
/// unsharded session at rest (the retired lockstep oracle).
pub fn side_calls(
    bench: &mut Bench<'_>,
    mut side: Session,
    wal_dirs: &mut WalDirs,
    out: &mut Values,
) -> Fallible<()> {
    // Runs behind each best-of-N below.
    const COMPILES: usize = 10;
    const PASSES: usize = 5;
    const BUILDS: usize = 3;
    const CACHED: usize = 20;
    const WAL_RECORDS: usize = 48;
    const PARSES: usize = 50;
    const PER_POSITION: usize = SIDE_CYCLES - 1;

    let inputs = bench.inputs;
    let data = &inputs.data;
    let schema = data.schema().clone();
    let cycle = inputs.cycle.interactive();

    // ── core ──────────────────────────────────────────────────────────────
    out.set(
        "core.compile_ms",
        best_of(COMPILES, || {
            let (set, elapsed) = timed(|| ConstraintSet::compile(&schema, &inputs.constraints));
            black_box(set?);
            Ok(elapsed)
        })?,
        COMPILES,
    );
    let set = ConstraintSet::compile(&schema, &inputs.constraints)?;
    out.set("core.singles", set.singles().len() as f64, 1);

    // ── relation ──────────────────────────────────────────────────────────
    let detector = SemanticDetector::from_set(&set).with_parallelism(Parallelism::Fixed(1));
    // The audit session re-encodes through a dictionary that already knows
    // every string; the first freeze here fills this one the same way.
    let frozen = detector.freeze(data, schema.arity());
    out.set(
        "relation.encode_ms",
        best_of(PASSES, || {
            let (view, elapsed) = timed(|| detector.freeze(data, schema.arity()));
            black_box(view);
            Ok(elapsed)
        })?,
        PASSES,
    );
    let mut relation = data.clone();
    let [applies] = cycle_samples(&cycle, |delta| {
        let (applied, elapsed) = timed(|| delta.apply(&mut relation));
        applied?;
        Ok([millis(elapsed)])
    })?;
    out.set(
        "relation.delta_apply_us",
        best_per_position_mean(&applies) * 1e3,
        PER_POSITION,
    );
    drop(relation);

    // ── detect ────────────────────────────────────────────────────────────
    let registry = ecfd_obs::registry();
    let rows_scanned = registry.counter("detect.rows.scanned");
    let groups_merged = registry.counter("detect.groups.merged");
    let (rows_before, groups_before) = (rows_scanned.get(), groups_merged.get());
    black_box(detector.detect_frozen(&frozen, &schema)?);
    out.set(
        "detect.rows_scanned_per_pass",
        (rows_scanned.get() - rows_before) as f64,
        1,
    );
    out.set(
        "detect.groups_merged_per_pass",
        (groups_merged.get() - groups_before) as f64,
        1,
    );
    let scan = |detector: &SemanticDetector| {
        best_of(PASSES, || {
            let (report, elapsed) = timed(|| detector.detect_frozen(&frozen, &schema));
            black_box(report?);
            Ok(elapsed)
        })
    };
    out.set("detect.scan_ms", scan(&detector)?, PASSES);
    // Diagnostic only: gating runs use one worker.
    let two = detector.clone().with_parallelism(Parallelism::Fixed(2));
    out.set("detect.scan_2t_ms", scan(&two)?, PASSES);
    drop(frozen);

    let mut incremental = None;
    out.set(
        "detect.incremental_init_ms",
        best_of(BUILDS, || {
            let mut catalog = Catalog::new();
            catalog.create(data.clone())?;
            let (state, elapsed) = timed(|| IncrementalDetector::from_set(&set, &mut catalog));
            incremental = Some((state?, catalog));
            Ok(elapsed)
        })?,
        BUILDS,
    );
    let (mut maintained, mut catalog) = incremental.expect("initialised above");
    let [applies] = cycle_samples(&cycle, |delta| {
        let (stats, elapsed) = timed(|| maintained.apply(&mut catalog, delta));
        black_box(stats?);
        Ok([millis(elapsed)])
    })?;
    out.set(
        "detect.incremental_apply_ms",
        best_per_position_mean(&applies),
        PER_POSITION,
    );
    drop((maintained, catalog));

    // Partition scan + merge over the served per-shard snapshots (one
    // snapshot when unsharded): the cross-shard read path, piece by piece.
    let snapshots = bench.served.snapshots();
    let aligned = snapshots[0].aligned_mask("CT")?;
    let partials = || -> Fallible<Vec<_>> {
        let mut parts = Vec::with_capacity(snapshots.len());
        for snapshot in &snapshots {
            parts.push(snapshot.detect_partition_with(&aligned, 1)?);
        }
        Ok(parts)
    };
    out.set(
        "detect.partition_ms",
        best_of(PASSES, || {
            let (parts, elapsed) = timed(partials);
            black_box(parts?);
            Ok(elapsed)
        })?,
        PASSES,
    );
    out.set(
        "detect.merge_partials_ms",
        best_of(PASSES, || {
            let parts = partials()?;
            let (merged, elapsed) = timed(|| snapshots[0].merge_partials(parts));
            black_box(merged);
            Ok(elapsed)
        })?,
        PASSES,
    );
    drop(snapshots);

    // ── plan ──────────────────────────────────────────────────────────────
    // No gating metric moves with these today (default routing is
    // Semantic); they are the before-numbers for the change that makes the
    // plan executor the detector.
    for (metric, scans, mut backend) in [
        (
            "plan.fused_ms",
            "plan.scans_fused",
            PlanBackend::from_set(&set)?,
        ),
        (
            "plan.unfused_ms",
            "plan.scans_unfused",
            PlanBackend::from_set_unfused(&set)?,
        ),
    ] {
        backend.set_parallelism(Parallelism::Fixed(1));
        let mut catalog = Catalog::new();
        catalog.create(data.clone())?;
        backend.detect(&mut catalog)?;
        out.set(
            metric,
            best_of(BUILDS, || {
                let (report, elapsed) = timed(|| backend.detect(&mut catalog));
                black_box(report?);
                Ok(elapsed)
            })?,
            BUILDS,
        );
        out.set(scans, backend.plan().num_scans() as f64, 1);
    }

    // ── session ───────────────────────────────────────────────────────────
    // `apply_on`, then `snapshot_of` right after it: the two halves of a
    // writer cycle, with the bytes each requests.
    let [apply_ms, snapshot_ms, apply_bytes, snapshot_bytes] = cycle_samples(&cycle, |delta| {
        let before = AllocCounters::now();
        let (report, apply_elapsed) = timed(|| side.apply_on("cust", delta));
        black_box(report?);
        let between = AllocCounters::now();
        let (snapshot, snapshot_elapsed) = timed(|| side.snapshot_of("cust"));
        let after = AllocCounters::now();
        black_box(snapshot?);
        Ok([
            millis(apply_elapsed),
            millis(snapshot_elapsed),
            between.since(before).bytes as f64,
            after.since(between).bytes as f64,
        ])
    })?;
    out.set(
        "session.apply_ms",
        best_per_position_mean(&apply_ms),
        PER_POSITION,
    );
    out.set(
        "session.snapshot_ms",
        best_per_position_mean(&snapshot_ms),
        PER_POSITION,
    );
    // Exact, so best-of-N is the value; the mean over positions remains.
    out.set(
        "session.apply_alloc_kb",
        best_per_position_mean(&apply_bytes) / 1024.0,
        PER_POSITION,
    );
    out.set(
        "session.snapshot_alloc_kb",
        best_per_position_mean(&snapshot_bytes) / 1024.0,
        PER_POSITION,
    );
    out.set(
        "session.detect_cached_us",
        best_of(CACHED, || {
            let (report, elapsed) = timed(|| side.detect());
            black_box(report?);
            Ok(elapsed)
        })? * 1e3,
        CACHED,
    );
    drop(side);

    // ── serve ─────────────────────────────────────────────────────────────
    const READS: usize = 1000;
    out.set(
        "serve.read_cached_ns",
        best_of(PASSES, || {
            let ((), elapsed) = timed(|| {
                for _ in 0..READS {
                    black_box(bench.served.read().map(|p| p.epoch()).ok());
                }
            });
            Ok(elapsed)
        })? * 1e6
            / READS as f64,
        PASSES * READS,
    );
    out.set("serve.write_errors", bench.served.write_errors() as f64, 1);

    // ── wal ───────────────────────────────────────────────────────────────
    // The sandbox's disk, not a device: flushes may be cheap here.
    let wal_dir = wal_dirs.next();
    let mut wal = Wal::open(&wal_dir)?.wal;
    let (mut appends, mut syncs) = (Vec::new(), Vec::new());
    for ticket in 1..=WAL_RECORDS {
        let record = WalRecord::Delta {
            ticket: ticket as u64,
            delta: cycle[ticket % cycle.len()].clone(),
        };
        let (written, elapsed) = timed(|| wal.append(&record));
        black_box(written?);
        appends.push(millis(elapsed));
        let (synced, elapsed) = timed(|| wal.sync());
        synced?;
        syncs.push(millis(elapsed));
    }
    drop(wal);
    out.set("wal.append_us", best(&appends) * 1e3, WAL_RECORDS);
    out.set("wal.fsync_us", best(&syncs) * 1e3, WAL_RECORDS);
    out.set(
        "wal.open_ms_per_krecord",
        best_of(BUILDS, || {
            let (opened, elapsed) = timed(|| Wal::open(&wal_dir));
            black_box(opened?.records.len());
            Ok(elapsed)
        })? * 1000.0
            / WAL_RECORDS as f64,
        BUILDS,
    );

    // ── protocol ──────────────────────────────────────────────────────────
    // The wire's share a TCP workload would add; nothing in-process moves
    // with it.
    let line = Request::Apply {
        ops: delta_to_ops(&cycle[0]),
    }
    .render();
    out.set(
        "protocol.parse_apply_us",
        best_of(PARSES, || {
            let (delta, elapsed) = timed(|| match Request::parse(&line)? {
                Request::Apply { ops } => Request::ops_to_delta(&ops, &schema),
                other => Err(format!("parsed {other:?}")),
            });
            black_box(delta?);
            Ok(elapsed)
        })? * 1e3,
        PARSES,
    );
    let reply = {
        let published = bench.served.read()?;
        let report = published.report();
        Response::Report {
            epoch: published.epoch(),
            total: report.total_rows,
            sv: report.sv_rows.iter().map(|r| r.as_u64()).collect(),
            mv: report.mv_rows.iter().map(|r| r.as_u64()).collect(),
        }
    };
    let rendered = reply.render();
    out.set(
        "protocol.render_report_ms",
        best_of(PASSES, || {
            let (text, elapsed) = timed(|| reply.render());
            black_box(text);
            Ok(elapsed)
        })?,
        PASSES,
    );
    out.set(
        "protocol.parse_report_ms",
        best_of(PASSES, || {
            let (parsed, elapsed) = timed(|| Response::parse(&rendered));
            black_box(parsed?);
            Ok(elapsed)
        })?,
        PASSES,
    );

    out.set("datagen.generate_s", inputs.generate_s, 1);
    Ok(())
}
