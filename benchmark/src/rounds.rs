//! The measured loop: set-up, rounds, and the timed operations inside them.
//!
//! One round = 1 × `detect_batch`, 1 × `detect_fresh`, the interactive cycle
//! (4 deltas, each timed submit → step(s) until applied → read), 1 bulk
//! batch (8 submits back to back → step until drained → read), and — between
//! `detect_fresh` and the cycle — 1 pass of the canary.
//! Interleaving puts every operation's samples across the whole run, so all
//! of them see the same host phases. Verification runs every round, always
//! outside the timed spans.

use crate::alloc::AllocCounters;
use crate::canary::Canary;
use crate::cycle::{CORRUPT_POSITION, TUPLES_PER_SIDE};
use crate::layers::WriterScope;
use crate::served::{IdCounter, Published, Served};
use crate::stats::{calibrated, millis};
use crate::trace::Tracer;
use crate::verify::{counts, Fingerprint, Tally};
use crate::workload::Inputs;
use crate::Fallible;
use ecfd_detect::DetectionReport;
use ecfd_relation::{Delta, RowId};
use ecfd_session::{BackendKind, Session};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Rounds run before anything is recorded: the first cycle moves the touched
/// rows to the table's tail and interns the new strings; from the second
/// round on every round does identical work.
pub const WARMUP_ROUNDS: u32 = 2;
/// Every n-th measured round the served rows are re-detected from scratch by
/// a fresh single detector (`compose`) and compared byte for byte.
const COMPOSE_EVERY: u32 = 10;

/// Timings (ms) and exact counts of the measured rounds.
#[derive(Default)]
pub struct Samples {
    pub detect_batch: Vec<f64>,
    pub detect_fresh: Vec<f64>,
    /// One vector per position of the interactive cycle.
    pub apply_visible: [Vec<f64>; 4],
    pub bulk: Vec<f64>,
    /// The canary pass of the same round as each sample above.
    pub canary: Vec<f64>,
    /// Requested from the allocator inside the interactive spans.
    pub interactive_alloc: AllocCounters,
    pub interactive_deltas: u64,
    /// Writer cycles that published an epoch for an interactive delta.
    pub interactive_epochs: u64,
}

impl Samples {
    pub fn rounds(&self) -> usize {
        self.bulk.len()
    }

    pub fn all_apply_visible(&self) -> Vec<f64> {
        self.apply_visible.concat()
    }

    /// The bulk batch as a rate: tuples moved ÷ its calibrated time.
    pub fn ingest_tuples_per_s(&self) -> f64 {
        BULK_TUPLES as f64 / (calibrated(&self.bulk, &self.canary) / 1e3)
    }
}

/// What one timed write → read saw and cost.
pub struct Applied {
    pub published: Published,
    pub elapsed: Duration,
    pub alloc: AllocCounters,
    /// Writer cycles that applied a batch and published an epoch.
    pub epochs: usize,
    /// Shard sub-deltas the router split the submitted deltas into (one per
    /// delta when unsharded); durable stacks fsync and ACK each.
    pub sub_deltas: u64,
}

/// The interactive operation: `submit` returns (durable: fsynced) → the
/// writer is stepped until the ticket is applied on every shard → a reader
/// sees the new epoch's report.
pub fn apply_visible(
    served: &mut Served,
    delta: Delta,
    tracer: &mut Tracer,
    pos: Option<u8>,
) -> Fallible<Applied> {
    write_then_read(served, vec![delta], tracer, "apply_visible", pos)
}

/// The same write path with publication amortised: all deltas are queued
/// back to back, drained as one writer batch per shard, and read once.
pub fn bulk_batch(
    served: &mut Served,
    deltas: Vec<Delta>,
    tracer: &mut Tracer,
) -> Fallible<Applied> {
    write_then_read(served, deltas, tracer, "bulk_batch", None)
}

fn write_then_read(
    served: &mut Served,
    deltas: Vec<Delta>,
    tracer: &mut Tracer,
    span: &'static str,
    pos: Option<u8>,
) -> Fallible<Applied> {
    let alloc_before = AllocCounters::now();
    let started = Instant::now();
    tracer.enter(span, pos);

    tracer.enter("serve.submit", pos);
    let mut deltas = deltas.into_iter();
    let mut pending = served.submit(deltas.next().expect("at least one delta"))?;
    let mut sub_deltas = pending.parts() as u64;
    for delta in deltas {
        let later = served.submit(delta)?;
        sub_deltas += later.parts() as u64;
        pending.merge(later);
    }
    tracer.exit();

    tracer.enter("serve.step", pos);
    let epochs = served.step_until_applied(&pending)?;
    tracer.exit();

    tracer.enter("serve.read", pos);
    let published = served.read()?;
    black_box(published.report().num_sv() + published.report().num_mv());
    tracer.exit();

    tracer.exit();
    Ok(Applied {
        published,
        elapsed: started.elapsed(),
        alloc: AllocCounters::now().since(alloc_before),
        epochs,
        sub_deltas,
    })
}

/// A served stack at rest after set-up, and what set-up cost.
pub struct SetUp {
    pub served: Served,
    pub ids: IdCounter,
    pub cost: SetUpCost,
    pub acked_sub_deltas: u64,
}

/// What one set-up took.
#[derive(Debug, Clone)]
pub struct SetUpCost {
    /// Seconds per stage: session (`new` → `load` → `register`), `detect`,
    /// bootstrap → first read, then the four deltas of the cycle.
    pub stages: Vec<f64>,
    /// The canary (ms), mean of a pass right before and one right after.
    pub canary_ms: f64,
}

/// One from-scratch set-up, timed: `Session::new` → `load(data.clone())` →
/// `register` → `detect` → bootstrap (fresh WAL directory when durable) →
/// first read → one interactive cycle. The cycle is inside because the first
/// APPLY pays the lazy `IncrementalDetector` initialisation: work moved
/// between bootstrap and first apply must still show. Verification (and the
/// lockstep oracle, when given) runs between the timed stages. Stages are
/// timed one by one so that repeats can be compared stage by stage: set-up
/// time is the sum of each stage's calibrated median, which one slow
/// half-second on the host cannot move the way it moves the median whole
/// set-up of five. A canary pass before and one after give the calibration.
pub fn set_up(
    inputs: &Inputs,
    wal_dir: &Path,
    base: &DetectionReport,
    canary: &Canary,
    mut oracle: Option<&mut Session>,
    tally: &mut Tally,
) -> Fallible<SetUp> {
    let mut tracer = Tracer::disabled();
    let mut stages = Vec::with_capacity(7);
    let canary_before = canary.run();
    let mut stage = Instant::now();
    let mut lap = |now: Instant| {
        stages.push((now - stage).as_secs_f64());
        stage = now;
    };
    let mut session = inputs.session()?;
    lap(Instant::now());
    session.detect()?;
    lap(Instant::now());
    let mut served = Served::bootstrap(session, inputs.spec.serving, wal_dir)?;
    let first = served.read()?;
    lap(Instant::now());
    tally.ops(1, "set-up first read", first.report() == base);
    drop(first);

    let mut ids = IdCounter::after_base(inputs.data.len());
    let mut acked_sub_deltas = 0;
    let rest = Fingerprint::of(base);
    for (pos, delta) in inputs.cycle.interactive().into_iter().enumerate() {
        let first_id = ids.advance(&delta);
        let expected = oracle
            .as_deref_mut()
            .map(|o| o.apply_on("cust", &delta))
            .transpose()?;
        let applied = apply_visible(&mut served, delta, &mut tracer, None)?;
        stages.push(applied.elapsed.as_secs_f64());
        acked_sub_deltas += applied.sub_deltas;
        let report = applied.published.report();
        let ok =
            check_position(pos, report, &rest, first_id) && expected.is_none_or(|e| &e == report);
        tally.ops(1, "set-up cycle delta", ok);
    }
    let canary_ms = millis(canary_before + canary.run()) / 2.0;
    Ok(SetUp {
        served,
        ids,
        cost: SetUpCost { stages, canary_ms },
        acked_sub_deltas,
    })
}

/// The per-position checks of the interactive cycle: after `Δ2` the report
/// differs from the one at rest and flags the corrupted row; after `Δ1⁻¹`
/// and `Δ2⁻¹` row and violation counts are back where they were.
fn check_position(
    pos: usize,
    report: &DetectionReport,
    rest: &Fingerprint,
    first_id: RowId,
) -> bool {
    match pos {
        CORRUPT_POSITION => Fingerprint::of(report) != *rest && report.mv_rows.contains(&first_id),
        1 | 3 => counts(report) == rest.counts,
        _ => true,
    }
}

/// Everything a round touches.
pub struct Bench<'a> {
    pub inputs: &'a Inputs,
    /// The audit session's report over the base table — what
    /// `detect_batch` must return every round.
    pub base: DetectionReport,
    /// The BATCHDETECT user: a session over the base table that is only
    /// ever asked for full passes.
    pub audit: Session,
    pub served: Served,
    pub ids: IdCounter,
    pub canary: &'a Canary,
    /// An unsharded session fed the same deltas in lockstep; present on the
    /// stack that is checked against it, through its set-up and warm-up
    /// rounds. Row ids are handed out sequentially, so an oracle that is to
    /// agree on ids has to apply every delta — 12 extra applies a round —
    /// which is why it does not run the measured rounds and `compose` takes
    /// over there.
    pub oracle: Option<Session>,
    pub tally: Tally,
    /// Shard sub-deltas acknowledged so far — what a durable restart must
    /// replay.
    pub acked_sub_deltas: u64,
    interactive: Vec<Delta>,
    bulk: Vec<Delta>,
}

impl<'a> Bench<'a> {
    pub fn new(
        inputs: &'a Inputs,
        base: DetectionReport,
        audit: Session,
        set_up: SetUp,
        canary: &'a Canary,
        oracle: Option<Session>,
        tally: Tally,
    ) -> Self {
        Bench {
            inputs,
            base,
            audit,
            acked_sub_deltas: set_up.acked_sub_deltas,
            served: set_up.served,
            ids: set_up.ids,
            canary,
            oracle,
            tally,
            interactive: inputs.cycle.interactive(),
            bulk: inputs.cycle.bulk(),
        }
    }

    /// Runs one round. `samples` is `None` on warm-up rounds; `scope`
    /// brackets the interactive cycle with readings of the writer's own
    /// histograms (traced lane only).
    pub fn round(
        &mut self,
        round: u32,
        tracer: &mut Tracer,
        mut samples: Option<&mut Samples>,
        mut scope: Option<&mut WriterScope>,
    ) -> Fallible<()> {
        tracer.set_round(round);
        tracer.enter("round", None);

        // detect_batch: catalog in, report out, cache bypassed.
        tracer.enter("detect_batch", None);
        let started = Instant::now();
        let report = self.audit.detect_with(BackendKind::Semantic)?;
        let elapsed = started.elapsed();
        tracer.exit();
        self.tally
            .ops(1, "detect_batch == base report", report == self.base);
        drop(report);
        if let Some(s) = samples.as_deref_mut() {
            s.detect_batch.push(millis(elapsed));
        }

        // detect_fresh: the verified from-scratch answer on the served state.
        tracer.enter("detect_fresh", None);
        let started = Instant::now();
        let fresh = self.served.fresh()?;
        let elapsed = started.elapsed();
        tracer.exit();
        let rest = Fingerprint::of(self.served.read()?.report());
        self.tally.ops(
            1,
            "detect_fresh == published report, counts at rest == base",
            Fingerprint::of(&fresh) == rest && rest.counts == counts(&self.base),
        );
        drop(fresh);
        if let Some(s) = samples.as_deref_mut() {
            s.detect_fresh.push(millis(elapsed));
        }

        // The canary, mid-round: what the host is doing to everything else
        // in this round, it is doing to this.
        tracer.enter("canary", None);
        let elapsed = self.canary.run();
        tracer.exit();
        if let Some(s) = samples.as_deref_mut() {
            s.canary.push(millis(elapsed));
        }

        // The interactive cycle.
        if let Some(scope) = scope.as_deref_mut() {
            scope.begin();
        }
        let measured = round >= WARMUP_ROUNDS;
        for pos in 0..self.interactive.len() {
            let delta = self.interactive[pos].clone();
            let first_id = self.ids.advance(&delta);
            let expected = self
                .oracle
                .as_mut()
                .map(|o| o.apply_on("cust", &delta))
                .transpose()?;
            let applied = apply_visible(&mut self.served, delta, tracer, Some(pos as u8))?;
            self.acked_sub_deltas += applied.sub_deltas;
            let report = applied.published.report();
            let mut ok = check_position(pos, report, &rest, first_id)
                && expected.is_none_or(|e| &e == report);
            if pos == CORRUPT_POSITION
                && measured
                && (round - WARMUP_ROUNDS).is_multiple_of(COMPOSE_EVERY)
            {
                ok &= self.served.compose()?.report() == report;
            }
            self.tally.ops(1, "interactive delta", ok);
            if let Some(s) = samples.as_deref_mut() {
                s.apply_visible[pos].push(millis(applied.elapsed));
                s.interactive_alloc.add(applied.alloc);
                s.interactive_deltas += 1;
                s.interactive_epochs += applied.epochs as u64;
            }
        }
        if let Some(scope) = scope {
            scope.end();
        }

        // The bulk batch.
        let deltas = self.bulk.clone();
        let mut expected = None;
        for delta in &deltas {
            self.ids.advance(delta);
            if let Some(oracle) = self.oracle.as_mut() {
                expected = Some(oracle.apply_on("cust", delta)?);
            }
        }
        let applied = bulk_batch(&mut self.served, deltas, tracer)?;
        self.acked_sub_deltas += applied.sub_deltas;
        let report = applied.published.report();
        let ok = counts(report) == rest.counts
            && expected.is_none_or(|e| &e == report)
            && self.served.write_errors() == 0;
        self.tally.ops(self.bulk.len() as u64, "bulk batch", ok);
        drop(applied.published);
        if let Some(s) = samples {
            s.bulk.push(millis(applied.elapsed));
        }

        tracer.exit();
        Ok(())
    }

    /// Runs `per_lane` measured rounds per lane, numbered from `first`;
    /// round `first + k` goes to lane `k mod lanes`.
    pub fn run_rounds(&mut self, first: u32, per_lane: u32, lanes: &mut [Lane]) -> Fallible<()> {
        for k in 0..per_lane * lanes.len() as u32 {
            let lane = &mut lanes[k as usize % lanes.len()];
            self.round(
                first + k,
                &mut lane.tracer,
                Some(&mut lane.samples),
                lane.scope.as_mut(),
            )?;
        }
        Ok(())
    }
}

/// Where a measured round records: its samples, its spans, and (traced lanes)
/// the readings of the writer's own metrics. A traced run alternates an
/// untraced and a traced lane round by round, so both see the same host
/// phases and their difference is the tracing overhead, not the drift.
pub struct Lane {
    pub tracer: Tracer,
    pub samples: Samples,
    pub scope: Option<WriterScope>,
}

impl Lane {
    pub fn untraced() -> Self {
        Lane {
            tracer: Tracer::disabled(),
            samples: Samples::default(),
            scope: None,
        }
    }
}

/// Spans one round records, for sizing the span buffer.
pub const SPANS_PER_ROUND: usize = 1 + 2 + 4 * 4 + 4 + 1;

/// Tuples moved by one bulk batch.
pub const BULK_TUPLES: usize = 8 * 2 * TUPLES_PER_SIDE;
