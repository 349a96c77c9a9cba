//! The repo's benchmark: end-to-end and per-layer metrics of the eCFD
//! session/serving stack on four generated `cust` workloads. README.md
//! defines every workload and metric and explains the measurement protocol.
//!
//! ```text
//! ecfd_benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ecfd_benchmark --smoke
//! ```
//!
//! One thread, closed loop, one client: the benchmark thread submits, steps
//! the writer(s) itself and reads, with one detection worker everywhere, so
//! no number depends on how a shared host schedules a second thread. The
//! last line of standard output is the result: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Any failed
//! operation makes the exit code non-zero.

mod alloc;
mod canary;
mod cycle;
mod layers;
mod metrics;
mod rounds;
mod served;
mod stats;
mod trace;
mod verify;
mod workload;

use crate::canary::Canary;
use crate::layers::{TracedRun, WriterScope};
use crate::metrics::{result_line, Values, END_TO_END, PER_LAYER};
use crate::rounds::{set_up, Bench, Lane, Samples, SetUpCost, SPANS_PER_ROUND, WARMUP_ROUNDS};
use crate::served::WalDirs;
use crate::stats::{best, calibrated, calibrated_per_position_mean, median, tail};
use crate::trace::Tracer;
use crate::verify::{restart_check, Tally};
use crate::workload::{out_dir, Inputs, WorkloadSpec, NOMINAL_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Errors of any layer, boxed: the benchmark reports them and stops.
pub type Fallible<T> = Result<T, Box<dyn std::error::Error>>;

/// From-scratch set-ups per gating run: the first builds the stack the
/// rounds run on, the last the one the lockstep oracle checks.
const SETUPS: usize = 5;
/// `--smoke`: every workload at this size, in both modes.
const SMOKE_ROWS: usize = 2_000;
const SMOKE_ROUNDS: u32 = 3;

#[derive(Debug, Clone, Copy)]
struct Options {
    seed: u64,
    trace: bool,
}

struct Cli {
    options: Options,
    /// Scales every workload's round count; see `WorkloadSpec::for_seconds`.
    seconds: f64,
    /// `None`: all four, one result line each.
    workload: Option<String>,
    smoke: bool,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            options: Options {
                seed: 42,
                trace: false,
            },
            seconds: NOMINAL_SECONDS,
            workload: None,
            smoke: false,
        };
        let mut args = args.skip(1);
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                cli.smoke = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => cli.workload = Some(value),
                "--seed" => cli.options.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => cli.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    cli.options.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !(cli.seconds > 0.0 && cli.seconds.is_finite()) {
            return Err(format!("--seconds {} must be positive", cli.seconds));
        }
        Ok(cli)
    }

    /// The `(workload, options)` pairs this invocation runs.
    fn plans(&self) -> Result<Vec<(WorkloadSpec, Options)>, String> {
        if self.smoke {
            // Every workload, both modes, all checks on.
            return Ok(WORKLOADS
                .iter()
                .flat_map(|w| [false, true].map(|trace| (*w, trace)))
                .map(|(w, trace)| {
                    let options = Options {
                        trace,
                        ..self.options
                    };
                    (w.shrunk(SMOKE_ROWS, SMOKE_ROUNDS), options)
                })
                .collect());
        }
        let selected = match &self.workload {
            Some(name) => vec![WorkloadSpec::by_name(name).ok_or_else(|| {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name}; one of {names:?}")
            })?],
            None => WORKLOADS.to_vec(),
        };
        Ok(selected
            .into_iter()
            .map(|w| (w.for_seconds(self.seconds), self.options))
            .collect())
    }
}

/// One run's result line and whether every operation succeeded.
struct Outcome {
    line: String,
    correct: bool,
}

/// A served stack after its set-up and the warm-up rounds.
struct Warmed<'a> {
    bench: Bench<'a>,
    setup: SetUpCost,
    wal_dir: PathBuf,
}

/// Builds the audit session and a served stack (one timed set-up) and runs
/// the warm-up rounds on it. With `lockstep`, an unsharded oracle session
/// applies every delta alongside and each published report must be
/// byte-identical to its answer; it is left in `bench.oracle`.
fn warm_up<'a>(
    inputs: &'a Inputs,
    canary: &'a Canary,
    wal_dirs: &mut WalDirs,
    lockstep: bool,
    mut tally: Tally,
) -> Fallible<Warmed<'a>> {
    // The audit session (full passes over the base table, nothing else) and
    // the oracle; neither is part of the timed set-up.
    let mut audit = inputs.session()?;
    let base = audit.detect()?;
    let mut oracle = if lockstep {
        let mut oracle = inputs.session()?;
        oracle.detect()?;
        Some(oracle)
    } else {
        None
    };

    let wal_dir = wal_dirs.next();
    let built = set_up(inputs, &wal_dir, &base, canary, oracle.as_mut(), &mut tally)?;
    let setup = built.cost.clone();
    let mut bench = Bench::new(inputs, base, audit, built, canary, oracle, tally);
    for round in 0..WARMUP_ROUNDS {
        bench.round(round, &mut Tracer::disabled(), None, None)?;
    }
    Ok(Warmed {
        bench,
        setup,
        wal_dir,
    })
}

/// `--trace 0`: the end-to-end metrics.
fn gating_run(inputs: &Inputs) -> Fallible<(Values, Tally)> {
    let mut wal_dirs = WalDirs::new(out_dir());
    let canary = Canary::new();
    // No oracle yet: until the peak is read, only what the metrics measure
    // (and the generated inputs) is resident.
    let Warmed {
        mut bench,
        setup,
        wal_dir,
    } = warm_up(inputs, &canary, &mut wal_dirs, false, Tally::default())?;

    let mut lanes = [Lane::untraced()];
    bench.run_rounds(WARMUP_ROUNDS, inputs.spec.rounds, &mut lanes)?;
    let [Lane { samples, .. }] = lanes;
    let peak_kb = alloc::peak_rss_kb().ok_or("no VmHWM in /proc/self/status")?;

    let acked = bench.acked_sub_deltas;
    let Bench {
        served,
        base,
        audit,
        mut tally,
        ..
    } = bench;
    // The last set-up builds its own.
    drop(audit);
    restart_check(served, inputs, &wal_dir, acked, &mut tally)?;
    // Each further set-up starts after the previous stack is dropped.
    let mut setups = vec![setup];
    while setups.len() < SETUPS - 1 {
        let built = set_up(inputs, &wal_dirs.next(), &base, &canary, None, &mut tally)?;
        setups.push(built.cost);
    }
    // The last one and its warm-up rounds run under the lockstep oracle.
    let verified = warm_up(inputs, &canary, &mut wal_dirs, true, tally)?;
    setups.push(verified.setup);
    let tally = verified.bench.tally;
    // One vector per stage, one sample per set-up.
    let stages: Vec<Vec<f64>> = (0..setups[0].stages.len())
        .map(|k| setups.iter().map(|s| s.stages[k]).collect())
        .collect();
    let setup_canary: Vec<f64> = setups.iter().map(|s| s.canary_ms).collect();

    let n = samples.rounds();
    let round_canary = &samples.canary;
    let mut values = Values::default();
    // Every stage calibrated on its own, then summed: the set-ups are few, so
    // one slow stage must not drag a whole set-up past the median.
    values.set(
        "setup_s",
        calibrated_per_position_mean(&stages, &setup_canary) * stages.len() as f64,
        setups.len(),
    );
    values.set(
        "detect_batch_ms",
        calibrated(&samples.detect_batch, round_canary),
        n,
    );
    values.set(
        "detect_fresh_ms",
        calibrated(&samples.detect_fresh, round_canary),
        n,
    );
    values.set(
        "apply_visible_ms",
        calibrated_per_position_mean(&samples.apply_visible, round_canary),
        n,
    );
    let deltas = samples.interactive_deltas;
    values.set(
        "alloc_kb_per_delta",
        samples.interactive_alloc.bytes as f64 / deltas as f64 / 1024.0,
        deltas as usize,
    );
    values.set("peak_rss_mb", peak_kb as f64 / 1024.0, 1);

    // Diagnostics that do not gate: on a shared host the raw times measure
    // the neighbours.
    for (op, timings) in [
        ("detect_batch", samples.detect_batch.clone()),
        ("detect_fresh", samples.detect_fresh.clone()),
        ("apply_visible", samples.all_apply_visible()),
        ("bulk_batch", samples.bulk.clone()),
    ] {
        let (q, value) = tail(&timings);
        println!(
            "# e2e.{op}: min {:.3} ms, p50 {:.3} ms, p{:.0} {value:.3} ms, n {}",
            best(&timings),
            median(&timings),
            q * 100.0,
            timings.len()
        );
    }
    println!(
        "# ingest: {:.1} tuples/s (calibrated, as e2e.ingest_tuples_per_s)",
        samples.ingest_tuples_per_s()
    );
    println!(
        "# allocator calls per interactive delta: {:.1}",
        samples.interactive_alloc.calls as f64 / deltas as f64
    );
    let stage_times: Vec<String> = stages
        .iter()
        .map(|s| format!("{:.4}", calibrated(s, &setup_canary)))
        .collect();
    println!(
        "# set-up stages, calibrated over {} (s): session, detect, bootstrap, 4 deltas = {}",
        setups.len(),
        stage_times.join(" ")
    );
    println!(
        "# canary: min {:.3} ms, p50 {:.3} ms",
        best(&samples.canary),
        median(&samples.canary)
    );
    Ok((values, tally))
}

/// `--trace 1`: rounds alternating between an untraced lane (the `e2e.*`
/// diagnostics and the baseline for the tracing overhead) and a traced one,
/// then the side calls.
fn traced_run(inputs: &Inputs) -> Fallible<(Values, Tally)> {
    let mut wal_dirs = WalDirs::new(out_dir());
    let canary = Canary::new();
    let Warmed {
        mut bench, wal_dir, ..
    } = warm_up(inputs, &canary, &mut wal_dirs, true, Tally::default())?;
    // The retired oracle: a warm unsharded session at rest.
    let side = bench.oracle.take().expect("the oracle ran the warm-up");

    // Three quarters of a gating run's rounds; the side calls take the rest.
    let per_lane = (inputs.spec.rounds * 3).div_ceil(8);
    let mut lanes = [
        Lane::untraced(),
        Lane {
            tracer: Tracer::recording(per_lane as usize * SPANS_PER_ROUND),
            samples: Samples::default(),
            scope: Some(WriterScope::of(inputs.spec.serving)),
        },
    ];
    bench.run_rounds(WARMUP_ROUNDS, per_lane, &mut lanes)?;
    let [Lane {
        samples: untraced, ..
    }, Lane {
        tracer,
        samples: traced,
        scope,
    }] = lanes;
    let scope = scope.expect("the traced lane has one");

    let mut values = Values::default();
    layers::side_calls(&mut bench, side, &mut wal_dirs, &mut values)?;

    let shards = bench.served.num_shards();
    let acked = bench.acked_sub_deltas;
    let Bench {
        served, mut tally, ..
    } = bench;
    let restart = restart_check(served, inputs, &wal_dir, acked, &mut tally)?;
    layers::from_traced_rounds(
        &TracedRun {
            untraced: &untraced,
            traced: &traced,
            spans: tracer.spans(),
            scope: &scope,
            restart,
        },
        shards,
        &mut values,
    );
    let path = out_dir().join(format!("{}.trace.jsonl", inputs.spec.name));
    tracer.write_jsonl(&path)?;
    println!(
        "# {} spans of {} traced rounds in {}",
        tracer.spans().len(),
        traced.rounds(),
        path.display()
    );
    Ok((values, tally))
}

/// Runs one workload in one mode, prints every metric by name with unit and
/// sample count, and renders the result line.
fn run(spec: WorkloadSpec, options: &Options) -> Fallible<Outcome> {
    let inputs = Inputs::generate(spec, options.seed);
    std::fs::create_dir_all(out_dir())?;
    let (table, (values, tally)): (&[(&str, &str)], _) = if options.trace {
        (&PER_LAYER, traced_run(&inputs)?)
    } else {
        (&END_TO_END, gating_run(&inputs)?)
    };
    println!(
        "# workload {} rows {} rounds {} seed {} trace {}",
        spec.name,
        spec.rows,
        spec.rounds,
        options.seed,
        u8::from(options.trace)
    );
    for (name, unit) in table {
        if let Some((value, n)) = values.get(name) {
            println!("{name:<34} {value:>16.4} {unit:<6} n={n}");
        }
    }
    Ok(Outcome {
        line: result_line(table, &values, tally.attempted, tally.failed)?,
        correct: tally.correct(),
    })
}

fn main() -> ExitCode {
    let plans = match Cli::parse(std::env::args()).and_then(|cli| cli.plans()) {
        Ok(plans) => plans,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for (spec, options) in &plans {
        match run(*spec, options) {
            Ok(outcome) => {
                all_correct &= outcome.correct;
                println!("{}", outcome.line);
            }
            Err(error) => {
                eprintln!("error: {}: {error}", spec.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
