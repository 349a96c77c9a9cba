//! The four workloads and their generated inputs. README.md has the table
//! of why each exists and which layers it stresses.

use crate::cycle::{mix, DeltaCycle};
use ecfd_core::ECfd;
use ecfd_datagen::constraints::{workload_constraints, workload_with_scaled_constraint};
use ecfd_datagen::{generate, CustConfig};
use ecfd_relation::Relation;
use ecfd_session::{Parallelism, RoutingPolicy, Session};
use std::path::PathBuf;
use std::time::Instant;

/// How a workload is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serving {
    /// One in-memory `Writer` + `Hub`.
    Single,
    /// `ShardedHub::bootstrap_durable` with this many shards keyed by `CT`.
    DurableSharded(usize),
}

/// One workload's fixed parameters: the instance, the constraints and how
/// long a run is. The run seed generates the update traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub rows: usize,
    pub noise_percent: f64,
    /// `Some(n)`: the first base eCFD is replaced by an `n`-pattern tableau.
    pub tableau: Option<usize>,
    pub serving: Serving,
    /// Measured rounds of a run of [`NOMINAL_SECONDS`]: fixed, so that every
    /// statistic is over the same N on every host and every commit. Sized so
    /// that the rounds and the set-up repeats take about that long on a
    /// quiet host; never below 30.
    pub rounds: u32,
}

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` the round counts are
/// sized for.
pub const NOMINAL_SECONDS: f64 = 20.0;

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "audit_dirty_40k",
        rows: 40_000,
        noise_percent: 5.0,
        tableau: None,
        serving: Serving::Single,
        rounds: 32,
    },
    WorkloadSpec {
        name: "monitor_clean_100k",
        rows: 100_000,
        noise_percent: 0.0,
        tableau: None,
        serving: Serving::Single,
        rounds: 30,
    },
    WorkloadSpec {
        name: "tableau_160_6k",
        rows: 6_000,
        noise_percent: 5.0,
        tableau: Some(160),
        serving: Serving::Single,
        rounds: 40,
    },
    WorkloadSpec {
        name: "durable_sharded_40k",
        rows: 40_000,
        noise_percent: 0.0,
        tableau: None,
        serving: Serving::DurableSharded(2),
        rounds: 36,
    },
];

/// Seed of the instance and of the scaled tableau. Both are part of the
/// workload's definition, like the ten base eCFDs — the paper's update
/// experiments fix `D` and vary `ΔD` the same way. The tableau's random
/// pattern mix (how many wildcard patterns match every row) moves a full pass
/// by ±20 % from one tableau to the next; the instance's (how many evidence
/// entries its rows carry) moves the bytes allocated per delta by ±1.5 % on
/// `tableau_160_6k` where the deltas move them by ±0.05 %, which would be the
/// spread, and so the bound, of a metric that is otherwise exact. The run
/// seed generates the update traffic.
const INSTANCE_SEED: u64 = 42;

impl WorkloadSpec {
    pub fn by_name(name: &str) -> Option<WorkloadSpec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload on a smaller table and a shorter run, for `--smoke`
    /// and the tests.
    pub fn shrunk(self, rows: usize, rounds: u32) -> WorkloadSpec {
        WorkloadSpec {
            rows,
            rounds,
            ..self
        }
    }

    /// The same workload with its rounds scaled from [`NOMINAL_SECONDS`] to
    /// `seconds`: a function of the command line alone.
    pub fn for_seconds(self, seconds: f64) -> WorkloadSpec {
        let rounds = (f64::from(self.rounds) * seconds / NOMINAL_SECONDS).round();
        WorkloadSpec {
            rounds: (rounds as u32).max(1),
            ..self
        }
    }
}

/// Everything the program under test is given: a relation, constraints and
/// deltas. The seeds stop here.
pub struct Inputs {
    pub spec: WorkloadSpec,
    pub data: Relation,
    pub constraints: Vec<ECfd>,
    pub cycle: DeltaCycle,
    /// Time spent generating, reported as `datagen.generate_s` and excluded
    /// from set-up: it is the load generator's, not the system's.
    pub generate_s: f64,
}

impl Inputs {
    pub fn generate(spec: WorkloadSpec, seed: u64) -> Inputs {
        let started = Instant::now();
        let (data, _) = generate(&CustConfig {
            size: spec.rows,
            noise_percent: spec.noise_percent,
            seed: INSTANCE_SEED,
            ..CustConfig::default()
        });
        let constraints = match spec.tableau {
            Some(patterns) => workload_with_scaled_constraint(patterns, INSTANCE_SEED),
            None => workload_constraints(),
        };
        let cycle = DeltaCycle::generate(&data, mix(seed, 1 << 32));
        Inputs {
            spec,
            data,
            constraints,
            cycle,
            generate_s: started.elapsed().as_secs_f64(),
        }
    }

    /// A session over the base table with the constraints registered —
    /// the starting point of every served stack, audit and oracle.
    pub fn session(&self) -> Result<Session, String> {
        let mut session = Session::new().with_policy(policy());
        session.load(self.data.clone()).map_err(|e| e.to_string())?;
        session
            .register(&self.constraints)
            .map_err(|e| e.to_string())?;
        Ok(session)
    }
}

/// Default routing with one detection worker: no number may depend on how a
/// shared 2-core host schedules a second thread.
pub fn policy() -> RoutingPolicy {
    RoutingPolicy::default().with_parallelism(Parallelism::Fixed(1))
}

/// `benchmark/out/`: the only place the benchmark writes (WAL directories,
/// trace files).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_selects_the_traffic_and_the_workload_the_instance() {
        let spec = WorkloadSpec::by_name("tableau_160_6k")
            .unwrap()
            .shrunk(300, 3);
        let a = Inputs::generate(spec, 7);
        let b = Inputs::generate(spec, 7);
        let c = Inputs::generate(spec, 8);
        assert_eq!(a.cycle, b.cycle);
        assert_ne!(a.cycle, c.cycle);
        assert_eq!(a.data, c.data);
        assert_eq!(a.constraints, c.constraints);
        assert_eq!(a.data.len(), 300);
        assert_eq!(a.constraints[0].tableau_size(), 160);
        assert!(WorkloadSpec::by_name("nope").is_none());
    }

    #[test]
    fn rounds_scale_with_the_seconds_asked_for_and_nothing_else() {
        for spec in WORKLOADS {
            assert!(spec.rounds >= 30, "{}", spec.name);
            assert_eq!(spec.for_seconds(NOMINAL_SECONDS), spec);
            assert_eq!(
                spec.for_seconds(2.0 * NOMINAL_SECONDS).rounds,
                2 * spec.rounds
            );
            assert_eq!(spec.for_seconds(0.01).rounds, 1);
        }
    }
}
